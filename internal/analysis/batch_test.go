package analysis

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"infilter/internal/eia"
	"infilter/internal/flow"
	"infilter/internal/idmef"
	"infilter/internal/netaddr"
	"infilter/internal/nns"
	"infilter/internal/testutil"
)

// batchSizes are the batch widths the ISSUE pins for the equivalence
// gate: degenerate single-record batches, a typical datagram's worth,
// and batches wide enough to span EIA promotions mid-batch (the suspect
// streams are 60 records at PromoteThreshold 4, so a 256-wide batch
// forces the tail re-check path).
var batchSizes = []int{1, 16, 256}

// interleaveRoundRobin flattens the per-peer streams into the one global
// order the serial reference replays: round-robin over peers, each peer's
// own order preserved.
func interleaveRoundRobin(w parallelWorkload) []LabeledRecord {
	var out []LabeledRecord
	for i := 0; ; i++ {
		any := false
		for p := 1; p <= workloadPeers; p++ {
			stream := w.streams[eia.PeerAS(p)]
			if i < len(stream) {
				out = append(out, LabeledRecord{Peer: eia.PeerAS(p), Record: stream[i]})
				any = true
			}
		}
		if !any {
			return out
		}
	}
}

// runSerialReference replays the interleave per record and returns the
// reference outcome every batched variant must reproduce.
func runSerialReference(t *testing.T, w parallelWorkload, interleave []LabeledRecord) (Stats, int, []byte) {
	t.Helper()
	serial, err := Train(w.cfg, w.labeled)
	if err != nil {
		t.Fatal(err)
	}
	alerts := 0
	serial.SetAlertSink(func(a idmef.Alert) { alerts++ })
	for _, lr := range interleave {
		serial.Process(lr.Peer, lr.Record)
	}
	var eiaState bytes.Buffer
	if _, err := serial.EIASet().WriteTo(&eiaState); err != nil {
		t.Fatal(err)
	}
	st := serial.Stats()
	if st.Attacks == 0 || st.Promotions == 0 || st.Suspects == 0 {
		t.Fatalf("degenerate workload: %+v", st)
	}
	return st, alerts, eiaState.Bytes()
}

// peerChunkBatches cuts every peer's stream into size-record chunks and
// packs round k's chunks, one per peer, into one labeled batch. Each
// batch is therefore workloadPeers same-peer runs of up to size records:
// ProcessBatch has runs to split, and at size > 1 a promotion can land
// mid-run, forcing the tail re-check.
func peerChunkBatches(w parallelWorkload, size int) [][]LabeledRecord {
	var out [][]LabeledRecord
	for off := 0; ; off += size {
		var batch []LabeledRecord
		for p := 1; p <= workloadPeers; p++ {
			stream := w.streams[eia.PeerAS(p)]
			for i := off; i < off+size && i < len(stream); i++ {
				batch = append(batch, LabeledRecord{Peer: eia.PeerAS(p), Record: stream[i]})
			}
		}
		if len(batch) == 0 {
			return out
		}
		out = append(out, batch)
	}
}

// promotionIndices replays every peer's stream per record and returns,
// per peer, the stream indices whose decision completed a promotion. Peer
// address spaces are disjoint, so the indices do not depend on how the
// peers' streams are interleaved.
func promotionIndices(t *testing.T, w parallelWorkload, detector *nns.Detector) map[eia.PeerAS][]int {
	t.Helper()
	eng, err := NewEngine(w.cfg, freshTrainedSet(w.cfg, w.labeled), detector)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[eia.PeerAS][]int)
	for p := 1; p <= workloadPeers; p++ {
		peer := eia.PeerAS(p)
		for i, r := range w.streams[peer] {
			if eng.Process(peer, r).Promoted {
				out[peer] = append(out[peer], i)
			}
		}
	}
	return out
}

// TestSerialBatchMatchesPerRecord replays the per-peer chunks of
// peerChunkBatches through ProcessBatch at every pinned batch size:
// verdict counters, alert counts and the EIA end-state must be identical
// to per-record processing. At sizes above 1 at least one promotion must
// land mid-run, so a pass proves the mid-batch snapshot refresh (tail
// re-check) works on the synchronous path.
func TestSerialBatchMatchesPerRecord(t *testing.T) {
	w := buildParallelWorkload(t)
	interleave := interleaveRoundRobin(w)
	want, wantAlerts, wantEIA := runSerialReference(t, w, interleave)
	detector := mustDetector(t, w)
	promoted := promotionIndices(t, w, detector)

	for _, size := range batchSizes {
		t.Run(fmt.Sprintf("batch=%d", size), func(t *testing.T) {
			if size > 1 {
				midRun := 0
				for peer, idx := range promoted {
					last := len(w.streams[peer]) - 1
					for _, i := range idx {
						if (i+1)%size != 0 && i != last {
							midRun++
						}
					}
				}
				if midRun == 0 {
					t.Fatal("no promotion lands mid-run; the tail re-check is not exercised")
				}
			}
			eng, err := NewEngine(w.cfg, freshTrainedSet(w.cfg, w.labeled), detector)
			if err != nil {
				t.Fatal(err)
			}
			alerts := 0
			eng.SetAlertSink(func(a idmef.Alert) { alerts++ })
			for _, batch := range peerChunkBatches(w, size) {
				eng.ProcessBatch(batch)
			}
			if got := eng.Stats(); !reflect.DeepEqual(got, want) {
				t.Errorf("batched stats = %+v, per-record = %+v", got, want)
			}
			if alerts != wantAlerts {
				t.Errorf("batched alerts = %d, per-record = %d", alerts, wantAlerts)
			}
			var eiaState bytes.Buffer
			if _, err := eng.EIASet().WriteTo(&eiaState); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(eiaState.Bytes(), wantEIA) {
				t.Error("batched EIA end-state differs from per-record end-state")
			}
		})
	}
}

// TestParallelBatchMatchesSerial is the batched arm of the concurrency
// stress test: one goroutine per peer replays its stream through
// SubmitBatch in size-bounded chunks, across shard counts. The merged
// counters, alert counts and EIA end-state must match the per-record
// serial reference, as TestParallelEngineMatchesSerial demands of
// per-record Submit.
func TestParallelBatchMatchesSerial(t *testing.T) {
	w := buildParallelWorkload(t)
	interleave := interleaveRoundRobin(w)
	want, wantAlerts, wantEIA := runSerialReference(t, w, interleave)
	detector := mustDetector(t, w)

	for _, shards := range []int{1, 3, workloadPeers} {
		for _, size := range batchSizes {
			t.Run(fmt.Sprintf("shards=%d/batch=%d", shards, size), func(t *testing.T) {
				pe, err := NewParallelEngine(
					ParallelConfig{Config: w.cfg, Shards: shards, QueueDepth: 16},
					freshTrainedSet(w.cfg, w.labeled), detector)
				if err != nil {
					t.Fatal(err)
				}
				var alerts atomic.Int64
				pe.SetAlertSink(func(a idmef.Alert) { alerts.Add(1) })

				var wg sync.WaitGroup
				for p := 1; p <= workloadPeers; p++ {
					wg.Add(1)
					go func(peer eia.PeerAS) {
						defer wg.Done()
						stream := w.streams[peer]
						for off := 0; off < len(stream); off += size {
							end := off + size
							if end > len(stream) {
								end = len(stream)
							}
							if err := pe.SubmitBatch(peer, stream[off:end]); err != nil {
								t.Errorf("SubmitBatch: %v", err)
								return
							}
						}
					}(eia.PeerAS(p))
				}
				wg.Wait()
				pe.Flush()
				got := pe.Stats()
				var eiaState bytes.Buffer
				if _, err := pe.EIASet().WriteTo(&eiaState); err != nil {
					t.Fatal(err)
				}
				if err := pe.Close(); err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("batched stats = %+v, serial = %+v", got, want)
				}
				if int(alerts.Load()) != wantAlerts {
					t.Errorf("batched alerts = %d, serial = %d", alerts.Load(), wantAlerts)
				}
				if !bytes.Equal(eiaState.Bytes(), wantEIA) {
					t.Error("batched EIA end-state differs from serial end-state")
				}
			})
		}
	}
}

// mustDetector trains the shared read-only NNS detector once per test
// (it is safe to share across engines; only the EIA set mutates).
func mustDetector(t *testing.T, w parallelWorkload) *nns.Detector {
	t.Helper()
	_, detector, err := trainComponents(w.cfg, w.labeled)
	if err != nil {
		t.Fatal(err)
	}
	return detector
}

// TestParallelEngineBatchWorkerLeak cycles engines through the batched
// entry point — including Close with batches still queued — and fails
// on any worker goroutine left behind.
func TestParallelEngineBatchWorkerLeak(t *testing.T) {
	set := eia.NewSet(eia.Config{})
	set.AddPrefix(1, netaddr.MustParsePrefix("61.0.0.0/11"))
	recs := make([]flow.Record, 32)
	for i := range recs {
		recs[i] = flow.Record{Key: flow.Key{Src: netaddr.MustParseAddr("99.1.1.1")}}
	}
	testutil.ExpectNoGoroutineGrowth(t, func() {
		for i := 0; i < 5; i++ {
			pe, err := NewParallelEngine(
				ParallelConfig{Config: Config{Mode: ModeBasic}, Shards: 6, QueueDepth: 4}, set, nil)
			if err != nil {
				t.Fatal(err)
			}
			for j := 0; j < 8; j++ {
				if err := pe.SubmitBatch(eia.PeerAS(j%4+1), recs); err != nil {
					t.Fatal(err)
				}
			}
			// No Flush: Close must drain queued batches and stop cleanly.
			if err := pe.Close(); err != nil {
				t.Fatal(err)
			}
			if err := pe.SubmitBatch(1, recs); err != ErrEngineClosed {
				t.Fatalf("SubmitBatch after Close = %v, want ErrEngineClosed", err)
			}
		}
	})
}
