package analysis

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"

	"infilter/internal/eia"
	"infilter/internal/idmef"
)

// bloomCfgVariant returns base with the EIA Bloom tier enabled at the
// given bits-per-entry budget.
func bloomCfgVariant(base Config, bitsPerEntry int) Config {
	base.EIA.BloomBitsPerEntry = bitsPerEntry
	return base
}

// encodeDecision packs the observable outcome of one flow into the
// verdict stream the equivalence gate compares byte-for-byte.
func encodeDecision(buf *bytes.Buffer, d Decision) {
	buf.WriteByte(byte(d.Verdict))
	if d.Attack {
		buf.WriteByte(1)
	} else {
		buf.WriteByte(0)
	}
	buf.WriteString(string(d.Stage))
	if d.Promoted {
		buf.WriteByte('P')
	}
	buf.WriteByte('\n')
}

// TestBloomTierVerdictStreamIdentical is the tentpole's correctness
// gate: with the EIA Bloom fast tier enabled, the serial engine must
// produce a byte-identical per-record decision stream — verdict, attack
// flag, deciding stage, promotions — over a workload that spans
// promotions and re-homes. Run at 1 bit/entry (filters saturate, heavy
// false-positive pressure, every path through the fallback) and at the
// production default of 10.
func TestBloomTierVerdictStreamIdentical(t *testing.T) {
	w := buildParallelWorkload(t)
	interleave := interleaveRoundRobin(w)
	detector := mustDetector(t, w)

	runStream := func(cfg Config) []byte {
		eng, err := NewEngine(cfg, freshTrainedSet(cfg, w.labeled), detector)
		if err != nil {
			t.Fatal(err)
		}
		var stream bytes.Buffer
		for _, lr := range interleave {
			encodeDecision(&stream, eng.Process(lr.Peer, lr.Record))
		}
		return stream.Bytes()
	}
	want := runStream(w.cfg)

	for _, bits := range []int{1, 10} {
		t.Run(fmt.Sprintf("bits=%d", bits), func(t *testing.T) {
			got := runStream(bloomCfgVariant(w.cfg, bits))
			if !bytes.Equal(got, want) {
				t.Fatalf("decision stream with Bloom tier (%d bits/entry) differs from exact-only stream", bits)
			}
		})
	}
}

// TestBloomTierBatchMatchesExact replays the per-peer chunks of
// peerChunkBatches through ProcessBatch with the Bloom tier on, at every
// pinned batch size: stats, alerts and the EIA end-state must match the
// tier-free per-record reference. Chunks above size 1 span promotions, so
// the mid-run snapshot refresh runs against freshly republished filters.
func TestBloomTierBatchMatchesExact(t *testing.T) {
	w := buildParallelWorkload(t)
	interleave := interleaveRoundRobin(w)
	want, wantAlerts, wantEIA := runSerialReference(t, w, interleave)
	detector := mustDetector(t, w)

	for _, bits := range []int{1, 10} {
		cfg := bloomCfgVariant(w.cfg, bits)
		for _, size := range batchSizes {
			t.Run(fmt.Sprintf("bits=%d/batch=%d", bits, size), func(t *testing.T) {
				eng, err := NewEngine(cfg, freshTrainedSet(cfg, w.labeled), detector)
				if err != nil {
					t.Fatal(err)
				}
				alerts := 0
				eng.SetAlertSink(func(a idmef.Alert) { alerts++ })
				for _, batch := range peerChunkBatches(w, size) {
					eng.ProcessBatch(batch)
				}
				if got := eng.Stats(); !reflect.DeepEqual(got, want) {
					t.Errorf("bloom batched stats = %+v, exact per-record = %+v", got, want)
				}
				if alerts != wantAlerts {
					t.Errorf("bloom batched alerts = %d, exact = %d", alerts, wantAlerts)
				}
				var eiaState bytes.Buffer
				if _, err := eng.EIASet().WriteTo(&eiaState); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(eiaState.Bytes(), wantEIA) {
					t.Error("bloom batched EIA end-state differs from exact end-state")
				}
			})
		}
	}
}

// TestBloomTierParallelMatchesExact drives the sharded engine with the
// Bloom tier enabled — concurrent SubmitBatch against the COW snapshot
// store republishing filters under promotion load — and demands the
// merged counters, alerts and EIA end-state of the exact serial
// reference. Under -race this is also the data-race gate for the
// published tier.
func TestBloomTierParallelMatchesExact(t *testing.T) {
	w := buildParallelWorkload(t)
	interleave := interleaveRoundRobin(w)
	want, wantAlerts, wantEIA := runSerialReference(t, w, interleave)
	detector := mustDetector(t, w)
	cfg := bloomCfgVariant(w.cfg, 10)

	const size = 16
	pe, err := NewParallelEngine(
		ParallelConfig{Config: cfg, Shards: 3, QueueDepth: 16},
		freshTrainedSet(cfg, w.labeled), detector)
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
		t.Errorf("bloom parallel stats = %+v, exact serial = %+v", got, want)
	}
	if int(alerts.Load()) != wantAlerts {
		t.Errorf("bloom parallel alerts = %d, exact serial = %d", alerts.Load(), wantAlerts)
	}
	if !bytes.Equal(eiaState.Bytes(), wantEIA) {
		t.Error("bloom parallel EIA end-state differs from exact serial end-state")
	}
}
