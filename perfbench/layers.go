package main

// Per-layer measurements that need a run of their own: the in-process
// collector, the serial and sharded engines without sockets, decode and
// scan allocations, and NNS training.

import (
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"infilter/internal/analysis"
	"infilter/internal/eia"
	"infilter/internal/flow"
	"infilter/internal/flowtools"
	"infilter/internal/netaddr"
	"infilter/internal/netflow"
	"infilter/internal/nns"
	"infilter/internal/scan"
	"infilter/internal/telemetry"
	"infilter/internal/trace"
)

// peerBatch is one decoded ingest batch of peer p (0-based).
type peerBatch struct {
	p    int
	recs []flow.Record
}

// prefixBatches decodes and copies the log's batches of the first
// rounds, enough for about limit records.
func prefixBatches(l *sentLog, limit int) ([]peerBatch, error) {
	short := *l
	short.rounds = min(l.rounds, limit/(numPeers*l.t.w.roundRecs())+1)
	var out []peerBatch
	_, err := short.each(func(p int, recs []flow.Record) {
		out = append(out, peerBatch{p: p, recs: append([]flow.Record(nil), recs...)})
	}, nil)
	return out, err
}

// engineLayers times the serial Engine (ProcessBatch) and the sharded
// ParallelEngine (SubmitBatch, then Flush) over the same batches.
func engineLayers(batches []peerBatch, eiaPath, modelPath string) (serialNS, submitNS, handoffNS float64, blocks int64, err error) {
	var recs int64
	for _, b := range batches {
		recs += int64(len(b.recs))
	}
	if recs == 0 {
		return 0, 0, 0, 0, fmt.Errorf("no records for the engine layers")
	}
	set, err := loadEIA(eiaPath)
	if err != nil {
		return
	}
	det, err := loadModel(modelPath)
	if err != nil {
		return
	}
	serial, err := analysis.NewEngine(deployment(), set, det)
	if err != nil {
		return
	}
	labeled := make([]analysis.LabeledRecord, 0, flowtools.DefaultBatchRecords)
	start := time.Now()
	for _, b := range batches {
		labeled = labeled[:0]
		for _, r := range b.recs {
			labeled = append(labeled, analysis.LabeledRecord{Peer: eia.PeerAS(b.p + 1), Record: r})
		}
		serial.ProcessBatch(labeled)
	}
	serialNS = float64(time.Since(start)) / float64(recs)

	// Sharded, with the daemon's queue depth: wall time to drain and the
	// backpressure events.
	wall, _, m, err := runParallel(batches, eiaPath, det, analysis.DefaultQueueDepth)
	if err != nil {
		return
	}
	submitNS = float64(wall) / float64(recs)
	blocks = int64(m["infilter_pipeline_enqueue_blocks_total"])
	// Sharded, with queues deep enough never to block: the submitter's
	// own cost of handing a batch over (copy and enqueue), free of
	// backpressure waits.
	_, inSubmit, _, err := runParallel(batches, eiaPath, det, len(batches)+1)
	if err != nil {
		return
	}
	handoffNS = float64(inSubmit) / float64(recs)
	return serialNS, submitNS, handoffNS, blocks, nil
}

// runParallel submits the batches to a fresh ParallelEngine and waits
// for the drain; it returns the wall time, the time spent inside
// SubmitBatch, and the engine's metrics.
func runParallel(batches []peerBatch, eiaPath string, det *nns.Detector, depth int) (wall, inSubmit time.Duration, m map[string]float64, err error) {
	set, err := loadEIA(eiaPath)
	if err != nil {
		return
	}
	reg := telemetry.NewRegistry()
	par, err := analysis.NewParallelEngine(analysis.ParallelConfig{
		Config:     deployment(),
		Shards:     numPeers,
		QueueDepth: depth,
		Metrics:    analysis.NewPipelineMetrics(reg, numPeers),
	}, set, det)
	if err != nil {
		return
	}
	start := time.Now()
	for _, b := range batches {
		t := time.Now()
		if err = par.SubmitBatch(eia.PeerAS(b.p+1), b.recs); err != nil {
			par.Close()
			return
		}
		inSubmit += time.Since(t)
	}
	par.Flush()
	wall = time.Since(start)
	if err = par.Close(); err != nil {
		return
	}
	m, err = scrape(reg)
	return
}

// recvLayer drives an in-process collector with a counting handler over
// loopback with peer 1's stream and returns wall ns per record and the
// mean records per delivered batch.
func recvLayer(t *traffic, maxRecs int64) (nsPerRec, batchMean float64, err error) {
	var recs, batches atomic.Int64
	col := flowtools.New(flowtools.Config{ReadBuffer: 4 << 20}, func(b flowtools.Batch) {
		recs.Add(int64(len(b.Records)))
		batches.Add(1)
	})
	col.SetTemplateCache(netflow.NewTemplateCache(netflow.TemplateCacheConfig{}))
	defer col.Close()
	port, err := col.Listen(0)
	if err != nil {
		return 0, 0, err
	}
	conn, err := net.DialUDP("udp4", nil, &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: port})
	if err != nil {
		return 0, 0, err
	}
	defer conn.Close()
	for _, d := range t.preamble[0] {
		if _, err := conn.Write(d.raw); err != nil {
			return 0, 0, err
		}
	}
	// Keep at most window records in flight so the receive buffer never
	// overflows; the loop then runs at the collector's pace.
	const window = 8192
	var sent int64
	var scratch []dgram
	start := time.Now()
	deadline := start.Add(20 * time.Second)
	for r := 0; sent < maxRecs && r < t.maxRounds; r++ {
		scratch = t.round(0, r, scratch)
		for _, d := range scratch {
			for sent-recs.Load() > window {
				if time.Now().After(deadline) {
					return 0, 0, fmt.Errorf("collector stalled")
				}
				runtime.Gosched()
			}
			if _, err := conn.Write(d.raw); err != nil {
				return 0, 0, err
			}
			sent += int64(d.recs)
		}
	}
	for recs.Load() < sent {
		if time.Now().After(deadline) {
			return 0, 0, fmt.Errorf("collector received %d of %d records", recs.Load(), sent)
		}
		time.Sleep(100 * time.Microsecond)
	}
	elapsed := time.Since(start)
	return float64(elapsed) / float64(sent), float64(sent) / float64(batches.Load()), nil
}

// mallocs runs fn and returns the heap allocations it made.
func mallocs(fn func()) uint64 {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return b.Mallocs - a.Mallocs
}

// decodeAllocs decodes the first rounds of every peer a second time
// with fresh buffers and returns the allocations per datagram in steady
// state: the preambles and round 0 (template learning, first buffer
// growth) are decoded before counting.
func decodeAllocs(t *traffic, rounds int) (float64, error) {
	dec := newDecoder()
	var scratch []dgram
	for p := 0; p < numPeers; p++ {
		if err := dec.decode(p, t.preamble[p]); err != nil {
			return 0, err
		}
		if err := dec.decode(p, t.round(p, 0, scratch)); err != nil {
			return 0, err
		}
		dec.recs[p] = dec.recs[p][:0]
	}
	var (
		dgs  int
		derr error
	)
	n := mallocs(func() {
		for r := 1; r < rounds; r++ {
			for p := 0; p < numPeers; p++ {
				scratch = t.round(p, r, scratch)
				dgs += len(scratch)
				for _, g := range scratch {
					if _, err := netflow.Decode(g.raw, dec.bufs[p]); err != nil && derr == nil {
						derr = err
					}
				}
			}
		}
	})
	if dgs == 0 {
		return 0, derr
	}
	return float64(n) / float64(dgs), derr
}

// scanAllocs replays recorded scan inputs into a fresh analyzer.
func scanAllocs(inputs []flow.Record) float64 {
	if len(inputs) == 0 {
		return 0
	}
	a := scan.New(deployment().Scan)
	n := mallocs(func() {
		for _, r := range inputs {
			a.Add(r)
		}
	})
	return float64(n) / float64(len(inputs))
}

// trainDetector trains the NNS detector exactly as infilterd does at
// start-up (default -train-seed and -train-flows) and returns it with
// the time training took.
func trainDetector() (*nns.Detector, time.Duration, error) {
	start := time.Now()
	pkts, err := trace.GenerateNormal(trace.NormalConfig{
		Seed:        1,
		Start:       time.Now().Add(-time.Hour),
		Flows:       1500,
		SrcPrefixes: []netaddr.Prefix{netaddr.MustParsePrefix("0.0.0.0/1")},
		DstPrefix:   netaddr.MustParsePrefix("192.0.2.0/24"),
	})
	if err != nil {
		return nil, 0, err
	}
	det, err := nns.Train(nns.DetectorConfig{}, flowsOf(pkts))
	return det, time.Since(start), err
}
