package main

// Replaying exactly what the daemon received, in process: the same
// datagrams decoded in per-peer order. Two consumers use it: the oracle
// (the program's own ParallelEngine, whose counters and alerts must equal
// the daemon's) and the traced pass (traced.go), which calls each
// module's public functions stage by stage and times them.

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"infilter/internal/analysis"
	"infilter/internal/eia"
	"infilter/internal/flow"
	"infilter/internal/flowtools"
	"infilter/internal/idmef"
	"infilter/internal/netaddr"
	"infilter/internal/netflow"
	"infilter/internal/nns"
	"infilter/internal/scan"
	"infilter/internal/sketch"
	"infilter/internal/telemetry"
)

// sentLog is what one daemon received: the setup probes (v5, peer 1),
// then every peer's preamble and rounds [0, rounds).
type sentLog struct {
	t      *traffic
	probes []dgram
	rounds int
}

// batchFn consumes one ingest-sized batch of decoded records of peer p
// (0-based); recs is reused after the call returns.
type batchFn func(p int, recs []flow.Record)

// decoder decodes each peer's stream with its own buffer over one shared
// template cache, as the daemon's collector does.
type decoder struct {
	bufs [numPeers]*netflow.DecodeBuffer
	recs [numPeers][]flow.Record
}

func newDecoder() *decoder {
	d := &decoder{}
	cache := netflow.NewTemplateCache(netflow.TemplateCacheConfig{})
	for i := range d.bufs {
		d.bufs[i] = netflow.NewDecodeBuffer(cache)
		d.bufs[i].SetExporter("perfbench")
	}
	return d
}

// decode appends the records of dgs to peer p's pending batch.
func (d *decoder) decode(p int, dgs []dgram) error {
	for _, g := range dgs {
		msg, err := netflow.Decode(g.raw, d.bufs[p])
		if err != nil {
			return fmt.Errorf("decode peer %d: %w", p+1, err)
		}
		d.recs[p] = append(d.recs[p], msg.Records...)
	}
	return nil
}

// flush hands peer p's pending records to fn in ingest-sized batches.
func (d *decoder) flush(p int, fn batchFn) int {
	recs := d.recs[p]
	n := len(recs)
	for len(recs) > 0 {
		k := min(len(recs), flowtools.DefaultBatchRecords)
		fn(p, recs[:k])
		recs = recs[k:]
	}
	d.recs[p] = d.recs[p][:0]
	return n
}

// each replays the log: probes, preambles, then round by round, every
// peer's round decoded (timed through onDecode when non-nil) and handed
// to fn. It returns the number of records replayed.
func (l *sentLog) each(fn batchFn, onDecode func(recs int, d time.Duration)) (int64, error) {
	dec := newDecoder()
	var total int64
	step := func(p int, dgs []dgram) error {
		start := time.Now()
		if err := dec.decode(p, dgs); err != nil {
			return err
		}
		if onDecode != nil {
			onDecode(len(dec.recs[p]), time.Since(start))
		}
		total += int64(dec.flush(p, fn))
		return nil
	}
	if err := step(0, l.probes); err != nil {
		return total, err
	}
	for p := 0; p < numPeers; p++ {
		if err := step(p, l.t.preamble[p]); err != nil {
			return total, err
		}
	}
	var scratch []dgram
	for r := 0; r < l.rounds; r++ {
		for p := 0; p < numPeers; p++ {
			scratch = l.t.round(p, r, scratch)
			if err := step(p, scratch); err != nil {
				return total, err
			}
		}
	}
	return total, nil
}

// deployment is the daemon's analysis configuration, mirrored: EI mode,
// sketch scan backend, TTL tolerance 2, heavy-hitter off.
func deployment() analysis.Config {
	return analysis.Config{
		Mode: analysis.ModeEnhanced,
		Scan: scan.Config{SketchK: sketch.DefaultK},
		TTL:  scan.TTLConfig{Tolerance: 2},
	}
}

// loadEIA reads the preload the daemon was given, with its Bloom tier.
func loadEIA(path string) (*eia.Set, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := eia.NewSet(eia.Config{BloomBitsPerEntry: 10})
	if err := eia.ReadInto(set, f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// loadModel reads the detector the daemon trained and saved.
func loadModel(path string) (*nns.Detector, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return nns.LoadDetector(f)
}

// verdictCounters are the daemon counters the replay must reproduce.
var verdictCounters = []string{
	"infilter_eia_hits_total",
	"infilter_eia_misses_total",
	"infilter_eia_promotions_total",
	"infilter_nns_queries_total",
	"infilter_nns_anomalies_total",
	"infilter_scan_network_trips_total",
	"infilter_scan_host_trips_total",
	"infilter_ttl_trips_total",
	"infilter_alerts_sent_total",
}

// oracleResult is the engine replay's view of the same input.
type oracleResult struct {
	counters map[string]float64
	alerts   map[alertKey]int
	records  int64
}

// runOracle replays the log through a ParallelEngine built exactly as the
// daemon builds its own, minus the sockets.
func runOracle(l *sentLog, eiaPath, modelPath string) (*oracleResult, error) {
	set, err := loadEIA(eiaPath)
	if err != nil {
		return nil, err
	}
	det, err := loadModel(modelPath)
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	sent := idmef.NewSenderMetrics(reg)
	det.SetMetrics(nns.NewMetrics(reg))
	eng, err := analysis.NewParallelEngine(analysis.ParallelConfig{
		Config:  deployment(),
		Shards:  numPeers,
		Metrics: analysis.NewPipelineMetrics(reg, numPeers),
	}, set, det)
	if err != nil {
		return nil, err
	}
	res := &oracleResult{alerts: make(map[alertKey]int)}
	var mu sync.Mutex
	eng.SetAlertSink(func(a idmef.Alert) {
		sent.Sent.Inc()
		k, err := keyOf(a)
		mu.Lock()
		defer mu.Unlock()
		if err == nil {
			res.alerts[k]++
		}
	})
	var subErr error
	res.records, err = l.each(func(p int, recs []flow.Record) {
		if err := eng.SubmitBatch(eia.PeerAS(p+1), recs); err != nil && subErr == nil {
			subErr = err
		}
	}, nil)
	if cerr := eng.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = subErr
	}
	if err != nil {
		return nil, err
	}
	res.counters, err = scrape(reg)
	return res, err
}

// scrape reads a registry the way /metrics exposes it.
func scrape(reg *telemetry.Registry) (map[string]float64, error) {
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		return nil, err
	}
	return parseMetrics(strings.NewReader(b.String()))
}

// keyOf extracts an alert's comparison key.
func keyOf(a idmef.Alert) (alertKey, error) {
	src, err := netaddr.ParseAddr(a.Source.Address)
	if err != nil {
		return alertKey{}, err
	}
	dst, err := netaddr.ParseAddr(a.Target.Address)
	if err != nil {
		return alertKey{}, err
	}
	return alertKey{
		id:    flowID{src: src, dst: dst, sport: a.Source.Port, dport: a.Target.Port},
		stage: string(a.Assessment.Stage),
		peer:  a.Assessment.PeerAS,
	}, nil
}

// alertID names the n-th alert the way the daemon's engine does.
func alertID(n int64) string { return "infilter-" + strconv.FormatInt(n, 10) }
