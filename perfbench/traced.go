package main

// The traced pass: the replayed records go through each module's public
// functions in the pipeline's own stage order, one batch at a time, and
// every stage is timed once per batch (a clock read costs about as much
// as an EIA check, so per-call timing would measure the clock).
//
// Within a batch the daemon interleaves stages record by record; here a
// stage runs over all of the batch's records that reach it before the
// next stage starts. The two orders make identical calls on identical
// state because every stateful stage is order-preserving within itself
// and the stages touch disjoint state — with one exception: a promotion
// makes the daemon re-check the rest of the batch, turning later
// suspects from the promoted prefix into Matches. So a batch is cut into
// segments ending wherever a promotion could happen (pending vouches
// plus the segment's suspects reach the threshold), and each segment is
// re-checked first, as the daemon re-checks its tail. The pass counts
// its own verdicts, and those counts must equal the daemon's.

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"infilter/internal/eia"
	"infilter/internal/flow"
	"infilter/internal/idmef"
	"infilter/internal/netaddr"
	"infilter/internal/nns"
	"infilter/internal/scan"
	"infilter/internal/telemetry"
)

// Layer names, as the per-layer metrics and spans use them.
const (
	layDecode = "netflow.decode"
	layEIA    = "eia.check"
	layScan   = "scan.add"
	layNNS    = "nns.assess"
	layTTL    = "scan.ttl_observe"
	layVouch  = "eia.record_legal"
	layAlert  = "idmef.marshal"
)

// span is one timed stage execution over one batch.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int64  `json:"batch"`
	Recs   int    `json:"records"`
}

// layerStat accumulates one layer's self time and the records it saw.
type layerStat struct {
	ns   int64
	recs int64
}

func (s layerStat) perRec() float64 {
	if s.recs == 0 {
		return 0
	}
	return float64(s.ns) / float64(s.recs)
}

type tracedPass struct {
	t0    time.Time
	spans []span
	batch int64
	stat  map[string]*layerStat

	store     *eia.Store
	eiaM      *eia.Metrics
	scanners  [numPeers]*scan.Analyzer
	scanM     *scan.Metrics
	ttl       *scan.TTLProfile
	ttlM      *scan.TTLMetrics
	det       *nns.Detector
	threshold int

	// Verdict counts, compared with the daemon's counters.
	hits, misses, promotions int64
	nnsQueries, nnsAnomalies int64
	scanTrips, ttlTrips      int64
	alerts                   int64
	records                  int64
	scanInputs               []flow.Record // first scan inputs, for the alloc count
	pending                  map[netaddr.Prefix]int
	srcs                     []netaddr.Addr
	verdicts                 []eia.Verdict
	flag                     []idmef.Stage
	dist                     []int
	idx                      []int
	promoBits4, promoBits6   int
}

func newTracedPass(eiaPath, modelPath string) (*tracedPass, error) {
	set, err := loadEIA(eiaPath)
	if err != nil {
		return nil, err
	}
	det, err := loadModel(modelPath)
	if err != nil {
		return nil, err
	}
	reg := telemetry.NewRegistry()
	cfg := deployment()
	tp := &tracedPass{
		t0:         time.Now(),
		stat:       make(map[string]*layerStat),
		store:      eia.NewStore(set),
		eiaM:       eia.NewMetrics(reg),
		scanM:      scan.NewMetrics(reg),
		ttl:        scan.NewTTLProfile(cfg.TTL),
		ttlM:       scan.NewTTLMetrics(reg),
		det:        det,
		threshold:  eia.DefaultPromoteThreshold,
		pending:    make(map[netaddr.Prefix]int),
		promoBits4: eia.DefaultPromoteMaskBits,
		promoBits6: eia.DefaultPromoteMaskBitsV6,
	}
	tp.store.SetMetrics(tp.eiaM)
	tp.ttl.SetMetrics(tp.ttlM)
	for i := range tp.scanners {
		tp.scanners[i] = scan.New(cfg.Scan)
		tp.scanners[i].SetMetrics(tp.scanM)
	}
	for _, l := range []string{layDecode, layEIA, layScan, layNNS, layTTL, layVouch, layAlert} {
		tp.stat[l] = &layerStat{}
	}
	return tp, nil
}

func (tp *tracedPass) now() int64 { return int64(time.Since(tp.t0)) }

// record closes one stage span.
func (tp *tracedPass) record(name string, start int64, recs int) {
	end := tp.now()
	tp.spans = append(tp.spans, span{Name: name, Start: start, End: end, Parent: tp.batch, Recs: recs})
	s := tp.stat[name]
	s.ns += end - start
	s.recs += int64(recs)
}

// onDecode books one round's decode of one peer as a span.
func (tp *tracedPass) onDecode(recs int, d time.Duration) {
	end := tp.now()
	tp.batch++
	tp.spans = append(tp.spans, span{Name: layDecode, Start: end - int64(d), End: end, Parent: tp.batch, Recs: recs})
	s := tp.stat[layDecode]
	s.ns += int64(d)
	s.recs += int64(recs)
}

// run replays the log through the stages.
func (tp *tracedPass) run(l *sentLog) error {
	n, err := l.each(tp.process, tp.onDecode)
	tp.records = n
	return err
}

// process runs one batch of peer p through the stages, segment by segment.
func (tp *tracedPass) process(p int, recs []flow.Record) {
	tp.batch++
	peer := eia.PeerAS(p + 1)
	n := len(recs)
	if cap(tp.srcs) < n {
		tp.srcs = make([]netaddr.Addr, n)
		tp.verdicts = make([]eia.Verdict, n)
		tp.flag = make([]idmef.Stage, n)
		tp.dist = make([]int, n)
	}
	srcs, verdicts, flag, dist := tp.srcs[:n], tp.verdicts[:n], tp.flag[:n], tp.dist[:n]
	for i := range recs {
		srcs[i] = recs[i].Key.Src
		flag[i] = ""
		dist[i] = 0
	}
	for a := 0; a < n; {
		start := tp.now()
		tp.store.CheckBatchPeer(peer, srcs[a:], verdicts[a:])
		tp.record(layEIA, start, n-a)
		cut := tp.cutAt(peer, srcs, verdicts, a, n)
		tp.segment(p, peer, recs, a, cut)
		a = cut
	}
}

// cutAt returns the end of the segment starting at a: just past the
// first suspect at which a promotion could complete.
func (tp *tracedPass) cutAt(peer eia.PeerAS, srcs []netaddr.Addr, verdicts []eia.Verdict, a, n int) int {
	clear(tp.pending)
	for i := a; i < n; i++ {
		if verdicts[i] == eia.Match {
			continue
		}
		bits := tp.promoBits4
		if srcs[i].Is6() {
			bits = tp.promoBits6
		}
		k := netaddr.MustPrefix(srcs[i], bits)
		c, seen := tp.pending[k]
		if !seen {
			c = tp.store.PendingCount(peer, srcs[i])
		}
		c++
		tp.pending[k] = c
		if c >= tp.threshold {
			return i + 1
		}
	}
	return n
}

// segment runs records [a, cut) of one batch through scan, NNS, TTL,
// vouching and alert marshal, each stage timed once.
func (tp *tracedPass) segment(p int, peer eia.PeerAS, recs []flow.Record, a, cut int) {
	verdicts, flag, dist := tp.verdicts, tp.flag, tp.dist
	for i := a; i < cut; i++ {
		if verdicts[i] == eia.Match {
			tp.hits++
		} else {
			tp.misses++
		}
	}

	// Scan analysis on every suspect.
	idx := tp.idx[:0]
	for i := a; i < cut; i++ {
		if verdicts[i] != eia.Match {
			idx = append(idx, i)
		}
	}
	if len(idx) > 0 {
		start := tp.now()
		sc := tp.scanners[p]
		for _, i := range idx {
			if sc.Add(recs[i]).Attack() {
				flag[i] = idmef.StageScan
			}
		}
		tp.record(layScan, start, len(idx))
		for _, i := range idx {
			if len(tp.scanInputs) < 20000 {
				tp.scanInputs = append(tp.scanInputs, recs[i])
			}
			if flag[i] != "" {
				tp.scanTrips++
			}
		}
	}

	// NNS on suspects scan did not stop.
	idx = idx[:0]
	for i := a; i < cut; i++ {
		if verdicts[i] != eia.Match && flag[i] == "" {
			idx = append(idx, i)
		}
	}
	if len(idx) > 0 {
		start := tp.now()
		for _, i := range idx {
			as := tp.det.Assess(recs[i])
			dist[i] = as.Distance
			if as.Anomalous {
				flag[i] = idmef.StageNNS
			}
		}
		tp.record(layNNS, start, len(idx))
		tp.nnsQueries += int64(len(idx))
		for _, i := range idx {
			if flag[i] != "" {
				tp.nnsAnomalies++
			}
		}
	}

	// TTL second opinion, in record order: every TTL-bearing Match and
	// every suspect that survived scan and NNS.
	idx = idx[:0]
	for i := a; i < cut; i++ {
		if recs[i].TTL != 0 && flag[i] == "" {
			idx = append(idx, i)
		}
	}
	if len(idx) > 0 {
		start := tp.now()
		for _, i := range idx {
			if tp.ttl.Observe(recs[i].Key.Src, recs[i].TTL) {
				flag[i] = idmef.StageTTL
			}
		}
		tp.record(layTTL, start, len(idx))
		for _, i := range idx {
			if flag[i] != "" {
				tp.ttlTrips++
			}
		}
	}

	// Vouch for surviving suspects; a promotion can only land on the
	// segment's last record (cutAt).
	idx = idx[:0]
	for i := a; i < cut; i++ {
		if verdicts[i] != eia.Match && flag[i] == "" {
			idx = append(idx, i)
		}
	}
	if len(idx) > 0 {
		start := tp.now()
		for _, i := range idx {
			if tp.store.RecordLegal(peer, recs[i].Key.Src) {
				tp.promotions++
			}
		}
		tp.record(layVouch, start, len(idx))
	}

	// Alert marshal for every flagged record.
	idx = idx[:0]
	for i := a; i < cut; i++ {
		if flag[i] != "" {
			idx = append(idx, i)
		}
	}
	if len(idx) > 0 {
		start := tp.now()
		now := time.Now()
		for _, i := range idx {
			tp.alerts++
			a := idmef.NewAlert(alertID(tp.alerts), now, flag[i], int(peer),
				"spoofed-traffic/"+string(flag[i]), recs[i].Key, dist[i])
			// Only the cost matters: the daemon's sender marshals every
			// alert, and a marshal failure would show as a count mismatch.
			_, _ = idmef.Marshal(a)
		}
		tp.record(layAlert, start, len(idx))
	}
	tp.idx = idx
}

// counters returns the pass's verdict counts under the daemon's names.
func (tp *tracedPass) counters() map[string]float64 {
	return map[string]float64{
		"infilter_eia_hits_total":           float64(tp.hits),
		"infilter_eia_misses_total":         float64(tp.misses),
		"infilter_eia_promotions_total":     float64(tp.promotions),
		"infilter_nns_queries_total":        float64(tp.nnsQueries),
		"infilter_nns_anomalies_total":      float64(tp.nnsAnomalies),
		"infilter_scan_network_trips_total": float64(tp.scanM.NetworkScans.Value()),
		"infilter_scan_host_trips_total":    float64(tp.scanM.HostScans.Value()),
		"infilter_ttl_trips_total":          float64(tp.ttlTrips),
		"infilter_alerts_sent_total":        float64(tp.alerts),
	}
}

// writeSpans writes the spans as JSON lines.
func (tp *tracedPass) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tp.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	return nil
}
