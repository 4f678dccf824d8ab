package analysis

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"infilter/internal/eia"
	"infilter/internal/flow"
	"infilter/internal/idmef"
	"infilter/internal/netaddr"
	"infilter/internal/nns"
	"infilter/internal/scan"
	"infilter/internal/telemetry"
)

// ParallelConfig assembles a ParallelEngine.
type ParallelConfig struct {
	// Config carries the pipeline settings.
	Config
	// Shards is the number of shards. Flows are routed by peer AS
	// (shard = peer mod Shards), so every ingress keeps FIFO order and one
	// peer's flows never race each other — the per-peer-AS EIA semantics of
	// §3 carry over shard boundaries unchanged. Zero defaults to
	// runtime.GOMAXPROCS(0).
	Shards int
	// QueueDepth bounds each shard's ingest queue, counted in queued
	// messages: one Submit record or one SubmitBatch batch (for
	// infilterd, up to -batch-size records). Submit blocks once a
	// shard's queue is full, pushing backpressure onto the producer (for
	// infilterd, the UDP receive loops; the kernel sheds load beyond
	// that). Zero defaults to DefaultQueueDepth.
	QueueDepth int
	// Metrics instruments the engine (nil: no telemetry). It must have
	// been built with NewPipelineMetrics for the same shard count this
	// config resolves to, and belongs to exactly one engine.
	Metrics *PipelineMetrics
}

// DefaultQueueDepth is the per-shard queue bound when none is configured.
const DefaultQueueDepth = 256

// ParallelEngine is the Enhanced-InFilter analysis engine: one decide path
// (pipeline.decide), one stats accounting and one alert emitter over N
// peer-routed shards. It has two drivers that run the same per-shard code:
//
//   - Synchronous: Process and ProcessBatch run on the caller's goroutine.
//     NewEngine and Train build the one-shard engine used this way.
//   - Asynchronous: Submit and SubmitBatch enqueue on the peer's shard,
//     whose worker goroutine drains it (parallel.go). Workers start on the
//     first submission, so an engine driven only synchronously owns no
//     goroutine and needs no Close.
//
// Shared state is concurrency-safe by composition: the EIA store is a
// lock-free copy-on-write snapshot store (promotions go through its single
// writer), the NNS detector is read-only after training, the TTL table is
// stripe-locked, and everything per-shard (scan buffer, stats block, stage
// histograms, batch scratch) is touched only by that shard's driver.
//
// The one precondition: synchronous driving is not safe for concurrent use
// and must not be mixed with Submit or SubmitBatch on the same engine, since
// both would drive the same shards. Submit, SubmitBatch and Stats are safe
// for concurrent use. SetAlertSink and SetClock must be called before the
// first flow; the installed alert sink and clock are invoked from worker
// goroutines under asynchronous driving and must then be concurrency-safe.
type ParallelEngine struct {
	store    *eia.Store
	detector *nns.Detector
	ttl      *scan.TTLProfile // shared across shards; nil unless enabled
	shards   []*shard

	alertFn  func(idmef.Alert)
	alertSeq atomic.Int64
	now      func() time.Time

	// staged is ProcessBatch's record scratch (synchronous driver only).
	staged []flow.Record

	// Asynchronous driving state (parallel.go).
	started   sync.Once
	submitted atomic.Int64
	processed atomic.Int64
	mu        sync.RWMutex
	closed    bool
	wg        sync.WaitGroup
}

// shard is one driver's private state: its own Scan Analysis buffer
// (suspect interleaving is per-shard, matching the per-ingress deployment
// of the paper's prototype), its queue and its own counters, merged only
// when Stats is read.
type shard struct {
	pl     pipeline
	queue  chan shardBatch
	blocks *telemetry.Counter // Submits that found the queue full (nil ok)

	// Batch scratch, touched only by the shard's single driver: the
	// source column CheckBatchPeer classifies and its verdicts.
	srcs     []netaddr.Addr
	verdicts []eia.Verdict

	mu    sync.Mutex
	stats Stats
}

// NewParallelEngine assembles a sharded engine from pre-trained
// components. detector may be nil only in ModeBasic. The set is adopted by
// an eia.Store and must not be mutated directly afterwards.
func NewParallelEngine(cfg ParallelConfig, set *eia.Set, detector *nns.Detector) (*ParallelEngine, error) {
	if cfg.Shards <= 0 {
		cfg.Shards = runtime.GOMAXPROCS(0)
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.Mode == 0 {
		cfg.Mode = ModeEnhanced
	}
	if set == nil {
		return nil, fmt.Errorf("analysis: nil EIA set")
	}
	if cfg.Mode == ModeEnhanced && detector == nil {
		return nil, fmt.Errorf("analysis: enhanced mode requires a trained NNS detector")
	}
	metrics := cfg.Metrics
	if metrics != nil && metrics.Shards() != cfg.Shards {
		return nil, fmt.Errorf("analysis: metrics built for %d shards, engine has %d", metrics.Shards(), cfg.Shards)
	}
	e := &ParallelEngine{
		store:    eia.NewStore(set),
		detector: detector,
		shards:   make([]*shard, cfg.Shards),
		now:      time.Now,
	}
	if metrics != nil {
		e.store.SetMetrics(metrics.eia)
	}
	if cfg.Mode == ModeEnhanced {
		// One profile table for the whole engine: TTL expectations must
		// aggregate a source's flows across shards (the table is
		// stripe-locked), unlike the per-shard scan buffers.
		e.ttl = scan.NewTTLProfile(cfg.TTL) // nil unless enabled
	}
	if metrics != nil && e.ttl != nil {
		e.ttl.SetMetrics(metrics.ttl)
		metrics.registerTTLSourcesGauge(e.ttl)
	}
	for i := range e.shards {
		scanner := scan.New(cfg.Scan)
		s := &shard{
			pl: pipeline{
				mode:     cfg.Mode,
				eia:      e.store,
				scanner:  scanner,
				detector: detector,
				ttl:      e.ttl,
				promote:  cfg.PromotionFilter,
			},
			queue: make(chan shardBatch, cfg.QueueDepth),
			stats: Stats{ByStage: make(map[idmef.Stage]int)},
		}
		if metrics != nil {
			scanner.SetMetrics(metrics.scan)
			s.pl.metrics = &metrics.shards[i]
			s.blocks = metrics.shards[i].blocks
			q := s.queue
			metrics.registerQueueGauge(i, func() int64 { return int64(len(q)) })
		}
		e.shards[i] = s
	}
	return e, nil
}

// NewEngine assembles a one-shard engine from pre-trained components, the
// shape synchronous callers (Process, ProcessBatch) use. detector may be
// nil only in ModeBasic. The set must not be mutated directly afterwards
// (the engine's store adopts it).
func NewEngine(cfg Config, set *eia.Set, detector *nns.Detector) (*ParallelEngine, error) {
	return NewParallelEngine(ParallelConfig{Config: cfg, Shards: 1}, set, detector)
}

// LabeledRecord pairs a flow record with the peer AS it entered through.
type LabeledRecord struct {
	Peer   eia.PeerAS
	Record flow.Record
}

// Train builds a fully-trained one-shard engine from labeled normal
// traffic: the EIA sets are initialized from the observed (source, peer)
// pairs (§5.1.3(a)) and, in enhanced mode, the normal cluster is
// partitioned and indexed for NNS (§5.1.3(b-d)).
func Train(cfg Config, normal []LabeledRecord) (*ParallelEngine, error) {
	return TrainParallel(ParallelConfig{Config: cfg, Shards: 1}, normal)
}

// TrainParallel builds a fully-trained sharded engine from labeled normal
// traffic, the way Train does for the one-shard engine.
func TrainParallel(cfg ParallelConfig, normal []LabeledRecord) (*ParallelEngine, error) {
	set, detector, err := trainComponents(cfg.Config, normal)
	if err != nil {
		return nil, err
	}
	return NewParallelEngine(cfg, set, detector)
}

// trainComponents builds the trained state an engine starts from: EIA
// sets initialized from the observed (source, peer) pairs (§5.1.3(a))
// and, in enhanced mode, the partitioned and indexed normal cluster for
// NNS (§5.1.3(b-d)).
func trainComponents(cfg Config, normal []LabeledRecord) (*eia.Set, *nns.Detector, error) {
	if len(normal) == 0 {
		return nil, nil, fmt.Errorf("analysis: empty training set")
	}
	if cfg.Mode == 0 {
		cfg.Mode = ModeEnhanced
	}
	set := eia.NewSet(cfg.EIA)
	obs := make([]eia.TrainingSource, len(normal))
	recs := make([]flow.Record, len(normal))
	for i, lr := range normal {
		obs[i] = eia.TrainingSource{Peer: lr.Peer, Src: lr.Record.Key.Src}
		recs[i] = lr.Record
	}
	set.Train(obs, 0)

	var detector *nns.Detector
	if cfg.Mode == ModeEnhanced {
		var err error
		detector, err = nns.Train(cfg.NNS, recs)
		if err != nil {
			return nil, nil, fmt.Errorf("analysis: train NNS: %w", err)
		}
	}
	return set, detector, nil
}

// SetAlertSink installs a callback receiving an IDMEF alert per detected
// attack. Pass nil to disable. It must be called before the first flow.
func (e *ParallelEngine) SetAlertSink(fn func(idmef.Alert)) { e.alertFn = fn }

// SetClock overrides the engine's clock (tests and replay). It must be
// called before the first flow.
func (e *ParallelEngine) SetClock(now func() time.Time) {
	if now != nil {
		e.now = now
	}
}

// EIASet exposes the engine's shared EIA snapshot store (monitoring,
// tests, checkpointing).
func (e *ParallelEngine) EIASet() *eia.Store { return e.store }

// Detector exposes the engine's trained NNS detector (nil in ModeBasic).
func (e *ParallelEngine) Detector() *nns.Detector { return e.detector }

// TTLProfile exposes the engine's shared TTL-profile table for
// monitoring and checkpointing; nil when the stage is disabled.
func (e *ParallelEngine) TTLProfile() *scan.TTLProfile { return e.ttl }

// Shards returns the number of shards.
func (e *ParallelEngine) Shards() int { return len(e.shards) }

// shardFor routes a peer AS to its shard.
func (e *ParallelEngine) shardFor(peer eia.PeerAS) *shard {
	return e.shards[int(peer)%len(e.shards)]
}

// Stats returns the engine counters merged across shards. It may be called
// concurrently with processing; the snapshot is consistent per shard.
func (e *ParallelEngine) Stats() Stats {
	out := Stats{ByStage: make(map[idmef.Stage]int)}
	for _, s := range e.shards {
		s.mu.Lock()
		out.merge(s.stats)
		s.mu.Unlock()
	}
	return out
}

// Process runs one flow through its peer's shard on the caller's
// goroutine — the normal-processing phase (§5.2, Figure 12) — and returns
// the decision. Like ProcessBatch it is not safe for concurrent use and
// must not be mixed with Submit or SubmitBatch on the same engine.
func (e *ParallelEngine) Process(peer eia.PeerAS, rec flow.Record) Decision {
	return e.process(e.shardFor(peer), peer, rec)
}

// ProcessBatch runs a labeled batch on the caller's goroutine. The batch is
// walked in runs of consecutive same-peer records, and each run goes to
// its peer's shard as one batch (processPeerBatch): classified against one
// EIA snapshot, refreshed after any mid-run promotion. Observationally
// identical to calling Process per record, in order.
func (e *ParallelEngine) ProcessBatch(batch []LabeledRecord) {
	for len(batch) > 0 {
		peer := batch[0].Peer
		n := 1
		for n < len(batch) && batch[n].Peer == peer {
			n++
		}
		recs := e.staged[:0]
		for i := range batch[:n] {
			recs = append(recs, batch[i].Record)
		}
		e.staged = recs
		e.processPeerBatch(e.shardFor(peer), peer, recs)
		batch = batch[n:]
	}
}

// process runs one flow through shard s: decide, fold the outcome into
// the shard's counters, emit the alert. It is the per-record path behind
// Process and the reference the batch path is tested against.
func (e *ParallelEngine) process(s *shard, peer eia.PeerAS, rec flow.Record) Decision {
	start := e.now()
	d := s.pl.decide(peer, rec)
	d.Latency = e.now().Sub(start)

	s.mu.Lock()
	s.stats.record(d)
	s.mu.Unlock()
	if d.Attack {
		e.emitAlert(peer, rec, d)
	}
	return d
}

// processPeerBatch runs a batch of records observed at one peer through
// shard s, observationally identical to calling process(s, peer, rec) on
// each record in order. Both drivers use it: a worker for every queue
// message, ProcessBatch for every same-peer run. The EIA stage is
// amortized: one CheckBatchPeer classifies the whole batch against a
// single published snapshot (one atomic load, one trie-walk setup), with
// the measured stage cost attributed evenly across the batch so
// per-record stage telemetry keeps its one-observation-per-flow
// invariant. When a record's decision completes a promotion — publishing
// a new snapshot — the still-unconsumed tail is re-classified against it,
// so a batch never reports staler verdicts than the per-record path
// would. Hit/miss counters fold in at consumption time, once per record,
// tail re-checks notwithstanding. Stats are accumulated locally and
// merged under one lock per batch.
func (e *ParallelEngine) processPeerBatch(s *shard, peer eia.PeerAS, recs []flow.Record) {
	n := len(recs)
	if n == 0 {
		return
	}
	if cap(s.srcs) < n {
		s.srcs = make([]netaddr.Addr, n)
		s.verdicts = make([]eia.Verdict, n)
	}
	srcs, verdicts := s.srcs[:n], s.verdicts[:n]
	for i := range recs {
		srcs[i] = recs[i].Key.Src
	}
	m := s.pl.metrics
	var t time.Time
	if m != nil {
		t = time.Now()
	}
	e.store.CheckBatchPeer(peer, srcs, verdicts)
	var eiaShare time.Duration
	if m != nil {
		eiaShare = time.Since(t) / time.Duration(n)
	}

	batch := Stats{ByStage: make(map[idmef.Stage]int)}
	var tally verdictTally
	for i := range recs {
		if m != nil {
			m.flows.Inc()
			m.observeStage(stageEIA, eiaShare)
		}
		tally.add(srcs[i], verdicts[i])
		// No per-record Decision.Latency on the batch path: the decision is
		// not returned to any caller here, and stage telemetry already gets
		// its per-flow observations (amortized for EIA, direct for scan/NNS
		// inside decideVerdict), so two clock reads per record would buy
		// nothing and dominate the cheap legal-flow case.
		d := s.pl.decideVerdict(peer, &recs[i], verdicts[i])
		batch.record(d)
		if d.Attack {
			e.emitAlert(peer, recs[i], d)
		}
		if d.Promoted && i+1 < n {
			e.store.CheckBatchPeer(peer, srcs[i+1:], verdicts[i+1:])
		}
	}
	tally.settle(e.store)
	s.mu.Lock()
	s.stats.merge(batch)
	s.mu.Unlock()
}

// verdictTally accumulates a batch's consumed verdicts per address
// family, so the hit/miss settle stays a handful of atomic adds per
// batch (now at most four) instead of one per record.
type verdictTally struct {
	hits, misses [2]int64 // indexed 0=v4, 1=v6
}

func (t *verdictTally) add(src netaddr.Addr, v eia.Verdict) {
	f := 0
	if src.Is6() {
		f = 1
	}
	if v == eia.Match {
		t.hits[f]++
	} else {
		t.misses[f]++
	}
}

func (t *verdictTally) settle(store *eia.Store) {
	store.AddVerdictCounts(netaddr.FamilyV4, t.hits[0], t.misses[0])
	store.AddVerdictCounts(netaddr.FamilyV6, t.hits[1], t.misses[1])
}

func (e *ParallelEngine) emitAlert(peer eia.PeerAS, rec flow.Record, d Decision) {
	if e.alertFn == nil {
		return
	}
	seq := e.alertSeq.Add(1)
	class := "spoofed-traffic/" + string(d.Stage)
	e.alertFn(idmef.NewAlert(
		"infilter-"+strconv.FormatInt(seq, 10),
		e.now(), d.Stage, int(peer), class, rec.Key, d.Assessment.Distance,
	))
}
