// Command perfbench is InFilter's end-to-end benchmark. It drives the
// real infilterd binary over loopback UDP with pre-encoded flow-export
// datagrams, receives the daemon's IDMEF alerts, checks every verdict
// against an in-process replay of the same input, and prints the metrics
// named in BENCHMARK.json as one JSON object on the last line of stdout.
//
//	perfbench --workload legal-v5 --seed 1 --seconds 12 --trace 0 --daemon .bench_build/infilterd
//
// With --trace 1 it also replays the input through each module's public
// functions, stage by stage, and reports per-layer costs, a ledger
// against the daemon's CPU per record, and a spans file. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	daemon   string
	out      string
	baseline string
}

// setupRuns is how many daemon start-ups one run times; setup_s is
// their median.
const setupRuns = 9

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "legal-v5", "workload name")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed")
	flag.IntVar(&o.seconds, "seconds", 12, "measured seconds (half open loop, half closed loop)")
	flag.IntVar(&traceFlag, "trace", 0, "1: report per-layer metrics from a traced replay")
	flag.StringVar(&o.daemon, "daemon", ".bench_build/infilterd", "infilterd binary")
	flag.StringVar(&o.out, "out", ".bench_build/runs", "directory for run files and spans")
	flag.StringVar(&o.baseline, "baseline", "BENCH_PR10.json", "go-test baseline the ledger cross-checks against")
	flag.Parse()
	o.trace = traceFlag == 1
	if o.seconds < 2 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 2")
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// checks collects correctness failures; each counts as one failure.
type checks struct {
	failed int64
}

func (c *checks) fail(format string, args ...any) {
	c.failed++
	fmt.Fprintf(os.Stderr, "CHECK FAILED: "+format+"\n", args...)
}

func run(o options) (*result, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	if _, err := os.Stat(o.daemon); err != nil {
		return nil, fmt.Errorf("daemon binary: %w", err)
	}
	dir := filepath.Join(o.out, fmt.Sprintf("%s-seed%d-%d", w.name, o.seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	genStart := time.Now()
	t, err := generate(w, o.seed, o.seconds)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	fmt.Fprintf(os.Stderr, "%s seed %d: generated %d rounds max in %.2fs (%d bg recs/port/round)\n",
		w.name, o.seed, t.maxRounds, time.Since(genStart).Seconds(), t.bgPerRound*30)

	// Set-up: start the daemon setupRuns times, each with a fresh model
	// path so every start trains; the last one stays up for the run.
	var (
		setups []float64
		d      *daemon
		col    *collector
		snd    *sender
		probes []dgram
		model  string
	)
	for i := 0; i < setupRuns; i++ {
		if col, err = newCollector(t.maxRounds); err != nil {
			return nil, err
		}
		model = filepath.Join(dir, fmt.Sprintf("model-%d.bin", i))
		if d, err = startDaemon(o.daemon, dir, model, col.port); err != nil {
			col.close()
			return nil, err
		}
		if snd, err = newSender(d.ports); err != nil {
			d.kill()
			col.close()
			return nil, err
		}
		var at time.Time
		at, probes, err = probeUntilAlert(snd, col, t, time.Now().Add(30*time.Second))
		if err != nil {
			d.kill()
			col.close()
			return nil, fmt.Errorf("set-up %d: %w\n%s", i, err, d.logTail)
		}
		setups = append(setups, at.Sub(d.started).Seconds())
		if i < setupRuns-1 {
			snd.conn.Close()
			err = d.stop()
			col.close()
			if err != nil {
				return nil, fmt.Errorf("stop set-up daemon: %w", err)
			}
		}
	}
	defer snd.conn.Close()
	live := true
	defer func() {
		if live {
			d.kill()
			col.close()
		}
	}()

	for p := 0; p < numPeers; p++ {
		for _, g := range t.preamble[p] {
			if err := snd.send(p, g); err != nil {
				return nil, err
			}
		}
	}

	// The generator's own garbage collection would stall sends and alert
	// timestamps; the measured phases allocate little, so it waits until
	// they are over (bounded by a memory limit).
	runtime.GC()
	oldGC := debug.SetGCPercent(-1)
	oldLimit := debug.SetMemoryLimit(1 << 30)
	restoreGC := func() {
		debug.SetGCPercent(oldGC)
		debug.SetMemoryLimit(oldLimit)
	}
	defer restoreGC()

	// Open loop: the offered rate on a fixed schedule. The daemon's CPU
	// time is sampled every scheduled second.
	openSecs := o.seconds / 2
	openRounds := openSecs * canariesPerSec
	var (
		cpuSamples, sentSamples, stealSamples []int64
		sampleErr                             error
	)
	sample := func() {
		ticks, err := d.cpuTicks()
		if err != nil && sampleErr == nil {
			sampleErr = err
		}
		cpuSamples = append(cpuSamples, ticks)
		sentSamples = append(sentSamples, snd.sent)
		stealSamples = append(stealSamples, stealTicks())
	}
	sample()
	openStart := time.Now()
	late, err := openLoop(snd, col, t, openRounds, sample)
	if err != nil {
		return nil, err
	}
	if sampleErr != nil {
		return nil, sampleErr
	}
	openDone, _ := col.waitRound(openRounds-1, time.Now().Add(10*time.Second))
	sample()
	if sampleErr != nil {
		return nil, sampleErr
	}
	// One window per scheduled second; window k holds rounds
	// [k·canariesPerSec, (k+1)·canariesPerSec).
	openMeasured := measuredWindows(stealSamples)
	cpuNS := cpuPerRecord(cpuSamples, sentSamples, openMeasured)
	latWindows := col.latencyWindows(0, openRounds, canariesPerSec)
	var latSeries, latMeasured []float64
	for k, w := range latWindows {
		latSeries = append(latSeries, w...)
		if k < len(openMeasured) && openMeasured[k] {
			latMeasured = append(latMeasured, w...)
		}
	}
	if len(latMeasured) < len(latSeries)/4 {
		latMeasured = latSeries // too few measured windows: use them all
	}
	openRecs := sentSamples[len(sentSamples)-1] - sentSamples[0]
	fmt.Fprintf(os.Stderr, "open loop: %d records in %.2fs (%.0f rec/s offered); host steal %.2f CPU, measured windows %v\n",
		openRecs, openDone.Sub(openStart).Seconds(), float64(openRecs)/openDone.Sub(openStart).Seconds(),
		float64(stealSamples[len(stealSamples)-1]-stealSamples[0])*clockTick.Seconds()/openDone.Sub(openStart).Seconds(), openMeasured)

	// Closed loop: as fast as the canaries come back.
	selfCPU0, _ := procTicks(os.Getpid())
	daemonCPU0, _ := d.cpuTicks()
	closed, err := closedLoop(snd, col, t, openRounds, time.Duration(o.seconds-openSecs)*time.Second)
	if err != nil {
		return nil, err
	}
	end := closed.end
	capacity := closed.capacity()
	selfCPU1, _ := procTicks(os.Getpid())
	daemonCPU1, _ := d.cpuTicks()
	closedSecs := time.Since(closed.start).Seconds()
	fmt.Fprintf(os.Stderr, "closed loop: %d records, rounds %d..%d, %.0f rec/s (median of measured one-second windows %v); CPUs busy: daemon %.2f, benchmark %.2f\n",
		closed.recs, openRounds, end, capacity, measuredWindows(closed.steal),
		float64(daemonCPU1-daemonCPU0)*clockTick.Seconds()/closedSecs, float64(selfCPU1-selfCPU0)*clockTick.Seconds()/closedSecs)

	alertsIn := 0
	for _, n := range col.alertSet() {
		alertsIn += n
	}
	dm, err := d.settledMetrics(alertsIn)
	if err != nil {
		return nil, err
	}
	rss, err := d.peakRSSMiB()
	if err != nil {
		return nil, err
	}
	restoreGC()
	stopErr := d.stop()
	col.close()
	live = false
	if stopErr != nil {
		return nil, fmt.Errorf("stop daemon: %w", stopErr)
	}

	var c checks
	sent := snd.sent
	unanswered := col.unanswered(end)
	received := int64(dm["infilter_collector_records_total"])
	lost := lostFrac(sent, received, unanswered)
	if unanswered > 0 {
		c.fail("%d canaries unanswered", unanswered)
	}
	if received != sent {
		c.fail("daemon counted %d records, %d sent", received, sent)
	}
	if col.bad > 0 {
		c.fail("%d alerts with unparsable or unknown canary fields", col.bad)
	}

	// The oracle: the same input through the program's own engine.
	log := &sentLog{t: t, probes: probes, rounds: end}
	eiaPath := filepath.Join(dir, "eia.txt")
	oracle, err := runOracle(log, eiaPath, model)
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	if oracle.records != sent {
		c.fail("replay decoded %d records, %d sent", oracle.records, sent)
	}
	compareCounters(&c, "oracle", dm, oracle.counters)
	daemonAlerts := col.alertSet()
	compareAlerts(&c, daemonAlerts, oracle.alerts)
	checkVerdicts(&c, t, end, oracle.alerts, dm)

	p50 := percentile(latMeasured, 50)
	p99, p99s := windowedP99(latSeries)
	windows := len(p99s)
	if windows == 0 {
		c.fail("verdict latency: %d samples do not support p99", len(latSeries))
	}
	tailQ, _ := supportedPercentile(len(latSeries))
	fmt.Fprintf(os.Stderr, "setup_s %.3f; verdict p50 %.3f ms (measured windows), p%g %.3f ms over all %d canaries; p99 %.3f ms (median of windows %.3f); lost_frac %g\n",
		setups, p50, tailQ, percentile(append([]float64(nil), latSeries...), tailQ), len(latSeries), p99, p99s, lost)

	res := &result{Attempted: sent, Metrics: make(map[string]metric)}
	if !o.trace {
		res.Metrics["setup_s"] = metric{median(setups), "s"}
		res.Metrics["capacity_rps"] = metric{capacity, "rec/s"}
		res.Metrics["verdict_p50_ms"] = metric{p50, "ms"}
		res.Metrics["cpu_ns_per_rec"] = metric{cpuNS, "ns"}
		res.Metrics["peak_rss_mb"] = metric{rss, "MiB"}
	} else {
		lm, err := traced(o, w, t, log, eiaPath, model, dm, cpuNS, late, &c)
		if err != nil {
			return nil, err
		}
		lm["verdict_p99_ms"] = metric{p99, "ms"}
		res.Metrics = lm
	}
	res.Failed = c.failed + int64(math.Round(lost*float64(sent)))
	res.Correct = c.failed == 0 && lost == 0
	return res, nil
}

func compareCounters(c *checks, who string, daemon, replay map[string]float64) {
	for _, name := range verdictCounters {
		if daemon[name] != replay[name] {
			c.fail("%s: daemon %s = %.0f, replay %.0f", who, name, daemon[name], replay[name])
		}
	}
}

func compareAlerts(c *checks, daemon, oracle map[alertKey]int) {
	diff := 0
	for k, n := range oracle {
		if daemon[k] != n {
			diff++
		}
	}
	for k := range daemon {
		if _, ok := oracle[k]; !ok {
			diff++
		}
	}
	if diff > 0 {
		c.fail("%d alert identities differ between the daemon and the replay", diff)
	}
}

// checkVerdicts applies the workload's own correctness conditions to the
// replay's alerts (which equal the daemon's once compareAlerts passes).
func checkVerdicts(c *checks, t *traffic, rounds int, alerts map[alertKey]int, dm map[string]float64) {
	benign := 0
	detected := make(map[int]bool)
	for k := range alerts {
		l := t.classify(k.id)
		switch l.kind {
		case labBenign:
			benign++
		case labEvent:
			if k.stage == expectedStage[l.event] {
				detected[l.id] = true
			}
		}
	}
	if t.w.eventEvery > 0 || t.w.movesPerSec == 0 {
		if benign > 0 {
			c.fail("%d alerts on benign background flows", benign)
		}
	}
	if t.w.eventEvery > 0 {
		missed := [numEventKinds]int{}
		for _, ev := range t.sentEvents(rounds) {
			if !detected[ev.id] {
				missed[ev.kind]++
			}
		}
		for k, n := range missed {
			if n > 0 {
				c.fail("%d %s events not detected at %s", n, eventKind(k), expectedStage[k])
			}
		}
	}
	if t.w.movesPerSec > 0 && dm["infilter_eia_promotions_total"] == 0 {
		c.fail("reroute: no promotions")
	}
}

// traced runs the per-layer measurements and returns the per-layer
// metrics.
func traced(o options, w workload, t *traffic, log *sentLog, eiaPath, model string, dm map[string]float64, cpuNS float64, late []float64, c *checks) (map[string]metric, error) {
	tp, err := newTracedPass(eiaPath, model)
	if err != nil {
		return nil, err
	}
	if err := tp.run(log); err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	compareCounters(c, "traced pass", dm, tp.counters())
	spansPath := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, o.seed))
	if err := tp.writeSpans(spansPath); err != nil {
		return nil, err
	}

	recvNS, batchMean, err := recvLayer(t, 400000)
	if err != nil {
		return nil, fmt.Errorf("collector layer: %w", err)
	}
	batches, err := prefixBatches(log, 300000)
	if err != nil {
		return nil, err
	}
	serialNS, submitNS, handoffNS, blocks, err := engineLayers(batches, eiaPath, model)
	if err != nil {
		return nil, fmt.Errorf("engine layers: %w", err)
	}
	decAllocs, err := decodeAllocs(t, min(log.rounds, 20))
	if err != nil {
		return nil, err
	}
	scAllocs := scanAllocs(tp.scanInputs)
	_, trainTook, err := trainDetector()
	if err != nil {
		return nil, err
	}

	recs := float64(tp.records)
	st := tp.stat
	share := func(l string) float64 { return float64(st[l].recs) / recs }
	var led ledger
	led.cpuNSPerRec = cpuNS
	decodeNS := st[layDecode].perRec()
	led.add("flowtools.recv", max(0, recvNS-decodeNS), 1)
	led.add(layDecode, decodeNS, share(layDecode))
	led.add("analysis.handoff", handoffNS, 1)
	for _, l := range []string{layEIA, layVouch, layScan, layTTL, layNNS, layAlert} {
		led.add(l, st[l].perRec(), share(l))
	}
	led.write(os.Stdout, w.name)
	crossCheck(os.Stdout, o.baseline, w.version, decodeNS, decAllocs, st[layScan].perRec(), scAllocs)
	fmt.Printf("spans: %s (%d spans, JSON lines: name, start_ns, end_ns, batch, records)\n", spansPath, len(tp.spans))

	frac := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	latePct := percentile(late, 99)
	checks := float64(st[layEIA].recs)
	m := map[string]metric{
		"flowtools.recv_ns_per_rec":       {recvNS, "ns"},
		"flowtools.batch_recs_mean":       {batchMean, "rec"},
		"netflow.decode_ns_per_rec":       {decodeNS, "ns"},
		"netflow.decode_allocs_per_dgram": {decAllocs, "allocs"},
		"analysis.submit_ns_per_rec":      {submitNS, "ns"},
		"analysis.serial_ns_per_rec":      {serialNS, "ns"},
		"analysis.handoff_ns_per_rec":     {handoffNS, "ns"},
		"analysis.enqueue_blocks":         {float64(blocks), "count"},
		"eia.check_ns":                    {st[layEIA].perRec(), "ns"},
		"eia.match_frac":                  {frac(float64(tp.hits), float64(tp.hits+tp.misses)), "ratio"},
		"eia.bloom_fastpath_frac":         {frac(float64(tp.eiaM.BloomFastpath.Value()), checks), "ratio"},
		"eia.record_legal_ns":             {st[layVouch].perRec(), "ns"},
		"eia.promotions":                  {float64(tp.promotions), "count"},
		"scan.add_ns":                     {st[layScan].perRec(), "ns"},
		"scan.add_allocs":                 {scAllocs, "allocs"},
		"scan.trips":                      {float64(tp.scanTrips), "count"},
		"scan.register_overflows":         {float64(tp.scanM.SketchOverflows.Value()), "count"},
		"scan.ttl_observe_ns":             {st[layTTL].perRec(), "ns"},
		"scan.ttl_trips":                  {float64(tp.ttlTrips), "count"},
		"nns.assess_ns":                   {st[layNNS].perRec(), "ns"},
		"nns.queries":                     {float64(tp.nnsQueries), "count"},
		"nns.anomalous_frac":              {frac(float64(tp.nnsAnomalies), float64(tp.nnsQueries)), "ratio"},
		"nns.train_ms":                    {float64(trainTook) / float64(time.Millisecond), "ms"},
		"idmef.marshal_ns":                {st[layAlert].perRec(), "ns"},
		"idmef.alerts":                    {float64(tp.alerts), "count"},
		"idmef.send_errors":               {dm["infilter_alert_send_errors_total"], "count"},
		"ledger.explained_ns_per_rec":     {led.explained, "ns"},
		"ledger.unexplained_ns_per_rec":   {led.unexplained(), "ns"},
		"gen.late_p99_ms":                 {latePct, "ms"},
	}
	return m, nil
}
