package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"infilter/internal/flow"
	"infilter/internal/idmef"
	"infilter/internal/netaddr"
)

// streamBytes concatenates everything generate produced for the first
// rounds: preambles, rounds (background, specials, canaries).
func streamBytes(t *traffic, rounds int) []byte {
	var b bytes.Buffer
	var scratch []dgram
	for p := 0; p < numPeers; p++ {
		for _, d := range t.preamble[p] {
			b.Write(d.raw)
		}
		for r := 0; r < rounds; r++ {
			for _, d := range t.round(p, r, scratch) {
				b.Write(d.raw)
			}
		}
	}
	return b.Bytes()
}

// trainedModel trains the daemon's default detector once and saves it.
func trainedModel(t *testing.T) string {
	t.Helper()
	det, _, err := trainDetector()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.bin")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := det.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func writeEIAFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "eia.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeEIA(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestSeedDeterminesStream pins that a seed fixes the datagram bytes and
// the expected alerts, and that another seed changes both.
func TestSeedDeterminesStream(t *testing.T) {
	model, eiaPath := trainedModel(t), writeEIAFile(t)
	const rounds = 40
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, err := generate(w, 1, 2)
			if err != nil {
				t.Fatal(err)
			}
			b, err := generate(w, 1, 2)
			if err != nil {
				t.Fatal(err)
			}
			c, err := generate(w, 2, 2)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(streamBytes(a, rounds), streamBytes(b, rounds)) {
				t.Fatal("same seed, different datagrams")
			}
			if bytes.Equal(streamBytes(a, rounds), streamBytes(c, rounds)) {
				t.Fatal("different seeds, identical datagrams")
			}
			alerts := func(tr *traffic) map[alertKey]int {
				res, err := runOracle(&sentLog{t: tr, rounds: rounds}, eiaPath, model)
				if err != nil {
					t.Fatal(err)
				}
				return res.alerts
			}
			ea, eb, ec := alerts(a), alerts(b), alerts(c)
			if !sameAlerts(ea, eb) {
				t.Fatal("same seed, different expected alerts")
			}
			if w.eventEvery > 0 && sameAlerts(ea, ec) {
				t.Fatal("different seeds, identical expected alerts")
			}
			// Every round's canary is expected to alert.
			canaries := 0
			for k, n := range ea {
				if _, ok := canarySeq(k.id.src, k.id.sport); ok {
					canaries += n
				}
			}
			if canaries != rounds*numPeers {
				t.Fatalf("%d canary alerts expected, %d rounds × %d peers sent", canaries, rounds, numPeers)
			}
		})
	}
}

// TestEventsNeverRepeat pins that attack-ipfix sends every event flow
// once, in one cycle of the event schedule, and that the replay catches
// every event instance of every cycle at its expected stage.
func TestEventsNeverRepeat(t *testing.T) {
	w, err := findWorkload("attack-ipfix")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := generate(w, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	sent := 0 // event records in the whole schedule
	for p := 0; p < numPeers; p++ {
		for _, round := range tr.special[p] {
			for _, d := range round {
				sent += d.recs
			}
		}
	}
	if sent == 0 || len(tr.eventOf) != sent {
		t.Fatalf("%d event records generated, %d distinct event flows", sent, len(tr.eventOf))
	}

	const rounds = 2*specialCycle + specialCycle/2
	res, err := runOracle(&sentLog{t: tr, rounds: rounds}, writeEIAFile(t), trainedModel(t))
	if err != nil {
		t.Fatal(err)
	}
	if n, want := len(tr.sentEvents(rounds)), 2*numPeers*((specialCycle-warmupRounds)/w.eventEvery); n <= want {
		t.Fatalf("%d events sent whole in %d rounds, want more than two cycles' %d", n, rounds, want)
	}
	var c checks
	checkVerdicts(&c, tr, rounds, res.alerts, res.counters)
	if c.failed > 0 {
		t.Fatalf("%d verdict checks failed", c.failed)
	}
}

func sameAlerts(a, b map[alertKey]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, n := range a {
		if b[k] != n {
			return false
		}
	}
	return true
}

func TestCanaryRoundTrip(t *testing.T) {
	for _, seq := range []uint64{0, 1, 0xffff, 0x10000, 123456789, probeSeqBase, probeSeqBase + 77, 1<<33 - 1} {
		rec := canaryRecord(seq)
		got, ok := canarySeq(rec.Key.Src, rec.Key.SrcPort)
		if !ok || got != seq {
			t.Errorf("seq %d: decoded %d, %v (src %s port %d)", seq, got, ok, rec.Key.Src, rec.Key.SrcPort)
		}
		if !netaddr.MustParsePrefix("198.18.0.0/15").Contains(rec.Key.Src) {
			t.Errorf("seq %d: source %s outside 198.18.0.0/15", seq, rec.Key.Src)
		}
	}
	for _, s := range []string{"198.20.0.1", "10.0.0.1", "2001:db8::1", "198.17.255.255"} {
		if _, ok := canarySeq(netaddr.MustParseAddr(s), 7); ok {
			t.Errorf("%s decoded as a canary", s)
		}
	}
}

func TestSupportedPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		ok   bool
	}{
		{5, 0, false},
		{10, 0, false},
		{20, 50, true},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{1200, 99, true},
		{10000, 99.9, true},
		{100000, 99.99, true},
	}
	for _, c := range cases {
		got, ok := supportedPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("supportedPercentile(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i) // 1..1000, reversed
	}
	if got := percentile(xs, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990 (ten samples beyond it)", got)
	}
	if got := percentile(xs, 50); got != 500 {
		t.Errorf("p50 of 1..1000 = %g, want 500", got)
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing is not NaN")
	}
}

func TestMeasuredWindows(t *testing.T) {
	cum := func(steal ...int64) []int64 {
		out := []int64{0}
		for _, s := range steal {
			out = append(out, out[len(out)-1]+s)
		}
		return out
	}
	cases := []struct {
		steal []int64
		want  []bool
	}{
		// Three or more quiet windows: exactly those.
		{[]int64{0, 40, 15, 3, 90, 0}, []bool{true, false, true, true, false, true}},
		// Two quiet: the least-stolen half, quiet ones first.
		{[]int64{50, 0, 80, 30, 20, 70, 60, 3}, []bool{false, true, false, true, true, false, false, true}},
		// None quiet: still the least-stolen half.
		{[]int64{90, 40, 60, 50}, []bool{false, true, false, true}},
	}
	for _, c := range cases {
		got := measuredWindows(cum(c.steal...))
		if len(got) != len(c.want) {
			t.Fatalf("steal %v: %d windows, want %d", c.steal, len(got), len(c.want))
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("steal %v: measured %v, want %v", c.steal, got, c.want)
				break
			}
		}
	}
}

func TestLostFracCountsUnansweredCanaries(t *testing.T) {
	if got := lostFrac(1000, 1000, 0); got != 0 {
		t.Errorf("nothing lost: %g", got)
	}
	if got := lostFrac(1000, 1000, 3); got != 0.003 {
		t.Errorf("three unanswered canaries: %g, want 0.003", got)
	}
	if got := lostFrac(1000, 990, 2); got != 0.012 {
		t.Errorf("ten records and two canaries lost: %g, want 0.012", got)
	}

	// Unanswered canaries as the collector counts them.
	c, err := newCollector(3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	answer := func(peer int, seq uint64) {
		rec := canaryRecord(seq)
		k, err := keyOf(idmef.NewAlert("a", time.Now(), idmef.StageNNS, peer, "x", rec.Key, -1))
		if err != nil {
			t.Fatal(err)
		}
		c.handle(k)
	}
	answer(1, 0)
	answer(2, 0)
	answer(3, 0)
	answer(4, 0)
	answer(1, 1)
	if !c.answered(0) || c.answered(1) {
		t.Fatal("round bookkeeping wrong")
	}
	if got := c.unanswered(3); got != 3*numPeers-5 {
		t.Errorf("unanswered = %d, want %d", got, 3*numPeers-5)
	}
	if got := lostFrac(100, 100, c.unanswered(3)); got != 0.07 {
		t.Errorf("lost_frac with 7 unanswered of 100 = %g", got)
	}
}

// TestParseFrameMatchesIDMEF pins the consumer's field extraction to
// what idmef.Marshal emits and idmef.Unmarshal reads back.
func TestParseFrameMatchesIDMEF(t *testing.T) {
	recs := []flow.Record{
		canaryRecord(123456),
		{Key: flow.Key{Src: netaddr.MustParseAddr("10.64.1.2"), Dst: netaddr.MustParseAddr("192.0.2.7"), SrcPort: 40000, DstPort: 1434}},
		{Key: flow.Key{Src: netaddr.MustParseAddr("2001:db8:100::9"), Dst: netaddr.MustParseAddr("2001:db8:ffff::3"), SrcPort: 1, DstPort: 80}},
	}
	for i, rec := range recs {
		a := idmef.NewAlert(alertID(int64(i)), time.Now(), idmef.StageScan, i+1, "spoofed-traffic/scan-analysis", rec.Key, 17)
		raw, err := idmef.Marshal(a)
		if err != nil {
			t.Fatal(err)
		}
		got, err := parseFrame(raw)
		if err != nil {
			t.Fatal(err)
		}
		back, err := idmef.Unmarshal(raw)
		if err != nil {
			t.Fatal(err)
		}
		want, err := keyOf(back)
		if err != nil {
			t.Fatal(err)
		}
		if got != want || got.id != idOf(rec.Key) {
			t.Errorf("alert %d: parsed %+v, want %+v", i, got, want)
		}
	}
	if _, err := parseFrame([]byte("<Alert>not a message</Alert>")); err == nil {
		t.Error("malformed frame parsed")
	}
}
