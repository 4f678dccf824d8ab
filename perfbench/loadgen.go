package main

// The load generator: one unconnected UDP socket sending to every peer
// port, the IDMEF consumer the daemon's alerts arrive at, canary
// bookkeeping, and the open- and closed-loop phases.

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"
)

// alertKey identifies one received alert for the oracle comparison.
type alertKey struct {
	id    flowID
	stage string
	peer  int
}

// collector receives one daemon's alerts: it timestamps canaries and
// keeps every alert as a multiset for the comparison with the replay.
type collector struct {
	consumer *consumer
	port     int

	mu     sync.Mutex
	due    [numPeers][]time.Time
	got    [numPeers][]time.Time
	alerts map[alertKey]int
	bad    int // alerts whose addresses do not parse
	probe  chan time.Time
	notify chan struct{}
}

func newCollector(rounds int) (*collector, error) {
	c := &collector{
		alerts: make(map[alertKey]int),
		probe:  make(chan time.Time, 1),
		notify: make(chan struct{}, 1),
	}
	for i := range c.due {
		c.due[i] = make([]time.Time, rounds)
		c.got[i] = make([]time.Time, rounds)
	}
	cons, port, err := listenConsumer(c.handle, c.malformed)
	if err != nil {
		return nil, err
	}
	c.consumer, c.port = cons, port
	return c, nil
}

func (c *collector) close() { c.consumer.close() }

func (c *collector) malformed() {
	c.mu.Lock()
	c.bad++
	c.mu.Unlock()
}

func (c *collector) handle(k alertKey) {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.alerts[k]++
	seq, ok := canarySeq(k.id.src, k.id.sport)
	if !ok {
		return
	}
	if seq >= probeSeqBase {
		select {
		case c.probe <- now:
		default:
		}
		return
	}
	p := k.peer - 1
	if p < 0 || p >= numPeers || seq >= uint64(len(c.got[p])) {
		c.bad++
		return
	}
	if c.got[p][seq].IsZero() {
		c.got[p][seq] = now
	}
	select {
	case c.notify <- struct{}{}:
	default:
	}
}

// answered reports whether every peer's canary of round r is back.
func (c *collector) answered(r int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for p := range c.got {
		if c.got[p][r].IsZero() {
			return false
		}
	}
	return true
}

// waitRound blocks until round r's canaries are all back or the
// deadline passes; it returns the time the last one arrived.
func (c *collector) waitRound(r int, deadline time.Time) (time.Time, bool) {
	for {
		if c.answered(r) {
			c.mu.Lock()
			defer c.mu.Unlock()
			var last time.Time
			for p := range c.got {
				if c.got[p][r].After(last) {
					last = c.got[p][r]
				}
			}
			return last, true
		}
		wait := time.Until(deadline)
		if wait <= 0 {
			return time.Time{}, false
		}
		t := time.NewTimer(wait)
		select {
		case <-c.notify:
		case <-t.C:
		}
		t.Stop()
	}
}

func (c *collector) setDue(p, r int, at time.Time) {
	c.mu.Lock()
	c.due[p][r] = at
	c.mu.Unlock()
}

// unanswered counts canaries of rounds [0, rounds) not yet back.
func (c *collector) unanswered(rounds int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for p := range c.got {
		for r := 0; r < rounds; r++ {
			if c.got[p][r].IsZero() {
				n++
			}
		}
	}
	return n
}

// latencyWindows returns the due→alert times of rounds [from, to) in ms,
// in due order (round by round, peers within a round), split into
// windows of perWindow rounds.
func (c *collector) latencyWindows(from, to, perWindow int) [][]float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out [][]float64
	for r := from; r < to; r++ {
		if (r-from)%perWindow == 0 {
			out = append(out, nil)
		}
		w := &out[len(out)-1]
		for p := range c.got {
			if !c.got[p][r].IsZero() {
				*w = append(*w, float64(c.got[p][r].Sub(c.due[p][r]))/float64(time.Millisecond))
			}
		}
	}
	return out
}

func (c *collector) alertSet() map[alertKey]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[alertKey]int, len(c.alerts))
	for k, v := range c.alerts {
		out[k] = v
	}
	return out
}

// maxBatch is the most datagrams one sendmmsg call carries.
const maxBatch = 64

// sender is the single unconnected UDP socket.
type sender struct {
	conn  *net.UDPConn
	bw    *batchWriter
	ports [numPeers]netip.AddrPort
	sent  int64 // records

	raws [][]byte
	dsts []netip.AddrPort
}

func newSender(ports [numPeers]int) (*sender, error) {
	conn, err := net.ListenUDP("udp4", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, err
	}
	if err := conn.SetWriteBuffer(4 << 20); err != nil {
		conn.Close()
		return nil, err
	}
	bw, err := newBatchWriter(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	s := &sender{conn: conn, bw: bw}
	for i, p := range ports {
		s.ports[i] = netip.AddrPortFrom(netip.AddrFrom4([4]byte{127, 0, 0, 1}), uint16(p))
	}
	return s, nil
}

func (s *sender) send(p int, d dgram) error {
	return s.sendItems([]item{{peer: p, d: d}})
}

// sendItems sends the items in order, maxBatch datagrams per syscall.
func (s *sender) sendItems(items []item) error {
	for len(items) > 0 {
		n := min(len(items), maxBatch)
		s.raws, s.dsts = s.raws[:0], s.dsts[:0]
		for _, it := range items[:n] {
			s.raws = append(s.raws, it.d.raw)
			s.dsts = append(s.dsts, s.ports[it.peer])
		}
		sent, err := s.bw.write(s.raws, s.dsts)
		for _, it := range items[:sent] {
			s.sent += int64(it.d.recs)
		}
		if err != nil {
			return fmt.Errorf("send: %w", err)
		}
		items = items[sent:]
	}
	return nil
}

// item is one scheduled datagram of a round.
type item struct {
	peer   int
	d      dgram
	canary bool
}

// roundItems interleaves one round of every peer, so the ports are fed
// evenly; each peer's canary stays last on its port.
func roundItems(t *traffic, r int, scratch [numPeers][]dgram, dst []item) []item {
	dst = dst[:0]
	longest := 0
	for p := 0; p < numPeers; p++ {
		scratch[p] = t.round(p, r, scratch[p])
		if len(scratch[p]) > longest {
			longest = len(scratch[p])
		}
	}
	for j := 0; j < longest; j++ {
		for p := 0; p < numPeers; p++ {
			if j < len(scratch[p]) {
				dst = append(dst, item{peer: p, d: scratch[p][j], canary: j == len(scratch[p])-1})
			}
		}
	}
	return dst
}

// openLoop sends rounds [0, rounds) on a fixed schedule, canariesPerSec
// rounds a second, each round's datagrams spread evenly over its slot;
// whatever is due when the generator wakes goes out in one batch. It
// records each canary's due time, calls sample once per scheduled
// second, and returns every datagram's lateness in ms.
func openLoop(s *sender, c *collector, t *traffic, rounds int, sample func()) ([]float64, error) {
	period := time.Second / canariesPerSec
	var (
		scratch [numPeers][]dgram
		items   []item
		late    []float64
	)
	t0 := time.Now().Add(2 * time.Millisecond)
	next := t0.Add(time.Second)
	for r := 0; r < rounds; r++ {
		items = roundItems(t, r, scratch, items)
		step := period / time.Duration(len(items))
		base := t0.Add(time.Duration(r) * period)
		for j := 0; j < len(items); {
			due := base.Add(time.Duration(j) * step)
			if !due.Before(next) {
				sample()
				next = next.Add(time.Second)
			}
			now := time.Now()
			if wait := due.Sub(now); wait > 0 {
				time.Sleep(wait)
				now = time.Now()
			}
			// Everything of this round due by now.
			k := j + 1
			for k < len(items) && k-j < maxBatch && !base.Add(time.Duration(k)*step).After(now) {
				k++
			}
			for x := j; x < k; x++ {
				d := base.Add(time.Duration(x) * step)
				late = append(late, float64(now.Sub(d))/float64(time.Millisecond))
				if items[x].canary {
					c.setDue(items[x].peer, r, d)
				}
			}
			if err := s.sendItems(items[j:k]); err != nil {
				return late, err
			}
			j = k
		}
	}
	return late, nil
}

// closedInFlight bounds the records in flight per port in the closed
// loop: enough to keep every stage busy, and (at most ~1 MiB of
// datagrams) far inside the daemon's 4 MiB receive buffer.
const closedInFlight = 16384

// closedResult is what the closed-loop phase measured.
type closedResult struct {
	end     int         // first round not sent
	recs    int64       // records sent
	start   time.Time   // first send
	done    []time.Time // per round from the first: last canary's arrival
	perRecs []int64     // per round from the first: records
	steal   []int64     // host steal ticks at each whole second from start
}

// sampleSteal records the host's steal counter at every whole second
// of the phase that has passed.
func (res *closedResult) sampleSteal() {
	for time.Since(res.start) >= time.Duration(len(res.steal))*time.Second {
		res.steal = append(res.steal, stealTicks())
	}
}

// closedLoop sends rounds from first on, keeping at most closedInFlight
// records per port outstanding (a round goes out once the canaries of an
// old enough round are back on every port), until dur has passed or the
// schedule ends, then waits for the last canaries.
func closedLoop(s *sender, c *collector, t *traffic, first int, dur time.Duration) (closedResult, error) {
	var (
		scratch [numPeers][]dgram
		items   []item
	)
	window := max(2, closedInFlight/(t.bgPerRound*30))
	res := closedResult{start: time.Now()}
	before := s.sent
	r := first
	for ; r < t.maxRounds && time.Since(res.start) < dur; r++ {
		res.sampleSteal()
		if r-window >= first {
			if _, ok := c.waitRound(r-window, time.Now().Add(20*time.Second)); !ok {
				return res, fmt.Errorf("closed loop: round %d canaries not answered within 20s", r-window)
			}
		}
		items = roundItems(t, r, scratch, items)
		now := time.Now()
		for _, it := range items {
			if it.canary {
				c.setDue(it.peer, r, now)
			}
		}
		sent := s.sent
		if err := s.sendItems(items); err != nil {
			return res, err
		}
		res.perRecs = append(res.perRecs, s.sent-sent)
	}
	res.end, res.recs = r, s.sent-before
	for x := first; x < r; x++ {
		at, ok := c.waitRound(x, time.Now().Add(20*time.Second))
		if !ok {
			return res, fmt.Errorf("closed loop: round %d not answered within 20s", x)
		}
		res.done = append(res.done, at)
		res.sampleSteal()
	}
	return res, nil
}

// capacity returns the median records-per-second over the measured
// whole one-second windows of the phase (rounds binned by completion
// time; see measuredWindows), or the phase average when it spans fewer
// than three windows.
func (res closedResult) capacity() float64 {
	if len(res.done) == 0 {
		return 0
	}
	last := res.done[len(res.done)-1]
	elapsed := last.Sub(res.start)
	full := int(elapsed / time.Second)
	if full < 3 {
		return float64(res.recs) / elapsed.Seconds()
	}
	bins := make([]float64, full)
	for i, at := range res.done {
		if w := int(at.Sub(res.start) / time.Second); w < full {
			bins[w] += float64(res.perRecs[i])
		}
	}
	measured := measuredWindows(res.steal)
	var kept []float64
	for w, b := range bins {
		if w < len(measured) && measured[w] {
			kept = append(kept, b)
		}
	}
	if len(kept) < 3 {
		kept = bins
	}
	return median(kept)
}

// probeUntilAlert sends a v5 canary probe to peer 1 every 20ms until the
// first alert comes back; it returns the arrival time and probes sent.
func probeUntilAlert(s *sender, c *collector, t *traffic, deadline time.Time) (time.Time, []dgram, error) {
	var probes []dgram
	tick := time.NewTicker(20 * time.Millisecond)
	defer tick.Stop()
	for {
		d := t.probe(probeSeqBase + uint64(len(probes)))
		if err := s.send(0, d); err != nil {
			return time.Time{}, probes, err
		}
		probes = append(probes, d)
		select {
		case at := <-c.probe:
			return at, probes, nil
		case <-tick.C:
		}
		if time.Now().After(deadline) {
			return time.Time{}, probes, fmt.Errorf("no canary alert before the deadline")
		}
	}
}
