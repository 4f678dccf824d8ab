package main

// The deployment and address plan every workload shares, and the
// seeded generator that turns a workload into per-peer export datagrams.
//
// Address plan (numPeers peers, peer p = 1..4, block j = 0..99):
//
//	v4 EIA   the paper's Table 3 allocation, blocks.EIAAllocation(p):
//	         100 /11 sub-blocks per peer
//	v6 EIA   3fff:0pjj::/32 (RFC 9637 documentation space): one /32, an
//	         RIR's standard ISP allocation, beside each v4 block
//	background  the first /16 (v6: the first /48) of every block. Half
//	         the records come from the peer's hot /24s — the first
//	         hotPerBlock /24s of its first hotBlocks blocks — and half from
//	         any /24 of those /16s: a skewed source population, as at a
//	         real ingress, whose hot part keeps the TTL profiles trained
//	spoof    /16s 1..31 of blocks hotBlocks..99 of peer f = q mod 4 + 1,
//	         one per (event kind, cycle) of the attacker at peer q
//	         (WrongPeer)
//	ttl-spoof  the peer's own hot /24s, with the attacker's TTL
//	reroute  peer 1's /16s 1 and 2 of blocks 0..hotBlocks-1 (v4 /24s)
//	         and /48s 1.. of the same blocks' /32s (v6)
//	canary   198.18.0.0/15 (RFC 2544, in no EIA set), proto 253
//
// Every address region is used by exactly one peer's stream, so the
// daemon's shards share no TTL profile, scan register or pending vouch:
// a verdict depends only on the order of its own port's records, which
// is what makes a serial replay an exact oracle for the sharded daemon.

import (
	"fmt"
	"io"
	"time"

	"infilter/internal/blocks"
	"infilter/internal/dagflow"
	"infilter/internal/flow"
	"infilter/internal/netaddr"
	"infilter/internal/netflow"
	"infilter/internal/packet"
	"infilter/internal/trace"
)

const (
	numPeers = 4
	// canariesPerSec is each port's canary rate in the open-loop phase:
	// one canary closes every round.
	canariesPerSec = 200
	// shapePool is how many benign flow shapes are drawn from the
	// synthetic trace generator per workload.
	shapePool = 2048
	// bgPoolDgrams is the size of each peer's cyclic background pool:
	// 122880 records per peer, over a second of legal-v5's offered load.
	bgPoolDgrams = 4096
	// specialCycle is the period, in rounds, of attack-ipfix's event
	// slots. Each cycle fills the slots with new events (fresh spoofed
	// sources, fresh TTL-spoof flows), so no event is sent twice.
	specialCycle = 200
	// warmupRounds precede the first event or move, so TTL profiles and
	// the scan window start from steady state.
	warmupRounds = 4
	initialTTL   = 64
	attackerHops = 15
	canaryProto  = 253
)

// epoch anchors every generated timestamp, so a seed fixes the bytes.
var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// exportTime stamps every datagram header.
var exportTime = epoch.Add(time.Hour)

var (
	targetV4 = netaddr.MustParsePrefix("192.0.2.0/24")
	targetV6 = netaddr.MustParsePrefix("2001:db8:ffff::/64")
	canaryTo = netaddr.AddrFrom4(192, 0, 2, 250)
)

// eventKind names one SMap-style injected event class, with the stage
// expected to detect it.
type eventKind int

const (
	evFlood eventKind = iota
	evNetScan
	evHostScan
	evTTLSpoof
	numEventKinds
)

var eventNames = [numEventKinds]string{"spoofed-flood", "network-scan", "host-scan", "ttl-spoof"}

// expectedStage is the IDMEF stage each event kind must be caught at.
var expectedStage = [numEventKinds]string{"nns-search", "scan-analysis", "scan-analysis", "ttl-profile"}

func (k eventKind) String() string { return eventNames[k] }

// workload is one traffic mix. Its rates are fixed here, once, from
// measurements of capacity_rps on a 2-CPU virtual machine: the open-loop
// rate, specials and canaries included, is a quarter (legal-v5) to just
// over a half (attack-ipfix) of the closed-loop capacity, low enough that
// the host's steal time does not swing the median latency or overrun the
// daemon.
type workload struct {
	name    string
	why     string
	version uint16
	// offeredRPS is the open-loop offered load, records/s over all ports.
	offeredRPS float64
	// capacityRPS is the expected closed-loop capacity; it only sizes
	// the non-repeating part of reroute-v9's schedule.
	capacityRPS float64
	// v6 interleaves IPv6 background (half the records) with v4.
	v6 bool
	// ttl stamps hop-derived TTLs (v9 and IPFIX carry them; v5 cannot).
	ttl bool
	// eventEvery launches one event per peer every this many rounds
	// (attack-ipfix; 0 disables events).
	eventEvery int
	// scanScale multiplies the breadth of the scan events (Slammer hosts,
	// Idlescan ports), so scan-stopped flows carry a visible share.
	scanScale int
	// movesPerSec is how many subnets of peer 1 move to peer 2 per
	// second of rounds (reroute-v9; 0 disables the route change).
	movesPerSec int
}

var workloads = []workload{
	{
		name:        "legal-v5",
		why:         "all-Match NetFlow v5 from each peer's own prefixes: collector, decode, handoff and the EIA hit path",
		version:     netflow.VersionV5,
		offeredRPS:  800000,
		capacityRPS: 4000000,
	},
	{
		name:        "attack-ipfix",
		why:         "IPFIX with TTL and SMap-style floods, scans and TTL spoofs: Bloom miss path, scan sketch, NNS, TTL, alerts",
		version:     netflow.VersionIPFIX,
		offeredRPS:  120000,
		capacityRPS: 300000,
		ttl:         true,
		eventEvery:  16,
		scanScale:   16,
	},
	{
		name:        "reroute-v9",
		why:         "dual-stack NetFlow v9 with a rolling route change: promotions (EIA writes) beside reads, NNS on benign suspects, v6 trie",
		version:     netflow.VersionV9,
		offeredRPS:  230000,
		capacityRPS: 800000,
		v6:          true,
		ttl:         true,
		movesPerSec: 300,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// roundRecs is the number of background records per port per round, so
// that rounds at canariesPerSec offer w.offeredRPS.
func (w workload) roundRecs() int {
	n := int(w.offeredRPS / numPeers / canariesPerSec)
	return (n + netflow.MaxRecords - 1) / netflow.MaxRecords * netflow.MaxRecords
}

// --- address plan ---

const (
	// blocksPerPeer is each peer's EIA allocation in /11 sub-blocks.
	blocksPerPeer = blocks.SubBlocksPerSource
	// hotBlocks is how many of a peer's blocks hold its hot /24s and, on
	// peer 1, the reroute space.
	hotBlocks = 32
	// hotPerBlock is the number of hot /24s in each hot block.
	hotPerBlock = 8
	numHot      = hotBlocks * hotPerBlock
	// spoofPerBlock is the spoof /16s per block (all but the first).
	spoofPerBlock = 31
)

// v4Blocks[p-1] holds the base addresses of peer p's /11 sub-blocks.
var v4Blocks = func() (out [numPeers][blocksPerPeer]uint32) {
	for p := 1; p <= numPeers; p++ {
		alloc, err := blocks.EIAAllocation(p)
		if err != nil {
			panic(err)
		}
		for j, sb := range alloc {
			v4, _ := sb.Prefix().Addr().V4()
			out[p-1][j] = uint32(v4)
		}
	}
	return out
}()

// v4Addr returns the address at /16 number s, /24 number c and host h
// of peer p's block j.
func v4Addr(p, j, s, c, h int) netaddr.Addr {
	return netaddr.IPv4(v4Blocks[p-1][j] | uint32(s)<<16 | uint32(c)<<8 | uint32(h)).Addr()
}

// v6Addr returns an address in /48 number s of peer p's block j, whose
// low bytes come from host.
func v6Addr(p, j, s int, host uint32) netaddr.Addr {
	var b [16]byte
	b[0], b[1], b[2], b[3] = 0x3f, 0xff, byte(p), byte(j)
	b[4], b[5] = byte(s>>8), byte(s)
	b[12], b[13], b[14], b[15] = byte(host>>24), byte(host>>16), byte(host>>8), byte(host)
	return netaddr.AddrFrom16(b)
}

func eiaPrefixes(p int) []netaddr.Prefix {
	out := make([]netaddr.Prefix, 0, 2*blocksPerPeer)
	for j := 0; j < blocksPerPeer; j++ {
		out = append(out,
			netaddr.MustPrefix(v4Addr(p, j, 0, 0, 0), 11),
			netaddr.MustPrefix(v6Addr(p, j, 0, 0), 32))
	}
	return out
}

// writeEIA writes the -eia-file preload for every peer.
func writeEIA(w io.Writer) error {
	for p := 1; p <= numPeers; p++ {
		for _, c := range eiaPrefixes(p) {
			if _, err := fmt.Fprintf(w, "%d %s\n", p, c); err != nil {
				return err
			}
		}
	}
	return nil
}

// hotPrefixes are peer p's hot /24s.
func hotPrefixes(p int) []netaddr.Prefix {
	out := make([]netaddr.Prefix, numHot)
	for h := range out {
		out[h] = netaddr.MustPrefix(v4Addr(p, h/hotPerBlock, 0, h%hotPerBlock, 0), 24)
	}
	return out
}

// bgAddrV4 draws a background source of peer p: half the time from its
// hot /24s, otherwise from any /24 of the first /16 of any block.
func bgAddrV4(p int, r *rng) netaddr.Addr {
	if r.intn(2) == 0 {
		h := r.intn(numHot)
		return v4Addr(p, h/hotPerBlock, 0, h%hotPerBlock, 1+r.intn(254))
	}
	return v4Addr(p, r.intn(blocksPerPeer), 0, r.intn(256), 1+r.intn(254))
}

// bgAddrV6 draws a v6 background source of peer p from the first /48 of
// a hot block half the time, of any block otherwise.
func bgAddrV6(p int, r *rng) netaddr.Addr {
	j := r.intn(blocksPerPeer)
	if r.intn(2) == 0 {
		j = r.intn(hotBlocks)
	}
	return v6Addr(p, j, 0, uint32(r.next()))
}

// spoofPrefix is the /16 the attacker at peer q spoofs for event kind k
// in cycle c; ok is false once the spoof space is exhausted.
func spoofPrefix(q int, k eventKind, c int) (netaddr.Prefix, bool) {
	f := q%numPeers + 1
	n := c*int(numEventKinds) + int(k)
	j := hotBlocks + n/spoofPerBlock
	if j >= blocksPerPeer {
		return netaddr.Prefix{}, false
	}
	return netaddr.MustPrefix(v4Addr(f, j, 1+n%spoofPerBlock, 0, 0), 16), true
}

// rerouteSubnet returns the k-th subnet of peer 1 to move: even k are
// v4 /24s, odd k v6 /48s on dual-stack workloads. ok is false once
// peer 1's reroute space is exhausted.
func rerouteSubnet(k int, v6 bool) (netaddr.Prefix, bool) {
	if v6 && k%2 == 1 {
		i := k / 2
		s := 1 + i/hotBlocks
		if s > 0xffff {
			return netaddr.Prefix{}, false
		}
		return netaddr.MustPrefix(v6Addr(1, i%hotBlocks, s, 0), 48), true
	}
	if v6 {
		k /= 2
	}
	if k >= hotBlocks*512 {
		return netaddr.Prefix{}, false
	}
	return netaddr.MustPrefix(v4Addr(1, k/512, 1+k/256%2, k%256, 0), 24), true
}

func peerTTL(p int) uint8     { return uint8(initialTTL - (5 + 2*p)) }
func attackerTTL(p int) uint8 { return peerTTL(p) - attackerHops }

// --- canaries ---

// canaryRecord builds canary number seq: its source address and
// port encode seq (17 + 16 bits), its destination is fixed so it can
// never trip scan, and protocol 253 lands in the untrained NNS "other"
// subcluster, so every canary is flagged.
func canaryRecord(seq uint64) flow.Record {
	return flow.Record{
		Key: flow.Key{
			Src:     canarySrc(seq),
			Dst:     canaryTo,
			Proto:   canaryProto,
			SrcPort: uint16(seq),
			DstPort: 9,
		},
		Packets: 5,
		Bytes:   500,
		Start:   epoch,
		End:     epoch.Add(time.Second),
	}
}

func canarySrc(seq uint64) netaddr.Addr {
	host := uint32(seq>>16) & 0x1ffff
	return netaddr.AddrFrom4(198, 18|byte(host>>16), byte(host>>8), byte(host))
}

// canarySeq decodes a canary's sequence number from its alert's source
// address and port; ok is false for any address outside 198.18.0.0/15.
func canarySeq(src netaddr.Addr, port uint16) (uint64, bool) {
	v4, ok := src.V4()
	if !ok || v4>>17 != (198<<24|18<<16)>>17 {
		return 0, false
	}
	host := uint64(v4) & 0x1ffff
	return host<<16 | uint64(port), true
}

// --- generation ---

// rng is splitmix64: tiny, fast and fully determined by its seed.
type rng struct{ s uint64 }

func newRNG(parts ...int64) *rng {
	r := &rng{s: 0x9e3779b97f4a7c15}
	for _, p := range parts {
		r.s ^= uint64(p)
		r.next()
	}
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// flowID is the part of a flow key an IDMEF alert carries.
type flowID struct {
	src, dst     netaddr.Addr
	sport, dport uint16
}

func idOf(k flow.Key) flowID {
	return flowID{src: k.Src, dst: k.Dst, sport: k.SrcPort, dport: k.DstPort}
}

// label classifies one generated record for the correctness checks.
type label struct {
	kind  labelKind
	event eventKind
	id    int // event instance (attack-ipfix), -1 otherwise
}

type labelKind uint8

const (
	labBenign labelKind = iota
	labCanary
	labEvent
	labReroute
)

// traffic is one workload's generated export stream for one seed.
type traffic struct {
	w    workload
	seed int64
	// preamble[p] holds peer p's template datagrams, sent once first.
	preamble [numPeers][]dgram
	// pool[p] is peer p's cyclic background pool.
	pool [numPeers][]dgram
	// bgPerRound is the background datagrams each round takes from pool.
	bgPerRound int
	// special[p][i] are the event or reroute datagrams of round i.
	special [numPeers][][]dgram
	// canary[p][r] is round r's canary datagram.
	canary [numPeers][]dgram
	// maxRounds bounds the rounds a run may send.
	maxRounds int
	// probeEnc encodes the v5 canary probes used while the daemon starts.
	probeEnc *netflow.V5Encoder
	// eventOf labels every event and reroute record by its flow identity.
	eventOf map[flowID]label
	// eventRounds records the round each event instance starts in.
	eventRounds []eventAt
}

type eventAt struct {
	id, round int
	kind      eventKind
}

// encoder returns a fresh encoder for peer p's stream.
func (t *traffic) encoder(p int) netflow.WireEncoder {
	switch t.w.version {
	case netflow.VersionV9:
		return netflow.NewV9Encoder(epoch, uint32(p))
	case netflow.VersionIPFIX:
		return netflow.NewIPFIXEncoder(uint32(p))
	default:
		return netflow.NewV5Encoder(epoch, uint8(p))
	}
}

// dgram is one encoded export datagram and the records it carries.
type dgram struct {
	raw  []byte
	recs int
}

// split separates template-only datagrams from data datagrams.
func split(dgs []netflow.WireDatagram) (tpl, data []dgram) {
	for _, d := range dgs {
		if d.Flows == 0 {
			tpl = append(tpl, dgram{raw: d.Raw})
		} else {
			data = append(data, dgram{raw: d.Raw, recs: d.Flows})
		}
	}
	return tpl, data
}

// shapeSeed fixes the shape population for every workload seed: a seed
// changes which shapes are drawn and where they are addressed, not the
// population's mix of per-flow costs, so seeds stay comparable runs.
const shapeSeed = 20050601

// normalShapes draws benign flow shapes from the synthetic trace
// generator the daemon's NNS training also uses.
func normalShapes() ([]flow.Record, error) {
	pkts, err := trace.GenerateNormal(trace.NormalConfig{
		Seed:        shapeSeed,
		Start:       epoch,
		Flows:       shapePool,
		SrcPrefixes: []netaddr.Prefix{netaddr.MustParsePrefix("10.0.0.0/10")},
		DstPrefix:   targetV4,
	})
	if err != nil {
		return nil, err
	}
	return flowsOf(pkts), nil
}

func flowsOf(pkts []packet.Packet) []flow.Record {
	cache := netflow.NewCache(netflow.CacheConfig{ExpireOnFINRST: true})
	for _, p := range pkts {
		cache.Observe(p, 0)
	}
	cache.FlushAll()
	return cache.Drain()
}

// stamp re-addresses a shape: it keeps the shape's ports, protocol and
// counters and rebases its timestamps onto the epoch.
func stamp(shape flow.Record, src netaddr.Addr, ttl uint8, r *rng) flow.Record {
	rec := shape
	dur := shape.Duration()
	rec.Start = epoch.Add(time.Duration(r.intn(600_000)) * time.Millisecond)
	rec.End = rec.Start.Add(dur)
	rec.Key.Src = src
	if src.Is6() {
		// Keep the shape's server slot and service, in the v6 target.
		v4, _ := shape.Key.Dst.V4()
		rec.Key.Dst = targetV6.Nth(uint64(v4 & 0xff))
		rec.SrcMask, rec.DstMask = 48, 64
	} else {
		rec.SrcMask, rec.DstMask = 24, 24
	}
	rec.TTL = ttl
	return rec
}

// generate builds the whole stream for one workload and seed.
func generate(w workload, seed int64, seconds int) (*traffic, error) {
	t := &traffic{w: w, seed: seed, probeEnc: netflow.NewV5Encoder(epoch, 0), eventOf: make(map[flowID]label)}
	shapes, err := normalShapes()
	if err != nil {
		return nil, err
	}
	// Shapes that cannot enter the scan window (more than two packets),
	// for the rerouted flows, which must pass scan analysis.
	var established []flow.Record
	for _, s := range shapes {
		if s.Packets > 2 {
			established = append(established, s)
		}
	}
	t.bgPerRound = w.roundRecs() / netflow.MaxRecords
	openRounds := seconds * canariesPerSec / 2
	closedRounds := int(w.capacityRPS*float64(seconds)/2/float64(numPeers*w.roundRecs())) * 3
	t.maxRounds = openRounds + closedRounds + 64

	encs := make([]netflow.WireEncoder, numPeers)
	for i := range encs {
		p := i + 1
		encs[i] = t.encoder(p)
		r := newRNG(seed, int64(p), 1)
		recs := make([]flow.Record, 0, bgPoolDgrams*netflow.MaxRecords)
		for len(recs) < cap(recs) {
			var ttl uint8
			if w.ttl {
				ttl = peerTTL(p)
			}
			// Consecutive runs of one family, so datagrams stay full.
			src := bgAddrV4(p, r)
			if w.v6 && (len(recs)/netflow.MaxRecords)%2 == 1 {
				src = bgAddrV6(p, r)
			}
			recs = append(recs, stamp(shapes[r.intn(len(shapes))], src, ttl, r))
		}
		tpl, data := split(encs[i].Encode(recs, exportTime))
		t.preamble[i] = tpl
		t.pool[i] = data
	}

	switch {
	case w.eventEvery > 0:
		if err := t.genEvents(encs); err != nil {
			return nil, err
		}
	case w.movesPerSec > 0:
		t.genReroute(encs, established)
	}

	for i := range encs {
		t.canary[i] = make([]dgram, t.maxRounds)
		for r := 0; r < t.maxRounds; r++ {
			_, data := split(encs[i].Encode([]flow.Record{canaryRecord(uint64(r))}, exportTime))
			t.canary[i][r] = data[0]
		}
		// A template announced late (first v6 record in a special
		// datagram) would otherwise be missing from the preamble.
		tpl, _ := split(encs[i].Flush(exportTime))
		t.preamble[i] = append(t.preamble[i], tpl...)
	}
	return t, nil
}

// eventRecords builds one event instance the way the deployment
// campaign does: a trace.Generate attack (or, for the TTL spoof, benign
// traffic from the peer's own hot /24s) stamped with the attacker's
// TTL, replayed through a Dagflow instance with source rewriting into
// the cycle-0 spoof /16 and IPFIX export, and decoded back into flow
// records. scanScale widens the two scans; floods keep the generator's
// own volume.
func eventRecords(seed int64, p int, k eventKind, inst int, scanScale int, ttl bool) ([]flow.Record, error) {
	start := epoch.Add(time.Duration(inst) * time.Second)
	var (
		pkts   []packet.Packet
		policy dagflow.SourcePolicy
		err    error
	)
	evSeed := seed*7919 + int64(p)*131 + int64(k)*17 + int64(inst)
	if k == evTTLSpoof {
		// Benign-shaped flows from the peer's own hot /24s, whose TTL
		// profiles the background has trained: an EIA Match only the
		// TTL profile can contradict.
		pkts, err = trace.GenerateNormal(trace.NormalConfig{
			Seed:        evSeed,
			Start:       start,
			Flows:       30,
			SrcPrefixes: hotPrefixes(p),
			DstPrefix:   targetV4,
		})
	} else {
		at := map[eventKind]trace.AttackType{
			evFlood:    trace.AttackSYNFlood,
			evNetScan:  trace.AttackSlammer,
			evHostScan: trace.AttackIdlescan,
		}[k]
		cfg := trace.AttackConfig{
			Seed:      evSeed,
			Start:     start,
			Src:       netaddr.AddrFrom4(203, 0, 113, byte(p)),
			DstPrefix: targetV4,
		}
		if k != evFlood {
			cfg.Scale = scanScale
		}
		pkts, err = trace.Generate(at, cfg)
		if err == nil {
			sp, _ := spoofPrefix(p, k, 0)
			policy, err = dagflow.NewSpoofPolicy([]netaddr.Prefix{sp}, evSeed)
		}
	}
	if err != nil {
		return nil, err
	}
	if ttl {
		for i := range pkts {
			pkts[i].TTL = attackerTTL(p)
		}
	}
	in := dagflow.New(dagflow.Config{
		Name:    fmt.Sprintf("P%d-%s-%d", p, k, inst),
		Policy:  policy,
		InputIf: uint16(p),
		Cache:   netflow.CacheConfig{ExpireOnFINRST: true},
		Version: netflow.VersionIPFIX,
	}, epoch)
	dgs, err := in.Replay(pkts)
	if err != nil {
		return nil, err
	}
	db := netflow.NewDecodeBuffer(nil)
	var out []flow.Record
	for _, d := range dgs {
		msg, err := netflow.Decode(d.Raw, db)
		if err != nil {
			return nil, err
		}
		out = append(out, msg.Records...)
	}
	return out, nil
}

// respoof moves a spoofed event's sources from its cycle-0 spoof /16 to
// cycle c's, keeping each source's host part; everything the scan and
// NNS stages look at stays as it was.
func respoof(recs []flow.Record, p int, k eventKind, c int) ([]flow.Record, error) {
	sp, ok := spoofPrefix(p, k, c)
	if !ok {
		return nil, fmt.Errorf("spoof space exhausted at cycle %d", c)
	}
	base, _ := sp.Addr().V4()
	out := make([]flow.Record, len(recs))
	for i, rec := range recs {
		v4, _ := rec.Key.Src.V4()
		rec.Key.Src = (base | v4&0xffff).Addr()
		out[i] = rec
	}
	return out, nil
}

// genEvents schedules one event per peer every w.eventEvery rounds,
// cycling through the four kinds over the specialCycle-round slots.
// Every cycle sends new events: a spoofed event is replayed from a new
// spoof /16, a TTL spoof is generated afresh. So each event instance,
// and each alert, belongs to exactly one cycle.
func (t *traffic) genEvents(encs []netflow.WireEncoder) error {
	cycles := (t.maxRounds + specialCycle - 1) / specialCycle
	slots := (specialCycle - warmupRounds) / t.w.eventEvery
	for i := range encs {
		p := i + 1
		t.special[i] = make([][]dgram, cycles*specialCycle)
		for slot := 0; slot < slots; slot++ {
			k := eventKind(slot % int(numEventKinds))
			var base []flow.Record
			if k != evTTLSpoof {
				var err error
				if base, err = eventRecords(t.seed, p, k, slot, t.w.scanScale, t.w.ttl); err != nil {
					return err
				}
			}
			for c := 0; c < cycles; c++ {
				var (
					recs []flow.Record
					err  error
				)
				if k == evTTLSpoof {
					recs, err = eventRecords(t.seed, p, k, c*slots+slot, t.w.scanScale, t.w.ttl)
				} else {
					recs, err = respoof(base, p, k, c)
				}
				if err != nil {
					return err
				}
				id := len(t.eventRounds)
				for _, rec := range recs {
					// Event keys are unique: spoofed sources live in the
					// attacker's per-cycle /16, TTL spoofs carry the
					// attacker's TTL on fresh source ports.
					t.eventOf[idOf(rec.Key)] = label{kind: labEvent, event: k, id: id}
				}
				r := c*specialCycle + warmupRounds + slot*t.w.eventEvery
				t.eventRounds = append(t.eventRounds, eventAt{id: id, round: r, kind: k})
				// The event runs until the next one starts: its flows are
				// split over the eventEvery rounds, keeping the load steady.
				per := (len(recs) + t.w.eventEvery - 1) / t.w.eventEvery
				for j := 0; j < t.w.eventEvery && len(recs) > 0; j++ {
					n := min(per, len(recs))
					_, data := split(encs[i].Encode(recs[:n], exportTime))
					t.special[i][r+j] = data
					recs = recs[n:]
				}
			}
		}
	}
	return nil
}

// genReroute schedules the rolling route change. Subnet m moves at
// round warmup+preMove+gap+m·canariesPerSec/movesPerSec: for the
// preMove rounds before a gap
// it arrives on peer 1 (EIA Match; it teaches the TTL profile its hop
// count), then after the gap it arrives on peer 2 with the same shape
// and TTL for postMove rounds — a suspect that passes scan and NNS, is
// vouched, and is promoted once it reaches the promotion threshold.
func (t *traffic) genReroute(encs []netflow.WireEncoder, established []flow.Record) {
	const (
		preMove  = 2
		gap      = canariesPerSec / 2 // half a second: no port lags that far
		postMove = 4
		perRound = 8 // flows per subnet per round on either side
	)
	pre := make([][]flow.Record, t.maxRounds)
	post := make([][]flow.Record, t.maxRounds)
	r := newRNG(t.seed, 99)
	for m := 0; ; m++ {
		move := warmupRounds + preMove + gap + m*canariesPerSec/t.w.movesPerSec
		if move+postMove > t.maxRounds {
			break
		}
		sub, ok := rerouteSubnet(m, t.w.v6)
		if !ok {
			break
		}
		add := func(into [][]flow.Record, from, rounds int) {
			for x := from; x < from+rounds; x++ {
				for j := 0; j < perRound; j++ {
					src := sub.Nth(uint64(1 + r.intn(250)))
					rec := stamp(established[r.intn(len(established))], src, peerTTL(1), r)
					t.eventOf[idOf(rec.Key)] = label{kind: labReroute, id: -1}
					into[x] = append(into[x], rec)
				}
			}
		}
		add(pre, move-gap-preMove, preMove)
		add(post, move, postMove)
	}
	for i := range encs {
		t.special[i] = make([][]dgram, t.maxRounds)
	}
	for x := 0; x < t.maxRounds; x++ {
		if len(pre[x]) > 0 {
			_, t.special[0][x] = split(encs[0].Encode(pre[x], exportTime))
		}
		if len(post[x]) > 0 {
			_, t.special[1][x] = split(encs[1].Encode(post[x], exportTime))
		}
	}
}

// specialFor returns peer p's (0-based) special datagrams of round r.
func (t *traffic) specialFor(i, r int) []dgram {
	if s := t.special[i]; r < len(s) {
		return s[r]
	}
	return nil
}

// round returns the datagrams peer i (0-based) sends in round r, in
// order: background, then specials, then the canary closing the round.
func (t *traffic) round(i, r int, dst []dgram) []dgram {
	dst = dst[:0]
	pool := t.pool[i]
	sp := t.specialFor(i, r)
	k := 0
	for j := 0; j < t.bgPerRound; j++ {
		// Specials are spread evenly through the background, so an
		// event's flows do not queue up in front of the canary.
		for k < len(sp) && (k+1)*t.bgPerRound <= j*(len(sp)+1) {
			dst = append(dst, sp[k])
			k++
		}
		dst = append(dst, pool[(r*t.bgPerRound+j)%len(pool)])
	}
	dst = append(dst, sp[k:]...)
	return append(dst, t.canary[i][r])
}

// probe encodes a v5 canary probe datagram (setup phase, peer 1).
func (t *traffic) probe(seq uint64) dgram {
	return dgram{raw: t.probeEnc.Encode([]flow.Record{canaryRecord(seq)}, exportTime)[0].Raw, recs: 1}
}

// probeSeqBase keeps setup probes apart from the rounds' canaries.
const probeSeqBase = 1 << 32

// classify labels one flow of the stream by the identity its alert
// carries.
func (t *traffic) classify(id flowID) label {
	if _, ok := canarySeq(id.src, id.sport); ok {
		return label{kind: labCanary, id: -1}
	}
	if l, ok := t.eventOf[id]; ok {
		return l
	}
	return label{kind: labBenign, id: -1}
}

// sentEvent is one injected event instance that was actually sent.
type sentEvent struct {
	id   int
	kind eventKind
}

// sentEvents lists the event instances sent whole in rounds [0, rounds).
func (t *traffic) sentEvents(rounds int) []sentEvent {
	var out []sentEvent
	for _, e := range t.eventRounds {
		if e.round+t.w.eventEvery <= rounds {
			out = append(out, sentEvent{id: e.id, kind: e.kind})
		}
	}
	return out
}
