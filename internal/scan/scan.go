// Package scan implements the Scan Analysis stage of Enhanced InFilter
// (paper §4.1): suspect-flow counting that recognizes network scans (one
// destination port across many distinct hosts, e.g. Slammer) and host
// scans (many destination ports on one host, e.g. nmap Idlescan). It
// sits between EIA analysis and NNS search.
//
// Two interchangeable counting backends live behind the same Analyzer
// API. The default is streaming: per-port and per-host KMV registers
// (internal/sketch) estimate distinct targets over an unbounded suspect
// stream in fixed memory, with a two-generation rotation that forgets
// old observations the way the paper's bounded buffer does. The paper's
// original 200-entry ring buffer is kept behind Config.ExactBuffer as
// the exact small-N oracle: below the register size k the KMV estimates
// are exact, so the two backends provably emit identical trip decisions
// for streams that fit the ring — the equivalence suite in
// internal/analysis pins that down.
//
// The package also hosts TTLProfile (ttl.go), the per-source
// expected-TTL second-opinion detector.
package scan

import (
	"infilter/internal/flow"
	"infilter/internal/netaddr"
	"infilter/internal/sketch"
	"infilter/internal/telemetry"
)

// Metrics count scan-threshold trips and sketch-backend activity. One
// Metrics may be shared by many analyzers (analysis.ParallelEngine
// gives each shard its own Analyzer but one shared Metrics):
// increments are single atomics.
type Metrics struct {
	NetworkScans *telemetry.Counter
	HostScans    *telemetry.Counter
	// SketchDecays counts register-generation rotations (the sketch
	// backend's analogue of ring eviction).
	SketchDecays *telemetry.Counter
	// SketchOverflows counts suspect flows that could not open a new
	// register because a register table was at MaxRegisters and held no
	// stale entries to reclaim.
	SketchOverflows *telemetry.Counter
}

// NewMetrics registers the scan counters on r.
func NewMetrics(r *telemetry.Registry) *Metrics {
	return &Metrics{
		NetworkScans:    r.Counter("infilter_scan_network_trips_total", "Suspect flows that tripped the network-scan threshold."),
		HostScans:       r.Counter("infilter_scan_host_trips_total", "Suspect flows that tripped the host-scan threshold."),
		SketchDecays:    r.Counter("infilter_sketch_decays_total", "Scan-sketch register generation rotations."),
		SketchOverflows: r.Counter("infilter_sketch_register_overflows_total", "Suspect flows dropped from sketch counting because a register table was full."),
	}
}

// Config tunes the analyzer. Zero values take the paper's settings.
type Config struct {
	// BufferSize bounds the suspect-flow ring of the exact backend and
	// sets the default decay window of the sketch backend. Zero defaults
	// to 200, the size used in the paper's experiments.
	BufferSize int
	// NetworkScanThreshold flags a network scan when one destination port
	// is targeted on at least this many distinct hosts. Zero defaults
	// to 10.
	NetworkScanThreshold int
	// HostScanThreshold flags a host scan when one host is targeted on at
	// least this many distinct ports. Zero defaults to 10.
	HostScanThreshold int
	// ExactBuffer selects the paper's bounded ring buffer instead of the
	// streaming-sketch backend. The ring counts exactly but saturates at
	// BufferSize suspects; it is kept as the small-N oracle the sketch
	// backend is verified against.
	ExactBuffer bool
	// SketchK is the KMV register size of the sketch backend. Zero
	// defaults to sketch.DefaultK (256); larger k tightens estimates at
	// the cost of memory. Ignored under ExactBuffer.
	SketchK int
	// MaxRegisters bounds each register table (per-port and per-host) of
	// the sketch backend. Zero defaults to 65536. Ignored under
	// ExactBuffer.
	MaxRegisters int
	// DecayEvery is the sketch backend's decay window: after this many
	// buffered suspects every register rotates one generation, and a
	// register idle for two generations is dropped, so distinct counts
	// cover the last one-to-two windows of suspects. Zero defaults to
	// BufferSize, aligning the sketch's memory horizon with the ring the
	// oracle keeps. Ignored under ExactBuffer.
	DecayEvery int
}

// Defaults for Config.
const (
	DefaultBufferSize           = 200
	DefaultNetworkScanThreshold = 10
	DefaultHostScanThreshold    = 10
	DefaultMaxRegisters         = 65536
)

func (c Config) withDefaults() Config {
	if c.BufferSize <= 0 {
		c.BufferSize = DefaultBufferSize
	}
	if c.NetworkScanThreshold <= 0 {
		c.NetworkScanThreshold = DefaultNetworkScanThreshold
	}
	if c.HostScanThreshold <= 0 {
		c.HostScanThreshold = DefaultHostScanThreshold
	}
	if c.SketchK <= 0 {
		c.SketchK = sketch.DefaultK
	}
	if c.MaxRegisters <= 0 {
		c.MaxRegisters = DefaultMaxRegisters
	}
	if c.DecayEvery <= 0 {
		c.DecayEvery = c.BufferSize
	}
	return c
}

// Result reports what the analyzer concluded about one suspect flow.
type Result struct {
	// Buffered is set when the flow was probe-like and entered the
	// counting window.
	Buffered bool
	// NetworkScan is set when the flow's destination port crossed the
	// distinct-host threshold.
	NetworkScan bool
	// HostScan is set when the flow's destination host crossed the
	// distinct-port threshold.
	HostScan bool
}

// Attack reports whether either scan counter fired.
func (r Result) Attack() bool { return r.NetworkScan || r.HostScan }

type portHost struct {
	port uint16
	host netaddr.Addr
}

type bufEntry struct {
	port uint16
	host netaddr.Addr
}

// Analyzer runs scan analysis over a suspect stream with one of the two
// counting backends. Not safe for concurrent use: callers that process
// flows in parallel give each worker its own Analyzer, as
// analysis.ParallelEngine does with one per shard (the stream then sees
// only that shard's peers, which preserves detection since scans arrive
// through a single ingress).
type Analyzer struct {
	cfg     Config
	metrics *Metrics

	// Exact ring-buffer oracle (cfg.ExactBuffer).
	ring []bufEntry
	next int
	full bool
	// pairCount tracks duplicate (port,host) pairs inside the buffer so
	// distinct counts stay exact under eviction.
	pairCount map[portHost]int
	// hostsPerPort counts distinct hosts targeted per destination port.
	hostsPerPort map[uint16]int
	// portsPerHost counts distinct ports targeted per destination host.
	portsPerHost map[netaddr.Addr]int

	// Streaming-sketch backend (the default).
	portRegs map[uint16]*register
	hostRegs map[netaddr.Addr]*register
	gen      uint64
	// sinceRotate counts buffered suspects in the current generation;
	// it doubles as the sketch backend's Buffered() answer.
	sinceRotate int
}

// New returns an empty analyzer.
func New(cfg Config) *Analyzer {
	cfg = cfg.withDefaults()
	a := &Analyzer{cfg: cfg}
	if cfg.ExactBuffer {
		a.ring = make([]bufEntry, cfg.BufferSize)
		a.pairCount = make(map[portHost]int)
		a.hostsPerPort = make(map[uint16]int)
		a.portsPerHost = make(map[netaddr.Addr]int)
	} else {
		a.portRegs = make(map[uint16]*register)
		a.hostRegs = make(map[netaddr.Addr]*register)
	}
	return a
}

// probeLike reports whether a flow has the shape of a scan probe: one or
// two packets (a single worm datagram, a bare SYN, a fragment pair).
// Established multi-packet flows never look like probes and are kept out
// of the counting window so benign suspects cannot saturate the counters.
func probeLike(r flow.Record) bool {
	return r.Packets <= 2
}

// Add considers one suspect flow; probe-like flows enter the counting
// window and the result reports whether a scan threshold fired.
func (a *Analyzer) Add(rec flow.Record) Result {
	if !probeLike(rec) {
		return Result{}
	}
	var res Result
	if a.cfg.ExactBuffer {
		res = a.addExact(rec)
	} else {
		res = a.addSketch(rec)
	}
	if m := a.metrics; m != nil {
		if res.NetworkScan {
			m.NetworkScans.Inc()
		}
		if res.HostScan {
			m.HostScans.Inc()
		}
	}
	return res
}

func (a *Analyzer) addExact(rec flow.Record) Result {
	if a.full {
		a.evict(a.ring[a.next])
	}
	e := bufEntry{port: rec.Key.DstPort, host: rec.Key.Dst}
	a.ring[a.next] = e
	a.next++
	if a.next == len(a.ring) {
		a.next = 0
		a.full = true
	}
	a.admit(e)

	return Result{
		Buffered:    true,
		NetworkScan: a.hostsPerPort[e.port] >= a.cfg.NetworkScanThreshold,
		HostScan:    a.portsPerHost[e.host] >= a.cfg.HostScanThreshold,
	}
}

// SetMetrics installs trip counters (nil disables). Call it before the
// analyzer's owner starts feeding it flows.
func (a *Analyzer) SetMetrics(m *Metrics) { a.metrics = m }

func (a *Analyzer) admit(e bufEntry) {
	ph := portHost{port: e.port, host: e.host}
	a.pairCount[ph]++
	if a.pairCount[ph] == 1 {
		a.hostsPerPort[e.port]++
		a.portsPerHost[e.host]++
	}
}

func (a *Analyzer) evict(e bufEntry) {
	ph := portHost{port: e.port, host: e.host}
	a.pairCount[ph]--
	if a.pairCount[ph] == 0 {
		delete(a.pairCount, ph)
		a.hostsPerPort[e.port]--
		if a.hostsPerPort[e.port] == 0 {
			delete(a.hostsPerPort, e.port)
		}
		a.portsPerHost[e.host]--
		if a.portsPerHost[e.host] == 0 {
			delete(a.portsPerHost, e.host)
		}
	}
}

// Buffered returns the number of flows in the current counting window:
// the ring fill level under ExactBuffer, the suspects buffered since
// the last generation rotation otherwise.
func (a *Analyzer) Buffered() int {
	if a.cfg.ExactBuffer {
		if a.full {
			return len(a.ring)
		}
		return a.next
	}
	return a.sinceRotate
}

// HostsOnPort exposes the distinct-host count for a destination port
// (estimated under the sketch backend, exact while below SketchK).
func (a *Analyzer) HostsOnPort(port uint16) int {
	if a.cfg.ExactBuffer {
		return a.hostsPerPort[port]
	}
	return int(a.regEstimate(a.portRegs[port]) + 0.5)
}

// PortsOnHost exposes the distinct-port count for a destination host
// (estimated under the sketch backend, exact while below SketchK).
func (a *Analyzer) PortsOnHost(host netaddr.Addr) int {
	if a.cfg.ExactBuffer {
		return a.portsPerHost[host]
	}
	return int(a.regEstimate(a.hostRegs[host]) + 0.5)
}

// Reset clears all counting state — both backends and the window
// position — leaving the analyzer as freshly constructed.
func (a *Analyzer) Reset() {
	if a.cfg.ExactBuffer {
		a.next = 0
		a.full = false
		clear(a.ring)
		clear(a.pairCount)
		clear(a.hostsPerPort)
		clear(a.portsPerHost)
		return
	}
	clear(a.portRegs)
	clear(a.hostRegs)
	a.gen = 0
	a.sinceRotate = 0
}

// sketchKey folds an address into the 64-bit key space of the KMV
// registers. A v4 address keys as its 32-bit value; v6 mixes both words
// (a collision only inflates a distinct-count estimate, which is the
// sketch's contract anyway).
func sketchKey(src netaddr.Addr) uint64 {
	if v4, ok := src.V4(); ok {
		return uint64(v4)
	}
	hi, lo := src.Uint64Pair()
	return hi*0x9e3779b97f4a7c15 ^ lo
}
