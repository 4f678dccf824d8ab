package scan

import (
	"math/rand"
	"testing"

	"infilter/internal/flow"
	"infilter/internal/netaddr"
)

// randomSuspect draws a probe-like suspect from a small universe of
// hosts and ports so duplicate (port,host) pairs occur.
func randomSuspect(rng *rand.Rand, hosts, ports int) flow.Record {
	return suspect(
		netaddr.AddrFrom4(10, 0, byte(rng.Intn(hosts)/256), byte(rng.Intn(hosts)%256)).String(),
		uint16(1+rng.Intn(ports)),
	)
}

// TestSketchMatchesExactOracleSmallN drives both backends with the same
// suspect streams, short enough to fit the oracle's ring, and demands
// identical per-flow results — the package-level half of the
// equivalence suite (internal/analysis runs the engine-level half).
func TestSketchMatchesExactOracleSmallN(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		cfg := Config{
			BufferSize:           200,
			NetworkScanThreshold: 2 + rng.Intn(10),
			HostScanThreshold:    2 + rng.Intn(10),
		}
		exact := New(Config{BufferSize: cfg.BufferSize, NetworkScanThreshold: cfg.NetworkScanThreshold,
			HostScanThreshold: cfg.HostScanThreshold, ExactBuffer: true})
		sk := New(cfg)
		n := 1 + rng.Intn(cfg.BufferSize) // never exceeds the ring
		for i := 0; i < n; i++ {
			rec := randomSuspect(rng, 40, 30)
			if rng.Intn(5) == 0 {
				rec.Packets = 10 // established flows bypass both backends
			}
			re, rs := exact.Add(rec), sk.Add(rec)
			if re != rs {
				t.Fatalf("trial %d flow %d: exact=%+v sketch=%+v", trial, i, re, rs)
			}
		}
		// Distinct counts agree too while below k.
		for port := uint16(1); port <= 30; port++ {
			if exact.HostsOnPort(port) != sk.HostsOnPort(port) {
				t.Fatalf("trial %d: HostsOnPort(%d): exact=%d sketch=%d",
					trial, port, exact.HostsOnPort(port), sk.HostsOnPort(port))
			}
		}
	}
}

// TestSketchDetectsBeyondRingCapacity is the point of the rework: a
// network scan spread across far more suspects than the ring holds
// still trips, where the ring's 200-entry window forgets early probes.
func TestSketchDetectsBeyondRingCapacity(t *testing.T) {
	cfg := Config{NetworkScanThreshold: 1000, DecayEvery: 1 << 20}
	a := New(cfg)
	fired := false
	for i := 0; i < 4096 && !fired; i++ {
		dst := netaddr.AddrFrom4(192, 0, byte(i>>8), byte(i))
		fired = a.Add(suspect(dst.String(), 1434)).NetworkScan
	}
	if !fired {
		t.Fatal("sketch backend never tripped a 1000-host scan")
	}
	ring := New(Config{NetworkScanThreshold: 1000, ExactBuffer: true})
	for i := 0; i < 4096; i++ {
		dst := netaddr.AddrFrom4(192, 0, byte(i>>8), byte(i))
		if ring.Add(suspect(dst.String(), 1434)).NetworkScan {
			t.Fatal("ring oracle tripped a threshold above its own capacity — saturation contract changed")
		}
	}
}

// TestSketchDecayForgets checks the generation rotation: distinct
// counts age out after the register sits idle for two windows.
func TestSketchDecayForgets(t *testing.T) {
	a := New(Config{DecayEvery: 8, NetworkScanThreshold: 100})
	for i := 0; i < 8; i++ {
		a.Add(suspect(netaddr.AddrFrom4(192, 0, 2, byte(i+1)).String(), 9))
	}
	if got := a.HostsOnPort(9); got != 8 {
		t.Fatalf("HostsOnPort(9) = %d before decay", got)
	}
	// The 8th add above rotated to generation 1; while the next window
	// fills, port 9's register is one generation old — still within the
	// two-generation horizon.
	for i := 0; i < 7; i++ {
		a.Add(suspect(netaddr.AddrFrom4(10, 0, 0, byte(i+1)).String(), uint16(5000+i)))
	}
	if got := a.HostsOnPort(9); got != 8 {
		t.Fatalf("HostsOnPort(9) = %d one idle window later, want 8", got)
	}
	// Two more rotations push the idle register out entirely.
	for i := 0; i < 17; i++ {
		a.Add(suspect(netaddr.AddrFrom4(10, 0, 1, byte(i+1)).String(), uint16(6000+i)))
	}
	if got := a.HostsOnPort(9); got != 0 {
		t.Fatalf("HostsOnPort(9) = %d after two idle windows, want 0", got)
	}
}

// TestSketchRegisterCapOverflow: at MaxRegisters with nothing stale to
// reclaim, new ports are not admitted (and existing counting still
// works) instead of growing without bound.
func TestSketchRegisterCapOverflow(t *testing.T) {
	a := New(Config{MaxRegisters: 4, DecayEvery: 1 << 20, NetworkScanThreshold: 3})
	for port := uint16(1); port <= 4; port++ {
		a.Add(suspect("192.0.2.1", port))
	}
	a.Add(suspect("192.0.2.1", 999)) // fifth port register: over cap
	if len(a.portRegs) > 4 {
		t.Fatalf("port registers grew past cap: %d", len(a.portRegs))
	}
	if a.HostsOnPort(999) != 0 {
		t.Error("over-cap port acquired a register")
	}
	// Established registers keep counting.
	for i := 0; i < 3; i++ {
		r := a.Add(suspect(netaddr.AddrFrom4(192, 0, 2, byte(10+i)).String(), 1))
		if i == 2 && !r.NetworkScan {
			t.Error("existing register stopped tripping after overflow")
		}
	}
}

// TestResetConsistency: Reset on either backend clears every counter,
// not just the subset the old test-only paths happened to touch.
func TestResetConsistency(t *testing.T) {
	for _, exact := range []bool{false, true} {
		a := New(Config{ExactBuffer: exact})
		for i := 0; i < 150; i++ {
			a.Add(suspect(netaddr.AddrFrom4(192, 0, 2, byte(i)).String(), uint16(1000+i%7)))
		}
		a.Reset()
		if a.Buffered() != 0 {
			t.Errorf("exact=%v: Buffered=%d after Reset", exact, a.Buffered())
		}
		for p := uint16(1000); p < 1007; p++ {
			if a.HostsOnPort(p) != 0 {
				t.Errorf("exact=%v: HostsOnPort(%d)=%d after Reset", exact, p, a.HostsOnPort(p))
			}
		}
		if a.PortsOnHost(netaddr.AddrFrom4(192, 0, 2, 5)) != 0 {
			t.Errorf("exact=%v: PortsOnHost nonzero after Reset", exact)
		}
		if exact {
			for _, e := range a.ring {
				if e != (bufEntry{}) {
					t.Errorf("ring retains stale entries after Reset")
					break
				}
			}
			if len(a.pairCount) != 0 {
				t.Errorf("pairCount retains %d entries after Reset", len(a.pairCount))
			}
		} else if len(a.portRegs) != 0 || len(a.hostRegs) != 0 || a.gen != 0 {
			t.Errorf("sketch state survives Reset: %d/%d regs gen=%d",
				len(a.portRegs), len(a.hostRegs), a.gen)
		}
		// Usable and quiet right after reset.
		if r := a.Add(suspect("192.0.2.1", 1434)); r.Attack() {
			t.Errorf("exact=%v: attack flagged immediately after Reset", exact)
		}
	}

}
