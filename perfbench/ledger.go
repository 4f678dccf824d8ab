package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// ledgerRow is one layer's share of the daemon's CPU per record.
type ledgerRow struct {
	layer   string
	nsRec   float64 // ns per record that reached the layer
	share   float64 // records reaching the layer per record ingested
	weighed float64 // nsRec × share: the layer's ns per ingested record
}

// ledger explains cpu_ns_per_rec layer by layer.
type ledger struct {
	rows        []ledgerRow
	explained   float64
	cpuNSPerRec float64
}

func (l ledger) unexplained() float64 { return l.cpuNSPerRec - l.explained }

func (l *ledger) add(layer string, nsRec, share float64) {
	row := ledgerRow{layer: layer, nsRec: nsRec, share: share, weighed: nsRec * share}
	l.rows = append(l.rows, row)
	l.explained += row.weighed
}

func (l ledger) write(w io.Writer, workload string) {
	fmt.Fprintf(w, "ledger %s (ns per ingested record; cpu_ns_per_rec from the untraced daemon run)\n", workload)
	fmt.Fprintf(w, "  %-22s %12s %10s %12s %7s\n", "layer", "ns/rec", "share", "weighted", "of cpu")
	for _, r := range l.rows {
		fmt.Fprintf(w, "  %-22s %12.1f %10.4f %12.1f %6.1f%%\n", r.layer, r.nsRec, r.share, r.weighed, 100*r.weighed/l.cpuNSPerRec)
	}
	fmt.Fprintf(w, "  %-22s %12s %10s %12.1f %6.1f%%\n", "explained", "", "", l.explained, 100*l.explained/l.cpuNSPerRec)
	fmt.Fprintf(w, "  %-22s %12s %10s %12.1f %6.1f%%\n", "unexplained", "", "", l.unexplained(), 100*l.unexplained()/l.cpuNSPerRec)
	fmt.Fprintf(w, "  %-22s %12s %10s %12.1f\n", "cpu_ns_per_rec", "", "", l.cpuNSPerRec)
}

// benchRow is one row of a committed BENCH_*.json go-test baseline.
type benchRow struct {
	Name    string  `json:"name"`
	NsPerOp float64 `json:"ns_per_op"`
	Allocs  float64 `json:"allocs_per_op"`
}

// crossCheck compares the traced layer costs with the matching rows of a
// committed go-test baseline (BENCH_PR10.json at the repository root):
// decode rows time one 30-record datagram per op, scan rows one suspect.
// The baseline was taken on another machine, so this prints ratios; it
// gates nothing.
func crossCheck(w io.Writer, path string, version uint16, decodeNS, decodeAllocs, scanNS, scanAllocs float64) {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(w, "cross-check: %v\n", err)
		return
	}
	var doc struct {
		Results []benchRow `json:"results"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		fmt.Fprintf(w, "cross-check: %s: %v\n", path, err)
		return
	}
	decodeRow := map[uint16]string{5: "BenchmarkDecodeV5Batch", 9: "BenchmarkDecodeV9Batch", 10: "BenchmarkDecodeIPFIXBatch"}[version]
	for _, r := range doc.Results {
		switch {
		case r.Name == decodeRow:
			per := r.NsPerOp / 30
			fmt.Fprintf(w, "cross-check %-34s %8.1f ns/rec (go test) vs %8.1f traced (x%.2f); allocs/dgram %.0f vs %.2f\n",
				r.Name, per, decodeNS, decodeNS/per, r.Allocs, decodeAllocs)
		case strings.HasPrefix(r.Name, "BenchmarkScanSuspect/sketch-10x"):
			fmt.Fprintf(w, "cross-check %-34s %8.1f ns/add (go test) vs %8.1f traced (x%.2f); allocs/add %.0f vs %.2f\n",
				r.Name, r.NsPerOp, scanNS, scanNS/r.NsPerOp, r.Allocs, scanAllocs)
		}
	}
}
