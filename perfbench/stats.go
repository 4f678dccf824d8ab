package main

import (
	"math"
	"sort"
)

// tailPercentiles are the percentiles a tail is reported at, highest
// first.
var tailPercentiles = []float64{99.99, 99.9, 99, 90, 50}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// supportedPercentile returns the highest of tailPercentiles that has at
// least minBeyond of n samples beyond it, and false when none has.
func supportedPercentile(n int) (float64, bool) {
	for _, q := range tailPercentiles {
		if float64(n)*(100-q)/100 >= minBeyond-1e-9 {
			return q, true
		}
	}
	return 0, false
}

// percentile returns the nearest-rank q-th percentile of xs (which it
// sorts in place); NaN for an empty slice.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(q / 100 * float64(len(xs))))
	rank = max(1, min(rank, len(xs)))
	return xs[rank-1]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// lostFrac is the share of sent records the daemon never counted, with
// every canary unanswered by the deadline counted as lost as well.
func lostFrac(sent, received int64, unansweredCanaries int) float64 {
	if sent <= 0 {
		return 0
	}
	lost := sent - received
	if lost < 0 {
		lost = 0
	}
	return float64(lost+int64(unansweredCanaries)) / float64(sent)
}

// p99Window is the sample count of one p99 window: enough for ten
// samples beyond the 99th percentile.
const p99Window = 100 * minBeyond

// windowedP99 splits a latency series (in due order) into consecutive
// windows of at least p99Window samples and returns the median of their
// 99th percentiles, and those percentiles (none when the series is too
// short for one window). The median over windows keeps one stall — a GC
// cycle, a descheduled process — from deciding the whole run's tail.
func windowedP99(series []float64) (float64, []float64) {
	k := len(series) / p99Window
	if k == 0 {
		return math.NaN(), nil
	}
	size := len(series) / k
	p99s := make([]float64, k)
	for i := range p99s {
		w := append([]float64(nil), series[i*size:(i+1)*size]...)
		p99s[i] = percentile(w, 99)
	}
	return median(p99s), p99s
}

// quietSteal is the most host steal, in clock ticks per one-second
// window (0.15 CPU), at which a window still measures this program
// rather than the other guests sharing the machine.
const quietSteal = 15

// measuredWindows reports, for each window between consecutive
// cumulative steal samples, whether a metric is measured over it: the
// windows the host left quiet or, when fewer than three were quiet, the
// least-stolen half of them, so that a run inside a long stretch of host
// steal still measures its least-disturbed seconds rather than all.
func measuredWindows(steal []int64) []bool {
	n := len(steal) - 1
	if n <= 0 {
		return nil
	}
	out := make([]bool, n)
	order := make([]int, n)
	quiet := 0
	for i := range out {
		out[i] = steal[i+1]-steal[i] <= quietSteal
		if out[i] {
			quiet++
		}
		order[i] = i
	}
	if quiet >= 3 {
		return out
	}
	sort.SliceStable(order, func(a, b int) bool {
		return steal[order[a]+1]-steal[order[a]] < steal[order[b]+1]-steal[order[b]]
	})
	for _, i := range order[:(n+1)/2] {
		out[i] = true
	}
	return out
}

// cpuPerRecord returns the daemon's CPU ns per record sent as the mean of
// the middle half of the measured sampling windows' values (of all
// windows when fewer than three were measured): ticks and sent are cumulative
// samples. The last window, the drain after the final send, is left out.
// The interquartile mean resists stalls like a median but averages out
// the one-tick quantization of each window.
func cpuPerRecord(ticks, sent []int64, measured []bool) float64 {
	var all, kept []float64
	for i := 1; i < len(ticks)-1; i++ {
		n := sent[i] - sent[i-1]
		if n <= 0 {
			continue
		}
		v := float64(ticks[i]-ticks[i-1]) * float64(clockTick) / float64(n)
		all = append(all, v)
		if i-1 < len(measured) && measured[i-1] {
			kept = append(kept, v)
		}
	}
	if len(kept) < 3 {
		kept = all
	}
	return midMean(kept)
}

// midMean is the mean of the values between the first and third
// quartile (the interquartile mean); NaN for no values.
func midMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := len(s)/4, len(s)-len(s)/4
	sum := 0.0
	for _, v := range s[lo:hi] {
		sum += v
	}
	return sum / float64(hi-lo)
}
