package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail percentile.
// With fewer, the percentile is one or two unlucky samples, not a tail.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs:
// the smallest sample with at least p% of the samples at or below it. xs
// need not be sorted; it is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest-rank position of the p-th percentile among n
// samples. The epsilon keeps 99.9% of 1000 at rank 999 despite p/100*n
// rounding up to 999.0000000000001.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// median is the middle sample, or the mean of the two middle samples of an
// even count, so that a run of two passes reports neither its faster nor
// its slower pass.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	return (s[(n-1)/2] + s[n/2]) / 2
}

// tailPercentile picks the highest of the percentiles 50, 90, 99, 99.9, ...
// that leaves at least minBeyond of n samples above it, and returns it with
// its label ("p99"). ok is false when not even the median qualifies.
func tailPercentile(n int) (p float64, label string, ok bool) {
	for _, c := range []struct {
		p     float64
		label string
	}{{99.99, "p99.99"}, {99.9, "p99.9"}, {99, "p99"}, {90, "p90"}, {50, "p50"}} {
		if n-rank(n, c.p) >= minBeyond {
			return c.p, c.label, true
		}
	}
	return 0, "", false
}

// span is one timed interval recorded by the benchmark around a call into
// the program. Spans of one cell or request share an ID; a child names its
// parent.
type span struct {
	ID     int
	Name   string
	Parent string
	Lane   int // worker or client that ran it
	Start  time.Duration
	End    time.Duration
}

func (s span) dur() time.Duration { return s.End - s.Start }

// selfTime is a span's duration minus the part of it covered by its
// children. Overlapping children count once; parts of a child outside the
// parent do not count.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			covered += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		covered += cur.b - cur.a
	}
	return parent.dur() - covered
}

// cyclePartition splits every simulated cycle by the engine that executed
// it. Sim is the sum of the session's phase spans (probe, verify, measure);
// the fast-path engines report their own cycles; whatever they did not
// cover was stepped.
type cyclePartition struct {
	Sim, Idle, Spin, Block, Stride uint64
}

// stepped returns the cycles no fast path covered. An error means the
// engines claim more cycles than the phases simulated, so some simulation
// ran outside a phase span and the partition cannot close.
func (c cyclePartition) stepped() (uint64, error) {
	fast := c.Idle + c.Spin + c.Block + c.Stride
	if fast > c.Sim {
		return 0, fmt.Errorf("engine cycles %d exceed phase cycles %d", fast, c.Sim)
	}
	return c.Sim - fast, nil
}
