package main

import (
	"encoding/json"
	"errors"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n     int
		label string
	}{
		{100000, "p99.99"}, // exactly ten samples beyond
		{99999, "p99.9"},
		{20000, "p99.9"}, // the serve workload's repeat solves
		{9000, "p99"},
		{1000, "p99"},
		{999, "p90"}, // p99 would leave nine
		{100, "p90"},
		{99, "p50"},
		{20, "p50"},
		{19, ""},
		{0, ""},
	} {
		p, label, ok := tailPercentile(c.n)
		if label != c.label || ok != (c.label != "") {
			t.Errorf("n=%d: got %q (ok=%v), want %q", c.n, label, ok, c.label)
			continue
		}
		if ok {
			if beyond := c.n - rank(c.n, p); beyond < minBeyond {
				t.Errorf("n=%d: %s leaves %d samples beyond it", c.n, label, beyond)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {10, 1}, {100, 10}, {1, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
}

func TestSelfTime(t *testing.T) {
	ms := func(a, b int) span {
		return span{Start: time.Duration(a) * time.Millisecond, End: time.Duration(b) * time.Millisecond}
	}
	parent := ms(0, 10)
	for _, c := range []struct {
		name     string
		children []span
		want     int
	}{
		{"no children", nil, 10},
		{"disjoint", []span{ms(1, 3), ms(5, 6)}, 7},
		{"overlapping children count once", []span{ms(1, 3), ms(2, 5)}, 6},
		{"nested", []span{ms(1, 9), ms(2, 3)}, 2},
		{"clipped to the parent", []span{ms(-5, 1), ms(8, 12)}, 7},
		{"outside the parent", []span{ms(12, 15)}, 10},
		{"covering", []span{ms(0, 10)}, 0},
	} {
		if got := selfTime(parent, c.children); got != time.Duration(c.want)*time.Millisecond {
			t.Errorf("%s: self time %v, want %dms", c.name, got, c.want)
		}
	}
}

// TestCyclePartitionCloses pins that stepped, idle, spin, block and stride
// cycles add up to the simulated cycles exactly, also as printed.
func TestCyclePartitionCloses(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		p := cyclePartition{
			Idle: rng.Uint64() >> 20, Spin: rng.Uint64() >> 30,
			Block: rng.Uint64() >> 25, Stride: rng.Uint64() >> 28,
		}
		stepped := rng.Uint64() >> 22
		p.Sim = stepped + p.Idle + p.Spin + p.Block + p.Stride
		got, err := p.stepped()
		if err != nil || got != stepped {
			t.Fatalf("%+v: stepped %d, %v; want %d", p, got, err, stepped)
		}

		// The printed Mcycles values sum digit for digit.
		l := layerMetrics{}
		var sum int64
		for name, c := range map[string]uint64{"stepped": stepped, "idle": p.Idle, "spin": p.Spin, "block": p.Block, "stride": p.Stride} {
			l.mcycles(name, c)
			sum += decimalMicros(t, l[name])
		}
		l.mcycles("sim", p.Sim)
		if want := decimalMicros(t, l["sim"]); sum != want {
			t.Fatalf("%+v: printed parts sum to %d, printed sim is %d", p, sum, want)
		}
	}
	if _, err := (cyclePartition{Sim: 10, Idle: 6, Block: 5}).stepped(); err == nil {
		t.Error("engine cycles beyond the phase cycles must not close")
	}
}

// decimalMicros reads a printed Mcycles value back as an integer number of
// cycles, without floating point.
func decimalMicros(t *testing.T, v value) int64 {
	t.Helper()
	s := string(v.json().Value)
	whole, frac, ok := strings.Cut(s, ".")
	if !ok || len(frac) != 6 {
		t.Fatalf("Mcycles value %q does not have six decimals", s)
	}
	var n int64
	for _, r := range whole + frac {
		n = n*10 + int64(r-'0')
	}
	return n
}

func TestCycleTally(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Observe("engine.idle_leap_cycles", 700)
	reg.Observe("engine.spin_leap_cycles", 50)
	reg.Observe("engine.block_stride_cycles.c1", 20)
	reg.Observe("engine.block_stride_cycles.c1", 10)
	reg.Observe("engine.block_stride_cycles.c3", 9)
	reg.Observe("engine.block_stride_cycles.c8", 3)
	var tally cycleTally
	tally.addRegistry(reg)
	tally.addEvents([]obs.Event{
		{Kind: obs.KindPhase, Dur: 400, Label: "probe 3l-mf/MC"},
		{Kind: obs.KindPhase, Dur: 200, Label: "verify 3l-mf/MC @1.00MHz"},
		{Kind: obs.KindPhase, Dur: 150, Label: "verify 3l-mf/MC @1.20MHz"},
		{Kind: obs.KindPhase, Dur: 250, Label: "measure 3l-mf/MC (warm)"},
		{Kind: obs.KindIdleLeap, Dur: 700},
	})
	p := tally.partition()
	want := cyclePartition{Sim: 1000, Idle: 700, Spin: 50, Block: 30, Stride: 12}
	if p != want {
		t.Fatalf("partition %+v, want %+v", p, want)
	}
	if tally.verifyRuns != 2 || tally.blockRuns != 2 || tally.strides != 2 {
		t.Errorf("verify runs %d, block runs %d, strides %d; want 2, 2, 2", tally.verifyRuns, tally.blockRuns, tally.strides)
	}
	l := layerMetrics{}
	if err := tally.publish(l, time.Microsecond); err != nil {
		t.Fatal(err)
	}
	if got := l["platform.stepped_mcycles"].V; got != 208e-6 {
		t.Errorf("stepped = %v Mcycles, want 208e-6", got)
	}
	if got := l["platform.ns_per_cycle"].V; got != 1 {
		t.Errorf("ns per cycle = %v, want 1", got)
	}
}

func TestRingReader(t *testing.T) {
	const capacity = 8
	tl := obs.NewTimeline(capacity)
	sink := obs.NewSink(tl, nil)
	next := uint64(0)
	emit := func(n int) {
		for i := 0; i < n; i++ {
			sink.Instant(obs.KindADCSample, obs.TrackADC, 0, next, 0, 0)
			next++
		}
	}
	r := ringReader{cap: capacity}
	var seen uint64
	for _, n := range []int{3, 0, 4, 5, 7, 1} { // wraps the ring several times
		emit(n)
		evs, err := r.next(sink.Events())
		if err != nil {
			t.Fatalf("after %d new events: %v", n, err)
		}
		for _, ev := range evs {
			if ev.Cycle != seen {
				t.Fatalf("got event %d, want %d", ev.Cycle, seen)
			}
			seen++
		}
	}
	if seen != next {
		t.Fatalf("read %d events, emitted %d", seen, next)
	}
	emit(capacity) // nothing of the previous snapshot survives
	if _, err := r.next(sink.Events()); err == nil {
		t.Error("an overflow between snapshots must be reported")
	}
}

// TestRepeats pins the check that a later pass repeats the first pass's
// outputs: same results and errors, same operations.
func TestRepeats(t *testing.T) {
	pass := func(outs map[string]string) *passResult {
		pr := newPassResult()
		for k, v := range outs {
			if strings.HasPrefix(v, "!") {
				pr.output(k, nil, errors.New(v[1:]))
			} else {
				pr.output(k, []byte(v), nil)
			}
		}
		return pr
	}
	first := pass(map[string]string{"a": "row a", "b": "!2 ADC overruns"})
	for _, c := range []struct {
		outs map[string]string
		same bool
	}{
		{map[string]string{"a": "row a", "b": "!2 ADC overruns"}, true},
		{map[string]string{"a": "row a", "b": "!3 ADC overruns"}, false},
		{map[string]string{"a": "row a", "b": "2 ADC overruns"}, false}, // a result where the first pass failed
		{map[string]string{"a": "row a"}, false},
		{map[string]string{"a": "row a", "c": "!2 ADC overruns"}, false},
	} {
		if d := pass(c.outs).repeats(first); (d == "") != c.same {
			t.Errorf("%v: repeats = %q, want same = %v", c.outs, d, c.same)
		}
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the metric lists the program prints
// equal to the ones BENCHMARK.json declares.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		got, want []metricDef
	}{{"end_to_end", b.EndToEnd, endToEnd}, {"per_layer", b.PerLayer, perLayer}} {
		if len(c.got) != len(c.want) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the program prints %d", c.name, len(c.got), len(c.want))
		}
		for i := range c.want {
			if c.got[i] != c.want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program prints %+v", c.name, i, c.got[i], c.want[i])
			}
		}
	}
}
