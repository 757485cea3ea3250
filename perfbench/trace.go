package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/exp"
	"repro/internal/isa"
	"repro/internal/obs"
)

// tracer keeps a traced pass's spans in memory; write saves them at the end.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.t0) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// spanKey names a span by its ID and name, the way its children refer to it.
type spanKey struct {
	ID   int
	Name string
}

// children indexes the spans by their parent.
func (t *tracer) children() map[spanKey][]span {
	idx := map[spanKey][]span{}
	for _, s := range t.spans {
		if s.Parent != "" {
			k := spanKey{s.ID, s.Parent}
			idx[k] = append(idx[k], s)
		}
	}
	return idx
}

// write saves the spans as Chrome trace-event JSON (loadable in Perfetto),
// one row per worker or client.
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		evs = append(evs, event{
			Name: s.Name, Ph: "X", Pid: 1, Tid: s.Lane,
			Ts:   float64(s.Start) / 1e3,
			Dur:  float64(s.dur()) / 1e3,
			Args: map[string]any{"id": s.ID, "parent": s.Parent},
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// cycleTally adds up, over a traced pass, the simulated cycles of the
// session's phase spans and the cycles each fast-path engine reports in
// its obs histograms.
type cycleTally struct {
	probe, verify, measure, other uint64
	verifyRuns                    uint64
	idle, spin, block, stride     uint64
	blockRuns, strides            uint64
}

func (t *cycleTally) addEvents(evs []obs.Event) {
	for _, ev := range evs {
		if ev.Kind != obs.KindPhase {
			continue
		}
		switch {
		case strings.HasPrefix(ev.Label, "probe "):
			t.probe += ev.Dur
		case strings.HasPrefix(ev.Label, "verify "):
			t.verify += ev.Dur
			t.verifyRuns++
		case strings.HasPrefix(ev.Label, "measure "):
			t.measure += ev.Dur
		default:
			t.other += ev.Dur
		}
	}
}

func (t *cycleTally) addRegistry(reg *obs.Registry) {
	sum := func(name string) (uint64, uint64) {
		h, _ := reg.Histogram(name)
		return h.Sum, h.Count
	}
	c, _ := sum("engine.idle_leap_cycles")
	t.idle += c
	c, _ = sum("engine.spin_leap_cycles")
	t.spin += c
	c, n := sum("engine.block_stride_cycles.c1")
	t.block += c
	t.blockRuns += n
	for cores := 2; cores <= isa.MaxCores; cores++ {
		c, n := sum(fmt.Sprintf("engine.block_stride_cycles.c%d", cores))
		t.stride += c
		t.strides += n
	}
}

func (t *cycleTally) partition() cyclePartition {
	return cyclePartition{
		Sim:  t.probe + t.verify + t.measure + t.other,
		Idle: t.idle, Spin: t.spin, Block: t.block, Stride: t.stride,
	}
}

// crossCheck compares the engine cycles seen through the obs sink with the
// session's own counters. They count the same work by different routes, so
// a difference means some simulation ran unobserved and the partition
// would not describe the whole pass.
func (t *cycleTally) crossCheck(st exp.SessionStats) error {
	for _, c := range []struct {
		name      string
		obs, sess uint64
	}{
		{"idle cycles", t.idle, st.FFSkippedCycles},
		{"spin cycles", t.spin, st.SpinSkippedCycles},
		{"block cycles", t.block, st.BlockCycles},
		{"block runs", t.blockRuns, st.BlockRuns},
		{"stride cycles", t.stride, st.BlockMCCycles},
		{"strides", t.strides, st.BlockMCStrides},
	} {
		if c.obs != c.sess {
			return fmt.Errorf("%s: obs histograms report %d, session stats %d", c.name, c.obs, c.sess)
		}
	}
	return nil
}

// publish records the platform layer's cycle partition and the exp layer's
// phase cycles. simHost is the host time spent inside solve and measure
// calls, the time those cycles cost.
func (t *cycleTally) publish(l layerMetrics, simHost time.Duration) error {
	p := t.partition()
	stepped, err := p.stepped()
	if err != nil {
		return err
	}
	l.mcycles("platform.sim_mcycles", p.Sim)
	l.mcycles("platform.stepped_mcycles", stepped)
	l.mcycles("platform.idle_mcycles", p.Idle)
	l.mcycles("platform.spin_mcycles", p.Spin)
	l.mcycles("platform.block_mcycles", p.Block)
	l.mcycles("platform.stride_mcycles", p.Stride)
	l.frac("platform.stepped_frac", float64(stepped), float64(p.Sim))
	l.ratio("platform.cycles_per_block_run", "cycles", float64(p.Block), float64(t.blockRuns))
	l.ratio("platform.cycles_per_stride", "cycles", float64(p.Stride), float64(t.strides))
	l.ratio("platform.ns_per_cycle", "ns/cycle", float64(simHost.Nanoseconds()), float64(p.Sim))
	l.mcycles("exp.probe_mcycles", t.probe)
	l.mcycles("exp.verify_mcycles", t.verify)
	l.mcycles("exp.measure_mcycles", t.measure)
	l.count("exp.verify_runs", t.verifyRuns)
	return nil
}

// ringReader turns repeated snapshots of one timeline ring into the events
// appended between them. The ring drops its oldest events when full, so a
// snapshot is a suffix of the previous one followed by the new events.
type ringReader struct {
	cap  int
	last []obs.Event
}

func (r *ringReader) next(snap []obs.Event) ([]obs.Event, error) {
	prev := r.last
	r.last = snap
	if len(prev) == 0 {
		if len(snap) >= r.cap {
			return nil, fmt.Errorf("timeline ring filled before its first snapshot")
		}
		return snap, nil
	}
	for d := range prev {
		n := len(prev) - d
		if n <= len(snap) && prev[d] == snap[0] && slices.Equal(prev[d:], snap[:n]) {
			return snap[n:], nil
		}
	}
	return nil, fmt.Errorf("timeline ring overflowed between snapshots")
}
