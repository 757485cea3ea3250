// Idle fast-forward engine.
//
// The paper's workloads are idle-dominated: ECG arrives at a few hundred
// hertz while the platform clocks at megahertz, so on well over 99 % of
// simulated cycles every core is clock-gated waiting for the next sample.
// The cycle-accurate Step still costs a full Go iteration for each of those
// cycles. This engine detects quiescent stretches and leaps over them in
// O(1): when the previous stepped cycle did no work and no core can fetch,
// the platform can only change state at the next internally scheduled wake
// (a pending wake latency) or the next ADC sampling instant, so every cycle
// before that event is accounted in bulk and never simulated.
//
// The leap is semantically invisible by construction — each skipped cycle
// would have executed nothing, posted nothing, and recorded nothing:
//
//   - counters: Cycles plus CoreGated/CoreHalted per core are the only
//     counters an idle cycle touches (power.Counters.AddIdleCycles);
//   - crossbars: the rotating arbitration priority advances once per cycle
//     even when idle (Crossbar.AdvanceN keeps it in phase);
//   - synchronizer: Commit updates its cycle stamp every cycle, which wake
//     latencies are computed from (Synchronizer.FastForward);
//   - debug output and timeline events: nothing fires inside a quiescent
//     stretch, and a leap is gated on the previous cycle already being
//     idle, so the classification is constant across the skipped range;
//   - ADC: the leap never crosses NextEventCycle, where Tick is a no-op.
//
// The golden-equivalence suite (equiv_test.go) enforces bit-identical
// counters, timeline boundary events, debug streams and architectural state
// between this path and the exact one across all three benchmark
// applications.
package platform

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/obs"
)

// Run simulates up to n further cycles, stopping early when every core has
// halted or a fault occurs. Unless the platform is in exact mode, quiescent
// stretches are leapt over in bulk, while every stretch with a core at
// work — one core in straight-line code, or N ≥ 2 running cores, their bank
// conflicts arbitrated cycle by cycle and busy-waiting pollers parked —
// executes on the basic-block fast path (blockengine.go). Step simulates
// only the cycles no engine can reproduce: sync ISE, HALT, MMIO and faults.
// The observable behaviour is identical either way, and neither the
// chunking of a run into Run calls nor a mode switch between them changes
// it.
func (p *Platform) Run(n uint64) error {
	limit := p.cycle + n
	for p.cycle < limit {
		if !p.exact && p.lastCycleIdle {
			p.fastForward(limit)
			if p.cycle >= limit {
				return nil
			}
		}
		if !p.exact {
			// The block engine only ever executes cycles Step would have
			// executed identically, so it may run right up to the budget.
			p.blockRun(limit)
			if p.cycle >= limit {
				return nil
			}
		}
		if err := p.Step(); err != nil {
			return err
		}
		if p.AllHalted() {
			return nil
		}
	}
	return nil
}

// RunSeconds simulates the given wall-clock duration at the configured
// platform frequency. A negative or non-finite duration is an error and
// simulates nothing.
func (p *Platform) RunSeconds(s float64) error {
	if !(s >= 0 && s <= math.MaxFloat64) {
		return fmt.Errorf("platform: simulated duration %v s must be finite and non-negative", s)
	}
	return p.Run(secondsToCycles(s, p.cfg.ClockHz))
}

// secondsToCycles converts a simulated duration to a whole-cycle budget,
// rounding to the nearest cycle. Truncation would undercount budgets whose
// product is not exactly representable — 0.3 s at 1 MHz is
// 299999.99999999994 in float64 and must still be 300000 cycles.
func secondsToCycles(s, clockHz float64) uint64 {
	return uint64(math.Round(s * clockHz))
}

// fastForward leaps from the current cycle to just before the next cycle at
// which anything can happen, clamped to limit (the exclusive step budget),
// accounting the skipped cycles in bulk. Callers must have observed a fully
// idle stepped cycle (p.lastCycleIdle), which guarantees the skipped range
// is classification-stable and therefore event-silent.
func (p *Platform) fastForward(limit uint64) {
	// Run's exact semantics stop one step after full halt; never leap past
	// that point.
	if p.AllHalted() {
		return
	}
	// A core that can fetch on the very next cycle ends the quiescent
	// stretch immediately.
	if !p.sync.Quiescent(p.cycle + 1) {
		return
	}
	// The platform's only spontaneous events are wake-latency expiries and
	// ADC sampling instants; everything else is caused by executing cores.
	target := limit
	if w, ok := p.sync.NextWake(p.cycle); ok && w-1 < target {
		target = w - 1
	}
	if p.adc != nil {
		if s := p.adc.NextEventCycle(); s-1 < target {
			target = s - 1
		}
	}
	if target <= p.cycle {
		return
	}
	p.leap(target - p.cycle)
}

// leap bulk-accounts k quiescent cycles exactly as k idle Steps would.
func (p *Platform) leap(k uint64) {
	var gated, halted uint64
	for c := 0; c < p.ncore; c++ {
		if p.sync.State(c) == core.StateHalted {
			halted++
		} else {
			gated++
		}
	}
	p.ctr.AddIdleCycles(k, gated, halted)
	// One span event for the whole leap: no boundary event can occur inside
	// a quiescent stretch, so this is lossless, and emitting per-cycle
	// events would defeat the engine the observer exists to preserve.
	p.obs.Span(obs.KindIdleLeap, obs.TrackEngine, 0, p.cycle, k, 0, 0)
	p.obs.Observe("engine.idle_leap_cycles", k)
	p.cycle += k
	p.sync.FastForward(p.cycle)
	p.imx.AdvanceN(k)
	p.dmx.AdvanceN(k)
	p.ffLeaps++
	p.ffSkipped += k
}
