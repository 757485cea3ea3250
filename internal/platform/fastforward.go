// Run and the idle leap.
//
// The paper's workloads are idle-dominated: ECG arrives at a few hundred
// hertz while the platform clocks at megahertz, so on well over 99 % of
// simulated cycles every core is clock-gated waiting for the next sample.
// The cycle-accurate Step still costs a full Go iteration for each of those
// cycles. The block engine's dispatcher (blockRun) therefore leaps over
// them in O(1): when no core can fetch on the next cycle — every core is
// halted, gated or inside its wake latency — the platform can only change
// state at the next internally scheduled wake (a pending wake latency or an
// armed wait timeout) or the next ADC sampling instant, so every cycle
// before that event (blockEnd) is accounted in bulk and never simulated.
//
// The leap is semantically invisible by construction — each skipped cycle
// would have executed nothing, posted nothing, and recorded nothing:
//
//   - counters: Cycles plus CoreGated/CoreHalted per core are the only
//     counters an idle cycle touches (power.Counters.AddIdleCycles); a
//     waking core counts as gated, as Step classifies it;
//   - crossbars: the rotating arbitration priority advances once per cycle
//     even when idle (Crossbar.AdvanceN keeps it in phase);
//   - synchronizer: Commit updates its cycle stamp every cycle, which wake
//     latencies are computed from (Synchronizer.FastForward);
//   - debug output and timeline events: no core runs and nothing external
//     fires inside the stretch, so every core's classification is constant
//     across it and no boundary event can fall inside;
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

	"repro/internal/obs"
)

// Run simulates up to n further cycles, stopping early when every core has
// halted or a fault occurs. Unless the platform is in exact mode, blockRun
// takes every cycle a fast path can reproduce: quiescent stretches are
// leapt over in bulk, and every stretch with a core at work — one core in
// straight-line code, or N ≥ 2 running cores, their bank conflicts
// arbitrated cycle by cycle and busy-waiting pollers parked — executes on
// the basic-block fast path (blockengine.go). Step simulates only the
// cycles no engine can reproduce: sync ISE, HALT, MMIO, faults, wake
// latencies beside running cores and the cycles of external events. The
// observable behaviour is identical either way, and neither the chunking
// of a run into Run calls nor a mode switch between them changes it.
func (p *Platform) Run(n uint64) error {
	limit := p.cycle + n
	for p.cycle < limit {
		if !p.exact {
			// The fast paths only ever take cycles Step would have
			// simulated identically, so they may run right up to the budget.
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

// leap bulk-accounts k quiescent cycles exactly as k idle Steps would, with
// gated cores gated or waking and halted cores halted throughout.
func (p *Platform) leap(k, gated, halted uint64) {
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
