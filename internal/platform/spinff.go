// Spin-loop fast-forward engine.
//
// The idle engine (fastforward.go) only leaps when *every* core is halted,
// gated or inside its wake latency. The busy-wait baseline (MC-nosync)
// breaks that precondition by design: consumers poll shared counters in
// tight load/compare/branch loops, so the platform is never quiescent
// between samples and the no-sync column used to simulate cycle-by-cycle.
// This engine extends fast-forward to those partially-idle stretches.
//
// It works in three stages:
//
//  1. Nominate. The block engine (blockengine.go) opens a sticky spin yield
//     on a core that takes a short backward branch and releases it when the
//     core leaves the loop or the loop's head state keeps changing (its
//     verdict). When every running core is yielded with its PC inside its
//     yield span (gated/halted cores contribute nothing) and no wake is
//     pending, the engine arms a probe.
//
//  2. Prove. The probe captures the platform's evolution-relevant state —
//     core pipelines and registers, synchronizer points/states/tokens/IRQs,
//     crossbar phases, the data memory's write generation (read-set
//     stability: internal/mem), debug/error stream lengths, host flag — and
//     keeps stepping normally. If the exact same state recurs P cycles
//     later with no DM write, no core woken, no ADC event and no pending
//     wake in between, the stretch is periodic with period P: the next P
//     cycles must repeat the last P exactly. Arbitration phase matters
//     only when the window saw a bank conflict; a conflict-free window
//     grants every request at every rotating-priority phase
//     (interco.PhasePeriod), so its recurrence is accepted phase-free and
//     short periods stay short.
//
//  3. Leap. The counter, busy-cycle and sample-window deltas of the proven
//     period are replayed arithmetically for as many whole periods as fit
//     before the next absolute-time event (ADC sampling instant, cycle
//     budget): power.Counters.AddScaled, per-core busy/window accumulators,
//     Crossbar.AdvanceN, Synchronizer.FastForward. Because the leap starts
//     and ends in the same proven state, it is bit-identical to stepping —
//     enforced against -exact by the golden tests here (spinff_test.go) and
//     across every bundled scenario (internal/scenario).
//
// A failed nomination or probe costs nothing but the bookkeeping: the
// probed cycles were ordinary steps, and retries back off exponentially.
// Exact cycles are ordinary steps too, so a mode switch leaves an armed
// probe and the odometers alone. A spin loop changes its cores' pipeline
// states every few cycles, which a leap cannot record without stepping; a
// caller who wants those core-state events runs the stretch in exact mode.

package platform

import (
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/obs"
	"repro/internal/power"
)

// Spin-engine tuning. All three only trade wall-clock for wall-clock; none
// affect simulation results.
const (
	// spinProbeMax bounds one recurrence probe. It must cover
	// lcm(loop period, interco.PhasePeriod) for conflicting loops up to
	// maxSpinPeriod instructions plus their stalls and bubbles.
	spinProbeMax = 8192
	// spinRecheck is the fixed interval between nomination attempts while
	// cores are doing real work. A rejection reads one yield per core, so
	// polling often costs next to nothing and catches the start of a spin
	// stretch promptly.
	spinRecheck = 16
	// spinBackoffMin/Max bound the exponential retry backoff after a
	// *failed probe*: the expensive case, where the yields nominated a
	// stretch but the recurrence proof fell through.
	spinBackoffMin = 64
	spinBackoffMax = 4096
)

// spinFF is the engine state embedded in Platform.
type spinFF struct {
	// Detection throttle.
	nextCheck  uint64
	backoff    uint64
	sampleSeen int

	// Armed probe: the state captured at arm time, to be matched.
	armed              bool
	start              uint64
	deadline           uint64
	gen                uint64
	anchor             int // index of the running core used as cheap filter
	cores              []cpu.Core
	sync               core.SyncState
	imxPhase, dmxPhase int
	ctr                power.Counters
	busy               []uint64
	window             []uint32
	debugLen, errLen   int
	hostFlag           uint16

	// Wall-clock diagnostics (process state, not snapshotted: a probe
	// re-runs after restore, so leap placement depends on Run chunking).
	leaps   uint64
	skipped uint64
}

// SpinLeaps returns how many bulk spin-loop leaps the fast-forward engine
// took. Like FFLeaps it is a wall-clock diagnostic: identical simulations
// chunked differently may leap differently while producing bit-identical
// results. Restore and Fork reset it.
func (p *Platform) SpinLeaps() uint64 { return p.spin.leaps }

// SpinSkippedCycles returns how many cycles were accounted arithmetically by
// the spin-loop engine instead of being individually stepped. A diagnostic,
// like SpinLeaps.
func (p *Platform) SpinSkippedCycles() uint64 { return p.spin.skipped }

// spinReset clears probe state: New, Restore, Fork. The leap statistics
// reset too — they describe this engine instance's work, not the simulated
// run.
func (p *Platform) spinReset() {
	s := &p.spin
	s.armed = false
	s.nextCheck = 0
	s.backoff = spinBackoffMin
	s.sampleSeen = p.lastSample
	s.leaps = 0
	s.skipped = 0
}

// spinRetryLater disarms/postpones detection with exponential backoff.
func (p *Platform) spinRetryLater() {
	s := &p.spin
	s.armed = false
	s.nextCheck = p.cycle + s.backoff
	if s.backoff < spinBackoffMax {
		s.backoff *= 2
	}
}

// spinDisarm drops an armed probe after a block-engine stretch, which runs
// only once some running core has left its yield: the nominated stretch is
// over, and the next nomination attempt follows promptly.
func (p *Platform) spinDisarm() {
	if p.spin.armed {
		p.spin.armed = false
		p.spin.nextCheck = p.cycle + spinRecheck
	}
}

// spinObserve is called by Run after every completed Step outside exact
// mode. It advances whichever stage the engine is in: probing for a
// recurrence, or deciding whether to arm one.
func (p *Platform) spinObserve(limit uint64) {
	s := &p.spin
	if p.lastSample != s.sampleSeen {
		// A publication event ended the previous spin regime; probe the
		// next inter-sample stretch promptly.
		s.sampleSeen = p.lastSample
		s.armed = false
		s.backoff = spinBackoffMin
		s.nextCheck = p.cycle
	}
	if s.armed {
		p.spinTryLeap(limit)
		return
	}
	if p.lastCycleIdle || p.cycle < s.nextCheck {
		return
	}
	if !p.spinArm() {
		// Not a spin stretch (yet): cores are mid-work. Cheap fixed-interval
		// recheck; the exponential backoff is reserved for failed probes.
		s.nextCheck = p.cycle + spinRecheck
	}
}

// spinArm nominates the current stretch: every running core must be
// yielded with its PC inside its yield span, and no wake latency may be
// pending. On success the evolution-relevant platform state is captured for
// the recurrence proof.
func (p *Platform) spinArm() bool {
	s := &p.spin
	anchor := -1
	for c := 0; c < p.ncore; c++ {
		if p.sync.State(c) != core.StateRunning {
			continue
		}
		y := &p.block.yield[c]
		if pc := p.cores[c].PC; !y.on || pc < y.lo || pc > y.hi {
			return false
		}
		if anchor < 0 {
			anchor = c
		}
	}
	if anchor < 0 {
		// Fully idle: the quiescence engine's territory.
		return false
	}
	if _, ok := p.sync.NextWake(p.cycle); ok {
		// An imminent wake is a state change the proof cannot straddle.
		return false
	}
	s.armed = true
	s.start = p.cycle
	s.deadline = p.cycle + spinProbeMax
	if p.adc != nil {
		if e := p.adc.NextEventCycle(); e < s.deadline {
			s.deadline = e
		}
	}
	s.gen = p.dmem.Gen()
	s.anchor = anchor
	if cap(s.cores) < p.ncore {
		s.cores = make([]cpu.Core, p.ncore)
	}
	s.cores = s.cores[:p.ncore]
	for c := range p.cores {
		s.cores[c] = *p.cores[c]
	}
	s.sync = p.sync.Snapshot()
	s.imxPhase, s.dmxPhase = p.imx.Phase(), p.dmx.Phase()
	s.ctr = p.ctr
	s.busy = append(s.busy[:0], p.perCoreBusy...)
	s.window = append(s.window[:0], p.windowBusy...)
	s.debugLen, s.errLen = len(p.debug), len(p.errCodes)
	s.hostFlag = p.hostFlag
	return true
}

// spinTryLeap checks the armed probe against the current state and leaps
// when the recurrence is proven.
func (p *Platform) spinTryLeap(limit uint64) {
	s := &p.spin
	if p.dmem.Gen() != s.gen || len(p.debug) != s.debugLen || len(p.errCodes) != s.errLen {
		// A write landed or a debug/error value was posted: the stretch was
		// not settled yet when the probe armed. Nothing needs undoing — the
		// probed cycles were ordinary steps — and the next quiet moment
		// deserves a prompt retry, so no backoff.
		s.armed = false
		s.nextCheck = p.cycle + spinRecheck
		return
	}
	if p.cycle >= s.deadline {
		// The window expired without recurring: the nominated loops are not
		// actually periodic at platform level (marching registers, drifting
		// alignment). Retrying immediately would fail the same way — back
		// off exponentially.
		p.spinRetryLater()
		return
	}
	// Cheap anchor: the full comparison only runs when the anchor core is
	// back at its captured PC.
	if p.cores[s.anchor].PC != s.cores[s.anchor].PC {
		return
	}
	for c := 0; c < p.ncore; c++ {
		if *p.cores[c] != s.cores[c] {
			return
		}
	}
	if p.hostFlag != s.hostFlag || !p.sync.StableEqual(&s.sync) {
		return
	}
	if _, ok := p.sync.NextWake(p.cycle); ok {
		return
	}
	period := p.cycle - s.start
	delta := p.ctr.Diff(&s.ctr)
	if delta.SyncWakes != 0 {
		// A core slept and woke inside the window, which an event
		// rendezvous (SEVS) does without writing data memory: every period
		// repeats sleep and wake instants a leap cannot record.
		p.spinRetryLater()
		return
	}
	if (p.imx.Phase() != s.imxPhase || p.dmx.Phase() != s.dmxPhase) &&
		(delta.IMConflict != 0 || delta.DMConflict != 0) {
		// The window saw arbitration conflicts, whose grant pattern depends
		// on the rotating priority: only a phase-aligned recurrence (period
		// a multiple of interco.PhasePeriod) replays exactly. Keep probing
		// — the aligned recurrence lies ahead.
		return
	}

	// The next P cycles provably repeat the last P. Replay as many whole
	// periods as fit before anything absolute-time can intervene: the next
	// ADC sampling instant or the caller's cycle budget (no wake latency is
	// pending, and gated cores only resume on those ADC events).
	horizon := limit
	if p.adc != nil {
		if e := p.adc.NextEventCycle(); e-1 < horizon {
			horizon = e - 1
		}
	}
	if horizon <= p.cycle {
		s.armed = false
		s.nextCheck = horizon + 1 // nothing can leap before the event
		return
	}
	n := (horizon - p.cycle) / period
	if n == 0 {
		// Less than one whole period of room: step the remainder.
		s.armed = false
		s.nextCheck = horizon + 1
		return
	}
	p.ctr.AddScaled(&delta, n)
	for c := 0; c < p.ncore; c++ {
		db := p.perCoreBusy[c] - s.busy[c]
		p.perCoreBusy[c] += n * db
		dw := p.windowBusy[c] - s.window[c]
		p.windowBusy[c] += uint32(n) * dw
	}
	k := n * period
	// One span for the whole replayed stretch. The proven window holds no
	// boundary event, so the leap is lossless for the observer: SINC, SDEC
	// and SNOP mirror their point into data memory, so barrier arrivals and
	// releases would have moved DMem.Gen; a halt is permanent, and a core
	// that slept inside the window must have woken inside it, which
	// SyncWakes rules out, timeout expiries included; ADC events lie past
	// the probe's deadline, and NextWake excluded pending wakes and
	// timeouts at both ends.
	p.obs.Span(obs.KindSpinLeap, obs.TrackEngine, 0, p.cycle, k, int64(period), int64(n))
	p.obs.Observe("engine.spin_leap_cycles", k)
	p.cycle += k
	p.sync.FastForward(p.cycle)
	p.imx.AdvanceN(k)
	p.dmx.AdvanceN(k)
	s.leaps++
	s.skipped += k
	// The platform now sits in the proven state with less than one period
	// of room to the horizon; the remainder is stepped. The yields stay
	// open for the next stretch.
	s.armed = false
	s.backoff = spinBackoffMin
	s.nextCheck = p.cycle
}
