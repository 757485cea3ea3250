package platform

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// runModes builds two platforms from the same image — one exact, one with
// every fast path engaged — runs both for n cycles with a timeline attached,
// and returns them for comparison.
func runModes(t *testing.T, cfg Config, mkImg func(t *testing.T) *Image, n uint64) (exact, fast *Platform) {
	t.Helper()
	build := func(exactMode bool) *Platform {
		p, err := New(cfg, mkImg(t))
		if err != nil {
			t.Fatal(err)
		}
		p.SetExact(exactMode)
		p.SetObserver(obs.NewSink(obs.NewTimeline(obs.DefaultTimelineCap), nil))
		if err := p.Run(n); err != nil {
			t.Fatal(err)
		}
		return p
	}
	exact, fast = build(true), build(false)
	if exact.StepCycles() != exact.Cycle() {
		t.Errorf("exact mode stepped %d of %d cycles, want all", exact.StepCycles(), exact.Cycle())
	}
	return exact, fast
}

// BoundaryEvents returns the timeline's instants that every engine records:
// it leaves out the fast paths' spans and the exact cycles' core-state and
// sync-op events. It is exported for the golden tests in package
// platform_test.
func BoundaryEvents(events []obs.Event) []obs.Event {
	var out []obs.Event
	for _, e := range events {
		switch e.Kind {
		case obs.KindIdleLeap, obs.KindBlockStride, obs.KindPhase, obs.KindCoreState, obs.KindSyncOp:
		default:
			out = append(out, e)
		}
	}
	return out
}

// assertIdentical checks every observable output of the two runs for
// bit-identity: counters, cycle position, architectural core state, debug
// and error streams, violations, sample-window statistics and, when both
// platforms carry a timeline, its boundary instants.
func assertIdentical(t *testing.T, exact, fast *Platform) {
	t.Helper()
	if *exact.Counters() != *fast.Counters() {
		t.Errorf("counters diverge:\nexact: %+v\nfast:  %+v", *exact.Counters(), *fast.Counters())
	}
	if e, f := exact.Cycle(), fast.Cycle(); e != f {
		t.Errorf("cycle diverges: exact %d, fast %d", e, f)
	}
	for c := 0; c < exact.ncore; c++ {
		if e, f := exact.CoreBusy(c), fast.CoreBusy(c); e != f {
			t.Errorf("core %d busy diverges: exact %d, fast %d", c, e, f)
		}
		if e, f := exact.CoreState(c), fast.CoreState(c); e != f {
			t.Errorf("core %d state diverges: exact %v, fast %v", c, e, f)
		}
		if e, f := exact.CoreRegs(c), fast.CoreRegs(c); e != f {
			t.Errorf("core %d registers diverge:\nexact: %v\nfast:  %v", c, e, f)
		}
	}
	if e, f := exact.MaxSampleBusy(), fast.MaxSampleBusy(); e != f {
		t.Errorf("max sample busy diverges: exact %d, fast %d", e, f)
	}
	if e, f := exact.Overruns(), fast.Overruns(); e != f {
		t.Errorf("overruns diverge: exact %d, fast %d", e, f)
	}
	if !reflect.DeepEqual(exact.Debug(), fast.Debug()) {
		t.Errorf("debug streams diverge: exact %d entries, fast %d", len(exact.Debug()), len(fast.Debug()))
	}
	if !reflect.DeepEqual(exact.ErrCodes(), fast.ErrCodes()) {
		t.Errorf("error streams diverge: exact %d entries, fast %d", len(exact.ErrCodes()), len(fast.ErrCodes()))
	}
	if !reflect.DeepEqual(exact.Violations(), fast.Violations()) {
		t.Errorf("violations diverge: exact %v, fast %v", exact.Violations(), fast.Violations())
	}
	etl, ftl := exact.Observer().Timeline(), fast.Observer().Timeline()
	if etl == nil || ftl == nil {
		return
	}
	if etl.Dropped() != 0 || ftl.Dropped() != 0 {
		t.Fatalf("timeline ring overflowed (exact dropped %d, fast %d): enlarge it", etl.Dropped(), ftl.Dropped())
	}
	ev, fv := BoundaryEvents(etl.Events()), BoundaryEvents(ftl.Events())
	if len(ev) != len(fv) {
		t.Errorf("boundary events diverge: exact %d, fast %d", len(ev), len(fv))
	}
	for i := 0; i < len(ev) && i < len(fv); i++ {
		if ev[i] != fv[i] {
			t.Errorf("boundary event %d diverges:\nexact: %+v\nfast:  %+v", i, ev[i], fv[i])
			break
		}
	}
}

// TestFastForwardADCSleepLoop pits both modes on the interrupt-driven
// sample-collection loop, the paper's canonical duty cycle: long gated
// waits punctuated by ADC wakes.
func TestFastForwardADCSleepLoop(t *testing.T) {
	src := `
.code main
    li   r4, 0x7F03     ; RegIRQSub
    li   r1, 1          ; IRQADC0
    sw   r1, 0(r4)
    li   r2, 300        ; buffer
    li   r3, 0          ; count
    li   r6, 8
loop:
    sleep
    li   r4, 0x7F0B     ; RegADCStatus
    lw   r1, 0(r4)
    andi r1, r1, 1
    beqz r1, loop
    li   r4, 0x7F04     ; RegIRQPend: acknowledge
    li   r1, 1
    sw   r1, 0(r4)
    li   r4, 0x7F08     ; RegADCData0
    lw   r1, 0(r4)
    li   r4, 0x7F06     ; RegDebugOut: report each sample
    sw   r1, 0(r4)
    add  r5, r2, r3
    sw   r1, 0(r5)
    addi r3, r3, 1
    blt  r3, r6, loop
    halt
`
	mk := func(t *testing.T) *Image {
		return buildImage(t, 0, 0, []string{src}, []int{0}, []DataSeg{{Base: 300, Words: make([]uint16, 8)}})
	}
	cfg := scCfg()
	cfg.SampleRateHz = 250
	cfg.Traces[0] = []int16{11, 22, 33, 44, 55, 66, 77}
	exact, fast := runModes(t, cfg, mk, 60_000)
	assertIdentical(t, exact, fast)
	if !fast.AllHalted() {
		t.Fatal("fast run did not complete the sample loop")
	}
	if fast.FFSkippedCycles() == 0 {
		t.Error("fast-forward engine never engaged on an idle-dominated run")
	}
	if skipped := fast.FFSkippedCycles(); skipped < fast.Cycle()/2 {
		t.Errorf("only %d of %d cycles skipped; want idle domination", skipped, fast.Cycle())
	}
	if exact.FFSkippedCycles() != 0 {
		t.Errorf("exact mode skipped %d cycles, want 0", exact.FFSkippedCycles())
	}
}

// TestFastForwardProducerConsumer checks equivalence when wakes come from
// the synchronizer (SDEC release + wake latency) rather than the ADC.
func TestFastForwardProducerConsumer(t *testing.T) {
	exact, fast := runModes(t, mcCfg(), producerConsumerImage, 10_000)
	assertIdentical(t, exact, fast)
	if !fast.AllHalted() {
		t.Fatal("producer/consumer did not halt")
	}
	if sum, _ := fast.PeekData(0, 30); sum != 15 {
		t.Errorf("consumer sum = %d, want 15", sum)
	}
}

// TestFastForwardDeadlockLeap covers the pathological all-gated case with
// no wake source at all: exact mode burns every budgeted cycle idle; the
// fast path must leap straight to the budget with identical accounting.
func TestFastForwardDeadlockLeap(t *testing.T) {
	src := `
.code main
    sleep
    halt
`
	mk := func(t *testing.T) *Image {
		return buildImage(t, 0x2000, 1, []string{src, src}, []int{0, 64}, nil)
	}
	exact, fast := runModes(t, mcCfg(), mk, 50_000)
	assertIdentical(t, exact, fast)
	if fast.Cycle() != 50_000 {
		t.Errorf("fast run stopped at cycle %d, want the full 50000 budget", fast.Cycle())
	}
	if fast.FFSkippedCycles() < 49_000 {
		t.Errorf("skipped %d cycles, want nearly all of the deadlocked run", fast.FFSkippedCycles())
	}
}

// TestIdleLeapFromFirstGatedCycle pins where an idle leap starts: right
// after the stepped cycle in which the last running core executed SLEEP, a
// Run below the next ADC event leaps the whole gated stretch without
// stepping a single idle cycle first.
func TestIdleLeapFromFirstGatedCycle(t *testing.T) {
	src := `
.code main
    li   r4, 0x7F03     ; RegIRQSub
    li   r1, 1          ; IRQADC0
    sw   r1, 0(r4)
loop:
    sleep
    j    loop
`
	cfg := scCfg()
	cfg.SampleRateHz = 250
	cfg.Traces[0] = []int16{1, 2, 3}
	gated := func(exactMode bool) *Platform {
		p, err := New(cfg, buildImage(t, 0, 0, []string{src}, []int{0}, nil))
		if err != nil {
			t.Fatal(err)
		}
		p.SetExact(exactMode)
		p.SetObserver(obs.NewSink(obs.NewTimeline(obs.DefaultTimelineCap), nil))
		for p.CoreState(0) != core.StateGated {
			if err := p.Step(); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	exact, fast := gated(true), gated(false)
	k := fast.adc.NextEventCycle() - 1 - fast.Cycle()
	if k < 1000 {
		t.Fatalf("only %d cycles before the first ADC event", k)
	}
	steps, skipped := fast.StepCycles(), fast.FFSkippedCycles()
	for _, p := range []*Platform{exact, fast} {
		if err := p.Run(k); err != nil {
			t.Fatal(err)
		}
	}
	if got := fast.StepCycles() - steps; got != 0 {
		t.Errorf("stepped %d idle cycles before leaping", got)
	}
	if got := fast.FFSkippedCycles() - skipped; got != k {
		t.Errorf("leapt %d of %d gated cycles", got, k)
	}
	assertIdentical(t, exact, fast)
}

// TestFastForwardHaltedStops verifies Run's early-stop semantics survive
// the refactor: an already-halted platform steps exactly once per Run call
// in both modes.
func TestFastForwardHaltedStops(t *testing.T) {
	src := `
.code main
    halt
`
	for _, exactMode := range []bool{true, false} {
		p, err := New(scCfg(), buildImage(t, 0, 0, []string{src}, []int{0}, nil))
		if err != nil {
			t.Fatal(err)
		}
		p.SetExact(exactMode)
		if err := p.Run(10_000); err != nil {
			t.Fatal(err)
		}
		halted := p.Cycle()
		if err := p.Run(10_000); err != nil {
			t.Fatal(err)
		}
		if p.Cycle() != halted+1 {
			t.Errorf("exact=%v: re-running a halted platform moved cycle %d -> %d, want one step",
				exactMode, halted, p.Cycle())
		}
	}
}

// TestSecondsToCyclesRounds is the cycle-budget regression test: fractional
// durations at non-integer-MHz clocks must round to the nearest cycle, not
// truncate one away.
func TestSecondsToCyclesRounds(t *testing.T) {
	cases := []struct {
		s, clockHz float64
		want       uint64
	}{
		{1, 1e6, 1000000},
		// 0.3 * 1e6 = 299999.99999999994 in float64: truncation loses a
		// cycle of the budget.
		{0.3, 1e6, 300000},
		{2.5, 3.3e6, 8250000},
		{0.1, 3.3e6, 330000},
		{60, 1e6, 60000000},
	}
	for _, c := range cases {
		if got := secondsToCycles(c.s, c.clockHz); got != c.want {
			t.Errorf("secondsToCycles(%v, %v) = %d, want %d", c.s, c.clockHz, got, c.want)
		}
	}
}
