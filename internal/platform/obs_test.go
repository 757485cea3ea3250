package platform

import (
	"testing"

	"repro/internal/isa"
	"repro/internal/obs"
)

// newObsSink builds a full observability sink (timeline + registry), the
// configuration the -timeline-out/-metrics-out flags produce.
func newObsSink() *obs.Sink {
	return obs.NewSink(obs.NewTimeline(obs.DefaultTimelineCap), obs.NewRegistry())
}

// countKind tallies the timeline events of one kind.
func countKind(events []obs.Event, kind obs.Kind) int {
	n := 0
	for _, e := range events {
		if e.Kind == kind {
			n++
		}
	}
	return n
}

// TestObserverSpinLeapParity: attaching the sink must not change a single
// observable output of the busy-wait run — and must not disengage the
// strides' all-parked leaps. Every multi-core stride, leaps included, lands
// on the timeline as one span, and the span and histogram sums reconcile
// with the engine's own statistics.
func TestObserverSpinLeapParity(t *testing.T) {
	mk := func(t *testing.T) *Image { return busyWaitImage(t, spinConsumerSrc, secondConsumer()) }
	cfg := nosyncCfg()
	cfg.Exact = false
	plain, err := New(cfg, mk(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := plain.Run(40_000); err != nil {
		t.Fatal(err)
	}
	observed, err := New(cfg, mk(t))
	if err != nil {
		t.Fatal(err)
	}
	sink := newObsSink()
	observed.SetObserver(sink)
	if err := observed.Run(40_000); err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, plain, observed)
	if e, f := plain.BlockMCLeaptCycles(), observed.BlockMCLeaptCycles(); e != f || f == 0 {
		t.Fatalf("all-parked leaps diverge under observation: plain %d, observed %d", e, f)
	}
	var spanSum uint64
	for _, e := range sink.Events() {
		if e.Kind == obs.KindBlockStride && e.Arg2 >= 2 {
			spanSum += e.Dur
		}
	}
	if spanSum != observed.BlockMCCycles() {
		t.Errorf("stride spans sum to %d cycles, engine ran %d", spanSum, observed.BlockMCCycles())
	}
	if n := countKind(sink.Events(), obs.KindADCSample); n == 0 {
		t.Error("no ADC sample events on a run that consumed samples")
	}
	h, ok := sink.Registry().Histogram("engine.block_stride_cycles")
	if !ok || h.Sum != observed.BlockCycles()+observed.BlockMCCycles() {
		t.Error("stride histogram does not reconcile with the engine's block and stride cycles")
	}
}

// barrier pair: the consumer registers on point 0 and sleeps; the producer
// raises the counter, works, and the closing SDEC releases the consumer.
const barrierProducerSrc = `
.equ PT, 0
.code producer
    sinc #PT
    nop
    nop
    nop
    nop
    sdec #PT
    halt
`

const barrierConsumerSrc = `
.equ PT, 0
.code consumer
    snop #PT
    sleep
    halt
`

// TestObserverBarrierEvents walks one complete barrier through the sink: the
// arrivals (SINC and SNOP both set identification flags), the releasing
// SDEC with the consumer in the released mask, the wake, and the per-group
// registration-to-release wait-time histogram.
func TestObserverBarrierEvents(t *testing.T) {
	img := buildImage(t, 0x2000, 1,
		[]string{barrierProducerSrc, barrierConsumerSrc},
		[]int{0, isa.IMBankWords}, nil)
	p, err := New(mcCfg(), img)
	if err != nil {
		t.Fatal(err)
	}
	sink := newObsSink()
	p.SetObserver(sink)
	if err := p.Run(5_000); err != nil {
		t.Fatal(err)
	}
	if !p.AllHalted() {
		t.Fatal("barrier pair did not complete")
	}
	events := sink.Events()
	if n := countKind(events, obs.KindBarrierArrive); n < 2 {
		t.Errorf("barrier-arrive events = %d, want the producer's and the consumer's", n)
	}
	releases := 0
	for _, e := range events {
		if e.Kind != obs.KindBarrierRelease {
			continue
		}
		releases++
		if e.Arg2&(1<<1) == 0 {
			t.Errorf("release mask %#x does not include the sleeping consumer", e.Arg2)
		}
	}
	if releases != 1 {
		t.Errorf("barrier-release events = %d, want 1", releases)
	}
	if n := countKind(events, obs.KindWake); n == 0 {
		t.Error("no wake event for the released consumer")
	}
	if n := countKind(events, obs.KindHalt); n != 2 {
		t.Errorf("halt events = %d, want one per core", n)
	}
	if h, ok := sink.Registry().Histogram("sync.barrier_wait_cycles.g0"); !ok || h.Count == 0 {
		t.Error("barrier wait-time histogram is empty after a completed barrier")
	}
}

// TestObserverTimeoutEvents: a stalled wait recovered by the sync timeout
// must surface as a sync-timeout instant on the waiting core plus its wake,
// and tick the timeouts-fired counter.
func TestObserverTimeoutEvents(t *testing.T) {
	p, err := New(timeoutCfg(), stallImage(t))
	if err != nil {
		t.Fatal(err)
	}
	sink := newObsSink()
	p.SetObserver(sink)
	if err := p.Run(5_000); err != nil {
		t.Fatal(err)
	}
	if !p.AllHalted() {
		t.Fatal("timeout recovery did not let the consumer finish")
	}
	events := sink.Events()
	timeouts := 0
	for _, e := range events {
		if e.Kind != obs.KindTimeout {
			continue
		}
		timeouts++
		if e.ID != 1 {
			t.Errorf("timeout fired on core %d, want the stalled consumer (1)", e.ID)
		}
	}
	if timeouts != 1 {
		t.Errorf("sync-timeout events = %d, want 1", timeouts)
	}
	if n := countKind(events, obs.KindWake); n == 0 {
		t.Error("no wake event after the timeout recovery")
	}
	if got := sink.Registry().Counter("sync.timeouts_fired"); got != 1 {
		t.Errorf("sync.timeouts_fired = %d, want 1", got)
	}
}

// TestObserverDisabledZeroAlloc pins the disabled path's cost at the
// platform's own emit sites: with no observer attached, the nil *obs.Sink
// methods the hot loops call must not allocate.
func TestObserverDisabledZeroAlloc(t *testing.T) {
	p, err := New(scCfg(), buildImage(t, 0, 0, []string{"\n.code main\n    halt\n"}, []int{0}, nil))
	if err != nil {
		t.Fatal(err)
	}
	if p.Observer() != nil {
		t.Fatal("fresh platform has an observer attached")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		p.obs.Instant(obs.KindWake, obs.TrackCore, 0, 123, 0, 0)
		p.obs.Span(obs.KindIdleLeap, obs.TrackEngine, 0, 123, 64, 0, 0)
		p.obs.Observe("engine.idle_leap_cycles", 64)
		p.obs.Add("sync.timeouts_fired", 1)
	})
	if allocs != 0 {
		t.Errorf("disabled observer path allocates %.1f times per emit round, want 0", allocs)
	}
}

// TestObserverAdoptResets: observability stamps are process state, not
// simulated state — Restore must clear them (docs/FORMATS.md), never carry
// them across from the snapshotted platform or leave the adopter's own
// stale stamps behind.
func TestObserverAdoptResets(t *testing.T) {
	mk := func(t *testing.T) *Image { return busyWaitImage(t, spinConsumerSrc) }
	cfg := nosyncCfg()
	cfg.Exact = false
	p, err := New(cfg, mk(t))
	if err != nil {
		t.Fatal(err)
	}
	// Registry-only sinks: the ADC stamps restart on Restore, so the two
	// timelines' sample counts legitimately differ after it.
	p.SetObserver(obs.NewSink(nil, obs.NewRegistry()))
	if err := p.Run(12_000); err != nil {
		t.Fatal(err)
	}
	if p.obsADC[0] == 0 {
		t.Fatal("observed run consumed no ADC samples; the reset check would be vacuous")
	}
	snap := p.Snapshot()

	q, err := New(cfg, mk(t))
	if err != nil {
		t.Fatal(err)
	}
	q.SetObserver(obs.NewSink(nil, obs.NewRegistry()))
	if err := q.Run(12_000); err != nil {
		t.Fatal(err)
	}
	if err := q.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for ch, n := range q.obsADC {
		if n != 0 {
			t.Errorf("channel %d ADC stamp = %d after Restore, want 0", ch, n)
		}
	}
	for c, w := range q.obsWait {
		if w != 0 {
			t.Errorf("core %d barrier stamp = %d after Restore, want 0", c, w)
		}
	}
	// The restored platform must still continue bit-identically to the
	// uninterrupted one, observer attached on both sides.
	if err := p.Run(28_000); err != nil {
		t.Fatal(err)
	}
	if err := q.Run(28_000); err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, p, q)
}

// TestTracerCapturesSyncProtocol runs the producer-consumer program in exact
// mode with a timeline attached and checks that the exact-cycle trace tells
// the paper's story: SNOP registration, gated SLEEP, the producer's
// SINC/SDEC pair, a wake, both halts, and each core's state changes, in
// cycle order.
func TestTracerCapturesSyncProtocol(t *testing.T) {
	p, err := New(mcCfg(), producerConsumerImage(t))
	if err != nil {
		t.Fatal(err)
	}
	p.SetExact(true)
	sink := newObsSink()
	p.SetObserver(sink)
	if err := p.Run(10_000); err != nil {
		t.Fatal(err)
	}
	if !p.AllHalted() {
		t.Fatal("program did not finish")
	}
	events := sink.Events()
	ops := map[isa.Opcode]int{}
	states := map[int32]int{}
	for i, e := range events {
		if i > 0 && e.Cycle < events[i-1].Cycle {
			t.Fatalf("events out of order at %d", i)
		}
		switch e.Kind {
		case obs.KindSyncOp:
			ops[isa.Opcode(e.Arg1)]++
		case obs.KindCoreState:
			states[e.ID]++
		}
	}
	if ops[isa.OpSINC] == 0 || ops[isa.OpSDEC] == 0 || ops[isa.OpSNOP] == 0 {
		t.Errorf("sync ops seen: %v, want SINC, SDEC and SNOP", ops)
	}
	if states[0] == 0 || states[1] == 0 {
		t.Errorf("core-state events per core: %v, want both cores", states)
	}
	if countKind(events, obs.KindSleep) == 0 {
		t.Error("no gated SLEEP recorded")
	}
	if countKind(events, obs.KindWake) == 0 {
		t.Error("no wake recorded")
	}
	if n := countKind(events, obs.KindHalt); n != 2 {
		t.Errorf("halt events = %d, want 2", n)
	}
}

// TestTracerDoesNotAlterExecution runs the same exact program with and
// without a timeline and compares every observable output.
func TestTracerDoesNotAlterExecution(t *testing.T) {
	run := func(sink *obs.Sink) *Platform {
		cfg := mcCfg()
		cfg.Exact = true
		p, err := New(cfg, producerConsumerImage(t))
		if err != nil {
			t.Fatal(err)
		}
		p.SetObserver(sink)
		if err := p.Run(10_000); err != nil {
			t.Fatal(err)
		}
		return p
	}
	plain, traced := run(nil), run(newObsSink())
	assertIdentical(t, plain, traced)
	if countKind(traced.Observer().Events(), obs.KindCoreState) == 0 {
		t.Fatal("the exact run recorded no core-state events")
	}
	if sum, _ := traced.PeekData(0, 30); sum != 15 {
		t.Errorf("consumer sum = %d, want 15", sum)
	}
}
