package platform

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/power"
)

// producerSrc is the MC-nosync producer idiom: sleep on the ADC interrupt,
// publish a shared counter per sample, halt after six.
const spinProducerSrc = `
.code main
    li   r4, 0x7F03     ; RegIRQSub
    li   r1, 1          ; IRQADC0
    sw   r1, 0(r4)
    li   r2, 0          ; produced count
    li   r6, 6
    li   r7, 200        ; shared counter address
prod:
    sleep
    li   r4, 0x7F0B     ; RegADCStatus
    lw   r1, 0(r4)
    andi r1, r1, 1
    beqz r1, prod
    li   r4, 0x7F04     ; RegIRQPend: acknowledge
    li   r1, 1
    sw   r1, 0(r4)
    addi r2, r2, 1
    sw   r2, 0(r7)      ; publish
    blt  r2, r6, prod
    halt
`

// consumerSrc is the busy-wait consumer: poll the shared counter, accumulate
// each published value, halt after six.
const spinConsumerSrc = `
.code consumer
    li   r2, 0          ; consumed count
    li   r6, 6
    li   r7, 200        ; shared counter address
    li   r5, 300        ; shared sum address
wait:
    lw   r1, 0(r7)
    beq  r1, r2, wait   ; spin while nothing new
    addi r2, r2, 1
    lw   r3, 0(r5)
    add  r3, r3, r1
    sw   r3, 0(r5)
    blt  r2, r6, wait
    halt
`

// nosyncCfg is a no-sync multi-core configuration with a 250 Hz ADC: at
// 1 MHz the consumer spins for thousands of cycles between samples.
func nosyncCfg() Config {
	return Config{
		Arch: power.MCNoSync, ClockHz: 1e6, VoltageV: 0.5,
		SampleRateHz: 250,
		Traces:       [3][]int16{0: {3, 1, 4, 1, 5, 9, 2, 6}},
	}
}

// busyWaitImage builds the producer/consumer pair with the given consumer.
func busyWaitImage(t *testing.T, consumer string) *Image {
	t.Helper()
	return buildImage(t, 0x2000, 0, []string{spinProducerSrc, consumer}, []int{0, 64},
		[]DataSeg{{Base: 200, Words: []uint16{0}}, {Base: 300, Words: []uint16{0}}})
}

// TestSpinFastForwardBusyWait is the engine's canonical positive case: the
// MC-nosync producer/consumer pair, where the consumer's poll loop used to
// defeat quiescence detection. The spin engine must leap most of the run
// while staying bit-identical to the exact path.
func TestSpinFastForwardBusyWait(t *testing.T) {
	mk := func(t *testing.T) *Image { return busyWaitImage(t, spinConsumerSrc) }
	exact, fast := runModes(t, nosyncCfg(), mk, 40_000)
	assertIdentical(t, exact, fast)
	if !fast.AllHalted() {
		t.Fatal("busy-wait pair did not complete")
	}
	if sum, _ := fast.PeekData(0, 300); sum != 1+2+3+4+5+6 {
		t.Errorf("consumer sum = %d, want 21", sum)
	}
	if fast.SpinSkippedCycles() == 0 {
		t.Fatal("spin fast-forward never engaged on a busy-wait run")
	}
	if skipped := fast.SpinSkippedCycles(); skipped < fast.Cycle()/2 {
		t.Errorf("spin engine skipped only %d of %d cycles; want spin domination", skipped, fast.Cycle())
	}
}

// TestSpinFastForwardDeadlockedSpin covers a spin with no wake source at
// all (single core polling the host flag, no ADC): the engine must leap
// straight to the cycle budget, the spin analogue of the all-gated deadlock
// leap.
func TestSpinFastForwardDeadlockedSpin(t *testing.T) {
	src := `
.code main
    li   r7, 0x7F12     ; RegHostFlag
spin:
    lw   r1, 0(r7)
    beqz r1, spin
    halt
`
	mk := func(t *testing.T) *Image {
		return buildImage(t, 0, 0, []string{src}, []int{0}, nil)
	}
	exact, fast := runModes(t, scCfg(), mk, 50_000)
	assertIdentical(t, exact, fast)
	if fast.Cycle() != 50_000 {
		t.Errorf("fast run stopped at cycle %d, want the full 50000 budget", fast.Cycle())
	}
	if fast.SpinSkippedCycles() < 45_000 {
		t.Errorf("spin engine skipped %d cycles, want nearly all of the deadlocked spin", fast.SpinSkippedCycles())
	}
}

// TestSpinFastForwardRejectsStores: a poll loop that also stores every
// iteration writes data memory, so the recurrence proof must reject it and
// the run must fall back to cycle-accurate stepping — still bit-identical.
func TestSpinFastForwardRejectsStores(t *testing.T) {
	storingConsumer := `
.code consumer
    li   r2, 0
    li   r6, 6
    li   r7, 200
    li   r5, 300
wait:
    lw   r1, 0(r7)
    sw   r2, 0(r5)      ; heartbeat store: disqualifies the window
    beq  r1, r2, wait
    addi r2, r2, 1
    blt  r2, r6, wait
    halt
`
	mk := func(t *testing.T) *Image { return busyWaitImage(t, storingConsumer) }
	exact, fast := runModes(t, nosyncCfg(), mk, 40_000)
	assertIdentical(t, exact, fast)
	if fast.SpinLeaps() != 0 {
		t.Errorf("spin engine leapt %d times over a storing loop, want 0", fast.SpinLeaps())
	}
}

// TestSpinFastForwardRejectsSyncPoll: a poll loop that registers on a sync
// point (SNOP) every iteration keeps its spin yield, so the engine probes
// it, but each SNOP mirrors the point into data memory and records a
// barrier arrival. The recurrence proof must reject the loop through the
// data-memory write generation, and the run must stay bit-identical,
// boundary instants included.
func TestSpinFastForwardRejectsSyncPoll(t *testing.T) {
	snopConsumer := `
.code consumer
    li   r2, 0
    li   r6, 6
    li   r7, 200
wait:
    snop #0             ; register on point 0 every iteration
    lw   r1, 0(r7)
    beq  r1, r2, wait
    addi r2, r2, 1
    blt  r2, r6, wait
    halt
`
	mk := func(t *testing.T) *Image {
		return buildImage(t, 0x2000, 1, []string{spinProducerSrc, snopConsumer}, []int{0, 64},
			[]DataSeg{{Base: 200, Words: []uint16{0}}})
	}
	cfg := nosyncCfg()
	cfg.Arch = power.MC
	exact, fast := runModes(t, cfg, mk, 40_000)
	assertIdentical(t, exact, fast)
	if n := countKind(fast.Observer().Timeline().Events(), obs.KindBarrierArrive); n == 0 {
		t.Fatal("the SNOP poll recorded no barrier arrivals")
	}
	if fast.SpinLeaps() != 0 {
		t.Errorf("spin engine leapt %d times over a SNOP poll, want 0", fast.SpinLeaps())
	}
	// Mid-poll the consumer is yielded: the loop was nominated, and the
	// proof is what turned it down.
	p, err := New(cfg, mk(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(10_000); err != nil {
		t.Fatal(err)
	}
	if !p.block.yield[1].on {
		t.Error("the SNOP poll loop holds no spin yield mid-poll")
	}
}

// TestSpinFastForwardRejectsEventRendezvous: two cores meet at an event
// rendezvous (SEVS) and sleep in a tight loop. The rendezvous wakes the
// sleeper without writing data memory, so the platform state recurs every
// round, but each round records sleep and wake instants a leap would drop.
func TestSpinFastForwardRejectsEventRendezvous(t *testing.T) {
	first := `
.code first
loop:
    sevs #0<<16|1<<8|3  ; set bit 0, wait for bits 0 and 1
    sleep
    beq  r0, r0, loop
`
	second := `
.code second
loop:
    sevs #0<<16|2<<8|3  ; set bit 1, wait for bits 0 and 1
    sleep
    beq  r0, r0, loop
`
	mk := func(t *testing.T) *Image {
		return buildImage(t, 0x2000, 0, []string{first, second}, []int{0, 64}, nil)
	}
	exact, fast := runModes(t, mcCfg(), mk, 40_000)
	assertIdentical(t, exact, fast)
	if fast.SpinLeaps() != 0 {
		t.Errorf("spin engine leapt %d times over an event rendezvous, want 0", fast.SpinLeaps())
	}
}

// TestSpinFastForwardRejectsMarchingRegisters: a poll loop with an
// iteration counter is PC-periodic but its register state never recurs, so
// the platform's periodicity proof must fail and no leap may happen.
func TestSpinFastForwardRejectsMarchingRegisters(t *testing.T) {
	countingConsumer := `
.code consumer
    li   r2, 0
    li   r6, 6
    li   r7, 200
    li   r3, 0
wait:
    addi r3, r3, 1      ; iteration counter: state never recurs
    lw   r1, 0(r7)
    beq  r1, r2, wait
    addi r2, r2, 1
    blt  r2, r6, wait
    halt
`
	mk := func(t *testing.T) *Image { return busyWaitImage(t, countingConsumer) }
	exact, fast := runModes(t, nosyncCfg(), mk, 40_000)
	assertIdentical(t, exact, fast)
	if fast.SpinLeaps() != 0 {
		t.Errorf("spin engine leapt %d times despite marching registers, want 0", fast.SpinLeaps())
	}
}

// TestSpinFastForwardRejectsUnstableMMIO: polling the cycle counter reads a
// different value every iteration. The observed value lands in a register,
// so the recurrence proof fails by construction and the loop must step.
func TestSpinFastForwardRejectsUnstableMMIO(t *testing.T) {
	src := `
.code main
    li   r7, 0x7F01     ; RegCycleLo
    li   r6, 20000
spin:
    lw   r1, 0(r7)
    bltu r1, r6, spin
    halt
`
	mk := func(t *testing.T) *Image {
		return buildImage(t, 0, 0, []string{src}, []int{0}, nil)
	}
	exact, fast := runModes(t, scCfg(), mk, 30_000)
	assertIdentical(t, exact, fast)
	if !fast.AllHalted() {
		t.Fatal("cycle-poll loop did not terminate")
	}
	if fast.SpinLeaps() != 0 {
		t.Errorf("spin engine leapt %d times over an unstable MMIO poll, want 0", fast.SpinLeaps())
	}
}

// TestSpinFastForwardRejectsLongLoop: a loop body of maxSpinPeriod
// instructions or more opens no spin yield, so it is never nominated.
func TestSpinFastForwardRejectsLongLoop(t *testing.T) {
	longConsumer := `
.code consumer
    li   r2, 0
    li   r6, 6
    li   r7, 200
wait:
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    nop
    lw   r1, 0(r7)
    beq  r1, r2, wait
    addi r2, r2, 1
    blt  r2, r6, wait
    halt
`
	mk := func(t *testing.T) *Image { return busyWaitImage(t, longConsumer) }
	exact, fast := runModes(t, nosyncCfg(), mk, 40_000)
	assertIdentical(t, exact, fast)
	if fast.SpinLeaps() != 0 {
		t.Errorf("spin engine leapt %d times over a %d-instruction loop, want 0", fast.SpinLeaps(), 28)
	}
}

// TestSpinFastForwardStatistics pins the statistics contract: exact mode
// reports zeros, fast mode reports the leap work, and Restore resets the
// diagnostics without touching architectural state.
func TestSpinFastForwardStatistics(t *testing.T) {
	mk := func(t *testing.T) *Image { return busyWaitImage(t, spinConsumerSrc) }
	cfg := nosyncCfg()
	cfg.Exact = false
	p, err := New(cfg, mk(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(12_000); err != nil {
		t.Fatal(err)
	}
	if p.SpinLeaps() == 0 || p.SpinSkippedCycles() == 0 {
		t.Fatalf("expected spin leaps mid-run, got %d leaps / %d cycles", p.SpinLeaps(), p.SpinSkippedCycles())
	}
	snap := p.Snapshot()
	q, err := New(cfg, mk(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if q.SpinLeaps() != 0 || q.SpinSkippedCycles() != 0 {
		t.Errorf("restored platform reports %d leaps / %d skipped, want fresh diagnostics", q.SpinLeaps(), q.SpinSkippedCycles())
	}
	// Continuing the restored platform must still match a straight run.
	if err := p.Run(28_000); err != nil {
		t.Fatal(err)
	}
	if err := q.Run(28_000); err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, p, q)
}
