package platform

import (
	"strings"
	"testing"

	"repro/internal/isa"
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
    sw   r2, 1(r7)      ; and a copy, in another DM bank, for a second consumer
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

// secondConsumer is spinConsumerSrc on the counter's copy, accumulating
// into the word after the first consumer's sum: both words lie in DM banks
// of their own, so the two consumers can park side by side.
func secondConsumer() string {
	r := strings.NewReplacer("li   r7, 200", "li   r7, 201", "li   r5, 300", "li   r5, 301")
	return r.Replace(spinConsumerSrc)
}

// busyWaitImage builds the producer with the given consumers, the first at
// IM address 64 behind it and each further one in its own IM bank.
func busyWaitImage(t *testing.T, consumers ...string) *Image {
	t.Helper()
	srcs, bases := []string{spinProducerSrc}, []int{0}
	for i, c := range consumers {
		srcs, bases = append(srcs, c), append(bases, max(64, i*isa.IMBankWords))
	}
	return buildImage(t, 0x2000, 0, srcs, bases,
		[]DataSeg{{Base: 200, Words: []uint16{0, 0}}, {Base: 300, Words: []uint16{0, 0}}})
}

// TestSpinFastForwardBusyWait is the canonical busy-wait case: the MC-nosync
// producer with two consumers in their own IM banks, whose poll loops defeat
// quiescence detection. Between samples both consumers poll, so strides park
// them and leap to the next ADC event: the leaps must cover most of the run
// while it stays bit-identical to the exact path.
func TestSpinFastForwardBusyWait(t *testing.T) {
	second := secondConsumer()
	mk := func(t *testing.T) *Image { return busyWaitImage(t, spinConsumerSrc, second) }
	exact, fast := runModes(t, nosyncCfg(), mk, 40_000)
	assertIdentical(t, exact, fast)
	if !fast.AllHalted() {
		t.Fatal("busy-wait run did not complete")
	}
	for addr := uint16(300); addr <= 301; addr++ {
		if sum, _ := fast.PeekData(0, addr); sum != 1+2+3+4+5+6 {
			t.Errorf("consumer sum at %d = %d, want 21", addr, sum)
		}
	}
	if leapt := fast.BlockMCLeaptCycles(); leapt < fast.Cycle()/2 {
		t.Errorf("strides leapt only %d of %d cycles with every poller parked; want most", leapt, fast.Cycle())
	}
}

// TestSpinFastForwardDeadlockedSpin covers a spin with no wake source at
// all (single core polling the host flag, no ADC). A lone poller is never
// parked and an MMIO poll never leaps: the run must still reach the cycle
// budget bit-identically, on Step and single-core blocks.
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
}

// TestSpinFastForwardRejectsStores: a poll loop that also stores every
// iteration writes data memory; the run must stay bit-identical.
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
}

// TestSpinFastForwardRejectsSyncPoll: a poll loop that registers on a sync
// point (SNOP) every iteration mirrors the point into data memory and
// records a barrier arrival each time. The run must stay bit-identical,
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
}

// TestSpinFastForwardRejectsEventRendezvous: two cores meet at an event
// rendezvous (SEVS) and sleep in a tight loop. The rendezvous wakes the
// sleeper without writing data memory, and each round records sleep and
// wake instants the fast run must reproduce.
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
}

// TestSpinFastForwardRejectsMarchingRegisters: a poll loop with an
// iteration counter is PC-periodic but its register state never recurs; the
// run must stay bit-identical.
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
}

// TestSpinFastForwardRejectsUnstableMMIO: polling the cycle counter reads a
// different value every iteration; the run must stay bit-identical.
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
}

// TestSpinFastForwardRejectsLongLoop: a loop body of maxPollLoop
// instructions or more opens no poll span; the run must stay bit-identical.
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
}

// TestSpinFastForwardStatistics pins the statistics contract: fast mode
// reports the all-parked leap work, and Restore resets the diagnostics
// without touching architectural state.
func TestSpinFastForwardStatistics(t *testing.T) {
	second := secondConsumer()
	mk := func(t *testing.T) *Image { return busyWaitImage(t, spinConsumerSrc, second) }
	cfg := nosyncCfg()
	p, err := New(cfg, mk(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(12_000); err != nil {
		t.Fatal(err)
	}
	if p.BlockMCLeaptCycles() == 0 || p.BlockMCParkedCycles() == 0 {
		t.Fatalf("expected all-parked leaps mid-run, got %d leapt cycles / %d parked core-cycles",
			p.BlockMCLeaptCycles(), p.BlockMCParkedCycles())
	}
	snap := p.Snapshot()
	q, err := New(cfg, mk(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := q.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if q.BlockMCLeaptCycles() != 0 || q.BlockMCParkedCycles() != 0 {
		t.Errorf("restored platform reports %d leapt / %d parked, want fresh diagnostics",
			q.BlockMCLeaptCycles(), q.BlockMCParkedCycles())
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
