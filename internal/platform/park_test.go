package platform

import (
	"strconv"
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
	"repro/internal/obs"
)

// parkWork is a 26-instruction compute body: a loop around it is longer
// than maxSpinPeriod, so the core running it never yields and keeps the
// stride going while its pollers wait.
const parkWork = `
    add  r2, r1, r5
    xor  r3, r2, r1
    addi r1, r1, 3
    srli r2, r3, 1
    add  r1, r1, r2
    xor  r3, r3, r5
    add  r2, r2, r3
    srai r3, r2, 2
    or   r1, r1, r3
    sub  r2, r1, r5
    xor  r1, r1, r2
    addi r3, r3, 5
    add  r1, r1, r3
    srli r2, r1, 2
    xor  r3, r2, r5
    add  r1, r1, r3
    and  r2, r1, r3
    xor  r1, r1, r2
    addi r2, r2, 9
    add  r3, r3, r2
    xor  r1, r1, r3
    srli r2, r3, 3
    add  r1, r1, r2
    xor  r3, r1, r5
    addi r4, r4, 1
    xor  r1, r1, r4
`

// parkWorker returns a worker that runs parkWork iters times, with extra
// instructions inside its loop, then runs release (its store that releases
// the pollers) and keeps computing as long again before it halts, so the
// release lands in the middle of a stride.
func parkWorker(iters int, extra, release string) string {
	return `
.code worker
    li   r7, 200        ; flag word
    li   r6, ` + strconv.Itoa(iters) + `
    li   r5, 0
    li   r1, 1
work:` + parkWork + extra + `
    addi r5, r5, 1
    blt  r5, r6, work
` + release + `
    li   r5, 0
more:` + parkWork + `
    addi r5, r5, 1
    blt  r5, r6, more
    halt
`
}

// parkPoller waits until the flag word differs from 0, then reads the
// cycle counter (MMIO, which ends the stride) and halts: its r8 stamps the
// release cycle.
const parkPoller = `
.code poller
    li   r7, 200
    li   r3, 0
poll:
    lw   r1, 0(r7)
    beq  r1, r3, poll
    li   r13, 0x7F01    ; RegCycleLo
    lw   r8, 0(r13)
    halt
`

// parkImage places the worker in IM bank 0 and each poller at the start of
// IM bank 1, so lock-step copies share one PC; the flag and the words
// around it start at zero.
func parkImage(t *testing.T, worker string, pollers ...string) *Image {
	t.Helper()
	srcs := append([]string{worker}, pollers...)
	bases := []int{0}
	for range pollers {
		bases = append(bases, isa.IMBankWords)
	}
	return buildImage(t, 0x2000, 0, srcs, bases, []DataSeg{{Base: 200, Words: make([]uint16, 48)}})
}

// assertParked checks a fast run against its exact twin and that strides
// parked pollers on the way.
func assertParked(t *testing.T, exact, fast *Platform) {
	t.Helper()
	assertIdentical(t, exact, fast)
	if fast.BlockMCParkedCycles() == 0 {
		t.Error("no poller was parked")
	}
	if exact.BlockMCParkedCycles() != 0 {
		t.Errorf("exact run parked %d core-cycles, want 0", exact.BlockMCParkedCycles())
	}
}

// releaseCycle returns the cycle the poller on core c stamped on leaving
// its loop.
func releaseCycle(t *testing.T, p *Platform, c int) uint16 {
	t.Helper()
	r := p.CoreRegs(c)[8]
	if r == 0 {
		t.Fatalf("core %d never left its poll loop", c)
	}
	return r
}

// TestParkReleasedByStore: a poller alone in its IM bank parks while the
// worker computes, and the worker's store to the flag materializes it on
// the exact cycle — its release stamp and every counter match -exact.
func TestParkReleasedByStore(t *testing.T) {
	mk := func(t *testing.T) *Image {
		return parkImage(t, parkWorker(200, "", "    sw   r5, 0(r7)"), parkPoller)
	}
	exact, fast := runModes(t, mcCfg(), mk, 40_000)
	assertParked(t, exact, fast)
	releaseCycle(t, fast, 1)
	if got, want := fast.BlockMCParkedCycles(), uint64(4000); got < want {
		t.Errorf("parked %d core-cycles, want at least %d of the worker's", got, want)
	}
}

// TestParkDataBankCollision: the worker loads and stores other words of
// the flag's DM bank every iteration. Each access in a cycle the parked
// poller loads is a bank conflict, not a read-set hit: the poller must be
// materialized before the cycle is planned and arbitrated with it.
func TestParkDataBankCollision(t *testing.T) {
	const extra = `
    lw   r9, 16(r7)     ; flag bank, another word
    add  r9, r9, r1
    sw   r9, 32(r7)     ; flag bank, a third word
    lw   r10, 16(r7)`
	mk := func(t *testing.T) *Image {
		return parkImage(t, parkWorker(200, extra, "    sw   r5, 0(r7)"), parkPoller)
	}
	exact, fast := runModes(t, mcCfg(), mk, 40_000)
	assertParked(t, exact, fast)
	releaseCycle(t, fast, 1)
	if exact.Counters().DMConflict == 0 {
		t.Error("the worker's accesses never conflicted with the poller's loads")
	}
}

// TestParkFetchBankCollision: the worker calls a helper placed in the
// poller's IM bank once per iteration. Its fetches there collide with the
// parked poller's, which must be materialized and arbitrated.
func TestParkFetchBankCollision(t *testing.T) {
	const helperBase = isa.IMBankWords + 0x100
	mk := func(t *testing.T) *Image {
		img := parkImage(t, parkWorker(150, "\n    call "+strconv.Itoa(helperBase), "    sw   r5, 0(r7)"), parkPoller)
		helper, _, _, err := asm.AssembleSnippet(`
.code helper
    xor  r11, r11, r1
    add  r12, r12, r11
    srli r11, r12, 1
    ret
`, helperBase, 0)
		if err != nil {
			t.Fatal(err)
		}
		img.Code = append(img.Code, CodeSeg{Base: helperBase, Words: helper})
		return img
	}
	exact, fast := runModes(t, mcCfg(), mk, 40_000)
	assertParked(t, exact, fast)
	releaseCycle(t, fast, 1)
	if exact.Counters().IMConflict == 0 {
		t.Error("the worker's helper fetches never conflicted with the poller's")
	}
}

// TestParkTwoWordReadSet: the poller waits on the sum of two words. The
// worker first rewrites the second word with the value it holds — a
// read-set hit that changes nothing, after which the poller parks again —
// and later releases it by changing that word.
func TestParkTwoWordReadSet(t *testing.T) {
	poller := `
.code poller
    li   r7, 200
    li   r3, 0
poll:
    lw   r1, 0(r7)
    lw   r2, 1(r7)
    add  r1, r1, r2
    beq  r1, r3, poll
    li   r13, 0x7F01    ; RegCycleLo
    lw   r8, 0(r13)
    halt
`
	// Halfway through, the worker stores the second word's current value
	// (zero); at the end it stores its iteration count there.
	const extra = `
    li   r11, 100
    bne  r5, r11, same
    sw   r0, 1(r7)
same:`
	mk := func(t *testing.T) *Image {
		return parkImage(t, parkWorker(200, extra, "    sw   r5, 1(r7)"), poller)
	}
	exact, fast := runModes(t, mcCfg(), mk, 40_000)
	assertParked(t, exact, fast)
	releaseCycle(t, fast, 1)
	if fast.block.mcParks < 2 {
		t.Errorf("poller parked %d times, want it parked again after the unchanged store", fast.block.mcParks)
	}
}

// TestParkLockStepGroup: three pollers enter one poll loop in lock-step.
// They fetch one PC and load one word in every cycle, so they park as one
// requester whose fetches and loads Arbitrate merges — more parked
// core-cycles than stride cycles — and leave the loop together on the
// exact cycle.
func TestParkLockStepGroup(t *testing.T) {
	mk := func(t *testing.T) *Image {
		return parkImage(t, parkWorker(200, "", "    sw   r5, 0(r7)"), parkPoller, parkPoller, parkPoller)
	}
	exact, fast := runModes(t, mcCfg(), mk, 40_000)
	assertParked(t, exact, fast)
	for c := 1; c <= 3; c++ {
		if releaseCycle(t, fast, c) != releaseCycle(t, fast, 1) {
			t.Errorf("poller %d left the loop on another cycle than poller 1", c)
		}
	}
	if parked, stride := fast.BlockMCParkedCycles(), fast.BlockMCCycles(); parked <= stride {
		t.Errorf("parked %d core-cycles in %d stride cycles: the pollers did not park as one group", parked, stride)
	}
}

// TestParkSplitRun: a run split across two Run calls while the poller is
// parked materializes it at the first call's last cycle, and the second
// call parks it again: the result matches -exact.
func TestParkSplitRun(t *testing.T) {
	const total, split = 40_000, 2_345
	mk := func(t *testing.T) *Image {
		return parkImage(t, parkWorker(200, "", "    sw   r5, 0(r7)"), parkPoller)
	}
	exact, _ := runModes(t, mcCfg(), mk, total)
	fast, err := New(mcCfg(), mk(t))
	if err != nil {
		t.Fatal(err)
	}
	fast.SetObserver(obs.NewSink(obs.NewTimeline(obs.DefaultTimelineCap), nil))
	if err := fast.Run(split); err != nil {
		t.Fatal(err)
	}
	first := fast.BlockMCParkedCycles()
	if first == 0 {
		t.Fatal("no poller parked before the split")
	}
	if fast.block.parked != 0 {
		t.Fatal("a poller is still parked between Run calls")
	}
	if err := fast.Run(total - split); err != nil {
		t.Fatal(err)
	}
	assertParked(t, exact, fast)
	if fast.BlockMCParkedCycles() == first {
		t.Error("no poller parked after the split")
	}
}

// TestParkAllParkedLeap: two cores poll flags in RAM that nothing ever
// writes, each in its own IM and DM bank. Once both are parked nothing can
// change their course, so one stride runs the whole budget and leaps
// nearly all of it, bit-identically to -exact.
func TestParkAllParkedLeap(t *testing.T) {
	poller := func(flag int) string {
		return `
.code poller
    li   r7, ` + strconv.Itoa(flag) + `
poll:
    lw   r1, 0(r7)
    beqz r1, poll
    halt
`
	}
	const budget = 50_000
	mk := func(t *testing.T) *Image {
		return buildImage(t, 0x2000, 0, []string{poller(200), poller(201)}, []int{0, isa.IMBankWords},
			[]DataSeg{{Base: 200, Words: []uint16{0, 0}}})
	}
	exact, fast := runModes(t, mcCfg(), mk, budget)
	assertParked(t, exact, fast)
	if n := fast.BlockMCStrides(); n != 1 {
		t.Errorf("the run took %d strides, want one", n)
	}
	if leapt := fast.BlockMCLeaptCycles(); leapt < budget-100 {
		t.Errorf("leapt %d of %d cycles, want all but the first few", leapt, budget)
	}
}
