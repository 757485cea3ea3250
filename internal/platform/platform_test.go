package platform

import (
	"math"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/power"
)

// buildImage assembles each source as one code block placed at the given
// bases, with entries one per source.
func buildImage(t *testing.T, sharedLimit uint16, nsync int, srcs []string, bases []int, data []DataSeg) *Image {
	t.Helper()
	img := &Image{SharedLimit: sharedLimit, NumSyncPoints: nsync, Shared: data}
	for i, src := range srcs {
		code, _, _, err := asm.AssembleSnippet(src, bases[i], 0)
		if err != nil {
			t.Fatalf("source %d: %v", i, err)
		}
		img.Code = append(img.Code, CodeSeg{Base: bases[i], Words: code})
		img.Entries = append(img.Entries, bases[i])
		img.StaticInstrs += len(code)
		for _, w := range code {
			if isa.Decode(w).Op.IsSyncExtension() {
				img.StaticSyncInstrs++
			}
		}
	}
	return img
}

func mcCfg() Config {
	return Config{Arch: power.MC, ClockHz: 1e6, VoltageV: 0.5}
}

func scCfg() Config {
	return Config{Arch: power.SC, ClockHz: 1e6, VoltageV: 0.6}
}

func TestSCSimpleProgram(t *testing.T) {
	src := `
.code main
    li   r1, 5
    li   r2, 7
    add  r3, r1, r2
    li   r4, 100
    sw   r3, 0(r4)
    halt
`
	img := buildImage(t, 0, 0, []string{src}, []int{0}, []DataSeg{{Base: 100, Words: []uint16{0}}})
	p, err := New(scCfg(), img)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(100); err != nil {
		t.Fatal(err)
	}
	if !p.AllHalted() {
		t.Fatal("program did not halt")
	}
	v, ok := p.PeekData(0, 100)
	if !ok || v != 12 {
		t.Errorf("mem[100] = %d (%v), want 12", v, ok)
	}
	c := p.Counters()
	if c.Instrs == 0 || c.IMAccesses != c.IMReqs {
		t.Errorf("SC counters odd: %+v", c)
	}
}

func TestSCCoreIDAndCycleMMIO(t *testing.T) {
	src := `
.code main
    li   r4, 0x7F00    ; RegCoreID
    lw   r1, 0(r4)
    li   r4, 0x7F01    ; RegCycleLo
    lw   r2, 0(r4)
    li   r4, 200
    sw   r1, 0(r4)
    sw   r2, 1(r4)
    halt
`
	img := buildImage(t, 0, 0, []string{src}, []int{0}, []DataSeg{{Base: 200, Words: []uint16{9, 9}}})
	p, err := New(scCfg(), img)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(100); err != nil {
		t.Fatal(err)
	}
	id, _ := p.PeekData(0, 200)
	cyc, _ := p.PeekData(0, 201)
	if id != 0 {
		t.Errorf("core id = %d", id)
	}
	if cyc == 0 {
		t.Error("cycle counter must be non-zero")
	}
	if p.Counters().MMIOReads != 2 {
		t.Errorf("MMIOReads = %d, want 2", p.Counters().MMIOReads)
	}
}

func TestSCADCSleepLoop(t *testing.T) {
	// Subscribe to channel 0, collect 4 samples into a buffer, halt.
	src := `
.code main
    li   r4, 0x7F03     ; RegIRQSub
    li   r1, 1          ; IRQADC0
    sw   r1, 0(r4)
    li   r2, 300        ; buffer
    li   r3, 0          ; count
    li   r6, 4
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
    add  r5, r2, r3
    sw   r1, 0(r5)
    addi r3, r3, 1
    blt  r3, r6, loop
    halt
`
	img := buildImage(t, 0, 0, []string{src}, []int{0}, []DataSeg{{Base: 300, Words: make([]uint16, 4)}})
	cfg := scCfg()
	cfg.SampleRateHz = 250
	cfg.Traces[0] = []int16{11, 22, 33, 44, 55}
	p, err := New(cfg, img)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(30_000); err != nil {
		t.Fatal(err)
	}
	if !p.AllHalted() {
		t.Fatal("did not halt: ADC sleep loop stuck")
	}
	for i, want := range []uint16{11, 22, 33, 44} {
		if v, _ := p.PeekData(0, uint16(300+i)); v != want {
			t.Errorf("sample %d = %d, want %d", i, v, want)
		}
	}
	if p.Overruns() != 0 {
		t.Errorf("overruns = %d", p.Overruns())
	}
	c := p.Counters()
	if c.CoreGated == 0 {
		t.Error("core should have been clock-gated while waiting")
	}
	if c.IRQs < 4 {
		t.Errorf("IRQs = %d, want >= 4", c.IRQs)
	}
}

const producerSrc = `
.equ PT, 0
.equ WIDX, 16
.equ BUF, 17
.code producer
    li   r2, 0        ; widx
    li   r3, 1        ; value
    li   r4, 6        ; produce 1..5
ploop:
    sinc #PT
    li   r5, BUF
    add  r5, r5, r2
    sw   r3, 0(r5)
    addi r2, r2, 1
    li   r6, WIDX
    sw   r2, 0(r6)
    sdec #PT
    addi r3, r3, 1
    blt  r3, r4, ploop
    halt
`

const consumerSrc = `
.equ PT, 0
.equ WIDX, 16
.equ BUF, 17
.equ RESULT, 30
.code consumer
    li   r2, 0      ; ridx
    li   r7, 0      ; sum
    li   r4, 5
cloop:
    snop #PT
    li   r6, WIDX
    lw   r5, 0(r6)
    bne  r5, r2, have
    sleep
    j    cloop
have:
    li   r6, BUF
    add  r6, r6, r2
    lw   r5, 0(r6)
    add  r7, r7, r5
    addi r2, r2, 1
    blt  r2, r4, cloop
    li   r6, RESULT
    sw   r7, 0(r6)
    halt
`

func producerConsumerImage(t *testing.T) *Image {
	return buildImage(t, 0x2000, 1,
		[]string{producerSrc, consumerSrc},
		[]int{0, isa.IMBankWords}, // separate IM banks
		[]DataSeg{{Base: 16, Words: make([]uint16, 32)}})
}

func TestMCProducerConsumer(t *testing.T) {
	p, err := New(mcCfg(), producerConsumerImage(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(10_000); err != nil {
		t.Fatal(err)
	}
	if !p.AllHalted() {
		t.Fatalf("deadlock: states %v %v, cycle %d", p.CoreState(0), p.CoreState(1), p.Cycle())
	}
	sum, _ := p.PeekData(0, 30)
	if sum != 15 {
		t.Errorf("consumer sum = %d, want 15", sum)
	}
	c := p.Counters()
	if c.SyncOps == 0 || c.SyncPointWrites == 0 {
		t.Error("sync activity expected")
	}
	if len(p.Violations()) != 0 {
		t.Errorf("violations: %v", p.Violations())
	}
	if p.ActiveIMBanks() != 2 {
		t.Errorf("active IM banks = %d, want 2", p.ActiveIMBanks())
	}
	if p.ActiveDMBanks() != isa.DMBanks {
		t.Errorf("active DM banks = %d, want all %d (ATU rule)", p.ActiveDMBanks(), isa.DMBanks)
	}
}

func TestMCProducerConsumerConsumerFaster(t *testing.T) {
	// Same program, but verify the consumer actually sleeps and is woken:
	// the consumer spins up before the producer finishes an item.
	p, err := New(mcCfg(), producerConsumerImage(t))
	if err != nil {
		t.Fatal(err)
	}
	sawGated := false
	for i := 0; i < 10_000 && !p.AllHalted(); i++ {
		if err := p.Step(); err != nil {
			t.Fatal(err)
		}
		if p.CoreState(1) == core.StateGated {
			sawGated = true
		}
	}
	if !sawGated {
		t.Error("consumer never clock-gated")
	}
	if p.Counters().SyncWakes == 0 {
		t.Error("no sync wakes recorded")
	}
	if sum, _ := p.PeekData(0, 30); sum != 15 {
		t.Errorf("sum = %d, want 15", sum)
	}
}

// lockstepSrc runs an identical compute loop on both cores: sums a shared
// table into a private accumulator, stores the result to a per-core shared
// mailbox, then halts. Both cores execute the same code words from the same
// IM bank: in lock-step, every fetch pair merges into one broadcast access.
const lockstepSrc = `
.equ TAB, 16
.equ OUT, 80
.code work
    li   r4, 0x7F00   ; core id
    lw   r10, 0(r4)
    li   r2, TAB
    li   r3, 0        ; i
    li   r4, 32       ; n
    li   r7, 0        ; sum
wloop:
    add  r5, r2, r3
    lw   r6, 0(r5)
    add  r7, r7, r6
    addi r3, r3, 1
    blt  r3, r4, wloop
    li   r6, OUT
    add  r6, r6, r10
    sw   r7, 0(r6)
    halt
`

func lockstepImage(t *testing.T) *Image {
	tab := make([]uint16, 32)
	total := uint16(0)
	for i := range tab {
		tab[i] = uint16(i * 3)
		total += tab[i]
	}
	img := buildImage(t, 0x2000, 0, []string{lockstepSrc}, []int{0},
		[]DataSeg{{Base: 16, Words: tab}, {Base: 80, Words: make([]uint16, 8)}})
	// Both cores share the single code segment and entry.
	img.Entries = append(img.Entries, img.Entries[0])
	return img
}

func TestMCLockStepBroadcast(t *testing.T) {
	img := lockstepImage(t)
	p, err := New(mcCfg(), img)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(10_000); err != nil {
		t.Fatal(err)
	}
	if !p.AllHalted() {
		t.Fatal("did not halt")
	}
	want := uint16(0)
	for i := 0; i < 32; i++ {
		want += uint16(i * 3)
	}
	for c := 0; c < 2; c++ {
		if v, _ := p.PeekData(0, uint16(80+c)); v != want {
			t.Errorf("core %d sum = %d, want %d", c, v, want)
		}
	}
	ctr := p.Counters()
	if ctr.IMAccesses >= ctr.IMReqs {
		t.Errorf("no broadcast merging: reqs %d, accesses %d", ctr.IMReqs, ctr.IMAccesses)
	}
	// Perfect lock-step would merge nearly every fetch pair: expect close
	// to 50% broadcast (both cores run the identical instruction stream).
	if pct := ctr.IMBroadcastPct(); pct < 45 {
		t.Errorf("IM broadcast = %.1f%%, want ~50%%", pct)
	}
	// The shared table reads also merge.
	if ctr.DMBroadcastPct() <= 0 {
		t.Errorf("DM broadcast = %.1f%%, want > 0", ctr.DMBroadcastPct())
	}
}

// divergeSrc exercises lock-step recovery across a data-dependent branch
// (paper Fig. 3-b): each core runs a per-core-length inner loop wrapped in
// SINC/SDEC+SLEEP. After the sync point releases, the cores are re-aligned.
const divergeSrc = `
.equ PT, 0
.equ OUT, 80
.code work
    li   r4, 0x7F00
    lw   r10, 0(r4)    ; core id
    ; divergent region: loop (id+1)*8 times
    sinc #PT
    addi r3, r10, 1
    slli r3, r3, 3
    li   r7, 0
dloop:
    addi r7, r7, 1
    blt  r7, r3, dloop
    sdec #PT
    sleep
    ; aligned region: 32 aligned iterations
    li   r3, 0
    li   r4, 32
    li   r7, 0
aloop:
    addi r7, r7, 2
    addi r3, r3, 1
    blt  r3, r4, aloop
    li   r6, OUT
    add  r6, r6, r10
    sw   r7, 0(r6)
    halt
`

func TestMCLockStepRecoveryAfterDivergence(t *testing.T) {
	img := buildImage(t, 0x2000, 1, []string{divergeSrc}, []int{0},
		[]DataSeg{{Base: 16, Words: make([]uint16, 8)}, {Base: 80, Words: make([]uint16, 8)}})
	img.Entries = append(img.Entries, img.Entries[0])
	p, err := New(mcCfg(), img)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(10_000); err != nil {
		t.Fatal(err)
	}
	if !p.AllHalted() {
		t.Fatalf("did not halt: %v %v", p.CoreState(0), p.CoreState(1))
	}
	for c := 0; c < 2; c++ {
		if v, _ := p.PeekData(0, uint16(80+c)); v != 64 {
			t.Errorf("core %d result = %d, want 64", c, v)
		}
	}
	// The aligned region dominates; most fetches after recovery merge.
	if pct := p.Counters().IMBroadcastPct(); pct < 25 {
		t.Errorf("IM broadcast = %.1f%% — lock-step was not recovered", pct)
	}
	if len(p.Violations()) != 0 {
		t.Errorf("violations: %v", p.Violations())
	}
}

// busywaitProducer/Consumer implement the same pipeline without the sync ISE
// (the paper's "MC (no synch)" bar in Figure 6): flags in shared memory and
// spin loops.
const busyProducerSrc = `
.equ WIDX, 16
.equ BUF, 17
.code producer
    li   r2, 0
    li   r3, 1
    li   r4, 6
ploop:
    li   r5, BUF
    add  r5, r5, r2
    sw   r3, 0(r5)
    addi r2, r2, 1
    li   r6, WIDX
    sw   r2, 0(r6)
    addi r3, r3, 1
    blt  r3, r4, ploop
    halt
`

const busyConsumerSrc = `
.equ WIDX, 16
.equ BUF, 17
.equ RESULT, 30
.code consumer
    li   r2, 0
    li   r7, 0
    li   r4, 5
cloop:
    li   r6, WIDX
    lw   r5, 0(r6)
    beq  r5, r2, cloop   ; active waiting
    li   r6, BUF
    add  r6, r6, r2
    lw   r5, 0(r6)
    add  r7, r7, r5
    addi r2, r2, 1
    blt  r2, r4, cloop
    li   r6, RESULT
    sw   r7, 0(r6)
    halt
`

func TestMCNoSyncBusyWait(t *testing.T) {
	img := buildImage(t, 0x2000, 0,
		[]string{busyProducerSrc, busyConsumerSrc},
		[]int{0, isa.IMBankWords},
		[]DataSeg{{Base: 16, Words: make([]uint16, 32)}})
	cfg := mcCfg()
	cfg.Arch = power.MCNoSync
	p, err := New(cfg, img)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(10_000); err != nil {
		t.Fatal(err)
	}
	if !p.AllHalted() {
		t.Fatal("busy-wait version did not finish")
	}
	if sum, _ := p.PeekData(0, 30); sum != 15 {
		t.Errorf("sum = %d, want 15", sum)
	}
	c := p.Counters()
	if c.SyncOps != 0 || c.SyncInstrs != 0 {
		t.Error("no sync ISE activity expected")
	}
	if c.CoreGated != 0 {
		t.Error("busy-waiting cores must never be clock-gated")
	}
}

func TestIMBankConflictSerializes(t *testing.T) {
	// Two different programs placed in the same IM bank: every cycle both
	// cores fetch different addresses from one bank and must serialize.
	a := ".code a\nx: addi r1, r1, 1\n blt r1, r2, x\n halt\n"
	b := ".code b\ny: addi r1, r1, 1\n blt r1, r2, y\n halt\n"
	img := buildImage(t, 0x2000, 0, []string{a, b}, []int{0, 100}, nil)
	p, err := New(mcCfg(), img)
	if err != nil {
		t.Fatal(err)
	}
	// Set both loop bounds via direct register poke: run a few cycles
	// then inspect stalls. Loop bound r2=0 means branch never taken
	// after first increment; just run to halt.
	if err := p.Run(1_000); err != nil {
		t.Fatal(err)
	}
	if p.Counters().IMConflict == 0 {
		t.Error("expected IM conflicts between same-bank programs")
	}
	if p.Counters().CoreStall == 0 {
		t.Error("expected stall cycles")
	}
}

func TestPrivateDataIsolation(t *testing.T) {
	// Each core stores its id at the same private logical address, then
	// reads it back into a shared mailbox. Values must not interfere.
	src := `
.equ PRIVADDR, 0x3000
.equ OUT, 40
.code work
    li   r4, 0x7F00
    lw   r10, 0(r4)
    li   r2, PRIVADDR
    addi r3, r10, 77
    sw   r3, 0(r2)
    ; read back
    lw   r5, 0(r2)
    li   r6, OUT
    add  r6, r6, r10
    sw   r5, 0(r6)
    halt
`
	img := buildImage(t, 0x2000, 0, []string{src}, []int{0},
		[]DataSeg{{Base: 40, Words: make([]uint16, 8)}})
	img.Entries = append(img.Entries, img.Entries[0])
	img.Entries = append(img.Entries, img.Entries[0])
	p, err := New(mcCfg(), img)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(5_000); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 3; c++ {
		if v, _ := p.PeekData(0, uint16(40+c)); v != uint16(77+c) {
			t.Errorf("core %d read back %d, want %d", c, v, 77+c)
		}
	}
}

func TestPrivSegmentLoading(t *testing.T) {
	src := `
.equ PRIVADDR, 0x3000
.equ OUT, 40
.code work
    li r4, 0x7F00
    lw r10, 0(r4)
    li r2, PRIVADDR
    lw r5, 0(r2)
    li r6, OUT
    add r6, r6, r10
    sw r5, 0(r6)
    halt
`
	img := buildImage(t, 0x2000, 0, []string{src}, []int{0},
		[]DataSeg{{Base: 40, Words: make([]uint16, 4)}})
	img.Entries = append(img.Entries, img.Entries[0])
	img.Priv = []PrivSeg{
		{Core: 0, Base: 0x3000, Words: []uint16{111}},
		{Core: 1, Base: 0x3000, Words: []uint16{222}},
	}
	p, err := New(mcCfg(), img)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(5_000); err != nil {
		t.Fatal(err)
	}
	v0, _ := p.PeekData(0, 40)
	v1, _ := p.PeekData(0, 41)
	if v0 != 111 || v1 != 222 {
		t.Errorf("private loads: got %d, %d; want 111, 222", v0, v1)
	}
}

func TestFetchFromPoweredOffBankFaults(t *testing.T) {
	src := ".code main\n j far\nfar:\n halt\n"
	code, _, _, err := asm.AssembleSnippet(src, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	img := &Image{
		Code:    []CodeSeg{{Base: 0, Words: code[:1]}}, // jump only; target bank never loaded
		Entries: []int{0},
	}
	// Point the jump far outside the loaded bank.
	img.Code[0].Words = []isa.Word{isa.MustEncode(isa.Instr{Op: isa.OpJAL, Rd: 0, Imm: 8000})}
	p, err := New(scCfg(), img)
	if err != nil {
		t.Fatal(err)
	}
	err = p.Run(10)
	if err == nil || !strings.Contains(err.Error(), "powered-off") {
		t.Errorf("want powered-off fetch fault, got %v", err)
	}
}

func TestDataAccessToPoweredOffBankFaults(t *testing.T) {
	// SC linear mapping: only the bank holding address 100 is on; address
	// 0x4000 lives in an unpowered bank.
	src := ".code main\n li r4, 0x4000\n lw r1, 0(r4)\n halt\n"
	img := buildImage(t, 0, 0, []string{src}, []int{0}, []DataSeg{{Base: 100, Words: []uint16{1}}})
	p, err := New(scCfg(), img)
	if err != nil {
		t.Fatal(err)
	}
	err = p.Run(10)
	if err == nil || !strings.Contains(err.Error(), "powered-off") {
		t.Errorf("want powered-off data fault, got %v", err)
	}
}

func TestDebugAndErrPorts(t *testing.T) {
	src := `
.code main
    li   r4, 0x7F10
    li   r1, 42
    sw   r1, 0(r4)
    li   r4, 0x7F11
    li   r1, 7
    sw   r1, 0(r4)
    halt
`
	img := buildImage(t, 0, 0, []string{src}, []int{0}, nil)
	p, err := New(scCfg(), img)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(100); err != nil {
		t.Fatal(err)
	}
	if len(p.Debug()) != 1 || p.Debug()[0].Value != 42 {
		t.Errorf("debug = %v", p.Debug())
	}
	if len(p.ErrCodes()) != 1 || p.ErrCodes()[0].Value != 7 {
		t.Errorf("errs = %v", p.ErrCodes())
	}
}

func TestBranchBubbleAccounting(t *testing.T) {
	// A tight taken-branch loop: every iteration is 1 execute + 1 bubble.
	src := `
.code main
    li r1, 0
    li r2, 10
loop:
    addi r1, r1, 1
    blt  r1, r2, loop
    halt
`
	img := buildImage(t, 0, 0, []string{src}, []int{0}, nil)
	p, err := New(scCfg(), img)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(100); err != nil {
		t.Fatal(err)
	}
	c := p.Counters()
	if c.BranchBubbles != 9 { // 9 taken, final fall-through
		t.Errorf("BranchBubbles = %d, want 9", c.BranchBubbles)
	}
	// Stall cycles include the burned bubbles.
	if c.CoreStall < 9 {
		t.Errorf("CoreStall = %d, want >= 9", c.CoreStall)
	}
}

func TestPowerReportFromRun(t *testing.T) {
	img := producerConsumerImage(t)
	p, err := New(mcCfg(), img)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(10_000); err != nil {
		t.Fatal(err)
	}
	r, err := p.PowerReport(power.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.TotalUW <= 0 {
		t.Error("power must be positive")
	}
	if r.ComponentUW(power.CompSync) <= 0 {
		t.Error("MC run must show synchronizer power")
	}
}

func TestConfigValidation(t *testing.T) {
	img := &Image{Entries: []int{0, 0}}
	if _, err := New(scCfg(), img); err == nil {
		t.Error("SC with 2 cores must fail")
	}
	img2 := &Image{Entries: []int{0}}
	cfg := scCfg()
	cfg.ClockHz = 0
	if _, err := New(cfg, img2); err == nil {
		t.Error("zero clock must fail")
	}
	if _, err := New(scCfg(), &Image{}); err == nil {
		t.Error("no entries must fail")
	}
}

// TestConfigRejectsAbsurdOperatingPoints: New takes only a finite, positive
// clock and supply voltage up to MaxClockHz and MaxVoltageV. A NaN clock
// used to pass the old non-positive check and simulate 2^63 "cycles" with
// NaN powers, and a negative voltage printed negative leakage.
func TestConfigRejectsAbsurdOperatingPoints(t *testing.T) {
	img := func() *Image {
		return &Image{
			Entries: []int{0},
			Code:    []CodeSeg{{Base: 0, Words: []isa.Word{isa.MustEncode(isa.Instr{Op: isa.OpHALT})}}},
		}
	}
	cases := []struct {
		name           string
		clock, voltage float64
		want           string // error substring; empty when valid
	}{
		{"clock NaN", math.NaN(), 0.6, "clock"},
		{"clock +Inf", math.Inf(1), 0.6, "clock"},
		{"clock -Inf", math.Inf(-1), 0.6, "clock"},
		{"clock 0", 0, 0.6, "clock"},
		{"clock -1", -1, 0.6, "clock"},
		{"clock 1e300", 1e300, 0.6, "clock"},
		{"voltage NaN", 1e6, math.NaN(), "voltage"},
		{"voltage -1", 1e6, -1, "voltage"},
		{"ceilings", MaxClockHz, MaxVoltageV, ""},
		{"fastest VFS point", 19e6, 1.2, ""},
	}
	for _, tc := range cases {
		cfg := scCfg()
		cfg.ClockHz, cfg.VoltageV = tc.clock, tc.voltage
		_, err := New(cfg, img())
		switch {
		case tc.want == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Errorf("%s: error %v, want one naming the %s", tc.name, err, tc.want)
		}
	}
}

// TestRunSecondsRejectsBadDurations: a negative or non-finite duration is
// an error and leaves the cycle where it was; it used to wrap into a
// near-endless cycle budget.
func TestRunSecondsRejectsBadDurations(t *testing.T) {
	p, err := New(mcCfg(), blockKernelMCImage())
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []float64{-1, math.NaN(), math.Inf(1)} {
		if err := p.RunSeconds(s); err == nil || p.Cycle() != 0 {
			t.Errorf("RunSeconds(%v): error %v at cycle %d, want an error at cycle 0", s, err, p.Cycle())
		}
	}
	if err := p.RunSeconds(0); err != nil || p.Cycle() != 0 {
		t.Errorf("RunSeconds(0): error %v at cycle %d, want none at cycle 0", err, p.Cycle())
	}
}

func TestCodeOverheadPct(t *testing.T) {
	img := &Image{StaticInstrs: 200, StaticSyncInstrs: 5}
	if got := img.CodeOverheadPct(); got != 2.5 {
		t.Errorf("CodeOverheadPct = %v, want 2.5", got)
	}
	if (&Image{}).CodeOverheadPct() != 0 {
		t.Error("empty image overhead must be 0")
	}
}

func TestMCDataSegmentOutsideMMIO(t *testing.T) {
	img := &Image{
		Entries: []int{0},
		Code:    []CodeSeg{{Base: 0, Words: []isa.Word{isa.MustEncode(isa.Instr{Op: isa.OpHALT})}}},
		Shared:  []DataSeg{{Base: isa.MMIOBase - 1, Words: []uint16{1, 2}}},
	}
	if _, err := New(mcCfg(), img); err == nil {
		t.Error("data reaching MMIO must fail to load")
	}
}
