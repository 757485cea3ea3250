package platform

import (
	"reflect"
	"testing"

	"repro/internal/asm"
	"repro/internal/interco"
	"repro/internal/isa"
)

// enc builds one encoded instruction word for hand-assembled programs.
func enc(op isa.Opcode, rd, rs1, rs2 uint8, imm int32) isa.Word {
	return isa.MustEncode(isa.Instr{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2, Imm: imm})
}

// diffPrologue sets up the register file every differential program starts
// from: two data-dependent operands, a data-segment base and a small shift
// count — enough straight-line work for the block engine to engage before
// the instruction under test.
func diffPrologue() []isa.Word {
	return []isa.Word{
		enc(isa.OpADDI, 1, 0, 0, 423), // r1 = 0x01A7
		enc(isa.OpADDI, 2, 0, 0, -29), // r2 = 0xFFE3
		enc(isa.OpADDI, 4, 0, 0, 256), // r4 = data base
		enc(isa.OpADDI, 5, 0, 0, 3),   // r5 = shift count
	}
}

// diffProgram wraps a body with the shared prologue, two marker stores for
// control-flow visibility (branch/jump targets land between them) and an
// epilogue that writes results to memory before halting.
func diffProgram(body ...isa.Word) []isa.Word {
	w := diffPrologue()
	w = append(w, body...)
	w = append(w,
		enc(isa.OpADDI, 6, 0, 0, 111), // marker: skipped by taken +1 branches
		enc(isa.OpADDI, 7, 0, 0, 222), // marker: branch/jump land here
		enc(isa.OpSW, 0, 4, 3, 0),     // mem[256] = r3
		enc(isa.OpSW, 0, 4, 6, 1),     // mem[257] = r6
		enc(isa.OpSW, 0, 4, 7, 2),     // mem[258] = r7
		enc(isa.OpHALT, 0, 0, 0, 0),
	)
	return w
}

// diffImage builds a single-core image around the given code.
func diffImage(words []isa.Word, nsync int) *Image {
	img := &Image{
		Code:          []CodeSeg{{Base: 0, Words: words}},
		Entries:       []int{0},
		NumSyncPoints: nsync,
		Shared: []DataSeg{
			{Base: 256, Words: []uint16{0xB00F, 0x1234, 0xBEEF, 0, 0, 0, 0, 0}},
		},
	}
	if nsync > 0 {
		// Back the sync-point mirror with powered shared memory.
		img.Shared = append(img.Shared, DataSeg{Base: 0, Words: make([]uint16, 4)})
	}
	return img
}

// runDiffPair runs one image through both engines and returns the platforms
// and Run errors.
func runDiffPair(t *testing.T, img *Image, budget uint64) (exact, fast *Platform, exactErr, fastErr error) {
	t.Helper()
	build := func(exactMode bool) (*Platform, error) {
		cfg := scCfg()
		cfg.Exact = exactMode
		p, err := New(cfg, img)
		if err != nil {
			t.Fatal(err)
		}
		return p, p.Run(budget)
	}
	exact, exactErr = build(true)
	fast, fastErr = build(false)
	return exact, fast, exactErr, fastErr
}

// assertDiffIdentical is the differential contract: identical Run outcome,
// counters, architectural state, memory and violations — and the fast run
// must actually have used the block engine while the exact run must not.
func assertDiffIdentical(t *testing.T, exact, fast *Platform, exactErr, fastErr error) {
	t.Helper()
	if (exactErr == nil) != (fastErr == nil) {
		t.Fatalf("run outcomes diverge: exact err %v, fast err %v", exactErr, fastErr)
	}
	if exactErr != nil && exactErr.Error() != fastErr.Error() {
		t.Errorf("fault messages diverge:\nexact: %v\nfast:  %v", exactErr, fastErr)
	}
	assertIdentical(t, exact, fast)
	for addr := uint16(256); addr < 264; addr++ {
		e, eok := exact.PeekData(0, addr)
		f, fok := fast.PeekData(0, addr)
		if e != f || eok != fok {
			t.Errorf("mem[%d] diverges: exact %d(%v), fast %d(%v)", addr, e, eok, f, fok)
		}
	}
	if exact.BlockCycles() != 0 {
		t.Errorf("exact mode executed %d block-engine cycles, want 0", exact.BlockCycles())
	}
	if fast.BlockCycles() == 0 {
		t.Error("block engine never engaged on the fast run")
	}
}

// TestBlockEngineOpcodeDifferential drives every opcode of every format
// through both engines on single-core programs — including both directions
// of every conditional branch, the dynamic-target JALR, the sync ISE (which
// the block engine must yield around), and an invalid encoding (which must
// fault identically).
func TestBlockEngineOpcodeDifferential(t *testing.T) {
	type prog struct {
		name  string
		words []isa.Word
		nsync int
	}
	var progs []prog
	add := func(name string, nsync int, body ...isa.Word) {
		progs = append(progs, prog{name, diffProgram(body...), nsync})
	}

	for op := isa.Opcode(0); op.Valid(); op++ {
		switch {
		case op.Fmt() == isa.FmtR:
			add(op.String(), 0, enc(op, 3, 1, 2, 0))
			add(op.String()+"/shift", 0, enc(op, 3, 1, 5, 0))
		case op == isa.OpLW:
			add("lw", 0, enc(op, 3, 4, 0, 2))
		case op == isa.OpSW:
			add("sw", 0, enc(op, 0, 4, 1, 3))
		case op.IsBranch():
			// +1 skips the first marker when taken. (r1,r2) and (r1,r1)
			// operand pairs exercise both outcomes for every predicate.
			add(op.String()+"/mixed", 0, enc(op, 0, 1, 2, 1))
			add(op.String()+"/equal", 0, enc(op, 0, 1, 1, 1))
		case op == isa.OpJAL:
			add("jal", 0, enc(op, 3, 0, 0, 1))
		case op == isa.OpJALR:
			// r5 = 3, so imm 2 targets PC 5: the instruction after the
			// prologue and this jump.
			add("jalr", 0, enc(op, 3, 5, 0, 2))
		case op.IsSync():
			// SDEC on a zero point also records a protocol violation; both
			// engines must agree on it.
			add(op.String(), 1, enc(op, 0, 0, 0, 0))
		case op == isa.OpSLEEP:
			// No ADC, no wake source: the core gates forever and the rest
			// of the budget is idle in both modes.
			add("sleep", 0, enc(op, 0, 0, 0, 0))
		case op == isa.OpHALT:
			add("halt", 0, enc(op, 0, 0, 0, 0))
		default: // NOP
			add(op.String(), 0, enc(op, 0, 0, 0, 0))
		}
	}
	// An invalid encoding must fault identically from both paths.
	progs = append(progs, prog{"invalid", diffProgram(isa.Word(63) << 18), 0})

	for _, pr := range progs {
		pr := pr
		t.Run(pr.name, func(t *testing.T) {
			exact, fast, exactErr, fastErr := runDiffPair(t, diffImage(pr.words, pr.nsync), 2000)
			assertDiffIdentical(t, exact, fast, exactErr, fastErr)
		})
	}
}

// blockKernelWords is a fast-forward-resistant compute kernel: a long
// unrolled ALU body with a store per iteration (its backward jump is far
// longer than any poll span's loop) and no sleep or ADC dependence (nothing for the idle engine). Every cycle is
// compute-bound, so the block engine carries essentially the whole run.
func blockKernelWords() []isa.Word {
	w := []isa.Word{
		enc(isa.OpADDI, 4, 0, 0, 256), // data pointer
		enc(isa.OpADDI, 1, 0, 0, 1),
	}
	loop := int32(len(w))
	for i := 0; i < 10; i++ {
		w = append(w,
			enc(isa.OpADD, 2, 1, 1, 0),
			enc(isa.OpXOR, 3, 2, 1, 0),
			enc(isa.OpADDI, 1, 1, 0, 1),
			enc(isa.OpSRLI, 2, 3, 0, 1),
		)
	}
	w = append(w, enc(isa.OpSW, 0, 4, 3, 0))
	w = append(w, enc(isa.OpJAL, 0, 0, 0, loop-int32(len(w))-1))
	return w
}

func blockKernelImage() *Image {
	return &Image{
		Code:    []CodeSeg{{Base: 0, Words: blockKernelWords()}},
		Entries: []int{0},
		Shared:  []DataSeg{{Base: 256, Words: make([]uint16, 4)}},
	}
}

// blockKernelMCWords is the multi-core variant of the compute kernel: the
// same unrolled ALU body on every core, but the per-iteration store goes
// through the private window (the ATU spreads the cores across distinct DM
// banks), so four lock-step cores stay conflict-free and the multi-core
// stride engine carries essentially the whole run.
func blockKernelMCWords() []isa.Word {
	w := []isa.Word{
		enc(isa.OpLUI, 4, 0, 0, 19), // r4 = 1216: private data pointer
		enc(isa.OpADDI, 1, 0, 0, 1),
	}
	loop := int32(len(w))
	for i := 0; i < 10; i++ {
		w = append(w,
			enc(isa.OpADD, 2, 1, 1, 0),
			enc(isa.OpXOR, 3, 2, 1, 0),
			enc(isa.OpADDI, 1, 1, 0, 1),
			enc(isa.OpSRLI, 2, 3, 0, 1),
		)
	}
	w = append(w, enc(isa.OpSW, 0, 4, 3, 0))
	w = append(w, enc(isa.OpJAL, 0, 0, 0, loop-int32(len(w))-1))
	return w
}

func blockKernelMCImage() *Image {
	return &Image{
		Code:        []CodeSeg{{Base: 0, Words: blockKernelMCWords()}},
		Entries:     []int{0, 0, 0, 0},
		SharedLimit: 1024,
		Shared:      []DataSeg{{Base: 256, Words: make([]uint16, 4)}},
	}
}

// TestBlockEngineSnapshotMidStrideMC is the multi-core mirror of
// TestBlockEngineSnapshotMidBlock: the snapshot boundary falls inside a
// multi-core stride, and restore/continue must both stay bit-identical to
// an exact straight-through run. Two inputs: the four-core lock-step
// kernel, and the contended kernel with the boundary at a cycle where a core
// holds a DM-stalled fetch, which the restored platform's strides must
// replay. Engagement statistics are process state, so the restored platform
// reports fresh diagnostics and re-engages on its own.
func TestBlockEngineSnapshotMidStrideMC(t *testing.T) {
	const total = 50_000
	cases := []struct {
		name  string
		img   func(t *testing.T) *Image
		first func(t *testing.T) uint64
		held  bool // a core holds a DM-stalled fetch at the boundary
	}{
		{"lockstep", func(*testing.T) *Image { return blockKernelMCImage() }, func(*testing.T) uint64 { return 12_345 }, false},
		{"held-fetch", contendedImage, func(t *testing.T) uint64 { return heldFetchCycle(t, contendedImage(t), 12_345) }, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := mcCfg()
			first := tc.first(t)

			cfg.Exact = true
			exact, err := New(cfg, tc.img(t))
			if err != nil {
				t.Fatal(err)
			}
			if err := exact.Run(total); err != nil {
				t.Fatal(err)
			}

			cfg.Exact = false
			fast, err := New(cfg, tc.img(t))
			if err != nil {
				t.Fatal(err)
			}
			if err := fast.Run(first); err != nil {
				t.Fatal(err)
			}
			if fast.BlockMCStrides() == 0 {
				t.Fatal("multi-core stride engine never engaged before the boundary")
			}
			held := false
			for _, cr := range fast.cores {
				held = held || cr.Fetched
			}
			if held != tc.held {
				t.Fatalf("a core holds a fetch at the boundary: %v, want %v", held, tc.held)
			}
			snap := fast.Snapshot()

			restored, err := New(cfg, tc.img(t))
			if err != nil {
				t.Fatal(err)
			}
			if err := restored.Restore(snap); err != nil {
				t.Fatal(err)
			}
			if restored.BlockMCStrides() != 0 || restored.BlockMCCycles() != 0 {
				t.Errorf("restored platform reports %d strides / %d cycles, want fresh diagnostics",
					restored.BlockMCStrides(), restored.BlockMCCycles())
			}

			for name, p := range map[string]*Platform{"original": fast, "restored": restored} {
				if err := p.Run(total - first); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				assertIdentical(t, exact, p)
				if p.BlockMCStrides() == 0 {
					t.Errorf("%s: multi-core strides never re-engaged after the boundary", name)
				}
				if !reflect.DeepEqual(exact.dmem.Snapshot().Words, p.dmem.Snapshot().Words) {
					t.Errorf("%s: data memory diverges", name)
				}
			}
		})
	}
}

// TestBlockEngineSnapshotMidBlock pins the process-state contract: a
// snapshot taken while the block engine is mid-stride (the budget boundary
// falls inside a basic block) restores onto a fresh platform, which — like
// the original continuing — stays bit-identical to an exact straight-through
// run.
func TestBlockEngineSnapshotMidBlock(t *testing.T) {
	const total, first = 50_000, 12_345
	cfg := scCfg()

	cfg.Exact = true
	exact, err := New(cfg, blockKernelImage())
	if err != nil {
		t.Fatal(err)
	}
	if err := exact.Run(total); err != nil {
		t.Fatal(err)
	}

	cfg.Exact = false
	fast, err := New(cfg, blockKernelImage())
	if err != nil {
		t.Fatal(err)
	}
	if err := fast.Run(first); err != nil {
		t.Fatal(err)
	}
	if fast.BlockCycles() == 0 {
		t.Fatal("block engine never engaged on the compute kernel")
	}
	snap := fast.Snapshot()

	restored, err := New(cfg, blockKernelImage())
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if restored.BlockRuns() != 0 || restored.BlockCycles() != 0 {
		t.Errorf("restored platform reports %d runs / %d cycles, want fresh diagnostics",
			restored.BlockRuns(), restored.BlockCycles())
	}

	for name, p := range map[string]*Platform{"original": fast, "restored": restored} {
		if err := p.Run(total - first); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		assertIdentical(t, exact, p)
		if v, _ := exact.PeekData(0, 256); func() uint16 { w, _ := p.PeekData(0, 256); return w }() != v {
			t.Errorf("%s: kernel output diverges", name)
		}
	}
}

// TestBlockEngineYieldsSpinLoops: a tight single-core poll loop on a banked
// address is never parked — parking needs a stride — so single-core block
// runs must keep it rather than yield it to Step, bit-identically.
func TestBlockEngineYieldsSpinLoops(t *testing.T) {
	words := []isa.Word{
		enc(isa.OpADDI, 7, 0, 0, 200),
		enc(isa.OpADDI, 2, 0, 0, 0),
		enc(isa.OpLW, 1, 7, 0, 0),   // wait: r1 = mem[200] (always 0)
		enc(isa.OpBEQ, 0, 1, 2, -2), // spin forever
	}
	img := func() *Image {
		return &Image{
			Code:    []CodeSeg{{Base: 0, Words: words}},
			Entries: []int{0},
			Shared:  []DataSeg{{Base: 200, Words: []uint16{0}}},
		}
	}
	const budget = 30_000
	cfg := scCfg()
	cfg.Exact = true
	exact, err := New(cfg, img())
	if err != nil {
		t.Fatal(err)
	}
	if err := exact.Run(budget); err != nil {
		t.Fatal(err)
	}
	cfg.Exact = false
	fast, err := New(cfg, img())
	if err != nil {
		t.Fatal(err)
	}
	if err := fast.Run(budget); err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, exact, fast)
	if fast.BlockCycles() < budget-64 {
		t.Errorf("block engine executed %d of %d cycles of a lone poll loop, want nearly all", fast.BlockCycles(), budget)
	}
}

// countedLoopSrc is the shape of the bundled DSP kernels: a nine-instruction
// counted loop whose loads walk a window through a marching index, nested in
// a short outer loop that publishes its accumulator through a per-core
// private word. Both backward branches open poll spans, but neither loop
// can park: the inner one's state never recurs and the outer one stores.
const countedLoopSrc = `
.code main
    li   r4, 256        ; shared input window
    li   r10, 1216      ; private output word
    li   r8, 12         ; trip count
    li   r6, 0          ; accumulator
outer:
    li   r5, 0          ; induction register
loop:
    add  r9, r4, r5
    lw   r1, 0(r9)
    lw   r2, 12(r9)
    mul  r3, r1, r2
    srai r3, r3, 2
    add  r6, r6, r3
    xor  r6, r6, r5
    addi r5, r5, 1
    blt  r5, r8, loop
    sw   r6, 0(r10)
    j    outer
`

// countedLoopImage places countedLoopSrc at IM address 0 as shared code for
// ncore lock-step cores over an initialized input window.
func countedLoopImage(t *testing.T, ncore int) *Image {
	t.Helper()
	code, _, _, err := asm.AssembleSnippet(countedLoopSrc, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	in := make([]uint16, 24)
	for i := range in {
		in[i] = uint16(i*i*37 + 11)
	}
	img := &Image{
		Code:   []CodeSeg{{Base: 0, Words: code}},
		Shared: []DataSeg{{Base: 256, Words: in}},
	}
	if ncore > 1 {
		img.SharedLimit = 1024
	}
	for c := 0; c < ncore; c++ {
		img.Entries = append(img.Entries, 0)
	}
	return img
}

// nonIdleCycles counts the cycles of a run the idle fast-forward did not
// leap: those the block engine or Step had to carry.
func nonIdleCycles(p *Platform) uint64 { return p.Cycle() - p.FFSkippedCycles() }

// TestBlockEngineCountedLoopSC: a marching counted loop on a single core
// runs on block runs from its first iteration, bit-identically.
func TestBlockEngineCountedLoopSC(t *testing.T) {
	mk := func(t *testing.T) *Image { return countedLoopImage(t, 1) }
	exact, fast := runModes(t, scCfg(), mk, 60_000)
	assertIdentical(t, exact, fast)
	v, _ := exact.PeekData(0, 1216)
	if w, _ := fast.PeekData(0, 1216); w != v {
		t.Error("kernel output diverges")
	}
	if got, all := fast.BlockCycles(), nonIdleCycles(fast); got*10 < all*9 {
		t.Errorf("block engine carried %d of %d non-idle cycles, want at least 90%%", got, all)
	}
}

// TestBlockEngineCountedLoopMC: the same counted loop in lock-step on three
// MC cores (merged reads of the shared window, private stores on distinct
// banks) must be carried by multi-core strides, and the verdict must judge
// both loops unparkable: the inner one because its recordings keep
// failing, the outer one because it stores. Verdicts are process state:
// rewinding the platform clears them, and it judges its loops anew on the
// way back to the same end state.
func TestBlockEngineCountedLoopMC(t *testing.T) {
	mk := func(t *testing.T) *Image { return countedLoopImage(t, 3) }
	exact, fast := runModes(t, mcCfg(), mk, 60_000)
	assertIdentical(t, exact, fast)
	for c := 0; c < 3; c++ {
		v, _ := exact.PeekData(c, 1216)
		if w, _ := fast.PeekData(c, 1216); w != v {
			t.Errorf("core %d kernel output diverges", c)
		}
	}
	if got, all := fast.BlockMCCycles(), nonIdleCycles(fast); got*10 < all*9 {
		t.Errorf("multi-core strides carried %d of %d non-idle cycles, want at least 90%%", got, all)
	}
	judged := 0
	for _, j := range fast.block.unparkable {
		if j {
			judged++
		}
	}
	if judged != 2 {
		t.Errorf("%d latches judged unparkable, want the inner and the outer loop's", judged)
	}
	for c := 0; c < 3; c++ {
		if fast.block.yield[c].on {
			t.Errorf("core %d still holds a poll span on a judged loop", c)
		}
	}

	p, err := New(mcCfg(), mk(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(20_000); err != nil {
		t.Fatal(err)
	}
	snap := p.Snapshot()
	if err := p.Run(40_000); err != nil {
		t.Fatal(err)
	}
	if err := p.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for _, j := range p.block.unparkable {
		if j {
			t.Fatal("Restore kept the loop verdicts")
		}
	}
	if err := p.Run(40_000); err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, exact, p)
}

// TestBlockEngineVerdictSparesSettlingPoll: the verdict must not take a
// genuine poll loop away from parking. A producer core rewrites the polled
// word three times with gaps and then polls a word nobody writes; each
// rewrite fails one recording of the poller, so its loop keeps its poll
// span, parks again once the word settles, and the stride leaps with both
// cores parked.
func TestBlockEngineVerdictSparesSettlingPoll(t *testing.T) {
	poller := `
.code poller
    li   r7, 200
    li   r3, -1         ; a value the producer never writes
poll:
    lw   r1, 0(r7)
    bne  r1, r3, poll
    halt
`
	producer := `
.code producer
    li   r7, 200
    li   r2, 0
    li   r6, 3          ; rewrites
next:
    li   r5, 40         ; gap
gap:
    addi r5, r5, -1
    bnez r5, gap
    addi r2, r2, 1
    sw   r2, 0(r7)
    blt  r2, r6, next
idle:
    lw   r1, 1(r7)
    beqz r1, idle
    halt
`
	const budget = 60_000
	mk := func(t *testing.T) *Image {
		// Distinct IM banks let a stride carry both cores, so the poller
		// is already yielded when the rewrites land.
		return buildImage(t, 0x2000, 0, []string{poller, producer}, []int{0, isa.IMBankWords},
			[]DataSeg{{Base: 200, Words: []uint16{0, 0}}})
	}
	exact, fast := runModes(t, mcCfg(), mk, budget)
	assertIdentical(t, exact, fast)
	if fast.CoreRegs(1)[2] != 3 {
		t.Fatal("producer did not finish its three rewrites")
	}
	if leapt := fast.BlockMCLeaptCycles(); leapt*10 < budget*9 {
		t.Errorf("strides leapt only %d of %d cycles; the settled poll loop must park", leapt, budget)
	}
	if latch := 3; latch < len(fast.block.unparkable) && fast.block.unparkable[latch] {
		t.Error("the poll loop was judged unparkable")
	}
}

// contendedSrc is a compute kernel whose data accesses collide: every core
// reads and rewrites its own words 16 apart, which the ATU's word
// interleaving puts on one DM bank. Its loop body is maxPollLoop
// instructions or longer, so it opens no poll span.
const contendedSrc = `
.code contended
    li   r13, 0x7F00
    lw   r5, 0(r13)     ; core id
    slli r5, r5, 4
    addi r4, r5, 256    ; this core's words, all on DM bank 0
    li   r6, 1
loop:
    lw   r1, 0(r4)
    add  r6, r6, r1
    xor  r2, r6, r5
    lw   r3, 1(r4)
    add  r6, r6, r3
    srli r2, r6, 3
    xor  r6, r6, r2
    lw   r1, 2(r4)
    mul  r3, r1, r6
    add  r6, r6, r3
    addi r1, r1, 7
    sw   r1, 2(r4)
    xor  r2, r6, r1
    add  r6, r6, r2
    srai r3, r6, 2
    sub  r6, r6, r3
    lw   r1, 3(r4)
    or   r2, r1, r6
    and  r3, r2, r5
    add  r6, r6, r3
    xor  r6, r6, r1
    addi r1, r6, 3
    add  r2, r1, r1
    xor  r6, r6, r2
    srli r3, r6, 1
    add  r6, r6, r3
    j    loop
`

// contendedImage places contendedSrc for three MC cores in one IM bank:
// cores 0 and 1 share the copy at address 0, so they start in lock-step and
// their loads collide, and core 2 runs a private copy packed behind it, so
// its fetches collide with theirs.
func contendedImage(t *testing.T) *Image {
	t.Helper()
	in := make([]uint16, 64)
	for i := range in {
		in[i] = uint16(i*i*29 + 5)
	}
	src := []string{contendedSrc, contendedSrc, contendedSrc}
	return buildImage(t, 1024, 0, src, []int{0, 0, 64}, []DataSeg{{Base: 256, Words: in}})
}

// heldFetchCycle returns the first cycle at or after from at which a core of
// an exact run of img holds a DM-stalled fetch.
func heldFetchCycle(t *testing.T, img *Image, from uint64) uint64 {
	t.Helper()
	cfg := mcCfg()
	cfg.Exact = true
	p, err := New(cfg, img)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(from); err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 10_000; n++ {
		for _, cr := range p.cores {
			if cr.Fetched {
				return p.Cycle()
			}
		}
		if err := p.Run(1); err != nil {
			t.Fatal(err)
		}
	}
	t.Fatal("no core ever held a DM-stalled fetch")
	return 0
}

// TestBlockEngineContendedStride: cores whose fetches and loads collide on
// one bank must still run on strides, each cycle arbitrated as Step would
// arbitrate it, with the conflict counters bit-identical to -exact.
func TestBlockEngineContendedStride(t *testing.T) {
	exact, fast := runModes(t, mcCfg(), contendedImage, 60_000)
	assertIdentical(t, exact, fast)
	if !reflect.DeepEqual(exact.dmem.Snapshot().Words, fast.dmem.Snapshot().Words) {
		t.Error("data memory diverges")
	}
	ctr := fast.Counters()
	if ctr.IMConflict == 0 || ctr.DMConflict == 0 {
		t.Errorf("IM conflicts %d, DM conflicts %d: the kernel must contend on both crossbars",
			ctr.IMConflict, ctr.DMConflict)
	}
	if got, all := fast.BlockMCCycles(), nonIdleCycles(fast); got*10 < all*9 {
		t.Errorf("multi-core strides carried %d of %d non-idle cycles, want at least 90%%", got, all)
	}
}

// TestBlockEngineContendedEveryPhase starts contended strides at each of the
// 64 rotating-priority phases: an exact warm-up of warm+k cycles, past every
// core's prologue, sets the phase, the next 64 cycles must run on one stride
// that arbitrates conflicts, and every run must end bit-identical to the
// exact one.
func TestBlockEngineContendedEveryPhase(t *testing.T) {
	const warm, total = 1024, 4000
	exact, _ := runModes(t, mcCfg(), contendedImage, total)
	for k := uint64(0); k < interco.PhasePeriod; k++ {
		p, err := New(mcCfg(), contendedImage(t))
		if err != nil {
			t.Fatal(err)
		}
		p.SetExact(true)
		if err := p.Run(warm + k); err != nil {
			t.Fatal(err)
		}
		p.SetExact(false)
		steps, conflicts := p.StepCycles(), p.Counters().IMConflict+p.Counters().DMConflict
		if err := p.Run(interco.PhasePeriod); err != nil {
			t.Fatal(err)
		}
		if p.StepCycles() != steps || p.BlockMCCycles() != interco.PhasePeriod {
			t.Errorf("phase %d: %d of %d cycles stepped, want one stride", k, p.StepCycles()-steps, interco.PhasePeriod)
		}
		if p.Counters().IMConflict+p.Counters().DMConflict == conflicts {
			t.Errorf("phase %d: the stride arbitrated no conflict", k)
		}
		if err := p.Run(total - warm - k - interco.PhasePeriod); err != nil {
			t.Fatal(err)
		}
		assertIdentical(t, exact, p)
	}
}

// TestBlockEngineStrideCarriesPoller: core 1 polls a shared progress word
// while core 0 computes for several thousand cycles, publishing each
// iteration and reading an MMIO register that ends its stride, then halts.
// Strides must carry the worker and the poller together — also when a
// stride starts with the poller already in its poll span — release the
// poller on the exact cycle, and leave its second, endless wait in the same
// loop, alone once the worker halted, to single-core block runs. The loop
// must not be judged unparkable on the way: the polled word changes once
// per worker iteration.
func TestBlockEngineStrideCarriesPoller(t *testing.T) {
	worker := `
.code worker
    li   r7, 200        ; progress word
    li   r13, 0x7F00
    li   r6, 150        ; iterations
    li   r5, 0
    li   r1, 1
work:
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
    addi r5, r5, 1
    sw   r5, 0(r7)      ; publish the progress
    lw   r9, 0(r13)     ; RegCoreID: MMIO ends the stride
    blt  r5, r6, work
    halt
`
	poller := `
.code poller
    li   r7, 200
    li   r13, 0x7F00
    li   r6, 150
poll:
    lw   r1, 0(r7)
    bne  r1, r6, poll   ; wait for the last iteration
    lw   r8, 1(r13)     ; RegCycleLo: the cycle the poll loop exited
    addi r6, r6, 1      ; then wait for one that never comes
    j    poll
`
	const budget = 60_000
	mk := func(t *testing.T) *Image {
		return buildImage(t, 0x2000, 0, []string{worker, poller}, []int{0, isa.IMBankWords},
			[]DataSeg{{Base: 200, Words: []uint16{0}}})
	}
	exact, _ := runModes(t, mcCfg(), mk, budget)
	release := uint64(exact.CoreRegs(1)[8])
	if release < 3000 {
		t.Fatalf("poller released at cycle %d, want several thousand cycles of work first", release)
	}

	fast, err := New(mcCfg(), mk(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := fast.Run(release); err != nil {
		t.Fatal(err)
	}
	if got := fast.BlockMCCycles(); got*10 < release*9 {
		t.Errorf("strides carried %d of the %d cycles before the release, want at least 90%%", got, release)
	}
	if err := fast.Run(budget - release); err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, exact, fast)
	if got := uint64(fast.CoreRegs(1)[8]); got != release {
		t.Errorf("poller left its loop at cycle %d, exact run at %d", got, release)
	}
	if rest, got := budget-release, fast.BlockCycles(); got*10 < rest*9 {
		t.Errorf("block runs carried %d of the %d cycles after the release, want at least 90%%", got, rest)
	}
	for latch, judged := range fast.block.unparkable {
		if judged {
			t.Errorf("the loop with its latch at %d was judged unparkable", latch)
		}
	}
}
