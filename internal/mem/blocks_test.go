// Block-analysis reference tests: AnalyzeBlocks' one-pass backward tables
// (class and run length) are pinned against a naive
// per-instruction forward reference, both on hand-built images covering
// every terminator form — including the SEVS/sync-tagged ISE forms added
// after the analyzer was written — and on every bundled benchmark program
// across all three paper architectures.
package mem_test

import (
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/power"
)

// refWalk computes the straight-line run length starting at pc by walking
// forward one instruction at a time — the obvious O(run) reference the
// analyzer's backward pass must reproduce.
func refWalk(m *mem.IMem, pc int) (runLen int) {
	for i := pc; i < isa.IMWords; i++ {
		switch mem.Classify(isa.Decode(m.Word(i)).Op) {
		case mem.ClassStop:
			return runLen
		case mem.ClassControl:
			return runLen + 1
		}
		runLen++
	}
	return runLen
}

// assertBlocksMatchReference checks class and run length at every address
// in pcs against the forward reference.
func assertBlocksMatchReference(t *testing.T, m *mem.IMem, b *mem.BlockSet, pcs []int) {
	t.Helper()
	for _, pc := range pcs {
		wantCls := mem.Classify(isa.Decode(m.Word(pc)).Op)
		if got := b.Class(pc); got != wantCls {
			t.Errorf("Class(%d) = %v, want %v", pc, got, wantCls)
		}
		if got, want := b.RunLen(pc), refWalk(m, pc); got != want {
			t.Errorf("RunLen(%d) = %d, want %d", pc, got, want)
		}
	}
}

// TestAnalyzeBlocksTerminatorForms loads one snippet containing every class
// of terminator — branches, jumps, plain and group-tagged sync ops, SEVS,
// SLEEP, HALT — and checks the tables instruction by instruction.
func TestAnalyzeBlocksTerminatorForms(t *testing.T) {
	enc := func(ins isa.Instr) isa.Word { return isa.MustEncode(ins) }
	code := []isa.Word{
		enc(isa.Instr{Op: isa.OpADDI, Rd: 1, Imm: 4}),                          // 0: ALU
		enc(isa.Instr{Op: isa.OpLW, Rd: 2, Rs1: 1, Imm: 0}),                    // 1: load
		enc(isa.Instr{Op: isa.OpSW, Rs1: 1, Rs2: 2, Imm: 1}),                   // 2: store
		enc(isa.Instr{Op: isa.OpBEQ, Rs1: 1, Rs2: 2, Imm: 2}),                  // 3: control
		enc(isa.Instr{Op: isa.OpADD, Rd: 3, Rs1: 1, Rs2: 2}),                   // 4: ALU
		enc(isa.Instr{Op: isa.OpSINC, Imm: int32(isa.SyncImm(0, 1))}),          // 5: stop (plain sync)
		enc(isa.Instr{Op: isa.OpXOR, Rd: 3, Rs1: 3, Rs2: 3}),                   // 6: ALU
		enc(isa.Instr{Op: isa.OpSDEC, Imm: int32(isa.SyncImm(2, 3))}),          // 7: stop (group-tagged sync)
		enc(isa.Instr{Op: isa.OpNOP}),                                          // 8: ALU
		enc(isa.Instr{Op: isa.OpSEVS, Imm: int32(isa.SevsImm(1, 0b01, 0b10))}), // 9: stop (SEVS rendezvous)
		enc(isa.Instr{Op: isa.OpLW, Rd: 4, Rs1: 1, Imm: 2}),                    // 10: load
		enc(isa.Instr{Op: isa.OpSLEEP}),                                        // 11: stop
		enc(isa.Instr{Op: isa.OpJAL, Rd: 0, Imm: -8}),                          // 12: control
		enc(isa.Instr{Op: isa.OpSNOP, Imm: int32(isa.SyncImm(1, 0))}),          // 13: stop
		enc(isa.Instr{Op: isa.OpHALT}),                                         // 14: stop
		enc(isa.Instr{Op: isa.OpSW, Rs1: 1, Rs2: 4, Imm: 3}),                   // 15: store
	}
	m := mem.NewIMem()
	if err := m.Load(0, code); err != nil {
		t.Fatal(err)
	}
	b := mem.AnalyzeBlocks(m)

	pcs := make([]int, 64)
	for i := range pcs {
		pcs[i] = i // the snippet plus the NOP run trailing it
	}
	assertBlocksMatchReference(t, m, b, pcs)

	// Spot-check the shape the engine depends on: the run at 0 spans the
	// load, the store and the terminating branch.
	if got := b.RunLen(0); got != 4 {
		t.Errorf("RunLen(0) = %d, want 4", got)
	}
	// Runs stop before every ISE form, old and new.
	for _, pc := range []int{5, 7, 9, 11, 13, 14} {
		if b.RunLen(pc) != 0 {
			t.Errorf("RunLen(%d) = %d, want 0 (stop)", pc, b.RunLen(pc))
		}
	}
	// The run at 10 is the lone load (SLEEP follows).
	if b.RunLen(10) != 1 {
		t.Errorf("RunLen(10) = %d, want 1", b.RunLen(10))
	}
}

// TestAnalyzeBlocksMatchesReferenceOnBundledApps runs the reference
// comparison over every bundled benchmark on every paper architecture —
// the MC/MC-nosync builds lower their synchronization differently (sync ISE
// vs busy-wait loops), so together they exercise every terminator the real
// programs contain.
func TestAnalyzeBlocksMatchesReferenceOnBundledApps(t *testing.T) {
	for _, app := range apps.Names {
		for _, arch := range []power.Arch{power.SC, power.MC, power.MCNoSync} {
			app, arch := app, arch
			t.Run(fmt.Sprintf("%s/%v", app, arch), func(t *testing.T) {
				v, err := apps.Build(app, arch)
				if err != nil {
					t.Fatal(err)
				}
				m := mem.NewIMem()
				var pcs []int
				for _, seg := range v.Res.Image.Code {
					if err := m.Load(seg.Base, seg.Words); err != nil {
						t.Fatal(err)
					}
					// Check every loaded address plus a margin of the
					// NOP-decoding unloaded words around each segment.
					lo, hi := seg.Base-8, seg.Base+len(seg.Words)+8
					if lo < 0 {
						lo = 0
					}
					if hi > isa.IMWords {
						hi = isa.IMWords
					}
					for pc := lo; pc < hi; pc++ {
						pcs = append(pcs, pc)
					}
				}
				b := mem.AnalyzeBlocks(m)
				assertBlocksMatchReference(t, m, b, pcs)
			})
		}
	}
}
