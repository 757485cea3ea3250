// Basic-block analysis over the pre-decoded instruction memory.
//
// The platform's block execution engine (internal/platform/blockengine.go)
// wants to execute straight-line stretches of code without re-classifying
// every instruction on every cycle. Because instruction memory is immutable
// after load, the classification can be computed once per image: every word
// gets an InstrClass, and every address the length of the straight-line run
// that starts there. Both tables are dense (one entry per IM word), so the
// engine's inner loop is two array reads per block, not per cycle.
package mem

import "repro/internal/isa"

// InstrClass is the block engine's static classification of one decoded
// instruction. It answers the only questions the fast path asks: does the
// instruction touch data memory (and which way), can it redirect the PC, and
// may it be executed outside the cycle-accurate Step at all.
type InstrClass uint8

const (
	// ClassALU is straight-line compute: no memory access, no control
	// transfer, no platform interaction. NOP included.
	ClassALU InstrClass = iota
	// ClassLoad is LW. The effective address is register-relative, so
	// whether it hits banked memory or MMIO is only known at run time.
	ClassLoad
	// ClassStore is SW, with the same run-time MMIO caveat.
	ClassStore
	// ClassControl is a conditional branch or jump: executable on the fast
	// path, but it terminates the block (the next PC is dynamic).
	ClassControl
	// ClassStop is anything the fast path must not execute: the sync ISE
	// (SINC/SDEC/SNOP/SLEEP), HALT, and invalid encodings. All of them
	// interact with platform state (synchronizer, core states, faults), so
	// the engine yields to Step before reaching one.
	ClassStop
)

// Classify returns the block-engine class of op.
func Classify(op isa.Opcode) InstrClass {
	switch {
	case !op.Valid() || op.IsSyncExtension() || op == isa.OpHALT:
		return ClassStop
	case op == isa.OpLW:
		return ClassLoad
	case op == isa.OpSW:
		return ClassStore
	case op.IsControl():
		return ClassControl
	default:
		return ClassALU
	}
}

// BlockSet is the basic-block metadata of one loaded instruction memory:
// per-address instruction classes and straight-line run lengths. It is
// immutable after AnalyzeBlocks and can be shared between platforms running
// the same image.
type BlockSet struct {
	class  []InstrClass
	runLen []int32
}

// AnalyzeBlocks scans the pre-decoded instruction memory once and returns
// its block metadata. Unloaded words decode as NOP and join the surrounding
// straight-line runs; that is safe because the engine still performs the
// architectural fetch (bank power check) per instruction, so running into an
// unpowered bank faults exactly as Step would.
func AnalyzeBlocks(m *IMem) *BlockSet {
	b := &BlockSet{
		class:  make([]InstrClass, isa.IMWords),
		runLen: make([]int32, isa.IMWords),
	}
	// One backward pass: a run length is 0 at a stop, 1 at a control
	// transfer (executable, then the next PC is dynamic), and otherwise
	// extends the run that starts at the next address. The last IM word has
	// no successor; ending the run there is always correct, merely
	// conservative for code that wraps the PC.
	for pc := isa.IMWords - 1; pc >= 0; pc-- {
		cls := Classify(m.decoded[pc].Op)
		b.class[pc] = cls
		switch cls {
		case ClassStop:
			b.runLen[pc] = 0
		case ClassControl:
			b.runLen[pc] = 1
		default:
			if pc+1 < isa.IMWords {
				b.runLen[pc] = 1 + b.runLen[pc+1]
			} else {
				b.runLen[pc] = 1
			}
		}
	}
	return b
}

// Class returns the class of the instruction at pc.
func (b *BlockSet) Class(pc int) InstrClass { return b.class[pc] }

// RunLen returns how many consecutive instructions starting at pc the block
// engine may execute before it must look up the table again: 0 at a
// ClassStop (yield to the cycle-accurate path), otherwise the distance to
// and including the block's terminator.
func (b *BlockSet) RunLen(pc int) int { return int(b.runLen[pc]) }
