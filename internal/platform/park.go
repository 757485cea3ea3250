// Parking proven pollers inside multi-core strides.
//
// A busy-wait poller carried by a stride (blockRunMulti) re-executes a
// store-free loop whose loads keep returning the same words. Its next state
// depends only on its own state, its grants and the words it loads, so once
// one period of the loop is recorded and its head state is seen to recur
// with every loaded word unchanged, every later period repeats the recorded
// one cycle for cycle — as long as the poller is granted every request (it
// is alone on its banks in every cycle it uses them) and no store reaches
// its read set. A parked poller leaves the stride's per-cycle plan: its
// position at cycle t is (t − t0) mod L, and its counters are accounted in
// bulk when it is materialized, which happens when an active participant's
// request lands on one of its banks in a cycle it uses that bank (before the
// cycle is planned), when a committed store hits its read set (after that
// cycle) and when the stride ends. A lock-step group of pollers fetching
// one PC and loading the same words parks as one requester, counted as
// Arbitrate merges it. When every participant is parked, the stride leaps to
// its end. The recordings are simulation-process state, like the poll spans
// they hang off: Restore clears them.

package platform

import (
	"math/bits"

	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/power"
)

const (
	// parkMaxPeriod bounds a recorded poll loop's period, in cycles.
	parkMaxPeriod = 64
	// parkMaxFails is how many consecutive recordings of one poll span may
	// fail within a stride — a stall, a period over parkMaxPeriod, a head
	// state that did not recur — before its latch is judged unparkable. A
	// marching loop fails at every head visit; a genuine poll loop fails
	// once per change of a polled word.
	parkMaxFails = 4
)

// Recording states of one core's yielded loop.
const (
	recNone   uint8 = iota
	recOpen         // recording from states[0], n cycles so far
	recProven       // states[0..n) is one proven period of the loop
)

// parkOp is what a poller does in one recorded cycle when it is granted
// every request.
type parkOp struct {
	pc     int32 // fetched PC; -1 for a pipeline-refill bubble
	dmBank int8  // bank of the cycle's load; -1 when there is none
	dmOff  int32 // offset of the load
	val    uint16
}

// parkCount is a prefix of a proven period's per-core activity.
type parkCount struct{ fetch, bubble, taken, load uint8 }

// parkRec is one core's recording of its poll loop and, while the core
// leads a parked requester, that requester's bookkeeping.
type parkRec struct {
	lo, hi int // poll span the recording belongs to (lo -1: none yet)
	fails  int // consecutive failed recordings of the span in this stride
	state  uint8
	n      int // recorded cycles; the period once proven

	states [parkMaxPeriod]cpu.Core // core state at the start of each cycle
	ops    [parkMaxPeriod]parkOp

	// Set when the period is proven; reads holds each loaded word once.
	reads        []parkOp
	cum          [parkMaxPeriod + 1]parkCount // cum[j]: activity of cycles [0, j)
	imUse, dmUse uint32                       // banks the period uses

	// t0 is the cycle of states[0]: the recording's first cycle and, while
	// the core leads a parked requester, the cycle it parked at, when every
	// member stood at its states[0].
	t0      uint64
	members uint8 // cores of the parked requester, the lead included
}

// parkBegin gives every participant's span a fresh failure count at the
// start of a stride. A recording in progress fails its next contiguity
// check if cycles were stepped since; a proven one stays valid.
func (be *blockEngine) parkBegin(all []int) {
	if be.rec == nil {
		return
	}
	for _, c := range all {
		be.rec[c].fails = 0
	}
}

// parkReset forgets every recording: Restore.
func (be *blockEngine) parkReset() {
	for i := range be.rec {
		be.rec[i].lo, be.rec[i].state = -1, recNone
	}
}

// parkable reports whether a poll span may be recorded: every instruction
// in it is fetchable and none is a store or a stop instruction.
func (p *Platform) parkable(lo, hi int) bool {
	for pc := lo; pc <= hi; pc++ {
		if cls := p.block.set.Class(pc); cls == mem.ClassStore || cls == mem.ClassStop {
			return false
		}
		if _, ok := p.imem.Fetch(pc); !ok {
			return false
		}
	}
	return true
}

// parkWatch advances the recordings of the stride's live participants in
// poll spans by the start of cycle cyc, proves those back at their loop
// head and parks what it proved. It reports whether any participant parked
// and how many spans it closed by judging their loops unparkable.
func (p *Platform) parkWatch(cyc uint64, act []int) (parked bool, retired int) {
	be := &p.block
	if be.rec == nil {
		be.rec = make([]parkRec, p.ncore)
		be.parkReset()
	}
	var cand uint8
	for _, c := range act {
		y := &be.yield[c]
		if !y.on {
			continue
		}
		r := &be.rec[c]
		if r.lo != y.lo || r.hi != y.hi {
			r.lo, r.hi, r.state, r.fails = y.lo, y.hi, recNone, 0
			if !p.parkable(y.lo, y.hi) {
				p.parkJudge(c, r)
				retired++
				continue
			}
		}
		cr := p.cores[c]
		if r.state == recOpen {
			// A recording holds consecutive cycles in the loop in which
			// every request was granted. A missed cycle (the core left the
			// loop and came back), a held fetch (it lost a data access) or
			// a core still at its last recorded fetch (an executed fetch
			// always moves the PC or opens a bubble, so it lost the fetch)
			// ends it.
			last := &r.ops[r.n-1]
			if cyc != r.t0+uint64(r.n) || cr.PC < r.lo || cr.PC > r.hi || cr.Fetched ||
				last.pc == int32(cr.PC) && cr.Bubble == 0 {
				if p.parkFail(c, r) {
					retired++
					continue
				}
			}
		}
		if cr.PC == r.lo && cr.Bubble == 0 && !cr.Fetched {
			if r.state == recOpen && *cr == r.states[0] && p.parkProve(r) {
				r.state = recProven
			}
			if r.state == recProven && *cr == r.states[0] && p.parkReadsHold(r) {
				cand |= 1 << c
				continue
			}
			if r.state != recNone && p.parkFail(c, r) {
				retired++
				continue
			}
			r.state, r.n, r.t0 = recOpen, 0, cyc
		}
		if r.state != recOpen {
			continue
		}
		if (r.n == parkMaxPeriod || !p.parkRecord(r, c, cr)) && p.parkFail(c, r) {
			retired++
		}
	}
	return cand != 0 && p.park(cyc, cand), retired
}

// parkFail drops core c's recording and counts the failure. The
// parkMaxFails-th consecutive one judges the loop unparkable (parkJudge);
// parkFail reports whether it did.
func (p *Platform) parkFail(c int, r *parkRec) bool {
	r.state = recNone
	if r.fails++; r.fails < parkMaxFails {
		return false
	}
	p.parkJudge(c, r)
	return true
}

// parkJudge judges core c's loop unparkable — it holds a store or a stop
// instruction, or its recordings keep failing — and closes c's poll span:
// its latch is marked, so no span opens there again until Restore.
func (p *Platform) parkJudge(c int, r *parkRec) {
	be := &p.block
	if be.unparkable == nil {
		be.unparkable = make([]bool, isa.IMWords)
	}
	be.unparkable[r.hi] = true
	be.yield[c].on = false
}

// parkRecord appends the cycle core c is about to run, assuming every
// request is granted. It fails on an access the stride cannot execute.
func (p *Platform) parkRecord(r *parkRec, c int, cr *cpu.Core) bool {
	op := parkOp{pc: -1, dmBank: -1}
	if cr.Bubble == 0 {
		op.pc = int32(cr.PC)
		if p.block.set.Class(cr.PC) == mem.ClassLoad {
			ins, _ := p.imem.Fetch(cr.PC)
			addr := cr.Regs[ins.Rs1] + uint16(ins.Imm)
			if isa.IsMMIO(addr) {
				return false
			}
			b, o := p.mapper.Map(c, addr)
			v, ok := p.dmem.Read(b, o)
			if !ok {
				return false
			}
			op.dmBank, op.dmOff, op.val = int8(b), int32(o), v
		}
	}
	r.states[r.n], r.ops[r.n] = *cr, op
	r.n++
	return true
}

// parkProve closes a recording whose head state recurred: it collects the
// period's read set, its banks and its activity prefixes. It fails when
// the period loaded one word with two values.
func (p *Platform) parkProve(r *parkRec) bool {
	r.reads = r.reads[:0]
	r.imUse, r.dmUse = 0, 0
	var acc parkCount
	for j := 0; j < r.n; j++ {
		r.cum[j] = acc
		op := &r.ops[j]
		if op.pc < 0 {
			acc.bubble++
			continue
		}
		acc.fetch++
		r.imUse |= 1 << isa.IMBankOf(int(op.pc))
		// Bubbles only follow taken branches.
		if r.states[(j+1)%r.n].Bubble > 0 {
			acc.taken++
		}
		if op.dmBank < 0 {
			continue
		}
		acc.load++
		r.dmUse |= 1 << op.dmBank
		seen := false
		for _, w := range r.reads {
			if w.dmBank == op.dmBank && w.dmOff == op.dmOff {
				if w.val != op.val {
					return false
				}
				seen = true
			}
		}
		if !seen {
			r.reads = append(r.reads, *op)
		}
	}
	r.cum[r.n] = acc
	return true
}

// parkReadsHold reports whether every word of a proven period still holds
// the value the period loaded.
func (p *Platform) parkReadsHold(r *parkRec) bool {
	for _, w := range r.reads {
		if v, _ := p.dmem.Read(int(w.dmBank), int(w.dmOff)); v != w.val {
			return false
		}
	}
	return true
}

// park parks the proven candidates at cycle cyc: candidates whose periods
// fetch and load identically form one requester, and a requester parks only
// if it shares no bank with one already parked. It reports whether any
// parked.
func (p *Platform) park(cyc uint64, cand uint8) bool {
	be := &p.block
	parked := false
	for cand != 0 {
		lead := bits.TrailingZeros8(cand)
		r := &be.rec[lead]
		members := uint8(1) << lead
		for m := cand &^ members; m != 0; m &= m - 1 {
			if c := bits.TrailingZeros8(m); be.rec[c].sameOps(r) {
				members |= 1 << c
			}
		}
		cand &^= members
		if r.imUse&be.imPark != 0 || r.dmUse&be.dmPark != 0 {
			continue
		}
		r.members, r.t0 = members, cyc
		be.leads |= 1 << lead
		be.parked |= members
		be.imPark |= r.imUse
		be.dmPark |= r.dmUse
		be.mcParks++
		for m := members; m != 0; m &= m - 1 {
			be.rec[bits.TrailingZeros8(m)].fails = 0
		}
		parked = true
	}
	return parked
}

// sameOps reports whether two proven periods fetch the same PCs and load
// the same words in every cycle.
func (r *parkRec) sameOps(o *parkRec) bool {
	if r.n != o.n {
		return false
	}
	for j := 0; j < r.n; j++ {
		a, b := &r.ops[j], &o.ops[j]
		if a.pc != b.pc || a.dmBank != b.dmBank || a.dmOff != b.dmOff {
			return false
		}
	}
	return true
}

// parkHit returns the parked leads whose requester uses bank at cycle cyc:
// fetches from it when fetch is set, loads from it otherwise.
func (be *blockEngine) parkHit(cyc uint64, bank int, fetch bool) uint8 {
	var hit uint8
	for m := be.leads; m != 0; m &= m - 1 {
		c := bits.TrailingZeros8(m)
		r := &be.rec[c]
		use := r.dmUse
		if fetch {
			use = r.imUse
		}
		if use&(1<<bank) == 0 {
			continue
		}
		op := &r.ops[(cyc-r.t0)%uint64(r.n)]
		if fetch && op.pc >= 0 && isa.IMBankOf(int(op.pc)) == bank || !fetch && int(op.dmBank) == bank {
			hit |= 1 << c
		}
	}
	return hit
}

// parkStoreHit returns the parked leads whose read set holds the word a
// committed store wrote.
func (be *blockEngine) parkStoreHit(bank, off int) uint8 {
	var hit uint8
	for m := be.leads; m != 0; m &= m - 1 {
		c := bits.TrailingZeros8(m)
		r := &be.rec[c]
		if r.dmUse&(1<<bank) == 0 {
			continue
		}
		for _, w := range r.reads {
			if int(w.dmBank) == bank && int(w.dmOff) == off {
				hit |= 1 << c
				break
			}
		}
	}
	return hit
}

// unpark materializes the parked requesters led by leads at the start of
// cycle cyc: each member takes its recorded state at the requester's
// position, and the parked stretch's activity joins the stride's in sd —
// whole periods times the period's activity plus the partial period's
// prefix, with k members' fetches and loads merged into one access each.
// The members stay yielded participants and keep their proven recordings,
// so they may park again at a later head visit. It reports whether a
// materialized core's straight-line run touches data memory.
func (p *Platform) unpark(leads uint8, cyc uint64, sd *power.StrideDelta) (touchesMem bool) {
	be := &p.block
	for m := leads; m != 0; m &= m - 1 {
		lead := bits.TrailingZeros8(m)
		r := &be.rec[lead]
		el := cyc - r.t0
		whole, pos := el/uint64(r.n), int(el%uint64(r.n))
		per, pre := r.cum[r.n], r.cum[pos]
		fetch := whole*uint64(per.fetch) + uint64(pre.fetch)
		load := whole*uint64(per.load) + uint64(pre.load)
		k := uint64(bits.OnesCount8(r.members))
		sd.Instrs += k * fetch
		sd.IMReqs += k * fetch
		sd.IMAccesses += fetch
		sd.StallCycles += k * (whole*uint64(per.bubble) + uint64(pre.bubble))
		sd.BranchBubbles += k * (whole*uint64(per.taken) + uint64(pre.taken))
		sd.DMReqs += k * load
		sd.DMReads += load
		be.mcParked += k * el
		for mm := r.members; mm != 0; mm &= mm - 1 {
			c := bits.TrailingZeros8(mm)
			cr := p.cores[c]
			*cr = be.rec[c].states[pos]
			touchesMem = touchesMem || be.set.Summary(cr.PC).TouchesMem()
		}
		be.parked &^= r.members
		be.leads &^= 1 << lead
	}
	be.imPark, be.dmPark = 0, 0
	for m := be.leads; m != 0; m &= m - 1 {
		r := &be.rec[bits.TrailingZeros8(m)]
		be.imPark |= r.imUse
		be.dmPark |= r.dmUse
	}
	return touchesMem
}

// strideLive fills act and crs with the stride's participants that are not
// parked, in core order, and returns act.
func (p *Platform) strideLive(all, act []int, crs *[isa.MaxCores]*cpu.Core) []int {
	act = act[:0]
	for _, c := range all {
		if p.block.parked&(1<<c) == 0 {
			crs[len(act)] = p.cores[c]
			act = append(act, c)
		}
	}
	return act
}
