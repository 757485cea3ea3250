// Predecoded basic-block execution engine.
//
// The two fast-forward engines (fastforward.go, spinff.go) remove the quiet
// cycles; this engine attacks the loud ones. When cores are marching through
// straight-line code, Step still pays the full seven-phase toll per cycle —
// classify every core, arbitrate request lists, re-derive the MemOp, walk
// the opcode dispatch — even though nothing about the cycle is contended or
// observable from outside. The block engine executes those stretches from
// the image's precomputed basic-block tables (mem.BlockSet) with all
// counter, busy-window and crossbar accounting applied in bulk at the end of
// the stretch, exactly as the equivalent Steps would have. It has two
// shapes:
//
//   - single-core runs (blockRunSingle): exactly one core is running, so a
//     single requester is always granted by the crossbars, never merged and
//     never stalled — the per-cycle arbitration results are known
//     statically and the inner loop is fetch → (optional banked memory
//     access) → execute;
//   - multi-core strides (blockRunMulti): N ≥ 2 running cores execute
//     interleaved on the true cycle grid, the paper's MC steady state of
//     lock-step cores inside the same block between sync points. Each cycle
//     is planned first — fetch set, data-access set — and committed only if
//     the interconnect proves it conflict-free at every rotating-priority
//     phase (interco.PlanConflictFree): merged lock-step fetches, merged
//     equal-address reads, and writes alone on their bank. Any colliding
//     pair, and any write a concurrent core could observe ordering effects
//     from, ends the stride before the cycle mutates anything, so Step
//     re-arbitrates it exactly.
//
// Unlike the fast-forward leaps, these cycles are fully simulated — every
// instruction executes with architectural fidelity; only the per-cycle
// dispatch overhead is removed — so bit-identity with -exact holds by
// construction wherever the engine's preconditions do:
//
//   - gated/halted cores contribute constant per-cycle counter increments,
//     applied in bulk;
//   - the stretch ends before anything external can intervene: the cycle
//     budget, the next ADC event (which can publish samples, raise IRQs and
//     roll the sample window) and the next scheduled wake or gated-wait
//     timeout all bound it;
//   - the engine yields to Step before any instruction it cannot reproduce:
//     sync ISE, HALT, invalid encodings (mem.ClassStop), MMIO accesses
//     (dedicated register file with platform side effects), faulting
//     fetches and data accesses (Step re-runs the cycle and faults with
//     exact-mode accounting);
//   - no event tracer is attached (the gate mirrors the spin engine's).
//
// The one regime deliberately left to others is the short busy-wait loop:
// executing a spin loop instruction-by-instruction — even cheaply — is
// asymptotically worse than the spin engine's O(1) leap per proven period.
// On a taken backward branch of spin-detectable distance the engine
// therefore yields stickily (per-core yield spans) and lets Step feed the
// spin detector while that core's PC stays in the loop body. Short loops
// are also what DSP kernels are made of, and a loop whose registers march
// (an induction variable, a walking pointer) can never recur, so the spin
// engine can never leap it. The yield therefore carries a verdict: at each
// visit to the loop head the core's full state is compared with the
// previous visit, and blockVerdictVisits consecutive differences release
// the yield and record the loop's latch as unleapable for the platform's
// lifetime, so later entries of that loop run here from their first
// iteration. A genuine poll loop recurs at its head and keeps its yield.
// With the idle fast-forward leaping the quiescent cycles, the four engines
// compose: idle FF / spin FF / single-core blocks / multi-core strides.
//
// Like the fast-forward engines, everything here is simulation-process
// state: Restore and Fork reset it (snapshot.go) and leap/engagement
// placement may differ across Run chunkings while every architectural
// observable stays bit-identical — enforced by blockengine_test.go, the
// randomized cross-engine differential fuzzer (difffuzz_test.go), the
// golden-equivalence suites and the scenario matrix.

package platform

import (
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/interco"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/power"
)

// blockMCRetry is the probe back-off after a multi-core stride attempt that
// could not commit a single cycle (divergent fetches colliding on a bank,
// conflicting data accesses, MMIO straight ahead). Planning a cycle costs
// about as much as stepping it, so in a persistently contended regime the
// engine must not re-plan every cycle; it waits this many cycles before
// probing again. Engagement placement is process state — backing off never
// changes an architectural observable.
const blockMCRetry = 64

// blockVerdictVisits is how many consecutive visits to a yielded loop's
// head, each in a core state differing from the visit before, prove the
// loop unleapable; the first visit after the yield has nothing to recur
// from and counts as a change. The spin engine's recurrence proof needs
// every running core's state to repeat exactly, so a loop whose head state
// keeps changing is Step's cost with nothing to gain from yielding. Three
// visits judge even the four-trip loops of the bundled DSP kernels before
// they exit. A poll loop whose polled word changes now and then differs at
// one visit per change and keeps its yield.
const blockVerdictVisits = 3

// spinYield is one core's sticky spin yield and the verdict on its loop.
type spinYield struct {
	on      bool
	lo, hi  int      // loop head and latch (the backward branch) PCs
	atHead  bool     // the previous check already counted this head visit
	seen    bool     // head holds an earlier visit's state
	changes int      // consecutive head visits whose state differed from the one before
	head    cpu.Core // core state at the previous head visit
}

// blockEngine is the engine state embedded in Platform.
type blockEngine struct {
	// set is the image's basic-block metadata, built once in New and shared
	// with forks (the image is immutable).
	set *mem.BlockSet

	// Sticky per-core spin yields: while core c's PC lies in its yielded
	// loop the engine stays off any stretch c participates in, so the spin
	// detector sees an uninterrupted stepped instruction stream
	// (spinff.go).
	yield []spinYield
	// unleapable marks, by IM address, the latches of loops judged
	// unleapable (blockVerdictVisits); nil until the first verdict.
	unleapable []bool

	// mcNextTry gates multi-core stride attempts after a fruitless plan
	// (see blockMCRetry).
	mcNextTry uint64

	// Reusable scratch for the multi-core planner (no per-cycle allocs).
	active []int             // participating core ids this stride
	dm     []interco.Request // one cycle's data-access plan
	im     []interco.Request // one cycle's fetch plan (divergent PCs only)

	// Wall-clock diagnostics (process state, not snapshotted).
	runs     uint64 // single-core engagements that executed ≥ 1 cycle
	cycles   uint64 // cycles executed on the single-core fast path
	mcRuns   uint64 // multi-core strides that executed ≥ 1 cycle
	mcCycles uint64 // cycles executed on the multi-core stride path
}

// blockInit sizes the engine's per-core state for ncore cores; called once
// from New after the block tables are built.
func (b *blockEngine) blockInit(ncore int) {
	b.yield = make([]spinYield, ncore)
	b.active = make([]int, 0, ncore)
	b.dm = make([]interco.Request, 0, ncore)
	b.im = make([]interco.Request, 0, ncore)
}

// BlockRuns returns how many times the basic-block engine engaged its
// single-core fast path for at least one cycle. Like FFLeaps it is a
// wall-clock diagnostic: identical simulations chunked differently may
// engage differently while producing bit-identical results. Restore and
// Fork reset it.
func (p *Platform) BlockRuns() uint64 { return p.block.runs }

// BlockCycles returns how many cycles were executed by the single-core
// block path instead of through Step's seven phases. Unlike the
// fast-forward engines' skipped cycles these were fully simulated — only
// the per-cycle dispatch overhead was avoided — so the figure is a
// wall-clock diagnostic, not a statement about the workload.
func (p *Platform) BlockCycles() uint64 { return p.block.cycles }

// BlockMCStrides returns how many multi-core strides executed at least one
// cycle. A wall-clock diagnostic like BlockRuns; Restore and Fork reset it.
func (p *Platform) BlockMCStrides() uint64 { return p.block.mcRuns }

// BlockMCCycles returns how many cycles were executed inside multi-core
// strides. Every participating core advanced through each of them, so the
// per-core-cycle figure is this times the participant count (see the
// engine.block_stride_cycles.cN histograms for the split).
func (p *Platform) BlockMCCycles() uint64 { return p.block.mcCycles }

// blockReset clears the engine's sticky yields, loop verdicts, probe
// back-off and diagnostics: Restore, Fork. The block tables themselves
// derive from the immutable image and survive.
func (p *Platform) blockReset() {
	for c := range p.block.yield {
		p.block.yield[c] = spinYield{}
	}
	clear(p.block.unleapable)
	p.block.mcNextTry = 0
	p.block.runs = 0
	p.block.cycles = 0
	p.block.mcRuns = 0
	p.block.mcCycles = 0
}

// blockStrideCoresName[n-1] names the stride-length histogram for strides
// with n participating cores — the core-count dimension of the block
// engine's observability (obs must stay isa-agnostic, hence the fixed
// table here).
var blockStrideCoresName = [isa.MaxCores]string{
	"engine.block_stride_cycles.c1",
	"engine.block_stride_cycles.c2",
	"engine.block_stride_cycles.c3",
	"engine.block_stride_cycles.c4",
	"engine.block_stride_cycles.c5",
	"engine.block_stride_cycles.c6",
	"engine.block_stride_cycles.c7",
	"engine.block_stride_cycles.c8",
}

// blockRun executes as many upcoming cycles as it can prove safe on the
// basic-block fast path, stopping at limit (the caller's exclusive cycle
// budget). It either advances the platform exactly as the same number of
// Steps would, or returns having touched nothing — every bail-out happens
// before the cycle being abandoned has any effect, so Step re-simulates it
// with exact-mode accounting.
func (p *Platform) blockRun(limit uint64) {
	if p.fault != nil {
		return
	}
	// Count the running cores; gated and halted cores contribute fixed
	// per-cycle counter increments on either path.
	anchor := -1
	nrun := 0
	spinning := false
	var gated, halted uint64
	for c := 0; c < p.ncore; c++ {
		switch p.sync.State(c) {
		case core.StateRunning:
			nrun++
			if anchor < 0 {
				anchor = c
			}
			// Every running core's loop is judged, even once one spins.
			if p.blockYielded(c) {
				spinning = true
			}
		case core.StateGated:
			gated++
		default:
			halted++
		}
	}
	switch {
	case nrun == 0:
		return // fully idle: the quiescence engine's territory
	case spinning:
		return // a running core spins: the spin detector's domain
	case nrun == 1:
		p.blockRunSingle(limit, anchor, gated, halted)
	default:
		p.blockRunMulti(limit, gated, halted)
	}
}

// blockRunSingle is the one-running-core fast path (see the file comment).
func (p *Platform) blockRunSingle(limit uint64, anchor int, gated, halted uint64) {
	cr := p.cores[anchor]
	if cr.Fetched {
		return // held instruction from a DM stall: Step must replay it
	}
	if !p.sync.Runnable(anchor, p.cycle+1) {
		return // inside its wake latency: these are idle cycles
	}
	if cr.Bubble == 0 && p.block.set.RunLen(cr.PC) == 0 {
		return // parked on a stop instruction: nothing for the fast path
	}

	end := p.blockEnd(limit)
	if end <= p.cycle {
		return
	}

	start := p.cycle
	cyc := start
	var instrs, bubbles, taken, reads, writes uint64
loop:
	for cyc < end {
		// Pipeline-refill bubbles burn whole cycles without fetching.
		if cr.Bubble > 0 {
			n := uint64(cr.Bubble)
			if room := end - cyc; n > room {
				n = room
			}
			cr.Bubble -= int(n)
			bubbles += n
			cyc += n
			continue
		}
		n := p.block.set.RunLen(cr.PC)
		if n == 0 {
			break // stop instruction ahead: yield to Step
		}
		if room := end - cyc; uint64(n) > room {
			n = int(room)
		}
		for i := 0; i < n; i++ {
			ins, ok := p.imem.Fetch(cr.PC)
			if !ok {
				break loop // Step will fault with exact accounting
			}
			var loadVal uint16
			switch p.block.set.Class(cr.PC) {
			case mem.ClassLoad:
				addr := cr.Regs[ins.Rs1] + uint16(ins.Imm)
				if isa.IsMMIO(addr) {
					break loop // MMIO interacts with platform state
				}
				b, o := p.mapper.Map(anchor, addr)
				v, ok := p.dmem.Read(b, o)
				if !ok {
					break loop // powered-off bank: Step will fault
				}
				loadVal = v
				reads++
			case mem.ClassStore:
				addr := cr.Regs[ins.Rs1] + uint16(ins.Imm)
				if isa.IsMMIO(addr) {
					break loop
				}
				b, o := p.mapper.Map(anchor, addr)
				if !p.dmem.Write(b, o, cr.Regs[ins.Rs2]) {
					break loop
				}
				writes++
			}
			// Keep IR on the same trajectory Step's fetch phase would, so
			// core snapshots stay bit-identical across engines.
			prevPC := cr.PC
			cr.IR = ins
			if cr.ExecuteBlock(ins, loadVal) {
				taken++
				instrs++
				cyc++
				if p.blockYield(anchor, prevPC) {
					break loop
				}
				continue
			}
			instrs++
			cyc++
		}
	}
	if cyc == start {
		return
	}

	// Bulk accounting: exactly what cyc-start Steps over this stretch would
	// have accumulated. Single-requester arbitration is always granted,
	// never merged, never stalled, so each executed instruction is one IM
	// request and access, and each load/store one granted DM request.
	n := cyc - start
	p.ctr.AddStride(power.StrideDelta{
		Cycles:        n,
		Instrs:        instrs,
		ActiveCycles:  instrs,
		StallCycles:   bubbles,
		BranchBubbles: taken,
		UngatedCycles: n,
		GatedCycles:   n * gated,
		HaltedCycles:  n * halted,
		IMReqs:        instrs,
		IMAccesses:    instrs,
		DMReqs:        reads + writes,
		DMReads:       reads,
		DMWrites:      writes,
	})
	p.perCoreBusy[anchor] += n
	p.windowBusy[anchor] += uint32(n)
	p.cycle = cyc
	p.sync.FastForward(cyc)
	p.imx.AdvanceN(n)
	p.dmx.AdvanceN(n)
	p.lastCycleIdle = false
	p.block.runs++
	p.block.cycles += n
	// One span per stride: the engine bails before MMIO, sync ISE, HALT
	// and faults, so no boundary event can fall inside the stretch.
	p.obs.Span(obs.KindBlockStride, obs.TrackEngine, 0, start, n, int64(instrs), 1)
	p.obs.Observe("engine.block_stride_cycles", n)
	p.obs.Observe(blockStrideCoresName[0], n)
	p.blockSpinHygiene(anchor)
}

// blockRunMulti is the N ≥ 2 running-core stride path: per-core block runs
// interleaved on the cycle grid, each cycle planned and proven conflict-free
// before it commits, with one batched crossbar/counters/synchronizer flush
// for the whole stride (see the file comment).
func (p *Platform) blockRunMulti(limit uint64, gated, halted uint64) {
	be := &p.block
	if p.cycle < be.mcNextTry {
		return // recent fruitless plan: this regime is Step's for now
	}

	// Collect the participants and check the per-core entry conditions.
	// memPlan tracks whether any participant's current straight-line run
	// touches data memory at all (mem.RunSummary): pure-compute strides —
	// the lock-step common case between sync points — skip data-access
	// planning entirely until a branch lands in a run that needs it.
	act := be.active[:0]
	memPlan := false
	for c := 0; c < p.ncore; c++ {
		if p.sync.State(c) != core.StateRunning {
			continue
		}
		cr := p.cores[c]
		if cr.Fetched {
			return // held instruction from a DM stall: Step must replay it
		}
		if !p.sync.Runnable(c, p.cycle+1) {
			return // inside its wake latency: these are idle cycles
		}
		if cr.Bubble == 0 && be.set.RunLen(cr.PC) == 0 {
			return // parked on a stop instruction: Step executes it
		}
		if be.set.Summary(cr.PC).TouchesMem() {
			memPlan = true
		}
		act = append(act, c)
	}
	be.active = act

	end := p.blockEnd(limit)
	if end <= p.cycle {
		return
	}

	// Per-cycle scratch, indexed by participant position in act.
	var (
		pins  [isa.MaxCores]isa.Instr
		fetch [isa.MaxCores]bool
		mcls  [isa.MaxCores]mem.InstrClass
		mbank [isa.MaxCores]int
		moff  [isa.MaxCores]int
		crs   [isa.MaxCores]*cpu.Core
	)
	nact := len(act)
	for i, c := range act {
		crs[i] = p.cores[c]
	}
	start := p.cycle
	cyc := start
	var instrs, bubbles, taken, imReqs, imAccesses, dmReqs, dmReads, dmWrites uint64
	yielded := false

stride:
	for cyc < end && !yielded {
		// ---- Lock-step fast lane: every participant aligned at the same PC
		// with no pipeline bubbles — the paper's MC steady state. One shared
		// classify and one broadcast-merged fetch serve all cores; only the
		// data addresses (register-dependent) are planned per core.
		pc0 := crs[0].PC
		aligned := crs[0].Bubble == 0
		for k := 1; k < nact; k++ {
			if crs[k].PC != pc0 || crs[k].Bubble != 0 {
				aligned = false
				break
			}
		}
		if aligned {
			cls := be.set.Class(pc0)
			if cls == mem.ClassStop {
				break stride // sync ISE / HALT / invalid ahead: Step's turn
			}
			ins, ok := p.imem.Fetch(pc0)
			if !ok {
				break stride // fetch fault: Step replays it exactly
			}
			dmAcc, nw := 0, 0
			if cls == mem.ClassLoad || cls == mem.ClassStore {
				dm := be.dm[:0]
				for i, c := range act {
					addr := crs[i].Regs[ins.Rs1] + uint16(ins.Imm)
					if isa.IsMMIO(addr) {
						break stride // MMIO interacts with platform state
					}
					b, o := p.mapper.Map(c, addr)
					mbank[i], moff[i] = b, o
					dm = append(dm, interco.Request{
						Core: c, Bank: b, Offset: o, Write: cls == mem.ClassStore,
					})
				}
				var ok bool
				dmAcc, ok = interco.PlanConflictFree(dm)
				if !ok {
					break stride // colliding data accesses: Step arbitrates
				}
				for i := range dm {
					if _, ok := p.dmem.Read(dm[i].Bank, dm[i].Offset); !ok {
						break stride // powered-off bank: Step will fault
					}
				}
				if cls == mem.ClassStore {
					nw = len(dm)
				}
				dmReqs += uint64(len(dm))
			}
			for i := range crs[:nact] {
				cr := crs[i]
				var loadVal uint16
				switch cls {
				case mem.ClassLoad:
					loadVal, _ = p.dmem.Read(mbank[i], moff[i])
				case mem.ClassStore:
					p.dmem.Write(mbank[i], moff[i], cr.Regs[ins.Rs2])
				}
				cr.IR = ins
				if cr.ExecuteBlock(ins, loadVal) {
					taken++
					// The cycle still commits for every participant.
					if p.blockYield(act[i], pc0) {
						yielded = true
					}
				}
				// Refresh the memory-planning invariant for the generic lane
				// (a diverging branch may drop out of lock-step next cycle).
				if cls == mem.ClassControl && !memPlan && be.set.Summary(cr.PC).TouchesMem() {
					memPlan = true
				}
			}
			instrs += uint64(nact)
			imReqs += uint64(nact)
			imAccesses++
			dmReads += uint64(dmAcc - nw)
			dmWrites += uint64(nw)
			cyc++
			continue
		}

		// ---- Plan: prove the cycle fault-free and conflict-free before
		// mutating anything. Register state is pre-cycle for every core, so
		// the planned addresses are exactly Step's phase-3 addresses.
		nfetch := 0
		lockstep := true
		firstPC := -1
		dm := be.dm[:0]
		for i, c := range act {
			cr := crs[i]
			if cr.Bubble > 0 {
				fetch[i] = false
				continue
			}
			cls := be.set.Class(cr.PC)
			if cls == mem.ClassStop {
				break stride // sync ISE / HALT / invalid ahead: Step's turn
			}
			mcls[i] = cls
			ins, ok := p.imem.Fetch(cr.PC)
			if !ok {
				break stride // fetch fault: Step replays it exactly
			}
			pins[i] = ins
			fetch[i] = true
			nfetch++
			if firstPC < 0 {
				firstPC = cr.PC
			} else if cr.PC != firstPC {
				lockstep = false
			}
			if !memPlan {
				// Invariant: no run in flight contains a load or store
				// (entry check + the refresh after every control transfer
				// below), so no address needs computing.
				continue
			}
			switch cls {
			case mem.ClassLoad, mem.ClassStore:
				addr := cr.Regs[ins.Rs1] + uint16(ins.Imm)
				if isa.IsMMIO(addr) {
					break stride // MMIO interacts with platform state
				}
				b, o := p.mapper.Map(c, addr)
				mbank[i], moff[i] = b, o
				dm = append(dm, interco.Request{
					Core: c, Bank: b, Offset: o, Write: cls == mem.ClassStore,
				})
			}
		}

		// Fetch arbitration. Lock-step cores share one PC and ride a single
		// broadcast-merged bank read; divergent PCs must be proven
		// conflict-free on the instruction banks.
		imAcc := 0
		if nfetch > 0 {
			imAcc = 1
			if !lockstep {
				im := be.im[:0]
				for i, c := range act {
					if !fetch[i] {
						continue
					}
					pc := p.cores[c].PC
					im = append(im, interco.Request{
						Core: c, Bank: isa.IMBankOf(pc), Offset: pc,
					})
				}
				var ok bool
				imAcc, ok = interco.PlanConflictFree(im)
				if !ok {
					break stride // colliding fetches: Step arbitrates
				}
			}
		}

		// Data arbitration. Conflict-free means every bank sees either one
		// write alone or reads of a single address, so commit order within
		// the cycle cannot matter: no other core can observe a same-cycle
		// write (same word ⇒ same bank ⇒ conflict ⇒ bail).
		nw := 0
		dmAcc := 0
		if len(dm) > 0 {
			var ok bool
			dmAcc, ok = interco.PlanConflictFree(dm)
			if !ok {
				break stride // colliding data accesses: Step arbitrates
			}
			for i := range dm {
				if dm[i].Write {
					nw++
				}
				if _, ok := p.dmem.Read(dm[i].Bank, dm[i].Offset); !ok {
					break stride // powered-off bank: Step will fault
				}
			}
		}

		// ---- Commit: the cycle is proven; execute it in core order.
		for i, c := range act {
			cr := crs[i]
			if !fetch[i] {
				cr.Bubble--
				bubbles++
				continue
			}
			ins := pins[i]
			var loadVal uint16
			switch mcls[i] {
			case mem.ClassLoad:
				loadVal, _ = p.dmem.Read(mbank[i], moff[i])
			case mem.ClassStore:
				p.dmem.Write(mbank[i], moff[i], cr.Regs[ins.Rs2])
			}
			prevPC := cr.PC
			cr.IR = ins
			if cr.ExecuteBlock(ins, loadVal) {
				taken++
				// The cycle still commits for every participant.
				if p.blockYield(c, prevPC) {
					yielded = true
				}
			}
			// Straight-line runs only ever end at a control transfer, so
			// this is the one place a core can enter a new run mid-stride:
			// refresh the memory-planning flag (taken or fall-through).
			if mcls[i] == mem.ClassControl && !memPlan && be.set.Summary(cr.PC).TouchesMem() {
				memPlan = true
			}
			instrs++
		}
		imReqs += uint64(nfetch)
		imAccesses += uint64(imAcc)
		dmReqs += uint64(len(dm))
		dmReads += uint64(dmAcc - nw)
		dmWrites += uint64(nw)
		cyc++
	}
	if cyc == start {
		// The entry conditions held but the very first cycle could not be
		// proven safe. Planning costs about as much as stepping; back off
		// before probing this contended regime again.
		be.mcNextTry = p.cycle + blockMCRetry
		return
	}

	// Bulk accounting: exactly what cyc-start Steps over this stretch would
	// have accumulated. Every participant was clocked (exec or bubble) each
	// cycle; fetch and data access counts come from the per-cycle plans.
	n := cyc - start
	p.ctr.AddStride(power.StrideDelta{
		Cycles:        n,
		Instrs:        instrs,
		ActiveCycles:  instrs,
		StallCycles:   bubbles,
		BranchBubbles: taken,
		UngatedCycles: n * uint64(len(act)),
		GatedCycles:   n * gated,
		HaltedCycles:  n * halted,
		IMReqs:        imReqs,
		IMAccesses:    imAccesses,
		DMReqs:        dmReqs,
		DMReads:       dmReads,
		DMWrites:      dmWrites,
	})
	for _, c := range act {
		p.perCoreBusy[c] += n
		p.windowBusy[c] += uint32(n)
	}
	p.cycle = cyc
	p.sync.FastForward(cyc)
	p.imx.AdvanceN(n)
	p.dmx.AdvanceN(n)
	p.lastCycleIdle = false
	be.mcRuns++
	be.mcCycles += n
	// One span per stride, tagged with the participating core count.
	p.obs.Span(obs.KindBlockStride, obs.TrackEngine, 0, start, n, int64(instrs), int64(len(act)))
	p.obs.Observe("engine.block_stride_cycles", n)
	p.obs.Observe(blockStrideCoresName[len(act)-1], n)
	for _, c := range act {
		p.blockSpinHygiene(c)
	}
}

// blockEnd bounds a stretch: it must end before anything external can
// intervene — the cycle budget, the next ADC event (sample publications,
// IRQ wakes, overruns, sample-window rollover) and any scheduled wake
// latency or gated-wait timeout expiry.
func (p *Platform) blockEnd(limit uint64) uint64 {
	end := limit
	if w, ok := p.sync.NextWake(p.cycle); ok && w-1 < end {
		end = w - 1
	}
	if p.adc != nil {
		if e := p.adc.NextEventCycle(); e-1 < end {
			end = e - 1
		}
	}
	return end
}

// blockYield is called after core c took a branch from latch inside a
// stretch. A tight backward loop is the spin detector's domain — its O(1)
// leap beats executing every iteration — unless the loop was already judged
// unleapable, so it reports whether the engine must yield core c stickily,
// and if so opens the yield span.
func (p *Platform) blockYield(c, latch int) bool {
	head := p.cores[c].PC
	if head > latch || latch-head >= core.MaxSpinPeriod ||
		latch < len(p.block.unleapable) && p.block.unleapable[latch] {
		return false
	}
	p.block.yield[c] = spinYield{on: true, lo: head, hi: latch}
	return true
}

// blockYielded reports whether running core c is inside its yielded spin
// loop and must keep stepping. It also judges the loop: each visit to the
// head — the core about to fetch it, counted once however long the fetch
// waits — compares the core's state with the previous visit's, and
// blockVerdictVisits consecutive differences release the yield and record
// the latch as unleapable.
func (p *Platform) blockYielded(c int) bool {
	y := &p.block.yield[c]
	if !y.on {
		return false
	}
	cr := p.cores[c]
	if cr.PC < y.lo || cr.PC > y.hi {
		y.on = false // the loop exited
		return false
	}
	if cr.PC != y.lo || cr.Bubble != 0 || cr.Fetched {
		y.atHead = false
		return true
	}
	if y.atHead {
		return true
	}
	y.atHead = true
	if y.seen && *cr == y.head {
		y.changes = 0 // the head state recurred: a leap may lie ahead
		return true
	}
	y.seen, y.head = true, *cr
	if y.changes++; y.changes < blockVerdictVisits {
		return true
	}
	if p.block.unleapable == nil {
		p.block.unleapable = make([]bool, isa.IMWords)
	}
	p.block.unleapable[y.hi] = true
	y.on = false
	return false
}

// blockSpinHygiene resets the spin detector for a stride participant: the
// stretch was not stepped, so core c's PC history is stale and any armed
// probe assumed contiguity it no longer has. Detection resumes on the
// stepped path.
func (p *Platform) blockSpinHygiene(c int) {
	p.spin.track[c].Reset()
	if p.spin.armed {
		p.spin.armed = false
		p.spin.nextCheck = p.cycle + spinRecheck
	}
}
