// Predecoded basic-block execution engine.
//
// The two fast-forward engines (fastforward.go, spinff.go) remove the quiet
// cycles; this engine attacks the loud ones. When cores are marching through
// straight-line code, Step still pays the full seven-phase toll per cycle —
// classify every core, arbitrate request lists, re-derive the MemOp, walk
// the opcode dispatch — even though nothing about the cycle is observable
// from outside. The block engine executes those stretches from the image's
// precomputed basic-block tables (mem.BlockSet) with counter and busy-window
// accounting applied in bulk at the end of the stretch, exactly as the
// equivalent Steps would have. It has two shapes:
//
//   - single-core runs (blockRunSingle): exactly one core is running, so a
//     single requester is always granted by the crossbars, never merged and
//     never stalled — the per-cycle arbitration results are known
//     statically and the inner loop is fetch → (optional banked memory
//     access) → execute;
//   - multi-core strides (blockRunMulti): every running core, N ≥ 2,
//     executes interleaved on the true cycle grid. The fast lane is the
//     paper's MC steady state: lock-step cores at one PC share a classify
//     and a broadcast-merged fetch, and a data-access set the interconnect
//     proves conflict-free at every rotating-priority phase
//     (interco.PlanConflictFree) needs no arbitration. Every other cycle —
//     divergent PCs, bubbles, held fetches, colliding data accesses — is
//     planned and arbitrated as Step's phases 1–4 would: both crossbars run
//     Arbitrate at the rotating-priority phase a stepped cycle would see
//     (the stride advances them cycle by cycle), a fetch loser stalls, and
//     a data loser keeps its fetched instruction and re-requests next cycle
//     without fetching. Planning never mutates simulated state, so a cycle
//     whose granted fetch the engine cannot execute ends the stride before
//     it commits.
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
//     exact-mode accounting). Under contention only a granted fetch counts:
//     a core that loses arbitration to such an instruction simply stalls.
//
// The one regime deliberately left to others is the short busy-wait loop:
// executing a spin loop instruction-by-instruction — even cheaply — is
// asymptotically worse than the spin engine's O(1) leap per proven period.
// On a taken backward branch shorter than maxSpinPeriod the engine
// therefore opens a sticky per-core yield span, which closes when the
// core's PC leaves the loop. The spin engine can only leap once every
// running core spins, so a yield hands the platform to Step only then: a
// single-core run ends at the yield, and a stride carries yielded pollers
// alongside its working cores, ending after the cycle in which every
// participant is yielded. The yields are the spin engine's nomination: it
// arms a recurrence probe when every running core is yielded, which is
// exactly when a leap is possible. Short loops are also what DSP kernels
// are made of, and a loop whose registers march (an induction variable, a
// walking pointer) can never recur, so the spin engine can never leap it.
// The yield therefore carries a verdict: at each stepped visit to the loop
// head the core's full state is compared with the previous visit, and
// blockVerdictVisits consecutive differences release the yield and record
// the loop's latch as unleapable for the platform's lifetime, so later
// entries of that loop run here from their first iteration. A genuine poll
// loop recurs at its head and keeps its yield; a stride that carried it
// restarts its count, since its head visits there went unobserved.
// With the idle fast-forward leaping the quiescent cycles, the four engines
// compose: idle FF / spin FF / single-core blocks / multi-core strides.
//
// Like the fast-forward engines, everything here is simulation-process
// state: Restore resets it (snapshot.go) and leap/engagement
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

// maxSpinPeriod bounds a yield's loop: a taken backward branch opens one
// only when its latch lies fewer than maxSpinPeriod instructions past its
// head. Longer loops run here, iteration by iteration.
const maxSpinPeriod = 24

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
	// set is the loaded instruction memory's basic-block metadata, analyzed
	// by New for every platform; it never changes after that, and Restore
	// keeps it.
	set *mem.BlockSet

	// Sticky per-core spin yields: once every running core's PC lies in its
	// yielded loop the engine stays off, and the spin engine probes the
	// stepped stretch for a recurrence (spinff.go).
	yield []spinYield
	// unleapable marks, by IM address, the latches of loops judged
	// unleapable (blockVerdictVisits); nil until the first verdict.
	unleapable []bool

	// Reusable scratch for the multi-core planner (no per-cycle allocs).
	active []int             // participating core ids this stride
	dm     []interco.Request // one cycle's data requests
	im     []interco.Request // one cycle's fetch requests

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
// engage differently while producing bit-identical results. Restore resets
// it.
func (p *Platform) BlockRuns() uint64 { return p.block.runs }

// BlockCycles returns how many cycles were executed by the single-core
// block path instead of through Step's seven phases. Unlike the
// fast-forward engines' skipped cycles these were fully simulated — only
// the per-cycle dispatch overhead was avoided — so the figure is a
// wall-clock diagnostic, not a statement about the workload.
func (p *Platform) BlockCycles() uint64 { return p.block.cycles }

// BlockMCStrides returns how many multi-core strides executed at least one
// cycle. A wall-clock diagnostic like BlockRuns; Restore resets it.
func (p *Platform) BlockMCStrides() uint64 { return p.block.mcRuns }

// BlockMCCycles returns how many cycles were executed inside multi-core
// strides. Every participating core advanced through each of them, so the
// per-core-cycle figure is this times the participant count (see the
// engine.block_stride_cycles.cN histograms for the split).
func (p *Platform) BlockMCCycles() uint64 { return p.block.mcCycles }

// blockReset clears the engine's sticky yields, loop verdicts and
// diagnostics: Restore. The block tables themselves derive from the
// immutable image and survive.
func (p *Platform) blockReset() {
	for c := range p.block.yield {
		p.block.yield[c] = spinYield{}
	}
	clear(p.block.unleapable)
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
	nrun, nyield := 0, 0
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
				nyield++
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
	case nyield == nrun:
		return // every running core spins: the spin engine's domain
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
	p.spinDisarm()
}

// Participant states of one multi-core stride cycle, as Step's phases 1–4
// would classify them.
const (
	mcExec    uint8 = iota // executes; no data request
	mcMem                  // executes once its data request (be.dm) is granted
	mcBubble               // burns a pipeline-refill bubble
	mcIMStall              // lost fetch arbitration
	mcBlock                // Step's turn if its fetch is granted
)

// blockRunMulti is the N ≥ 2 running-core stride path: per-core block runs
// interleaved on the cycle grid, each cycle planned and arbitrated at Step's
// rotating-priority phase before it commits, with one batched
// counters/synchronizer flush for the whole stride (see the file comment).
func (p *Platform) blockRunMulti(limit uint64, gated, halted uint64) {
	be := &p.block

	// Collect the participants and check the per-core entry conditions.
	// memPlan tracks whether any participant's current straight-line run
	// touches data memory at all (mem.RunSummary): pure-compute strides —
	// the lock-step common case between sync points — skip data-access
	// planning entirely until a branch lands in a run that needs it. A held
	// fetch sits on a load or store, so it sets memPlan too.
	act := be.active[:0]
	memPlan := false
	nyield := 0
	for c := 0; c < p.ncore; c++ {
		if p.sync.State(c) != core.StateRunning {
			continue
		}
		if !p.sync.Runnable(c, p.cycle+1) {
			return // inside its wake latency: these are idle cycles
		}
		if be.set.Summary(p.cores[c].PC).TouchesMem() {
			memPlan = true
		}
		if be.yield[c].on {
			nyield++
		}
		act = append(act, c)
	}
	be.active = act

	end := p.blockEnd(limit)
	if end <= p.cycle {
		return
	}

	// Per-cycle scratch, indexed by participant position in act; imWho and
	// dmWho map a request back to its participant.
	var (
		pins         [isa.MaxCores]isa.Instr
		mcls         [isa.MaxCores]mem.InstrClass
		st           [isa.MaxCores]uint8
		imWho, dmWho [isa.MaxCores]int
		crs          [isa.MaxCores]*cpu.Core
	)
	nact := len(act)
	for i, c := range act {
		crs[i] = p.cores[c]
	}
	start := p.cycle
	cyc := start
	var instrs, stalls, taken, imReqs, imAccesses, imConflict uint64
	var dmReqs, dmReads, dmWrites, dmConflict uint64

stride:
	for cyc < end && nyield < nact {
		// ---- Lock-step fast lane: every participant aligned at the same PC
		// with no pipeline bubble and no held fetch — the paper's MC steady
		// state. One shared classify and one broadcast-merged fetch serve all
		// cores; only the data addresses (register-dependent) are planned per
		// core, and a conflict-free set is granted at every phase.
		pc0 := crs[0].PC
		aligned := crs[0].Bubble == 0 && !crs[0].Fetched
		for k := 1; k < nact && aligned; k++ {
			aligned = crs[k].PC == pc0 && crs[k].Bubble == 0 && !crs[k].Fetched
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
			dm, dmAcc, nw := be.dm[:0], 0, 0
			if cls == mem.ClassLoad || cls == mem.ClassStore {
				for i, c := range act {
					addr := crs[i].Regs[ins.Rs1] + uint16(ins.Imm)
					if isa.IsMMIO(addr) {
						break stride // MMIO interacts with platform state
					}
					b, o := p.mapper.Map(c, addr)
					if _, ok := p.dmem.Read(b, o); !ok {
						break stride // powered-off bank: Step will fault
					}
					dm = planReq(dm, c, b, o, cls == mem.ClassStore)
				}
				dmAcc, ok = interco.PlanConflictFree(dm)
				if cls == mem.ClassStore {
					nw = len(dm)
				}
			}
			if ok {
				for i := range crs[:nact] {
					cr := crs[i]
					var loadVal uint16
					switch cls {
					case mem.ClassLoad:
						loadVal, _ = p.dmem.Read(dm[i].Bank, dm[i].Offset)
					case mem.ClassStore:
						p.dmem.Write(dm[i].Bank, dm[i].Offset, cr.Regs[ins.Rs2])
					}
					cr.IR = ins
					tk := cr.ExecuteBlock(ins, loadVal)
					if tk {
						taken++
					}
					if cls == mem.ClassControl {
						nyield += p.blockRespan(act[i], pc0, tk)
						// Refresh the memory-planning invariant for the
						// generic lane (a diverging branch may drop out of
						// lock-step next cycle).
						if !memPlan && be.set.Summary(cr.PC).TouchesMem() {
							memPlan = true
						}
					}
				}
				instrs += uint64(nact)
				imReqs += uint64(nact)
				imAccesses++
				dmReqs += uint64(len(dm))
				dmReads += uint64(dmAcc - nw)
				dmWrites += uint64(nw)
				cyc++
				p.imx.Advance()
				p.dmx.Advance()
				continue
			}
			// Colliding data accesses: the generic lane arbitrates them.
		}

		// ---- Generic lane: plan the cycle as Step's phases 1–4 see it and
		// arbitrate both crossbars at the current rotating-priority phase.
		// Nothing simulated mutates before the commit below, and register
		// state is pre-cycle for every core, so the planned addresses are
		// exactly Step's phase-3 addresses. A fetch the engine cannot
		// execute — a stop instruction, a fault, MMIO, a powered-off data
		// bank — ends the stride only if arbitration grants it.
		im, dm := be.im[:0], be.dm[:0]
		lockstep := true
		firstPC := -1
		nblock := 0
		for i, c := range act {
			cr := crs[i]
			if cr.Bubble > 0 {
				st[i] = mcBubble
				continue
			}
			cls := be.set.Class(cr.PC)
			ins := cr.IR // held from a DM stall: re-requested without a fetch
			st[i] = mcBlock
			if !cr.Fetched {
				if firstPC < 0 {
					firstPC = cr.PC
				} else if cr.PC != firstPC {
					lockstep = false
				}
				imWho[len(im)] = i
				im = planReq(im, c, isa.IMBankOf(cr.PC), cr.PC, false)
				var ok bool
				if ins, ok = p.imem.Fetch(cr.PC); !ok || cls == mem.ClassStop {
					nblock++
					continue
				}
			}
			pins[i], mcls[i] = ins, cls
			// Invariant: while !memPlan no run in flight contains a load or
			// store (entry check + the refresh after every control transfer
			// below), so no address needs computing.
			if !memPlan || cls != mem.ClassLoad && cls != mem.ClassStore {
				st[i] = mcExec
				continue
			}
			addr := cr.Regs[ins.Rs1] + uint16(ins.Imm)
			if isa.IsMMIO(addr) {
				nblock++
				continue
			}
			b, o := p.mapper.Map(c, addr)
			if _, ok := p.dmem.Read(b, o); !ok {
				nblock++
				continue
			}
			dmWho[len(dm)] = i
			dm = planReq(dm, c, b, o, cls == mem.ClassStore)
			st[i] = mcMem
		}

		// Fetch arbitration. Lock-step fetchers share one PC and ride a
		// single broadcast-merged bank read at any phase; divergent PCs are
		// arbitrated, and a loser stalls without issuing its data request.
		imAcc, imStall := 0, 0
		if len(im) > 0 {
			imAcc = 1
			if !lockstep {
				res := p.imx.Arbitrate(im)
				imAcc, imStall = res.Accesses, res.Stalled
			}
		}
		if imStall > 0 {
			for j := range im {
				if !im[j].Granted {
					st[imWho[j]] = mcIMStall
				}
			}
			n := 0
			for k := range dm {
				if st[dmWho[k]] == mcMem {
					dm[n] = dm[k]
					n++
				}
			}
			dm = dm[:n]
		}
		if nblock > 0 {
			for i := range act {
				if st[i] == mcBlock {
					break stride // Step executes this cycle exactly
				}
			}
		}

		// Data arbitration. Every bank sees one winner plus the reads that
		// merge with it, so commit order within the cycle cannot matter: no
		// core can observe another's same-cycle write.
		dmStall := 0
		if len(dm) > 0 {
			dmStall = p.dmx.Arbitrate(dm).Stalled
		}

		// ---- Commit: the cycle is arbitrated; execute it in core order.
		k := 0
		for i, c := range act {
			cr := crs[i]
			var loadVal uint16
			switch st[i] {
			case mcBubble:
				cr.Bubble--
				stalls++
				continue
			case mcIMStall:
				continue
			case mcMem:
				r := &dm[k]
				k++
				if !r.Granted {
					// Step's phase-4 loser keeps its fetched instruction
					// and re-requests next cycle without fetching.
					cr.IR, cr.Fetched = pins[i], true
					continue
				}
				if r.Write {
					p.dmem.Write(r.Bank, r.Offset, cr.Regs[pins[i].Rs2])
					dmWrites++
				} else {
					loadVal, _ = p.dmem.Read(r.Bank, r.Offset)
					if !r.Merged {
						dmReads++
					}
				}
			}
			prevPC := cr.PC
			cr.IR = pins[i]
			tk := cr.ExecuteBlock(pins[i], loadVal)
			if tk {
				taken++
			}
			// Straight-line runs only ever end at a control transfer, so
			// this is the one place a core can enter a new run or leave a
			// loop mid-stride: refresh the yield span and the
			// memory-planning flag (taken or fall-through).
			if mcls[i] == mem.ClassControl {
				nyield += p.blockRespan(c, prevPC, tk)
				if !memPlan && be.set.Summary(cr.PC).TouchesMem() {
					memPlan = true
				}
			}
			instrs++
		}
		stalls += uint64(imStall + dmStall)
		imReqs += uint64(len(im))
		imAccesses += uint64(imAcc)
		imConflict += uint64(imStall)
		dmReqs += uint64(len(dm))
		dmConflict += uint64(dmStall)
		cyc++
		p.imx.Advance()
		p.dmx.Advance()
	}
	if cyc == start {
		return // a stop instruction, MMIO or a fault straight ahead: Step's cycle
	}

	// Bulk accounting: exactly what cyc-start Steps over this stretch would
	// have accumulated. Every participant was clocked (exec, bubble or
	// stall) each cycle; fetch and data access counts come from the
	// per-cycle arbitration, and the crossbars advanced cycle by cycle.
	n := cyc - start
	p.ctr.AddStride(power.StrideDelta{
		Cycles:        n,
		Instrs:        instrs,
		ActiveCycles:  instrs,
		StallCycles:   stalls,
		BranchBubbles: taken,
		UngatedCycles: n * uint64(nact),
		GatedCycles:   n * gated,
		HaltedCycles:  n * halted,
		IMReqs:        imReqs,
		IMAccesses:    imAccesses,
		IMConflict:    imConflict,
		DMReqs:        dmReqs,
		DMReads:       dmReads,
		DMWrites:      dmWrites,
		DMConflict:    dmConflict,
	})
	for _, c := range act {
		p.perCoreBusy[c] += n
		p.windowBusy[c] += uint32(n)
		// A carried yielded core's head visits went unobserved: its
		// verdict count restarts, so a poll loop is never judged from a
		// partial observation.
		if y := &be.yield[c]; y.on {
			*y = spinYield{on: true, lo: y.lo, hi: y.hi}
		}
	}
	p.spinDisarm()
	p.cycle = cyc
	p.sync.FastForward(cyc)
	p.lastCycleIdle = false
	be.mcRuns++
	be.mcCycles += n
	// One span per stride, tagged with the participating core count.
	p.obs.Span(obs.KindBlockStride, obs.TrackEngine, 0, start, n, int64(instrs), int64(nact))
	p.obs.Observe("engine.block_stride_cycles", n)
	p.obs.Observe(blockStrideCoresName[nact-1], n)
}

// planReq appends one request to a stride planner's scratch slice, whose
// capacity covers every core. It writes the fields in place: appending a
// composite literal builds it in a stack temporary whose wide reload stalls
// on store forwarding, a measurable share of a contended stride's cost. The
// outcome fields keep a stale value until Arbitrate resets them, and no lane
// reads them without arbitrating.
func planReq(reqs []interco.Request, core, bank, offset int, write bool) []interco.Request {
	n := len(reqs)
	reqs = reqs[:n+1]
	r := &reqs[n]
	r.Core, r.Bank, r.Offset, r.Write = core, bank, offset, write
	return reqs
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
// stretch. A tight backward loop is the spin engine's domain — its O(1)
// leap beats executing every iteration — unless the loop was already judged
// unleapable, so it reports whether the engine must yield core c stickily,
// and if so opens the yield span.
func (p *Platform) blockYield(c, latch int) bool {
	head := p.cores[c].PC
	if head > latch || latch-head >= maxSpinPeriod ||
		latch < len(p.block.unleapable) && p.block.unleapable[latch] {
		return false
	}
	p.block.yield[c] = spinYield{on: true, lo: head, hi: latch}
	return true
}

// blockRespan keeps core c's yield span current after it executed the
// control transfer at pc inside a multi-core stride: a taken short backward
// branch opens (or reopens) a span as blockYield decides, and a PC that
// left the span closes it. It returns the change in the number of yielded
// cores.
func (p *Platform) blockRespan(c, pc int, taken bool) int {
	y := &p.block.yield[c]
	was := y.on
	if !(taken && p.blockYield(c, pc)) && y.on {
		if at := p.cores[c].PC; at < y.lo || at > y.hi {
			y.on = false
		}
	}
	switch {
	case y.on == was:
		return 0
	case y.on:
		return 1
	}
	return -1
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
