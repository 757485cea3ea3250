// Predecoded basic-block execution engine.
//
// blockRun is the single entry to every fast path. Each call sorts the
// cores into runnable on the next cycle, waking (running, but inside its
// wake latency), gated and halted, and then leaps an idle stretch
// (fastforward.go), returns to Step, or runs a single-core block or a
// multi-core stride, each bounded by the next wake, ADC event or budget
// (blockEnd). The idle leap removes the quiet cycles; the blocks and
// strides attack the loud ones. When cores are marching through
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
//     and a broadcast-merged fetch, and their data accesses are arbitrated
//     as one set; when none stalls, the cycle commits without per-core
//     planning. Every other cycle — divergent PCs, bubbles, held fetches,
//     colliding data accesses — is planned and arbitrated as Step's phases
//     1–4 would: both crossbars run Arbitrate at the rotating-priority
//     phase a stepped cycle would see (the stride advances them cycle by
//     cycle), a fetch loser stalls, and a data loser keeps its fetched
//     instruction and re-requests next cycle without fetching. Planning
//     never mutates simulated state, so a cycle whose granted fetch the
//     engine cannot execute ends the stride before it commits.
//
// Unlike the idle leaps, these cycles are fully simulated — every
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
// A stride also parks the busy-wait pollers it carries (park.go). A taken
// backward branch shorter than maxPollLoop opens a per-core poll span, which
// closes when the core's PC leaves the loop. A participant whose span holds
// no store and no stop instruction is recorded for one period from a visit
// to its loop head; when the head state recurs with every loaded word
// unchanged, the poller leaves the per-cycle plan and the lanes plan only
// the participants left, so one working core beside parked pollers runs on
// the lock-step lane. Parking is exact because a core's next state depends
// only on its own state, its grants and the words it loads: a requester
// alone on its banks is granted by Arbitrate at every rotating-priority
// phase (see interco.PhasePeriod), no store has reached its read set and
// its head state recurred, so every later period repeats the recorded one.
// The stride materializes the poller — its recorded state at its
// position, its activity in bulk — before any of that can change: before
// planning a cycle in which another participant's request lands on one of
// its banks while it uses that bank, after a cycle whose committed store
// hits a word it loads, and when the stride ends. A parked poller
// therefore never shares a bank with an active request in a cycle it uses
// it, so the active participants' arbitration and the stride's exit cycle
// are those of the unparked stride. Lock-step pollers that fetch one PC and
// load the same words park as one requester, counted as Arbitrate merges
// them. Once every participant is parked nothing is left to change their
// course before the stride's end, so the stride leaps there in one step:
// the MC-nosync busy-wait between samples costs O(1) per stride.
//
// Short loops are also what DSP kernels are made of, and a loop whose
// registers march (an induction variable, a walking pointer) never recurs
// at its head. Its recordings fail, and parkMaxFails consecutive failures
// mark its latch unparkable for the platform's lifetime: no poll span opens
// there again, so later entries of that loop cost the stride nothing
// beyond executing it. A single running core is never parked: one core
// polling alone, or a loop polling an MMIO register, runs exactly on
// single-core blocks or Step.
//
// Like the idle leap, everything here is simulation-process state:
// Restore resets it (snapshot.go) and leap/engagement placement may differ
// across Run chunkings while every architectural observable stays
// bit-identical — enforced by blockengine_test.go, park_test.go, the
// randomized cross-engine differential fuzzer (difffuzz_test.go), the
// golden-equivalence suites and the scenario matrix.

package platform

import (
	"math/bits"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/interco"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/power"
)

// maxPollLoop bounds a poll span's loop: a taken backward branch opens one
// only when its latch lies fewer than maxPollLoop instructions past its
// head. Longer loops run on strides, iteration by iteration.
const maxPollLoop = 24

// pollSpan is one core's poll span: the loop a stride may record and park.
type pollSpan struct {
	on     bool
	lo, hi int // loop head and latch (the backward branch) PCs
}

// blockEngine is the engine state embedded in Platform.
type blockEngine struct {
	// set is the loaded instruction memory's basic-block metadata, analyzed
	// by New for every platform; it never changes after that, and Restore
	// keeps it.
	set *mem.BlockSet

	// Per-core poll spans, kept current by the strides (blockRespan).
	yield []pollSpan
	// unparkable marks, by IM address, the latches of loops judged
	// unparkable (parkFail); nil until the first verdict.
	unparkable []bool

	// Reusable scratch for the multi-core planner (no per-cycle allocs).
	active []int             // participating core ids this stride
	live   []int             // the participants that are not parked
	dm     []interco.Request // one cycle's data requests
	im     []interco.Request // one cycle's fetch requests

	// Parked pollers (park.go): per-core recordings, allocated by the first
	// stride that watches a poll span, and the requesters parked in the
	// current stride.
	rec            []parkRec
	leads, parked  uint8  // parked requesters' lead cores; every parked core
	imPark, dmPark uint32 // banks the parked requesters use

	// Wall-clock diagnostics (process state, not snapshotted).
	runs      uint64 // single-core engagements that executed ≥ 1 cycle
	cycles    uint64 // cycles executed on the single-core fast path
	mcRuns    uint64 // multi-core strides that executed ≥ 1 cycle
	mcCycles  uint64 // cycles executed on the multi-core stride path
	mcAligned uint64 // stride cycles run on the lock-step lane
	mcParks   uint64 // requesters parked
	mcParked  uint64 // core-cycles spent parked
	mcLeapt   uint64 // stride cycles leapt with every participant parked
}

// blockInit sizes the engine's per-core state for ncore cores; called once
// from New after the block tables are built.
func (b *blockEngine) blockInit(ncore int) {
	b.yield = make([]pollSpan, ncore)
	b.active = make([]int, 0, ncore)
	b.live = make([]int, 0, ncore)
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
// block path instead of through Step's seven phases. Unlike idle-leapt
// cycles these were fully simulated — only the per-cycle dispatch overhead
// was avoided — so the figure is a wall-clock diagnostic, not a statement
// about the workload.
func (p *Platform) BlockCycles() uint64 { return p.block.cycles }

// BlockMCStrides returns how many multi-core strides executed at least one
// cycle. A wall-clock diagnostic like BlockRuns; Restore resets it.
func (p *Platform) BlockMCStrides() uint64 { return p.block.mcRuns }

// BlockMCCycles returns how many cycles were executed inside multi-core
// strides. Every participating core advanced through each of them, so the
// per-core-cycle figure is this times the participant count (see the
// engine.block_stride_cycles.cN histograms for the split).
func (p *Platform) BlockMCCycles() uint64 { return p.block.mcCycles }

// BlockMCParkedCycles returns how many participant core-cycles of
// multi-core strides were spent parked (park.go) instead of being planned
// cycle by cycle. A wall-clock diagnostic like BlockMCCycles; Restore
// resets it.
func (p *Platform) BlockMCParkedCycles() uint64 { return p.block.mcParked }

// BlockMCLeaptCycles returns how many of BlockMCCycles a stride leapt in
// one step because every participant was parked. A wall-clock diagnostic
// like BlockMCCycles; Restore resets it.
func (p *Platform) BlockMCLeaptCycles() uint64 { return p.block.mcLeapt }

// blockReset clears the engine's poll spans, loop verdicts, poll-loop
// recordings and diagnostics: Restore. The block tables themselves derive
// from the immutable image and survive.
func (p *Platform) blockReset() {
	for c := range p.block.yield {
		p.block.yield[c] = pollSpan{}
	}
	clear(p.block.unparkable)
	p.block.parkReset()
	p.block.runs = 0
	p.block.cycles = 0
	p.block.mcRuns = 0
	p.block.mcCycles = 0
	p.block.mcAligned = 0
	p.block.mcParks = 0
	p.block.mcParked = 0
	p.block.mcLeapt = 0
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

// blockRun is the single entry to the fast paths: it takes as many
// upcoming cycles as it can prove safe, stopping at limit (the caller's
// exclusive cycle budget) or earlier at blockEnd, the one bound every path
// shares. It either advances the platform exactly as the same number of
// Steps would, or returns having touched nothing — every bail-out happens
// before the cycle being abandoned has any effect, so Step re-simulates it
// with exact-mode accounting.
func (p *Platform) blockRun(limit uint64) {
	if p.fault != nil {
		return
	}
	for {
		// Sort the cores by what they do on the next cycle. Gated, waking
		// and halted cores contribute fixed per-cycle counter increments on
		// every path; a waking core counts as gated, as Step classifies it.
		anchor := -1
		var nrun, waking, gated, halted uint64
		for c := 0; c < p.ncore; c++ {
			switch p.sync.State(c) {
			case core.StateRunning:
				if !p.sync.Runnable(c, p.cycle+1) {
					waking++
					continue
				}
				if nrun == 0 {
					anchor = c
				}
				nrun++
			case core.StateGated:
				gated++
			default:
				halted++
			}
		}
		end := p.blockEnd(limit)
		switch {
		case end <= p.cycle:
			return // at the budget, or an event is due next cycle: Step's turn
		case nrun == 0:
			// Run stops one Step after the last core halts.
			if halted == uint64(p.ncore) {
				return
			}
			p.leap(end-p.cycle, gated+waking, halted)
			continue // a core whose wake latency ends here may run on blocks
		case waking > 0:
			return // a core inside its wake latency beside running ones
		case nrun == 1:
			p.blockRunSingle(end, anchor, gated, halted)
		default:
			p.blockRunMulti(end, gated, halted)
		}
		return
	}
}

// blockRunSingle is the one-running-core fast path (see the file comment).
func (p *Platform) blockRunSingle(end uint64, anchor int, gated, halted uint64) {
	cr := p.cores[anchor]
	if cr.Fetched {
		return // held instruction from a DM stall: Step must replay it
	}
	if cr.Bubble == 0 && p.block.set.RunLen(cr.PC) == 0 {
		return // parked on a stop instruction: nothing for the fast path
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
			cr.IR = ins
			if cr.ExecuteBlock(ins, loadVal) {
				taken++
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
	p.block.runs++
	p.block.cycles += n
	// One span per stride: the engine bails before MMIO, sync ISE, HALT
	// and faults, so no boundary event can fall inside the stretch.
	p.obs.Span(obs.KindBlockStride, obs.TrackEngine, 0, start, n, int64(instrs), 1)
	p.obs.Observe("engine.block_stride_cycles", n)
	p.obs.Observe(blockStrideCoresName[0], n)
}

// Participant states of one multi-core stride cycle, as Step's phases 1–4
// would classify them.
const (
	mcExec    uint8 = iota // executes; no data request
	mcMem                  // executes once its data request (be.dm) is granted
	mcBubble               // burns a pipeline-refill bubble
	mcIMStall              // lost fetch arbitration
)

// blockRunMulti is the N ≥ 2 running-core stride path: per-core block runs
// interleaved on the cycle grid, each cycle planned and arbitrated at Step's
// rotating-priority phase before it commits, with one batched
// counters/synchronizer flush for the whole stride (see the file comment).
func (p *Platform) blockRunMulti(end uint64, gated, halted uint64) {
	be := &p.block

	// Collect the participants: every running core, all of them runnable
	// (blockRun). A poll span whose core left the loop outside a stride (in
	// Step or a single-core run) closes here; nyield counts the spans left
	// open.
	all := be.active[:0]
	nyield := 0
	for c := 0; c < p.ncore; c++ {
		if p.sync.State(c) != core.StateRunning {
			continue
		}
		pc := p.cores[c].PC
		if y := &be.yield[c]; y.on {
			if pc < y.lo || pc > y.hi {
				y.on = false
			} else {
				nyield++
			}
		}
		all = append(all, c)
	}
	be.active = all

	// Per-cycle scratch, indexed by position in act, the participants not
	// parked; imWho and dmWho map a request back to its participant.
	var (
		pins         [isa.MaxCores]isa.Instr
		mcls         [isa.MaxCores]mem.InstrClass
		st           [isa.MaxCores]uint8
		imWho, dmWho [isa.MaxCores]int
		crs          [isa.MaxCores]*cpu.Core
	)
	nall := len(all)
	act := p.strideLive(all, be.live, &crs)
	be.parkBegin(all)
	start := p.cycle
	cyc := start
	// sd accumulates the stride's activity for one AddStride flush.
	var sd power.StrideDelta
	var aligned uint64
	// pend holds the parked requesters (by lead core) to materialize at the
	// start of cycle cyc; watched is the last cycle parkWatch saw.
	var pend uint8
	watched := cyc - 1

stride:
	for cyc < end {
		if pend != 0 {
			p.unpark(pend, cyc, &sd)
			pend = 0
			act = p.strideLive(all, act, &crs)
		}
		// A participant in a poll span that is not parked may be recording
		// its loop.
		if nyield > bits.OnesCount8(be.parked) && cyc != watched {
			watched = cyc
			parked, retired := p.parkWatch(cyc, act)
			nyield -= retired
			if parked {
				act = p.strideLive(all, act, &crs)
			}
		}
		nact := len(act)
		if nact == 0 {
			// Every participant is parked: no request or store is left to
			// touch their banks or read sets before the stride's end, so
			// the crossbars advance there in one step and the exit below
			// materializes the pollers.
			p.imx.AdvanceN(end - cyc)
			p.dmx.AdvanceN(end - cyc)
			be.mcLeapt += end - cyc
			cyc = end
			break
		}

		// ---- Lock-step fast lane: every participant aligned at the same PC
		// with no pipeline bubble and no held fetch — the paper's MC steady
		// state. One shared classify and one broadcast-merged fetch serve all
		// cores; only the data addresses (register-dependent) are planned per
		// core, and the set is arbitrated at the current phase.
		pc0 := crs[0].PC
		lockstep := crs[0].Bubble == 0 && !crs[0].Fetched
		for k := 1; k < nact && lockstep; k++ {
			lockstep = crs[k].PC == pc0 && crs[k].Bubble == 0 && !crs[k].Fetched
		}
		if lockstep {
			cls := be.set.Class(pc0)
			if cls == mem.ClassStop {
				break stride // sync ISE / HALT / invalid ahead: Step's turn
			}
			if bank := isa.IMBankOf(pc0); be.imPark&(1<<bank) != 0 {
				if pend = be.parkHit(cyc, bank, true); pend != 0 {
					continue // a parked requester fetches from this bank now
				}
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
					if be.dmPark&(1<<b) != 0 {
						pend |= be.parkHit(cyc, b, false)
					}
					dm = planReq(dm, c, b, o, cls == mem.ClassStore)
				}
				if pend != 0 {
					continue // a parked requester loads from one of these banks now
				}
				// Arbitrate changes only dm's outcome fields and its own
				// scratch, never the phase, so a stalled set falls through
				// to the generic lane, which plans and arbitrates it again.
				res := p.dmx.Arbitrate(dm)
				dmAcc, ok = res.Accesses, res.Stalled == 0
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
						if be.dmPark&(1<<dm[i].Bank) != 0 {
							pend |= be.parkStoreHit(dm[i].Bank, dm[i].Offset)
						}
					}
					cr.IR = ins
					tk := cr.ExecuteBlock(ins, loadVal)
					if tk {
						sd.BranchBubbles++
					}
					if cls == mem.ClassControl {
						nyield += p.blockRespan(act[i], pc0, tk)
					}
				}
				sd.Instrs += uint64(nact)
				sd.IMReqs += uint64(nact)
				sd.IMAccesses++
				sd.DMReqs += uint64(len(dm))
				sd.DMReads += uint64(dmAcc - nw)
				sd.DMWrites += uint64(nw)
				aligned++
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
		im := be.im[:0]
		lockstep = true
		firstPC := -1
		for i, c := range act {
			cr := crs[i]
			switch {
			case cr.Bubble > 0:
				st[i] = mcBubble
			case cr.Fetched:
				st[i] = mcExec // held from a DM stall: re-requested without a fetch
			default:
				st[i] = mcExec
				if firstPC < 0 {
					firstPC = cr.PC
				} else if cr.PC != firstPC {
					lockstep = false
				}
				b := isa.IMBankOf(cr.PC)
				if be.imPark&(1<<b) != 0 {
					pend |= be.parkHit(cyc, b, true)
				}
				imWho[len(im)] = i
				im = planReq(im, c, b, cr.PC, false)
			}
		}
		if pend != 0 {
			continue // a parked requester fetches from one of these banks now
		}

		// Fetch arbitration. Lock-step fetchers share one PC and ride a
		// single broadcast-merged bank read at any phase; divergent PCs are
		// arbitrated, and a loser stalls without issuing its data request.
		imAcc, imStall := 0, 0
		if len(im) > 0 {
			imAcc = 1
			if !lockstep {
				res := p.imx.Arbitrate(im)
				if imAcc, imStall = res.Accesses, res.Stalled; imStall > 0 {
					for j := range im {
						if !im[j].Granted {
							st[imWho[j]] = mcIMStall
						}
					}
				}
			}
		}

		// Data requests of the granted and held instructions. One the
		// engine cannot execute ends the stride: Step executes this cycle
		// exactly.
		dm := be.dm[:0]
		for i, c := range act {
			if st[i] != mcExec {
				continue
			}
			cr := crs[i]
			cls := be.set.Class(cr.PC)
			ins := cr.IR
			if !cr.Fetched {
				var ok bool
				if ins, ok = p.imem.Fetch(cr.PC); !ok || cls == mem.ClassStop {
					break stride
				}
			}
			pins[i], mcls[i] = ins, cls
			if cls != mem.ClassLoad && cls != mem.ClassStore {
				continue
			}
			addr := cr.Regs[ins.Rs1] + uint16(ins.Imm)
			if isa.IsMMIO(addr) {
				break stride
			}
			b, o := p.mapper.Map(c, addr)
			if _, ok := p.dmem.Read(b, o); !ok {
				break stride
			}
			if be.dmPark&(1<<b) != 0 {
				pend |= be.parkHit(cyc, b, false)
			}
			dmWho[len(dm)] = i
			dm = planReq(dm, c, b, o, cls == mem.ClassStore)
			st[i] = mcMem
		}
		if pend != 0 {
			continue // a parked requester loads from one of these banks now
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
				sd.StallCycles++
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
					sd.DMWrites++
					if be.dmPark&(1<<r.Bank) != 0 {
						pend |= be.parkStoreHit(r.Bank, r.Offset)
					}
				} else {
					loadVal, _ = p.dmem.Read(r.Bank, r.Offset)
					if !r.Merged {
						sd.DMReads++
					}
				}
			}
			prevPC := cr.PC
			cr.IR = pins[i]
			tk := cr.ExecuteBlock(pins[i], loadVal)
			if tk {
				sd.BranchBubbles++
			}
			// Straight-line runs only ever end at a control transfer, so
			// this is the one place a core can leave a loop mid-stride:
			// refresh the yield span (taken or fall-through).
			if mcls[i] == mem.ClassControl {
				nyield += p.blockRespan(c, prevPC, tk)
			}
			sd.Instrs++
		}
		sd.StallCycles += uint64(imStall + dmStall)
		sd.IMReqs += uint64(len(im))
		sd.IMAccesses += uint64(imAcc)
		sd.IMConflict += uint64(imStall)
		sd.DMReqs += uint64(len(dm))
		sd.DMConflict += uint64(dmStall)
		cyc++
		p.imx.Advance()
		p.dmx.Advance()
	}
	// Every exit materializes the parked requesters at the exit cycle.
	if be.leads != 0 {
		p.unpark(be.leads, cyc, &sd)
	}
	be.live = act
	if cyc == start {
		return // a stop instruction, MMIO or a fault straight ahead: Step's cycle
	}

	// Bulk accounting: exactly what cyc-start Steps over this stretch would
	// have accumulated. Every participant was clocked (exec, bubble or
	// stall) each cycle; fetch and data access counts come from the
	// per-cycle arbitration, and the crossbars advanced cycle by cycle.
	n := cyc - start
	sd.Cycles = n
	sd.ActiveCycles = sd.Instrs
	sd.UngatedCycles = n * uint64(nall)
	sd.GatedCycles = n * gated
	sd.HaltedCycles = n * halted
	p.ctr.AddStride(sd)
	for _, c := range all {
		p.perCoreBusy[c] += n
		p.windowBusy[c] += uint32(n)
	}
	p.cycle = cyc
	p.sync.FastForward(cyc)
	be.mcRuns++
	be.mcCycles += n
	be.mcAligned += aligned
	// One span per stride, tagged with the participating core count.
	p.obs.Span(obs.KindBlockStride, obs.TrackEngine, 0, start, n, int64(sd.Instrs), int64(nall))
	p.obs.Observe("engine.block_stride_cycles", n)
	p.obs.Observe(blockStrideCoresName[nall-1], n)
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

// blockRespan keeps core c's poll span current after it executed the
// control transfer at pc inside a multi-core stride: a taken short backward
// branch whose latch is not judged unparkable opens (or reopens) a span, and
// a PC that left the span closes it. It returns the change in the number of
// open spans.
func (p *Platform) blockRespan(c, pc int, taken bool) int {
	be := &p.block
	y := &be.yield[c]
	was := y.on
	switch head := p.cores[c].PC; {
	case taken && head <= pc && pc-head < maxPollLoop &&
		!(pc < len(be.unparkable) && be.unparkable[pc]):
		*y = pollSpan{on: true, lo: head, hi: pc}
	case y.on && (head < y.lo || head > y.hi):
		y.on = false
	}
	switch {
	case y.on == was:
		return 0
	case y.on:
		return 1
	}
	return -1
}
