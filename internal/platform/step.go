package platform

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/interco"
	"repro/internal/isa"
	"repro/internal/obs"
)

// Step simulates one platform clock cycle. It returns an error on an
// architectural fault (fetch from a powered-off bank, invalid opcode,
// data access to a powered-off bank).
func (p *Platform) Step() error {
	if p.fault != nil {
		return p.fault
	}
	p.cycle++
	p.stepped++
	cyc := p.cycle

	// Peripherals first: samples published at cycle T are visible to
	// instructions executing at T, and their interrupts wake cores for T+2.
	if p.adc != nil {
		p.adc.Tick(cyc)
	}

	// Phase 1: classify cores and collect fetch requests.
	p.imReqs = p.imReqs[:0]
	p.imWho = p.imWho[:0]
	for c := 0; c < p.ncore; c++ {
		cr := p.cores[c]
		switch {
		case p.sync.State(c) == core.StateHalted:
			p.status[c] = stHalted
		case !p.sync.Runnable(c, cyc):
			p.status[c] = stIdle
		case cr.Bubble > 0:
			cr.Bubble--
			p.status[c] = stBubble
		case cr.Fetched:
			// Held instruction from a previous DM stall: no fetch.
			p.status[c] = stExec
		default:
			p.status[c] = stExec // provisional; may become stIMStall
			pc := cr.PC
			p.imReqs = append(p.imReqs, interco.Request{
				Core: c, Bank: isa.IMBankOf(pc), Offset: pc,
			})
			p.imWho = append(p.imWho, c)
		}
	}

	// Phase 2: instruction fetch through the IM network.
	if len(p.imReqs) > 0 {
		res := p.imx.Arbitrate(p.imReqs)
		p.ctr.IMReqs += uint64(len(p.imReqs))
		p.ctr.IMAccesses += uint64(res.Accesses)
		p.ctr.IMConflict += uint64(res.Stalled)
		p.ctr.XbarReqs += uint64(len(p.imReqs))
		for i := range p.imReqs {
			c := p.imWho[i]
			if !p.imReqs[i].Granted {
				p.status[c] = stIMStall
				continue
			}
			cr := p.cores[c]
			ins, ok := p.imem.Fetch(cr.PC)
			if !ok {
				p.fault = fmt.Errorf("platform: cycle %d: core %d fetch from %#x (powered-off bank or out of range)", cyc, c, cr.PC)
				return p.fault
			}
			cr.IR = ins
			cr.Fetched = true
		}
	}

	// Phase 3: data requests for cores still on track to execute.
	p.dmReqs = p.dmReqs[:0]
	p.dmWho = p.dmWho[:0]
	for c := 0; c < p.ncore; c++ {
		if p.status[c] != stExec {
			continue
		}
		cr := p.cores[c]
		mop := cr.MemRequest(cr.IR)
		p.memOps[c] = mop
		if !mop.Valid {
			continue
		}
		if isa.IsMMIO(mop.Addr) {
			// MMIO has a dedicated register file: no arbitration.
			if mop.Write {
				p.mmioWrite(c, mop.Addr, mop.Data)
				p.ctr.MMIOWrites++
			} else {
				p.loadVal[c] = p.mmioRead(c, mop.Addr)
				p.ctr.MMIOReads++
			}
			continue
		}
		b, o := p.mapper.Map(c, mop.Addr)
		p.dmReqs = append(p.dmReqs, interco.Request{
			Core: c, Bank: b, Offset: o, Write: mop.Write,
		})
		p.dmWho = append(p.dmWho, c)
	}

	// Phase 4: data-memory arbitration and access.
	if len(p.dmReqs) > 0 {
		res := p.dmx.Arbitrate(p.dmReqs)
		p.ctr.DMReqs += uint64(len(p.dmReqs))
		p.ctr.DMConflict += uint64(res.Stalled)
		p.ctr.XbarReqs += uint64(len(p.dmReqs))
		for i := range p.dmReqs {
			c := p.dmWho[i]
			r := &p.dmReqs[i]
			if !r.Granted {
				p.status[c] = stDMStall
				continue
			}
			if r.Write {
				if !r.Merged {
					p.ctr.DMWrites++
				}
				if !p.dmem.Write(r.Bank, r.Offset, p.memOps[c].Data) {
					p.fault = fmt.Errorf("platform: cycle %d: core %d write to powered-off bank %d", cyc, c, r.Bank)
					return p.fault
				}
			} else {
				if !r.Merged {
					p.ctr.DMReads++
				}
				v, ok := p.dmem.Read(r.Bank, r.Offset)
				if !ok {
					p.fault = fmt.Errorf("platform: cycle %d: core %d read from powered-off bank %d", cyc, c, r.Bank)
					return p.fault
				}
				p.loadVal[c] = v
			}
		}
	}

	// Phase 5: execute.
	for c := 0; c < p.ncore; c++ {
		if p.status[c] != stExec {
			continue
		}
		cr := p.cores[c]
		ins := cr.IR
		eff := cr.Execute(ins, p.loadVal[c], p)
		if eff.Fault != nil {
			p.fault = eff.Fault
			return p.fault
		}
		p.ctr.Instrs++
		if ins.Op.IsSyncExtension() {
			p.ctr.SyncInstrs++
		}
		if eff.Taken {
			p.ctr.BranchBubbles++
		}
	}

	// Phase 6: commit merged synchronization operations and wakes.
	p.sync.Commit(cyc)

	// Phase 7: cycle accounting. idle tracks whether this cycle performed
	// any work at all; a fully idle cycle arms the fast-forward engine
	// (fastforward.go), which may leap over the identical cycles to come.
	// An exact cycle with a sink attached also records each core whose
	// state changed.
	idle := true
	record := p.exact && p.obs != nil
	for c := 0; c < p.ncore; c++ {
		st := p.status[c]
		switch st {
		case stExec:
			idle = false
			p.ctr.CoreActive++
			p.ctr.UngatedCoreCycles++
			p.perCoreBusy[c]++
			p.windowBusy[c]++
		case stIMStall, stDMStall:
			idle = false
			p.ctr.CoreStall++
			p.ctr.UngatedCoreCycles++
			p.perCoreBusy[c]++
			p.windowBusy[c]++
		case stBubble:
			idle = false
			p.ctr.CoreStall++
			p.ctr.UngatedCoreCycles++
			p.perCoreBusy[c]++
			p.windowBusy[c]++
		case stIdle:
			p.ctr.CoreGated++
		case stHalted:
			p.ctr.CoreHalted++
		}
		if record && coreStateCode[st] != p.obsState[c] {
			p.obsState[c] = coreStateCode[st]
			if p.obsState[c] >= 0 {
				p.obs.Instant(obs.KindCoreState, obs.TrackCore, int32(c), cyc, p.obsState[c], 0)
			}
		}
	}
	// Per-sample-window worst-case tracking.
	if p.adc != nil {
		if n := p.adc.SamplesPublished(); n != p.lastSample {
			p.lastSample = n
			for c := 0; c < p.ncore; c++ {
				if uint64(p.windowBusy[c]) > p.maxSampleBusy {
					p.maxSampleBusy = uint64(p.windowBusy[c])
				}
				p.windowBusy[c] = 0
			}
		}
	}
	p.ctr.Cycles++
	p.imx.Advance()
	p.dmx.Advance()
	p.lastCycleIdle = idle
	return nil
}

// PostSync implements cpu.Env.
func (p *Platform) PostSync(coreID int, kind isa.Opcode, point int) {
	if p.exact {
		p.obs.Instant(obs.KindSyncOp, obs.TrackCore, int32(coreID), p.cycle, int64(kind), int64(point))
	}
	p.sync.Post(coreID, kind, point)
}

// RequestSleep implements cpu.Env. A gated SLEEP is a boundary event; one
// that falls through on a latched token is recorded on exact cycles only.
func (p *Platform) RequestSleep(coreID int) bool {
	gated := p.sync.RequestSleep(coreID)
	if gated {
		p.obs.Instant(obs.KindSleep, obs.TrackCore, int32(coreID), p.cycle, 0, 0)
	} else if p.exact {
		p.obs.Instant(obs.KindSyncOp, obs.TrackCore, int32(coreID), p.cycle, int64(isa.OpSLEEP), 0)
	}
	return gated
}

// Halt implements cpu.Env.
func (p *Platform) Halt(coreID int) {
	p.obs.Instant(obs.KindHalt, obs.TrackCore, int32(coreID), p.cycle, 0, 0)
	p.sync.Halt(coreID)
}

func (p *Platform) mmioRead(c int, addr uint16) uint16 {
	switch addr {
	case isa.RegCoreID:
		return uint16(c)
	case isa.RegCycleLo:
		return uint16(p.cycle)
	case isa.RegCycleHi:
		return uint16(p.cycle >> 16)
	case isa.RegIRQSub:
		return p.sync.Subscription(c)
	case isa.RegIRQPend:
		return p.sync.Pending(c)
	case isa.RegADCData0, isa.RegADCData1, isa.RegADCData2:
		if p.adc == nil {
			return 0
		}
		return p.adc.ReadData(int(addr - isa.RegADCData0))
	case isa.RegADCStatus:
		if p.adc == nil {
			return 0
		}
		return p.adc.Status()
	case isa.RegADCOverrun:
		if p.adc == nil {
			return 0
		}
		return uint16(p.adc.Overruns())
	case isa.RegHostFlag:
		return p.hostFlag
	}
	return 0
}

func (p *Platform) mmioWrite(c int, addr, v uint16) {
	switch addr {
	case isa.RegIRQSub:
		p.sync.SetSubscription(c, v)
	case isa.RegIRQPend:
		p.sync.ClearPending(c, v)
	case isa.RegDebugOut:
		if len(p.debug) < p.cfg.MaxDebug {
			p.debug = append(p.debug, DebugEntry{Core: uint8(c), Cycle: p.cycle, Value: v})
		}
	case isa.RegDebugErr:
		if len(p.errCodes) < p.cfg.MaxDebug {
			p.errCodes = append(p.errCodes, DebugEntry{Core: uint8(c), Cycle: p.cycle, Value: v})
		}
	case isa.RegHostFlag:
		p.hostFlag = v
	}
}
