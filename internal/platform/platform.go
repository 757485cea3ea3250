// Package platform assembles the full WBSN system simulator: computing
// cores, multi-banked instruction and data memories, interconnect
// (crossbars with broadcasting in the multi-core, simple decoders in the
// single-core baseline), the synchronizer unit, the ADC peripheral, and the
// single-threaded deterministic cycle loop tying them together (paper §IV).
//
// The paper's three architectures — SC (single-core baseline), MC
// (multi-core with the proposed synchronization) and MC-nosync (multi-core
// with busy-waiting instead of the sync ISE, Figure 6's middle bar) — are
// presets of the declarative sync-unit descriptor power.Arch.
//
// # Simulation engine
//
// Run is a multi-mode engine over one cycle-accurate core: Step (step.go)
// simulates a single platform cycle in seven phases, and three fast paths
// take over wherever they provably match it. The idle fast-forward
// (fastforward.go) leaps over fully quiescent stretches, in which every
// core is halted, gated or inside its wake latency. The basic-block engine
// (blockengine.go) executes compute-bound stretches from per-image
// predecoded block tables with bulk accounting, as single-core block runs
// and as multi-core strides that arbitrate bank conflicts exactly as Step
// does, removing Step's per-cycle dispatch overhead. Strides park the
// busy-wait pollers they prove periodic (park.go, the MC-nosync idiom) and
// leap to their end once every participant is parked.
// All three are bit-identical to stepping; Config.Exact / SetExact turn all
// of them off, as an escape hatch and as the reference the
// golden-equivalence tests compare against.
//
// # Snapshots
//
// Snapshot/Restore (snapshot.go) deep-copy and rewind the platform's
// mutable state. The invariant callers rely on: continuing a restored
// platform is bit-identical to never having stopped. Fast-forward
// bookkeeping is wall-clock diagnostics, not simulated state: leap
// placement may differ across Run chunkings and restores while every
// architectural observable stays identical.
//
// See docs/ARCHITECTURE.md for the package's place in the whole system and
// docs/FORMATS.md for the on-disk snapshot format.
package platform

import (
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/interco"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/periph"
	"repro/internal/power"
)

// CodeSeg is one placed code segment of a program image.
type CodeSeg struct {
	Base  int // IM word address
	Words []isa.Word
}

// DataSeg is one placed shared-data segment (logical shared addresses).
type DataSeg struct {
	Base  uint16 // logical DM word address (< SharedLimit for MC)
	Words []uint16
}

// PrivSeg is a per-core private-data segment (multi-core only).
type PrivSeg struct {
	Core  int
	Base  uint16 // logical DM word address (>= SharedLimit)
	Words []uint16
}

// Image is a fully linked program ready to load, produced by internal/link.
type Image struct {
	Code          []CodeSeg
	Shared        []DataSeg
	Priv          []PrivSeg
	Entries       []int // entry PC per core; len(Entries) == number of used cores
	SharedLimit   uint16
	NumSyncPoints int

	// Static footprint for Table I's code-overhead row.
	StaticInstrs     int
	StaticSyncInstrs int
}

// CodeOverheadPct returns the sync-ISE share of the static code footprint.
func (img *Image) CodeOverheadPct() float64 {
	if img.StaticInstrs == 0 {
		return 0
	}
	return 100 * float64(img.StaticSyncInstrs) / float64(img.StaticInstrs)
}

// Config selects the simulated hardware configuration.
type Config struct {
	Arch     power.Arch
	ClockHz  float64
	VoltageV float64 // recorded for power reporting; does not alter timing

	// SampleRateHz is the base ADC sampling rate; 0 disables the ADC.
	SampleRateHz float64
	// ChannelRateHz optionally overrides the sampling rate per channel
	// (multi-rate scenarios); zero entries fall back to SampleRateHz.
	ChannelRateHz [periph.NumADCChannels]float64
	Traces        [periph.NumADCChannels][]int16

	// MaxDebug caps the debug/error traces (0 means a generous default).
	MaxDebug int

	// Exact disables all three fast paths — idle fast-forward, single-core
	// block runs and multi-core strides — forcing the
	// cycle-by-cycle path for every simulated cycle. Both modes produce
	// bit-identical counters, traces and debug output (enforced by the
	// golden-equivalence tests); Exact exists as an escape hatch and as the
	// reference for those tests.
	Exact bool
}

// Platform is one instantiated system ready to run.
type Platform struct {
	cfg   Config
	ncore int

	cores  []*cpu.Core
	imem   *mem.IMem
	dmem   *mem.DMem
	imx    *interco.Crossbar
	dmx    *interco.Crossbar
	sync   *core.Synchronizer
	adc    *periph.ADC
	mapper mem.Mapper

	ctr   power.Counters
	cycle uint64

	// Idle fast-forward engine state (see fastforward.go).
	exact         bool
	lastCycleIdle bool // previous stepped cycle had every core idle/halted

	// Idle-leap and stepped-cycle odometers: process state like the block
	// diagnostics, so Restore resets them.
	ffLeaps   uint64 // bulk leaps taken
	ffSkipped uint64 // cycles accounted in bulk instead of stepped
	stepped   uint64 // cycles Step advanced

	// Basic-block execution engine state (see blockengine.go).
	block blockEngine

	perCoreBusy []uint64 // executed+stalled+bubble cycles per core

	// Worst-case busy cycles of any single core within one ADC sample
	// period, for dimensioning bursty sequential workloads.
	lastSample    int
	windowBusy    []uint32
	maxSampleBusy uint64

	// scratch buffers reused every cycle
	imReqs  []interco.Request
	imWho   []int
	dmReqs  []interco.Request
	dmWho   []int
	status  []coreStatus
	loadVal []uint16
	memOps  []cpu.MemOp // per-core data request decoded in phase 3

	debug    []DebugEntry
	errCodes []DebugEntry
	hostFlag uint16

	// Observability sink state (see internal/obs): process state like the
	// block diagnostics, reset on Restore, never snapshotted.
	obs      *obs.Sink
	obsWait  []uint64                      // per-core barrier-arrival cycle stamp (0 = none)
	obsADC   [periph.NumADCChannels]uint64 // per-channel published-sample count
	obsState []int64                       // per-core last recorded core-state code

	fault error
}

// SetObserver attaches an observability sink (nil detaches). The sink
// receives boundary events — core wake/sleep/halt, barrier traffic,
// sync timeouts, ADC sample publications, and one span per fast-path
// leap or stride — stamped with exact simulated cycles. In exact mode
// every cycle is stepped, and the sink also receives each core's state
// changes and every synchronization instruction (core-state and sync-op
// events). Attaching a sink never changes simulated results and keeps all
// fast-path engines engaged; with no sink attached the instrumentation
// sites cost a nil check and zero allocations.
func (p *Platform) SetObserver(s *obs.Sink) {
	p.obs = s
	if s != nil {
		p.sync.Obs = p
	} else {
		p.sync.Obs = nil
	}
	p.obsReset()
}

// Observer returns the attached sink, if any.
func (p *Platform) Observer() *obs.Sink { return p.obs }

// obsReset clears the sink-derived per-platform stamps. Called when the
// observer changes and when a snapshot is adopted: the stamps describe
// this process's observation window, not architectural state.
func (p *Platform) obsReset() {
	for i := range p.obsWait {
		p.obsWait[i] = 0
	}
	for i := range p.obsADC {
		p.obsADC[i] = 0
	}
	p.obsStateReset()
}

// obsStateReset forgets the recorded core states, so the next exact cycle
// records every core's state.
func (p *Platform) obsStateReset() {
	for i := range p.obsState {
		p.obsState[i] = -2 // matches no coreStateCode
	}
}

// coreStateCode maps a core status onto its core-state code (-1: none).
var coreStateCode = [...]int64{stIdle: obs.StateIdle, stExec: obs.StateExec, stIMStall: obs.StateStall, stDMStall: obs.StateStall, stBubble: obs.StateBubble, stHalted: -1}

// barrierWaitName indexes the per-group barrier wait-time histograms so
// the enabled emission path never formats strings.
var barrierWaitName = [power.MaxSyncGroups]string{
	"sync.barrier_wait_cycles.g0",
	"sync.barrier_wait_cycles.g1",
	"sync.barrier_wait_cycles.g2",
	"sync.barrier_wait_cycles.g3",
}

// SyncArrive implements core.SyncObserver: a core registered its flag at
// a sync point. The first arrival since the last release stamps the
// barrier wait start for the wait-time histogram.
func (p *Platform) SyncArrive(cycle uint64, g, pt, c int) {
	if p.obsWait[c] == 0 {
		p.obsWait[c] = cycle
	}
	p.obs.Instant(obs.KindBarrierArrive, obs.TrackSync, int32(g), cycle, int64(pt), int64(c))
}

// SyncRelease implements core.SyncObserver: an SDEC opened a sync point.
// Released cores' registration-to-release spans feed the per-group
// barrier wait-time histogram.
func (p *Platform) SyncRelease(cycle uint64, g, pt int, released uint8) {
	p.obs.Instant(obs.KindBarrierRelease, obs.TrackSync, int32(g), cycle, int64(pt), int64(released))
	for c := 0; c < p.ncore; c++ {
		if released&(1<<uint(c)) != 0 && p.obsWait[c] != 0 {
			p.obs.Observe(barrierWaitName[g], cycle-p.obsWait[c])
			p.obsWait[c] = 0
		}
	}
}

// SyncTimeout implements core.SyncObserver: a gated-wait deadline fired.
func (p *Platform) SyncTimeout(cycle uint64, c, withdrawn int) {
	p.obs.Instant(obs.KindTimeout, obs.TrackCore, int32(c), cycle, int64(withdrawn), 0)
	p.obs.Add("sync.timeouts_fired", 1)
	p.obsWait[c] = 0
}

// SyncWake implements core.SyncObserver: a core left the gated state.
func (p *Platform) SyncWake(cycle uint64, c int) {
	p.obs.Instant(obs.KindWake, obs.TrackCore, int32(c), cycle, 0, 0)
}

// DebugEntry is one value written to the debug or error MMIO ports.
type DebugEntry struct {
	Core  uint8
	Cycle uint64
	Value uint16
}

type coreStatus uint8

const (
	stIdle coreStatus = iota // gated or waking
	stExec
	stIMStall
	stDMStall
	stBubble
	stHalted
)

// MaxClockHz and MaxVoltageV bound the operating point New accepts, far
// above the VFS table's 19 MHz and 1.2 V: beyond them cycle budgets and
// power figures stop meaning anything (a 1e300 Hz clock overflows every
// budget), so such a configuration is an input error, not a platform.
const (
	MaxClockHz  = 1e9
	MaxVoltageV = 5.0
)

// New builds a platform from a configuration and a linked image. The clock
// and the supply voltage must be positive, finite and at most MaxClockHz
// and MaxVoltageV.
func New(cfg Config, img *Image) (*Platform, error) {
	n := len(img.Entries)
	if n == 0 || n > isa.MaxCores {
		return nil, fmt.Errorf("platform: image uses %d cores, want 1..%d", n, isa.MaxCores)
	}
	if !cfg.Arch.IsMulti() && n != 1 {
		return nil, fmt.Errorf("platform: single-core architecture cannot run a %d-core image", n)
	}
	if err := cfg.Arch.Validate(); err != nil {
		return nil, err
	}
	for g := 0; g < cfg.Arch.NumGroups(); g++ {
		if m := cfg.Arch.GroupMask(g); m != 0xFF && m&^uint8(1<<uint(n)-1) != 0 {
			return nil, fmt.Errorf("platform: sync group %d mask %#02x names cores outside the %d-core image", g, m, n)
		}
	}
	if !(cfg.ClockHz > 0 && cfg.ClockHz <= MaxClockHz) {
		return nil, fmt.Errorf("platform: clock %v Hz must be positive and at most %g Hz", cfg.ClockHz, MaxClockHz)
	}
	if !(cfg.VoltageV > 0 && cfg.VoltageV <= MaxVoltageV) {
		return nil, fmt.Errorf("platform: supply voltage %v V must be positive and at most %g V", cfg.VoltageV, MaxVoltageV)
	}
	if cfg.MaxDebug == 0 {
		cfg.MaxDebug = 1 << 20
	}

	p := &Platform{
		cfg:         cfg,
		ncore:       n,
		imem:        mem.NewIMem(),
		dmem:        mem.NewDMem(),
		perCoreBusy: make([]uint64, n),
		windowBusy:  make([]uint32, n),
		imReqs:      make([]interco.Request, 0, n),
		imWho:       make([]int, 0, n),
		dmReqs:      make([]interco.Request, 0, n),
		dmWho:       make([]int, 0, n),
		status:      make([]coreStatus, n),
		loadVal:     make([]uint16, n),
		memOps:      make([]cpu.MemOp, n),
		obsWait:     make([]uint64, n),
		obsState:    make([]int64, n), // set by SetObserver before any use
		exact:       cfg.Exact,
	}
	p.sync = core.NewSynchronizer(n, img.NumSyncPoints, cfg.Arch, &p.ctr)

	// Memory fabric: the multi-core uses crossbars and the ATU's
	// interleaving; the baseline simple decoders and linear mapping.
	if cfg.Arch.IsMulti() {
		p.imx = interco.NewCrossbar(isa.IMBanks)
		p.dmx = interco.NewCrossbar(isa.DMBanks)
		priv := (isa.DMWords - int(img.SharedLimit)) / isa.MaxCores
		// An odd private stride makes core*priv take eight distinct
		// values modulo the bank count, so lock-step cores accessing
		// the same private offset land in different banks instead of
		// conflicting every cycle.
		if priv%2 == 0 {
			priv--
		}
		p.mapper = mem.ATU{SharedLimit: img.SharedLimit, PrivWords: priv}
		// The ATU interleaves both sections over all banks, so every
		// bank must stay powered (paper §V-A).
		for b := 0; b < isa.DMBanks; b++ {
			p.dmem.SetBankPower(b, true)
		}
	} else {
		// Single core: same arbitration semantics, but one requester
		// means every access is granted; model it with 1-bank-free
		// crossbars for uniform code, and linear address mapping so
		// unused banks stay off.
		p.imx = interco.NewCrossbar(isa.IMBanks)
		p.dmx = interco.NewCrossbar(isa.DMBanks)
		p.mapper = mem.LinearMap{}
		for _, seg := range img.Shared {
			lo, _ := p.mapper.Map(0, seg.Base)
			hi, _ := p.mapper.Map(0, seg.Base+uint16(len(seg.Words))-1)
			for b := lo; b <= hi; b++ {
				p.dmem.SetBankPower(b, true)
			}
		}
	}

	// Load code (powers the covered IM banks) and derive the basic-block
	// tables the block execution engine runs from. Code is immutable after
	// load, so one analysis pass per platform suffices.
	for _, seg := range img.Code {
		if err := p.imem.Load(seg.Base, seg.Words); err != nil {
			return nil, err
		}
	}
	p.block.set = mem.AnalyzeBlocks(p.imem)
	p.block.blockInit(n)
	// Load data through the address mapping.
	load := func(coreID int, base uint16, words []uint16) error {
		for i, w := range words {
			addr := base + uint16(i)
			if isa.IsMMIO(addr) {
				return fmt.Errorf("platform: data segment reaches MMIO at %#x", addr)
			}
			b, o := p.mapper.Map(coreID, addr)
			if !p.dmem.Write(b, o, w) {
				return fmt.Errorf("platform: data load at %#x hits powered-off bank %d", addr, b)
			}
		}
		return nil
	}
	for _, seg := range img.Shared {
		if err := load(0, seg.Base, seg.Words); err != nil {
			return nil, err
		}
	}
	for _, seg := range img.Priv {
		if seg.Core < 0 || seg.Core >= n {
			return nil, fmt.Errorf("platform: private segment for core %d outside image", seg.Core)
		}
		if err := load(seg.Core, seg.Base, seg.Words); err != nil {
			return nil, err
		}
	}

	// Synchronization points mirror into the first shared-DM words.
	if img.NumSyncPoints > 0 {
		p.sync.Mirror = func(pt int, v uint16) {
			b, o := p.mapper.Map(0, uint16(pt))
			p.dmem.Write(b, o, v)
		}
	}

	// Cores.
	p.cores = make([]*cpu.Core, n)
	for i, entry := range img.Entries {
		p.cores[i] = cpu.New(i, entry)
	}

	// ADC wired to the synchronizer's interrupt lines.
	if cfg.SampleRateHz > 0 {
		raise := func(mask uint16) {
			if p.obs != nil {
				for ch := 0; ch < periph.NumADCChannels; ch++ {
					if mask&(uint16(isa.IRQADC0)<<uint(ch)) != 0 {
						p.obsADC[ch]++
						p.obs.Instant(obs.KindADCSample, obs.TrackADC, int32(ch), p.cycle, int64(p.obsADC[ch]), 0)
					}
				}
			}
			p.sync.RaiseIRQ(mask)
		}
		var chans [periph.NumADCChannels]periph.Channel
		for ch := range chans {
			rate := cfg.ChannelRateHz[ch]
			if rate == 0 {
				rate = cfg.SampleRateHz
			}
			chans[ch] = periph.Channel{Trace: cfg.Traces[ch], RateHz: rate}
		}
		adc, err := periph.NewMultiRateADC(chans, cfg.ClockHz, raise, &p.ctr)
		if err != nil {
			return nil, err
		}
		p.adc = adc
	}
	return p, nil
}

// Counters exposes the accumulated activity counters.
func (p *Platform) Counters() *power.Counters { return &p.ctr }

// SetExact forces (true) the cycle-by-cycle path for subsequent Run calls,
// disabling all three fast paths — idle fast-forward, block runs and
// strides — or re-enables them (false). Mode switches are safe at any
// cycle boundary: all paths maintain identical architectural state, and a
// switch resets no engine odometer. An exact stretch after a fast one opens
// with a record of every core's state when a sink is attached.
func (p *Platform) SetExact(exact bool) {
	if exact && !p.exact {
		p.obsStateReset()
	}
	p.exact = exact
}

// Exact reports whether the fast paths are disabled (see SetExact).
func (p *Platform) Exact() bool { return p.exact }

// FFLeaps returns how many bulk idle leaps the fast-forward engine took.
// Like BlockRuns it is a wall-clock diagnostic that Restore resets.
func (p *Platform) FFLeaps() uint64 { return p.ffLeaps }

// FFSkippedCycles returns how many cycles were accounted in bulk by the
// fast-forward engine instead of being individually stepped. Restore resets
// it.
func (p *Platform) FFSkippedCycles() uint64 { return p.ffSkipped }

// StepCycles returns how many cycles Step simulated one by one. On a
// platform that was never restored, whatever its mode switches, it
// completes the cycle partition: FFSkippedCycles + BlockCycles +
// BlockMCCycles + StepCycles == Cycle. Restore resets it.
func (p *Platform) StepCycles() uint64 { return p.stepped }

// Cycle returns the current cycle number.
func (p *Platform) Cycle() uint64 { return p.cycle }

// CoreBusy returns the busy (executed+stalled+bubble) cycles of core c.
func (p *Platform) CoreBusy(c int) uint64 { return p.perCoreBusy[c] }

// MaxSampleBusy returns the worst-case busy cycles any core spent within a
// single ADC sample period, the binding constraint for sequential workloads
// with bursty on-demand processing.
func (p *Platform) MaxSampleBusy() uint64 { return p.maxSampleBusy }

// PublishMetrics publishes the platform's run diagnostics into reg: the
// full activity counter set, the fast-path engine odometers, the
// per-core busy breakdown and the worst-case per-sample busy window.
// This is the uniform stats surface the CLIs print on stderr (replacing
// the former ad-hoc stdout stats lines); histograms (leap lengths,
// barrier waits) additionally populate live when a sink built over the
// same registry is attached.
func (p *Platform) PublishMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	p.ctr.Publish(reg)
	reg.Add("engine.ff.leaps", p.ffLeaps)
	reg.Add("engine.ff.skipped_cycles", p.ffSkipped)
	reg.Add("engine.block.runs", p.block.runs)
	reg.Add("engine.block.cycles", p.block.cycles)
	reg.Add("engine.block.mc_strides", p.block.mcRuns)
	reg.Add("engine.block.mc_cycles", p.block.mcCycles)
	reg.Add("engine.block.mc_aligned_cycles", p.block.mcAligned)
	reg.Add("engine.block.mc_parks", p.block.mcParks)
	reg.Add("engine.block.mc_parked_core_cycles", p.block.mcParked)
	reg.Add("engine.block.mc_leapt_cycles", p.block.mcLeapt)
	reg.Add("engine.step.cycles", p.stepped)
	reg.Add("sim.cycles", p.cycle)
	reg.Add("sim.max_sample_busy_cycles", p.maxSampleBusy)
	for c := 0; c < p.ncore; c++ {
		reg.Add(coreBusyName[c], p.perCoreBusy[c])
	}
}

var coreBusyName = [isa.MaxCores]string{
	"core.busy_cycles.c0", "core.busy_cycles.c1",
	"core.busy_cycles.c2", "core.busy_cycles.c3",
	"core.busy_cycles.c4", "core.busy_cycles.c5",
	"core.busy_cycles.c6", "core.busy_cycles.c7",
}

// CoreState returns the synchronizer's view of core c.
func (p *Platform) CoreState(c int) core.CoreState { return p.sync.State(c) }

// CoreRegs returns a snapshot of core c's registers (for tests).
func (p *Platform) CoreRegs(c int) [isa.NumRegs]uint16 { return p.cores[c].Regs }

// Overruns returns the ADC overrun count (0 when no ADC is configured).
func (p *Platform) Overruns() uint64 {
	if p.adc == nil {
		return 0
	}
	return p.adc.Overruns()
}

// Debug returns values written to RegDebugOut.
func (p *Platform) Debug() []DebugEntry { return p.debug }

// ErrCodes returns values written to RegDebugErr (application-level errors).
func (p *Platform) ErrCodes() []DebugEntry { return p.errCodes }

// Violations returns synchronizer protocol violations.
func (p *Platform) Violations() []string { return p.sync.Violations() }

// ActiveIMBanks returns the number of powered instruction banks.
func (p *Platform) ActiveIMBanks() int { return p.imem.ActiveBanks() }

// ActiveDMBanks returns the number of powered data banks.
func (p *Platform) ActiveDMBanks() int { return p.dmem.ActiveBanks() }

// PeekData reads logical address addr as seen by the given core, bypassing
// timing (for tests and result extraction).
func (p *Platform) PeekData(coreID int, addr uint16) (uint16, bool) {
	if isa.IsMMIO(addr) {
		return 0, false
	}
	b, o := p.mapper.Map(coreID, addr)
	return p.dmem.Read(b, o)
}

// AllHalted reports whether every core has executed HALT.
func (p *Platform) AllHalted() bool {
	for c := 0; c < p.ncore; c++ {
		if p.sync.State(c) != core.StateHalted {
			return false
		}
	}
	return true
}

// DeadlockDiagnosis inspects the platform at a cycle boundary and reports a
// human-readable description when no core can ever make progress again: at
// least one core is still live, every live core is clock-gated, and nothing
// can wake any of them — no pending wake latency, no armed sync timeout, and
// no interrupt subscription a future ADC sample could fire. The empty string
// means the run can still progress (or has fully halted, which is normal
// termination). A sync-unit descriptor with TimeoutCycles set never reaches
// this state through sync flags alone: the timeout IRQ withdraws them first.
func (p *Platform) DeadlockDiagnosis() string {
	gated := 0
	for c := 0; c < p.ncore; c++ {
		switch p.sync.State(c) {
		case core.StateHalted:
			continue
		case core.StateRunning:
			return ""
		case core.StateGated:
			if p.sync.Subscription(c) != 0 && p.adc != nil {
				return "" // a future ADC sample delivers an IRQ wake
			}
			gated++
		}
	}
	if gated == 0 {
		return "" // fully halted: normal termination
	}
	if _, ok := p.sync.NextWake(p.cycle); ok {
		return "" // a wake latency or armed sync timeout is still pending
	}
	var waiting []string
	for c := 0; c < p.ncore; c++ {
		if p.sync.State(c) == core.StateGated {
			waiting = append(waiting, fmt.Sprintf("core %d", c))
		}
	}
	return fmt.Sprintf("deadlock: %s clock-gated with no wake source (no pending sync release, timeout or IRQ subscription)",
		strings.Join(waiting, ", "))
}

// PowerConfig assembles the power.SystemConfig describing this platform at
// its operating point.
func (p *Platform) PowerConfig() power.SystemConfig {
	return power.SystemConfig{
		Arch:          p.cfg.Arch,
		NumCores:      p.ncore,
		ActiveIMBanks: p.imem.ActiveBanks(),
		ActiveDMBanks: p.dmem.ActiveBanks(),
		VoltageV:      p.cfg.VoltageV,
		FreqHz:        p.cfg.ClockHz,
	}
}

// PowerReport computes the power decomposition of the run so far.
func (p *Platform) PowerReport(params *power.Params) (*power.Report, error) {
	return power.Compute(p.PowerConfig(), &p.ctr, params)
}
