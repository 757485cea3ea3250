// Checkpointable platform sessions.
//
// A Snapshot deep-copies everything a run mutates — core pipelines and
// register files, data-memory banks, the synchronizer, crossbar arbitration
// phases, ADC sampling grids, power counters and the debug streams — so a
// simulation can be rewound (Restore) or resumed in a later process (the
// versioned SnapshotFile encoding). Restoring and continuing is
// bit-identical to having simulated straight through: Run(a) followed by
// Run(b) steps exactly the cycles Run(a+b) would, and a snapshot taken
// between them captures every bit of observable state (enforced by
// snapshot_test.go's golden tests).
//
// The experiment layer restores a verified probe run's boundary snapshot
// onto the measurement platform, so the shared warm-up window is simulated
// once.
package platform

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/isa"
	"repro/internal/mem"
	"repro/internal/periph"
	"repro/internal/power"
)

// Snapshot is the deep-copied mutable state of a Platform at a cycle
// boundary. Fields are exported for the versioned gob encoding; treat the
// contents as opaque. The instruction memory is deliberately absent: its
// words are immutable after load and its bank power is a pure function of
// the image, so rehydration recovers it from the (deterministically rebuilt)
// image instead of storing 96 KB per checkpoint.
type Snapshot struct {
	// Identity of the configuration the snapshot was captured under, checked
	// on restore.
	Arch    power.Arch
	ClockHz float64
	NCore   int

	Cycle uint64

	Cores []cpu.Core
	DM    mem.DMemState
	Sync  core.SyncState
	ADC   *periph.ADCState

	IMXPhase int
	DMXPhase int

	Counters      power.Counters
	PerCoreBusy   []uint64
	LastSample    int
	WindowBusy    []uint32
	MaxSampleBusy uint64

	Debug    []DebugEntry
	ErrCodes []DebugEntry
	HostFlag uint16

	FaultMsg string
}

// Snapshot deep-copies the platform's mutable state. It is a pure read: the
// platform is left untouched, and snapshotting a platform nobody is running
// from several goroutines is safe. Must be called at a cycle boundary — any
// point outside Step/Run, which is the only place callers can observe the
// platform anyway.
func (p *Platform) Snapshot() *Snapshot {
	s := &Snapshot{
		Arch:          p.cfg.Arch,
		ClockHz:       p.cfg.ClockHz,
		NCore:         p.ncore,
		Cycle:         p.cycle,
		Cores:         make([]cpu.Core, p.ncore),
		DM:            p.dmem.Snapshot(),
		Sync:          p.sync.Snapshot(),
		IMXPhase:      p.imx.Phase(),
		DMXPhase:      p.dmx.Phase(),
		Counters:      p.ctr,
		PerCoreBusy:   append([]uint64(nil), p.perCoreBusy...),
		LastSample:    p.lastSample,
		WindowBusy:    append([]uint32(nil), p.windowBusy...),
		MaxSampleBusy: p.maxSampleBusy,
		HostFlag:      p.hostFlag,
	}
	for i, c := range p.cores {
		s.Cores[i] = *c
	}
	if p.adc != nil {
		st := p.adc.Snapshot()
		s.ADC = &st
	}
	if len(p.debug) > 0 {
		s.Debug = append([]DebugEntry(nil), p.debug...)
	}
	if len(p.errCodes) > 0 {
		s.ErrCodes = append([]DebugEntry(nil), p.errCodes...)
	}
	if p.fault != nil {
		s.FaultMsg = p.fault.Error()
	}
	return s
}

// Restore reinstates a snapshot onto this platform. The platform must have
// been built from the same configuration (architecture, core count, clock)
// and — uncheckable here, so the caller's responsibility — the same program
// image and input traces the snapshot was captured under; checkpoint files
// carry metadata for exactly that validation. Continuing a restored platform
// is bit-identical to never having stopped.
func (p *Platform) Restore(s *Snapshot) error {
	if s.Arch != p.cfg.Arch {
		return fmt.Errorf("platform: restoring a %v snapshot onto a %v platform", s.Arch, p.cfg.Arch)
	}
	if s.ClockHz != p.cfg.ClockHz {
		return fmt.Errorf("platform: restoring a %.0f Hz snapshot onto a %.0f Hz platform", s.ClockHz, p.cfg.ClockHz)
	}
	if s.NCore != p.ncore {
		return fmt.Errorf("platform: snapshot has %d cores, platform %d", s.NCore, p.ncore)
	}
	if len(s.Cores) != p.ncore || len(s.PerCoreBusy) != p.ncore || len(s.WindowBusy) != p.ncore {
		return fmt.Errorf("platform: malformed snapshot (per-core arrays sized %d/%d/%d, want %d)",
			len(s.Cores), len(s.PerCoreBusy), len(s.WindowBusy), p.ncore)
	}
	if (s.ADC == nil) != (p.adc == nil) {
		return fmt.Errorf("platform: snapshot and platform disagree on ADC presence")
	}
	for i := range s.Cores {
		if pc := s.Cores[i].PC; pc < 0 || pc >= isa.IMWords {
			return fmt.Errorf("platform: malformed snapshot (core %d PC %d outside instruction memory [0, %d))", i, pc, isa.IMWords)
		}
	}
	if err := p.sync.Restore(s.Sync); err != nil {
		return err
	}
	if err := p.dmem.Restore(s.DM); err != nil {
		return err
	}
	if p.adc != nil {
		if err := p.adc.Restore(*s.ADC); err != nil {
			return err
		}
	}
	for i := range p.cores {
		*p.cores[i] = s.Cores[i]
	}
	p.imx.SetPhase(s.IMXPhase)
	p.dmx.SetPhase(s.DMXPhase)
	p.cycle = s.Cycle
	p.ctr = s.Counters
	copy(p.perCoreBusy, s.PerCoreBusy)
	p.lastSample = s.LastSample
	copy(p.windowBusy, s.WindowBusy)
	p.maxSampleBusy = s.MaxSampleBusy
	p.debug = append(p.debug[:0], s.Debug...)
	p.errCodes = append(p.errCodes[:0], s.ErrCodes...)
	p.hostFlag = s.HostFlag
	p.fault = nil
	if s.FaultMsg != "" {
		p.fault = errors.New(s.FaultMsg)
	}
	// The block engine's poll spans, recordings, loop verdicts and
	// engagement statistics, and the idle-leap and stepped-cycle odometers,
	// are simulation-process state, not simulated state: they only
	// influence *when* an engine engages, never what it produces, so
	// snapshots deliberately omit them. A restored platform re-engages
	// from its block tables wherever the preconditions hold, on one core or
	// many, and judges its loops anew. This keeps Restore bit-identical to
	// never having stopped while letting engagement differ — exactly like
	// Run-call chunking does.
	p.blockReset()
	p.ffLeaps, p.ffSkipped, p.stepped = 0, 0, 0
	// Observability stamps (barrier-arrival cycles, per-channel sample
	// counts, recorded core states) are process state for the same reason:
	// they describe this process's observation window, never simulated
	// state, and snapshots deliberately omit them (docs/FORMATS.md).
	p.obsReset()
	return nil
}

// CyclesFor converts a simulated duration to this platform's whole-cycle
// budget, with RunSeconds' round-to-nearest semantics. Callers slicing a run
// into checkpointed chunks use it to hit the exact same total cycle count a
// single RunSeconds call would.
func (p *Platform) CyclesFor(s float64) uint64 {
	return secondsToCycles(s, p.cfg.ClockHz)
}
