// Package obs is the observability layer: a cycle-stamped event timeline
// and a metrics registry that can watch a simulation without changing it.
//
// A fast run records only boundary events that every engine already
// crosses — core wake/sleep/halt, barrier arrive/release, sync-timeout
// fire, ADC sample publication, and one span per idle leap / spin leap /
// block stride — so all four fast paths stay engaged and an observed run is
// bit-identical to an unobserved one. Exact cycles are all stepped, so they
// also record each core's state changes and synchronization instructions.
//
// The disabled path is free. Every emit method is defined on the concrete
// *Sink pointer and tolerates a nil receiver, so an unobserved call site
// is a nil check with zero allocations (pinned by testing.AllocsPerRun in
// the platform tests). Call sites must keep the receiver a concrete
// *Sink: boxing it into an interface would defeat both guarantees.
//
// Timeline and registry contents are process state, like the spin/block
// engine diagnostics: they are reset when a platform adopts a snapshot
// and are never serialized into snapshots (see docs/FORMATS.md).
package obs

// Kind classifies a timeline event. The catalog is documented in
// docs/OBSERVABILITY.md; the String form is the "name" field of the
// exported Chrome trace events.
type Kind uint8

const (
	// KindWake marks a core leaving the gated state (Track/ID = core).
	KindWake Kind = iota
	// KindSleep marks a core gating on SLEEP (Track/ID = core).
	KindSleep
	// KindHalt marks a core executing HALT (Track/ID = core).
	KindHalt
	// KindTimeout marks a sync-timeout IRQ firing on a core
	// (Track/ID = core, Arg1 = withdrawn-flags group mask).
	KindTimeout
	// KindBarrierArrive marks a core setting its flag at a sync point
	// (Track/ID = group, Arg1 = point, Arg2 = core).
	KindBarrierArrive
	// KindBarrierRelease marks a sync point opening
	// (Track/ID = group, Arg1 = point, Arg2 = released core mask).
	KindBarrierRelease
	// KindADCSample marks one sample publication
	// (Track/ID = channel, Arg1 = cumulative samples on the channel).
	KindADCSample
	// KindIdleLeap is one idle fast-forward leap spanning Dur cycles.
	KindIdleLeap
	// KindSpinLeap is one spin fast-forward leap spanning Dur cycles
	// (Arg1 = loop period in cycles, Arg2 = iterations replayed).
	KindSpinLeap
	// KindBlockStride is one block-engine run spanning Dur cycles
	// (Arg1 = instructions retired in the stride, Arg2 = participating
	// running cores: 1 for single-core block runs, ≥ 2 for multi-core
	// lock-step strides).
	KindBlockStride
	// KindPhase is an operating-point session phase (probe, verify,
	// measure) spanning Dur cycles of the phase's platform clock;
	// Label carries the phase and point being solved.
	KindPhase
	// KindCoreState marks a core's new pipeline state on an exact cycle
	// (Track/ID = core, Arg1 = a State code).
	KindCoreState
	// KindSyncOp marks a SINC, SDEC, SNOP or SEVS, or a SLEEP that fell
	// through, on an exact cycle (Track/ID = core, Arg1 = isa.Opcode,
	// Arg2 = the instruction's sync operand).
	KindSyncOp
)

// Core-state codes of KindCoreState events; halting records a halt instant.
const (
	StateIdle int64 = iota
	StateExec
	StateStall
	StateBubble
)

var stateNames = [...]string{"idle", "exec", "stall", "bubble"}

var kindNames = [...]string{
	KindWake:           "wake",
	KindSleep:          "sleep",
	KindHalt:           "halt",
	KindTimeout:        "sync-timeout",
	KindBarrierArrive:  "barrier-arrive",
	KindBarrierRelease: "barrier-release",
	KindADCSample:      "adc-sample",
	KindIdleLeap:       "idle-leap",
	KindSpinLeap:       "spin-leap",
	KindBlockStride:    "block-stride",
	KindPhase:          "phase",
	KindCoreState:      "core-state",
	KindSyncOp:         "sync-op",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Track selects the timeline row family an event belongs to. Together
// with the event ID it maps onto a Perfetto pid/tid pair (see chrome.go).
type Track uint8

const (
	// TrackCore rows carry per-core events; ID is the core index.
	TrackCore Track = iota
	// TrackSync rows carry barrier traffic; ID is the sync group.
	TrackSync
	// TrackADC rows carry sample publications; ID is the channel.
	TrackADC
	// TrackEngine carries fast-path engine spans (ID 0).
	TrackEngine
	// TrackSession carries operating-point phase spans (ID 0).
	TrackSession
)

var trackNames = [...]string{
	TrackCore:    "core",
	TrackSync:    "sync",
	TrackADC:     "adc",
	TrackEngine:  "engine",
	TrackSession: "session",
}

func (t Track) String() string {
	if int(t) < len(trackNames) {
		return trackNames[t]
	}
	return "unknown"
}

// Event is one timeline entry. Cycle is the exact simulated cycle the
// event was committed at; Dur is zero for instants and the span length in
// cycles for leap/stride/phase events. Arg1/Arg2 are kind-specific (see
// the Kind constants). Label is set only on KindPhase events; boundary
// events leave it empty so the hot emit path never builds strings.
type Event struct {
	Cycle uint64
	Dur   uint64
	Kind  Kind
	Track Track
	ID    int32
	Arg1  int64
	Arg2  int64
	Label string
}
