// Package core implements the paper's primary contribution: the lightweight
// synchronizer unit and the semantics of its synchronization points
// (Braojos et al., DATE 2014, §III).
//
// A synchronization point is one reserved 16-bit word in shared data memory.
// Its most significant 8 bits hold one flag per core; the least significant
// 8 bits an up/down counter (paper Fig. 3):
//
//	SINC #p: set issuing core's flag, increment the counter
//	SNOP #p: set issuing core's flag only
//	SDEC #p: decrement the counter; when it reaches zero the synchronizer
//	         resumes every flagged core and clears the flags
//	SLEEP:   clock-gate the issuing core until the next synchronization event
//
// All synchronization instructions issued in the same clock cycle on the same
// point are merged into a single consistent memory modification (§III-B).
//
// The unit also forwards peripheral interrupts: cores subscribe to interrupt
// sources through a memory-mapped register, SLEEP, and are resumed when a
// subscribed interrupt arrives.
//
// Wake-up races (a synchronization event arriving while the target core is
// still running, before it executes SLEEP) are closed with a per-core event
// token, analogous to the ARM WFE/SEV event register: a wake delivered to a
// running core latches the token, and SLEEP with a latched token consumes it
// and falls through without gating. This detail is not spelled out in the
// paper; it is the minimal hardware that makes the published protocol
// race-free.
package core

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/power"
)

// CoreState is the synchronizer's view of one core's clock/power state.
type CoreState uint8

// Core states.
const (
	StateRunning CoreState = iota
	StateGated             // clock-gated by SLEEP, waiting for an event
	StateHalted            // stopped by HALT (end of program)
	StateOff               // not instantiated in this configuration
)

func (s CoreState) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StateGated:
		return "gated"
	case StateHalted:
		return "halted"
	case StateOff:
		return "off"
	}
	return fmt.Sprintf("state?%d", uint8(s))
}

// Point is the architectural value of one synchronization point.
type Point struct {
	Flags   uint8 // bit c set: core c is registered on this point
	Counter uint8 // up/down counter; wake triggers on an SDEC reaching 0
}

// Value packs the point into its in-memory 16-bit representation.
func (p Point) Value() uint16 { return uint16(p.Flags)<<8 | uint16(p.Counter) }

// op is one posted synchronization operation awaiting end-of-cycle commit.
// Point operations (SINC/SDEC/SNOP) carry a decoded (group, point) pair;
// event rendezvous (SEVS) carry the group and its set/wait masks, with
// point = -1 so the point-merge scan skips them.
type op struct {
	core  int
	kind  isa.Opcode // OpSINC, OpSDEC, OpSNOP or OpSEVS
	group int
	point int
	set   uint8 // SEVS: event bits to set
	want  uint8 // SEVS: event bits to wait for (0 = fire and forget)
}

// Synchronizer is the hardware unit orchestrating the run-time behaviour of
// the multi-core system: it tracks synchronization points, merges same-cycle
// operations, clock-gates and resumes cores, forwards interrupts, and — per
// the configured sync-architecture descriptor — scopes barriers to
// mask-defined core groups, times out overdue gated waits, and hosts one
// event-bit word per group for SEVS rendezvous.
type Synchronizer struct {
	nc      int
	npoints int
	points  []Point

	// Descriptor-derived configuration (immutable after construction).
	ngroups int
	groups  [power.MaxSyncGroups]uint8 // member-core mask per sync group
	timeout uint64                     // gated-wait timeout in cycles; 0 = disabled

	state  [isa.MaxCores]CoreState
	wakeAt [isa.MaxCores]uint64 // cycle at which a waking core resumes fetch
	token  [isa.MaxCores]bool   // per-core event token (WFE/SEV semantics)

	irqSub  [isa.MaxCores]uint16
	irqPend [isa.MaxCores]uint16

	// Event-group rendezvous state (SEVS).
	eventBits [power.MaxSyncGroups]uint8 // currently set event bits per group
	eventWant [isa.MaxCores]uint8        // pattern each core waits for; 0 = none
	eventGrp  [isa.MaxCores]uint8        // group of the core's pending wait

	// timeoutAt holds the armed per-core wait deadline (0 = unarmed). A
	// deadline arms when a core is gated while registered on a point or
	// event rendezvous, and fires a recoverable sync-timeout IRQ when the
	// commit cycle reaches it.
	timeoutAt [isa.MaxCores]uint64

	pending []op
	cycle   uint64

	ctr *power.Counters

	// Mirror, when set, write-throughs committed point values to their
	// reserved shared-DM locations (point index == word address).
	Mirror func(point int, value uint16)

	// Obs, when set, receives barrier-traffic notifications (arrivals,
	// releases, timeouts, wakes) stamped with the synchronizer's current
	// commit cycle. Observation only: implementations must not call back
	// into the synchronizer. Like Mirror it is process state, never part
	// of snapshots; the platform installs itself here when a sink is
	// attached and clears it otherwise, so the disabled path is a single
	// nil-interface check per commit event.
	Obs SyncObserver

	// violations records protocol errors (counter underflow/overflow,
	// out-of-range point ids), capped to keep memory bounded.
	violations []string
}

// SyncObserver receives the synchronizer's boundary events. Arrivals and
// releases carry the sync group and point; timeouts carry the recovered
// core and how many points its flag was withdrawn from. Every callback
// fires at a stepped (committed) cycle — none of the fast-forward engines
// can skip one (idle leaps cover only quiescent stretches, block strides
// bail before sync ISE) — so
// the event stream is identical whether or not fast paths are engaged.
type SyncObserver interface {
	// SyncArrive fires when core's flag is set at (group, point).
	SyncArrive(cycle uint64, group, point, core int)
	// SyncRelease fires when an SDEC opens (group, point), resuming the
	// released mask of member cores.
	SyncRelease(cycle uint64, group, point int, released uint8)
	// SyncTimeout fires when core's gated-wait deadline expires and the
	// recoverable sync-timeout IRQ is latched.
	SyncTimeout(cycle uint64, core, withdrawn int)
	// SyncWake fires when core leaves the gated state.
	SyncWake(cycle uint64, core int)
}

// WakeLatency is the number of cycles between the synchronization event
// (commit of the releasing SDEC at cycle T) and the resumed core's next
// fetch (cycle T+WakeLatency). Two cycles make a woken core and the core
// that issued the releasing SDEC resume on exactly the same cycle: the
// releaser executes its own SLEEP at T+1 (falling through via its event
// token) and fetches the next instruction at T+2, which is what restores
// lock-step execution after divergent branches.
const WakeLatency = 2

const maxViolations = 16

// NewSynchronizer returns a synchronizer for nc cores and npoints
// synchronization points, configured by the sync-architecture descriptor
// cfg and accounting activity into ctr. Cores outside [0,nc) are StateOff.
// Group masks are clipped to the instantiated cores; the presets' implicit
// all-core group therefore spans exactly cores [0,nc).
func NewSynchronizer(nc, npoints int, cfg power.Arch, ctr *power.Counters) *Synchronizer {
	if nc <= 0 || nc > isa.MaxCores {
		panic(fmt.Sprintf("core: invalid core count %d", nc))
	}
	s := &Synchronizer{
		nc:      nc,
		npoints: npoints,
		points:  make([]Point, npoints),
		ngroups: cfg.NumGroups(),
		timeout: cfg.TimeoutCycles,
		ctr:     ctr,
	}
	coreMask := uint8(1<<uint(nc) - 1)
	for g := 0; g < s.ngroups; g++ {
		s.groups[g] = cfg.GroupMask(g) & coreMask
	}
	for c := nc; c < isa.MaxCores; c++ {
		s.state[c] = StateOff
	}
	return s
}

// NumPoints returns the configured number of synchronization points.
func (s *Synchronizer) NumPoints() int { return s.npoints }

// State returns the synchronizer's view of core c.
func (s *Synchronizer) State(c int) CoreState { return s.state[c] }

// PointState returns the architectural value of point p.
func (s *Synchronizer) PointState(p int) Point { return s.points[p] }

// Violations returns recorded protocol errors (nil when the run was clean).
func (s *Synchronizer) Violations() []string { return s.violations }

func (s *Synchronizer) violate(format string, args ...any) {
	if len(s.violations) < maxViolations {
		s.violations = append(s.violations, fmt.Sprintf("cycle %d: ", s.cycle)+fmt.Sprintf(format, args...))
	}
}

// NumGroups returns the number of configured sync groups.
func (s *Synchronizer) NumGroups() int { return s.ngroups }

// GroupMask returns the member-core mask of sync group g (clipped to the
// instantiated cores).
func (s *Synchronizer) GroupMask(g int) uint8 {
	if g < 0 || g >= s.ngroups {
		return 0
	}
	return s.groups[g]
}

// TimeoutCycles returns the configured gated-wait timeout (0 = disabled).
func (s *Synchronizer) TimeoutCycles() uint64 { return s.timeout }

// TimeoutDeadline returns core c's armed wait deadline, 0 when unarmed.
func (s *Synchronizer) TimeoutDeadline(c int) uint64 { return s.timeoutAt[c] }

// EventBits returns the currently set event bits of group g.
func (s *Synchronizer) EventBits(g int) uint8 { return s.eventBits[g] }

// EventWant returns the rendezvous pattern core c is waiting for (0 = none).
func (s *Synchronizer) EventWant(c int) uint8 { return s.eventWant[c] }

// Post queues a synchronization operation issued by core c this cycle.
// kind must be OpSINC, OpSDEC, OpSNOP or OpSEVS; imm is the instruction's
// raw 18-bit immediate, carrying the target group alongside the point id
// (or, for SEVS, the set/wait masks) — see the isa package's sync-operand
// packing. Operations addressing an undeclared group, a group the issuing
// core is not a member of, or an out-of-range point are protocol violations
// and are dropped.
func (s *Synchronizer) Post(c int, kind isa.Opcode, imm int) {
	if kind == isa.OpSEVS {
		g := isa.SevsGroupOf(imm)
		if g >= s.ngroups {
			s.violate("core %d: sevs on undeclared group %d", c, g)
			return
		}
		if s.groups[g]&(1<<uint(c)) == 0 {
			s.violate("core %d: sevs on group %d without membership", c, g)
			return
		}
		s.pending = append(s.pending, op{
			core: c, kind: kind, group: g, point: -1,
			set: isa.SevsSetOf(imm), want: isa.SevsWaitOf(imm),
		})
		return
	}
	g, point := isa.SyncGroupOf(imm), isa.SyncPointOf(imm)
	if imm < 0 || point >= s.npoints {
		s.violate("core %d: %v on out-of-range point %d", c, kind, imm)
		return
	}
	if g >= s.ngroups {
		s.violate("core %d: %v on undeclared group %d", c, kind, g)
		return
	}
	if s.groups[g]&(1<<uint(c)) == 0 {
		s.violate("core %d: %v on group %d without membership", c, kind, g)
		return
	}
	s.pending = append(s.pending, op{core: c, kind: kind, group: g, point: point})
}

// RequestSleep handles core c executing SLEEP. It returns true when the core
// must clock-gate; false when a latched event token absorbs the request and
// execution falls through.
func (s *Synchronizer) RequestSleep(c int) bool {
	if s.token[c] {
		s.token[c] = false
		return false
	}
	s.state[c] = StateGated
	return true
}

// Halt marks core c permanently stopped.
func (s *Synchronizer) Halt(c int) { s.state[c] = StateHalted }

// Runnable reports whether core c may fetch at the given cycle, accounting
// for wake latency.
func (s *Synchronizer) Runnable(c int, cycle uint64) bool {
	return s.state[c] == StateRunning && cycle >= s.wakeAt[c]
}

// wake resumes core c (or latches its event token when it is running).
func (s *Synchronizer) wake(c int) {
	switch s.state[c] {
	case StateGated:
		s.state[c] = StateRunning
		s.wakeAt[c] = s.cycle + WakeLatency
		s.ctr.SyncWakes++
		if s.Obs != nil {
			s.Obs.SyncWake(s.cycle, c)
		}
	case StateRunning:
		s.token[c] = true
	}
}

// Quiescent reports whether no core can fetch at the given cycle: every
// core is halted, gated, or running but still inside its wake latency. A
// quiescent platform performs no work, so absent an external event (an ADC
// interrupt) its only future activity is the expiry of pending wake
// latencies — which NextWake exposes. This is the query the platform's idle
// fast-forward engine leaps on.
func (s *Synchronizer) Quiescent(cycle uint64) bool {
	for c := 0; c < s.nc; c++ {
		if s.state[c] == StateRunning && cycle >= s.wakeAt[c] {
			return false
		}
	}
	return true
}

// NextWake returns the earliest cycle strictly after the given cycle at
// which some core becomes runnable absent new synchronization or interrupt
// events, and ok=false when no such internally scheduled wake exists (every
// core is gated or halted, so only an external interrupt can resume
// execution). Armed wait-timeout deadlines are folded in: a gated core with
// a deadline will wake (via its timeout IRQ) at that cycle, so the idle
// fast-forward engine must not leap past it — the deadline cycle is stepped
// and committed exactly.
func (s *Synchronizer) NextWake(cycle uint64) (at uint64, ok bool) {
	for c := 0; c < s.nc; c++ {
		if s.state[c] == StateRunning && s.wakeAt[c] > cycle {
			if !ok || s.wakeAt[c] < at {
				at, ok = s.wakeAt[c], true
			}
		}
		if s.timeout != 0 && s.state[c] == StateGated && s.timeoutAt[c] > cycle {
			if !ok || s.timeoutAt[c] < at {
				at, ok = s.timeoutAt[c], true
			}
		}
	}
	return at, ok
}

// FastForward advances the synchronizer's notion of the current cycle
// without committing anything, as a bulk replacement for the once-per-cycle
// Commit calls skipped while the platform leaps over a quiescent stretch.
// It keeps wake latencies (wake() stamps s.cycle+WakeLatency) and violation
// messages identical to a cycle-by-cycle run. Only valid when no operations
// are pending, which is guaranteed after any completed platform cycle.
func (s *Synchronizer) FastForward(cycle uint64) {
	if len(s.pending) > 0 {
		panic("core: FastForward with pending synchronization operations")
	}
	if s.timeout != 0 {
		for c := 0; c < s.nc; c++ {
			if s.state[c] == StateGated && s.timeoutAt[c] != 0 && s.timeoutAt[c] <= cycle {
				panic("core: FastForward past an armed sync-timeout deadline")
			}
		}
	}
	s.cycle = cycle
}

// SyncState is the deep-copied mutable state of a Synchronizer, captured by
// Snapshot and reinstated by Restore. Fields are exported so platform
// snapshots serialize through encoding/gob.
type SyncState struct {
	Points     []Point
	State      [isa.MaxCores]CoreState
	WakeAt     [isa.MaxCores]uint64
	Token      [isa.MaxCores]bool
	IRQSub     [isa.MaxCores]uint16
	IRQPend    [isa.MaxCores]uint16
	EventBits  [power.MaxSyncGroups]uint8
	EventWant  [isa.MaxCores]uint8
	EventGrp   [isa.MaxCores]uint8
	TimeoutAt  [isa.MaxCores]uint64
	Cycle      uint64
	Violations []string
}

// Snapshot deep-copies the synchronizer's mutable state. Only valid at a
// cycle boundary: pending operations are posted and committed within one
// platform cycle, so a non-empty pending list means the caller is mid-cycle
// and the snapshot would be unreplayable.
func (s *Synchronizer) Snapshot() SyncState {
	if len(s.pending) > 0 {
		panic("core: Snapshot with pending synchronization operations")
	}
	st := SyncState{
		Points:    append([]Point(nil), s.points...),
		State:     s.state,
		WakeAt:    s.wakeAt,
		Token:     s.token,
		IRQSub:    s.irqSub,
		IRQPend:   s.irqPend,
		EventBits: s.eventBits,
		EventWant: s.eventWant,
		EventGrp:  s.eventGrp,
		TimeoutAt: s.timeoutAt,
		Cycle:     s.cycle,
	}
	if len(s.violations) > 0 {
		st.Violations = append([]string(nil), s.violations...)
	}
	return st
}

// Restore reinstates a previously captured state. The synchronizer must have
// been constructed with the same core and point counts the state was captured
// under. States no run reaches are rejected rather than left to fault later:
// an unknown core state, a wait on an event group beyond MaxSyncGroups, or an
// armed timeout deadline at or before the snapshot cycle.
func (s *Synchronizer) Restore(st SyncState) error {
	if len(st.Points) != s.npoints {
		return fmt.Errorf("core: restoring %d sync points onto a synchronizer with %d", len(st.Points), s.npoints)
	}
	for c := 0; c < isa.MaxCores; c++ {
		if (st.State[c] == StateOff) != (c >= s.nc) {
			return fmt.Errorf("core: snapshot core-count mismatch at core %d (have %d cores)", c, s.nc)
		}
		switch {
		case st.State[c] > StateOff:
			return fmt.Errorf("core: snapshot core %d has unknown state %d", c, st.State[c])
		case int(st.EventGrp[c]) >= power.MaxSyncGroups:
			return fmt.Errorf("core: snapshot core %d waits on event group %d, beyond the %d groups", c, st.EventGrp[c], power.MaxSyncGroups)
		case st.TimeoutAt[c] != 0 && st.TimeoutAt[c] <= st.Cycle:
			return fmt.Errorf("core: snapshot core %d has a sync-timeout deadline at cycle %d, not after the snapshot cycle %d", c, st.TimeoutAt[c], st.Cycle)
		}
	}
	if len(s.pending) > 0 {
		panic("core: Restore with pending synchronization operations")
	}
	copy(s.points, st.Points)
	s.state = st.State
	s.wakeAt = st.WakeAt
	s.token = st.Token
	s.irqSub = st.IRQSub
	s.irqPend = st.IRQPend
	s.eventBits = st.EventBits
	s.eventWant = st.EventWant
	s.eventGrp = st.EventGrp
	s.timeoutAt = st.TimeoutAt
	s.cycle = st.Cycle
	s.violations = nil
	if len(st.Violations) > 0 {
		s.violations = append([]string(nil), st.Violations...)
	}
	return nil
}

// SetSubscription sets core c's interrupt-source mask (MMIO RegIRQSub).
func (s *Synchronizer) SetSubscription(c int, mask uint16) { s.irqSub[c] = mask }

// Subscription returns core c's interrupt-source mask.
func (s *Synchronizer) Subscription(c int) uint16 { return s.irqSub[c] }

// Pending returns core c's pending subscribed interrupts (MMIO RegIRQPend).
func (s *Synchronizer) Pending(c int) uint16 { return s.irqPend[c] }

// ClearPending clears the given pending bits for core c.
func (s *Synchronizer) ClearPending(c int, mask uint16) { s.irqPend[c] &^= mask }

// RaiseIRQ delivers an interrupt source to every subscribed core, waking
// gated subscribers and latching event tokens for running ones.
func (s *Synchronizer) RaiseIRQ(source uint16) {
	s.ctr.IRQs++
	for c := 0; c < s.nc; c++ {
		if s.irqSub[c]&source != 0 {
			s.irqPend[c] |= source
			s.wake(c)
		}
	}
}

// Commit merges and applies all synchronization operations posted during the
// cycle, performing exactly one consistent memory modification per touched
// (group, point), processes event rendezvous, issues the resulting wake-ups,
// and finally arms or fires gated-wait timeouts. Call once at the end of
// every platform cycle, passing the cycle number just simulated. Timeouts
// are evaluated after the merge/apply pass so a legitimate wake landing on
// the deadline cycle beats the deadline's expiry.
func (s *Synchronizer) Commit(cycle uint64) {
	s.cycle = cycle
	if len(s.pending) > 0 {
		s.ctr.SyncOps += uint64(len(s.pending))
		for i := range s.pending {
			s.ctr.SyncGroupOps[s.pending[i].group]++
		}

		// Merge per (group, point). The pending list is tiny (at most one
		// op per core), so a quadratic grouping scan beats allocating a map
		// every cycle. SEVS ops carry point = -1 and are skipped here.
		for i := 0; i < len(s.pending); i++ {
			if s.pending[i].point < 0 {
				continue // SEVS, or already consumed by an earlier group
			}
			g, p := s.pending[i].group, s.pending[i].point
			var setFlags uint8
			incs, decs, nops := 0, 0, 0
			for j := i; j < len(s.pending); j++ {
				o := &s.pending[j]
				if o.point != p || o.group != g {
					continue
				}
				switch o.kind {
				case isa.OpSINC:
					setFlags |= 1 << uint(o.core)
					incs++
				case isa.OpSNOP:
					setFlags |= 1 << uint(o.core)
					nops++
				case isa.OpSDEC:
					decs++
				}
				if j > i {
					o.point = -1 // consumed
					s.ctr.SyncMerged++
				}
			}
			_ = nops
			s.apply(g, p, setFlags, incs, decs)
		}
		s.commitEvents()
		s.pending = s.pending[:0]
	}
	if s.timeout != 0 {
		s.commitTimeouts(cycle)
	}
}

// commitEvents applies this cycle's SEVS operations: all set-bits land in
// their group's event word first, then every registered waiter whose pattern
// is now complete is released (FreeRTOS xEventGroupSync shape), and a group
// whose rendezvous completed with no waiters left clears its bits for the
// next round. A releasing core that is still running has its event token
// latched, so the SLEEP conventionally following SEVS falls through.
func (s *Synchronizer) commitEvents() {
	var touched [power.MaxSyncGroups]bool
	any := false
	for i := range s.pending {
		o := &s.pending[i]
		if o.kind != isa.OpSEVS {
			continue
		}
		s.eventBits[o.group] |= o.set
		if o.want != 0 {
			s.eventWant[o.core] = o.want
			s.eventGrp[o.core] = uint8(o.group)
		}
		touched[o.group] = true
		any = true
	}
	if !any {
		return
	}
	var released [power.MaxSyncGroups]bool
	for c := 0; c < s.nc; c++ {
		if s.eventWant[c] == 0 {
			continue
		}
		g := int(s.eventGrp[c])
		if !touched[g] {
			continue
		}
		if s.eventBits[g]&s.eventWant[c] == s.eventWant[c] {
			s.eventWant[c] = 0
			released[g] = true
			s.wake(c)
		}
	}
	for g := 0; g < s.ngroups; g++ {
		if !released[g] {
			continue
		}
		waiters := false
		for c := 0; c < s.nc; c++ {
			if s.eventWant[c] != 0 && int(s.eventGrp[c]) == g {
				waiters = true
				break
			}
		}
		if !waiters {
			s.eventBits[g] = 0
		}
	}
}

// waiting reports whether gated core c is blocked on a synchronization
// event: registered (flagged) on some point, or holding an unsatisfied
// event rendezvous. Cores sleeping purely for a peripheral interrupt are
// not waiting in this sense and never arm a timeout.
func (s *Synchronizer) waiting(c int) bool {
	if s.eventWant[c] != 0 {
		return true
	}
	bit := uint8(1) << uint(c)
	for i := range s.points {
		if s.points[i].Flags&bit != 0 {
			return true
		}
	}
	return false
}

// commitTimeouts arms and fires the per-core gated-wait deadlines. A core
// arms when it is gated while waiting on a point or event; the deadline
// disarms the moment the core stops being gated or stops waiting, and fires
// when the commit cycle reaches it.
func (s *Synchronizer) commitTimeouts(cycle uint64) {
	for c := 0; c < s.nc; c++ {
		if s.state[c] != StateGated || !s.waiting(c) {
			s.timeoutAt[c] = 0
			continue
		}
		if s.timeoutAt[c] == 0 {
			s.timeoutAt[c] = cycle + s.timeout
			continue
		}
		if cycle >= s.timeoutAt[c] {
			s.fireTimeout(c)
		}
	}
}

// fireTimeout recovers core c from an overdue gated wait: its registration
// flags are withdrawn from every point (each a mirrored read-modify-write,
// so shared DM stays consistent), any event rendezvous is abandoned, the
// sync-timeout IRQ is latched — deliberately ignoring the subscription
// mask, the woken core must be able to observe why it resumed — and the
// core is woken through the ordinary wake path. The stall is recoverable by
// design, so no protocol violation is recorded.
func (s *Synchronizer) fireTimeout(c int) {
	bit := uint8(1) << uint(c)
	withdrawn := 0
	for p := range s.points {
		if s.points[p].Flags&bit == 0 {
			continue
		}
		s.points[p].Flags &^= bit
		withdrawn++
		s.ctr.SyncPointWrites++
		if s.Mirror != nil {
			s.Mirror(p, s.points[p].Value())
		}
	}
	s.eventWant[c] = 0
	s.irqPend[c] |= isa.IRQSyncTimeout
	s.ctr.SyncTimeouts++
	s.timeoutAt[c] = 0
	if s.Obs != nil {
		s.Obs.SyncTimeout(s.cycle, c, withdrawn)
	}
	s.wake(c)
}

// apply performs the single merged read-modify-write of point p on behalf of
// sync group g: the barrier release resumes only flagged members of g.
func (s *Synchronizer) apply(g, p int, setFlags uint8, incs, decs int) {
	pt := &s.points[p]
	if s.Obs != nil && setFlags != 0 {
		for c := 0; c < s.nc; c++ {
			if setFlags&(1<<uint(c)) != 0 {
				s.Obs.SyncArrive(s.cycle, g, p, c)
			}
		}
	}
	pt.Flags |= setFlags
	delta := incs - decs
	nv := int(pt.Counter) + delta
	if nv < 0 {
		s.violate("point %d: counter underflow (%d%+d)", p, pt.Counter, delta)
		nv = 0
	}
	if nv > 255 {
		s.violate("point %d: counter overflow (%d%+d)", p, pt.Counter, delta)
		nv = 255
	}
	pt.Counter = uint8(nv)

	// Paper §III-B: when an SDEC brings the counter to zero, all cores
	// registered in the identification flags are resumed and the point is
	// cleared. The wake is edge-triggered on SDEC so that a consumer
	// registering (SNOP) on an already-idle point keeps sleeping until the
	// next production cycle completes. Under a group descriptor only the
	// releasing group's members are resumed and cleared (with the presets'
	// single all-core group this is every flagged core, the paper's rule).
	if decs > 0 && pt.Counter == 0 && pt.Flags != 0 {
		released := pt.Flags & s.groups[g]
		pt.Flags &^= released
		if s.Obs != nil && released != 0 {
			s.Obs.SyncRelease(s.cycle, g, p, released)
		}
		for c := 0; c < s.nc; c++ {
			if released&(1<<uint(c)) != 0 {
				s.wake(c)
			}
		}
	}

	s.ctr.SyncPointWrites++
	if s.Mirror != nil {
		s.Mirror(p, pt.Value())
	}
}
