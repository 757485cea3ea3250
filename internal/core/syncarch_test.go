package core

import (
	"reflect"
	"testing"

	"repro/internal/isa"
	"repro/internal/power"
)

// splitArch is a two-group descriptor for four cores: group 0 = cores 0,1;
// group 1 = cores 2,3.
var splitArch = power.Arch{Multi: true, Groups: [power.MaxSyncGroups]uint8{0x03, 0x0C}}

func newSyncArch(nc, npoints int, cfg power.Arch) (*Synchronizer, *power.Counters) {
	ctr := &power.Counters{}
	return NewSynchronizer(nc, npoints, cfg, ctr), ctr
}

// TestGroupScopedRelease: a barrier release on a shared point resumes only
// the releasing group's members; flags held by the other group survive.
func TestGroupScopedRelease(t *testing.T) {
	s, _ := newSyncArch(4, 1, splitArch)
	// Core 2 (group 1) registers on point 0 without touching the counter.
	s.Post(2, isa.OpSNOP, isa.SyncImm(1, 0))
	s.Commit(1)
	if !s.RequestSleep(2) {
		t.Fatal("core 2 should be granted sleep")
	}
	// Core 0 (group 0) produces and completes on the same point.
	s.Post(0, isa.OpSINC, isa.SyncImm(0, 0))
	s.Commit(2)
	s.Post(1, isa.OpSNOP, isa.SyncImm(0, 0))
	s.Commit(3)
	if !s.RequestSleep(1) {
		t.Fatal("core 1 should be granted sleep")
	}
	s.Post(0, isa.OpSDEC, isa.SyncImm(0, 0))
	s.Commit(4)
	if s.State(1) != StateRunning {
		t.Error("group-0 member must be released by the group-0 SDEC")
	}
	if s.State(2) != StateGated {
		t.Error("group-1 member must survive a group-0 release")
	}
	pt := s.PointState(0)
	if pt.Flags != 0b0100 {
		t.Errorf("flags = %#04b, want only core 2 still registered", pt.Flags)
	}
	// The group-1 release later resumes core 2.
	s.Post(3, isa.OpSINC, isa.SyncImm(1, 0))
	s.Commit(5)
	s.Post(3, isa.OpSDEC, isa.SyncImm(1, 0))
	s.Commit(6)
	if s.State(2) != StateRunning {
		t.Error("group-1 member must be released by the group-1 SDEC")
	}
	if v := s.Violations(); len(v) != 0 {
		t.Errorf("unexpected violations: %v", v)
	}
}

// TestGroupMembershipViolations: operations on an undeclared group or a
// group the issuing core is not a member of are recorded and dropped.
func TestGroupMembershipViolations(t *testing.T) {
	s, _ := newSyncArch(4, 1, splitArch)
	s.Post(2, isa.OpSINC, isa.SyncImm(0, 0)) // core 2 is not in group 0
	s.Post(0, isa.OpSINC, isa.SyncImm(2, 0)) // group 2 is not declared
	s.Post(0, isa.OpSEVS, isa.SevsImm(1, 1, 0))
	s.Commit(1)
	if got := len(s.Violations()); got != 3 {
		t.Fatalf("violations = %v, want 3", s.Violations())
	}
	if pt := s.PointState(0); pt.Flags != 0 || pt.Counter != 0 {
		t.Errorf("dropped ops still mutated the point: %+v", pt)
	}
	if s.EventBits(1) != 0 {
		t.Error("dropped sevs still set event bits")
	}
}

// TestTimeoutFiresAndRecovers: a gated wait that exceeds the descriptor's
// timeout withdraws the core's registrations, latches the sync-timeout IRQ
// and resumes the core — a recovery, not a protocol violation.
func TestTimeoutFiresAndRecovers(t *testing.T) {
	cfg := power.Arch{Multi: true, TimeoutCycles: 10}
	s, ctr := newSyncArch(2, 1, cfg)
	s.Post(1, isa.OpSNOP, isa.SyncImm(0, 0))
	s.Commit(1)
	if !s.RequestSleep(1) {
		t.Fatal("sleep should be granted")
	}
	s.Commit(2) // arms the deadline: 2 + 10
	if got := s.TimeoutDeadline(1); got != 12 {
		t.Fatalf("deadline = %d, want 12", got)
	}
	// The idle engine must not leap past an armed deadline.
	if at, ok := s.NextWake(2); !ok || at != 12 {
		t.Fatalf("NextWake = %d,%v, want 12,true", at, ok)
	}
	for cyc := uint64(3); cyc < 12; cyc++ {
		s.Commit(cyc)
		if s.State(1) != StateGated {
			t.Fatalf("cycle %d: core woke before the deadline", cyc)
		}
	}
	s.Commit(12)
	if s.State(1) != StateRunning {
		t.Fatal("timeout must resume the core")
	}
	if s.Pending(1)&isa.IRQSyncTimeout == 0 {
		t.Error("timeout must latch the sync-timeout IRQ")
	}
	if pt := s.PointState(0); pt.Flags != 0 {
		t.Errorf("flags = %#02b, want the timed-out registration withdrawn", pt.Flags)
	}
	if ctr.SyncTimeouts != 1 {
		t.Errorf("SyncTimeouts = %d, want 1", ctr.SyncTimeouts)
	}
	if s.TimeoutDeadline(1) != 0 {
		t.Error("deadline must disarm after firing")
	}
	if v := s.Violations(); len(v) != 0 {
		t.Errorf("a recoverable timeout must not record a violation, got %v", v)
	}
}

// TestTimeoutWakeOnDeadlineBeatsExpiry: a legitimate release committing on
// the deadline cycle wins — the merge/apply pass runs before the timeout
// scan, so the core wakes normally and no timeout fires.
func TestTimeoutWakeOnDeadlineBeatsExpiry(t *testing.T) {
	cfg := power.Arch{Multi: true, TimeoutCycles: 10}
	s, ctr := newSyncArch(2, 1, cfg)
	s.Post(1, isa.OpSNOP, isa.SyncImm(0, 0))
	s.Commit(1)
	s.RequestSleep(1)
	s.Commit(2) // deadline: 12
	s.Post(0, isa.OpSINC, isa.SyncImm(0, 0))
	s.Commit(3)
	s.Post(0, isa.OpSDEC, isa.SyncImm(0, 0))
	s.Commit(12)
	if s.State(1) != StateRunning {
		t.Fatal("release on the deadline cycle must wake the core")
	}
	if ctr.SyncTimeouts != 0 {
		t.Errorf("SyncTimeouts = %d, want 0 (the release beat the deadline)", ctr.SyncTimeouts)
	}
	if s.Pending(1)&isa.IRQSyncTimeout != 0 {
		t.Error("no timeout IRQ may latch when the release wins")
	}
}

// TestTimeoutDisarmsWithoutWait: a core gated purely for a peripheral
// interrupt (no point registration, no event rendezvous) never arms a
// deadline — ADC sleep loops must not be "recovered" out of.
func TestTimeoutDisarmsWithoutWait(t *testing.T) {
	cfg := power.Arch{Multi: true, TimeoutCycles: 10}
	s, ctr := newSyncArch(2, 1, cfg)
	s.SetSubscription(1, 1)
	s.RequestSleep(1)
	for cyc := uint64(1); cyc < 40; cyc++ {
		s.Commit(cyc)
	}
	if s.State(1) != StateGated {
		t.Fatal("an interrupt sleeper must stay gated past the timeout")
	}
	if ctr.SyncTimeouts != 0 {
		t.Errorf("SyncTimeouts = %d, want 0", ctr.SyncTimeouts)
	}
	if _, ok := s.NextWake(40); ok {
		t.Error("an interrupt sleeper schedules no internal wake")
	}
}

// TestEventRendezvous: two cores complete a FreeRTOS-style event-group sync
// — each sets its arrival bit and waits for the full pattern; the second
// arrival releases both and clears the group's bits.
func TestEventRendezvous(t *testing.T) {
	s, _ := newSyncArch(2, 1, power.MC)
	s.Post(0, isa.OpSEVS, isa.SevsImm(0, 0x01, 0x03))
	s.Commit(1)
	if s.EventBits(0) != 0x01 || s.EventWant(0) != 0x03 {
		t.Fatalf("bits=%#02x want=%#02x after first arrival", s.EventBits(0), s.EventWant(0))
	}
	if !s.RequestSleep(0) {
		t.Fatal("first arrival should be granted sleep")
	}
	s.Post(1, isa.OpSEVS, isa.SevsImm(0, 0x02, 0x03))
	s.Commit(2)
	if s.State(0) != StateRunning {
		t.Error("completing the pattern must wake the gated waiter")
	}
	if s.EventWant(0) != 0 || s.EventWant(1) != 0 {
		t.Error("both waits must be satisfied")
	}
	// The completing core was still running: its token is latched, so its
	// conventional SLEEP-after-SEVS falls through.
	if s.RequestSleep(1) {
		t.Error("the completing core's SLEEP must fall through on its token")
	}
	if s.EventBits(0) != 0 {
		t.Errorf("bits = %#02x, want cleared after the rendezvous", s.EventBits(0))
	}
}

// TestEventFireAndForget: a SEVS with wait=0 publishes bits without
// registering; a later want-only SEVS against already-satisfied bits is
// released immediately.
func TestEventFireAndForget(t *testing.T) {
	s, _ := newSyncArch(2, 1, power.MC)
	s.Post(0, isa.OpSEVS, isa.SevsImm(0, 0x05, 0))
	s.Commit(1)
	if s.EventBits(0) != 0x05 {
		t.Fatalf("bits = %#02x, want 0x05 retained (no waiters)", s.EventBits(0))
	}
	if s.EventWant(0) != 0 {
		t.Fatal("fire-and-forget must not register a wait")
	}
	s.Post(1, isa.OpSEVS, isa.SevsImm(0, 0, 0x04))
	s.Commit(2)
	if s.EventWant(1) != 0 {
		t.Error("a wait against already-set bits must satisfy immediately")
	}
	if s.RequestSleep(1) {
		t.Error("the satisfied waiter's SLEEP must fall through on its token")
	}
}

// TestSyncArchSnapshotRoundTrip: a snapshot taken mid-wait — deadline armed,
// event bits and wants outstanding — restores exactly, and the restored
// timeline fires the timeout at the same absolute cycle as the original.
func TestSyncArchSnapshotRoundTrip(t *testing.T) {
	cfg := power.Arch{Multi: true, Groups: [power.MaxSyncGroups]uint8{0x03, 0x0C}, TimeoutCycles: 20}
	mk := func() (*Synchronizer, *power.Counters) { return newSyncArch(4, 2, cfg) }
	s, _ := mk()
	// Core 1: gated on a group-0 point (deadline arms). Core 2: holds an
	// unsatisfied group-1 event wait. Core 3: published a group-1 bit.
	s.Post(1, isa.OpSNOP, isa.SyncImm(0, 0))
	s.Post(2, isa.OpSEVS, isa.SevsImm(1, 0x01, 0x03))
	s.Post(3, isa.OpSEVS, isa.SevsImm(1, 0, 0))
	s.Commit(1)
	s.RequestSleep(1)
	s.RequestSleep(2)
	s.Commit(2) // deadlines arm: cycle 22
	st := s.Snapshot()

	r, rctr := mk()
	if err := r.Restore(st); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r.Snapshot(), st) {
		t.Fatal("restored synchronizer does not match the snapshot")
	}
	if r.TimeoutDeadline(1) != 22 || r.TimeoutDeadline(2) != 22 {
		t.Fatalf("deadlines = %d,%d, want 22,22", r.TimeoutDeadline(1), r.TimeoutDeadline(2))
	}
	if r.EventBits(1) != 0x01 || r.EventWant(2) != 0x03 {
		t.Errorf("event state bits=%#02x want=%#02x not restored", r.EventBits(1), r.EventWant(2))
	}
	// The restored timeline recovers both waits at the captured deadline.
	for cyc := uint64(3); cyc <= 22; cyc++ {
		r.Commit(cyc)
	}
	if rctr.SyncTimeouts != 2 {
		t.Fatalf("SyncTimeouts = %d, want both restored waits recovered", rctr.SyncTimeouts)
	}
	if r.State(1) != StateRunning || r.State(2) != StateRunning {
		t.Error("both cores must be running after the restored timeouts fire")
	}
	if r.EventWant(2) != 0 {
		t.Error("the timed-out event wait must be abandoned")
	}
}

// TestFastForwardRefusesArmedDeadline: leaping to or past an armed deadline
// would skip the timeout commit; the synchronizer must panic rather than
// silently diverge from a cycle-by-cycle run.
func TestFastForwardRefusesArmedDeadline(t *testing.T) {
	cfg := power.Arch{Multi: true, TimeoutCycles: 10}
	s, _ := newSyncArch(2, 1, cfg)
	s.Post(1, isa.OpSNOP, isa.SyncImm(0, 0))
	s.Commit(1)
	s.RequestSleep(1)
	s.Commit(2)       // deadline: 12
	s.FastForward(11) // up to the cycle before the deadline is fine
	defer func() {
		if recover() == nil {
			t.Error("FastForward past an armed deadline must panic")
		}
	}()
	s.FastForward(12)
}
