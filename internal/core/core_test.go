package core

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/power"
)

func newSync(nc, npoints int) (*Synchronizer, *power.Counters) {
	ctr := &power.Counters{}
	return NewSynchronizer(nc, npoints, power.MC, ctr), ctr
}

// TestPaperFigure3a reproduces the paper's Figure 3-a: cores 0, 1 and 2
// jointly produce data for core 4; data is not yet available. After
// core0..2: SINC(#p) and core4: SNOP(#p) the point must read
// flags=0b00010111, counter=3.
func TestPaperFigure3a(t *testing.T) {
	s, _ := newSync(8, 1)
	s.Post(0, isa.OpSINC, 0)
	s.Post(1, isa.OpSINC, 0)
	s.Post(2, isa.OpSINC, 0)
	s.Post(4, isa.OpSNOP, 0)
	s.Commit(1)
	pt := s.PointState(0)
	if pt.Flags != 0b00010111 {
		t.Errorf("flags = %#08b, want 0b00010111", pt.Flags)
	}
	if pt.Counter != 3 {
		t.Errorf("counter = %d, want 3", pt.Counter)
	}
	if pt.Value() != 0b00010111<<8|3 {
		t.Errorf("packed value = %#x", pt.Value())
	}
}

// TestPaperFigure3b reproduces Figure 3-b: cores 0, 1 and 2 entered a
// data-dependent branch (SINC each); core 0 has finished it (SDEC). The
// point must read flags=0b00000111, counter=2.
func TestPaperFigure3b(t *testing.T) {
	s, _ := newSync(8, 1)
	s.Post(0, isa.OpSINC, 0)
	s.Post(1, isa.OpSINC, 0)
	s.Post(2, isa.OpSINC, 0)
	s.Commit(1)
	s.Post(0, isa.OpSDEC, 0)
	s.Commit(2)
	pt := s.PointState(0)
	if pt.Flags != 0b00000111 {
		t.Errorf("flags = %#08b, want 0b00000111", pt.Flags)
	}
	if pt.Counter != 2 {
		t.Errorf("counter = %d, want 2", pt.Counter)
	}
}

func TestSDECDoesNotSetFlag(t *testing.T) {
	s, _ := newSync(4, 1)
	s.Post(1, isa.OpSINC, 0)
	s.Commit(1)
	s.Post(1, isa.OpSINC, 0)
	s.Commit(2)
	s.Post(2, isa.OpSDEC, 0) // core 2 decrements without registering
	s.Commit(3)
	pt := s.PointState(0)
	if pt.Flags != 0b0010 {
		t.Errorf("flags = %#04b, want only core 1", pt.Flags)
	}
	if pt.Counter != 1 {
		t.Errorf("counter = %d, want 1", pt.Counter)
	}
}

func TestWakeOnCounterZero(t *testing.T) {
	s, _ := newSync(4, 1)
	// Consumer core 3 registers and sleeps.
	s.Post(3, isa.OpSNOP, 0)
	s.Commit(1)
	if !s.RequestSleep(3) {
		t.Fatal("consumer should be granted sleep")
	}
	if s.State(3) != StateGated {
		t.Fatalf("state = %v, want gated", s.State(3))
	}
	// Producer registers and, later, completes.
	s.Post(0, isa.OpSINC, 0)
	s.Commit(2)
	if s.State(3) != StateGated {
		t.Fatal("SINC alone must not wake the consumer")
	}
	s.Post(0, isa.OpSDEC, 0)
	s.Commit(3)
	if s.State(3) != StateRunning {
		t.Fatal("SDEC to zero must wake the flagged consumer")
	}
	if s.Runnable(3, 3) || s.Runnable(3, 4) {
		t.Error("woken core must respect the wake latency")
	}
	if !s.Runnable(3, 3+WakeLatency) {
		t.Error("woken core must be runnable after the wake latency")
	}
	// Flags cleared after the wake.
	if pt := s.PointState(0); pt.Flags != 0 || pt.Counter != 0 {
		t.Errorf("point after wake = %+v, want cleared", pt)
	}
}

func TestSNOPOnIdlePointDoesNotWake(t *testing.T) {
	// Edge-triggered semantics: registering on a point whose counter is
	// already zero keeps the core asleep until the next SDEC event.
	s, _ := newSync(2, 1)
	s.Post(1, isa.OpSNOP, 0)
	s.Commit(1)
	if !s.RequestSleep(1) {
		t.Fatal("sleep should be granted")
	}
	s.Commit(2) // nothing happens
	if s.State(1) != StateGated {
		t.Error("core must stay gated on an idle point")
	}
	// The next production cycle releases it.
	s.Post(0, isa.OpSINC, 0)
	s.Commit(3)
	s.Post(0, isa.OpSDEC, 0)
	s.Commit(4)
	if s.State(1) != StateRunning {
		t.Error("core must wake at the next SDEC-to-zero")
	}
}

func TestEventTokenClosesWakeRace(t *testing.T) {
	s, _ := newSync(2, 1)
	// Consumer (core 1) registers while still running.
	s.Post(1, isa.OpSNOP, 0)
	s.Commit(1)
	// Producer completes a full cycle before the consumer sleeps.
	s.Post(0, isa.OpSINC, 0)
	s.Commit(2)
	s.Post(0, isa.OpSDEC, 0)
	s.Commit(3)
	// The wake raced ahead: the consumer must not deadlock.
	if s.RequestSleep(1) {
		t.Fatal("SLEEP must fall through via the event token")
	}
	if s.State(1) != StateRunning {
		t.Error("consumer must still be running")
	}
	// The token is single-use.
	if !s.RequestSleep(1) {
		t.Error("second SLEEP must gate")
	}
}

func TestLockStepResumeAlignment(t *testing.T) {
	// Three cores entered a branch (SINC). Cores 1 and 2 finish early and
	// sleep; core 0 finishes last at cycle T. All three must next be
	// runnable at exactly T+WakeLatency, restoring lock-step.
	s, _ := newSync(3, 1)
	s.Post(0, isa.OpSINC, 0)
	s.Post(1, isa.OpSINC, 0)
	s.Post(2, isa.OpSINC, 0)
	s.Commit(1)

	s.Post(1, isa.OpSDEC, 0)
	s.Commit(2)
	if !s.RequestSleep(1) {
		t.Fatal("core 1 should gate")
	}
	s.Post(2, isa.OpSDEC, 0)
	s.Commit(3)
	if !s.RequestSleep(2) {
		t.Fatal("core 2 should gate")
	}

	const T = 10
	s.Post(0, isa.OpSDEC, 0)
	s.Commit(T)
	// Cores 1 and 2 were gated: woken with latency.
	for _, c := range []int{1, 2} {
		if s.Runnable(c, T+WakeLatency-1) {
			t.Errorf("core %d runnable too early", c)
		}
		if !s.Runnable(c, T+WakeLatency) {
			t.Errorf("core %d not runnable at T+%d", c, WakeLatency)
		}
	}
	// Core 0 received a token; its SLEEP at T+1 falls through, so its
	// next instruction fetch happens at T+2 == T+WakeLatency.
	if s.RequestSleep(0) {
		t.Error("core 0's SLEEP must fall through (token)")
	}
}

func TestSameCycleMergeIsSingleWrite(t *testing.T) {
	s, ctr := newSync(8, 2)
	// Five ops on point 0 and one on point 1, same cycle.
	s.Post(0, isa.OpSINC, 0)
	s.Post(1, isa.OpSINC, 0)
	s.Post(2, isa.OpSINC, 0)
	s.Post(3, isa.OpSDEC, 0)
	s.Post(4, isa.OpSNOP, 0)
	s.Post(5, isa.OpSINC, 1)
	s.Commit(1)
	if ctr.SyncPointWrites != 2 {
		t.Errorf("SyncPointWrites = %d, want 2 (one per touched point)", ctr.SyncPointWrites)
	}
	if ctr.SyncOps != 6 {
		t.Errorf("SyncOps = %d, want 6", ctr.SyncOps)
	}
	if ctr.SyncMerged != 4 {
		t.Errorf("SyncMerged = %d, want 4", ctr.SyncMerged)
	}
	pt := s.PointState(0)
	if pt.Counter != 2 { // 3 SINC - 1 SDEC
		t.Errorf("merged counter = %d, want 2", pt.Counter)
	}
	if pt.Flags != 0b00010111 {
		t.Errorf("merged flags = %#08b", pt.Flags)
	}
}

func TestMergedSDECToZeroWakesOnce(t *testing.T) {
	s, ctr := newSync(4, 1)
	s.Post(0, isa.OpSINC, 0)
	s.Post(1, isa.OpSINC, 0)
	s.Commit(1)
	for _, c := range []int{0, 1} {
		s.Post(c, isa.OpSDEC, 0)
	}
	// Both SDECs land in the same cycle; the merged update reaches zero.
	s.Commit(2)
	if pt := s.PointState(0); pt.Counter != 0 || pt.Flags != 0 {
		t.Errorf("point = %+v, want cleared", pt)
	}
	// Both cores were running: they get tokens, not wakes.
	if ctr.SyncWakes != 0 {
		t.Errorf("SyncWakes = %d, want 0 (tokens only)", ctr.SyncWakes)
	}
	if s.RequestSleep(0) || s.RequestSleep(1) {
		t.Error("both flagged cores must hold event tokens")
	}
}

func TestCounterUnderflowRecorded(t *testing.T) {
	s, _ := newSync(2, 1)
	s.Post(0, isa.OpSDEC, 0)
	s.Commit(1)
	if len(s.Violations()) == 0 || !strings.Contains(s.Violations()[0], "underflow") {
		t.Errorf("violations = %v, want underflow", s.Violations())
	}
	if s.PointState(0).Counter != 0 {
		t.Error("counter must clamp at zero")
	}
}

func TestOutOfRangePointRecorded(t *testing.T) {
	s, _ := newSync(2, 1)
	s.Post(0, isa.OpSINC, 5)
	s.Commit(1)
	if len(s.Violations()) == 0 {
		t.Error("want a violation for out-of-range point")
	}
}

func TestIRQSubscriptionAndWake(t *testing.T) {
	s, ctr := newSync(3, 0)
	s.SetSubscription(0, isa.IRQADC0)
	s.SetSubscription(1, isa.IRQADC1)
	if !s.RequestSleep(0) || !s.RequestSleep(1) || !s.RequestSleep(2) {
		t.Fatal("all cores should gate")
	}
	s.Commit(1)
	s.RaiseIRQ(isa.IRQADC0)
	if s.State(0) != StateRunning {
		t.Error("subscribed core 0 must wake")
	}
	if s.State(1) != StateGated || s.State(2) != StateGated {
		t.Error("non-subscribed cores must stay gated")
	}
	if s.Pending(0)&isa.IRQADC0 == 0 {
		t.Error("pending bit must be latched")
	}
	s.ClearPending(0, isa.IRQADC0)
	if s.Pending(0) != 0 {
		t.Error("pending bit must clear")
	}
	if ctr.IRQs != 1 || ctr.SyncWakes != 1 {
		t.Errorf("IRQs = %d, SyncWakes = %d", ctr.IRQs, ctr.SyncWakes)
	}
}

func TestIRQToRunningCoreLatchesToken(t *testing.T) {
	s, _ := newSync(1, 0)
	s.SetSubscription(0, isa.IRQADC0)
	s.RaiseIRQ(isa.IRQADC0)
	if s.State(0) != StateRunning {
		t.Fatal("core was running")
	}
	if s.RequestSleep(0) {
		t.Error("SLEEP right after a raced IRQ must fall through")
	}
}

func TestHaltedCoreNeverWakes(t *testing.T) {
	s, _ := newSync(2, 1)
	s.Halt(1)
	s.SetSubscription(1, isa.IRQADC0)
	s.RaiseIRQ(isa.IRQADC0)
	if s.State(1) != StateHalted {
		t.Error("halted core must ignore interrupts")
	}
	s.Post(0, isa.OpSINC, 0)
	s.Post(1, isa.OpSNOP, 0) // stale registration
	s.Commit(1)
	s.Post(0, isa.OpSDEC, 0)
	s.Commit(2)
	if s.State(1) != StateHalted {
		t.Error("halted core must ignore sync wakes")
	}
}

func TestOffCoresReported(t *testing.T) {
	s, _ := newSync(3, 0)
	if s.State(5) != StateOff {
		t.Errorf("core 5 state = %v, want off", s.State(5))
	}
}

func TestProducerConsumerFullProtocol(t *testing.T) {
	// Complete protocol walk: consumer SNOPs first, checks for data,
	// sleeps; producer SINC/SDECs per item. Run several rounds and verify
	// no deadlock and exactly one wake per round.
	s, ctr := newSync(2, 1)
	const rounds = 5
	cycle := uint64(0)
	tick := func() { cycle++; s.Commit(cycle) }

	for r := 0; r < rounds; r++ {
		// Consumer registers, sees no data, sleeps.
		s.Post(1, isa.OpSNOP, 0)
		tick()
		if !s.RequestSleep(1) {
			t.Fatalf("round %d: consumer should gate", r)
		}
		// Producer produces.
		s.Post(0, isa.OpSINC, 0)
		tick()
		s.Post(0, isa.OpSDEC, 0)
		tick()
		if s.State(1) != StateRunning {
			t.Fatalf("round %d: consumer not woken", r)
		}
	}
	if ctr.SyncWakes != rounds {
		t.Errorf("SyncWakes = %d, want %d", ctr.SyncWakes, rounds)
	}
}

// Property: committing a random batch of operations in one cycle leaves the
// point in the same state as applying the batch as one atomic merge computed
// independently; the counter never underflows below zero; and the number of
// point writes equals the number of distinct touched points.
func TestQuickMergeConsistency(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, ctr := newSync(8, 4)

		// Pre-charge counters so SDECs rarely underflow.
		for p := 0; p < 4; p++ {
			for i := 0; i < rng.Intn(4); i++ {
				s.Post(rng.Intn(8), isa.OpSINC, p)
			}
		}
		s.Commit(1)
		before := [4]Point{}
		for p := range before {
			before[p] = s.PointState(p)
		}
		writesBefore := ctr.SyncPointWrites

		nops := rng.Intn(8) + 1
		type rec struct {
			core, point int
			kind        isa.Opcode
		}
		var batch []rec
		kinds := []isa.Opcode{isa.OpSINC, isa.OpSDEC, isa.OpSNOP}
		for i := 0; i < nops; i++ {
			r := rec{core: rng.Intn(8), point: rng.Intn(4), kind: kinds[rng.Intn(3)]}
			batch = append(batch, r)
			s.Post(r.core, r.kind, r.point)
		}
		s.Commit(2)

		touched := map[int]bool{}
		for p := 0; p < 4; p++ {
			var flags uint8
			incs, decs := 0, 0
			used := false
			for _, r := range batch {
				if r.point != p {
					continue
				}
				used = true
				switch r.kind {
				case isa.OpSINC:
					flags |= 1 << uint(r.core)
					incs++
				case isa.OpSNOP:
					flags |= 1 << uint(r.core)
				case isa.OpSDEC:
					decs++
				}
			}
			if used {
				touched[p] = true
			}
			want := before[p]
			want.Flags |= flags
			nv := int(want.Counter) + incs - decs
			if nv < 0 {
				nv = 0
			}
			want.Counter = uint8(nv)
			if decs > 0 && want.Counter == 0 && want.Flags != 0 {
				want.Flags = 0
			}
			got := s.PointState(p)
			if got != want {
				return false
			}
		}
		return ctr.SyncPointWrites-writesBefore == uint64(len(touched))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: under arbitrary op sequences, a gated core either stays gated or
// becomes runnable after exactly WakeLatency cycles — never retroactively.
func TestQuickWakeLatencyInvariant(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s, _ := newSync(4, 2)
		gatedAt := map[int]uint64{}
		for cyc := uint64(1); cyc < 40; cyc++ {
			for c := 0; c < 4; c++ {
				if s.State(c) != StateRunning {
					continue
				}
				switch rng.Intn(6) {
				case 0:
					s.Post(c, isa.OpSINC, rng.Intn(2))
				case 1:
					s.Post(c, isa.OpSDEC, rng.Intn(2))
				case 2:
					s.Post(c, isa.OpSNOP, rng.Intn(2))
				case 3:
					if s.RequestSleep(c) {
						gatedAt[c] = cyc
					}
				}
			}
			s.Commit(cyc)
			for c := 0; c < 4; c++ {
				if s.State(c) == StateRunning {
					if when, was := gatedAt[c]; was {
						// woke at some commit w >= when; runnable only from w+WakeLatency
						if s.Runnable(c, when) {
							return false
						}
						delete(gatedAt, c)
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestMirrorWriteThrough(t *testing.T) {
	s, _ := newSync(2, 2)
	got := map[int]uint16{}
	s.Mirror = func(p int, v uint16) { got[p] = v }
	s.Post(0, isa.OpSINC, 1)
	s.Commit(1)
	want := s.PointState(1).Value()
	if got[1] != want {
		t.Errorf("mirror wrote %#x, want %#x", got[1], want)
	}
}

func TestNewSynchronizerPanicsOnBadCount(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for invalid core count")
		}
	}()
	NewSynchronizer(9, 1, power.MC, &power.Counters{})
}

func TestStateStrings(t *testing.T) {
	for _, s := range []CoreState{StateRunning, StateGated, StateHalted, StateOff} {
		if s.String() == "" {
			t.Errorf("state %d has no name", s)
		}
	}
}

// TestNextWake exercises the idle leap's bound: NextWake must expose
// exactly the internally scheduled resume cycles. (Runnable's wake latency
// is pinned by TestWakeOnCounterZero and TestLockStepResumeAlignment.)
func TestNextWake(t *testing.T) {
	s, _ := newSync(3, 1)
	// All cores start running and runnable: no pending wake.
	if _, ok := s.NextWake(1); ok {
		t.Error("no wake should be scheduled for runnable cores")
	}

	// Gate every core: with no producer left there is no internal wake
	// (only an IRQ could resume them).
	for c := 0; c < 3; c++ {
		if !s.RequestSleep(c) {
			t.Fatalf("core %d not gated", c)
		}
	}
	if _, ok := s.NextWake(10); ok {
		t.Error("all-gated system has no internally scheduled wake")
	}

	// A releasing SDEC at cycle 20 wakes cores 0 and 1 for 20+WakeLatency,
	// and NextWake reports that cycle.
	s.Post(0, isa.OpSINC, 0)
	s.Commit(19) // register core 0 (cannot happen while gated; test shortcut)
	s.points[0].Flags |= 1 << 1
	s.Post(2, isa.OpSDEC, 0)
	s.state[0], s.state[1] = StateGated, StateGated
	s.Commit(20)
	want := uint64(20 + WakeLatency)
	at, ok := s.NextWake(20)
	if !ok || at != want {
		t.Errorf("NextWake = %d,%v, want %d,true", at, ok, want)
	}

	// FastForward moves the cycle stamp so later wakes compute the same
	// latency a stepped run would.
	s.FastForward(100)
	s.state[2] = StateGated
	s.RaiseIRQ(0xffff) // nobody subscribed: no effect
	if s.State(2) != StateGated {
		t.Error("unsubscribed IRQ must not wake")
	}
	s.SetSubscription(2, 1)
	s.RaiseIRQ(1)
	if at, ok := s.NextWake(100); !ok || at != 100+WakeLatency {
		t.Errorf("post-FastForward wake = %d,%v, want %d,true", at, ok, uint64(100+WakeLatency))
	}
}
