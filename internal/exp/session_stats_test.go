package exp

import (
	"context"
	"testing"

	"repro/internal/apps"
	"repro/internal/power"
)

// TestSessionSurfacesFastForwardStats pins the fast-forward statistics
// reporting: a default (fast-forwarding) session accumulates both idle
// leaps and stride work across its probe, verification and measurement
// runs — the MC-nosync column exercises both engines: the shared demand
// probe runs on MC (gated cores, idle leaps) and the verifications on the
// busy-wait variant itself (polling cores carried and parked by strides) —
// while an Options.Exact session reports zeros, because exact mode forces
// the cycle-accurate path everywhere. The deprecated SpinSkippedCycles
// reads 0 either way.
func TestSessionSurfacesFastForwardStats(t *testing.T) {
	ctx := context.Background()
	run := func(t *testing.T, exact bool) SessionStats {
		t.Helper()
		opts := Options{Duration: 0.5, ProbeDuration: 0.4, PathoFrac: 0.2, Seed: 1, Exact: exact}
		sig, err := opts.Record(apps.MMD3L)
		if err != nil {
			t.Fatal(err)
		}
		sess := NewSession(nil)
		op, err := sess.SolveOperatingPoint(ctx, apps.MMD3L, power.MCNoSync, sig, opts)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Measure(ctx, apps.MMD3L, power.MCNoSync, op, sig, opts); err != nil {
			t.Fatal(err)
		}
		return sess.Stats()
	}

	st := run(t, false)
	if st.FFLeaps == 0 || st.FFSkippedCycles == 0 {
		t.Errorf("idle fast-forward work not surfaced: %d leaps / %d cycles", st.FFLeaps, st.FFSkippedCycles)
	}
	if st.BlockMCStrides == 0 || st.BlockMCCycles == 0 || st.SpinSkippedCycles != 0 {
		t.Errorf("stride work not surfaced: %d strides / %d cycles (spin %d, want 0)",
			st.BlockMCStrides, st.BlockMCCycles, st.SpinSkippedCycles)
	}

	st = run(t, true)
	if st.FFLeaps != 0 || st.FFSkippedCycles != 0 || st.BlockMCCycles != 0 || st.SpinSkippedCycles != 0 {
		t.Errorf("exact session reports fast-forward work: %+v", st)
	}
}
