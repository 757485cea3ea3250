package exp

import (
	"context"
	"testing"

	"repro/internal/apps"
	"repro/internal/power"
	"repro/internal/signal"
)

// BenchmarkSolveStore quantifies the session redesign on the
// escalation-heavy MC-nosync column: without lock-step recovery, solving the
// busy-wait variant walks several candidate frequencies, each candidate a
// full probe-window simulation that the idle fast-forward engine cannot help
// (spinning cores are never quiescent). Three modes of the same column, all
// producing bit-identical results (pinned by TestSessionSolveMatchesScratch
// and the scenario golden matrix):
//
//   - from-scratch: the reference — every candidate rebuilds the
//     application and simulates its full window, every measurement restarts
//     from reset.
//   - session: one fresh Session per iteration — candidates fork a pristine
//     template, failing candidates abort at their first real-time
//     violation, builds and probes are shared.
//   - stored: each fresh Session is backed by the store a previous
//     session filled, the wbsn-bench -store re-run workflow — solves and
//     measurements are both answered from the store, so the column
//     simulates nothing.
func BenchmarkSolveStore(b *testing.B) {
	opts := Options{Duration: 2, ProbeDuration: 1.5, PathoFrac: 0.2, Seed: 1}
	params := power.DefaultParams()
	ctx := context.Background()

	sigs := map[string]*signal.Source{}
	for _, app := range apps.Names {
		sig, err := opts.Record(app)
		if err != nil {
			b.Fatal(err)
		}
		sigs[app] = sig
	}
	column := func(b *testing.B, s *Session) {
		b.Helper()
		for _, app := range apps.Names {
			var op OperatingPoint
			var err error
			if s == nil {
				op, err = SolveOperatingPointFromScratch(ctx, app, power.MCNoSync, sigs[app], opts)
			} else {
				op, err = s.SolveOperatingPoint(ctx, app, power.MCNoSync, sigs[app], opts)
			}
			if err != nil {
				b.Fatal(err)
			}
			if s == nil {
				_, err = MeasureFromScratch(app, power.MCNoSync, op, sigs[app], opts, params)
			} else {
				_, err = s.Measure(ctx, app, power.MCNoSync, op, sigs[app], opts)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("from-scratch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			column(b, nil)
		}
	})
	b.Run("session", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			column(b, NewSession(params))
		}
	})
	b.Run("stored", func(b *testing.B) {
		st := newMemStore()
		warm := NewSession(params)
		warm.SetStore(st)
		column(b, warm)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := NewSession(params)
			s.SetStore(st)
			column(b, s)
		}
	})
}
