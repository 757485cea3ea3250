package scenario

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/exp"
	"repro/internal/power"
)

// TestSessionSolvesMatchFromScratch is the acceptance matrix for the
// session redesign: across every bundled scenario, every application the
// scenario exercises, and all three architecture variants, the session
// solve must produce bit-identical operating points (or identical
// errors) to the from-scratch reference. One session is shared across the
// whole matrix, so cross-scenario cache keying is exercised too: a record or
// probe cached for one scenario must never leak into another's solve.
func TestSessionSolvesMatchFromScratch(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join(bundledDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	if len(paths) < 5 {
		t.Fatalf("found %d bundled scenarios, want >= 5", len(paths))
	}
	sess := exp.NewSession(nil)
	ctx := context.Background()
	for _, path := range paths {
		scn, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		opts := scn.Options()
		opts.Duration = 0.8
		opts.ProbeDuration = 0.6
		for _, app := range scn.Apps {
			for _, arch := range []power.Arch{power.SC, power.MCNoSync, power.MC} {
				app, arch, opts := app, arch, opts
				t.Run(fmt.Sprintf("%s/%s/%v", scn.Name, app, arch), func(t *testing.T) {
					t.Parallel()
					sig, err := opts.Record(app)
					if err != nil {
						t.Fatal(err)
					}
					want, wantErr := exp.SolveOperatingPointFromScratch(ctx, app, arch, sig, opts)
					got, gotErr := sess.SolveOperatingPoint(ctx, app, arch, sig, opts)
					if (wantErr == nil) != (gotErr == nil) {
						t.Fatalf("scratch err %v, session err %v", wantErr, gotErr)
					}
					if wantErr != nil {
						if wantErr.Error() != gotErr.Error() {
							t.Errorf("errors differ:\nscratch: %v\nsession: %v", wantErr, gotErr)
						}
						return
					}
					if want != got {
						t.Errorf("operating points diverge: scratch %.4f MHz / %.2f V, session %.4f MHz / %.2f V",
							want.FreqHz/1e6, want.VoltageV, got.FreqHz/1e6, got.VoltageV)
					}
				})
			}
		}
	}
}
