package scenario

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/apps"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/power"
)

// runObsGolden runs one scenario cell in fast mode with a full observability
// sink (timeline + registry) attached — the configuration -timeline-out and
// -metrics-out produce. The fast-forward engines must stay engaged: unlike
// the tracer, the sink observes only boundary events, so it never forces the
// cycle-by-cycle path.
func runObsGolden(t *testing.T, scn *Scenario, app string, arch power.Arch) (*platform.Platform, *obs.Sink) {
	t.Helper()
	opts := scn.Options()
	opts.Duration = 0.3
	sig, err := opts.Record(app)
	if err != nil {
		t.Fatal(err)
	}
	v, err := apps.Build(app, arch)
	if err != nil {
		t.Fatal(err)
	}
	p, err := v.NewPlatform(sig, ffGoldenClockHz, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	p.SetExact(false)
	sink := obs.NewSink(obs.NewTimeline(obs.DefaultTimelineCap), obs.NewRegistry())
	p.SetObserver(sink)
	if err := p.RunSeconds(opts.Duration); err != nil {
		t.Fatal(err)
	}
	return p, sink
}

// assertObsEquivalent asserts bit-identity of every observable output of an
// unobserved and an observed run — including the fast-forward engines' own
// statistics, so attaching the sink provably did not change which engine
// simulated which cycle.
func assertObsEquivalent(t *testing.T, cores int, plain, observed *platform.Platform) {
	t.Helper()
	if *plain.Counters() != *observed.Counters() {
		t.Errorf("counters diverge:\nplain:    %+v\nobserved: %+v", *plain.Counters(), *observed.Counters())
	}
	if e, f := plain.Cycle(), observed.Cycle(); e != f {
		t.Errorf("cycle diverges: plain %d, observed %d", e, f)
	}
	for c := 0; c < cores; c++ {
		if e, f := plain.CoreBusy(c), observed.CoreBusy(c); e != f {
			t.Errorf("core %d busy diverges: plain %d, observed %d", c, e, f)
		}
		if e, f := plain.CoreRegs(c), observed.CoreRegs(c); e != f {
			t.Errorf("core %d registers diverge", c)
		}
		if e, f := plain.CoreState(c), observed.CoreState(c); e != f {
			t.Errorf("core %d state diverges: plain %v, observed %v", c, e, f)
		}
	}
	if e, f := plain.MaxSampleBusy(), observed.MaxSampleBusy(); e != f {
		t.Errorf("max sample busy diverges: plain %d, observed %d", e, f)
	}
	if e, f := plain.Overruns(), observed.Overruns(); e != f {
		t.Errorf("overruns diverge: plain %d, observed %d", e, f)
	}
	ed, fd := plain.Debug(), observed.Debug()
	if len(ed) != len(fd) {
		t.Errorf("debug streams diverge: plain %d entries, observed %d", len(ed), len(fd))
	} else {
		for i := range ed {
			if ed[i] != fd[i] {
				t.Errorf("debug streams diverge at entry %d: plain %+v, observed %+v", i, ed[i], fd[i])
				break
			}
		}
	}
	ee, fe := plain.ErrCodes(), observed.ErrCodes()
	if len(ee) != len(fe) {
		t.Errorf("error streams diverge: plain %d entries, observed %d", len(ee), len(fe))
	} else {
		for i := range ee {
			if ee[i] != fe[i] {
				t.Errorf("error streams diverge at entry %d: plain %+v, observed %+v", i, ee[i], fe[i])
				break
			}
		}
	}
	if ev, fv := plain.Violations(), observed.Violations(); len(ev) != len(fv) {
		t.Errorf("violations diverge: plain %v, observed %v", ev, fv)
	}
	// Engine engagement must be identical, not merely nonzero: the sink must
	// not shorten, split or suppress a single leap or stride.
	if e, f := plain.FFSkippedCycles(), observed.FFSkippedCycles(); e != f {
		t.Errorf("idle fast-forward diverges: plain %d skipped, observed %d", e, f)
	}
	if e, f := plain.BlockMCLeaptCycles(), observed.BlockMCLeaptCycles(); e != f {
		t.Errorf("all-parked leaps diverge: plain %d leapt, observed %d", e, f)
	}
	if e, f := plain.BlockCycles(), observed.BlockCycles(); e != f {
		t.Errorf("block engine diverges: plain %d cycles, observed %d", e, f)
	}
}

// TestScenarioObservedGoldenEquivalence is the observability acceptance
// matrix: across every bundled scenario and all three architecture variants,
// a fast run with the timeline sink attached must be bit-identical to the
// same run unobserved, with every fast-path engine exactly as engaged. The
// engagement floor mirrors the fast-forward golden matrix: the observed run
// must still leap (and, on the single-core column, stride).
func TestScenarioObservedGoldenEquivalence(t *testing.T) {
	for _, scn := range bundledScenarios(t) {
		app := spinApp(scn)
		for _, arch := range ffGoldenArchs {
			scn, arch := scn, arch
			t.Run(fmt.Sprintf("%s/%s/%v", scn.Name, app, arch), func(t *testing.T) {
				t.Parallel()
				plain := runFFGolden(t, scn, app, arch, false)
				observed, sink := runObsGolden(t, scn, app, arch)
				assertObsEquivalent(t, plain.PowerConfig().NumCores, plain, observed)
				if total := observed.FFSkippedCycles() + observed.BlockMCLeaptCycles(); total == 0 {
					t.Error("fast-forward never engaged under observation")
				}
				if arch == power.MCNoSync && app != apps.MF3L && observed.BlockMCLeaptCycles() == 0 {
					t.Error("strides never leapt under observation on a busy-wait cell")
				}
				if arch == power.SC && observed.BlockCycles() == 0 {
					t.Error("block engine never engaged under observation on the single-core cell")
				}
				// The sink must actually have seen the run: the timeline
				// carries events and every engaged engine recorded its
				// leap-length histogram.
				if len(sink.Events()) == 0 {
					t.Error("timeline recorded no events")
				}
				reg := sink.Registry()
				if h, ok := reg.Histogram("engine.idle_leap_cycles"); observed.FFSkippedCycles() > 0 && (!ok || h.Count == 0) {
					t.Error("idle leaps engaged but engine.idle_leap_cycles histogram is empty")
				}
				if h, ok := reg.Histogram("engine.block_stride_cycles"); observed.BlockCycles() > 0 && (!ok || h.Count == 0) {
					t.Error("block strides engaged but engine.block_stride_cycles histogram is empty")
				}
			})
		}
	}
}

// TestScenarioSolveObservedMatchesUnobserved closes the loop at the
// experiment layer: for every bundled scenario and architecture, the solved
// operating point (the quantity every figure depends on) must be identical —
// including identical errors — whether or not the solver's platforms carried
// an observability sink.
func TestScenarioSolveObservedMatchesUnobserved(t *testing.T) {
	ctx := context.Background()
	for _, scn := range bundledScenarios(t) {
		app := spinApp(scn)
		for _, arch := range ffGoldenArchs {
			scn, arch := scn, arch
			t.Run(fmt.Sprintf("%s/%s/%v", scn.Name, app, arch), func(t *testing.T) {
				t.Parallel()
				opts := scn.Options()
				opts.Duration = 0.5
				opts.ProbeDuration = 0.4
				sig, err := opts.Record(app)
				if err != nil {
					t.Fatal(err)
				}
				obsOpts := opts
				obsOpts.Obs = obs.NewSink(obs.NewTimeline(obs.DefaultTimelineCap), obs.NewRegistry())
				want, wantErr := exp.SolveOperatingPointFromScratch(ctx, app, arch, sig, opts)
				got, gotErr := exp.SolveOperatingPointFromScratch(ctx, app, arch, sig, obsOpts)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("unobserved err %v, observed err %v", wantErr, gotErr)
				}
				if wantErr != nil {
					if wantErr.Error() != gotErr.Error() {
						t.Errorf("errors differ:\nunobserved: %v\nobserved:   %v", wantErr, gotErr)
					}
					return
				}
				if want != got {
					t.Errorf("operating points diverge: unobserved %.4f MHz / %.2f V, observed %.4f MHz / %.2f V",
						want.FreqHz/1e6, want.VoltageV, got.FreqHz/1e6, got.VoltageV)
				}
			})
		}
	}
}
