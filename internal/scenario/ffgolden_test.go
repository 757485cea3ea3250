package scenario

import (
	"context"
	"fmt"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/apps"
	"repro/internal/exp"
	"repro/internal/platform"
	"repro/internal/power"
)

// ffGoldenArchs is the full architecture column of the fast-forward golden
// matrix. MC-nosync is the one the spin-loop engine was built for; SC and MC
// pin that the engine never mis-fires on the quiescence-dominated variants.
var ffGoldenArchs = []power.Arch{power.SC, power.MCNoSync, power.MC}

// ffGoldenClockHz keeps the runs idle/spin-dominated (the regime both
// engines target) while staying affordable in exact mode.
const ffGoldenClockHz = 4e6

// bundledScenarios loads every scenario file shipped in scenarios/.
func bundledScenarios(t *testing.T) []*Scenario {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(bundledDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	if len(paths) < 5 {
		t.Fatalf("found %d bundled scenarios, want >= 5", len(paths))
	}
	var scns []*Scenario
	for _, path := range paths {
		scn, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		scns = append(scns, scn)
	}
	return scns
}

// spinApp picks the scenario application with the richest busy-wait
// structure under the no-sync lowering: 3L-MMD and RP-CLASS have polling
// consumer stages, 3L-MF is fully replicated and barely spins.
func spinApp(scn *Scenario) string {
	for _, prefer := range []string{apps.MMD3L, apps.RPClass} {
		for _, app := range scn.Apps {
			if app == prefer {
				return app
			}
		}
	}
	return scn.Apps[0]
}

// ffGoldenDuration is each golden run's simulated length in seconds.
const ffGoldenDuration = 0.3

// ffGoldenWindow is the length in cycles of the exact stretch the windowed
// run steps from its midpoint.
const ffGoldenWindow = 1000

// newFFGolden builds one scenario cell's platform (no sink attached).
func newFFGolden(t *testing.T, scn *Scenario, app string, arch power.Arch) *platform.Platform {
	t.Helper()
	opts := scn.Options()
	opts.Duration = ffGoldenDuration
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
	return p
}

// runFFGolden runs one scenario cell once in the given mode.
func runFFGolden(t *testing.T, scn *Scenario, app string, arch power.Arch, exact bool) *platform.Platform {
	t.Helper()
	p := newFFGolden(t, scn, app, arch)
	p.SetExact(exact)
	if err := p.RunSeconds(ffGoldenDuration); err != nil {
		t.Fatal(err)
	}
	return p
}

// runFFGoldenWindowed runs one scenario cell fast for total cycles, stepping
// ffGoldenWindow of them from the midpoint in exact mode and switching back,
// as wbsn-sim -trace-window does.
func runFFGoldenWindowed(t *testing.T, scn *Scenario, app string, arch power.Arch, total uint64) *platform.Platform {
	t.Helper()
	p := newFFGolden(t, scn, app, arch)
	for i, n := range []uint64{total / 2, ffGoldenWindow, total - total/2 - ffGoldenWindow} {
		p.SetExact(i == 1)
		if err := p.Run(n); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// assertFFEquivalent asserts bit-identity of every observable output of an
// exact and a fast-forwarded run: counters (hence every power figure), cycle
// position, per-core architectural state, busy statistics, debug and error
// streams, overruns and violations.
func assertFFEquivalent(t *testing.T, cores int, exact, fast *platform.Platform) {
	t.Helper()
	if *exact.Counters() != *fast.Counters() {
		t.Errorf("counters diverge:\nexact: %+v\nfast:  %+v", *exact.Counters(), *fast.Counters())
	}
	if e, f := exact.Cycle(), fast.Cycle(); e != f {
		t.Errorf("cycle diverges: exact %d, fast %d", e, f)
	}
	for c := 0; c < cores; c++ {
		if e, f := exact.CoreBusy(c), fast.CoreBusy(c); e != f {
			t.Errorf("core %d busy diverges: exact %d, fast %d", c, e, f)
		}
		if e, f := exact.CoreRegs(c), fast.CoreRegs(c); e != f {
			t.Errorf("core %d registers diverge", c)
		}
		if e, f := exact.CoreState(c), fast.CoreState(c); e != f {
			t.Errorf("core %d state diverges: exact %v, fast %v", c, e, f)
		}
	}
	if e, f := exact.MaxSampleBusy(), fast.MaxSampleBusy(); e != f {
		t.Errorf("max sample busy diverges: exact %d, fast %d", e, f)
	}
	if e, f := exact.Overruns(), fast.Overruns(); e != f {
		t.Errorf("overruns diverge: exact %d, fast %d", e, f)
	}
	ed, fd := exact.Debug(), fast.Debug()
	if len(ed) != len(fd) {
		t.Errorf("debug streams diverge: exact %d entries, fast %d", len(ed), len(fd))
	} else {
		for i := range ed {
			if ed[i] != fd[i] {
				t.Errorf("debug streams diverge at entry %d: exact %+v, fast %+v", i, ed[i], fd[i])
				break
			}
		}
	}
	ee, fe := exact.ErrCodes(), fast.ErrCodes()
	if len(ee) != len(fe) {
		t.Errorf("error streams diverge: exact %d entries, fast %d", len(ee), len(fe))
	} else {
		for i := range ee {
			if ee[i] != fe[i] {
				t.Errorf("error streams diverge at entry %d: exact %+v, fast %+v", i, ee[i], fe[i])
				break
			}
		}
	}
	ev, fv := exact.Violations(), fast.Violations()
	if len(ev) != len(fv) {
		t.Errorf("violations diverge: exact %v, fast %v", ev, fv)
	}
	if exact.FFSkippedCycles() != 0 || exact.BlockMCCycles() != 0 {
		t.Errorf("exact mode skipped or strode cycles: idle %d, stride %d; want 0",
			exact.FFSkippedCycles(), exact.BlockMCCycles())
	}
	if exact.BlockCycles() != 0 {
		t.Errorf("exact mode ran %d cycles on the block engine; want 0", exact.BlockCycles())
	}
}

// assertCyclePartition checks that a fresh platform's engine odometers
// partition its simulated cycles, whatever its mode switches: each one was
// leapt idle, run on a single-core block or a multi-core stride (leapt or
// not), or stepped.
func assertCyclePartition(t *testing.T, mode string, p *platform.Platform) {
	t.Helper()
	ff, block, stride, step := p.FFSkippedCycles(), p.BlockCycles(), p.BlockMCCycles(), p.StepCycles()
	if sum := ff + block + stride + step; sum != p.Cycle() {
		t.Errorf("%s: idle %d + block %d + stride %d + step %d = %d cycles, want Cycle() = %d",
			mode, ff, block, stride, step, sum, p.Cycle())
	}
}

// TestScenarioFastForwardGoldenEquivalence is the fast-path acceptance
// matrix: across every bundled scenario and all three architecture
// variants, the fast run (idle leaps, blocks and strides) must be
// bit-identical to -exact. On MC-nosync with polling consumer stages the
// strides must actually have parked pollers and leapt with every
// participant parked, and a run with an exact window
// mid-run must match too and keep its cycle partition across the two mode
// switches.
func TestScenarioFastForwardGoldenEquivalence(t *testing.T) {
	for _, scn := range bundledScenarios(t) {
		app := spinApp(scn)
		for _, arch := range ffGoldenArchs {
			scn, arch := scn, arch
			t.Run(fmt.Sprintf("%s/%s/%v", scn.Name, app, arch), func(t *testing.T) {
				t.Parallel()
				exact := runFFGolden(t, scn, app, arch, true)
				fast := runFFGolden(t, scn, app, arch, false)
				assertFFEquivalent(t, exact.PowerConfig().NumCores, exact, fast)
				assertCyclePartition(t, "exact", exact)
				assertCyclePartition(t, "fast", fast)
				// How much is skippable depends on the workload (a 400 Hz
				// EMG grid is genuinely busier than 250 Hz ECG); what is
				// invariant is that some of it is, and that it never costs
				// correctness.
				if total := fast.FFSkippedCycles() + fast.BlockMCLeaptCycles(); total == 0 {
					t.Error("fast-forward never engaged")
				}
				if arch == power.MCNoSync && app != apps.MF3L && fast.BlockMCLeaptCycles() == 0 {
					t.Error("strides never leapt with every poller parked on a busy-wait scenario cell")
				}
				if arch == power.MCNoSync && app != apps.MF3L && fast.BlockMCParkedCycles() == 0 {
					t.Error("strides never parked a poller on a busy-wait scenario cell")
				}
				if arch == power.MCNoSync {
					windowed := runFFGoldenWindowed(t, scn, app, arch, exact.Cycle())
					assertFFEquivalent(t, exact.PowerConfig().NumCores, exact, windowed)
					assertCyclePartition(t, "windowed", windowed)
				}
				if arch == power.SC && fast.BlockCycles() == 0 {
					t.Error("block engine never engaged on the single-core cell")
				}
			})
		}
	}
}

// TestScenarioSolveExactMatchesFast closes the loop at the experiment layer:
// for every bundled scenario and architecture, the solved operating point
// (the quantity every figure depends on) must be identical — including
// identical errors — whether the solver simulated with fast-forward or
// cycle-by-cycle. Both sides run the from-scratch reference, so the only
// varying ingredient is the engine under test.
func TestScenarioSolveExactMatchesFast(t *testing.T) {
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
				exactOpts := opts
				exactOpts.Exact = true
				want, wantErr := exp.SolveOperatingPointFromScratch(ctx, app, arch, sig, exactOpts)
				got, gotErr := exp.SolveOperatingPointFromScratch(ctx, app, arch, sig, opts)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("exact err %v, fast err %v", wantErr, gotErr)
				}
				if wantErr != nil {
					if wantErr.Error() != gotErr.Error() {
						t.Errorf("errors differ:\nexact: %v\nfast:  %v", wantErr, gotErr)
					}
					return
				}
				if want != got {
					t.Errorf("operating points diverge: exact %.4f MHz / %.2f V, fast %.4f MHz / %.2f V",
						want.FreqHz/1e6, want.VoltageV, got.FreqHz/1e6, got.VoltageV)
				}
			})
		}
	}
}
