package platform_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/ecg"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/signal"
)

// goldenDuration is the simulated time of each equivalence run, seconds.
const goldenDuration = 0.3

// goldenClockHz keeps the runs idle-dominated (sample period 8000 cycles)
// while staying cheap enough for the test suite.
const goldenClockHz = 2e6

// goldenTimelineCap holds every event of an exact golden run, core-state
// and sync-op events included (up to about 190 000 on the SC and MC cells).
const goldenTimelineCap = 1 << 19

func runGolden(t *testing.T, app string, arch power.Arch, exact bool) (*apps.Variant, *platform.Platform) {
	t.Helper()
	return runGoldenSource(t, app, arch, goldenSource(t, app), exact)
}

// goldenSource synthesizes the seed-1 record the golden runs consume.
func goldenSource(t *testing.T, app string) *signal.Source {
	t.Helper()
	cfg := ecg.DefaultConfig()
	cfg.Seed = 1
	if app == apps.RPClass {
		cfg.PathologicalFrac = 0.2
	}
	sig, err := ecg.Synthesize(cfg, goldenDuration+1)
	if err != nil {
		t.Fatal(err)
	}
	return signal.FromECG(sig)
}

func runGoldenSource(t *testing.T, app string, arch power.Arch, src *signal.Source, exact bool) (*apps.Variant, *platform.Platform) {
	t.Helper()
	v, p := goldenPlatform(t, app, arch, src)
	p.SetExact(exact)
	if err := p.RunSeconds(goldenDuration); err != nil {
		t.Fatal(err)
	}
	return v, p
}

// goldenPlatform builds the golden configuration with a timeline attached.
func goldenPlatform(t *testing.T, app string, arch power.Arch, src *signal.Source) (*apps.Variant, *platform.Platform) {
	t.Helper()
	v, err := apps.Build(app, arch)
	if err != nil {
		t.Fatal(err)
	}
	p, err := v.NewPlatform(src, goldenClockHz, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	p.SetObserver(obs.NewSink(obs.NewTimeline(goldenTimelineCap), nil))
	return v, p
}

// assertEquivalent asserts that the exact and fast-forwarded runs of one
// configuration are observably bit-identical: counters, per-core state,
// debug and error streams, and the timeline's boundary instants.
func assertEquivalent(t *testing.T, v *apps.Variant, exact, fast *platform.Platform) {
	t.Helper()
	if *exact.Counters() != *fast.Counters() {
		t.Errorf("counters diverge:\nexact: %+v\nfast:  %+v", *exact.Counters(), *fast.Counters())
	}
	if e, f := exact.Cycle(), fast.Cycle(); e != f {
		t.Errorf("cycle diverges: exact %d, fast %d", e, f)
	}
	for c := 0; c < v.Cores; c++ {
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
	if !reflect.DeepEqual(exact.Debug(), fast.Debug()) {
		t.Errorf("debug streams diverge: exact %d entries, fast %d",
			len(exact.Debug()), len(fast.Debug()))
	}
	if !reflect.DeepEqual(exact.ErrCodes(), fast.ErrCodes()) {
		t.Errorf("error streams diverge: exact %d entries, fast %d",
			len(exact.ErrCodes()), len(fast.ErrCodes()))
	}
	if n := exact.Observer().Timeline().Dropped(); n != 0 {
		t.Fatalf("exact timeline dropped %d events: raise goldenTimelineCap", n)
	}
	ev, fv := platform.BoundaryEvents(exact.Observer().Events()), platform.BoundaryEvents(fast.Observer().Events())
	if len(ev) == 0 || len(ev) != len(fv) {
		t.Errorf("boundary events diverge: exact %d, fast %d", len(ev), len(fv))
	}
	for i := 0; i < len(ev) && i < len(fv); i++ {
		if ev[i] != fv[i] {
			t.Errorf("boundary event %d diverges:\nexact: %+v\nfast:  %+v", i, ev[i], fv[i])
			break
		}
	}
	if exact.FFSkippedCycles() != 0 {
		t.Errorf("exact mode skipped %d cycles, want 0", exact.FFSkippedCycles())
	}
	if fast.FFSkippedCycles()+fast.BlockMCLeaptCycles() == 0 {
		t.Error("fast-forward never engaged")
	}
}

// TestGoldenEquivalence asserts that the fast paths are semantically
// invisible on every benchmark application and architecture: counters
// (hence Table I / Figures 6-7 inputs), per-core state, debug and error
// streams, and the timeline's boundary instants are bit-identical to the
// exact cycle-by-cycle simulation.
func TestGoldenEquivalence(t *testing.T) {
	archs := []power.Arch{power.SC, power.MC}
	for _, app := range apps.Names {
		for _, arch := range archs {
			app, arch := app, arch
			t.Run(fmt.Sprintf("%s/%v", app, arch), func(t *testing.T) {
				v, exact := runGolden(t, app, arch, true)
				_, fast := runGolden(t, app, arch, false)
				assertEquivalent(t, v, exact, fast)
				if arch == power.MC && fast.FFSkippedCycles() < fast.Cycle()/2 {
					t.Errorf("MC run skipped only %d of %d cycles; want idle domination",
						fast.FFSkippedCycles(), fast.Cycle())
				}
			})
		}
	}
}

// TestGoldenEquivalenceMultiRate extends the golden suite to a multi-rate
// scenario: with per-channel rate divisors the ADC advertises the minimum
// across three independent sampling grids, and the fast-forward engine must
// stay bit-identical to the exact cycle-by-cycle simulation leaping between
// them. Covers both the sequential baseline and the replicated multi-core
// mapping, whose cores consume their own (differently-clocked) channels.
func TestGoldenEquivalenceMultiRate(t *testing.T) {
	cfg := signal.DefaultConfig(signal.KindECG)
	cfg.Seed = 1
	cfg.RateDiv = [signal.MaxChannels]int{1, 2, 4}
	src, err := signal.Synthesize(cfg, goldenDuration+1)
	if err != nil {
		t.Fatal(err)
	}
	for _, arch := range []power.Arch{power.SC, power.MC} {
		arch := arch
		t.Run(fmt.Sprintf("%s/%v", apps.MF3L, arch), func(t *testing.T) {
			v, exact := runGoldenSource(t, apps.MF3L, arch, src, true)
			_, fast := runGoldenSource(t, apps.MF3L, arch, src, false)
			assertEquivalent(t, v, exact, fast)
			if n := fast.Overruns(); n != 0 {
				t.Errorf("multi-rate run overran %d samples", n)
			}
			if viol := fast.Violations(); len(viol) > 0 {
				t.Errorf("multi-rate run recorded sync violations: %v", viol)
			}
		})
	}
}

// TestTraceWindowMatchesExactRun steps two windows of cycles exactly inside
// an otherwise fast run, as wbsn-sim -trace-window does for one. The
// windows' core-state and sync-op events must equal those of a whole-run
// exact trace over the same cycles, apart from each window's opening record
// of every core's state, and none may fall outside the windows. The second
// window follows an exact and a fast stretch, so its opening record pins
// that SetExact forgets the states recorded before the fast one. The runs
// stop short of goldenDuration: busy-waiting cores change state every few
// cycles, and the whole-run exact trace must fit the ring.
func TestTraceWindowMatchesExactRun(t *testing.T) {
	const n, total = 20_000, 320_000
	windows := []uint64{250_000, 290_000}
	traced := func(events []obs.Event) (opening, rest, outside []obs.Event) {
		for _, e := range events {
			if e.Kind != obs.KindCoreState && e.Kind != obs.KindSyncOp {
				continue
			}
			in, first := false, false
			for _, w := range windows {
				in = in || (e.Cycle >= w && e.Cycle < w+n)
				first = first || e.Cycle == w
			}
			switch {
			case !in:
				outside = append(outside, e)
			case first && e.Kind == obs.KindCoreState:
				opening = append(opening, e)
			default:
				rest = append(rest, e)
			}
		}
		return opening, rest, outside
	}
	for _, arch := range []power.Arch{power.MC, power.MCNoSync} {
		arch := arch
		t.Run(arch.String(), func(t *testing.T) {
			src := goldenSource(t, apps.MMD3L)
			v, whole := goldenPlatform(t, apps.MMD3L, arch, src)
			whole.SetExact(true)
			if err := whole.Run(total); err != nil {
				t.Fatal(err)
			}
			_, p := goldenPlatform(t, apps.MMD3L, arch, src)
			for _, seg := range []struct {
				until uint64
				exact bool
			}{
				{windows[0] - 1, false}, {windows[0] + n - 1, true},
				{windows[1] - 1, false}, {windows[1] + n - 1, true},
				{total, false},
			} {
				p.SetExact(seg.exact)
				if err := p.Run(seg.until - p.Cycle()); err != nil {
					t.Fatal(err)
				}
			}
			assertEquivalent(t, v, whole, p)

			wOpen, wRest, _ := traced(whole.Observer().Events())
			gOpen, gRest, outside := traced(p.Observer().Events())
			if len(outside) > 0 {
				t.Errorf("%d core-state/sync-op events outside the windows, first %+v", len(outside), outside[0])
			}
			if want := len(windows) * v.Cores; len(gOpen) != want {
				t.Errorf("windows open with %d core-state events, want one per core and window (%d)", len(gOpen), want)
			}
			for _, e := range wOpen {
				if !slices.Contains(gOpen, e) {
					t.Errorf("whole-run event %+v missing from a window's opening record", e)
				}
			}
			if len(wRest) == 0 || !reflect.DeepEqual(wRest, gRest) {
				t.Errorf("window events diverge from the whole-run trace: whole %d, windows %d", len(wRest), len(gRest))
			}
			ops := 0
			for _, e := range gRest {
				if e.Kind == obs.KindSyncOp {
					ops++
				}
			}
			if arch == power.MC && ops == 0 {
				t.Error("no sync-op events inside the windows of a sync-unit run")
			}
		})
	}
}
