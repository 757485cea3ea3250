package exp

import (
	"context"
	"testing"

	"repro/internal/apps"
	"repro/internal/power"
)

func tinyOpts() Options {
	return Options{Duration: 1.5, ProbeDuration: 1.2, PathoFrac: 0.2, Seed: 1}
}

func TestSolveOperatingPointMatchesPaperVoltages(t *testing.T) {
	opts := tinyOpts()
	ctx := context.Background()
	s := NewSession(nil)
	for _, app := range apps.Names {
		sig, err := opts.Record(app)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := s.SolveOperatingPoint(ctx, app, power.SC, sig, opts)
		if err != nil {
			t.Fatalf("%s SC: %v", app, err)
		}
		mc, err := s.SolveOperatingPoint(ctx, app, power.MC, sig, opts)
		if err != nil {
			t.Fatalf("%s MC: %v", app, err)
		}
		// Paper Table I: every MC execution runs at 1.0 MHz / 0.5 V;
		// every SC execution at 0.6 V with a higher clock.
		if mc.FreqHz != power.MinClockHz || mc.VoltageV != 0.5 {
			t.Errorf("%s MC point = %.2f MHz / %.2f V, want 1.0 / 0.5", app, mc.FreqHz/1e6, mc.VoltageV)
		}
		if sc.VoltageV != 0.6 {
			t.Errorf("%s SC voltage = %.2f V, want 0.6", app, sc.VoltageV)
		}
		if sc.FreqHz <= mc.FreqHz {
			t.Errorf("%s SC clock %.2f MHz must exceed MC's %.2f", app, sc.FreqHz/1e6, mc.FreqHz/1e6)
		}
	}
}

func TestMeasureProducesSavings(t *testing.T) {
	opts := tinyOpts()
	ctx := context.Background()
	s := NewSession(nil)
	sig, err := opts.Record(apps.MF3L)
	if err != nil {
		t.Fatal(err)
	}
	scOp, err := s.SolveOperatingPoint(ctx, apps.MF3L, power.SC, sig, opts)
	if err != nil {
		t.Fatal(err)
	}
	mcOp, err := s.SolveOperatingPoint(ctx, apps.MF3L, power.MC, sig, opts)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := s.Measure(ctx, apps.MF3L, power.SC, scOp, sig, opts)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := s.Measure(ctx, apps.MF3L, power.MC, mcOp, sig, opts)
	if err != nil {
		t.Fatal(err)
	}
	saving := 100 * (1 - mc.Report.TotalUW/sc.Report.TotalUW)
	// Paper: 40.7% for 3L-MF; require the band.
	if saving < 25 || saving > 55 {
		t.Errorf("3L-MF saving = %.1f%%, want 25..55", saving)
	}
	if mc.ActiveDMBanks != 16 || sc.ActiveDMBanks >= 16 {
		t.Errorf("bank counts: SC %d, MC %d", sc.ActiveDMBanks, mc.ActiveDMBanks)
	}
}

func TestNoSyncNeedsHigherOperatingPoint(t *testing.T) {
	opts := tinyOpts()
	// Divergence-induced deadline misses accumulate over time; give the
	// verification window enough samples to expose them.
	opts.ProbeDuration = 2.5
	ctx := context.Background()
	s := NewSession(nil)
	sig, err := opts.Record(apps.MF3L)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := s.SolveOperatingPoint(ctx, apps.MF3L, power.MC, sig, opts)
	if err != nil {
		t.Fatal(err)
	}
	ns, err := s.SolveOperatingPoint(ctx, apps.MF3L, power.MCNoSync, sig, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Without lock-step recovery, diverged cores serialize on the shared
	// instruction bank: the 1.0 MHz point no longer meets real time.
	if ns.FreqHz <= mc.FreqHz {
		t.Errorf("no-sync point %.2f MHz should exceed the proposed system's %.2f MHz",
			ns.FreqHz/1e6, mc.FreqHz/1e6)
	}
}
