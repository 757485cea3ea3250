// Package repro_test hosts the benchmark harness regenerating every table
// and figure of the paper's evaluation, plus ablations of the design choices
// DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Each benchmark iteration simulates the configuration and reports the
// paper's headline quantities as custom metrics (uW, percent, MHz). Short
// simulated durations keep the suite tractable; cmd/wbsn-bench exposes the
// paper's full 60 s runs.
package repro_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/apps"
	"repro/internal/exp"
	"repro/internal/isa"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/signal"
)

func benchOpts() exp.Options {
	return exp.Options{Duration: 2.5, ProbeDuration: 1.5, PathoFrac: 0.2, Seed: 1}
}

func benchSignal(b *testing.B, app string, opts exp.Options) *signal.Source {
	b.Helper()
	base := signal.Config{Kind: signal.KindECG, Seed: opts.Seed, PathologicalFrac: opts.PathoFrac}
	sig, err := signal.Synthesize(apps.SourceConfig(app, base), opts.Duration+2)
	if err != nil {
		b.Fatal(err)
	}
	return sig
}

// benchTableIApp measures one Table I column pair and reports the headline
// metrics.
func benchTableIApp(b *testing.B, app string) {
	opts := benchOpts()
	params := power.DefaultParams()
	ctx := context.Background()
	sig := benchSignal(b, app, opts)
	for i := 0; i < b.N; i++ {
		s := exp.NewSession(params)
		scOp, err := s.SolveOperatingPoint(ctx, app, power.SC, sig, opts)
		if err != nil {
			b.Fatal(err)
		}
		mcOp, err := s.SolveOperatingPoint(ctx, app, power.MC, sig, opts)
		if err != nil {
			b.Fatal(err)
		}
		sc, err := s.Measure(ctx, app, power.SC, scOp, sig, opts)
		if err != nil {
			b.Fatal(err)
		}
		mc, err := s.Measure(ctx, app, power.MC, mcOp, sig, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sc.Report.TotalUW, "SC-uW")
		b.ReportMetric(mc.Report.TotalUW, "MC-uW")
		b.ReportMetric(100*(1-mc.Report.TotalUW/sc.Report.TotalUW), "saving-%")
		b.ReportMetric(sc.Op.FreqHz/1e6, "SC-MHz")
		b.ReportMetric(mc.Op.FreqHz/1e6, "MC-MHz")
		b.ReportMetric(mc.Counters.IMBroadcastPct(), "IM-bcast-%")
		b.ReportMetric(mc.Counters.RuntimeOverheadPct(), "rt-ovh-%")
	}
}

// BenchmarkTableI_3LMF regenerates Table I's 3L-MF columns.
func BenchmarkTableI_3LMF(b *testing.B) { benchTableIApp(b, apps.MF3L) }

// BenchmarkTableI_3LMMD regenerates Table I's 3L-MMD columns.
func BenchmarkTableI_3LMMD(b *testing.B) { benchTableIApp(b, apps.MMD3L) }

// BenchmarkTableI_RPCLASS regenerates Table I's RP-CLASS columns.
func BenchmarkTableI_RPCLASS(b *testing.B) { benchTableIApp(b, apps.RPClass) }

// benchFig6App measures one benchmark's three Figure 6 bars.
func benchFig6App(b *testing.B, app string) {
	opts := benchOpts()
	params := power.DefaultParams()
	ctx := context.Background()
	sig := benchSignal(b, app, opts)
	for i := 0; i < b.N; i++ {
		s := exp.NewSession(params)
		scOp, err := s.SolveOperatingPoint(ctx, app, power.SC, sig, opts)
		if err != nil {
			b.Fatal(err)
		}
		mcOp, err := s.SolveOperatingPoint(ctx, app, power.MC, sig, opts)
		if err != nil {
			b.Fatal(err)
		}
		nsOp, err := s.SolveOperatingPoint(ctx, app, power.MCNoSync, sig, opts)
		if err != nil {
			b.Fatal(err)
		}
		sc, err := s.Measure(ctx, app, power.SC, scOp, sig, opts)
		if err != nil {
			b.Fatal(err)
		}
		ns, err := s.Measure(ctx, app, power.MCNoSync, nsOp, sig, opts)
		if err != nil {
			b.Fatal(err)
		}
		mc, err := s.Measure(ctx, app, power.MC, mcOp, sig, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(sc.Report.TotalUW, "SC-uW")
		b.ReportMetric(ns.Report.TotalUW, "MCnosync-uW")
		b.ReportMetric(mc.Report.TotalUW, "MC-uW")
		b.ReportMetric(100*mc.Report.TotalUW/sc.Report.TotalUW, "MC-vs-SC-%")
		b.ReportMetric(100*ns.Report.TotalUW/sc.Report.TotalUW, "nosync-vs-SC-%")
	}
}

// BenchmarkFigure6_3LMF regenerates Figure 6's 3L-MF group.
func BenchmarkFigure6_3LMF(b *testing.B) { benchFig6App(b, apps.MF3L) }

// BenchmarkFigure6_3LMMD regenerates Figure 6's 3L-MMD group.
func BenchmarkFigure6_3LMMD(b *testing.B) { benchFig6App(b, apps.MMD3L) }

// BenchmarkFigure6_RPCLASS regenerates Figure 6's RP-CLASS group.
func BenchmarkFigure6_RPCLASS(b *testing.B) { benchFig6App(b, apps.RPClass) }

// BenchmarkFigure7 regenerates the Figure 7 sweep endpoints and midpoint:
// the pathological-share positions that define the curve's shape.
func BenchmarkFigure7(b *testing.B) {
	params := power.DefaultParams()
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		s := exp.NewSession(params)
		for _, share := range []float64{0, 0.20, 1.00} {
			opts := benchOpts()
			opts.PathoFrac = share
			base := signal.Config{Kind: signal.KindECG, Seed: opts.Seed, PathologicalFrac: share}
			sig, err := signal.Synthesize(apps.SourceConfig(apps.RPClass, base), opts.Duration+2)
			if err != nil {
				b.Fatal(err)
			}
			scOp, err := s.SolveOperatingPoint(ctx, apps.RPClass, power.SC, sig, opts)
			if err != nil {
				b.Fatal(err)
			}
			mcOp, err := s.SolveOperatingPoint(ctx, apps.RPClass, power.MC, sig, opts)
			if err != nil {
				b.Fatal(err)
			}
			sc, err := s.Measure(ctx, apps.RPClass, power.SC, scOp, sig, opts)
			if err != nil {
				b.Fatal(err)
			}
			mc, err := s.Measure(ctx, apps.RPClass, power.MC, mcOp, sig, opts)
			if err != nil {
				b.Fatal(err)
			}
			red := 100 * (1 - mc.Report.TotalUW/sc.Report.TotalUW)
			switch share {
			case 0:
				b.ReportMetric(red, "reduction-0%%-patho")
			case 0.20:
				b.ReportMetric(red, "reduction-20%%-patho")
			case 1.00:
				b.ReportMetric(red, "reduction-100%%-patho")
			}
		}
	}
}

// BenchmarkAblationSyncISE quantifies the proposed ISE against active
// waiting at each variant's own feasible operating point: the gap is the
// combined value of clock gating and lock-step recovery.
func BenchmarkAblationSyncISE(b *testing.B) {
	opts := benchOpts()
	params := power.DefaultParams()
	ctx := context.Background()
	sig := benchSignal(b, apps.MF3L, opts)
	for i := 0; i < b.N; i++ {
		s := exp.NewSession(params)
		mcOp, err := s.SolveOperatingPoint(ctx, apps.MF3L, power.MC, sig, opts)
		if err != nil {
			b.Fatal(err)
		}
		nsOp, err := s.SolveOperatingPoint(ctx, apps.MF3L, power.MCNoSync, sig, opts)
		if err != nil {
			b.Fatal(err)
		}
		mc, err := s.Measure(ctx, apps.MF3L, power.MC, mcOp, sig, opts)
		if err != nil {
			b.Fatal(err)
		}
		ns, err := s.Measure(ctx, apps.MF3L, power.MCNoSync, nsOp, sig, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(ns.Report.TotalUW/mc.Report.TotalUW, "nosync-vs-sync-x")
		b.ReportMetric(nsOp.FreqHz/mcOp.FreqHz, "freq-penalty-x")
	}
}

// BenchmarkAblationVFS isolates the voltage-frequency-scaling contribution:
// the multi-core measured at its own frequency but the single-core voltage.
func BenchmarkAblationVFS(b *testing.B) {
	opts := benchOpts()
	params := power.DefaultParams()
	ctx := context.Background()
	sig := benchSignal(b, apps.MF3L, opts)
	for i := 0; i < b.N; i++ {
		s := exp.NewSession(params)
		mcOp, err := s.SolveOperatingPoint(ctx, apps.MF3L, power.MC, sig, opts)
		if err != nil {
			b.Fatal(err)
		}
		mc, err := s.Measure(ctx, apps.MF3L, power.MC, mcOp, sig, opts)
		if err != nil {
			b.Fatal(err)
		}
		noVFS := mcOp
		noVFS.VoltageV = 0.6 // the single-core operating voltage
		mcHighV, err := s.Measure(ctx, apps.MF3L, power.MC, noVFS, sig, opts)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(mc.Report.TotalUW, "MC-0.5V-uW")
		b.ReportMetric(mcHighV.Report.TotalUW, "MC-0.6V-uW")
		b.ReportMetric(100*(1-mc.Report.TotalUW/mcHighV.Report.TotalUW), "VFS-gain-%")
	}
}

// BenchmarkAblationBroadcast reports the instruction-memory energy saved by
// lock-step broadcasting: merged fetches never reach a bank.
func BenchmarkAblationBroadcast(b *testing.B) {
	opts := benchOpts()
	params := power.DefaultParams()
	ctx := context.Background()
	sig := benchSignal(b, apps.MF3L, opts)
	for i := 0; i < b.N; i++ {
		s := exp.NewSession(params)
		mcOp, err := s.SolveOperatingPoint(ctx, apps.MF3L, power.MC, sig, opts)
		if err != nil {
			b.Fatal(err)
		}
		mc, err := s.Measure(ctx, apps.MF3L, power.MC, mcOp, sig, opts)
		if err != nil {
			b.Fatal(err)
		}
		saved := float64(mc.Counters.IMReqs-mc.Counters.IMAccesses) * params.IMReadPJ *
			params.DynScale(mcOp.VoltageV) / mc.Report.DurationS * 1e-6
		b.ReportMetric(saved, "IM-saved-uW")
		b.ReportMetric(mc.Counters.IMBroadcastPct(), "IM-bcast-%")
	}
}

// BenchmarkSweepParallel measures the full Table I grid through the sweep
// engine at one worker versus all cores: the wall-clock ratio is the
// parallel speedup (the grid's six points are independent, so it should
// approach min(cores, 6) on idle machines). Each iteration builds a fresh
// engine so the signal cache is cold, matching a real CLI invocation;
// results are byte-identical across worker counts (see
// internal/exp/sweep_test.go).
func BenchmarkSweepParallel(b *testing.B) {
	opts := benchOpts()
	jobsList := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		jobsList = append(jobsList, n)
	}
	for _, jobs := range jobsList {
		b.Run(fmt.Sprintf("jobs=%d", jobs), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s := exp.NewSweep(jobs, power.DefaultParams())
				rows, err := s.TableI(context.Background(), opts)
				if err != nil {
					b.Fatal(err)
				}
				if len(rows) != len(apps.Names) {
					b.Fatalf("got %d rows", len(rows))
				}
			}
		})
	}
}

// BenchmarkIdleFastForward pits the exact cycle-by-cycle engine against the
// idle fast-forward engine on an idle-dominated run (multi-core RP-CLASS at
// a generous probe-class 16 MHz clock: the 250 Hz workload leaves ~97% of
// cycles fully gated, the regime exp's operating-point probes run in),
// tracking the speedup the event-driven leap delivers in the perf
// trajectory. Both modes produce bit-identical results (see
// internal/platform's golden-equivalence tests); only wall-clock differs.
func BenchmarkIdleFastForward(b *testing.B) {
	opts := benchOpts()
	sig := benchSignal(b, apps.RPClass, opts)
	v, err := apps.Build(apps.RPClass, power.MC)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, exact bool) float64 {
		b.Helper()
		total := uint64(0)
		for i := 0; i < b.N; i++ {
			p, err := v.NewPlatform(sig, 16e6, 1.0)
			if err != nil {
				b.Fatal(err)
			}
			p.SetExact(exact)
			if err := p.RunSeconds(1); err != nil {
				b.Fatal(err)
			}
			total += p.Cycle()
		}
		rate := float64(total) / b.Elapsed().Seconds()
		b.ReportMetric(rate, "cycles/s")
		return rate
	}
	var exactRate, fastRate float64
	b.Run("exact", func(b *testing.B) { exactRate = run(b, true) })
	b.Run("fast-forward", func(b *testing.B) { fastRate = run(b, false) })
	if exactRate > 0 && fastRate > 0 {
		b.Logf("fast-forward speedup: %.1fx", fastRate/exactRate)
	}
}

// BenchmarkSpinFastForward pits the exact cycle-by-cycle engine against the
// fast paths on the busy-wait baseline (3L-MMD on MC-nosync at a
// probe-class 16 MHz clock). Between samples the combiner and delineator
// cores poll shared counters, which defeats quiescence detection; strides
// park those pollers and, once every running core is parked, leap to the
// next sample, collapsing the column toward the MC column's wall-clock.
// Both modes produce bit-identical results
// (internal/platform/busywait_test.go and the scenario golden suite); only
// wall-clock differs. The name predates the stride leap and is kept so the
// BENCH_engine.json series continues.
func BenchmarkSpinFastForward(b *testing.B) {
	opts := benchOpts()
	sig := benchSignal(b, apps.MMD3L, opts)
	v, err := apps.Build(apps.MMD3L, power.MCNoSync)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, exact bool) float64 {
		b.Helper()
		total := uint64(0)
		for i := 0; i < b.N; i++ {
			p, err := v.NewPlatform(sig, 16e6, 1.0)
			if err != nil {
				b.Fatal(err)
			}
			p.SetExact(exact)
			if err := p.RunSeconds(1); err != nil {
				b.Fatal(err)
			}
			total += p.Cycle()
			if !exact && p.BlockMCLeaptCycles() == 0 {
				b.Fatal("no stride leapt with every poller parked on the busy-wait baseline")
			}
		}
		rate := float64(total) / b.Elapsed().Seconds()
		b.ReportMetric(rate, "cycles/s")
		return rate
	}
	var exactRate, fastRate float64
	b.Run("exact", func(b *testing.B) { exactRate = run(b, true) })
	b.Run("fast-forward", func(b *testing.B) { fastRate = run(b, false) })
	if exactRate > 0 && fastRate > 0 {
		b.Logf("busy-wait fast-path speedup: %.1fx", fastRate/exactRate)
	}
}

// blockKernelImage builds a fast-forward-resistant single-core compute
// kernel: a long unrolled ALU body with a store per iteration (side effects
// defeat the spin detector; the backward jump is far longer than any spin
// signature) and no sleep or ADC dependence (nothing for the idle engine).
// Every cycle is compute-bound, so the basic-block engine carries
// essentially the whole run.
func blockKernelImage() *platform.Image {
	enc := func(op isa.Opcode, rd, rs1, rs2 uint8, imm int32) isa.Word {
		return isa.MustEncode(isa.Instr{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2, Imm: imm})
	}
	w := []isa.Word{
		enc(isa.OpADDI, 4, 0, 0, 256), // data pointer
		enc(isa.OpADDI, 1, 0, 0, 1),
	}
	loop := int32(len(w))
	for i := 0; i < 10; i++ {
		w = append(w,
			enc(isa.OpADD, 2, 1, 1, 0),
			enc(isa.OpXOR, 3, 2, 1, 0),
			enc(isa.OpADDI, 1, 1, 0, 1),
			enc(isa.OpSRLI, 2, 3, 0, 1),
		)
	}
	w = append(w, enc(isa.OpSW, 0, 4, 3, 0))
	w = append(w, enc(isa.OpJAL, 0, 0, 0, loop-int32(len(w))-1))
	return &platform.Image{
		Code:    []platform.CodeSeg{{Base: 0, Words: w}},
		Entries: []int{0},
		Shared:  []platform.DataSeg{{Base: 256, Words: make([]uint16, 4)}},
	}
}

// BenchmarkBlockEngine pits the exact cycle-by-cycle engine against the
// predecoded basic-block engine on a compute-bound single-core kernel — the
// regime neither fast-forward engine can touch, where Step's per-cycle
// classify/fetch/arbitrate/execute dispatch used to be the simulator's floor.
// Both modes produce bit-identical results (internal/platform's block-engine
// differential and golden suites); only wall-clock differs. The data point
// recorded in BENCH_engine.json tracks this speedup across commits.
func BenchmarkBlockEngine(b *testing.B) {
	const cycles = 2_000_000
	run := func(b *testing.B, exact bool) float64 {
		b.Helper()
		total := uint64(0)
		for i := 0; i < b.N; i++ {
			p, err := platform.New(platform.Config{
				Arch: power.SC, ClockHz: 1e6, VoltageV: 0.6, Exact: exact,
			}, blockKernelImage())
			if err != nil {
				b.Fatal(err)
			}
			if err := p.Run(cycles); err != nil {
				b.Fatal(err)
			}
			total += p.Cycle()
			if !exact && p.BlockCycles() == 0 {
				b.Fatal("block engine never engaged on the compute-bound kernel")
			}
		}
		rate := float64(total) / b.Elapsed().Seconds()
		b.ReportMetric(rate, "cycles/s")
		return rate
	}
	var exactRate, blockRate float64
	b.Run("exact", func(b *testing.B) { exactRate = run(b, true) })
	b.Run("block", func(b *testing.B) { blockRate = run(b, false) })
	if exactRate > 0 && blockRate > 0 {
		b.Logf("block engine speedup: %.1fx", blockRate/exactRate)
	}
}

// blockKernelMCImage is the four-core lock-step variant of the compute
// kernel: the same unrolled ALU body on every core with the per-iteration
// store routed through the private data window, so the ATU spreads the four
// cores across distinct DM banks and every cycle stays conflict-free — the
// regime the multi-core stride engine is built for.
func blockKernelMCImage() *platform.Image {
	enc := func(op isa.Opcode, rd, rs1, rs2 uint8, imm int32) isa.Word {
		return isa.MustEncode(isa.Instr{Op: op, Rd: rd, Rs1: rs1, Rs2: rs2, Imm: imm})
	}
	w := []isa.Word{
		enc(isa.OpLUI, 4, 0, 0, 19), // r4 = 1216: private data pointer
		enc(isa.OpADDI, 1, 0, 0, 1),
	}
	loop := int32(len(w))
	for i := 0; i < 10; i++ {
		w = append(w,
			enc(isa.OpADD, 2, 1, 1, 0),
			enc(isa.OpXOR, 3, 2, 1, 0),
			enc(isa.OpADDI, 1, 1, 0, 1),
			enc(isa.OpSRLI, 2, 3, 0, 1),
		)
	}
	w = append(w, enc(isa.OpSW, 0, 4, 3, 0))
	w = append(w, enc(isa.OpJAL, 0, 0, 0, loop-int32(len(w))-1))
	return &platform.Image{
		Code:        []platform.CodeSeg{{Base: 0, Words: w}},
		Entries:     []int{0, 0, 0, 0},
		SharedLimit: 1024,
		Shared:      []platform.DataSeg{{Base: 256, Words: make([]uint16, 4)}},
	}
}

// BenchmarkMultiCoreBlockEngine pits the exact cycle-by-cycle engine against
// the multi-core lock-step stride engine on a compute-bound four-core kernel
// — the multi-core analogue of BenchmarkBlockEngine, where Step additionally
// pays per-cycle crossbar arbitration and synchronizer commits for every
// core. Both modes produce bit-identical results (the block-engine
// differential suites and the randomized cross-engine fuzzer in
// internal/platform); only wall-clock differs. The data point recorded in
// BENCH_engine.json tracks this speedup across commits.
func BenchmarkMultiCoreBlockEngine(b *testing.B) {
	const cycles = 2_000_000
	run := func(b *testing.B, exact bool) float64 {
		b.Helper()
		total := uint64(0)
		for i := 0; i < b.N; i++ {
			p, err := platform.New(platform.Config{
				Arch: power.MC, ClockHz: 1e6, VoltageV: 0.5, Exact: exact,
			}, blockKernelMCImage())
			if err != nil {
				b.Fatal(err)
			}
			if err := p.Run(cycles); err != nil {
				b.Fatal(err)
			}
			total += p.Cycle()
			if !exact && p.BlockMCCycles() == 0 {
				b.Fatal("multi-core stride engine never engaged on the lock-step kernel")
			}
		}
		rate := float64(total) / b.Elapsed().Seconds()
		b.ReportMetric(rate, "cycles/s")
		return rate
	}
	var exactRate, strideRate float64
	b.Run("exact", func(b *testing.B) { exactRate = run(b, true) })
	b.Run("mcstride", func(b *testing.B) { strideRate = run(b, false) })
	if exactRate > 0 && strideRate > 0 {
		b.Logf("multi-core stride speedup: %.1fx", strideRate/exactRate)
	}
}

// BenchmarkSimulatorThroughput measures raw simulation speed: platform
// cycles per wall second for the 8-core-class configuration.
func BenchmarkSimulatorThroughput(b *testing.B) {
	sig := benchSignal(b, apps.MF3L, benchOpts())
	v, err := apps.Build(apps.MF3L, power.MC)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	total := uint64(0)
	for i := 0; i < b.N; i++ {
		p, err := v.NewPlatform(sig, 2e6, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		if err := p.RunSeconds(1); err != nil {
			b.Fatal(err)
		}
		total += p.Cycle()
	}
	b.ReportMetric(float64(total)/b.Elapsed().Seconds(), "cycles/s")
}
