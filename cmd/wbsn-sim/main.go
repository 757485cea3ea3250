// Command wbsn-sim runs one benchmark application on one architecture
// variant and prints the execution metrics, optionally dumping the mapping
// (code placement and data layout, paper Fig. 4). With -sweep it instead
// compares the application across all three architectures at their solved
// operating points, fanning the per-architecture solves out across the
// parallel sweep engine. With -scenario the input signal (kind, rates,
// per-channel divisors, seed, pathological share) and the default
// application and duration come from a declarative scenario file instead of
// the ECG flags. With -checkpoint the platform state is dumped at the end of
// the run and a later invocation with the same configuration resumes it,
// continuing the simulation exactly where it stopped. With -trace-window a
// window of cycles runs exactly and the timeline records each core's state
// changes and sync instructions in it.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"

	"repro/internal/apps"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/scenario"
	"repro/internal/signal"
)

// Distinct exit statuses for CI smoke tests: a run that ended with the sync
// unit's timeout IRQ fired, or wedged in a detected deadlock, must be
// distinguishable both from success and from generic failures (exit 1).
const (
	exitSyncTimeout = 3 // the sync unit's per-core timeout fired during the run
	exitDeadlock    = 4 // the run ended with gated cores and no wake source
)

// checkpointMeta assembles the identity a single-run checkpoint must match
// to be resumed: the snapshot alone cannot prove it belongs to this program
// image and input record, so the full configuration is recorded beside it
// and compared field by field on resume.
func checkpointMeta(app string, arch power.Arch, clockHz, voltageV float64, exact bool, sig *signal.Source) map[string]string {
	meta := map[string]string{
		"app":       app,
		"arch":      arch.String(),
		"clock_hz":  fmt.Sprintf("%v", clockHz),
		"voltage_v": fmt.Sprintf("%v", voltageV),
		"exact":     fmt.Sprintf("%v", exact),
		"signal":    fmt.Sprintf("%+v", sig.Cfg),
	}
	for ch := 0; ch < signal.MaxChannels; ch++ {
		// Trace lengths pin the synthesized duration: a record of a
		// different length wraps differently, so resuming under it would
		// silently diverge from an uninterrupted run.
		meta[fmt.Sprintf("trace_len%d", ch)] = fmt.Sprintf("%d", len(sig.Traces[ch]))
	}
	return meta
}

// resumeCheckpoint loads path (if present) and restores it onto p after
// validating that every metadata field matches the current invocation.
func resumeCheckpoint(path string, meta map[string]string, p *platform.Platform) (resumed bool, err error) {
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	defer f.Close()
	file, err := platform.ReadSnapshotFile(f)
	if err != nil {
		return false, err
	}
	for k, want := range meta {
		if got := file.Meta[k]; got != want {
			return false, fmt.Errorf("checkpoint %s was taken under %s=%s, this invocation has %s=%s; rerun with matching flags or remove the file",
				path, k, got, k, want)
		}
	}
	if err := p.Restore(file.Snap); err != nil {
		return false, err
	}
	return true, nil
}

// writeCheckpoint dumps the platform state atomically.
func writeCheckpoint(path string, meta map[string]string, p *platform.Platform) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := platform.WriteSnapshotFile(tmp, &platform.SnapshotFile{Meta: meta, Snap: p.Snapshot()}); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

func main() {
	app := flag.String("app", apps.MF3L, "application: 3l-mf, 3l-mmd, rp-class")
	archName := flag.String("arch", "mc", "architecture preset: sc, mc, mc-nosync (or any registered descriptor name)")
	syncSpec := flag.String("sync", "", "sync-architecture descriptor overriding -arch: a registered name (e.g. from a scenario \"sync\" stanza) or a structural spec like 'multi,groups=0x0F+0x18,timeout=50000000'")
	clock := flag.Float64("clock-mhz", 1.0, "platform clock in MHz")
	voltage := flag.Float64("voltage", 0.5, "supply voltage in V")
	duration := flag.Float64("duration", 5, "simulated seconds")
	patho := flag.Float64("pathological", 0.2, "pathological-event share (rp-class)")
	seed := flag.Int64("seed", 1, "synthetic record seed")
	scenarioPath := flag.String("scenario", "", "scenario file providing the signal configuration (and default app/duration)")
	dumpMapping := flag.Bool("dump-mapping", false, "print code/data placement and exit")
	traceWindow := flag.String("trace-window", "", "START:LEN: step the LEN cycles stamped START to START+LEN-1 exactly and record each core's state changes and sync instructions in them on the -timeline-out timeline; the rest of the run keeps every fast path (results are bit-identical)")
	exact := flag.Bool("exact", false, "disable every fast path (idle fast-forward, block runs, strides); simulate every cycle (bit-identical results, slower)")
	sweepArchs := flag.Bool("sweep", false, "solve and measure the app on sc, mc-nosync and mc (ignores -arch/-clock-mhz/-voltage; incompatible with -trace-window/-dump-mapping/-checkpoint)")
	probe := flag.Float64("probe", 2.5, "simulated seconds per operating-point probe (-sweep)")
	jobs := flag.Int("jobs", runtime.NumCPU(), "parallel sweep workers (-sweep; results are identical for any value)")
	checkpoint := flag.String("checkpoint", "", "checkpoint file: resume the simulation from it when present (same flags required) and rewrite it after -duration more seconds")
	record := flag.Float64("record", 0, "synthesized record length in seconds (0 = -duration+2); generators are not prefix-stable across lengths, so checkpointed runs and any run they should be compared against must pin the same -record")
	timelineOut := flag.String("timeline-out", "", "write the run's event timeline as Chrome trace-event JSON (loads in Perfetto / chrome://tracing); observation only — results are bit-identical and all fast paths stay engaged; exact cycles (-exact, -trace-window) also record core-state and sync-op events")
	metricsOut := flag.String("metrics-out", "", "write the run's metrics registry (counters + histograms) as stable JSON to this file")
	timelineCap := flag.Int("timeline-cap", obs.DefaultTimelineCap, "timeline ring capacity in events; the oldest events drop beyond it")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole invocation to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	if *jobs < 1 {
		fatal(fmt.Errorf("-jobs must be positive, got %d (it bounds the -sweep worker pool; 1 = serial)", *jobs))
	}
	if *timelineCap < 1 {
		fatal(fmt.Errorf("-timeline-cap must be positive, got %d (the timeline is a ring of that many events; omit -timeline-out to disable it)", *timelineCap))
	}
	winStart, winLen, err := parseTraceWindow(*traceWindow)
	if err != nil {
		fatal(err)
	}
	if winLen > 0 && *timelineOut == "" {
		fatal(fmt.Errorf("-trace-window records its events on the timeline; add -timeline-out FILE (and a -timeline-cap large enough for the window)"))
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer writeHeapProfile(*memprofile)
	}

	// Explicitly-set flags override the scenario file's values.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	base := signal.Config{Kind: signal.KindECG, Seed: *seed, PathologicalFrac: *patho}
	scenarioName := ""
	if *scenarioPath != "" {
		scn, err := scenario.Load(*scenarioPath)
		if err != nil {
			fatal(err)
		}
		base = scn.Signal
		scenarioName = scn.Name
		if set["seed"] {
			base.Seed = *seed
		}
		if set["pathological"] {
			base.PathologicalFrac = *patho
		}
		if !set["app"] {
			*app = scn.Apps[0]
		}
		if !set["duration"] {
			*duration = scn.DurationS
		}
		if !set["probe"] {
			*probe = scn.ProbeS
		}
	}
	if !(*duration >= 0 && *duration <= math.MaxFloat64) {
		fatal(fmt.Errorf("-duration must be a finite, non-negative number of seconds, got %v", *duration))
	}
	if *record != 0 && !(*record > 0 && *record <= math.MaxFloat64) {
		fatal(fmt.Errorf("-record must be 0 (-duration+2) or a finite, positive number of seconds, got %v", *record))
	}

	// The metrics registry always exists — it is the uniform stderr stats
	// surface replacing the old ad-hoc stdout stats lines — while the
	// timeline ring is only allocated when it will be exported. Attaching
	// the sink never changes simulated results (see docs/OBSERVABILITY.md).
	reg := obs.NewRegistry()
	var sink *obs.Sink
	if *timelineOut != "" || *metricsOut != "" {
		var tl *obs.Timeline
		if *timelineOut != "" {
			tl = obs.NewTimeline(*timelineCap)
		}
		sink = obs.NewSink(tl, reg)
	}

	if *sweepArchs {
		if *dumpMapping || winLen > 0 || *checkpoint != "" {
			fatal(fmt.Errorf("-sweep compares solved operating points and is incompatible with -dump-mapping, -trace-window and -checkpoint; run those against one -arch (wbsn-bench -store persists solved operating points)"))
		}
		runSweep(*app, exp.Options{
			Duration: *duration, ProbeDuration: *probe,
			PathoFrac: base.PathologicalFrac, Seed: base.Seed,
			Source: base, Scenario: scenarioName, Exact: *exact,
			Obs: sink,
		}, *jobs, reg)
		writeObsOutputs(sink, reg, *timelineOut, *metricsOut)
		return
	}

	// -sync takes precedence over -arch; both resolve through the registry,
	// so scenario-registered custom descriptors work in either flag.
	spec := *archName
	if *syncSpec != "" {
		spec = *syncSpec
	}
	arch, err := power.ParseArchSpec(spec)
	if err != nil {
		fatal(err)
	}
	v, err := apps.Build(*app, arch)
	if err != nil {
		fatal(err)
	}
	if *dumpMapping {
		fmt.Printf("application %s on %s: %d cores\n\ncode placement (IM word addresses):\n", *app, arch, v.Cores)
		names := make([]string, 0, len(v.Res.CodePlacement))
		for n := range v.Res.CodePlacement {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			base := v.Res.CodePlacement[n]
			fmt.Printf("  %-18s bank %d @ %#06x\n", n, base/4096, base)
		}
		fmt.Println("\ndata placement (DM word addresses):")
		names = names[:0]
		for n := range v.Res.DataPlacement {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Printf("  %-18s @ %#06x\n", n, v.Res.DataPlacement[n])
		}
		return
	}

	recordS := *record
	if recordS == 0 {
		recordS = *duration + 2
	}
	sig, err := signal.Synthesize(base, recordS)
	if err != nil {
		fatal(err)
	}
	p, err := v.NewPlatform(sig, *clock*1e6, *voltage)
	if err != nil {
		fatal(err)
	}
	p.SetExact(*exact)
	var meta map[string]string
	startCycle := uint64(0)
	if *checkpoint != "" {
		meta = checkpointMeta(*app, arch, *clock*1e6, *voltage, *exact, sig)
		resumed, err := resumeCheckpoint(*checkpoint, meta, p)
		if err != nil {
			fatal(err)
		}
		if resumed {
			startCycle = p.Cycle()
			fmt.Fprintf(os.Stderr, "checkpoint: resumed %s at cycle %d (%.2fs simulated)\n",
				*checkpoint, p.Cycle(), float64(p.Cycle())/(*clock*1e6))
		}
	}
	if sink != nil {
		p.SetObserver(sink)
	}
	if winLen > 0 {
		err = runWindowed(p, p.Cycle()+p.CyclesFor(*duration), winStart, winLen)
	} else {
		err = p.RunSeconds(*duration)
	}
	if err != nil {
		fatal(err)
	}
	if *checkpoint != "" {
		if err := writeCheckpoint(*checkpoint, meta, p); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "checkpoint: wrote %s at cycle %d\n", *checkpoint, p.Cycle())
	}
	c := p.Counters()
	label := *app
	if scenarioName != "" {
		label = scenarioName + ":" + label
	}
	// Simulated time is derived from the cycle count, so a resumed run
	// reports its cumulative duration (identical output to one
	// uninterrupted run of the total length).
	fmt.Printf("%s on %s at %.2f MHz / %.2f V for %.1fs simulated (%s @ %g Hz)\n",
		label, arch, *clock, *voltage, float64(p.Cycle())/(*clock*1e6), sig.Kind(), sig.BaseRateHz())
	fmt.Printf("  cycles %d, instructions %d, ADC samples %d, overruns %d\n", c.Cycles, c.Instrs, c.ADCSamples, p.Overruns())
	fmt.Printf("  IM broadcast %.2f%%, DM broadcast %.2f%%, run-time overhead %.2f%%\n",
		c.IMBroadcastPct(), c.DMBroadcastPct(), c.RuntimeOverheadPct())
	fmt.Printf("  code overhead %.2f%%, active IM banks %d, active DM banks %d\n",
		v.Res.Image.CodeOverheadPct(), p.ActiveIMBanks(), p.ActiveDMBanks())
	// Engine diagnostics (idle/block/stride fast-path work) now flow through
	// the metrics registry and print uniformly on stderr below — stdout
	// carries only simulated results, so runs can be byte-compared without
	// stripping stats lines. Every engine odometer resets on a checkpoint
	// restore and therefore describes this invocation's segment, published
	// alongside its cycle count.
	p.PublishMetrics(reg)
	reg.Add("sim.segment_cycles", p.Cycle()-startCycle)
	rep, err := p.PowerReport(power.DefaultParams())
	if err != nil {
		fatal(err)
	}
	fmt.Printf("  avg power %.1f uW (dynamic %.1f, leakage %.1f)\n", rep.TotalUW, rep.TotalDynamicUW, rep.TotalLeakUW)
	for comp := power.Component(0); comp < power.NumComponents; comp++ {
		fmt.Printf("    %-14s %6.1f uW\n", comp, rep.ComponentUW(comp))
	}
	if errs := p.ErrCodes(); len(errs) > 0 {
		fmt.Printf("  application errors: %d (first %#x)\n", len(errs), errs[0].Value)
	}
	if viol := p.Violations(); len(viol) > 0 {
		fmt.Printf("  sync violations: %v\n", viol)
	}
	if c.SyncTimeouts > 0 {
		fmt.Printf("  sync timeouts: %d\n", c.SyncTimeouts)
	}
	if err := reg.WriteText(os.Stderr, "stats "); err != nil {
		fatal(err)
	}
	writeObsOutputs(sink, reg, *timelineOut, *metricsOut)
	// The full report has printed; now degrade the exit status if the run
	// ended badly. Deadlock wins over timeout: a descriptor whose timeout
	// fired but recovered kept making progress, a wedged platform did not.
	if diag := p.DeadlockDiagnosis(); diag != "" {
		fmt.Fprintf(os.Stderr, "wbsn-sim: %s\n", diag)
		os.Exit(exitDeadlock)
	}
	if c.SyncTimeouts > 0 {
		fmt.Fprintf(os.Stderr, "wbsn-sim: %d sync timeout(s) fired and recovered via IRQ; raise the descriptor's timeout_cycles or fix the rendezvous\n",
			c.SyncTimeouts)
		os.Exit(exitSyncTimeout)
	}
}

// parseTraceWindow parses -trace-window's START:LEN (empty = no window).
func parseTraceWindow(spec string) (start, n uint64, err error) {
	if spec == "" {
		return 0, 0, nil
	}
	a, b, ok := strings.Cut(spec, ":")
	start, err1 := strconv.ParseUint(a, 10, 64)
	n, err2 := strconv.ParseUint(b, 10, 64)
	if !ok || err1 != nil || err2 != nil || n == 0 || start+n < start {
		return 0, 0, fmt.Errorf("-trace-window wants START:LEN in cycles with LEN > 0, got %q", spec)
	}
	return start, n, nil
}

// runWindowed runs p up to cycle end like one Run call, stepping the n
// cycles stamped start to start+n-1 in exact mode (so an attached sink
// records their core-state and sync-op events) and the rest in the
// platform's own mode; neither chunking nor exactness changes results. It
// stops after the segment in which every core halted, because a Run call
// on a halted platform steps one more cycle.
func runWindowed(p *platform.Platform, end, start, n uint64) error {
	from := start - min(start, 1) // the Step from cycle c is stamped c+1
	for _, seg := range [...]struct {
		until uint64
		exact bool
	}{{from, p.Exact()}, {start + n - 1, true}, {end, p.Exact()}} {
		if until := min(seg.until, end); until > p.Cycle() {
			p.SetExact(seg.exact)
			if err := p.Run(until - p.Cycle()); err != nil || p.AllHalted() {
				return err
			}
		}
	}
	return nil
}

// runSweep solves and measures one application on every architecture variant
// (exp.Fig6Archs: SC first, so the "vs SC" column normalizes against ms[0])
// through the parallel sweep engine and prints the comparison.
func runSweep(app string, opts exp.Options, jobs int, reg *obs.Registry) {
	s := exp.NewSweep(jobs, power.DefaultParams())
	s.Progress = exp.ProgressPrinter(os.Stderr)
	points := make([]exp.Point, 0, len(exp.Fig6Archs))
	for _, arch := range exp.Fig6Archs {
		points = append(points, exp.Point{App: app, Arch: arch, Opts: opts})
	}
	ms, err := s.Run(context.Background(), points)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s for %.1fs simulated, operating points solved per architecture\n\n", app, opts.Duration)
	fmt.Printf("%-10s %8s %8s %9s %10s %10s %8s\n",
		"arch", "MHz", "V", "cores", "power uW", "dyn uW", "vs SC")
	scUW := ms[0].Report.TotalUW
	for i, m := range ms {
		fmt.Printf("%-10s %8.2f %8.2f %9d %10.1f %10.1f %7.1f%%\n",
			points[i].Arch, m.Op.FreqHz/1e6, m.Op.VoltageV, m.Cores,
			m.Report.TotalUW, m.Report.TotalDynamicUW, 100*m.Report.TotalUW/scUW)
	}
	s.Session.PublishMetrics(reg)
	if err := reg.WriteText(os.Stderr, "stats "); err != nil {
		fatal(err)
	}
}

// writeObsOutputs writes the -timeline-out and -metrics-out files (each
// only when requested). The timeline export is the Chrome trace-event
// JSON form loadable in Perfetto; the metrics export is the registry's
// stable JSON document consumed by tools/benchjson.
func writeObsOutputs(sink *obs.Sink, reg *obs.Registry, timelinePath, metricsPath string) {
	if timelinePath != "" {
		f, err := os.Create(timelinePath)
		if err != nil {
			fatal(err)
		}
		if err := obs.WriteChromeTrace(f, sink.Events()); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		if tl := sink.Timeline(); tl.Dropped() > 0 {
			fmt.Fprintf(os.Stderr, "timeline-out: the ring dropped the %d oldest events; -timeline-cap %d would hold the whole run\n", tl.Dropped(), uint64(tl.Len())+tl.Dropped())
		}
	}
	if metricsPath != "" {
		f, err := os.Create(metricsPath)
		if err != nil {
			fatal(err)
		}
		if err := reg.WriteJSON(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
}

// writeHeapProfile snapshots the heap after a final GC, so the profile shows
// retained memory rather than garbage awaiting collection.
func writeHeapProfile(path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
