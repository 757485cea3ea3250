// Command wbsn-bench regenerates the paper's evaluation artifacts — Table I,
// Figure 6 and Figure 7 — and, with -scenario, solves and measures the
// operating-point grid of declarative scenario files (EMG, PPG, multi-rate
// mixes) through the same parallel sweep engine. All experiments share one
// Session: -store backs it with a content-addressed result store that every
// solved operating point, probe demand and measurement is written through
// to as it is produced (re-runs simulate nothing and print byte-identical
// results), and -format json
// emits the operating-point tables as one JSON object per grid point for
// tracking bench trajectories across commits.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/apps"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/scenario"
	"repro/internal/serve/store"
)

// bench bundles the run-wide state: the shared sweep engine (and through it
// the session), the output mode, and the JSON rows accumulated across
// experiments.
type bench struct {
	sweep    *exp.Sweep
	format   string
	jsonRows []exp.PointJSON

	// Observability surfaces: the registry is the uniform stderr stats
	// sink (and -metrics-out document); the sink additionally feeds the
	// -timeline-out event timeline when requested. Observation only —
	// solved points and measurements are bit-identical either way.
	reg         *obs.Registry
	sink        *obs.Sink
	timelineOut string
	metricsOut  string
}

// fail reports the error and exits. With -store, the cells finished so far
// are already on disk, so the next attempt does not redo them.
func (b *bench) fail(prefix string, err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", prefix, err)
	os.Exit(1)
}

// finish publishes the session's reuse and fast-forward work into the
// metrics registry, prints the registry as the uniform "stats" block on
// stderr (progress channel, so diff-based comparisons of stdout stay
// clean) unless -quiet, and writes the requested observability exports.
func (b *bench) finish(quiet bool) {
	b.sweep.Session.PublishMetrics(b.reg)
	if !quiet {
		if err := b.reg.WriteText(os.Stderr, "stats "); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}
	b.writeObsOutputs()
}

// writeObsOutputs writes the -timeline-out (Chrome trace-event JSON,
// Perfetto-loadable) and -metrics-out (stable registry JSON consumed by
// tools/benchjson) files when requested. Session stats must already be
// published (finish).
func (b *bench) writeObsOutputs() {
	if b.timelineOut != "" {
		f, err := os.Create(b.timelineOut)
		if err != nil {
			b.fail("timeline-out", err)
		}
		if err := obs.WriteChromeTrace(f, b.sink.Events()); err != nil {
			f.Close()
			b.fail("timeline-out", err)
		}
		if err := f.Close(); err != nil {
			b.fail("timeline-out", err)
		}
		if tl := b.sink.Timeline(); tl.Dropped() > 0 {
			fmt.Fprintf(os.Stderr, "timeline-out: the ring dropped the %d oldest events; -timeline-cap %d would hold the whole run\n", tl.Dropped(), uint64(tl.Len())+tl.Dropped())
		}
	}
	if b.metricsOut != "" {
		f, err := os.Create(b.metricsOut)
		if err != nil {
			b.fail("metrics-out", err)
		}
		if err := b.reg.WriteJSON(f); err != nil {
			f.Close()
			b.fail("metrics-out", err)
		}
		if err := f.Close(); err != nil {
			b.fail("metrics-out", err)
		}
	}
}

// emit routes one solved grid to the selected output: a rendered table now,
// or JSON rows flushed at the end of the run.
func (b *bench) emit(rows []exp.PointJSON, table func()) {
	if b.format == "json" {
		b.jsonRows = append(b.jsonRows, rows...)
		return
	}
	table()
}

func (b *bench) flushJSON() {
	if b.format != "json" {
		return
	}
	out, err := exp.MarshalPoints(b.jsonRows)
	if err != nil {
		b.fail("json", err)
	}
	os.Stdout.Write(out)
}

// runScenario solves and measures one scenario file's (app x arch) grid and
// prints its operating-point table. Results are collected by grid index, so
// the output is byte-identical for any -jobs value. applyFlags layers the
// explicitly-set command-line flags over the scenario's options.
func (b *bench) runScenario(ctx context.Context, path string, applyFlags func(*exp.Options)) error {
	scn, err := scenario.Load(path)
	if err != nil {
		return err
	}
	opts := scn.Options()
	applyFlags(&opts)
	points := scn.Points(opts)
	ms, err := b.sweep.Run(ctx, points)
	if err != nil {
		return err
	}
	b.emit(exp.JSONPoints("scenario", points, ms), func() {
		fmt.Printf("== scenario %s: %s @ %g Hz, %.1fs simulated ==\n",
			scn.Name, scn.Signal.Kind, scn.Signal.SampleRateHz, opts.Duration)
		if scn.Description != "" {
			fmt.Printf("   %s\n", scn.Description)
		}
		fmt.Print(exp.FormatPoints(points, ms))
		fmt.Println()
	})
	return nil
}

func main() {
	experiment := flag.String("experiment", "all", "table1, fig6, fig7 or all")
	scenarios := flag.String("scenario", "", "comma-separated scenario files; when set, only the scenario grids run")
	syncSpecs := flag.String("sync", "", "semicolon-separated sync-architecture descriptors (preset names or structural specs like 'multi,groups=0x0F+0x18,timeout=50000000'); when set, only that (app x descriptor) grid runs")
	appNames := flag.String("app", "", "comma-separated applications for the -sync grid (default: all)")
	duration := flag.Float64("duration", 10, "simulated seconds per measured run (paper: 60)")
	probe := flag.Float64("probe", 2.5, "simulated seconds per operating-point probe")
	patho := flag.Float64("pathological", 0.2, "RP-CLASS pathological-beat share for table1/fig6")
	seed := flag.Int64("seed", 1, "synthetic ECG seed")
	exact := flag.Bool("exact", false, "disable every fast path (idle fast-forward, block runs, strides); simulate every cycle (bit-identical results, slower)")
	jobs := flag.Int("jobs", runtime.NumCPU(), "parallel sweep workers (results are identical for any value; 1 = serial)")
	quiet := flag.Bool("quiet", false, "suppress per-point progress on stderr")
	format := flag.String("format", "table", "output format: table (rendered) or json (one object per grid point)")
	storeDir := flag.String("store", "", "content-addressed result store directory: solved points, probe demands and measurements are read from it and written through as they are produced; re-runs reuse them (bit-identical results)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the whole invocation to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	timelineOut := flag.String("timeline-out", "", "write the simulated-event timeline as Chrome trace-event JSON (load in Perfetto); observation only, results are bit-identical (with -exact it also records every cycle's core-state and sync-op events, so raise -timeline-cap)")
	metricsOut := flag.String("metrics-out", "", "write the metrics registry (counters and cycle histograms) as stable JSON")
	timelineCap := flag.Int("timeline-cap", obs.DefaultTimelineCap, "timeline ring capacity in events; oldest events are dropped beyond it")
	flag.Parse()
	if *format != "table" && *format != "json" {
		fmt.Fprintf(os.Stderr, "unknown -format %q (want table or json)\n", *format)
		os.Exit(1)
	}
	if *jobs < 1 {
		fmt.Fprintf(os.Stderr, "-jobs must be positive, got %d (it bounds the sweep worker pool; 1 = serial)\n", *jobs)
		os.Exit(1)
	}
	if *timelineCap < 1 {
		fmt.Fprintf(os.Stderr, "-timeline-cap must be positive, got %d (the timeline is a ring of that many events; omit -timeline-out to disable it)\n", *timelineCap)
		os.Exit(1)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{{"duration", *duration}, {"probe", *probe}} {
		if !(f.v > 0 && f.v <= math.MaxFloat64) {
			fmt.Fprintf(os.Stderr, "-%s must be a finite, positive number of seconds, got %v\n", f.name, f.v)
			os.Exit(1)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer writeHeapProfile(*memprofile)
	}

	// The registry always exists (it backs the uniform stderr stats block);
	// the timeline sink is built only when an export was requested, so the
	// default path keeps the engines' disabled-observer fast path.
	reg := obs.NewRegistry()
	var sink *obs.Sink
	if *timelineOut != "" || *metricsOut != "" {
		var tl *obs.Timeline
		if *timelineOut != "" {
			tl = obs.NewTimeline(*timelineCap)
		}
		sink = obs.NewSink(tl, reg)
	}

	opts := exp.Options{Duration: *duration, ProbeDuration: *probe, PathoFrac: *patho, Seed: *seed, Exact: *exact, Obs: sink}
	params := power.DefaultParams()
	ctx := context.Background()

	// One engine across all experiments: the session's memoized signal
	// cache, built images, probe runs and solved points are shared, so work
	// reused between Table I, Figure 6, Figure 7 and the scenario grids
	// happens once.
	b := &bench{sweep: exp.NewSweep(*jobs, params), format: *format,
		reg: reg, sink: sink, timelineOut: *timelineOut, metricsOut: *metricsOut}
	if !*quiet {
		b.sweep.Progress = exp.ProgressPrinter(os.Stderr)
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir)
		if err != nil {
			b.fail("store", err)
		}
		solves, demands, measures, err := st.Len()
		if err != nil {
			b.fail("store", err)
		}
		fmt.Fprintf(os.Stderr, "store: %s (%d solved points, %d probe demands, %d measurements)\n",
			st.Dir(), solves, demands, measures)
		b.sweep.Session.SetStore(st)
	}

	if *syncSpecs != "" && *scenarios != "" {
		fmt.Fprintln(os.Stderr, "-sync and -scenario both select the whole grid; pick one (scenario files can declare descriptors in their \"sync\" stanza instead)")
		os.Exit(1)
	}
	if *syncSpecs != "" {
		// Sync-architecture sweep: one grid of the chosen applications
		// against an explicit descriptor list. Descriptors are separated by
		// semicolons because structural specs contain commas.
		var archs []power.Arch
		for _, spec := range strings.Split(*syncSpecs, ";") {
			arch, err := power.ParseArchSpec(strings.TrimSpace(spec))
			if err != nil {
				b.fail("sync", err)
			}
			archs = append(archs, arch)
		}
		names := apps.Names
		if *appNames != "" {
			names = nil
			for _, n := range strings.Split(*appNames, ",") {
				names = append(names, strings.TrimSpace(n))
			}
		}
		points := exp.Grid(names, archs, opts)
		ms, err := b.sweep.Run(ctx, points)
		if err != nil {
			b.fail("sync", err)
		}
		b.emit(exp.JSONPoints("sync", points, ms), func() {
			fmt.Println("== sync-architecture sweep: solved operating points per descriptor ==")
			fmt.Print(exp.FormatPoints(points, ms))
			fmt.Println()
		})
		b.flushJSON()
		b.finish(*quiet)
		return
	}

	if *scenarios != "" {
		// Explicitly-set flags override the scenario files' values (the
		// same precedence wbsn-sim applies).
		set := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
		applyFlags := func(o *exp.Options) {
			o.Exact = *exact
			o.Obs = sink
			if set["duration"] {
				o.Duration = *duration
			}
			if set["probe"] {
				o.ProbeDuration = *probe
			}
			if set["pathological"] {
				o.PathoFrac = *patho
			}
			if set["seed"] {
				o.Seed = *seed
			}
		}
		for _, path := range strings.Split(*scenarios, ",") {
			if err := b.runScenario(ctx, strings.TrimSpace(path), applyFlags); err != nil {
				b.fail("scenario", err)
			}
		}
		b.flushJSON()
		b.finish(*quiet)
		return
	}

	run := func(name string, f func() error) {
		if *experiment != "all" && *experiment != name {
			return
		}
		if err := f(); err != nil {
			b.fail(name, err)
		}
	}
	run("table1", func() error {
		points := exp.TableIGrid(apps.Names, opts)
		ms, err := b.sweep.Run(ctx, points)
		if err != nil {
			return err
		}
		b.emit(exp.JSONPoints("table1", points, ms), func() {
			fmt.Println("== Table I: single-core (SC) vs multi-core (MC) executions ==")
			fmt.Print(exp.FormatTableI(exp.TableIRows(apps.Names, ms)))
			fmt.Println()
		})
		return nil
	})
	run("fig6", func() error {
		points := exp.Fig6Grid(opts)
		ms, err := b.sweep.Run(ctx, points)
		if err != nil {
			return err
		}
		b.emit(exp.JSONPoints("fig6", points, ms), func() {
			fmt.Println("== Figure 6: power decomposition (SC, MC no-sync, MC proposed) ==")
			fmt.Print(exp.FormatFigure6(exp.Fig6BarsOf(points, ms)))
			fmt.Println()
		})
		return nil
	})
	run("fig7", func() error {
		points := exp.Fig7Grid(opts)
		ms, err := b.sweep.Run(ctx, points)
		if err != nil {
			return err
		}
		b.emit(exp.JSONPoints("fig7", points, ms), func() {
			fmt.Println("== Figure 7: RP-CLASS power vs pathological-beat share ==")
			fmt.Print(exp.FormatFigure7(exp.Fig7PointsOf(ms)))
			fmt.Println()
		})
		return nil
	})
	b.flushJSON()
	b.finish(*quiet)
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
