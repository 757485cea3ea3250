package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/apps"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/scenario"
)

// cell is one grid point of a batch workload, labelled with the experiment
// its row belongs to (table1, fig6, fig7 or scenario), as wbsn-bench labels
// its JSON rows.
type cell struct {
	Experiment string
	Point      exp.Point
}

func (c cell) id() string { return c.Experiment + " " + c.Point.String() }

// paperGroups is Table I, Figure 6 and Figure 7 at the CLI's defaults, one
// group per experiment, in the order wbsn-bench -experiment all runs them.
func paperGroups(seed int64) [][]cell {
	opts := exp.DefaultOptions()
	opts.Seed = seed
	label := func(name string, pts []exp.Point) []cell {
		cells := make([]cell, len(pts))
		for i, p := range pts {
			cells[i] = cell{Experiment: name, Point: p}
		}
		return cells
	}
	return [][]cell{
		label("table1", exp.TableIGrid(apps.Names, opts)),
		label("fig6", exp.Fig6Grid(opts)),
		label("fig7", exp.Fig7Grid(opts)),
	}
}

// loadScenarios loads every *.json file of dir in lexical order.
func loadScenarios(dir string) ([]*scenario.Scenario, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no scenario files in %s", dir)
	}
	sort.Strings(paths)
	scns := make([]*scenario.Scenario, 0, len(paths))
	for _, p := range paths {
		s, err := scenario.Load(p)
		if err != nil {
			return nil, err
		}
		scns = append(scns, s)
	}
	return scns, nil
}

// scenarioGroups is every (app, arch) cell of every scenario at its declared
// durations, one group per file. The seed replaces the files' signal seed,
// as wbsn-bench -seed does.
func scenarioGroups(scns []*scenario.Scenario, seed int64) [][]cell {
	groups := make([][]cell, 0, len(scns))
	for _, s := range scns {
		opts := s.Options()
		opts.Seed = seed
		var g []cell
		for _, p := range s.Points(opts) {
			g = append(g, cell{Experiment: "scenario", Point: p})
		}
		groups = append(groups, g)
	}
	return groups
}

// cellResult is one cell's outcome.
type cellResult struct {
	cell cell
	row  exp.PointJSON
	err  error
}

// cellRunner runs groups of cells through one session the way exp.Sweep
// does: Options.Record, Session.SolveOperatingPoint, Session.Measure per
// cell, on a pool of workers taking cells in order, groups one after the
// other. Unlike Sweep.Run it keeps going past a failed cell, so one failure
// neither cancels nor hides the others, and it times every call.
type cellRunner struct {
	sweep   *exp.Sweep
	workers int
	exact   bool
	trace   *batchTrace // nil for untraced passes
}

func (d *cellRunner) run(groups [][]cell) []cellResult {
	var out []cellResult
	id := 0
	for _, g := range groups {
		res := make([]cellResult, len(g))
		for i, c := range g {
			res[i].cell = c
		}
		workers := min(d.workers, len(g))
		work := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := range work {
					d.runCell(w, id+i, &res[i])
				}
			}(w)
		}
		for i := range g {
			work <- i
		}
		close(work)
		wg.Wait()
		id += len(g)
		out = append(out, res...)
	}
	return out
}

func (d *cellRunner) runCell(worker, id int, r *cellResult) {
	ctx := context.Background()
	pt := r.cell.Point
	opts := pt.Opts
	opts.Cache = d.sweep.Cache
	opts.Exact = d.exact
	s := d.sweep.Session

	t0 := d.trace.now()
	sig, err := opts.Record(pt.App)
	t1 := d.trace.now()
	d.trace.span(id, "signal.record", "exp.cell", worker, t0, t1)
	var m *exp.Measurement
	if err == nil {
		var op exp.OperatingPoint
		err = d.trace.observe(worker, opts, func(o exp.Options) (err error) {
			op, err = s.SolveOperatingPoint(ctx, pt.App, pt.Arch, sig, o)
			return err
		})
		t2 := d.trace.now()
		d.trace.span(id, "exp.solve", "exp.cell", worker, t1, t2)
		if err == nil {
			err = d.trace.observe(worker, opts, func(o exp.Options) (err error) {
				m, err = s.Measure(ctx, pt.App, pt.Arch, op, sig, o)
				return err
			})
			d.trace.span(id, "exp.measure", "exp.cell", worker, t2, d.trace.now())
		}
	}
	d.trace.span(id, "exp.cell", "", worker, t0, d.trace.now())
	if err != nil {
		r.err = err
		return
	}
	r.row = exp.JSONPoints(r.cell.Experiment, []exp.Point{pt}, []*exp.Measurement{m})[0]
}

// batchTrace is the traced pass's instrumentation: spans around every call
// and, per worker, an obs timeline the solve and measure calls emit into.
// Each call gets a fresh registry over its worker's timeline, drained when
// the call returns, so every phase span and engine histogram is tallied
// exactly once. All methods are no-ops on a nil receiver.
type batchTrace struct {
	tr    *tracer
	lanes []*obs.Timeline

	mu    sync.Mutex
	tally cycleTally
	err   error
}

// laneCap holds every event one solve or measure call of the bundled
// workloads emits (the largest is about 1.5e5); an overflow is reported,
// never silently dropped.
const laneCap = 1 << 18

func newBatchTrace(workers int) *batchTrace {
	bt := &batchTrace{tr: newTracer()}
	for w := 0; w < workers; w++ {
		bt.lanes = append(bt.lanes, obs.NewTimeline(laneCap))
	}
	return bt
}

func (bt *batchTrace) now() time.Duration {
	if bt == nil {
		return 0
	}
	return bt.tr.now()
}

func (bt *batchTrace) span(id int, name, parent string, lane int, start, end time.Duration) {
	if bt == nil {
		return
	}
	bt.tr.add(span{ID: id, Name: name, Parent: parent, Lane: lane, Start: start, End: end})
}

// observe runs call with opts, attaching the worker's sink when traced.
func (bt *batchTrace) observe(worker int, opts exp.Options, call func(exp.Options) error) error {
	if bt == nil {
		return call(opts)
	}
	tl := bt.lanes[worker]
	reg := obs.NewRegistry()
	opts.Obs = obs.NewSink(tl, reg)
	err := call(opts)
	evs := opts.Obs.Events()
	dropped := tl.Dropped()
	tl.Reset()
	bt.mu.Lock()
	defer bt.mu.Unlock()
	if dropped > 0 && bt.err == nil {
		bt.err = fmt.Errorf("timeline lane overflowed: %d events dropped (raise laneCap)", dropped)
	}
	bt.tally.addEvents(evs)
	bt.tally.addRegistry(reg)
	return err
}

// batchWorkload is the paper or scenarios workload.
type batchWorkload struct {
	name     string
	seed     int64
	workers  int
	traceOut string // span file of the traced pass
}

// setupReps is how many times one setup sample repeats the construction:
// batch setup takes microseconds, too little to time once, and the reps of
// one sample allocate too little (under 2 MB) to start a collection.
func (w *batchWorkload) setupReps() int {
	if w.name == "paper" {
		return 100
	}
	return 20
}

// build constructs what a pass needs before its first cell can run: the
// sweep (session and signal cache) and, for scenarios, the loaded files.
func (w *batchWorkload) build() (*exp.Sweep, [][]cell, error) {
	sw := exp.NewSweep(w.workers, power.DefaultParams())
	if w.name == "paper" {
		return sw, paperGroups(w.seed), nil
	}
	scns, err := loadScenarios(scenarioDir)
	if err != nil {
		return nil, nil, err
	}
	return sw, scenarioGroups(scns, w.seed), nil
}

// pass runs the workload once on a cold session.
func (w *batchWorkload) pass(traced bool) (*passResult, error) {
	pr := newPassResult()
	var sw *exp.Sweep
	var groups [][]cell
	var err error
	pr.setup, err = sampleSetup(w.setupReps(), func(int) (err error) {
		sw, groups, err = w.build()
		return err
	})
	if err != nil {
		return nil, err
	}

	d := &cellRunner{sweep: sw, workers: w.workers}
	if traced {
		d.trace = newBatchTrace(w.workers)
	}
	start := time.Now()
	results := d.run(groups)
	pr.wall = time.Since(start).Seconds()

	check, err := newChecker(pr, w.name, w.seed)
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		pr.attempted++
		if r.err != nil {
			pr.output(r.cell.id(), nil, r.err)
			pr.fail(r.cell.id(), r.err)
			continue
		}
		row, err := json.Marshal(r.row)
		pr.output(r.cell.id(), row, err)
		check.row(r.cell.id(), r.cell.id(), r.row)
	}
	check.finish()
	pr.accuracy = accuracyLines(check.defaultECG)
	if traced {
		if err := w.layers(pr, d); err != nil {
			return nil, err
		}
	}
	return pr, nil
}

// layers fills the traced pass's per-layer metrics.
func (w *batchWorkload) layers(pr *passResult, d *cellRunner) error {
	bt := d.trace
	if bt.err != nil {
		return bt.err
	}
	st := d.sweep.Session.Stats()
	if err := bt.tally.crossCheck(st); err != nil {
		return err
	}
	var record, solve, measure, cellMax, cellSum time.Duration
	for _, s := range bt.tr.spans {
		switch s.Name {
		case "signal.record":
			record += s.dur()
		case "exp.solve":
			solve += s.dur()
		case "exp.measure":
			measure += s.dur()
		case "exp.cell":
			cellSum += s.dur()
			cellMax = max(cellMax, s.dur())
		}
	}
	l := pr.layer
	if err := bt.tally.publish(l, solve+measure); err != nil {
		return err
	}
	publishSession(l, st)
	req, syn := d.sweep.Cache.Stats()
	l.count("signal.synths", syn)
	l.frac("signal.cache_hit_frac", float64(req-syn), float64(req))
	l.seconds("signal.record_s", record)
	l.seconds("exp.solve_s", solve)
	l.seconds("exp.measure_s", measure)
	l.seconds("exp.cell_s.max", cellMax)
	l.frac("exp.sweep_busy_frac", cellSum.Seconds(), float64(w.workers)*pr.wall)
	return bt.tr.write(w.traceOut)
}

// publishSession records the session's own counters (exp layer).
func publishSession(l layerMetrics, st exp.SessionStats) {
	l.count("exp.probe_runs", st.ProbeRuns)
	l.count("exp.demand_hits", st.DemandHits)
	l.count("exp.early_aborts", st.EarlyAborts)
	l.count("exp.forks", st.Forks)
	l.count("exp.solve_hits", st.SolveHits)
	l.count("exp.warm_measures", st.WarmMeasures)
	l.count("exp.builds", st.Builds)
}

// pin runs every cell of the workload in exact mode and writes the rows
// (or errors) as the workload's reference file.
func (w *batchWorkload) pin(path string) error {
	sw, groups, err := w.build()
	if err != nil {
		return err
	}
	d := &cellRunner{sweep: sw, workers: w.workers, exact: true}
	var refs []refCell
	for _, r := range d.run(groups) {
		rc := refCell{Cell: r.cell.id()}
		if r.err != nil {
			rc.Error = r.err.Error()
		} else if rc.Row, err = json.Marshal(r.row); err != nil {
			return err
		}
		refs = append(refs, rc)
	}
	return writeRefs(path, refs)
}

// removeAll removes a scratch directory the benchmark made, reporting
// failures without failing the run.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
	}
}
