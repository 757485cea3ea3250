package exp

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"

	"repro/internal/apps"
	"repro/internal/power"
	"repro/internal/signal"
)

// Point is one cell of an experiment grid: an application on an
// architecture, with the options the point is solved and measured under
// (Opts carries per-point parameters, notably PathoFrac for the Figure 7
// sweep).
type Point struct {
	App  string
	Arch power.Arch
	Opts Options
}

// String labels the point in progress and error output. RP-CLASS carries
// its pathological-event share (Figure 7's grid holds otherwise
// identically-named points at seven shares) and scenario-derived points
// their scenario name.
func (p Point) String() string {
	label := fmt.Sprintf("%s/%v", p.App, p.Arch)
	if p.Opts.Scenario != "" {
		label = p.Opts.Scenario + ":" + label
	}
	if p.App == apps.RPClass {
		return fmt.Sprintf("%s (patho %g%%)", label, p.Opts.PathoFrac*100)
	}
	return label
}

// Sweep fans an experiment grid out across a bounded worker pool. Every
// (app, arch) point of the paper's evaluation is an independent solve —
// operating-point search followed by a measured run on a private platform —
// so the grid is embarrassingly parallel; only the synthesized input records
// are shared, through the memoized Cache.
//
// Results are deterministic: they are collected by point index, never by
// completion order, and every per-point computation is a pure function of
// the point, so a sweep at Jobs=N is byte-identical to a serial one.
type Sweep struct {
	// Jobs bounds the worker pool; values < 1 mean runtime.NumCPU().
	Jobs int
	// Params calibrates the power reports.
	Params *power.Params
	// Session is the solve/measure engine every point runs through. The
	// whole worker pool shares it, so built images, probe runs, solved
	// points and probe-boundary snapshots are amortized across the grid —
	// and, via the session's PointStore, across process invocations. NewSweep
	// installs one; sharing a session across sweeps is allowed and safe
	// (wbsn-bench shares one across its three experiments).
	Session *Session
	// Cache memoizes signal synthesis across points; NewSweep aliases it to
	// the session's cache so records and solves key identically.
	Cache *signal.Cache
	// Progress, when non-nil, is invoked after each completed point with
	// the number of points done so far and the grid size. Calls are
	// serialized; the callback must not block for long.
	Progress func(done, total int, p Point)
}

// NewSweep returns a sweep engine running up to jobs points concurrently
// (jobs < 1 selects runtime.NumCPU()).
func NewSweep(jobs int, params *power.Params) *Sweep {
	s := NewSession(params)
	return &Sweep{Jobs: jobs, Params: params, Session: s, Cache: s.Cache()}
}

// ProgressPrinter returns a Progress callback logging each completed point
// to w, shared by the CLIs.
func ProgressPrinter(w io.Writer) func(done, total int, p Point) {
	return func(done, total int, p Point) {
		fmt.Fprintf(w, "  [%d/%d] %s solved and measured\n", done, total, p)
	}
}

// Run solves and measures every point of the grid, returning measurements
// in point order. The first point failure cancels the remaining work; the
// lowest-indexed point that recorded a real (non-cancellation) failure is
// the one reported, so cancellation noise on later points never masks the
// cause.
//
// A Sweep parallelizes within one Run; concurrent Run calls on the same
// Sweep are not supported (the lazy Cache initialization and Progress
// serialization are per call). Sequential reuse — as wbsn-bench does across
// its three experiments — shares the cache and is the intended pattern.
func (s *Sweep) Run(ctx context.Context, points []Point) ([]*Measurement, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	if s.Session == nil {
		s.Session = NewSession(s.Params)
	}
	// Params is the documented calibration knob; a caller assigning it
	// after NewSweep must still see it applied to the reports.
	s.Session.SetParams(s.Params)
	if s.Cache == nil {
		s.Cache = s.Session.Cache()
	}
	jobs := s.Jobs
	if jobs < 1 {
		jobs = runtime.NumCPU()
	}
	if jobs > len(points) {
		jobs = len(points)
	}
	if jobs < 1 {
		jobs = 1
	}
	results := make([]*Measurement, len(points))
	errs := make([]error, len(points))
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		done int
	)
	work := make(chan int)
	for w := 0; w < jobs; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				if errs[i] = ctx.Err(); errs[i] != nil {
					continue
				}
				results[i], errs[i] = s.point(ctx, points[i])
				if errs[i] != nil {
					cancel()
					continue
				}
				if s.Progress != nil {
					mu.Lock()
					done++
					s.Progress(done, len(points), points[i])
					mu.Unlock()
				}
			}
		}()
	}
	for i := range points {
		work <- i
	}
	close(work)
	wg.Wait()
	// A cancellation-induced error on a late point must not mask the
	// real failure that triggered it; prefer the lowest-index
	// non-cancellation, non-deadline error, then fall back to any error
	// (parent-context cancellation or expiry).
	for i, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return nil, fmt.Errorf("sweep %s: %w", points[i], err)
		}
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("sweep %s: %w", points[i], err)
		}
	}
	return results, nil
}

// point solves one grid cell through the shared session: synthesize (or
// fetch) its record, find the operating point, measure at it — the
// measurement continuing the solve's verified probe run. A cache the caller
// installed on the point's own options wins over the sweep-wide one.
func (s *Sweep) point(ctx context.Context, pt Point) (*Measurement, error) {
	opts := pt.Opts
	if opts.Cache == nil {
		opts.Cache = s.Cache
	}
	sig, err := opts.Record(pt.App)
	if err != nil {
		return nil, err
	}
	op, err := s.Session.SolveOperatingPoint(ctx, pt.App, pt.Arch, sig, opts)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return s.Session.Measure(ctx, pt.App, pt.Arch, op, sig, opts)
}

// TableI reproduces the paper's Table I through the sweep engine: per
// benchmark, the single-core and multi-core executions at their solved
// operating points.
func (s *Sweep) TableI(ctx context.Context, opts Options) ([]TableIRow, error) {
	return s.Table(ctx, apps.Names, opts)
}

// Table runs the Table I pairing — single-core vs multi-core at solved
// operating points — for an arbitrary application list, the per-scenario
// axis of the evaluation (scenario files select which benchmarks a signal
// kind exercises).
func (s *Sweep) Table(ctx context.Context, appNames []string, opts Options) ([]TableIRow, error) {
	ms, err := s.Run(ctx, TableIGrid(appNames, opts))
	if err != nil {
		return nil, err
	}
	return TableIRows(appNames, ms), nil
}

// TableIGrid builds Table I's point list: per application, the single-core
// and multi-core executions. Shared by the sweep engine and wbsn-bench (the
// JSON output path solves the same grid).
func TableIGrid(appNames []string, opts Options) []Point {
	return Grid(appNames, power.PaperArchs(), opts)
}

// TableIRows pairs a solved TableIGrid's measurements into the table's rows.
func TableIRows(appNames []string, ms []*Measurement) []TableIRow {
	var rows []TableIRow
	for i, app := range appNames {
		sc, mc := ms[2*i], ms[2*i+1]
		rows = append(rows, TableIRow{
			App: app, SC: sc, MC: mc,
			SavingPct: 100 * (1 - mc.Report.TotalUW/sc.Report.TotalUW),
		})
	}
	return rows
}

// Fig6Archs are Figure 6's bars per benchmark, in the paper's order (also
// the order wbsn-sim's -sweep comparison uses). The no-sync variant is
// solved at its own, higher operating point: without lock-step recovery,
// diverged replicated cores serialize on their shared instruction bank and
// miss real time at the proposed system's clock.
var Fig6Archs = power.PresetArchs()

// Figure6 reproduces the paper's Figure 6 through the sweep engine: per
// benchmark, the per-component power of (1) the single-core baseline,
// (2) the multi-core system without the proposed synchronization (active
// waiting) and (3) the multi-core system with it.
func (s *Sweep) Figure6(ctx context.Context, opts Options) ([]Fig6Bar, error) {
	points := Fig6Grid(opts)
	ms, err := s.Run(ctx, points)
	if err != nil {
		return nil, err
	}
	return Fig6BarsOf(points, ms), nil
}

// Fig6Grid builds Figure 6's point list: every benchmark on SC, MC-nosync
// and MC.
func Fig6Grid(opts Options) []Point {
	return Grid(apps.Names, Fig6Archs, opts)
}

// Fig6BarsOf turns a solved Fig6Grid into the figure's bars.
func Fig6BarsOf(points []Point, ms []*Measurement) []Fig6Bar {
	var bars []Fig6Bar
	for i, pt := range points {
		bars = append(bars, Fig6Bar{App: pt.App, Arch: pt.Arch, M: ms[i]})
	}
	return bars
}

// Figure7 reproduces the paper's Figure 7 through the sweep engine:
// RP-CLASS power on both systems, and the reduction, as the share of
// pathological heartbeats grows (uniformly distributed, §V-C).
func (s *Sweep) Figure7(ctx context.Context, opts Options) ([]Fig7Point, error) {
	ms, err := s.Run(ctx, Fig7Grid(opts))
	if err != nil {
		return nil, err
	}
	return Fig7PointsOf(ms), nil
}

// Fig7Grid builds Figure 7's point list: RP-CLASS on SC and MC at each
// pathological-beat share of the paper's x-axis.
func Fig7Grid(opts Options) []Point {
	var points []Point
	for _, share := range Fig7Shares {
		o := opts
		o.PathoFrac = share
		points = append(points,
			Point{App: apps.RPClass, Arch: power.SC, Opts: o},
			Point{App: apps.RPClass, Arch: power.MC, Opts: o})
	}
	return points
}

// Fig7PointsOf pairs a solved Fig7Grid's measurements into the figure's
// x-positions.
func Fig7PointsOf(ms []*Measurement) []Fig7Point {
	var pts []Fig7Point
	for i, share := range Fig7Shares {
		sc, mc := ms[2*i], ms[2*i+1]
		pts = append(pts, Fig7Point{
			PathoPct:     share * 100,
			SCUW:         sc.Report.TotalUW,
			MCUW:         mc.Report.TotalUW,
			ReductionPct: 100 * (1 - mc.Report.TotalUW/sc.Report.TotalUW),
		})
	}
	return pts
}
