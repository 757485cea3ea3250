// Package serve is the operating-point solving service: the long-running
// form of the one-shot CLI invocations, exposing solve, measure and sweep
// over HTTP/JSON on a shared exp.Session. Three layers turn the expensive
// compute kernel into something a fleet of clients can hit concurrently:
//
//   - a content-addressed result store (internal/serve/store) persisting
//     solved points, demand estimates and measurement outcomes across
//     restarts, so a restarted server answers every measured cell without
//     simulating;
//   - a bounded LRU of pristine platform templates (the session's template
//     memo, an internal/memo Table under a cap), keeping memory flat under
//     workload diversity while amortizing image builds;
//   - single-flight request coalescing (an internal/memo Group): N
//     identical concurrent requests share one simulation and receive
//     byte-identical bodies.
//
// Determinism is the service contract: for any request mix at any
// concurrency, each response body is byte-identical to what a fresh,
// sequential, cold-session run of the same request would produce. The
// simulator is bit-exact by construction (golden-pinned), responses are
// marshaled from fixed-shape structs, and every cache layer is keyed on the
// full canonical request identity — so reuse can change wall-clock time,
// never bytes. The golden test in this package replays a randomized
// concurrent schedule against sequential cold references to pin it.
//
// Requests synthesize their records through the session's signal cache, so
// a repeat request costs a lookup: the record, the solve and the
// measurement are all memoized.
package serve

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"

	"repro/internal/apps"
	"repro/internal/exp"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/power"
	"repro/internal/scenario"
	"repro/internal/serve/store"
	"repro/internal/serve/wire"
)

// Config parameterizes an Engine.
type Config struct {
	// ScenarioDir is scanned (non-recursively) for *.json scenario files;
	// requests select them by scenario name. Empty means no scenarios —
	// only the default ECG configuration is servable.
	ScenarioDir string
	// StoreDir roots the content-addressed result store. Empty disables
	// persistence: the session still memoizes in memory, but nothing
	// survives the process.
	StoreDir string
	// TemplateCap bounds the session's pristine-template LRU; 0 keeps it
	// unbounded.
	TemplateCap int
	// Jobs bounds each sweep request's worker pool; values < 1 select 1.
	// Solve and measure requests are one simulation each; their
	// concurrency is bounded by the HTTP layer's in-flight requests.
	Jobs int
	// TimelineCap, when positive, attaches an event-timeline ring of that
	// capacity to every simulation the engine runs (solve phases, probe
	// spans). Observation only: results and response bytes are identical
	// with or without it. Exact requests step every cycle and also fill
	// the ring with core-state and sync-op events.
	TimelineCap int
	// Params calibrates power reports (nil selects power.DefaultParams).
	Params *power.Params
}

// Engine is the concurrency-safe facade the HTTP layer (and tests) drive:
// it owns the shared session, the store, the scenario registry and the
// coalescing group, and turns resolved requests into response bodies. All
// methods are safe for concurrent use.
type Engine struct {
	session   *exp.Session
	params    *power.Params
	store     *store.Store
	scenarios map[string]*scenario.Scenario
	names     []string
	jobs      int
	group     *memo.Group[string, []byte]
	reg       *obs.Registry
	sink      *obs.Sink
}

// NewEngine builds the serving engine: loads the scenario directory, opens
// (or creates) the store, and wires both into a fresh session.
func NewEngine(cfg Config) (*Engine, error) {
	params := cfg.Params
	if params == nil {
		params = power.DefaultParams()
	}
	jobs := cfg.Jobs
	if jobs < 1 {
		jobs = 1
	}
	reg := obs.NewRegistry()
	var sink *obs.Sink
	if cfg.TimelineCap > 0 {
		sink = obs.NewSink(obs.NewTimeline(cfg.TimelineCap), reg)
	}
	e := &Engine{
		session:   exp.NewSession(params),
		params:    params,
		scenarios: map[string]*scenario.Scenario{},
		jobs:      jobs,
		group:     memo.NewGroup[string, []byte](),
		reg:       reg,
		sink:      sink,
	}
	e.session.SetTemplateCap(cfg.TemplateCap)
	if cfg.StoreDir != "" {
		st, err := store.Open(cfg.StoreDir)
		if err != nil {
			return nil, err
		}
		e.store = st
		e.session.SetStore(st)
	}
	if cfg.ScenarioDir != "" {
		entries, err := os.ReadDir(cfg.ScenarioDir)
		if err != nil {
			return nil, fmt.Errorf("serve: scenario dir: %w", err)
		}
		for _, ent := range entries {
			if ent.IsDir() || !strings.EqualFold(filepath.Ext(ent.Name()), ".json") {
				continue
			}
			scn, err := scenario.Load(filepath.Join(cfg.ScenarioDir, ent.Name()))
			if err != nil {
				return nil, fmt.Errorf("serve: %w", err)
			}
			if prev, ok := e.scenarios[scn.Name]; ok && prev != scn {
				return nil, fmt.Errorf("serve: two scenario files declare the name %q", scn.Name)
			}
			e.scenarios[scn.Name] = scn
			e.names = append(e.names, scn.Name)
		}
		sort.Strings(e.names)
	}
	return e, nil
}

// Scenarios lists the loaded scenario names in lexical order.
func (e *Engine) Scenarios() []string { return e.names }

// Session exposes the shared session (tests assert on its statistics).
func (e *Engine) Session() *exp.Session { return e.session }

// Store exposes the backing store (nil when persistence is disabled).
func (e *Engine) Store() *store.Store { return e.store }

// Registry exposes the engine's metrics registry.
func (e *Engine) Registry() *obs.Registry { return e.reg }

// Timeline returns the engine's event-timeline events (nil without a
// TimelineCap).
func (e *Engine) Timeline() []obs.Event { return e.sink.Events() }

// CoalesceStats returns how many flights ran and how many requests were
// coalesced onto one.
func (e *Engine) CoalesceStats() (started, coalesced uint64) { return e.group.Stats() }

// resolved is a request after scenario resolution and validation: the exact
// cell identity the session is driven with.
type resolved struct {
	scenario string
	app      string
	arch     power.Arch
	opts     exp.Options
}

// Request bounds. maxFieldBytes caps every request string before an error
// message can quote it. maxSeconds caps duration_s and probe_s: a request's
// record is synthesized for its whole duration before anything is simulated
// (a 3L-MF record takes about 7.8 MB per 1000 s), and 600 s is 60 times the
// paper's 10-s measurement (every bundled scenario uses 10 s or less).
// maxSweepArchs caps a sweep's archs list, well above the three presets and
// the two-entry lists of the bundled scenarios; repeated apps and archs are
// rejected too, so a sweep grid holds at most len(apps.Names) x 16 cells.
const (
	maxFieldBytes = 256
	maxSeconds    = 600
	maxSweepArchs = 16
)

// checkField rejects a request string longer than maxFieldBytes, naming the
// field and the limit but not the value.
func checkField(field, v string) error {
	if len(v) > maxFieldBytes {
		return fmt.Errorf("%s is %d bytes, over the %d-byte limit", field, len(v), maxFieldBytes)
	}
	return nil
}

// resolveCommon validates the shared request fields and layers them over
// the scenario's options.
func (e *Engine) resolveCommon(scenarioName string, durationS, probeS float64, seed *int64, pathoFrac *float64, exact bool) (string, exp.Options, error) {
	if err := checkField("scenario", scenarioName); err != nil {
		return "", exp.Options{}, err
	}
	opts := exp.DefaultOptions()
	if scenarioName != "" {
		scn, ok := e.scenarios[scenarioName]
		if !ok {
			return "", exp.Options{}, fmt.Errorf("unknown scenario %q (loaded: %v)", scenarioName, e.names)
		}
		opts = scn.Options()
	}
	if durationS < 0 || probeS < 0 {
		return "", exp.Options{}, fmt.Errorf("negative duration_s (%v) or probe_s (%v)", durationS, probeS)
	}
	if durationS > maxSeconds || probeS > maxSeconds {
		return "", exp.Options{}, fmt.Errorf("duration_s (%v) or probe_s (%v) over the %d-s limit", durationS, probeS, maxSeconds)
	}
	if durationS > 0 {
		opts.Duration = durationS
	}
	if probeS > 0 {
		opts.ProbeDuration = probeS
	}
	if seed != nil {
		opts.Seed = *seed
	}
	if pathoFrac != nil {
		if *pathoFrac < 0 || *pathoFrac > 1 {
			return "", exp.Options{}, fmt.Errorf("pathological_frac %v outside [0, 1]", *pathoFrac)
		}
		opts.PathoFrac = *pathoFrac
	}
	opts.Exact = exact
	opts.Scenario = scenarioName
	opts.Obs = e.sink
	// Records come from the session's signal cache: a repeat request
	// recalls its record instead of synthesizing it again just to compute
	// the session's keys. Cached records are bit-identical and the
	// canonical request key ignores the cache, so no body can change.
	opts.Cache = e.session.Cache()
	return scenarioName, opts, nil
}

// resolveCell resolves one (app, arch) cell request.
func (e *Engine) resolveCell(req wire.SolveRequest) (resolved, error) {
	name, opts, err := e.resolveCommon(req.Scenario, req.DurationS, req.ProbeS, req.Seed, req.PathoFrac, req.Exact)
	if err != nil {
		return resolved{}, err
	}
	if err := checkField("app", req.App); err != nil {
		return resolved{}, err
	}
	if err := checkField("arch", req.Arch); err != nil {
		return resolved{}, err
	}
	if req.App == "" {
		return resolved{}, fmt.Errorf("missing \"app\" (known: %v)", apps.Names)
	}
	known := false
	for _, n := range apps.Names {
		known = known || n == req.App
	}
	if !known {
		return resolved{}, fmt.Errorf("unknown app %q (known: %v)", req.App, apps.Names)
	}
	if req.Arch == "" {
		return resolved{}, fmt.Errorf("missing \"arch\" (e.g. sc, mc, mc-nosync, or a structural spec)")
	}
	arch, err := power.ParseArchSpec(req.Arch)
	if err != nil {
		return resolved{}, err
	}
	return resolved{scenario: name, app: req.App, arch: arch, opts: opts}, nil
}

// Solve returns the response body for one solve request, coalescing
// identical concurrent requests onto one computation. shared reports
// whether this call attached to another request's in-flight solve.
func (e *Engine) Solve(req wire.SolveRequest) (body []byte, shared bool, err error) {
	r, err := e.resolveCell(req)
	if err != nil {
		return nil, false, &resolveError{err}
	}
	key := wire.CanonicalKey("solve", r.scenario, r.app, r.arch, r.opts)
	return e.group.Do(key, func() ([]byte, error) {
		op, err := e.solveCell(r)
		if err != nil {
			return nil, err
		}
		return marshalBody(wire.SolveResponse{
			Key:      wire.Hash(key),
			Scenario: r.scenario,
			App:      r.app,
			Arch:     r.arch.String(),
			FreqHz:   op.FreqHz,
			FreqMHz:  op.FreqHz / 1e6,
			VoltageV: op.VoltageV,
		})
	})
}

// Measure returns the response body for one solve-and-measure request.
func (e *Engine) Measure(req wire.MeasureRequest) (body []byte, shared bool, err error) {
	r, err := e.resolveCell(req)
	if err != nil {
		return nil, false, &resolveError{err}
	}
	key := wire.CanonicalKey("measure", r.scenario, r.app, r.arch, r.opts)
	return e.group.Do(key, func() ([]byte, error) {
		// Background context: a flight may be shared by several requests
		// and its result is persisted; one client disconnecting must not
		// cancel (or poison) the simulation for the rest.
		ctx := context.Background()
		sig, err := r.opts.Record(r.app)
		if err != nil {
			return nil, err
		}
		op, err := e.session.SolveOperatingPoint(ctx, r.app, r.arch, sig, r.opts)
		if err != nil {
			return nil, err
		}
		m, err := e.session.Measure(ctx, r.app, r.arch, op, sig, r.opts)
		if err != nil {
			return nil, err
		}
		pt := exp.Point{App: r.app, Arch: r.arch, Opts: r.opts}
		rows := exp.JSONPoints("measure", []exp.Point{pt}, []*exp.Measurement{m})
		return marshalBody(wire.MeasureResponse{Key: wire.Hash(key), Point: rows[0]})
	})
}

// solveCell drives the session for one cell's operating point.
func (e *Engine) solveCell(r resolved) (exp.OperatingPoint, error) {
	sig, err := r.opts.Record(r.app)
	if err != nil {
		return exp.OperatingPoint{}, err
	}
	return e.session.SolveOperatingPoint(context.Background(), r.app, r.arch, sig, r.opts)
}

// Sweep returns the response body for one grid request, fanning the cells
// across a bounded worker pool on the shared session.
func (e *Engine) Sweep(req wire.SweepRequest) (body []byte, shared bool, err error) {
	name, opts, err := e.resolveCommon(req.Scenario, req.DurationS, req.ProbeS, req.Seed, req.PathoFrac, req.Exact)
	if err != nil {
		return nil, false, &resolveError{err}
	}
	appNames := req.Apps
	archs := []power.Arch{}
	if name != "" {
		scn := e.scenarios[name]
		if len(appNames) == 0 {
			appNames = scn.Apps
		}
		archs = scn.Archs
	}
	if len(appNames) == 0 {
		appNames = apps.Names
	}
	for i, n := range appNames {
		if err := checkField(fmt.Sprintf("apps[%d]", i), n); err != nil {
			return nil, false, &resolveError{err}
		}
		known := false
		for _, k := range apps.Names {
			known = known || k == n
		}
		if !known {
			return nil, false, &resolveError{fmt.Errorf("unknown app %q (known: %v)", n, apps.Names)}
		}
		if j := slices.Index(appNames[:i], n); j >= 0 {
			return nil, false, &resolveError{fmt.Errorf("apps[%d] repeats apps[%d]: list each app once", i, j)}
		}
	}
	if len(req.Archs) > maxSweepArchs {
		return nil, false, &resolveError{fmt.Errorf("archs has %d entries, over the %d-entry limit", len(req.Archs), maxSweepArchs)}
	}
	if len(req.Archs) > 0 {
		archs = nil
		for i, spec := range req.Archs {
			if err := checkField(fmt.Sprintf("archs[%d]", i), spec); err != nil {
				return nil, false, &resolveError{err}
			}
			a, err := power.ParseArchSpec(spec)
			if err != nil {
				return nil, false, &resolveError{err}
			}
			if j := slices.IndexFunc(archs, func(b power.Arch) bool { return b.Key() == a.Key() }); j >= 0 {
				return nil, false, &resolveError{fmt.Errorf("archs[%d] repeats archs[%d]: list each sync-unit descriptor once", i, j)}
			}
			archs = append(archs, a)
		}
	}
	if len(archs) == 0 {
		archs = power.PresetArchs()
	}
	key := wire.SweepCanonicalKey(name, appNames, archs, opts)
	return e.group.Do(key, func() ([]byte, error) {
		// A fresh Sweep per flight (concurrent Run calls on one Sweep are
		// unsupported), all sharing the one session and cache.
		sw := &exp.Sweep{Jobs: e.jobs, Params: e.params, Session: e.session}
		points := exp.Grid(appNames, archs, opts)
		ms, err := sw.Run(context.Background(), points)
		if err != nil {
			return nil, err
		}
		return marshalBody(wire.SweepResponse{Key: wire.Hash(key), Rows: exp.JSONPoints("sweep", points, ms)})
	})
}

// PublishMetrics refreshes the registry with every gauge the engine can
// report: session work counters, signal- and template-cache hit rates,
// store traffic and coalescing stats. Idempotent; the metrics endpoint
// calls it per scrape.
func (e *Engine) PublishMetrics() *obs.Registry {
	e.session.PublishMetrics(e.reg)
	if e.store != nil {
		hits, misses, puts := e.store.Stats()
		e.reg.Set("serve.store.hits", hits)
		e.reg.Set("serve.store.misses", misses)
		e.reg.Set("serve.store.puts", puts)
	}
	started, coalesced := e.group.Stats()
	e.reg.Set("serve.coalesce.started", started)
	e.reg.Set("serve.coalesce.coalesced", coalesced)
	return e.reg
}
