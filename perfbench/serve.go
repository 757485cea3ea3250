package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/exp"
	"repro/internal/serve"
	"repro/internal/serve/wire"
)

// serveWorkload drives an in-process wbsn-serve engine over loopback HTTP
// with a closed loop of clients, in three phases: cold (solve, then
// measure, every cell), repeat (solves and measures of answered cells) and
// restart (a second engine on the same store measures every cell).
type serveWorkload struct {
	seed     int64
	clients  int
	workdir  string
	traceOut string
}

// repeatSolves is the number of repeat solves per pass. They simulate
// nothing, so their time is the serving layer's: about a fifth of the
// pass's wall time, while two passes still fit in one run of the benchmark.
const repeatSolves = 20000

// timelineCap is the traced engines' timeline ring. It is drained after
// every simulating request, so it must hold the events of the requests in
// flight between two drains, one per client at about 1.5e5 events each,
// plus an overlap that locates the previous drain.
func (w *serveWorkload) timelineCap() int {
	need := (w.clients + 1) * 150_000
	c := 1
	for c < need {
		c <<= 1
	}
	return c
}

// spanHeader carries a request's span id and client to the handler span.
const spanHeader = "X-Perfbench-Span"

// serveCell is one served cell: Figure 6's grid at the CLI defaults.
type serveCell struct {
	id    string // "3l-mf/SC"
	refID string // the cell's Figure 6 reference row
	req   wire.SolveRequest
}

func serveCells(seed int64) []serveCell {
	var cells []serveCell
	for _, pt := range exp.Fig6Grid(exp.DefaultOptions()) {
		s := seed
		cells = append(cells, serveCell{
			id:    pt.App + "/" + pt.Arch.String(),
			refID: "fig6 " + pt.String(),
			req:   wire.SolveRequest{App: pt.App, Arch: strings.ToLower(pt.Arch.String()), Seed: &s},
		})
	}
	return cells
}

// liveEngine is a serving engine behind a loopback listener.
type liveEngine struct {
	e      *serve.Engine
	srv    *http.Server
	served chan error
	url    string
	client *http.Client

	mu    sync.Mutex
	ring  ringReader
	tally *cycleTally // nil when untraced
	err   error
}

// startEngine sets up setupSamples engines, each timed from NewEngine to a
// listening socket (the store's start-up scan included, as wbsn-serve does
// it), and serves the last one. It returns the median setup time.
func (w *serveWorkload) startEngine(storeDir func(i int) string, tr *tracer, tally *cycleTally) (*liveEngine, float64, error) {
	cfg := serve.Config{ScenarioDir: scenarioDir, TemplateCap: 64, Jobs: w.clients}
	if tr != nil {
		cfg.TimelineCap = w.timelineCap()
	}
	var e *serve.Engine
	var lns []net.Listener
	setup, err := sampleSetup(1, func(i int) error {
		cfg.StoreDir = storeDir(i)
		var err error
		if e, err = serve.NewEngine(cfg); err != nil {
			return err
		}
		if _, _, _, err = e.Store().Len(); err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err == nil {
			lns = append(lns, ln)
		}
		return err
	})
	if err != nil {
		for _, ln := range lns {
			ln.Close()
		}
		return nil, 0, err
	}
	ln := lns[len(lns)-1]
	for _, l := range lns[:len(lns)-1] {
		l.Close()
	}
	le := &liveEngine{
		e: e, served: make(chan error, 1), url: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: w.clients}},
		ring:   ringReader{cap: w.timelineCap()}, tally: tally,
	}
	h := e.Handler()
	if tr != nil {
		inner := h
		h = http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			start := tr.now()
			inner.ServeHTTP(rw, r)
			var id, client int
			fmt.Sscan(r.Header.Get(spanHeader), &id, &client)
			tr.add(span{ID: id, Name: "serve.handler", Parent: "serve.request", Lane: client, Start: start, End: tr.now()})
		})
	}
	le.srv = &http.Server{Handler: h}
	go func() { le.served <- le.srv.Serve(ln) }()
	return le, setup, nil
}

// stop shuts the server down once every handler has returned, and tallies
// the engine's remaining timeline events and its engine histograms.
func (le *liveEngine) stop() error {
	err := le.srv.Shutdown(context.Background())
	if serr := <-le.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	le.client.CloseIdleConnections()
	if le.tally != nil {
		le.drain()
		le.tally.addRegistry(le.e.Registry())
		if err == nil {
			err = le.err
		}
	}
	return err
}

// drain tallies the timeline events appended since the last drain.
func (le *liveEngine) drain() {
	if le.tally == nil {
		return
	}
	le.mu.Lock()
	defer le.mu.Unlock()
	evs, err := le.ring.next(le.e.Timeline())
	if err != nil && le.err == nil {
		le.err = err
	}
	le.tally.addEvents(evs)
}

func (le *liveEngine) post(endpoint string, req wire.SolveRequest, id, client int) (body []byte, shared bool, err error) {
	data, err := json.Marshal(req)
	if err != nil {
		return nil, false, err
	}
	hreq, err := http.NewRequest(http.MethodPost, le.url+"/v1/"+endpoint, bytes.NewReader(data))
	if err != nil {
		return nil, false, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(spanHeader, fmt.Sprintf("%d %d", id, client))
	resp, err := le.client.Do(hreq)
	if err != nil {
		return nil, false, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	if err != nil {
		return nil, false, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, false, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return body, resp.Header.Get("X-Coalesced") != "", nil
}

// request is one finished request.
type request struct {
	id              int
	phase, endpoint string
	cell            int
	latency         time.Duration
	body            []byte
	shared          bool
	err             error
}

func (r request) name(cells []serveCell) string {
	return fmt.Sprintf("%s %s %s #%d", r.phase, r.endpoint, cells[r.cell].id, r.id)
}

// recorder issues requests and keeps their results.
type recorder struct {
	cells []serveCell
	tr    *tracer // nil when untraced
	seq   atomic.Int64

	mu     sync.Mutex
	reqs   []request
	bodies map[string][]byte // every distinct body, shared by the requests
}

// do sends one request and records it. After a request that may have
// simulated, a traced pass drains the engine's timeline.
func (r *recorder) do(le *liveEngine, client int, phase, endpoint string, cell int) {
	id := int(r.seq.Add(1))
	var tstart time.Duration
	if r.tr != nil {
		tstart = r.tr.now()
	}
	start := time.Now()
	body, shared, err := le.post(endpoint, r.cells[cell].req, id, client)
	lat := time.Since(start)
	if r.tr != nil {
		r.tr.add(span{ID: id, Name: "serve.request", Lane: client, Start: tstart, End: tstart + lat})
		if endpoint == "measure" || phase == "cold" {
			le.drain()
		}
	}
	r.mu.Lock()
	// Keep one copy of each distinct body, so the benchmark's memory does
	// not grow with the number of requests.
	if b, ok := r.bodies[string(body)]; ok {
		body = b
	} else if body != nil {
		r.bodies[string(body)] = body
	}
	r.reqs = append(r.reqs, request{id: id, phase: phase, endpoint: endpoint, cell: cell, latency: lat, body: body, shared: shared, err: err})
	r.mu.Unlock()
}

// each runs f on every client at once, handing each the cells it owns,
// and waits for all of them. Client c owns every clients-th cell from c on:
// a fixed share, so no two requests in flight are ever identical by chance
// and the load each client carries is the same in every run.
func (w *serveWorkload) each(n int, f func(client int, own []int)) {
	var wg sync.WaitGroup
	for c := 0; c < w.clients; c++ {
		var own []int
		for i := c; i < n; i += w.clients {
			own = append(own, i)
		}
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			f(c, own)
		}(c)
	}
	wg.Wait()
}

func (w *serveWorkload) pass(traced bool) (*passResult, error) {
	pr := newPassResult()
	dir, err := os.MkdirTemp(w.workdir, "serve-")
	if err != nil {
		return nil, err
	}
	defer removeAll(dir)
	store := filepath.Join(dir, "store")
	cells := serveCells(w.seed)
	rec := &recorder{
		cells: cells, bodies: map[string][]byte{},
		// Room for every request of the pass, so the list never regrows.
		reqs: make([]request, 0, repeatSolves+4*len(cells)+w.clients),
	}
	var tally *cycleTally
	if traced {
		rec.tr, tally = newTracer(), &cycleTally{}
	}

	e1, setup1, err := w.startEngine(func(i int) string {
		if i == setupSamples-1 {
			return store
		}
		return filepath.Join(dir, fmt.Sprintf("setup-%d", i))
	}, rec.tr, tally)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	// Cold: solve, then measure, each cell. Every client starts with the
	// first cell, which nobody has asked for yet: identical concurrent
	// solves that share one flight.
	n := len(rec.cells)
	w.each(n, func(c int, own []int) {
		rec.do(e1, c, "cold", "solve", 0)
		for _, i := range own {
			if i != 0 {
				rec.do(e1, c, "cold", "solve", i)
			}
			rec.do(e1, c, "cold", "measure", i)
		}
	})
	cold := time.Since(start)
	// Repeat: solves of answered cells, then a measure of each client's
	// first cell.
	w.each(n, func(c int, own []int) {
		for k := 0; len(own) > 0 && k < repeatSolves/w.clients; k++ {
			rec.do(e1, c, "repeat", "solve", own[k%len(own)])
		}
	})
	solves := time.Since(start) - cold
	w.each(n, func(c int, own []int) {
		if len(own) > 0 {
			rec.do(e1, c, "repeat", "measure", own[0])
		}
	})
	wall := time.Since(start)
	measures := wall - cold - solves
	if err := e1.stop(); err != nil {
		return nil, err
	}

	// Restart: a second engine over the same store.
	e2, setup2, err := w.startEngine(func(int) string { return store }, rec.tr, tally)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	w.each(n, func(c int, own []int) {
		for _, i := range own {
			rec.do(e2, c, "restart", "measure", i)
		}
	})
	restart := time.Since(start)
	wall += restart
	fmt.Fprintf(os.Stderr, "serve phases: cold %.2fs, repeat solves %.2fs, repeat measures %.2fs, restart %.2fs\n",
		cold.Seconds(), solves.Seconds(), measures.Seconds(), restart.Seconds())
	if err := e2.stop(); err != nil {
		return nil, err
	}
	l := pr.layer
	l.seconds("serve.cold_phase_s", cold)
	l.seconds("serve.repeat_solve_phase_s", solves)
	l.seconds("serve.repeat_measure_phase_s", measures)
	l.seconds("serve.restart_phase_s", restart)
	pr.wall = wall.Seconds()
	pr.setup = setup1 + setup2
	if err := w.check(pr, rec); err != nil {
		return nil, err
	}
	if traced {
		return pr, w.layers(pr, rec, tally, e1.e, e2.e, store)
	}
	return pr, nil
}

// check verifies every response and derives the latency metrics. Each
// cell's cold solve and cold measure bodies are its references: every later
// body for the cell, in any phase, must repeat them byte for byte.
func (w *serveWorkload) check(pr *passResult, rec *recorder) error {
	cells := rec.cells
	solved := make([][]byte, len(cells))
	measured := make([][]byte, len(cells))
	for _, r := range rec.reqs {
		if r.phase == "cold" && r.err == nil && !r.shared {
			if r.endpoint == "solve" {
				solved[r.cell] = r.body
			} else {
				measured[r.cell] = r.body
			}
		}
	}
	var coldSolve, coldMeasure, warm, again, restart []float64
	failed := map[string]int{}
	for _, r := range rec.reqs {
		pr.attempted++
		if r.err != nil {
			failed[fmt.Sprintf("%s %s %s", r.phase, r.endpoint, cells[r.cell].id)]++
		}
		want := solved[r.cell]
		if r.endpoint == "measure" {
			want = measured[r.cell]
		}
		switch {
		case r.err != nil:
			pr.fail(r.name(cells), r.err)
			continue
		case !bytes.Equal(r.body, want):
			pr.mismatch(r.name(cells), fmt.Errorf("body differs from the cell's cold response:\n  got  %s\n  want %s", r.body, want))
			continue
		}
		s := r.latency.Seconds()
		switch {
		case r.phase == "cold" && r.endpoint == "solve" && !r.shared:
			coldSolve = append(coldSolve, s)
		case r.phase == "cold" && r.endpoint == "measure":
			coldMeasure = append(coldMeasure, s)
		case r.phase == "repeat" && r.endpoint == "solve":
			warm = append(warm, s*1e3)
		case r.phase == "repeat":
			again = append(again, s)
		case r.phase == "restart":
			restart = append(restart, s)
		}
	}

	for i, c := range cells {
		pr.output("solve "+c.id, solved[i], nil)
		pr.output("measure "+c.id, measured[i], nil)
	}
	for k, n := range failed {
		pr.outputs["failed "+k] = fmt.Sprint(n)
	}
	check, err := newChecker(pr, "paper", w.seed) // served cells are Figure 6's
	if err != nil {
		return err
	}
	for i, c := range cells {
		if solved[i] == nil || measured[i] == nil {
			continue // the cold request failed and was counted
		}
		var sr wire.SolveResponse
		var mr wire.MeasureResponse
		if err := json.Unmarshal(solved[i], &sr); err != nil {
			return fmt.Errorf("cold solve %s: %w", c.id, err)
		}
		if err := json.Unmarshal(measured[i], &mr); err != nil {
			return fmt.Errorf("cold measure %s: %w", c.id, err)
		}
		id := "cold measure " + c.id
		if sr.FreqMHz != mr.Point.FreqMHz || sr.VoltageV != mr.Point.VoltageV {
			pr.mismatch(id, fmt.Errorf("measured at %v MHz / %v V, solved to %v MHz / %v V",
				mr.Point.FreqMHz, mr.Point.VoltageV, sr.FreqMHz, sr.VoltageV))
		}
		// A served cell is Figure 6's cell, labelled "measure".
		row := mr.Point
		row.Experiment = "fig6"
		check.row(id, c.refID, row)
	}
	check.finish()
	pr.accuracy = accuracyLines(check.defaultECG)
	l := pr.layer
	l["serve.solve_cold_s.p50"] = value{median(coldSolve), "s", -1}
	l["serve.measure_s.p50"] = value{median(coldMeasure), "s", -1}
	l["serve.solve_warm_ms.p50"] = value{median(warm), "ms", -1}
	// p99 is the steady tail; the highest percentile the samples support
	// is the one the repeat-solve count is chosen for.
	p, label, ok := tailPercentile(len(warm))
	if !ok || label != "p99.9" {
		return fmt.Errorf("%d repeat solves support the %q tail, not p99.9", len(warm), label)
	}
	l["serve.solve_warm_ms.p99"] = value{percentile(warm, 99), "ms", -1}
	l["serve.solve_warm_ms.p99.9"] = value{percentile(warm, p), "ms", -1}
	l["serve.measure_repeat_s.p50"] = value{median(again), "s", -1}
	l["serve.restart_measure_s.p50"] = value{median(restart), "s", -1}
	return nil
}

// layers fills the traced pass's per-layer metrics.
func (w *serveWorkload) layers(pr *passResult, rec *recorder, tally *cycleTally, e1, e2 *serve.Engine, store string) error {
	st1, st2 := e1.Session().Stats(), e2.Session().Stats()
	st := sumSessions(st1, st2)
	if err := tally.crossCheck(st); err != nil {
		return err
	}
	byID := map[int]request{}
	for _, r := range rec.reqs {
		byID[r.id] = r
	}
	var handler, transport []float64
	var solve, measure time.Duration
	children := rec.tr.children()
	for _, s := range rec.tr.spans {
		switch s.Name {
		case "serve.handler":
			handler = append(handler, s.dur().Seconds()*1e3)
			// Repeat solves simulate nothing; their time is the serving
			// layer's, reported by the handler and transport medians. A
			// coalesced solve waits on another request's flight, whose
			// time is already counted.
			switch r := byID[s.ID]; {
			case r.endpoint == "measure":
				measure += s.dur()
			case r.phase != "repeat" && !r.shared:
				solve += s.dur()
			}
		case "serve.request":
			transport = append(transport, selfTime(s, children[spanKey{s.ID, s.Name}]).Seconds()*1e3)
		}
	}
	l := pr.layer
	if err := tally.publish(l, solve+measure); err != nil {
		return err
	}
	publishSession(l, st)
	l.seconds("exp.solve_s", solve)
	l.seconds("exp.measure_s", measure)
	var req, syn uint64
	for _, e := range []*serve.Engine{e1, e2} {
		r, s := e.Session().Cache().Stats()
		req, syn = req+r, syn+s
	}
	l.count("signal.synths", syn)
	l.frac("signal.cache_hit_frac", float64(req-syn), float64(req))
	l["serve.handler_ms.p50"] = value{median(handler), "ms", -1}
	l["serve.transport_ms.p50"] = value{median(transport), "ms", -1}

	var hits, misses, puts, flights, coalesced, th, tm, te uint64
	for _, e := range []*serve.Engine{e1, e2} {
		h, m, p := e.Store().Stats()
		f, c := e.CoalesceStats()
		a, b, d := e.Session().TemplateCacheStats()
		hits, misses, puts = hits+h, misses+m, puts+p
		flights, coalesced = flights+f, coalesced+c
		th, tm, te = th+a, tm+b, te+d
	}
	l.count("serve.store_hits", hits)
	l.count("serve.store_misses", misses)
	l.count("serve.store_puts", puts)
	bytes, err := dirBytes(store)
	if err != nil {
		return err
	}
	l["serve.store_bytes"] = value{float64(bytes), "B", 0}
	l.count("serve.restart_probe_runs", st2.ProbeRuns)
	l.count("serve.flights", flights)
	l.count("serve.coalesced", coalesced)
	l.count("serve.template_hits", th)
	l.count("serve.template_misses", tm)
	l.count("serve.template_evictions", te)
	return rec.tr.write(w.traceOut)
}

// sumSessions adds the counters of several sessions (the serve workload's
// two engines).
func sumSessions(a, b exp.SessionStats) exp.SessionStats {
	return exp.SessionStats{
		Builds: a.Builds + b.Builds, Forks: a.Forks + b.Forks,
		ProbeRuns: a.ProbeRuns + b.ProbeRuns, DemandHits: a.DemandHits + b.DemandHits,
		SolveHits: a.SolveHits + b.SolveHits, EarlyAborts: a.EarlyAborts + b.EarlyAborts,
		WarmMeasures:    a.WarmMeasures + b.WarmMeasures,
		FFSkippedCycles: a.FFSkippedCycles + b.FFSkippedCycles, SpinSkippedCycles: a.SpinSkippedCycles + b.SpinSkippedCycles,
		BlockRuns: a.BlockRuns + b.BlockRuns, BlockCycles: a.BlockCycles + b.BlockCycles,
		BlockMCStrides: a.BlockMCStrides + b.BlockMCStrides, BlockMCCycles: a.BlockMCCycles + b.BlockMCCycles,
	}
}

// dirBytes is the total size of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err == nil {
			n += info.Size()
		}
		return err
	})
	return n, err
}
