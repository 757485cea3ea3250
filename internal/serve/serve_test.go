package serve_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/serve/wire"
)

// Short simulated windows keep the suite fast; the determinism contract is
// duration-independent, so any positive values exercise it.
const (
	testDurationS = 0.4
	testProbeS    = 0.3
)

func newEngine(t *testing.T, cfg serve.Config) *serve.Engine {
	t.Helper()
	if cfg.ScenarioDir == "" {
		cfg.ScenarioDir = "../../scenarios"
	}
	e, err := serve.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// request is one schedule entry: an endpoint plus its body.
type request struct {
	endpoint string // "solve", "measure" or "sweep"
	solve    wire.SolveRequest
	sweep    wire.SweepRequest
}

func (r request) String() string {
	if r.endpoint == "sweep" {
		return fmt.Sprintf("sweep %s apps=%v archs=%v", r.sweep.Scenario, r.sweep.Apps, r.sweep.Archs)
	}
	return fmt.Sprintf("%s %s/%s/%s", r.endpoint, r.solve.Scenario, r.solve.App, r.solve.Arch)
}

func (r request) run(e *serve.Engine) ([]byte, bool, error) {
	switch r.endpoint {
	case "solve":
		return e.Solve(r.solve)
	case "measure":
		return e.Measure(r.solve)
	default:
		return e.Sweep(r.sweep)
	}
}

// goldenMatrix is the bundled-scenario coverage the determinism golden test
// replays: every (scenario app x {sc, mc-nosync, mc}) solve for two
// scenarios of different signal kinds, two full measures, and one sweep
// whose grid overlaps the individual solves (stressing session sharing).
func goldenMatrix() []request {
	var reqs []request
	cell := func(endpoint, scenario, app, arch string) request {
		return request{endpoint: endpoint, solve: wire.SolveRequest{
			Scenario: scenario, App: app, Arch: arch,
			DurationS: testDurationS, ProbeS: testProbeS,
		}}
	}
	for _, app := range []string{"3l-mf", "3l-mmd", "rp-class"} {
		for _, arch := range []string{"sc", "mc-nosync", "mc"} {
			reqs = append(reqs, cell("solve", "ecg-default", app, arch))
		}
	}
	for _, app := range []string{"3l-mf", "3l-mmd"} {
		for _, arch := range []string{"sc", "mc-nosync", "mc"} {
			reqs = append(reqs, cell("solve", "emg-burst", app, arch))
		}
	}
	reqs = append(reqs,
		cell("measure", "ecg-default", "3l-mf", "sc"),
		cell("measure", "ecg-default", "3l-mf", "mc"),
		// The sweep's grid is exactly the nine individual ecg-default solve
		// cells, so replaying it concurrently with them stresses session
		// sharing. (emg-burst is solve-only above: its sparse bursts need
		// probe windows near the scenario's own 2.5s to measure safely,
		// which would dominate the suite's wall-clock.)
		request{endpoint: "sweep", sweep: wire.SweepRequest{
			Scenario: "ecg-default", DurationS: testDurationS, ProbeS: testProbeS,
		}},
	)
	return reqs
}

// TestDeterminismGolden pins the service contract: every response body from
// a randomized concurrent schedule (with duplicates) is byte-identical to
// the body a fresh engine produces serving the same request alone,
// sequentially, cold. The reference and replay engines share nothing.
func TestDeterminismGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("replays the full bundled-scenario matrix twice")
	}
	matrix := goldenMatrix()

	ref := newEngine(t, serve.Config{Jobs: 1})
	want := make(map[string][]byte, len(matrix))
	for _, r := range matrix {
		body, _, err := r.run(ref)
		if err != nil {
			t.Fatalf("reference %s: %v", r, err)
		}
		want[r.String()] = body
	}

	// Fixed-seed shuffle of two copies of the matrix: duplicates coalesce
	// or hit the session's memoization depending on timing, neither of
	// which may change a byte.
	schedule := append(append([]request{}, matrix...), matrix...)
	rand.New(rand.NewSource(7)).Shuffle(len(schedule), func(i, j int) {
		schedule[i], schedule[j] = schedule[j], schedule[i]
	})

	replay := newEngine(t, serve.Config{Jobs: 2})
	type outcome struct {
		req  request
		body []byte
		err  error
	}
	results := make(chan outcome, len(schedule))
	sem := make(chan struct{}, 8)
	var wg sync.WaitGroup
	for _, r := range schedule {
		wg.Add(1)
		go func(r request) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			body, _, err := r.run(replay)
			results <- outcome{req: r, body: body, err: err}
		}(r)
	}
	wg.Wait()
	close(results)

	for out := range results {
		if out.err != nil {
			t.Fatalf("replay %s: %v", out.req, out.err)
		}
		if !bytes.Equal(out.body, want[out.req.String()]) {
			t.Errorf("replay %s diverged from the sequential cold reference:\n got: %s\nwant: %s",
				out.req, out.body, want[out.req.String()])
		}
	}
}

// TestSolveCoalescesConcurrentRequests proves the single-flight layer at
// the engine level: requests arriving while an identical solve is in flight
// attach to it — one simulation, byte-identical bodies for everyone.
func TestSolveCoalescesConcurrentRequests(t *testing.T) {
	e := newEngine(t, serve.Config{Jobs: 1})
	req := wire.SolveRequest{Scenario: "ecg-default", App: "3l-mf", Arch: "mc",
		DurationS: testDurationS, ProbeS: testProbeS}

	const followers = 4
	bodies := make([][]byte, 1+followers)
	shared := make([]bool, 1+followers)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		body, sh, err := e.Solve(req)
		if err != nil {
			t.Error(err)
		}
		bodies[0], shared[0] = body, sh
	}()
	// Wait for the leader's flight to register; the flight then stays open
	// for the length of a cold solve (several simulated probes), so the
	// followers launched below land inside it.
	for {
		if started, _ := e.CoalesceStats(); started == 1 {
			break
		}
		time.Sleep(100 * time.Microsecond)
	}
	for i := 1; i <= followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, sh, err := e.Solve(req)
			if err != nil {
				t.Error(err)
			}
			bodies[i], shared[i] = body, sh
		}(i)
	}
	wg.Wait()

	started, coalesced := e.CoalesceStats()
	if started != 1 || coalesced != followers {
		t.Fatalf("flights started=%d coalesced=%d, want 1/%d", started, coalesced, followers)
	}
	if shared[0] {
		t.Fatal("the leader reported itself coalesced")
	}
	for i := 1; i <= followers; i++ {
		if !shared[i] {
			t.Errorf("follower %d did not report coalescing", i)
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Errorf("follower %d body differs from the leader's", i)
		}
	}
}

// TestRestartServesFromStore is the persistence acceptance test: a new
// process (fresh engine) over the same store directory answers a
// previously-measured request without simulating anything — the solve and
// the measurement both come from the store, no platform is forked, and the
// timeline shows no probe, verify or measure phase.
func TestRestartServesFromStore(t *testing.T) {
	dir := t.TempDir()
	req := wire.SolveRequest{Scenario: "ecg-default", App: "3l-mf", Arch: "mc",
		DurationS: testDurationS, ProbeS: testProbeS}

	e1 := newEngine(t, serve.Config{Jobs: 1, StoreDir: dir, TimelineCap: 4096})
	body1, _, err := e1.Measure(req)
	if err != nil {
		t.Fatal(err)
	}
	solves, demands, measures, err := e1.Store().Len()
	if err != nil {
		t.Fatal(err)
	}
	if solves == 0 || demands == 0 || measures == 0 {
		t.Fatalf("first run persisted %d solves, %d demands, %d measurements; want all > 0",
			solves, demands, measures)
	}

	// "Restart": a fresh engine (new session, empty memory caches) over the
	// same store directory.
	e2 := newEngine(t, serve.Config{Jobs: 1, StoreDir: dir, TimelineCap: 4096})
	body2, _, err := e2.Measure(req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("restarted engine changed the response:\n got: %s\nwant: %s", body2, body1)
	}

	stats := e2.Session().Stats()
	if stats.StoreHits != 2 || stats.ProbeRuns != 0 || stats.Forks != 0 || stats.WarmMeasures != 0 {
		t.Fatalf("restarted engine simulated what the store holds: %+v", stats)
	}
	for _, ev := range e2.Timeline() {
		if ev.Kind != obs.KindPhase {
			continue
		}
		for _, phase := range []string{"probe ", "verify ", "measure "} {
			if strings.HasPrefix(ev.Label, phase) {
				t.Fatalf("restarted engine re-simulated: timeline has phase %q", ev.Label)
			}
		}
	}
}

// TestRepeatSolveSynthesizesNothing: requests draw their records from the
// session's signal cache, so one solve synthesizes exactly its measured and
// probe records, and a repeat solve recalls both instead of synthesizing
// the measured record again just to key the session's memo.
func TestRepeatSolveSynthesizesNothing(t *testing.T) {
	e := newEngine(t, serve.Config{Jobs: 1})
	req := wire.SolveRequest{Scenario: "ecg-default", App: "3l-mf", Arch: "mc",
		DurationS: testDurationS, ProbeS: testProbeS}
	body1, _, err := e.Solve(req)
	if err != nil {
		t.Fatal(err)
	}
	req1, syn1 := e.Session().Cache().Stats()
	if syn1 != 2 {
		t.Fatalf("one solve synthesized %d records, want 2 (measured and probe record)", syn1)
	}
	body2, _, err := e.Solve(req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("repeat solve changed the response:\n got: %s\nwant: %s", body2, body1)
	}
	req2, syn2 := e.Session().Cache().Stats()
	if syn2 != syn1 || req2 <= req1 {
		t.Fatalf("repeat solve: cache requests %d -> %d, synths %d -> %d; want more requests and no synths",
			req1, req2, syn1, syn2)
	}
}

// TestLongDurationsRejectedBeforeSynthesis: a duration or probe window over
// the limit is rejected before its record is synthesized (a 1e6-s 3L-MF
// record would take gigabytes), on every endpoint.
func TestLongDurationsRejectedBeforeSynthesis(t *testing.T) {
	e := newEngine(t, serve.Config{})
	for _, dur := range [][2]float64{{1e6, 0}, {0, 1e6}, {601, 600}} {
		req := wire.SolveRequest{App: "3l-mf", Arch: "sc", DurationS: dur[0], ProbeS: dur[1]}
		sweep := wire.SweepRequest{Apps: []string{"3l-mf"}, DurationS: dur[0], ProbeS: dur[1]}
		for name, run := range map[string]func() ([]byte, bool, error){
			"solve":   func() ([]byte, bool, error) { return e.Solve(req) },
			"measure": func() ([]byte, bool, error) { return e.Measure(req) },
			"sweep":   func() ([]byte, bool, error) { return e.Sweep(sweep) },
		} {
			if _, _, err := run(); err == nil || !strings.Contains(err.Error(), "600-s limit") {
				t.Errorf("%s with duration_s %v, probe_s %v: got %v, want the 600-s limit", name, dur[0], dur[1], err)
			}
		}
	}
	if requests, _ := e.Session().Cache().Stats(); requests != 0 {
		t.Fatalf("rejected requests reached the signal cache %d times", requests)
	}
}

// TestResolveErrors pins the request-validation failure modes.
func TestResolveErrors(t *testing.T) {
	e := newEngine(t, serve.Config{})
	cases := []struct {
		name string
		req  wire.SolveRequest
		want string
	}{
		{"unknown scenario", wire.SolveRequest{Scenario: "nope", App: "3l-mf", Arch: "sc"}, "unknown scenario"},
		{"missing app", wire.SolveRequest{Scenario: "ecg-default", Arch: "sc"}, "missing \"app\""},
		{"unknown app", wire.SolveRequest{Scenario: "ecg-default", App: "4l-mf", Arch: "sc"}, "unknown app"},
		{"missing arch", wire.SolveRequest{Scenario: "ecg-default", App: "3l-mf"}, "missing \"arch\""},
		{"negative duration", wire.SolveRequest{App: "3l-mf", Arch: "sc", DurationS: -1}, "negative"},
		{"patho out of range", wire.SolveRequest{App: "3l-mf", Arch: "sc", PathoFrac: f64(1.5)}, "outside [0, 1]"},
	}
	for _, tc := range cases {
		_, _, err := e.Solve(tc.req)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want error containing %q", tc.name, err, tc.want)
		}
	}
}

func f64(v float64) *float64 { return &v }
