// Command wbsn-serve runs the operating-point solving service: the
// long-running form of wbsn-sim/wbsn-bench, exposing solve, measure and
// sweep as HTTP/JSON endpoints over one shared session. Identical
// concurrent requests coalesce onto one simulation, results persist in a
// content-addressed store (-store) across restarts — solved points, probe
// demands and measurements, so a restarted server answers a measured cell
// without simulating — and every response body is byte-identical to what
// a cold single-threaded run of the same request would print. Each
// simulation builds its own platform; the session keeps none between
// requests. See docs/SERVE.md for the API and the determinism contract.
package main

import (
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"

	"repro/internal/serve"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8177", "listen address (host:port; port 0 picks a free port)")
	scenarioDir := flag.String("scenario-dir", "scenarios", "directory scanned for *.json scenario files servable by name (empty: none)")
	storeDir := flag.String("store", "", "content-addressed result store directory; solved points, probe demands and measurements persist here across restarts (empty: in-memory only)")
	jobs := flag.Int("jobs", runtime.NumCPU(), "parallel workers per sweep request (results are identical for any value)")
	timelineCap := flag.Int("timeline-cap", 0, "event-timeline ring capacity shared by all simulations (0 = no timeline; observation only)")
	flag.Parse()
	if *jobs < 1 {
		fatal(fmt.Errorf("-jobs must be positive, got %d (it bounds each sweep request's worker pool)", *jobs))
	}
	if *timelineCap < 0 {
		fatal(fmt.Errorf("-timeline-cap must be >= 0, got %d (0 disables the timeline)", *timelineCap))
	}

	// The default scenario directory is a convenience, not a requirement:
	// when it does not exist (serving from outside the repo), run without
	// scenarios. An explicitly-set -scenario-dir must exist.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if !set["scenario-dir"] {
		if _, err := os.Stat(*scenarioDir); err != nil {
			*scenarioDir = ""
		}
	}

	engine, err := serve.NewEngine(serve.Config{
		ScenarioDir: *scenarioDir,
		StoreDir:    *storeDir,
		Jobs:        *jobs,
		TimelineCap: *timelineCap,
	})
	if err != nil {
		fatal(err)
	}

	if st := engine.Store(); st != nil {
		solves, demands, measures, err := st.Len()
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "store: %s (%d solved points, %d probe demands, %d measurements)\n",
			st.Dir(), solves, demands, measures)
	}
	fmt.Fprintf(os.Stderr, "scenarios: %v\n", engine.Scenarios())

	// Listen before announcing, so "serving on ..." (with the resolved port)
	// is a reliable readiness signal for scripts.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "serving on http://%s\n", ln.Addr())
	if err := http.Serve(ln, engine.Handler()); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
