// Command perfbench is the repository's end-to-end benchmark. It runs one
// workload — the paper's evaluation grid, the bundled scenario grids, or a
// closed loop of HTTP clients against an in-process wbsn-serve engine —
// checks every output, and prints the metrics named in BENCHMARK.json as the
// last line of standard output:
//
//	{"correct":true,"attempted":29,"failed":0,"metrics":{...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// makes one untraced and one traced pass of the workload and reports the
// per-layer ones, taken from spans the benchmark records around its calls
// into the program and from the program's public counters and obs sinks.
//
// Run it from the repository root through perfbench/run.sh, which builds it:
//
//	bash perfbench/run.sh --workload paper --seed 1 --seconds 60 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"syscall"
	"time"
)

// metricDef names one reported metric; the lists below are BENCHMARK.json's.
type metricDef struct{ Name, Unit string }

var endToEnd = []metricDef{
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
}

var perLayer = []metricDef{
	{"platform.sim_mcycles", "Mcycles"},
	{"platform.stepped_mcycles", "Mcycles"},
	{"platform.idle_mcycles", "Mcycles"},
	{"platform.spin_mcycles", "Mcycles"},
	{"platform.block_mcycles", "Mcycles"},
	{"platform.stride_mcycles", "Mcycles"},
	{"platform.stepped_frac", "fraction"},
	{"platform.cycles_per_block_run", "cycles"},
	{"platform.cycles_per_stride", "cycles"},
	{"platform.ns_per_cycle", "ns/cycle"},
	{"exp.solve_s", "s"},
	{"exp.probe_mcycles", "Mcycles"},
	{"exp.verify_mcycles", "Mcycles"},
	{"exp.probe_runs", "count"},
	{"exp.demand_hits", "count"},
	{"exp.verify_runs", "count"},
	{"exp.early_aborts", "count"},
	{"exp.forks", "count"},
	{"exp.solve_hits", "count"},
	{"exp.measure_s", "s"},
	{"exp.measure_mcycles", "Mcycles"},
	{"exp.warm_measures", "count"},
	{"exp.cell_s.max", "s"},
	{"exp.sweep_busy_frac", "fraction"},
	{"exp.builds", "count"},
	{"signal.record_s", "s"},
	{"signal.synths", "count"},
	{"signal.cache_hit_frac", "fraction"},
	{"serve.solve_cold_s.p50", "s"},
	{"serve.measure_s.p50", "s"},
	{"serve.solve_warm_ms.p50", "ms"},
	{"serve.solve_warm_ms.p99", "ms"},
	{"serve.solve_warm_ms.p99.9", "ms"},
	{"serve.measure_repeat_s.p50", "s"},
	{"serve.restart_measure_s.p50", "s"},
	{"serve.cold_phase_s", "s"},
	{"serve.repeat_solve_phase_s", "s"},
	{"serve.repeat_measure_phase_s", "s"},
	{"serve.restart_phase_s", "s"},
	{"serve.handler_ms.p50", "ms"},
	{"serve.transport_ms.p50", "ms"},
	{"serve.store_hits", "count"},
	{"serve.store_misses", "count"},
	{"serve.store_puts", "count"},
	{"serve.store_bytes", "B"},
	{"serve.restart_probe_runs", "count"},
	{"serve.flights", "count"},
	{"serve.coalesced", "count"},
	{"serve.template_hits", "count"},
	{"serve.template_misses", "count"},
	{"serve.template_evictions", "count"},
	{"trace_overhead_frac", "fraction"},
}

// value is one measured metric. Prec is the number of decimals printed, or
// -1 for every digit of the float.
type value struct {
	V    float64
	Unit string
	Prec int
}

// layerMetrics collects a traced pass's per-layer metrics by name.
type layerMetrics map[string]value

func (l layerMetrics) count(name string, n uint64) { l[name] = value{float64(n), "count", 0} }

// mcycles prints six decimals: the exact cycle count, so parts of the cycle
// partition add up digit for digit.
func (l layerMetrics) mcycles(name string, cycles uint64) {
	l[name] = value{float64(cycles) / 1e6, "Mcycles", 6}
}

func (l layerMetrics) seconds(name string, d time.Duration) { l[name] = value{d.Seconds(), "s", -1} }

func (l layerMetrics) frac(name string, num, den float64) { l.ratio(name, "fraction", num, den) }

// ratio records num/den, or 0 when nothing was counted.
func (l layerMetrics) ratio(name, unit string, num, den float64) {
	v := 0.0
	if den != 0 {
		v = num / den
	}
	l[name] = value{v, unit, -1}
}

// passResult is what one pass over a workload measured and checked.
type passResult struct {
	wall       float64 // seconds for every operation
	setup      float64 // seconds before the first operation could be issued
	layer      layerMetrics
	attempted  int
	failed     map[string]bool // operation ids
	mismatches int
	accuracy   []string
	// outputs is every operation's result (a row, a response body or an
	// error) by a key that names the operation the same way in every pass.
	// Every pass of a run has the same inputs, so it must repeat the
	// first pass's outputs.
	outputs map[string]string
}

func newPassResult() *passResult {
	return &passResult{failed: map[string]bool{}, layer: layerMetrics{}, outputs: map[string]string{}}
}

// output records what operation key produced: its result, or its error.
func (pr *passResult) output(key string, result []byte, err error) {
	if err != nil {
		pr.outputs[key] = "error: " + err.Error()
	} else {
		pr.outputs[key] = string(result)
	}
}

// repeats reports how a later pass's outputs differ from the first's, or
// "" when they are the same.
func (pr *passResult) repeats(first *passResult) string {
	if len(pr.outputs) != len(first.outputs) {
		return fmt.Sprintf("%d operations, the first pass %d", len(pr.outputs), len(first.outputs))
	}
	for k, v := range first.outputs {
		if pr.outputs[k] != v {
			return fmt.Sprintf("%s:\n  got  %s\n  want %s", k, pr.outputs[k], v)
		}
	}
	return ""
}

// fail records a failed operation; each operation fails at most once.
func (pr *passResult) fail(id string, err error) bool {
	if pr.failed[id] {
		return false
	}
	pr.failed[id] = true
	fmt.Fprintf(os.Stderr, "FAILED %s: %v\n", id, err)
	return true
}

// mismatch records an operation whose output broke a contract of the
// program (the pinned reference rows, byte-identical responses): a failed
// operation that also makes the run incorrect.
func (pr *passResult) mismatch(id string, err error) {
	if pr.fail(id, err) {
		pr.mismatches++
	}
}

// scenarioDir holds the bundled scenario files, relative to the repository
// root the benchmark runs from.
const scenarioDir = "scenarios"

// setupSamples is how many times each pass sets up; it reports the median.
const setupSamples = 15

// sampleSetup times setupSamples runs of reps calls of build and returns
// the median time per call. Each sample starts from a collected heap, as a
// fresh process would, so a collection the samples before left due does
// not land in this one.
func sampleSetup(reps int, build func(sample int) error) (float64, error) {
	xs := make([]float64, setupSamples)
	for i := range xs {
		runtime.GC()
		start := time.Now()
		for r := 0; r < reps; r++ {
			if err := build(i); err != nil {
				return 0, err
			}
		}
		xs[i] = time.Since(start).Seconds() / float64(reps)
	}
	return median(xs), nil
}

type workload interface {
	pass(traced bool) (*passResult, error)
}

func main() {
	name := flag.String("workload", "", "paper, scenarios or serve")
	seed := flag.Int64("seed", defaultSeed, "input seed; 1 reproduces the CLIs' default output")
	seconds := flag.Int("seconds", 60, "measure whole passes of the workload for about this long (at least one)")
	trace := flag.Int("trace", 0, "1: one untraced and one traced pass, report the per-layer metrics")
	pin := flag.String("pin", "", "write the workload's exact-mode reference rows at seed 1 to this file and exit (paper, scenarios)")
	workdir := flag.String("workdir", ".bench_build/perfbench-work", "scratch directory for stores and span files")
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *pin, *workdir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds, trace int, pin, workdir string) error {
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("-seconds must be positive and -trace 0 or 1")
	}
	if _, err := os.Stat(scenarioDir); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		return err
	}
	workers := runtime.NumCPU()
	traceOut := filepath.Join(workdir, fmt.Sprintf("%s-seed%d.trace.json", name, seed))
	var w workload
	switch name {
	case "paper", "scenarios":
		bw := &batchWorkload{name: name, seed: seed, workers: workers, traceOut: traceOut}
		if pin != "" {
			if seed != defaultSeed {
				return fmt.Errorf("references are pinned at seed %d", defaultSeed)
			}
			return bw.pin(pin)
		}
		w = bw
	case "serve":
		if pin != "" {
			return fmt.Errorf("-pin applies to the paper and scenarios workloads")
		}
		w = &serveWorkload{seed: seed, clients: workers, workdir: workdir, traceOut: traceOut}
	default:
		return fmt.Errorf("unknown -workload %q (want paper, scenarios or serve)", name)
	}

	var passes []*passResult
	var rss float64
	if trace == 1 {
		for _, traced := range []bool{false, true} {
			pr, err := w.pass(traced)
			if err != nil {
				return err
			}
			passes = append(passes, pr)
		}
	} else {
		start := time.Now()
		for {
			pr, err := w.pass(false)
			if err != nil {
				return err
			}
			passes = append(passes, pr)
			fmt.Fprintf(os.Stderr, "pass %d: wall %.3f s, setup %.4g s\n", len(passes), pr.wall, pr.setup)
			if len(passes) == 1 {
				// Later passes can only add to the high-water mark the
				// first one left, so the first pass's peak is the one that
				// does not depend on how many passes fit.
				rss = peakRSSMB()
			}
			elapsed := time.Since(start).Seconds()
			if elapsed+elapsed/float64(len(passes)) > float64(seconds) {
				break
			}
			runtime.GC()
		}
	}
	return report(passes, trace == 1, rss)
}

// report prints the accuracy lines and the result line. rss is the peak
// resident memory of an untraced run's first pass, in MB.
func report(passes []*passResult, traced bool, rss float64) error {
	last := passes[len(passes)-1]
	res := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{Correct: true, Metrics: map[string]metricJSON{}}
	// Later passes repeat the first one's operations to time them again;
	// they are counted once, and must produce the same outputs.
	first := passes[0]
	res.Attempted, res.Failed = first.attempted, len(first.failed)
	for i, pr := range passes {
		res.Correct = res.Correct && pr.mismatches == 0
		if i == 0 {
			continue
		}
		if d := pr.repeats(first); d != "" {
			fmt.Fprintf(os.Stderr, "MISMATCH pass %d does not repeat the first pass: %s\n", i+1, d)
			res.Correct = false
		}
	}
	if traced {
		last.layer["trace_overhead_frac"] = value{last.wall/passes[0].wall - 1, "fraction", -1}
		for _, m := range perLayer {
			v, ok := last.layer[m.Name]
			if !ok {
				v = value{0, m.Unit, 0} // the layer did no work in this workload
			}
			if v.Unit != m.Unit {
				return fmt.Errorf("metric %s measured in %s, declared in %s", m.Name, v.Unit, m.Unit)
			}
			if math.IsNaN(v.V) {
				return fmt.Errorf("metric %s was not measured", m.Name)
			}
			res.Metrics[m.Name] = v.json()
		}
		for name := range last.layer {
			if _, ok := res.Metrics[name]; !ok {
				return fmt.Errorf("metric %s is not declared", name)
			}
		}
	} else {
		per := func(f func(*passResult) float64) float64 {
			xs := make([]float64, len(passes))
			for i, pr := range passes {
				xs[i] = f(pr)
			}
			return median(xs)
		}
		vals := map[string]float64{
			"wall_s":      per(func(pr *passResult) float64 { return pr.wall }),
			"setup_s":     per(func(pr *passResult) float64 { return pr.setup }),
			"peak_rss_mb": rss,
		}
		for _, m := range endToEnd {
			v := vals[m.Name]
			if math.IsNaN(v) || v <= 0 {
				return fmt.Errorf("metric %s was not measured (%v)", m.Name, v)
			}
			res.Metrics[m.Name] = value{v, m.Unit, -1}.json()
		}
	}
	for _, line := range last.accuracy {
		fmt.Println(line)
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

type metricJSON struct {
	Value json.Number `json:"value"`
	Unit  string      `json:"unit"`
}

func (v value) json() metricJSON {
	return metricJSON{Value: json.Number(strconv.FormatFloat(v.V, 'f', v.Prec, 64)), Unit: v.Unit}
}

// peakRSSMB is the process's peak resident set so far, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
