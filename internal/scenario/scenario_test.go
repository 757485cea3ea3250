package scenario

import (
	"context"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/exp"
	"repro/internal/power"
	"repro/internal/signal"
)

// bundledDir is the checked-in scenario directory, relative to this package.
const bundledDir = "../../scenarios"

func loadBundled(t *testing.T) map[string]*Scenario {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(bundledDir, "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) < 5 {
		t.Fatalf("found %d bundled scenarios, want >= 5 (%v)", len(paths), paths)
	}
	sort.Strings(paths)
	out := map[string]*Scenario{}
	for _, p := range paths {
		s, err := Load(p)
		if err != nil {
			t.Fatalf("load %s: %v", p, err)
		}
		base := strings.TrimSuffix(filepath.Base(p), ".json")
		if s.Name != base {
			t.Errorf("%s declares name %q; file name and scenario name must match", p, s.Name)
		}
		if _, dup := out[s.Name]; dup {
			t.Errorf("duplicate scenario name %q", s.Name)
		}
		out[s.Name] = s
	}
	return out
}

// TestBundledScenariosCoverTheKinds pins the bundle's breadth: at least one
// ECG, one EMG, one PPG scenario and one multi-rate mix.
func TestBundledScenariosCoverTheKinds(t *testing.T) {
	scns := loadBundled(t)
	kinds := map[signal.Kind]bool{}
	multiRate := false
	for _, s := range scns {
		kinds[s.Signal.Kind] = true
		for _, d := range s.Signal.RateDiv {
			multiRate = multiRate || d > 1
		}
	}
	for _, k := range []signal.Kind{signal.KindECG, signal.KindEMG, signal.KindPPG} {
		if !kinds[k] {
			t.Errorf("no bundled scenario exercises kind %q", k)
		}
	}
	if !multiRate {
		t.Error("no bundled scenario uses per-channel rate divisors")
	}
}

// TestBundledScenariosSolve loads every checked-in scenario and solves its
// first (app, arch) cell at short duration: a scenario that cannot reach a
// real-time operating point is a broken config and must not ship.
func TestBundledScenariosSolve(t *testing.T) {
	for name, s := range loadBundled(t) {
		name, s := name, s
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			opts := s.Options()
			opts.Duration = 0.8
			opts.ProbeDuration = 0.6
			app, arch := s.Apps[0], s.Archs[0]
			sig, err := opts.Record(app)
			if err != nil {
				t.Fatal(err)
			}
			op, err := exp.NewSession(nil).SolveOperatingPoint(context.Background(), app, arch, sig, opts)
			if err != nil {
				t.Fatalf("%s/%v: %v", app, arch, err)
			}
			if op.FreqHz < power.MinClockHz || op.VoltageV <= 0 {
				t.Errorf("%s/%v solved to an implausible point %v", app, arch, op)
			}
		})
	}
}

// TestScenarioTableDeterministic pins the acceptance bar for scenario
// sweeps: the rendered operating-point table of a scenario grid is
// byte-identical between a serial and a parallel sweep.
func TestScenarioTableDeterministic(t *testing.T) {
	s, err := Load(filepath.Join(bundledDir, "ppg-motion.json"))
	if err != nil {
		t.Fatal(err)
	}
	opts := s.Options()
	opts.Duration = 0.8
	opts.ProbeDuration = 0.6
	points := s.Points(opts)
	render := func(jobs int) string {
		ms, err := exp.NewSweep(jobs, power.DefaultParams()).Run(context.Background(), points)
		if err != nil {
			t.Fatal(err)
		}
		return exp.FormatPoints(points, ms)
	}
	if serial, parallel := render(1), render(6); serial != parallel {
		t.Errorf("jobs=1 and jobs=6 scenario tables differ:\n--- serial ---\n%s--- parallel ---\n%s", serial, parallel)
	}
}

func TestParseValidation(t *testing.T) {
	cases := map[string]string{
		"missing name":   `{"signal": {"kind": "ecg"}}`,
		"unknown field":  `{"name": "x", "signal": {"kind": "ecg"}, "durations": 3}`,
		"unknown kind":   `{"name": "x", "signal": {"kind": "eeg"}}`,
		"unknown app":    `{"name": "x", "signal": {"kind": "ecg"}, "apps": ["4l-mf"]}`,
		"unknown arch":   `{"name": "x", "signal": {"kind": "ecg"}, "archs": ["gpu"]}`,
		"bad patho":      `{"name": "x", "signal": {"kind": "ecg", "pathological_frac": 2}}`,
		"bad divisor":    `{"name": "x", "signal": {"kind": "ecg", "rate_div": [1, -1, 1]}}`,
		"too many chans": `{"name": "x", "signal": {"kind": "ecg", "rate_div": [1, 1, 1, 1]}}`,
		"zero duration":  `{"name": "x", "signal": {"kind": "ecg"}, "duration_s": 0}`,
		"repeated app":   `{"name": "x", "signal": {"kind": "ecg"}, "apps": ["3l-mf", "3l-mmd", "3l-mf"]}`,
		"repeated arch":  `{"name": "x", "signal": {"kind": "ecg"}, "archs": ["mc", "sc", "multi"]}`,
		"huge timeout":   `{"name": "x", "signal": {"kind": "ecg"}, "sync": [{"name": "huge-timeout", "timeout_cycles": 18446744073709551615}]}`,
	}
	for label, doc := range cases {
		if _, err := Parse(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted %s", label, doc)
		}
	}
}

// TestRejectDuplicateKeys: strict decoding alone keeps the last of two
// duplicate bindings, so a typo'd override silently loses; the parser must
// reject the document and point at the duplicate.
func TestRejectDuplicateKeys(t *testing.T) {
	cases := map[string]struct {
		doc  string
		path string
	}{
		"top level": {
			`{"name": "x", "duration_s": 3, "signal": {"kind": "ecg"}, "duration_s": 5}`,
			`"duration_s"`,
		},
		"nested in signal": {
			`{"name": "x", "signal": {"kind": "ecg", "seed": 1, "seed": 2}}`,
			`"signal.seed"`,
		},
		"object inside array": {
			`{"name": "x", "signal": {"kind": "ecg"}, "apps": [{"a": 1, "a": 2}]}`,
			`"apps.[0].a"`,
		},
	}
	for label, tc := range cases {
		_, err := Parse(strings.NewReader(tc.doc))
		if err == nil {
			t.Errorf("%s: accepted %s", label, tc.doc)
			continue
		}
		if !strings.Contains(err.Error(), "duplicate key "+tc.path) || !strings.Contains(err.Error(), "at byte") {
			t.Errorf("%s: error %q does not name the duplicate path %s with its position", label, err, tc.path)
		}
	}
	// Equal keys in different objects are not duplicates.
	doc := `{"name": "x", "signal": {"kind": "ecg", "seed": 1}, "duration_s": 3}`
	if _, err := Parse(strings.NewReader(doc)); err != nil {
		t.Errorf("distinct objects sharing key names rejected: %v", err)
	}
}

// TestPositionalAppArchErrors: unknown grid entries must name their index so
// long lists are debuggable.
func TestPositionalAppArchErrors(t *testing.T) {
	_, err := Parse(strings.NewReader(`{"name": "x", "signal": {"kind": "ecg"}, "apps": ["3l-mf", "4l-mf"]}`))
	if err == nil || !strings.Contains(err.Error(), "apps[1]") {
		t.Errorf("unknown app error lacks its position: %v", err)
	}
	_, err = Parse(strings.NewReader(`{"name": "x", "signal": {"kind": "ecg"}, "archs": ["sc", "mc", "gpu"]}`))
	if err == nil || !strings.Contains(err.Error(), "archs[2]") {
		t.Errorf("unknown arch error lacks its position: %v", err)
	}
	// A repeat names both positions, as /v1/sweep does.
	_, err = Parse(strings.NewReader(`{"name": "x", "signal": {"kind": "ecg"}, "apps": ["3l-mf", "3l-mmd", "3l-mf"]}`))
	if want := "apps[2] repeats apps[0]: list each app once"; err == nil || err.Error() != want {
		t.Errorf("repeated app error = %v, want %q", err, want)
	}
	_, err = Parse(strings.NewReader(`{"name": "x", "signal": {"kind": "ecg"}, "archs": ["mc", "sc", "multi"]}`))
	if want := "archs[2] repeats archs[0]: list each sync-unit descriptor once"; err == nil || err.Error() != want {
		t.Errorf("repeated arch error = %v, want %q", err, want)
	}
}

// TestExplicitZeroSeed: seed 0 is a valid generator seed and must not be
// silently rewritten to the omitted-field default of 1.
func TestExplicitZeroSeed(t *testing.T) {
	s, err := Parse(strings.NewReader(`{"name": "z", "signal": {"kind": "ecg", "seed": 0}}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Signal.Seed != 0 {
		t.Errorf("explicit seed 0 loaded as %d", s.Signal.Seed)
	}
}

// TestSyncStanza: a "sync" entry registers a named descriptor usable in
// "archs", masks read as hex strings or numbers, and re-declaring the same
// binding (scenario files are loaded repeatedly) is idempotent.
func TestSyncStanza(t *testing.T) {
	doc := `{
		"name": "x", "signal": {"kind": "ecg"}, "apps": ["3l-mmd"],
		"sync": [{"name": "stanza-test", "groups": ["0x0F", 24], "timeout_cycles": 1000}],
		"archs": ["stanza-test", "mc"]
	}`
	s, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	want := power.Arch{Multi: true, Groups: [power.MaxSyncGroups]uint8{0x0F, 0x18}, TimeoutCycles: 1000}
	if s.Archs[0] != want {
		t.Errorf("archs[0] = %+v, want %+v", s.Archs[0], want)
	}
	if s.Archs[1] != power.MC {
		t.Errorf("archs[1] = %+v, want the MC preset", s.Archs[1])
	}
	// Idempotent re-registration: the same file parses again.
	if _, err := Parse(strings.NewReader(doc)); err != nil {
		t.Errorf("re-parsing the same stanza failed: %v", err)
	}
	// The registered name resolves process-wide (the CLIs' -sync/-arch path).
	if got, ok := power.ArchByName("stanza-test"); !ok || got != want {
		t.Errorf("ArchByName = %+v,%v after stanza registration", got, ok)
	}
}

func TestSyncStanzaValidation(t *testing.T) {
	cases := map[string]string{
		"missing name":               `{"name": "x", "signal": {"kind": "ecg"}, "sync": [{"groups": ["0x03"]}]}`,
		"name with spec punctuation": `{"name": "x", "signal": {"kind": "ecg"}, "sync": [{"name": "a,b", "groups": ["0x03"]}]}`,
		"too many groups":            `{"name": "x", "signal": {"kind": "ecg"}, "sync": [{"name": "v1-test", "groups": [1, 2, 4, 8, 16]}]}`,
		"empty middle group":         `{"name": "x", "signal": {"kind": "ecg"}, "sync": [{"name": "v2-test", "groups": ["0x0F", "0x00", "0x18"]}]}`,
		"unparsable mask":            `{"name": "x", "signal": {"kind": "ecg"}, "sync": [{"name": "v3-test", "groups": ["0xfff"]}]}`,
	}
	for label, doc := range cases {
		if _, err := Parse(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted %s", label, doc)
		}
	}
	// Rebinding a taken name to a different descriptor must fail.
	if _, err := Parse(strings.NewReader(
		`{"name": "x", "signal": {"kind": "ecg"}, "sync": [{"name": "rebind-test", "groups": ["0x03"]}]}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(strings.NewReader(
		`{"name": "x", "signal": {"kind": "ecg"}, "sync": [{"name": "rebind-test", "groups": ["0x07"]}]}`)); err == nil {
		t.Error("rebinding a registered name to a different descriptor was accepted")
	}
}

func TestParseDefaults(t *testing.T) {
	s, err := Parse(strings.NewReader(`{"name": "mini", "signal": {"kind": "emg"}}`))
	if err != nil {
		t.Fatal(err)
	}
	if s.Signal.SampleRateHz != 400 || s.Signal.Seed != 1 {
		t.Errorf("EMG defaults not applied: %+v", s.Signal)
	}
	if s.DurationS != 10 || s.ProbeS != 2.5 {
		t.Errorf("duration defaults not applied: %v / %v", s.DurationS, s.ProbeS)
	}
	if len(s.Apps) != 3 || len(s.Archs) != 2 {
		t.Errorf("grid defaults not applied: apps %v archs %v", s.Apps, s.Archs)
	}
	opts := s.Options()
	if opts.Scenario != "mini" || opts.Source.Kind != signal.KindEMG || opts.Seed != 1 {
		t.Errorf("options not derived from scenario: %+v", opts)
	}
	if got := len(s.Points(opts)); got != 6 {
		t.Errorf("default grid has %d points, want 6", got)
	}
}
