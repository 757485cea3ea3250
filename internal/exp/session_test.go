package exp

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/apps"
	"repro/internal/obs"
	"repro/internal/power"
)

// sessionArchs is the full architecture column of the evaluation.
var sessionArchs = []power.Arch{power.SC, power.MCNoSync, power.MC}

// TestSessionSolveMatchesScratch pins the core equivalence contract on the
// paper's default ECG configuration: the early-aborting, probe-sharing
// session solve returns bit-identical operating points to the
// from-scratch reference for every benchmark on every architecture.
func TestSessionSolveMatchesScratch(t *testing.T) {
	opts := tinyOpts()
	opts.ProbeDuration = 1.0
	ctx := context.Background()
	s := NewSession(nil)
	for _, app := range apps.Names {
		for _, arch := range sessionArchs {
			sig, err := opts.Record(app)
			if err != nil {
				t.Fatal(err)
			}
			want, wantErr := SolveOperatingPointFromScratch(ctx, app, arch, sig, opts)
			got, gotErr := s.SolveOperatingPoint(ctx, app, arch, sig, opts)
			if (wantErr == nil) != (gotErr == nil) {
				t.Fatalf("%s/%v: scratch err %v, session err %v", app, arch, wantErr, gotErr)
			}
			if wantErr != nil {
				if wantErr.Error() != gotErr.Error() {
					t.Errorf("%s/%v: errors differ:\nscratch: %v\nsession: %v", app, arch, wantErr, gotErr)
				}
				continue
			}
			if want != got {
				t.Errorf("%s/%v: scratch %.4f MHz/%.2f V, session %.4f MHz/%.2f V",
					app, arch, want.FreqHz/1e6, want.VoltageV, got.FreqHz/1e6, got.VoltageV)
			}
		}
	}
	st := s.Stats()
	// MC-nosync seeds its demand from MC's probe: three of the nine solves
	// must have reused a cached demand estimate.
	if st.DemandHits < 3 {
		t.Errorf("session reran shared probes: %d demand hits, want >= 3 (stats %+v)", st.DemandHits, st)
	}
	if st.Forks == 0 || st.ProbeRuns == 0 {
		t.Errorf("session built no platform or ran no probe: %+v", st)
	}
}

// TestSessionMeasureWarmIsBitIdentical pins the amortized-warm-up contract:
// a measurement continuing the solve's probe-boundary snapshot equals the
// from-scratch measurement in every field — counters, banks, report.
func TestSessionMeasureWarmIsBitIdentical(t *testing.T) {
	opts := tinyOpts()
	ctx := context.Background()
	for _, arch := range []power.Arch{power.SC, power.MC} {
		s := NewSession(nil)
		sig, err := opts.Record(apps.MF3L)
		if err != nil {
			t.Fatal(err)
		}
		op, err := s.SolveOperatingPoint(ctx, apps.MF3L, arch, sig, opts)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := s.Measure(ctx, apps.MF3L, arch, op, sig, opts)
		if err != nil {
			t.Fatal(err)
		}
		if s.Stats().WarmMeasures != 1 {
			t.Errorf("%v: measurement did not continue the probe snapshot: %+v", arch, s.Stats())
		}
		scratch, err := MeasureFromScratch(apps.MF3L, arch, op, sig, opts, power.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(warm, scratch) {
			t.Errorf("%v: warm and scratch measurements diverge:\nwarm:    %+v\nscratch: %+v", arch, warm, scratch)
		}
	}
}

// TestSessionMeasureColdFallsBack: a measurement at an operating point the
// session never verified (or shorter than the probe window) must fall back
// to a full run and still match the from-scratch reference; measuring it
// again is a memo hit that simulates nothing and returns the same result.
func TestSessionMeasureColdFallsBack(t *testing.T) {
	opts := tinyOpts()
	ctx := context.Background()
	s := NewSession(nil)
	sig, err := opts.Record(apps.MF3L)
	if err != nil {
		t.Fatal(err)
	}
	op := OperatingPoint{FreqHz: 2.6e6, VoltageV: 0.6} // never solved by s
	cold, err := s.Measure(ctx, apps.MF3L, power.MC, op, sig, opts)
	if err != nil {
		t.Fatal(err)
	}
	if s.Stats().WarmMeasures != 0 {
		t.Errorf("cold measure claimed a warm snapshot: %+v", s.Stats())
	}
	scratch, err := MeasureFromScratch(apps.MF3L, power.MC, op, sig, opts, power.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cold, scratch) {
		t.Error("cold session measurement diverges from the from-scratch reference")
	}

	forks := s.Stats().Forks
	again, err := s.Measure(ctx, apps.MF3L, power.MC, op, sig, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Forks != forks || st.MeasureHits != 1 {
		t.Errorf("repeat measure simulated instead of hitting the memo: forks %d -> %d, measure hits %d", forks, st.Forks, st.MeasureHits)
	}
	if !reflect.DeepEqual(again, scratch) {
		t.Errorf("memoized measurement diverges from the from-scratch reference:\nmemo:    %+v\nscratch: %+v", again, scratch)
	}
	if again == cold || again.Report == cold.Report {
		t.Error("a memo hit returned the first caller's Measurement instead of its own")
	}
}

// TestSessionKeepsNoPlatform: a session memoizes results, not platforms.
// Solving and measuring 3L-MF on SC and MC for eight more seeds, after a
// first seed has built both application images, must grow the live heap by
// well under one platform per seed (a platform is about 0.66 MB). A session
// that kept a pristine template per (app, architecture, record) grew by
// about 20 MB over these eight seeds.
func TestSessionKeepsNoPlatform(t *testing.T) {
	ctx := context.Background()
	s := NewSession(nil)
	cell := func(seed int64) {
		opts := Options{Duration: 0.5, ProbeDuration: 0.3, PathoFrac: 0.2, Seed: seed, Cache: s.Cache()}
		for _, arch := range []power.Arch{power.SC, power.MC} {
			sig, err := opts.Record(apps.MF3L)
			if err != nil {
				t.Fatal(err)
			}
			op, err := s.SolveOperatingPoint(ctx, apps.MF3L, arch, sig, opts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Measure(ctx, apps.MF3L, arch, op, sig, opts); err != nil {
				t.Fatal(err)
			}
		}
	}
	liveHeap := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	cell(1)
	before := liveHeap()
	for seed := int64(2); seed <= 9; seed++ {
		cell(seed)
	}
	after := liveHeap()
	runtime.KeepAlive(s)
	if st := s.Stats(); st.Forks == 0 || st.Builds != 2 {
		t.Fatalf("session built %d platforms from %d images, want > 0 from 2", st.Forks, st.Builds)
	}
	t.Logf("live heap %d -> %d bytes over seeds 2-9", before, after)
	if after > before && after-before >= 1<<20 {
		t.Errorf("live heap grew by %.2f MB over seeds 2-9, want under 1 MB: the session keeps platforms alive",
			float64(after-before)/(1<<20))
	}
}

// TestSessionMeasureRecalibrates: the memo and the store hold simulated
// outcomes, not reports, so a session with another power calibration over
// the same store simulates nothing and still reports exactly what a
// from-scratch measurement under its own calibration does.
func TestSessionMeasureRecalibrates(t *testing.T) {
	opts := tinyOpts()
	ctx := context.Background()
	sig, err := opts.Record(apps.MF3L)
	if err != nil {
		t.Fatal(err)
	}
	op := OperatingPoint{FreqHz: 2.6e6, VoltageV: 0.6}
	st := newMemStore()
	s1 := NewSession(nil)
	s1.SetStore(st)
	if _, err := s1.Measure(ctx, apps.MF3L, power.MC, op, sig, opts); err != nil {
		t.Fatal(err)
	}

	params := power.DefaultParams()
	params.CoreActivePJ *= 2
	params.DMBankLeakUW *= 3
	s2 := NewSession(params)
	s2.SetStore(st)
	got, err := s2.Measure(ctx, apps.MF3L, power.MC, op, sig, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.Forks != 0 || st.StoreHits != 1 {
		t.Errorf("recalibrated session simulated what the store holds: %+v", st)
	}
	want, err := MeasureFromScratch(apps.MF3L, power.MC, op, sig, opts, params)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("stored outcome under new calibration diverges from scratch:\nstored:  %+v\nscratch: %+v", got.Report, want.Report)
	}
	def, err := MeasureFromScratch(apps.MF3L, power.MC, op, sig, opts, power.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if got.Report.TotalUW == def.Report.TotalUW {
		t.Error("the changed calibration did not change the report; the test proves nothing")
	}
}

// TestSessionCancellationIsNotCached: a sweep's first-error cancellation
// makes sibling in-flight solves fail with ctx.Err(); that outcome belongs
// to the canceled context, not to the grid cell, and a later solve on the
// same session must simulate afresh and succeed.
func TestSessionCancellationIsNotCached(t *testing.T) {
	opts := tinyOpts()
	s := NewSession(nil)
	sig, err := opts.Record(apps.MF3L)
	if err != nil {
		t.Fatal(err)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.SolveOperatingPoint(canceled, apps.MF3L, power.MC, sig, opts); err == nil {
		t.Fatal("solve under a canceled context must fail")
	}
	op, err := s.SolveOperatingPoint(context.Background(), apps.MF3L, power.MC, sig, opts)
	if err != nil {
		t.Fatalf("session cached the cancellation: %v", err)
	}
	want, err := SolveOperatingPointFromScratch(context.Background(), apps.MF3L, power.MC, sig, opts)
	if err != nil {
		t.Fatal(err)
	}
	if op != want {
		t.Errorf("post-cancellation solve = %+v, want %+v", op, want)
	}

	// The same rule for measurements: the canceled measurement must not be
	// memoized, so the next one simulates and matches the reference.
	if _, err := s.Measure(canceled, apps.MF3L, power.MC, op, sig, opts); err == nil {
		t.Fatal("measure under a canceled context must fail")
	}
	m, err := s.Measure(context.Background(), apps.MF3L, power.MC, op, sig, opts)
	if err != nil {
		t.Fatalf("session cached the canceled measurement: %v", err)
	}
	if hits := s.Stats().MeasureHits; hits != 0 {
		t.Errorf("measurement after the cancellation counted %d memo hits, want 0", hits)
	}
	scratch, err := MeasureFromScratch(apps.MF3L, power.MC, op, sig, opts, power.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, scratch) {
		t.Error("post-cancellation measurement diverges from the from-scratch reference")
	}
}

// TestSessionStoreRoundTrip pins the cross-process contract of the backing
// store: a second session over the first one's store answers the same solve
// and measurement bit-identically without simulating anything; a different
// record misses; and entries keyed under another results version are never
// read.
func TestSessionStoreRoundTrip(t *testing.T) {
	opts := tinyOpts()
	ctx := context.Background()
	sig, err := opts.Record(apps.MF3L)
	if err != nil {
		t.Fatal(err)
	}
	st := newMemStore()
	s1 := NewSession(nil)
	s1.SetStore(st)
	want, err := s1.SolveOperatingPoint(ctx, apps.MF3L, power.MC, sig, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Measure(ctx, apps.MF3L, power.MC, want, sig, opts); err != nil {
		t.Fatal(err)
	}

	s2 := NewSession(nil)
	s2.SetStore(st)
	got, err := s2.SolveOperatingPoint(ctx, apps.MF3L, power.MC, sig, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("stored solve = %+v, want %+v", got, want)
	}
	stored, err := s2.Measure(ctx, apps.MF3L, power.MC, got, sig, opts)
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := MeasureFromScratch(apps.MF3L, power.MC, got, sig, opts, power.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stored, scratch) {
		t.Errorf("measurement from the store diverges from scratch:\nstored:  %+v\nscratch: %+v", stored, scratch)
	}
	if st := s2.Stats(); st.ProbeRuns != 0 || st.Forks != 0 || st.WarmMeasures != 0 || st.StoreHits != 2 {
		t.Errorf("second session simulated what the store holds: %+v", st)
	}

	// A different record (different seed) must miss the store and solve
	// normally.
	o2 := opts
	o2.Seed = 7
	sig2, err := o2.Record(apps.MF3L)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.SolveOperatingPoint(ctx, apps.MF3L, power.MC, sig2, o2); err != nil {
		t.Fatal(err)
	}
	if s2.Stats().ProbeRuns == 0 {
		t.Error("differently-seeded solve was served from the store")
	}

	// The same entries written by a build of another results version: every
	// key differs only in its version field, and none may be read.
	cur, other := fmt.Sprintf("|v%d|", ResultsVersion), fmt.Sprintf("|v%d|", ResultsVersion-1)
	stale := newMemStore()
	for k, v := range st.entries {
		if !strings.Contains(k, cur) {
			t.Fatalf("store key %q lacks the results-version field %q", k, cur)
		}
		stale.entries[strings.Replace(k, cur, other, 1)] = v
	}
	s3 := NewSession(nil)
	s3.SetStore(stale)
	if got, err := s3.SolveOperatingPoint(ctx, apps.MF3L, power.MC, sig, opts); err != nil || got != want {
		t.Fatalf("solve over a stale store = %+v, %v; want %+v", got, err, want)
	}
	if _, err := s3.Measure(ctx, apps.MF3L, power.MC, want, sig, opts); err != nil {
		t.Fatal(err)
	}
	if st := s3.Stats(); st.StoreHits != 0 || st.ProbeRuns == 0 {
		t.Errorf("entries of another results version were read: %+v", st)
	}
}

// TestSessionRejectsBadDurations: a measured or probe duration that is not
// finite and positive is rejected by both entry points, naming the field,
// before any record is synthesized or platform built. A negative one used
// to wrap into an endless cycle budget.
func TestSessionRejectsBadDurations(t *testing.T) {
	ctx := context.Background()
	sig, err := tinyOpts().Record(apps.MF3L)
	if err != nil {
		t.Fatal(err)
	}
	op := OperatingPoint{FreqHz: 2e6, VoltageV: 0.6}
	for _, bad := range []float64{-1, math.NaN(), 0, math.Inf(1)} {
		for _, field := range []string{"Duration", "ProbeDuration"} {
			opts := tinyOpts()
			if field == "Duration" {
				opts.Duration = bad
			} else {
				opts.ProbeDuration = bad
			}
			s := NewSession(nil)
			if _, err := s.SolveOperatingPoint(ctx, apps.MF3L, power.MC, sig, opts); err == nil || !strings.Contains(err.Error(), field+" ") {
				t.Errorf("%s %v: solve error %v, want one naming %s", field, bad, err, field)
			}
			if _, err := s.Measure(ctx, apps.MF3L, power.MC, op, sig, opts); err == nil || !strings.Contains(err.Error(), field+" ") {
				t.Errorf("%s %v: measure error %v, want one naming %s", field, bad, err, field)
			}
			reg := obs.NewRegistry()
			s.PublishMetrics(reg)
			if n := reg.Counter("signal.cache.requests"); n != 0 {
				t.Errorf("%s %v: %d signal cache requests, want 0", field, bad, n)
			}
			if st := s.Stats(); st.Forks != 0 || st.ProbeRuns != 0 {
				t.Errorf("%s %v: session simulated (%+v)", field, bad, st)
			}
		}
	}
}
