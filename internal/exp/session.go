package exp

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/apps"
	"repro/internal/memo"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/signal"
)

// Session is the experiment engine: every operating-point solve and power
// measurement runs through one, and everything expensive a grid of them
// shares is memoized on it — built application images, probe demand
// estimates (MC and MC-nosync dimension against the same proposed-system
// probe, so one simulation serves both), solved operating points,
// measurement outcomes (a grid that measures one cell twice simulates it
// once), and the probe-boundary platform snapshots that let a first
// measurement continue the verified probe run instead of re-simulating its
// warm-up window. Platforms are not memoized: every probe, candidate
// verification and cold measurement builds its own from the memoized image
// (newPlatform), exactly as the from-scratch reference does, and the
// session keeps none between calls.
//
// Results are bit-identical to solving and measuring each point from
// scratch: platforms are built as the reference builds them, continuing a
// snapshot equals never having stopped (pinned by internal/platform's
// golden tests), and the remaining reuse is pure memoization of
// deterministic computations. The session-vs-scratch golden matrix in
// session_test.go enforces this across every benchmark, architecture and
// bundled scenario.
//
// A Session is safe for concurrent use; the parallel sweep engine threads
// one through its whole worker pool. Solved points, demand estimates and
// measurement outcomes outlive the process only through a PointStore
// installed with SetStore.
type Session struct {
	params *power.Params
	cache  *signal.Cache

	// The memos: each runs a key's computation once among concurrent
	// callers and remembers its outcome (internal/memo).
	variants *memo.Table[variantKey, *apps.Variant]
	demands  *memo.Table[string, float64]
	solved   *memo.Table[string, OperatingPoint]
	measured *memo.Table[string, MeasureOutcome]

	mu    sync.Mutex
	warm  map[warmKey]*platform.Snapshot
	store PointStore

	stats SessionStats
}

// SessionStats counts the work a session performed and the work its caches
// saved, for progress reporting and the reuse assertions in tests.
type SessionStats struct {
	// Builds is the number of application images actually assembled/linked.
	Builds uint64
	// Forks is the number of platforms the session built for probes,
	// candidate verifications and cold measurements; a warm measurement's
	// platform counts under WarmMeasures instead. (The name is historical;
	// perfbench and CI read it by name.)
	Forks uint64
	// ProbeRuns is the number of demand-estimation simulations executed.
	ProbeRuns uint64
	// DemandHits is the number of demand estimates served from cache.
	DemandHits uint64
	// SolveHits is the number of solves served from the solved-point cache.
	SolveHits uint64
	// MeasureHits is the number of measurements served from the in-memory
	// measurement memo.
	MeasureHits uint64
	// EarlyAborts is the number of candidate verifications cut short by a
	// real-time violation before their full probe window.
	EarlyAborts uint64
	// WarmMeasures is the number of measurements that continued a verified
	// probe-boundary snapshot instead of re-simulating its window.
	WarmMeasures uint64

	// Fast-forward work across every simulation the session ran (probes,
	// candidate verifications, measurements): idle-quiescence leaps and the
	// cycles they accounted in bulk instead of stepping. Wall-clock
	// diagnostics — Options.Exact zeroes them by forcing the
	// cycle-accurate path — whose totals depend on run chunking, never on
	// results (which are bit-identical either way).
	FFLeaps         uint64
	FFSkippedCycles uint64
	// SpinSkippedCycles is always 0.
	//
	// Deprecated: the spin-loop engine is gone; strides park busy-wait
	// pollers and leap once every participant is parked, inside
	// BlockMCCycles. Kept only until perfbench stops reading it.
	SpinSkippedCycles uint64

	// Basic-block engine work: fast-path engagements and the cycles they
	// executed with bulk accounting instead of Step's per-cycle dispatch,
	// split into single-core block runs and multi-core lock-step strides.
	// The same wall-clock-diagnostic caveats apply, with one difference:
	// block cycles were fully simulated, not skipped.
	BlockRuns      uint64
	BlockCycles    uint64
	BlockMCStrides uint64
	BlockMCCycles  uint64

	// Backing-store traffic (zero without a SetStore): results served from
	// the persistent store instead of simulated, results written through,
	// and non-fatal store failures (a failed read recomputes, a failed
	// write loses only amortization — determinism keeps both safe).
	StoreHits uint64
	StorePuts uint64
	StoreErrs uint64
}

// Publish writes the session's work counters into reg under the
// "session." namespace — the registry form of the old ad-hoc "session:"
// stderr lines, printed uniformly by the CLIs via Registry.WriteText. The
// counters are cumulative, so publication binds absolute values (Set) and
// is idempotent: end-of-run CLIs publish once, the serving layer's metrics
// endpoint republishes on every scrape.
func (st SessionStats) Publish(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Set("session.builds", st.Builds)
	reg.Set("session.forks", st.Forks)
	reg.Set("session.probe_runs", st.ProbeRuns)
	reg.Set("session.demand_hits", st.DemandHits)
	reg.Set("session.solve_hits", st.SolveHits)
	reg.Set("session.measure_hits", st.MeasureHits)
	reg.Set("session.early_aborts", st.EarlyAborts)
	reg.Set("session.warm_measures", st.WarmMeasures)
	reg.Set("session.ff_leaps", st.FFLeaps)
	reg.Set("session.ff_skipped_cycles", st.FFSkippedCycles)
	reg.Set("session.block_runs", st.BlockRuns)
	reg.Set("session.block_cycles", st.BlockCycles)
	reg.Set("session.block_mc_strides", st.BlockMCStrides)
	reg.Set("session.block_mc_cycles", st.BlockMCCycles)
	reg.Set("session.store_hits", st.StoreHits)
	reg.Set("session.store_puts", st.StorePuts)
	reg.Set("session.store_errs", st.StoreErrs)
}

// NewSession returns an empty session calibrated by params (nil selects
// power.DefaultParams()).
func NewSession(params *power.Params) *Session {
	if params == nil {
		params = power.DefaultParams()
	}
	return &Session{
		params:   params,
		cache:    signal.NewCache(),
		variants: memo.New[variantKey, *apps.Variant](0),
		demands:  memo.New[string, float64](0),
		solved:   memo.New[string, OperatingPoint](0),
		measured: memo.New[string, MeasureOutcome](0),
		warm:     map[warmKey]*platform.Snapshot{},
	}
}

// Cache returns the session's signal cache, shared so callers (the sweep
// engine, the CLIs) key their own synthesis through the same memoization.
func (s *Session) Cache() *signal.Cache { return s.cache }

// TemplateCacheStats returns zeros: the session keeps no platform
// templates.
//
// Deprecated: the template cache is gone; every platform is built from its
// image. Kept only until perfbench stops calling it.
func (s *Session) TemplateCacheStats() (hits, misses, evictions uint64) {
	return 0, 0, 0
}

// PublishMetrics publishes everything the session can report into reg: the
// work counters (SessionStats.Publish) plus the signal-cache request, synth
// and hit counters. Idempotent (absolute values), so both the end-of-run
// CLIs and the serving layer's per-scrape metrics endpoint call it freely.
func (s *Session) PublishMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	s.Stats().Publish(reg)
	req, syn := s.cache.Stats()
	reg.Set("signal.cache.requests", req)
	reg.Set("signal.cache.synths", syn)
	reg.Set("signal.cache.hits", req-syn)
}

// SetParams replaces the power calibration used by subsequent measurements,
// memoized and stored ones included: their reports are recomputed from the
// simulated outcome (solved operating points are frequency/voltage searches
// and do not depend on it). The sweep engine calls this so a caller-assigned Sweep.Params
// keeps calibrating reports, as it did before sessions existed.
func (s *Session) SetParams(params *power.Params) {
	if params == nil {
		return
	}
	s.mu.Lock()
	s.params = params
	s.mu.Unlock()
}

// measureParams returns the current calibration.
func (s *Session) measureParams() *power.Params {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.params
}

// Stats returns a copy of the session's work counters.
func (s *Session) Stats() SessionStats {
	s.mu.Lock()
	st := s.stats
	s.mu.Unlock()
	_, st.Builds, _ = s.variants.Stats()
	st.DemandHits, _, _ = s.demands.Stats()
	st.SolveHits, _, _ = s.solved.Stats()
	st.MeasureHits, _, _ = s.measured.Stats()
	return st
}

func (s *Session) count(f func(*SessionStats)) {
	s.mu.Lock()
	f(&s.stats)
	s.mu.Unlock()
}

// recordFF accumulates the fast-forward and block-engine work of p into the
// session statistics. Every platform a session runs is freshly built or
// restored, so its engine odometers start at zero and its totals are added
// once, after its last run.
func (s *Session) recordFF(p *platform.Platform) {
	s.count(func(st *SessionStats) {
		st.FFLeaps += p.FFLeaps()
		st.FFSkippedCycles += p.FFSkippedCycles()
		st.BlockRuns += p.BlockRuns()
		st.BlockCycles += p.BlockCycles()
		st.BlockMCStrides += p.BlockMCStrides()
		st.BlockMCCycles += p.BlockMCCycles()
	})
}

// sourceKey identifies a synthesized record: generators are deterministic
// pure functions of the normalized configuration, so the configuration plus
// the per-channel trace lengths (records of different durations wrap
// differently) pin the record bit-for-bit.
type sourceKey struct {
	Cfg              signal.Config
	Len0, Len1, Len2 int
}

func keyOf(src *signal.Source) sourceKey {
	return sourceKey{
		Cfg:  src.Cfg,
		Len0: len(src.Traces[0]),
		Len1: len(src.Traces[1]),
		Len2: len(src.Traces[2]),
	}
}

type variantKey struct {
	App  string
	Arch power.Arch
}

type warmKey struct {
	VK            variantKey
	Sig           sourceKey
	FreqHz        float64
	VoltageV      float64
	ProbeDuration float64
	Exact         bool
}

// variant returns the built (assembled, linked) application image for
// (app, arch), building it at most once per session.
func (s *Session) variant(app string, arch power.Arch) (*apps.Variant, error) {
	v, _, err := s.variants.Do(variantKey{App: app, Arch: arch}, func() (*apps.Variant, error) {
		return apps.Build(app, arch)
	})
	return v, err
}

// newPlatform builds a fresh platform from v's image fed with src at an
// operating point, exactly as the from-scratch reference does, and counts
// it in SessionStats.Forks.
func (s *Session) newPlatform(v *apps.Variant, src *signal.Source, clockHz, voltageV float64, exact bool) (*platform.Platform, error) {
	p, err := v.NewPlatform(src, clockHz, voltageV)
	if err != nil {
		return nil, err
	}
	p.SetExact(exact)
	s.count(func(st *SessionStats) { st.Forks++ })
	return p, nil
}

// withCache returns opts with the session's signal cache installed unless
// the caller brought their own.
func (s *Session) withCache(opts Options) Options {
	if opts.Cache == nil {
		opts.Cache = s.cache
	}
	return opts
}

// demandKeyString serializes the demand-cache identity (stable across
// processes, so the backing store can persist it). The measured record's base
// rate is part of it: the SC per-sample deadline peak is derived from it, so
// two solves probing the same record but measuring differently-rated ones
// must not share an estimate.
func demandKeyString(app string, demandArch power.Arch, probe sourceKey, baseRateHz float64, opts Options) string {
	return fmt.Sprintf("demand|v%d|%s|%s|%+v|rate=%v|probe=%v|exact=%v", ResultsVersion, app, demandArch.Key(), probe, baseRateHz, opts.ProbeDuration, opts.Exact)
}

// probeError marks a failure of the demand-estimation run itself. The probe
// is shared between MC and MC-nosync, but the from-scratch reference labels
// its errors with the *requested* architecture, so the session caches the
// bare failure and each solve formats its own label (keeping error text in
// lock-step with the reference for every requester).
type probeError struct {
	realTime bool // failed checkRealTime (vs. a simulation fault)
	err      error
}

func (e *probeError) Error() string { return e.err.Error() }
func (e *probeError) Unwrap() error { return e.err }

// solveKeyString serializes the solved-point identity: everything the
// escalation loop's outcome depends on.
func solveKeyString(app string, arch power.Arch, sig, probe sourceKey, opts Options) string {
	return fmt.Sprintf("solve|v%d|%s|%s|sig=%+v|probe=%+v|dur=%v|exact=%v", ResultsVersion, app, arch.Key(), sig, probe, opts.ProbeDuration, opts.Exact)
}

// SolveOperatingPoint finds the minimum real-time clock and sustaining
// voltage for app on arch fed with sig, exactly as
// SolveOperatingPointFromScratch does, but amortized through the session:
// the demand probe simulates once per (app, demand architecture, record),
// the application image is built once per (app, architecture), failed
// candidates abort at the first real-time violation instead of completing
// their probe window (violations only accumulate, so the verdict — and
// hence the solved point — is unchanged), and the verified probe run is
// snapshotted at its boundary so a following Measure continues it.
func (s *Session) SolveOperatingPoint(ctx context.Context, app string, arch power.Arch, sig *signal.Source, opts Options) (OperatingPoint, error) {
	if err := opts.checkDurations(); err != nil {
		return OperatingPoint{}, err
	}
	opts = s.withCache(opts)
	probeSig, err := opts.probeRecord(app)
	if err != nil {
		return OperatingPoint{}, err
	}
	key := solveKeyString(app, arch, keyOf(sig), keyOf(probeSig), opts)
	return recall(s, s.solved, key, PointStore.GetSolve, PointStore.PutSolve, func() (OperatingPoint, error) {
		return s.solve(ctx, app, arch, sig, probeSig, opts)
	})
}

// demand estimates (or recalls) the frequency demand of app probed on
// demandArch, margin applied — the seed of the escalation loop. baseRateHz
// is the measured record's base sampling rate, which the SC per-sample
// deadline peak is derived from (matching the from-scratch reference, which
// uses the caller's record, not the probe record).
func (s *Session) demand(ctx context.Context, app string, demandArch power.Arch, probeSig *signal.Source, baseRateHz float64, opts Options) (float64, error) {
	key := demandKeyString(app, demandArch, keyOf(probeSig), baseRateHz, opts)
	return recall(s, s.demands, key, PointStore.GetDemand, PointStore.PutDemand, func() (float64, error) {
		return s.runProbe(ctx, app, demandArch, probeSig, baseRateHz, opts)
	})
}

// runProbe executes the busy-cycle estimation run at the generous probe
// clock, mirroring the from-scratch path bit for bit. Probe failures come
// back as *probeError so the requesting solve can label them with its own
// architecture.
func (s *Session) runProbe(ctx context.Context, app string, demandArch power.Arch, probeSig *signal.Source, baseRateHz float64, opts Options) (float64, error) {
	v, err := s.variant(app, demandArch)
	if err != nil {
		return 0, err
	}
	p, err := s.newPlatform(v, probeSig, probeClockHz, 1.0, opts.Exact)
	if err != nil {
		return 0, err
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	s.count(func(st *SessionStats) { st.ProbeRuns++ })
	if opts.Obs != nil {
		p.SetObserver(opts.Obs)
	}
	err = p.RunSeconds(opts.ProbeDuration)
	s.recordFF(p)
	if opts.Obs != nil && err == nil {
		opts.Obs.Phase(fmt.Sprintf("probe %s/%v", app, demandArch), 0, p.Cycle(), 0)
	}
	if err != nil {
		return 0, &probeError{err: err}
	}
	if err := checkRealTime(p); err != nil {
		return 0, &probeError{realTime: true, err: err}
	}
	var busiest uint64
	for c := 0; c < v.Cores; c++ {
		if b := p.CoreBusy(c); b > busiest {
			busiest = b
		}
	}
	demand := float64(busiest) / opts.ProbeDuration
	if !demandArch.IsMulti() {
		// Sequential workloads carry the per-sample deadline on one core:
		// the worst busy window within a sample period binds.
		if peak := float64(p.MaxSampleBusy()) * baseRateHz; peak > demand {
			demand = peak
		}
	}
	return demand * freqMargin, nil
}

// solve runs the escalation loop on session state. The demand schedule, the
// candidate sequence and every verification verdict match the from-scratch
// reference exactly; only the work to reach them is amortized.
func (s *Session) solve(ctx context.Context, app string, arch power.Arch, sig, probeSig *signal.Source, opts Options) (OperatingPoint, error) {
	// Active waiting keeps cores busy at any frequency, so a busy-wait
	// variant's demand cannot be estimated from its own busy counters; the
	// sync-unit twin's demand seeds the search (see the from-scratch
	// reference), which also means each busy-wait descriptor shares one
	// probe run with its sync-unit counterpart (MC-nosync with MC).
	demandArch := arch
	demandArch.BusyWait = false
	demand, err := s.demand(ctx, app, demandArch, probeSig, sig.BaseRateHz(), opts)
	if err != nil {
		var pe *probeError
		if errors.As(err, &pe) {
			// Label the shared probe's failure with the architecture this
			// solve was asked for, exactly as the reference does.
			if pe.realTime {
				return OperatingPoint{}, fmt.Errorf("exp: %s/%v probe at %.0f Hz: %w", app, arch, probeClockHz, pe.err)
			}
			return OperatingPoint{}, fmt.Errorf("exp: %s/%v probe: %w", app, arch, pe.err)
		}
		return OperatingPoint{}, err
	}

	v, err := s.variant(app, arch)
	if err != nil {
		return OperatingPoint{}, err
	}
	vfs := power.DefaultVFS()
	var lastFailedFreq float64
	for try := 0; try < 12; try++ {
		freq := power.ClampFreq(demand)
		if freq == lastFailedFreq {
			// The escalated demand is still below the platform's clock
			// floor: the clamp pins the candidate at the frequency that
			// just failed, and the simulator is deterministic, so skip the
			// redundant re-verification and keep escalating until the
			// clamp moves (consuming the try budget exactly as a failed
			// verification would, keeping the demand schedule unchanged).
			demand *= 1.2
			continue
		}
		op, err := power.MinVoltage(vfs, arch, freq)
		if err != nil {
			return OperatingPoint{}, err
		}
		pp, err := s.newPlatform(v, sig, freq, op.VoltageV, opts.Exact)
		if err != nil {
			return OperatingPoint{}, err
		}
		if err := ctx.Err(); err != nil {
			return OperatingPoint{}, err
		}
		if opts.Obs != nil {
			pp.SetObserver(opts.Obs)
		}
		pass, err := s.verify(pp, opts.ProbeDuration)
		if err != nil {
			return OperatingPoint{}, err
		}
		if opts.Obs != nil {
			opts.Obs.Phase(fmt.Sprintf("verify %s/%v @%.2fMHz", app, arch, freq/1e6), 0, pp.Cycle(), int64(try))
		}
		if !pass {
			lastFailedFreq = freq
			demand *= 1.2
			continue
		}
		// The passing run ends exactly at the probe boundary of the
		// verified configuration: snapshot it so Measure at this operating
		// point continues instead of re-simulating the window. A busy-wait
		// variant's returned point is bumped below the verified frequency,
		// so its snapshot could never be looked up — don't retain it.
		if !arch.BusyWait {
			wk := warmKey{
				VK:            variantKey{App: app, Arch: arch},
				Sig:           keyOf(sig),
				FreqHz:        freq,
				VoltageV:      op.VoltageV,
				ProbeDuration: opts.ProbeDuration,
				Exact:         opts.Exact,
			}
			snap := pp.Snapshot()
			s.mu.Lock()
			s.warm[wk] = snap
			s.mu.Unlock()
		}
		if arch.BusyWait {
			// Divergence-induced deadline misses are bursty: a point that
			// verifies over the probe window can still slip over longer
			// runs. Extra headroom is strictly safe for a busy-wait
			// variant (idle cycles are spent spinning).
			freq *= 1.1
			op, err = power.MinVoltage(vfs, arch, freq)
			if err != nil {
				return OperatingPoint{}, err
			}
		}
		return OperatingPoint{FreqHz: freq, VoltageV: op.VoltageV}, nil
	}
	if power.ClampFreq(demand) == lastFailedFreq {
		return OperatingPoint{}, fmt.Errorf(
			"exp: %s/%v: misses real time at the clamped %.2f MHz clock floor and the escalated demand (%.2f MHz) cannot raise it",
			app, arch, lastFailedFreq/1e6, demand/1e6)
	}
	return OperatingPoint{}, fmt.Errorf("exp: %s/%v: no real-time frequency found (demand %.2f MHz)", app, arch, demand/1e6)
}

// verifyChunks slices each verification window: real-time violations only
// accumulate, so checking between chunks lets a failing candidate abort at
// the first violation with the verdict — and therefore the solved operating
// point — unchanged. More chunks abort failing candidates earlier at the
// cost of more checks; the checks are O(1).
const verifyChunks = 64

// verify runs the candidate platform over the probe window, returning
// whether it met real time. Simulation faults (not real-time violations)
// surface as errors, exactly as in the from-scratch reference.
func (s *Session) verify(pp *platform.Platform, seconds float64) (bool, error) {
	total := pp.CyclesFor(seconds)
	chunk := total/verifyChunks + 1
	defer s.recordFF(pp)
	for pp.Cycle() < total {
		n := chunk
		if rem := total - pp.Cycle(); rem < n {
			n = rem
		}
		if err := pp.Run(n); err != nil {
			return false, err
		}
		if checkRealTime(pp) != nil {
			if pp.Cycle() < total {
				s.count(func(st *SessionStats) { st.EarlyAborts++ })
			}
			return false, nil
		}
		if pp.AllHalted() {
			// The reference's single RunSeconds stops at full halt;
			// re-entering Run would step (and sample) past it.
			break
		}
	}
	return true, nil
}

// measureKeyString serializes the measurement identity: everything the
// simulated outcome depends on. The power calibration is not part of it;
// each call computes its report from the outcome under the session's
// current calibration.
func measureKeyString(app string, arch power.Arch, sig sourceKey, op OperatingPoint, opts Options) string {
	return fmt.Sprintf("measure|v%d|%s|%s|sig=%+v|freq=%v|volt=%v|dur=%v|probe=%v|exact=%v",
		ResultsVersion, app, arch.Key(), sig, op.FreqHz, op.VoltageV, opts.Duration, opts.ProbeDuration, opts.Exact)
}

// Measure runs app/arch at the given operating point for opts.Duration and
// computes the power report, exactly as MeasureFromScratch does, but
// amortized through the session: the simulated outcome is memoized under
// the measurement's full identity (concurrent identical measurements share
// one simulation, and a repeat simulates nothing) and written through to
// the backing store, so a later process answers it without simulating.
// Each call computes its own report from the outcome under the session's
// current calibration. When the session holds the probe-boundary snapshot
// of this exact configuration (the solve's verified candidate), the first
// measurement continues it — bit-identical to a from-scratch run
// (continuation equivalence is pinned by internal/platform's golden tests).
func (s *Session) Measure(ctx context.Context, app string, arch power.Arch, op OperatingPoint, sig *signal.Source, opts Options) (*Measurement, error) {
	if err := opts.checkDurations(); err != nil {
		return nil, err
	}
	v, err := s.variant(app, arch)
	if err != nil {
		return nil, err
	}
	key := measureKeyString(app, arch, keyOf(sig), op, opts)
	out, err := recall(s, s.measured, key, PointStore.GetMeasure, PointStore.PutMeasure, func() (MeasureOutcome, error) {
		return s.measure(ctx, v, app, arch, op, sig, opts)
	})
	if err != nil {
		return nil, err
	}
	return out.measurement(v, app, arch, op, s.measureParams())
}

// measure simulates one measurement and returns its outcome, continuing the
// probe-boundary snapshot when the session holds one for this
// configuration and building a fresh platform otherwise.
func (s *Session) measure(ctx context.Context, v *apps.Variant, app string, arch power.Arch, op OperatingPoint, sig *signal.Source, opts Options) (MeasureOutcome, error) {
	if err := ctx.Err(); err != nil {
		return MeasureOutcome{}, err
	}
	wk := warmKey{
		VK:            variantKey{App: app, Arch: arch},
		Sig:           keyOf(sig),
		FreqHz:        op.FreqHz,
		VoltageV:      op.VoltageV,
		ProbeDuration: opts.ProbeDuration,
		Exact:         opts.Exact,
	}
	s.mu.Lock()
	snap := s.warm[wk]
	s.mu.Unlock()

	var p *platform.Platform
	if snap != nil && opts.Duration >= opts.ProbeDuration {
		pp, err := v.NewPlatform(sig, op.FreqHz, op.VoltageV)
		if err != nil {
			return MeasureOutcome{}, err
		}
		pp.SetExact(opts.Exact)
		if err := pp.Restore(snap); err != nil {
			return MeasureOutcome{}, err
		}
		if opts.Obs != nil {
			pp.SetObserver(opts.Obs)
		}
		warmStart := pp.Cycle()
		total := pp.CyclesFor(opts.Duration)
		if pp.Cycle() <= total {
			// A snapshot of a fully halted run is already final: the
			// reference's RunSeconds would have stopped at the halt, so
			// continuing would step (and sample) past it.
			if !pp.AllHalted() {
				err := pp.Run(total - pp.Cycle())
				s.recordFF(pp)
				if err != nil {
					return MeasureOutcome{}, fmt.Errorf("exp: %s/%v measure: %w", app, arch, err)
				}
			}
			s.count(func(st *SessionStats) { st.WarmMeasures++ })
			if opts.Obs != nil {
				opts.Obs.Phase(fmt.Sprintf("measure %s/%v (warm)", app, arch), warmStart, pp.Cycle()-warmStart, 0)
			}
			p = pp
			// The outcome is memoized from here on; drop the snapshot
			// (megabytes per configuration) now that it served its purpose.
			// A measurement of another duration falls back to the cold
			// path, which is bit-identical.
			s.mu.Lock()
			if s.warm[wk] == snap {
				delete(s.warm, wk)
			}
			s.mu.Unlock()
		}
	}
	if p == nil {
		var err error
		p, err = s.newPlatform(v, sig, op.FreqHz, op.VoltageV, opts.Exact)
		if err != nil {
			return MeasureOutcome{}, err
		}
		if opts.Obs != nil {
			p.SetObserver(opts.Obs)
		}
		err = p.RunSeconds(opts.Duration)
		s.recordFF(p)
		if err != nil {
			return MeasureOutcome{}, fmt.Errorf("exp: %s/%v measure: %w", app, arch, err)
		}
		if opts.Obs != nil {
			opts.Obs.Phase(fmt.Sprintf("measure %s/%v", app, arch), 0, p.Cycle(), 0)
		}
	}
	if err := measuredRealTime(p, app, arch, op); err != nil {
		return MeasureOutcome{}, err
	}
	return MeasureOutcome{Counters: *p.Counters(), ActiveIMBanks: p.ActiveIMBanks(), ActiveDMBanks: p.ActiveDMBanks()}, nil
}
