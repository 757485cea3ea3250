package platform_test

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/apps"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/signal"
)

// snapSource synthesizes a short deterministic ECG record shared by the
// snapshot tests.
func snapSource(t testing.TB, app string) *signal.Source {
	t.Helper()
	cfg := signal.Config{Kind: signal.KindECG, Seed: 1, PathologicalFrac: 0.2}
	src, err := signal.Synthesize(apps.SourceConfig(app, cfg), 1.5)
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func newSnapPlatform(t testing.TB, app string, arch power.Arch, src *signal.Source, clockHz float64) (*apps.Variant, *platform.Platform) {
	t.Helper()
	v, err := apps.Build(app, arch)
	if err != nil {
		t.Fatal(err)
	}
	p, err := v.NewPlatform(src, clockHz, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	return v, p
}

// assertSameState compares every observable surface of two platforms.
func assertSameState(t *testing.T, v *apps.Variant, want, got *platform.Platform) {
	t.Helper()
	if *want.Counters() != *got.Counters() {
		t.Errorf("counters diverge:\nwant: %+v\ngot:  %+v", *want.Counters(), *got.Counters())
	}
	if w, g := want.Cycle(), got.Cycle(); w != g {
		t.Errorf("cycle diverges: want %d, got %d", w, g)
	}
	for c := 0; c < v.Cores; c++ {
		if w, g := want.CoreRegs(c), got.CoreRegs(c); w != g {
			t.Errorf("core %d registers diverge", c)
		}
		if w, g := want.CoreState(c), got.CoreState(c); w != g {
			t.Errorf("core %d state diverges: want %v, got %v", c, w, g)
		}
		if w, g := want.CoreBusy(c), got.CoreBusy(c); w != g {
			t.Errorf("core %d busy diverges: want %d, got %d", c, w, g)
		}
	}
	if w, g := want.MaxSampleBusy(), got.MaxSampleBusy(); w != g {
		t.Errorf("max sample busy diverges: want %d, got %d", w, g)
	}
	if w, g := want.Overruns(), got.Overruns(); w != g {
		t.Errorf("overruns diverge: want %d, got %d", w, g)
	}
	if !reflect.DeepEqual(want.Debug(), got.Debug()) {
		t.Errorf("debug streams diverge: want %d entries, got %d", len(want.Debug()), len(got.Debug()))
	}
	if !reflect.DeepEqual(want.ErrCodes(), got.ErrCodes()) {
		t.Errorf("error streams diverge: want %d entries, got %d", len(want.ErrCodes()), len(got.ErrCodes()))
	}
	if !reflect.DeepEqual(want.Snapshot(), got.Snapshot()) {
		t.Error("full snapshots diverge")
	}
}

// TestSnapshotRestoreRewind pins the rewind/replay contract: restoring a
// mid-run snapshot and re-simulating reproduces the exact final state.
func TestSnapshotRestoreRewind(t *testing.T) {
	src := snapSource(t, apps.MF3L)
	v, p := newSnapPlatform(t, apps.MF3L, power.MC, src, 2e6)
	if err := p.RunSeconds(0.3); err != nil {
		t.Fatal(err)
	}
	mid := p.Snapshot()
	if err := p.RunSeconds(0.3); err != nil {
		t.Fatal(err)
	}
	final := p.Snapshot()

	if err := p.Restore(mid); err != nil {
		t.Fatal(err)
	}
	if err := p.RunSeconds(0.3); err != nil {
		t.Fatal(err)
	}
	replayed := p.Snapshot()
	if !reflect.DeepEqual(final, replayed) {
		t.Errorf("replay from mid-run snapshot diverges from the original run:\nwant %+v\ngot  %+v", final, replayed)
	}
	_ = v
}

// TestSnapshotContinuationMatchesStraightRun pins the amortized-warm-up
// contract: a second platform restored from a mid-run snapshot and run to
// completion is bit-identical to one platform simulating straight through —
// for every benchmark on both the single- and multi-core fabrics.
func TestSnapshotContinuationMatchesStraightRun(t *testing.T) {
	for _, app := range apps.Names {
		for _, arch := range []power.Arch{power.SC, power.MC} {
			app, arch := app, arch
			t.Run(fmt.Sprintf("%s/%v", app, arch), func(t *testing.T) {
				src := snapSource(t, app)
				v, straight := newSnapPlatform(t, app, arch, src, 2e6)
				if err := straight.RunSeconds(0.6); err != nil {
					t.Fatal(err)
				}

				_, first := newSnapPlatform(t, app, arch, src, 2e6)
				if err := first.RunSeconds(0.25); err != nil {
					t.Fatal(err)
				}
				snap := first.Snapshot()
				_, resumed := newSnapPlatform(t, app, arch, src, 2e6)
				if err := resumed.Restore(snap); err != nil {
					t.Fatal(err)
				}
				// Exact remaining budget: total minus the cycles already
				// simulated, so the chunked run lands on the same cycle.
				total := resumed.CyclesFor(0.6)
				if err := resumed.Run(total - resumed.Cycle()); err != nil {
					t.Fatal(err)
				}
				assertSameState(t, v, straight, resumed)
			})
		}
	}
}

// TestRunChunkingIsInvisible pins that slicing one budget into many Run
// calls (as the session's early-abort verification loop does) steps exactly
// the same cycles as a single call.
func TestRunChunkingIsInvisible(t *testing.T) {
	src := snapSource(t, apps.MMD3L)
	v, whole := newSnapPlatform(t, apps.MMD3L, power.MC, src, 2e6)
	if err := whole.RunSeconds(0.5); err != nil {
		t.Fatal(err)
	}
	_, chunked := newSnapPlatform(t, apps.MMD3L, power.MC, src, 2e6)
	total := chunked.CyclesFor(0.5)
	for chunked.Cycle() < total {
		n := uint64(7001)
		if rem := total - chunked.Cycle(); rem < n {
			n = rem
		}
		if err := chunked.Run(n); err != nil {
			t.Fatal(err)
		}
	}
	assertSameState(t, v, whole, chunked)
}

// TestRestoreValidatesConfig pins the identity checks: Restore refuses a
// snapshot captured at another clock or on another architecture.
func TestRestoreValidatesConfig(t *testing.T) {
	src := snapSource(t, apps.MF3L)
	_, p := newSnapPlatform(t, apps.MF3L, power.MC, src, 2e6)
	snap := p.Snapshot()
	_, other := newSnapPlatform(t, apps.MF3L, power.MC, src, 4e6)
	if err := other.Restore(snap); err == nil {
		t.Error("restore must reject a clock mismatch")
	}
	_, sc := newSnapPlatform(t, apps.MF3L, power.SC, src, 2e6)
	if err := sc.Restore(snap); err == nil {
		t.Error("restore must reject an architecture mismatch")
	}
}

// TestSnapshotFileRoundTrip pins the on-disk format: encode/decode is
// lossless, foreign streams are rejected, and a version bump is refused
// instead of misread.
func TestSnapshotFileRoundTrip(t *testing.T) {
	src := snapSource(t, apps.MF3L)
	_, p := newSnapPlatform(t, apps.MF3L, power.MC, src, 2e6)
	if err := p.RunSeconds(0.2); err != nil {
		t.Fatal(err)
	}
	file := &platform.SnapshotFile{
		Meta: map[string]string{"app": apps.MF3L, "arch": "MC"},
		Snap: p.Snapshot(),
	}
	var buf bytes.Buffer
	if err := platform.WriteSnapshotFile(&buf, file); err != nil {
		t.Fatal(err)
	}
	got, err := platform.ReadSnapshotFile(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(file, got) {
		t.Error("snapshot file round-trip is lossy")
	}
	// The decoded snapshot restores and continues.
	_, resumed := newSnapPlatform(t, apps.MF3L, power.MC, src, 2e6)
	if err := resumed.Restore(got.Snap); err != nil {
		t.Fatal(err)
	}

	if _, err := platform.ReadSnapshotFile(bytes.NewReader([]byte("not a snapshot"))); err == nil {
		t.Error("garbage input must be rejected")
	}

	// A future format version must be refused. gob decodes by field name,
	// so a structurally identical envelope stands in for one written by a
	// newer build.
	type envelope struct {
		Magic   string
		Version int
		File    platform.SnapshotFile
	}
	var vbuf bytes.Buffer
	if err := gob.NewEncoder(&vbuf).Encode(envelope{
		Magic:   "wbsn-platform-snapshot",
		Version: platform.SnapshotVersion + 1,
		File:    *file,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := platform.ReadSnapshotFile(bytes.NewReader(vbuf.Bytes())); err == nil {
		t.Error("version mismatch must be rejected")
	}
}
