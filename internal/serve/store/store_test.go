package store

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/exp"
)

func TestSolveDemandRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := "solve|3l-mf|multi:sync|sig={...}|dur=2.5|exact=false"
	op := exp.OperatingPoint{FreqHz: 1.1e6 / 3, VoltageV: 0.7000000000000001}
	if _, ok, err := s.GetSolve(key); ok || err != nil {
		t.Fatalf("empty store: ok=%v err=%v", ok, err)
	}
	if err := s.PutSolve(key, op); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.GetSolve(key)
	if err != nil || !ok {
		t.Fatalf("get after put: ok=%v err=%v", ok, err)
	}
	if got != op {
		// Bit-exactness matters: the determinism contract hangs on it.
		t.Fatalf("round trip changed the point: %v != %v", got, op)
	}

	d := 123456.78900000001
	if err := s.PutDemand("demand|x", d); err != nil {
		t.Fatal(err)
	}
	gd, ok, err := s.GetDemand("demand|x")
	if err != nil || !ok || gd != d {
		t.Fatalf("demand round trip: %v/%v/%v", gd, ok, err)
	}

	hits, misses, puts := s.Stats()
	if hits != 2 || misses != 1 || puts != 2 {
		t.Fatalf("stats %d/%d/%d, want 2/1/2", hits, misses, puts)
	}
}

func TestMeasureRoundTripAndLen(t *testing.T) {
	dir := t.TempDir()
	// A warm/ directory of probe-boundary snapshots, as older builds left
	// it: ignored, and never counted.
	if err := os.MkdirAll(filepath.Join(dir, "warm"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "warm", "old.snap"), []byte("gob"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := exp.MeasureOutcome{ActiveIMBanks: 1, ActiveDMBanks: 4}
	out.Counters.Cycles = 1<<63 + 12345 // beyond float64's exact integers
	out.Counters.Instrs = 987654321
	out.Counters.SyncGroupOps[1] = 77
	key := "measure|v3|3l-mf|arch[...]|sig={...}|freq=1e+06|volt=0.5|dur=10|probe=2.5|exact=false"
	if err := s.PutMeasure(key, out); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.GetMeasure(key)
	if err != nil || !ok {
		t.Fatalf("get after put: ok=%v err=%v", ok, err)
	}
	if got != out {
		t.Fatalf("round trip changed the outcome:\n got: %+v\nwant: %+v", got, out)
	}
	solves, demands, measures, err := s.Len()
	if err != nil || solves != 0 || demands != 0 || measures != 1 {
		t.Fatalf("len %d/%d/%d err=%v, want 0/0/1", solves, demands, measures, err)
	}
}

func TestReopenedStoreServesEntries(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	op := exp.OperatingPoint{FreqHz: 2.2e6, VoltageV: 0.8}
	if err := s1.PutSolve("k", op); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := s2.GetSolve("k")
	if err != nil || !ok || got != op {
		t.Fatalf("reopened store: %v/%v/%v", got, ok, err)
	}
	solves, demands, measures, err := s2.Len()
	if err != nil || solves != 1 || demands != 0 || measures != 0 {
		t.Fatalf("len %d/%d/%d err=%v, want 1/0/0", solves, demands, measures, err)
	}
}

func TestKeyMismatchIsCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutSolve("key-a", exp.OperatingPoint{FreqHz: 1e6, VoltageV: 0.5}); err != nil {
		t.Fatal(err)
	}
	// Move the entry onto key-b's content address: the stored key no longer
	// matches the requested one, which must surface, not silently serve a
	// wrong operating point.
	a := s.path("solve", "key-a", ".json")
	b := s.path("solve", "key-b", ".json")
	if err := os.Rename(a, b); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.GetSolve("key-b"); ok || err == nil || !strings.Contains(err.Error(), "different key") {
		t.Fatalf("misplaced entry: ok=%v err=%v", ok, err)
	}

	// A truncated entry is corruption, not a miss.
	if err := os.WriteFile(b, []byte(`{"key":"key-b","freq`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.GetSolve("key-b"); ok || err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("truncated entry: ok=%v err=%v", ok, err)
	}

	// An entry cut down to its key still parses, but carries no result:
	// corruption too, in every class, never a zero-valued answer.
	for _, class := range []string{"solve", "demand", "measure"} {
		if err := os.WriteFile(s.path(class, "key-b", ".json"), []byte(`{"key":"key-b"}`), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok, err := s.GetSolve("key-b"); ok || err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("key-only solve entry: ok=%v err=%v", ok, err)
	}
	if _, ok, err := s.GetDemand("key-b"); ok || err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("key-only demand entry: ok=%v err=%v", ok, err)
	}
	if _, ok, err := s.GetMeasure("key-b"); ok || err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("key-only measure entry: ok=%v err=%v", ok, err)
	}
}

func TestAtomicWriteLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.PutDemand("k", float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(filepath.Join(dir, "demand"))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Fatalf("demand dir holds %v, want exactly one entry", names)
	}
}
