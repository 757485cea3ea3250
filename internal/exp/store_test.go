package exp

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/power"
)

// faultyStore fails every operation: the session must treat that as cache
// misses plus an error count, never as a fatal condition.
type faultyStore struct{}

var errSick = errors.New("disk on fire")

func (faultyStore) GetSolve(string) (OperatingPoint, bool, error) {
	return OperatingPoint{}, false, errSick
}
func (faultyStore) PutSolve(string, OperatingPoint) error   { return errSick }
func (faultyStore) GetDemand(string) (float64, bool, error) { return 0, false, errSick }
func (faultyStore) PutDemand(string, float64) error         { return errSick }
func (faultyStore) GetMeasure(string) (MeasureOutcome, bool, error) {
	return MeasureOutcome{}, false, errSick
}
func (faultyStore) PutMeasure(string, MeasureOutcome) error { return errSick }

// memStore is an in-memory PointStore that sessions standing for successive
// processes share. Entries are filed under the session's key strings, whose
// first field already names the result class.
type memStore struct {
	mu      sync.Mutex
	entries map[string]any
}

func newMemStore() *memStore { return &memStore{entries: map[string]any{}} }

func (m *memStore) get(key string) any {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.entries[key]
}

func (m *memStore) put(key string, v any) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.entries[key] = v
	return nil
}

func (m *memStore) GetSolve(key string) (OperatingPoint, bool, error) {
	op, ok := m.get(key).(OperatingPoint)
	return op, ok, nil
}
func (m *memStore) PutSolve(key string, op OperatingPoint) error { return m.put(key, op) }
func (m *memStore) GetDemand(key string) (float64, bool, error) {
	d, ok := m.get(key).(float64)
	return d, ok, nil
}
func (m *memStore) PutDemand(key string, d float64) error { return m.put(key, d) }
func (m *memStore) GetMeasure(key string) (MeasureOutcome, bool, error) {
	out, ok := m.get(key).(MeasureOutcome)
	return out, ok, nil
}
func (m *memStore) PutMeasure(key string, out MeasureOutcome) error { return m.put(key, out) }

// recallAll drives one key of each result class through recall, computing
// a fixed value on a miss, and returns how many computations ran.
func recallAll(t *testing.T, s *Session) (runs int) {
	t.Helper()
	op := OperatingPoint{FreqHz: 1e6, VoltageV: 0.5}
	if got, err := recall(s, s.solved, "k", PointStore.GetSolve, PointStore.PutSolve,
		func() (OperatingPoint, error) { runs++; return op, nil }); err != nil || got != op {
		t.Fatalf("solve recall = %+v, %v; want %+v", got, err, op)
	}
	if got, err := recall(s, s.demands, "k", PointStore.GetDemand, PointStore.PutDemand,
		func() (float64, error) { runs++; return 1.0, nil }); err != nil || got != 1.0 {
		t.Fatalf("demand recall = %v, %v; want 1", got, err)
	}
	out := MeasureOutcome{ActiveIMBanks: 2}
	if got, err := recall(s, s.measured, "k", PointStore.GetMeasure, PointStore.PutMeasure,
		func() (MeasureOutcome, error) { runs++; return out, nil }); err != nil || got != out {
		t.Fatalf("measure recall = %+v, %v; want %+v", got, err, out)
	}
	return runs
}

func TestStoreFailuresAreMissesNotFatal(t *testing.T) {
	s := NewSession(power.DefaultParams())
	s.SetStore(faultyStore{})
	if runs := recallAll(t, s); runs != 3 {
		t.Fatalf("%d of 3 results computed; a failed store read must be a miss", runs)
	}
	st := s.Stats()
	if st.StoreErrs != 6 {
		t.Fatalf("StoreErrs = %d, want 6 (every operation failed)", st.StoreErrs)
	}
	if st.StoreHits != 0 || st.StorePuts != 0 {
		t.Fatalf("sick store produced hits=%d puts=%d, want 0/0", st.StoreHits, st.StorePuts)
	}
}

func TestNoStoreIsSilent(t *testing.T) {
	s := NewSession(power.DefaultParams())
	if runs := recallAll(t, s); runs != 3 {
		t.Fatalf("%d of 3 results computed by a storeless session, want 3", runs)
	}
	if st := s.Stats(); st.StoreErrs != 0 || st.StoreHits != 0 || st.StorePuts != 0 {
		t.Fatalf("storeless session counted store traffic: %+v", st)
	}
}
