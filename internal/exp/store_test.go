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

func TestStoreFailuresAreMissesNotFatal(t *testing.T) {
	s := NewSession(power.DefaultParams())
	s.SetStore(faultyStore{})

	if _, ok := s.storeGetSolve("k"); ok {
		t.Fatal("failed GetSolve reported a hit")
	}
	s.storePutSolve("k", OperatingPoint{FreqHz: 1e6, VoltageV: 0.5})
	if _, ok := s.storeGetDemand("k"); ok {
		t.Fatal("failed GetDemand reported a hit")
	}
	s.storePutDemand("k", 1.0)
	if _, ok := s.storeGetMeasure("k"); ok {
		t.Fatal("failed GetMeasure reported a hit")
	}
	s.storePutMeasure("k", MeasureOutcome{})

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
	if _, ok := s.storeGetSolve("k"); ok {
		t.Fatal("storeless session reported a hit")
	}
	s.storePutSolve("k", OperatingPoint{})
	if st := s.Stats(); st.StoreErrs != 0 || st.StoreHits != 0 || st.StorePuts != 0 {
		t.Fatalf("storeless session counted store traffic: %+v", st)
	}
}
