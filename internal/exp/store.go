package exp

// ResultsVersion versions every result a session persists. It is the second
// field of each store key string ("solve|v3|..."), so an entry written under
// another version hashes to a different address and is never read: a stale
// store cannot smuggle old answers into new runs. Bump it whenever the key
// serialization or any solved or simulated result changes, including the
// solver schedule, its margins, the VFS table, and any simulator change that
// moves a measurement.
//
// Version history:
//
//	1 — initial format (a bulk gob session checkpoint)
//	2 — keys serialize the sync-architecture descriptor through
//	    power.Arch.Key() (canonical groups/timeout form) instead of the
//	    display name, so descriptor-equal customs share entries and old
//	    name-keyed entries cannot alias them
//	3 — the gob checkpoint is retired; the version moves from its header
//	    into the key strings of the content-addressed store
const ResultsVersion = 3

// PointStore is the session's persistence interface: a durable,
// concurrency-safe backing for the three result classes a session memoizes —
// solved operating points, probe demand estimates, and measurement outcomes
// (the simulated counters a power report is computed from). The session
// consults it on memory misses and writes every result through as it is
// produced, so a process killed mid-grid loses only in-flight work.
// internal/serve/store is the content-addressed implementation behind both
// wbsn-bench -store and wbsn-serve -store.
//
// Keys are the session's canonical identity strings, pinning everything the
// result depends on, ResultsVersion included. Implementations must be safe
// for concurrent use; Get methods return ok=false for absent entries and
// reserve the error for I/O or corruption.
//
// Store failures are deliberately non-fatal to the session: a failed Get is
// a miss (the result is recomputed — determinism makes that safe), a failed
// Put loses only amortization. Both are counted in SessionStats.StoreErrs so
// operators can see a sick store.
type PointStore interface {
	GetSolve(key string) (OperatingPoint, bool, error)
	PutSolve(key string, op OperatingPoint) error
	GetDemand(key string) (demand float64, ok bool, err error)
	PutDemand(key string, demand float64) error
	GetMeasure(key string) (MeasureOutcome, bool, error)
	PutMeasure(key string, out MeasureOutcome) error
}

// SetStore installs the backing store consulted on memory misses and
// written through on every computed result. Install it before the session
// starts solving; results computed earlier are not retroactively persisted.
func (s *Session) SetStore(st PointStore) {
	s.mu.Lock()
	s.store = st
	s.mu.Unlock()
}

func (s *Session) pointStore() PointStore {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store
}

// storeGet consults the backing store through get. Errors count as misses
// (and into StoreErrs): determinism makes recomputing safe.
func storeGet[T any](s *Session, get func(PointStore) (T, bool, error)) (T, bool) {
	var zero T
	st := s.pointStore()
	if st == nil {
		return zero, false
	}
	v, ok, err := get(st)
	if err != nil {
		s.count(func(x *SessionStats) { x.StoreErrs++ })
		return zero, false
	}
	if ok {
		s.count(func(x *SessionStats) { x.StoreHits++ })
	}
	return v, ok
}

// storePut writes one result through to the backing store; a failure only
// loses amortization and counts into StoreErrs.
func (s *Session) storePut(put func(PointStore) error) {
	st := s.pointStore()
	if st == nil {
		return
	}
	if err := put(st); err != nil {
		s.count(func(x *SessionStats) { x.StoreErrs++ })
		return
	}
	s.count(func(x *SessionStats) { x.StorePuts++ })
}

func (s *Session) storeGetSolve(key string) (OperatingPoint, bool) {
	return storeGet(s, func(st PointStore) (OperatingPoint, bool, error) { return st.GetSolve(key) })
}

func (s *Session) storePutSolve(key string, op OperatingPoint) {
	s.storePut(func(st PointStore) error { return st.PutSolve(key, op) })
}

func (s *Session) storeGetDemand(key string) (float64, bool) {
	return storeGet(s, func(st PointStore) (float64, bool, error) { return st.GetDemand(key) })
}

func (s *Session) storePutDemand(key string, demand float64) {
	s.storePut(func(st PointStore) error { return st.PutDemand(key, demand) })
}

func (s *Session) storeGetMeasure(key string) (MeasureOutcome, bool) {
	return storeGet(s, func(st PointStore) (MeasureOutcome, bool, error) { return st.GetMeasure(key) })
}

func (s *Session) storePutMeasure(key string, out MeasureOutcome) {
	s.storePut(func(st PointStore) error { return st.PutMeasure(key, out) })
}
