package exp

import "repro/internal/platform"

// ResultsVersion versions every result a session persists. It is the second
// field of each store key string ("solve|v3|..."), so an entry written under
// another version hashes to a different address and is never read: a stale
// store cannot smuggle old answers into new runs. Bump it whenever the key
// serialization or any solved or simulated result changes, including the
// solver schedule, its margins, the VFS table, and any simulator change that
// moves a measurement or a probe-boundary snapshot.
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
// solved operating points, probe demand estimates, and the probe-boundary
// warm snapshots that let a measurement continue its solve's verified run.
// The session consults it on memory misses and writes every result through
// as it is produced, so a process killed mid-grid loses only in-flight work.
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
	GetWarm(key string) (*platform.Snapshot, bool, error)
	PutWarm(key string, snap *platform.Snapshot) error
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

// storeGetSolve consults the backing store for a solved point. Errors count
// as misses (and into StoreErrs): determinism makes recomputing safe.
func (s *Session) storeGetSolve(key string) (OperatingPoint, bool) {
	st := s.pointStore()
	if st == nil {
		return OperatingPoint{}, false
	}
	op, ok, err := st.GetSolve(key)
	if err != nil {
		s.count(func(x *SessionStats) { x.StoreErrs++ })
		return OperatingPoint{}, false
	}
	if ok {
		s.count(func(x *SessionStats) { x.StoreHits++ })
	}
	return op, ok
}

func (s *Session) storePutSolve(key string, op OperatingPoint) {
	st := s.pointStore()
	if st == nil {
		return
	}
	if err := st.PutSolve(key, op); err != nil {
		s.count(func(x *SessionStats) { x.StoreErrs++ })
		return
	}
	s.count(func(x *SessionStats) { x.StorePuts++ })
}

func (s *Session) storeGetDemand(key string) (float64, bool) {
	st := s.pointStore()
	if st == nil {
		return 0, false
	}
	d, ok, err := st.GetDemand(key)
	if err != nil {
		s.count(func(x *SessionStats) { x.StoreErrs++ })
		return 0, false
	}
	if ok {
		s.count(func(x *SessionStats) { x.StoreHits++ })
	}
	return d, ok
}

func (s *Session) storePutDemand(key string, demand float64) {
	st := s.pointStore()
	if st == nil {
		return
	}
	if err := st.PutDemand(key, demand); err != nil {
		s.count(func(x *SessionStats) { x.StoreErrs++ })
		return
	}
	s.count(func(x *SessionStats) { x.StorePuts++ })
}

func (s *Session) storeGetWarm(key string) *platform.Snapshot {
	st := s.pointStore()
	if st == nil {
		return nil
	}
	snap, ok, err := st.GetWarm(key)
	if err != nil {
		s.count(func(x *SessionStats) { x.StoreErrs++ })
		return nil
	}
	if !ok {
		return nil
	}
	s.count(func(x *SessionStats) { x.StoreHits++ })
	return snap
}

func (s *Session) storePutWarm(key string, snap *platform.Snapshot) {
	st := s.pointStore()
	if st == nil {
		return
	}
	if err := st.PutWarm(key, snap); err != nil {
		s.count(func(x *SessionStats) { x.StoreErrs++ })
		return
	}
	s.count(func(x *SessionStats) { x.StorePuts++ })
}
