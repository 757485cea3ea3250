package exp

import "repro/internal/memo"

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

// recall answers key from the memo t. The first caller consults the backing
// store and, on a miss, computes the result and writes it through; every
// other caller shares that outcome (memo.Table forgets cancellations).
// Reading the store inside the flight means concurrent identical requests
// share one store read too, and a hit is indistinguishable from having
// computed the result in this process (results are deterministic, keys pin
// the full identity). Store errors count into StoreErrs and are otherwise
// ignored: a failed read recomputes, a failed write loses only amortization.
func recall[V any](s *Session, t *memo.Table[string, V], key string,
	get func(PointStore, string) (V, bool, error), put func(PointStore, string, V) error,
	compute func() (V, error)) (V, error) {
	v, _, err := t.Do(key, func() (V, error) {
		st := s.pointStore()
		if st != nil {
			v, ok, err := get(st, key)
			if err != nil {
				s.count(func(x *SessionStats) { x.StoreErrs++ })
			} else if ok {
				s.count(func(x *SessionStats) { x.StoreHits++ })
				return v, nil
			}
		}
		v, err := compute()
		if err != nil || st == nil {
			return v, err
		}
		if err := put(st, key, v); err != nil {
			s.count(func(x *SessionStats) { x.StoreErrs++ })
		} else {
			s.count(func(x *SessionStats) { x.StorePuts++ })
		}
		return v, nil
	})
	return v, err
}
