// Package store implements the content-addressed result store behind
// wbsn-serve -store and wbsn-bench -store: the persistent form of
// everything an exp.Session memoizes across processes, keyed by the SHA-256
// of the session's canonical identity strings. Each result is one small
// file, written atomically as it is produced, so a process killed mid-grid
// loses only in-flight work. Measurement outcomes persist too, so a
// restarted process answers every measured cell without simulating.
//
// # Layout
//
// Under the root directory:
//
//	solve/<sha256(key)>.json    solved operating point + its full key
//	demand/<sha256(key)>.json   probe demand estimate + its full key
//	measure/<sha256(key)>.json  measurement outcome (power counters and
//	                            active bank counts) + its full key
//
// A warm/ directory left by an older build (probe-boundary snapshots) is
// ignored and safe to delete.
//
// Every entry records the full canonical key it was stored under and reads
// verify it, so a hash collision or a misplaced file surfaces as a
// corruption error instead of a silently wrong result; so does an entry
// that parses but lacks its result. The keys carry exp.ResultsVersion, so
// entries written under another results version sit at other addresses and
// are never read. JSON stores float64 via Go's shortest round-trip
// formatting and uint64 counters as exact integers, so every result
// survives the trip bit-exactly.
//
// All methods are safe for concurrent use; writes go through a temp file
// and rename, so readers (including concurrent processes) never observe a
// partial entry.
package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"repro/internal/exp"
	"repro/internal/power"
)

// Store is a content-addressed PointStore rooted at a directory.
type Store struct {
	dir string

	hits, misses, puts atomic.Uint64
}

// Compile-time check: the store is the session's persistence backend.
var _ exp.PointStore = (*Store)(nil)

// Open creates (if needed) and returns the store rooted at dir.
func Open(dir string) (*Store, error) {
	for _, sub := range []string{"solve", "demand", "measure"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns the cumulative hit, miss and put counts across all entry
// classes.
func (s *Store) Stats() (hits, misses, puts uint64) {
	return s.hits.Load(), s.misses.Load(), s.puts.Load()
}

// path returns the content address of key within class: the hex SHA-256 of
// the canonical key string.
func (s *Store) path(class, key, ext string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, class, hex.EncodeToString(sum[:])+ext)
}

// solveEntry is the on-disk shape of a solved operating point. Key carries
// the full canonical identity for read-back verification and debuggability
// (the filename is only its hash).
type solveEntry struct {
	Key      string  `json:"key"`
	FreqHz   float64 `json:"freq_hz"`
	VoltageV float64 `json:"voltage_v"`
}

// demandEntry is the on-disk shape of a probe demand estimate.
type demandEntry struct {
	Key      string  `json:"key"`
	DemandHz float64 `json:"demand_hz"`
}

// measureEntry is the on-disk shape of a measurement outcome.
type measureEntry struct {
	Key           string         `json:"key"`
	ActiveIMBanks int            `json:"active_im_banks"`
	ActiveDMBanks int            `json:"active_dm_banks"`
	Counters      power.Counters `json:"counters"`
}

// entry is what every on-disk shape provides to readJSON: the full key it
// was stored under, and whether it carries a usable result — a damaged file
// can still parse, for example one cut down to its key.
type entry interface {
	storedKey() string
	complete() bool
}

func (e *solveEntry) storedKey() string   { return e.Key }
func (e *solveEntry) complete() bool      { return e.FreqHz > 0 && e.VoltageV > 0 }
func (e *demandEntry) storedKey() string  { return e.Key }
func (e *demandEntry) complete() bool     { return e.DemandHz > 0 }
func (e *measureEntry) storedKey() string { return e.Key }
func (e *measureEntry) complete() bool    { return e.Counters.Cycles > 0 }

// readJSON loads one JSON entry, distinguishing absence (ok=false, nil
// error) from damage (error).
func (s *Store) readJSON(path, key string, e entry) (bool, error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		s.misses.Add(1)
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("store: %w", err)
	}
	if err := json.Unmarshal(data, e); err != nil {
		return false, fmt.Errorf("store: corrupt entry %s: %w", path, err)
	}
	if got := e.storedKey(); got != key {
		return false, fmt.Errorf("store: entry %s was stored under a different key (hash collision or misplaced file):\n  stored: %s\n  wanted: %s", path, got, key)
	}
	if !e.complete() {
		return false, fmt.Errorf("store: corrupt entry %s: result fields missing or zero", path)
	}
	s.hits.Add(1)
	return true, nil
}

// writeJSON atomically persists one JSON entry.
func (s *Store) writeJSON(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := writeAtomic(path, data); err != nil {
		return err
	}
	s.puts.Add(1)
	return nil
}

// GetSolve returns the solved operating point stored under key, if any.
func (s *Store) GetSolve(key string) (exp.OperatingPoint, bool, error) {
	var e solveEntry
	ok, err := s.readJSON(s.path("solve", key, ".json"), key, &e)
	if !ok || err != nil {
		return exp.OperatingPoint{}, false, err
	}
	return exp.OperatingPoint{FreqHz: e.FreqHz, VoltageV: e.VoltageV}, true, nil
}

// PutSolve persists a solved operating point under key.
func (s *Store) PutSolve(key string, op exp.OperatingPoint) error {
	return s.writeJSON(s.path("solve", key, ".json"), solveEntry{Key: key, FreqHz: op.FreqHz, VoltageV: op.VoltageV})
}

// GetDemand returns the probe demand estimate stored under key, if any.
func (s *Store) GetDemand(key string) (float64, bool, error) {
	var e demandEntry
	ok, err := s.readJSON(s.path("demand", key, ".json"), key, &e)
	if !ok || err != nil {
		return 0, false, err
	}
	return e.DemandHz, true, nil
}

// PutDemand persists a probe demand estimate under key.
func (s *Store) PutDemand(key string, demand float64) error {
	return s.writeJSON(s.path("demand", key, ".json"), demandEntry{Key: key, DemandHz: demand})
}

// GetMeasure returns the measurement outcome stored under key, if any.
func (s *Store) GetMeasure(key string) (exp.MeasureOutcome, bool, error) {
	var e measureEntry
	ok, err := s.readJSON(s.path("measure", key, ".json"), key, &e)
	if !ok || err != nil {
		return exp.MeasureOutcome{}, false, err
	}
	return exp.MeasureOutcome{Counters: e.Counters, ActiveIMBanks: e.ActiveIMBanks, ActiveDMBanks: e.ActiveDMBanks}, true, nil
}

// PutMeasure persists a measurement outcome under key.
func (s *Store) PutMeasure(key string, out exp.MeasureOutcome) error {
	return s.writeJSON(s.path("measure", key, ".json"), measureEntry{
		Key: key, ActiveIMBanks: out.ActiveIMBanks, ActiveDMBanks: out.ActiveDMBanks, Counters: out.Counters,
	})
}

// Len counts the persisted entries per class, for startup logging.
func (s *Store) Len() (solves, demands, measures int, err error) {
	count := func(class string) (int, error) {
		entries, err := os.ReadDir(filepath.Join(s.dir, class))
		if err != nil {
			return 0, fmt.Errorf("store: %w", err)
		}
		n := 0
		for _, e := range entries {
			if !e.IsDir() {
				n++
			}
		}
		return n, nil
	}
	if solves, err = count("solve"); err != nil {
		return
	}
	if demands, err = count("demand"); err != nil {
		return
	}
	measures, err = count("measure")
	return
}

// writeAtomic writes data to path via a temp file and rename.
func writeAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}
