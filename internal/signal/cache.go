package signal

import "repro/internal/memo"

// Cache memoizes Synthesize by (kind, normalized config, duration). The
// experiment sweep engine shares one cache across its worker pool so each
// distinct record is synthesized exactly once per grid instead of once per
// (app, arch, scenario) point; synthesis is deterministic, so a cached
// record is bit-identical to a fresh one. Concurrent requests for the same
// key block on one synthesis instead of duplicating it. Callers must treat
// returned sources as immutable — they are shared.
type Cache struct {
	records *memo.Table[cacheKey, *Source]
}

type cacheKey struct {
	cfg  Config
	durS float64
}

// NewCache returns an empty signal cache safe for concurrent use.
func NewCache() *Cache {
	return &Cache{records: memo.New[cacheKey, *Source](0)}
}

// Synthesize returns the memoized record for (cfg, duration), synthesizing
// it on first request. Keys are normalized first, so a zero-field config
// and its explicit-default spelling share one record.
func (c *Cache) Synthesize(cfg Config, duration float64) (*Source, error) {
	norm, err := Normalize(cfg)
	if err != nil {
		return nil, err
	}
	src, _, err := c.records.Do(cacheKey{cfg: norm, durS: duration}, func() (*Source, error) {
		return Synthesize(norm, duration)
	})
	return src, err
}

// Synths returns how many records were actually synthesized (cache misses);
// the gap to the request count is work the memoization saved.
func (c *Cache) Synths() int {
	_, misses, _ := c.records.Stats()
	return int(misses)
}

// Stats returns the cumulative request and synthesis counts; requests minus
// synths is the number of hits the memoization served. Both surface through
// the obs registry (the CLIs' "stats" stderr block and the serving layer's
// /v1/metrics endpoint).
func (c *Cache) Stats() (requests, synths uint64) {
	hits, misses, _ := c.records.Stats()
	return hits + misses, misses
}
