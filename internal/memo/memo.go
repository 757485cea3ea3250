// Package memo is the repository's one single-flight primitive: concurrent
// callers asking for the same key share one computation and every one of
// them receives its outcome. Two types share one slot:
//
//   - a Table remembers each key's outcome (deterministic errors included),
//     optionally bounded to its least recently used keys — the experiment
//     session's memos and the signal cache;
//   - a Group forgets each flight as soon as it lands, so it deduplicates
//     only the work in flight right now — the serving layer's request
//     coalescing, whose completed results belong to the persistent store.
//
// A context.Canceled or context.DeadlineExceeded outcome is a fact about
// the context that hit it, not about the key: it reaches the callers already
// waiting on that flight and is then forgotten, so the next caller computes
// afresh instead of inheriting a cancellation.
package memo

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// errPanicked is the outcome the waiters of a flight receive when its
// computation panicked; the panic itself continues in the caller that ran it.
var errPanicked = errors.New("memo: computation panicked")

// Table runs each key's computation once among concurrent callers and
// remembers the outcome. The zero value is not usable; use New.
type Table[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	keep     bool                // false for a Group: forget every flight as it lands
	slots    map[K]*list.Element // values are *slot[K, V]
	recency  list.List           // front: most recently used

	hits, misses, evictions uint64
}

// slot is one key's flight: done closes once val and err are final.
type slot[K comparable, V any] struct {
	key  K
	done chan struct{}
	val  V
	err  error
}

// New returns an empty table safe for concurrent use. A positive capacity
// bounds it to that many keys, evicting the least recently used one beyond
// it; zero or less means unbounded.
func New[K comparable, V any](capacity int) *Table[K, V] {
	return &Table[K, V]{capacity: capacity, keep: true, slots: map[K]*list.Element{}}
}

// Do returns the outcome of fn for k, running fn at most once per remembered
// key: the first caller runs it outside the table's lock, and callers that
// find k's slot — in flight or landed — wait for it and share its outcome
// (callers must treat a shared V as immutable). hit reports whether this
// caller found the slot instead of running fn. An evicted key's flight still
// delivers its outcome to the callers already waiting on it.
func (t *Table[K, V]) Do(k K, fn func() (V, error)) (v V, hit bool, err error) {
	t.mu.Lock()
	if el, ok := t.slots[k]; ok {
		t.hits++
		t.recency.MoveToFront(el)
		t.mu.Unlock()
		s := el.Value.(*slot[K, V])
		<-s.done
		return s.val, true, s.err
	}
	t.misses++
	s := &slot[K, V]{key: k, done: make(chan struct{})}
	el := t.recency.PushFront(s)
	t.slots[k] = el
	if t.capacity > 0 && t.recency.Len() > t.capacity {
		t.drop(t.recency.Back())
		t.evictions++
	}
	t.mu.Unlock()

	landed := false
	defer func() {
		if !landed {
			s.err = errPanicked
		}
		if !landed || !t.keep || transient(s.err) {
			t.mu.Lock()
			if t.slots[k] == el {
				t.drop(el)
			}
			t.mu.Unlock()
		}
		close(s.done)
	}()
	s.val, s.err = fn()
	landed = true
	return s.val, false, s.err
}

// Stats returns the cumulative hit, miss and eviction counts. Every miss ran
// the computation once, so misses also count the computations.
func (t *Table[K, V]) Stats() (hits, misses, evictions uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.hits, t.misses, t.evictions
}

func (t *Table[K, V]) drop(el *list.Element) {
	t.recency.Remove(el)
	delete(t.slots, el.Value.(*slot[K, V]).key)
}

// transient reports whether err is a context-cancellation outcome.
func transient(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Group deduplicates concurrent calls by key and remembers nothing: once a
// flight lands it is forgotten, and a later call with the same key runs
// again. Its footprint is therefore bounded by concurrency, not by history.
// The zero value is not usable; use NewGroup.
type Group[K comparable, V any] struct {
	t *Table[K, V]
}

// NewGroup returns an empty group safe for concurrent use.
func NewGroup[K comparable, V any]() *Group[K, V] {
	return &Group[K, V]{&Table[K, V]{slots: map[K]*list.Element{}}}
}

// Do returns the outcome of fn for k, running fn once across the callers
// that arrive while it is in flight; shared reports whether this caller
// attached to another caller's flight.
func (g *Group[K, V]) Do(k K, fn func() (V, error)) (v V, shared bool, err error) {
	return g.t.Do(k, fn)
}

// Stats returns how many flights were started and how many callers were
// coalesced onto one already in flight.
func (g *Group[K, V]) Stats() (started, coalesced uint64) {
	hits, misses, _ := g.t.Stats()
	return misses, hits
}
