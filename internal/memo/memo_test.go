package memo

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// constant returns a computation yielding v that counts its runs into n.
func constant[V any](n *int, v V) func() (V, error) {
	return func() (V, error) {
		*n++
		return v, nil
	}
}

// waitHits blocks until the table has served n hits: callers that found a
// slot and are now waiting on (or have read) its outcome.
func waitHits[K comparable, V any](t *Table[K, V], n uint64) {
	for {
		if hits, _, _ := t.Stats(); hits >= n {
			return
		}
		runtime.Gosched()
	}
}

func TestEvictionOrder(t *testing.T) {
	tab := New[string, int](2)
	runs := map[string]int{}
	do := func(k string, v int) (int, bool) {
		n := runs[k]
		got, hit, err := tab.Do(k, constant(&n, v))
		runs[k] = n
		if err != nil {
			t.Fatal(err)
		}
		return got, hit
	}
	do("a", 1)
	do("b", 2)
	if _, hit := do("a", 1); !hit { // a becomes most recently used
		t.Fatal("a missing")
	}
	do("c", 3) // evicts b, the least recently used
	if v, hit := do("a", 1); !hit || v != 1 {
		t.Fatalf("a = %d/%v, want 1/hit", v, hit)
	}
	if _, hit := do("b", 2); hit { // b was evicted; re-running it evicts c
		t.Fatal("b survived eviction")
	}
	if runs["a"] != 1 || runs["b"] != 2 || runs["c"] != 1 {
		t.Fatalf("runs %v, want a:1 b:2 c:1", runs)
	}
	hits, misses, evictions := tab.Stats()
	if hits != 2 || misses != 4 || evictions != 2 {
		t.Fatalf("stats %d/%d/%d, want 2/4/2", hits, misses, evictions)
	}
}

// TestRepeatIsAHit: asking for a remembered key again returns its outcome
// without running the computation, and evicts nothing.
func TestRepeatIsAHit(t *testing.T) {
	tab := New[string, int](2)
	var runs int
	tab.Do("a", constant(&runs, 1))
	tab.Do("b", constant(&runs, 2))
	for _, k := range []string{"a", "b", "a"} {
		if _, hit, _ := tab.Do(k, constant(&runs, -1)); !hit {
			t.Fatalf("repeat of %s was not a hit", k)
		}
	}
	if v, _, _ := tab.Do("a", constant(&runs, -1)); v != 1 {
		t.Fatalf("a = %d, want 1", v)
	}
	if _, _, evictions := tab.Stats(); runs != 2 || evictions != 0 {
		t.Fatalf("%d runs and %d evictions, want 2 and 0", runs, evictions)
	}
}

func TestUnboundedNeverEvicts(t *testing.T) {
	tab := New[int, int](0)
	var runs int
	for pass := 0; pass < 2; pass++ {
		for i := 0; i < 1000; i++ {
			tab.Do(i, constant(&runs, i))
		}
	}
	hits, misses, evictions := tab.Stats()
	if runs != 1000 || hits != 1000 || misses != 1000 || evictions != 0 {
		t.Fatalf("runs %d, stats %d/%d/%d; want 1000 and 1000/1000/0", runs, hits, misses, evictions)
	}
}

func TestDeterministicErrorIsRemembered(t *testing.T) {
	tab := New[string, int](0)
	boom := errors.New("boom")
	var runs int
	for i := 0; i < 2; i++ {
		_, hit, err := tab.Do("k", func() (int, error) {
			runs++
			return 0, boom
		})
		if !errors.Is(err, boom) || hit != (i > 0) {
			t.Fatalf("call %d: err=%v hit=%v", i, err, hit)
		}
	}
	if runs != 1 {
		t.Fatalf("a deterministic error was recomputed: %d runs, want 1", runs)
	}
}

// TestCancellationReachesWaitersThenIsForgotten: callers already attached
// to a flight that ends in a (wrapped) cancellation receive it; the next
// caller computes afresh, and that outcome is remembered.
func TestCancellationReachesWaitersThenIsForgotten(t *testing.T) {
	const waiters = 4
	tab := New[string, int](0)
	release := make(chan struct{})
	var wg sync.WaitGroup
	errs := make([]error, 1+waiters)
	hits := make([]bool, 1+waiters)
	call := func(i int) {
		defer wg.Done()
		_, hits[i], errs[i] = tab.Do("k", func() (int, error) {
			<-release
			return 0, fmt.Errorf("probe: %w", context.Canceled)
		})
	}
	wg.Add(1)
	go call(0)
	for { // the leader's flight must be registered before the waiters come
		if _, misses, _ := tab.Stats(); misses == 1 {
			break
		}
		runtime.Gosched()
	}
	for i := 1; i <= waiters; i++ {
		wg.Add(1)
		go call(i)
	}
	waitHits(tab, waiters)
	close(release)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) || hits[i] != (i > 0) {
			t.Errorf("caller %d: err=%v hit=%v", i, err, hits[i])
		}
	}

	var runs int
	for i := 0; i < 2; i++ {
		if v, _, err := tab.Do("k", constant(&runs, 7)); err != nil || v != 7 {
			t.Fatalf("after the cancellation: %d, %v; want 7", v, err)
		}
	}
	if runs != 1 {
		t.Fatalf("the fresh outcome ran %d times, want 1 (remembered)", runs)
	}
}

// TestEvictedInFlightKeyDelivers: evicting a key whose flight is still
// running does not strand the callers waiting on it.
func TestEvictedInFlightKeyDelivers(t *testing.T) {
	const waiters = 3
	tab := New[string, int](1)
	release := make(chan struct{})
	var wg sync.WaitGroup
	vals := make([]int, 1+waiters)
	wg.Add(1)
	go func() {
		defer wg.Done()
		vals[0], _, _ = tab.Do("a", func() (int, error) {
			<-release
			return 42, nil
		})
	}()
	for {
		if _, misses, _ := tab.Stats(); misses == 1 {
			break
		}
		runtime.Gosched()
	}
	for i := 1; i <= waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			vals[i], _, _ = tab.Do("a", constant(new(int), -1))
		}(i)
	}
	waitHits(tab, waiters)
	var runs int
	tab.Do("b", constant(&runs, 1)) // capacity 1: evicts the in-flight a
	if _, _, evictions := tab.Stats(); evictions != 1 {
		t.Fatalf("%d evictions, want 1", evictions)
	}
	close(release)
	wg.Wait()
	for i, v := range vals {
		if v != 42 {
			t.Errorf("caller %d received %d, want 42", i, v)
		}
	}
	if _, hit, _ := tab.Do("a", constant(&runs, 42)); hit || runs != 2 {
		t.Fatalf("evicted a answered as a hit (runs %d)", runs)
	}
}

// TestPanicReleasesWaiters: a computation that panics fails its waiters
// instead of stranding them, and the key is computed afresh next time.
func TestPanicReleasesWaiters(t *testing.T) {
	tab := New[string, int](0)
	release := make(chan struct{})
	done := make(chan error)
	go func() {
		defer func() { done <- fmt.Errorf("%v", recover()) }()
		tab.Do("k", func() (int, error) {
			<-release
			panic("bug")
		})
	}()
	for {
		if _, misses, _ := tab.Stats(); misses == 1 {
			break
		}
		runtime.Gosched()
	}
	waited := make(chan error)
	go func() {
		_, _, err := tab.Do("k", constant(new(int), -1))
		waited <- err
	}()
	waitHits(tab, 1)
	close(release)
	if err := <-done; err.Error() != "bug" {
		t.Fatalf("the running caller's panic was %q, want it re-raised", err)
	}
	if err := <-waited; !errors.Is(err, errPanicked) {
		t.Fatalf("waiter received %v, want %v", err, errPanicked)
	}
	var runs int
	if v, hit, err := tab.Do("k", constant(&runs, 5)); hit || err != nil || v != 5 {
		t.Fatalf("after the panic: %d, hit %v, %v", v, hit, err)
	}
}

// TestConcurrentCallsShareOneFlight pins the single-flight contract: K
// concurrent callers with one key execute fn exactly once and all receive
// the same bytes. The first caller's fn blocks until every other caller has
// attached, so the coalesce count is deterministic.
func TestConcurrentCallsShareOneFlight(t *testing.T) {
	const K = 8
	g := NewGroup[string, []byte]()
	var runs atomic.Int64
	attached := make(chan struct{})
	var wg sync.WaitGroup
	results := make([][]byte, K)
	shared := make([]bool, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, sh, err := g.Do("k", func() ([]byte, error) {
				runs.Add(1)
				<-attached // hold the flight until all K callers arrived
				return []byte("result"), nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i], shared[i] = v, sh
		}(i)
	}
	for { // wait until K-1 callers are parked on the flight, then release it
		if _, coalesced := g.Stats(); coalesced == K-1 {
			break
		}
		runtime.Gosched()
	}
	close(attached)
	wg.Wait()
	if n := runs.Load(); n != 1 {
		t.Fatalf("fn ran %d times, want 1", n)
	}
	leaders := 0
	for i := 0; i < K; i++ {
		if &results[i][0] != &results[0][0] {
			t.Fatalf("caller %d received a different byte slice", i)
		}
		if !shared[i] {
			leaders++
		}
	}
	started, coalesced := g.Stats()
	if started != 1 || coalesced != K-1 || leaders != 1 {
		t.Fatalf("stats %d/%d with %d unshared callers, want 1/%d with 1", started, coalesced, leaders, K-1)
	}
}

// TestCompletedFlightsAreForgotten pins the no-memoization contract: a
// sequential repeat runs fn again (persistence is the store's job), and an
// error is shared only with the callers already in flight.
func TestCompletedFlightsAreForgotten(t *testing.T) {
	g := NewGroup[string, []byte]()
	var runs int
	boom := errors.New("boom")
	for i := 0; i < 2; i++ {
		_, shared, err := g.Do("k", func() ([]byte, error) {
			runs++
			return nil, boom
		})
		if !errors.Is(err, boom) || shared {
			t.Fatalf("call %d: err=%v shared=%v", i, err, shared)
		}
	}
	if runs != 2 {
		t.Fatalf("fn ran %d times, want 2 (flights must not be memoized)", runs)
	}
}
