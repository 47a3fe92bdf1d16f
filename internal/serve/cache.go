package serve

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// resultCache is an LRU cache from run identities (sim CacheIDs, one
// per RunKey) to the exact response bytes of a completed run. Entries
// never expire — exact caching is sound by the seed-derivation
// contract (see doc.go) — so eviction is purely capacity-driven. A
// capacity ≤ 0 is an explicit "caching disabled" mode: get always
// misses and add is a no-op — in particular it never fires onEvict, so
// a disabled cache cannot inflate the eviction counter by evicting
// what it just inserted.
type resultCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*list.Element
	order   *list.List // front = most recently used
	onEvict func()
}

type cacheEntry struct {
	key  string
	body []byte
}

func newResultCache(capacity int, onEvict func()) *resultCache {
	return &resultCache{
		cap:     capacity,
		entries: make(map[string]*list.Element, max(capacity, 0)),
		order:   list.New(),
		onEvict: onEvict,
	}
}

// get returns the cached bytes for key, promoting the entry. The
// returned slice is shared and must not be mutated.
func (c *resultCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).body, true
}

// add stores body under key, evicting the least recently used entry
// when over capacity. Re-adding an existing key refreshes its position
// (the bytes are identical by construction — the run is deterministic).
func (c *resultCache) add(key string, body []byte) {
	if c.cap <= 0 {
		return // caching disabled: no insert, no eviction
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		el.Value.(*cacheEntry).body = body
		return
	}
	c.entries[key] = c.order.PushFront(&cacheEntry{key: key, body: body})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*cacheEntry).key)
		if c.onEvict != nil {
			c.onEvict()
		}
	}
}

// len returns the resident entry count.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// flightGroup deduplicates concurrent identical computations: the
// first caller of do for a key becomes the leader and runs fn; callers
// arriving before the leader finishes wait and share its outcome. The
// key is forgotten once the flight lands, so a failed computation (for
// example a cancelled run) is retried by the next request rather than
// cached.
type flightGroup struct {
	mu      sync.Mutex
	flights map[string]*flight
}

type flight struct {
	done    chan struct{}
	waiters atomic.Int32 // followers parked on done (observable by tests)
	body    []byte
	err     error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{flights: make(map[string]*flight)}
}

// parked reports how many followers are waiting on key's flight; tests
// use it to land a flight only after every follower has joined.
func (g *flightGroup) parked(key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.flights[key]; ok {
		return int(f.waiters.Load())
	}
	return 0
}

// do returns fn's result for key, running fn at most once across
// concurrent callers. shared reports whether this caller joined an
// existing flight instead of leading one. cancel, when non-nil, aborts
// a follower's wait (the leader's run continues for the others).
func (g *flightGroup) do(key string, fn func() ([]byte, error), cancel <-chan struct{}) (body []byte, shared bool, err error) {
	g.mu.Lock()
	if f, ok := g.flights[key]; ok {
		g.mu.Unlock()
		f.waiters.Add(1)
		select {
		case <-f.done:
			return f.body, true, f.err
		case <-cancel:
			// The follower leaves the flight: un-count it so parked()
			// reflects only followers still waiting on the outcome.
			f.waiters.Add(-1)
			return nil, true, errCancelled
		}
	}
	f := &flight{done: make(chan struct{})}
	g.flights[key] = f
	g.mu.Unlock()

	f.body, f.err = fn()
	g.mu.Lock()
	delete(g.flights, key)
	g.mu.Unlock()
	close(f.done)
	return f.body, false, f.err
}
