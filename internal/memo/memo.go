package memo

import (
	"container/list"
	"context"
	"sync"

	"specctrl/internal/obs"
)

// Outcome says how GetOrCompute satisfied a request.
type Outcome string

const (
	// Hit: the value was resident.
	Hit Outcome = "hit"
	// Wait: another caller was computing the value; this call waited
	// for that computation and shares its result.
	Wait Outcome = "wait"
	// Compute: this call ran compute.
	Compute Outcome = "compute"
)

// Cache is a keyed singleflight cache holding at most a byte budget of
// values, evicting the least recently used first. Values are shared
// between callers, so they must be treated as immutable.
type Cache[V any] struct {
	mu      sync.Mutex
	max     int64
	bytes   int64
	entries map[string]*list.Element
	lru     *list.List // of *entry[V]; front = most recently used
	flights map[string]*flight[V]

	gauge     *obs.Gauge   // resident bytes; nil for none
	evictions *obs.Counter // evicted entries; nil for none
}

// entry is one resident value; the lru list owns these.
type entry[V any] struct {
	key   string
	val   V
	bytes int64
}

// flight is one running computation; waiters block on done.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// New returns a cache holding at most maxBytes (positive) of charged
// values. A non-nil gauge tracks the resident bytes and a non-nil evictions
// counter counts evicted entries.
func New[V any](maxBytes int64, gauge *obs.Gauge, evictions *obs.Counter) *Cache[V] {
	return &Cache[V]{
		max:       maxBytes,
		entries:   make(map[string]*list.Element),
		lru:       list.New(),
		flights:   make(map[string]*flight[V]),
		gauge:     gauge,
		evictions: evictions,
	}
}

// GetOrCompute returns the value stored under key, running compute to
// produce it when it is neither resident nor being computed. compute
// returns the value and the bytes to charge it against the budget. A
// call that waits on another caller's computation returns ctx.Err()
// if ctx is done first; the computation itself is not interrupted.
// Errors are returned to the caller and every waiter and are not
// stored.
func (c *Cache[V]) GetOrCompute(ctx context.Context, key string, compute func() (V, int64, error)) (V, Outcome, error) {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		v := el.Value.(*entry[V]).val
		c.mu.Unlock()
		return v, Hit, nil
	}
	if f, ok := c.flights[key]; ok {
		c.mu.Unlock()
		select {
		case <-f.done:
			return f.val, Wait, f.err
		case <-ctx.Done():
			var zero V
			return zero, Wait, ctx.Err()
		}
	}
	f := &flight[V]{done: make(chan struct{})}
	c.flights[key] = f
	c.mu.Unlock()

	v, size, err := compute()
	f.val, f.err = v, err

	c.mu.Lock()
	delete(c.flights, key)
	if err == nil {
		c.insertLocked(key, v, size)
	}
	c.mu.Unlock()
	close(f.done)
	return v, Compute, err
}

// Get returns the value resident under key, marking it most recently
// used. It never runs or waits for a computation: a key that is not
// resident, computing or not, is reported absent.
func (c *Cache[V]) Get(key string) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		c.lru.MoveToFront(el)
		return el.Value.(*entry[V]).val, true
	}
	var zero V
	return zero, false
}

// insertLocked makes v resident under key and evicts from the LRU tail
// until the budget holds again.
func (c *Cache[V]) insertLocked(key string, v V, size int64) {
	c.entries[key] = c.lru.PushFront(&entry[V]{key: key, val: v, bytes: size})
	c.bytes += size
	for c.bytes > c.max {
		victim := c.lru.Remove(c.lru.Back()).(*entry[V])
		delete(c.entries, victim.key)
		c.bytes -= victim.bytes
		if c.evictions != nil {
			c.evictions.Inc()
		}
	}
	if c.gauge != nil {
		c.gauge.SetUint(uint64(c.bytes))
	}
}
