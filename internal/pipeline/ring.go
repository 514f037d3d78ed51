package pipeline

// inflightRing is a growable FIFO of in-flight branches backed by a
// power-of-two circular buffer. The per-cycle loop pushes one entry per
// fetched correct-path branch and pops from the front at resolution;
// a plain slice with `pending = pending[1:]` leaks capacity at the
// front and forced an allocation on nearly every push (it was ~99% of
// the simulator's steady-state allocations). The ring reuses its
// backing array forever: after warm-up the hot path performs zero
// allocations (enforced by TestSteadyStateAllocs).
//
// Capacity only grows. The occupancy bound is small and static —
// correct-path branches resolve ResolveDelay cycles after fetch and at
// most FetchWidth are fetched per cycle — so New sizes the ring to that
// bound up front and grow() is effectively dead code kept for safety.
type inflightRing struct {
	buf  []inflight // len(buf) is a power of two
	head int        // index of the oldest entry
	n    int        // occupancy
	low  int        // entries with lowConf set
}

// initRing allocates the backing buffer with capacity for at least min
// entries, rounded up to a power of two.
func (r *inflightRing) init(min int) {
	capacity := 16
	for capacity < min {
		capacity <<= 1
	}
	r.buf = make([]inflight, capacity)
	r.head, r.n, r.low = 0, 0, 0
}

// push appends one entry at the tail and returns a pointer to it, so
// the caller writes the (large) inflight struct in place instead of
// copying it through a temporary. lowConf must equal the lowConf field
// the caller writes; the ring counts it here.
func (r *inflightRing) push(lowConf bool) *inflight {
	if r.n == len(r.buf) {
		r.grow()
	}
	slot := &r.buf[(r.head+r.n)&(len(r.buf)-1)]
	r.n++
	if lowConf {
		r.low++
	}
	return slot
}

// front returns a pointer to the oldest entry; valid only while n > 0
// and until the next push or pop.
func (r *inflightRing) front() *inflight { return &r.buf[r.head] }

// popFront discards the oldest entry. Slots are not zeroed: inflight
// is pointer-free (all-POD), so stale entries cannot retain heap
// objects, and push overwrites every field before the slot is read.
func (r *inflightRing) popFront() {
	if r.buf[r.head].lowConf {
		r.low--
	}
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
}

// clear discards every entry (squash path); see popFront for why
// slots stay dirty.
func (r *inflightRing) clear() {
	r.head, r.n, r.low = 0, 0, 0
}

// len reports the occupancy.
func (r *inflightRing) len() int { return r.n }

// lowConf reports how many entries have lowConf set.
func (r *inflightRing) lowConf() int { return r.low }

// grow doubles the backing buffer, re-linearizing the entries.
func (r *inflightRing) grow() {
	next := make([]inflight, len(r.buf)*2)
	for i := 0; i < r.n; i++ {
		next[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = next
	r.head = 0
}
