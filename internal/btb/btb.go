// Package btb provides the front-end target predictors for indirect
// control flow: a tagged branch target buffer (BTB) and a return address
// stack (RAS).
//
// The paper's simulator inherits these from SimpleScalar; here they are
// optional pipeline components (pipeline.Config.IndirectPrediction).
// Without them the simulator assumes perfect targets for jumps, which is
// the configuration the paper's conditional-branch statistics use; with
// them, return- and indirect-jump target mispredictions create
// additional wrong-path work — useful for studying confidence-directed
// speculation control on call/ret-heavy code (xlisp).
package btb

import "fmt"

type entry struct {
	valid  bool
	tag    int64
	target int64
	lru    uint64
}

// BTB is a set-associative tagged branch target buffer.
type BTB struct {
	sets    [][]entry
	setMask int64
	tick    uint64

	hits, misses uint64
}

// NewBTB builds a BTB with the given total entries and associativity.
// It panics on invalid geometry (entries must be a positive multiple of
// assoc with a power-of-two set count).
func NewBTB(entries, assoc int) *BTB {
	if entries <= 0 || assoc <= 0 || entries%assoc != 0 {
		panic(fmt.Sprintf("btb: bad geometry %d/%d", entries, assoc))
	}
	nsets := entries / assoc
	if nsets&(nsets-1) != 0 {
		panic(fmt.Sprintf("btb: set count %d not a power of two", nsets))
	}
	sets := make([][]entry, nsets)
	backing := make([]entry, entries)
	for i := range sets {
		sets[i] = backing[i*assoc : (i+1)*assoc]
	}
	return &BTB{sets: sets, setMask: int64(nsets - 1)}
}

// Lookup returns the predicted target for the jump at pc.
func (b *BTB) Lookup(pc int64) (target int64, hit bool) {
	b.tick++
	set := b.sets[pc&b.setMask]
	tag := pc // full-PC tags: no false hits in the model
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lru = b.tick
			b.hits++
			return set[i].target, true
		}
	}
	b.misses++
	return 0, false
}

// Update installs or refreshes the target for the jump at pc.
func (b *BTB) Update(pc, target int64) {
	b.tick++
	set := b.sets[pc&b.setMask]
	tag := pc
	victim := -1
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].target = target
			set[i].lru = b.tick
			return
		}
		if victim < 0 && !set[i].valid {
			victim = i
		}
	}
	if victim < 0 {
		victim = 0
		for i := 1; i < len(set); i++ {
			if set[i].lru < set[victim].lru {
				victim = i
			}
		}
	}
	set[victim] = entry{valid: true, tag: tag, target: target, lru: b.tick}
}

// Stats returns cumulative lookup hits and misses.
func (b *BTB) Stats() (hits, misses uint64) { return b.hits, b.misses }

// RAS is a fixed-depth return address stack. Pushes beyond the depth
// wrap around and overwrite the oldest entries (as hardware does), and
// pops from an empty stack miss.
//
// On a pipeline squash the stack is restored approximately, as in real
// designs: the top-of-stack *pointer* is checkpointed and restored, but
// entries overwritten by wrong-path calls stay corrupted.
type RAS struct {
	stack []int64
	top   int // index of the next free slot (monotonic, wraps via modulo)
	depth int
}

// NewRAS builds a stack with the given depth; it panics when depth < 1.
func NewRAS(depth int) *RAS {
	if depth < 1 {
		panic(fmt.Sprintf("btb: ras depth %d", depth))
	}
	return &RAS{stack: make([]int64, depth), depth: depth}
}

// Push records a return address (on a call).
func (r *RAS) Push(addr int64) {
	r.stack[r.top%r.depth] = addr
	r.top++
}

// Pop predicts the target of a return. ok is false when the stack is
// logically empty.
func (r *RAS) Pop() (addr int64, ok bool) {
	if r.top == 0 {
		return 0, false
	}
	r.top--
	return r.stack[r.top%r.depth], true
}

// Checkpoint captures the top-of-stack pointer.
func (r *RAS) Checkpoint() int { return r.top }

// Restore rewinds the top-of-stack pointer to a checkpoint. Entries
// clobbered since the checkpoint are not recovered (hardware-accurate
// pointer-only repair).
func (r *RAS) Restore(ckpt int) { r.top = ckpt }
