// Package rng provides small, deterministic pseudo-random number
// generators used by the synthetic workload builders and by tests.
//
// The simulator must be exactly reproducible across runs and platforms, so
// we avoid math/rand (whose algorithm is unspecified across Go versions)
// and implement splitmix64 and xorshift128+ directly. Both are well-known
// public-domain generators with good statistical quality for this purpose.
package rng

// SplitMix64 is a tiny 64-bit generator mainly used to seed other
// generators and to derive independent streams from a single seed.
// The zero value is a valid generator seeded with 0.
type SplitMix64 struct {
	state uint64
}

// NewSplitMix64 returns a generator seeded with seed.
func NewSplitMix64(seed uint64) *SplitMix64 {
	return &SplitMix64{state: seed}
}

// Next returns the next 64-bit value in the sequence.
func (s *SplitMix64) Next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// XorShift128 is the xorshift128+ generator: fast, 128 bits of state,
// period 2^128-1. Use New to seed it; an all-zero state is invalid and is
// remapped to a fixed nonzero state.
type XorShift128 struct {
	s0, s1 uint64
}

// New returns an XorShift128 generator derived from seed via splitmix64,
// following the seeding procedure recommended by the xorshift authors.
func New(seed uint64) *XorShift128 {
	sm := NewSplitMix64(seed)
	g := &XorShift128{s0: sm.Next(), s1: sm.Next()}
	if g.s0 == 0 && g.s1 == 0 {
		g.s0 = 0x853c49e6748fea9b
	}
	return g
}

// Uint64 returns the next 64-bit value.
func (g *XorShift128) Uint64() uint64 {
	x, y := g.s0, g.s1
	g.s0 = y
	x ^= x << 23
	x ^= x >> 17
	x ^= y ^ (y >> 26)
	g.s1 = x
	return x + y
}

// Intn returns a value in [0, n). It panics if n <= 0.
func (g *XorShift128) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	return int(g.Uint64() % uint64(n))
}

// Float64 returns a value in [0, 1) with 53 bits of precision.
func (g *XorShift128) Float64() float64 {
	return float64(g.Uint64()>>11) / (1 << 53)
}

// Bool returns true with probability p.
func (g *XorShift128) Bool(p float64) bool {
	return g.Float64() < p
}

// Perm returns a pseudo-random permutation of [0, n) as a slice,
// using the Fisher-Yates shuffle.
func (g *XorShift128) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := g.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
