// Package cache models set-associative L1 caches with LRU replacement.
//
// The pipeline simulator uses two instances — an instruction cache probed
// at fetch and a data cache probed by loads and stores — purely as timing
// models: a probe returns the access latency (hit latency or hit latency
// plus miss penalty) and updates replacement state. Data contents live in
// internal/mem; the cache tracks only tags, matching how timing-first
// simulators such as sim-outorder structure their hierarchies.
//
// Addresses are in words; BlockWords sets the words per cache block.
package cache

import "fmt"

// Config describes one cache.
type Config struct {
	Name        string // for reports, e.g. "L1I"
	SizeWords   int    // total capacity in words
	BlockWords  int    // words per block (power of two)
	Assoc       int    // ways per set
	HitLatency  int    // cycles for a hit
	MissPenalty int    // extra cycles for a miss
}

// Validate checks the configuration for internal consistency.
func (c Config) Validate() error {
	switch {
	case c.SizeWords <= 0 || c.BlockWords <= 0 || c.Assoc <= 0:
		return fmt.Errorf("cache %s: non-positive geometry", c.Name)
	case c.BlockWords&(c.BlockWords-1) != 0:
		return fmt.Errorf("cache %s: block size %d not a power of two", c.Name, c.BlockWords)
	case c.SizeWords%(c.BlockWords*c.Assoc) != 0:
		return fmt.Errorf("cache %s: size %d not divisible by block*assoc", c.Name, c.SizeWords)
	case c.HitLatency < 1 || c.MissPenalty < 0:
		return fmt.Errorf("cache %s: invalid latencies", c.Name)
	}
	sets := c.SizeWords / (c.BlockWords * c.Assoc)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %s: set count %d not a power of two", c.Name, sets)
	}
	return nil
}

// way is one cache way. lru is the tick of its last touch, larger =
// more recent; an invalid way has lru 0, which no access's tick is, so
// it is also the least recently used. (A tag sentinel cannot mark
// invalid ways: every int64 is some block's tag, -1 included.)
type way struct {
	tag int64
	lru uint64
}

// Cache is a set-associative cache timing model.
type Cache struct {
	cfg       Config
	ways      []way // set s is ways[s*Assoc : (s+1)*Assoc]
	setMask   int64
	blockBits uint
	setBits   uint   // log2(set count); tag = block >> setBits
	tick      uint64 // accesses so far; hits are tick - misses

	// last{Block,Way} are the block and way of the previous access.
	// Hit uses them to take a same-block hit without the set scan. The
	// pointer stays valid because eviction only happens in the accessed
	// block's set: any access that could evict lastWay's block also
	// replaces lastBlock first.
	lastBlock int64
	lastWay   *way

	misses uint64
}

// New builds a cache from cfg. It panics on invalid configurations, which
// are programming errors (configurations are static).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	nsets := cfg.SizeWords / (cfg.BlockWords * cfg.Assoc)
	blockBits := uint(0)
	for 1<<blockBits < cfg.BlockWords {
		blockBits++
	}
	setBits := uint(0)
	for 1<<setBits < nsets {
		setBits++
	}
	return &Cache{
		cfg:       cfg,
		ways:      make([]way, nsets*cfg.Assoc),
		setMask:   int64(nsets - 1),
		blockBits: blockBits,
		setBits:   setBits,
	}
}

// Hit takes the access to addr as a hit and reports true when addr lies
// in the block of the previous access, which is still resident. It then
// updates tick, LRU stamp and hit count exactly as Access would. It
// reports false, changing nothing, for any other address; the caller
// then probes with Access.
//
// Hit is small enough to inline, Access is not: sequential fetch and
// most loads and stores stay in one block, so the pipeline calls
// Hit first and Access only when it fails.
func (c *Cache) Hit(addr int64) bool {
	if w := c.lastWay; w != nil && addr>>c.blockBits == c.lastBlock {
		c.tick++
		w.lru = c.tick
		return true
	}
	return false
}

// Access probes the cache at the given word address, updating replacement
// state and filling on a miss. It returns the access latency in cycles
// and whether the access hit.
func (c *Cache) Access(addr int64) (latency int, hit bool) {
	c.tick++
	block := addr >> c.blockBits
	base := int(block&c.setMask) * c.cfg.Assoc
	set := c.ways[base : base+c.cfg.Assoc]
	tag := block >> c.setBits
	// One scan finds the hit or, on a miss, the victim: the way with the
	// smallest lru, the lowest-index one on a tie, so the first invalid
	// way fills before any valid way is evicted.
	victim := 0
	for i := range set {
		w := &set[i]
		if w.tag == tag && w.lru != 0 {
			w.lru = c.tick
			c.lastBlock, c.lastWay = block, w
			return c.cfg.HitLatency, true
		}
		if w.lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = way{tag: tag, lru: c.tick}
	c.misses++
	c.lastBlock, c.lastWay = block, &set[victim]
	return c.cfg.HitLatency + c.cfg.MissPenalty, false
}

// Stats returns cumulative hit and miss counts.
func (c *Cache) Stats() (hits, misses uint64) { return c.tick - c.misses, c.misses }

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Default configurations matching the paper's simulator (§3.1): a 64 kB
// L1 data cache and an effectively 64 kB L1 instruction cache, 2-cycle
// access latency. Sizes are expressed in 8-byte words.
var (
	// DefaultL1D is the paper's 64 kB data cache: 8192 words, 4-way,
	// 8-word blocks.
	DefaultL1D = Config{Name: "L1D", SizeWords: 8192, BlockWords: 8, Assoc: 4,
		HitLatency: 2, MissPenalty: 20}
	// DefaultL1I is the paper's instruction cache (64 kB effective):
	// 8192 words, 2-way, 8-word blocks.
	DefaultL1I = Config{Name: "L1I", SizeWords: 8192, BlockWords: 8, Assoc: 2,
		HitLatency: 2, MissPenalty: 20}
)
