package cache

import (
	"testing"
	"testing/quick"
)

func small() Config {
	return Config{Name: "t", SizeWords: 64, BlockWords: 4, Assoc: 2,
		HitLatency: 2, MissPenalty: 10}
}

func TestColdMissThenHit(t *testing.T) {
	c := New(small())
	lat, hit := c.Access(0)
	if hit || lat != 12 {
		t.Errorf("cold access: hit=%v lat=%d, want miss lat=12", hit, lat)
	}
	lat, hit = c.Access(0)
	if !hit || lat != 2 {
		t.Errorf("warm access: hit=%v lat=%d, want hit lat=2", hit, lat)
	}
}

func TestBlockGranularity(t *testing.T) {
	c := New(small())
	c.Access(0)
	for addr := int64(1); addr < 4; addr++ {
		if _, hit := c.Access(addr); !hit {
			t.Errorf("addr %d should hit (same 4-word block)", addr)
		}
	}
	if _, hit := c.Access(4); hit {
		t.Error("addr 4 is the next block and should miss")
	}
}

func TestLRUEviction(t *testing.T) {
	// 64 words / (4 words * 2 ways) = 8 sets. Blocks 0, 8, 16 (in block
	// numbers) map to set 0. With 2 ways, the third fill evicts the LRU.
	c := New(small())
	a, b, d := int64(0), int64(8*4), int64(16*4)
	c.Access(a) // miss, fill
	c.Access(b) // miss, fill
	c.Access(a) // hit, a now MRU
	c.Access(d) // miss, evicts b
	if _, hit := c.Access(a); !hit {
		t.Error("a should still be resident")
	}
	if _, hit := c.Access(b); hit {
		t.Error("b should have been evicted as LRU")
	}
}

func TestNegativeAddresses(t *testing.T) {
	c := New(small())
	// Block -1 has tag -1: a fresh cache must miss it, like any block.
	if _, hit := c.Access(-1); hit {
		t.Error("first access to block -1 hit a fresh cache")
	}
	if _, hit := c.Access(-4); !hit {
		t.Error("block -1 did not hit on re-access")
	}
	c.Access(-64)
	if _, hit := c.Access(-64); !hit {
		t.Error("negative address did not hit on re-access")
	}
	if _, hit := c.Access(64); hit {
		t.Error("positive alias of negative address hit")
	}
}

func TestStats(t *testing.T) {
	c := New(small())
	c.Access(0)
	c.Access(0)
	c.Access(0)
	c.Access(1024)
	hits, misses := c.Stats()
	if hits != 2 || misses != 2 {
		t.Errorf("stats = (%d,%d), want (2,2)", hits, misses)
	}
}

// TestHitMatchesAccess: probing with Hit first and Access only when it
// fails must leave the cache exactly as Access alone does — tick, hit
// and miss counts, and every way's LRU stamp — so later evictions pick
// the same victims.
func TestHitMatchesAccess(t *testing.T) {
	probe, fast := New(small()), New(small())
	// Revisit blocks in a set past its associativity, with runs of
	// same-block accesses between, so an LRU stamp that is off by one
	// tick changes which block is evicted.
	stride := int64(small().SizeWords / small().Assoc)
	bw := int64(small().BlockWords)
	for round := 0; round < 8; round++ {
		for i := int64(0); i <= int64(small().Assoc); i++ {
			base := (int64(round)*3+i)%5*stride + int64(round%2)
			for k := int64(0); k <= int64(round)+i; k++ {
				addr := base&^(bw-1) + (base+k)%bw
				_, ph := probe.Access(addr)
				fh := fast.Hit(addr)
				if !fh {
					_, fh = fast.Access(addr)
				}
				if ph != fh {
					t.Fatalf("round %d/%d access %d: hit %v, with Hit first %v", round, i, k, ph, fh)
				}
			}
			ph, pm := probe.Stats()
			fh, fm := fast.Stats()
			if probe.tick != fast.tick || ph != fh || pm != fm {
				t.Fatalf("round %d/%d: tick/hits/misses (%d,%d,%d), with Hit first (%d,%d,%d)",
					round, i, probe.tick, ph, pm, fast.tick, fh, fm)
			}
			for wi := range probe.ways {
				if probe.ways[wi] != fast.ways[wi] {
					t.Fatalf("round %d/%d: way %d = %+v, with Hit first %+v",
						round, i, wi, probe.ways[wi], fast.ways[wi])
				}
			}
		}
	}
}

func TestHitOnlyInLastBlock(t *testing.T) {
	c := New(small())
	bw := int64(small().BlockWords)
	if c.Hit(0) {
		t.Error("a fresh cache has no last block")
	}
	c.Access(bw + 1)
	if c.Hit(bw-1) || c.Hit(2*bw) {
		t.Error("Hit outside the last accessed block")
	}
	if !c.Hit(bw) || !c.Hit(2*bw-1) {
		t.Error("Hit missed the last accessed block")
	}
	if hits, misses := c.Stats(); hits != 2 || misses != 1 {
		t.Errorf("stats = (%d,%d), want (2,1)", hits, misses)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{SizeWords: 0, BlockWords: 4, Assoc: 1, HitLatency: 1},
		{SizeWords: 64, BlockWords: 3, Assoc: 1, HitLatency: 1},
		{SizeWords: 65, BlockWords: 4, Assoc: 1, HitLatency: 1},
		{SizeWords: 64, BlockWords: 4, Assoc: 1, HitLatency: 0},
		{SizeWords: 64, BlockWords: 4, Assoc: 1, HitLatency: 1, MissPenalty: -1},
		{SizeWords: 48, BlockWords: 4, Assoc: 1, HitLatency: 1}, // 12 sets, not a power of 2
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
	if err := small().Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
	if err := DefaultL1D.Validate(); err != nil {
		t.Errorf("DefaultL1D invalid: %v", err)
	}
	if err := DefaultL1I.Validate(); err != nil {
		t.Errorf("DefaultL1I invalid: %v", err)
	}
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New accepted invalid config")
		}
	}()
	New(Config{})
}

// Property: a working set that fits entirely in the cache never misses
// after the first pass, for any access order.
func TestFittingWorkingSetAlwaysHits(t *testing.T) {
	f := func(perm []uint8) bool {
		c := New(small())
		// Touch all 16 blocks once (64 words / 4-word blocks).
		for blk := int64(0); blk < 16; blk++ {
			c.Access(blk * 4)
		}
		before, _ := c.Stats()
		for _, p := range perm {
			c.Access(int64(p%16) * 4)
		}
		after, misses := c.Stats()
		_ = after
		return misses == 16 && before == 0 || misses == 16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAccess(b *testing.B) {
	c := New(DefaultL1D)
	for i := 0; i < b.N; i++ {
		c.Access(int64(i & 0x3fff))
	}
}
