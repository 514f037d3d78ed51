package mem

import (
	"testing"
	"testing/quick"

	"specctrl/internal/rng"
)

func TestReadUnwrittenIsZero(t *testing.T) {
	m := New()
	for _, addr := range []int64{0, 1, -1, 1 << 40, -(1 << 40)} {
		if v := m.Read(addr); v != 0 {
			t.Errorf("Read(%d) = %d, want 0", addr, v)
		}
	}
}

func TestWriteRead(t *testing.T) {
	m := New()
	m.Write(5, 42)
	m.Write(-7, -9)
	m.Write(1<<30, 100)
	if m.Read(5) != 42 || m.Read(-7) != -9 || m.Read(1<<30) != 100 {
		t.Error("Write/Read mismatch")
	}
}

func TestPageBoundaries(t *testing.T) {
	m := New()
	// Adjacent words straddling a page boundary must not alias.
	m.Write(pageSize-1, 1)
	m.Write(pageSize, 2)
	m.Write(-1, 3)
	m.Write(0, 4)
	if m.Read(pageSize-1) != 1 || m.Read(pageSize) != 2 {
		t.Error("positive boundary aliasing")
	}
	if m.Read(-1) != 3 || m.Read(0) != 4 {
		t.Error("negative boundary aliasing")
	}
}

func TestNegativeAddressMasking(t *testing.T) {
	// addr & pageMask on negative addresses must index within the page.
	m := New()
	for addr := int64(-3 * pageSize); addr < 3*pageSize; addr += 7 {
		m.Write(addr, addr)
	}
	for addr := int64(-3 * pageSize); addr < 3*pageSize; addr += 7 {
		if m.Read(addr) != addr {
			t.Fatalf("Read(%d) = %d", addr, m.Read(addr))
		}
	}
}

// TestPageCacheSlotConflicts: pages whose keys share a page-cache slot
// must evict each other cleanly, never alias.
func TestPageCacheSlotConflicts(t *testing.T) {
	m := New()
	stride := int64(recentPages * pageSize) // same slot, next page
	addrs := []int64{3, 3 + stride, 3 - stride, 3 + 5*stride}
	for i, a := range addrs {
		m.Write(a, int64(i+1))
	}
	for round := 0; round < 3; round++ {
		for i, a := range addrs {
			if v := m.Read(a); v != int64(i+1) {
				t.Fatalf("Read(%d) = %d, want %d", a, v, i+1)
			}
			if v := m.Read(a + pageSize); v != 0 {
				t.Fatalf("Read(%d) = %d on an unwritten page", a+pageSize, v)
			}
		}
	}
}

func TestNewFromImage(t *testing.T) {
	m := NewFromImage(map[int64]int64{1: 10, 2: 20})
	if m.Read(1) != 10 || m.Read(2) != 20 {
		t.Error("image not applied")
	}
	r, w := m.Stats()
	if r != 1+1 && w != 0 {
		// Reads above count; writes during init must not.
		t.Errorf("stats after image: reads=%d writes=%d", r, w)
	}
}

func TestJournalRollback(t *testing.T) {
	m := New()
	m.Write(1, 100)
	m.BeginJournal()
	m.Write(1, 200)
	m.Write(2, 300)
	m.Write(1, 400) // second write to same word
	m.Rollback()
	if m.Read(1) != 100 {
		t.Errorf("addr 1 after rollback = %d, want 100", m.Read(1))
	}
	if m.Read(2) != 0 {
		t.Errorf("addr 2 after rollback = %d, want 0", m.Read(2))
	}
}

func TestRollbackRestoresRandomState(t *testing.T) {
	f := func(seed uint64) bool {
		g := rng.New(seed)
		m := New()
		// Baseline writes.
		base := make(map[int64]int64)
		for i := 0; i < 50; i++ {
			addr := int64(g.Intn(4096)) - 2048
			v := int64(g.Uint64())
			m.Write(addr, v)
			base[addr] = v
		}
		m.BeginJournal()
		for i := 0; i < 100; i++ {
			m.Write(int64(g.Intn(4096))-2048, int64(g.Uint64()))
		}
		m.Rollback()
		for addr, v := range base {
			if m.Read(addr) != v {
				return false
			}
		}
		// Spot-check words not in base are zero.
		for addr := int64(-2048); addr < 2048; addr++ {
			if _, ok := base[addr]; !ok && m.Read(addr) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestStatsCount(t *testing.T) {
	m := New()
	m.Write(0, 1)
	m.Write(1, 2)
	m.Read(0)
	r, w := m.Stats()
	if r != 1 || w != 2 {
		t.Errorf("Stats = (%d,%d), want (1,2)", r, w)
	}
}

func TestPagesFootprint(t *testing.T) {
	m := New()
	if len(m.pages) != 0 {
		t.Error("fresh memory has pages")
	}
	m.Write(0, 1)
	m.Write(pageSize*5, 1)
	m.Read(pageSize * 9) // reads never allocate
	if len(m.pages) != 2 {
		t.Errorf("pages = %d, want 2", len(m.pages))
	}
}

func BenchmarkWriteRead(b *testing.B) {
	m := New()
	for i := 0; i < b.N; i++ {
		addr := int64(i & 0xffff)
		m.Write(addr, int64(i))
		_ = m.Read(addr)
	}
}
