// Package mem implements the simulated machine's data memory: a sparse,
// word-addressed 64-bit memory backed by fixed-size pages.
//
// Unwritten words read as zero. The address space is the full signed
// 64-bit range (negative addresses are legal and simply map to their own
// pages), which lets workloads place tables anywhere without a loader.
//
// Memory also supports a lightweight undo journal so callers (such as a
// dual-path execution model) can speculatively write and later roll back.
package mem

const (
	pageShift = 10
	pageSize  = 1 << pageShift // words per page
	pageMask  = pageSize - 1
)

// recentPages is the number of slots in the direct-mapped page cache in
// front of the page map (a power of two).
const recentPages = 32

type page [pageSize]int64

// recentPage is one page-cache slot; p == nil marks it empty.
type recentPage struct {
	key int64
	p   *page
}

// Memory is a sparse word-addressed memory. The zero value is not usable;
// call New.
type Memory struct {
	pages map[int64]*page

	// recent caches page pointers in front of the map, slot key mod
	// recentPages. A suite workload touches at most a few dozen pages,
	// mostly in distinct slots, so nearly every Read and Write resolves
	// here without a map lookup. Loads and stores alternate between
	// several pages, so a single cached page would miss on most reads.
	recent [recentPages]recentPage

	// journal, when non-nil, records the previous value of every word
	// written so the write can be undone.
	journal []journalEntry
	active  bool

	reads, writes uint64
}

type journalEntry struct {
	addr int64
	prev int64
}

// New returns an empty memory.
func New() *Memory {
	return &Memory{pages: make(map[int64]*page)}
}

// NewFromImage returns a memory initialized with the given image
// (for example a Program's data segment).
func NewFromImage(image map[int64]int64) *Memory {
	m := New()
	for addr, v := range image {
		m.Write(addr, v)
	}
	m.reads, m.writes = 0, 0
	return m
}

func (m *Memory) pageFor(addr int64, create bool) *page {
	key := addr >> pageShift
	e := &m.recent[key&(recentPages-1)]
	if e.p != nil && e.key == key {
		return e.p
	}
	p := m.pages[key]
	if p == nil && create {
		p = new(page)
		m.pages[key] = p
	}
	if p != nil {
		e.key, e.p = key, p
	}
	return p
}

// Read returns the word at addr; unwritten words are zero.
func (m *Memory) Read(addr int64) int64 {
	m.reads++
	p := m.pageFor(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// Write stores v at addr.
func (m *Memory) Write(addr int64, v int64) {
	m.writes++
	p := m.pageFor(addr, true)
	if m.active {
		m.journal = append(m.journal, journalEntry{addr, p[addr&pageMask]})
	}
	p[addr&pageMask] = v
}

// BeginJournal starts recording writes so they can be undone with
// Rollback. Nested journals are not supported; starting a new journal
// discards the old one.
func (m *Memory) BeginJournal() {
	m.journal = m.journal[:0]
	m.active = true
}

// Rollback undoes every write recorded since BeginJournal, in reverse
// order, and stops journaling.
func (m *Memory) Rollback() {
	for i := len(m.journal) - 1; i >= 0; i-- {
		e := m.journal[i]
		p := m.pageFor(e.addr, true)
		p[e.addr&pageMask] = e.prev
	}
	m.journal = m.journal[:0]
	m.active = false
}

// Stats returns the cumulative read and write counts.
func (m *Memory) Stats() (reads, writes uint64) { return m.reads, m.writes }
