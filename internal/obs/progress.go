package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Progress is the live view of the simulation runs in flight, read
// concurrently by the heartbeat printer. Each run publishes into its
// own Run, so runs simulating at the same time never mix their
// counters; the set of live runs changes rarely (between runs) and is
// guarded by a mutex.
type Progress struct {
	mu   sync.Mutex
	runs []*Run // live runs, in start order
}

// NewProgress returns an empty progress view.
func NewProgress() *Progress { return &Progress{} }

// Run is one live run's counter block, written by its simulation
// goroutine through atomic stores. A nil *Run ignores every call, so a
// run without a progress view needs no checks.
type Run struct {
	p      *Progress
	name   string
	start  time.Time
	target uint64

	committed   atomic.Uint64
	cycles      atomic.Uint64
	branches    atomic.Uint64
	mispredicts atomic.Uint64
}

// StartRun adds a named run (e.g. "gcc/gshare") with a
// committed-instruction target (0 when unbounded) to the live set and
// returns its counter block; call End when the run finishes. On a nil
// Progress it returns nil.
func (p *Progress) StartRun(name string, target uint64) *Run {
	if p == nil {
		return nil
	}
	r := &Run{p: p, name: name, start: time.Now(), target: target}
	p.mu.Lock()
	p.runs = append(p.runs, r)
	p.mu.Unlock()
	return r
}

// Update publishes the run's current counters. Called periodically
// from the simulation hot loop; four atomic stores.
func (r *Run) Update(committed, cycles, branches, mispredicts uint64) {
	if r == nil {
		return
	}
	r.committed.Store(committed)
	r.cycles.Store(cycles)
	r.branches.Store(branches)
	r.mispredicts.Store(mispredicts)
}

// End removes the run from the live set; later calls do nothing.
func (r *Run) End() {
	if r == nil {
		return
	}
	p := r.p
	p.mu.Lock()
	defer p.mu.Unlock()
	for i, live := range p.runs {
		if live == r {
			p.runs = append(p.runs[:i], p.runs[i+1:]...)
			return
		}
	}
}

// ProgressSnapshot is a consistent-enough point-in-time read of a
// Run (counters are read individually; they drift by at most one
// publish interval).
type ProgressSnapshot struct {
	Run       string
	Started   time.Time
	Target    uint64
	Committed uint64
	Cycles    uint64
	Branches  uint64
	Mispred   uint64
}

// IPC returns committed instructions per cycle.
func (s ProgressSnapshot) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Committed) / float64(s.Cycles)
}

// MispredictRate returns the committed-branch misprediction rate.
func (s ProgressSnapshot) MispredictRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Mispred) / float64(s.Branches)
}

// ETA estimates the time left to reach Target at the average rate
// since the run started, or 0 when unknown (no target, no progress
// yet, or already done).
func (s ProgressSnapshot) ETA(now time.Time) time.Duration {
	if s.Target == 0 || s.Committed == 0 || s.Committed >= s.Target {
		return 0
	}
	elapsed := now.Sub(s.Started)
	if elapsed <= 0 {
		return 0
	}
	rate := float64(s.Committed) / elapsed.Seconds()
	if rate <= 0 {
		return 0
	}
	return time.Duration(float64(s.Target-s.Committed) / rate * float64(time.Second))
}

// Snapshot reads the run's current state.
func (r *Run) Snapshot() ProgressSnapshot {
	return ProgressSnapshot{
		Run:       r.name,
		Started:   r.start,
		Target:    r.target,
		Committed: r.committed.Load(),
		Cycles:    r.cycles.Load(),
		Branches:  r.branches.Load(),
		Mispred:   r.mispredicts.Load(),
	}
}

// Snapshot reads every live run, in start order.
func (p *Progress) Snapshot() []ProgressSnapshot {
	p.mu.Lock()
	defer p.mu.Unlock()
	snaps := make([]ProgressSnapshot, len(p.runs))
	for i, r := range p.runs {
		snaps[i] = r.Snapshot()
	}
	return snaps
}

// Line formats the one-line heartbeat for the snapshot, e.g.
//
//	run gcc/gshare: 1200000/2000000 committed (60.0%) ipc=1.54 misp=8.3% eta=2s
func (s ProgressSnapshot) Line(now time.Time) string {
	if s.Run == "" {
		return "run: idle"
	}
	line := fmt.Sprintf("run %s: %d", s.Run, s.Committed)
	if s.Target > 0 {
		line += fmt.Sprintf("/%d committed (%.1f%%)",
			s.Target, 100*float64(s.Committed)/float64(s.Target))
	} else {
		line += " committed"
	}
	line += fmt.Sprintf(" ipc=%.2f misp=%.1f%%", s.IPC(), 100*s.MispredictRate())
	if eta := s.ETA(now); eta > 0 {
		line += fmt.Sprintf(" eta=%s", eta.Round(100*time.Millisecond))
	}
	return line
}

// StartHeartbeat prints one progress line per live run of p to w every
// interval ("run: idle" when none is live) until the returned stop
// function is called. Stop waits for the printer
// goroutine to exit, so it is safe to close w afterwards.
func StartHeartbeat(w io.Writer, every time.Duration, p *Progress) (stop func()) {
	if every <= 0 {
		every = 10 * time.Second
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case now := <-t.C:
				snaps := p.Snapshot()
				if len(snaps) == 0 {
					snaps = append(snaps, ProgressSnapshot{})
				}
				var lines strings.Builder
				for _, s := range snaps {
					lines.WriteString(s.Line(now) + "\n")
				}
				io.WriteString(w, lines.String())
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(done)
			<-finished
		})
	}
}
