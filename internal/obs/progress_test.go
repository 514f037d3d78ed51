package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestProgressSnapshot(t *testing.T) {
	p := NewProgress()
	if snaps := p.Snapshot(); len(snaps) != 0 {
		t.Errorf("empty progress has live runs: %+v", snaps)
	}
	var snap ProgressSnapshot
	if snap.IPC() != 0 || snap.MispredictRate() != 0 {
		t.Errorf("zero snapshot not idle: %+v", snap)
	}
	if got := snap.Line(time.Now()); got != "run: idle" {
		t.Errorf("idle line = %q", got)
	}

	r := p.StartRun("gcc/gshare", 1000)
	r.Update(500, 400, 100, 10)
	snaps := p.Snapshot()
	if len(snaps) != 1 {
		t.Fatalf("%d live runs, want 1", len(snaps))
	}
	snap = snaps[0]
	if snap.Run != "gcc/gshare" || snap.Committed != 500 || snap.Target != 1000 {
		t.Errorf("snapshot = %+v", snap)
	}
	if got := snap.IPC(); got != 1.25 {
		t.Errorf("IPC = %v, want 1.25", got)
	}
	if got := snap.MispredictRate(); got != 0.1 {
		t.Errorf("mispredict rate = %v, want 0.1", got)
	}
	line := snap.Line(snap.Started.Add(time.Second))
	for _, want := range []string{"gcc/gshare", "500/1000", "50.0%", "ipc=1.25", "misp=10.0%", "eta=1s"} {
		if !strings.Contains(line, want) {
			t.Errorf("line %q missing %q", line, want)
		}
	}

	// A second run gets its own counters; an ended run leaves the view.
	r2 := p.StartRun("perl/sag", 0)
	r.End()
	r.End() // idempotent
	snaps = p.Snapshot()
	if len(snaps) != 1 || snaps[0].Run != "perl/sag" {
		t.Fatalf("live runs after End = %+v, want perl/sag only", snaps)
	}
	if snap = snaps[0]; snap.Committed != 0 || snap.Target != 0 {
		t.Errorf("new run did not start at zero: %+v", snap)
	}
	if line := snap.Line(time.Now()); strings.Contains(line, "eta") {
		t.Errorf("unbounded run shows an ETA: %q", line)
	}
	r2.End()
	if snaps = p.Snapshot(); len(snaps) != 0 {
		t.Errorf("live runs after every End = %+v", snaps)
	}

	// A nil view hands out nil runs, which ignore every call.
	var none *Progress
	nr := none.StartRun("x", 1)
	nr.Update(1, 1, 1, 1)
	nr.End()
}

func TestProgressETA(t *testing.T) {
	r := NewProgress().StartRun("x", 2000)
	r.Update(1000, 1000, 0, 0)
	snap := r.Snapshot()
	// 1000 committed in 2s → 500/s → 1000 remaining → 2s.
	got := snap.ETA(snap.Started.Add(2 * time.Second))
	if got < 1900*time.Millisecond || got > 2100*time.Millisecond {
		t.Errorf("ETA = %v, want ~2s", got)
	}
	// Done or idle → no ETA.
	r.Update(2000, 2000, 0, 0)
	snap = r.Snapshot()
	if eta := snap.ETA(snap.Started.Add(time.Second)); eta != 0 {
		t.Errorf("finished run ETA = %v, want 0", eta)
	}
}

// syncBuffer is a goroutine-safe writer for heartbeat output.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

func TestHeartbeat(t *testing.T) {
	p := NewProgress()
	p.StartRun("compress/gshare", 100).Update(50, 40, 10, 1)
	var buf syncBuffer
	stop := StartHeartbeat(&buf, 5*time.Millisecond, p)
	deadline := time.Now().Add(2 * time.Second)
	for buf.String() == "" && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	stop() // idempotent
	out := buf.String()
	if !strings.Contains(out, "compress/gshare") {
		t.Errorf("heartbeat output %q missing run name", out)
	}
	// No further lines after stop returns.
	n := len(buf.String())
	time.Sleep(20 * time.Millisecond)
	if len(buf.String()) != n {
		t.Error("heartbeat kept printing after stop")
	}
}

// TestProgressConcurrent exercises writer/reader races under -race.
func TestProgressConcurrent(t *testing.T) {
	p := NewProgress()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		var r *Run
		for i := uint64(0); ; i++ {
			select {
			case <-done:
				r.End()
				return
			default:
			}
			if i%100 == 0 {
				r.End()
				r = p.StartRun("w/p", 1000)
			}
			r.Update(i, i, i/10, i/100)
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, snap := range p.Snapshot() {
				_ = snap.Line(time.Now())
			}
		}
	}()
	time.Sleep(50 * time.Millisecond)
	close(done)
	wg.Wait()
}

// TestHeartbeatConcurrentRuns drives two runs at once on one Progress,
// each with counters no other run publishes, and fails if a heartbeat
// line carries the other run's counters or a tick misses a live run.
func TestHeartbeatConcurrentRuns(t *testing.T) {
	p := NewProgress()
	// run a/gshare: ipc=1.00 misp=0.0%; run b/sag: ipc=4.00 misp=50.0%.
	runs := []struct {
		name, counters string
		update         func(r *Run, i uint64)
	}{
		{"a/gshare", "ipc=1.00 misp=0.0%", func(r *Run, i uint64) { r.Update(4*i, 4*i, 2*i, 0) }},
		{"b/sag", "ipc=4.00 misp=50.0%", func(r *Run, i uint64) { r.Update(4*i, i, 2*i, i) }},
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, run := range runs {
		r := p.StartRun(run.name, 0)
		run.update(r, 1) // no tick sees a run before its first update
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer r.End()
			for i := uint64(1); ; i++ {
				select {
				case <-done:
					return
				default:
				}
				run.update(r, i)
			}
		}()
	}
	var buf syncBuffer
	stop := StartHeartbeat(&buf, time.Millisecond, p)
	deadline := time.Now().Add(2 * time.Second)
	for strings.Count(buf.String(), "\n") < 40 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	stop()
	close(done)
	wg.Wait()

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) < 40 {
		t.Fatalf("%d heartbeat lines, want at least 40", len(lines))
	}
	seen := map[string]int{}
	for _, line := range lines {
		matched := false
		for _, run := range runs {
			if strings.HasPrefix(line, "run "+run.name+": ") {
				matched = true
				seen[run.name]++
				if !strings.Contains(line, run.counters) {
					t.Errorf("line %q does not carry %s's counters (%s)", line, run.name, run.counters)
				}
			}
		}
		if !matched {
			t.Errorf("line %q names no live run", line)
		}
	}
	// Both runs are live at every tick, so each tick prints both lines.
	if d := seen["a/gshare"] - seen["b/sag"]; d < -1 || d > 1 {
		t.Errorf("lines per run = %v, want one per run per tick", seen)
	}
}
