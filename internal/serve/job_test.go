package serve

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// TestCellEventElapsed: a cell event reports its elapsed time in
// fractional milliseconds, so a sub-millisecond cell (every memory hit)
// reports its time instead of a truncated 0 that omitempty drops.
func TestCellEventElapsed(t *testing.T) {
	for _, tc := range []struct {
		elapsed time.Duration
		wantMS  float64
	}{
		{250 * time.Microsecond, 0.25},
		{1500 * time.Microsecond, 1.5},
		{3 * time.Millisecond, 3},
	} {
		j := newJob("job-elapsed", SubmitRequest{}, time.Now())
		j.cellDone("table3/compress/mcfarling/main", testAddr("aa"), true, tc.elapsed)
		evs, _, _ := j.eventsSince(0)
		if len(evs) != 1 {
			t.Fatalf("%d events, want 1", len(evs))
		}
		if got := evs[0].ElapsedMS; got != tc.wantMS {
			t.Errorf("%v cell: elapsedMs %v, want %v", tc.elapsed, got, tc.wantMS)
		}
		data, err := json.Marshal(evs[0])
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), `"elapsedMs":`) {
			t.Errorf("%v cell: event %s has no elapsedMs", tc.elapsed, data)
		}
	}
}
