package experiments

import (
	"context"
	"reflect"
	"testing"

	"specctrl/internal/obs"
	"specctrl/internal/obs/span"
	"specctrl/internal/runner"
)

// TestProgressNamesRunsByCell: inside a grid, a direct run shows in the
// progress view under its cell's key, so two variants of one (workload,
// predictor) pair print distinct heartbeat lines; a recording shows
// under its trace, which cells share; a run outside any grid falls
// back to the pair.
func TestProgressNamesRunsByCell(t *testing.T) {
	p := smallParams()
	p.MaxCommitted = 2_000
	p.Jobs = 1 // one run live at a time
	p.Run = obs.NewProgress()
	w := suite()[0]
	spec := GshareSpec()

	// live runs one direct run of w on spec and returns the progress
	// view's run names while it is inside its bracket.
	live := func(q Params, kind runKind) []string {
		t.Helper()
		var names []string
		if _, err := q.runPipeline(kind, w.Name, buildProgram(w), spec, q.Pipeline, 0, func(*span.Span) error {
			for _, s := range q.Run.Snapshot() {
				names = append(names, s.Run)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return names
	}

	specs := []runner.Spec{
		{Experiment: "abl-depth", Workload: w.Name, Predictor: spec.Name, Variant: "d5"},
		{Experiment: "abl-depth", Workload: w.Name, Predictor: spec.Name, Variant: "d7"},
	}
	direct := map[string][]string{}
	record := map[string][]string{}
	if _, err := p.runGrid(specs, func(_ context.Context, q Params, sp runner.Spec) (CellResult, error) {
		direct[sp.Key()] = live(q, simulateRun)
		record[sp.Key()] = live(q, recordRun)
		return CellResult{}, nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, sp := range specs {
		if got, want := direct[sp.Key()], []string{sp.Key()}; !reflect.DeepEqual(got, want) {
			t.Errorf("direct run in cell %s shows as %q, want %q", sp.Key(), got, want)
		}
		if got, want := record[sp.Key()], []string{"record " + w.Name + "/" + spec.Name}; !reflect.DeepEqual(got, want) {
			t.Errorf("recording in cell %s shows as %q, want %q", sp.Key(), got, want)
		}
	}
	if got, want := live(p, simulateRun), []string{w.Name + "/" + spec.Name}; !reflect.DeepEqual(got, want) {
		t.Errorf("run outside a grid shows as %q, want %q", got, want)
	}
	if n := len(p.Run.Snapshot()); n != 0 {
		t.Errorf("%d runs still live after every run ended", n)
	}
}
