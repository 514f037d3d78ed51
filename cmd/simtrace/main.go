// Command simtrace works with workload programs and branch traces:
// disassemble a benchmark, record a speculative branch trace (the
// paper's §3.1 instrumentation) to a replayable binary file or a JSONL
// debugging stream, or summarize a recorded trace without
// re-simulating.
//
// Usage:
//
//	simtrace -w compress -dis                     # disassemble
//	simtrace -w gcc -record /tmp/gcc.sprt -committed 500000
//	simtrace -w gcc -record-jsonl /tmp/gcc.jsonl  # greppable events
//	simtrace -w gcc -record-branches /tmp/gcc.spbt # ingestable via -ingest-trace
//	simtrace -summarize /tmp/gcc.sprt
//
// A recording run attaches the JRS estimator as estimator 0, the
// JSONL "hc" field. With -record or -record-branches, a
// replay.Recorder is attached after it, so JSONL "mask" also carries
// bit 1 (the recorder, always high confidence). -record writes that
// recording in internal/replay's SPRT format: every fetched branch
// with its full predictor state, replayable under any estimator.
// -record-branches writes the recording's committed branches as an
// SPBT branch trace (see docs/WORKLOADS.md). -summarize decodes an
// SPRT file and replays JRS over it; a file in any other format fails
// with a typed replay error. Like simctrl, long recordings accept
// -progress and -metrics-addr for live observation.
package main

import (
	"flag"
	"fmt"
	"os"

	"specctrl/internal/bpred"
	"specctrl/internal/cliflags"
	"specctrl/internal/conf"
	"specctrl/internal/experiments"
	"specctrl/internal/isa"
	"specctrl/internal/obs"
	"specctrl/internal/obs/span"
	"specctrl/internal/pipeline"
	"specctrl/internal/replay"
	"specctrl/internal/synth"
	"specctrl/internal/workload"
)

func main() {
	var (
		wname       = flag.String("w", "", "workload name (see -listw)")
		listw       = flag.Bool("listw", false, "list workloads")
		dis         = flag.Bool("dis", false, "disassemble the workload")
		record      = flag.String("record", "", "simulate and write the replayable SPRT branch trace to this file")
		recordJSONL = flag.String("record-jsonl", "", "simulate and write JSONL branch events to this file")
		recordSPBT  = flag.String("record-branches", "", "simulate and write an SPBT branch trace to this file (load back with -ingest-trace)")
		summarize   = flag.String("summarize", "", "read an SPRT trace file and print its summary")
		committed   = cliflags.Committed(flag.CommandLine, 500_000, "committed instructions for -record")
		iters       = flag.Int("iters", 1<<30, "workload outer iterations")
		pred        = flag.String("pred", "gshare", "predictor for -record: gshare|mcfarling|sag")
		obsFlags    = cliflags.RegisterObs(flag.CommandLine)
		traceF      = cliflags.RegisterTrace(flag.CommandLine)
	)
	flag.Parse()

	switch {
	case *listw:
		for _, w := range workload.Suite() {
			fmt.Printf("%-9s %s\n", w.Name, w.Description)
		}
	case *summarize != "":
		if err := doSummarize(*summarize); err != nil {
			fail(err)
		}
	case *dis:
		w, err := workload.ByName(*wname)
		if err != nil {
			fail(err)
		}
		p := w.Build(*iters)
		fmt.Printf("%s: %d instructions, %d data words\n\n",
			p.Name, len(p.Code), len(p.Data))
		fmt.Print(isa.Disassemble(p, nil))
	case *record != "" || *recordJSONL != "" || *recordSPBT != "":
		opts := recordOptions{
			workload:  *wname,
			predictor: *pred,
			binPath:   *record,
			jsonlPath: *recordJSONL,
			spbtPath:  *recordSPBT,
			committed: *committed,
			iters:     *iters,
			obs:       obsFlags,
			trace:     traceF,
		}
		if err := doRecord(opts); err != nil {
			fail(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "simtrace: nothing to do (try -listw, -dis, -record, -record-jsonl, -record-branches, -summarize)")
		flag.Usage()
		os.Exit(2)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "simtrace: %v\n", err)
	os.Exit(1)
}

// newPredictor builds the named predictor in the paper's geometry, as
// every experiment does.
func newPredictor(name string) (bpred.Predictor, error) {
	for _, spec := range experiments.AllPredictors() {
		if spec.Name == name {
			return spec.New(), nil
		}
	}
	return nil, fmt.Errorf("unknown predictor %q", name)
}

type recordOptions struct {
	workload, predictor string
	binPath, jsonlPath  string
	spbtPath            string
	committed           uint64
	iters               int
	obs                 cliflags.Obs
	trace               cliflags.Trace
}

func doRecord(o recordOptions) error {
	w, err := workload.ByName(o.workload)
	if err != nil {
		return err
	}
	pred, err := newPredictor(o.predictor)
	if err != nil {
		return err
	}

	// Create every output up front, so a bad path fails before the run.
	var binFile, jsonlFile, spbtFile *os.File
	for _, f := range []struct {
		path string
		file **os.File
	}{{o.binPath, &binFile}, {o.jsonlPath, &jsonlFile}, {o.spbtPath, &spbtFile}} {
		if f.path == "" {
			continue
		}
		file, err := os.Create(f.path)
		if err != nil {
			return err
		}
		defer file.Close()
		*f.file = file
	}

	cfg := pipeline.DefaultConfig()
	cfg.MaxCommitted = o.committed
	cfg.Estimators = []conf.Estimator{conf.NewJRS(conf.DefaultJRS)}
	var sinks []obs.Tracer
	var jsonlSink *obs.JSONL
	if jsonlFile != nil {
		jsonlSink = obs.NewJSONL(jsonlFile)
		sinks = append(sinks, jsonlSink)
	}
	var recorder *replay.Recorder
	if binFile != nil || spbtFile != nil {
		recorder = replay.NewRecorder()
		cfg.Estimators = append(cfg.Estimators, recorder)
		sinks = append(sinks, recorder)
	}
	cfg.Tracer = obs.MultiSink(sinks...)

	tracer := o.trace.NewTracer()
	started, err := o.obs.Start("simtrace", os.Stderr, tracer)
	if err != nil {
		return err
	}
	defer started.Stop()
	if started.Registry != nil {
		cfg.Metrics = started.Registry
		cfg.MetricsLabels = obs.Labels{"workload": w.Name, "predictor": o.predictor}
	}
	cfg.Progress = started.Run.StartRun(w.Name+"/"+o.predictor, o.committed)
	defer cfg.Progress.End()

	sim, err := pipeline.New(cfg, w.Build(o.iters), pred)
	if err != nil {
		return err
	}
	rec := tracer.Root("record:"+w.Name+"/"+o.predictor,
		span.Str("workload", w.Name), span.Str("predictor", o.predictor))
	_, runErr := sim.Run()
	var tr *replay.Trace
	if runErr == nil && recorder != nil {
		if tr, runErr = recorder.Trace(); runErr == nil {
			rec.SetAttrs(span.Int("events", int64(tr.Events())), span.Int("bytes", int64(tr.Bytes())))
		}
	}
	rec.End()
	if runErr != nil {
		return runErr
	}
	if t := cfg.Tracer; t != nil {
		if err := t.Close(); err != nil {
			return err
		}
	}
	if binFile != nil {
		data := tr.Encode()
		if err := writeFile(binFile, data); err != nil {
			return err
		}
		fmt.Printf("wrote %d events (%d bytes, %.1f B/event) to %s\n",
			tr.Fetches(), len(data), float64(len(data))/float64(max(tr.Fetches(), 1)), o.binPath)
	}
	if jsonlSink != nil {
		if err := jsonlFile.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %d JSONL events to %s\n", jsonlSink.Count(), o.jsonlPath)
	}
	if spbtFile != nil {
		data, err := branchTrace(tr)
		if err != nil {
			return err
		}
		if err := writeFile(spbtFile, data); err != nil {
			return err
		}
		fmt.Printf("wrote SPBT branch trace (%d bytes) to %s; load with -ingest-trace\n",
			len(data), o.spbtPath)
	}
	return o.trace.Finish(tracer, "simtrace", os.Stderr)
}

// writeFile writes data to f and closes it.
func writeFile(f *os.File, data []byte) error {
	if _, err := f.Write(data); err != nil {
		return err
	}
	return f.Close()
}

// branchTrace encodes a recording's committed branches, in program
// order, as an SPBT branch trace. A committed branch's outcome is its
// prediction when the prediction was correct, the opposite otherwise.
func branchTrace(tr *replay.Trace) ([]byte, error) {
	var pcs []int64
	var taken []bool
	tr.Committed(func(pc int64, info bpred.Info, correct bool) {
		pcs = append(pcs, pc)
		taken = append(taken, info.Pred == correct)
	})
	st, err := synth.NewTrace(pcs, taken)
	if err != nil {
		return nil, err
	}
	return synth.EncodeTrace(st)
}

// summary is what -summarize reports about a recording.
type summary struct {
	events, committed, wrongPath, mispredict, lowConf uint64
	bytes                                             int // the decoded trace's resident bytes
}

// summarizeFile decodes an SPRT recording and replays JRS over it: the
// estimator a recording run attaches first, so the committed quadrant
// is the recording run's own.
func summarizeFile(path string) (summary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return summary{}, err
	}
	tr, err := replay.Decode(data)
	if err != nil {
		return summary{}, err
	}
	q := replay.Replay(tr, []conf.Estimator{conf.NewJRS(conf.DefaultJRS)})[0].CommittedQ
	s := summary{
		events:     uint64(tr.Fetches()),
		committed:  q.Total(),
		mispredict: q.Incorrect(),
		lowConf:    q.Clc + q.Ilc,
		bytes:      tr.Bytes(),
	}
	s.wrongPath = s.events - s.committed
	return s, nil
}

func doSummarize(path string) error {
	s, err := summarizeFile(path)
	if err != nil {
		return err
	}
	fmt.Printf("events      %d\n", s.events)
	fmt.Printf("committed   %d\n", s.committed)
	fmt.Printf("wrong-path  %d\n", s.wrongPath)
	if s.committed > 0 {
		fmt.Printf("mispredict  %d (%.1f%%)\n", s.mispredict,
			100*float64(s.mispredict)/float64(s.committed))
		fmt.Printf("low-conf    %d (%.1f%%)\n", s.lowConf,
			100*float64(s.lowConf)/float64(s.committed))
	}
	fmt.Printf("resident    %d bytes (%.2f B per fetch)\n", s.bytes,
		float64(s.bytes)/float64(max(s.events, 1)))
	return nil
}
