package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"specctrl/internal/conf"
	"specctrl/internal/pipeline"
	"specctrl/internal/replay"
	"specctrl/internal/workload"
)

func TestNewPredictor(t *testing.T) {
	for _, name := range []string{"gshare", "mcfarling", "sag"} {
		if _, err := newPredictor(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := newPredictor("oracle"); err == nil {
		t.Error("unknown predictor accepted")
	}
}

// TestRecordAndSummarize is the command's smoke test. For each
// predictor it records a short run to all three outputs and checks
// that -summarize of the recording reports exactly what a direct run
// with JRS attached counts, that the SPBT written next to -record is
// the one -record-branches writes alone, and that the JSONL mirror of
// the stream is valid, non-empty JSON lines.
func TestRecordAndSummarize(t *testing.T) {
	const committed = 20_000
	w, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	for _, predictor := range []string{"gshare", "mcfarling", "sag"} {
		t.Run(predictor, func(t *testing.T) {
			dir := t.TempDir()
			bin := filepath.Join(dir, "out.sprt")
			jsonl := filepath.Join(dir, "out.jsonl")
			spbt := filepath.Join(dir, "out.spbt")
			alone := filepath.Join(dir, "alone.spbt")
			opts := recordOptions{
				workload:  w.Name,
				predictor: predictor,
				binPath:   bin,
				jsonlPath: jsonl,
				spbtPath:  spbt,
				committed: committed,
				iters:     1 << 30,
			}
			if err := doRecord(opts); err != nil {
				t.Fatalf("doRecord: %v", err)
			}
			opts.binPath, opts.jsonlPath, opts.spbtPath = "", "", alone
			if err := doRecord(opts); err != nil {
				t.Fatalf("doRecord -record-branches alone: %v", err)
			}

			got, err := summarizeFile(bin)
			if err != nil {
				t.Fatalf("summarizeFile: %v", err)
			}
			pred, err := newPredictor(predictor)
			if err != nil {
				t.Fatal(err)
			}
			cfg := pipeline.DefaultConfig()
			cfg.MaxCommitted = committed
			cfg.Estimators = []conf.Estimator{conf.NewJRS(conf.DefaultJRS)}
			st, err := pipeline.MustNew(cfg, w.Build(1<<30), pred).Run()
			if err != nil {
				t.Fatal(err)
			}
			q := st.CommittedQ
			want := summary{
				events:     st.AllBr,
				committed:  st.CommittedBr,
				wrongPath:  st.AllBr - st.CommittedBr,
				mispredict: q.Ihc + q.Ilc,
				lowConf:    q.Clc + q.Ilc,
			}
			// The compact form: 2-3 B per fetch (McFarling keeps its
			// counter column), against ~6 B with explicit pcs and histories.
			if got.bytes <= 0 || float64(got.bytes) > 3.5*float64(got.events) {
				t.Errorf("decoded recording holds %d resident bytes for %d fetches, want (0, 3.5] B per fetch",
					got.bytes, got.events)
			}
			want.bytes = got.bytes
			if got != want || got.committed == 0 {
				t.Errorf("summary of the recording %+v, direct run %+v", got, want)
			}
			if err := doSummarize(bin); err != nil {
				t.Errorf("doSummarize: %v", err)
			}

			a, err := os.ReadFile(spbt)
			if err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(alone)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Errorf("SPBT next to -record (%d bytes) differs from -record-branches alone (%d bytes)", len(a), len(b))
			}

			jf, err := os.Open(jsonl)
			if err != nil {
				t.Fatal(err)
			}
			defer jf.Close()
			sc := bufio.NewScanner(jf)
			lines := 0
			for sc.Scan() {
				if !json.Valid(sc.Bytes()) {
					t.Fatalf("invalid JSONL line: %s", sc.Text())
				}
				lines++
			}
			if err := sc.Err(); err != nil {
				t.Fatal(err)
			}
			if uint64(lines) != st.AllBr {
				t.Errorf("%d JSONL events, run fetched %d branches", lines, st.AllBr)
			}
		})
	}
}

// TestSummarizeErrors checks -summarize fails with a typed replay error,
// never a panic, on files that are not SPRT recordings.
func TestSummarizeErrors(t *testing.T) {
	dir := t.TempDir()
	sprt := filepath.Join(dir, "x.sprt")
	spbt := filepath.Join(dir, "x.spbt")
	err := doRecord(recordOptions{
		workload:  "compress",
		predictor: "gshare",
		binPath:   sprt,
		spbtPath:  spbt,
		committed: 5_000,
		iters:     1 << 30,
	})
	if err != nil {
		t.Fatalf("doRecord: %v", err)
	}
	valid, err := os.ReadFile(sprt)
	if err != nil {
		t.Fatal(err)
	}
	branches, err := os.ReadFile(spbt)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		data []byte
		want error
	}{
		{"spbt", branches, replay.ErrBadMagic},
		{"spct", []byte("SPCT\x01\x05\x01\x00\x00\x00"), replay.ErrBadMagic},
		{"empty", nil, replay.ErrBadMagic},
		{"truncated-sprt", valid[:len(valid)/2], replay.ErrCorrupt},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name)
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := summarizeFile(path); !errors.Is(err, tc.want) {
				t.Errorf("summarizeFile = %v, want %v", err, tc.want)
			}
			if err := doSummarize(path); !errors.Is(err, tc.want) {
				t.Errorf("doSummarize = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestRecordUnknownWorkload(t *testing.T) {
	err := doRecord(recordOptions{
		workload:  "no-such-benchmark",
		predictor: "gshare",
		binPath:   filepath.Join(t.TempDir(), "x.sprt"),
		committed: 1000,
		iters:     1,
	})
	if err == nil {
		t.Error("unknown workload accepted")
	}
}
