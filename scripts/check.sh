#!/bin/sh
# check.sh — the full local gate: vet, gofmt, build, and the test suite
# under the race detector, plus named subsystem gates, the RNG hygiene
# gate, the timing gate and the end-to-end smokes. CI and pre-commit
# both run exactly this.
set -eux
cd "$(dirname "$0")/.."
go vet ./...
test -z "$(gofmt -l .)"
go build ./...
go test -race ./...

# Runner-specific gates (already covered by the suite above, but named
# here so a failure points straight at the subsystem):
#  - determinism: Jobs=1 vs Jobs=8 byte-identity and cell cache replay
#  - cancellation: no goroutine leak under -race
go test -race -count=1 -run 'TestGridDeterminism|TestGridCancellation|TestCellsRoundTrip|TestShardRun' ./internal/experiments
go test -race -count=1 ./internal/runner

# Memo gate (likewise named for diagnosis): the one singleflight + LRU
# cache behind the trace cache, the serve store's memory tier and the
# policied-cell memo — dedup, errors not stored, waiter cancellation,
# LRU order and the byte budget.
go test -race -count=1 ./internal/memo

# Record/replay gates (likewise named for diagnosis):
#  - replay exactness: every estimator family replays bit-identical to
#    direct simulation, and replay-shaped grids render byte-identical
#  - trace codec and cache: round-trip, typed decode errors, LRU bounds
go test -race -count=1 ./internal/replay
go test -race -count=1 -run 'TestReplay' ./internal/experiments

# Codec gate (likewise named for diagnosis): the shared kernel of the
# two binary trace formats (internal/codec) and both formats' codec
# tests — round trips, typed errors, the SPBT golden and the allocation
# bound on hostile input — then each format's fuzz target for a fixed
# 5000 inputs.
go test -race -count=1 ./internal/codec
go test -race -count=1 -run 'TestCodec|TestDecode|FuzzDecode' ./internal/replay
go test -race -count=1 -run 'Trace' ./internal/synth
go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 5000x ./internal/replay
go test -run '^$' -fuzz '^FuzzTraceDecode$' -fuzztime 5000x ./internal/synth

# Hot-path gates (likewise named for diagnosis): a failure here points
# at the pipeline's fetch and branch paths.
#  - exactness: every Stats field of the golden grid (suite x
#    predictors x policies) and one recording's SPRT bytes match the
#    checked-in hashes
#  - allocation: steady-state Tick allocates nothing, with estimators,
#    a tracer, every predictor and a policy (TestSteadyStateAllocs*)
#  - cache state: the inlined same-block hit leaves tick and LRU stamps
#    as the set scan would (the golden's small-I-cache rows evict, but
#    a wrong stamp on a same-block hit need not change their victims)
#  - trace memory: the suite's recordings retain at most 3.0 B per
#    fetched branch in their compact form, and at most 2.5 (gshare),
#    3.5 (McFarling) and 2.5 (SAg) per predictor (TestTraceBytesPerFetch)
go test -race -count=1 -run 'TestStatsGolden|TestTraceBytesPerFetch' ./internal/experiments
go test -race -count=1 -run 'TestHitMatchesAccess' ./internal/cache
go test -race -count=1 -run 'TestSteadyStateAllocs' ./internal/pipeline

# Godoc contract: the serving stack is the operational surface;
# every exported identifier there must carry a doc comment, and the
# package comment must live in doc.go.
go run ./scripts/doccheck internal/serve internal/runner internal/replay internal/memo internal/obs/span internal/synth internal/codec

# RNG hygiene: nothing draws random numbers at run time; every draw
# happens inside a program builder, from a fixed seed through
# internal/rng. A process-global RNG would break cross-job determinism
# silently.
if grep -rn 'math/rand' internal/experiments internal/runner internal/workload internal/serve internal/synth; then
    echo "check.sh: process-global RNG import found (draw from a fixed-seed internal/rng generator)" >&2
    exit 1
fi

# Geometry gate: the paper's predictor geometry is declared once, as
# internal/bpred's GshareBits, McFarlingBits, SAgBHTBits and
# SAgHistBits. No non-test file outside internal/bpred may size a
# gshare, McFarling or SAg predictor with a numeric literal.
if grep -rnE --include='*.go' --exclude='*_test.go' \
    'bpred\.New(Gshare|GshareNonSpec|McFarling|SAg)\(([^)]*[ ,])?[0-9]' . |
    grep -v '^\./internal/bpred/'; then
    echo "check.sh: predictor built with a literal geometry (use the internal/bpred constants)" >&2
    exit 1
fi

# Serving smoke: results fetched through simserved must be byte-identical
# to a local simctrl run, and a resubmission must be served entirely from
# the content-addressed cache (zero new simulations).
SMOKE=$(mktemp -d)
SERVED_PID=""
SHARD0_PID=""
SHARD1_PID=""
cleanup() {
    for pid in "$SERVED_PID" "$SHARD0_PID" "$SHARD1_PID"; do
        if [ -n "$pid" ]; then
            kill -TERM "$pid" 2>/dev/null || true
            wait "$pid" || true
        fi
    done
    rm -rf "$SMOKE"
}
trap cleanup EXIT INT TERM

# Timing gate: BenchmarkPipelineTick at the change against its parent,
# in alternating pairs; it fails when the change is slower in 29 or
# more of 40 pairs (the rule and its derivation are in
# scripts/benchpair). The change is the work tree. The parent is HEAD
# when the work tree differs from HEAD (a run before committing), and
# HEAD's first parent when it does not (a run on a commit). It is
# built from a git archive, so nothing in .git changes.
if git diff --quiet HEAD --; then
    PARENT=HEAD~1
else
    PARENT=HEAD
fi
mkdir "$SMOKE/parent"
git archive "$PARENT" | tar -x -C "$SMOKE/parent"
go run ./scripts/benchpair "$SMOKE/parent"

go build -o "$SMOKE/simctrl" ./cmd/simctrl
go build -o "$SMOKE/simserved" ./cmd/simserved
go build -o "$SMOKE/simtrace" ./cmd/simtrace

"$SMOKE/simctrl" -exp table3 -committed 60000 > "$SMOKE/local.txt"

# Record/replay smoke: replay (the default) must render the exact bytes
# of -replay off. The selection covers the committed-stream
# experiments (table2, table2-detail, table3, auc, patterns, misest),
# the threshold-group consumers (table4's Distance sweep, fig3 and
# fig5's JRS sweeps, cir's CIR and gMDC-CIR sweeps, abl-width's
# counter-width sweeps, jrsmcf's JRS/McFarling hybrids), the
# experiments that take default-config runs (base stats, site
# profiles) from the recorded trace, and boost, which folds its events
# as they stream.
"$SMOKE/simctrl" -replay off -exp table3 -committed 60000 > "$SMOKE/direct.txt"
cmp "$SMOKE/local.txt" "$SMOKE/direct.txt"
for exp in table2 table2-detail auc patterns misest table4 \
    fig3 fig5 cir abl-width jrsmcf \
    boost boost-mcf abl-depth abl-indirect abl-spechist tuned xinput; do
    "$SMOKE/simctrl" -exp "$exp" -committed 60000 > "$SMOKE/$exp-on.txt"
    "$SMOKE/simctrl" -replay off -exp "$exp" -committed 60000 > "$SMOKE/$exp-off.txt"
    cmp "$SMOKE/$exp-off.txt" "$SMOKE/$exp-on.txt"
done

# Span-tracing smoke: -trace-out must emit a Chrome trace-event file
# that parses with per-cell spans, -profile-cells must print the
# slowest-cells table, and tracing must not perturb rendered output.
"$SMOKE/simctrl" -exp table3 -committed 60000 \
    -trace-out "$SMOKE/run.trace.json" -profile-cells 3 \
    > "$SMOKE/traced.txt" 2> "$SMOKE/trace.log"
cmp "$SMOKE/local.txt" "$SMOKE/traced.txt"
go run ./scripts/tracecheck -min-events 1 -want-span 'cell:' "$SMOKE/run.trace.json"
grep -q 'slowest' "$SMOKE/trace.log"

# Cell-cost smoke: every row -profile-cells reports as computed must
# carry the simulated cycles it cost, across every experiment.
"$SMOKE/simctrl" -exp all -committed 30000 -jobs 2 -profile-cells 1000 \
    > "$SMOKE/all-j2.txt" 2> "$SMOKE/cells.log"
grep -q ' compute ' "$SMOKE/cells.log"
ZERO_ROWS=$(awk '$5 == "compute" && $3 == 0' "$SMOKE/cells.log")
[ -z "$ZERO_ROWS" ] || {
    echo "check.sh: -profile-cells computed rows with 0 cycles:" >&2
    echo "$ZERO_ROWS" >&2
    exit 1
}

# -jobs determinism gate: every experiment must render the exact bytes
# of the -jobs 2 run above at -jobs 1 and at -jobs 8.
for jobs in 1 8; do
    "$SMOKE/simctrl" -exp all -committed 30000 -jobs "$jobs" > "$SMOKE/all-j$jobs.txt"
    cmp "$SMOKE/all-j2.txt" "$SMOKE/all-j$jobs.txt"
done

# Synth smoke (docs/WORKLOADS.md): record an SPBT branch trace, ingest
# it plus a profile vector, and render the sweepspace panel — replay
# (the default) must match -replay off byte-for-byte, and both the
# profile-backed and the trace-backed rows must appear.
cat > "$SMOKE/profile.json" <<'EOF'
{"seed": 7, "sites": 24, "density": 0.10, "taken": 0.7, "spread": 0.2}
EOF
"$SMOKE/simtrace" -w compress -record-branches "$SMOKE/compress.spbt" -committed 40000

# simtrace smoke: one recording feeds every output. The SPBT written
# next to -record must be the -record-branches-only file, -summarize
# must read the SPRT recording, and -summarize on anything else must
# fail with a typed replay error (exit 1), not a panic.
"$SMOKE/simtrace" -w compress -committed 40000 -record "$SMOKE/x.sprt" \
    -record-branches "$SMOKE/y.spbt" > /dev/null
cmp "$SMOKE/y.spbt" "$SMOKE/compress.spbt"
"$SMOKE/simtrace" -summarize "$SMOKE/x.sprt" > /dev/null
set +e
"$SMOKE/simtrace" -summarize "$SMOKE/y.spbt" 2> "$SMOKE/summarize.err"
SUMMARIZE_EXIT=$?
set -e
[ "$SUMMARIZE_EXIT" -eq 1 ] && grep -q 'replay:' "$SMOKE/summarize.err" || {
    echo "check.sh: simtrace -summarize of an SPBT file exited $SUMMARIZE_EXIT without a replay: error" >&2
    cat "$SMOKE/summarize.err" >&2
    exit 1
}
"$SMOKE/simctrl" -exp sweepspace -synth-n 4 -committed 40000 \
    -ingest-trace "$SMOKE/compress.spbt" > "$SMOKE/sweep-base.txt"
"$SMOKE/simctrl" -exp sweepspace -synth-n 4 -committed 40000 \
    -ingest-trace "$SMOKE/compress.spbt" -synth-profile "$SMOKE/profile.json" \
    > "$SMOKE/sweep.txt"
"$SMOKE/simctrl" -replay off -exp sweepspace -synth-n 4 -committed 40000 \
    -ingest-trace "$SMOKE/compress.spbt" -synth-profile "$SMOKE/profile.json" \
    > "$SMOKE/sweep-direct.txt"
cmp "$SMOKE/sweep.txt" "$SMOKE/sweep-direct.txt"
grep -q 'synth:t-' "$SMOKE/sweep.txt"

# Policy-layer smoke: the abl-gating and frontier experiments' policied
# cells simulate directly (policies perturb timing, so replay never
# applies to them) — the default mode must render the exact bytes of
# -replay off. And a base-config -policy must change table3's
# timing-derived bytes while staying byte-identical between replay
# modes, because an installed policy forces every cell off the replay
# path.
for exp in abl-gating frontier; do
    "$SMOKE/simctrl" -exp "$exp" -committed 60000 > "$SMOKE/$exp-local.txt"
    "$SMOKE/simctrl" -replay off -exp "$exp" -committed 60000 > "$SMOKE/$exp-direct.txt"
    cmp "$SMOKE/$exp-local.txt" "$SMOKE/$exp-direct.txt"
done
grep -q 'gate:1' "$SMOKE/frontier-local.txt"
"$SMOKE/simctrl" -policy gate:2 -exp table3 -committed 60000 > "$SMOKE/policied.txt"
"$SMOKE/simctrl" -policy gate:2 -replay off -exp table3 -committed 60000 > "$SMOKE/policied-direct.txt"
cmp "$SMOKE/policied.txt" "$SMOKE/policied-direct.txt"
if cmp -s "$SMOKE/local.txt" "$SMOKE/policied.txt"; then
    echo "check.sh: -policy gate:2 left table3 unchanged; the policy was not installed" >&2
    exit 1
fi

# Shard smoke, the multi-machine path: two concurrent processes each
# compute one -shard of the grid into a -cells-out file, and merging
# the files with -cells-in must render the exact bytes of the local run.
for exp in table3 frontier; do
    "$SMOKE/simctrl" -exp "$exp" -committed 60000 -shard 0/2 \
        -cells-out "$SMOKE/$exp-s0.json" 2> "$SMOKE/$exp-s0.log" &
    SHARD0_PID=$!
    "$SMOKE/simctrl" -exp "$exp" -committed 60000 -shard 1/2 \
        -cells-out "$SMOKE/$exp-s1.json" 2> "$SMOKE/$exp-s1.log" &
    SHARD1_PID=$!
    wait "$SHARD0_PID"
    SHARD0_PID=""
    wait "$SHARD1_PID"
    SHARD1_PID=""
    "$SMOKE/simctrl" -exp "$exp" -committed 60000 \
        -cells-in "$SMOKE/$exp-s0.json,$SMOKE/$exp-s1.json" > "$SMOKE/$exp-merged.txt"
done
cmp "$SMOKE/local.txt" "$SMOKE/table3-merged.txt"
cmp "$SMOKE/frontier-local.txt" "$SMOKE/frontier-merged.txt"

# Mixed-mode shard smoke: both -replay modes enumerate the same cells,
# so a shard computed under -replay off merges with one computed under
# the default into the exact bytes of the local run.
"$SMOKE/simctrl" -exp table3 -committed 60000 -replay off -shard 0/2 \
    -cells-out "$SMOKE/mixed-s0.json" 2> "$SMOKE/mixed-s0.log"
"$SMOKE/simctrl" -exp table3 -committed 60000 -shard 1/2 \
    -cells-out "$SMOKE/mixed-s1.json" 2> "$SMOKE/mixed-s1.log"
"$SMOKE/simctrl" -exp table3 -committed 60000 \
    -cells-in "$SMOKE/mixed-s0.json,$SMOKE/mixed-s1.json" > "$SMOKE/mixed-merged.txt"
cmp "$SMOKE/local.txt" "$SMOKE/mixed-merged.txt"

"$SMOKE/simserved" -addr 127.0.0.1:0 -addr-file "$SMOKE/addr" \
    -cache-dir "$SMOKE/cache" -committed 60000 \
    -ingest-trace "$SMOKE/compress.spbt" 2> "$SMOKE/simserved.log" &
SERVED_PID=$!
for _ in $(seq 1 100); do
    [ -s "$SMOKE/addr" ] && break
    sleep 0.1
done
[ -s "$SMOKE/addr" ] || { echo "check.sh: simserved never published its address" >&2; cat "$SMOKE/simserved.log" >&2; exit 1; }
URL=$(cat "$SMOKE/addr")

"$SMOKE/simctrl" -server "$URL" -exp table3 -committed 60000 \
    > "$SMOKE/served1.txt" 2> "$SMOKE/stats1.txt"
"$SMOKE/simctrl" -server "$URL" -exp table3 -committed 60000 \
    > "$SMOKE/served2.txt" 2> "$SMOKE/stats2.txt"

# Byte-identity of both served runs against the local run.
cmp "$SMOKE/local.txt" "$SMOKE/served1.txt"
cmp "$SMOKE/local.txt" "$SMOKE/served2.txt"

# First submission simulated everything; the resubmission hit the cache
# for every cell (the stats line is "... N cells (C cached, S simulated)").
grep -q '(0 cached' "$SMOKE/stats1.txt"
grep -q ' 0 simulated)' "$SMOKE/stats2.txt"
# ...and the resubmission's cells came from the in-memory tier of
# decoded results, not from re-reading the disk tier.
MEM_HITS=$(curl -s "$URL/metrics" | awk '/^specctrl_serve_cache_mem_hits_total/ {print $2}')
[ -n "$MEM_HITS" ] && [ "$MEM_HITS" -ge 1 ] || {
    echo "check.sh: no in-memory cell-cache hits after a resubmission (got '$MEM_HITS')" >&2
    exit 1
}
# ...and the resubmission's table came from the rendered tier, without
# running its grid or its renderer.
RENDERED_HITS=$(curl -s "$URL/metrics" | awk '/^specctrl_serve_rendered_hits_total/ {print $2}')
[ -n "$RENDERED_HITS" ] && [ "$RENDERED_HITS" -ge 1 ] || {
    echo "check.sh: no rendered-tier hits after a resubmission (got '$RENDERED_HITS')" >&2
    exit 1
}

# Served synth smoke: the server ingested compress.spbt at startup, so a
# sweepspace job renders the trace-backed row byte-identically to the
# local run. Its five workloads (four profiles plus the ingested trace)
# are outside the suite, and each is read by exactly one cell, so every
# cell simulates directly with the estimator panel attached: the job
# simulates all five cells and adds no recording to the server's trace
# cache.
TRACE_RECORDS0=$(curl -s "$URL/metrics" | awk '/^specctrl_trace_records_total/ {print $2}')
"$SMOKE/simctrl" -server "$URL" -exp sweepspace -synth-n 4 -committed 40000 \
    > "$SMOKE/ssweep1.txt" 2> "$SMOKE/sstats1.txt"
cmp "$SMOKE/sweep-base.txt" "$SMOKE/ssweep1.txt"
grep -q '(0 cached, 5 simulated)' "$SMOKE/sstats1.txt"
TRACE_RECORDS1=$(curl -s "$URL/metrics" | awk '/^specctrl_trace_records_total/ {print $2}')
[ -n "$TRACE_RECORDS0" ] && [ -n "$TRACE_RECORDS1" ] && [ "$TRACE_RECORDS1" = "$TRACE_RECORDS0" ] || {
    echo "check.sh: sweepspace job recorded '$TRACE_RECORDS0' -> '$TRACE_RECORDS1' traces, want none" >&2
    exit 1
}
# Resubmitting with an extra pinned profile simulates only the new
# workload's cells; everything already seen is a cell-cache hit.
RENDERED_HITS0=$(curl -s "$URL/metrics" | awk '/^specctrl_serve_rendered_hits_total/ {print $2}')
"$SMOKE/simctrl" -server "$URL" -exp sweepspace -synth-n 4 -committed 40000 \
    -synth-profile "$SMOKE/profile.json" > "$SMOKE/ssweep2.txt" 2> "$SMOKE/sstats2.txt"
grep -q 'synth:' "$SMOKE/ssweep2.txt"
! grep -q '(0 cached' "$SMOKE/sstats2.txt"
! grep -q ' 0 simulated)' "$SMOKE/sstats2.txt"
# The extra profile changes the experiment's address: a rendered-tier
# miss, never the first sweep's table.
RENDERED_HITS1=$(curl -s "$URL/metrics" | awk '/^specctrl_serve_rendered_hits_total/ {print $2}')
[ -n "$RENDERED_HITS0" ] && [ "$RENDERED_HITS0" = "$RENDERED_HITS1" ] || {
    echo "check.sh: sweepspace with an extra profile hit the rendered tier ('$RENDERED_HITS0' -> '$RENDERED_HITS1')" >&2
    exit 1
}

# Served policy smoke: abl-gating then frontier must come back from the
# service byte-identical to the local runs, and frontier must reuse the
# baseline and gate:t cells abl-gating already stored.
"$SMOKE/simctrl" -server "$URL" -exp abl-gating -committed 60000 > "$SMOKE/abl-gating-served.txt"
cmp "$SMOKE/abl-gating-local.txt" "$SMOKE/abl-gating-served.txt"
"$SMOKE/simctrl" -server "$URL" -exp frontier -committed 60000 \
    > "$SMOKE/frontier-served.txt" 2> "$SMOKE/fstats.txt"
cmp "$SMOKE/frontier-local.txt" "$SMOKE/frontier-served.txt"
! grep -q '(0 cached' "$SMOKE/fstats.txt"

# Graceful drain: SIGTERM must exit 0.
kill -TERM "$SERVED_PID"
wait "$SERVED_PID"
SERVED_PID=""

# Restart smoke: a new server on the same -cache-dir starts with an
# empty memory tier, so the disk tier alone must serve table3
# byte-identically with zero simulations.
rm -f "$SMOKE/addr"
"$SMOKE/simserved" -addr 127.0.0.1:0 -addr-file "$SMOKE/addr" \
    -cache-dir "$SMOKE/cache" -committed 60000 2> "$SMOKE/simserved2.log" &
SERVED_PID=$!
for _ in $(seq 1 100); do
    [ -s "$SMOKE/addr" ] && break
    sleep 0.1
done
[ -s "$SMOKE/addr" ] || { echo "check.sh: restarted simserved never published its address" >&2; cat "$SMOKE/simserved2.log" >&2; exit 1; }
URL=$(cat "$SMOKE/addr")
"$SMOKE/simctrl" -server "$URL" -exp table3 -committed 60000 \
    > "$SMOKE/served3.txt" 2> "$SMOKE/stats3.txt"
cmp "$SMOKE/local.txt" "$SMOKE/served3.txt"
grep -q ' 0 simulated)' "$SMOKE/stats3.txt"
kill -TERM "$SERVED_PID"
wait "$SERVED_PID"
SERVED_PID=""
