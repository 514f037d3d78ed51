#!/usr/bin/env bash
# Builds specbench from source and runs it. Run from the repository root:
#
#   bash bench/run.sh measure --workload regen-all --seed 1 --seconds 24 --trace 0
#   bash bench/run.sh bench -runs 5 -seed 1 -out .bench_build/runs.json
#   bash bench/run.sh build      # build only
#
# The binary, the Go build cache and every file a run writes stay under
# .bench_build/ in the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd bench && go build -o "$out/specbench" ./specbench)
if [ "${1-}" = build ]; then
	exit 0
fi
exec "$out/specbench" "$@"
