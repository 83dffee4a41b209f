#!/usr/bin/env bash
# Builds domd and the serving benchmark from the checkout in the current
# directory, then runs one benchmark pass:
#
#   bash perfbench/run.sh --workload dashboard --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS=
go build -o "$out/domd" ./cmd/domd
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -root "$root" -domd "$out/domd" "$@"
