#!/usr/bin/env bash
# Builds the benchmark and the mrmcminhd daemon from source, then runs
# the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload dedup-lsh --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and the toolchain's own files,
# generated inputs and traces all stay under .bench_build/ in the
# repository root. perfbench/METRICS.md describes the workloads and
# metrics.
set -euo pipefail
out=.bench_build
mkdir -p "$out"
export GOCACHE="$PWD/$out/gocache" GOPATH="$PWD/$out/gopath" XDG_CONFIG_HOME="$PWD/$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "../$out/perfbench" .) >&2
go build -o "$out/mrmcminhd" ./cmd/mrmcminhd >&2
exec "$out/perfbench" --root . --daemon "$out/mrmcminhd" "$@"
