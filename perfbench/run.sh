#!/usr/bin/env bash
# Builds the benchmark and prodigy-serve from this checkout's source, then
# runs the benchmark. Run it from the repository root:
#
#   bash perfbench/run.sh --workload paper-none --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes (binaries, the Go build cache, server
# cache directories, profiles) stays under .bench_build/.
set -euo pipefail

out="$(pwd)/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=
mkdir -p "$out/bin"

# Build the benchmark with prodigy-bench's PGO profile when there is one:
# the paper workloads measure the path prodigy-bench users run.
pgo=off
if [ -f cmd/prodigy-bench/default.pgo ]; then
	pgo="$(pwd)/cmd/prodigy-bench/default.pgo"
fi
(
	cd perfbench
	go build -pgo="$pgo" -o "$out/bin/perfbench" .
	go build -o "$out/bin/prodigy-serve" prodigy/cmd/prodigy-serve
) >&2

exec "$out/bin/perfbench" -serve-bin "$out/bin/prodigy-serve" -work "$out/tmp" "$@"
