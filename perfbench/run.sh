#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the
# given arguments. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload cold-compile --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh steady --runs 10
#
# Everything the build and the runs leave behind (Go build cache,
# binary, Chrome traces) goes under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
