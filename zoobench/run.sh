#!/usr/bin/env bash
# Builds the zoo planning benchmark from the checkout it sits in and runs it
# with the arguments given, e.g.
#
#   bash zoobench/run.sh --workload zoo-lp --seed 1 --seconds 30 --trace 0
#
# The binary and the Go build cache live under .bench_build/ at the root of
# the checkout, so a run reads and writes nothing outside it.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
(cd zoobench && go build -o "$out/zoobench" .) >&2
exec "$out/zoobench" "$@"
