#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument passes
# through to the benchmark binary. Run from the repository root:
#
#   bash bench/run.sh --workload attack-sweep --seed 1 --seconds 10 --trace 0
#
# The binary, the Go build cache and the benchmark's own scratch files all
# live under .bench_build/, so a run reads and writes only inside the
# checkout. The build needs the module at the repository root (bench/go.mod
# replaces it with ../), so a copy of bench/ on its own fails here.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root/bench" && go build -o "$out/mithrilbench" .)
exec "$out/mithrilbench" "$@"
