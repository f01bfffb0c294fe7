#!/usr/bin/env bash
# Builds the benchmark from source, if its binary is missing or stale, and runs
# it with the arguments given:
#
#   bash bench/run.sh --workload lib-skew --seed 1 --seconds 20 --trace 0
#
# Run it from the root of a checkout. Everything it writes — Go's build cache,
# the binary, the durable workload's log directory — goes under .bench_build/
# in that checkout, which .gitignore names.
set -euo pipefail
root=$PWD
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOFLAGS= GOTOOLCHAIN=local GOWORK=off
# go build is a no-op when nothing changed; it fails, and this script with it,
# when the repository the benchmark measures is not there.
(cd "$here" && go build -o "$out/ivmbench" .)
exec "$out/ivmbench" "$@"
