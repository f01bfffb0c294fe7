#!/usr/bin/env bash
# The A/A check: runs every workload in two alternating sets of N runs (default
# 10) on this tree, then again with N2 runs (default 5) from a second base
# seed, judges every workload × end-to-end metric by BENCHMARK.json's bounds,
# and writes the report to bench/AA.md. Exits non-zero if any pair breaches its
# bound. Run from the repository root:
#
#   bash bench/aa.sh [N] [N2]
#
# At N = 10, N2 = 5 it makes 120 runs and takes about 50 minutes.
set -uo pipefail
n=${1:-10}
n2=${2:-5}
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
report() {
	local status=0
	echo "# A/A check"
	echo
	echo "Two sets of runs of the same tree, alternating, judged by the rule and the"
	echo "bounds of BENCHMARK.json: within a set the quartile distance of the runs'"
	echo "values, as a share of their median, must stay within the bound (the rule"
	echo "exempts setup_s from this), and set B's median must not be worse than set"
	echo "A's by more than the bound. Written by \`bash bench/aa.sh $n $n2\` on $(date -u +%Y-%m-%d), $(nproc) CPUs, $(go version | cut -d' ' -f3)."
	echo
	bash "$here/run.sh" -aa "$n" -seed 1 -seconds "$seconds" || status=$?
	bash "$here/run.sh" -aa "$n2" -seed 101 -seconds "$seconds" || status=$?
	return $status
}
report | tee "$here/AA.md"
exit "${PIPESTATUS[0]}"
