#!/usr/bin/env bash
# The benchmark trajectory: one row per workload of each BENCH_PR<n>.json.
#
# Usage:
#   scripts/trajectory.sh [BENCH_PR<n>.json ...]
#
# With no arguments, reads every BENCH_PR*.json at the repo root, in PR
# order. Each row gives the PR, the workload, the parent's and the
# change's `pps` median, their ratio (change ÷ parent), in how many pairs
# the change was better, and the verdict `scripts/ab-pairs.sh` printed.
# A file without those fields (`.pr`, and per workload
# `.metrics.pps.{parent.median, change.median, ratio, change_better,
# pairs, verdict}`) is an error: the script exits non-zero, naming it.
#
# Needs bash and jq; reads and writes nothing under benchmark/.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
if [ $# -gt 0 ]; then
    files=("$@")
else
    mapfile -t files < <(find "$root" -maxdepth 1 -name 'BENCH_PR*.json' | sort -V)
fi
if [ ${#files[@]} -eq 0 ]; then
    echo "no BENCH_PR*.json files" >&2
    exit 1
fi

printf '%-4s %-18s %14s   %14s %7s %6s  %s\n' pr workload 'parent pps' 'change pps' ratio won verdict
for file in "${files[@]}"; do
    if ! rows="$(jq -er '
        .pr as $pr
        | .workloads | to_entries[]
        | .value.metrics.pps as $pps
        | [$pr, .key, $pps.parent.median, $pps.change.median, $pps.ratio,
           "\($pps.change_better)/\($pps.pairs)", $pps.verdict]
        | if any(.[]; . == null) then error("missing field") else @tsv end
    ' "$file")"; then
        echo "$file: not a trajectory file (see the fields above)" >&2
        exit 1
    fi
    while IFS=$'\t' read -r pr workload parent change ratio won verdict; do
        printf '%-4s %-18s %14.0f → %14.0f %7.3f %6s  %s\n' \
            "$pr" "$workload" "$parent" "$change" "$ratio" "$won" "$verdict"
    done <<<"$rows"
done
