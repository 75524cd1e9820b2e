#!/usr/bin/env bash
# Alternating A/B pairs of the repo benchmark between two checkouts.
#
# Usage:
#   scripts/ab-pairs.sh <parent-dir> <change-dir> <workload> [pairs] [seconds]
#
# Builds each checkout's benchmark (`benchmark/Cargo.toml`) into its own
# target directory (`<dir>/target/ab-pairs`), copies both binaries aside,
# then runs `pairs` pairs (default 10) of `--workload <workload> --seed <i>
# --seconds <seconds> --trace 0` (default 20 s), each side from its own
# checkout root. Odd pairs run the parent first, even pairs the change, so
# a slow or fast phase of the host lands on both sides alike.
#
# Prints one line per pair: each side's four end-to-end metrics and
# `correct`/`failed`. Then, per metric, each side's median and IQR (the
# distance between the quartiles), the ratio of the medians (change ÷
# parent) and in how many pairs the change was better. A claimed gain
# holds when the change wins at least nine pairs in ten and its median
# beats the parent's by more than the parent's IQR.
#
# Needs bash, cargo and jq; reads and writes nothing under benchmark/.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 5 ]; then
    sed -n '4,5p' "$0" >&2
    exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
workload="$3"
pairs="${4:-10}"
seconds="${5:-20}"

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

for side in parent change; do
    dir="${!side}"
    echo "building $side ($dir)" >&2
    CARGO_TARGET_DIR="$dir/target/ab-pairs" \
        cargo build -q --release --offline --manifest-path "$dir/benchmark/Cargo.toml" >&2
    cp "$dir/target/ab-pairs/release/srv6-benchmark" "$work/$side"
done

# Runs one side once; appends {"pair", "side", "result"} to the log.
run_side() {
    local side="$1" pair="$2" dir="${!1}" result
    result="$(cd "$dir" && "$work/$side" --workload "$workload" --seed "$pair" \
        --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)"
    jq -c --arg side "$side" --argjson pair "$pair" '{pair: $pair, side: $side, result: .}' \
        <<<"$result" >>"$work/log.jsonl"
}

metrics='["pps", "cpu_ns_per_pkt", "setup_s", "peak_rss_mb"]'
printf '%-4s %-6s %-7s %14s %14s %14s %14s  %s\n' \
    pair first side pps cpu_ns_per_pkt setup_s peak_rss_mb correct/failed
for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        run_side "$side" "$pair"
    done
    jq -r --argjson pair "$pair" --arg first "${order%% *}" --argjson m "$metrics" '
        select(.pair == $pair)
        | [($pair | tostring), $first, .side]
          + [.result.metrics[$m[]].value | tostring]
          + ["\(.result.correct)/\(.result.failed)"]
        | @tsv' "$work/log.jsonl" |
        while IFS=$'\t' read -r p f s a b c d ok; do
            printf '%-4s %-6s %-7s %14.6g %14.6g %14.6g %14.6g  %s\n' "$p" "$f" "$s" "$a" "$b" "$c" "$d" "$ok"
        done
done

echo
jq -rs --argjson m "$metrics" --arg workload "$workload" '
    def quantile(p): sort as $s | ($s | length) as $n | (($n - 1) * p) as $h | ($h | floor) as $lo
        | $s[$lo] + ($h - $lo) * ($s[[$lo + 1, $n - 1] | min] - $s[$lo]);
    def sig: if . == 0 then 0 else (pow(10; 3 - (fabs | log10 | floor))) as $f | (. * $f | round) / $f end;
    def higher_is_better: . == "pps";
    (map(select(.side == "parent")) | sort_by(.pair)) as $p
    | (map(select(.side == "change")) | sort_by(.pair)) as $c
    | "\($workload): \($p | length) pairs; all correct: \(all(.[]; .result.correct)); failed: \(map(.result.failed) | add)",
      ($m[] as $name
        | ($p | map(.result.metrics[$name].value)) as $pv
        | ($c | map(.result.metrics[$name].value)) as $cv
        | ([range(0; $pv | length)]
            | map(if ($name | higher_is_better) then $cv[.] > $pv[.] else $cv[.] < $pv[.] end)
            | map(select(.)) | length) as $wins
        | "\($name): parent median \($pv | quantile(0.5) | sig) IQR \(($pv | quantile(0.75)) - ($pv | quantile(0.25)) | sig)"
          + " | change median \($cv | quantile(0.5) | sig) IQR \(($cv | quantile(0.75)) - ($cv | quantile(0.25)) | sig)"
          + " | ratio \(($cv | quantile(0.5)) / ($pv | quantile(0.5)) | sig)"
          + " | change better in \($wins)/\($pv | length)")
' "$work/log.jsonl"
