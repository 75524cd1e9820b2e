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
# The end-to-end metrics, which way each is better and its bound come
# from the change's BENCHMARK.json (`end_to_end`). Prints one line per
# pair: each side's end-to-end metrics and `correct`/`failed`. Then, per
# metric, each side's median and IQR (the distance between the quartiles,
# also as a percentage of that side's median), the ratio of the medians
# (change ÷ parent), in how many pairs the change was better, and one
# verdict:
#
#   gain        the change wins at least nine pairs in ten and its median
#               beats the parent's by more than the parent's IQR;
#   worse       the change's median is worse than the parent's by more
#               than the metric's bound;
#   unresolved  either side's IQR is wider than the bound, and the runs
#               do not all order the same way (every change run better
#               than every parent run, or every one worse);
#   no move     none of the above.
#
# Every run's full result line is kept, one JSON object per run
# ({"pair", "side", "result"}), in `<change-dir>/target/ab-pairs/<workload>.jsonl`;
# a new comparison of the same workload starts that file afresh.
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
log="$change/target/ab-pairs/$workload.jsonl"

for side in parent change; do
    dir="${!side}"
    echo "building $side ($dir)" >&2
    CARGO_TARGET_DIR="$dir/target/ab-pairs" \
        cargo build -q --release --offline --manifest-path "$dir/benchmark/Cargo.toml" >&2
    cp "$dir/target/ab-pairs/release/srv6-benchmark" "$work/$side"
done
: >"$log"

# Runs one side once; appends {"pair", "side", "result"} to the log.
run_side() {
    local side="$1" pair="$2" dir="${!1}" result
    result="$(cd "$dir" && "$work/$side" --workload "$workload" --seed "$pair" \
        --seconds "$seconds" --trace 0 2>/dev/null | tail -n 1)"
    jq -c --arg side "$side" --argjson pair "$pair" '{pair: $pair, side: $side, result: .}' \
        <<<"$result" >>"$log"
}

# [{name, better, bound}] of every end-to-end metric.
rules="$(jq -c '[.end_to_end[] | {name, better, bound}]' "$change/BENCHMARK.json")"
metrics="$(jq -c 'map(.name)' <<<"$rules")"
{
    printf '%-4s %-6s %-7s' pair first side
    jq -r '.[]' <<<"$metrics" | while read -r name; do printf ' %14s' "$name"; done
    printf '  %s\n' correct/failed
}
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
        | @tsv' "$log" |
        while IFS=$'\t' read -r -a row; do
            printf '%-4s %-6s %-7s' "${row[@]:0:3}"
            printf ' %14.6g' "${row[@]:3:${#row[@]}-4}"
            printf '  %s\n' "${row[-1]}"
        done
done

echo
jq -rs --argjson rules "$rules" --arg workload "$workload" '
    def quantile(p): sort as $s | ($s | length) as $n | (($n - 1) * p) as $h | ($h | floor) as $lo
        | $s[$lo] + ($h - $lo) * ($s[[$lo + 1, $n - 1] | min] - $s[$lo]);
    def sig: if . == 0 then 0 else (pow(10; 3 - (fabs | log10 | floor))) as $f | (. * $f | round) / $f end;
    def iqr: (quantile(0.75)) - (quantile(0.25));
    # The IQR as a share of the median (0 when the median is 0).
    def spread: (quantile(0.5)) as $med | if $med == 0 then 0 else (iqr / ($med | fabs)) end;
    def pct: . * 1000 | round / 10 | tostring + " %";
    (map(select(.side == "parent")) | sort_by(.pair)) as $p
    | (map(select(.side == "change")) | sort_by(.pair)) as $c
    | "\($workload): \($p | length) pairs; all correct: \(all(.[]; .result.correct)); failed: \(map(.result.failed) | add)",
      ($rules[] as $rule
        | $rule.name as $name
        # +1 where higher is better, -1 where lower is: sign * (x - y) > 0
        # means x is better than y.
        | (if $rule.better == "higher" then 1 else -1 end) as $sign
        | ($p | map(.result.metrics[$name].value)) as $pv
        | ($c | map(.result.metrics[$name].value)) as $cv
        | ($pv | length) as $n
        | ([range(0; $n) | select($sign * ($cv[.] - $pv[.]) > 0)] | length) as $wins
        # Every change run better (or every one worse) than every parent
        # run: the order holds whatever the spread.
        | ($pv | map($sign * .)) as $ps
        | ($cv | map($sign * .)) as $cs
        | (($cs | min) > ($ps | max) or ($cs | max) < ($ps | min)) as $ordered
        | ($pv | quantile(0.5)) as $pmed
        | ($cv | quantile(0.5)) as $cmed
        | (if $wins * 10 >= $n * 9 and $sign * ($cmed - $pmed) > ($pv | iqr) then "gain"
           elif $sign * ($pmed - $cmed) > $rule.bound * ($pmed | fabs) then "worse"
           elif (($pv | spread) > $rule.bound or ($cv | spread) > $rule.bound)
                and ($ordered | not) then "unresolved"
           else "no move" end) as $verdict
        | "\($name): parent median \($pmed | sig) IQR \($pv | iqr | sig) (\($pv | spread | pct))"
          + " | change median \($cmed | sig) IQR \($cv | iqr | sig) (\($cv | spread | pct))"
          + " | ratio \(if $pmed == 0 then "-" else ($cmed / $pmed | sig) end)"
          + " | change better in \($wins)/\($n)"
          + " | bound \($rule.bound * 100) % | \($verdict)")
' "$log"
