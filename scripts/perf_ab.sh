#!/usr/bin/env bash
# Interleaved A/B runs of the host-time benchmark (perfbench) between a
# parent revision and the working tree.
#
#   scripts/perf_ab.sh <parent-rev> <workload> <pairs> [seed] [seconds]
#
# Exports <parent-rev> (`git archive`) and the working tree (tracked and
# untracked, non-ignored files as they are on disk) into a temporary
# directory, builds perfbench in each copy, then runs <pairs> pairs of
# `--trace 0` runs, alternating which side goes first. It prints each
# side's digests, its `correct`/`failed` fields, and per end-to-end metric
# of BENCHMARK.json each side's median and quartiles, the ratio of the
# medians and how many pairs each side won. Defaults: seed 1, 6 seconds per
# run.
#
# Nothing is built inside the repository, so cargo's rewrite of
# perfbench/Cargo.lock never reaches the working tree. The temporary
# directory is removed on exit.

set -euo pipefail

usage() {
    echo "usage: $0 <parent-rev> <workload> <pairs> [seed] [seconds]" >&2
    exit 2
}

[ $# -ge 3 ] && [ $# -le 5 ] || usage
parent_rev=$1
workload=$2
pairs=$3
seed=${4:-1}
seconds=${5:-6}
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage
[[ $seed =~ ^[0-9]+$ ]] || usage

repo=$(git -C "$(dirname "$0")" rev-parse --show-toplevel)
git -C "$repo" rev-parse --verify --quiet "$parent_rev^{commit}" >/dev/null || {
    echo "perf_ab: unknown revision $parent_rev" >&2
    exit 2
}
work=$(mktemp -d "${TMPDIR:-/tmp}/perf_ab.XXXXXX")
trap 'rm -rf "$work"' EXIT

mkdir -p "$work/parent" "$work/change"
git -C "$repo" archive "$parent_rev" | tar -x -C "$work/parent"
(
    cd "$repo"
    git ls-files -z --cached --others --exclude-standard |
        while IFS= read -r -d '' file; do
            # Tracked files deleted in the working tree are left out.
            if [ -e "$file" ]; then printf '%s\0' "$file"; fi
        done |
        tar --null -T - -cf -
) | tar -x -C "$work/change"

for side in parent change; do
    echo "perf_ab: building $side" >&2
    cargo build --release --offline --quiet \
        --manifest-path "$work/$side/perfbench/Cargo.toml" \
        --target-dir "$work/$side/target"
done

run() {
    local side=$1 pair=$2
    (
        cd "$work/$side"
        ./target/release/bifrost-perfbench --workload "$workload" --seed "$seed" \
            --seconds "$seconds" --trace 0
    ) >"$work/$side.$pair.out" || true
}

for ((pair = 1; pair <= pairs; pair++)); do
    echo "perf_ab: pair $pair/$pairs" >&2
    if ((pair % 2)); then
        run parent "$pair"
        run change "$pair"
    else
        run change "$pair"
        run parent "$pair"
    fi
done

# The value of one metric in one run's closing JSON line.
value_of() {
    tail -n 1 "$1" | grep -o "\"$2\": {\"value\": [^,}]*" | sed 's/.*"value": //'
}

# The first quartile, median and third quartile of the numbers on stdin,
# interpolated linearly between the sorted values.
quartiles() {
    sort -g | awk '
        function at(p,    pos, i) {
            pos = 1 + (NR - 1) * p
            i = int(pos)
            return i < NR ? v[i] + (pos - i) * (v[i + 1] - v[i]) : v[NR]
        }
        { v[NR] = $1 }
        END { if (NR == 0) print "nan nan nan"; else printf "%.6g %.6g %.6g\n", at(0.25), at(0.5), at(0.75) }'
}

echo "workload $workload, seed $seed, $pairs pairs of $seconds-s runs, parent $parent_rev"
for side in parent change; do
    echo "$side:"
    grep -h '^digest ' "$work"/$side.*.out | sort | uniq -c | sed 's/^/  /' || echo "  no digest"
    for ((pair = 1; pair <= pairs; pair++)); do
        tail -n 1 "$work/$side.$pair.out" | grep -o '"correct": [a-z]*\|"failed": [0-9]*' |
            paste -sd ' ' | sed "s/^/  pair $pair: /"
    done
done

printf '%-16s %-34s %-34s %7s %8s %8s\n' metric "parent median [q1 q3]" \
    "change median [q1 q3]" ratio "change+" "parent+"
sed -n 's/.*{"name": "\([a-z0-9_]*\)", "unit": "[^"]*", "better": "\([a-z]*\)", "bound".*/\1 \2/p' \
    "$repo/BENCHMARK.json" |
    while read -r metric better; do
        : >"$work/values"
        for ((pair = 1; pair <= pairs; pair++)); do
            echo "$(value_of "$work/parent.$pair.out" "$metric") $(value_of "$work/change.$pair.out" "$metric")" >>"$work/values"
        done
        read -r parent_q1 parent_median parent_q3 < <(awk 'NF == 2 { print $1 }' "$work/values" | quartiles)
        read -r change_q1 change_median change_q3 < <(awk 'NF == 2 { print $2 }' "$work/values" | quartiles)
        read -r change_won parent_won < <(awk -v better="$better" 'NF == 2 {
            if (better == "lower" ? $2 < $1 : $2 > $1) c++
            else if ($1 != $2) p++
        } END { print c + 0, p + 0 }' "$work/values")
        ratio=$(awk -v a="$parent_median" -v b="$change_median" 'BEGIN {
            if (a == 0 || a == "nan" || b == "nan") print "-"; else printf "%.3f", b / a
        }')
        printf '%-16s %-34s %-34s %7s %8s %8s\n' "$metric" \
            "$parent_median [$parent_q1 $parent_q3]" "$change_median [$change_q1 $change_q3]" \
            "$ratio" "$change_won/$pairs" "$parent_won/$pairs"
    done
