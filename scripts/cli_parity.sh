#!/usr/bin/env bash
# CLI parity check between two `semimatch` binaries.
#
# Usage: scripts/cli_parity.sh OLD_BIN NEW_BIN
#
# Runs both binaries over the same `solve` invocations and prints the
# number of runs, then every run whose stdout, stderr or exit status
# differs (with the first lines of each diff). Exits 1 when any run
# differs, 0 when none does.
#
# Instances:
#   * the generated families of tests/registry_outputs.rs at 1x and 4x
#     task counts: FG, MG, HLF and HLM under unit, related and random
#     weights (`generate`), HiLo and FewgManyg (`generate-bipartite`);
#   * tall HiLo and FewgManyg files (n = 4096, p = 32, g = 16, d = 6),
#     where processors squared do not exceed edges (p² ≤ m), the shape on
#     which hk-semi keeps processor-pair task counts;
#   * HiLo files at n = 1024, p = 16, g = 4, d = 2 (seeds 1 and 5), on
#     which cost-scaling partitions the instance and probes the surviving
#     sub-view;
#   * inline .bg/.hg text: fig. 2, an uncovered task, a processor load
#     ending at exactly u64::MAX, and an empty instance.
# Runs, per file: `solve FILE --algo K --objective O` for every kind of
# the file's class (as OLD_BIN's `solvers` lists them) and every reported
# objective, with brute-force only on files of at most 12 tasks; .hg
# files repeat every run with `--refine 16`.
set -uo pipefail

if [ $# -ne 2 ]; then
    echo "usage: $0 OLD_BIN NEW_BIN" >&2
    exit 2
fi
old=$(realpath "$1") || exit 2
new=$(realpath "$2") || exit 2
work=$(mktemp -d) || exit 2
trap 'rm -rf "$work"' EXIT
cd "$work" || exit 2

# --- instances --------------------------------------------------------
for scale in 1 4; do
    for spec in "FG 128 32" "MG 256 128" "HLF 128 32" "HLM 256 128"; do
        read -r family n p <<<"$spec"
        for weights in unit related random; do
            "$old" generate --family "$family" --n $((n * scale)) --p "$p" --dv 3 --dh 4 \
                --weights "$weights" --seed 7 --out "$family-$weights-x$scale.hg" 2>/dev/null ||
                { echo "generate $family $weights x$scale failed" >&2; exit 2; }
        done
    done
    for spec in "hilo 11" "fewgmanyg 12"; do
        read -r gen seed <<<"$spec"
        "$old" generate-bipartite --gen "$gen" --n $((96 * scale)) --p 32 --g 4 --d 3 \
            --seed "$seed" --out "$gen-x$scale.bg" 2>/dev/null ||
            { echo "generate-bipartite $gen x$scale failed" >&2; exit 2; }
    done
done
for gen in hilo fewgmanyg; do
    "$old" generate-bipartite --gen "$gen" --n 4096 --p 32 --g 16 --d 6 --seed 13 \
        --out "$gen-tall.bg" 2>/dev/null ||
        { echo "generate-bipartite $gen tall failed" >&2; exit 2; }
done
for seed in 1 5; do
    "$old" generate-bipartite --gen hilo --n 1024 --p 16 --g 4 --d 2 --seed "$seed" \
        --out "hilo-probe-$seed.bg" 2>/dev/null ||
        { echo "generate-bipartite hilo probe $seed failed" >&2; exit 2; }
done
# Fig. 2 of the paper.
printf '4 3 6\n0 1 1 0\n0 1 2 1 2\n1 1 2 0 1\n1 1 1 1\n2 1 1 2\n3 1 1 2\n' >fig2.hg
# Task 2 has no eligible processor.
printf '3 2 3\n0 0 2\n0 1 3\n1 1 4\n' >uncovered.bg
printf '3 2 3\n0 2 1 0\n0 3 1 1\n1 4 1 1\n' >uncovered.hg
# Both tasks on P0, whose load ends at exactly u64::MAX.
printf '2 1 2\n0 0 18446744073709551614\n1 0 1\n' >full.bg
printf '2 1 2\n0 18446744073709551614 1 0\n1 1 1 0\n' >full.hg
# No tasks at all.
printf '0 1 0\n' >empty.bg
printf '0 1 0\n' >empty.hg

# --- runs -------------------------------------------------------------
# Kinds of one class column of `solvers` ("bipartite" or "hypergraph"),
# plus the kinds that take both.
kinds_of() {
    "$old" solvers | awk -F'|' -v class="$1" 'NR > 2 {
        name = $2; kind = $5
        gsub(/[ `]/, "", name); gsub(/ /, "", kind)
        if (kind == class || kind == "both") print name
    }'
}
bi_kinds=$(kinds_of bipartite)
hyper_kinds=$(kinds_of hypergraph)
if [ -z "$bi_kinds" ] || [ -z "$hyper_kinds" ]; then
    echo "could not read the kind lists from '$old solvers'" >&2
    exit 2
fi

runs=0
diffs=0
compare() {
    local old_status=0 new_status=0
    runs=$((runs + 1))
    "$old" "$@" >old.out 2>old.err || old_status=$?
    "$new" "$@" >new.out 2>new.err || new_status=$?
    if [ "$old_status" -ne "$new_status" ] || ! cmp -s old.out new.out || ! cmp -s old.err new.err; then
        diffs=$((diffs + 1))
        echo "DIFF: $* (exit $old_status vs $new_status)"
        diff old.out new.out | head -n 12
        diff old.err new.err | head -n 12
    fi
}

for file in *.bg *.hg; do
    n_tasks=$(awk '!/^%/ && NF { print $1; exit }' "$file")
    case "$file" in
        *.bg) kinds=$bi_kinds ;;
        *) kinds=$hyper_kinds ;;
    esac
    for kind in $kinds; do
        if [ "$kind" = brute-force ] && [ "$n_tasks" -gt 12 ]; then
            continue
        fi
        for objective in makespan flowtime l2 weighted-load; do
            compare solve "$file" --algo "$kind" --objective "$objective"
            case "$file" in
                *.hg) compare solve "$file" --algo "$kind" --objective "$objective" --refine 16 ;;
            esac
        done
    done
done

echo "runs: $runs  differing: $diffs"
[ "$diffs" -eq 0 ]
