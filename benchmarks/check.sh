#!/usr/bin/env bash
# Runs the whole suite twice on the commit that is checked out, with one
# seed, and fails if any end-to-end metric of any workload differs between
# the two rounds by more than its own bound (exact-count metrics must
# repeat to the last digit). Each round also runs every workload's traced
# run with the design expectations (README, "How the workloads differ")
# made fatal.
#
#   benchmarks/check.sh [seed]        # about 7 minutes
set -euo pipefail
cd "$(dirname "$0")/.."
seed="${1:-1}"
out=benchmarks/out
bench() {
    cargo run --quiet --release --offline --manifest-path benchmarks/Cargo.toml -- "$@"
}
mkdir -p "$out"
rm -f "$out/check-a.tsv" "$out/check-b.tsv"
workloads="ecoli_genpip ecoli_conventional contam_genpip_mt human_replay_mt"
for round in a b; do
    for workload in $workloads; do
        echo "== round $round: $workload" >&2
        bench --workload "$workload" --seed "$seed" --trace 0 --tsv "$out/check-$round.tsv" | grep -v '^{'
        bench --workload "$workload" --seed "$seed" --trace 1 --strict-design | grep '^#'
    done
done
bench --compare "$out/check-a.tsv" "$out/check-b.tsv"
