#!/usr/bin/env bash
# Paired benchmark gate: fails when the working tree runs a benchmark
# workload worse than <base-rev> by more than its BENCHMARK.json bound.
#
#   .github/perf-gate.sh <base-rev>
#
# Builds each tree's own benchmark/ under .bench_build/: <base-rev>
# exported with `git archive`, and the working tree as it stands. Then
# runs PAIRS pairs of `benchmark run --seconds RUN_SECONDS`, alternating
# which side goes first, so a drift in the host's speed falls on both
# sides. Any run that exits non-zero (a failed scenario or correctness
# check) fails the gate. Last, `benchmark compare` judges the pairs and
# exits 1 on any `regressed` row. See DESIGN.md, "Perf gate".
set -euo pipefail

PAIRS=10
RUN_SECONDS=5

if [ $# -ne 1 ]; then
  echo "usage: $0 <base-rev>" >&2
  exit 2
fi
root=$(git rev-parse --show-toplevel)
base=$(git -C "$root" rev-parse --verify "$1^{commit}")
work=$root/.bench_build

rm -rf "$work/base-src" "$work/runs"
mkdir -p "$work/base-src" "$work/runs"
git -C "$root" archive "$base" | tar -x -C "$work/base-src"

for side in base head; do
  src=$root
  [ "$side" = base ] && src=$work/base-src
  echo "perf-gate: building the $side benchmark" >&2
  cargo build --release --quiet --offline \
    --manifest-path "$src/benchmark/Cargo.toml" --target-dir "$work/$side-target"
done

parent=()
change=()
for pair in $(seq 1 "$PAIRS"); do
  order="base head"
  [ $((pair % 2)) -eq 0 ] && order="head base"
  for side in $order; do
    echo "perf-gate: pair $pair/$PAIRS, $side" >&2
    "$work/$side-target/release/benchmark" run --seconds "$RUN_SECONDS" \
      --out "$work/runs/$side-$pair.json" ||
      { echo "perf-gate: the $side run of pair $pair failed" >&2; exit 1; }
  done
  parent+=("$work/runs/base-$pair.json")
  change+=("$work/runs/head-$pair.json")
done

# The base's compare applies the rule and bounds already accepted, so a
# change cannot loosen the gate that judges it.
exec "$work/base-target/release/benchmark" compare "${parent[@]}" "${change[@]}"
