#!/usr/bin/env bash
# Backend-equivalence gate (docs/engine.md, "Bit-sliced backend"): results,
# toggle counts and event logs are byte-identical to the scalar reference
# at any worker count.  Each report-emitting bench runs across the full
# {scalar,sliced} x {1,4 workers} matrix, and every cell's deterministic
# projection (metrics, tables and non-timing sections) is byte-compared
# against the scalar/1-worker cell by check_report.py --compare-metrics.
#
#   scripts/backend_equivalence.sh BUILD_DIR [OUT_DIR]
#
# BUILD_DIR holds the built benches (bench/<name>); the reports land in
# OUT_DIR (default: a fresh temporary directory).  Exit status 0 when every
# cell matches, 1 when any bench or comparison fails.  ctest runs it as
# backend_equivalence (label "gate"); CI calls it directly.
set -uo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: $0 BUILD_DIR [OUT_DIR]" >&2
  exit 2
fi
build=$1
out=${2:-$(mktemp -d)}
root=$(cd "$(dirname "$0")/.." && pwd)
python=${PYTHON:-python3}
benches=(engine_throughput fig13_latency fig14_accuracy table2_energy
         ext_dot_product)
mkdir -p "$out"

failed=0
for backend in scalar sliced; do
  for w in 1 4; do
    tag="${backend}_w${w}"
    for b in "${benches[@]}"; do
      args=(--backend "$backend" --workers "$w" --reps 1 --warmup 0
            --no-bench-out --json "$out/${b}_$tag.json")
      [[ $b == engine_throughput ]] && args=(50000 "${args[@]}")
      if [[ $b == ext_dot_product ]]; then
        "$build/bench/$b" "${args[@]}" > /dev/null
      else
        "$build/bench/$b" "${args[@]}"
      fi || { echo "FAIL: $b $tag exited $?"; failed=1; }
    done
  done
done

for b in "${benches[@]}"; do
  for other in scalar_w4 sliced_w1 sliced_w4; do
    echo "== $b: scalar_w1 vs $other =="
    "$python" "$root/scripts/check_report.py" --compare-metrics \
        "$out/${b}_scalar_w1.json" "$out/${b}_${other}.json" || failed=1
  done
done
exit $failed
