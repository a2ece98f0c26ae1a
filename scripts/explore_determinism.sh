#!/usr/bin/env bash
# Exploration determinism gate (docs/dse.md): a 540-point model-mode
# exploration fanned across TWO shared-nothing TCP daemons must produce a
# csfma-frontier-v1 report whose deterministic projection (everything
# before the trailing "timing" member) is byte-identical to a single-daemon
# run of the same space, and the single-daemon rerun against daemon A's
# warm cache must re-simulate nothing.
#
#   scripts/explore_determinism.sh BUILD_DIR [OUT_DIR]
#
# BUILD_DIR holds the built tools (tools/csfma_serve, tools/csfma_explore);
# the daemons' port files and journals and the frontier reports land in
# OUT_DIR (default: a fresh temporary directory).  The daemons listen on
# 127.0.0.1 at kernel-chosen ports and are stopped on every exit path.
# Exit status 0 when the gate holds, 1 otherwise.  ctest runs it as
# explore_determinism (label "gate"); CI calls it directly.
set -euo pipefail

if [[ $# -lt 1 || $# -gt 2 ]]; then
  echo "usage: $0 BUILD_DIR [OUT_DIR]" >&2
  exit 2
fi
build=$(cd "$1" && pwd)
out=${2:-$(mktemp -d)}
root=$(cd "$(dirname "$0")/.." && pwd)
python=${PYTHON:-python3}
mkdir -p "$out"
cd "$out"

pids=()
cleanup() {
  for pid in "${pids[@]}"; do kill "$pid" 2> /dev/null || true; done
  wait 2> /dev/null || true
}
trap cleanup EXIT

start_explore_daemon() {  # $1 = name
  rm -f "$1.port" "$1.journal"
  "$build/tools/csfma_serve" --tcp 127.0.0.1:0 --port-file "$1.port" \
      --workers 2 --job-cache 4096 --cache-file "$1.journal" &
  pids+=($!)
  for _ in $(seq 100); do [ -s "$1.port" ] && break; sleep 0.1; done
  [ -s "$1.port" ] || { echo "daemon $1 never came up"; exit 1; }
}
stop_explore_daemon() {  # $1 = name
  "$python" -c "import sys; sys.path.insert(0, '$root/scripts'); import csfma_client as m; c = m.CsfmaClient.connect_tcp('127.0.0.1', $(cat "$1.port")); c.shutdown(); c.close()"
}

SPACE=(--unit pcs,fcs --block 33,44,55 --group 11
       --rwidth 0,11,22 --select lza,zd --depth 2,4,8,16,32
       --ops 8,16,32)
start_explore_daemon da
start_explore_daemon db
# Run 1: daemon A alone sees the whole space (everything fresh).
"$build/tools/csfma_explore" \
    --daemon 127.0.0.1:"$(cat da.port)" \
    --out frontier1.json "${SPACE[@]}" | tail -n 1 | tee done1.json
# Run 2: the same space fanned across BOTH daemons; daemon B evaluates its
# share from scratch, so this is a genuinely different arrival order and
# daemon mix.
"$build/tools/csfma_explore" \
    --daemon 127.0.0.1:"$(cat da.port)" \
    --daemon 127.0.0.1:"$(cat db.port)" \
    --out frontier2.json --snapshot frontier2.snap \
    --snapshot-every 100 "${SPACE[@]}" | tail -n 1 | tee done2.json
# Run 3: warm rerun against daemon A — must re-simulate nothing.
"$build/tools/csfma_explore" \
    --daemon 127.0.0.1:"$(cat da.port)" \
    --out frontier3.json "${SPACE[@]}" | tail -n 1 | tee done3.json
stop_explore_daemon da
stop_explore_daemon db
wait "${pids[@]}"
pids=()

"$python" "$root/scripts/check_report.py" --check-frontier \
    frontier1.json frontier2.json frontier3.json
"$python" "$root/scripts/check_report.py" --compare-frontier \
    frontier1.json frontier2.json
"$python" "$root/scripts/check_report.py" --compare-frontier \
    frontier1.json frontier3.json
"$python" - <<'EOF'
import json
d1 = json.load(open("done1.json"))
d2 = json.load(open("done2.json"))
d3 = json.load(open("done3.json"))
assert d1["points"] == d2["points"] == d3["points"] == 540, (d1, d2, d3)
assert d3["fresh"] == 0, f"warm rerun re-simulated {d3['fresh']} points"
snap = json.load(open("frontier2.snap"))
assert snap["format"] == "csfma-frontier-snapshot-v1", snap
assert snap["points_done"] == 540, snap
print("exploration determinism OK: 540 points, 1-vs-2-daemon"
      " projections identical, warm rerun fully cached")
EOF
