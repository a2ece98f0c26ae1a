#!/usr/bin/env bash
# Fleet tracing gate (docs/observability.md, "Distributed tracing"): a
# 2-daemon exploration with --trace-out on both daemons plus the
# explorer's --fleettrace artifact merges into one offset-aligned
# chrome://tracing timeline in which every server req-N span tree parents
# under an explorer span (zero orphans, one request tree per chunk), and
# the merge summary's deterministic projection is byte-identical to a
# fresh 1-daemon run of the same space.  The space covers pcs,fcs x
# lza,zd, so the FCS toggles the model mode measures run on every daemon.
#
#   scripts/fleet_tracing.sh BUILD_DIR [OUT_DIR]
#
# BUILD_DIR holds the built tools (tools/csfma_serve, tools/csfma_explore);
# the daemons' port files and traces, the fleettrace artifacts, the merged
# timeline and the summaries land in OUT_DIR (default: a fresh temporary
# directory).  The daemons listen on 127.0.0.1 at kernel-chosen ports and
# are stopped on every exit path.  Exit status 0 when the gate holds, 1
# otherwise.  ctest runs it as fleet_tracing (label "gate"); CI calls it
# directly.
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

start_traced_daemon() {  # $1 = name
  rm -f "$1.port"
  "$build/tools/csfma_serve" --tcp 127.0.0.1:0 --port-file "$1.port" \
      --workers 2 --job-cache 4096 \
      --trace-out "$1.trace.json" --trace-cap 100000 &
  pids+=($!)
  for _ in $(seq 100); do [ -s "$1.port" ] && break; sleep 0.1; done
  [ -s "$1.port" ] || { echo "daemon $1 never came up"; exit 1; }
}
stop_traced_daemon() {  # $1 = name
  "$python" -c "import sys; sys.path.insert(0, '$root/scripts'); import csfma_client as m; c = m.CsfmaClient.connect_tcp('127.0.0.1', $(cat "$1.port")); c.shutdown(); c.close()"
}

FSPACE=(--unit pcs,fcs --block 33,44 --group 11
        --select lza,zd --depth 2,4 --ops 8)
start_traced_daemon ta
start_traced_daemon tb
"$build/tools/csfma_explore" \
    --daemon 127.0.0.1:"$(cat ta.port)" \
    --daemon 127.0.0.1:"$(cat tb.port)" \
    --out tfrontier2.json --fleettrace fleet2.json \
    --stats-poll 0.2 "${FSPACE[@]}" > /dev/null
stop_traced_daemon ta
stop_traced_daemon tb
# The daemons write their traces on shutdown.
wait "${pids[@]}"
pids=()
# Fresh daemon, same space, different fleet layout and worker count: the
# merge summary's projection must not move a byte.
start_traced_daemon tc
"$build/tools/csfma_explore" \
    --daemon 127.0.0.1:"$(cat tc.port)" \
    --out tfrontier1.json --fleettrace fleet1.json \
    "${FSPACE[@]}" > /dev/null
stop_traced_daemon tc
wait "${pids[@]}"
pids=()

"$python" "$root/scripts/trace_merge.py" --fleettrace fleet2.json \
    --out merged2.json --summary summary2.json \
    ta.trace.json tb.trace.json
"$python" "$root/scripts/trace_merge.py" --fleettrace fleet1.json \
    --summary summary1.json tc.trace.json
"$python" "$root/scripts/check_report.py" --check-fleettrace \
    summary2.json summary1.json
"$python" "$root/scripts/check_report.py" --compare-fleettrace \
    summary2.json summary1.json
"$python" - <<'EOF'
import json
t = json.load(open("merged2.json"))
pids = {e["pid"] for e in t["traceEvents"]}
assert pids == {0, 1, 2}, f"expected 3 lanes, got pids {pids}"
r = json.load(open("tfrontier2.json"))
for d in r["timing"]["daemons"]:
    h = d["health"]
    assert h["stats_samples"] >= 1, h
    assert h["clock_offset_us"]["samples"] >= 1, h
print(f"fleet timeline OK ({len(t['traceEvents'])} events, "
      f"3 lanes, health present for both daemons)")
EOF
