#!/usr/bin/env bash
# Smoke-run the bench binaries and validate the BENCH_*.json files they emit
# (schema in bench/harness.h). Meant for CI: a reduced CQOS_BENCH_PAIRS makes
# this a correctness check of the reporting pipeline, not a performance
# measurement.
#
# Usage: tools/bench_smoke.sh [BUILD_DIR] [BENCH...]
#   BUILD_DIR default: build
#   BENCH...  subset of benches to run (default: all of them); lets a
#             focused CI job (e.g. overload-smoke) validate one binary
#             without building the rest.
set -euo pipefail

BUILD_DIR="${1:-build}"
shift $(( $# > 0 ? 1 : 0 ))
BENCHES=("$@")
if [ "${#BENCHES[@]}" -eq 0 ]; then
  BENCHES=(bench_table1 bench_table2 bench_table3 bench_degraded
           bench_overload bench_scale bench_tcp bench_reconfig)
fi
OUT_DIR="${CQOS_BENCH_OUT_DIR:-$BUILD_DIR/bench-out}"
mkdir -p "$OUT_DIR"
export CQOS_BENCH_OUT_DIR="$OUT_DIR"
export CQOS_BENCH_PAIRS="${CQOS_BENCH_PAIRS:-20}"

for b in "${BENCHES[@]}"; do
  bin="$BUILD_DIR/bench/$b"
  if [ ! -x "$bin" ]; then
    echo "bench_smoke: missing $bin — build the repo first" >&2
    exit 1
  fi
  echo "== $b (CQOS_BENCH_PAIRS=$CQOS_BENCH_PAIRS)"
  "$bin" >"$OUT_DIR/$b.log" 2>&1
  grep "wrote " "$OUT_DIR/$b.log" || {
    echo "bench_smoke: $b did not report writing its JSON" >&2
    tail -n 20 "$OUT_DIR/$b.log" >&2
    exit 1
  }
done

python3 - "$OUT_DIR" "${BENCHES[@]}" <<'EOF'
import json, sys
from pathlib import Path

out_dir = Path(sys.argv[1])
benches = set(sys.argv[2:])
# rows per table: t1 = 5 levels x 2 platforms; t2 = 7 configs x 2;
# t3 = 5 configs x 2 priority classes x 2.
expected_rows = {1: 10, 2: 14, 3: 20}
row_keys = {"platform", "label", "servers", "mean_ms", "p50_ms", "p99_ms",
            "cov_pct"}

def fail(msg):
    print(f"bench_smoke: {msg}", file=sys.stderr)
    sys.exit(1)

def check_rows(path, rows):
    for row in rows:
        missing = row_keys - row.keys()
        if missing:
            fail(f"{path}: row {row.get('label')} missing {sorted(missing)}")
        for k in ("mean_ms", "p50_ms", "p99_ms", "cov_pct"):
            if not isinstance(row[k], (int, float)) or row[k] < 0:
                fail(f"{path}: row {row['label']}: bad {k}={row[k]!r}")
        if row["p50_ms"] > row["p99_ms"]:
            fail(f"{path}: row {row['label']}: p50 > p99")
        if "class" in row and row["class"] not in ("high", "low",
                                                   "virtual", "real"):
            fail(f"{path}: row {row['label']}: bad class {row['class']!r}")

for t, want in expected_rows.items():
    if f"bench_table{t}" not in benches:
        continue
    path = out_dir / f"BENCH_table{t}.json"
    if not path.exists():
        fail(f"{path} missing")
    doc = json.loads(path.read_text())
    if doc.get("table") != t:
        fail(f"{path}: table={doc.get('table')}, want {t}")
    if not isinstance(doc.get("pairs"), int) or doc["pairs"] <= 0:
        fail(f"{path}: bad pairs field")
    if not isinstance(doc.get("warmup"), int) or doc["warmup"] < 0:
        fail(f"{path}: bad warmup field")
    rows = doc.get("rows")
    if not isinstance(rows, list) or len(rows) != want:
        fail(f"{path}: {len(rows or [])} rows, want {want}")
    check_rows(path, rows)
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        fail(f"{path}: metrics snapshot missing")
    counters = metrics.get("counters", {})
    if counters.get("net.sent.msgs", 0) <= 0:
        fail(f"{path}: net.sent.msgs counter missing or zero")
    if not any(n.startswith("micro.") for n in metrics.get("histograms", {})):
        fail(f"{path}: no micro.* handler histograms in snapshot")
    print(f"{path.name}: {len(rows)} rows OK, "
          f"{len(counters)} counters, {len(metrics['histograms'])} histograms")

# BENCH_degraded.json: 3 configs x clean/degraded, named-report schema
# ("bench" in place of "table"), and the degraded rows must show the chaos
# engine actually ran (net.fault.* counters).
if "bench_degraded" in benches:
    path = out_dir / "BENCH_degraded.json"
    if not path.exists():
        fail(f"{path} missing")
    doc = json.loads(path.read_text())
    if doc.get("bench") != "degraded":
        fail(f"{path}: bench={doc.get('bench')!r}, want 'degraded'")
    rows = doc.get("rows")
    if not isinstance(rows, list) or len(rows) != 6:
        fail(f"{path}: {len(rows or [])} rows, want 6")
    labels = {row.get("label") for row in rows}
    for cfg in ("retransmit-dedup", "passive-rep", "active-total"):
        for kind in ("clean", "degraded"):
            if f"{cfg}/{kind}" not in labels:
                fail(f"{path}: missing row {cfg}/{kind}")
    check_rows(path, rows)
    counters = doc.get("metrics", {}).get("counters", {})
    if counters.get("net.fault.duplicate", 0) <= 0:
        fail(f"{path}: net.fault.duplicate counter missing — "
             "chaos plan never ran")
    if counters.get("net.fault.reorder.held", 0) <= 0:
        fail(f"{path}: net.fault.reorder.held counter missing — "
             "chaos plan never ran")
    print(f"{path.name}: {len(rows)} rows OK")

# BENCH_overload.json: two-class overload run. Three class-tagged rows, and
# the metrics must prove the protection stack engaged: the admission layer
# rejected best-effort overflow (not silently queued it), and the traffic-
# class dispatch pools saw both classes.
if "bench_overload" in benches:
    path = out_dir / "BENCH_overload.json"
    if not path.exists():
        fail(f"{path} missing")
    doc = json.loads(path.read_text())
    if doc.get("bench") != "overload":
        fail(f"{path}: bench={doc.get('bench')!r}, want 'overload'")
    rows = doc.get("rows")
    if not isinstance(rows, list) or len(rows) != 3:
        fail(f"{path}: {len(rows or [])} rows, want 3")
    tagged = {(row.get("label"), row.get("class")) for row in rows}
    for want_row in (("uncontended", "high"), ("overload", "high"),
                     ("overload", "low")):
        if want_row not in tagged:
            fail(f"{path}: missing row {want_row}")
    check_rows(path, rows)
    counters = doc.get("metrics", {}).get("counters", {})
    if counters.get("cqos.admission.rejected.low", 0) <= 0:
        fail(f"{path}: cqos.admission.rejected.low is zero — "
             "overload never triggered admission control")
    if not any(".high.enqueued" in n and v > 0 for n, v in counters.items()):
        fail(f"{path}: no high-class dispatch enqueues recorded")
    if not any(".low.enqueued" in n and v > 0 for n, v in counters.items()):
        fail(f"{path}: no low-class dispatch enqueues recorded")
    by_row = {(r["label"], r.get("class")): r for r in rows}
    base = by_row[("uncontended", "high")]["p99_ms"]
    over = by_row[("overload", "high")]["p99_ms"]
    if base > 0 and over > 2.0 * base:
        fail(f"{path}: high-priority p99 degraded {over / base:.2f}x under "
             "overload (acceptance: <= 2x)")
    print(f"{path.name}: {len(rows)} rows OK, "
          f"{counters['cqos.admission.rejected.low']} admission rejects")

# BENCH_scale.json: virtual-time scale + send-path contention. The virtual
# rows must carry a positive wall-per-event cost, and the exported scale.*
# counters must prove the acceptance scenario ran: >= 100k modeled clients,
# a non-trivial event count, and bit-identical same-seed runs.
if "bench_scale" in benches:
    path = out_dir / "BENCH_scale.json"
    if not path.exists():
        fail(f"{path} missing")
    doc = json.loads(path.read_text())
    if doc.get("bench") != "scale":
        fail(f"{path}: bench={doc.get('bench')!r}, want 'scale'")
    rows = doc.get("rows")
    if not isinstance(rows, list) or len(rows) != 4:
        fail(f"{path}: {len(rows or [])} rows, want 4")
    labels = {row.get("label") for row in rows}
    for want_label in ("virtual-zipf-flash-100k",
                       "virtual-rolling-partition-100k",
                       "contend-1", "contend-4"):
        if want_label not in labels:
            fail(f"{path}: missing row {want_label}")
    check_rows(path, rows)
    for row in rows:
        if row["label"].startswith("virtual-") and row["mean_ms"] <= 0:
            fail(f"{path}: row {row['label']}: wall-per-event is zero")
    counters = doc.get("metrics", {}).get("counters", {})
    if counters.get("scale.clients", 0) < 100000:
        fail(f"{path}: scale.clients={counters.get('scale.clients')} — "
             "the 100k-modeled-client scenario never ran")
    if counters.get("scale.events", 0) <= 100000:
        fail(f"{path}: scale.events={counters.get('scale.events')} — "
             "suspiciously few virtual events dispatched")
    if counters.get("scale.runs_match", 0) < 1:
        fail(f"{path}: scale.runs_match=0 — same-seed runs diverged")
    print(f"{path.name}: {len(rows)} rows OK, "
          f"{counters['scale.events']} virtual events, runs match")

# BENCH_tcp.json: real-socket transport rows. All four rows must be present
# (the sim-raw calibration row included), and the metrics must prove frames
# actually crossed the kernel: the TCP transport's receive counters only
# move when a frame is decoded off a real socket (by the epoll loop, or by a
# sender reading its own frame back off the self pair).
if "bench_tcp" in benches:
    path = out_dir / "BENCH_tcp.json"
    if not path.exists():
        fail(f"{path} missing")
    doc = json.loads(path.read_text())
    if doc.get("bench") != "tcp":
        fail(f"{path}: bench={doc.get('bench')!r}, want 'tcp'")
    rows = doc.get("rows")
    if not isinstance(rows, list) or len(rows) != 4:
        fail(f"{path}: {len(rows or [])} rows, want 4")
    keyed = {(row.get("platform"), row.get("label")) for row in rows}
    for want_row in (("tcp", "loopback-raw"), ("tcp", "multiproc-raw"),
                     ("sim", "sim-raw"), ("tcp", "loopback-rmi-secured")):
        if want_row not in keyed:
            fail(f"{path}: missing row {want_row}")
    check_rows(path, rows)
    for row in rows:
        if row["mean_ms"] <= 0:
            fail(f"{path}: row {row['label']}: mean_ms is zero")
    counters = doc.get("metrics", {}).get("counters", {})
    if counters.get("net.recv.msgs", 0) <= 0:
        fail(f"{path}: net.recv.msgs is zero — no frame ever crossed "
             "a real socket")
    if counters.get("net.sent.msgs", 0) <= 0:
        fail(f"{path}: net.sent.msgs is zero")
    print(f"{path.name}: {len(rows)} rows OK, "
          f"{counters['net.recv.msgs']} frames received off real sockets")

# BENCH_reconfig.json: live-reconfiguration cost. Three rows (an unloaded
# swap, a swap under four hammer threads, and the caller-observed latency of
# that traffic), and the counters must prove the quiescence protocol really
# ran: swaps happened, concurrent arrivals parked against the gate and were
# released, and nothing rolled back.
if "bench_reconfig" in benches:
    path = out_dir / "BENCH_reconfig.json"
    if not path.exists():
        fail(f"{path} missing")
    doc = json.loads(path.read_text())
    if doc.get("bench") != "reconfig":
        fail(f"{path}: bench={doc.get('bench')!r}, want 'reconfig'")
    rows = doc.get("rows")
    if not isinstance(rows, list) or len(rows) != 3:
        fail(f"{path}: {len(rows or [])} rows, want 3")
    keyed = {(row.get("platform"), row.get("label")) for row in rows}
    for want_label in ("idle-swap", "loaded-swap", "call-during-swap"):
        if ("sim", want_label) not in keyed:
            fail(f"{path}: missing row {want_label}")
    check_rows(path, rows)
    for row in rows:
        if row["mean_ms"] <= 0:
            fail(f"{path}: row {row['label']}: mean_ms is zero")
    counters = doc.get("metrics", {}).get("counters", {})
    if counters.get("cqos.reconfig.swaps", 0) <= 0:
        fail(f"{path}: cqos.reconfig.swaps is zero — no swap ever ran")
    if counters.get("cqos.reconfig.released.total", 0) <= 0:
        fail(f"{path}: cqos.reconfig.released.total is zero — no arrival "
             "ever parked against the quiesce gate and released")
    if counters.get("cqos.reconfig.rollback", 0) != 0:
        fail(f"{path}: cqos.reconfig.rollback nonzero — a swap failed "
             "and rolled back during the bench")
    print(f"{path.name}: {len(rows)} rows OK, "
          f"{counters['cqos.reconfig.swaps']} swaps, "
          f"{counters['cqos.reconfig.released.total']} parked arrivals "
          "released")

print("bench_smoke: all BENCH JSON files valid")
EOF
