#!/usr/bin/env sh
# The standing per-PR bench gate (ROADMAP item 1): kernel micros + a pinned
# parallel-sweep preset.
#
#   ./tools/bench_all.sh [options]
#
#   --build-dir DIR     build tree with bench + tools binaries (default: build)
#   --out DIR           output directory (default: bench-out)
#   --preset NAME       aria_sweep preset to scale (default: table2-smoke)
#   --seeds N           seeds per preset row (default: 2)
#   --workers-list "W.."  worker counts for the scaling curve (default: "1 2 4 8"
#                       capped at nproc)
#   --repetitions N     micro-bench repetitions (default: 3)
#   --baseline FILE     previous BENCH_sweep_scaling.json; gate wall-clock
#                       against it
#   --max-regress PCT   fail when current wall exceeds baseline by more than
#                       PCT percent (default: 10)
#   --note TEXT         free-form annotation recorded in the scaling JSON
#                       (e.g. capture-machine caveats)
#   --skip-micro        skip the kernel micro benches
#   --skip-pdes         skip the sharded-execution scaling curve
#   --shards-list "S.."  shard counts for the PDES curve (default: "1 2 4 8"
#                       capped at nproc)
#   --pdes-nodes N      grid size for the PDES curve (default: 2000)
#   --pdes-jobs N       job count for the PDES curve (default: 400)
#   --quick             CI smoke profile: quick preset, 1 seed, workers "1 2",
#                       1 repetition, shards "1 2" on a 200-node grid
#   --gate-only CURRENT BASELINE
#                       run only the regression check between two scaling JSONs
#
# Emits $OUT/BENCH_sim_kernel.json (google-benchmark medians),
# $OUT/BENCH_sweep_scaling.json (the 1/2/4/..-worker wall-clock curve) and
# $OUT/BENCH_pdes_scaling.json (one simulation at --shards 1/2/4/..,
# docs/pdes.md "What bounds the speedup"). Independently of timing, the
# merged sweep reports of every worker count are byte-compared — a
# worker-count-dependent report fails the gate even when it is fast — and
# every sharded run must exit 0 (stranded jobs or lifecycle violations fail
# the curve). See docs/sweep.md.
set -eu

# Default curves stop at the host's CPU count: more threads than CPUs only
# measures time-slicing.
NPROC=$(nproc 2>/dev/null || echo 1)
up_to_nproc() {
  for v in "$@"; do
    if [ "$v" -le "$NPROC" ]; then printf '%s ' "$v"; fi
  done
}

BUILD_DIR="build"
OUT="bench-out"
PRESET="table2-smoke"
SEEDS=2
WORKERS_LIST=$(up_to_nproc 1 2 4 8)
REPETITIONS=3
BASELINE=""
MAX_REGRESS=10
NOTE=""
SKIP_MICRO=0
SKIP_PDES=0
SHARDS_LIST=$(up_to_nproc 1 2 4 8)
PDES_NODES=2000
PDES_JOBS=400
GATE_CURRENT=""
GATE_BASELINE=""

while [ $# -gt 0 ]; do
  case "$1" in
    --build-dir) BUILD_DIR="$2"; shift 2 ;;
    --out) OUT="$2"; shift 2 ;;
    --preset) PRESET="$2"; shift 2 ;;
    --seeds) SEEDS="$2"; shift 2 ;;
    --workers-list) WORKERS_LIST="$2"; shift 2 ;;
    --repetitions) REPETITIONS="$2"; shift 2 ;;
    --baseline) BASELINE="$2"; shift 2 ;;
    --max-regress) MAX_REGRESS="$2"; shift 2 ;;
    --note) NOTE="$2"; shift 2 ;;
    --skip-micro) SKIP_MICRO=1; shift ;;
    --skip-pdes) SKIP_PDES=1; shift ;;
    --shards-list) SHARDS_LIST="$2"; shift 2 ;;
    --pdes-nodes) PDES_NODES="$2"; shift 2 ;;
    --pdes-jobs) PDES_JOBS="$2"; shift 2 ;;
    --quick)
      PRESET="quick"; SEEDS=1; WORKERS_LIST="1 2"; REPETITIONS=1
      SHARDS_LIST="1 2"; PDES_NODES=200; PDES_JOBS=60; shift ;;
    --gate-only)
      [ $# -ge 3 ] || { echo "error: --gate-only CURRENT BASELINE" >&2; exit 2; }
      GATE_CURRENT="$2"; GATE_BASELINE="$3"; shift 3 ;;
    *) echo "error: unknown option $1" >&2; exit 2 ;;
  esac
done

gate() {
  # gate CURRENT BASELINE MAX_REGRESS_PCT: compare wall-clock per worker count.
  python3 - "$1" "$2" "$3" <<'EOF'
import json, sys
current = json.load(open(sys.argv[1]))
baseline = json.load(open(sys.argv[2]))
limit = float(sys.argv[3])
base_by_workers = {e["workers"]: e for e in baseline["workers"]}
failed = False
for entry in current["workers"]:
    base = base_by_workers.get(entry["workers"])
    if base is None:
        continue
    regress = 100.0 * (entry["wall_ms"] - base["wall_ms"]) / base["wall_ms"]
    verdict = "FAIL" if regress > limit else "ok"
    if regress > limit:
        failed = True
    print(f"  gate[{entry['workers']}w]: {base['wall_ms']} -> "
          f"{entry['wall_ms']} ms ({regress:+.1f}%, limit +{limit:.0f}%) {verdict}")
print("bench gate:", "FAILED" if failed else "passed")
sys.exit(1 if failed else 0)
EOF
}

if [ -n "$GATE_CURRENT" ]; then
  gate "$GATE_CURRENT" "$GATE_BASELINE" "$MAX_REGRESS"
  exit $?
fi

SWEEP="$BUILD_DIR/tools/aria_sweep"
if [ ! -x "$SWEEP" ]; then
  echo "error: $SWEEP not found -- build the tools first" >&2
  exit 1
fi

mkdir -p "$OUT"

if [ "$SKIP_MICRO" -eq 0 ]; then
  "$(dirname "$0")/bench_sim_kernel.sh" "$BUILD_DIR" \
    "$OUT/BENCH_sim_kernel.json" --repetitions "$REPETITIONS"
fi

echo "== sweep scaling: preset $PRESET, $SEEDS seed(s), workers: $WORKERS_LIST =="
TIMINGS=""
FIRST_DIR=""
for W in $WORKERS_LIST; do
  DIR="$OUT/sweep-w$W"
  rm -rf "$DIR"
  start=$(date +%s%N)
  "$SWEEP" --preset "$PRESET" --seeds "$SEEDS" --workers "$W" \
    --out "$DIR" --quiet 2>/dev/null
  end=$(date +%s%N)
  ms=$(( (end - start) / 1000000 ))
  echo "  $W worker(s): $ms ms"
  TIMINGS="$TIMINGS $W:$ms"
  if [ -z "$FIRST_DIR" ]; then
    FIRST_DIR="$DIR"
  else
    # Determinism gate: merged reports must not depend on the worker count.
    for f in summary.json summary.csv runs.csv; do
      cmp -s "$FIRST_DIR/$f" "$DIR/$f" || {
        echo "error: $DIR/$f differs from $FIRST_DIR/$f -- merged reports" \
             "must be byte-identical for every worker count" >&2
        exit 1
      }
    done
  fi
done
echo "  merged reports byte-identical across worker counts: OK"

RUNS=$(( $(wc -l < "$FIRST_DIR/runs.csv") - 1 ))
ARIA_BENCH_NOTE="$NOTE" \
python3 - "$OUT/BENCH_sweep_scaling.json" "$PRESET" "$SEEDS" "$RUNS" $TIMINGS <<'EOF'
import datetime, json, os, sys
out, preset, seeds, runs = sys.argv[1:5]
entries = []
for pair in sys.argv[5:]:
    workers, ms = pair.split(":")
    entries.append({"workers": int(workers), "wall_ms": int(ms)})
base = entries[0]["wall_ms"]
for e in entries:
    e["speedup_vs_1w"] = round(base / e["wall_ms"], 2) if e["wall_ms"] else None
cpu = ""
try:
    for line in open("/proc/cpuinfo"):
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
except OSError:
    pass
doc = {
    "schema": "aria-sweep-scaling-v1",
    "captured_utc": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
    "machine": {"cpus": os.cpu_count(), "cpu_model": cpu},
    "preset": preset,
    "seeds": int(seeds),
    "runs": int(runs),
    "workers": entries,
}
note = os.environ.get("ARIA_BENCH_NOTE", "")
if note:
    doc["note"] = note
json.dump(doc, open(out, "w"), indent=2)
open(out, "a").write("\n")
print(f"scaling curve written to {out}")
EOF

if [ "$SKIP_PDES" -eq 0 ]; then
  ARIA_SIM="$BUILD_DIR/tools/aria_sim"
  if [ ! -x "$ARIA_SIM" ]; then
    echo "error: $ARIA_SIM not found -- build the tools first" >&2
    exit 1
  fi
  echo "== pdes shard scaling: $PDES_NODES nodes / $PDES_JOBS jobs," \
       "--hierarchy, shards: $SHARDS_LIST =="
  PDES_TIMINGS=""
  for S in $SHARDS_LIST; do
    start=$(date +%s%N)
    # Exit code is a correctness gate: a stranded job or lifecycle violation
    # under sharding fails the bench even when it is fast.
    # stdout keeps the run's pdes block: its telemetry lands per entry.
    "$ARIA_SIM" --scenario iMixed --nodes "$PDES_NODES" --jobs "$PDES_JOBS" \
      --horizon 960 --hierarchy --shards "$S" --seed 1 --quiet \
      > "$OUT/pdes-s$S.txt"
    end=$(date +%s%N)
    ms=$(( (end - start) / 1000000 ))
    echo "  $S shard(s): $ms ms"
    PDES_TIMINGS="$PDES_TIMINGS $S:$ms"
  done

  ARIA_BENCH_NOTE="$NOTE" \
  python3 - "$OUT/BENCH_pdes_scaling.json" "$PDES_NODES" "$PDES_JOBS" \
      $PDES_TIMINGS <<'EOF'
import datetime, json, os, sys
out, nodes, jobs = sys.argv[1:4]
entries = []
for pair in sys.argv[4:]:
    shards, ms = pair.split(":")
    entries.append({"shards": int(shards), "wall_ms": int(ms)})
base = entries[0]["wall_ms"]
for e in entries:
    e["speedup_vs_1s"] = round(base / e["wall_ms"], 2) if e["wall_ms"] else None
    # The "pdes_<name>: <count>" lines of aria_sim's pdes block (S > 1).
    log = os.path.join(os.path.dirname(out), f"pdes-s{e['shards']}.txt")
    telemetry = {}
    for line in open(log):
        key, _, value = line.strip().partition(": ")
        if key.startswith("pdes_"):
            telemetry[key[len("pdes_"):]] = int(value)
    if telemetry:
        e["telemetry"] = telemetry
cpu = ""
try:
    for line in open("/proc/cpuinfo"):
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
except OSError:
    pass
doc = {
    "schema": "aria-pdes-scaling-v1",
    "captured_utc": datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
    "machine": {"cpus": os.cpu_count(), "cpu_model": cpu},
    "scenario": "iMixed --hierarchy",
    "nodes": int(nodes),
    "jobs": int(jobs),
    "shards": entries,
}
note = os.environ.get("ARIA_BENCH_NOTE", "")
if note:
    doc["note"] = note
json.dump(doc, open(out, "w"), indent=2)
open(out, "a").write("\n")
print(f"pdes scaling curve written to {out}")
EOF
fi

if [ -n "$BASELINE" ]; then
  echo "== regression gate vs $BASELINE (max +$MAX_REGRESS%) =="
  gate "$OUT/BENCH_sweep_scaling.json" "$BASELINE" "$MAX_REGRESS"
fi
