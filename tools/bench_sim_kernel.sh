#!/usr/bin/env sh
# Measures the event-kernel hot paths that BENCH_sim_kernel.json tracks:
# the simulator/network/traffic micro-benchmarks plus the Table-II macro
# sweep (`aria_sweep --preset table2-smoke --seeds 1`: all 26 scenarios
# downsized, one seed each). Run it once on the baseline commit and once on
# the candidate, then diff the JSON medians.
#
#   ./tools/bench_sim_kernel.sh [build-dir] [out.json] [--repetitions N]
#
# --repetitions sets the google-benchmark repetition count (default 3);
# the bench_all gate drops it to 1 for CI smoke runs where noise beats
# runtime. Requires a Release build with ARIA_BUILD_BENCH=ON (the default)
# and the tools.
set -eu

BUILD_DIR="build"
OUT="bench_sim_kernel.json"
REPETITIONS=3

# Positional [build-dir] [out.json] stay accepted for compatibility;
# --repetitions may appear anywhere.
pos=0
while [ $# -gt 0 ]; do
  case "$1" in
    --repetitions)
      [ $# -ge 2 ] || { echo "error: --repetitions requires a count" >&2; exit 2; }
      REPETITIONS="$2"
      shift 2
      ;;
    --repetitions=*)
      REPETITIONS="${1#--repetitions=}"
      shift
      ;;
    -*)
      echo "error: unknown option $1" >&2
      exit 2
      ;;
    *)
      pos=$((pos + 1))
      case "$pos" in
        1) BUILD_DIR="$1" ;;
        2) OUT="$1" ;;
        *) echo "error: unexpected argument $1" >&2; exit 2 ;;
      esac
      shift
      ;;
  esac
done

case "$REPETITIONS" in
  ''|*[!0-9]*|0)
    echo "error: --repetitions requires a positive integer (got '$REPETITIONS')" >&2
    exit 2
    ;;
esac

MICRO="$BUILD_DIR/bench/bench_micro_core"
SWEEP="$BUILD_DIR/tools/aria_sweep"

if [ ! -x "$MICRO" ]; then
  echo "error: $MICRO not found -- build with -DARIA_BUILD_BENCH=ON first" >&2
  exit 1
fi
if [ ! -x "$SWEEP" ]; then
  echo "error: $SWEEP not found -- build the tools first" >&2
  exit 1
fi

echo "== micro: simulator / network / traffic hot paths (median of $REPETITIONS) =="
"$MICRO" \
  --benchmark_filter='Simulator|Network|Traffic' \
  --benchmark_repetitions="$REPETITIONS" \
  --benchmark_report_aggregates_only=true \
  --benchmark_out="$OUT" \
  --benchmark_out_format=json

echo "== macro: downsized Table-II scenario sweep (wall clock) =="
start=$(date +%s%N)
"$SWEEP" --preset table2-smoke --seeds 1 --quiet > /dev/null
end=$(date +%s%N)
echo "aria_sweep --preset table2-smoke --seeds 1: $(( (end - start) / 1000000 )) ms"

echo "micro results written to $OUT"
