#!/bin/sh
# Checks that EXPERIMENTS.md carries bench_paper's current output.
#
#   ./tools/check_experiments.sh [build-dir]
#
# Runs build-dir/bench/bench_paper (default build dir: build) at its
# defaults: full scale, 2 runs, base seed 1, so any ARIA_BENCH_* setting is
# ignored. Each section bench_paper prints (Table II, Figs. 1-10, the four
# ablations, the closing "shape checks" line) opens with a blank line;
# EXPERIMENTS.md holds each section, in order, as a ```text block directly
# under a `<!-- bench_paper: NAME -->` marker. Exits 1 when bench_paper
# reports a [shape MISS] or exits nonzero, or a block differs from its
# output; 2 when the bench_paper binary is missing.
set -u

BUILD_DIR=${1:-build}
PAPER="$BUILD_DIR/bench/bench_paper"
DOC="$(dirname "$0")/../EXPERIMENTS.md"

if [ ! -x "$PAPER" ]; then
  echo "error: $PAPER not found -- build the bench_paper target first" >&2
  exit 2
fi

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

unset ARIA_BENCH_RUNS ARIA_BENCH_SEED ARIA_BENCH_SCALE
status=0
if ! "$PAPER" > "$tmp/out.txt"; then
  echo "check_experiments: bench_paper reported a shape MISS or failed" >&2
  status=1
fi

# The driver output the doc's blocks spell out: a blank line, then the block.
awk '
  /^<!-- bench_paper: .* -->$/ { marker = 1; next }
  marker && /^```text$/ { block = 1; marker = 0; print ""; next }
  block && /^```$/ { block = 0; next }
  block { print }
' "$DOC" > "$tmp/doc.txt"

# Hunk headers name the section each difference falls in.
if ! diff -u -F '^\(Table II\|Figure [0-9]*\|Ablation\) — ' \
     "$tmp/doc.txt" "$tmp/out.txt"
then
  echo "check_experiments: EXPERIMENTS.md differs from bench_paper's output" \
       "(- doc, + driver)" >&2
  status=1
fi

[ "$status" -eq 0 ] && echo "check_experiments: OK ($(tail -n 1 "$tmp/out.txt"))"
exit "$status"
