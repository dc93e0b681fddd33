#!/bin/sh
# Checks that EXPERIMENTS.md carries the paper driver's and the ablations'
# current output.
#
#   ./tools/check_experiments.sh [build-dir]
#
# Runs build-dir/bench/bench_paper (default build dir: build) at its
# defaults: full scale, 2 runs, base seed 1, so any ARIA_BENCH_* setting is
# ignored. Each section the driver prints (Table II, Figs. 1-10, the closing
# "shape checks" line) opens with a blank line; EXPERIMENTS.md holds each
# section, in order, as a ```text block directly under a
# `<!-- bench_paper: NAME -->` marker. Then runs the ablation benches named
# in ABLATIONS the same way: each one's report (a blank line, then the
# block) must equal the ```text block under `<!-- bench_ablation: NAME -->`.
# The gossip ablation takes minutes, so it is left out. Exits 1 when a bench
# reports a [shape MISS] or exits nonzero, or a block differs from its
# output; 2 when a bench binary is missing.
set -u

BUILD_DIR=${1:-build}
PAPER="$BUILD_DIR/bench/bench_paper"
DOC="$(dirname "$0")/../EXPERIMENTS.md"

ABLATIONS="centralized overlay overlay_types"

for b in "$PAPER" $(for a in $ABLATIONS; do
                      echo "$BUILD_DIR/bench/bench_ablation_$a"; done); do
  if [ ! -x "$b" ]; then
    echo "error: $b not found -- build the bench targets first" >&2
    exit 2
  fi
done

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
if ! diff -u -F '^\(Table II\|Figure [0-9]*\) — ' "$tmp/doc.txt" "$tmp/out.txt"
then
  echo "check_experiments: EXPERIMENTS.md differs from bench_paper's output" \
       "(- doc, + driver)" >&2
  status=1
fi

for a in $ABLATIONS; do
  if ! "$BUILD_DIR/bench/bench_ablation_$a" > "$tmp/$a.txt"; then
    echo "check_experiments: bench_ablation_$a reported a shape MISS or" \
         "failed" >&2
    status=1
  fi
  awk -v want="<!-- bench_ablation: $a -->" '
    $0 == want { marker = 1; next }
    marker && /^```text$/ { block = 1; marker = 0; print ""; next }
    block && /^```$/ { exit }
    block { print }
  ' "$DOC" > "$tmp/$a.doc.txt"
  if ! diff -u "$tmp/$a.doc.txt" "$tmp/$a.txt"; then
    echo "check_experiments: EXPERIMENTS.md differs from" \
         "bench_ablation_$a's output (- doc, + bench)" >&2
    status=1
  fi
done

[ "$status" -eq 0 ] &&
  echo "check_experiments: OK ($(tail -n 1 "$tmp/out.txt"); ablations:" \
       "$ABLATIONS)"
exit "$status"
