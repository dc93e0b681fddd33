#!/usr/bin/env python3
"""Benchmark entry point: builds aria_bench from source, then runs it.

    python3 aria_bench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the repository root. The CMake build tree is $CARGO_TARGET_DIR
(default .bench_build), results go to bench-out/, and the last line on
stdout is the JSON result aria_bench prints. Build output goes to stderr.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def build(build_dir: Path) -> Path:
    if not (build_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "aria_bench", "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return build_dir / "aria_bench"


def main() -> int:
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        exe = build(build_dir.resolve())
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"error: cannot build aria_bench: {e}", file=sys.stderr)
        return 1
    return subprocess.run([str(exe), *sys.argv[1:]]).returncode


if __name__ == "__main__":
    sys.exit(main())
