#!/usr/bin/env python3
"""Re-pins or checks the benchmark baseline (README.md, "Baseline").

    python3 aria_bench/baseline.py [--seeds 10] [--check]

For every workload in BENCHMARK.json it runs the benchmark once per seed
(1..N) untraced and once traced (seed 1), and summarizes each end-to-end
metric as median, quartiles and spread (interquartile range over median).
Without --check it writes that, the per-layer values and the machine to
aria_bench/baseline.json, and exits 1 if any run is incorrect or any spread
other than setup_s exceeds a third of its bound. With --check it writes
nothing and exits 1 if any run is incorrect or any median is worse than the
pinned one by more than its bound.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "aria_bench" / "baseline.json"


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(ROOT / "aria_bench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True,
                         text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--check", action="store_true",
                    help="gate against the pinned baseline instead of writing")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    lower = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"]}
    pinned = json.loads(BASELINE.read_text()) if args.check else None
    ok = True
    workloads = {}
    for w in bench["workloads"]:
        name = w["name"]
        values = {m: [] for m in bounds}
        failed = 0
        run_s = []
        for seed in range(1, args.seeds + 1):
            t0 = time.monotonic()
            res = run(name, seed, bench["run_seconds"], 0)
            run_s.append(time.monotonic() - t0)
            ok = ok and res["correct"]
            failed += res["failed"]
            for m in bounds:
                values[m].append(res["metrics"][m]["value"])
        summary = {}
        for m, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med if med else 0.0
            summary[m] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": bounds[m], "values": vs}
            verdict = ""
            if pinned is not None:
                old = pinned["workloads"][name]["end_to_end"][m]["median"]
                worse = (med - old) / old if lower[m] else (old - med) / old
                if worse > bounds[m]:
                    verdict = f" REGRESSED {worse:+.1%} vs {old:.6g}"
            elif m != "setup_s" and spread > bounds[m] / 3:
                verdict = " SPREAD ABOVE BOUND/3"
            ok = ok and not verdict
            print(f"{name:24} {m:22} median {med:12.6g} spread {spread:7.4f}"
                  f" (bound {bounds[m]}){verdict}", flush=True)
        t0 = time.monotonic()
        layers = run(name, 1, bench["run_seconds"], 1)
        traced_s = time.monotonic() - t0
        ok = ok and layers["correct"]
        workloads[name] = {
            "runs_failed": failed,
            "seconds_per_run": {"untraced": run_s, "traced": traced_s},
            "end_to_end": summary,
            "per_layer": {k: v["value"]
                          for k, v in layers["metrics"].items()},
        }

    if pinned is not None:
        return 0 if ok else 1
    out = {
        "machine": {"cpus": os.cpu_count(), "cpu": cpu_model(),
                    "system": platform.platform()},
        "seeds": [1, args.seeds],
        "run_seconds": bench["run_seconds"],
        "workloads": workloads,
    }
    BASELINE.write_text(json.dumps(out, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
