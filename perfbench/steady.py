"""Steadiness runner and baseline writer.

    python3 perfbench/steady.py --runs 10 --out perfbench/BENCH_baseline.json

Runs every workload ``--runs`` times, each with another seed, round-robin
across workloads so slow drifts of the machine hit all of them alike.  For
each end-to-end metric it reports the values, their median and quartiles
(``statistics.quantiles(values, n=4)``) and the quartile spread as a share
of the median, next to the metric's bound from BENCHMARK.json.  It then
makes one traced run per workload at seed 0 and records its per-layer
metrics, exact per-step call counts and chain fingerprints.  The machine
(core count, numpy and OpenBLAS versions, BLAS threads) is recorded with
the results.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    lines = out.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-2].startswith("detail: "):
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}:\n{out.stdout}{out.stderr}")
    detail, line = json.loads(lines[-2].removeprefix("detail: ")), json.loads(lines[-1])
    if out.returncode != 0:
        print(f"{workload} seed {seed}: incorrect run, exit {out.returncode}: {lines[-2]}", flush=True)
    return detail, line


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
    }


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", type=Path, help="write the results here as JSON")
    args = parser.parse_args(argv)

    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    values = {w: {} for w in workloads}
    blas_threads = None
    ops = {w: [0, 0, 0] for w in workloads}
    for seed in seeds:
        for workload in workloads:
            detail, line = run_once(workload, seed, seconds, trace=0)
            blas_threads = detail["blas_threads"]
            ops[workload][0] += line["attempted"]
            ops[workload][1] += line["failed"]
            ops[workload][2] += not line["correct"]
            for name, metric in line["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v["value"], 4) for k, v in line["metrics"].items()},
                  flush=True)

    results = {}
    for workload in workloads:
        metrics = {}
        for name, vals in values[workload].items():
            metrics[name] = spread(vals) | {"bound": bounds[name]}
            print(f"{workload:16s} {name:12s} median {metrics[name]['median']:12.4f} "
                  f"spread {metrics[name]['spread']:.4f} (bound {bounds[name]})")
        attempted, failed, incorrect = ops[workload]
        results[workload] = {
            "metrics": metrics,
            "attempted": attempted,
            "failed": failed,
            "incorrect_runs": incorrect,
        }
        detail, line = run_once(workload, 0, seconds, trace=1)
        results[workload]["traced_seed_0"] = {
            "per_layer": {k: v["value"] for k, v in line["metrics"].items()},
            "units": {k: v["unit"] for k, v in line["metrics"].items()},
            "counts_per_step": detail["counts_per_step"],
            "fingerprints_match": detail["fingerprints_match"],
            "chains": detail["chains"],
        }

    report = {
        "machine": machine(),
        "blas_threads": blas_threads,
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": results,
    }
    if args.out:
        args.out.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
