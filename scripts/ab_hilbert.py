"""Alternating A/B pairs of the ``hilbert_d16384`` kernels: a base git ref
against the working tree.

    python3 scripts/ab_hilbert.py --base HEAD --pairs 10 --out BENCH_stream.json

Run from the root of a git checkout.  The base tree's ``src/`` is extracted
with ``git archive`` into a temporary directory.  Each side of a pair is a
fresh interpreter with that side's ``src/`` first on its path.  It builds
the four kernels of the benchmark's ``hilbert_d16384`` workload with
``perfbench/workloads.py`` (imported, never changed) and runs ``--rounds``
rounds of ``--steps`` steps of each, every chain continuing from round to
round with its own seeded generator, as the workload does.  A side reports
chain steps per second of ``run_chain`` time, in total (the benchmark's
``steps_per_s``) and per kernel, and a digest of every position, accept
flag and final generator state.  The two sides alternate which runs first.

Two series are run: ``--pairs`` pairs with one BLAS thread (as
``perfbench/run.py`` sets it), then ``--default-blas-pairs`` pairs with the
BLAS library's default threading.  The output JSON holds, per series, both
sides' medians and quartiles, the pairs the working tree won, the repeat
count and every run, with the machine's CPU count.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import io
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def run_side(src: str, rounds: int, steps: int, seed: int) -> dict:
    """One side's chains, in this process: ``src`` must come first on the
    path before invmh is imported."""
    sys.path.insert(0, src)
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_ab_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    import numpy as np

    import invmh

    kernels = workloads.hilbert_kernels()
    dim = workloads.HILBERT_SPEC["d"]
    states = {name: np.zeros(dim) for name in kernels}
    rngs = {name: workloads._rng(seed, 0, i) for i, name in enumerate(kernels)}
    seconds = dict.fromkeys(kernels, 0.0)
    digest = hashlib.sha256()
    for _ in range(rounds):
        for name, kernel in kernels.items():
            start = time.perf_counter()
            result = invmh.run_chain(kernel, states[name], steps, rngs[name])
            seconds[name] += time.perf_counter() - start
            states[name] = result.positions[-1].copy()
            digest.update(result.positions.tobytes())
            digest.update(result.accepted.tobytes())
    for rng in rngs.values():
        digest.update(repr(rng.bit_generator.state).encode())
    n = rounds * steps
    return {
        "steps_per_s": n * len(kernels) / sum(seconds.values()),
        "kernel_steps_per_s": {name: n / s for name, s in seconds.items()},
        "digest": digest.hexdigest(),
    }


def extract_src(ref: str, into: Path) -> Path:
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", ref, "src"], capture_output=True, check=True
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into / "src"


def spawn_side(src: Path, args, blas: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES and k != "PYTHONPATH"}
    if blas != "default":
        env.update(dict.fromkeys(BLAS_VARIABLES, blas))
    command = [sys.executable, __file__, "--side", str(src), "--rounds", str(args.rounds)]
    command += ["--steps", str(args.steps), "--seed", str(args.seed)]
    out = subprocess.run(command, env=env, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    import numpy as np

    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def run_series(sides: dict[str, Path], args, blas: str, pairs: int) -> dict:
    runs = []
    for i in range(pairs):
        order = ("base", "working") if i % 2 == 0 else ("working", "base")
        pair = {side: spawn_side(sides[side], args, blas) for side in order}
        pair["first"] = order[0]
        runs.append(pair)
        print(
            f"blas={blas} pair {i + 1}/{pairs}: base {pair['base']['steps_per_s']:.1f}"
            f" working {pair['working']['steps_per_s']:.1f} steps/s",
            file=sys.stderr,
            flush=True,
        )
    series = {"blas_threads": blas, "pairs": pairs}
    for side in ("base", "working"):
        series[side] = quartiles([run[side]["steps_per_s"] for run in runs])
        series[side]["kernels"] = {
            name: quartiles([run[side]["kernel_steps_per_s"][name] for run in runs])
            for name in runs[0][side]["kernel_steps_per_s"]
        }
    series["working_won"] = sum(
        run["working"]["steps_per_s"] > run["base"]["steps_per_s"] for run in runs
    )
    digests = {run[side]["digest"] for run in runs for side in ("base", "working")}
    series["digests_equal"] = len(digests) == 1
    series["runs"] = runs
    return series


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="git ref of the base side (default HEAD)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--default-blas-pairs", type=int, default=3)
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--steps", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", default="BENCH_stream.json")
    parser.add_argument("--side", help=argparse.SUPPRESS)  # internal: run one side
    args = parser.parse_args(argv)
    if args.side:
        print(json.dumps(run_side(args.side, args.rounds, args.steps, args.seed)))
        return 0

    base_commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", args.base], capture_output=True, text=True, check=True
    ).stdout.strip()
    with tempfile.TemporaryDirectory() as scratch:
        sides = {"base": extract_src(args.base, Path(scratch)), "working": ROOT / "src"}
        series = [run_series(sides, args, "1", args.pairs)]
        if args.default_blas_pairs:
            series.append(run_series(sides, args, "default", args.default_blas_pairs))
    report = {
        "what": "steps/s of run_chain over the hilbert_d16384 kernels"
        " (pcn, inf_mala, inf_hmc, gen_langevin)",
        "base": args.base,
        "base_commit": base_commit,
        "rounds": args.rounds,
        "steps_per_round": args.steps,
        "seed": args.seed,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "series": series,
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    for s in series:
        base, working = s["base"], s["working"]
        print(
            f"blas={s['blas_threads']}:"
            f" base {base['median']:.1f} [{base['q1']:.1f}, {base['q3']:.1f}]"
            f"  working {working['median']:.1f} [{working['q1']:.1f}, {working['q3']:.1f}]"
            f"  won {s['working_won']}/{s['pairs']}  digests equal: {s['digests_equal']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
