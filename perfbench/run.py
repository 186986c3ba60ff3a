"""invmh benchmark: one workload per invocation.

    python3 perfbench/run.py --workload fd_d2 --seed 1 --seconds 38 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it (prefixed ``detail:``) carries chain fingerprints, check values and, with
``--trace 1``, exact per-step call counts.

``--trace 0`` reports the end-to-end metrics (see BENCHMARK.json):
``steps_per_s`` and ``ess_per_s`` are chain steps and effective samples
over the time spent in invmh calls, ``setup_s`` is the median over fresh
processes of ``import invmh`` plus building the workload's kernels, taken
at even intervals across the run, and
``peak_rss_mb`` is the process peak at the end of the timed rounds.
``attempted``/``failed`` count chains.

``--trace 1`` spends half of ``--seconds`` untraced and half traced on the
same rounds, reports the per-layer metrics of the traced half and the
difference in ``steps_per_s``, and fails unless both halves produce the same
chain fingerprints.  The exit code is non-zero whenever ``correct`` is
false.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

# The detailed-balance test is BLAS-bound.  One thread is no more than any
# machine's core count, and on a shared 2-core x86-64 machine it ran the
# test faster than two (0.16 s against 0.24 s at 1500 pairs).
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

WORKLOADS = {
    "fd_d2": ("workloads", "FdD2"),
    "hilbert_d16384": ("workloads", "HilbertD16384"),
    "cli_many_chains": ("cli_workload", "CliManyChains"),
}

# Fresh-process set-up samples per run, spread evenly over the timed rounds:
# the machine's speed drifts in phases of seconds, and five samples taken
# back to back spread by a third of their median from run to run.
SETUP_SAMPLES = 15
SETUP_PROBE = """
import importlib, sys, time
from pathlib import Path
start = time.perf_counter()
src, bench, module, name, workdir = sys.argv[1:6]
sys.path[:0] = [src, bench]
getattr(importlib.import_module(module), name).setup(Path(workdir))
print(time.perf_counter() - start)
"""

FD_SAMPLERS = ("rwmc", "mala", "hmc", "relativistic_hmc", "rmhmc", "surrogate_hmc")
HILBERT_SAMPLERS = ("pcn", "inf_mala", "inf_hmc", "gen_langevin")


def workload_class(name: str):
    module, cls = WORKLOADS[name]
    return getattr(importlib.import_module(module), cls)


def setup_sample(name: str, workdir: Path) -> float:
    """One fresh interpreter's import plus kernel construction."""
    module, cls = WORKLOADS[name]
    out = subprocess.run(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), str(BENCH_DIR), module, cls, str(workdir)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def run_rounds(cls, seed: int, seconds: float, workdir: Path, tracer=None, between=None):
    """Rounds until ``seconds`` have passed (at least MIN_ROUNDS); calls
    ``between(elapsed)`` after each round."""
    from workloads import MIN_ROUNDS

    workload = cls(seed, tracer, workdir)
    rounds = []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS or time.perf_counter() - start < seconds:
        rounds.append(workload.run_round(len(rounds)))
        if between is not None:
            between(time.perf_counter() - start)
    return workload, rounds


def steps_per_s(rounds) -> float:
    """Steps over the time spent in invmh calls, whole run.  On a shared
    machine whose speed changes in phases of 10-20 s, this ratio of totals
    varied less from run to run than the median of per-round rates."""
    seconds = sum(r.seconds for r in rounds)
    return sum(r.steps for r in rounds) / seconds if seconds else 0.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_metrics(tracer, workload, rounds, untraced_steps_per_s: float) -> tuple[dict, dict]:
    """Per-layer metrics of a traced run (per chain step unless the name
    says otherwise) and the exact per-sampler call counts."""
    import numpy as np

    steps = sum(r.steps for r in rounds)
    per_step = lambda value: value / steps  # noqa: E731
    us = lambda layer: per_step(tracer.self_s.get(layer, 0.0)) * 1e6  # noqa: E731
    calls = lambda name: per_step(tracer.calls.get(name, 0))  # noqa: E731

    def mean_per_call(name: str) -> float:
        n = tracer.calls.get(name, 0)
        return tracer.total_s.get(name, 0.0) / n if n else 0.0

    step_us = np.asarray(tracer.step_s) * 1e6
    db_calls = tracer.calls.get("diagnostics.db_test", 0)
    runs = workload.invocations
    per_run = lambda value: value / runs if runs else 0.0  # noqa: E731
    metrics = {
        "core.self_us": (us("core"), "us"),
        "core.step_us_p50": (float(np.percentile(step_us, 50)), "us"),
        "core.step_us_p99": (float(np.percentile(step_us, 99)), "us"),
        "core.accept_rate": (per_step(workload.accepted), "ratio"),
        "core.integration_reject_rate": (per_step(tracer.integration_rejects), "ratio"),
        "finite_dim.aux_us": (us("finite_dim.aux"), "us"),
        "finite_dim.log_rn_us": (us("finite_dim.log_rn"), "us"),
        "hilbert.aux_us": (us("hilbert.aux"), "us"),
        "hilbert.log_rn_us": (us("hilbert.log_rn"), "us"),
        "integrators.us": (us("integrators"), "us"),
        "integrators.implicit_evals": (calls("integrators.implicit_evals"), "calls/step"),
        "targets.eval_calls": (calls("targets.eval"), "calls/step"),
        "targets.grad_calls": (calls("targets.grad"), "calls/step"),
        "targets.metric_calls": (calls("targets.metric"), "calls/step"),
        "targets.us": (us("targets"), "us"),
        "gaussian.calls": (calls("gaussian"), "calls/step"),
        "gaussian.us": (us("gaussian"), "us"),
        "diagnostics.summarize_s": (mean_per_call("diagnostics.summarize"), "s"),
        "diagnostics.db_test_s": (mean_per_call("diagnostics.db_test"), "s"),
        "diagnostics.db_test_gflop": (tracer.db_flop / db_calls / 1e9 if db_calls else 0.0, "GFLOP"),
        "cli.run_chain_s": (per_run(tracer.total_s.get("cli.run_chain", 0.0)), "s"),
        "cli.csv_write_s": (per_run(tracer.total_s.get("cli.csv_write", 0.0)), "s"),
        "cli.csv_mb": (per_run(workload.csv_bytes / 1e6), "MB"),
        "cli.kernel_builds": (per_run(tracer.calls.get("cli.kernel_builds", 0)), "count"),
        "trace.overhead_steps_per_s": (steps_per_s(rounds) - untraced_steps_per_s, "1/s"),
    }
    sampler_steps = workload.sampler_time()
    counts = {}
    for sampler in FD_SAMPLERS + HILBERT_SAMPLERS:
        n, seconds = sampler_steps.get(sampler, (0, 0.0))
        grads = tracer.sampler_calls.get((sampler, "targets.grad"), 0)
        metrics[f"{sampler}.step_us"] = (seconds / n * 1e6 if n else 0.0, "us")
        metrics[f"{sampler}.grad_calls"] = (grads / n if n else 0.0, "calls/step")
        if n:
            counts[sampler] = {
                name: tracer.sampler_calls[(owner, name)] / n
                for owner, name in sorted(tracer.sampler_calls)
                if owner == sampler
            }
            counts[sampler]["steps"] = n
    return metrics, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "invmh" / "__init__.py").is_file():
        print(f"error: no invmh sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import invmh

    if Path(invmh.__file__).resolve().parent != SRC / "invmh":
        print(f"error: imported invmh from {invmh.__file__}, not {SRC}", file=sys.stderr)
        return 2

    cls = workload_class(args.workload)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench_work-", dir=ROOT))
    try:
        if args.trace:
            result = traced_run(cls, args, workdir)
        else:
            result = untraced_run(cls, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail, line = result
    print("detail: " + json.dumps(detail, sort_keys=True))
    print(json.dumps(line))
    return 0 if line["correct"] else 1


def untraced_run(cls, args, workdir: Path):
    setup = []

    def sample_setup(elapsed: float) -> None:
        while len(setup) < SETUP_SAMPLES * min(elapsed / args.seconds, 1.0):
            setup.append(setup_sample(args.workload, workdir))

    workload, rounds = run_rounds(cls, args.seed, args.seconds, workdir, between=sample_setup)
    peak = peak_rss_mb()
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(args.workload, workdir))
    workload.check()
    setup_s = statistics.median(setup)
    timed = sum(r.seconds for r in rounds)
    attempted, failed = workload.ops
    metrics = {
        "steps_per_s": (steps_per_s(rounds), "1/s"),
        "ess_per_s": (workload.total_ess() / timed if timed else 0.0, "1/s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak, "MB"),
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(rounds),
        "round_steps_per_s": [r.steps / r.seconds if r.seconds else 0.0 for r in rounds],
        "setup_s_samples": setup,
        "steps": sum(r.steps for r in rounds),
        "chains": workload.report(),
        "blas_threads": BLAS_THREADS,
    }
    return detail, result_line(failed == 0, attempted, failed, metrics)


def traced_run(cls, args, workdir: Path):
    from tracing import Tracer

    half = args.seconds / 2.0
    plain, plain_rounds = run_rounds(cls, args.seed, half, workdir)
    tracer = Tracer()
    with tracer.patched():
        traced, traced_rounds = run_rounds(cls, args.seed, half, workdir, tracer)
    traced.check()
    plain_report, traced_report = plain.report(), traced.report()
    same = fingerprints(plain_report) == fingerprints(traced_report)
    metrics, counts = layer_metrics(tracer, traced, traced_rounds, steps_per_s(plain_rounds))
    attempted, failed = traced.ops
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": {"untraced": len(plain_rounds), "traced": len(traced_rounds)},
        "fingerprints_match": same,
        "chains": traced_report,
        "counts_per_step": counts,
    }
    line = result_line(failed == 0 and same, attempted, failed, metrics)
    return detail, line


def fingerprints(report: dict):
    if "digest" in report:
        return report["digest"]
    return {name: chain["digest"] for name, chain in report.items()}


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
