"""Alternating A/B pairs of benchmark workloads' kernels: one git ref against
another, or against the working tree.

    python3 scripts/ab.py --workload fd_d2 hilbert_d16384 --base HEAD --out BENCH_lean.json
    python3 scripts/ab.py --workload hilbert_d16384 --base 47ad075 --working 5d306d0 \\
        --rounds 8 --out BENCH_fused.json
    python3 scripts/ab.py --workload cli_many_chains --base HEAD --out BENCH_dbtest.json

Run from the root of a git checkout.  Each side's ``src/`` is extracted with
``git archive`` into a temporary directory (the working side is the working
tree's ``src/`` unless ``--working`` names a ref).  Each side of a pair is a
fresh interpreter with that side's ``src/`` first on its path.  It builds
the kernels of the benchmark workload (``fd_kernels`` or
``hilbert_kernels`` of ``perfbench/workloads.py``, imported, never changed)
and runs ``--rounds`` rounds of ``--steps`` steps of each, every chain
continuing from round to round with its own seeded generator, as the
workload does.  A side reports chain steps per second of ``run_chain``
time, in total (the benchmark's ``steps_per_s``) and per kernel, and a
digest of every position, alpha, accept flag and final generator state.
The two sides alternate which runs first.  Each workload named by
``--workload`` is measured in turn and has its own entry under
``workloads`` in the output JSON.

``cli_many_chains`` measures ``invmh run`` instead: a side makes
``--rounds`` invocations of ``EXAMPLE_CONFIGS["mala_gaussian"]`` with 8
chains through ``CliManyChains.run_round`` of ``perfbench/cli_workload.py``
(imported, never changed; it holds the config name and chain count), and
reports chain steps per second of ``invmh.cli.main`` time and a digest of
every CSV and ``summary.json`` (without its ``directory`` field).  It then
reads the process's peak resident memory (``ru_maxrss``), times
``detailed_balance_test`` on 2000 transition pairs of a seeded AR(1) series
with the default 999 permutations, ``DB_TEST_CALLS`` calls with one strip
worker and as many with two, and reports the median per call, and last
the tracemalloc peak of one more call with two strip workers.  Both memory
figures get quartiles and pairs won (lower wins), as the timings do.

Two series are run per workload: ``--pairs`` pairs with one BLAS thread (as
``perfbench/run.py`` sets it), then ``--default-blas-pairs`` pairs with the
BLAS library's default threading.  The output JSON holds, per series, both
sides' medians and quartiles (in total, and per kernel in microseconds per
step), the pairs the working side won, the median gain against the base's
interquartile range, the repeat count and every run, with the machine's CPU
count.

After the timed series each side runs once more, untimed: under cProfile,
for the calls per step of each kernel, and then for the
per-kernel digests of every seed of ``CHECK_SEEDS``.  When the two sides'
digests differ, each side runs its chains once more and saves them; the
JSON then holds, per kernel, the share of steps whose accept flags agree,
and the largest relative difference between the sides' positions
(``max |a - b| / max |b|`` over the coordinates of a state, the largest
over all states) and alphas.
"""

from __future__ import annotations

import argparse
import cProfile
import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Seeds whose chains the two sides must reproduce digest for digest.
CHECK_SEEDS = (1, 2, 3)
BUILDERS = {"fd_d2": "fd_kernels", "hilbert_d16384": "hilbert_kernels"}
CLI_WORKLOAD = "cli_many_chains"
# Timed detailed_balance_test calls per strip-worker count in a cli side.
DB_TEST_CALLS = 7
DB_TEST_PAIRS = 2000


def _kernels(src: str, workload: str):
    """The workload's kernels and its dimension, built by this process with
    ``src`` first on the path before invmh is imported."""
    sys.path.insert(0, src)
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("_ab_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look their module up
    spec.loader.exec_module(workloads)
    kernels = getattr(workloads, BUILDERS[workload])()
    dim = workloads.FdD2.dim if workload == "fd_d2" else workloads.HILBERT_SPEC["d"]
    return workloads, kernels, dim


def _round(run_chain, kernel, q, rng, steps: int, digest):
    """One round of ``steps`` steps of a chain from ``q``: the result and the
    seconds spent in ``run_chain``.  Every position, alpha and accept flag
    goes into ``digest``."""
    start = time.perf_counter()
    result = run_chain(kernel, q, steps, rng)
    seconds = time.perf_counter() - start
    for array in (result.positions, result.alphas, result.accepted):
        digest.update(array.tobytes())
    return result, seconds


def run_side(src: str, args, save: Path | None = None) -> dict:
    """One side's timed chains, in this process, round by round as the
    workload runs them.  With ``save``, every round of every kernel's chain
    is written there as ``<kernel>_<round>.npz``."""
    workloads, kernels, dim = _kernels(src, args.workload)
    import numpy as np

    import invmh

    states = {name: np.zeros(dim) for name in kernels}
    rngs = {name: workloads._rng(args.seed, 0, i) for i, name in enumerate(kernels)}
    seconds = dict.fromkeys(kernels, 0.0)
    digest = hashlib.sha256()
    for round_ in range(args.rounds):
        for name, kernel in kernels.items():
            result, elapsed = _round(
                invmh.run_chain, kernel, states[name], rngs[name], args.steps, digest
            )
            seconds[name] += elapsed
            states[name] = result.positions[-1].copy()
            if save is not None:
                np.savez(
                    save / f"{name}_{round_}.npz",
                    positions=result.positions[1:],
                    alphas=result.alphas,
                    accepted=result.accepted,
                )
    for rng in rngs.values():
        digest.update(repr(rng.bit_generator.state).encode())
    n = args.rounds * args.steps
    return {
        "steps_per_s": n * len(kernels) / sum(seconds.values()),
        "kernel_steps_per_s": {name: n / s for name, s in seconds.items()},
        "digest": digest.hexdigest(),
    }


def _cli_rounds(seed: int, rounds: int, workdir: Path, runner=None):
    """``rounds`` invocations of the ``cli_many_chains`` workload with run
    seed ``seed`` (``runner`` wraps each one, as cProfile does): the seconds
    in ``invmh.cli.main``, the chain steps and the digest of every round's
    CSVs and summary."""
    import cli_workload

    workload = cli_workload.CliManyChains(seed, None, workdir)
    run = workload.run_round if runner is None else lambda i: runner(workload.run_round, i)
    done = [run(index) for index in range(rounds)]
    if workload.failures:
        raise RuntimeError("; ".join(workload.failures))
    digest = hashlib.sha256("".join(workload.digests).encode()).hexdigest()
    return sum(r.seconds for r in done), sum(r.steps for r in done), digest, workload


def _calls(profile: cProfile.Profile) -> int:
    """Every call ``profile`` recorded, counted per code object: ``pstats``
    keys functions by file, line and name, so it merges two lambdas on one
    line and keeps the count of only one."""
    return sum(entry.callcount for entry in profile.getstats())


def _db_test_calls(workers: int, calls: int, measure) -> list:
    """``measure(call)`` of each of ``calls`` calls of ``detailed_balance_test``
    on ``DB_TEST_PAIRS`` pairs with ``workers`` strip workers, where ``call``
    makes one call."""
    import numpy as np

    from invmh import diagnostics

    rng = np.random.default_rng(0)
    x = np.zeros(DB_TEST_PAIRS + 1)
    for k in range(DB_TEST_PAIRS):
        x[k + 1] = 0.9 * x[k] + rng.standard_normal()
    pairs = diagnostics.transition_pairs(x)
    count = diagnostics._worker_count
    diagnostics._worker_count = lambda: workers
    try:
        return [
            measure(lambda: diagnostics.detailed_balance_test(pairs, np.random.default_rng(i)))
            for i in range(calls)
        ]
    finally:
        diagnostics._worker_count = count


def _db_test_ms(workers: int) -> float:
    """Median milliseconds per ``detailed_balance_test`` call on
    ``DB_TEST_PAIRS`` pairs with ``workers`` strip workers."""

    def seconds(call):
        start = time.perf_counter()
        call()
        return time.perf_counter() - start

    times = _db_test_calls(workers, DB_TEST_CALLS, seconds)
    return 1e3 * sorted(times)[len(times) // 2]


def _db_test_peak_mb(workers: int = 2) -> float:
    """The tracemalloc peak, in MB, of one ``detailed_balance_test`` call on
    ``DB_TEST_PAIRS`` pairs with ``workers`` strip workers."""
    import tracemalloc

    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()

    return _db_test_calls(workers, 1, peak)[0]


def _peak_rss_mb() -> float:
    """This process's peak resident memory in MB, read as
    ``perfbench/run.py`` reads its ``peak_rss_mb`` (``ru_maxrss`` in KB, as
    Linux gives it)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cli_side(src: str, args, mode: str) -> dict:
    """A ``cli_many_chains`` side: timed, as :func:`run_side`, with the
    detailed-balance timings, or untimed, as :func:`untimed_side`."""
    sys.path[:0] = [src, str(ROOT / "perfbench")]
    with tempfile.TemporaryDirectory() as workdir:
        if mode == "time":
            seconds, steps, digest, workload = _cli_rounds(args.seed, args.rounds, Path(workdir))
            sampler = workload.config["sampler"]["name"]
            peak_rss_mb = _peak_rss_mb()  # before the test calls below
            return {
                "steps_per_s": steps / seconds,
                "kernel_steps_per_s": {sampler: steps / seconds},
                "db_test_ms": {str(w): _db_test_ms(w) for w in (1, 2)},
                "peak_rss_mb": peak_rss_mb,
                "db_test_peak_mb": _db_test_peak_mb(),
                "digest": digest,
            }
        profile = cProfile.Profile()
        _, steps, _, workload = _cli_rounds(args.seed, args.rounds, Path(workdir), profile.runcall)
        sampler = workload.config["sampler"]["name"]
        total = _calls(profile)
        digests = {
            f"{seed}/{sampler}": _cli_rounds(seed, args.rounds, Path(workdir))[2]
            for seed in CHECK_SEEDS
        }
        return {"calls_per_step": {sampler: total / steps}, "digests": digests}


def untimed_side(src: str, args) -> dict:
    """Calls per step of each kernel, as cProfile counts them (Python
    functions and builtins, primitive and recursive calls alike, over the
    rounds of seed ``--seed``), and per seed of ``CHECK_SEEDS`` the digest of each
    kernel's rounds: its positions, alphas, accept flags and the
    generator's final state."""
    workloads, kernels, dim = _kernels(src, args.workload)
    import numpy as np

    import invmh

    def chain(run_chain, i, kernel, seed, digest):
        q, rng = np.zeros(dim), workloads._rng(seed, 0, i)
        for _ in range(args.rounds):
            q = _round(run_chain, kernel, q, rng, args.steps, digest)[0].positions[-1].copy()
        digest.update(repr(rng.bit_generator.state).encode())
        return digest.hexdigest()

    calls, digests = {}, {}
    for i, (name, kernel) in enumerate(kernels.items()):
        profile = cProfile.Profile()
        profiled = lambda *chain_args: profile.runcall(invmh.run_chain, *chain_args)
        chain(profiled, i, kernel, args.seed, hashlib.sha256())
        total = _calls(profile)
        calls[name] = total / (args.rounds * args.steps)
        for seed in CHECK_SEEDS:
            digests[f"{seed}/{name}"] = chain(invmh.run_chain, i, kernel, seed, hashlib.sha256())
    return {"calls_per_step": calls, "digests": digests}


def extract_src(ref: str, into: Path) -> Path:
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", ref, "src"], capture_output=True, check=True
    ).stdout
    into.mkdir()
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, filter="data")
    return into / "src"


def spawn_side(src: Path, args, blas: str, mode: str = "time", save: Path | None = None) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in BLAS_VARIABLES and k != "PYTHONPATH"}
    if blas != "default":
        env.update(dict.fromkeys(BLAS_VARIABLES, blas))
    command = [sys.executable, __file__, "--side", str(src), "--mode", mode]
    command += ["--workload", args.workload, "--rounds", str(args.rounds)]
    command += ["--steps", str(args.steps), "--seed", str(args.seed)]
    if save is not None:
        command += ["--out", str(save)]
    out = subprocess.run(command, env=env, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> dict:
    import numpy as np

    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def compare_sides(sides: dict[str, Path], args, scratch: Path) -> dict:
    """Per kernel: the share of steps whose accept flags agree and the
    largest relative position and alpha differences between the sides'
    chains, saved by an untimed run of each side with one BLAS thread."""
    for side, src in sides.items():
        (scratch / side).mkdir(parents=True)
        spawn_side(src, args, "1", save=scratch / side)
    import numpy as np

    report = {}
    for path in sorted((scratch / "base").glob("*.npz")):
        base, working = np.load(path), np.load(scratch / "working" / path.name)
        a, b = working["positions"], base["positions"]
        alpha_scale = np.maximum(np.abs(base["alphas"]), np.finfo(float).tiny)
        kernel = report.setdefault(
            path.stem.rsplit("_", 1)[0],
            {"steps": 0, "agreeing": 0, "max_rel_position_diff": 0.0, "max_rel_alpha_diff": 0.0},
        )
        kernel["steps"] += len(b)
        kernel["agreeing"] += int(np.sum(working["accepted"] == base["accepted"]))
        scale = np.maximum(np.abs(b).max(axis=1), np.finfo(float).tiny)
        position = float((np.abs(a - b).max(axis=1) / scale).max())
        alpha = float((np.abs(working["alphas"] - base["alphas"]) / alpha_scale).max())
        kernel["max_rel_position_diff"] = max(kernel["max_rel_position_diff"], position)
        kernel["max_rel_alpha_diff"] = max(kernel["max_rel_alpha_diff"], alpha)
    for kernel in report.values():
        kernel["accept_agreement"] = kernel.pop("agreeing") / kernel["steps"]
    return report


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
        series[side]["kernel_us_per_step"] = {
            name: quartiles([1e6 / run[side]["kernel_steps_per_s"][name] for run in runs])
            for name in runs[0][side]["kernel_steps_per_s"]
        }
    series["working_won"] = sum(
        run["working"]["steps_per_s"] > run["base"]["steps_per_s"] for run in runs
    )
    if "db_test_ms" in runs[0]["base"]:
        for side in ("base", "working"):
            series[side]["db_test_ms"] = {
                w: quartiles([run[side]["db_test_ms"][w] for run in runs])
                for w in runs[0][side]["db_test_ms"]
            }
        series["db_test_working_won"] = {
            w: sum(run["working"]["db_test_ms"][w] < run["base"]["db_test_ms"][w] for run in runs)
            for w in runs[0]["base"]["db_test_ms"]
        }
        for memory in ("peak_rss_mb", "db_test_peak_mb"):
            for side in ("base", "working"):
                series[side][memory] = quartiles([run[side][memory] for run in runs])
            series[f"{memory}_working_won"] = sum(
                run["working"][memory] < run["base"][memory] for run in runs
            )
    base = series["base"]
    series["median_gain"] = series["working"]["median"] - base["median"]
    series["base_iqr"] = base["q3"] - base["q1"]
    digests = {run[side]["digest"] for run in runs for side in ("base", "working")}
    series["digests_equal"] = len(digests) == 1
    series["runs"] = runs
    return series


def run_workload(sides: dict[str, Path], args, scratch: Path) -> dict:
    """Both series, the untimed runs and, where digests differ, the chain
    comparison of one workload (``args.workload``); prints a summary."""
    series = [run_series(sides, args, "1", args.pairs)]
    if args.default_blas_pairs:
        series.append(run_series(sides, args, "default", args.default_blas_pairs))
    untimed = {side: spawn_side(src, args, "1", "untimed") for side, src in sides.items()}
    what = f"steps/s of run_chain over the {args.workload} kernels"
    if args.workload == CLI_WORKLOAD:
        what = (
            "steps/s of invmh.cli.main over invmh run invocations of the cli_many_chains"
            f" workload, ms per detailed_balance_test call at {DB_TEST_PAIRS} pairs"
            " with 1 and 2 strip workers, the peak RSS in MB after the invocations and"
            " the tracemalloc peak in MB of one test call with 2 strip workers"
        )
    report = {
        "what": what,
        "rounds": args.rounds,
        "steps_per_round": args.steps,
        "seed": args.seed,
        "series": series,
        "calls_per_step": {side: u["calls_per_step"] for side, u in untimed.items()},
        "check_seeds": list(CHECK_SEEDS),
        "check_digests_equal": untimed["base"]["digests"] == untimed["working"]["digests"],
        "check_digests": {side: u["digests"] for side, u in untimed.items()},
    }
    if args.workload != CLI_WORKLOAD and not all(s["digests_equal"] for s in series):
        report["chain_differences"] = compare_sides(sides, args, scratch)
    print(f"{args.workload}:")
    for s in series:
        base, working = s["base"], s["working"]
        print(
            f"  blas={s['blas_threads']}:"
            f" base {base['median']:.1f} [{base['q1']:.1f}, {base['q3']:.1f}]"
            f"  working {working['median']:.1f} [{working['q1']:.1f}, {working['q3']:.1f}]"
            f"  won {s['working_won']}/{s['pairs']}  digests equal: {s['digests_equal']}"
        )
        for name, us in base["kernel_us_per_step"].items():
            after = working["kernel_us_per_step"][name]["median"]
            print(f"    {name}: {us['median']:.1f} -> {after:.1f} us/step")
        for w, ms in base.get("db_test_ms", {}).items():
            after = working["db_test_ms"][w]["median"]
            won = s["db_test_working_won"][w]
            print(
                f"    detailed_balance_test, {w} worker(s): {ms['median']:.1f} -> {after:.1f} ms"
                f" per call, won {won}/{s['pairs']}"
            )
        for memory, what in (
            ("peak_rss_mb", "peak RSS after the invocations"),
            ("db_test_peak_mb", "tracemalloc peak of one test call, 2 workers"),
        ):
            if memory in base:
                before, after = base[memory], working[memory]
                print(
                    f"    {what}: {before['median']:.1f} [{before['q1']:.1f}, {before['q3']:.1f}]"
                    f" -> {after['median']:.1f} [{after['q1']:.1f}, {after['q3']:.1f}] MB,"
                    f" won {s[memory + '_working_won']}/{s['pairs']}"
                )
    calls = report["calls_per_step"]
    for name, before in calls["base"].items():
        print(f"  {name}: {before:.1f} -> {calls['working'][name]:.1f} calls/step")
    print(f"  digests equal over seeds {list(CHECK_SEEDS)}: {report['check_digests_equal']}")
    for name, diff in report.get("chain_differences", {}).items():
        print(
            f"  {name}: accept flags agree on {diff['accept_agreement']:.4f}"
            f" of {diff['steps']} steps,"
            f" positions within {diff['max_rel_position_diff']:.2e},"
            f" alphas within {diff['max_rel_alpha_diff']:.2e} (relative)"
        )
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=sorted([*BUILDERS, CLI_WORKLOAD]), nargs="+", default=["fd_d2"]
    )
    parser.add_argument("--base", default="HEAD", help="git ref of the base side (default HEAD)")
    parser.add_argument("--working", help="git ref of the working side (default: the working tree)")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--default-blas-pairs", type=int, default=3)
    parser.add_argument("--rounds", type=int, default=6)
    parser.add_argument("--steps", type=int, help="steps per round (default: the workload's)")
    parser.add_argument("--seed", type=int, default=1)
    # With --side, --out is the directory where that side saves its chains.
    parser.add_argument("--out", help="output JSON (default BENCH_ab.json)")
    parser.add_argument("--side", help=argparse.SUPPRESS)  # internal: run one side
    parser.add_argument("--mode", choices=("time", "untimed"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    steps = args.steps
    if args.side:
        (args.workload,) = args.workload
        if args.workload == CLI_WORKLOAD:
            print(json.dumps(cli_side(args.side, args, args.mode)))
        elif args.mode == "untimed":
            print(json.dumps(untimed_side(args.side, args)))
        else:
            save = None if args.out is None else Path(args.out)
            print(json.dumps(run_side(args.side, args, save)))
        return 0

    def commit(ref):
        return subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", ref], capture_output=True, text=True, check=True
        ).stdout.strip()

    report = {
        "base": args.base,
        "base_commit": commit(args.base),
        "working": args.working or "working tree",
        "working_commit": None if args.working is None else commit(args.working),
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as scratch:
        sides = {"base": extract_src(args.base, Path(scratch) / "base")}
        sides["working"] = (
            ROOT / "src" if args.working is None
            else extract_src(args.working, Path(scratch) / "working")
        )
        for workload in args.workload:
            args.workload = workload
            args.steps = steps or (2000 if workload == "fd_d2" else 200)
            chains = Path(scratch) / f"chains_{workload}"
            report["workloads"][workload] = run_workload(sides, args, chains)
    Path(args.out or "BENCH_ab.json").write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
