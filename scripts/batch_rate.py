"""Chain steps per second of one batch of C ``mala`` chains, against C.

    python3 scripts/batch_rate.py --out BENCH_batch.json
    python3 scripts/batch_rate.py --sizes 1 2 8 32 --steps 5000 --repeats 7

Run from the root of a source checkout; the package is imported from
``src/``.  The kernel is the one ``invmh run`` builds for
``EXAMPLE_CONFIGS["mala_gaussian"]`` (the ``cli_many_chains`` workload's
sampler).  Each repeat times, in turn, one ``run_chain`` call of
``--steps`` steps on a single chain and one on a batch of each size in
``--sizes``, every chain from the origin with its own generator.  The
entry ``batch_sizes`` of the ``--out`` JSON (created, or updated in place
so that it can sit next to ``scripts/ab.py``'s record) holds, per size, the
median and quartiles of chain steps per second (C times the steps over the
call's seconds), with the single chain's as ``single``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[1, 2, 8, 32])
    parser.add_argument("--steps", type=int, default=5000)
    parser.add_argument("--repeats", type=int, default=7)
    parser.add_argument("--out", help="JSON file to create or update (default: print only)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    import invmh.cli
    from invmh import run_chain

    config = invmh.cli.EXAMPLE_CONFIGS["mala_gaussian"]
    kind, target, dim = invmh.cli.build_target(config["target"])
    kernel = invmh.cli.build_kernel(config["sampler"], kind, target, dim)

    def rate(size: int | None) -> float:
        rngs = [np.random.default_rng([size or 0, c]) for c in range(size or 1)]
        q0, rng = (np.zeros(dim), rngs[0]) if size is None else (np.zeros((size, dim)), rngs)
        start = time.perf_counter()
        run_chain(kernel, q0, args.steps, rng)
        return len(rngs) * args.steps / (time.perf_counter() - start)

    labels = ["single", *map(str, args.sizes)]
    runs = {label: [] for label in labels}
    for _ in range(args.repeats):
        for label, size in zip(labels, [None, *args.sizes]):
            runs[label].append(rate(size))
    figures = {}
    for label, values in runs.items():
        q1, median, q3 = np.percentile(values, [25, 50, 75])
        figures[label] = {"median": float(median), "q1": float(q1), "q3": float(q3)}
        print(f"{label:>6}: {median:10.0f} chain steps/s [{q1:.0f}, {q3:.0f}]")
    if args.out:
        path = Path(args.out)
        report = json.loads(path.read_text()) if path.exists() else {}
        report["batch_sizes"] = {
            "what": "chain steps/s of one run_chain call on a batch of C mala_gaussian chains"
            " (single: one chain, not a batch)",
            "steps": args.steps,
            "repeats": args.repeats,
            "chain_steps_per_s": figures,
        }
        path.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
