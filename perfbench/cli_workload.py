"""The ``cli_many_chains`` workload: ``invmh run`` on
``EXAMPLE_CONFIGS["mala_gaussian"]`` with 8 serial chains into a fresh
directory per round.  This is a user's experiment path: sampling, per-chain
diagnostics (the detailed-balance test dominates) and CSV writing.  A round
is one invocation through ``invmh.cli.main`` with a seed derived from the
run seed and the round index."""

from __future__ import annotations

import json
import shutil
import time
from pathlib import Path

import numpy as np

import invmh.cli
from workloads import MIN_ROUNDS, Round, fingerprint

CLI_CONFIG = "mala_gaussian"
CLI_CHAINS = 8


class CliManyChains:
    """``invmh run`` with 8 serial chains per round.  Serial on purpose:
    ``--workers`` would measure process start-up and the scheduler."""

    def __init__(self, seed: int, tracer, workdir: Path):
        self.seed = seed
        self.tracer = tracer
        self.workdir = workdir
        self.config = invmh.cli.EXAMPLE_CONFIGS[CLI_CONFIG]
        self.config_path = workdir / f"{CLI_CONFIG}.json"
        self.config_path.write_text(json.dumps(self.config))
        self.n_steps = self.config["run"]["n_steps"]
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: list[str] = []
        self.csv_bytes = 0
        self.accepted = 0.0
        self.ess = 0.0
        self.invocations = 0

    @classmethod
    def setup(cls, workdir: Path) -> None:
        config = invmh.cli.load_config(workdir / f"{CLI_CONFIG}.json")
        kind, target, dim = invmh.cli.build_target(config["target"])
        invmh.cli.build_kernel(config["sampler"], kind, target, dim)

    def run_round(self, index: int) -> Round:
        out = self.workdir / f"round_{index:03d}"
        seed = int(np.random.SeedSequence(self.seed, spawn_key=(index,)).generate_state(1)[0])
        argv = [
            "run", str(self.config_path), "--output-dir", str(out),
            "--seed", str(seed), "--chains", str(CLI_CHAINS),
        ]
        if self.tracer is not None:
            self.tracer.sampler = self.config["sampler"]["name"]
        start = time.perf_counter()
        code = invmh.cli.main(argv)
        elapsed = time.perf_counter() - start
        self.invocations += 1
        self.attempted += CLI_CHAINS
        failed, parts = self.check_round(out, code)
        self.failures.extend(f"round {index}: {reason}" for reason in failed)
        self.digests.append(fingerprint(parts))
        shutil.rmtree(out, ignore_errors=True)
        return Round(CLI_CHAINS * self.n_steps, elapsed)

    def check_round(self, out: Path, code: int) -> tuple[list[str], list[bytes]]:
        """Exit code, one CSV per chain with the expected rows and finite
        values, and a summary of every chain.  Returns the failed chains
        and the artifact bytes (summary without the ``directory`` field)
        to fingerprint; adds the chains' ESS and acceptances up."""
        if code != 0:
            return [f"chain {c}: exit code {code}" for c in range(CLI_CHAINS)], []
        try:
            summary = json.loads((out / "summary.json").read_text())
            chains = summary["chains"]
        except (OSError, ValueError, KeyError) as exc:
            return [f"chain {c}: unreadable summary ({exc})" for c in range(CLI_CHAINS)], []
        thinning = self.config["output"]["thinning"]
        expected_rows = 2 + self.n_steps // thinning
        failed, parts = [], []
        by_index = {entry.get("chain"): entry for entry in chains}
        for c in range(CLI_CHAINS):
            path = out / f"chain_{c:03d}.csv"
            data = path.read_bytes() if path.is_file() else b""
            self.csv_bytes += len(data)
            parts.append(data)
            entry = by_index.get(c)
            lines = data.count(b"\n")
            lowered = data.lower()
            if entry is None:
                failed.append(f"chain {c}: missing from summary")
            elif lines != expected_rows:
                failed.append(f"chain {c}: {lines} CSV lines, expected {expected_rows}")
            elif b"nan" in lowered or b"inf" in lowered:
                failed.append(f"chain {c}: non-finite values in the CSV")
            else:
                self.ess += min(entry["ess"]["coord_0"], entry["ess"]["sq_norm"])
                self.accepted += entry["acceptance_rate"] * entry["n_steps"]
        summary["config"]["output"].pop("directory", None)
        parts.append(json.dumps(summary, sort_keys=True).encode())
        return failed, parts

    def check(self) -> None:
        pass

    def total_ess(self) -> float:
        return self.ess

    def sampler_time(self) -> dict[str, tuple[int, float]]:
        """Steps and ``run_chain`` seconds of the config's sampler (traced
        runs only)."""
        steps = self.invocations * CLI_CHAINS * self.n_steps
        seconds = self.tracer.total_s.get("cli.run_chain", 0.0)
        return {self.config["sampler"]["name"]: (steps, seconds)}

    @property
    def ops(self) -> tuple[int, int]:
        return self.attempted, len(self.failures)

    def report(self) -> dict:
        return {
            "round_digests": self.digests[:MIN_ROUNDS],
            "digest": fingerprint(self.digests[:MIN_ROUNDS]),
            "csv_mb_per_round": self.csv_bytes / 1e6 / max(self.invocations, 1),
            "failures": self.failures,
        }
