"""Config-driven experiment runner.

A single JSON config describes the target, the sampler, the run layout and
the output location.  Chains are seeded per index from the root seed, so a
config determines its artifacts byte for byte.  Exit codes: 0 success,
1 config error, 2 runtime sampler error (partial artifacts plus an error
report are left on disk).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .core import ConfigurationError, InvolutiveKernel, run_chain
from .diagnostics import summarize_chain
from .finite_dim import (
    HmcConfig,
    diagonal_quadratic_metric,
    gaussian_momentum,
    hmc,
    mala,
    relativistic_hmc,
    rmhmc,
    rwmc,
    surrogate_hmc,
)
from .gaussian import SpectralGaussian, power_law_eigenvalues
from .hilbert import AuxLaw, HilbertTarget, gen_langevin, inf_hmc, inf_mala, pcn
from . import targets as target_lib

__all__ = ["ConfigError", "load_config", "run", "list_builtins", "main"]

OUTPUT_DIR_ENV = "INVMH_OUTPUT_DIR"


class ConfigError(Exception):
    """Invalid configuration; the message is addressed by config path."""


def _fail(path: str, message: str) -> None:
    raise ConfigError(f"{path}: {message}")


def _is_finite_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _get(section: dict, path: str, key: str, kind, required=True, default=None):
    if key not in section:
        if required:
            _fail(f"{path}.{key}", "missing required field")
        return default
    value = section[key]
    if kind is float:
        if not _is_finite_number(value):
            _fail(f"{path}.{key}", f"expected a finite number, got {value!r}")
        return float(value)
    if kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            _fail(f"{path}.{key}", f"expected an integer, got {value!r}")
        return int(value)
    if kind is str:
        if not isinstance(value, str):
            _fail(f"{path}.{key}", f"expected a string, got {value!r}")
        return value
    if kind is list:
        if not isinstance(value, list):
            _fail(f"{path}.{key}", f"expected a list, got {value!r}")
        return value
    if kind is dict:
        if not isinstance(value, dict):
            _fail(f"{path}.{key}", f"expected an object, got {value!r}")
        return value
    raise AssertionError(f"unknown kind {kind}")


# ---------------------------------------------------------------------------
# Builtin catalogs

TARGETS = {
    "standard_gaussian": "isotropic Gaussian; params: dim (int)",
    "anisotropic_gaussian": "diagonal Gaussian; params: variances (list of positive numbers)",
    "rosenbrock": "banana-shaped potential; params: dim (int, default 2), a (default 1.0), b (default 10.0)",
    "hilbert_quartic": "bounded quartic potential over a Gaussian reference; "
    "params: eigenvalues ({'values': [...]} or {'power_law': {'d', 'c', 'p'}})",
    "hilbert_linear": "linear potential <a, q> over a Gaussian reference; "
    "params: eigenvalues (as above), coefficients (number or list)",
}

SAMPLERS = {
    "rwmc": "random walk Metropolis; params: scale (number or list, default 1.0)",
    "mala": "Metropolis-adjusted Langevin; params: delta",
    "hmc": "Hamiltonian Monte Carlo; params: delta, n (default 1), mass (diagonal list, optional)",
    "relativistic_hmc": "HMC with relativistic kinetic energy; params: delta, n (default 1), m (default 1.0), c (default 1.0)",
    "rmhmc": "Riemannian-manifold HMC with the builtin metric diag(1 + q^2); params: delta, n (default 1)",
    "surrogate_hmc": "HMC driven by a scaled surrogate force; params: delta, n (default 1), surrogate_scale (default 1.0)",
    "pcn": "preconditioned Crank-Nicolson; params: rho or delta (exactly one)",
    "inf_mala": "preconditioned MALA over the Gaussian reference; params: delta",
    "inf_hmc": "preconditioned HMC over the Gaussian reference; params: delta1, delta2 (default 2*delta1), n (default 1)",
    "gen_langevin": "generalized Langevin kernel; params: delta, surrogate ('grad' or 'zero', default 'grad')",
}

FD_SAMPLERS = {"rwmc", "mala", "hmc", "relativistic_hmc", "rmhmc", "surrogate_hmc"}
HILBERT_SAMPLERS = {"pcn", "inf_mala", "inf_hmc", "gen_langevin"}

EXAMPLE_CONFIGS = {
    "mala_gaussian": {
        "target": {"name": "anisotropic_gaussian", "variances": [1.0, 0.25]},
        "sampler": {"name": "mala", "delta": 0.8},
        "run": {"n_steps": 5000, "burn_in": 500, "n_chains": 2, "seed": 7},
        "output": {"directory": "out/mala_gaussian", "thinning": 1},
    },
    "pcn_quartic": {
        "target": {
            "name": "hilbert_quartic",
            "eigenvalues": {"power_law": {"d": 10, "c": 1.0, "p": 2.0}},
        },
        "sampler": {"name": "pcn", "delta": 1.0},
        "run": {"n_steps": 20000, "burn_in": 1000, "n_chains": 1, "seed": 3},
        "output": {"directory": "out/pcn_quartic", "thinning": 10},
    },
    "rmhmc_rosenbrock": {
        "target": {"name": "rosenbrock", "dim": 2, "a": 1.0, "b": 5.0},
        "sampler": {"name": "rmhmc", "delta": 0.2, "n": 3},
        "run": {"n_steps": 2000, "burn_in": 200, "n_chains": 1, "seed": 11},
        "output": {"directory": "out/rmhmc_rosenbrock", "thinning": 1},
    },
}


def list_builtins() -> str:
    lines = ["Targets:"]
    for name, doc in TARGETS.items():
        lines.append(f"  {name}: {doc}")
    lines.append("Samplers:")
    for name, doc in SAMPLERS.items():
        lines.append(f"  {name}: {doc}")
    lines.append("Example config names (see README): " + ", ".join(EXAMPLE_CONFIGS))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Config handling


def load_config(path: str | Path) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config: top level must be an object")
    return config


def _reference(section: dict, path: str) -> SpectralGaussian:
    """The Gaussian reference of a Hilbert target; errors name the field."""
    spec = _get(section, path, "eigenvalues", dict)
    field = f"{path}.eigenvalues"
    try:
        if "values" in spec:
            field += ".values"
            values = spec["values"]
            if not isinstance(values, list) or not values:
                _fail(field, "expected a nonempty list")
            return SpectralGaussian(np.asarray(values, dtype=float))
        if "power_law" in spec:
            field += ".power_law"
            pl = spec["power_law"]
            if not isinstance(pl, dict):
                _fail(field, "expected an object")
            d = _get(pl, field, "d", int)
            c = _get(pl, field, "c", float, required=False, default=1.0)
            p = _get(pl, field, "p", float, required=False, default=2.0)
            return SpectralGaussian(power_law_eigenvalues(d, c=c, p=p))
    except (ConfigurationError, ValueError, TypeError) as exc:
        _fail(field, str(exc))
    _fail(field, "expected 'values' or 'power_law'")


def build_target(spec: dict):
    """Returns (kind, target object, dimension); kind is 'fd' or 'hilbert'."""
    name = _get(spec, "target", "name", str)
    if name == "standard_gaussian":
        dim = _get(spec, "target", "dim", int)
        if dim < 1:
            _fail("target.dim", "must be positive")
        return "fd", target_lib.standard_gaussian(dim), dim
    if name == "anisotropic_gaussian":
        variances = _get(spec, "target", "variances", list)
        try:
            target = target_lib.anisotropic_gaussian(variances)
        except (ConfigurationError, ValueError, TypeError) as exc:
            _fail("target.variances", str(exc))
        return "fd", target, len(variances)
    if name == "rosenbrock":
        dim = _get(spec, "target", "dim", int, required=False, default=2)
        a = _get(spec, "target", "a", float, required=False, default=1.0)
        b = _get(spec, "target", "b", float, required=False, default=10.0)
        try:
            target = target_lib.rosenbrock(dim=dim, a=a, b=b)
        except (ConfigurationError, ValueError, TypeError) as exc:
            _fail("target", str(exc))
        return "fd", target, dim
    if name == "hilbert_quartic":
        target = target_lib.hilbert_quartic(_reference(spec, "target"))
        return "hilbert", target, target.dim
    if name == "hilbert_linear":
        reference = _reference(spec, "target")
        try:
            target = target_lib.hilbert_linear(reference, spec.get("coefficients", 1.0))
        except (ConfigurationError, ValueError, TypeError) as exc:
            _fail("target.coefficients", str(exc))
        return "hilbert", target, target.dim
    _fail("target.name", f"unknown target {name!r}; see `invmh list`")


def build_kernel(spec: dict, kind: str, target, dim: int) -> InvolutiveKernel:
    name = _get(spec, "sampler", "name", str)
    if name not in SAMPLERS:
        _fail("sampler.name", f"unknown sampler {name!r}; see `invmh list`")
    if name in FD_SAMPLERS and kind != "fd":
        _fail("sampler.name", f"{name} requires a finite-dimensional target")
    if name in HILBERT_SAMPLERS and kind != "hilbert":
        _fail("sampler.name", f"{name} requires a Hilbert-space target")
    try:
        if name == "rwmc":
            scale = spec.get("scale", 1.0)
            return rwmc(target, dim=dim, scale=np.asarray(scale, dtype=float))
        if name == "mala":
            return mala(target, _get(spec, "sampler", "delta", float), dim)
        if name == "hmc":
            cfg = HmcConfig(
                delta=_get(spec, "sampler", "delta", float),
                n=_get(spec, "sampler", "n", int, required=False, default=1),
                mass=(
                    np.asarray(spec["mass"], dtype=float) if "mass" in spec else None
                ),
            )
            return hmc(target, cfg, dim)
        if name == "relativistic_hmc":
            cfg = HmcConfig(
                delta=_get(spec, "sampler", "delta", float),
                n=_get(spec, "sampler", "n", int, required=False, default=1),
            )
            m = _get(spec, "sampler", "m", float, required=False, default=1.0)
            c = _get(spec, "sampler", "c", float, required=False, default=1.0)
            return relativistic_hmc(target, m, c, cfg, dim)
        if name == "rmhmc":
            delta = _get(spec, "sampler", "delta", float)
            n = _get(spec, "sampler", "n", int, required=False, default=1)
            return rmhmc(target, diagonal_quadratic_metric(), delta, n, dim)
        if name == "surrogate_hmc":
            delta = _get(spec, "sampler", "delta", float)
            n = _get(spec, "sampler", "n", int, required=False, default=1)
            scale = _get(spec, "sampler", "surrogate_scale", float, required=False, default=1.0)
            if target.grad is None:
                _fail("sampler.name", "surrogate_hmc requires a target with a gradient")
            grad = target.grad
            return surrogate_hmc(
                target,
                gaussian_momentum(dim),
                HmcConfig(delta=delta, n=n),
                f1=lambda v: v,
                f2=lambda q: -scale * np.asarray(grad(q), dtype=float),
                dim=dim,
            )
        if name == "pcn":
            rho = _get(spec, "sampler", "rho", float, required=False, default=None)
            delta = _get(spec, "sampler", "delta", float, required=False, default=None)
            return pcn(target, rho=rho, delta=delta)
        if name == "inf_mala":
            return inf_mala(target, _get(spec, "sampler", "delta", float))
        if name == "inf_hmc":
            delta1 = _get(spec, "sampler", "delta1", float)
            delta2 = _get(spec, "sampler", "delta2", float, required=False, default=None)
            n = _get(spec, "sampler", "n", int, required=False, default=1)
            return inf_hmc(target, AuxLaw(), delta1, delta2, n)
        if name == "gen_langevin":
            delta = _get(spec, "sampler", "delta", float)
            mode = _get(spec, "sampler", "surrogate", str, required=False, default="grad")
            if mode == "zero":
                hilbert_target = HilbertTarget(
                    phi=target.phi,
                    reference=target.reference,
                    surrogate_f=lambda q: np.zeros_like(q),
                )
            elif mode == "grad":
                hilbert_target = HilbertTarget(
                    phi=target.phi,
                    reference=target.reference,
                    surrogate_f=target.force(),
                )
            else:
                _fail("sampler.surrogate", "expected 'grad' or 'zero'")
            return gen_langevin(hilbert_target, delta)
    except (ConfigurationError, ValueError, TypeError) as exc:
        _fail("sampler", str(exc))
    raise AssertionError("unreachable")


def _validate_run_section(config: dict) -> dict:
    run_spec = _get(config, "config", "run", dict)
    n_steps = _get(run_spec, "run", "n_steps", int)
    if n_steps < 0:
        _fail("run.n_steps", "must be nonnegative")
    burn_in = _get(run_spec, "run", "burn_in", int, required=False, default=0)
    if burn_in < 0 or burn_in > n_steps:
        _fail("run.burn_in", "must lie in [0, n_steps]")
    n_chains = _get(run_spec, "run", "n_chains", int, required=False, default=1)
    if n_chains < 1:
        _fail("run.n_chains", "must be positive")
    seed = _get(run_spec, "run", "seed", int)
    normalized = {"n_steps": n_steps, "burn_in": burn_in, "n_chains": n_chains, "seed": seed}
    if "q0" in run_spec:
        normalized["q0"] = _get(run_spec, "run", "q0", list)
    return normalized


def _validate_output_section(config: dict) -> dict:
    out = _get(config, "config", "output", dict, required=False, default={})
    directory = _get(out, "output", "directory", str, required=False, default=None)
    thinning = _get(out, "output", "thinning", int, required=False, default=1)
    if thinning < 1:
        _fail("output.thinning", "must be >= 1")
    return {"directory": directory, "thinning": thinning}


def _write_chain_csv(path: Path, positions: np.ndarray, alphas, accepted, thinning: int):
    d = positions.shape[1]
    header = "step," + ",".join(f"q_{i + 1}" for i in range(d)) + ",alpha,accepted"
    # Python floats, whose repr is the shortest round-tripping form.
    rows = positions[::thinning].tolist()
    alphas = alphas.tolist()
    flags = accepted.astype(int).tolist()
    lines = [header, "0," + ",".join(map(repr, rows[0])) + ",,"]
    for step, row in zip(range(thinning, positions.shape[0], thinning), rows[1:]):
        lines.append(f"{step},{','.join(map(repr, row))},{alphas[step - 1]!r},{flags[step - 1]}")
    path.write_text("\n".join(lines) + "\n")


def _chain_rngs(seed: int, chain_index: int):
    sampling = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chain_index, 0)))
    diagnostics = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(chain_index, 1)))
    return sampling, diagnostics


def _chain_task(config_text: str, chain_index: int, out_dir: str) -> dict:
    """Run one chain (worker-safe: rebuilds everything from the config)."""
    config = json.loads(config_text)
    kind, target, dim = build_target(config["target"])
    kernel = build_kernel(config["sampler"], kind, target, dim)
    run_spec = config["run"]
    out_spec = config.get("output", {})
    thinning = out_spec.get("thinning", 1)
    q0 = np.asarray(run_spec.get("q0", np.zeros(dim)), dtype=float)
    sampling_rng, diag_rng = _chain_rngs(run_spec["seed"], chain_index)
    result = run_chain(kernel, q0, run_spec["n_steps"], sampling_rng)
    _write_chain_csv(
        Path(out_dir) / f"chain_{chain_index:03d}.csv",
        result.positions,
        result.alphas,
        result.accepted,
        thinning,
    )
    summary = summarize_chain(
        result.positions,
        result.accepted,
        diag_rng,
        burn_in=run_spec.get("burn_in", 0),
    )
    return {"chain": chain_index, **summary.to_dict()}


def run(
    config: dict,
    output_dir: str | None = None,
    seed: int | None = None,
    n_chains: int | None = None,
    workers: int = 1,
) -> int:
    """Validate the config, run the chains, and persist artifacts.

    Returns the process exit code.  CSV chains and the JSON summary land in
    the resolved output directory; on a runtime sampler failure the partial
    artifacts stay on disk next to an ``error.json`` report.
    """
    try:
        if not isinstance(config, dict):
            raise ConfigError("config: top level must be an object")
        kind, target, dim = build_target(_get(config, "config", "target", dict))
        run_spec = _validate_run_section(config)
        out_spec = _validate_output_section(config)
        if seed is not None:
            run_spec["seed"] = int(seed)
        if n_chains is not None:
            if n_chains < 1:
                raise ConfigError("--chains: must be positive")
            run_spec["n_chains"] = int(n_chains)
        resolved = {
            "target": config["target"],
            "sampler": _get(config, "config", "sampler", dict),
            "run": run_spec,
            "output": out_spec,
        }
        q0 = resolved["run"].get("q0")
        if q0 is not None and (len(q0) != dim or not all(map(_is_finite_number, q0))):
            raise ConfigError(f"run.q0: expected a list of {dim} finite numbers, got {q0!r}")
        build_kernel(resolved["sampler"], kind, target, dim)

        directory = (
            output_dir
            or out_spec["directory"]
            or os.environ.get(OUTPUT_DIR_ENV)
            or "invmh-output"
        )
        resolved["output"]["directory"] = directory
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1

    out_path = Path(directory)
    out_path.mkdir(parents=True, exist_ok=True)
    config_text = json.dumps(resolved, sort_keys=True)

    chain_indices = list(range(resolved["run"]["n_chains"]))
    summaries = []
    try:
        if workers > 1:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(_chain_task, config_text, c, str(out_path))
                    for c in chain_indices
                ]
                summaries = [f.result() for f in futures]
        else:
            summaries = [_chain_task(config_text, c, str(out_path)) for c in chain_indices]
    except Exception as exc:  # noqa: BLE001 - converted to exit code + report
        report = {"error": str(exc), "type": type(exc).__name__, "config": resolved}
        (out_path / "error.json").write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2

    summary = {
        "version": __version__,
        "config": resolved,
        "chains": summaries,
    }
    (out_path / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="invmh", description="Involutive MCMC experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run the experiment described by a JSON config")
    run_parser.add_argument("config", help="path to the JSON config")
    run_parser.add_argument("--output-dir", default=None, help="overrides config and environment")
    run_parser.add_argument("--seed", type=int, default=None, help="overrides the config seed")
    run_parser.add_argument("--chains", type=int, default=None, help="overrides run.n_chains")
    run_parser.add_argument("--workers", type=int, default=1, help="parallel chain workers")
    sub.add_parser("list", help="print the builtin targets and samplers")

    args = parser.parse_args(argv)
    if args.command == "list":
        print(list_builtins())
        return 0
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    return run(
        config,
        output_dir=args.output_dir,
        seed=args.seed,
        n_chains=args.chains,
        workers=args.workers,
    )


if __name__ == "__main__":
    raise SystemExit(main())
