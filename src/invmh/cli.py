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
from contextlib import nullcontext
from dataclasses import replace
from functools import partial
from pathlib import Path
from typing import Callable, NamedTuple

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
from .hilbert import AuxLaw, gen_langevin, inf_hmc, inf_mala, pcn
from . import targets as target_lib

__all__ = ["ConfigError", "load_config", "run", "list_builtins", "main"]

OUTPUT_DIR_ENV = "INVMH_OUTPUT_DIR"


class ConfigError(Exception):
    """Invalid configuration; the message is addressed by config path."""


def _fail(path: str, message: str) -> None:
    raise ConfigError(f"{path}: {message}")


def _build(path: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, with the library's rejection of a value
    reported as a config error at ``path``."""
    try:
        return build(*args, **kwargs)
    except (ConfigurationError, ValueError, TypeError) as exc:
        _fail(path, str(exc))


def _is_finite_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


# What each kind of field is called in messages.  A float field takes any
# finite number; the others take an instance of their kind (no bools).
_FIELD_KINDS = {
    float: "a finite number",
    int: "an integer",
    str: "a string",
    list: "a list",
    dict: "an object",
}


def _only(section: dict, path: str, fields, owner: str = "") -> None:
    """Rejects the first key of ``section`` that is not in ``fields``: a
    misspelled or misplaced field would otherwise be ignored."""
    for key in section:
        if key not in fields:
            _fail(f"{path}.{key}", f"unknown field for {owner}" if owner else "unknown field")


def _get(section: dict, path: str, key: str, kind, required=True, default=None):
    if key not in section:
        if required:
            _fail(f"{path}.{key}", "missing required field")
        return default
    value = section[key]
    if kind is float:
        valid = _is_finite_number(value)
    else:
        valid = isinstance(value, kind) and not isinstance(value, bool)
    if not valid:
        _fail(f"{path}.{key}", f"expected {_FIELD_KINDS[kind]}, got {value!r}")
    return float(value) if kind is float else value


def _not_null(section: dict, path: str, key: str, default=None):
    """``section[key]``, or ``default`` when absent, for the fields whose
    values the library checks (numbers, lists or matrices).  JSON null,
    which the library would read as NaN or a default, is rejected here, as
    :func:`_get` rejects it."""
    if key in section and section[key] is None:
        _fail(f"{path}.{key}", "got None: give a value or omit the field")
    return section.get(key, default)


# ---------------------------------------------------------------------------
# Sampler parameters and builders


def _delta(spec: dict) -> float:
    return _get(spec, "sampler", "delta", float)


def _steps(spec: dict) -> int:
    return _get(spec, "sampler", "n", int, required=False, default=1)


def _hmc_config(spec: dict) -> Callable[[], HmcConfig]:
    """Reads ``delta`` and ``n``, in that order.  Returns the HmcConfig's
    constructor, so that a builder chooses whether the config's own checks
    come before or after its other fields."""
    return partial(HmcConfig, delta=_delta(spec), n=_steps(spec))


def _rwmc(spec: dict, target, dim: int) -> InvolutiveKernel:
    # rwmc's default scale is 1.0.
    return _build("sampler.scale", rwmc, target, dim=dim, scale=_not_null(spec, "sampler", "scale"))


def _mala(spec: dict, target, dim: int) -> InvolutiveKernel:
    return mala(target, _delta(spec), dim)


def _hmc(spec: dict, target, dim: int) -> InvolutiveKernel:
    make_cfg = _hmc_config(spec)
    mass = np.asarray(_not_null(spec, "sampler", "mass"), dtype=float) if "mass" in spec else None
    return hmc(target, make_cfg(), dim, mass=mass)


def _relativistic_hmc(spec: dict, target, dim: int) -> InvolutiveKernel:
    cfg = _hmc_config(spec)()
    m = _get(spec, "sampler", "m", float, required=False, default=1.0)
    c = _get(spec, "sampler", "c", float, required=False, default=1.0)
    return relativistic_hmc(target, m, c, cfg, dim)


def _rmhmc(spec: dict, target, dim: int) -> InvolutiveKernel:
    return rmhmc(target, diagonal_quadratic_metric(), _delta(spec), _steps(spec), dim)


def _surrogate_hmc(spec: dict, target, dim: int) -> InvolutiveKernel:
    make_cfg = _hmc_config(spec)
    scale = _get(spec, "sampler", "surrogate_scale", float, required=False, default=1.0)
    if target.grad is None:
        _fail("sampler.name", "surrogate_hmc requires a target with a gradient")
    grad = target.grad
    kernel = surrogate_hmc(
        target,
        gaussian_momentum(dim),
        make_cfg(),
        f1=lambda v: v,
        f2=lambda q: -scale * np.asarray(grad(q), dtype=float),
        dim=dim,
    )
    return replace(kernel, batch=True)  # leapfrog, and its pieces act row by row


def _pcn(spec: dict, target, dim: int) -> InvolutiveKernel:
    rho = _get(spec, "sampler", "rho", float, required=False)
    return pcn(target, rho=rho, delta=_get(spec, "sampler", "delta", float, required=False))


def _inf_mala(spec: dict, target, dim: int) -> InvolutiveKernel:
    return inf_mala(target, _delta(spec))


def _inf_hmc(spec: dict, target, dim: int) -> InvolutiveKernel:
    delta1 = _get(spec, "sampler", "delta1", float)
    delta2 = _get(spec, "sampler", "delta2", float, required=False)
    return inf_hmc(target, AuxLaw(), delta1, delta2, _steps(spec))


def _gen_langevin(spec: dict, target, dim: int) -> InvolutiveKernel:
    delta = _delta(spec)
    mode = _get(spec, "sampler", "surrogate", str, required=False, default="grad")
    if mode not in ("grad", "zero"):
        _fail("sampler.surrogate", "expected 'grad' or 'zero'")
    force = target.force() if mode == "grad" else np.zeros_like
    return gen_langevin(replace(target, surrogate_f=force), delta)


# ---------------------------------------------------------------------------
# Builtin catalogs

# Each target's fields besides ``name`` (any other is rejected) and its
# `invmh list` text.
TARGETS = {
    "standard_gaussian": (("dim",), "isotropic Gaussian; params: dim (int)"),
    "anisotropic_gaussian": (("variances",),
                             "diagonal Gaussian; params: variances (list of positive numbers)"),
    "rosenbrock": (("dim", "a", "b"), "banana-shaped potential; "
                   "params: dim (int, default 2), a (default 1.0), b (default 10.0)"),
    "hilbert_quartic": (("eigenvalues",), "bounded quartic potential over a Gaussian reference; "
                        "params: eigenvalues ({'values': [...]} or "
                        "{'power_law': {'d', 'c', 'p'}})"),
    "hilbert_linear": (("eigenvalues", "coefficients"), "linear potential <a, q> over a Gaussian "
                       "reference; params: eigenvalues (as above), coefficients (number or list)"),
}

# The target kinds, as build_target returns them, and their names in messages.
TARGET_KINDS = {"fd": "a finite-dimensional", "hilbert": "a Hilbert-space"}


class Sampler(NamedTuple):
    """A builtin sampler: the kind of target it takes, ``build(spec, target,
    dim)``, which reads the sampler section and calls the library's
    constructor, the fields it reads besides ``name`` (any other is
    rejected), and its ``invmh list`` text."""

    kind: str
    build: Callable[[dict, object, int], InvolutiveKernel]
    fields: tuple[str, ...]
    doc: str


# Each sampler's target kind, builder, fields and `invmh list` text; adding a
# sampler to the CLI is one entry here.
SAMPLERS = {
    "rwmc": Sampler("fd", _rwmc, ("scale",),
                    "random walk Metropolis; params: scale (number or list, default 1.0)"),
    "mala": Sampler("fd", _mala, ("delta",), "Metropolis-adjusted Langevin; params: delta"),
    "hmc": Sampler("fd", _hmc, ("delta", "n", "mass"), "Hamiltonian Monte Carlo; params: delta, "
                   "n (default 1), mass (diagonal list or dense SPD matrix, optional)"),
    "relativistic_hmc": Sampler("fd", _relativistic_hmc, ("delta", "n", "m", "c"),
                                "HMC with relativistic kinetic energy; "
                                "params: delta, n (default 1), m (default 1.0), c (default 1.0)"),
    "rmhmc": Sampler("fd", _rmhmc, ("delta", "n"),
                     "Riemannian-manifold HMC with the builtin metric diag(1 + q^2); "
                     "params: delta, n (default 1)"),
    "surrogate_hmc": Sampler("fd", _surrogate_hmc, ("delta", "n", "surrogate_scale"),
                             "HMC driven by a scaled surrogate force; "
                             "params: delta, n (default 1), surrogate_scale (default 1.0)"),
    "pcn": Sampler("hilbert", _pcn, ("rho", "delta"),
                   "preconditioned Crank-Nicolson; params: rho or delta (exactly one)"),
    "inf_mala": Sampler("hilbert", _inf_mala, ("delta",),
                        "preconditioned MALA over the Gaussian reference; params: delta"),
    "inf_hmc": Sampler("hilbert", _inf_hmc, ("delta1", "delta2", "n"),
                       "preconditioned HMC over the Gaussian reference; "
                       "params: delta1, delta2 (default 2*delta1), n (default 1)"),
    "gen_langevin": Sampler("hilbert", _gen_langevin, ("delta", "surrogate"),
                            "generalized Langevin kernel; "
                            "params: delta, surrogate ('grad' or 'zero', default 'grad')"),
}

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
    for name, (_, doc) in TARGETS.items():
        lines.append(f"  {name}: {doc}")
    lines.append("Samplers:")
    for name, sampler in SAMPLERS.items():
        lines.append(f"  {name}: {sampler.doc}")
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
    path += ".eigenvalues"
    _only(spec, path, ("values", "power_law"))
    if len(spec) != 1:
        _fail(path, "expected exactly one of 'values' or 'power_law'")
    if "values" in spec:
        values = spec["values"]
        if not isinstance(values, list) or not values:
            _fail(f"{path}.values", "expected a nonempty list")
        return _build(f"{path}.values", SpectralGaussian, values)
    path += ".power_law"
    pl = spec["power_law"]
    if not isinstance(pl, dict):
        _fail(path, "expected an object")
    _only(pl, path, ("d", "c", "p"))
    d = _get(pl, path, "d", int)
    c = _get(pl, path, "c", float, required=False, default=1.0)
    p = _get(pl, path, "p", float, required=False, default=2.0)
    return _build(path, lambda: SpectralGaussian(power_law_eigenvalues(d, c=c, p=p)))


def build_target(spec: dict):
    """Returns (kind, target object, dimension); kind is 'fd' or 'hilbert'."""
    name = _get(spec, "target", "name", str)
    if name not in TARGETS:
        _fail("target.name", f"unknown target {name!r}; see `invmh list`")
    _only(spec, "target", ("name", *TARGETS[name][0]), name)
    if name == "standard_gaussian":
        dim = _get(spec, "target", "dim", int)
        if dim < 1:
            _fail("target.dim", "must be positive")
        return "fd", target_lib.standard_gaussian(dim), dim
    if name == "anisotropic_gaussian":
        variances = _get(spec, "target", "variances", list)
        target = _build("target.variances", target_lib.anisotropic_gaussian, variances)
        return "fd", target, len(variances)
    if name == "rosenbrock":
        dim = _get(spec, "target", "dim", int, required=False, default=2)
        a = _get(spec, "target", "a", float, required=False, default=1.0)
        b = _get(spec, "target", "b", float, required=False, default=10.0)
        return "fd", _build("target", target_lib.rosenbrock, dim=dim, a=a, b=b), dim
    if name == "hilbert_quartic":
        target = target_lib.hilbert_quartic(_reference(spec, "target"))
        return "hilbert", target, target.dim
    reference = _reference(spec, "target")  # hilbert_linear
    coefficients = _not_null(spec, "target", "coefficients", 1.0)
    target = _build("target.coefficients", target_lib.hilbert_linear, reference, coefficients)
    return "hilbert", target, target.dim


def build_kernel(spec: dict, kind: str, target, dim: int) -> InvolutiveKernel:
    name = _get(spec, "sampler", "name", str)
    if name not in SAMPLERS:
        _fail("sampler.name", f"unknown sampler {name!r}; see `invmh list`")
    sampler = SAMPLERS[name]
    if sampler.kind != kind:
        _fail("sampler.name", f"{name} requires {TARGET_KINDS[sampler.kind]} target")
    _only(spec, "sampler", ("name", *sampler.fields), name)
    return _build("sampler", sampler.build, spec, target, dim)


def _validate_run_section(config: dict) -> dict:
    run_spec = _get(config, "config", "run", dict)
    _only(run_spec, "run", ("n_steps", "burn_in", "n_chains", "seed", "q0"))
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
    if seed < 0:
        _fail("run.seed", "must be nonnegative")
    normalized = {"n_steps": n_steps, "burn_in": burn_in, "n_chains": n_chains, "seed": seed}
    if "q0" in run_spec:
        normalized["q0"] = _get(run_spec, "run", "q0", list)
    return normalized


def _validate_output_section(config: dict) -> dict:
    out = _get(config, "config", "output", dict, required=False, default={})
    _only(out, "output", ("directory", "thinning"))
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


# The most chains of a batch kernel that ``invmh run`` steps as one batch
# (the largest batch that scripts/batch_rate.py measures), and the most
# bytes of positions that a batch of two or more may hold: a batch holds
# all its chains' positions until they are written.
BATCH_CHAINS = 32
BATCH_BYTES = 1 << 24


def _chains_task(config_text: str, chains: range, out_dir: str) -> list[dict]:
    """Run the chains ``chains`` of the resolved config and write their
    CSVs and summaries (worker-safe: rebuilds everything from it).  A batch
    kernel steps them as one batch; otherwise they run one at a time, each
    written before the next starts.  The bytes are the same either way."""
    config = json.loads(config_text)
    kind, target, dim = build_target(config["target"])
    kernel = build_kernel(config["sampler"], kind, target, dim)
    run_spec = config["run"]
    q0 = np.asarray(run_spec.get("q0", np.zeros(dim)), dtype=float)
    n_steps = run_spec["n_steps"]
    sampling, diagnostics = zip(*(_chain_rngs(run_spec["seed"], c) for c in chains))
    if kernel.batch:
        results = run_chain(kernel, np.tile(q0, (len(chains), 1)), n_steps, sampling)
    else:
        results = (run_chain(kernel, q0, n_steps, rng) for rng in sampling)
    summaries = []
    for c, result, diag_rng in zip(chains, results, diagnostics):
        _write_chain_csv(
            Path(out_dir) / f"chain_{c:03d}.csv",
            result.positions,
            result.alphas,
            result.accepted,
            config["output"]["thinning"],
        )
        summary = summarize_chain(
            result.positions, result.accepted, diag_rng, burn_in=run_spec["burn_in"]
        )
        summaries.append({"chain": c, **summary.to_dict()})
    return summaries


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
        _only(config, "config", ("target", "sampler", "run", "output"))
        kind, target, dim = build_target(_get(config, "config", "target", dict))
        run_spec = _validate_run_section(config)
        out_spec = _validate_output_section(config)
        if seed is not None:
            if seed < 0:
                raise ConfigError("--seed: must be nonnegative")
            run_spec["seed"] = int(seed)
        if n_chains is not None:
            if n_chains < 1:
                raise ConfigError("--chains: must be positive")
            run_spec["n_chains"] = int(n_chains)
        if workers < 1:
            raise ConfigError("--workers: must be positive")
        resolved = {
            "target": config["target"],
            "sampler": _get(config, "config", "sampler", dict),
            "run": run_spec,
            "output": out_spec,
        }
        q0 = resolved["run"].get("q0")
        if q0 is not None and (len(q0) != dim or not all(map(_is_finite_number, q0))):
            raise ConfigError(f"run.q0: expected a list of {dim} finite numbers, got {q0!r}")
        kernel = build_kernel(resolved["sampler"], kind, target, dim)
        # Every chain starts there: a zero density would stop each one.
        with np.errstate(all="ignore"):
            start_value = kernel.target.eval(np.zeros(dim) if q0 is None else np.array(q0, float))
        if not np.isfinite(start_value):
            start = "the default origin (run.q0 absent)" if q0 is None else repr(q0)
            raise ConfigError(f"run.q0: the target has zero density at {start}")

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

    task = partial(_chains_task, config_text, out_dir=str(out_path))
    # One contiguous block of chains per worker, the larger blocks first,
    # cut into batches of a batch kernel or single chains of another.
    n, n_steps = resolved["run"]["n_chains"], resolved["run"]["n_steps"]
    k = min(workers, n)
    blocks = [range(-(-n * i // k), -(-n * (i + 1) // k)) for i in range(k)]
    chain_bytes = 8 * (n_steps + 1) * dim
    size = max(1, min(BATCH_CHAINS, BATCH_BYTES // chain_bytes)) if kernel.batch else 1
    parts = [block[i : i + size] for block in blocks for i in range(0, len(block), size)]
    try:
        # Parts in index order, serially or in worker processes.
        if workers > 1:  # imported here: it costs 16-32 ms at start-up
            from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
            part_map = pool.map if pool else map
            summaries = [entry for part in part_map(task, parts) for entry in part]
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
