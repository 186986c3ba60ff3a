"""A batch of chains stepped as one (C, d) array through run_chain: every
row is its own chain's single run, bit for bit."""

import json
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import invmh.cli
import invmh.core
from invmh import (
    ConfigurationError,
    HmcConfig,
    Involution,
    TargetPotential,
    diagonal_quadratic_metric,
    gaussian_momentum,
    hmc,
    inf_mala,
    mala,
    pcn,
    relativistic_hmc,
    rmhmc,
    run_chain,
    rwmc,
    surrogate_hmc,
)
from invmh.cli import SAMPLERS, build_kernel, build_target
from invmh.finite_dim import _SPD, _exact_force, _kinetic_law, gaussian_jump
from invmh.targets import anisotropic_gaussian, hilbert_quartic, rosenbrock, standard_gaussian


def _rngs(count: int, seed: int = 0) -> list:
    return [np.random.default_rng([seed, c]) for c in range(count)]


def assert_rows_are_single_runs(kernel, q0, n_steps=60, seed=0) -> list:
    """Runs ``q0``'s rows as one batch and each row alone, and checks that
    positions, alphas, accepted flags and final generator states agree."""
    batch_rngs = _rngs(len(q0), seed)
    batch = run_chain(kernel, q0, n_steps, batch_rngs)
    assert len(batch) == len(q0)
    for c, (row, rng) in enumerate(zip(batch, batch_rngs)):
        single_rng = _rngs(len(q0), seed)[c]
        single = run_chain(kernel, q0[c], n_steps, single_rng)
        assert row.positions.flags.c_contiguous
        assert np.array_equal(row.positions, single.positions)
        assert np.array_equal(row.alphas, single.alphas)
        assert np.array_equal(row.accepted, single.accepted)
        assert rng.bit_generator.state == single_rng.bit_generator.state
    return batch


def _record_states(monkeypatch) -> list:
    """The shapes of the states that ``mh_step`` is called with, from now on."""
    shapes, step = [], invmh.core.mh_step

    def recorded(kernel, q, *args):
        shapes.append(np.shape(q))
        return step(kernel, q, *args)

    monkeypatch.setattr(invmh.core, "mh_step", recorded)
    return shapes


def _targets(dim: int) -> dict:
    targets = {
        "standard_gaussian": standard_gaussian(dim),
        "anisotropic_gaussian": anisotropic_gaussian(np.linspace(0.5, 2.0, dim)),
    }
    if dim >= 2:
        targets["rosenbrock"] = rosenbrock(dim)
    return targets


def _kernels(target, dim: int) -> dict:
    """Every batch kernel, with the CLI's surrogate HMC."""
    dense = np.eye(dim) + 0.3
    return {
        "rwmc": rwmc(target, dim, scale=0.5),
        "mala": mala(target, 0.4, dim),
        "hmc": hmc(target, HmcConfig(0.2, n=3), dim),
        "hmc_diagonal_mass": hmc(target, HmcConfig(0.2, n=2), dim, mass=np.linspace(1, 2, dim)),
        "hmc_dense_mass": hmc(target, HmcConfig(0.2, n=2), dim, mass=dense),
        "surrogate_hmc": SAMPLERS["surrogate_hmc"].build(
            {"delta": 0.2, "n": 2, "surrogate_scale": 1.5}, target, dim
        ),
    }


CASES = [
    (dim, target_name, kernel_name)
    for dim in (1, 2, 5)
    for target_name in _targets(dim)
    for kernel_name in _kernels(standard_gaussian(dim), dim)
]


class TestRowsAreSingleRuns:
    @pytest.mark.parametrize("dim, target_name, kernel_name", CASES)
    def test_every_batch_kernel_and_target(self, dim, target_name, kernel_name):
        target = _targets(dim)[target_name]
        kernel = _kernels(target, dim)[kernel_name]
        assert kernel.batch
        q0 = np.random.default_rng(dim).normal(scale=0.5, size=(4, dim))
        batch = assert_rows_are_single_runs(kernel, q0)
        assert any(row.accepted.any() for row in batch)

    def test_a_stuck_row_keeps_the_batch_whole(self):
        # Every trajectory from the row far out leaves the finite numbers:
        # that row is rejected in place, and each step calls the involution
        # once, on the whole batch.
        kernel = hmc(rosenbrock(2), HmcConfig(0.1, n=3), 2)
        calls = []
        involution = kernel.involution.apply_and_log_rn

        def recorded(z):
            image, log_rn = involution(z)
            calls.append((z.q.shape, np.isfinite(image.q).all(axis=-1).tolist()))
            return image, log_rn

        kernel = replace(kernel, involution=Involution(recorded))
        q0 = np.array([[1.0, 1.0], [0.5, 0.3], [1e30, 0.0]])
        run_chain(kernel, q0, 40, _rngs(3))
        assert calls == [((3, 2), [True, True, False])] * 40
        batch = assert_rows_are_single_runs(kernel, q0, n_steps=40)
        assert batch[0].accepted.any() and batch[1].accepted.any()
        assert not batch[2].accepted.any()
        assert (batch[2].positions == q0[2]).all()

    def test_a_row_whose_velocity_alone_overflows(self):
        # A surrogate force that overflows at the last kick leaves a finite
        # position and an infinite velocity, and bounded energies keep the
        # log-RN finite: only the image's velocity shows the divergence
        # that makes a single chain's leapfrog raise.
        bounded = lambda x: 0.5 * np.add.reduce(np.tanh(x) ** 2, axis=-1)
        aux = replace(gaussian_momentum(2), log_density_terms=lambda z: -bounded(z.v))
        kernel = surrogate_hmc(
            TargetPotential(eval=bounded), aux, HmcConfig(0.3), f1=lambda v: v,
            f2=lambda q: -1e300 * q, dim=2,
        )
        velocity_only = []
        involution = kernel.involution.apply_and_log_rn

        def recorded(z):
            image, log_rn = involution(z)
            finite_q = np.isfinite(image.q).all(axis=-1)
            velocity_only.append(bool((finite_q & ~np.isfinite(image.v).all(axis=-1)).any()))
            return image, log_rn

        kernel = replace(kernel, involution=Involution(recorded), batch=True)
        assert_rows_are_single_runs(kernel, np.array([[0.5, 0.5], [0.0, 0.0], [1e-310, 0.0]]), 20)
        assert any(velocity_only)

    def test_a_row_that_never_accepts(self):
        # No trajectory from (40, 0) diverges, and none is accepted.
        kernel = hmc(rosenbrock(2), HmcConfig(0.05, n=4), 2)
        q0 = np.array([[1.0, 1.0], [0.5, 0.3], [40.0, 0.0]])
        batch = assert_rows_are_single_runs(kernel, q0, n_steps=50)
        assert batch[0].accepted.any() and batch[1].accepted.any()
        assert not batch[2].accepted.any()
        assert (batch[2].positions == q0[2]).all()

    def test_a_batch_of_one_and_zero_steps(self, monkeypatch):
        kernel = mala(standard_gaussian(2), 0.5, 2)
        states = _record_states(monkeypatch)
        assert_rows_are_single_runs(kernel, np.zeros((1, 2)))
        assert set(states) == {(2,)}  # the single-chain path
        (empty,) = run_chain(kernel, np.ones((1, 2)), 0, _rngs(1))
        assert empty.positions.shape == (1, 2) and empty.alphas.shape == (0,)
        (empty,) = run_chain(kernel, np.ones((3, 2)), 0, _rngs(3))[2:]
        assert empty.positions.shape == (1, 2) and empty.alphas.shape == (0,)

    def test_chains_that_draw_ahead_run_one_at_a_time(self, monkeypatch):
        # At NOISE_THREAD_DIM with two CPUs a single chain draws its noise
        # ahead on a thread; a batch would draw it inline.
        monkeypatch.setattr(invmh.core.diagnostics, "_worker_count", lambda: 2)
        dim = invmh.core.NOISE_THREAD_DIM
        kernel = mala(standard_gaussian(dim), 0.05, dim)
        states = _record_states(monkeypatch)
        q0 = np.random.default_rng(1).normal(size=(2, dim))
        assert_rows_are_single_runs(kernel, q0, n_steps=3)
        assert set(states) == {(dim,)}

    @pytest.mark.parametrize(
        "kernel",
        [
            relativistic_hmc(standard_gaussian(2), 1.0, 1.0, HmcConfig(0.3), 2),
            rmhmc(standard_gaussian(2), diagonal_quadratic_metric(), 0.3, 1, 2),
            rwmc(standard_gaussian(2), 2, jump=gaussian_jump(2, 0.5)),
            surrogate_hmc(
                standard_gaussian(2), gaussian_momentum(2), HmcConfig(0.3),
                f1=lambda v: v, f2=lambda q: -q, dim=2,
            ),
            pcn(hilbert_quartic({"d": 4}), delta=0.5),
            inf_mala(hilbert_quartic({"d": 4}), 0.3),
        ],
        ids=["relativistic_hmc", "rmhmc", "rwmc_own_jump", "surrogate_hmc_undeclared", "pcn",
             "inf_mala"],
    )
    def test_a_kernel_without_batch_runs_its_rows_alone(self, kernel, monkeypatch):
        assert not kernel.batch
        states = _record_states(monkeypatch)
        q0 = np.random.default_rng(3).normal(scale=0.5, size=(3, kernel.dim))
        batch = assert_rows_are_single_runs(kernel, q0, n_steps=30)
        assert set(states) == {(kernel.dim,)}
        assert any(row.accepted.any() for row in batch)

    @pytest.mark.parametrize("dim", [1, 2, 5])
    def test_dense_mass_keeps_the_single_chain_arithmetic(self, dim):
        # A single chain of hmc with a dense mass against one built from
        # the matrix-vector products ``chol @ x`` and ``inverse @ v``.
        mass = np.eye(dim) + 0.3
        chol, inverse = np.linalg.cholesky(mass), np.linalg.inv(mass)
        target, cfg = rosenbrock(dim) if dim > 1 else standard_gaussian(1), HmcConfig(0.2, n=3)
        aux = _kinetic_law(
            lambda rng: chol @ rng.standard_normal(dim),
            lambda v: 0.5 * float(v.dot(inverse @ v)),
            dim,
            gaussian_noise=True,
        )
        reference = surrogate_hmc(
            target, aux, cfg, f1=inverse.__matmul__, f2=_exact_force(target), dim=dim
        )
        q0 = np.full(dim, 0.3)
        ours = run_chain(hmc(target, cfg, dim, mass=mass), q0, 200, np.random.default_rng(dim))
        theirs = run_chain(reference, q0, 200, np.random.default_rng(dim))
        assert ours.accepted.any()
        for field in ("positions", "alphas", "accepted"):
            assert np.array_equal(getattr(ours, field), getattr(theirs, field))

    def test_dense_spd_acts_as_its_matrix_vector_products(self):
        rng = np.random.default_rng(0)
        for dim in range(1, 13):
            root = rng.normal(size=(dim, dim))
            matrix = root @ root.T + dim * np.eye(dim)
            spd = _SPD(matrix, dim, ConfigurationError)
            chol, inverse = np.linalg.cholesky(matrix), np.linalg.inv(matrix)
            for v in rng.normal(size=(20, dim)):
                assert np.array_equal(spd.inv_apply(v), inverse @ v)
                assert spd.half_quad(v) == 0.5 * float(v.dot(inverse @ v))
            seed = int(rng.integers(1 << 30))
            drawn = spd.sample(np.random.default_rng(seed))
            assert np.array_equal(drawn, chol @ np.random.default_rng(seed).standard_normal(dim))


class TestMisuse:
    """A batch that cannot be stepped fails before any draw."""

    @staticmethod
    def assert_fails_before_any_draw(kernel, q0, rngs, match):
        states = [rng.bit_generator.state for rng in rngs]
        with pytest.raises(ConfigurationError, match=match):
            run_chain(kernel, q0, 10, rngs)
        assert [rng.bit_generator.state for rng in rngs] == states

    def test_generators_must_match_the_rows(self):
        kernel = mala(standard_gaussian(2), 0.5, 2)
        self.assert_fails_before_any_draw(kernel, np.zeros((3, 2)), _rngs(2), "3 generators")
        with pytest.raises(ConfigurationError, match="3 generators"):
            run_chain(kernel, np.zeros((3, 2)), 10, np.random.default_rng(0))

    def test_a_potential_that_reduces_over_the_batch(self):
        # np.sum without an axis: one number for the whole batch.
        target = TargetPotential(eval=lambda q: 0.5 * np.sum(q * q), grad=lambda q: q)
        kernel = replace(
            surrogate_hmc(
                target, gaussian_momentum(2), HmcConfig(0.3), f1=lambda v: v, f2=lambda q: -q,
                dim=2,
            ),
            batch=True,
        )
        self.assert_fails_before_any_draw(kernel, np.zeros((3, 2)), _rngs(3), r"\(3,\) potentials")

    def test_an_energy_that_reduces_over_the_batch(self):
        momentum = gaussian_momentum(2)
        aux = replace(momentum, log_density_terms=lambda z: -0.5 * np.sum(z.v * z.v))
        kernel = replace(
            surrogate_hmc(
                standard_gaussian(2), aux, HmcConfig(0.3), f1=lambda v: v, f2=lambda q: -q,
                dim=2,
            ),
            batch=True,
        )
        self.assert_fails_before_any_draw(kernel, np.zeros((3, 2)), _rngs(3), "energies")


def test_batched_invmh_run_matches_per_chain_reference(tmp_path):
    """``invmh run`` of 3 mala chains, stepped as one batch, against a
    reference made of one ``run_chain``, ``_write_chain_csv`` and
    ``summarize_chain`` call per chain."""
    config = json.loads(json.dumps(invmh.cli.EXAMPLE_CONFIGS["mala_gaussian"]))
    config["run"].update(n_steps=400, burn_in=40, n_chains=3)
    out = tmp_path / "run"
    config["output"]["directory"] = str(out)
    assert invmh.cli.run(config) == 0

    kind, target, dim = build_target(config["target"])
    kernel = build_kernel(config["sampler"], kind, target, dim)
    assert kernel.batch
    reference = tmp_path / "reference"
    reference.mkdir()
    summaries = []
    for c in range(3):
        sampling, diagnostics = invmh.cli._chain_rngs(config["run"]["seed"], c)
        result = run_chain(kernel, np.zeros(dim), 400, sampling)
        path = reference / f"chain_{c:03d}.csv"
        invmh.cli._write_chain_csv(path, result.positions, result.alphas, result.accepted, 1)
        assert (out / path.name).read_bytes() == path.read_bytes()
        summary = invmh.cli.summarize_chain(
            result.positions, result.accepted, diagnostics, burn_in=40
        )
        summaries.append({"chain": c, **summary.to_dict()})
    written = json.loads((out / "summary.json").read_text())
    assert written["chains"] == json.loads(json.dumps(summaries))


@pytest.mark.parametrize("by_bytes", [True, False], ids=["bytes", "chains"])
def test_invmh_run_bounds_its_batches(tmp_path, monkeypatch, by_bytes):
    """Chains whose positions take an eighth of ``BATCH_BYTES`` each run in
    batches of 8, and tiny ones in batches of ``BATCH_CHAINS``: no more than
    one batch's positions are held at a time, and no copy of them."""
    dim, per_batch = (64, 8) if by_bytes else (2, invmh.cli.BATCH_CHAINS)
    n_steps = invmh.cli.BATCH_BYTES // (8 * per_batch * dim) - 1 if by_bytes else 20
    n_chains = per_batch + 4
    config = json.loads(json.dumps(invmh.cli.EXAMPLE_CONFIGS["mala_gaussian"]))
    config["target"] = {"name": "standard_gaussian", "dim": dim}
    config["sampler"]["delta"] = 0.3
    config["run"].update(n_steps=n_steps, burn_in=0, n_chains=n_chains)
    config["output"]["directory"] = str(tmp_path)
    # The sampling's memory alone: CSVs and summaries are not made.
    written = []

    def write(path, positions, *rest):
        written.append((positions.shape, positions.flags.c_contiguous))

    monkeypatch.setattr(invmh.cli, "_write_chain_csv", write)
    monkeypatch.setattr(
        invmh.cli, "summarize_chain", lambda *args, **kwargs: SimpleNamespace(to_dict=dict)
    )
    batches = _record_states(monkeypatch)
    tracemalloc.start()
    try:
        assert invmh.cli.run(config) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert set(batches) == {(per_batch, dim), (4, dim)}
    assert written == [((n_steps + 1, dim), True)] * n_chains
    assert peak < 1.25 * invmh.cli.BATCH_BYTES
