"""Shared fixtures: the zoo of shipped kernels and small numeric helpers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from invmh import (
    AuxLaw,
    ExtendedPoint,
    HilbertTarget,
    HmcConfig,
    SpectralGaussian,
    TargetPotential,
    diagonal_quadratic_metric,
    gaussian_momentum,
    gen_langevin,
    hmc,
    inf_hmc,
    inf_mala,
    mala,
    pcn,
    relativistic_hmc,
    rmhmc,
    rwmc,
    surrogate_hmc,
)
from invmh.hilbert import default_hilbert_target, quartic_bounded_phi
from invmh.targets import standard_gaussian


def finite_difference_grad(f: Callable[[np.ndarray], float], q: np.ndarray) -> np.ndarray:
    h = 1e-5 * (1.0 + float(np.max(np.abs(q), initial=0.0)))
    g = np.empty_like(q, dtype=float)
    for i in range(q.size):
        qp, qm = q.copy(), q.copy()
        qp[i] += h
        qm[i] -= h
        g[i] = (f(qp) - f(qm)) / (2.0 * h)
    return g


def assert_grad_consistent(target: TargetPotential, points, rtol=1e-4):
    for q in points:
        analytic = np.asarray(target.grad(q), dtype=float)
        numeric = finite_difference_grad(target.eval, np.asarray(q, dtype=float))
        scale = 1.0 + np.abs(numeric)
        np.testing.assert_allclose(analytic / scale, numeric / scale, atol=rtol)


@dataclass
class ZooEntry:
    """One shipped kernel plus a sampler of typical extended points and, for
    finite-dimensional entries, the extended Lebesgue log-density used by
    the brute-force oracle."""

    name: str
    kernel: object
    sample_z: Callable[[np.random.Generator], ExtendedPoint]
    implicit: bool = False
    ext_log_density: Callable[[np.ndarray, np.ndarray], float] | None = None


def _gaussian_points(dim: int, scale: float = 0.8):
    def sample(rng: np.random.Generator) -> ExtendedPoint:
        return ExtendedPoint(scale * rng.standard_normal(dim), scale * rng.standard_normal(dim))

    return sample


def _reference_points(reference: SpectralGaussian):
    def sample(rng: np.random.Generator) -> ExtendedPoint:
        return ExtendedPoint(reference.sample(rng), reference.sample(rng))

    return sample


def _bumpy_gaussian(dim: int) -> TargetPotential:
    """Anisotropic Gaussian with a smooth non-quadratic perturbation, so
    nothing cancels by accident."""
    var = np.linspace(1.0, 0.4, dim)

    def eval_(q):
        return 0.5 * float(np.sum(q**2 / var)) + 0.3 * float(np.sum(np.cos(q)))

    def grad(q):
        return q / var - 0.3 * np.sin(q)

    return TargetPotential(eval=eval_, grad=grad)


def build_kernel_zoo() -> list[ZooEntry]:
    """All ten shipped kernel families at assorted dimensions (d <= 20)."""
    entries: list[ZooEntry] = []

    t20 = standard_gaussian(20)
    entries.append(
        ZooEntry("rwmc", rwmc(t20, dim=20, scale=0.7), _gaussian_points(20))
    )

    t3 = _bumpy_gaussian(3)
    entries.append(
        ZooEntry(
            "mala",
            mala(t3, delta=0.45, dim=3),
            _gaussian_points(3),
            ext_log_density=lambda q, v: -t3.eval(q) - 0.5 * float(v @ v),
        )
    )

    t5 = _bumpy_gaussian(5)
    mass5 = np.linspace(0.5, 2.0, 5)
    k_hmc = hmc(t5, HmcConfig(delta=0.3, n=3), dim=5, mass=mass5)
    entries.append(
        ZooEntry(
            "hmc",
            k_hmc,
            _gaussian_points(5),
            ext_log_density=lambda q, v: -t5.eval(q) - 0.5 * float(np.sum(v**2 / mass5)),
        )
    )

    t4 = _bumpy_gaussian(4)
    entries.append(
        ZooEntry(
            "relativistic_hmc",
            relativistic_hmc(t4, m=1.2, c=2.0, cfg=HmcConfig(delta=0.3, n=2), dim=4),
            _gaussian_points(4),
        )
    )

    t2 = _bumpy_gaussian(2)
    entries.append(
        ZooEntry(
            "rmhmc",
            rmhmc(t2, diagonal_quadratic_metric(), delta=0.12, n=2, dim=2),
            _gaussian_points(2, scale=0.6),
            implicit=True,
        )
    )

    t3b = _bumpy_gaussian(3)
    grad3 = t3b.grad
    entries.append(
        ZooEntry(
            "surrogate_hmc",
            surrogate_hmc(
                t3b,
                gaussian_momentum(3),
                HmcConfig(delta=0.3, n=2),
                f1=lambda v: v,
                f2=lambda q: -1.5 * grad3(q),
                dim=3,
            ),
            _gaussian_points(3),
            ext_log_density=lambda q, v: -t3b.eval(q) - 0.5 * float(v @ v),
        )
    )

    h10 = default_hilbert_target(10)
    entries.append(ZooEntry("pcn", pcn(h10, delta=1.0), _reference_points(h10.reference)))

    h8 = default_hilbert_target(8)
    entries.append(ZooEntry("inf_mala", inf_mala(h8, delta=0.5), _reference_points(h8.reference)))

    h6 = default_hilbert_target(6)
    lam6 = h6.reference.eigenvalues
    aux6 = AuxLaw(variances=lambda q: lam6 * (1.0 + 0.4 * np.tanh(q) ** 2))
    entries.append(
        ZooEntry(
            "inf_hmc",
            inf_hmc(h6, aux6, delta1=0.15, delta2=0.3, n=3),
            _reference_points(h6.reference),
        )
    )

    h5 = default_hilbert_target(5)
    ref5 = h5.reference
    grad5 = quartic_bounded_phi(5).grad
    wrong_force = lambda q: ref5.frac_power(1.0, 0.7 * grad5(q) + 0.2 * np.tanh(q))
    h5s = HilbertTarget(phi=h5.phi, reference=ref5, surrogate_f=wrong_force)
    entries.append(
        ZooEntry("gen_langevin", gen_langevin(h5s, delta=0.6), _reference_points(ref5))
    )

    return entries


@pytest.fixture(scope="session")
def kernel_zoo() -> list[ZooEntry]:
    return build_kernel_zoo()


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


def point_norm(a: ExtendedPoint, b: ExtendedPoint) -> float:
    return max(
        float(np.max(np.abs(a.q - b.q), initial=0.0)),
        float(np.max(np.abs(a.v - b.v), initial=0.0)),
    )


# Collected by the acceptance suite; echoed after the run so the
# per-criterion verdicts are visible without -s.
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
