"""Builtin target measures for the experiment runner and the test suite."""

from __future__ import annotations

import numpy as np

from .core import ConfigurationError, TargetPotential, require_count, require_finite, require_vector
from .gaussian import SpectralGaussian, power_law_eigenvalues
from .hilbert import HilbertTarget, quartic_bounded_phi

__all__ = [
    "standard_gaussian",
    "anisotropic_gaussian",
    "rosenbrock",
    "hilbert_quartic",
    "hilbert_linear",
]


def standard_gaussian(dim: int) -> TargetPotential:
    """U(q) = |q|^2 / 2."""
    require_count(dim=dim)
    return TargetPotential(
        eval=lambda q: 0.5 * float(np.add.reduce(q**2)),
        grad=lambda q: np.asarray(q, dtype=float),
    )


def anisotropic_gaussian(variances) -> TargetPotential:
    """Centered Gaussian with the given per-coordinate variances."""
    var = np.asarray(variances, dtype=float)
    require_finite(variances=var)
    if var.ndim != 1 or var.size == 0 or np.any(var <= 0):
        raise ConfigurationError("variances must be a nonempty positive vector")
    return TargetPotential(
        eval=lambda q: 0.5 * float(np.add.reduce(q**2 / var)),
        grad=lambda q: np.asarray(q, dtype=float) / var,
    )


def rosenbrock(dim: int = 2, a: float = 1.0, b: float = 10.0) -> TargetPotential:
    """Banana-shaped potential
    ``sum_i b (q_{i+1} - q_i^2)^2 + (a - q_i)^2``.  ``b`` must be positive:
    with ``b < 0`` the potential is unbounded below and with ``b = 0`` the
    last coordinate is flat, so the target is improper either way."""
    require_finite(a=a, b=b)
    require_count(dim=dim)
    if dim < 2:
        raise ConfigurationError("rosenbrock requires dim >= 2")
    if b <= 0:
        raise ConfigurationError(f"b must be > 0 for a proper target, got {b!r}")

    def eval_(q: np.ndarray) -> float:
        head, tail = q[:-1], q[1:]
        return float(np.sum(b * (tail - head**2) ** 2 + (a - head) ** 2))

    def grad(q: np.ndarray) -> np.ndarray:
        g = np.zeros_like(np.asarray(q, dtype=float))
        head, tail = q[:-1], q[1:]
        inner = tail - head**2
        g[:-1] += -4.0 * b * inner * head - 2.0 * (a - head)
        g[1:] += 2.0 * b * inner
        return g

    return TargetPotential(eval=eval_, grad=grad)


def _reference_from_spec(eigenvalues) -> SpectralGaussian:
    if isinstance(eigenvalues, SpectralGaussian):
        return eigenvalues
    if isinstance(eigenvalues, dict):
        d = int(eigenvalues["d"])
        return SpectralGaussian(
            power_law_eigenvalues(
                d, c=float(eigenvalues.get("c", 1.0)), p=float(eigenvalues.get("p", 2.0))
            )
        )
    return SpectralGaussian(np.asarray(eigenvalues, dtype=float))


def hilbert_quartic(eigenvalues) -> HilbertTarget:
    """Quartic-bounded potential ``|q|^4 / (2 (1 + |q|^2))`` over a spectral
    Gaussian reference (eigenvalues given inline or as a power-law spec)."""
    reference = _reference_from_spec(eigenvalues)
    return HilbertTarget(phi=quartic_bounded_phi(reference.dim), reference=reference)


def hilbert_linear(eigenvalues, coefficients) -> HilbertTarget:
    """Linear potential ``phi(q) = <a, q>`` over a spectral Gaussian
    reference."""
    reference = _reference_from_spec(eigenvalues)
    a = require_vector("coefficients", coefficients, reference.dim)
    phi = TargetPotential(
        eval=lambda q: float(a @ q),
        grad=lambda q: a,
    )
    return HilbertTarget(phi=phi, reference=reference)
