"""Truncated spectral representation of a centered Gaussian reference
measure with trace-class covariance.

Coordinates are expressed in the eigenbasis of the covariance, so every
fractional power of the covariance is diagonal and all operations are O(d).
The Lebesgue log-density only exists at finite truncation; it serves as the
oracle for the measure-theoretic ratio formulas used by the Hilbert-space
samplers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ConfigurationError, require_count, require_finite

__all__ = ["SpectralGaussian", "power_law_eigenvalues"]


def power_law_eigenvalues(d: int, c: float = 1.0, p: float = 2.0) -> np.ndarray:
    """Eigenvalue sequence ``c * i**(-p)`` for ``i = 1..d``.  The decay
    ``p`` must exceed 1: otherwise the eigenvalues are not summable as ``d``
    grows and the covariance is not trace class."""
    require_finite(c=c, p=p)
    require_count(d=d)
    if c <= 0:
        raise ConfigurationError("eigenvalue scale must be positive")
    if p <= 1:
        raise ConfigurationError(f"p must be > 1 for a trace-class covariance, got {p!r}")
    return c * np.arange(1, d + 1, dtype=float) ** (-p)


@dataclass(frozen=True)
class SpectralGaussian:
    """Gaussian measure N(0, C) truncated to the leading ``d`` eigenmodes.

    ``eigenvalues`` must be strictly positive and non-increasing.  The trace
    (finite automatically at finite ``d``) is recorded for reference against
    the trace-class assumption on the full covariance.
    """

    eigenvalues: np.ndarray

    def __post_init__(self):
        eig = np.asarray(self.eigenvalues, dtype=float)
        if eig.ndim != 1 or eig.size == 0:
            raise ConfigurationError("eigenvalues must be a nonempty 1-d sequence")
        require_finite(eigenvalues=eig)
        if np.any(eig <= 0):
            raise ConfigurationError("eigenvalues must be strictly positive")
        if np.any(np.diff(eig) > 0):
            raise ConfigurationError("eigenvalues must be non-increasing")
        object.__setattr__(self, "eigenvalues", eig)
        object.__setattr__(self, "_sqrt_eig", np.sqrt(eig))

    @property
    def dim(self) -> int:
        return self.eigenvalues.size

    @property
    def trace(self) -> float:
        return float(self.eigenvalues.sum())

    def sample(self, rng: np.random.Generator) -> np.ndarray:
        """One draw, coordinate-wise ``sqrt(lambda_i) * xi_i`` with standard
        normal ``xi``."""
        xi = rng.standard_normal(self.dim)
        xi *= self._sqrt_eig
        return xi

    def frac_power(self, gamma: float, x: np.ndarray) -> np.ndarray:
        """Apply the fractional covariance power: ``(C^gamma x)_i =
        lambda_i**gamma * x_i``."""
        if gamma == 0.0:
            return np.asarray(x, dtype=float)
        power = self.eigenvalues if gamma == 1.0 else self.eigenvalues**gamma
        return power * np.asarray(x, dtype=float)

    def cm_inner(self, x: np.ndarray, y: np.ndarray) -> float:
        """Cameron-Martin inner product ``<C^{-1/2} x, C^{-1/2} y>``."""
        return float(np.sum(np.multiply(x, y, dtype=float) / self.eigenvalues))

    def cm_sq_norm(self, x: np.ndarray) -> float:
        """Cameron-Martin squared norm ``|C^{-1/2} x|^2``."""
        return float(np.sum(np.square(x, dtype=float) / self.eigenvalues))

    def cm_log_ratio(self, shift: np.ndarray, x: np.ndarray) -> float:
        """``log dN(shift, C)/dN(0, C)`` evaluated at ``x``:
        ``<C^{-1/2} shift, C^{-1/2} x> - |C^{-1/2} shift|^2 / 2``."""
        return self.cm_inner(shift, x) - 0.5 * self.cm_sq_norm(shift)

    def log_density_lebesgue(self, x: np.ndarray) -> float:
        """Normalized Lebesgue log-density of the truncation at ``x``."""
        x = np.asarray(x, dtype=float)
        return float(
            -0.5 * np.sum(x**2 / self.eigenvalues)
            - 0.5 * np.sum(np.log(2.0 * np.pi * self.eigenvalues))
        )
