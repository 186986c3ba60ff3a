"""Samplers for targets absolutely continuous with respect to a Gaussian
reference on a Hilbert space: pCN, preconditioned MALA and HMC, and the
generalized Langevin kernel, all as involutive kernels over a
:class:`~invmh.gaussian.SpectralGaussian` truncation.

The proposal integrator is the Strang splitting of the preconditioned
dynamics ``dq/dt = v, dv/dt = -q - f(q)`` into a velocity shift by ``f``
(which stays absolutely continuous by Cameron-Martin) and an exact rotation
(which preserves the Gaussian product measure), run by
:func:`~invmh.integrators.strang_hilbert`.  Each trajectory point is one
stacked ``(q, v, kick)`` buffer, and a step's opening kick and rotation
are one matrix product on it.  The default force ``f = C grad(phi)`` kicks
on its Cameron-Martin dual, ``(delta1 lambda) * grad(phi)``, and is never
formed; a surrogate force kicks by ``delta1 f``.  The product is the BLAS's
``dgemm``, so chains depend on the BLAS's kernel for it (as the log-RN's
dot products already did); against separate kicks and rotations with the
plain force, endpoints agree within 1e-13 relative and log-RNs within
1e-12 (about 1e-14 was measured, ``tests/test_hilbert.py::TestFusedStrang``).
The closed-form log Radon-Nikodym derivative (:func:`hilbert_log_rn`) is
summed over the points as the loop builds them, from their duals and kicks,
and reads ``phi`` at the two endpoints through their memos.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .core import (
    AuxiliaryKernel,
    ConfigurationError,
    ExtendedPoint,
    Involution,
    InvolutiveKernel,
    TargetPotential,
    _point,
    require_count,
    require_finite,
)
from .gaussian import SpectralGaussian, power_law_eigenvalues
from .integrators import DivergenceError, _rotate, momentum_flip, strang_hilbert

__all__ = [
    "HilbertTarget",
    "AuxLaw",
    "hilbert_log_rn",
    "hilbert_log_rn_from_trajectory",
    "log_beta",
    "langevin_log_accept_ratio",
    "pcn",
    "rho_from_delta",
    "inf_mala",
    "inf_hmc",
    "gen_langevin",
    "leapfrog_refinement_probe",
    "RefinementProbeReport",
    "validate_aux_normalization",
]


@dataclass(frozen=True)
class HilbertTarget:
    """Target ``dmu = exp(-phi) dmu0`` over a spectral Gaussian reference.

    ``surrogate_f`` is the force entering the preconditioned dynamics; when
    omitted it defaults to ``C grad(phi)`` provided ``phi.grad`` exists.
    Its values must lie in the Cameron-Martin space, automatic at finite
    truncation.
    """

    phi: TargetPotential
    reference: SpectralGaussian
    surrogate_f: Callable[[np.ndarray], np.ndarray] | None = None

    @property
    def dim(self) -> int:
        return self.reference.dim

    def force(self) -> Callable[[np.ndarray], np.ndarray]:
        """The drift ``f``: explicit surrogate if given, else ``C grad(phi)``;
        the same function on every call, so memos keyed by it are shared."""
        return self._force

    @functools.cached_property
    def _force(self) -> Callable[[np.ndarray], np.ndarray]:
        if self.surrogate_f is not None:
            return self.surrogate_f
        pair, lam = self._force_and_dual, self.reference.eigenvalues
        return lambda q: lam * pair(q)[1]

    @functools.cached_property
    def _force_and_dual(self) -> Callable[[np.ndarray], tuple[np.ndarray | None, np.ndarray]]:
        """``q -> (f(q), g(q))``: the force and its Cameron-Martin dual
        ``g = f / lambda`` (``<v, f(q)>_CM = v @ g(q)``), and the memo key
        under which the Strang kernels keep both.  For the default force
        ``f = C grad(phi)`` the dual is ``grad(phi)`` itself, and ``f`` is
        None: the kernels kick by ``(delta1 lambda) * g`` and never form
        ``f``.  A surrogate force kicks by ``delta1 f`` and is divided by the
        eigenvalues."""
        ref = self.reference
        if self.surrogate_f is not None:
            f, lam = self.surrogate_f, ref.eigenvalues

            def force_and_dual(q):
                fq = np.asarray(f(q), dtype=float)
                return fq, fq / lam

            return force_and_dual
        if self.phi.grad is None:
            raise ConfigurationError("target provides neither surrogate_f nor a gradient")
        grad = self.phi.grad
        return lambda q: (None, np.asarray(grad(q), dtype=float))


@dataclass(frozen=True)
class AuxLaw:
    """Auxiliary (velocity) law for the Hilbert-space kernels.

    With ``variances=None`` the velocity is drawn from the reference measure
    itself and the correction term vanishes.  Otherwise ``variances(q)``
    returns per-mode variances ``k_i(q) > 0`` and the law is the diagonal
    Gaussian N(0, diag(k(q))), whose log-density with respect to the
    reference is ``-h_tilde`` below.  Both selectors integrate to one
    against the reference by construction.
    """

    variances: Callable[[np.ndarray], np.ndarray] | None = None

    def sample(
        self, reference: SpectralGaussian, z: ExtendedPoint, rng: np.random.Generator
    ) -> np.ndarray:
        if self.variances is None:
            return reference.sample(rng)
        k = np.asarray(z.cached(self.variances), dtype=float)
        if np.any(k <= 0):
            raise ConfigurationError("auxiliary variances must be positive")
        return np.sqrt(k) * rng.standard_normal(reference.dim)

    def h_tilde(self, reference: SpectralGaussian, z: ExtendedPoint) -> float:
        """The exponent H~(q, v) with d(aux law)/d(mu0) = exp(-H~) at the
        point ``z``, whose memo holds ``variances(q)`` once computed."""
        if self.variances is None:
            return 0.0
        k = np.asarray(z.cached(self.variances), dtype=float)
        lam = reference.eigenvalues
        return float(np.sum(0.5 * z.v**2 * (1.0 / k - 1.0 / lam) + 0.5 * np.log(k / lam)))


def _kick_steps(target: HilbertTarget, delta1: float):
    """The steps of the kernels' kicks (see ``HilbertTarget._force_and_dual``):
    ``delta1`` on a surrogate force, ``delta1 * lambda`` on the default
    force's dual."""
    return delta1 if target.surrogate_f is not None else delta1 * target.reference.eigenvalues


def _log_rn(target: HilbertTarget, aux: AuxLaw, delta1: float, z0, image, terms) -> float:
    """Closed-form log Radon-Nikodym derivative of ``flip . strang`` from
    ``z0`` to its image ``R z_n = (q_n, -v_n)``.  ``terms`` holds, for each
    point ``z_0, ..., z_{n-1}`` and then for ``R z_n``, the pair
    ``(v @ g, kick @ g)``: with ``g = f / lambda`` the force's dual and
    ``kick = delta1 f`` the point's velocity shift, these are
    ``<v, f>_CM`` and ``delta1 |f|^2_CM``.

    The value is
    ``phi(q_0) + H~(q_0, v_0) - phi(q_n) - H~(q_n, -v_n)`` plus the
    Cameron-Martin terms of the ``n`` velocity shifts; a non-finite ``phi``
    yields ``-inf`` (reject).  ``phi`` and the auxiliary variances are read
    through the endpoints' memos."""
    phi0 = z0.cached(target.phi.eval)
    phin = image.cached(target.phi.eval)
    if not (math.isfinite(phi0) and math.isfinite(phin)):
        return -math.inf
    ref = target.reference
    value = phi0 + aux.h_tilde(ref, z0) - phin - aux.h_tilde(ref, image)
    (start_v, start_kick), (image_v, end_kick) = terms[0], terms[-1]
    value -= 0.5 * delta1 * (start_kick - end_kick)
    value += 2.0 * delta1 * sum(v for v, _ in terms[1:-1])
    value += delta1 * (start_v - image_v)
    if math.isnan(value):
        return math.nan
    return float(value)


def hilbert_log_rn_from_trajectory(
    target: HilbertTarget,
    aux: AuxLaw,
    delta1: float,
    trajectory: Sequence[ExtendedPoint],
) -> float:
    """Closed-form log Radon-Nikodym derivative of ``flip . strang`` from a
    recorded trajectory ``[z_0, ..., z_n]`` of whole Strang steps (see
    :func:`_log_rn`); the points' forces and duals are read through their
    memos, where the kernels' ``strang_hilbert(n, _kick_steps(target,
    delta1), delta2, target._force_and_dual, z, paired=True)`` leaves them
    (a trajectory recorded with the plain force has them computed again),
    and their kicks are the kernels'.  The kernels take the same sums
    without recording the trajectory."""
    steps, image = _kick_steps(target, delta1), momentum_flip(trajectory[-1])
    terms = []
    for z in [*trajectory[:-1], image]:
        f, g = z.cached(target._force_and_dual)
        kick = steps * (g if f is None else f)
        terms.append((float(z.v @ g), float(kick @ g)))
    return _log_rn(target, aux, delta1, trajectory[0], image, terms)


def _strang_involution(
    target: HilbertTarget, aux: AuxLaw, delta1: float, steps, delta2: float, n: int, z
) -> tuple[ExtendedPoint, float]:
    """``flip . strang`` at ``z`` and its closed-form log-RN, whose terms are
    taken at each point as the integrator builds it (the arithmetic of
    :func:`hilbert_log_rn_from_trajectory`): no trajectory is kept.  The
    kicks take :func:`_kick_steps`'s ``steps``.  The image keeps the last
    point's memo, with ``phi``, the force and its dual there."""
    terms = []

    def visit(q, v, fg, kick):  # kick @ g enters the log-RN at the two ends only
        end = len(terms) in (0, n)
        terms.append((float(v @ fg[1]), float(kick @ fg[1]) if end else 0.0))

    image, _ = strang_hilbert(n, steps, delta2, target._force_and_dual, z, visit, paired=True)
    return image, _log_rn(target, aux, delta1, z, image, terms)


def hilbert_log_rn(
    target: HilbertTarget,
    aux: AuxLaw,
    delta1: float,
    delta2: float,
    n: int,
    z: ExtendedPoint,
) -> float:
    """Run the Strang integrator from ``z`` and evaluate the closed-form
    log-RN along it, keeping only the endpoints.  A diverged trajectory
    yields ``-inf`` (reject)."""
    try:
        steps = _kick_steps(target, delta1)
        return _strang_involution(target, aux, delta1, steps, delta2, n, z)[1]
    except DivergenceError:
        return -math.inf


def _hilbert_kernel(
    target: HilbertTarget,
    aux: AuxLaw,
    apply_and_log_rn: Callable[[ExtendedPoint], tuple[ExtendedPoint, float]],
    name: str,
) -> InvolutiveKernel:
    ref = target.reference
    return InvolutiveKernel(
        target=target.phi,
        aux=AuxiliaryKernel(
            sample=lambda z, rng: aux.sample(ref, z, rng),
            log_density_terms=lambda z: -aux.h_tilde(ref, z),
            dim=target.dim,
            gaussian_noise=True,
        ),
        involution=Involution(apply_and_log_rn),
        dim=target.dim,
        name=name,
    )


def _strang_kernel(
    target: HilbertTarget, aux: AuxLaw, delta1: float, delta2: float, n: int, name: str
) -> InvolutiveKernel:
    """``flip . strang`` with its closed-form log-RN (see
    :func:`_strang_involution`)."""
    steps = _kick_steps(target, delta1)
    involution = lambda z: _strang_involution(target, aux, delta1, steps, delta2, n, z)
    return _hilbert_kernel(target, aux, involution, name)


def rho_from_delta(delta: float) -> float:
    """Crank-Nicolson contraction factor ``rho = (4 - delta)/(4 + delta)``."""
    if delta < 0:
        raise ConfigurationError("delta must be nonnegative")
    return (4.0 - delta) / (4.0 + delta)


def _resolve_rho(rho: float | None, delta: float | None) -> float:
    if (rho is None) == (delta is None):
        raise ConfigurationError("specify exactly one of rho or delta")
    value = rho_from_delta(delta) if rho is None else float(rho)
    if not -1.0 < value <= 1.0:
        raise ConfigurationError("rho must lie in (-1, 1] (rho = 1 degenerates to no move)")
    return value


def pcn(
    target: HilbertTarget, rho: float | None = None, delta: float | None = None
) -> InvolutiveKernel:
    """Preconditioned Crank-Nicolson: rotation proposal
    ``q' = rho q + sqrt(1 - rho^2) v`` with ``v`` from the reference; the
    involution is ``momentum_flip . rotation(acos rho)``.

    The rotation preserves the Gaussian product measure, so the acceptance
    probability is ``1 ∧ exp(phi(q) - phi(q'))`` only.
    """
    c = _resolve_rho(rho, delta)
    s = math.sin(math.acos(c))
    phi = target.phi

    def rotate(z: ExtendedPoint) -> tuple[ExtendedPoint, float]:
        # phi is read through the memo: one evaluation per step, at the image.
        image = _point((*_rotate(c, s, z.q, z.v, flip=True), {}))
        return image, z.cached(phi.eval) - image.cached(phi.eval)

    return _hilbert_kernel(target, AuxLaw(), rotate, "pcn")


def log_beta(
    target: HilbertTarget, delta: float, q: np.ndarray, q_tilde: np.ndarray
) -> float:
    """Log of the beta factor of the two-argument (Hastings-form) acceptance
    ratio for the Langevin-type proposals."""
    ref = target.reference
    f = target.force()
    rho = rho_from_delta(delta)
    fq = np.asarray(f(q), dtype=float)
    displaced = (np.asarray(q_tilde) - rho * np.asarray(q)) / math.sqrt(1.0 - rho * rho)
    return (
        -target.phi.eval(q)
        - (delta / 8.0) * ref.cm_sq_norm(fq)
        - (math.sqrt(delta) / 2.0) * ref.cm_inner(displaced, fq)
    )


def langevin_log_accept_ratio(
    target: HilbertTarget, delta: float, q: np.ndarray, q_tilde: np.ndarray
) -> float:
    """Two-argument log acceptance ratio ``log beta(q', q) - log beta(q, q')``
    for the generalized Langevin / preconditioned MALA proposals."""
    return log_beta(target, delta, q_tilde, q) - log_beta(target, delta, q, q_tilde)


def _langevin_kernel(target: HilbertTarget, delta: float, name: str) -> InvolutiveKernel:
    require_finite(delta=delta)
    if delta <= 0:
        raise ConfigurationError("delta must be positive")
    rho = rho_from_delta(delta)
    delta1 = math.sqrt(delta) / 2.0
    delta2 = math.acos(rho)
    return _strang_kernel(target, AuxLaw(), delta1, delta2, 1, name)


def inf_mala(target: HilbertTarget, delta: float) -> InvolutiveKernel:
    """Preconditioned (dimension-robust) MALA: the one-step Strang scheme
    with ``delta1 = sqrt(delta)/2`` and ``delta2 = acos(rho)``, with force
    ``C grad(phi)``."""
    if target.phi.grad is None:
        raise ConfigurationError("inf_mala requires grad(phi)")
    exact = HilbertTarget(phi=target.phi, reference=target.reference, surrogate_f=None)
    return _langevin_kernel(exact, delta, name="inf_mala")


def gen_langevin(target: HilbertTarget, delta: float) -> InvolutiveKernel:
    """Generalized Langevin kernel: the preconditioned MALA proposal with an
    arbitrary surrogate force in place of ``C grad(phi)``.  The acceptance
    step removes the surrogate bias."""
    if target.surrogate_f is None:
        raise ConfigurationError("gen_langevin requires an explicit surrogate force")
    return _langevin_kernel(target, delta, name="gen_langevin")


def inf_hmc(
    target: HilbertTarget,
    aux: AuxLaw,
    delta1: float,
    delta2: float | None = None,
    n: int = 1,
) -> InvolutiveKernel:
    """Preconditioned HMC over the Gaussian reference (the general splitting
    scheme).  The classical instance uses ``delta1 = delta/2`` and
    ``delta2 = delta``; one step with the Langevin step sizes recovers the
    preconditioned MALA kernel.  ``delta2`` is the rotation angle and
    defaults to ``2 * delta1``.  It may be negative: a rotation run backwards
    is still reversible, so the momentum flip still makes it an involution.
    A zero rotation step is rejected (the chain could never move)."""
    require_finite(delta1=delta1, delta2=delta2)
    require_count(n=n)
    if delta1 < 0:
        raise ConfigurationError("delta1 must be nonnegative")
    if delta2 is None:
        delta2 = 2.0 * delta1
    if delta2 == 0:
        raise ConfigurationError("rotation step delta2 must be nonzero: the chain could never move")
    return _strang_kernel(target, aux, float(delta1), float(delta2), n, "inf_hmc")


# ---------------------------------------------------------------------------
# Diagnostics attached to the function-space construction


@dataclass(frozen=True)
class RefinementProbeReport:
    """Medians of the divergence statistics per truncation dimension."""

    dims: tuple[int, ...]
    naive_shift_sq_norm: tuple[float, ...]
    strang_abs_log_rn: tuple[float, ...]


def leapfrog_refinement_probe(
    make_target: Callable[[int], HilbertTarget],
    delta: float,
    d_sequence: Sequence[int],
    n_draws: int = 100,
    rng: np.random.Generator | None = None,
) -> RefinementProbeReport:
    """Contrast the naive leapfrog splitting with the Strang scheme under
    mesh refinement.

    The naive splitting shifts the velocity by ``-t (q + f(q))``; its
    Cameron-Martin squared shift norm ``|C^{-1/2}(q + f(q))|^2`` diverges as
    the truncation dimension grows for draws ``q`` from the reference,
    while the ``|log_rn|`` of the Strang kernel stays bounded.  Reports the
    median of both statistics per dimension.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    dims = tuple(int(d) for d in d_sequence)
    naive, strang = [], []
    for d in dims:
        target = make_target(d)
        ref, f = target.reference, target.force()
        naive_stats, log_rns = np.empty(n_draws), np.empty(n_draws)
        for i in range(n_draws):
            z = _point((ref.sample(rng), ref.sample(rng), None))
            naive_stats[i] = ref.cm_sq_norm(z.q + np.asarray(f(z.q), dtype=float))
            log_rns[i] = hilbert_log_rn(target, AuxLaw(), delta / 2.0, delta, 1, z)
        naive.append(float(np.median(naive_stats)))
        strang.append(float(np.median(np.abs(log_rns))))
    return RefinementProbeReport(dims, tuple(naive), tuple(strang))


def validate_aux_normalization(
    target: HilbertTarget,
    aux: AuxLaw,
    q: np.ndarray,
    rng: np.random.Generator,
    n_draws: int = 10_000,
) -> tuple[float, float]:
    """Monte Carlo estimate (value, standard error) of the auxiliary
    normalization ``int exp(-H~(q, v)) mu0(dv)``, which must equal one.
    Offered as a validation hook for user-supplied laws; not enforced."""
    ref = target.reference
    values = np.empty(n_draws)
    memo = {}
    for i in range(n_draws):
        v = ref.sample(rng)
        values[i] = math.exp(-aux.h_tilde(ref, _point((q, v, memo))))
    return float(values.mean()), float(values.std(ddof=1) / math.sqrt(n_draws))


def quartic_bounded_phi(dim: int) -> TargetPotential:
    """The smooth, bounded-below potential ``|q|^4 / (2 (1 + |q|^2))`` used
    throughout the statistical checks."""

    def eval_(q: np.ndarray) -> float:
        s = float(np.sum(q**2))
        return 0.5 * s * s / (1.0 + s)

    def grad(q: np.ndarray) -> np.ndarray:
        s = float(np.sum(q**2))
        return q * (s * (s + 2.0) / (1.0 + s) ** 2)

    return TargetPotential(eval=eval_, grad=grad)


def default_hilbert_target(d: int, c: float = 1.0, p: float = 2.0) -> HilbertTarget:
    """Quartic-bounded target over a power-law reference, the workhorse of
    the test suite."""
    return HilbertTarget(
        phi=quartic_bounded_phi(d),
        reference=SpectralGaussian(power_law_eigenvalues(d, c=c, p=p)),
    )
