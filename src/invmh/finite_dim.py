"""Involutive kernels for densities on R^d: random walk, MALA, HMC with
quadratic / relativistic / position-dependent kinetic energies, and fully
parameterized surrogate-dynamics HMC.

Each constructor wires a proposal integrator, the matching auxiliary law and
the closed-form log Radon-Nikodym derivative into an
:class:`~invmh.core.InvolutiveKernel`.  For volume-preserving integrators the
log-RN is the energy difference ``H(z) - H(S(z))``; the general path adds the
numerically computed ``log |det grad S_hat|``.  MALA, HMC and relativistic
HMC are :func:`surrogate_hmc` with the exact force and their own momentum
law; RWMC is the pure drift ``(q, v) -> (q + v, v)`` with the same energy
form.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import (
    AuxiliaryKernel,
    ConfigurationError,
    ExtendedPoint,
    Involution,
    InvolutiveKernel,
    TargetPotential,
    _least,
    _max_abs,
    _point,
    require_count,
    require_finite,
    require_vector,
)
from . import integrators
from .integrators import (
    DivergenceError,
    FixedPointError,
    leapfrog,
    numerical_logdet_jacobian,
    palindromic_compose,
    stormer_verlet,  # noqa: F401  perfbench/tracing.py wraps finite_dim.stormer_verlet
)

__all__ = [
    "HmcConfig",
    "PositionMetric",
    "SamplerError",
    "gaussian_jump",
    "gaussian_momentum",
    "diagonal_quadratic_metric",
    "rwmc",
    "mala",
    "mala_log_accept_ratio",
    "hmc",
    "relativistic_hmc",
    "relativistic_kinetic",
    "relativistic_kinetic_grad",
    "rmhmc",
    "surrogate_hmc",
]


# The most coordinates (2 * dim) for which surrogate_hmc's general path
# computes the Jacobian by finite differences.
JACOBIAN_CAP = 10


class SamplerError(RuntimeError):
    """An auxiliary sampler failed (e.g. rejection cap exhausted)."""


@dataclass(frozen=True)
class HmcConfig:
    """Step-size and trajectory-length parameters shared by the HMC-family
    constructors.

    ``delta`` sets the leapfrog pair ``(delta/2, delta)``; ``delta1`` and
    ``delta2`` override the kick and drift steps individually.  They may be
    negative: a time-reversed leapfrog is still reversible, so the momentum
    flip still makes it an involution.  A zero drift step is rejected (the
    chain could never move), a zero kick step is not (a random walk).
    """

    delta: float
    n: int = 1
    delta1: float | None = None
    delta2: float | None = None

    def __post_init__(self):
        require_finite(delta=self.delta, delta1=self.delta1, delta2=self.delta2)
        require_count(n=self.n)
        if self.delta1 is None and self.delta <= 0:
            raise ConfigurationError("step size delta must be positive")
        if self.steps()[1] == 0:
            raise ConfigurationError("drift step must be nonzero: the chain could never move")

    def steps(self) -> tuple[float, float]:
        d1 = self.delta / 2.0 if self.delta1 is None else self.delta1
        d2 = self.delta if self.delta2 is None else self.delta2
        return float(d1), float(d2)


class _SPD:
    """A symmetric positive definite matrix ``A``, factorized once: the
    identity (``value=None``), a positive vector (diagonal) or a dense
    matrix.  It draws from N(0, A) (``sample(rng)``) and gives
    ``A^{-1} v`` (``inv_apply(v)``), the half quadratic form
    ``<A^{-1} v, v> / 2`` and the half log-determinant.  ``sample`` and
    ``inv_apply`` are bound to the matrix's kind when it is built.

    ``error`` is raised when ``value`` is not SPD (a NaN diagonal entry is
    not positive) or not of dimension ``dim``: :class:`ConfigurationError`
    for a constant mass, which fails at construction, :class:`DivergenceError`
    for a metric, which rejects the step that met it.  A constant mass is
    checked for finiteness where it enters; a non-finite metric entry makes
    the energy non-finite, which rejects the step."""

    def __init__(self, value: np.ndarray | None, dim: int, error: type[Exception]):
        self._half_logdet = None
        if value is None:
            self.sample = lambda rng: rng.standard_normal(dim)
            self.inv_apply = lambda v: v
            self._half_logdet = 0.0
            return
        value = np.asarray(value, dtype=float)
        if value.ndim == 1:
            # A NaN entry is not > 0.
            if value.shape != (dim,) or not _least(value) > 0:
                raise error(f"diagonal matrix is not positive and of shape ({dim},)")
            self.diag, root = value, np.sqrt(value)
            self.sample = lambda rng: root * rng.standard_normal(dim)
            self.inv_apply = value.__rtruediv__  # v -> v / value
            self._log_terms = (0.5, value)
        elif value.shape == (dim, dim):
            try:
                chol = np.linalg.cholesky(value)
            except np.linalg.LinAlgError as exc:
                raise error("matrix is not positive definite") from exc
            self.sample = lambda rng: chol @ rng.standard_normal(dim)
            self.inv_apply = np.linalg.inv(value).__matmul__  # v -> inverse @ v
            self._log_terms = (1.0, np.diag(chol))
        else:
            raise error(f"expected a ({dim},) vector or a ({dim}, {dim}) matrix")

    def half_quad(self, v: np.ndarray) -> float:
        return 0.5 * float(v.dot(self.inv_apply(v)))  # v @ A^{-1} v, without matmul's dispatch

    def half_logdet(self) -> float:
        """Half the sum of the logs of the diagonal, or the sum of those of
        the Cholesky factor's diagonal; computed once."""
        if self._half_logdet is None:
            weight, entries = self._log_terms
            self._half_logdet = weight * float(np.add.reduce(np.log(entries)))
        return self._half_logdet


def _kinetic_law(
    draw: Callable, kinetic: Callable[[np.ndarray], float], dim: int, gaussian_noise: bool = False
) -> AuxiliaryKernel:
    """The position-free law of density ``exp(-kinetic(v))``, up to a
    constant, with draws ``draw(rng)`` of length ``dim``; ``gaussian_noise``
    as declared by :class:`AuxiliaryKernel`."""
    return AuxiliaryKernel(
        sample=lambda z, rng: draw(rng), log_density_terms=lambda z: -kinetic(z.v), dim=dim,
        gaussian_noise=gaussian_noise,
    )


def _check_aux_dim(aux: AuxiliaryKernel, dim: int) -> None:
    """Rejects a law that does not draw ``(dim,)`` velocities, which would
    otherwise crash the chain at its first step.  A declared ``aux.dim`` is
    compared without a draw; an undeclared law is drawn from once, at the
    origin, with a generator of its own (not the chain's)."""
    drawn = (aux.dim,) if aux.dim is not None else np.shape(
        aux.sample(_point((np.zeros(dim), None, {})), np.random.default_rng(0))
    )
    if drawn != (dim,):
        raise ConfigurationError(f"the auxiliary law draws {drawn} velocities, not ({dim},)")


def gaussian_momentum(dim: int, mass: np.ndarray | None = None) -> AuxiliaryKernel:
    """Position-independent Gaussian momentum law N(0, M)."""
    require_count(dim=dim)
    require_finite(mass=mass)
    mass = _SPD(mass, dim, ConfigurationError)
    return _kinetic_law(mass.sample, mass.half_quad, dim, gaussian_noise=True)


def _energy_involution(
    target: TargetPotential,
    aux: AuxiliaryKernel,
    integrator: Callable[[ExtendedPoint], ExtendedPoint],
    logdet: Callable[[ExtendedPoint], float] | None = None,
) -> Involution:
    """Involution ``S = flip . integrator`` with the energy-difference log-RN
    of ``H(z) = U(q) - aux.log_density_terms(z)``.

    ``logdet`` supplies ``log |det grad integrator|`` for schemes that are
    not certified volume-preserving.  ``H`` reads position-only work through
    the point's memo; the image always carries a memo, so a chain that moves
    there reuses what was computed at it.
    """

    potential, terms = target.eval, aux.log_density_terms

    def flip_and_energy(z: ExtendedPoint) -> tuple[ExtendedPoint, float]:
        end = integrator(z)
        image = _point((end.q, -end.v, {} if end.memo is None else end.memo))
        value = (z.cached(potential) - terms(z)) - (image.cached(potential) - terms(image))
        if logdet is not None:
            value += logdet(z)
        return image, value

    return Involution(flip_and_energy)


# ---------------------------------------------------------------------------
# Random walk


def gaussian_jump(dim: int, scale=1.0) -> AuxiliaryKernel:
    """Isotropic (or per-coordinate) Gaussian jump law N(0, diag(scale^2))."""
    require_count(dim=dim)
    scale = require_vector("scale", scale, dim)
    if np.any(scale <= 0):
        raise ConfigurationError("jump scale must be positive")
    return _kinetic_law(
        lambda rng: scale * rng.standard_normal(dim),
        lambda v: 0.5 * float(np.add.reduce((v / scale) ** 2)),
        dim,
        gaussian_noise=True,
    )


def rwmc(
    target: TargetPotential,
    dim: int,
    jump: AuxiliaryKernel | None = None,
    scale=None,
) -> InvolutiveKernel:
    """Random walk Metropolis via the involution ``S(q, v) = (q + v, -v)``:
    the drift ``(q, v) -> (q + v, v)`` followed by the momentum flip.

    The jump law is ``jump``, any auxiliary law ``p(v | q)`` (it may depend
    on the position), or else ``gaussian_jump(dim, scale)``, with ``scale``
    1 when omitted and rejected next to a ``jump``.  The acceptance ratio is
    the energy difference ``1 ∧ exp(H(q, v) - H(q + v, -v))`` with
    ``H(q, v) = U(q) - log p(v | q)``; for a symmetric position-free jump
    law the jump terms cancel and the classical Metropolis rule remains.
    """
    require_count(dim=dim)
    if jump is None:
        jump = gaussian_jump(dim, 1.0 if scale is None else scale)
    elif scale is not None:
        raise ConfigurationError("pass either a jump law or a scale, not both")
    else:
        _check_aux_dim(jump, dim)
    involution = _energy_involution(target, jump, lambda z: _point((z.q + z.v, z.v, None)))
    return InvolutiveKernel(target=target, aux=jump, involution=involution, dim=dim, name="rwmc")


# ---------------------------------------------------------------------------
# MALA and HMC with quadratic kinetic energy


def _require_grad(target: TargetPotential) -> Callable[[np.ndarray], np.ndarray]:
    if target.grad is None:
        raise ConfigurationError("this sampler requires a target gradient")
    return target.grad


def _exact_force(target: TargetPotential) -> Callable[[np.ndarray], np.ndarray]:
    grad = _require_grad(target)
    return lambda q: -np.asarray(grad(q), dtype=float)


def mala(target: TargetPotential, delta: float, dim: int) -> InvolutiveKernel:
    """Metropolis-adjusted Langevin: one leapfrog step of the unit-mass
    Hamiltonian composed with the momentum flip.

    The proposal is the explicit Euler-Maruyama move
    ``q - (delta^2/2) grad U(q) + delta v`` with ``v ~ N(0, I)``, and the
    energy-difference acceptance coincides with the classical MALA ratio.
    It is :func:`hmc` with ``n = 1`` and unit mass.
    """
    return replace(hmc(target, HmcConfig(delta=delta), dim), name="mala")


def mala_log_accept_ratio(
    target: TargetPotential, delta: float, q: np.ndarray, q_tilde: np.ndarray
) -> float:
    """Classical MALA log acceptance ratio written in terms of the current
    and proposed positions (the two-argument Hastings form)."""
    grad = _require_grad(target)
    dsq = delta * delta
    forward = q_tilde - q + 0.5 * dsq * np.asarray(grad(q), dtype=float)
    backward = q - q_tilde + 0.5 * dsq * np.asarray(grad(q_tilde), dtype=float)
    return (
        target.eval(q)
        - target.eval(q_tilde)
        + float(forward @ forward) / (2.0 * dsq)
        - float(backward @ backward) / (2.0 * dsq)
    )


def hmc(
    target: TargetPotential, cfg: HmcConfig, dim: int, mass: np.ndarray | None = None
) -> InvolutiveKernel:
    """Hamiltonian Monte Carlo with quadratic kinetic energy N(0, M).

    ``mass`` M is a diagonal (1-d) or dense SPD (2-d) matrix, the identity
    when omitted.  Leapfrog trajectories of ``H = U(q) + <M^{-1} v, v>/2``;
    since the integrator is volume-preserving and H is even in ``v``, the
    acceptance probability is ``1 ∧ exp(H(z) - H(S_hat(z)))``.  It is
    :func:`surrogate_hmc` with the exact force ``-grad U`` and momenta
    N(0, M)."""
    require_finite(mass=mass)
    mass = _SPD(mass, dim, ConfigurationError)
    return surrogate_hmc(
        target, _kinetic_law(mass.sample, mass.half_quad, dim, gaussian_noise=True), cfg,
        f1=mass.inv_apply, f2=_exact_force(target), dim=dim, name="hmc",
    )


# ---------------------------------------------------------------------------
# Relativistic kinetic energy


def relativistic_kinetic(m: float, c: float, v: np.ndarray) -> float:
    """``m c^2 sqrt(|v|^2 / (m^2 c^2) + 1)``; equals ``m c^2`` at rest."""
    r2 = float(np.add.reduce(np.asarray(v) ** 2))
    return m * c * c * math.sqrt(r2 / (m * m * c * c) + 1.0)


def relativistic_kinetic_grad(m: float, c: float, v: np.ndarray) -> np.ndarray:
    """Gradient of the relativistic kinetic energy, an odd function of ``v``
    approaching ``v / m`` in the ``c -> inf`` limit."""
    v = np.asarray(v, dtype=float)
    r2 = float(np.add.reduce(v**2))
    return v / (m * math.sqrt(r2 / (m * m * c * c) + 1.0))


def _relativistic_envelope(dim: int, m: float, c: float) -> tuple[float, float]:
    """Envelope rate ``kappa`` and log-bound of the relativistic momentum
    sampler: the ``kappa`` that maximizes its acceptance rate, which (by
    quadrature) is then above 0.76 for every dim from 1 to 1000 and
    (m, c) = (1, 1), (1, 3), (10, 1)."""
    kappa = c * math.sqrt(2.0 * dim / (dim + math.sqrt(dim * dim + 4.0 * (m * c * c) ** 2)))
    return kappa, -m * c * math.sqrt(c * c - kappa * kappa)


def _relativistic_momentum_sampler(
    dim: int, m: float, c: float, max_attempts: int = 1000
) -> Callable[[np.random.Generator], np.ndarray]:
    """Exact sampler for the density 1/Z exp(-K(v)) by rejection.

    In terms of the radius, ``K = c sqrt(m^2 c^2 + r^2)``.  Envelope:
    uniform direction with Gamma(dim, 1/kappa) radius, ``0 < kappa <= c``.
    The log ratio ``kappa r - c sqrt(m^2 c^2 + r^2)`` is at most
    ``-m c sqrt(c^2 - kappa^2)``, its value at ``r = m c kappa /
    sqrt(c^2 - kappa^2)``, an exact closed-form bound.
    """
    kappa, log_bound = _relativistic_envelope(dim, m, c)

    def sample(rng: np.random.Generator) -> np.ndarray:
        for _ in range(max_attempts):
            r = rng.gamma(dim, 1.0 / kappa)
            direction = rng.standard_normal(dim)
            norm = math.sqrt(direction.dot(direction))
            if norm == 0.0 or r == 0.0:
                continue
            log_accept = kappa * r - c * math.sqrt((m * c) ** 2 + r * r) - log_bound
            u = rng.random()
            if math.log(max(u, 1e-300)) < log_accept:
                return (r / norm) * direction
        raise SamplerError(
            f"relativistic momentum sampler exhausted {max_attempts} rejection attempts"
        )

    return sample


def relativistic_hmc(
    target: TargetPotential, m: float, c: float, cfg: HmcConfig, dim: int
) -> InvolutiveKernel:
    """HMC with the relativistic kinetic energy (bounded velocity field).

    The drift field is the kinetic gradient ``grad K``, an odd function, so
    the leapfrog stays momentum-flip reversible and the energy-difference
    acceptance applies with ``H = U + K``.  It is :func:`surrogate_hmc` with
    the exact force and momenta of density proportional to ``exp(-K)``."""
    require_finite(m=m, c=c)
    if m <= 0 or c <= 0:
        raise ConfigurationError("relativistic parameters m, c must be positive")
    require_count(dim=dim)
    kinetic = functools.partial(relativistic_kinetic, m, c)
    aux = _kinetic_law(_relativistic_momentum_sampler(dim, m, c), kinetic, dim)
    return surrogate_hmc(
        target, aux, cfg, f1=functools.partial(relativistic_kinetic_grad, m, c),
        f2=_exact_force(target), dim=dim, name="relativistic_hmc",
    )


# ---------------------------------------------------------------------------
# Riemannian-manifold HMC (position-dependent mass)


@dataclass(frozen=True)
class PositionMetric:
    """Position-dependent SPD mass matrix with the derivative terms the
    implicit integrator needs.

    ``matrix(q)`` returns either a positive vector (diagonal metric) or a
    dense SPD matrix.  ``grad_quad_form(q, v)`` is
    ``grad_q (1/2) <M(q)^{-1} v, v>`` and ``grad_half_logdet(q)`` is
    ``grad_q (1/2) log det M(q)``; no automatic differentiation is done.

    ``grad_quad_form_bound``, optional, applies to elementwise metrics only
    (``M(q)`` diagonal with ``M_kk`` a function of ``q_k`` alone, so that
    ``grad_quad_form(q, v) = D(q) * v**2``): it claims
    ``|D_k(q)| <= grad_quad_form_bound`` for every ``q`` and ``k``.
    :func:`rmhmc` then skips the reverse-step replay of the steps the bound
    certifies (see :func:`~invmh.integrators.stormer_verlet`); a bound that
    is too small can let through a step that its reverse step would not
    undo.  Other metrics ignore it.
    """

    matrix: Callable[[np.ndarray], np.ndarray]
    grad_quad_form: Callable[[np.ndarray, np.ndarray], np.ndarray]
    grad_half_logdet: Callable[[np.ndarray], np.ndarray]
    grad_quad_form_bound: float | None = None

    def __post_init__(self):
        require_finite(grad_quad_form_bound=self.grad_quad_form_bound)
        if self.grad_quad_form_bound is not None and self.grad_quad_form_bound < 0:
            raise ConfigurationError("grad_quad_form_bound must be >= 0")


def diagonal_quadratic_metric() -> PositionMetric:
    """The metric ``M(q) = diag(1 + q_i^2)`` with analytic derivatives;
    ``|D(q)| = |q| / (1 + q^2)^2`` peaks at ``9 / (16 sqrt 3) < 0.325``."""
    return PositionMetric(
        matrix=lambda q: 1.0 + q**2,
        grad_quad_form=lambda q, v: -(v**2) * q / (1.0 + q**2) ** 2,
        grad_half_logdet=lambda q: q / (1.0 + q**2),
        grad_quad_form_bound=0.325,
    )


def _spread(dim: int, shift: float) -> np.ndarray:
    """``dim`` distinct values in [-1, 1), a golden-ratio sequence: probe
    points that need no random generator (and no import of numpy.random)
    at kernel construction."""
    return 2.0 * ((np.arange(1, dim + 1) * 0.6180339887498949 + shift) % 1.0) - 1.0


def _is_elementwise(metric: PositionMetric, dim: int) -> bool:
    """Whether ``M(q)`` is diagonal with ``M_kk`` a function of ``q_k`` alone,
    judged at a few probe points.  ``grad_quad_form(q, v)`` is then
    ``D(q) * v**2`` with ``D(q) = grad_quad_form(q, 1)``, and the Jacobians
    of RMHMC's implicit steps are diagonal.  A wrong verdict costs speed,
    not correctness: Euler-B is solved in closed form only at positions
    where the form of ``grad_quad_form`` is confirmed, and elsewhere ``D``
    only preconditions Newton's method."""
    ones = np.ones(dim)
    with np.errstate(all="ignore"):
        for shift in (0.1, 0.4, 0.7):
            q, v = 2.0 * _spread(dim, shift), 1.5 + _spread(dim, shift + 0.5)
            if np.asarray(metric.matrix(q)).ndim != 1:
                return False
            full = np.asarray(metric.grad_quad_form(q, v), dtype=float)
            split = np.asarray(metric.grad_quad_form(q, ones), dtype=float) * v * v
            if not np.allclose(full, split, rtol=1e-9, atol=1e-12):
                return False
    return True


def rmhmc(
    target: TargetPotential,
    metric: PositionMetric,
    delta: float,
    n: int,
    dim: int,
) -> InvolutiveKernel:
    """Riemannian-manifold HMC: N(0, M(q)) momenta and the generalized
    Stormer-Verlet integrator for the non-separable dynamics.

    ``H = U(q) + <M(q)^{-1} v, v>/2 + log det M(q) / 2``; the implicit
    scheme is momentum-flip reversible and volume-preserving for this
    Hamiltonian structure, so the energy form of the acceptance applies.
    Implicit-solver failures and loss of positive definiteness along the
    trajectory reject the step, and so does a step that its reverse step
    would not undo (see :func:`~invmh.integrators.stormer_verlet`), so
    ``S(S(z)) = z`` for every step that is not rejected.  For a diagonal
    metric whose entries each depend on their own coordinate, Euler-A's
    position equation is solved by simplified Newton and Euler-B's velocity
    equation in closed form, at a cost per step that does not grow with
    ``dim``; otherwise both by fixed-point iteration.  Such a metric with a
    ``grad_quad_form_bound`` B skips the replay of a step when
    ``c = 2 B (delta/2) max |v| < 1/3`` at its Euler-B velocity ``v`` and
    Euler-B's closed form applies at its endpoint: the reverse position map
    then has slope at most ``c`` everywhere, its Newton solve contracts by
    at most ``2c / (1 - c) < 1``, and the reverse velocity root is the one
    the closed form returns.
    """
    grad = _require_grad(target)
    require_finite(delta=delta)
    require_count(n=n, dim=dim)
    if delta <= 0:
        raise ConfigurationError("rmhmc requires delta > 0")

    def metric_ops(q: np.ndarray) -> _SPD:
        return _SPD(metric.matrix(q), dim, DivergenceError)

    def static_force(q: np.ndarray) -> np.ndarray:
        """The part of ``-f2(z)`` that does not depend on ``z.v``."""
        return np.asarray(grad(q), dtype=float) + np.asarray(
            metric.grad_half_logdet(q), dtype=float
        )

    def f1(z: ExtendedPoint) -> np.ndarray:
        # Mostly evaluated at the iterates of Euler-A's solve, each new and
        # without a memo; the Euler-B point reads the state's factorization.
        return z.cached(metric_ops).inv_apply(z.v)

    def f2(z: ExtendedPoint) -> np.ndarray:
        return -(z.cached(static_force) + np.asarray(metric.grad_quad_form(z.q, z.v), dtype=float))

    hooks = {"reverse_tol": integrators.REVERSE_TOL}
    if _is_elementwise(metric, dim):
        ones = np.ones(dim)
        probe = 1.5 + _spread(dim, 0.25)
        probe_sq = probe * probe

        def quad_diag(q: np.ndarray) -> np.ndarray:
            """``D(q)`` with ``grad_quad_form(q, v) = D(q) * v**2`` when the
            metric is elementwise at ``q``; ``d f1 / d q`` is then
            ``d (v / M) / d q = 2 v D``."""
            return np.asarray(metric.grad_quad_form(q, ones), dtype=float)

        def checked_quad_diag(q: np.ndarray):
            """``D(q)`` if ``grad_quad_form(q, .)`` is ``D(q) * v**2`` along a
            fixed direction with distinct entries, else False."""
            d = quad_diag(q)
            expected = d * probe_sq
            along = np.asarray(metric.grad_quad_form(q, probe), dtype=float)
            return d if _max_abs(along - expected) <= 1e-9 * _max_abs(expected) else False

        def velocity_root(h: float, z: ExtendedPoint) -> np.ndarray | None:
            """Euler-B's velocity equation is the quadratic
            ``v = kicked - h D v**2``; the root at which it contracts, where
            its Jacobian is ``1 - sqrt(1 + 4 h D kicked)`` (it never does at
            the other root)."""
            d = z.cached(checked_quad_diag)
            if d is False:
                return None
            kicked = z.v - h * z.cached(static_force)
            root = np.sqrt(1.0 + (4.0 * h) * d * kicked)
            contraction = _max_abs(1.0 - root)
            if not contraction < 1.0:  # also when a root is not real
                raise FixedPointError(
                    float(contraction), "implicit step does not contract at its root: bound"
                )
            return 2.0 * kicked / (1.0 + root)

        def f1(z: ExtendedPoint) -> np.ndarray:
            # M(q) > 0 is checked where the energy is evaluated, at the
            # trajectory's end; a solve through non-positive values fails
            # or ends there.  At the Euler-B point the state's memo holds
            # M(q0), factorized for the momentum draw.
            ops = None if z.memo is None else z.memo.get(metric_ops)
            return z.v / (metric.matrix(z.q) if ops is None else ops.diag)

        hooks.update(df1_dq=lambda z: 2.0 * z.v * quad_diag(z.q), velocity_root=velocity_root)
        bound = metric.grad_quad_form_bound
        if bound is not None:

            def reverse_certified(h: float, mid: ExtendedPoint, end: ExtendedPoint) -> bool:
                """Both reverse solves provably return the step's values:
                at the Euler-B velocity, their Jacobians ``2 h D v`` are at
                most ``c`` in size at every position, and Euler-B's closed
                form applies at ``end`` (which the replay and the next step
                read too)."""
                return (
                    (2.0 * bound * h) * _max_abs(mid.v) < 1.0 / 3.0
                    and end.cached(checked_quad_diag) is not False
                )

            hooks["reverse_certified"] = reverse_certified

    integrator = lambda z: integrators.stormer_verlet(n, delta, f1, f2, z, **hooks)

    def sample(z: ExtendedPoint, rng: np.random.Generator) -> np.ndarray:
        try:
            ops = z.cached(metric_ops)
        except DivergenceError as exc:  # not SPD at the state: the chain cannot step
            raise ConfigurationError(str(exc)) from exc
        return ops.sample(rng)

    def log_density_terms(z: ExtendedPoint) -> float:
        ops = z.cached(metric_ops)
        return -ops.half_quad(z.v) - ops.half_logdet()

    aux = AuxiliaryKernel(
        sample=sample, log_density_terms=log_density_terms, dim=dim, gaussian_noise=True
    )
    involution = _energy_involution(target, aux, integrator)
    return InvolutiveKernel(target=target, aux=aux, involution=involution, dim=dim, name="rmhmc")


# ---------------------------------------------------------------------------
# Fully parameterized surrogate dynamics


def _f1_is_odd(f1, dim: int, points: bool) -> bool:
    """Whether ``f1(-v) = -f1(v)`` within 1e-10 at 50 random velocities
    and, for point fields (``points``), random positions shared by the two
    points; drawn from a generator of its own."""
    rng = np.random.default_rng(0)
    for _ in range(50):
        v = rng.standard_normal(dim)
        if points:
            q, memo = rng.standard_normal(dim), {}
            plus, minus = f1(_point((q, v, memo))), f1(_point((q, -v, memo)))
        else:
            plus, minus = f1(v), f1(-v)
        plus, minus = np.asarray(plus, dtype=float), np.asarray(minus, dtype=float)
        if not np.all(np.isfinite(plus)) or np.max(np.abs(plus + minus)) > 1e-10:
            return False
    return True


def surrogate_hmc(
    target: TargetPotential,
    aux: AuxiliaryKernel,
    cfg: HmcConfig,
    f1=None,
    f2=None,
    f1_odd: bool = False,
    scheme: str = "leapfrog",
    stages=None,
    volume_preserving: bool = True,
    dim: int | None = None,
    name: str = "surrogate_hmc",
) -> InvolutiveKernel:
    """HMC-style kernel with arbitrary surrogate force fields.

    ``scheme`` selects the integrator: ``"leapfrog"`` (separable ``f1(v)``,
    ``f2(q)``), ``"stormer_verlet"`` (point fields ``f1(z)``, ``f2(z)``,
    which may read position-only work through ``z.cached``, shared per
    position; a step its reverse step would not undo is rejected) or
    ``"palindrome"`` (explicit ``stages`` of (flow, t), repeated ``cfg.n``
    times).  The Stormer-Verlet scheme steps with ``cfg.delta`` and the
    palindrome with its stages' times; both reject a config that sets
    ``delta1`` or ``delta2``, and the palindrome rejects ``f1`` and ``f2``.
    The caller vouches for the parity of ``f1``, odd in ``v`` for
    momentum-flip reversibility; ``f1_odd=True`` declares it, and it is then
    spot-checked at construction (which requires ``dim``).  With ``dim``,
    ``aux`` must draw ``(dim,)`` velocities: a declared ``aux.dim`` is
    compared, an undeclared law is drawn from once at the origin.

    With ``volume_preserving=True`` the acceptance uses the energy
    difference of ``H(z) = U(q) - aux.log_density_terms(z)``; the
    surrogate fields may then disagree with ``grad H`` arbitrarily, the
    accept-reject step corrects the bias.  Otherwise the Jacobian factor is
    computed by finite differences, which requires ``dim`` and
    ``2 * dim <= JACOBIAN_CAP``.
    """
    if dim is not None:
        require_count(dim=dim)
        _check_aux_dim(aux, dim)
    d1, d2 = cfg.steps()
    if scheme in ("leapfrog", "stormer_verlet") and (f1 is None or f2 is None):
        raise ConfigurationError(f"{scheme} scheme requires f1 and f2")
    if scheme == "palindrome" and (f1 is not None or f2 is not None or f1_odd):
        raise ConfigurationError("the palindrome scheme does not read f1, f2 or f1_odd")
    if f1_odd:
        if dim is None:
            raise ConfigurationError("a declared odd f1 is spot-checked, which requires dim")
        if not _f1_is_odd(f1, dim, points=scheme == "stormer_verlet"):
            raise ConfigurationError("declared parity f1(-v) = -f1(v) fails a spot check")
    sets_steps = cfg.delta1 is not None or cfg.delta2 is not None
    if sets_steps and scheme in ("stormer_verlet", "palindrome"):
        raise ConfigurationError(f"the {scheme} scheme does not read delta1 or delta2")
    if scheme == "leapfrog":
        integrator = lambda z: leapfrog(cfg.n, d1, d2, f1, f2, z)
    elif scheme == "stormer_verlet":
        integrator = lambda z: integrators.stormer_verlet(
            cfg.n, cfg.delta, f1, f2, z, reverse_tol=integrators.REVERSE_TOL
        )
    elif scheme == "palindrome":
        if not stages:
            raise ConfigurationError("palindrome scheme requires stages")
        integrator = palindromic_compose(stages, n=cfg.n)
    else:
        raise ConfigurationError(f"unknown scheme {scheme!r}")

    logdet = None
    if not volume_preserving:
        if dim is None:
            raise ConfigurationError("the numerical-Jacobian path requires dim")
        if 2 * dim > JACOBIAN_CAP:
            raise ConfigurationError(
                f"dimension {dim} exceeds the Jacobian cap ({JACOBIAN_CAP} total coordinates)"
            )
        logdet = lambda z: numerical_logdet_jacobian(integrator, z, max_dim=JACOBIAN_CAP)

    involution = _energy_involution(target, aux, integrator, logdet=logdet)
    return InvolutiveKernel(target=target, aux=aux, involution=involution, dim=dim, name=name)
