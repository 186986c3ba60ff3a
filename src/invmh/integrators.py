"""Geometric integrator toolbox: elementary flows, palindromic compositions,
leapfrog and Strang schemes, implicit Euler-A/B and generalized
Stormer-Verlet, plus numerical Jacobian and reversibility checkers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import ExtendedPoint, ConfigurationError, IntegrationError

__all__ = [
    "DivergenceError",
    "FixedPointError",
    "FlowMap",
    "SurrogateField",
    "kick",
    "drift",
    "rotation",
    "precond_kick",
    "leapfrog",
    "strang_hilbert",
    "fixed_point_solve",
    "euler_b_step",
    "euler_a_step",
    "stormer_verlet",
    "palindromic_compose",
    "momentum_flip",
    "numerical_logdet_jacobian",
    "check_reversibility",
    "ReversibilityReport",
]

# An implicit solve stops once its last update, or an estimate of its distance
# from the exact solution, is at most FIXED_POINT_TOL in the max norm (see
# fixed_point_solve).  The rule bounds the last update; the distance is only
# estimated, and was measured exceeding 1e-12 by up to 3.1x (3.13e-12 over
# 10 012 Newton solves of RMHMC chains).
FIXED_POINT_TOL = 1e-12
FIXED_POINT_MAX_ITER = 100
# Largest distance between a Stormer-Verlet step's start and where its
# reverse step's solves land that still counts as the same root: far above
# FIXED_POINT_TOL, far below the distance between distinct roots.
REVERSE_TOL = 1e-9


class DivergenceError(IntegrationError):
    """A trajectory left the realm of finite floating point numbers."""


class FixedPointError(IntegrationError):
    """An implicit solve did not contract to tolerance; carries the last
    update residual, or the contraction bound that ruled the solve out (a
    sign the step size is too large)."""

    def __init__(self, residual: float, reason: str = "fixed-point iteration stalled at residual"):
        super().__init__(f"{reason} {residual:.3e}")
        self.residual = residual


@dataclass(frozen=True)
class FlowMap:
    """A family of invertible maps on extended phase space indexed by a
    signed time parameter; ``forward(-t, forward(t, z)) == z`` for the
    symmetric maps used here."""

    forward: Callable[[float, ExtendedPoint], ExtendedPoint]

    def __call__(self, t: float, z: ExtendedPoint) -> ExtendedPoint:
        return self.forward(t, z)


@dataclass(frozen=True)
class SurrogateField:
    """Separable surrogate force pair: ``f1`` maps velocities (the drift),
    ``f2`` maps positions (the kick).

    ``f1_odd`` declares the parity ``f1(-v) == -f1(v)`` that makes the
    leapfrog momentum-flip reversible; a declared parity is verified by a
    randomized spot check when the field is wired into a sampler.
    """

    f1: Callable[[np.ndarray], np.ndarray]
    f2: Callable[[np.ndarray], np.ndarray]
    f1_odd: bool = False

    def check_f1_odd(
        self, dim: int, rng: np.random.Generator, n_points: int = 50, tol: float = 1e-10
    ) -> bool:
        for _ in range(n_points):
            v = rng.standard_normal(dim)
            plus = np.asarray(self.f1(v), dtype=float)
            minus = np.asarray(self.f1(-v), dtype=float)
            if not np.all(np.isfinite(plus)) or np.max(np.abs(plus + minus)) > tol:
                return False
        return True


def kick(t: float, f2, z: ExtendedPoint) -> ExtendedPoint:
    """Velocity update ``(q, v) -> (q, v + t f2(q))``."""
    return ExtendedPoint(z.q, z.v + t * np.asarray(f2(z.q), dtype=float))


def drift(t: float, f1, z: ExtendedPoint) -> ExtendedPoint:
    """Position update ``(q, v) -> (q + t f1(v), v)``."""
    return ExtendedPoint(z.q + t * np.asarray(f1(z.v), dtype=float), z.v)


def rotation(t: float, z: ExtendedPoint) -> ExtendedPoint:
    """Exact flow of ``dq/dt = v, dv/dt = -q``: a rotation in each
    ``(q_i, v_i)`` plane.  Preserves ``|q|^2 + |v|^2``."""
    c, s = math.cos(t), math.sin(t)
    return ExtendedPoint(c * z.q + s * z.v, -s * z.q + c * z.v)


def precond_kick(t: float, f, z: ExtendedPoint) -> ExtendedPoint:
    """Velocity shift ``(q, v) -> (q, v - t f(q))`` used by the
    Hilbert-space Strang scheme."""
    return ExtendedPoint(z.q, z.v - t * np.asarray(f(z.q), dtype=float))


def _require_finite(z: ExtendedPoint) -> ExtendedPoint:
    if not (np.isfinite(z.q).all() and np.isfinite(z.v).all()):
        raise DivergenceError("non-finite state encountered during integration")
    return z


def leapfrog(n: int, delta1: float, delta2: float, f1, f2, z: ExtendedPoint) -> ExtendedPoint:
    """``n`` repetitions of the kick-drift-kick step with time steps
    ``delta1`` (kicks, force ``f2(q)``) and ``delta2`` (drift, velocity map
    ``f1(v)``).  Raises :class:`DivergenceError` on non-finite states.

    The force is evaluated once per position: the closing kick of a step
    and the opening kick of the next share it.  The opening force is taken
    from ``z``'s memo when there, and the endpoint's memo holds the closing
    force, so a chain's next trajectory starts without evaluating it."""
    if n < 1:
        raise ConfigurationError("leapfrog requires n >= 1")
    force = np.asarray(z.cached(f2), dtype=float)
    q, v = z.q, z.v
    for _ in range(n):
        v = v + delta1 * force
        q = q + delta2 * np.asarray(f1(v), dtype=float)
        force = np.asarray(f2(q), dtype=float)
        v = v + delta1 * force
        if not (np.isfinite(q).all() and np.isfinite(v).all()):
            raise DivergenceError("non-finite state encountered during integration")
    return ExtendedPoint(q, v, {f2: force})


def strang_hilbert(
    n: int, delta1: float, delta2: float, f, z: ExtendedPoint
) -> tuple[ExtendedPoint, list[ExtendedPoint]]:
    """Strang splitting of the preconditioned dynamics: ``n`` repetitions of
    ``precond_kick(delta1) . rotation(delta2) . precond_kick(delta1)``.

    Returns the endpoint together with the whole-step trajectory
    ``[z_0, z_1, ..., z_n]`` (length ``n + 1``); the closed-form
    Radon-Nikodym evaluator consumes every intermediate state."""
    if n < 1:
        raise ConfigurationError("strang_hilbert requires n >= 1")
    trajectory = [z]
    for _ in range(n):
        z = precond_kick(delta1, f, z)
        z = rotation(delta2, z)
        z = _require_finite(precond_kick(delta1, f, z))
        trajectory.append(z)
    return z, trajectory


def fixed_point_solve(step_map, x0: np.ndarray, slope=None) -> np.ndarray:
    """Solve ``x = step_map(x)`` starting from ``x0``.

    Without ``slope``: plain fixed-point iteration ``x <- step_map(x)``.
    With ``slope(x)``, the diagonal Jacobian of ``step_map`` at ``x`` as a
    vector: simplified Newton, ``x <- x + (step_map(x) - x) / (1 - J)``
    with ``J = slope(x0)`` (Hairer, Lubich & Wanner, *Geometric Numerical
    Integration*, VIII.6).  :class:`FixedPointError` is raised unless
    ``step_map`` contracts at ``x0``, ``max |J| < 1``.  Newton may still
    converge to a root where ``step_map`` expands, which plain iteration
    never reaches; an involution built on the solve has to check that its
    reverse step comes back (see :func:`stormer_verlet`).

    Stops once the last update ``u`` has ``|u| <= FIXED_POINT_TOL`` (max
    norm) or, from the third update on, once the estimated distance to the
    solution ``theta / (1 - theta) |u|``, with
    ``theta = |u| / |previous update|``, is that small; no update is spent
    only to confirm convergence.  (A Newton solve's first update shrinks the
    error much more than later ones do.)  The rule bounds the last update
    by FIXED_POINT_TOL and only estimates the distance to the solution: over
    10 012 Newton position solves of RMHMC chains (d = 2, delta 0.3 to 2)
    the estimate was exceeded by up to 3.1x (3.13e-12).  Raises :class:`FixedPointError`
    after FIXED_POINT_MAX_ITER updates and :class:`DivergenceError` on a
    non-finite update.
    """
    scale = None
    if slope is not None:
        jacobian = slope(x0)
        bound = float(np.abs(jacobian).max())
        if not bound < 1.0:
            raise FixedPointError(bound, "implicit step does not contract at its start: bound")
        scale = 1.0 / (1.0 - jacobian)
    x = x0
    previous = math.inf
    for updates in range(1, FIXED_POINT_MAX_ITER + 1):
        fx = step_map(x)
        if scale is None:
            size = np.abs(fx - x).max()
            x = fx
        else:
            update = scale * (fx - x)
            size = np.abs(update).max()
            x = x + update
        if not math.isfinite(size):
            raise DivergenceError("implicit solve diverged")
        if size <= FIXED_POINT_TOL or (
            updates >= 3 and size * size <= FIXED_POINT_TOL * (previous - size)
        ):
            return x
        previous = size
    raise FixedPointError(float(size))


def _solve_velocity(delta, f2, q0, v0, velocity_root=None) -> np.ndarray:
    """The velocity ``v = v0 + delta f2(q0, v)`` of an Euler-B step."""
    if velocity_root is not None:
        v = velocity_root(delta, q0, v0)
        if v is not None:
            return v

    def update(v: np.ndarray) -> np.ndarray:
        return v0 + delta * np.asarray(f2(q0, v), dtype=float)

    return fixed_point_solve(update, update(v0))


def _solve_position(delta, f1, q0, v0, df1_dq=None) -> np.ndarray:
    """The position ``q = q0 + delta f1(q, v0)`` of an Euler-A step."""

    def update(q: np.ndarray) -> np.ndarray:
        return q0 + delta * np.asarray(f1(q, v0), dtype=float)

    slope = None if df1_dq is None else lambda q: delta * df1_dq(q, v0)
    return fixed_point_solve(update, update(q0), slope)


def euler_b_step(delta: float, f1, f2, z: ExtendedPoint, velocity_root=None) -> ExtendedPoint:
    """One implicit Euler-B step: solve
    ``q = q0 + delta f1(q0, v), v = v0 + delta f2(q0, v)``
    (fields evaluated at the old position and the new velocity).

    Only the velocity equation is implicit.  ``velocity_root(delta, q0,
    v0)``, when given, returns its solution exactly (in closed form, say),
    which must be its only root at which the update map contracts; it
    raises :class:`FixedPointError` when there is none, and returns None
    when it cannot solve the equation at ``q0``.  Otherwise the equation is
    solved by plain :func:`fixed_point_solve` iteration from the explicit
    Euler update, so the returned velocity is within an estimated
    FIXED_POINT_TOL of the solution.  The position follows explicitly."""
    v = _solve_velocity(delta, f2, z.q, z.v, velocity_root)
    q = z.q + delta * np.asarray(f1(z.q, v), dtype=float)
    return _require_finite(ExtendedPoint(q, v))


def euler_a_step(delta: float, f1, f2, z: ExtendedPoint, df1_dq=None) -> ExtendedPoint:
    """One implicit Euler-A step: solve
    ``q = q0 + delta f1(q, v0), v = v0 + delta f2(q, v0)``
    (fields at the new position and the old velocity); implicit in the
    position only, which is solved like Euler-B's velocity (within an
    estimated FIXED_POINT_TOL, by simplified Newton when ``df1_dq(q, v)``,
    the diagonal Jacobian of ``f1`` in ``q``, is given) from the explicit Euler
    update.  Numerically the adjoint of Euler-B:
    ``euler_a(delta) == inverse(euler_b(-delta))``."""
    q = _solve_position(delta, f1, z.q, z.v, df1_dq)
    v = z.v + delta * np.asarray(f2(q, z.v), dtype=float)
    return _require_finite(ExtendedPoint(q, v))


def stormer_verlet(
    n: int,
    delta: float,
    f1,
    f2,
    z: ExtendedPoint,
    df1_dq=None,
    velocity_root=None,
    reverse_tol: float | None = None,
) -> ExtendedPoint:
    """Generalized Stormer-Verlet: ``n`` repetitions of
    ``euler_a(delta/2) . euler_b(delta/2)``; ``df1_dq`` and
    ``velocity_root`` are passed to the two steps.

    Reduces to :func:`leapfrog` with ``delta1 = delta/2, delta2 = delta``
    when ``f1`` depends only on ``v`` and ``f2`` only on ``q``.

    For ``f1`` odd and ``f2`` even in ``v`` the scheme is reversible under
    the momentum flip ``R``: the equations of the step from ``R S(z)`` have
    ``R z`` among their solutions.  Its solves may still reach other roots
    (Euler-A's position equation can have several contracting roots) or
    none, and then ``R S R S(z) != z``.  With ``reverse_tol`` each step also
    replays the two solves of its reverse step, the second from this step's
    intermediate point (where the reverse step's first solve and explicit
    update land, to within the solver tolerance), and raises
    :class:`FixedPointError` unless they land within ``reverse_tol`` of this
    step's intermediate velocity and start position: every returned step is
    undone by its reverse step."""
    if n < 1:
        raise ConfigurationError("stormer_verlet requires n >= 1")
    half = delta / 2.0
    for _ in range(n):
        q0 = z.q
        v = _solve_velocity(half, f2, q0, z.v, velocity_root)
        q_mid = q0 + half * np.asarray(f1(q0, v), dtype=float)
        q = _solve_position(half, f1, q_mid, v, df1_dq)
        v_end = v + half * np.asarray(f2(q, v), dtype=float)
        if not (np.isfinite(q).all() and np.isfinite(v_end).all()):
            raise DivergenceError("non-finite state encountered during integration")
        if reverse_tol is not None:
            miss = max(
                np.abs(_solve_velocity(half, f2, q, -v_end, velocity_root) + v).max(),
                np.abs(_solve_position(half, f1, q_mid, -v, df1_dq) - q0).max(),
            )
            if not miss <= reverse_tol:
                raise FixedPointError(
                    float(miss), "reverse implicit step reaches another root, at distance"
                )
        z = ExtendedPoint(q, v_end)
    return z


def palindromic_compose(
    stages: Sequence[tuple[FlowMap | Callable[[float, ExtendedPoint], ExtendedPoint], float]],
    n: int = 1,
) -> Callable[[ExtendedPoint], ExtendedPoint]:
    """Compose stages forward then in reverse order, repeated ``n`` times.

    A single stage is applied twice per sweep; the last listed stage is the
    innermost pair of the palindrome.  If every stage is reversible with
    respect to a shared linear involution ``R``, so is the composition.
    """
    if len(stages) == 0:
        raise ConfigurationError("palindromic_compose requires at least one stage")
    if n < 1:
        raise ConfigurationError("palindromic_compose requires n >= 1")
    ordered = list(stages) + list(reversed(stages))

    def composed(z: ExtendedPoint) -> ExtendedPoint:
        for _ in range(n):
            for stage, t in ordered:
                z = stage(t, z)
        return _require_finite(z)

    return composed


def momentum_flip(z: ExtendedPoint) -> ExtendedPoint:
    """The exact involution ``R(q, v) = (q, -v)``; keeps ``z``'s memo, which
    depends on ``q`` alone."""
    return ExtendedPoint(z.q, -z.v, z.memo)


def _flatten(z: ExtendedPoint) -> np.ndarray:
    return np.concatenate([np.atleast_1d(z.q), np.atleast_1d(z.v)])


def _unflatten(w: np.ndarray, dq: int) -> ExtendedPoint:
    return ExtendedPoint(w[:dq], w[dq:])


def numerical_logdet_jacobian(
    mapping: Callable[[ExtendedPoint], ExtendedPoint],
    z: ExtendedPoint,
    h: float | None = None,
    max_dim: int = 10,
) -> float:
    """``log |det grad mapping|`` at ``z`` by central finite differences.

    The step defaults to ``1e-5 * (1 + |z|_inf)``.  Returns ``-inf`` for a
    singular or non-finite Jacobian (the map is not invertible there).
    Restricted to flattened dimension ``<= max_dim``.
    """
    w = _flatten(z)
    m = w.size
    if m > max_dim:
        raise ConfigurationError(
            f"Jacobian dimension {m} exceeds the cap {max_dim}; raise max_dim explicitly"
        )
    if h is None:
        h = 1e-5 * (1.0 + float(np.max(np.abs(w), initial=0.0)))
    dq = np.atleast_1d(z.q).size
    jac = np.empty((m, m))
    for j in range(m):
        w_plus = w.copy()
        w_minus = w.copy()
        w_plus[j] += h
        w_minus[j] -= h
        try:
            f_plus = _flatten(mapping(_unflatten(w_plus, dq)))
            f_minus = _flatten(mapping(_unflatten(w_minus, dq)))
        except IntegrationError:
            return -math.inf
        jac[:, j] = (f_plus - f_minus) / (2.0 * h)
    if not np.all(np.isfinite(jac)):
        return -math.inf
    sign, logdet = np.linalg.slogdet(jac)
    if sign == 0.0:
        return -math.inf
    return float(logdet)


@dataclass(frozen=True)
class ReversibilityReport:
    max_residual: float
    tol: float
    n_points: int

    @property
    def passed(self) -> bool:
        return self.max_residual <= self.tol


def check_reversibility(
    mapping: Callable[[ExtendedPoint], ExtendedPoint],
    r: Callable[[ExtendedPoint], ExtendedPoint],
    points: Iterable[ExtendedPoint],
    tol: float,
) -> ReversibilityReport:
    """Largest residual of ``R . map . R . map - identity`` over the points.

    A zero residual certifies that ``R . map`` is an involution, i.e. that
    ``map`` is reversible with respect to ``R``."""
    worst = 0.0
    count = 0
    for z in points:
        image = r(mapping(r(mapping(z))))
        residual = max(
            float(np.max(np.abs(image.q - z.q), initial=0.0)),
            float(np.max(np.abs(image.v - z.v), initial=0.0)),
        )
        worst = max(worst, residual)
        count += 1
    return ReversibilityReport(max_residual=worst, tol=tol, n_points=count)
