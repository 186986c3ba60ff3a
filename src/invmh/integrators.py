"""Geometric integrator toolbox: elementary flows (kick, drift, rotation),
palindromic compositions of ``(flow, t)`` stages, the leapfrog and Strang
schemes (Strang's kick and rotation one matrix product per step, its
points handed to a callback as they are built), implicit Euler-A/B and
generalized Stormer-Verlet (built from the two Euler steps), plus numerical
Jacobian and reversibility checkers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import (
    ConfigurationError,
    ExtendedPoint,
    IntegrationError,
    _finite,
    _max_abs,
    _point,
    require_count,
)

__all__ = [
    "DivergenceError",
    "FixedPointError",
    "kick",
    "drift",
    "rotation",
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


def kick(t: float, f2, z: ExtendedPoint) -> ExtendedPoint:
    """Velocity update ``(q, v) -> (q, v + t f2(q))``."""
    return _point((z.q, z.v + t * np.asarray(f2(z.q), dtype=float), None))


def drift(t: float, f1, z: ExtendedPoint) -> ExtendedPoint:
    """Position update ``(q, v) -> (q + t f1(v), v)``."""
    return _point((z.q + t * np.asarray(f1(z.v), dtype=float), z.v, None))


def _rotate(c: float, s: float, q, k, flip: bool = False):
    """``(c q + s k, -s q + c k)`` in two new arrays or, with ``flip``, its
    momentum flip ``(c q + s k, s q - c k)``, which equals
    ``-(-s q + c k)`` in IEEE arithmetic.  The two products that are not
    kept share one scratch array."""
    product = np.empty(np.shape(q))
    q_out = c * q
    q_out += np.multiply(s, k, out=product)
    v_out = s * q if flip else c * k
    v_out -= np.multiply(c, k, out=product) if flip else np.multiply(s, q, out=product)
    return q_out, v_out


def rotation(t: float, z: ExtendedPoint) -> ExtendedPoint:
    """Exact flow of ``dq/dt = v, dv/dt = -q``: a rotation in each
    ``(q_i, v_i)`` plane.  Preserves ``|q|^2 + |v|^2``."""
    return _point((*_rotate(math.cos(t), math.sin(t), z.q, z.v), None))


def _require_finite(*arrays: np.ndarray) -> None:
    for array in arrays:
        if not _finite(array):
            raise DivergenceError("non-finite state encountered during integration")


def leapfrog(n: int, delta1: float, delta2: float, f1, f2, z: ExtendedPoint) -> ExtendedPoint:
    """``n`` repetitions of the kick-drift-kick step with time steps
    ``delta1`` (kicks, force ``f2(q)``) and ``delta2`` (drift, velocity map
    ``f1(v)``).

    The force is evaluated once per position, and so is its kick
    ``delta1 f``: a step's closing kick and the next step's opening kick
    share both.  The endpoint's memo holds its force under ``f2`` and its
    kick under ``(f2, delta1)``, so the next trajectory from that position
    with the same ``delta1`` starts with the kick already formed, and one
    with another ``delta1`` forms its own from the memo's force.  ``z``'s
    arrays are never written: the opening kick builds a new velocity, and
    the closing kick adds into it in place.

    Raises :class:`DivergenceError` when the endpoint is not finite, checked
    once per trajectory.  That is the same as checking every point: a
    non-finite coordinate stays non-finite under the kick ``v + delta1 f``,
    the drift ``q + delta2 f1(v)`` and the rotation by any ``(c, s)``
    (``0 * inf`` is NaN), so a trajectory that leaves the finite numbers
    never returns.  The force may then be evaluated at non-finite positions,
    as it already is after a drift that overflows."""
    # require_count's rule inline (a call of it costs ten times this check
    # on a plain int); bools fail it, as there.
    if not (type(n) is int or isinstance(n, np.integer)) or n < 1:
        raise ConfigurationError(f"leapfrog requires an integer n >= 1, got {n!r}")
    impulse = (z.memo or {}).get((f2, delta1))
    if impulse is None:
        impulse = delta1 * np.asarray(z.cached(f2), dtype=float)
    q, v = z.q, z.v
    for _ in range(n):
        v = v + impulse
        q = q + delta2 * np.asarray(f1(v), dtype=float)
        f = np.asarray(f2(q), dtype=float)
        impulse = delta1 * f
        v += impulse
    _require_finite(q, v)
    return _point((q, v, {f2: f, (f2, delta1): impulse}))


def strang_hilbert(
    n: int, delta1, delta2: float, f, z: ExtendedPoint, visit=None, paired: bool = False
) -> tuple[ExtendedPoint, list[ExtendedPoint] | None]:
    """Strang splitting of the preconditioned dynamics: ``n`` repetitions of
    ``kick(-delta1) . rotation(delta2) . kick(-delta1)`` with force ``f``
    (velocity shifts ``v -> v - delta1 f(q)``).  ``delta1`` is a number or
    an array of per-coordinate steps.

    Each point is one C-contiguous ``(3, d)`` block with rows ``q``, ``v``
    and the kick ``delta1 f(q)``, and a call allocates its points at once:
    the ``n + 1`` of a recorded trajectory, whose points own their rows, or,
    with ``visit``, two that alternate (so one allocation per call, whatever
    ``n``; a visited point's rows are overwritten two points later).  One
    matrix product ``[[c, s, -s], [-s, c, -c]] @ point`` makes the next
    step's opening kick and its rotation, the force at the new position
    writes the next kick into the new point's last row, and the closing kick
    subtracts that row from the velocity row.  The force is evaluated once
    per position, the first read from ``z``'s memo; a step's closing kick
    and the next step's opening kick share it.  ``z``'s arrays are never
    written.  The product is the BLAS's ``dgemm``, whose fused
    multiply-adds round differently from separate products and sums: the
    endpoint stays within 1e-13 relative of the plain kick, rotation and
    kick (about 1e-14 was measured at up to 12 steps).

    Returns ``(z_n, [z_0, ..., z_n])``, the endpoint and the whole-step
    trajectory, whose points after ``z_0`` carry their forces in their
    memos.  With ``visit``, the Hilbert kernels' mode, every point goes to
    ``visit(q, v, f, kick)`` as it is built instead, ``kick`` the row
    ``delta1 f(q)``, and ``(R z_n, None)`` is returned, the image
    ``R z_n = (q_n, -v_n)`` of the involution ``R . strang``; the last point
    is visited as that image.  The closed-form log-RN streams its sums over
    the points, and no trajectory is kept.  The last product's second row
    and the last kick change sign, which negates ``v_n`` exactly, so no
    flipped copy is made.  With ``paired``, ``f(q)`` returns a pair
    ``(f, g)``, such as a force and its dual ``g = f / lambda``; the kicks
    are ``delta1 * f`` or, where ``f`` is None, ``delta1 * g``, so that
    ``delta1 = d1 * lambda`` kicks by ``d1 f`` without forming ``f``.
    ``visit`` and the memos get the pair.

    Raises :class:`DivergenceError` when ``z_n`` is not finite, checked once
    per trajectory (see :func:`leapfrog`): the matrix product carries a
    non-finite ``q``, ``v`` or kick into the next point's ``q`` or ``v``,
    because ``c`` and ``s`` are never both zero.  ``visit`` may be handed
    non-finite points before the error."""
    # require_count's rule inline (a call of it costs ten times this check
    # on a plain int); bools fail it, as there.
    if not (type(n) is int or isinstance(n, np.integer)) or n < 1:
        raise ConfigurationError(f"strang_hilbert requires an integer n >= 1, got {n!r}")
    c, s = math.cos(delta2), math.sin(delta2)
    product = np.array([[c, s, -s], [-s, c, -c]])

    def kick(value):  # the array that delta1 scales into a kick
        if not paired:
            return value
        return value[1] if value[0] is None else value[0]

    value = z.cached(f)
    value = value if paired else np.asarray(value, dtype=float)
    # One allocation per call: the points of a recorded trajectory, or two
    # that alternate when each is visited and dropped.
    points = np.empty((2 if visit else n + 1, 3) + np.shape(z.q))
    point = points[0]
    point[0], point[1] = z.q, z.v
    np.multiply(delta1, kick(value), out=point[2])
    trajectory = None if visit else [z]
    if visit:
        visit(z.q, z.v, value, point[2])
    for step in range(1, n + 1):
        flipped = trajectory is None and step == n
        if flipped:
            product[1] *= -1.0
        start, point = point, points[step % len(points)]
        np.matmul(product, start, out=point[:2])
        value = f(point[0]) if paired else np.asarray(f(point[0]), dtype=float)
        np.multiply(delta1, kick(value), out=point[2])
        (np.add if flipped else np.subtract)(point[1], point[2], out=point[1])
        if visit:
            visit(point[0], point[1], value, point[2])
        elif step < n:
            trajectory.append(_point((point[0], point[1], {f: value})))
    _require_finite(point[:2])
    end = _point((point[0], point[1], {f: value}))
    return end, None if trajectory is None else trajectory + [end]


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
    error much more than later ones do.)  The distance is only estimated
    (see FIXED_POINT_TOL).  Raises :class:`FixedPointError` after
    FIXED_POINT_MAX_ITER updates and :class:`DivergenceError` on a
    non-finite update.
    """
    scale = None
    if slope is not None:
        jacobian = slope(x0)
        bound = _max_abs(jacobian)
        if not bound < 1.0:
            raise FixedPointError(bound, "implicit step does not contract at its start: bound")
        scale = 1.0 / (1.0 - jacobian)
    x = x0
    previous = math.inf
    for updates in range(1, FIXED_POINT_MAX_ITER + 1):
        fx = step_map(x)
        update = fx - x if scale is None else scale * (fx - x)
        x = fx if scale is None else x + update
        size = _max_abs(update)
        if not math.isfinite(size):
            raise DivergenceError("implicit solve diverged")
        if size <= FIXED_POINT_TOL or (
            updates >= 3 and size * size <= FIXED_POINT_TOL * (previous - size)
        ):
            return x
        previous = size
    raise FixedPointError(size)


def _solve_velocity(delta, f2, z: ExtendedPoint, velocity_root=None) -> np.ndarray:
    """The velocity ``v = v0 + delta f2(q0, v)`` of an Euler-B step from ``z``."""
    if velocity_root is not None:
        v = velocity_root(delta, z)
        if v is not None:
            return v
    update = lambda v: z.v + delta * np.asarray(f2(_point((z.q, v, z.memo))), dtype=float)
    return fixed_point_solve(update, z.v + delta * np.asarray(f2(z), dtype=float))


def _solve_position(delta, f1, z: ExtendedPoint, df1_dq=None) -> np.ndarray:
    """The position ``q = q0 + delta f1(q, v0)`` of an Euler-A step from ``z``."""
    update = lambda q: z.q + delta * np.asarray(f1(_point((q, z.v, None))), dtype=float)
    slope = None if df1_dq is None else lambda q: delta * df1_dq(_point((q, z.v, None)))
    return fixed_point_solve(update, z.q + delta * np.asarray(f1(z), dtype=float), slope)


def euler_b_step(delta: float, f1, f2, z: ExtendedPoint, velocity_root=None) -> ExtendedPoint:
    """One implicit Euler-B step: solve
    ``q = q0 + delta f1(q0, v), v = v0 + delta f2(q0, v)``
    (fields evaluated at the old position and the new velocity).

    The fields and hooks take a point ``z``, and read work that depends on
    the position alone through ``z.cached``: every point at ``q0`` shares
    ``z``'s memo, and the returned point gets a fresh one.

    Only the velocity equation is implicit.  ``velocity_root(delta, z)``,
    when given, returns its solution exactly (in closed form, say), which
    must be its only root at which the update map contracts; it raises
    :class:`FixedPointError` when there is none, and returns None when it
    cannot solve the equation at ``q0``.  Otherwise the equation is solved by
    plain :func:`fixed_point_solve` iteration from the explicit Euler update,
    so the returned velocity is within an estimated FIXED_POINT_TOL of the
    solution.  The position follows explicitly."""
    v = _solve_velocity(delta, f2, z, velocity_root)
    q = z.q + delta * np.asarray(f1(_point((z.q, v, z.memo))), dtype=float)
    _require_finite(q, v)
    return _point((q, v, {}))


def euler_a_step(delta: float, f1, f2, z: ExtendedPoint, df1_dq=None) -> ExtendedPoint:
    """One implicit Euler-A step: solve
    ``q = q0 + delta f1(q, v0), v = v0 + delta f2(q, v0)``
    (fields at the new position and the old velocity); implicit in the
    position only, which is solved like Euler-B's velocity (within an
    estimated FIXED_POINT_TOL, by simplified Newton when ``df1_dq(z)``, the
    diagonal Jacobian of ``f1`` in ``q``, is given) from the explicit Euler
    update.  Fields and memos as in :func:`euler_b_step`; the iterates are
    points without a memo.  Numerically the adjoint of Euler-B:
    ``euler_a(delta) == inverse(euler_b(-delta))``."""
    end = _point((_solve_position(delta, f1, z, df1_dq), z.v, {}))
    v = z.v + delta * np.asarray(f2(end), dtype=float)
    _require_finite(end.q, v)
    return _point((end.q, v, end.memo))


def stormer_verlet(
    n: int,
    delta: float,
    f1,
    f2,
    z: ExtendedPoint,
    df1_dq=None,
    velocity_root=None,
    reverse_tol: float | None = None,
    reverse_certified=None,
) -> ExtendedPoint:
    """Generalized Stormer-Verlet: ``n`` repetitions of
    ``euler_a(delta/2) . euler_b(delta/2)``; ``df1_dq`` and
    ``velocity_root`` are passed to the two steps.

    Fields and hooks take points (see :func:`euler_b_step`): the start's
    memo is ``z``'s, and each step's endpoint has a fresh one, which the
    next step and the returned point inherit.

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
    undone by its reverse step.

    ``reverse_certified(delta/2, mid, end)``, when given, is asked after
    each step (``mid`` its Euler-B point, ``end`` its endpoint) and skips
    that step's replay when it returns True; it must do so only where a
    bound proves that both reverse solves return this step's values.  Say
    the reverse position map ``g(q) = mid.q + (delta/2) f1(q, -mid.v)`` has
    a diagonal Jacobian bounded by ``c`` at every position.  ``c < 1``
    makes its root unique, but the reverse solve is simplified Newton with
    the slope ``J0`` frozen at its start, whose error contracts by
    ``|g'(xi) - J0| / |1 - J0| <= 2c / (1 - c)`` per update: below 1 only
    for ``c < 1/3``, the limit a certificate must keep.  At ``c < 1`` some
    reverse solves stall, and a certificate let through steps that the
    replay rejects (for :func:`~invmh.finite_dim.rmhmc` with
    :func:`~invmh.finite_dim.diagonal_quadratic_metric` at delta = 1 and
    d = 1..3, 108 of 3946 returned steps had a reverse step that raised
    :class:`FixedPointError`)."""
    # require_count's rule inline (a call of it costs ten times this check
    # on a plain int); bools fail it, as there.
    if not (type(n) is int or isinstance(n, np.integer)) or n < 1:
        raise ConfigurationError(f"stormer_verlet requires an integer n >= 1, got {n!r}")
    half = delta / 2.0
    for _ in range(n):
        mid = euler_b_step(half, f1, f2, z, velocity_root)
        end = euler_a_step(half, f1, f2, mid, df1_dq)
        if reverse_tol is not None and not (
            reverse_certified is not None and reverse_certified(half, mid, end)
        ):
            miss = max(
                _max_abs(_solve_velocity(half, f2, momentum_flip(end), velocity_root) + mid.v),
                _max_abs(_solve_position(half, f1, momentum_flip(mid), df1_dq) - z.q),
            )
            if not miss <= reverse_tol:
                raise FixedPointError(
                    float(miss), "reverse implicit step reaches another root, at distance"
                )
        z = end
    return z


def palindromic_compose(
    stages: Sequence[tuple[Callable[[float, ExtendedPoint], ExtendedPoint], float]],
    n: int = 1,
) -> Callable[[ExtendedPoint], ExtendedPoint]:
    """Compose stages forward then in reverse order, repeated ``n`` times.

    A single stage is applied twice per sweep; the last listed stage is the
    innermost pair of the palindrome.  If every stage is reversible with
    respect to a shared linear involution ``R``, so is the composition.
    """
    if len(stages) == 0:
        raise ConfigurationError("palindromic_compose requires at least one stage")
    require_count(n=n)
    ordered = list(stages) + list(reversed(stages))

    def composed(z: ExtendedPoint) -> ExtendedPoint:
        for _ in range(n):
            for stage, t in ordered:
                z = stage(t, z)
        _require_finite(z.q, z.v)
        return z

    return composed


def momentum_flip(z: ExtendedPoint) -> ExtendedPoint:
    """The exact involution ``R(q, v) = (q, -v)``; keeps ``z``'s memo, which
    depends on ``q`` alone."""
    return _point((z.q, -z.v, z.memo))


def _flatten(z: ExtendedPoint) -> np.ndarray:
    return np.concatenate([np.atleast_1d(z.q), np.atleast_1d(z.v)])


def _unflatten(w: np.ndarray, dq: int) -> ExtendedPoint:
    return _point((w[:dq], w[dq:], None))


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
