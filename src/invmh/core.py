"""Involutive Metropolis-Hastings kernels on extended phase space.

A kernel is the triple (target, auxiliary kernel, involution).  One step
samples an auxiliary variable ``v``, applies an involution ``S`` to the pair
``(q, v)`` and accepts the position part of the image with probability
``1 ∧ exp(log_rn)``, where ``log_rn`` is the log Radon-Nikodym derivative of
the pushforward of the extended measure under ``S`` with respect to itself.
Every sampler in this package is expressed in this form.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import math
from dataclasses import dataclass, field, replace
from types import SimpleNamespace
from typing import Callable, NamedTuple, Sequence

import numpy as np

from . import diagnostics

__all__ = [
    "ConfigurationError",
    "IntegrationError",
    "ExtendedPoint",
    "TargetPotential",
    "AuxiliaryKernel",
    "Involution",
    "InvolutiveKernel",
    "StepResult",
    "ChainResult",
    "accept_prob",
    "mh_step",
    "run_chain",
    "involution_from_proposal_map",
    "generic_log_rn",
    "classic_mh_kernel",
    "mixture_step",
]


class ConfigurationError(ValueError):
    """A kernel or chain was assembled from inconsistent pieces."""


def require_finite(**parameters) -> None:
    """Raise :class:`ConfigurationError` unless every given parameter (a
    number or an array; ``None`` stands for "not set") is finite.  Kernel
    constructors call it so that a NaN or infinite parameter fails when the
    kernel is built, not as a chain that rejects every step.  The message
    is one line: an array's first non-finite entry and its index."""
    for name, value in parameters.items():
        if value is not None and not np.isfinite(value).all():
            array = np.asarray(value, dtype=float)
            index = np.argwhere(~np.isfinite(array))[0].tolist()
            at = f" at index {index}" if index else ""
            got = float(array[tuple(index)])
            raise ConfigurationError(f"{name} must be finite, got {got!r}{at}")


# The step path's reductions read one entry at ``argmin`` or ``argmax``: at
# d = 2 that costs under half of ``ndarray.min``, ``max`` or ``all``, ufunc
# reductions behind a Python-level wrapper.  Both return a NaN entry's index
# if there is one, so a NaN reads as least and as greatest.


def _least(array) -> float:
    """The least entry of ``array``, or its first NaN."""
    return array.item(array.argmin())


def _finite(array) -> bool:
    """Whether every entry of ``array`` is finite."""
    return _least(np.isfinite(array))


def _max_abs(array) -> float:
    """``max |array|``, or NaN if an entry is NaN."""
    size = abs(array)
    return size.item(size.argmax())


def _row_sum(array) -> float | np.ndarray:
    """The sum of ``array`` along its last axis: a float for a vector, a
    ``(C,)`` array for a ``(C, d)`` batch, whose rows have the vector's
    bits."""
    return float(np.add.reduce(array)) if array.ndim == 1 else np.add.reduce(array, axis=-1)


def _row_dot(v, w) -> float | np.ndarray:
    """``v . w`` row by row: a float for vectors, a ``(C,)`` array for
    ``(C, d)`` batches.  A batch takes stacked matmuls, which give each
    row ``v[c].dot(w[c])``'s bits; a row-wise ``add.reduce(v * w)`` or
    ``einsum`` need not."""
    return float(v.dot(w)) if v.ndim == 1 else (v[..., None, :] @ w[..., :, None])[..., 0, 0]


def require_count(minimum: int = 1, /, **parameters) -> None:
    """Like :func:`require_finite`, for parameters that must be integers
    >= ``minimum`` (Python or numpy integers, not bools), such as trajectory
    lengths."""
    for name, value in parameters.items():
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
            raise ConfigurationError(f"{name} must be an integer >= {minimum}, got {value!r}")


def require_vector(name: str, value, dim: int) -> np.ndarray:
    """``value``, a number or a sequence of length 1 or ``dim``, as a new
    finite float vector of length ``dim``; :class:`ConfigurationError`
    names the expected length otherwise."""
    array = np.asarray(value, dtype=float)
    if array.ndim > 1 or array.size not in (1, dim):
        got = f"length {array.size}" if array.ndim == 1 else f"shape {array.shape}"
        raise ConfigurationError(
            f"{name} must be a number or a list of length 1 or {dim}, got {got}"
        )
    array = np.broadcast_to(array, (dim,)).copy()
    require_finite(**{name: array})
    return array


class IntegrationError(RuntimeError):
    """Base class for failures inside a proposal map (divergence, implicit
    solver breakdown).  Samplers convert these into rejections."""


class ExtendedPoint(NamedTuple):
    """A point ``(q, v)`` of the extended phase space.

    ``memo``, when not None, holds work already done at ``q``: the values
    ``fn(q)`` of functions of the position alone (potential, force, metric),
    keyed by the function.  Read and fill it through :meth:`cached`.  A
    point built at a new position starts with an empty or no memo (note that
    ``_replace(q=...)`` would keep the old one); a chain hands the memo of
    its current state from step to step so that each value is computed once
    per state (see :func:`mh_step`).
    """

    q: np.ndarray
    v: np.ndarray | None
    memo: dict | None = None

    def cached(self, fn: Callable[[np.ndarray], object]):
        """``fn(self.q)``, computed at most once per memo."""
        memo = self.memo
        if memo is None:
            return fn(self.q)
        value = memo.get(fn)
        if value is None:
            value = memo[fn] = fn(self.q)
        return value


# ``ExtendedPoint(q, v, memo)`` as ``_point((q, v, memo))``: all three fields
# in one tuple, built by ``tuple.__new__`` without the Python-level
# ``__new__`` that NamedTuple generates (which doubles the cost).  The
# package builds every point this way; ``ExtendedPoint`` is the constructor
# for its users.
_point = functools.partial(tuple.__new__, ExtendedPoint)


@dataclass(frozen=True)
class TargetPotential:
    """Negative log unnormalized density of the measure being sampled.

    ``eval`` returns a finite value or ``+inf`` (zero density); it must never
    return NaN.  ``grad`` is optional and, where provided, should match finite
    differences of ``eval`` (validated by the test suite, not at runtime).
    """

    eval: Callable[[np.ndarray], float]
    grad: Callable[[np.ndarray], np.ndarray] | None = None


@dataclass(frozen=True)
class AuxiliaryKernel:
    """The law of the auxiliary variable ``v`` given the position ``q``.

    ``sample(z, rng)`` draws one ``v`` at the state ``ExtendedPoint(q, None,
    memo)``.  ``log_density_terms(z)`` is the contribution of the auxiliary
    law to the extended log-density at ``z = (q, v)``; both read work at
    ``q`` through ``z.cached``, so a step shares it with the energy.  For
    finite-dimensional kernels the (unnormalized) conditional log-density of
    ``v`` given ``q``; for Hilbert-space kernels the log-density with respect
    to the Gaussian reference.  Constants independent of ``(q, v)`` may be
    dropped since only differences enter acceptance ratios.

    ``dim``, when declared, is the length of the drawn ``v``: a sampler
    built for another dimension is rejected at construction.

    ``gaussian_noise`` declares that ``sample(z, rng)`` makes exactly one
    call on ``rng``, ``rng.standard_normal(dim)``, whatever the state, with
    ``dim`` declared.  A step's draws then never depend on the chain, and
    :func:`run_chain` makes them ahead on a producer thread when ``dim`` is
    at least ``NOISE_THREAD_DIM`` (8192: below it the thread's handoff cost
    more than the draw in the measurement recorded there), the chain has two
    steps or more and the process may use two CPUs.  The chain and the
    generator's final state are those of a run without the thread.
    """

    sample: Callable[[ExtendedPoint, np.random.Generator], np.ndarray]
    log_density_terms: Callable[[ExtendedPoint], float]
    dim: int | None = None
    gaussian_noise: bool = False


@dataclass(frozen=True)
class Involution:
    """An involution ``S`` of extended phase space with its log
    Radon-Nikodym derivative, stated as one function
    ``apply_and_log_rn(z) -> (S(z), log_rn(z))``, so a trajectory is
    integrated once per step.

    ``apply(apply(z)) == z`` up to tolerance, and
    ``log_rn(z) + log_rn(apply(z)) == 0`` wherever both are finite.  Every
    sampler of the package is one such function: MALA, HMC and
    relativistic HMC are surrogate HMC with exact forces, RWMC is a pure
    drift ``(q, v) -> (q + v, v)`` followed by the momentum flip.
    """

    apply_and_log_rn: Callable[[ExtendedPoint], tuple[ExtendedPoint, float]]

    def step(self, z: ExtendedPoint) -> tuple[ExtendedPoint, float]:
        return self.apply_and_log_rn(z)

    def apply(self, z: ExtendedPoint) -> ExtendedPoint:
        return self.apply_and_log_rn(z)[0]

    def log_rn(self, z: ExtendedPoint) -> float:
        return self.apply_and_log_rn(z)[1]


@dataclass(frozen=True)
class InvolutiveKernel:
    """Immutable bundle defining one Metropolis step.

    ``dim``, when set, is the position dimension and is checked against the
    state passed to :func:`mh_step`.

    ``batch`` declares that the target, the auxiliary law and the involution
    act row by row on a ``(C, d)`` batch of positions and velocities, with
    ``(C,)`` potentials and log-RNs, so that :func:`run_chain` may step C
    chains as one batch.
    """

    target: TargetPotential
    aux: AuxiliaryKernel
    involution: Involution
    dim: int | None = None
    name: str = field(default="", compare=False)
    batch: bool = False


class StepResult(NamedTuple):
    """Outcome of one Metropolis step.

    ``accepted`` implies ``next is proposal``; otherwise ``next`` is the
    input state.  ``proposal`` may carry non-finite entries when the proposal
    map diverged (such steps are always rejected).  ``memo`` is the memo of
    ``next`` (see :class:`ExtendedPoint`), to be passed to the next step.
    """

    proposal: np.ndarray
    alpha: float
    accepted: bool
    next: np.ndarray
    memo: dict | None = None


def accept_prob(log_rn: float) -> float:
    """Acceptance probability ``1 ∧ exp(log_rn)``, computed in log space.

    NaN and ``-inf`` map to 0 (reject-on-undefined); any nonnegative input
    maps to 1 without overflow.
    """
    log_rn = float(log_rn)
    return math.exp(log_rn) if log_rn < 0.0 else float(log_rn >= 0.0)


def mh_step(
    kernel: InvolutiveKernel, q: np.ndarray, rng: np.random.Generator, memo: dict | None = None
) -> StepResult:
    """One involutive Metropolis-Hastings step from position ``q``.

    Consumes exactly one auxiliary draw and one uniform per call, regardless
    of the outcome, so chains are reproducible and replayable.  Integration
    failures inside the involution are converted into rejections, and so is
    a proposal with a non-finite coordinate.

    ``memo`` is the memo of ``q`` returned by the previous step of the same
    chain (``StepResult.memo``); passing it lets the kernel reuse the work
    done there instead of repeating it, and changes no result.

    For a ``batch`` kernel, ``q`` may be a ``(C, d)`` batch of states and
    ``rng`` the batch's draw source (see :func:`run_chain`); ``alpha`` and
    ``accepted`` are then ``(C,)`` arrays.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _step(kernel, q, rng, {} if memo is None else memo)


def _step(
    kernel: InvolutiveKernel, q: np.ndarray, rng: np.random.Generator, memo: dict
) -> StepResult:
    q = np.asarray(q, dtype=float)
    batch = kernel.batch and q.ndim == 2
    if kernel.dim is not None and q.shape[batch:] != (kernel.dim,):  # a batch: its rows
        raise ConfigurationError(
            f"state has shape {q.shape}, kernel expects ({kernel.dim},)"
        )
    v = kernel.aux.sample(_point((q, None, memo)), rng)
    z = _point((q, np.asarray(v, dtype=float), memo))
    if batch:
        return _batch_step(kernel, z, rng)
    try:
        image, log_rn = kernel.involution.apply_and_log_rn(z)
        proposal = np.asarray(image.q, dtype=float)
        # Overflow inside a proposal map produces inf/nan and a rejection,
        # not a crash.
        alpha = accept_prob(log_rn) if _finite(proposal) else 0.0
    except IntegrationError:
        image, proposal, alpha = z, q, 0.0
    # The same double as rng.uniform(), without its argument handling.
    if rng.random() < alpha:
        return StepResult(proposal, alpha, True, proposal, {} if image.memo is None else image.memo)
    return StepResult(proposal, alpha, False, q, memo)


def _batch_step(kernel: InvolutiveKernel, z: ExtendedPoint, rows: _Rows) -> StepResult:
    """The rest of :func:`_step` for a batch ``z``: every row is accepted
    or rejected as its own chain's step would be, by a mask, and the next
    memo holds the keys that both the image's memo and ``z``'s hold, merged
    row by row (others are recomputed, to the same bits).  When the batch's
    involution raises :class:`IntegrationError`, each row's step is redone
    alone from the same draws, and the next memo is empty."""
    q, memo = z.q, z.memo
    try:
        image, log_rn = kernel.involution.apply_and_log_rn(z)
    except IntegrationError:
        steps = [_step(kernel, row, rows.replay(c), {})[:4] for c, row in enumerate(q)]
        return StepResult(*map(np.array, zip(*steps)), {})
    proposal = np.asarray(image.q, dtype=float)
    finite = np.isfinite(proposal).all(axis=-1).tolist()
    alpha = np.array([accept_prob(x) if ok else 0.0 for x, ok in zip(log_rn.tolist(), finite)])
    accepted = rows.random() < alpha
    column = accepted[:, None]
    merged = {
        key: np.where(column if value.ndim == 2 else accepted, value, memo[key])
        for key, value in (image.memo or {}).items()
        if key in memo
    }
    return StepResult(proposal, alpha, accepted, np.where(column, proposal, q), merged)


@dataclass(frozen=True)
class ChainResult:
    """A realized chain: ``positions[0]`` is the start, ``positions[k + 1]``
    the state after step ``k``; ``alphas[k]`` / ``accepted[k]`` summarize
    step ``k``."""

    positions: np.ndarray
    alphas: np.ndarray
    accepted: np.ndarray

    @property
    def acceptance_rate(self) -> float:
        return float(self.accepted.mean()) if self.accepted.size else 0.0

    def __len__(self) -> int:
        return self.positions.shape[0]


# Steps of noise the producer draws per task, and the tasks it may have
# queued or done ahead of the chain.
NOISE_CHUNK = 4
NOISE_AHEAD = 2
# Smallest declared dimension at which run_chain draws a gaussian_noise
# law's noise on a producer thread.  Each step's handoff costs the chain
# thread tens of microseconds in interpreter-lock switches, which only a
# large draw repays.  Per-step time with the producer over time without it
# (CPython 3.11, 2-CPU x86-64 VM, one BLAS thread, medians of 5-7
# alternating pairs of 200-2000-step chains): at d=1024 pcn 1.93, inf_mala
# 1.50; at d=4096 between 0.78 and 1.55 from run to run; at d=8192 pcn
# 0.82, inf_mala 0.69, gen_langevin 0.74, inf_hmc (n=10) 0.97, rwmc 0.65;
# at d=16384 0.63-0.71, inf_hmc 0.95.
NOISE_THREAD_DIM = 8192


class _NoiseSource:
    """The draws ``rng.standard_normal(dim)`` and then ``rng.random()`` of
    each of ``n_steps`` chain steps, made in that order by the one worker
    thread of an executor, one task of ``NOISE_CHUNK`` steps at a time and
    at most ``NOISE_AHEAD`` tasks ahead of the chunk the chain is on, and
    handed out in the same order by the methods of the same names.  One
    worker runs its tasks one at a time in the order they were submitted,
    so the generator sees the calls of a plain loop, and an exception
    raised by a draw reaches the chain through the task's result.  A step
    calls ``standard_normal(dim)`` once and then ``random()`` once; any
    other call raises, so a law that breaks its declaration cannot silently
    desynchronize the stream.  Used as a context manager, whose entry starts
    the executor and whose exit cancels the tasks not started and joins the
    worker."""

    def __init__(self, rng: np.random.Generator, dim: int, n_steps: int):
        self._rng = rng
        self._dim = dim
        self._left = n_steps  # steps not yet submitted
        self._chunks = collections.deque()
        self._pending: list = []
        self._uniform = None

    def _draw(self, count: int) -> list:
        """The next ``count`` steps' draws, last first: handed out by ``pop()``."""
        draws = [(self._rng.standard_normal(self._dim), self._rng.random()) for _ in range(count)]
        return draws[::-1]

    def _submit(self) -> None:
        count = min(NOISE_CHUNK, self._left)
        if count:
            self._left -= count
            self._chunks.append(self._executor.submit(self._draw, count))

    def standard_normal(self, size: int) -> np.ndarray:
        if size != self._dim or self._uniform is not None:
            raise ConfigurationError(
                f"a gaussian_noise law draws standard_normal({self._dim}) once per step, "
                f"got standard_normal({size!r})"
            )
        if not self._pending:
            self._pending = self._chunks.popleft().result()
            self._submit()
        normal, self._uniform = self._pending.pop()
        return normal

    def random(self) -> float:
        uniform, self._uniform = self._uniform, None
        if uniform is None:
            raise ConfigurationError("a gaussian_noise law draws nothing but standard_normal(dim)")
        return uniform

    def __enter__(self) -> "_NoiseSource":
        from concurrent.futures import ThreadPoolExecutor  # not at import: it costs ~7 ms

        self._executor = ThreadPoolExecutor(1)
        for _ in range(NOISE_AHEAD):
            self._submit()
        return self

    def __exit__(self, *exc_info) -> None:
        self._executor.shutdown(cancel_futures=True)


class _Rows:
    """The draws of a batch of chains, one generator per chain:
    ``standard_normal(d)`` stacks each generator's draw into a ``(C, d)``
    array and ``random()`` gives each generator's uniform, a ``(C,)``
    array, so every generator makes the calls of its chain run alone (the
    ``gaussian_noise`` contract).  ``replay(c)`` is chain ``c``'s source for
    a redo of the step: the normal drawn last, then its own uniform."""

    def __init__(self, rngs: Sequence[np.random.Generator]):
        self._rngs = rngs

    def standard_normal(self, size: int) -> np.ndarray:
        self._normals = np.empty((len(self._rngs), size))
        for rng, row in zip(self._rngs, self._normals):
            rng.standard_normal(out=row)  # standard_normal(size)'s draw, in place
        return self._normals

    def random(self) -> np.ndarray:
        return np.array([rng.random() for rng in self._rngs])

    def replay(self, c: int):
        normal = self._normals[c]
        return SimpleNamespace(standard_normal=lambda size: normal, random=self._rngs[c].random)


def _draws_ahead(aux: AuxiliaryKernel, n_steps: int) -> bool:
    """Whether a chain of ``aux`` draws its noise ahead on a thread: a
    declared ``gaussian_noise`` law of dimension at least
    ``NOISE_THREAD_DIM``, two steps or more and a second CPU."""
    return (
        aux.gaussian_noise
        and aux.dim is not None
        and aux.dim >= NOISE_THREAD_DIM
        and n_steps >= 2
        and diagnostics._worker_count() >= 2
    )


def _draws(aux: AuxiliaryKernel, rng: np.random.Generator, n_steps: int):
    """The source of a chain's draws, as a context manager: a
    :class:`_NoiseSource`, whose executor thread draws ahead, when
    :func:`_draws_ahead`, else ``rng`` itself."""
    if _draws_ahead(aux, n_steps):
        return _NoiseSource(rng, aux.dim, n_steps)
    return contextlib.nullcontext(rng)


def run_chain(
    kernel: InvolutiveKernel,
    q0: np.ndarray,
    n_steps: int,
    rng: np.random.Generator | Sequence[np.random.Generator],
) -> ChainResult | list[ChainResult]:
    """Run ``n_steps`` Metropolis steps from ``q0``.

    Deterministic given (kernel, q0, rng state).  The starting point must
    have finite potential.  ``n_steps`` is an integer >= 0, checked before
    any draw.

    Each step draws its auxiliary variable and then one uniform from
    ``rng``.  When the kernel's law declares ``gaussian_noise`` at a
    dimension of at least ``NOISE_THREAD_DIM`` (8192), the chain has two
    steps or more and the process may use two CPUs, the one worker thread
    of an executor makes these draws ahead while the steps run
    (:class:`_NoiseSource`), in the same order and exactly ``n_steps`` of
    each: the chain and the generator's state afterwards are the same as
    without it, bit for bit, and an exception raised by a draw reaches the
    caller unchanged.  Below 8192 the thread's handoff costs more than the
    draw (at d=1024 it made pcn steps 1.9 times slower; at 8192 it made
    every function-space kernel faster; see ``NOISE_THREAD_DIM``).  The
    executor is shut down and its thread joined before ``run_chain``
    returns or raises; after an exception the generator may have advanced
    by the steps drawn ahead.

    A ``batch`` kernel (see :class:`InvolutiveKernel`) also takes a batch:
    a ``(C, d)`` start ``q0`` and a sequence of C generators.  Each
    iteration steps the C chains as one ``(C, d)`` array through
    :func:`mh_step`, and the result is one :class:`ChainResult` per chain,
    chain ``c``'s equal to ``run_chain(kernel, q0[c], n_steps, rng[c])``
    bit for bit.  A batch of one chain, and one whose chains would draw
    their noise ahead (see above), runs its chains one at a time instead.
    The batch's positions, ``C (n_steps + 1) d`` doubles, are allocated at
    once; each chain's result is a view of them.  A batch for another
    kernel, and a potential or energy that does not come back with shape
    ``(C,)`` at the start, raise :class:`ConfigurationError` before any
    draw.
    """
    require_count(0, n_steps=n_steps)
    q = np.asarray(q0, dtype=float)
    batch = q.ndim == 2
    if batch and not (kernel.batch and isinstance(rng, (list, tuple)) and len(rng) == len(q)):
        raise ConfigurationError(
            f"a batch of {len(q)} chains needs a batch kernel ({kernel.name or 'this kernel'}"
            f" is {'' if kernel.batch else 'not '}one) and a list of {len(q)} generators"
        )
    if batch and (len(q) == 1 or _draws_ahead(kernel.aux, n_steps)):
        # A batch step costs more than a single chain's at C = 1, and a
        # batch would draw inline what a single chain draws ahead.
        return [run_chain(kernel, row, n_steps, row_rng) for row, row_rng in zip(q, rng)]
    # A batch's arrays are chain-major, so that each chain's are
    # C-contiguous and sums over them round as a single chain's do; the
    # loop writes them through step-major views.
    positions = np.empty((*q.shape[:-1], n_steps + 1, q.shape[-1]))
    alphas = np.empty((*q.shape[:-1], n_steps))
    accepted = np.zeros(alphas.shape, dtype=bool)
    step_positions = np.moveaxis(positions, -2, 0)
    step_alphas, step_accepted = np.moveaxis(alphas, -1, 0), np.moveaxis(accepted, -1, 0)
    step_positions[0] = q
    with np.errstate(over="ignore", invalid="ignore"):
        start_value = kernel.target.eval(q)
        # The energy's auxiliary terms, at zero velocity.
        terms = kernel.aux.log_density_terms(_point((q, 0.0 * q, {}))) if batch else None
    if batch and not np.shape(start_value) == np.shape(terms) == q.shape[:1]:
        raise ConfigurationError(
            f"a batch of {len(q)} chains needs ({len(q)},) potentials and energies, got"
            f" shapes {np.shape(start_value)} and {np.shape(terms)}"
        )
    if not np.isfinite(start_value).all():
        raise ConfigurationError("chain started at a point of zero target density")
    memo = {kernel.target.eval: start_value}
    with contextlib.nullcontext(_Rows(rng)) if batch else _draws(kernel.aux, rng, n_steps) as draws:
        for k in range(n_steps):
            result = mh_step(kernel, q, draws, memo)
            q, memo = result.next, result.memo
            step_positions[k + 1] = q
            step_alphas[k] = result.alpha
            step_accepted[k] = result.accepted
    if not batch:
        return ChainResult(positions=positions, alphas=alphas, accepted=accepted)
    return [ChainResult(*arrays) for arrays in zip(positions, alphas, accepted)]


def involution_from_proposal_map(
    proposal_map: Callable[[np.ndarray, np.ndarray], np.ndarray],
    invert_in_v: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> Callable[[ExtendedPoint], ExtendedPoint]:
    """Build the unique involution with position part ``proposal_map``.

    ``proposal_map(q, v)`` must be one-to-one in ``v`` for each ``q`` and
    ``invert_in_v(q, q_new)`` must return the ``v`` with
    ``proposal_map(q, v) == q_new``.  The returned map is
    ``S(q, v) = (F(q, v), F(F(q, v), .)^{-1}(q))``; inconsistent inputs are
    only detectable through the involution property itself.
    """

    def apply(z: ExtendedPoint) -> ExtendedPoint:
        q_new = np.asarray(proposal_map(z.q, z.v), dtype=float)
        v_new = np.asarray(invert_in_v(q_new, z.q), dtype=float)
        return _point((q_new, v_new, None))

    return apply


def generic_log_rn(
    ext_log_density: Callable[[np.ndarray, np.ndarray], float],
    apply_s: Callable[[ExtendedPoint], ExtendedPoint],
    z: ExtendedPoint,
    max_dim: int = 10,
) -> float:
    """Brute-force log Radon-Nikodym derivative of ``S`` pushforward.

    Evaluates ``log rho(S(z)) - log rho(z) + log |det grad S(z)|`` with the
    Jacobian obtained by central finite differences.  This is the oracle
    against which every closed-form ``log_rn`` in the package is checked; it
    is restricted to flattened dimension ``<= max_dim``.
    """
    from .integrators import numerical_logdet_jacobian

    image = apply_s(z)
    forward = ext_log_density(image.q, image.v)
    backward = ext_log_density(z.q, z.v)
    if not math.isfinite(forward) or not math.isfinite(backward):
        # Zero-density endpoints: the ratio alone decides (Jacobian moot).
        return forward - backward
    logdet = numerical_logdet_jacobian(apply_s, z, max_dim=max_dim)
    return forward - backward + logdet


def classic_mh_kernel(
    log_p: Callable[[np.ndarray], float],
    log_proposal_density: Callable[[np.ndarray, np.ndarray], float],
    proposal_sampler: Callable[[np.ndarray, np.random.Generator], np.ndarray],
    dim: int | None = None,
) -> InvolutiveKernel:
    """Classical Metropolis-Hastings as an involutive kernel.

    The auxiliary space is a copy of the state space, the involution is the
    swap ``S(q, v) = (v, q)``, and the acceptance probability reduces to the
    Hastings ratio ``1 ∧ [p(v) s(v, q)] / [p(q) s(q, v)]`` where ``s`` is the
    proposal density (supplied in log form).
    """

    def swap(z: ExtendedPoint) -> tuple[ExtendedPoint, float]:
        forward = log_p(z.v) + log_proposal_density(z.v, z.q)
        backward = log_p(z.q) + log_proposal_density(z.q, z.v)
        return _point((z.v, z.q, None)), forward - backward

    return InvolutiveKernel(
        target=TargetPotential(eval=lambda q: -float(log_p(q))),
        aux=AuxiliaryKernel(
            sample=lambda z, rng: proposal_sampler(z.q, rng),
            log_density_terms=lambda z: float(log_proposal_density(z.q, z.v)),
        ),
        involution=Involution(swap),
        dim=dim,
        name="classic_mh",
    )


def mixture_step(
    kernels: Sequence[InvolutiveKernel],
    weights: Callable[[np.ndarray], np.ndarray],
    q: np.ndarray,
    rng: np.random.Generator,
) -> StepResult:
    """One step of the state-dependent mixture of involutive kernels.

    A component ``j`` is drawn from ``weights(q)``; its acceptance ratio
    carries the extra factor ``weights(q_new)[j] / weights(q)[j]`` so that
    the compound kernel stays reversible.  The step is :func:`mh_step`'s on
    that component, with the log of this factor added to its log-RN.
    Constant weights reduce to the plain per-kernel step.
    """
    if len(kernels) == 0:
        raise ConfigurationError("mixture requires at least one kernel")
    q = np.asarray(q, dtype=float)
    w = np.asarray(weights(q), dtype=float)
    if w.shape != (len(kernels),) or not (np.all(w >= 0) and abs(w.sum() - 1.0) <= 1e-9):
        raise ConfigurationError("weights(q) must be a probability vector over the kernels")
    j = int(rng.choice(len(kernels), p=w))
    kernel = kernels[j]
    component = kernel.involution.apply_and_log_rn

    def with_weight_ratio(z: ExtendedPoint) -> tuple[ExtendedPoint, float]:
        image, log_rn = component(z)
        w_new = np.asarray(weights(np.asarray(image.q, dtype=float)), dtype=float)[j]
        return image, log_rn + float(np.log(w_new) - np.log(w[j]))

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _step(replace(kernel, involution=Involution(with_weight_ratio)), q, rng, {})
