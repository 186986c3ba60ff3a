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
import threading
from dataclasses import dataclass, field, replace
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
    """

    target: TargetPotential
    aux: AuxiliaryKernel
    involution: Involution
    dim: int | None = None
    name: str = field(default="", compare=False)


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
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _step(kernel, q, rng, {} if memo is None else memo)


def _step(
    kernel: InvolutiveKernel, q: np.ndarray, rng: np.random.Generator, memo: dict
) -> StepResult:
    q = np.asarray(q, dtype=float)
    if kernel.dim is not None and q.shape != (kernel.dim,):
        raise ConfigurationError(
            f"state has shape {q.shape}, kernel expects ({kernel.dim},)"
        )
    v = kernel.aux.sample(_point((q, None, memo)), rng)
    z = _point((q, np.asarray(v, dtype=float), memo))
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


# Steps of noise a producer thread hands over at a time, and the chunks it
# may hold ready ahead of the chain.
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
    each of ``n_steps`` chain steps, made in that order on a thread of
    their own, ``NOISE_CHUNK`` steps at a time and at most ``NOISE_AHEAD``
    chunks ahead, and handed out in the same order by the methods of the
    same names.  A step calls ``standard_normal(dim)`` once and then
    ``random()`` once; any other call raises, so a law that breaks its
    declaration cannot silently desynchronize the stream.  Used as a
    context manager, whose entry starts the thread and whose exit stops and
    joins it."""

    def __init__(self, rng: np.random.Generator, dim: int, n_steps: int):
        self._dim = dim
        self._chunks = collections.deque()
        self._ready = threading.Semaphore(0)
        self._room = threading.Semaphore(NOISE_AHEAD)
        self._stopped = False
        self._pending: list = []
        self._uniform = None
        self._thread = threading.Thread(target=self._produce, args=(rng, n_steps), daemon=True)

    def _produce(self, rng: np.random.Generator, n_steps: int) -> None:
        try:
            for start in range(0, n_steps, NOISE_CHUNK):
                self._room.acquire()
                if self._stopped:
                    return
                count = min(NOISE_CHUNK, n_steps - start)
                draws = [(rng.standard_normal(self._dim), rng.random()) for _ in range(count)]
                draws.reverse()  # handed out by pop()
                self._chunks.append(draws)
                self._ready.release()
        except Exception as exc:  # noqa: BLE001 - raised again on the chain's thread
            self._chunks.append(exc)
            self._ready.release()

    def standard_normal(self, size: int) -> np.ndarray:
        if size != self._dim or self._uniform is not None:
            raise ConfigurationError(
                f"a gaussian_noise law draws standard_normal({self._dim}) once per step, "
                f"got standard_normal({size!r})"
            )
        if not self._pending:
            self._ready.acquire()
            self._pending = self._chunks.popleft()
            self._room.release()
            if isinstance(self._pending, Exception):
                raise self._pending
        normal, self._uniform = self._pending.pop()
        return normal

    def random(self) -> float:
        uniform, self._uniform = self._uniform, None
        if uniform is None:
            raise ConfigurationError("a gaussian_noise law draws nothing but standard_normal(dim)")
        return uniform

    def __enter__(self) -> "_NoiseSource":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        # A producer waiting for room sees the flag after this release; one
        # drawing a chunk adds it (there is room for it) and then stops.
        self._stopped = True
        self._room.release()
        self._thread.join()


def _draws(aux: AuxiliaryKernel, rng: np.random.Generator, n_steps: int):
    """The source of a chain's draws, as a context manager: a
    :class:`_NoiseSource` for a declared ``gaussian_noise`` law of dimension
    at least ``NOISE_THREAD_DIM``, two steps or more and a second CPU, else
    ``rng`` itself."""
    if (
        aux.gaussian_noise
        and aux.dim is not None
        and aux.dim >= NOISE_THREAD_DIM
        and n_steps >= 2
        and diagnostics._worker_count() >= 2
    ):
        return _NoiseSource(rng, aux.dim, n_steps)
    return contextlib.nullcontext(rng)


def run_chain(
    kernel: InvolutiveKernel,
    q0: np.ndarray,
    n_steps: int,
    rng: np.random.Generator,
) -> ChainResult:
    """Run ``n_steps`` Metropolis steps from ``q0``.

    Deterministic given (kernel, q0, rng state).  The starting point must
    have finite potential.  ``n_steps`` is an integer >= 0, checked before
    any draw.

    Each step draws its auxiliary variable and then one uniform from
    ``rng``.  When the kernel's law declares ``gaussian_noise`` at a
    dimension of at least ``NOISE_THREAD_DIM`` (8192), the chain has two
    steps or more and the process may use two CPUs, a producer thread makes
    these draws ahead while the steps run (:class:`_NoiseSource`), in the
    same order and exactly ``n_steps`` of each: the chain and the
    generator's state afterwards are the same as without it, bit for bit.
    Below 8192 the thread's handoff costs more than the draw (at d=1024 it
    made pcn steps 1.9 times slower; at 8192 it made every function-space
    kernel faster; see ``NOISE_THREAD_DIM``).  The thread is joined before
    ``run_chain`` returns or raises; after an exception the generator may
    have advanced by the steps drawn ahead.
    """
    require_count(0, n_steps=n_steps)
    q = np.asarray(q0, dtype=float)
    d = q.shape[0]
    positions = np.empty((n_steps + 1, d))
    alphas = np.empty(n_steps)
    accepted = np.zeros(n_steps, dtype=bool)
    positions[0] = q
    with np.errstate(over="ignore", invalid="ignore"):
        start_value = kernel.target.eval(q)
    if not np.isfinite(start_value):
        raise ConfigurationError("chain started at a point of zero target density")
    memo = {kernel.target.eval: start_value}
    with _draws(kernel.aux, rng, n_steps) as draws:
        for k in range(n_steps):
            result = mh_step(kernel, q, draws, memo)
            q, memo = result.next, result.memo
            positions[k + 1] = q
            alphas[k] = result.alpha
            accepted[k] = result.accepted
    return ChainResult(positions=positions, alphas=alphas, accepted=accepted)


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
