"""Statistical verification of finished chains: a permutation test for
detailed balance, effective sample size with Geyer truncation, and
batch-means moment checks against analytic targets."""

from __future__ import annotations

import math
import os
import threading
from dataclasses import asdict, dataclass, field

import numpy as np

__all__ = [
    "ChainSummary",
    "detailed_balance_test",
    "transition_pairs",
    "ess",
    "moment_check",
    "MomentReport",
    "summarize_chain",
]

DEFAULT_PERMUTATIONS = 999
DEFAULT_MAX_PAIRS = 2000
# detailed_balance_test builds the gap matrix ROW_BLOCK rows at a time, forms
# a strip's double-precision distances COL_BLOCK columns at a time, and draws
# the signs SIGN_BLOCK rows at a time.
ROW_BLOCK = 128
COL_BLOCK = 256
SIGN_BLOCK = 32
# Batches of summarize_chain's batch-means standard errors.
SUMMARY_BATCHES = 20


def transition_pairs(observable: np.ndarray) -> np.ndarray:
    """Consecutive pairs ``(g(q_k), g(q_{k+1}))`` of a scalar chain, the
    input of :func:`detailed_balance_test`."""
    x = np.asarray(observable, dtype=float).ravel()
    return np.column_stack([x[:-1], x[1:]])


def _worker_count() -> int:
    """CPUs this process may run on: one strip worker each."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _signs(rng: np.random.Generator, n: int, n_permutations: int, observed=False) -> np.ndarray:
    """``n`` by ``n_permutations`` random signs in single precision, the
    values and generator state of ``rng.integers(0, 2, size=(n, n_permutations)) * 2.0 - 1.0``
    without its full-size temporaries: the integers are drawn in blocks of
    ``SIGN_BLOCK`` rows, which consume the stream in the same order, and
    each block is mapped to signs in place.  With ``observed``, a column of ones, the
    observed statistic's signs, comes first."""
    signs = np.ones((n, observed + n_permutations), dtype=np.float32)
    for r0 in range(0, n, SIGN_BLOCK):
        block = signs[r0 : r0 + SIGN_BLOCK, observed:]
        block[...] = rng.integers(0, 2, size=block.shape)
        np.subtract(np.multiply(block, 2, out=block), 1, out=block)
    return signs


def _distance_into(out, scratch, x1, x2, y1, y2) -> np.ndarray:
    """``sqrt((x1 - x2)**2 + (y1 - y2)**2)`` written into ``out``: the same
    IEEE operations as the expression, with no temporaries."""
    np.square(np.subtract(x1, x2, out=out), out=out)
    np.square(np.subtract(y1, y2, out=scratch), out=scratch)
    out += scratch
    return np.sqrt(out, out=out)


def detailed_balance_test(
    pairs: np.ndarray,
    rng: np.random.Generator,
    n_permutations: int = DEFAULT_PERMUTATIONS,
    max_pairs: int = DEFAULT_MAX_PAIRS,
) -> float:
    """Permutation two-sample test of detailed balance on transition pairs.

    Under detailed balance of a stationary chain the pair ``(x, y)`` has the
    same law as ``(y, x)``, so the orientation of each pair is exchangeable.
    The statistic is the energy distance between the sample of pairs and its
    coordinate-swapped mirror; the reference distribution flips each pair
    independently.  Swapping is an isometry of the plane, which collapses
    each permutation statistic to a multiple of the quadratic form
    ``s^T G s`` over signs ``s``, with the gap matrix
    ``G_ij = |a_i - T a_j| - |a_i - a_j|``.  ``T`` is an isometric
    involution, so ``G`` is symmetric and
    ``s^T G s / 2 = sum_i G_ii / 2 + sum_{i<j} s_i s_j G_ij``: only the
    upper triangle is built, in strips of ``ROW_BLOCK`` rows straight from
    the pair coordinates, ``COL_BLOCK`` columns at a time, and all
    statistics of a strip are evaluated with one matrix product.

    Distances and gaps are formed in double precision, where the gap's
    difference cancels, and stored in single precision; the products with
    the signs are single-precision (``sgemm``), and each strip's sum over
    its rows is double-precision.  The observed statistic is the column of
    all-ones signs of the same products, so it is computed exactly as the
    permutation statistics are, and the p-value stays exact under
    exchangeability.  The pairs are first scaled by a power of two that
    brings their largest magnitude into ``[0.5, 1)``; the scaling is exact,
    so it does not change the p-value, and it keeps the squares and the
    single-precision gaps in range at any scale.

    The strips run in worker threads, one per CPU the process may use, in
    a pool created and joined within the call; their results are summed in
    strip order, so the p-value does not depend on the worker count.  With
    two or more workers the first strips build their gaps while the
    calling thread draws the signs.  The threads pay off when each BLAS
    call runs on one thread (for OpenBLAS, ``OPENBLAS_NUM_THREADS=1``); a
    multithreaded BLAS already spreads the products over the cores.
    Scratch memory is ``O(workers * ROW_BLOCK * (n + n_permutations))`` in
    single precision and ``O(workers * ROW_BLOCK * COL_BLOCK)`` in double
    precision, besides the ``n`` by ``n_permutations + 1`` single-precision
    signs; no ``n`` by ``n`` matrix is held.

    At most ``max_pairs`` pairs enter the test (a uniform subsample is
    drawn above that).  Fewer than 100 pairs, a ``max_pairs`` below 100,
    no permutations or a pair that is not finite is an error.
    """
    pairs = np.asarray(pairs, dtype=float)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ValueError("pairs must be an (n, 2) array")
    n = pairs.shape[0]
    if min(n, max_pairs) < 100:
        raise ValueError(f"detailed balance test underpowered below 100 pairs: {n=}, {max_pairs=}")
    if n_permutations < 1:
        raise ValueError(f"n_permutations must be at least 1, got {n_permutations}")
    if not np.isfinite(pairs).all():
        raise ValueError("pairs must be finite")
    if n > max_pairs:
        idx = rng.choice(n, size=max_pairs, replace=False)
        idx.sort()
        pairs = pairs[idx]
        n = max_pairs

    pairs = np.ldexp(pairs, -np.frexp(np.abs(pairs).max())[1])  # exact: max |pair| in [0.5, 1)
    x, y = pairs[:, 0], pairs[:, 1]
    # Upper-triangle weights of a strip's diagonal block: 1/2 on the
    # diagonal, 1 above it, 0 below.
    head_weights = np.triu(np.ones((ROW_BLOCK, ROW_BLOCK), "f")) - np.eye(ROW_BLOCK, dtype="f") / 2

    starts = range(0, n, ROW_BLOCK)
    workers = min(_worker_count(), len(starts))
    # Scratch rows per worker: a running strip holds one set, taken from and
    # given back to this list (list.pop and list.append are atomic).  The
    # float64 cross, within and scratch rows hold one column chunk, the
    # float32 gaps and product rows the whole strip.
    cols = (COL_BLOCK, COL_BLOCK, COL_BLOCK, n, n_permutations + 1)
    free = [[np.empty(ROW_BLOCK * c, t) for c, t in zip(cols, "dddff")] for _ in range(workers)]
    drawn = threading.Event()

    def strip_stats(s0: int) -> np.ndarray:
        b, m = min(ROW_BLOCK, n - s0), n - s0
        xi, yi = x[s0 : s0 + b, None], y[s0 : s0 + b, None]
        rows = free.pop()
        gaps = rows[3][: b * m].reshape(b, m)
        product = rows[4][: b * (n_permutations + 1)].reshape(b, -1)
        for c0 in range(0, m, COL_BLOCK):
            xj, yj = x[s0 + c0 : s0 + c0 + COL_BLOCK], y[s0 + c0 : s0 + c0 + COL_BLOCK]
            cross, within, scratch = (row[: b * xj.size].reshape(b, -1) for row in rows[:3])
            _distance_into(cross, scratch, xi, yj, yi, xj)
            _distance_into(within, scratch, xi, xj, yi, yj)
            np.subtract(cross, within, out=gaps[:, c0 : c0 + xj.size])
        gaps[:, :b] *= head_weights[:b, :b]
        drawn.wait()
        np.matmul(gaps, signs[s0:], out=product)
        stats = np.einsum("ij,ij->j", signs[s0 : s0 + b], product, dtype=float)
        free.append(rows)
        return stats

    from concurrent.futures import ThreadPoolExecutor  # not at import: it costs ~7 ms
    stats = np.zeros(n_permutations + 1)
    # With two or more workers the strips start building their gaps while
    # this thread draws the signs; one worker draws them first.  Strip
    # results are summed in strip order whatever the worker count; the pool
    # starts threads only when its map is used.
    with ThreadPoolExecutor(workers) as pool:
        strips = (pool.map if workers > 1 else map)(strip_stats, starts)
        try:
            signs = _signs(rng, n, n_permutations, observed=True)
        finally:
            drawn.set()  # a failed draw leaves no strip waiting
        for strip in strips:
            stats += strip
    n_at_least = int(np.sum(stats[1:] >= stats[0]))
    return (1 + n_at_least) / (1 + n_permutations)


def ess(chain: np.ndarray, with_flag: bool = False):
    """Effective sample size ``N / (1 + 2 sum rho_k)`` with Geyer
    initial-positive-sequence truncation of the autocorrelations.

    A zero-variance chain is degenerate: its ESS is reported as ``N`` with
    the flag set.  The estimate is invariant under affine transformations
    and clipped to ``[1, N]``.
    """
    x = np.asarray(chain, dtype=float).ravel()
    n = x.size
    if n < 10:
        raise ValueError("ess requires a chain of length >= 10")
    x = x - x.mean()
    variance = float(x @ x) / n
    if variance == 0.0 or not math.isfinite(variance):
        return (float(n), True) if with_flag else float(n)

    size = 1 << (2 * n - 1).bit_length()
    transformed = np.fft.rfft(x, size)
    acov = np.fft.irfft(transformed * np.conj(transformed), size)[:n] / n
    rho = acov / acov[0]

    # Sum of autocorrelation pairs is positive for any reversible chain;
    # truncate at the first nonpositive pair.
    n_pairs = n // 2
    pair_sums = rho[0 : 2 * n_pairs : 2] + rho[1 : 2 * n_pairs : 2]
    tau = 0.0
    for value in pair_sums:
        if value <= 0.0:
            break
        tau += 2.0 * value
    tau -= 1.0
    tau = max(tau, 1e-12)
    value = min(float(n), max(1.0, n / tau))
    return (value, False) if with_flag else value


@dataclass(frozen=True)
class MomentReport:
    """Batch-means comparison of empirical moments against analytic values;
    ``mean_z`` and ``var_z`` are per-coordinate z-scores."""

    means: np.ndarray
    mean_se: np.ndarray
    mean_z: np.ndarray
    variances: np.ndarray
    var_se: np.ndarray
    var_z: np.ndarray

    def max_abs_z(self) -> float:
        return float(max(np.max(np.abs(self.mean_z)), np.max(np.abs(self.var_z))))


def moment_check(
    chain: np.ndarray,
    mean_true: np.ndarray,
    var_true: np.ndarray,
    batch_count: int = 20,
) -> MomentReport:
    """Compare per-coordinate chain means and variances against analytic
    values using batch-means standard errors: ``z = (estimate - truth)/SE``.
    """
    chain = np.asarray(chain, dtype=float)
    if chain.ndim == 1:
        chain = chain[:, None]
    n = chain.shape[0]
    if batch_count < 10:
        raise ValueError("batch_count must be at least 10")
    if n < batch_count:
        raise ValueError("chain shorter than the number of batches")
    batch = n // batch_count
    used = batch * batch_count
    data = chain[:used]
    mean_true = np.broadcast_to(np.asarray(mean_true, dtype=float), data.shape[1:])
    var_true = np.broadcast_to(np.asarray(var_true, dtype=float), data.shape[1:])

    overall_mean = data.mean(axis=0)
    blocks = data.reshape(batch_count, batch, -1)
    block_means = blocks.mean(axis=1)
    mean_se = block_means.std(axis=0, ddof=1) / math.sqrt(batch_count)

    centered_sq = (data - overall_mean) ** 2
    overall_var = centered_sq.mean(axis=0)
    block_vars = centered_sq.reshape(batch_count, batch, -1).mean(axis=1)
    var_se = block_vars.std(axis=0, ddof=1) / math.sqrt(batch_count)

    with np.errstate(divide="ignore", invalid="ignore"):
        mean_z = (overall_mean - mean_true) / mean_se
        var_z = (overall_var - var_true) / var_se
    return MomentReport(
        means=overall_mean,
        mean_se=mean_se,
        mean_z=mean_z,
        variances=overall_var,
        var_se=var_se,
        var_z=var_z,
    )


@dataclass
class ChainSummary:
    """Per-chain report: acceptance rate, per-observable ESS, per-coordinate
    moments with batch-means standard errors, and detailed-balance p-values
    for the default observables (first coordinate and squared norm)."""

    acceptance_rate: float
    ess: dict[str, float]
    means: list[float]
    mean_se: list[float]
    variances: list[float]
    variance_se: list[float]
    db_pvalue: dict[str, float]
    n_steps: int = 0
    degenerate: dict[str, bool] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def default_observables(positions: np.ndarray) -> dict[str, np.ndarray]:
    return {
        "coord_0": positions[:, 0],
        "sq_norm": np.sum(positions**2, axis=1),
    }


def summarize_chain(
    positions: np.ndarray,
    accepted: np.ndarray,
    rng: np.random.Generator,
    burn_in: int = 0,
) -> ChainSummary:
    """Build a :class:`ChainSummary` from a realized chain.

    ``burn_in`` initial states are dropped before any statistic is formed.
    The detailed-balance test (on at most ``DEFAULT_MAX_PAIRS`` pairs) and
    ESS are computed per default observable; moments carry batch-means
    standard errors over ``SUMMARY_BATCHES`` batches.  Chains too short for
    a test, and observables that are not finite, report NaN for it.
    """
    positions = np.atleast_2d(np.asarray(positions, dtype=float))
    kept = positions[burn_in:]
    accepted = np.asarray(accepted, dtype=bool)
    acceptance = float(accepted.mean()) if accepted.size else 0.0

    observables = default_observables(kept)
    ess_values: dict[str, float] = {}
    degenerate: dict[str, bool] = {}
    pvalues: dict[str, float] = {}
    for name, series in observables.items():
        if series.size >= 10:
            value, flag = ess(series, with_flag=True)
        else:
            value, flag = float("nan"), True
        ess_values[name] = value
        degenerate[name] = bool(flag)
        pairs = transition_pairs(series)
        if pairs.shape[0] >= 100 and np.isfinite(series).all():
            pvalues[name] = detailed_balance_test(pairs, rng)
        else:
            pvalues[name] = float("nan")

    n, d = kept.shape
    if n >= SUMMARY_BATCHES:
        report = moment_check(kept, np.zeros(d), np.ones(d), batch_count=SUMMARY_BATCHES)
        means = report.means
        mean_se = report.mean_se
        variances = report.variances
        var_se = report.var_se
    else:
        means = kept.mean(axis=0) if n else np.full(d, np.nan)
        mean_se = np.full(d, np.nan)
        variances = kept.var(axis=0) if n else np.full(d, np.nan)
        var_se = np.full(d, np.nan)

    return ChainSummary(
        acceptance_rate=acceptance,
        ess=ess_values,
        means=[float(x) for x in means],
        mean_se=[float(x) for x in mean_se],
        variances=[float(x) for x in variances],
        variance_se=[float(x) for x in var_se],
        db_pvalue=pvalues,
        n_steps=int(accepted.size),
        degenerate=degenerate,
    )
