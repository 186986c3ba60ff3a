import math
import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import invmh.diagnostics
from invmh.diagnostics import (
    detailed_balance_test,
    ess,
    moment_check,
    summarize_chain,
    transition_pairs,
)


def dense_gram_detailed_balance_test(pairs, rng, n_permutations=999, max_pairs=2000):
    """Reference: the full n x n gap matrix by the Gram trick, every
    permutation statistic from one product with it (the implementation the
    blocked upper-triangle one replaced)."""
    pairs = np.asarray(pairs, dtype=float)
    n = pairs.shape[0]
    if n > max_pairs:
        idx = rng.choice(n, size=max_pairs, replace=False)
        idx.sort()
        pairs = pairs[idx]
        n = max_pairs
    sq = np.sum(pairs**2, axis=1)
    within = sq[:, None] + sq[None, :] - 2.0 * (pairs @ pairs.T)
    cross = sq[:, None] + sq[None, :] - 2.0 * (pairs @ pairs[:, ::-1].T)
    gap = np.sqrt(np.maximum(cross, 0.0)) - np.sqrt(np.maximum(within, 0.0))
    scale = 2.0 / (n * n)
    observed = scale * float(gap.sum())
    signs = rng.integers(0, 2, size=(n, n_permutations)).astype(float) * 2.0 - 1.0
    stats = scale * np.sum(signs * (gap @ signs), axis=0)
    return (1 + int(np.sum(stats >= observed - 1e-15))) / (1 + n_permutations)


def metropolis_ar1_pairs(rng, n, acceptance):
    """``n`` disjoint transition pairs ``(x_2k, x_2k+1)`` of a stationary
    AR(1) (coefficient 0.5) whose moves are kept with probability
    ``acceptance``.  The pairs are exchangeable, so p-values spread over
    (0, 1].  A refused move repeats the state: its pair has ``x == y``, and
    flipping it leaves every statistic alone."""
    x = np.empty(2 * n)
    x[0] = rng.standard_normal()
    for k in range(2 * n - 1):
        move = 0.5 * x[k] + math.sqrt(0.75) * rng.standard_normal()
        x[k + 1] = move if rng.random() < acceptance else x[k]
    return x.reshape(n, 2)


def reference_pairs(rng, n, kind):
    """``n`` pairs for the dense reference: ``metropolis_ar1_pairs`` with
    acceptance ``kind`` (also for ``"offset"``, which is 1.0 there), or the
    transition pairs of a slowly mixing AR(1) (coefficient 0.999)."""
    if kind == "slow":
        x = np.empty(n + 1)
        x[0] = rng.standard_normal() / math.sqrt(1 - 0.999**2)
        for k in range(n):
            x[k + 1] = 0.999 * x[k] + rng.standard_normal()
        return transition_pairs(x)
    return metropolis_ar1_pairs(rng, n, 1.0 if kind == "offset" else kind)


class TestDetailedBalanceTest:
    # Row-block edges (ROW_BLOCK = 128), strips that straddle column chunks
    # (COL_BLOCK = 256: 257 and 513) and the default cap; 0.05 acceptance
    # leaves few pairs that flipping can move, so statistics tie often.
    @pytest.mark.parametrize("kind", [1.0, 0.05, "slow", "offset"])
    @pytest.mark.parametrize("n_permutations", [199, 999])
    @pytest.mark.parametrize(
        "n, max_pairs, seeds",
        [
            (100, 2000, 3),
            (127, 2000, 3),
            (128, 2000, 3),
            (129, 2000, 3),
            (257, 2000, 3),
            (513, 2000, 3),
            (2000, 2000, 1),
            (700, 300, 3),
        ],
    )
    def test_matches_dense_reference(self, n, max_pairs, seeds, n_permutations, kind):
        for seed in range(seeds):
            pairs = reference_pairs(np.random.default_rng(seed), n, kind)
            reference_rng, rng = np.random.default_rng(100 + seed), np.random.default_rng(100 + seed)
            # "offset" tests the pairs plus 1e6.  There the reference's
            # expansion |a|^2 + |b|^2 - 2 a.b would cancel some twelve
            # digits, so it gets the same points moved back by 1e6 (exact
            # subtractions); moving both coordinates alike changes no
            # distance.
            tested = pairs + 1e6 if kind == "offset" else pairs
            expected = dense_gram_detailed_balance_test(
                tested - 1e6 if kind == "offset" else tested,
                reference_rng,
                n_permutations,
                max_pairs,
            )
            got = detailed_balance_test(tested, rng, n_permutations, max_pairs)
            assert got == expected
            # The same subsample and sign draws: the generators end alike.
            assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_exchangeable_pairs_hold_level(self):
        # Calibration: under exact exchangeability the test rejects at the
        # nominal level; over 200 replicates the 0.05-level rejection rate
        # stays within [0.02, 0.09].
        rng = np.random.default_rng(7)
        rejections = 0
        replicates = 200
        for _ in range(replicates):
            x = rng.standard_normal(200)
            y = rng.standard_normal(200)
            swap = rng.integers(0, 2, 200).astype(bool)
            pairs = np.where(swap[:, None], np.column_stack([y, x]), np.column_stack([x, y]))
            p = detailed_balance_test(pairs, rng, n_permutations=199)
            rejections += p <= 0.05
        rate = rejections / replicates
        assert 0.02 <= rate <= 0.09

    def test_detects_unadjusted_langevin(self):
        # MALA with the accept step forced on (always accept) is plain ULA;
        # on a skewed target it violates detailed balance detectably.
        rng = np.random.default_rng(3)
        delta = 2.0
        grad_u = lambda q: -math.exp(-q) + 0.5
        q = 0.0
        n = 20_001
        chain = np.empty(n)
        for k in range(n):
            chain[k] = q
            q = q - 0.5 * delta**2 * grad_u(q) + delta * rng.standard_normal()
        p = detailed_balance_test(transition_pairs(chain[2000:]), rng)
        assert p < 0.01

    def test_reversible_chain_passes(self):
        # A stationary AR(1) with symmetric innovations is reversible.
        rng = np.random.default_rng(5)
        phi = 0.7
        n = 5000
        x = np.empty(n)
        x[0] = rng.standard_normal() / math.sqrt(1 - phi**2)
        for k in range(1, n):
            x[k] = phi * x[k - 1] + rng.standard_normal()
        p = detailed_balance_test(transition_pairs(x), rng)
        assert p > 0.01

    def test_constant_chain_p_one(self):
        rng = np.random.default_rng(0)
        pairs = np.ones((500, 2))
        assert detailed_balance_test(pairs, rng) == 1.0

    def test_too_few_pairs(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            detailed_balance_test(np.ones((99, 2)), rng)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pairs(self, bad):
        pairs = metropolis_ar1_pairs(np.random.default_rng(0), 300, 1.0)
        pairs[17, 1] = bad
        with pytest.raises(ValueError, match="finite"):
            detailed_balance_test(pairs, np.random.default_rng(0))

    @pytest.mark.parametrize("n_permutations", [0, -1])
    def test_no_permutations(self, n_permutations):
        pairs = metropolis_ar1_pairs(np.random.default_rng(0), 300, 1.0)
        with pytest.raises(ValueError, match="n_permutations"):
            detailed_balance_test(pairs, np.random.default_rng(0), n_permutations)

    @pytest.mark.parametrize("max_pairs", [10, 99])
    def test_max_pairs_below_100(self, max_pairs):
        pairs = metropolis_ar1_pairs(np.random.default_rng(0), 300, 1.0)
        with pytest.raises(ValueError, match="underpowered"):
            detailed_balance_test(pairs, np.random.default_rng(0), max_pairs=max_pairs)

    def test_p_value_does_not_depend_on_scale(self):
        # Unadjusted Langevin pairs (see test_detects_unadjusted_langevin)
        # scaled by 2^k, exactly: every scale reads the unscaled p-value,
        # though squares overflow from k = 512 and gaps fall far below 1e-15
        # at k = -500.
        rng = np.random.default_rng(3)
        q, chain = 0.0, np.empty(1001)
        for k in range(chain.size):
            chain[k] = q
            q = q - 2.0 * (-math.exp(-q) + 0.5) + 2.0 * rng.standard_normal()
        pairs = transition_pairs(chain)
        pvalues = []
        for k in (-1000, -500, 0, 500, 1000):
            scaled = np.ldexp(pairs, k)
            assert np.array_equal(np.ldexp(scaled, -k), pairs)
            pvalues.append(detailed_balance_test(scaled, np.random.default_rng(9), 199))
        assert pvalues == [0.005] * 5

    def test_subsampling_path(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(5000)
        pairs = np.column_stack([x, x[::-1]])
        p = detailed_balance_test(pairs, rng, max_pairs=500)
        assert 0.0 < p <= 1.0


class TestStripWorkers:
    """The strips run in worker threads, one per CPU; results are summed in
    strip order, so any worker count gives the one-worker result bit for bit."""

    def run(self, monkeypatch, workers, pairs, **kwargs):
        monkeypatch.setattr(invmh.diagnostics, "_worker_count", lambda: workers)
        rng = np.random.default_rng(11)
        p = detailed_balance_test(pairs, rng, **kwargs)
        return p, rng.bit_generator.state

    @pytest.mark.parametrize(
        "n, max_pairs",
        [
            (100, 2000),
            (127, 2000),
            (128, 2000),
            (129, 2000),
            (257, 2000),
            (2000, 2000),
            (700, 300),
        ],
    )
    def test_threads_match_one_worker(self, monkeypatch, n, max_pairs):
        pairs = metropolis_ar1_pairs(np.random.default_rng(n), n, 0.5)
        expected = self.run(monkeypatch, 1, pairs, max_pairs=max_pairs)
        for workers in (2, 3):
            assert self.run(monkeypatch, workers, pairs, max_pairs=max_pairs) == expected

    def test_more_workers_than_cpus_under_fast_thread_switching(self, monkeypatch):
        # Each running strip takes a scratch set from a shared list; a set
        # handed to two strips at once would corrupt the statistics.
        pairs = metropolis_ar1_pairs(np.random.default_rng(5), 1000, 1.0)
        expected = self.run(monkeypatch, 1, pairs, n_permutations=199)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = self.run(monkeypatch, 4 * (os.cpu_count() or 1), pairs, n_permutations=199)
        finally:
            sys.setswitchinterval(interval)
        assert got == expected

    def test_no_thread_outlives_the_call(self, monkeypatch):
        pairs = metropolis_ar1_pairs(np.random.default_rng(2), 600, 1.0)
        before = threading.active_count()
        self.run(monkeypatch, 3, pairs)
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [1, 3])
    def test_failed_sign_draw_raises_and_leaves_no_thread(self, monkeypatch, workers):
        # The strips of two or more workers start before the signs are
        # drawn and wait for them; a failed draw must release them.
        def fail(*args, **kwargs):
            raise RuntimeError("sign draw failed")

        monkeypatch.setattr(invmh.diagnostics, "_signs", fail)
        pairs = metropolis_ar1_pairs(np.random.default_rng(2), 600, 1.0)
        before = threading.active_count()
        raised = []

        def call():
            try:
                self.run(monkeypatch, workers, pairs)
            except RuntimeError as error:
                raised.append(error)

        caller = threading.Thread(target=call, daemon=True)
        caller.start()
        caller.join(timeout=10.0)
        assert not caller.is_alive(), "the call still waits for the signs"
        assert [str(error) for error in raised] == ["sign draw failed"]
        assert threading.active_count() == before

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_scratch_memory(self, monkeypatch, workers):
        # 2000 pairs and 999 permutations: 8 MB of single-precision signs,
        # and per worker a float32 gap strip (1 MB), a float32 product
        # (0.5 MB) and three float64 column chunks (0.8 MB).  Strips as wide
        # as the gap matrix in double precision took 16.0, 23.8 and 39.4 MB.
        pairs = metropolis_ar1_pairs(np.random.default_rng(3), 2000, 1.0)
        self.run(monkeypatch, workers, pairs)  # imports the pool beforehand
        tracemalloc.start()
        try:
            self.run(monkeypatch, workers, pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (10.0 + 2.5 * workers) * 1e6

    @pytest.mark.parametrize("n, n_permutations", [(100, 999), (129, 1), (300, 199)])
    def test_chunked_signs_match_one_draw(self, n, n_permutations):
        one, chunked = np.random.default_rng(4), np.random.default_rng(4)
        expected = one.integers(0, 2, size=(n, n_permutations)).astype(np.float32) * 2.0 - 1.0
        got = invmh.diagnostics._signs(chunked, n, n_permutations)
        assert got.dtype == expected.dtype and np.array_equal(got, expected)
        assert chunked.random() == one.random()

    def test_import_loads_neither_thread_pools_nor_logging(self):
        # The pool is imported by the first threaded call, not by the
        # package: an import at the top would add ~7 ms to every start.
        code = (
            "import sys, invmh; "
            "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
        )
        src = str(Path(invmh.diagnostics.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        assert out.stdout.strip() == "[]"


class TestEss:
    def test_iid_near_n(self):
        rng = np.random.default_rng(11)
        n = 10_000
        value = ess(rng.standard_normal(n))
        assert 0.8 * n <= value <= 1.2 * n

    def test_ar1_known_autocorrelation_time(self):
        # AR(1) with coefficient 0.9: ESS ~ N (1 - 0.9)/(1 + 0.9), +-30%.
        rng = np.random.default_rng(13)
        phi = 0.9
        n = 50_000
        x = np.empty(n)
        x[0] = rng.standard_normal() / math.sqrt(1 - phi**2)
        for k in range(1, n):
            x[k] = phi * x[k - 1] + rng.standard_normal()
        expected = n * (1 - phi) / (1 + phi)
        value = ess(x)
        assert abs(value - expected) <= 0.3 * expected

    def test_constant_chain_flagged(self):
        value, degenerate = ess(np.full(100, 2.5), with_flag=True)
        assert value == 100.0
        assert degenerate

    def test_affine_invariance(self):
        rng = np.random.default_rng(17)
        x = np.cumsum(rng.standard_normal(2000)) * 0.1 + rng.standard_normal(2000)
        assert ess(3.0 * x - 2.0) == pytest.approx(ess(x), rel=1e-9)

    def test_short_chain_error(self):
        with pytest.raises(ValueError):
            ess(np.arange(5.0))

    def test_never_exceeds_length(self):
        rng = np.random.default_rng(19)
        # Antithetic chain: negative lag-1 autocorrelation.
        x = rng.standard_normal(1000)
        x[1::2] = -x[0::2]
        assert ess(x) <= 1000.0


class TestMomentCheck:
    def test_iid_calibration(self):
        rng = np.random.default_rng(23)
        hits = 0
        replicates = 200
        for _ in range(replicates):
            chain = rng.standard_normal((2000, 1))
            report = moment_check(chain, np.zeros(1), np.ones(1), batch_count=20)
            hits += abs(report.mean_z[0]) <= 3 and abs(report.var_z[0]) <= 3
        assert hits / replicates >= 0.97

    def test_shifted_truth_detected(self):
        rng = np.random.default_rng(29)
        chain = rng.standard_normal((5000, 1))
        honest = moment_check(chain, np.zeros(1), np.ones(1), batch_count=20)
        shifted = moment_check(
            chain, np.zeros(1) + 10 * honest.mean_se, np.ones(1), batch_count=20
        )
        assert abs(shifted.mean_z[0]) > 3

    def test_batch_count_validation(self):
        rng = np.random.default_rng(31)
        with pytest.raises(ValueError):
            moment_check(rng.standard_normal((100, 1)), 0.0, 1.0, batch_count=5)
        with pytest.raises(ValueError):
            moment_check(rng.standard_normal((5, 1)), 0.0, 1.0, batch_count=10)

    def test_vector_chain(self):
        rng = np.random.default_rng(37)
        chain = rng.standard_normal((4000, 3)) * np.sqrt([1.0, 0.25, 4.0])
        report = moment_check(chain, np.zeros(3), np.array([1.0, 0.25, 4.0]), batch_count=20)
        assert report.max_abs_z() <= 4.0


class TestSummarizeChain:
    def test_summary_fields(self):
        rng = np.random.default_rng(41)
        positions = rng.standard_normal((2000, 2))
        accepted = rng.uniform(size=1999) < 0.7
        summary = summarize_chain(positions, accepted, rng, burn_in=100)
        assert 0.0 <= summary.acceptance_rate <= 1.0
        assert set(summary.ess) == {"coord_0", "sq_norm"}
        assert all(v <= 1900 for v in summary.ess.values())
        assert len(summary.means) == 2
        assert all(se >= 0 for se in summary.mean_se)
        d = summary.to_dict()
        assert d["n_steps"] == 1999

    def test_non_finite_observable_reads_nan(self):
        # The squared norm overflows at one state; the first coordinate
        # stays finite and is still tested.
        rng = np.random.default_rng(43)
        positions = rng.standard_normal((500, 2))
        positions[250, 1] = 1e200
        with np.errstate(over="ignore", invalid="ignore"):
            summary = summarize_chain(positions, np.ones(499, dtype=bool), rng)
        assert math.isnan(summary.db_pvalue["sq_norm"])
        assert 0.0 < summary.db_pvalue["coord_0"] <= 1.0
