import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from invmh import ConfigurationError, SpectralGaussian, power_law_eigenvalues


def test_power_law_values():
    lam = power_law_eigenvalues(4, c=2.0, p=2.0)
    np.testing.assert_allclose(lam, [2.0, 0.5, 2.0 / 9.0, 0.125])


def test_eigenvalue_validation():
    with pytest.raises(ConfigurationError):
        SpectralGaussian(np.array([1.0, -0.5]))
    with pytest.raises(ConfigurationError):
        SpectralGaussian(np.array([0.5, 1.0]))
    with pytest.raises(ConfigurationError):
        SpectralGaussian(np.array([]))


class TestSample:
    def test_unit_eigenvalues_standard_normal(self):
        g = SpectralGaussian(np.ones(3))
        rng = np.random.default_rng(1)
        rng_ref = np.random.default_rng(1)
        np.testing.assert_array_equal(g.sample(rng), rng_ref.standard_normal(3))

    def test_seed_reproducible(self):
        g = SpectralGaussian(power_law_eigenvalues(5))
        a = g.sample(np.random.default_rng(7))
        b = g.sample(np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_moments_match_eigenvalues(self):
        # 1e5 draws: mean within 3 SE of 0, variance within 3 SE of lambda_i.
        g = SpectralGaussian(power_law_eigenvalues(4))
        rng = np.random.default_rng(3)
        n = 100_000
        draws = np.array([g.sample(rng) for _ in range(n)])
        lam = g.eigenvalues
        mean_se = np.sqrt(lam / n)
        assert np.all(np.abs(draws.mean(axis=0)) <= 3 * mean_se)
        var_se = lam * math.sqrt(2.0 / (n - 1))
        assert np.all(np.abs(draws.var(axis=0) - lam) <= 3 * var_se)


class TestSameArithmetic:
    # The methods against their plain formulas, bit for bit: each works in
    # fewer temporaries, with the same operations in the same order.
    @settings(max_examples=30, deadline=None)
    @given(d=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_plain_formulas(self, d, seed):
        rng = np.random.default_rng(seed)
        g = SpectralGaussian(power_law_eigenvalues(d, c=rng.uniform(0.1, 3.0)))
        lam = g.eigenvalues
        x, y = rng.standard_normal(d), rng.standard_normal(d)
        assert g.frac_power(1.0, x).tobytes() == (lam**1.0 * x).tobytes()
        assert g.cm_inner(x, y) == float(np.sum(x * y / lam))
        assert g.cm_sq_norm(x) == float(np.sum(x**2 / lam))
        draw = g.sample(np.random.default_rng(seed))
        expected = np.sqrt(lam) * np.random.default_rng(seed).standard_normal(d)
        assert draw.tobytes() == expected.tobytes()


class TestFracPower:
    def test_gamma_zero_identity(self):
        g = SpectralGaussian(np.array([3.0, 0.5]))
        x = np.array([1.7, -2.2])
        np.testing.assert_array_equal(g.frac_power(0.0, x), x)

    def test_inverse_sqrt_example(self):
        g = SpectralGaussian(np.array([4.0, 1.0]))
        np.testing.assert_allclose(g.frac_power(-0.5, np.array([2.0, 3.0])), [1.0, 3.0])

    def test_inverse_composition(self):
        g = SpectralGaussian(power_law_eigenvalues(6))
        x = np.linspace(-1, 1, 6)
        np.testing.assert_allclose(
            g.frac_power(0.5, g.frac_power(-0.5, x)), x, rtol=1e-12
        )

    @settings(max_examples=50, deadline=None)
    @given(
        g1=st.floats(-1.5, 1.5),
        g2=st.floats(-1.5, 1.5),
    )
    def test_power_addition(self, g1, g2):
        g = SpectralGaussian(np.array([2.5, 1.0, 0.3]))
        x = np.array([0.4, -1.2, 2.0])
        np.testing.assert_allclose(
            g.frac_power(g1, g.frac_power(g2, x)),
            g.frac_power(g1 + g2, x),
            rtol=1e-12,
            atol=1e-14,
        )


class TestCameronMartin:
    def test_zero_shift(self):
        g = SpectralGaussian(power_law_eigenvalues(3))
        assert g.cm_log_ratio(np.zeros(3), np.array([0.3, 0.1, -0.2])) == 0.0

    def test_scalar_example(self):
        g = SpectralGaussian(np.array([1.0]))
        assert g.cm_log_ratio(np.array([1.0]), np.array([0.0])) == pytest.approx(-0.5)

    def test_matches_lebesgue_density_difference(self):
        # log dN(m, C)/dN(0, C)(x) = log N(x - m; 0, C) - log N(x; 0, C).
        g = SpectralGaussian(power_law_eigenvalues(5, c=1.3, p=1.5))
        rng = np.random.default_rng(11)
        for _ in range(50):
            shift = g.sample(rng)
            x = g.sample(rng)
            direct = g.cm_log_ratio(shift, x)
            via_density = g.log_density_lebesgue(x - shift) - g.log_density_lebesgue(x)
            assert direct == pytest.approx(via_density, abs=1e-10)


class TestLebesgueDensity:
    def test_standard_scalar_at_zero(self):
        g = SpectralGaussian(np.array([1.0]))
        assert g.log_density_lebesgue(np.zeros(1)) == pytest.approx(
            -0.5 * math.log(2 * math.pi)
        )

    def test_integrates_to_one(self):
        g = SpectralGaussian(np.array([1.0]))
        grid = np.linspace(-10, 10, 20001)
        values = np.exp([g.log_density_lebesgue(np.array([x])) for x in grid])
        assert np.trapezoid(values, grid) == pytest.approx(1.0, abs=1e-4)

    def test_argmax_at_zero(self):
        g = SpectralGaussian(np.array([2.0, 0.7]))
        at_zero = g.log_density_lebesgue(np.zeros(2))
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = rng.standard_normal(2)
            assert g.log_density_lebesgue(x) <= at_zero

    def test_trace_recorded(self):
        g = SpectralGaussian(power_law_eigenvalues(100))
        assert g.trace == pytest.approx(float(np.sum(1.0 / np.arange(1, 101) ** 2)))
