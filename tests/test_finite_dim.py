import collections
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import invmh.finite_dim
import invmh.integrators
from invmh import (
    AuxLaw,
    AuxiliaryKernel,
    ConfigurationError,
    ExtendedPoint,
    IntegrationError,
    HilbertTarget,
    HmcConfig,
    PositionMetric,
    TargetPotential,
    accept_prob,
    diagonal_quadratic_metric,
    gaussian_jump,
    gaussian_momentum,
    gen_langevin,
    generic_log_rn,
    hmc,
    inf_hmc,
    inf_mala,
    kick,
    drift,
    mala,
    mala_log_accept_ratio,
    mh_step,
    pcn,
    relativistic_hmc,
    rmhmc,
    run_chain,
    rwmc,
    surrogate_hmc,
)
from invmh.diagnostics import moment_check
from invmh.finite_dim import (
    relativistic_kinetic,
    relativistic_kinetic_grad,
    _relativistic_envelope,
    _relativistic_momentum_sampler,
)
from invmh.gaussian import SpectralGaussian, power_law_eigenvalues
from invmh.hilbert import default_hilbert_target
from invmh.integrators import FixedPointError
from invmh.targets import anisotropic_gaussian, hilbert_linear, rosenbrock, standard_gaussian

from conftest import assert_grad_consistent, point_norm


class TestBuiltinTargetGradients:
    # TargetPotential invariant: analytic gradients match central finite
    # differences (validated here, never at runtime).
    def test_standard_gaussian(self, rng):
        assert_grad_consistent(standard_gaussian(3), rng.standard_normal((10, 3)))

    def test_anisotropic_gaussian(self, rng):
        target = anisotropic_gaussian([1.0, 0.25, 2.0])
        assert_grad_consistent(target, rng.standard_normal((10, 3)))

    def test_rosenbrock(self, rng):
        target = rosenbrock(dim=3, a=1.0, b=5.0)
        assert_grad_consistent(target, 0.5 * rng.standard_normal((10, 3)))


class TestRwmc:
    def test_symmetric_jump_is_metropolis(self, rng):
        target = standard_gaussian(2)
        kernel = rwmc(target, dim=2, scale=0.9)
        for _ in range(50):
            z = ExtendedPoint(rng.standard_normal(2), rng.standard_normal(2))
            expected = target.eval(z.q) - target.eval(z.q + z.v)
            assert kernel.involution.log_rn(z) == pytest.approx(expected, abs=1e-12)

    def test_zero_jump_accepts(self):
        kernel = rwmc(standard_gaussian(1), dim=1)
        z = ExtendedPoint(np.array([0.7]), np.array([0.0]))
        assert accept_prob(kernel.involution.log_rn(z)) == 1.0

    def test_unit_move_from_origin(self):
        kernel = rwmc(standard_gaussian(1), dim=1)
        z = ExtendedPoint(np.zeros(1), np.ones(1))
        assert accept_prob(kernel.involution.log_rn(z)) == pytest.approx(
            math.exp(-0.5), rel=1e-12
        )

    def test_asymmetric_jump_keeps_kinetic_correction(self):
        # A skewed jump kinetic must contribute K(v) - K(-v).
        jump = AuxiliaryKernel(
            sample=lambda z, rng: rng.standard_normal(1),
            log_density_terms=lambda z: -float(np.sum(z.v**2) + 0.5 * np.sum(z.v)),
            dim=1,
        )
        kernel = rwmc(standard_gaussian(1), dim=1, jump=jump)
        z = ExtendedPoint(np.zeros(1), np.array([0.4]))
        expected = -0.5 * 0.4**2 + (0.4**2 + 0.2) - (0.4**2 - 0.2)
        assert kernel.involution.log_rn(z) == pytest.approx(expected, abs=1e-12)

    def test_jump_of_another_dimension_rejected_at_construction(self):
        # It would otherwise crash the chain with a broadcast error at the
        # first step.
        with pytest.raises(ConfigurationError):
            rwmc(standard_gaussian(2), 2, jump=gaussian_jump(3))

    def test_declared_jump_dimension_checked_without_a_draw(self):
        def sample(z, rng):
            raise AssertionError("rwmc drew from a jump law that declares its dimension")

        jump = AuxiliaryKernel(
            sample=sample, log_density_terms=lambda z: -0.5 * float(z.v @ z.v), dim=3
        )
        with pytest.raises(ConfigurationError, match=r"draws \(3,\) velocities, not \(2,\)"):
            rwmc(standard_gaussian(2), 2, jump=jump)
        assert rwmc(standard_gaussian(3), 3, jump=jump).dim == 3
        assert gaussian_jump(3, scale=0.5).dim == 3

    def test_undeclared_jump_dimension_checked_with_one_draw(self):
        draws = []

        def sample(z, rng):
            draws.append(z.q.copy())
            return rng.standard_normal(3)

        jump = AuxiliaryKernel(sample=sample, log_density_terms=lambda z: 0.0)
        with pytest.raises(ConfigurationError, match=r"draws \(3,\) velocities, not \(2,\)"):
            rwmc(standard_gaussian(2), 2, jump=jump)
        assert len(draws) == 1 and np.array_equal(draws[0], np.zeros(2))

    @staticmethod
    def _position_dependent_jump(dim: int) -> AuxiliaryKernel:
        """N(0, diag(s(q)^2)) jumps, with s(q) = 0.5 + 0.4 tanh(q)^2; the
        q-dependent normalization enters the log-density terms."""
        scale = lambda q: 0.5 + 0.4 * np.tanh(q) ** 2
        return AuxiliaryKernel(
            sample=lambda z, rng: z.cached(scale) * rng.standard_normal(dim),
            log_density_terms=lambda z: -0.5 * float(np.sum((z.v / z.cached(scale)) ** 2))
            - float(np.sum(np.log(z.cached(scale)))),
        )

    def test_position_dependent_jump_is_an_involution(self, rng):
        kernel = rwmc(rosenbrock(dim=2, a=1.0, b=3.0), 2, jump=self._position_dependent_jump(2))
        for _ in range(20):
            z = ExtendedPoint(rng.standard_normal(2), rng.standard_normal(2))
            twice = kernel.involution.apply(kernel.involution.apply(z))
            assert point_norm(twice, z) <= 1e-12

    def test_position_dependent_jump_matches_oracle(self, rng):
        # log rho(S z) - log rho(z) with rho(q, v) = exp(-U(q)) p(v | q),
        # against the energy form read at the image point.
        target = rosenbrock(dim=2, a=1.0, b=3.0)
        jump = self._position_dependent_jump(2)
        kernel = rwmc(target, 2, jump=jump)
        ext = lambda q, v: -target.eval(q) + jump.log_density_terms(ExtendedPoint(q, v))
        for _ in range(10):
            z = ExtendedPoint(0.6 * rng.standard_normal(2), 0.5 * rng.standard_normal(2))
            oracle = generic_log_rn(ext, kernel.involution.apply, z)
            assert kernel.involution.log_rn(z) == pytest.approx(oracle, abs=1e-6)
        # The jump terms do not cancel: the log-RN differs from the
        # Metropolis ratio of a position-free law.
        z = ExtendedPoint(np.array([0.2, -0.1]), np.array([0.9, 0.4]))
        assert abs(kernel.involution.log_rn(z) - (target.eval(z.q) - target.eval(z.q + z.v))) > 0.1


class TestMala:
    def test_zero_gradient_reduces_to_rwmc(self, rng):
        # With grad U = 0 the proposal is q + delta * v and the acceptance
        # matches the random walk with jump scale delta.
        flat = standard_gaussian(2)
        from invmh.core import TargetPotential

        target = TargetPotential(
            eval=lambda q: 0.25 * float(np.sum(np.sin(q))), grad=lambda q: np.zeros_like(q)
        )
        delta = 0.6
        kernel = mala(target, delta=delta, dim=2)
        walk = rwmc(target, dim=2, scale=delta)
        for _ in range(30):
            q = rng.standard_normal(2)
            v = rng.standard_normal(2)
            z = ExtendedPoint(q, v)
            image, log_rn = kernel.involution.step(z)
            np.testing.assert_allclose(image.q, q + delta * v, atol=1e-14)
            walk_log_rn = walk.involution.log_rn(ExtendedPoint(q, delta * v))
            assert log_rn == pytest.approx(walk_log_rn, abs=1e-12)

    def test_hand_example(self):
        kernel = mala(standard_gaussian(1), delta=1.0, dim=1)
        z = ExtendedPoint(np.zeros(1), np.ones(1))
        _, log_rn = kernel.involution.step(z)
        assert accept_prob(log_rn) == pytest.approx(math.exp(-1.0 / 8.0), rel=1e-12)

    def test_two_argument_form_agrees(self, rng):
        # alpha(q, F(q, v)) from the Hastings form equals the energy-form
        # alpha_hat(q, v).
        target = rosenbrock(dim=2, a=1.0, b=3.0)
        delta = 0.2
        kernel = mala(target, delta=delta, dim=2)
        for _ in range(100):
            z = ExtendedPoint(0.7 * rng.standard_normal(2), rng.standard_normal(2))
            image, log_rn = kernel.involution.step(z)
            two_arg = mala_log_accept_ratio(target, delta, z.q, image.q)
            assert accept_prob(two_arg) == pytest.approx(accept_prob(log_rn), abs=1e-10)

    def test_oracle_agreement(self, rng):
        target = rosenbrock(dim=2, a=1.0, b=3.0)
        kernel = mala(target, delta=0.3, dim=2)
        ext = lambda q, v: -target.eval(q) - 0.5 * float(v @ v)
        for _ in range(25):
            z = ExtendedPoint(0.6 * rng.standard_normal(2), rng.standard_normal(2))
            oracle = generic_log_rn(ext, kernel.involution.apply, z)
            assert kernel.involution.log_rn(z) == pytest.approx(oracle, abs=1e-5)


class TestHmc:
    def test_small_step_energy_error(self):
        # Near the exact flow of a harmonic potential the energy error, and
        # with it 1 - alpha, is tiny.
        kernel = hmc(standard_gaussian(2), HmcConfig(delta=1e-3, n=10), dim=2)
        rng = np.random.default_rng(0)
        for _ in range(20):
            z = ExtendedPoint(rng.standard_normal(2), rng.standard_normal(2))
            _, log_rn = kernel.involution.step(z)
            assert abs(log_rn) <= 1e-5

    def test_single_step_unit_mass_is_mala(self, rng):
        target = rosenbrock(dim=2, a=1.0, b=2.0)
        k_hmc = hmc(target, HmcConfig(delta=0.25, n=1), dim=2)
        k_mala = mala(target, delta=0.25, dim=2)
        for _ in range(50):
            z = ExtendedPoint(0.5 * rng.standard_normal(2), rng.standard_normal(2))
            a, la = k_hmc.involution.step(z)
            b, lb = k_mala.involution.step(z)
            assert point_norm(a, b) <= 1e-12
            assert la == pytest.approx(lb, abs=1e-12)

    def test_stationary_point_is_fixed(self):
        kernel = hmc(standard_gaussian(2), HmcConfig(delta=0.5, n=3), dim=2)
        z = ExtendedPoint(np.zeros(2), np.zeros(2))
        image, log_rn = kernel.involution.step(z)
        np.testing.assert_array_equal(image.q, np.zeros(2))
        assert accept_prob(log_rn) == 1.0

    def test_divergent_trajectory_rejected(self, rng):
        # A brutally large step on a stiff quadratic blows up the energy;
        # the step must never crash and must reject.
        target = anisotropic_gaussian([1e-6, 1.0])
        kernel = hmc(target, HmcConfig(delta=50.0, n=5), dim=2)
        with np.errstate(over="ignore"):
            result = mh_step(kernel, np.array([0.001, 0.0]), rng)
        assert result.alpha == 0.0
        assert not result.accepted

    def test_dense_mass_matrix(self, rng):
        cov = np.array([[2.0, 0.6], [0.6, 1.0]])
        kernel = hmc(standard_gaussian(2), HmcConfig(delta=0.3, n=2), dim=2, mass=cov)
        z = ExtendedPoint(rng.standard_normal(2), rng.standard_normal(2))
        image = kernel.involution.apply(z)
        twice = kernel.involution.apply(image)
        assert point_norm(twice, z) <= 1e-12


class TestRelativistic:
    def test_kinetic_at_rest(self):
        assert relativistic_kinetic(1.5, 2.0, np.zeros(3)) == pytest.approx(1.5 * 4.0)

    def test_gradient_is_odd(self, rng):
        v = rng.standard_normal(4)
        np.testing.assert_array_equal(
            relativistic_kinetic_grad(1.2, 0.8, -v), -relativistic_kinetic_grad(1.2, 0.8, v)
        )

    def test_classical_limit(self, rng):
        # c -> infinity: grad K -> v / m for |v| << m c.
        m = 2.0
        v = 0.5 * rng.standard_normal(3)
        big_c = 1e4
        np.testing.assert_allclose(
            relativistic_kinetic_grad(m, big_c, v), v / m, atol=1e-6
        )

    @pytest.mark.parametrize("m", [1e-300, 1e-200, 1e-150, 1.0, 1e150, 1e154, 1e200, 1e300])
    def test_out_of_range_parameters_rejected_at_construction(self, m):
        # Each pair either fails when built, or runs: its kinetic energy,
        # gradient and momentum envelope neither overflow, underflow to 0
        # nor divide by 0.
        for c in (1e-300, 1e-200, 1e-150, 1.0, 1e150, 1e154, 1e200, 1e300):
            try:
                kernel = relativistic_hmc(standard_gaussian(2), m, c, HmcConfig(delta=0.3), 2)
            except ConfigurationError:
                continue
            run_chain(kernel, np.zeros(2), 200, np.random.default_rng(0))

    @pytest.mark.parametrize("m, c", [(1e6, 1e6), (1e8, 1e8)])
    def test_energy_differences_survive_a_large_rest_energy(self, m, c):
        # K(v) - K(0) at |v|^2 = m / 4 is 1/8 whatever the rest energy m c^2:
        # measured from m c^2 = 1e18 or 1e24 it must not round to 0.
        kernel = relativistic_hmc(standard_gaussian(2), m, c, HmcConfig(delta=0.3), 2)
        terms = lambda v: kernel.aux.log_density_terms(ExtendedPoint(np.zeros(2), v))
        difference = terms(np.array([0.5 * math.sqrt(m), 0.0])) - terms(np.zeros(2))
        assert difference == pytest.approx(-0.125, rel=1e-9)

    @pytest.mark.parametrize("m, c", [(1e6, 1e6), (1e8, 1e8)])
    def test_sampler_at_a_large_rest_energy(self, m, c):
        # In two dimensions |v| has density proportional to
        # r exp(-(K(r) - m c^2)); K - m c^2 is formed without cancellation.
        r = math.sqrt(m) * np.linspace(0.0, 20.0, 200_001)[1:]
        weights = r * np.exp(-r * r / (m * (np.sqrt(1.0 + (r / (m * c)) ** 2) + 1.0)))
        true_sq = np.trapezoid(r**2 * weights, r) / np.trapezoid(weights, r)
        sampler = _relativistic_momentum_sampler(2, m, c)
        rng = np.random.default_rng(8)
        squares = np.array([float(v @ v) for v in (sampler(rng) for _ in range(4000))])
        se = np.std(squares) / math.sqrt(squares.size)
        assert abs(np.mean(squares) - true_sq) <= 4 * se

    def test_chain_at_a_large_rest_energy(self):
        # delta = 1.8 sqrt(m) gives the dynamics of unit mass at delta = 1.8,
        # so the chain must still sample N(0, I).
        m = c = 1e6
        kernel = relativistic_hmc(standard_gaussian(2), m, c, HmcConfig(delta=1.8e3), 2)
        chain = run_chain(kernel, np.zeros(2), 4000, np.random.default_rng(1))
        report = moment_check(chain.positions[1:], np.zeros(2), np.ones(2), batch_count=20)
        assert np.all(np.abs(report.var_z) <= 4.0)

    def test_rejection_sampler_matches_quadrature(self):
        # Exactness of the Gamma-radius rejection sampler, d = 1.
        m, c = 1.3, 0.9
        grid = np.linspace(-60, 60, 240_001)
        log_dens = -np.array([relativistic_kinetic(m, c, np.array([x])) for x in grid])
        weights = np.exp(log_dens)
        z = np.trapezoid(weights, grid)
        true_abs = np.trapezoid(np.abs(grid) * weights, grid) / z
        true_sq = np.trapezoid(grid**2 * weights, grid) / z
        sampler = _relativistic_momentum_sampler(1, m, c)
        rng = np.random.default_rng(99)
        draws = np.array([sampler(rng)[0] for _ in range(20_000)])
        se_abs = np.std(np.abs(draws)) / math.sqrt(draws.size)
        se_sq = np.std(draws**2) / math.sqrt(draws.size)
        assert abs(np.mean(np.abs(draws)) - true_abs) <= 3 * se_abs
        assert abs(np.mean(draws**2) - true_sq) <= 3 * se_sq

    @settings(max_examples=60, deadline=None)
    @given(
        dim=st.integers(1, 1000),
        m=st.floats(0.1, 10.0),
        c=st.floats(0.1, 10.0),
    )
    def test_sampler_at_any_dimension(self, dim, m, c):
        # The log ratio kappa r - c sqrt(m^2 c^2 + r^2) of target to envelope
        # never exceeds the log-bound (its maximum, at r_star), and draws
        # succeed well within the attempt cap.
        kappa, log_bound = _relativistic_envelope(dim, m, c)
        assert 0.0 < kappa <= c
        r = np.geomspace(1e-6, 1e6, 2001)
        if kappa < c:
            r = np.append(r, m * c * kappa / math.sqrt(c * c - kappa * kappa))
        log_ratio = kappa * r - c * np.sqrt((m * c) ** 2 + r * r)
        assert log_ratio.max() <= log_bound + 1e-9 * (1.0 + abs(log_bound))
        sampler = _relativistic_momentum_sampler(dim, m, c, max_attempts=50)
        rng = np.random.default_rng(dim)
        for _ in range(20):
            v = sampler(rng)
            assert v.shape == (dim,) and np.isfinite(v).all()

    def test_radius_moments_at_dimension_50(self):
        # |v| has density proportional to r^49 exp(-c sqrt(m^2 c^2 + r^2)).
        dim, m, c = 50, 1.0, 1.0
        grid = np.linspace(0.0, 300.0, 300_001)[1:]
        log_dens = (dim - 1) * np.log(grid) - c * np.sqrt((m * c) ** 2 + grid**2)
        weights = np.exp(log_dens - log_dens.max())
        z = np.trapezoid(weights, grid)
        true_mean = np.trapezoid(grid * weights, grid) / z
        true_sq = np.trapezoid(grid**2 * weights, grid) / z
        sampler = _relativistic_momentum_sampler(dim, m, c)
        rng = np.random.default_rng(50)
        radii = np.array([np.linalg.norm(sampler(rng)) for _ in range(5000)])
        se_mean = np.std(radii) / math.sqrt(radii.size)
        se_sq = np.std(radii**2) / math.sqrt(radii.size)
        assert abs(np.mean(radii) - true_mean) <= 3 * se_mean
        assert abs(np.mean(radii**2) - true_sq) <= 3 * se_sq

    def test_kernel_involution(self, rng):
        kernel = relativistic_hmc(
            standard_gaussian(3), m=1.2, c=2.0, cfg=HmcConfig(delta=0.3, n=2), dim=3
        )
        for _ in range(50):
            z = ExtendedPoint(rng.standard_normal(3), rng.standard_normal(3))
            twice = kernel.involution.apply(kernel.involution.apply(z))
            assert point_norm(twice, z) <= 1e-10


class TestRmhmc:
    def test_constant_metric_reduces_to_hmc(self, rng):
        mass = np.array([1.5, 0.7])
        metric = PositionMetric(
            matrix=lambda q: mass,
            grad_quad_form=lambda q, v: np.zeros_like(q),
            grad_half_logdet=lambda q: np.zeros_like(q),
        )
        target = rosenbrock(dim=2, a=1.0, b=2.0)
        k_r = rmhmc(target, metric, delta=0.15, n=3, dim=2)
        k_h = hmc(target, HmcConfig(delta=0.15, n=3), dim=2, mass=mass)
        for _ in range(20):
            z = ExtendedPoint(0.5 * rng.standard_normal(2), rng.standard_normal(2))
            a, la = k_r.involution.step(z)
            b, lb = k_h.involution.step(z)
            assert point_norm(a, b) <= 1e-9
            assert la == pytest.approx(lb, abs=1e-9)

    def test_constant_dense_metric_reduces_to_hmc(self, rng):
        # A dense metric takes the fixed-point path, with the reverse check.
        mass = np.array([[1.5, 0.3], [0.3, 0.7]])
        metric = PositionMetric(
            matrix=lambda q: mass,
            grad_quad_form=lambda q, v: np.zeros_like(q),
            grad_half_logdet=lambda q: np.zeros_like(q),
        )
        target = rosenbrock(dim=2, a=1.0, b=2.0)
        k_r = rmhmc(target, metric, delta=0.15, n=3, dim=2)
        k_h = hmc(target, HmcConfig(delta=0.15, n=3), dim=2, mass=mass)
        for _ in range(20):
            z = ExtendedPoint(0.5 * rng.standard_normal(2), rng.standard_normal(2))
            a, la = k_r.involution.step(z)
            b, lb = k_h.involution.step(z)
            assert point_norm(a, b) <= 1e-9
            assert la == pytest.approx(lb, abs=1e-9)

    def test_flip_reversibility_1d(self, rng):
        kernel = rmhmc(
            standard_gaussian(1), diagonal_quadratic_metric(), delta=0.2, n=2, dim=1
        )
        for _ in range(100):
            z = ExtendedPoint(0.7 * rng.standard_normal(1), 0.7 * rng.standard_normal(1))
            twice = kernel.involution.apply(kernel.involution.apply(z))
            assert point_norm(twice, z) <= 1e-8

    def test_oracle_agreement_1d(self, rng):
        metric = diagonal_quadratic_metric()
        target = standard_gaussian(1)
        kernel = rmhmc(target, metric, delta=0.15, n=2, dim=1)

        def ext(q, v):
            m = 1.0 + q[0] ** 2
            return -target.eval(q) - 0.5 * v[0] ** 2 / m - 0.5 * math.log(m)

        for _ in range(30):
            z = ExtendedPoint(0.6 * rng.standard_normal(1), 0.6 * rng.standard_normal(1))
            oracle = generic_log_rn(ext, kernel.involution.apply, z)
            assert kernel.involution.log_rn(z) == pytest.approx(oracle, abs=1e-5)

    def test_implicit_failure_rejects(self, rng):
        kernel = rmhmc(
            standard_gaussian(1), diagonal_quadratic_metric(), delta=80.0, n=1, dim=1
        )
        result = mh_step(kernel, np.array([0.4]), rng)
        assert result.alpha == 0.0
        assert result.next[0] == 0.4

    def test_metric_not_spd_at_the_state_is_a_configuration_error(self, rng):
        # M(q) = 1 - q^2 is negative at q0: no momentum can be drawn there,
        # so the chain cannot step.  The draw reads the metric through the
        # state's memo, where a non-SPD value is a DivergenceError (which
        # rejects a step that meets it along a trajectory); at the current
        # state it is a configuration error.
        metric = PositionMetric(
            matrix=lambda q: 1.0 - q**2,
            grad_quad_form=lambda q, v: (v**2) * q / (1.0 - q**2) ** 2,
            grad_half_logdet=lambda q: -q / (1.0 - q**2),
        )
        kernel = rmhmc(standard_gaussian(2), metric, delta=0.3, n=1, dim=2)
        with pytest.raises(ConfigurationError):
            mh_step(kernel, np.array([2.0, 0.0]), rng)

    def test_reverse_stall_still_rejects_with_the_bound(self):
        # c = 2 B (delta/2) max|v| is about 0.6 here: the reverse position
        # map contracts (c < 1), but its simplified Newton solve, whose rate
        # bound 2c / (1 - c) is above 1, stalls.  The step must go on being
        # rejected, so the replay may be skipped only for c < 1/3.
        kernel = rmhmc(standard_gaussian(1), diagonal_quadratic_metric(), delta=1.0, n=1, dim=1)
        z = ExtendedPoint(np.array([-0.16900491]), np.array([-2.03370472]))
        with pytest.raises(FixedPointError):
            kernel.involution.step(z)

    @staticmethod
    def _coupled_metric() -> PositionMetric:
        """A diagonal metric whose entries depend on every coordinate, so
        RMHMC solves its implicit steps by fixed-point iteration."""
        m = lambda q: 1.0 + q**2 + 0.3 * np.sum(q**2)
        return PositionMetric(
            matrix=m,
            grad_quad_form=lambda q, v: -(v**2) * q / m(q) ** 2 - 0.3 * q * np.sum(v**2 / m(q) ** 2),
            grad_half_logdet=lambda q: q / m(q) + 0.3 * q * np.sum(1.0 / m(q)),
        )

    @pytest.mark.parametrize("dim, coupled", [(1, False), (2, False), (2, True)])
    def test_every_returned_step_is_an_involution(self, dim, coupled, rng):
        # Newton's method also finds roots where the implicit steps do not
        # contract, and Euler-A's position equation can have several
        # contracting roots, which fixed-point iteration (the coupled
        # metric's path) reaches too: a step that lands on another root than
        # its reverse step breaks S(S(z)) = z.  Every step the integrator
        # returns, up to step sizes where almost all solves fail, must come
        # back to its start.
        target = standard_gaussian(dim)
        metric = self._coupled_metric() if coupled else diagonal_quadratic_metric()
        returned = {}
        for delta in (0.3, 1.0, 2.0, 3.0, 5.0, 10.0, 20.0, 40.0, 80.0):
            involution = rmhmc(target, metric, delta=delta, n=1, dim=dim).involution
            returned[delta] = 0
            for _ in range(200):
                q = rng.standard_normal(dim)
                z = ExtendedPoint(q, np.sqrt(1.0 + q**2) * rng.standard_normal(dim))
                with np.errstate(over="ignore", invalid="ignore"):
                    try:
                        image = involution.apply(z)
                    except IntegrationError:
                        continue
                    returned[delta] += 1
                    assert point_norm(involution.apply(image), z) <= 1e-10, (delta, z)
        assert returned[0.3] == 200
        assert sum(returned[delta] for delta in (1.0, 2.0, 3.0)) > 100

    def test_coupled_metric_oracle_agreement(self, rng):
        # The fixed-point path of a diagonal metric that is not elementwise.
        metric = self._coupled_metric()
        target = standard_gaussian(2)
        kernel = rmhmc(target, metric, delta=0.2, n=2, dim=2)

        def ext(q, v):
            m = metric.matrix(q)
            return -target.eval(q) - 0.5 * float(np.sum(v**2 / m)) - 0.5 * float(np.sum(np.log(m)))

        for _ in range(30):
            z = ExtendedPoint(0.6 * rng.standard_normal(2), 0.6 * rng.standard_normal(2))
            oracle = generic_log_rn(ext, kernel.involution.apply, z)
            assert kernel.involution.log_rn(z) == pytest.approx(oracle, abs=1e-5)


class _Counts:
    """Counting wrappers for the callables a kernel is built from."""

    def __init__(self):
        self.calls = collections.Counter()

    def wrap(self, name, fn):
        def counted(*args):
            self.calls[name] += 1
            return fn(*args)

        return counted

    def target(self, target):
        return TargetPotential(
            eval=self.wrap("eval", target.eval), grad=self.wrap("grad", target.grad)
        )

    def metric(self, metric):
        return PositionMetric(
            matrix=self.wrap("matrix", metric.matrix),
            grad_quad_form=self.wrap("grad_quad_form", metric.grad_quad_form),
            grad_half_logdet=self.wrap("grad_half_logdet", metric.grad_half_logdet),
        )


class TestStraightLineReference:
    """``run_chain``'s rwmc, mala and hmc (n = 2) chains on the anisotropic
    Gaussian equal plain loops that spell each step's arithmetic out, bit
    for bit: positions, alphas, accept flags and the generator's final
    state.  So the layers a step passes through (the auxiliary law, the
    energy involution, the leapfrog, the accept) add no floating-point
    operation and drop none."""

    N = 500
    TARGET = anisotropic_gaussian([1.0, 0.25])

    @classmethod
    def _force(cls, q):
        return -np.asarray(cls.TARGET.grad(q), dtype=float)

    @classmethod
    def _leapfrog(cls, n, delta1, delta2):
        def move(q, v):
            f = cls._force(q)
            for _ in range(n):
                v = v + delta1 * f
                q = q + delta2 * v
                f = cls._force(q)
                v = v + delta1 * f
            return q, -v

        return move

    def _reference(self, draw, move, kinetic, rng):
        potential = self.TARGET.eval
        q = np.zeros(2)
        u = potential(q)
        positions, alphas, accepted = [q], [], []
        for _ in range(self.N):
            v = draw(rng)
            q_new, v_new = move(q, v)
            u_new = potential(q_new)
            log_rn = (u + kinetic(v)) - (u_new + kinetic(v_new))
            if math.isnan(log_rn) or not np.isfinite(q_new).all():
                alpha = 0.0
            else:
                alpha = 1.0 if log_rn >= 0.0 else math.exp(log_rn)
            take = rng.random() < alpha
            if take:
                q, u = q_new, u_new
            positions.append(q)
            alphas.append(alpha)
            accepted.append(take)
        return np.array(positions), np.array(alphas), np.array(accepted)

    @pytest.mark.parametrize("name", ["rwmc", "mala", "hmc"])
    def test_run_chain_equals_the_plain_loop(self, name):
        scale = np.array([0.8, 0.8])
        unit = lambda v: 0.5 * float(v @ v)
        kernel, draw, move, kinetic = {
            "rwmc": (
                rwmc(self.TARGET, dim=2, scale=0.8),
                lambda rng: scale * rng.standard_normal(2),
                lambda q, v: (q + v, -v),
                lambda v: 0.5 * float(((v / scale) ** 2).sum()),
            ),
            "mala": (
                mala(self.TARGET, delta=0.6, dim=2),
                lambda rng: rng.standard_normal(2),
                self._leapfrog(1, 0.3, 0.6),
                unit,
            ),
            "hmc": (
                hmc(self.TARGET, HmcConfig(delta=0.5, n=2), dim=2),
                lambda rng: rng.standard_normal(2),
                self._leapfrog(2, 0.25, 0.5),
                unit,
            ),
        }[name]
        library_rng, reference_rng = np.random.default_rng(17), np.random.default_rng(17)
        chain = run_chain(kernel, np.zeros(2), self.N, library_rng)
        with np.errstate(over="ignore", invalid="ignore"):
            positions, alphas, accepted = self._reference(draw, move, kinetic, reference_rng)
        assert 0.3 < accepted.mean() < 1.0
        assert chain.positions.tobytes() == positions.tobytes()
        assert chain.alphas.tobytes() == alphas.tobytes()
        assert np.array_equal(chain.accepted, accepted)
        assert library_rng.bit_generator.state == reference_rng.bit_generator.state


class TestWorkCounts:
    """Machine-independent guard on criterion 9's cost: evaluations per step
    of its five kernels.  A chain evaluates U once at its start and once per
    step (at the proposal), the gradient once per position a trajectory
    visits, and RMHMC the metric once per new state (its momentum draw and
    the energy there share it through the state's memo)."""

    N = 1000

    def _chain(self, build):
        counts = _Counts()
        target = counts.target(anisotropic_gaussian([1.0, 0.25]))
        kernel = build(counts, target)
        counts.calls.clear()
        run_chain(kernel, np.zeros(2), self.N, np.random.default_rng(9))
        return counts.calls

    @pytest.mark.parametrize(
        "name, build, grads_per_step",
        [
            ("rwmc", lambda c, t: rwmc(t, dim=2, scale=0.8), 0),
            ("mala", lambda c, t: mala(t, delta=0.6, dim=2), 1),
            ("hmc", lambda c, t: hmc(t, HmcConfig(delta=0.5, n=2), dim=2), 2),
            (
                "relativistic_hmc",
                lambda c, t: relativistic_hmc(t, m=1.0, c=3.0, cfg=HmcConfig(delta=0.5, n=2), dim=2),
                2,
            ),
        ],
    )
    def test_explicit_kernels(self, name, build, grads_per_step):
        calls = self._chain(build)
        assert calls["eval"] == self.N + 1
        # The current state's gradient comes from the previous step, and the
        # leapfrog shares each force between consecutive kicks.
        assert calls["grad"] == (grads_per_step * self.N + 1 if grads_per_step else 0)

    @pytest.mark.parametrize("dim", [2, 20])
    def test_rmhmc(self, dim, monkeypatch):
        solves = collections.Counter()
        solve = invmh.integrators.fixed_point_solve

        def counted_solve(step_map, x0, slope=None):
            solves["solves"] += 1

            def counted_map(x):
                solves["evaluations"] += 1
                return step_map(x)

            return solve(counted_map, x0, slope)

        monkeypatch.setattr(invmh.integrators, "fixed_point_solve", counted_solve)
        counts = _Counts()
        target = counts.target(anisotropic_gaussian(np.tile([1.0, 0.25], dim // 2)))
        metric = counts.metric(diagonal_quadratic_metric())
        kernel = rmhmc(target, metric, delta=0.3, n=1, dim=dim)
        counts.calls.clear()
        run_chain(kernel, np.zeros(dim), self.N, np.random.default_rng(9))
        calls, n = counts.calls, self.N
        assert calls["eval"] == n + 1
        assert calls["grad"] == n + 1
        assert calls["grad_half_logdet"] == n + 1
        # Euler-B in closed form; per step one Euler-A solve and its replay
        # for the reverse step, each from an explicit guess.
        assert solves["solves"] == 2 * n
        if dim == 2:
            assert solves["evaluations"] <= 4.5 * solves["solves"]
        # The metric: the energy at the proposal, the two guesses and the
        # solver's evaluations, plus the momentum draw at the start.  The
        # draw, the energy at the current state and the Euler-B position
        # read the metric from the state's memo.
        assert calls["matrix"] == 3 * n + solves["evaluations"] + 1
        # Whatever the dimension: D = grad_quad_form(q, 1) and its check
        # along a probe direction at each new position, D at the two Newton
        # starts, and the last kick.
        assert calls["grad_quad_form"] == 5 * n + 2

    def test_rmhmc_certified_steps_skip_the_replay(self, monkeypatch):
        # With the metric's bound, each step whose reverse solves are
        # certified makes no reverse solve; without it, every step replays.
        # The chains are the same: a certified replay could not reject.
        solves = collections.Counter()
        solve = invmh.integrators.fixed_point_solve
        stormer_verlet = invmh.integrators.stormer_verlet

        def counted_solve(step_map, x0, slope=None):
            solves["solves"] += 1
            return solve(step_map, x0, slope)

        def counted_stormer_verlet(*args, reverse_certified=None, **kwargs):
            def certified(h, mid, end):
                verdict = reverse_certified(h, mid, end)
                solves["certified"] += verdict
                return verdict

            hook = None if reverse_certified is None else certified
            return stormer_verlet(*args, reverse_certified=hook, **kwargs)

        monkeypatch.setattr(invmh.integrators, "fixed_point_solve", counted_solve)
        monkeypatch.setattr(invmh.integrators, "stormer_verlet", counted_stormer_verlet)
        n, chains = self.N, {}
        for bound in (0.325, None):
            counts = _Counts()
            metric = dataclasses.replace(
                counts.metric(diagonal_quadratic_metric()), grad_quad_form_bound=bound
            )
            kernel = rmhmc(counts.target(anisotropic_gaussian([1.0, 0.25])), metric, 0.3, 1, 2)
            counts.calls.clear()
            solves.clear()
            chains[bound] = run_chain(kernel, np.zeros(2), n, np.random.default_rng(9))
            certified = solves["certified"]
            # One forward Euler-A solve per step, and one reverse solve per
            # step that is not certified.
            assert solves["solves"] == 2 * n - certified
            # The replay's Newton start is where it spends its own
            # grad_quad_form call; D at the endpoint is read either way.
            assert counts.calls["grad_quad_form"] == 5 * n + 2 - certified
            if bound is None:
                assert certified == 0
            else:
                assert certified >= 0.9 * n
        np.testing.assert_array_equal(chains[0.325].positions, chains[None].positions)
        np.testing.assert_array_equal(chains[0.325].alphas, chains[None].alphas)

    def test_pcn(self):
        # phi is read through the memo: once at the start, then once per
        # step at the proposal.
        counts = _Counts()
        base = default_hilbert_target(16)
        target = HilbertTarget(phi=counts.target(base.phi), reference=base.reference)
        run_chain(pcn(target, delta=0.5), np.zeros(16), self.N, np.random.default_rng(9))
        assert counts.calls["eval"] == self.N + 1

    @pytest.mark.parametrize(
        "build, forces_per_step",
        [
            (lambda t: inf_mala(t, delta=0.5), 1),
            (lambda t: gen_langevin(t, delta=0.5), 1),
            (lambda t: inf_hmc(t, AuxLaw(), delta1=0.15, delta2=0.3, n=10), 10),
        ],
        ids=["inf_mala", "gen_langevin", "inf_hmc"],
    )
    def test_strang_kernels(self, build, forces_per_step):
        # The force is evaluated once per position a trajectory visits (the
        # start's comes from the previous step), phi once per proposal; the
        # log-RN reads both from the trajectory's points.  Every call, to
        # grad(phi) (inf_mala) or to the surrogate force (gen_langevin,
        # inf_hmc), counts as "force".
        counts = _Counts()
        base = default_hilbert_target(16)
        phi = TargetPotential(
            eval=counts.wrap("eval", base.phi.eval), grad=counts.wrap("force", base.phi.grad)
        )
        target = HilbertTarget(
            phi=phi, reference=base.reference, surrogate_f=counts.wrap("force", base.force())
        )
        run_chain(build(target), np.zeros(16), self.N, np.random.default_rng(9))
        assert counts.calls["force"] == forces_per_step * self.N + 1
        assert counts.calls["eval"] == self.N + 1

    def test_aux_variances(self):
        # The draw and the log-RN read variances(q) through the points'
        # memos: once per step at the proposal, once at the chain's start.
        counts = _Counts()
        target = default_hilbert_target(16)
        lam = target.reference.eigenvalues
        variances = counts.wrap("variances", lambda q: lam * (1.0 + 0.4 * np.tanh(q) ** 2))
        kernel = inf_hmc(target, AuxLaw(variances=variances), delta1=0.1, n=3)
        run_chain(kernel, np.zeros(16), self.N, np.random.default_rng(9))
        assert counts.calls["variances"] == self.N + 1


class TestNonFiniteParameters:
    """A NaN or infinite parameter, or a step count ``n`` that is not an
    integer >= 1, fails when the kernel is built."""

    @staticmethod
    def _builders():
        fd = standard_gaussian(2)
        metric = diagonal_quadratic_metric()
        hilbert = default_hilbert_target(4)
        surrogate = HilbertTarget(
            phi=hilbert.phi, reference=hilbert.reference, surrogate_f=hilbert.force()
        )
        return {
            "HmcConfig.delta": lambda x: HmcConfig(delta=x),
            "HmcConfig.delta1": lambda x: HmcConfig(delta=0.5, delta1=x),
            "HmcConfig.delta2": lambda x: HmcConfig(delta=0.5, delta2=x),
            "mala.delta": lambda x: mala(fd, delta=x, dim=2),
            "rmhmc.delta": lambda x: rmhmc(fd, metric, delta=x, n=1, dim=2),
            "relativistic_hmc.m": lambda x: relativistic_hmc(fd, x, 1.0, HmcConfig(delta=0.5), 2),
            "relativistic_hmc.c": lambda x: relativistic_hmc(fd, 1.0, x, HmcConfig(delta=0.5), 2),
            "gaussian_jump.scale": lambda x: gaussian_jump(2, scale=[1.0, x]),
            "rwmc.scale": lambda x: rwmc(fd, dim=2, scale=x),
            "diagonal mass": lambda x: gaussian_momentum(2, mass=np.array([1.0, x])),
            "dense mass": lambda x: hmc(
                fd, HmcConfig(delta=0.5), 2, mass=np.array([[2.0, x], [x, 2.0]])
            ),
            "inf_hmc.delta1": lambda x: inf_hmc(hilbert, AuxLaw(), delta1=x),
            "inf_hmc.delta2": lambda x: inf_hmc(hilbert, AuxLaw(), delta1=0.1, delta2=x),
            "inf_mala.delta": lambda x: inf_mala(hilbert, delta=x),
            "gen_langevin.delta": lambda x: gen_langevin(surrogate, delta=x),
            "anisotropic_gaussian.variances": lambda x: anisotropic_gaussian([1.0, x]),
            "SpectralGaussian.eigenvalues": lambda x: SpectralGaussian(np.array([x, 0.5])),
            "power_law_eigenvalues.c": lambda x: power_law_eigenvalues(4, c=x),
            "power_law_eigenvalues.p": lambda x: power_law_eigenvalues(4, p=x),
            "hilbert_linear.coefficients": lambda x: hilbert_linear([1.0, 0.5], [x, 1.0]),
            "rosenbrock.a": lambda x: rosenbrock(2, a=x),
            "rosenbrock.b": lambda x: rosenbrock(2, b=x),
        }

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "name",
        [
            "HmcConfig.delta", "HmcConfig.delta1", "HmcConfig.delta2", "mala.delta",
            "rmhmc.delta", "relativistic_hmc.m", "relativistic_hmc.c",
            "gaussian_jump.scale", "rwmc.scale", "diagonal mass", "dense mass",
            "inf_hmc.delta1", "inf_hmc.delta2", "inf_mala.delta", "gen_langevin.delta",
            "anisotropic_gaussian.variances", "SpectralGaussian.eigenvalues",
            "power_law_eigenvalues.c", "power_law_eigenvalues.p",
            "hilbert_linear.coefficients", "rosenbrock.a", "rosenbrock.b",
        ],
    )
    def test_rejected_at_construction(self, name, value):
        with pytest.raises(ConfigurationError):
            self._builders()[name](value)

    @staticmethod
    def _step_count_builders():
        fd = standard_gaussian(2)
        hilbert = default_hilbert_target(4)
        return {
            "HmcConfig.n": lambda n: HmcConfig(delta=0.5, n=n),
            "rmhmc.n": lambda n: rmhmc(fd, diagonal_quadratic_metric(), delta=0.3, n=n, dim=2),
            "inf_hmc.n": lambda n: inf_hmc(hilbert, AuxLaw(), delta1=0.1, n=n),
        }

    @pytest.mark.parametrize(
        "name, n",
        [
            ("HmcConfig.n", 2.5),
            ("HmcConfig.n", True),
            ("rmhmc.n", 1.5),
            ("rmhmc.n", True),
            ("inf_hmc.n", 0),
            ("inf_hmc.n", 1.5),
            ("inf_hmc.n", np.True_),
        ],
    )
    def test_bad_step_count_rejected_at_construction(self, name, n):
        with pytest.raises(ConfigurationError):
            self._step_count_builders()[name](n)

    @pytest.mark.parametrize("name", ["HmcConfig.n", "rmhmc.n", "inf_hmc.n"])
    def test_numpy_integer_step_count_accepted(self, name):
        self._step_count_builders()[name](np.int64(3))


def _stormer_verlet_kernel(cfg):
    return surrogate_hmc(
        standard_gaussian(2), gaussian_momentum(2), cfg,
        f1=lambda z: z.v, f2=lambda z: -z.q, scheme="stormer_verlet", dim=2,
    )


def _palindrome_kernel(cfg, **kwargs):
    return surrogate_hmc(
        standard_gaussian(2), gaussian_momentum(2), cfg,
        scheme="palindrome", stages=[(lambda t, z: drift(t, lambda v: v, z), 0.3)], dim=2,
        **kwargs,
    )


class TestOutOfRangeParameters:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: rwmc(standard_gaussian(2), dim=0),
            # A scale next to a jump law would be ignored.
            lambda: rwmc(standard_gaussian(2), 2, jump=gaussian_jump(2, 0.5), scale=3.0),
            lambda: standard_gaussian(0),
            lambda: HmcConfig(delta=0.0, delta1=0.1),
            lambda: HmcConfig(delta=0.5, delta2=0.0),
            # A zero rotation step: the default delta2 = 2 delta1, or explicit.
            lambda: inf_hmc(default_hilbert_target(4), AuxLaw(), delta1=0.0),
            lambda: inf_hmc(default_hilbert_target(4), AuxLaw(), delta1=0.1, delta2=0.0),
            # Stormer-Verlet steps with delta, so delta1/delta2 would be ignored;
            # the first config would build a kernel that never moves.
            lambda: _stormer_verlet_kernel(HmcConfig(delta=0.0, delta1=0.1, delta2=0.3)),
            lambda: _stormer_verlet_kernel(HmcConfig(delta=0.2, delta1=0.1)),
            lambda: _stormer_verlet_kernel(HmcConfig(delta=0.2, delta2=0.3)),
            # The palindrome steps with its stages' times.
            lambda: _palindrome_kernel(HmcConfig(delta=0.2, delta1=0.1)),
            lambda: _palindrome_kernel(HmcConfig(delta=0.2, delta2=0.3)),
            # The palindrome steps with its stages, so forces would be ignored.
            lambda: _palindrome_kernel(HmcConfig(delta=0.2), f1=lambda v: v, f2=lambda q: -q),
            # Given dim, f1's parity is spot-checked without being declared.
            lambda: surrogate_hmc(
                standard_gaussian(2), gaussian_momentum(2), HmcConfig(delta=0.5),
                f1=lambda v: v + 1.0, f2=lambda q: -q, dim=2,
            ),
            # rho rounds to 1, so the rotation would be 0.
            lambda: inf_mala(default_hilbert_target(4), delta=1e-17),
            lambda: gen_langevin(
                dataclasses.replace(default_hilbert_target(4), surrogate_f=np.zeros_like),
                delta=1e-17,
            ),
            lambda: hmc(standard_gaussian(2), HmcConfig(delta=0.5), dim=0),
            lambda: mala(standard_gaussian(2), delta=0.5, dim=0),
            lambda: relativistic_hmc(standard_gaussian(2), 1.0, 1.0, HmcConfig(delta=0.5), dim=0),
            lambda: rmhmc(standard_gaussian(2), diagonal_quadratic_metric(), 0.3, 1, dim=0),
            lambda: gaussian_momentum(0),
            lambda: gaussian_jump(0),
            lambda: surrogate_hmc(
                standard_gaussian(2), gaussian_momentum(2), HmcConfig(delta=0.5),
                f1=lambda v: v, f2=lambda q: -q, dim=0,
            ),
            lambda: surrogate_hmc(
                standard_gaussian(2), gaussian_momentum(2), HmcConfig(delta=0.5),
                f1=lambda v: v, f2=lambda q: -q, dim=2.5,
            ),
            lambda: power_law_eigenvalues(2.5),
            lambda: rosenbrock(dim=2.5),
            lambda: anisotropic_gaussian([]),
            # Improper targets: b <= 0 leaves rosenbrock unbounded below or
            # flat in its last coordinate; p <= 1 gives eigenvalues that are
            # not summable as the dimension grows (not trace class).
            lambda: rosenbrock(dim=2, b=0.0),
            lambda: rosenbrock(dim=2, b=-1.0),
            lambda: power_law_eigenvalues(4, p=1.0),
            lambda: power_law_eigenvalues(4, p=0.5),
        ],
        ids=[
            "rwmc.dim", "rwmc.scale_with_jump", "standard_gaussian.dim", "HmcConfig.delta",
            "HmcConfig.delta2",
            "inf_hmc.delta1=0", "inf_hmc.delta2=0", "stormer_verlet.delta=0",
            "stormer_verlet.delta1", "stormer_verlet.delta2",
            "palindrome.delta1", "palindrome.delta2", "palindrome.forces",
            "surrogate_hmc.f1_not_odd", "inf_mala.delta=1e-17", "gen_langevin.delta=1e-17",
            "hmc.dim=0", "mala.dim=0", "relativistic_hmc.dim=0", "rmhmc.dim=0",
            "gaussian_momentum.dim=0", "gaussian_jump.dim=0", "surrogate_hmc.dim=0",
            "surrogate_hmc.dim=2.5", "power_law_eigenvalues.d=2.5", "rosenbrock.dim=2.5",
            "anisotropic_gaussian.empty", "rosenbrock.b=0", "rosenbrock.b<0",
            "power_law_eigenvalues.p=1", "power_law_eigenvalues.p<1",
        ],
    )
    def test_rejected_at_construction(self, build):
        with pytest.raises(ConfigurationError):
            build()

    def test_inf_hmc_negative_rotation_is_an_involution(self, rng):
        # A rotation run backwards is still reversible; the flip makes it
        # an involution, so a negative delta2 is allowed.
        kernel = inf_hmc(default_hilbert_target(4), AuxLaw(), delta1=0.1, delta2=-0.3, n=3)
        for _ in range(20):
            z = ExtendedPoint(rng.standard_normal(4), rng.standard_normal(4))
            twice = kernel.involution.apply(kernel.involution.apply(z))
            assert point_norm(twice, z) <= 1e-12

    def test_time_reversed_leapfrog_is_an_involution(self, rng):
        # Negative kick and drift steps run the leapfrog backwards in time;
        # the momentum flip still makes it an involution.
        kernel = hmc(standard_gaussian(2), HmcConfig(delta=0.5, delta1=-0.2, delta2=-0.4, n=3), 2)
        for _ in range(20):
            z = ExtendedPoint(rng.standard_normal(2), rng.standard_normal(2))
            twice = kernel.involution.apply(kernel.involution.apply(z))
            assert point_norm(twice, z) <= 1e-12


class TestDimensionsAgree:
    def test_surrogate_hmc_rejects_a_law_of_another_dimension_without_a_draw(self):
        # It would otherwise crash the chain with a broadcast error at the
        # first step.
        build = lambda aux: surrogate_hmc(
            standard_gaussian(2), aux, HmcConfig(delta=0.3), f1=lambda v: v, f2=lambda q: -q,
            dim=2,
        )
        with pytest.raises(ConfigurationError, match=r"draws \(3,\) velocities, not \(2,\)"):
            build(gaussian_momentum(3))

        def no_draw(z, rng):
            raise AssertionError("the law was drawn from at construction")

        declared = AuxiliaryKernel(sample=no_draw, log_density_terms=lambda z: 0.0, dim=3)
        with pytest.raises(ConfigurationError):
            build(declared)
        # An undeclared dimension is checked with one draw at the origin.
        undeclared = dataclasses.replace(
            declared, sample=lambda z, rng: rng.standard_normal(3), dim=None
        )
        with pytest.raises(ConfigurationError, match=r"draws \(3,\) velocities, not \(2,\)"):
            build(undeclared)

    @pytest.mark.parametrize("scale", [[1.0, 2.0, 3.0], [], [[1.0, 2.0]]])
    def test_gaussian_jump_names_the_expected_length(self, scale):
        with pytest.raises(ConfigurationError, match="length 1 or 2, got"):
            gaussian_jump(2, scale)

    def test_hilbert_linear_names_the_expected_length(self):
        with pytest.raises(ConfigurationError, match="length 1 or 4, got length 3"):
            hilbert_linear({"d": 4}, [1.0, 2.0, 3.0])
        assert hilbert_linear({"d": 4}, [2.0]).phi.eval(np.ones(4)) == 8.0


class TestAuxiliaryLaws:
    """Every auxiliary law works at any dimension it accepts: at a state
    ``ExtendedPoint(q, None, memo)`` it draws a finite ``(dim,)`` velocity,
    and its log-density terms at the completed point are finite."""

    @staticmethod
    def _laws(dim: int) -> dict:
        fd = standard_gaussian(dim)
        diagonal = 1.0 + np.arange(dim) / dim
        root = np.tri(dim) / dim + np.eye(dim)
        hilbert = default_hilbert_target(dim)
        lam = hilbert.reference.eigenvalues
        cfg = HmcConfig(delta=0.3)
        return {
            "identity mass": gaussian_momentum(dim),
            "diagonal mass": gaussian_momentum(dim, mass=diagonal),
            "dense mass": gaussian_momentum(dim, mass=root @ root.T),
            "gaussian jump": rwmc(fd, dim, jump=gaussian_jump(dim, scale=0.5)).aux,
            "relativistic": relativistic_hmc(fd, 1.0, 2.0, cfg, dim).aux,
            "rmhmc metric": rmhmc(fd, diagonal_quadratic_metric(), 0.3, 1, dim).aux,
            "reference": inf_hmc(hilbert, AuxLaw(), delta1=0.1).aux,
            "variances": inf_hmc(
                hilbert, AuxLaw(variances=lambda q: lam * (1.0 + np.tanh(q) ** 2)), delta1=0.1
            ).aux,
        }

    @settings(max_examples=30, deadline=None)
    @given(dim=st.integers(1, 64), seed=st.integers(0, 2**32 - 1))
    def test_finite_draw_and_density_at_any_dimension(self, dim, seed):
        rng = np.random.default_rng(seed)
        q = rng.standard_normal(dim)
        for name, aux in self._laws(dim).items():
            memo = {}
            v = aux.sample(ExtendedPoint(q, None, memo), rng)
            assert v.shape == (dim,) and np.isfinite(v).all(), name
            assert aux.dim == dim, name
            assert math.isfinite(aux.log_density_terms(ExtendedPoint(q, v, memo))), name


class TestSurrogateHmc:
    def test_rwmc_recovery(self, rng):
        # Kick disabled (delta1 = 0, zero force), identity drift with
        # delta2 = 1: the kernel is exactly the Gaussian random walk.
        target = rosenbrock(dim=2, a=1.0, b=2.0)
        kernel = surrogate_hmc(
            target,
            gaussian_momentum(2),
            HmcConfig(delta=1.0, n=1, delta1=0.0, delta2=1.0),
            f1=lambda v: v,
            f2=lambda q: np.zeros_like(q),
            dim=2,
        )
        walk = rwmc(target, dim=2, scale=1.0)
        for _ in range(100):
            z = ExtendedPoint(rng.standard_normal(2), rng.standard_normal(2))
            a, la = kernel.involution.step(z)
            b, lb = walk.involution.step(z)
            np.testing.assert_allclose(a.q, b.q, atol=1e-15)
            assert accept_prob(la) == pytest.approx(accept_prob(lb), abs=1e-10)

    def test_palindrome_scheme_energy_form_valid(self, rng):
        # Palindromic composition of Hamiltonian stages stays reversible, so
        # flip . composition is an involution at tolerance.
        target = standard_gaussian(2)
        grad = target.grad
        f1 = lambda v: v
        f2 = lambda q: -grad(q)
        stages = [
            (lambda t, z: kick(t, f2, z), 0.1),
            (lambda t, z: drift(t, f1, z), 0.15),
        ]
        kernel = surrogate_hmc(
            target,
            gaussian_momentum(2),
            HmcConfig(delta=1.0, n=2),
            scheme="palindrome",
            stages=stages,
            dim=2,
        )
        for _ in range(100):
            z = ExtendedPoint(rng.standard_normal(2), rng.standard_normal(2))
            twice = kernel.involution.apply(kernel.involution.apply(z))
            assert point_norm(twice, z) <= 1e-8

    def test_energy_form_matches_numerical_jacobian_path(self, rng):
        # For a volume-preserving scheme the general acceptance (with the
        # numerically computed determinant) agrees with the energy form.
        target = rosenbrock(dim=2, a=1.0, b=2.0)
        grad = target.grad
        shared = dict(
            f1=lambda v: np.tanh(v),
            f2=lambda q: -0.8 * grad(q),
            dim=2,
        )
        cfg = HmcConfig(delta=0.25, n=2)
        aux = gaussian_momentum(2)
        vp = surrogate_hmc(target, aux, cfg, **shared)
        general = surrogate_hmc(target, aux, cfg, volume_preserving=False, **shared)
        for _ in range(30):
            z = ExtendedPoint(0.6 * rng.standard_normal(2), rng.standard_normal(2))
            assert vp.involution.log_rn(z) == pytest.approx(
                general.involution.log_rn(z), abs=1e-4
            )

    def test_numerical_jacobian_path_names_its_cap(self):
        # Finite differences over 2 * dim = 12 coordinates exceed the cap of 10.
        with pytest.raises(ConfigurationError, match=r"Jacobian cap \(10 total coordinates\)"):
            surrogate_hmc(
                standard_gaussian(6), gaussian_momentum(6), HmcConfig(delta=0.3),
                f1=lambda v: v, f2=lambda q: -q, volume_preserving=False, dim=6,
            )

    def test_exact_flow_surrogate_always_accepts(self, rng):
        # The rotation is the exact flow of the unit harmonic Hamiltonian,
        # so the energy difference vanishes and alpha = 1 at every step.
        from invmh.integrators import rotation

        target = standard_gaussian(2)
        kernel = surrogate_hmc(
            target,
            gaussian_momentum(2),
            HmcConfig(delta=1.0, n=3),
            scheme="palindrome",
            stages=[(lambda t, z: rotation(t, z), 0.35)],
            dim=2,
        )
        from invmh import run_chain

        chain = run_chain(kernel, np.array([1.0, -0.5]), 500, rng)
        assert np.all(chain.alphas >= 1.0 - 1e-10)

    def test_surrogate_field_parity_verified(self):
        # A claimed-but-false parity is caught by the construction-time
        # randomized spot check.
        target = standard_gaussian(2)
        with pytest.raises(Exception):
            surrogate_hmc(
                target, gaussian_momentum(2), HmcConfig(delta=0.3),
                f1=lambda v: v + 1.0, f2=lambda q: -q, dim=2,
            )
        kernel = surrogate_hmc(
            target, gaussian_momentum(2), HmcConfig(delta=0.3),
            f1=lambda v: v**3, f2=lambda q: -q, dim=2,
        )
        assert kernel.name == "surrogate_hmc"

    def test_surrogate_field_with_stormer_verlet(self, rng):
        # Point fields are spot-checked with points.  These come from no one
        # Hamiltonian, so the step does not preserve volume.
        target = standard_gaussian(2)
        kernel = surrogate_hmc(
            target, gaussian_momentum(2), HmcConfig(delta=0.2),
            f1=lambda z: z.v / (1.0 + z.q**2), f2=lambda z: -z.q,
            scheme="stormer_verlet", volume_preserving=False, dim=2,
        )
        for _ in range(30):
            z = ExtendedPoint(rng.standard_normal(2), rng.standard_normal(2))
            twice = kernel.involution.apply(kernel.involution.apply(z))
            assert point_norm(twice, z) <= 1e-9

    @pytest.mark.parametrize(
        "scheme, f1, f2, volume_preserving",
        [
            # Separable fields: kick and drift are shears whatever they are.
            ("leapfrog", lambda v: v + 0.3 * v**3, lambda q: -1.5 * q - np.sin(q), True),
            # The point fields of H~ = |q|^2/2 + sum v^2 / (2 (1 + q^2)).
            (
                "stormer_verlet",
                lambda z: z.v / (1.0 + z.q**2),
                lambda z: -z.q + z.v**2 * z.q / (1.0 + z.q**2) ** 2,
                True,
            ),
            # Not from one Hamiltonian: the step does not preserve volume.
            ("stormer_verlet", lambda z: z.v / (1.0 + z.q**2), lambda z: -z.q, False),
        ],
        ids=["leapfrog", "stormer_verlet.hamiltonian", "stormer_verlet.numerical_jacobian"],
    )
    def test_surrogate_log_rn_matches_oracle(self, rng, scheme, f1, f2, volume_preserving):
        # The energy form holds for leapfrog's separable fields and for
        # Stormer-Verlet fields of one surrogate Hamiltonian; other
        # Stormer-Verlet fields need the numerical Jacobian.
        target = anisotropic_gaussian([1.0, 0.25])
        kernel = surrogate_hmc(
            target, gaussian_momentum(2), HmcConfig(delta=0.2, n=2), f1=f1, f2=f2,
            scheme=scheme, volume_preserving=volume_preserving, dim=2,
        )
        ext = lambda q, v: -target.eval(q) - 0.5 * float(v @ v)
        for _ in range(10):
            z = ExtendedPoint(0.8 * rng.standard_normal(2), rng.standard_normal(2))
            oracle = generic_log_rn(ext, kernel.involution.apply, z)
            assert kernel.involution.log_rn(z) == pytest.approx(oracle, abs=1e-6)

    @pytest.mark.parametrize(
        "scheme, f1",
        [("leapfrog", lambda v: v**2), ("stormer_verlet", lambda z: z.v**2 + z.q)],
    )
    def test_even_f1_rejected_under_both_schemes(self, scheme, f1):
        f2 = (lambda q: -q) if scheme == "leapfrog" else (lambda z: -z.q)
        with pytest.raises(ConfigurationError, match="parity"):
            surrogate_hmc(
                standard_gaussian(2), gaussian_momentum(2), HmcConfig(delta=0.2),
                f1=f1, f2=f2, scheme=scheme, dim=2,
            )

    @pytest.mark.parametrize("scheme", ["leapfrog", "stormer_verlet"])
    @pytest.mark.parametrize("convert", [list, lambda x: np.asarray(x, dtype=np.float32)])
    def test_fields_may_return_lists_or_float32(self, scheme, convert):
        # Field values become float64 arrays before they are scaled: a
        # field that returns a list or float32 runs the chain of the same
        # values in float64.
        target = anisotropic_gaussian([1.0, 0.25])
        grad = target.grad
        if scheme == "leapfrog":
            f1, f2 = (lambda v: 0.9 * v), (lambda q: -grad(q))
        else:
            f1, f2 = (lambda z: 0.9 * z.v), (lambda z: -grad(z.q))

        def chain(out):
            kernel = surrogate_hmc(
                target, gaussian_momentum(2), HmcConfig(delta=0.4, n=2),
                f1=lambda x: out(f1(x)), f2=lambda x: out(f2(x)), scheme=scheme, dim=2,
            )
            return run_chain(kernel, np.zeros(2), 200, np.random.default_rng(3))

        converted = chain(convert)
        as_float = chain(lambda x: np.asarray(convert(x), dtype=float))
        assert converted.accepted.any()
        for field in ("positions", "alphas", "accepted"):
            assert getattr(converted, field).tobytes() == getattr(as_float, field).tobytes()

    def test_stormer_verlet_scheme(self, rng):
        target = standard_gaussian(2)
        grad = target.grad
        kernel = surrogate_hmc(
            target,
            gaussian_momentum(2),
            HmcConfig(delta=0.2, n=2),
            f1=lambda z: z.v,
            f2=lambda z: -grad(z.q),
            scheme="stormer_verlet",
            dim=2,
        )
        for _ in range(30):
            z = ExtendedPoint(rng.standard_normal(2), rng.standard_normal(2))
            twice = kernel.involution.apply(kernel.involution.apply(z))
            assert point_norm(twice, z) <= 1e-9
