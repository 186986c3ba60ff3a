import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from invmh import (
    AuxiliaryKernel,
    ConfigurationError,
    ExtendedPoint,
    Involution,
    InvolutiveKernel,
    TargetPotential,
    accept_prob,
    classic_mh_kernel,
    generic_log_rn,
    involution_from_proposal_map,
    mala,
    mh_step,
    mixture_step,
    run_chain,
)
from invmh.targets import standard_gaussian


class TestAcceptProb:
    def test_zero_log_rn(self):
        assert accept_prob(0.0) == 1.0

    def test_log_half(self):
        assert accept_prob(math.log(0.5)) == pytest.approx(0.5, abs=1e-15)

    def test_nan_rejects(self):
        assert accept_prob(float("nan")) == 0.0

    def test_neg_inf_rejects(self):
        assert accept_prob(-math.inf) == 0.0

    def test_large_positive_clamps(self):
        assert accept_prob(1000.0) == 1.0

    @given(st.floats(allow_nan=True, allow_infinity=True))
    def test_always_a_probability(self, x):
        p = accept_prob(x)
        assert 0.0 <= p <= 1.0


def _always_accept_kernel(dim=1):
    target = TargetPotential(eval=lambda q: 0.0)
    aux = AuxiliaryKernel(
        sample=lambda z, rng: rng.standard_normal(dim),
        log_density_terms=lambda z: 0.0,
    )
    involution = Involution(lambda z: (ExtendedPoint(z.q + z.v, -z.v), 0.0))
    return InvolutiveKernel(target=target, aux=aux, involution=involution, dim=dim)


def _always_reject_kernel(dim=1):
    kernel = _always_accept_kernel(dim)
    involution = Involution(lambda z: (kernel.involution.apply(z), -math.inf))
    return InvolutiveKernel(
        target=kernel.target, aux=kernel.aux, involution=involution, dim=dim
    )


class TestMhStep:
    def test_flat_potential_always_accepts(self, rng):
        kernel = _always_accept_kernel()
        for _ in range(20):
            result = mh_step(kernel, np.zeros(1), rng)
            assert result.alpha == 1.0
            assert result.accepted

    def test_hard_constraint_rejects(self, rng):
        # Zero density beyond the wall: the proposal into it must get alpha 0.
        target = TargetPotential(eval=lambda q: 0.0 if q[0] <= 0.5 else math.inf)
        aux = AuxiliaryKernel(
            sample=lambda z, rng_: np.ones(1),
            log_density_terms=lambda z: 0.0,
        )
        involution = Involution(
            lambda z: (
                ExtendedPoint(z.q + z.v, -z.v),
                target.eval(z.q) - target.eval(z.q + z.v),
            )
        )
        kernel = InvolutiveKernel(target=target, aux=aux, involution=involution, dim=1)
        result = mh_step(kernel, np.zeros(1), rng)
        assert result.alpha == 0.0
        assert not result.accepted
        np.testing.assert_array_equal(result.next, np.zeros(1))

    def test_mala_hand_example(self, rng):
        # U(q) = q^2/2, delta = 1, q = 0, v = 1: proposal 1, alpha = exp(-1/8).
        kernel = mala(standard_gaussian(1), delta=1.0, dim=1)
        z = ExtendedPoint(np.zeros(1), np.ones(1))
        image, log_rn = kernel.involution.step(z)
        assert image.q == pytest.approx(1.0)
        assert accept_prob(log_rn) == pytest.approx(math.exp(-1.0 / 8.0), rel=1e-12)

    def test_dimension_mismatch(self, rng):
        kernel = _always_accept_kernel(dim=2)
        with pytest.raises(ConfigurationError):
            mh_step(kernel, np.zeros(3), rng)

    def test_consumes_one_aux_and_one_uniform(self):
        # Identical rng states before and after imply a fixed draw count;
        # compare against the manual two-draw replay.
        kernel = _always_reject_kernel()
        rng1 = np.random.default_rng(5)
        rng2 = np.random.default_rng(5)
        mh_step(kernel, np.zeros(1), rng1)
        rng2.standard_normal(1)
        rng2.uniform()
        assert rng1.bit_generator.state == rng2.bit_generator.state


class TestRunChain:
    def test_zero_steps(self, rng):
        kernel = _always_accept_kernel()
        chain = run_chain(kernel, np.array([0.3]), 0, rng)
        assert chain.positions.shape == (1, 1)
        assert chain.positions[0, 0] == 0.3

    def test_always_reject_gives_constant_chain(self, rng):
        kernel = _always_reject_kernel()
        chain = run_chain(kernel, np.array([1.5]), 50, rng)
        assert np.all(chain.positions == 1.5)
        assert chain.acceptance_rate == 0.0

    def test_seeded_chains_identical(self):
        kernel = mala(standard_gaussian(2), delta=0.8, dim=2)
        a = run_chain(kernel, np.zeros(2), 200, np.random.default_rng(42))
        b = run_chain(kernel, np.zeros(2), 200, np.random.default_rng(42))
        np.testing.assert_array_equal(a.positions, b.positions)
        np.testing.assert_array_equal(a.alphas, b.alphas)

    def test_reused_work_changes_no_result(self, kernel_zoo):
        # run_chain hands each step the memo of its state, so potentials,
        # forces and metrics computed at a proposal are reused once the
        # chain moves there; steps without a memo recompute everything.
        for i, entry in enumerate(kernel_zoo):
            q0 = np.zeros(entry.kernel.dim)
            chain = run_chain(entry.kernel, q0, 300, np.random.default_rng(i))
            rng = np.random.default_rng(i)
            q = q0
            for k in range(300):
                result = mh_step(entry.kernel, q, rng)
                q = result.next
                assert np.array_equal(chain.positions[k + 1], q), (entry.name, k)
                assert chain.alphas[k] == result.alpha, (entry.name, k)

    @pytest.mark.parametrize("n_steps", [3.0, True, -1, "5", None])
    def test_rejects_a_bad_step_count_before_any_draw(self, rng, n_steps):
        state = rng.bit_generator.state
        message = f"n_steps must be an integer >= 0, got {n_steps!r}"
        with pytest.raises(ConfigurationError, match=re.escape(message)):
            run_chain(_always_accept_kernel(), np.zeros(1), n_steps, rng)
        assert rng.bit_generator.state == state

    def test_numpy_step_counts(self, rng):
        assert len(run_chain(_always_accept_kernel(), np.zeros(1), np.int64(3), rng)) == 4

    def test_rejects_zero_density_start(self, rng):
        target = TargetPotential(eval=lambda q: math.inf)
        kernel = _always_accept_kernel()
        bad = InvolutiveKernel(
            target=target, aux=kernel.aux, involution=kernel.involution, dim=1
        )
        with pytest.raises(ConfigurationError):
            run_chain(bad, np.zeros(1), 5, rng)


class TestInvolutionFromProposalMap:
    def test_swap(self):
        apply = involution_from_proposal_map(lambda q, v: v, lambda q, q_new: q_new)
        z = ExtendedPoint(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        image = apply(z)
        np.testing.assert_array_equal(image.q, z.v)
        np.testing.assert_array_equal(image.v, z.q)

    def test_translation(self):
        apply = involution_from_proposal_map(
            lambda q, v: q + v, lambda q, q_new: q_new - q
        )
        z = ExtendedPoint(np.array([1.0]), np.array([0.25]))
        image = apply(z)
        assert image.q[0] == 1.25
        assert image.v[0] == -0.25

    def test_mala_proposal_map_matches_closed_form(self, rng):
        # The unique involution built from the Langevin proposal map equals
        # the flip-composed leapfrog and squares to the identity.
        target = standard_gaussian(3)
        delta = 0.7

        def proposal(q, v):
            return q - 0.5 * delta**2 * target.grad(q) + delta * v

        def invert(q, q_new):
            return (q_new - q + 0.5 * delta**2 * target.grad(q)) / delta

        apply = involution_from_proposal_map(proposal, invert)
        kernel = mala(target, delta=delta, dim=3)
        for _ in range(100):
            z = ExtendedPoint(rng.standard_normal(3), rng.standard_normal(3))
            image = apply(z)
            twice = apply(image)
            assert max(np.max(np.abs(twice.q - z.q)), np.max(np.abs(twice.v - z.v))) <= 1e-10
            reference = kernel.involution.apply(z)
            np.testing.assert_allclose(image.q, reference.q, atol=1e-12)
            np.testing.assert_allclose(image.v, reference.v, atol=1e-12)


class TestGenericLogRn:
    def test_swap_gives_hastings_ratio(self, rng):
        # rho(q, v) = p(q) s(q, v) under the swap reduces to the classical
        # two-point Hastings log ratio.
        def log_p(q):
            return -0.5 * float(np.sum(q**2))

        def log_s(q, v):
            return -0.5 * float(np.sum((v - 0.3 * q) ** 2))

        def ext(q, v):
            return log_p(q) + log_s(q, v)

        swap = lambda z: ExtendedPoint(z.v, z.q)
        for _ in range(25):
            z = ExtendedPoint(rng.standard_normal(2), rng.standard_normal(2))
            expected = (log_p(z.v) + log_s(z.v, z.q)) - (log_p(z.q) + log_s(z.q, z.v))
            assert generic_log_rn(ext, swap, z) == pytest.approx(expected, abs=1e-7)

    def test_momentum_flip_symmetric_density(self, rng):
        def ext(q, v):
            return -0.5 * float(np.sum(q**2)) - 0.5 * float(np.sum(v**2))

        flip = lambda z: ExtendedPoint(z.q, -z.v)
        z = ExtendedPoint(rng.standard_normal(3), rng.standard_normal(3))
        assert generic_log_rn(ext, flip, z) == pytest.approx(0.0, abs=1e-9)

    def test_dimension_cap(self, rng):
        ext = lambda q, v: 0.0
        ident = lambda z: z
        z = ExtendedPoint(rng.standard_normal(6), rng.standard_normal(6))
        with pytest.raises(ConfigurationError):
            generic_log_rn(ext, ident, z)


class TestClassicMhKernel:
    @staticmethod
    def _gaussian_proposal(width=1.0):
        def log_density(q, v):
            return -0.5 * float(np.sum((v - q) ** 2)) / width**2

        def sampler(q, rng):
            return q + width * rng.standard_normal(q.shape[0])

        return log_density, sampler

    def test_symmetric_proposal_is_metropolis(self, rng):
        log_density, sampler = self._gaussian_proposal()
        log_p = lambda q: -0.5 * float(np.sum(q**2))
        kernel = classic_mh_kernel(log_p, log_density, sampler, dim=2)
        for _ in range(50):
            z = ExtendedPoint(rng.standard_normal(2), rng.standard_normal(2))
            expected = log_p(z.v) - log_p(z.q)
            assert kernel.involution.log_rn(z) == pytest.approx(expected, abs=1e-12)

    def test_uniform_box_always_accepts(self, rng):
        log_density, sampler = self._gaussian_proposal()
        log_p = lambda q: 0.0 if np.all(np.abs(q) <= 10) else -math.inf
        kernel = classic_mh_kernel(log_p, log_density, sampler, dim=1)
        z = ExtendedPoint(np.array([0.2]), np.array([0.4]))
        assert accept_prob(kernel.involution.log_rn(z)) == 1.0

    def test_direct_ratio(self):
        log_density, sampler = self._gaussian_proposal()
        log_p = lambda q: -0.5 * float(np.sum(q**2))
        kernel = classic_mh_kernel(log_p, log_density, sampler, dim=1)
        z = ExtendedPoint(np.zeros(1), np.ones(1))
        assert accept_prob(kernel.involution.log_rn(z)) == pytest.approx(
            math.exp(-0.5), rel=1e-12
        )


class _FixedAux:
    """Auxiliary kernel producing a deterministic v (for comparing step
    mechanics without aligning rng streams)."""

    @staticmethod
    def make(v):
        return AuxiliaryKernel(sample=lambda z, rng: np.array(v), log_density_terms=lambda z: 0.0)


class TestMixtureStep:
    def _shift_kernel(self, shift, log_rn_value=0.0):
        involution = Involution(lambda z: (ExtendedPoint(z.q + shift, -z.v), log_rn_value))
        return InvolutiveKernel(
            target=TargetPotential(eval=lambda q: 0.0),
            aux=_FixedAux.make([0.0]),
            involution=involution,
            dim=1,
        )

    def test_single_kernel_matches_mh_step(self, rng):
        kernel = self._shift_kernel(np.array([2.0]), log_rn_value=math.log(0.5))
        mix = mixture_step([kernel], lambda q: np.array([1.0]), np.zeros(1), rng)
        direct = mh_step(kernel, np.zeros(1), np.random.default_rng(0))
        assert mix.alpha == direct.alpha
        np.testing.assert_array_equal(mix.proposal, direct.proposal)

    def test_zero_weight_component_never_chosen(self, rng):
        k1 = self._shift_kernel(np.array([100.0]))
        k2 = self._shift_kernel(np.array([1.0]))
        weights = lambda q: np.array([0.0, 1.0])
        for _ in range(10):
            result = mixture_step([k1, k2], weights, np.zeros(1), rng)
            assert result.proposal[0] == 1.0

    def test_weight_ratio_enters_acceptance(self, rng):
        # Moving right halves the selection weight of the component, so the
        # acceptance probability must carry the factor 1/2.
        kernel = self._shift_kernel(np.array([1.0]))

        def weights(q):
            p = 0.4 if q[0] < 0.5 else 0.2
            return np.array([p, 1.0 - p])

        other = self._shift_kernel(np.array([-1.0]))
        found = False
        for _ in range(50):
            result = mixture_step([kernel, other], weights, np.zeros(1), rng)
            if result.proposal[0] == 1.0:
                assert result.alpha == pytest.approx(0.5, abs=1e-12)
                found = True
        assert found

    def test_nan_weights_are_a_configuration_error(self, rng):
        kernel = self._shift_kernel(np.array([1.0]))
        with pytest.raises(ConfigurationError):
            mixture_step([kernel, kernel], lambda q: np.array([math.nan, 1.0]), np.zeros(1), rng)

    def test_empty_kernel_list(self, rng):
        with pytest.raises(ConfigurationError):
            mixture_step([], lambda q: np.array([]), np.zeros(1), rng)

    def test_dimension_mismatch(self, rng):
        # The same check as mh_step's, not numpy's broadcasting error.
        kernel = self._shift_kernel(np.array([1.0]))
        with pytest.raises(ConfigurationError):
            mixture_step([kernel], lambda q: np.array([1.0]), np.zeros(2), rng)

    def test_constant_weights_reduce_to_plain_alpha(self, rng):
        kernel = self._shift_kernel(np.array([1.0]), log_rn_value=math.log(0.7))
        result = mixture_step(
            [kernel, kernel], lambda q: np.array([0.5, 0.5]), np.zeros(1), rng
        )
        assert result.alpha == pytest.approx(0.7, abs=1e-12)

    def test_state_dependent_mixture_preserves_target(self):
        # The weight-ratio correction keeps the compound kernel reversible:
        # moments and the detailed-balance test both hold on a 1D Gaussian.
        from invmh import rwmc
        from invmh.diagnostics import detailed_balance_test, moment_check, transition_pairs
        from invmh.targets import standard_gaussian

        target = standard_gaussian(1)
        kernels = [
            rwmc(target, dim=1, scale=0.5),
            rwmc(target, dim=1, scale=2.0),
        ]

        def weights(q):
            p = 1.0 / (1.0 + math.exp(-q[0]))
            return np.array([p, 1.0 - p])

        rng = np.random.default_rng(77)
        n = 40_000
        chain = np.empty(n)
        q = np.zeros(1)
        for k in range(n):
            chain[k] = q[0]
            q = mixture_step(kernels, weights, q, rng).next
        kept = chain[2000:]
        checked = moment_check(kept[:, None], np.zeros(1), np.ones(1), batch_count=20)
        assert abs(checked.var_z[0]) <= 3.0
        p = detailed_balance_test(transition_pairs(kept), rng, max_pairs=1500)
        assert p > 0.01


class TestAlphaBalance:
    def test_balance_identity_over_all_kernels(self, kernel_zoo):
        # alpha_hat(S(z)) * exp(log_rn(z)) = alpha_hat(z) wherever finite.
        rng = np.random.default_rng(4040)
        for entry in kernel_zoo:
            log_rn = entry.kernel.involution.log_rn
            apply = entry.kernel.involution.apply
            for _ in range(100):
                z = entry.sample_z(rng)
                forward = log_rn(z)
                if not math.isfinite(forward):
                    continue
                lhs = accept_prob(log_rn(apply(z))) * math.exp(forward)
                assert lhs == pytest.approx(accept_prob(forward), abs=1e-8), entry.name
