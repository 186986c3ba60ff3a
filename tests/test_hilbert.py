import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invmh import (
    AuxLaw,
    ConfigurationError,
    ExtendedPoint,
    HilbertTarget,
    SpectralGaussian,
    TargetPotential,
    accept_prob,
    gen_langevin,
    generic_log_rn,
    hilbert_log_rn,
    inf_hmc,
    inf_mala,
    langevin_log_accept_ratio,
    leapfrog_refinement_probe,
    momentum_flip,
    pcn,
    power_law_eigenvalues,
    rho_from_delta,
    rotation,
    run_chain,
    strang_hilbert,
)
from invmh.core import AuxiliaryKernel, Involution, InvolutiveKernel
from invmh.hilbert import (
    _kick_steps,
    default_hilbert_target,
    hilbert_log_rn_from_trajectory,
    quartic_bounded_phi,
    validate_aux_normalization,
)
from invmh.integrators import _rotate

from conftest import assert_grad_consistent, point_norm


def flat_phi() -> TargetPotential:
    return TargetPotential(eval=lambda q: 0.0, grad=lambda q: np.zeros_like(q))


def zero_force_target(d: int) -> HilbertTarget:
    return HilbertTarget(
        phi=flat_phi(),
        reference=SpectralGaussian(power_law_eigenvalues(d)),
        surrogate_f=lambda q: np.zeros_like(q),
    )


def test_quartic_phi_gradient(rng):
    assert_grad_consistent(quartic_bounded_phi(4), rng.standard_normal((10, 4)))


@pytest.mark.parametrize(
    "q", [[1e75, 0.0], [math.sqrt(1e155), 0.0], [1e150, 0.0], [1e200, 1e200], [math.inf, 1.0]]
)
def test_quartic_phi_far_from_the_origin(q):
    # |q|^2 = 1e150, 1e155, 1e300 and two infinite ones: the potential is
    # |q|^2 / 2 and the gradient q there to rounding, or infinite, but never
    # NaN or an OverflowError.
    phi, q = quartic_bounded_phi(2), np.array(q)
    with np.errstate(over="ignore"):
        sq_norm = float(np.sum(q**2))
        value, grad = phi.eval(q), phi.grad(q)
    assert value == pytest.approx(sq_norm / 2, rel=1e-12)
    np.testing.assert_allclose(grad, q, rtol=1e-12)


class TestHilbertLogRn:
    def test_zero_force_reduces_to_phi_difference(self, rng):
        target = HilbertTarget(
            phi=quartic_bounded_phi(3),
            reference=SpectralGaussian(power_law_eigenvalues(3)),
            surrogate_f=lambda q: np.zeros_like(q),
        )
        aux = AuxLaw()
        for _ in range(20):
            z = ExtendedPoint(target.reference.sample(rng), target.reference.sample(rng))
            value = hilbert_log_rn(target, aux, 0.2, 0.5, 3, z)
            # With f = 0 the kick is the identity: endpoint = rotation^3.
            from invmh.integrators import rotation

            endpoint = rotation(1.5, z)
            expected = target.phi.eval(z.q) - target.phi.eval(endpoint.q)
            assert value == pytest.approx(expected, abs=1e-12)

    def test_flat_potential_always_unit(self, rng):
        target = zero_force_target(4)
        aux = AuxLaw()
        for _ in range(20):
            z = ExtendedPoint(target.reference.sample(rng), target.reference.sample(rng))
            assert hilbert_log_rn(target, aux, 0.3, 0.4, 2, z) == 0.0

    def test_skew_symmetry(self, rng):
        target = default_hilbert_target(4)
        aux = AuxLaw()
        from invmh.integrators import momentum_flip, strang_hilbert

        f = target.force()
        for _ in range(100):
            z = ExtendedPoint(target.reference.sample(rng), target.reference.sample(rng))
            forward = hilbert_log_rn(target, aux, 0.2, 0.6, 3, z)
            endpoint, _ = strang_hilbert(3, 0.2, 0.6, f, z)
            backward = hilbert_log_rn(target, aux, 0.2, 0.6, 3, momentum_flip(endpoint))
            assert forward + backward == pytest.approx(0.0, abs=1e-9)

    def test_oracle_agreement(self, rng):
        # The measure-theoretic closed form against the Lebesgue-density
        # oracle at finite truncation, d = 3, n = 3.
        target = default_hilbert_target(3)
        ref = target.reference
        aux = AuxLaw()
        f = target.force()
        from invmh.integrators import momentum_flip, strang_hilbert

        def apply_s(z):
            endpoint, _ = strang_hilbert(3, 0.25, 0.5, f, z)
            return momentum_flip(endpoint)

        def ext(q, v):
            return (
                -target.phi.eval(q)
                + ref.log_density_lebesgue(q)
                + ref.log_density_lebesgue(v)
            )

        for _ in range(50):
            z = ExtendedPoint(ref.sample(rng), ref.sample(rng))
            closed = hilbert_log_rn(target, aux, 0.25, 0.5, 3, z)
            oracle = generic_log_rn(ext, apply_s, z)
            assert closed == pytest.approx(oracle, abs=1e-5)

    def test_infinite_phi_rejects(self, rng):
        wall = TargetPotential(eval=lambda q: math.inf if q[0] > 0 else 0.0)
        target = HilbertTarget(
            phi=wall,
            reference=SpectralGaussian(np.ones(2)),
            surrogate_f=lambda q: np.zeros_like(q),
        )
        z = ExtendedPoint(np.array([-1.0, 0.0]), np.array([5.0, 0.0]))
        value = hilbert_log_rn(target, AuxLaw(), 0.1, 1.2, 1, z)
        assert value == -math.inf


def hilbert_case(d: int, force: str, law: str) -> tuple[HilbertTarget, AuxLaw]:
    """A target with the default force ``C grad(phi)``, a surrogate force or
    zero force (with flat ``phi``), and the reference or a diagonal law."""
    ref = SpectralGaussian(power_law_eigenvalues(d))
    if force == "zero":
        target = zero_force_target(d)
    else:
        surrogate = lambda q: -0.3 * np.tanh(q) * ref.eigenvalues
        target = HilbertTarget(
            phi=quartic_bounded_phi(d),
            reference=ref,
            surrogate_f=surrogate if force == "surrogate" else None,
        )
    lam = ref.eigenvalues
    variances = lambda q: lam * (1.0 + 0.5 * np.tanh(q) ** 2)
    return target, AuxLaw(variances=variances if law == "variances" else None)


def kernel_strang(target, n, delta1, delta2, z):
    """``strang_hilbert``'s recorded path with the kernels' arguments: kick
    steps ``delta1 * lambda`` on the default force's dual."""
    steps = _kick_steps(target, delta1)
    return strang_hilbert(n, steps, delta2, target._force_and_dual, z, paired=True)


def plain_strang(n, delta1, delta2, f, z):
    """The Strang trajectory by separate ufuncs: the kick ``v - delta1 f``,
    the rotation ``(c q + s v, -s q + c v)`` and the kick again, each with
    the plain force, every product and sum rounded on its own."""
    c, s = math.cos(delta2), math.sin(delta2)
    fq = np.asarray(f(z.q), dtype=float)
    q, v = z.q, z.v
    trajectory = [z]
    for _ in range(n):
        v = v + (-delta1) * fq
        q, v = c * q + s * v, -s * q + c * v
        fq = np.asarray(f(q), dtype=float)
        v = v + (-delta1) * fq
        trajectory.append(ExtendedPoint(q, v, {f: fq}))
    return trajectory


class TestStreamedLogRn:
    # The kernels sum the log-RN's inner-point terms as the integrator builds
    # the points; hilbert_log_rn_from_trajectory reads the recorded points.
    @settings(max_examples=80, deadline=None)
    @given(
        d=st.integers(1, 64),
        n=st.integers(1, 12),
        delta1=st.floats(0.0, 1.0),
        delta2=st.floats(-3.0, 3.0).filter(lambda x: x != 0.0),
        force=st.sampled_from(["default", "surrogate", "zero"]),
        law=st.sampled_from(["reference", "variances"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_kernel_matches_the_trajectory_formula(self, d, n, delta1, delta2, force, law, seed):
        target, aux = hilbert_case(d, force, law)
        rng = np.random.default_rng(seed)
        q, v = target.reference.sample(rng), target.reference.sample(rng)
        image, value = inf_hmc(target, aux, delta1, delta2, n).involution.step(
            ExtendedPoint(q, v, {})
        )
        endpoint, trajectory = kernel_strang(target, n, delta1, delta2, ExtendedPoint(q, v, {}))
        want = hilbert_log_rn_from_trajectory(target, aux, delta1, trajectory)
        assert image.q.tobytes() == endpoint.q.tobytes()
        assert image.v.tobytes() == momentum_flip(endpoint).v.tobytes()
        assert value == pytest.approx(want, rel=1e-12, abs=1e-12)
        if force == "zero" and law == "reference":
            assert value == 0.0

    @staticmethod
    def reference_log_rn(target, aux, delta1, trajectory):
        """The reference log-RN for the kernels' streamed sums: every
        Cameron-Martin term by ``cm_inner``/``cm_sq_norm`` on the recorded
        trajectory, every force evaluated afresh."""
        ref, f = target.reference, target.force()
        z0, zn = trajectory[0], trajectory[-1]
        phi0, phin = target.phi.eval(z0.q), target.phi.eval(zn.q)
        if not (math.isfinite(phi0) and math.isfinite(phin)):
            return -math.inf
        f0, fn = f(z0.q), f(zn.q)
        value = phi0 + aux.h_tilde(ref, z0) - phin - aux.h_tilde(ref, momentum_flip(zn))
        value -= 0.5 * delta1 * delta1 * (ref.cm_sq_norm(f0) - ref.cm_sq_norm(fn))
        inner = 0.0
        for z in trajectory[1:-1]:
            inner += ref.cm_inner(z.v, z.cached(f))
        value += 2.0 * delta1 * inner
        value += delta1 * (ref.cm_inner(z0.v, f0) + ref.cm_inner(zn.v, fn))
        return float(value)

    def reference_kernel(self, target, name):
        """The kernel ``name`` of the chain test below on the
        recorded-trajectory path with :meth:`reference_log_rn` (pcn by its
        rotation, which no log-RN sum touches).  The trajectory is the
        kernels' own (:func:`kernel_strang`), so positions agree bit for
        bit; :class:`TestFusedStrang` bounds its distance from the plain
        arithmetic."""
        ref = target.reference
        if name == "pcn":
            c = rho_from_delta(1.0)
            s = math.sin(math.acos(c))

            def step(z):
                image = ExtendedPoint(*_rotate(c, s, z.q, z.v, flip=True))
                return image, target.phi.eval(z.q) - target.phi.eval(image.q)

        else:
            if name == "inf_hmc":
                delta1, delta2, n = 0.15, 0.3, 10
            else:
                delta1, delta2, n = math.sqrt(0.6) / 2.0, math.acos(rho_from_delta(0.6)), 1

            def step(z):
                endpoint, trajectory = kernel_strang(target, n, delta1, delta2, z)
                value = self.reference_log_rn(target, AuxLaw(), delta1, trajectory)
                return momentum_flip(endpoint), value

        return InvolutiveKernel(
            target=target.phi,
            aux=AuxiliaryKernel(
                sample=lambda z, rng: ref.sample(rng), log_density_terms=lambda z: 0.0
            ),
            involution=Involution(step),
            dim=target.dim,
            name=name,
        )

    def test_chains_match_the_recorded_trajectory_path(self):
        d = 1024
        target = default_hilbert_target(d)
        surrogate = HilbertTarget(target.phi, target.reference, surrogate_f=target.force())
        kernels = {
            "pcn": (pcn(target, delta=1.0), target),
            "inf_mala": (inf_mala(target, delta=0.6), target),
            "inf_hmc": (inf_hmc(target, AuxLaw(), delta1=0.15, delta2=0.3, n=10), target),
            "gen_langevin": (gen_langevin(surrogate, delta=0.6), surrogate),
        }
        for seed, (name, (kernel, kernel_target)) in enumerate(kernels.items()):
            chain = run_chain(kernel, np.zeros(d), 200, np.random.default_rng(seed))
            reference = self.reference_kernel(kernel_target, name)
            want = run_chain(reference, np.zeros(d), 200, np.random.default_rng(seed))
            assert chain.acceptance_rate > 0.0, name
            assert np.array_equal(chain.positions, want.positions), name
            assert np.array_equal(chain.accepted, want.accepted), name
            np.testing.assert_allclose(chain.alphas, want.alphas, rtol=1e-12, err_msg=name)

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 64),
        law=st.sampled_from(["reference", "variances"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_h_tilde_reads_the_velocity_squared(self, d, law, seed):
        # The log-RN takes H~ at the unflipped endpoint: (-v)**2 == v**2.
        target, aux = hilbert_case(d, "default", law)
        rng = np.random.default_rng(seed)
        z = ExtendedPoint(target.reference.sample(rng), target.reference.sample(rng), {})
        ref = target.reference
        assert aux.h_tilde(ref, z) == aux.h_tilde(ref, momentum_flip(z))

    @pytest.mark.parametrize("n", [10, 20])
    def test_involution_keeps_no_trajectory(self, n):
        # Only the endpoints and a few working vectors are alive at once, so
        # the peak does not grow with n; a kept trajectory alone holds 3 n.
        d = 4096
        target = default_hilbert_target(d)
        kernel = inf_hmc(target, AuxLaw(), delta1=0.15, delta2=0.3, n=n)
        rng = np.random.default_rng(n)
        points = [
            ExtendedPoint(target.reference.sample(rng), target.reference.sample(rng), {})
            for _ in range(2)
        ]
        kernel.involution.step(points[0])
        tracemalloc.start()
        try:
            kernel.involution.step(points[1])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * 8 * d


class TestFusedStrang:
    # The kernels' one matrix product per step and their kicks on the dual
    # round differently from separate kicks and rotations with the plain
    # force: the endpoint and the log-RN must stay within stated bounds.
    @settings(max_examples=80, deadline=None)
    @given(
        d=st.integers(1, 64),
        n=st.integers(1, 12),
        delta1=st.floats(0.0, 1.0),
        delta2=st.floats(-3.0, 3.0).filter(lambda x: x != 0.0),
        force=st.sampled_from(["default", "surrogate", "zero"]),
        law=st.sampled_from(["reference", "variances"]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_plain_kick_rotation_kick(self, d, n, delta1, delta2, force, law, seed):
        target, aux = hilbert_case(d, force, law)
        rng = np.random.default_rng(seed)
        q, v = target.reference.sample(rng), target.reference.sample(rng)
        image, value = inf_hmc(target, aux, delta1, delta2, n).involution.step(
            ExtendedPoint(q, v, {})
        )
        trajectory = plain_strang(n, delta1, delta2, target.force(), ExtendedPoint(q, v, {}))
        end = trajectory[-1]
        scale = max(np.abs(end.q).max(), np.abs(end.v).max())
        assert np.abs(image.q - end.q).max() <= 1e-13 * scale
        assert np.abs(image.v + end.v).max() <= 1e-13 * scale
        want = hilbert_log_rn_from_trajectory(target, aux, delta1, trajectory)
        phi = target.phi.eval
        size = max(1.0, abs(want), abs(phi(q)), abs(phi(end.q)))
        assert abs(value - want) <= 1e-12 * size


class TestPcn:
    def test_flat_potential_always_accepts(self, rng):
        target = zero_force_target(5)
        kernel = pcn(target, delta=1.0)
        chain = run_chain(kernel, np.zeros(5), 500, rng)
        assert chain.acceptance_rate == 1.0
        assert np.all(chain.alphas == 1.0)

    def test_linear_potential_formula(self, rng):
        a = np.array([0.5, -1.0, 0.25])
        target = HilbertTarget(
            phi=TargetPotential(eval=lambda q: float(a @ q), grad=lambda q: a),
            reference=SpectralGaussian(power_law_eigenvalues(3)),
        )
        kernel = pcn(target, delta=0.8)
        for _ in range(30):
            z = ExtendedPoint(target.reference.sample(rng), target.reference.sample(rng))
            image, log_rn = kernel.involution.step(z)
            assert log_rn == pytest.approx(float(a @ (z.q - image.q)), abs=1e-12)

    def test_rho_one_degenerate_no_move(self, rng):
        target = default_hilbert_target(3)
        kernel = pcn(target, rho=1.0)
        z = ExtendedPoint(target.reference.sample(rng), target.reference.sample(rng))
        image, log_rn = kernel.involution.step(z)
        np.testing.assert_allclose(image.q, z.q, atol=1e-15)
        assert accept_prob(log_rn) == 1.0

    def test_rho_delta_conversion(self):
        assert rho_from_delta(0.0) == 1.0
        assert rho_from_delta(4.0) == 0.0
        assert rho_from_delta(1.0) == pytest.approx(0.6)

    @pytest.mark.parametrize("rho", [0.6, 0.9, -0.3])
    def test_image_is_the_flipped_rotation(self, rng, rho):
        # Exactly, for rho with cos(acos(rho)) == rho: pcn rotates by the
        # sine and cosine that rotation(acos(rho)) computes.
        assert math.cos(math.acos(rho)) == rho
        target = default_hilbert_target(7)
        kernel = pcn(target, rho=rho)
        for _ in range(20):
            z = ExtendedPoint(target.reference.sample(rng), target.reference.sample(rng))
            image, _ = kernel.involution.step(z)
            expected = momentum_flip(rotation(math.acos(rho), z))
            assert np.array_equal(image.q, expected.q) and np.array_equal(image.v, expected.v)

    def test_involution_property(self, rng):
        target = default_hilbert_target(6)
        kernel = pcn(target, delta=1.3)
        for _ in range(100):
            z = ExtendedPoint(target.reference.sample(rng), target.reference.sample(rng))
            twice = kernel.involution.apply(kernel.involution.apply(z))
            assert point_norm(twice, z) <= 1e-12


class TestInfMala:
    def test_zero_gradient_reduces_to_pcn(self, rng):
        target = HilbertTarget(
            phi=flat_phi(), reference=SpectralGaussian(power_law_eigenvalues(4))
        )
        delta = 0.7
        k_mala = inf_mala(target, delta)
        k_pcn = pcn(target, delta=delta)
        for _ in range(30):
            z = ExtendedPoint(target.reference.sample(rng), target.reference.sample(rng))
            a, la = k_mala.involution.step(z)
            b, lb = k_pcn.involution.step(z)
            assert point_norm(a, b) <= 1e-12
            assert la == pytest.approx(lb, abs=1e-12)

    def test_two_argument_form_agreement(self, rng):
        target = default_hilbert_target(4)
        delta = 0.5
        kernel = inf_mala(target, delta)
        for _ in range(100):
            z = ExtendedPoint(target.reference.sample(rng), target.reference.sample(rng))
            image, log_rn = kernel.involution.step(z)
            two_arg = langevin_log_accept_ratio(target, delta, z.q, image.q)
            assert accept_prob(two_arg) == pytest.approx(accept_prob(log_rn), abs=1e-10)

    def test_fixed_point_accepts(self, rng):
        # The v solving F(q, v) = q is a true fixed point of the involution,
        # so skew-symmetry forces alpha = 1 there.
        target = default_hilbert_target(3)
        delta = 0.6
        rho = rho_from_delta(delta)
        kernel = inf_mala(target, delta)
        f = target.force()
        for _ in range(10):
            q = target.reference.sample(rng)
            v_star = (q - rho * q) / math.sqrt(1 - rho * rho) + 0.5 * math.sqrt(delta) * f(q)
            image, log_rn = kernel.involution.step(ExtendedPoint(q, v_star))
            np.testing.assert_allclose(image.q, q, atol=1e-12)
            assert log_rn == pytest.approx(0.0, abs=1e-12)


class TestInfHmc:
    def test_flat_reference_case_accepts(self, rng):
        target = zero_force_target(4)
        kernel = inf_hmc(target, AuxLaw(), delta1=0.25, delta2=0.5, n=3)
        chain = run_chain(kernel, np.zeros(4), 300, rng)
        assert chain.acceptance_rate == 1.0

    def test_one_step_matches_inf_mala(self, rng):
        target = default_hilbert_target(4)
        delta = 0.5
        rho = rho_from_delta(delta)
        kernel_hmc = inf_hmc(
            target, AuxLaw(), delta1=math.sqrt(delta) / 2.0, delta2=math.acos(rho), n=1
        )
        kernel_mala = inf_mala(target, delta)
        for _ in range(50):
            z = ExtendedPoint(target.reference.sample(rng), target.reference.sample(rng))
            a, la = kernel_hmc.involution.step(z)
            b, lb = kernel_mala.involution.step(z)
            assert (a.q.tobytes(), a.v.tobytes()) == (b.q.tobytes(), b.v.tobytes())
            assert la == lb

    @pytest.mark.parametrize("build", [inf_mala, gen_langevin])
    def test_langevin_kernels_are_renamed_one_step_inf_hmc(self, build):
        # The same chain, bit for bit, as the one-step kernel of the
        # Langevin step sizes; only the name differs.
        base = default_hilbert_target(1024)
        force = base.force()
        surrogate = HilbertTarget(base.phi, base.reference, lambda q: 0.7 * force(q))
        target = base if build is inf_mala else surrogate
        delta = 0.6
        one_step = inf_hmc(
            target, AuxLaw(), math.sqrt(delta) / 2.0, math.acos(rho_from_delta(delta)), n=1
        )
        kernel = build(target, delta)
        assert (kernel.name, one_step.name) == (build.__name__, "inf_hmc")
        chains = [
            run_chain(k, np.zeros(1024), 300, np.random.default_rng(11)) for k in (kernel, one_step)
        ]
        assert chains[0].accepted.any()
        for field in ("positions", "alphas", "accepted"):
            assert getattr(chains[0], field).tobytes() == getattr(chains[1], field).tobytes()

    @pytest.mark.parametrize(
        "eigenvalues, delta1, delta2, match",
        [
            ([1.0, 0.5], 1e308, None, r"delta2 \(2 \* delta1 by default\) must be finite"),
            ([1e300, 1.0], 1e10, 0.5, "delta1 times each eigenvalue must be finite"),
        ],
        ids=["default_delta2_overflows", "kick_steps_overflow"],
    )
    def test_step_sizes_that_overflow_fail_at_construction(
        self, eigenvalues, delta1, delta2, match
    ):
        # Finite step sizes whose default rotation 2 * delta1, or whose
        # kick steps delta1 * lambda, overflow: without a check the first
        # would fail every step and the second reject every step.
        target = HilbertTarget(quartic_bounded_phi(2), SpectralGaussian(np.array(eigenvalues)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # and no overflow warning
            with pytest.raises(ConfigurationError, match=match):
                inf_hmc(target, AuxLaw(), delta1, delta2)

    def test_matched_diagonal_aux_equals_reference(self, rng):
        target = default_hilbert_target(3)
        lam = target.reference.eigenvalues
        diag = AuxLaw(variances=lambda q: lam)
        k_diag = inf_hmc(target, diag, delta1=0.2, delta2=0.4, n=2)
        k_ref = inf_hmc(target, AuxLaw(), delta1=0.2, delta2=0.4, n=2)
        for _ in range(30):
            z = ExtendedPoint(target.reference.sample(rng), target.reference.sample(rng))
            assert k_diag.involution.log_rn(z) == pytest.approx(
                k_ref.involution.log_rn(z), abs=1e-12
            )

    def test_diagonal_aux_sampling_and_density(self, rng):
        target = default_hilbert_target(3)
        lam = target.reference.eigenvalues
        aux = AuxLaw(variances=lambda q: lam * (1.0 + 0.5 * np.tanh(q) ** 2))
        value, se = validate_aux_normalization(
            target, aux, target.reference.sample(rng), rng, n_draws=20_000
        )
        assert abs(value - 1.0) <= 3 * se


class TestGenLangevin:
    def test_exact_force_matches_inf_mala(self, rng):
        base = default_hilbert_target(4)
        target = HilbertTarget(
            phi=base.phi, reference=base.reference, surrogate_f=base.force()
        )
        delta = 0.6
        k_gen = gen_langevin(target, delta)
        k_mala = inf_mala(base, delta)
        for _ in range(50):
            z = ExtendedPoint(base.reference.sample(rng), base.reference.sample(rng))
            a, la = k_gen.involution.step(z)
            b, lb = k_mala.involution.step(z)
            assert point_norm(a, b) <= 1e-13
            assert la == pytest.approx(lb, abs=1e-12)

    def test_zero_force_matches_pcn(self, rng):
        base = default_hilbert_target(4)
        target = HilbertTarget(
            phi=base.phi, reference=base.reference, surrogate_f=lambda q: np.zeros_like(q)
        )
        delta = 0.8
        k_gen = gen_langevin(target, delta)
        k_pcn = pcn(base, delta=delta)
        for _ in range(50):
            z = ExtendedPoint(base.reference.sample(rng), base.reference.sample(rng))
            a, la = k_gen.involution.step(z)
            b, lb = k_pcn.involution.step(z)
            assert point_norm(a, b) <= 1e-12
            assert la == pytest.approx(lb, abs=1e-10)

    def test_biased_force_two_argument_agreement(self, rng):
        base = default_hilbert_target(3)
        grad = base.phi.grad
        ref = base.reference
        target = HilbertTarget(
            phi=base.phi,
            reference=ref,
            surrogate_f=lambda q: ref.frac_power(1.0, 0.5 * grad(q)),
        )
        delta = 0.4
        kernel = gen_langevin(target, delta)
        for _ in range(50):
            z = ExtendedPoint(ref.sample(rng), ref.sample(rng))
            image, log_rn = kernel.involution.step(z)
            two_arg = langevin_log_accept_ratio(target, delta, z.q, image.q)
            assert two_arg == pytest.approx(log_rn, abs=1e-10)


class TestHilbertDetailedBalance:
    def test_all_constructors_pass_on_quartic_target(self):
        # Module invariant: every Hilbert-space constructor holds detailed
        # balance on the d=4 quartic-bounded target at stationarity.
        from invmh.diagnostics import detailed_balance_test, transition_pairs

        base = default_hilbert_target(4)
        biased = HilbertTarget(
            phi=base.phi,
            reference=base.reference,
            surrogate_f=lambda q: base.reference.frac_power(1.0, 0.6 * base.phi.grad(q)),
        )
        kernels = {
            "pcn": pcn(base, delta=1.0),
            "inf_mala": inf_mala(base, delta=0.8),
            "inf_hmc": inf_hmc(base, AuxLaw(), delta1=0.25, delta2=0.5, n=2),
            "gen_langevin": gen_langevin(biased, delta=0.8),
        }
        for i, (name, kernel) in enumerate(kernels.items()):
            chain = run_chain(kernel, np.zeros(4), 30_000, np.random.default_rng(900 + i))
            kept = chain.positions[3000:, 0]
            rng = np.random.default_rng(950 + i)
            p = detailed_balance_test(transition_pairs(kept), rng, max_pairs=1200)
            assert p > 0.01, f"{name}: p={p}"


class TestRefinementProbe:
    def test_growth_under_trace_class_decay(self):
        report = leapfrog_refinement_probe(
            default_hilbert_target, 0.4, [8, 64], n_draws=60, rng=np.random.default_rng(0)
        )
        assert report.naive_shift_sq_norm[1] > report.naive_shift_sq_norm[0]

    def test_constant_eigenvalues_scale_linearly(self):
        def make(d):
            return HilbertTarget(
                phi=flat_phi(),
                reference=SpectralGaussian(np.ones(d)),
                surrogate_f=lambda q: np.zeros_like(q),
            )

        report = leapfrog_refinement_probe(
            make, 0.4, [10, 40], n_draws=400, rng=np.random.default_rng(1)
        )
        # |C^{-1/2} q|^2 ~ chi^2_d: medians scale like d up to sampling noise.
        ratio = report.naive_shift_sq_norm[1] / report.naive_shift_sq_norm[0]
        assert 3.0 <= ratio <= 5.0

    def test_zero_force_at_origin_zero_statistic(self):
        target = zero_force_target(4)
        assert target.reference.cm_sq_norm(np.zeros(4) + target.force()(np.zeros(4))) == 0.0
