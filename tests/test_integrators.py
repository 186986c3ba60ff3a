import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from invmh import (
    ConfigurationError,
    ExtendedPoint,
    FixedPointError,
    check_reversibility,
    drift,
    euler_a_step,
    euler_b_step,
    fixed_point_solve,
    kick,
    leapfrog,
    momentum_flip,
    numerical_logdet_jacobian,
    palindromic_compose,
    rotation,
    stormer_verlet,
    strang_hilbert,
)
from invmh.integrators import REVERSE_TOL, DivergenceError

from conftest import point_norm


def random_points(rng, dim, count, scale=1.0):
    return [
        ExtendedPoint(scale * rng.standard_normal(dim), scale * rng.standard_normal(dim))
        for _ in range(count)
    ]


class TestElementaryFlows:
    def test_kick_example(self):
        z = ExtendedPoint(np.array([1.0]), np.array([0.0]))
        out = kick(0.1, lambda q: -q, z)
        assert out.q[0] == 1.0
        assert out.v[0] == pytest.approx(-0.1)

    def test_drift_leaves_velocity(self):
        z = ExtendedPoint(np.array([1.0]), np.array([2.0]))
        out = drift(0.3, lambda v: v, z)
        assert out.v[0] == 2.0
        assert out.q[0] == pytest.approx(1.6)

    def test_kick_inverts_by_negation(self, rng):
        f2 = lambda q: np.sin(q)
        z = ExtendedPoint(rng.standard_normal(3), rng.standard_normal(3))
        back = kick(-0.2, f2, kick(0.2, f2, z))
        assert point_norm(back, z) == 0.0

    def test_rotation_quarter_turn(self):
        z = ExtendedPoint(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        out = rotation(math.pi / 2.0, z)
        np.testing.assert_allclose(out.q, z.v, atol=1e-15)
        np.testing.assert_allclose(out.v, -z.q, atol=1e-15)

    def test_rotation_zero_identity(self, rng):
        z = ExtendedPoint(rng.standard_normal(2), rng.standard_normal(2))
        assert point_norm(rotation(0.0, z), z) == 0.0

    def test_rotation_preserves_norm(self, rng):
        z = ExtendedPoint(rng.standard_normal(4), rng.standard_normal(4))
        out = rotation(0.37, z)
        before = np.sum(z.q**2) + np.sum(z.v**2)
        after = np.sum(out.q**2) + np.sum(out.v**2)
        assert after == pytest.approx(before, rel=1e-14)

    def test_rotation_additivity(self, rng):
        z = ExtendedPoint(rng.standard_normal(3), rng.standard_normal(3))
        a = rotation(0.2, rotation(0.5, z))
        b = rotation(0.7, z)
        assert point_norm(a, b) <= 1e-12

    def test_precond_kick_zero_force(self, rng):
        z = ExtendedPoint(rng.standard_normal(2), rng.standard_normal(2))
        out = kick(-0.4, lambda q: np.zeros_like(q), z)
        assert point_norm(out, z) == 0.0


class TestLeapfrog:
    def test_hand_composed_example(self):
        # f1(v)=v, f2(q)=-q, delta1=0.5, delta2=1, n=1, z=(1, 0):
        # kick -> v=-0.5; drift -> q=0.5; kick -> v=-0.75.
        z = ExtendedPoint(np.array([1.0]), np.array([0.0]))
        out = leapfrog(1, 0.5, 1.0, lambda v: v, lambda q: -q, z)
        assert out.q[0] == pytest.approx(0.5)
        assert out.v[0] == pytest.approx(-0.75)

    def test_zero_drift_stacks_kicks(self, rng):
        f2 = lambda q: np.cos(q)
        z = ExtendedPoint(rng.standard_normal(2), rng.standard_normal(2))
        out = leapfrog(1, 0.3, 0.0, lambda v: v, f2, z)
        expected = z.v + 2 * 0.3 * f2(z.q)
        np.testing.assert_allclose(out.v, expected, atol=1e-15)
        np.testing.assert_allclose(out.q, z.q, atol=1e-15)

    def test_momentum_flip_reversible_with_odd_f1(self, rng):
        f1 = lambda v: v**3 + v
        f2 = lambda q: -np.sin(q)
        step = lambda z: leapfrog(3, 0.1, 0.2, f1, f2, z)
        report = check_reversibility(
            step, momentum_flip, random_points(rng, 2, 100), tol=1e-10
        )
        assert report.passed

    def test_symmetric_scheme_inverts_by_negation(self, rng):
        f1 = lambda v: v
        f2 = lambda q: -(q**3)
        z = ExtendedPoint(rng.standard_normal(2), rng.standard_normal(2))
        fwd = leapfrog(2, 0.1, 0.2, f1, f2, z)
        back = leapfrog(2, -0.1, -0.2, f1, f2, fwd)
        assert point_norm(back, z) <= 1e-9

    def test_divergence_raises(self):
        f2 = lambda q: q * 1e200
        z = ExtendedPoint(np.array([1e200]), np.array([0.0]))
        with np.errstate(over="ignore"), pytest.raises(DivergenceError):
            leapfrog(3, 1.0, 1.0, lambda v: v * 1e200, f2, z)

    def test_energy_error_bounded_over_long_run(self):
        # Harmonic oscillator at fixed stable step: the energy error stays
        # within 10x the one-step error over 1e4 steps.
        f1 = lambda v: v
        f2 = lambda q: -q
        energy = lambda z: 0.5 * float(z.q @ z.q + z.v @ z.v)
        z = ExtendedPoint(np.array([1.0]), np.array([0.0]))
        e0 = energy(z)
        one = leapfrog(1, 0.25, 0.5, f1, f2, z)
        one_step_error = abs(energy(one) - e0)
        drift_max = 0.0
        current = z
        for _ in range(10_000):
            current = leapfrog(1, 0.25, 0.5, f1, f2, current)
            drift_max = max(drift_max, abs(energy(current) - e0))
        assert drift_max <= 10.0 * one_step_error


class TestStrangHilbert:
    def test_zero_force_is_rotation(self, rng):
        z = ExtendedPoint(rng.standard_normal(3), rng.standard_normal(3))
        out, _ = strang_hilbert(1, 0.2, math.pi / 2, lambda q: np.zeros_like(q), z)
        assert point_norm(out, rotation(math.pi / 2, z)) <= 1e-15

    def test_trajectory_length(self, rng):
        z = ExtendedPoint(rng.standard_normal(2), rng.standard_normal(2))
        _, traj = strang_hilbert(4, 0.1, 0.3, lambda q: q, z)
        assert len(traj) == 5
        assert point_norm(traj[0], z) == 0.0

    def test_one_step_plus_flip_is_involution(self, rng):
        # The pCN / preconditioned-MALA involution: one Strang step composed
        # with the momentum flip squares to the identity.
        f = lambda q: 0.3 * np.tanh(q)
        rho = 0.6

        def s(z):
            out, _ = strang_hilbert(1, 0.25, math.acos(rho), f, z)
            return momentum_flip(out)

        for z in random_points(rng, 3, 50):
            assert point_norm(s(s(z)), z) <= 1e-12

    def test_flip_reversible(self, rng):
        f = lambda q: q**2
        step = lambda z: strang_hilbert(2, 0.1, 0.4, f, z)[0]
        report = check_reversibility(
            step, momentum_flip, random_points(rng, 2, 100), tol=1e-10
        )
        assert report.passed


def reference_kick_flow_kick(n, delta1, flow, force, z, trajectory=None):
    """The plain kick-flow-kick loop, the reference for the library's: every
    step allocates its results and checks them for finiteness."""
    f = np.asarray(z.cached(force), dtype=float)
    q, v = z.q, z.v
    for _ in range(n):
        q, v = flow(q, v + delta1 * f)
        f = np.asarray(force(q), dtype=float)
        v = v + delta1 * f
        if not (np.isfinite(q).all() and np.isfinite(v).all()):
            raise DivergenceError("non-finite state encountered during integration")
        if trajectory is not None:
            trajectory.append(ExtendedPoint(q, v, {force: f}))
    return ExtendedPoint(q, v, {force: f}) if trajectory is None else trajectory[-1]


def reference_leapfrog(n, delta1, delta2, f1, f2, z):
    drift_flow = lambda q, v: (q + delta2 * np.asarray(f1(v), dtype=float), v)
    return reference_kick_flow_kick(n, delta1, drift_flow, f2, z)


def reference_strang(n, delta1, delta2, f, z):
    """The Strang loop's reference: every step makes the library's matrix
    product on a freshly stacked ``(q, v, kick)`` array, allocates its
    results and checks them for finiteness."""
    c, s = math.cos(delta2), math.sin(delta2)
    product = np.array([[c, s, -s], [-s, c, -c]])
    fq = np.asarray(z.cached(f), dtype=float)
    q, v = z.q, z.v
    trajectory = [z]
    for _ in range(n):
        q, v = product @ np.array([q, v, delta1 * fq])
        fq = np.asarray(f(q), dtype=float)
        v = v - delta1 * fq
        if not (np.isfinite(q).all() and np.isfinite(v).all()):
            raise DivergenceError("non-finite state encountered during integration")
        trajectory.append(ExtendedPoint(q, v, {f: fq}))
    return trajectory[-1], trajectory


def outcome(integrate):
    """``integrate()``, or None when it raises DivergenceError."""
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return integrate()
        except DivergenceError:
            return None


def same_bytes(a: ExtendedPoint, b: ExtendedPoint) -> bool:
    return a.q.tobytes() == b.q.tobytes() and a.v.tobytes() == b.v.tobytes()


class TestKickFlowKickLoop:
    # The in-place loops with one finiteness check per trajectory against
    # allocating loops that check every step.
    @staticmethod
    def force(q):
        return -np.tanh(q) - 0.3 * q - 1e-3 * q**3

    @staticmethod
    def f1(v):
        return v + 0.1 * v**3

    @settings(max_examples=80, deadline=None)
    @given(
        d=st.integers(1, 64),
        n=st.integers(1, 8),
        delta1=st.floats(-1.5, 1.5),
        delta2=st.floats(-3.5, 3.5),
        log_scale=st.floats(-1.0, 120.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_per_step_checked_loop(self, d, n, delta1, delta2, log_scale, seed):
        # Large scales overflow the cubic fields: both loops must then raise.
        rng = np.random.default_rng(seed)
        scale = 10.0**log_scale
        z = ExtendedPoint(scale * rng.standard_normal(d), scale * rng.standard_normal(d))
        force, f1 = self.force, self.f1

        got = outcome(lambda: leapfrog(n, delta1, delta2, f1, force, z))
        want = outcome(lambda: reference_leapfrog(n, delta1, delta2, f1, force, z))
        assert (got is None) == (want is None)
        if want is not None:
            assert same_bytes(got, want)
            assert got.memo[force].tobytes() == want.memo[force].tobytes()

        got = outcome(lambda: strang_hilbert(n, delta1, delta2, force, z))
        want = outcome(lambda: reference_strang(n, delta1, delta2, force, z))
        assert (got is None) == (want is None)
        if want is not None:
            assert same_bytes(got[0], want[0])
            assert len(got[1]) == len(want[1]) == n + 1
            for a, b in zip(got[1][1:], want[1][1:]):
                assert same_bytes(a, b)
                assert a.memo[force].tobytes() == b.memo[force].tobytes()
            # The streamed mode returns the flipped endpoint, negated exactly.
            image, _ = strang_hilbert(n, delta1, delta2, force, z, lambda q, v, f, kick: None)
            assert same_bytes(image, momentum_flip(want[0]))

    def test_endpoint_memo_carries_the_closing_kick(self, rng):
        # A chain's next trajectory starts at the endpoint's position with a
        # new velocity: it reads the kick for its own delta1 from the memo
        # and forms any other from the memo's force, bit for bit as a start
        # without a memo.
        force, f1 = self.force, self.f1
        end = leapfrog(2, 0.2, 0.3, f1, force, ExtendedPoint(*rng.standard_normal((2, 5))))
        assert end.memo[(force, 0.2)].tobytes() == (0.2 * end.memo[force]).tobytes()
        v = rng.standard_normal(5)
        for delta1 in (0.2, -0.2, 0.1):
            got = leapfrog(3, delta1, 0.3, f1, force, ExtendedPoint(end.q, v, end.memo))
            want = reference_leapfrog(3, delta1, 0.3, f1, force, ExtendedPoint(end.q, v))
            assert same_bytes(got, want)
            assert got.memo[(force, delta1)].tobytes() == (delta1 * got.memo[force]).tobytes()

    @pytest.mark.parametrize("integrator", ["leapfrog", "strang_hilbert"])
    def test_infinite_force_at_a_middle_step_raises(self, integrator):
        # The force is infinite at z_2 only; with finite forces afterwards
        # the velocity stays infinite to the end, where the one check sits.
        calls = []

        def force(q):
            calls.append(None)
            out = np.zeros(q.shape)
            if len(calls) == 3:  # z_0 (the memo read), z_1, z_2
                out[1] = np.inf
            return out

        z = ExtendedPoint(np.array([0.5, -1.0, 2.0]), np.array([1.0, 0.0, -0.5]))
        run = {
            "leapfrog": lambda: leapfrog(5, 0.1, 0.2, np.tanh, force, z),
            "strang_hilbert": lambda: strang_hilbert(5, 0.1, 0.2, force, z),
        }[integrator]
        with np.errstate(invalid="ignore"), pytest.raises(DivergenceError):
            run()
        assert len(calls) == 6

    def test_inputs_unmodified_and_points_own_their_arrays(self, rng):
        q0, v0 = rng.standard_normal(6), rng.standard_normal(6)
        z = ExtendedPoint(q0.copy(), v0.copy())
        force = self.force
        end, trajectory = strang_hilbert(4, 0.2, 0.5, force, z)
        assert end is trajectory[-1]
        leap = leapfrog(3, 0.2, 0.3, lambda v: v, force, z)
        assert z.q.tobytes() == q0.tobytes() and z.v.tobytes() == v0.tobytes()
        arrays = [leap.q, leap.v, leap.memo[force], z.q, z.v]
        for point in trajectory[1:]:
            arrays += [point.q, point.v, point.memo[force]]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1 :]:
                assert not np.shares_memory(a, b)


class TestImplicitSteps:
    def test_euler_b_explicit_case(self):
        # f1 = f1(v), f2 = f2(q0): v = -0.1 then q = 1 + 0.1 v = 0.99.
        f1 = lambda z: z.v
        f2 = lambda z: -z.q
        z = ExtendedPoint(np.array([1.0]), np.array([0.0]))
        out = euler_b_step(0.1, f1, f2, z)
        assert out.v[0] == pytest.approx(-0.1, abs=1e-12)
        assert out.q[0] == pytest.approx(0.99, abs=1e-12)

    def test_zero_step_identity(self, rng):
        f1 = lambda z: z.v + z.q
        f2 = lambda z: -z.q + z.v
        z = ExtendedPoint(rng.standard_normal(2), rng.standard_normal(2))
        assert point_norm(euler_b_step(0.0, f1, f2, z), z) == 0.0
        assert point_norm(euler_a_step(0.0, f1, f2, z), z) == 0.0

    def test_euler_a_is_adjoint_of_euler_b(self, rng):
        f1 = lambda z: z.v / (1.0 + z.q**2)
        f2 = lambda z: -z.q - 0.2 * z.v**2 * z.q
        delta = 0.05
        for z in random_points(rng, 2, 30, scale=0.7):
            forward = euler_a_step(delta, f1, f2, z)
            back = euler_b_step(-delta, f1, f2, forward)
            assert point_norm(back, z) <= 1e-9

    def test_nonconvergence_raises_with_residual(self):
        # Euler-A is implicit in q; a field with |delta * df1/dq| > 1 makes
        # the fixed-point map expansive without overflowing.
        f1 = lambda z: -1.05 * z.q
        f2 = lambda z: np.zeros_like(z.q)
        z = ExtendedPoint(np.array([1.0]), np.array([1.0]))
        with pytest.raises(FixedPointError) as info:
            euler_a_step(1.0, f1, f2, z)
        assert info.value.residual > 0


class TestFixedPointSolve:
    ROOT = 0.7390851332151607  # x = cos(x)

    def _counted(self, fn):
        calls = []

        def counted(x):
            calls.append(x)
            return fn(x)

        return counted, calls

    def test_newton_and_plain_iteration_reach_the_root(self):
        plain, plain_calls = self._counted(np.cos)
        newton, newton_calls = self._counted(np.cos)
        x0 = np.array([0.7])
        a = fixed_point_solve(plain, x0)
        b = fixed_point_solve(newton, x0, lambda x: -np.sin(x))
        assert abs(a[0] - self.ROOT) <= 1e-12
        assert abs(b[0] - self.ROOT) <= 1e-12
        assert len(newton_calls) < len(plain_calls) / 4

    def test_start_that_does_not_contract_raises(self):
        # x = x^2 has the roots 0 (slope 0) and 1 (slope 2).  Newton from
        # 1.3 would converge to 1, which plain iteration can never reach.
        square = lambda x: x * x
        slope = lambda x: 2.0 * x
        assert fixed_point_solve(square, np.array([0.1]), slope)[0] == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(FixedPointError):
            fixed_point_solve(square, np.array([1.3]), slope)


class TestStormerVerlet:
    def test_reduces_to_leapfrog_for_separable_fields(self, rng):
        f1v = lambda v: np.tanh(v)
        f2q = lambda q: -(q**3)
        f1 = lambda z: f1v(z.v)
        f2 = lambda z: f2q(z.q)
        delta = 0.2
        for z in random_points(rng, 2, 20, scale=0.6):
            implicit = stormer_verlet(3, delta, f1, f2, z)
            explicit = leapfrog(3, delta / 2, delta, f1v, f2q, z)
            assert point_norm(implicit, explicit) <= 1e-12

    def test_zero_step_identity(self, rng):
        f1 = lambda z: z.v * z.q
        f2 = lambda z: -z.q
        z = ExtendedPoint(rng.standard_normal(2), rng.standard_normal(2))
        assert point_norm(stormer_verlet(2, 0.0, f1, f2, z), z) == 0.0

    def test_flip_reversible_with_parity_conditions(self, rng):
        # f1 odd in v, f2 even in v: the implicit scheme is momentum-flip
        # reversible.
        f1 = lambda z: z.v / (1.0 + z.q**2)
        f2 = lambda z: -z.q * (1.0 + 0.3 * z.v**2)
        step = lambda z: stormer_verlet(2, 0.1, f1, f2, z)
        report = check_reversibility(
            step, momentum_flip, random_points(rng, 2, 100, scale=0.7), tol=1e-8
        )
        assert report.passed

    def test_symmetric_scheme_inverts_by_negation(self, rng):
        f1 = lambda z: z.v / (1.0 + z.q**2)
        f2 = lambda z: -z.q - 0.2 * np.sin(z.v)
        for z in random_points(rng, 2, 20, scale=0.6):
            fwd = stormer_verlet(2, 0.15, f1, f2, z)
            back = stormer_verlet(2, -0.15, f1, f2, fwd)
            assert point_norm(back, z) <= 1e-9

    def test_points_at_one_position_share_its_memo(self, rng):
        # The fields read a position-only function through the memo: with
        # the reverse-step replay, every position of an n=2 trajectory is
        # met by several points (Euler-B's iterates, the replays' starts),
        # and the function runs once at each.
        calls = []

        def sine(q):
            calls.append(q.tobytes())
            return np.sin(q)

        f1 = lambda z: z.v / (1.0 + z.cached(sine) ** 2)
        f2 = lambda z: -z.q * (1.0 + 0.3 * z.v**2) - z.cached(sine)
        z = ExtendedPoint(0.7 * rng.standard_normal(2), 0.7 * rng.standard_normal(2), {})
        end = stormer_verlet(2, 0.1, f1, f2, z, reverse_tol=REVERSE_TOL)
        assert len(calls) == len(set(calls))
        np.testing.assert_array_equal(z.memo[sine], np.sin(z.q))
        np.testing.assert_array_equal(end.memo[sine], np.sin(end.q))


class TestPalindromicCompose:
    def test_single_stage_applied_twice(self, rng):
        stage = lambda t, z: kick(t, lambda q: -q, z)
        composed = palindromic_compose([(stage, 0.3)])
        z = ExtendedPoint(rng.standard_normal(2), rng.standard_normal(2))
        expected = kick(0.3, lambda q: -q, kick(0.3, lambda q: -q, z))
        assert point_norm(composed(z), expected) == 0.0

    def test_kick_drift_palindrome_is_leapfrog(self, rng):
        f1 = lambda v: v
        f2 = lambda q: -np.sin(q)
        kick_stage = lambda t, z: kick(t, f2, z)
        drift_stage = lambda t, z: drift(t, f1, z)
        composed = palindromic_compose([(kick_stage, 0.15), (drift_stage, 0.2)])
        for z in random_points(rng, 2, 20):
            expected = leapfrog(1, 0.15, 0.4, f1, f2, z)
            assert point_norm(composed(z), expected) <= 1e-14

    def test_preserves_reversibility(self, rng):
        f1 = lambda v: v**3
        f2 = lambda q: -q
        stages = [
            (lambda t, z: kick(t, f2, z), 0.1),
            (lambda t, z: drift(t, f1, z), 0.2),
            (lambda t, z: kick(t, f2, z), 0.05),
        ]
        composed = palindromic_compose(stages, n=2)
        report = check_reversibility(
            composed, momentum_flip, random_points(rng, 2, 100), tol=1e-8
        )
        assert report.passed


class TestMomentumFlip:
    def test_example(self):
        z = ExtendedPoint(np.array([1.0, 2.0]), np.array([3.0, 4.0]))
        out = momentum_flip(z)
        np.testing.assert_array_equal(out.q, [1.0, 2.0])
        np.testing.assert_array_equal(out.v, [-3.0, -4.0])

    def test_exact_involution(self, rng):
        z = ExtendedPoint(rng.standard_normal(5), rng.standard_normal(5))
        assert point_norm(momentum_flip(momentum_flip(z)), z) == 0.0


class TestNumericalLogdet:
    def test_identity(self, rng):
        z = ExtendedPoint(rng.standard_normal(2), rng.standard_normal(2))
        assert numerical_logdet_jacobian(lambda w: w, z) == pytest.approx(0.0, abs=1e-10)

    def test_unit_determinant_linear_map(self, rng):
        mapping = lambda z: ExtendedPoint(2.0 * z.q, 0.5 * z.v)
        z = ExtendedPoint(rng.standard_normal(1), rng.standard_normal(1))
        assert numerical_logdet_jacobian(mapping, z) == pytest.approx(0.0, abs=1e-9)

    def test_leapfrog_volume_preserving(self, rng):
        f1 = lambda v: np.tanh(v)
        f2 = lambda q: -(q**3)
        step = lambda z: leapfrog(2, 0.2, 0.3, f1, f2, z)
        for z in random_points(rng, 2, 20):
            assert abs(numerical_logdet_jacobian(step, z)) <= 1e-5

    def test_singular_map(self, rng):
        mapping = lambda z: ExtendedPoint(np.zeros_like(z.q), z.v)
        z = ExtendedPoint(rng.standard_normal(1), rng.standard_normal(1))
        assert numerical_logdet_jacobian(mapping, z) == -math.inf


class TestCheckReversibility:
    def test_identity_map_passes(self, rng):
        report = check_reversibility(
            lambda z: z, lambda z: z, random_points(rng, 2, 10), tol=1e-12
        )
        assert report.passed
        assert report.max_residual == 0.0

    def test_non_odd_drift_fails(self, rng):
        f1 = lambda v: v + 1.0
        f2 = lambda q: -q
        step = lambda z: leapfrog(1, 0.3, 0.5, f1, f2, z)
        report = check_reversibility(
            step, momentum_flip, random_points(rng, 1, 50), tol=1e-8
        )
        assert not report.passed
        assert report.max_residual > 1e-3


class TestStepCounts:
    # Each integrator with ``n`` steps of the unit harmonic flow from a
    # fixed point; the palindrome takes its count at construction.
    INTEGRATORS = {
        "leapfrog": lambda n, z: leapfrog(n, 0.1, 0.2, lambda v: v, lambda q: -q, z),
        "strang_hilbert": lambda n, z: strang_hilbert(n, 0.1, 0.2, lambda q: -q, z),
        "stormer_verlet": lambda n, z: stormer_verlet(
            n, 0.2, lambda z: z.v, lambda z: -z.q, z
        ),
        "palindromic_compose": lambda n, z: palindromic_compose(
            [(lambda t, w: rotation(t, w), 0.1)], n=n
        ),
    }

    @pytest.mark.parametrize(
        "n", [0, -1, 2.5, True, np.True_, "2"], ids=["0", "-1", "2.5", "True", "np.True_", "str"]
    )
    @pytest.mark.parametrize("name", list(INTEGRATORS))
    def test_bad_count_is_a_configuration_error(self, name, n):
        z = ExtendedPoint(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        with pytest.raises(ConfigurationError):
            self.INTEGRATORS[name](n, z)

    @pytest.mark.parametrize("name", list(INTEGRATORS))
    def test_numpy_integer_count_accepted(self, name):
        z = ExtendedPoint(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
        self.INTEGRATORS[name](np.int64(2), z)
