"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -s`` to see them live).

Tolerances are pinned here, not configurable.  Where a criterion involves
Monte Carlo, the seed is fixed so reruns are deterministic.
"""

import math
import time

import numpy as np
import pytest

from invmh import (
    AuxLaw,
    ExtendedPoint,
    HilbertTarget,
    HmcConfig,
    SpectralGaussian,
    TargetPotential,
    accept_prob,
    check_reversibility,
    diagonal_quadratic_metric,
    gaussian_momentum,
    gen_langevin,
    generic_log_rn,
    hilbert_log_rn,
    hmc,
    inf_hmc,
    inf_mala,
    kick,
    drift,
    langevin_log_accept_ratio,
    leapfrog,
    leapfrog_refinement_probe,
    mala,
    mala_log_accept_ratio,
    momentum_flip,
    numerical_logdet_jacobian,
    palindromic_compose,
    pcn,
    power_law_eigenvalues,
    relativistic_hmc,
    rho_from_delta,
    rmhmc,
    run_chain,
    rwmc,
    stormer_verlet,
    strang_hilbert,
    surrogate_hmc,
)
from invmh.diagnostics import detailed_balance_test, moment_check, transition_pairs
from invmh.finite_dim import relativistic_kinetic_grad
from invmh.hilbert import default_hilbert_target, quartic_bounded_phi
from invmh.targets import anisotropic_gaussian, standard_gaussian

from conftest import build_kernel_zoo, point_norm

EXPLICIT_TOL = 1e-8
IMPLICIT_TOL = 1e-10


def report(criterion: int, name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    line = f"[criterion {criterion:2d}] {name}: {status}" + (f"  ({detail})" if detail else "")
    print(line)
    import conftest

    conftest.ACCEPTANCE_LINES.append(line)
    assert passed, f"criterion {criterion} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def zoo():
    return build_kernel_zoo()


def test_criterion_01_involution_suite(zoo):
    started = time.time()
    rng = np.random.default_rng(101)
    worst = {}
    for entry in zoo:
        tol = IMPLICIT_TOL if entry.implicit else EXPLICIT_TOL
        residual = 0.0
        for _ in range(1000):
            z = entry.sample_z(rng)
            twice = entry.kernel.involution.apply(entry.kernel.involution.apply(z))
            residual = max(residual, point_norm(twice, z))
        worst[entry.name] = (residual, tol)
    elapsed = time.time() - started
    failures = {k: v for k, v in worst.items() if v[0] > v[1]}
    detail = f"max residuals: { {k: f'{v[0]:.1e}' for k, v in worst.items()} }, {elapsed:.1f}s"
    report(1, "involution S(S(z)) = z for all shipped kernels", not failures and elapsed < 30.0, detail)


def test_criterion_02_log_rn_skew_symmetry(zoo):
    rng = np.random.default_rng(202)
    worst = {}
    for entry in zoo:
        residual = 0.0
        log_rn = entry.kernel.involution.log_rn
        apply = entry.kernel.involution.apply
        for _ in range(1000):
            z = entry.sample_z(rng)
            forward = log_rn(z)
            backward = log_rn(apply(z))
            if math.isfinite(forward) and math.isfinite(backward):
                residual = max(residual, abs(forward + backward))
        worst[entry.name] = residual
    failures = {k: v for k, v in worst.items() if v > 1e-8}
    report(
        2,
        "skew-symmetry log_rn(z) + log_rn(S(z)) = 0",
        not failures,
        f"max |sum|: {max(worst.values()):.2e}",
    )


def test_criterion_03_oracle_equivalence(zoo):
    started = time.time()
    rng = np.random.default_rng(303)
    worst = {}

    by_name = {e.name: e for e in zoo}
    for name in ("mala", "hmc", "surrogate_hmc"):
        entry = by_name[name]
        residual = 0.0
        for _ in range(100):
            z = entry.sample_z(rng)
            closed = entry.kernel.involution.log_rn(z)
            oracle = generic_log_rn(entry.ext_log_density, entry.kernel.involution.apply, z)
            residual = max(residual, abs(closed - oracle))
        worst[name] = residual

    # RMHMC in one dimension against the Lebesgue oracle.
    target1 = standard_gaussian(1)
    k_rm = rmhmc(target1, diagonal_quadratic_metric(), delta=0.2, n=2, dim=1)

    def ext_rm(q, v):
        m = 1.0 + q[0] ** 2
        return -target1.eval(q) - 0.5 * v[0] ** 2 / m - 0.5 * math.log(m)

    residual = 0.0
    for _ in range(100):
        z = ExtendedPoint(0.7 * rng.standard_normal(1), 0.7 * rng.standard_normal(1))
        closed = k_rm.involution.log_rn(z)
        oracle = generic_log_rn(ext_rm, k_rm.involution.apply, z)
        residual = max(residual, abs(closed - oracle))
    worst["rmhmc_d1"] = residual

    # Closed-form Hilbert log-RN against the truncation oracle, reference
    # and diagonal auxiliary laws, d <= 4, n <= 4.
    for label, d, n, aux in (
        ("hilbert_reference", 4, 4, AuxLaw()),
        ("hilbert_diagonal", 3, 2, None),
    ):
        target = default_hilbert_target(d)
        ref = target.reference
        if aux is None:
            lam = ref.eigenvalues
            aux = AuxLaw(variances=lambda q, lam=lam: lam * (1.0 + 0.4 * np.tanh(q) ** 2))
        f = target.force()
        d1, d2 = 0.2, 0.45

        def apply_s(z):
            endpoint, _ = strang_hilbert(n, d1, d2, f, z)
            return momentum_flip(endpoint)

        def ext(q, v):
            return (
                -target.phi.eval(q)
                - aux.h_tilde(ref, ExtendedPoint(q, v))
                + ref.log_density_lebesgue(q)
                + ref.log_density_lebesgue(v)
            )

        residual = 0.0
        for _ in range(100):
            z = ExtendedPoint(ref.sample(rng), ref.sample(rng))
            closed = hilbert_log_rn(target, aux, d1, d2, n, z)
            oracle = generic_log_rn(ext, apply_s, z)
            residual = max(residual, abs(closed - oracle))
        worst[label] = residual

    elapsed = time.time() - started
    failures = {k: v for k, v in worst.items() if v > 1e-5}
    report(
        3,
        "closed-form log_rn matches brute-force oracle",
        not failures and elapsed < 60.0,
        f"max |diff|: { {k: f'{v:.1e}' for k, v in worst.items()} }, {elapsed:.1f}s",
    )


def test_criterion_04_volume_preservation():
    rng = np.random.default_rng(404)
    phi3 = quartic_bounded_phi(3)
    leap = lambda z: leapfrog(2, 0.15, 0.3, lambda v: np.tanh(v), lambda q: -phi3.grad(q), z)
    worst_leap = 0.0
    for _ in range(100):
        z = ExtendedPoint(rng.standard_normal(3), rng.standard_normal(3))
        worst_leap = max(worst_leap, abs(numerical_logdet_jacobian(leap, z)))

    metric = diagonal_quadratic_metric()
    target2 = standard_gaussian(2)
    f1 = lambda z: z.v / (1.0 + z.q**2)
    f2 = lambda z: -(target2.grad(z.q) + metric.grad_quad_form(z.q, z.v) + metric.grad_half_logdet(z.q))
    sv = lambda z: stormer_verlet(2, 0.15, f1, f2, z)
    worst_sv = 0.0
    for _ in range(100):
        z = ExtendedPoint(0.7 * rng.standard_normal(2), 0.7 * rng.standard_normal(2))
        worst_sv = max(worst_sv, abs(numerical_logdet_jacobian(sv, z)))

    report(
        4,
        "leapfrog and Stormer-Verlet have unit Jacobian",
        worst_leap <= 1e-5 and worst_sv <= 1e-5,
        f"leapfrog {worst_leap:.1e}, stormer_verlet {worst_sv:.1e}",
    )


def test_criterion_05_reversibility():
    rng = np.random.default_rng(505)
    points2 = [ExtendedPoint(0.8 * rng.standard_normal(2), 0.8 * rng.standard_normal(2)) for _ in range(100)]
    phi2 = quartic_bounded_phi(2)
    results = {}

    mass = np.array([1.4, 0.6])
    leap_mass = lambda z: leapfrog(3, 0.1, 0.2, lambda v: v / mass, lambda q: -phi2.grad(q), z)
    results["leapfrog_quadratic"] = check_reversibility(leap_mass, momentum_flip, points2, 1e-8)

    leap_rel = lambda z: leapfrog(
        2, 0.1, 0.2, lambda v: relativistic_kinetic_grad(1.1, 1.7, v), lambda q: -phi2.grad(q), z
    )
    results["leapfrog_relativistic"] = check_reversibility(leap_rel, momentum_flip, points2, 1e-8)

    metric = diagonal_quadratic_metric()
    target2 = standard_gaussian(2)
    f1 = lambda z: z.v / (1.0 + z.q**2)
    f2 = lambda z: -(target2.grad(z.q) + metric.grad_quad_form(z.q, z.v) + metric.grad_half_logdet(z.q))
    sv = lambda z: stormer_verlet(2, 0.12, f1, f2, z)
    results["stormer_verlet"] = check_reversibility(sv, momentum_flip, points2, 1e-8)

    strang = lambda z: strang_hilbert(2, 0.2, 0.5, lambda q: 0.4 * np.tanh(q), z)[0]
    results["strang"] = check_reversibility(strang, momentum_flip, points2, 1e-8)

    f2k = lambda q: -phi2.grad(q)
    palindrome = palindromic_compose(
        [(lambda t, z: kick(t, f2k, z), 0.1), (lambda t, z: drift(t, lambda v: v, z), 0.15)],
        n=2,
    )
    results["palindrome"] = check_reversibility(palindrome, momentum_flip, points2, 1e-8)

    # Constructed failure: f1 not odd.
    bad = lambda z: leapfrog(1, 0.3, 0.5, lambda v: v + 1.0, lambda q: -q, z)
    bad_report = check_reversibility(bad, momentum_flip, points2, 1e-8)

    ok = all(r.passed for r in results.values()) and bad_report.max_residual > 1e-3
    detail = ", ".join(f"{k}={r.max_residual:.1e}" for k, r in results.items())
    report(5, "R-reversibility of integrators (and failure of non-odd f1)", ok,
           detail + f", non-odd residual {bad_report.max_residual:.1e}")


def test_criterion_06_tierney_equivalence():
    rng = np.random.default_rng(606)
    worst = {}

    target3 = anisotropic_gaussian([1.0, 0.5, 2.0])
    delta = 0.5
    k_mala = mala(target3, delta=delta, dim=3)
    residual = 0.0
    for _ in range(100):
        z = ExtendedPoint(rng.standard_normal(3), rng.standard_normal(3))
        image, log_rn = k_mala.involution.step(z)
        two_arg = mala_log_accept_ratio(target3, delta, z.q, image.q)
        residual = max(residual, abs(accept_prob(two_arg) - accept_prob(log_rn)))
    worst["mala"] = residual

    h6 = default_hilbert_target(6)
    k_pcn = pcn(h6, delta=1.0)
    residual = 0.0
    for _ in range(100):
        z = ExtendedPoint(h6.reference.sample(rng), h6.reference.sample(rng))
        image, log_rn = k_pcn.involution.step(z)
        two_arg = h6.phi.eval(z.q) - h6.phi.eval(image.q)
        residual = max(residual, abs(accept_prob(two_arg) - accept_prob(log_rn)))
    worst["pcn"] = residual

    h4 = default_hilbert_target(4)
    k_im = inf_mala(h4, delta=0.6)
    residual = 0.0
    for _ in range(100):
        z = ExtendedPoint(h4.reference.sample(rng), h4.reference.sample(rng))
        image, log_rn = k_im.involution.step(z)
        two_arg = langevin_log_accept_ratio(h4, 0.6, z.q, image.q)
        residual = max(residual, abs(accept_prob(two_arg) - accept_prob(log_rn)))
    worst["inf_mala"] = residual

    failures = {k: v for k, v in worst.items() if v > 1e-10}
    report(
        6,
        "two-argument (Hastings-form) alpha equals extended-space alpha",
        not failures,
        f"max |alpha diff|: { {k: f'{v:.1e}' for k, v in worst.items()} }",
    )


def test_criterion_07_reductions():
    rng = np.random.default_rng(707)
    worst = {}

    # surrogate dynamics with the kick disabled and identity drift == RWMC.
    target2 = anisotropic_gaussian([1.0, 0.5])
    k_surr = surrogate_hmc(
        target2,
        gaussian_momentum(2),
        HmcConfig(delta=1.0, n=1, delta1=0.0, delta2=1.0),
        f1=lambda v: v,
        f2=lambda q: np.zeros_like(q),
        dim=2,
    )
    k_walk = rwmc(target2, dim=2, scale=1.0)
    residual = 0.0
    for _ in range(100):
        z = ExtendedPoint(rng.standard_normal(2), rng.standard_normal(2))
        _, la = k_surr.involution.step(z)
        _, lb = k_walk.involution.step(z)
        residual = max(residual, abs(accept_prob(la) - accept_prob(lb)))
    worst["surrogate->rwmc"] = residual

    # Single-leapfrog-step unit-mass HMC == MALA.
    k_h = hmc(target2, HmcConfig(delta=0.35, n=1), dim=2)
    k_m = mala(target2, delta=0.35, dim=2)
    residual = 0.0
    for _ in range(100):
        z = ExtendedPoint(rng.standard_normal(2), rng.standard_normal(2))
        _, la = k_h.involution.step(z)
        _, lb = k_m.involution.step(z)
        residual = max(residual, abs(accept_prob(la) - accept_prob(lb)))
    worst["hmc(n=1)->mala"] = residual

    # One matched Strang step of preconditioned HMC == preconditioned MALA.
    h4 = default_hilbert_target(4)
    delta = 0.5
    rho = rho_from_delta(delta)
    k_ih = inf_hmc(h4, AuxLaw(), delta1=math.sqrt(delta) / 2.0, delta2=math.acos(rho), n=1)
    k_im = inf_mala(h4, delta)
    residual = 0.0
    for _ in range(100):
        z = ExtendedPoint(h4.reference.sample(rng), h4.reference.sample(rng))
        _, la = k_ih.involution.step(z)
        _, lb = k_im.involution.step(z)
        residual = max(residual, abs(accept_prob(la) - accept_prob(lb)))
    worst["inf_hmc(n=1)->inf_mala"] = residual

    # Zero surrogate force == pCN.
    zero_force = HilbertTarget(
        phi=h4.phi, reference=h4.reference, surrogate_f=lambda q: np.zeros_like(q)
    )
    k_gl = gen_langevin(zero_force, delta=0.8)
    k_p = pcn(h4, delta=0.8)
    residual = 0.0
    for _ in range(100):
        z = ExtendedPoint(h4.reference.sample(rng), h4.reference.sample(rng))
        _, la = k_gl.involution.step(z)
        _, lb = k_p.involution.step(z)
        residual = max(residual, abs(accept_prob(la) - accept_prob(lb)))
    worst["gen_langevin(f=0)->pcn"] = residual

    failures = {k: v for k, v in worst.items() if v > 1e-10}
    report(
        7,
        "parameter reductions collapse to the classical kernels",
        not failures,
        f"max |alpha diff|: { {k: f'{v:.1e}' for k, v in worst.items()} }",
    )


def test_criterion_08_flat_potential_exactness():
    started = time.time()
    d = 10
    reference = SpectralGaussian(power_law_eigenvalues(d))
    flat = TargetPotential(eval=lambda q: 0.0, grad=lambda q: np.zeros_like(q))
    target = HilbertTarget(phi=flat, reference=reference, surrogate_f=lambda q: np.zeros_like(q))

    k_pcn = pcn(target, delta=1.0)
    k_ih = inf_hmc(target, AuxLaw(), delta1=0.3, delta2=0.9, n=2)

    rng = np.random.default_rng(808)
    short_pcn = run_chain(k_pcn, np.zeros(d), 10_000, rng)
    short_ih = run_chain(k_ih, np.zeros(d), 10_000, rng)
    all_unit = bool(np.all(short_pcn.alphas >= 1.0 - 1e-12) and np.all(short_ih.alphas >= 1.0 - 1e-12))

    ok_var = True
    details = []
    for name, kernel in (("pcn", k_pcn), ("inf_hmc", k_ih)):
        chain = run_chain(kernel, np.zeros(d), 100_000, np.random.default_rng(809))
        kept = chain.positions[10_000:]
        checked = moment_check(kept, np.zeros(d), reference.eigenvalues, batch_count=20)
        ok_var &= bool(np.all(np.abs(checked.var_z) <= 3.0))
        details.append(f"{name} max|var z|={np.max(np.abs(checked.var_z)):.2f}")
    elapsed = time.time() - started
    report(
        8,
        "flat potential: unit acceptance and reference moments",
        all_unit and ok_var and elapsed < 60.0,
        ", ".join(details) + f", {elapsed:.1f}s",
    )


def _statistical_run(kernel, n_steps, seed, burn_in=5000):
    chain = run_chain(kernel, np.zeros(kernel.dim), n_steps, np.random.default_rng(seed))
    kept = chain.positions[burn_in:]
    return chain, kept


def test_criterion_09_statistical_correctness():
    started = time.time()
    variances = np.array([1.0, 0.25])
    target = anisotropic_gaussian(variances)
    samplers = {
        "rwmc": rwmc(target, dim=2, scale=0.8),
        "mala": mala(target, delta=0.6, dim=2),
        "hmc": hmc(target, HmcConfig(delta=0.5, n=2), dim=2),
        "relativistic_hmc": relativistic_hmc(target, m=1.0, c=3.0, cfg=HmcConfig(delta=0.5, n=2), dim=2),
        "rmhmc": rmhmc(target, diagonal_quadratic_metric(), delta=0.3, n=1, dim=2),
    }
    ok = True
    details = []
    for i, (name, kernel) in enumerate(samplers.items()):
        chain, kept = _statistical_run(kernel, 200_000, seed=900 + i)
        checked = moment_check(kept, np.zeros(2), variances, batch_count=20)
        var_ok = bool(np.all(np.abs(checked.var_z) <= 3.0))
        rng = np.random.default_rng(950 + i)
        p = detailed_balance_test(transition_pairs(kept[:, 0]), rng, max_pairs=1500)
        db_ok = p > 0.01
        ok &= var_ok and db_ok
        details.append(
            f"{name}: acc={chain.acceptance_rate:.2f} max|var z|={np.max(np.abs(checked.var_z)):.2f} p={p:.3f}"
        )
    elapsed = time.time() - started
    report(
        9,
        "moments and detailed balance for every finite-dimensional sampler",
        ok and elapsed < 120.0,
        "; ".join(details) + f", {elapsed:.0f}s of 120s",
    )


def test_criterion_10_surrogate_bias_correction():
    variances = np.array([1.0, 0.25])
    target = anisotropic_gaussian(variances)
    grad = target.grad
    kernel = surrogate_hmc(
        target,
        gaussian_momentum(2),
        HmcConfig(delta=0.5, n=2),
        f1=lambda v: v,
        f2=lambda q: -1.5 * grad(q),
        dim=2,
    )
    chain, kept = _statistical_run(kernel, 200_000, seed=1010)
    checked = moment_check(kept, np.zeros(2), variances, batch_count=20)
    ok = bool(np.all(np.abs(checked.var_z) <= 3.0))
    report(
        10,
        "accept-reject corrects a wrong surrogate force (1.5x gradient)",
        ok,
        f"acc={chain.acceptance_rate:.2f}, max|var z|={np.max(np.abs(checked.var_z)):.2f}",
    )


def test_criterion_11_refinement_probe():
    probe = leapfrog_refinement_probe(
        default_hilbert_target,
        delta=0.4,
        d_sequence=[8, 16, 32, 64],
        n_draws=100,
        rng=np.random.default_rng(1111),
    )
    naive = probe.naive_shift_sq_norm
    strang = probe.strang_abs_log_rn
    monotone = all(b > a for a, b in zip(naive, naive[1:]))
    bounded = strang[-1] / strang[0] < 2.0
    report(
        11,
        "naive splitting diverges under refinement, Strang stays bounded",
        monotone and bounded,
        f"naive medians {[f'{x:.1f}' for x in naive]}, strang ratio {strang[-1] / strang[0]:.2f}",
    )


def test_criterion_12_degenerate_input_hardening():
    checks = {}

    # Hard constraint: zero density beyond the wall.
    d = 3
    reference = SpectralGaussian(np.ones(d))
    quartic = quartic_bounded_phi(d)
    wall = TargetPotential(
        eval=lambda q: math.inf if abs(q[0]) > 1.0 else quartic.eval(q),
    )
    target = HilbertTarget(phi=wall, reference=reference, surrogate_f=lambda q: np.zeros_like(q))
    kernel = pcn(target, delta=2.0)
    a = run_chain(kernel, np.zeros(d), 2000, np.random.default_rng(121))
    b = run_chain(kernel, np.zeros(d), 2000, np.random.default_rng(121))
    checks["wall"] = (
        np.all(np.isfinite(a.positions))
        and np.all(np.abs(a.positions[:, 0]) <= 1.0)
        and a.acceptance_rate < 1.0
        and np.array_equal(a.positions, b.positions)
    )

    # NaN gradients beyond a threshold: proposals there are rejected.
    def nan_grad(q):
        g = np.asarray(q, dtype=float).copy()
        if q[0] > 0.8:
            g[:] = np.nan
        return g

    nan_target = TargetPotential(eval=lambda q: 0.5 * float(q @ q), grad=nan_grad)
    k_mala = mala(nan_target, delta=0.4, dim=2)
    a = run_chain(k_mala, np.zeros(2), 2000, np.random.default_rng(122))
    b = run_chain(k_mala, np.zeros(2), 2000, np.random.default_rng(122))
    checks["nan_grad"] = np.all(np.isfinite(a.positions)) and np.array_equal(
        a.positions, b.positions
    )

    # Implicit solver non-convergence at an absurd step: every step rejects.
    k_rm = rmhmc(standard_gaussian(1), diagonal_quadratic_metric(), delta=80.0, n=1, dim=1)
    a = run_chain(k_rm, np.array([0.3]), 200, np.random.default_rng(123))
    b = run_chain(k_rm, np.array([0.3]), 200, np.random.default_rng(123))
    checks["implicit"] = (
        a.acceptance_rate == 0.0
        and np.all(a.positions == 0.3)
        and np.array_equal(a.positions, b.positions)
    )

    report(
        12,
        "degenerate inputs reject without crashing, chains stay deterministic",
        all(checks.values()),
        str({k: bool(v) for k, v in checks.items()}),
    )
