"""``run_chain``'s noise producer: a thread that draws each step's
``standard_normal(dim)`` and uniform ahead, in the generator's own order.

The streamed chain must equal a plain loop of ``mh_step`` on the generator
bit for bit, leave the generator in the same state, and leave no thread
behind; and every law that declares ``gaussian_noise`` must draw exactly
what the producer makes for it.
"""

import dataclasses
import sys
import threading

import numpy as np
import pytest

import invmh.core
import invmh.diagnostics
from invmh import (
    AuxLaw,
    HilbertTarget,
    gaussian_momentum,
    gen_langevin,
    inf_hmc,
    inf_mala,
    mh_step,
    pcn,
    run_chain,
)
from invmh.core import NOISE_CHUNK, NOISE_THREAD_DIM
from invmh.hilbert import default_hilbert_target

D = NOISE_THREAD_DIM


@pytest.fixture(autouse=True)
def two_cpus(monkeypatch):
    """The producer runs whatever the CPUs of the machine running the
    tests."""
    monkeypatch.setattr(invmh.diagnostics, "_worker_count", lambda: 2)


def _kernels() -> dict:
    target = default_hilbert_target(D)
    lam = target.reference.eigenvalues
    surrogate = HilbertTarget(target.phi, target.reference, surrogate_f=target.force())
    variances = AuxLaw(variances=lambda q: lam * (1.0 + 0.4 * np.tanh(q) ** 2))
    return {
        "pcn": pcn(target, delta=1.0),
        "inf_mala": inf_mala(target, delta=0.6),
        "gen_langevin": gen_langevin(surrogate, delta=0.6),
        "inf_hmc": inf_hmc(target, AuxLaw(), delta1=0.15, delta2=0.3, n=3),
        "inf_hmc_variances": inf_hmc(target, variances, delta1=0.15, delta2=0.3, n=3),
    }


KERNELS = _kernels()


def _recording_sources(kernel, sources: list):
    """``kernel`` with a draw that records the generator it is handed."""
    sample = kernel.aux.sample

    def recorded(z, rng):
        sources.append(rng)
        return sample(z, rng)

    return dataclasses.replace(kernel, aux=dataclasses.replace(kernel.aux, sample=recorded))


def _plain_loop(kernel, q0, n_steps, rng) -> list:
    """The steps of ``run_chain`` without the producer: ``mh_step`` on the
    generator itself, each step handed the memo of its state."""
    q, memo, results = q0, {kernel.target.eval: kernel.target.eval(q0)}, []
    for _ in range(n_steps):
        result = mh_step(kernel, q, rng, memo)
        q, memo = result.next, result.memo
        results.append(result)
    return results


@pytest.mark.parametrize("n_steps", [0, 1, 2, 2 * NOISE_CHUNK + 3])
@pytest.mark.parametrize("name", KERNELS)
def test_streamed_chain_equals_the_plain_loop(name, n_steps):
    sources = []
    kernel = _recording_sources(KERNELS[name], sources)
    q0 = np.zeros(D)
    rng = np.random.default_rng(7)
    chain = run_chain(kernel, q0, n_steps, rng)
    # The producer hands out the draws from two steps on; below that the
    # chain draws from the generator itself.
    streamed = [not isinstance(source, np.random.Generator) for source in sources]
    assert streamed == [n_steps >= 2] * n_steps

    plain = np.random.default_rng(7)
    for k, result in enumerate(_plain_loop(KERNELS[name], q0, n_steps, plain)):
        assert chain.positions[k + 1].tobytes() == result.next.tobytes(), k
        assert chain.alphas[k] == result.alpha, k
        assert chain.accepted[k] == result.accepted, k
    assert rng.bit_generator.state == plain.bit_generator.state


def test_concurrent_chains_with_fast_thread_switching():
    # Three chains at once, each with its producer: six threads on two or
    # fewer cores, with the interpreter switching threads every 10 us.
    kernel, n_steps, seeds = KERNELS["pcn"], 4 * NOISE_CHUNK + 1, range(3)
    chains = {}

    def run(seed):
        chains[seed] = run_chain(kernel, np.zeros(D), n_steps, np.random.default_rng(seed))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(seed,)) for seed in seeds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    for seed in seeds:
        plain = _plain_loop(kernel, np.zeros(D), n_steps, np.random.default_rng(seed))
        assert chains[seed].positions[1:].tobytes() == np.array([r.next for r in plain]).tobytes()


def test_no_thread_outlives_a_chain():
    before = threading.active_count()
    run_chain(KERNELS["pcn"], np.zeros(D), 3 * NOISE_CHUNK, np.random.default_rng(1))
    assert threading.active_count() == before


def test_no_thread_outlives_a_chain_that_raises():
    kernel = KERNELS["pcn"]
    rotate = kernel.involution.apply_and_log_rn
    calls = []

    def fails_at_the_fifth_step(z):
        calls.append(None)
        if len(calls) == 5:
            raise RuntimeError("broken involution")
        return rotate(z)

    involution = dataclasses.replace(kernel.involution, apply_and_log_rn=fails_at_the_fifth_step)
    broken = dataclasses.replace(kernel, involution=involution)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="broken involution"):
        run_chain(broken, np.zeros(D), 50 * NOISE_CHUNK, np.random.default_rng(1))
    assert len(calls) == 5
    assert threading.active_count() == before


class _RecordingGenerator:
    """A generator that records every method call made on it."""

    def __init__(self, seed: int):
        self._rng = np.random.default_rng(seed)
        self.calls = []

    def __getattr__(self, name):
        method = getattr(self._rng, name)

        def record(*args, **kwargs):
            self.calls.append((name, args, kwargs))
            return method(*args, **kwargs)

        return record


def test_declared_laws_draw_one_standard_normal(kernel_zoo):
    laws = {entry.name: (entry.kernel.aux, entry.sample_z) for entry in kernel_zoo}
    dense = np.array([[2.0, 0.3, 0.0], [0.3, 1.0, 0.1], [0.0, 0.1, 0.5]])
    laws["dense_momentum"] = (gaussian_momentum(3, mass=dense), laws["surrogate_hmc"][1])
    declared = {name for name, (aux, _) in laws.items() if aux.gaussian_noise}
    # The relativistic law draws by rejection: gamma radii and uniforms.
    assert declared == set(laws) - {"relativistic_hmc"}
    points = np.random.default_rng(3)
    for name in sorted(declared):
        aux, sample_z = laws[name]
        for seed in range(3):
            z = sample_z(points)
            rng = _RecordingGenerator(seed)
            v = aux.sample(invmh.core.ExtendedPoint(z.q, None, {}), rng)
            assert rng.calls == [("standard_normal", (aux.dim,), {})], name
            assert np.shape(v) == (aux.dim,), name
