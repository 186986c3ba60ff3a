"""The benchmark's tracing hooks leave every chain unchanged.

``perfbench/run.py --trace 1`` runs each workload untraced and traced and
fails unless the chains agree.  This guard runs the same comparison on short
chains of every kernel of the ``fd_d2`` and ``hilbert_d16384`` workloads, so
a library change that the tracer cannot follow (a renamed hook, a metric
rebuilt without a declared property that changes results) fails here rather
than only in a benchmark run.  It reads the benchmark's modules and changes
nothing in them.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from invmh import run_chain

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
STEPS = 30


def _load(name: str):
    """The benchmark module ``name``, under a name of its own; registered
    in ``sys.modules`` before it runs, as its dataclasses require."""
    module_name = f"_perfbench_{name}"
    if module_name not in sys.modules:
        spec = importlib.util.spec_from_file_location(module_name, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[module_name] = module
        spec.loader.exec_module(module)
    return sys.modules[module_name]


def _chains(builder, tracer=None) -> dict:
    """Each kernel's chain of STEPS steps from the origin, with its own
    seeded generator; traced kernels run inside the tracer's patches."""
    kernels = builder(tracer)
    if tracer is not None:
        kernels = {name: tracer.kernel(kernel) for name, kernel in kernels.items()}
    chains = {}
    for i, (name, kernel) in enumerate(kernels.items()):
        result = run_chain(kernel, np.zeros(kernel.dim), STEPS, np.random.default_rng(i))
        chains[name] = (result.positions, result.accepted)
    return chains


@pytest.mark.parametrize(
    "builder, module", [("fd_kernels", "finite_dim"), ("hilbert_kernels", "hilbert")]
)
def test_traced_chains_equal_untraced(builder, module):
    build = getattr(_load("workloads"), builder)
    tracer = _load("tracing").Tracer()
    untraced = _chains(build)
    with tracer.patched():
        traced = _chains(build, tracer)
    assert traced.keys() == untraced.keys()
    for name, (positions, accepted) in untraced.items():
        assert np.array_equal(traced[name][0], positions), name
        assert np.array_equal(traced[name][1], accepted), name
    # The hooks ran: every step and every auxiliary draw is a traced span.
    assert len(tracer.step_s) == tracer.calls[f"{module}.aux"] == STEPS * len(untraced)
