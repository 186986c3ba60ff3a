"""Per-layer tracing of invmh from outside the package.

Nothing under ``src/`` is changed.  The tracer wraps the public callables
at each layer boundary:

* the ``TargetPotential``, ``PositionMetric`` and ``SpectralGaussian``
  objects handed to the kernel constructors (layers ``targets`` and
  ``gaussian``);
* the kernel's ``aux`` and ``involution``, replaced by timed copies with
  ``dataclasses.replace`` (layers ``finite_dim.*`` / ``hilbert.*``);
* the module attributes ``leapfrog``/``stormer_verlet`` of
  ``invmh.finite_dim`` and ``strang_hilbert`` of ``invmh.hilbert``
  (layer ``integrators``), ``invmh.core.mh_step`` (layer ``core``), and the
  CLI and diagnostics entry points (layers ``cli`` and ``diagnostics``).

Each wrapped call is a span.  A layer's self time is the duration of its
spans minus the time of the spans nested inside them, so the self times of
all layers add up to the traced wall time.  Wrappers only read clocks and
bump counters: they never touch an RNG, which the benchmark proves by
comparing chain digests of traced and untraced runs.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from collections import Counter, defaultdict

import numpy as np

import invmh.cli
import invmh.core
import invmh.diagnostics
import invmh.finite_dim
import invmh.hilbert
from invmh import (
    HilbertTarget,
    IntegrationError,
    PositionMetric,
    SpectralGaussian,
    TargetPotential,
)

_GAUSSIAN_METHODS = ("sample", "frac_power", "cm_inner", "cm_sq_norm", "cm_log_ratio")


class Tracer:
    """Span stack with per-layer self time, per-name inclusive time and
    call counters, attributed to the sampler currently running."""

    def __init__(self):
        self.sampler = ""
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.sampler_calls: Counter = Counter()
        self.step_s: list[float] = []
        self.integration_rejects = 0
        self.db_flop = 0.0
        self._children: list[float] = []

    def count(self, name: str, k: int = 1) -> None:
        self.calls[name] += k
        self.sampler_calls[(self.sampler, name)] += k

    def wrap(self, layer: str, fn, name: str | None = None):
        """Wrap ``fn`` as a span: its self time goes to ``layer``, its
        inclusive time and call count to ``name`` (default ``layer``)."""
        name = name or layer
        children = self._children
        self_s, total_s = self.self_s, self.total_s
        clock = time.perf_counter

        def traced(*args, **kwargs):
            self.count(name)
            children.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = children.pop()
                self_s[layer] += elapsed - nested
                total_s[name] += elapsed
                if children:
                    children[-1] += elapsed

        return traced

    # -- objects handed to the constructors ---------------------------------

    def target(self, target: TargetPotential) -> TargetPotential:
        grad = target.grad
        return TargetPotential(
            eval=self.wrap("targets", target.eval, "targets.eval"),
            grad=None if grad is None else self.wrap("targets", grad, "targets.grad"),
        )

    def metric(self, metric: PositionMetric) -> PositionMetric:
        return PositionMetric(
            matrix=self.wrap("targets", metric.matrix, "targets.metric"),
            grad_quad_form=self.wrap("targets", metric.grad_quad_form, "targets.metric_grad"),
            grad_half_logdet=self.wrap("targets", metric.grad_half_logdet, "targets.metric_grad"),
        )

    def reference(self, reference: SpectralGaussian) -> SpectralGaussian:
        traced_methods = {
            name: self.wrap("gaussian", getattr(SpectralGaussian, name), "gaussian")
            for name in _GAUSSIAN_METHODS
        }
        subclass = type("TracedSpectralGaussian", (SpectralGaussian,), traced_methods)
        return subclass(reference.eigenvalues)

    def hilbert_target(self, target: HilbertTarget) -> HilbertTarget:
        """Traced phi and reference; the default force ``C grad(phi)`` is
        then built from both."""
        if target.surrogate_f is not None:
            raise ValueError("only targets with the default force are traced")
        return HilbertTarget(phi=self.target(target.phi), reference=self.reference(target.reference))

    # -- the kernel itself ----------------------------------------------------

    def kernel(self, kernel):
        """Copy of ``kernel`` whose auxiliary draw and involution are spans
        of the constructing module (``finite_dim`` or ``hilbert``)."""
        step = kernel.involution.step
        module = kernel.involution.apply_and_log_rn.__module__.rsplit(".", 1)[-1]
        timed_step = self.wrap(f"{module}.log_rn", step)

        def checked_step(z):
            try:
                image, log_rn = timed_step(z)
            except IntegrationError:
                self.integration_rejects += 1
                raise
            if not np.all(np.isfinite(image.q)):
                self.integration_rejects += 1
            return image, log_rn

        return dataclasses.replace(
            kernel,
            aux=dataclasses.replace(
                kernel.aux, sample=self.wrap(f"{module}.aux", kernel.aux.sample)
            ),
            involution=dataclasses.replace(kernel.involution, apply_and_log_rn=checked_step),
        )

    # -- module attributes ----------------------------------------------------

    @contextlib.contextmanager
    def patched(self):
        """Install the module-attribute wrappers for the duration of the
        block and restore the originals afterwards."""
        originals = []

        def patch(module, attr, wrapper):
            originals.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)

        clock = time.perf_counter
        mh_step = invmh.core.mh_step
        timed_mh_step = self.wrap("core", mh_step, "core.mh_step")
        steps = self.step_s

        def step_timer(*args, **kwargs):
            start = clock()
            result = timed_mh_step(*args, **kwargs)
            steps.append(clock() - start)
            return result

        patch(invmh.core, "mh_step", step_timer)
        patch(invmh.finite_dim, "leapfrog", self.wrap("integrators", invmh.finite_dim.leapfrog))
        stormer_verlet = self.wrap("integrators", invmh.finite_dim.stormer_verlet)

        def counted_stormer_verlet(n, delta, f1, f2, z):
            def field(fn):
                def counted(*args):
                    self.count("integrators.implicit_evals")
                    return fn(*args)

                return counted

            return stormer_verlet(n, delta, field(f1), field(f2), z)

        patch(invmh.finite_dim, "stormer_verlet", counted_stormer_verlet)
        patch(invmh.hilbert, "strang_hilbert", self.wrap("integrators", invmh.hilbert.strang_hilbert))

        db_test = self.wrap("diagnostics", invmh.diagnostics.detailed_balance_test, "diagnostics.db_test")

        def counted_db_test(
            pairs,
            rng,
            n_permutations=invmh.diagnostics.DEFAULT_PERMUTATIONS,
            max_pairs=invmh.diagnostics.DEFAULT_MAX_PAIRS,
        ):
            n = min(len(pairs), max_pairs)
            # Two n x n x 2 Gram products plus the n x n x P sign product.
            self.db_flop += 2.0 * n * n * n_permutations + 8.0 * n * n
            return db_test(pairs, rng, n_permutations=n_permutations, max_pairs=max_pairs)

        patch(invmh.diagnostics, "detailed_balance_test", counted_db_test)
        summarize = self.wrap("diagnostics", invmh.diagnostics.summarize_chain, "diagnostics.summarize")
        patch(invmh.diagnostics, "summarize_chain", summarize)
        patch(invmh.cli, "summarize_chain", summarize)
        patch(invmh.cli, "run_chain", self.wrap("core", invmh.cli.run_chain, "cli.run_chain"))
        patch(invmh.cli, "_write_chain_csv", self.wrap("cli", invmh.cli._write_chain_csv, "cli.csv_write"))
        build_target = invmh.cli.build_target
        build_kernel = invmh.cli.build_kernel

        def traced_build_target(spec):
            kind, target, dim = build_target(spec)
            if kind == "fd":
                return kind, self.target(target), dim
            return kind, self.hilbert_target(target), dim

        def traced_build_kernel(*args):
            self.count("cli.kernel_builds")
            return self.kernel(build_kernel(*args))

        patch(invmh.cli, "build_target", traced_build_target)
        patch(invmh.cli, "build_kernel", traced_build_kernel)
        try:
            yield self
        finally:
            for module, attr, original in reversed(originals):
                setattr(module, attr, original)
