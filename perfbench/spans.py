"""Span tracing of the sievesim layers from outside the package.

The package uses from-imports, so one function is reachable under several
module attributes (``sievesim.harness.true_theta`` and
``sievesim.synthetic.true_theta`` are the same object).  :meth:`Tracer.install`
wraps each traced function once and puts that one wrapper at every binding
site in the package, so no call is counted twice; methods are wrapped on
their class.  Spans stay in memory until the repetition ends.

A span is ``[name, start, end, parent, count, error]``: ``parent`` indexes the
enclosing span (-1 at top level), ``count`` is the work counted at the
boundary (kernel entries) and ``error`` names the exception that left the
span, with ``"FitError"`` standing for any :class:`sievesim.FitError`.
Tracing is single-threaded: the benchmark runs one harness worker.
"""

from __future__ import annotations

import functools
import sys
import time

# Span name -> (module, attribute) of each traced function.
FUNCTIONS = {
    "harness.parse_config": ("sievesim.harness", "parse_config"),
    "harness.run_experiment": ("sievesim.harness", "run_experiment"),
    "harness.emit_results": ("sievesim.harness", "emit_results"),
    "synthetic.make_test_function": ("sievesim.synthetic", "make_test_function"),
    "synthetic.true_theta": ("sievesim.synthetic", "true_theta"),
    "synthetic.eval_f": ("sievesim.synthetic", "eval_f"),
    "synthetic.simulate_outer": ("sievesim.synthetic", "simulate_outer"),
    "synthetic.simulate_inner": ("sievesim.synthetic", "simulate_inner"),
    "kernels.kernel_matrix": ("sievesim.kernels", "kernel_matrix"),
    "kernels.random_subsample": ("sievesim.kernels", "random_subsample"),
    "estimators.fit_sample_average": ("sievesim.estimators", "fit_sample_average"),
    "estimators.fit_krr": ("sievesim.estimators", "fit_krr"),
    "estimators.fit_krr_inducing": ("sievesim.estimators", "fit_krr_inducing"),
    "estimators.fit_relu_sieve": ("sievesim.estimators", "fit_relu_sieve"),
    "functionals.evaluate_functional": ("sievesim.functionals", "evaluate_functional"),
}

# Span name -> (module, class, method) of each traced method.
METHODS = {
    "network.loss_and_grad": [("sievesim.network", "ReluNetwork", "loss_and_grad")],
    "network.forward": [("sievesim.network", "ReluNetwork", "forward")],
    "estimators.predict": [
        ("sievesim.estimators", cls, "predict")
        for cls in ("SampleAverageEstimator", "KRREstimator",
                    "InducingKRREstimator", "ReluSieveEstimator")
    ],
}

# Work counted at a span's boundary, from the traced call's return value.
COUNTERS = {"kernels.kernel_matrix": lambda matrix: int(matrix.size)}

FIT_SPANS = ("estimators.fit_sample_average", "estimators.fit_krr",
             "estimators.fit_krr_inducing", "estimators.fit_relu_sieve")


class Tracer:
    """Records spans of the traced sievesim functions while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, fit_error):
        spans, stack, count = self.spans, self._stack, COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, stack[-1] if stack else -1, 0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
                if count is not None:
                    span[4] = count(out)
                return out
            except BaseException as exc:
                span[5] = "FitError" if isinstance(exc, fit_error) else type(exc).__name__
                raise
            finally:
                stack.pop()
                span[2] = time.perf_counter()

        return traced

    def install(self) -> None:
        """Wrap every traced function at each of its binding sites."""
        fit_error = sys.modules["sievesim.estimators"].FitError
        modules = [m for key, m in list(sys.modules.items())
                   if key == "sievesim" or key.startswith("sievesim.")]
        for name, (module, attr) in FUNCTIONS.items():
            original = getattr(sys.modules[module], attr)
            wrapper = self._wrap(name, original, fit_error)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
        for name, sites in METHODS.items():
            for module, cls_name, attr in sites:
                cls = getattr(sys.modules[module], cls_name)
                self._set(cls, attr, self._wrap(name, vars(cls)[attr], fit_error))

    def _set(self, owner, attr, wrapper) -> None:
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


def summarize(spans) -> dict[str, dict]:
    """Per span name: calls, time ``s``, ``self_s``, ``count`` and ``fit_errors``.

    ``s`` sums only spans with no enclosing span of the same name, so a
    recursive call is not timed twice.  ``self_s`` is a span's duration
    minus the time its child spans cover; children run one after another
    inside their parent, so that is the sum of their durations.
    ``fit_errors`` counts fits that raised a FitError out of a call from
    outside the fitting functions.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict] = {}
    for i, (name, start, end, parent, count, error) in enumerate(spans):
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                    "count": 0, "fit_errors": 0})
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time[i]
        row["count"] += count
        ancestors = []
        at = parent
        while at >= 0:
            ancestors.append(spans[at][0])
            at = spans[at][3]
        if name not in ancestors:
            row["s"] += end - start
        if error == "FitError" and name in FIT_SPANS and not set(ancestors) & set(FIT_SPANS):
            row["fit_errors"] += 1
    return out
