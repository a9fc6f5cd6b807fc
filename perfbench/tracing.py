"""Per-layer spans and counts, recorded from outside the library.

`installed(tracer)` swaps the names that `falsify.sqp`, `falsify.shooting`,
`falsify.formulation` and `falsify.integrate` look up at call time for
wrappers that time each call, and wraps `HessianApprox.update`; it puts the
originals back on exit.  `counting_system` gives `run` an `OdeSystem` whose
right-hand side and state Jacobian count their calls.  Each span adds its
duration to its parent's child time, so a layer's self time is its total
minus the time of the spans nested in it.
"""

from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import replace
from time import perf_counter

import falsify.formulation
import falsify.integrate
import falsify.shooting
import falsify.sqp
from falsify.hessian import HessianApprox
from falsify.systems import OdeSystem


class Tracer:
    """Call counts, inclusive times and child times per span name."""

    def __init__(self):
        self.calls = Counter()
        self.fails = Counter()
        self.total = defaultdict(float)
        self.child = defaultdict(float)
        self.counts = Counter()
        self._stack = []

    def span(self, name, fn):
        """``fn`` wrapped so that every call records a span called ``name``."""

        def wrapped(*args, **kwargs):
            child = [0.0]
            self._stack.append(child)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                self.fails[name] += 1
                raise
            finally:
                elapsed = perf_counter() - start
                self._stack.pop()
                self.calls[name] += 1
                self.total[name] += elapsed
                self.child[name] += child[0]
                if self._stack:
                    self._stack[-1][0] += elapsed

        return wrapped

    def counted(self, name, fn):
        """``fn`` wrapped so that every call adds one to ``counts[name]``."""

        def wrapped(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def self_time(self, name):
        return self.total[name] - self.child[name]


def counting_system(instance, tracer):
    """``instance`` with a copy of its system whose rhs and Jacobian count calls.

    The copy has no ``kernel_id``, so it always integrates on the numpy path.
    """
    system = instance.system
    counted = OdeSystem(
        system.dim,
        tracer.counted("systems.rhs.calls", system.rhs),
        tracer.counted("systems.jac.calls", system.state_jacobian),
        system.label,
    )
    return replace(instance, system=counted)


# (owner, attribute, span name) for each name the library looks up at call time
SPANS = (
    (falsify.sqp, "evaluate_segments", "shooting.evaluate_segments"),
    (falsify.sqp, "constraint_jacobian", "formulation.constraint_jacobian"),
    (falsify.formulation, "constraint_jacobian", "formulation.constraint_jacobian"),
    (falsify.sqp, "lagrangian_gradient", "formulation.lagrangian_gradient"),
    (falsify.sqp, "solve_ppcg", "kkt.solve_ppcg"),
    (falsify.sqp, "solve_direct", "kkt.solve_direct"),
    (falsify.shooting, "flow_with_sensitivity", "integrate.flow_with_sensitivity"),
    (falsify.integrate, "flow", "integrate.flow"),
)


@contextmanager
def installed(tracer):
    """Route the library's inter-layer calls through ``tracer`` while active."""
    line_search = falsify.sqp.line_search
    update = HessianApprox.update

    def traced_line_search(evaluate, *args, **kwargs):
        return line_search(tracer.counted("sqp.trial_evals", evaluate), *args, **kwargs)

    def traced_update(hess, s, y):
        skips = hess.skip_count
        try:
            return update(hess, s, y)
        finally:
            tracer.counts["hessian.skips"] += hess.skip_count - skips

    patches = [
        (owner, attr, tracer.span(name, getattr(owner, attr))) for owner, attr, name in SPANS
    ]
    patches += [
        (falsify.sqp, "line_search", tracer.span("sqp.line_search", traced_line_search)),
        (HessianApprox, "update", tracer.span("hessian.update", traced_update)),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)
