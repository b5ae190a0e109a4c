"""Per-layer tracing of ysyslab from outside the program.

``Tracer.install`` wraps public functions and methods of the ysyslab modules
in place.  A function imported elsewhere with ``from .x import f`` is
replaced in every module that bound it, so a call is seen whichever name it
goes through.

Each wrapped call adds its self time (its duration minus the time of nested
wrapped calls) to its layer's bucket and counts one call.  Coarse calls
also keep a span (name, start, end, parent span); hot calls
(``Quiver.mutate``, ``g_factors``, ``transpose_factors``, ``canonical_key``)
only count and accumulate time, so a span per call does not swamp the run.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from collections import Counter, defaultdict
from time import perf_counter


def _steps(args, kwargs):
    """Composite steps of run_schedule(model, s_lo, s_hi, ...): from 0 up to
    s_hi and from 0 down to s_lo."""
    s_lo = kwargs["s_lo"] if "s_lo" in kwargs else args[1]
    s_hi = kwargs["s_hi"] if "s_hi" in kwargs else args[2]
    return max(s_hi, 0) + max(-s_lo, 0)


#: (module, attribute, layer bucket, call counter, keeps spans, counts distinct args)
#: An attribute "Class.method" wraps the method on the class.
TARGETS = (
    ("builders", "build", "builders.build", "builders.build", True, False),
    ("schedule", "run_schedule", "schedule.run_schedule", "schedule.run_schedule", True, False),
    ("quiver", "Quiver.mutate", "quiver.mutate", "quiver.mutate", False, False),
    ("quiver", "find_isomorphism", "quiver.find_isomorphism", "quiver.find_isomorphism", True, False),
    ("tropical", "TropicalRun.__init__", "tropical.run", "tropical.run", True, True),
    ("tropical", "TropicalRun.count_signs", "tropical.checks", None, True, False),
    ("tropical", "TropicalRun.periodicity_mismatches", "tropical.checks", None, True, False),
    ("tropical", "TropicalRun.boundary_mismatches", "tropical.checks", None, True, False),
    ("tropical", "TropicalRun.sign_pattern_mismatches", "tropical.checks", None, True, False),
    ("numeric", "NumericRun.__init__", "numeric.run", "numeric.run", True, True),
    ("numeric", "NumericRun.t_residuals", "numeric.residuals", None, True, False),
    ("numeric", "NumericRun.y_residuals", "numeric.residuals", None, True, False),
    ("numeric", "NumericRun.t_periodicity_errors", "numeric.periodicity", None, True, False),
    ("numeric", "NumericRun.y_periodicity_errors", "numeric.periodicity", None, True, False),
    ("numeric", "tropical_shadow_mismatches", "numeric.shadow", None, True, False),
    ("gfun", "g_factors", "gfun", "gfun.g_factors", False, False),
    ("gfun", "transpose_factors", "gfun", "gfun.transpose_factors", False, False),
    ("roots", "tvector_mismatches", "roots", None, True, False),
    ("roots", "apart_mismatches_C", "roots", None, True, False),
    ("dilog", "solve_constant_Y", "dilog.solve", "dilog.solve", True, False),
    ("dilog", "check_functional_DI", "dilog.functional", None, True, False),
    ("dilog", "rogers_L", None, "dilog.rogers_L", False, False),
    ("mutclass", "search_equivalence", "mutclass.search", "mutclass.search", True, False),
    ("mutclass", "canonical_key", "mutclass.canonical_key", "mutclass.canonical_key", False, False),
    ("suite", "run_suite", "suite.run_suite", None, True, False),
)

#: Per-layer metrics in report order; the first part of each name is the layer.
COUNT_METRICS = (
    "builders.build.calls",
    "schedule.run_schedule.calls",
    "schedule.run_schedule.steps",
    "quiver.mutate.calls",
    "quiver.find_isomorphism.calls",
    "tropical.run.calls",
    "tropical.run.distinct",
    "numeric.run.calls",
    "numeric.run.distinct",
    "gfun.g_factors.calls",
    "gfun.transpose_factors.calls",
    "dilog.solve.calls",
    "dilog.rogers_L.calls",
    "mutclass.search.calls",
    "mutclass.canonical_key.calls",
)
TIME_METRICS = (
    "builders.build.s",
    "schedule.run_schedule.s",
    "quiver.mutate.s",
    "quiver.find_isomorphism.s",
    "tropical.run.s",
    "tropical.checks.s",
    "numeric.run.s",
    "numeric.residuals.s",
    "numeric.periodicity.s",
    "numeric.shadow.s",
    "gfun.s",
    "roots.s",
    "dilog.solve.s",
    "dilog.functional.s",
    "mutclass.search.s",
    "mutclass.canonical_key.s",
    "suite.run_suite.s",
)


class Tracer:
    """Counters, self times and spans of the wrapped ysyslab calls."""

    def __init__(self):
        self.spans = []
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.distinct = defaultdict(set)
        self._stack = []

    def install(self):
        import ysyslab

        modules = [
            importlib.import_module(f"ysyslab.{info.name}")
            for info in pkgutil.iter_modules(ysyslab.__path__)
        ]
        for mod_name, attr, bucket, counter, span, distinct in TARGETS:
            owner = importlib.import_module(f"ysyslab.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, meth, self._wrap(getattr(cls, meth), attr, bucket, counter, span, distinct))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(original, attr, bucket, counter, span, distinct)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
        return self

    def _wrap(self, fn, name, bucket, counter, span, distinct):
        signature = inspect.signature(fn) if distinct else None
        steps = name == "run_schedule"
        stack = self._stack

        def wrapper(*args, **kwargs):
            if counter is not None:
                self.calls[counter] += 1
                if steps:
                    self.calls["schedule.run_schedule.steps"] += _steps(args, kwargs)
                if distinct:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    key = tuple(bound.arguments.items())[1:]  # drop self
                    self.distinct[counter].add(key)
            if bucket is None:
                return fn(*args, **kwargs)
            frame = [0.0, len(self.spans) if span else None]
            parent = stack[-1][1] if stack else None
            if span:
                self.spans.append(None)  # reserve the id in call order
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                self.self_s[bucket] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if span:
                    self.spans[frame[1]] = (name, start, end, parent)

        wrapper.__wrapped__ = fn
        return wrapper

    def figures(self):
        """The per-layer metrics: counts and self times by name."""
        out = {}
        for name in COUNT_METRICS:
            if name.endswith(".distinct"):
                out[name] = len(self.distinct.get(name.removesuffix(".distinct"), ()))
            else:
                out[name] = self.calls.get(name.removesuffix(".calls"), 0)
        for name in TIME_METRICS:
            out[name] = self.self_s.get(name.removesuffix(".s"), 0.0)
        return out
