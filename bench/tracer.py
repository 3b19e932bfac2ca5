"""Spans and counters around the public functions of the lagdpw modules.

The modules are the layers.  ``Tracer`` wraps every public module-level
function of every imported ``lagdpw.*`` module, plus a few named methods, and
records a span per call: name, start, end, parent span and job id.  Call
sites hot enough that a span would distort the timing (``HOT``) only count
calls.  Wrapping replaces *every* ``lagdpw.*`` module attribute that is the
original object, so name-imported bindings such as ``dpw.iwasawa`` and
``factorization.max_distance_on_circle`` are traced too.  Calls made outside
a job pass straight through.  A traced name the package no longer defines is
simply not wrapped and reports as absent.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# counted, never spanned: each runs hundreds of times per frame point
HOT = ("potentials.PotentialSpec.coefficient_matrix", "loops.LoopMatrix.evaluate",
       "loops.LoopMatrix.evaluate_many", "su3.op_norm", "painleve.piii_rhs")
# methods that get a span like the module-level functions
SPANNED_METHODS = ("dpw.PipelineSurface.frame_point",)
# functions whose result carries a residual worth keeping the maximum of
RESIDUALS = {"factorization.iwasawa": ("residual", "factorization.iwasawa.residual_max"),
             "factorization.birkhoff": ("residual", "factorization.birkhoff.residual_max"),
             "geometry.structure_residuals": ("unitarity", "geometry.unitarity_max")}
CACHE_LOOKUP = "dpw.PipelineSurface.frame_point"
CACHE_MISS = "dpw.frame_point"


class Span:
    __slots__ = ("name", "start", "end", "parent", "job", "error")

    def __init__(self, name, start, parent, job):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.job = job
        self.error = None


class JobTrace:
    """Everything recorded while one job ran."""

    def __init__(self, job_id: int, name: str):
        self.job_id = job_id
        self.name = name
        self.spans: list[Span] = []  # spans[0] is the job's root span
        self.calls: Counter = Counter()
        self.maxima: dict[str, float] = {}

    @property
    def wall_s(self) -> float:
        root = self.spans[0]
        return root.end - root.start

    def _children(self) -> dict[int, list[Span]]:
        out: dict[int, list[Span]] = {}
        for span in self.spans[1:]:
            out.setdefault(id(span.parent), []).append(span)
        return out

    def self_times(self) -> Counter:
        """Per function: span duration minus the durations of its child spans."""
        children = self._children()
        out = Counter()
        for span in self.spans[1:]:
            inner = sum(c.end - c.start for c in children.get(id(span), ()))
            out[span.name] += span.end - span.start - inner
        return out

    def nesting_errors(self) -> list[str]:
        """Spans that leave their parent's interval or overlap a sibling.

        Self times add up to the job's wall time exactly when every span lies
        inside its parent and siblings are disjoint; a span recorded from
        another thread, or against the wrong parent, breaks one of the two.
        """
        errors = []
        for span in self.spans[1:]:
            parent = span.parent
            if span.start < parent.start or span.end > parent.end:
                errors.append(f"{span.name} outside its parent {parent.name}")
        for siblings in self._children().values():
            siblings = sorted(siblings, key=lambda s: s.start)
            for a, b in zip(siblings, siblings[1:]):
                if b.start < a.end:
                    errors.append(f"{a.name} overlaps its sibling {b.name}")
        return errors

    def failures(self, name: str) -> Counter:
        return Counter(s.error for s in self.spans if s.name == name and s.error)


def _lagdpw_modules():
    return sorted((m for n, m in sys.modules.items()
                   if n.startswith("lagdpw.") and m is not None),
                  key=lambda m: m.__name__)


def _short(module_name: str) -> str:
    return module_name.split(".", 1)[1]


class Tracer:
    """Wraps the package's public functions; ``install``/``uninstall`` swap them in and out."""

    def __init__(self):
        self._job: JobTrace | None = None
        self._stack: list[Span] = []
        self._next_job = 0
        self.jobs: list[JobTrace] = []
        self._patches = []  # (owner, attribute, original, wrapper)
        modules = _lagdpw_modules()
        for mod in modules:
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{_short(mod.__name__)}.{attr}"
                wrapper = self._wrap(name, fn)
                for other in modules:
                    for other_attr, value in vars(other).items():
                        if value is fn:
                            self._patches.append((other, other_attr, fn, wrapper))
        for qual in HOT + SPANNED_METHODS:
            if qual.count(".") != 2:
                continue  # module-level, wrapped above
            mod_name, cls_name, meth = qual.split(".")
            cls = getattr(sys.modules.get(f"lagdpw.{mod_name}"), cls_name, None)
            fn = vars(cls).get(meth) if isinstance(cls, type) else None
            if inspect.isfunction(fn):
                self._patches.append((cls, meth, fn, self._wrap(qual, fn)))
        self.targets = {w.__wrapped_name__ for _, _, _, w in self._patches}

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, name: str, fn):
        if name in HOT:
            def counted(*args, **kwargs):
                job = self._job
                if job is not None:
                    job.calls[name] += 1
                return fn(*args, **kwargs)
            wrapper = counted
        else:
            observe = RESIDUALS.get(name)

            def spanned(*args, **kwargs):
                job = self._job
                if job is None:
                    return fn(*args, **kwargs)
                job.calls[name] += 1
                misses = job.calls[CACHE_MISS] if name == CACHE_LOOKUP else None
                stack = self._stack
                span = Span(name, 0.0, stack[-1], job.job_id)
                stack.append(span)
                span.start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                except BaseException as exc:
                    span.error = type(exc).__name__
                    raise
                finally:
                    span.end = perf_counter()
                    stack.pop()
                    job.spans.append(span)
                if misses is not None and job.calls[CACHE_MISS] == misses:
                    job.calls["dpw.surface_cache.hits"] += 1
                value = getattr(result, observe[0], None) if observe else None
                if value is not None:
                    key = observe[1]
                    job.maxima[key] = max(job.maxima.get(key, 0.0), float(value))
                return result
            wrapper = spanned
        functools.update_wrapper(wrapper, fn)
        wrapper.__wrapped_name__ = name
        return wrapper

    # -- lifetime ------------------------------------------------------------

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def job(self, name: str):
        """Trace one job; its root span covers the whole ``with`` body."""
        trace = JobTrace(self._next_job, name)
        self._next_job += 1
        root = Span(f"job:{name}", 0.0, None, trace.job_id)
        trace.spans.append(root)
        self._stack = [root]
        self._job = trace
        root.start = perf_counter()
        try:
            yield trace
        finally:
            root.end = perf_counter()
            self._job = None
            self._stack = []
            self.jobs.append(trace)
