"""Span tracer that wraps lowdisc's public functions from outside the library.

Every public function of each layer module gets a wrapper that records a span
(name, start, end, parent, job); per-element helpers get a wrapper that only
counts calls.  ``cli`` and ``bounds`` import names directly, so each wrapper
replaces every binding of the same function object across the ``lowdisc``
modules.  Spans opened in ``pmap`` worker threads take the enclosing ``pmap``
span as their parent.  Spans stay in memory and are written as one JSON file
when the job ends.
"""

from __future__ import annotations

import bisect
import functools
import importlib
import inspect
import itertools
import json
import math
import sys
import threading
import time
from fractions import Fraction

LAYERS = (
    "cli",
    "generators",
    "digits",
    "transforms",
    "digitsum_dist",
    "discrepancy",
    "expsums",
    "bounds",
    "_util",
)

# Helpers called once per point, digit or term: a span each would cost more
# than the work it measures, so these are only counted.
COUNT_ONLY = {
    "_util.as_fraction",
    "_util.format_fraction",
    "_util.int_nth_root",
    "_util.thread_count",
    "digits.expand",
    "digits.monna_plus",
    "digits.nearest_int_distance",
    "digits.radical_inverse",
    "digits.sum_of_digits",
    "digitsum_dist.gaussian_main_term",
    "digitsum_dist.sigma_q",
    "expsums.e_frac",
    "expsums.gamma_k",
    "expsums.phi_fraction",
    "expsums.rho_weight",
    "transforms.apply",
    "transforms.is_unimodal",
    "transforms.multiplicity_F",
}

# Sequence classes whose .point calls are counted as generators.point.
POINT_CLASSES = ("VanDerCorput", "Halton", "DigitalSequence")

CACHED = ("digitsum_dist", "_convolution_counts")


def _fraction(x) -> Fraction:
    return x.as_fraction() if hasattr(x, "as_fraction") else Fraction(x)


def _axes(points) -> list[list[Fraction]]:
    """Sorted distinct coordinates per axis, as the grid enumeration sees them."""
    rows = []
    for pt in points:
        if hasattr(pt, "coords"):
            coords = pt.coords
        elif isinstance(pt, (tuple, list)):
            coords = pt
        else:
            coords = (pt,)
        rows.append([_fraction(c) for c in coords])
    return [sorted(set(col)) for col in zip(*rows)]


def _grid_work(args, result) -> dict:
    points = list(args["points"])
    closed = opened = 1
    for ax in _axes(points):
        closed *= len(ax) * (len(ax) + 1) // 2
        highs = ax + [Fraction(1)]
        opened *= sum(len(highs) - bisect.bisect_right(highs, lo) for lo in [Fraction(0)] + ax)
    boxes = closed + opened
    return {"boxes": boxes, "box_point_evals": boxes * len(points)}


def _star_work(args, result) -> dict:
    axes = _axes(list(args["points"]))
    if len(axes) == 1:
        return {"corners": len(axes[0])}
    return {"corners": math.prod(len(ax) + 1 for ax in axes)}


def _window_work(args, result) -> dict:
    k_max = args["k_max"] if args["k_max"] is not None else 4 * args["n"]
    return {"shifts": k_max + 1}


# Work counts taken from a call's arguments and result, keyed by span name.
WORK = {
    "generators.points": lambda a, r: {"count": len(r)},
    "transforms.value_counts_below": lambda a, r: {"distinct": len(r)},
    "discrepancy.extreme_discrepancy_grid": _grid_work,
    "discrepancy.star_discrepancy": _star_work,
    "discrepancy.extreme_discrepancy_1d": lambda a, r: {"points": len(a["points"])},
    "discrepancy.windowed_uniform_discrepancy": _window_work,
    "expsums.weyl_sum": lambda a, r: {"method": r.method},
}


class Tracer:
    def __init__(self, job: str):
        self.job = job
        self.spans: list[list] = []
        self.wrapped: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._thread_counts: list[dict[str, int]] = []  # one per counting thread, so no lock

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> list:
        stack = self._stack()
        span = [next(self._ids), name, time.perf_counter(), None, stack[-1][0] if stack else None, {}]
        stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    def count(self, name: str) -> None:
        counts = getattr(self._local, "counts", None)
        if counts is None:
            counts = self._local.counts = {}
            self._thread_counts.append(counts)
        counts[name] = counts.get(name, 0) + 1

    def counts(self) -> dict[str, int]:
        total: dict[str, int] = {}
        for counts in self._thread_counts:
            for name, n in counts.items():
                total[name] = total.get(name, 0) + n
        return total

    def span_wrapper(self, name: str, fn):
        work = WORK.get(name)
        signature = inspect.signature(fn) if work else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if work:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span[5].update(work(bound.arguments, result))
            return result

        return wrapper

    def count_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def pmap_wrapper(self, fn):
        """Time pmap and parent the spans of its worker threads on it."""

        @functools.wraps(fn)
        def wrapper(func, items):
            items = list(items)
            span = self.open("_util.pmap")
            cpu = time.process_time()

            def in_span(item):
                saved = getattr(self._local, "stack", None)
                self._local.stack = [span]
                try:
                    return func(item)
                finally:
                    self._local.stack = saved

            try:
                return fn(in_span, items)
            finally:
                span[5].update(items=len(items), cpu_s=time.process_time() - cpu)
                self.close(span)

        return wrapper

    def install(self) -> None:
        replacements = {}
        for layer in LAYERS:
            try:
                module = importlib.import_module(f"lowdisc.{layer}")
            except ImportError:
                continue
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                if attr == "pmap" and layer == "_util":
                    wrapper = self.pmap_wrapper(obj)
                elif attr.startswith("_"):
                    continue
                elif name in COUNT_ONLY:
                    wrapper = self.count_wrapper(name, obj)
                else:
                    wrapper = self.span_wrapper(name, obj)
                replacements[id(obj)] = wrapper
                self.wrapped.append(name)
            if layer == "generators":
                for cls_name in POINT_CLASSES:
                    cls = getattr(module, cls_name, None)
                    if cls is not None and "point" in vars(cls):
                        cls.point = self.count_wrapper("generators.point", cls.point)
                        self.wrapped.append(f"generators.{cls_name}.point")
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "lowdisc" and not mod_name.startswith("lowdisc."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None:
                    setattr(module, attr, wrapper)

    def cache_info(self) -> dict | None:
        module = sys.modules.get(f"lowdisc.{CACHED[0]}")
        cached = getattr(module, CACHED[1], None)
        if not hasattr(cached, "cache_info"):
            return None
        info = cached.cache_info()
        return {"hits": info.hits, "misses": info.misses}

    def dump(self, path: str) -> None:
        record = {
            "job": self.job,
            "spans": self.spans,
            "counts": self.counts(),
            "cache": self.cache_info(),
            "wrapped": self.wrapped,
        }
        with open(path, "w") as fh:
            json.dump(record, fh)


def run_traced(argv: list[str], trace_file: str) -> int:
    tracer = Tracer(" ".join(argv))
    tracer.install()
    try:
        return sys.modules["lowdisc.cli"].main(argv)
    finally:
        tracer.dump(trace_file)
