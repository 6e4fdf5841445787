"""Span tracer for traced benchmark runs.

The tracer wraps named ``hypolib`` functions from outside the package and
rebinds each wrapper in every ``hypolib`` module that holds the original:
``from .numerics import integrate_circle`` copies the binding, so patching
the defining module alone would miss those callers.  Methods are patched on
their class.  ``lru_cache`` objects are read through ``cache_info()``.

Each span records its name, start, end, parent span, thread and a work
count.  Parents are tracked with one stack per thread; ``parallel_map``
items run in worker threads and take the map's span as their parent.
Spans stay in memory until ``summary()``, which turns them into per-name
self time (duration minus the union of the child spans), call counts and
work counts.
"""

from __future__ import annotations

import importlib
import itertools
import math
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# spherical's switch between the trapezoid and the half-line quadrature,
# recomputed here from the radius argument.
TAU_SWITCH = 20.0

_DATUM_KINDS = {"Density": "density", "Atoms": "atoms", "FourierSeq": "fourier", "Mixture": "mixture"}


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _radius_side(args, kwargs) -> str:
    r = float(_arg(args, kwargs, 1, "r"))
    far = r > 0.0 and 2.0 * math.sqrt(r) / (1.0 - r) >= TAU_SWITCH
    return "far" if far else "near"


@dataclass(frozen=True)
class Target:
    """One traced function.

    module/attr locate it (attr may be ``Class.method``); name is the span
    name below the module; suffix, when given, extends the span name from
    the call's arguments; work takes a work count from the arguments;
    nodes counts the points at which the integrand (first argument) is
    evaluated; items marks parallel_map, whose mapped function is wrapped.
    """

    module: str
    attr: str
    name: Optional[str] = None
    suffix: Optional[Callable] = None
    work: Optional[Callable] = None
    nodes: bool = False
    items: bool = False

    @property
    def span(self) -> str:
        return f"{self.module}.{self.name or self.attr}"


TARGETS = (
    Target("numerics", "gauss_2f1_many", work=lambda a, k: np.size(_arg(a, k, 3, "xs"))),
    Target("numerics", "gauss_2f1"),
    Target("numerics", "integrate_circle", nodes=True),
    Target("numerics", "integrate_panels", nodes=True),
    Target("numerics", "integrate_halfline_peak"),
    Target("numerics", "circle_fft", work=lambda a, k: len(_arg(a, k, 0, "samples"))),
    Target("numerics", "parallel_map", items=True),
    Target("spherical", "spherical_function", suffix=_radius_side),
    Target("spherical", "closed_form_many"),
    Target("spherical", "closed_form"),
    Target("spherical", "radial_zeros"),
    Target("spherical", "zero_free_radius"),
    Target("spherical", "boundary_constant"),
    Target("kernels", "polyharmonic_kernel"),
    Target("polynomials", "ComplexPoly.evaluate",
           work=lambda a, k: np.size(_arg(a, k, 1, "w"))),
    Target("transforms", "poisson_transform",
           suffix=lambda a, k: _DATUM_KINDS.get(type(_arg(a, k, 2, "datum")).__name__, "other")),
    Target("transforms", "convergence_probe", suffix=lambda a, k: str(_arg(a, k, 3, "mode"))),
    Target("transforms", "DirichletSolution.verify"),
    Target("transforms", "RiquierSolution.verify"),
    Target("regions", "maximal_inequality_probe"),
    Target("regions", "_field_at_radius", name="field_at_radius",
           work=lambda a, k: np.size(_arg(a, k, 2, "g_samples"))),
    Target("regions", "fatou_probe"),
    Target("classical", "radial_log_weight"),
    Target("classical", "lacunary_circle_sup"),
    Target("classical", "lacunary_witness"),
    Target("acceptance", "run_criterion", name="criterion",
           suffix=lambda a, k: str(_arg(a, k, 0, "index"))),
)

# metric name -> (module, lru_cache object)
CACHES = {
    "spherical.spherical_function.hit_ratio": ("spherical", "_spherical_cached"),
    "regions.row_fft.hit_ratio": ("regions", "_row_fft"),
    "classical.radial_log_weight.hit_ratio": ("classical", "radial_log_weight"),
}


def _resolve(module: str, attr: str):
    """(owner, attribute name, object) for module.attr or module.Class.method."""
    owner = importlib.import_module(f"hypolib.{module}")
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, leaf, getattr(owner, leaf)


class Tracer:
    """Records spans around the TARGETS while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._id_lock = threading.Lock()
        self._local = threading.local()
        self._rebound: list[tuple] = []
        self._caches: dict = {}

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _next_id(self) -> int:
        with self._id_lock:
            return next(self._ids)

    def _wrap(self, target: Target, fn: Callable) -> Callable:
        tracer = self
        base = target.span

        def wrapper(*args, **kwargs):
            name = f"{base}.{target.suffix(args, kwargs)}" if target.suffix else base
            work = target.work(args, kwargs) if target.work else 0
            item_times: list[float] = []
            nodes = [0]
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            sid = tracer._next_id()
            if target.nodes:
                f = args[0]

                def counted(x):
                    nodes[0] += np.size(x)
                    return f(x)

                args = (counted, *args[1:])
            if target.items:
                items = list(args[1])
                args = (tracer._item_wrapper(sid, args[0], item_times), items, *args[2:])
                work = len(items)
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((
                    sid, name, start, end, parent, threading.get_ident(),
                    work + nodes[0], sum(item_times),
                ))

        wrapper.__wrapped__ = fn
        return wrapper

    def _item_wrapper(self, map_sid: int, fn: Callable, item_times: list) -> Callable:
        tracer = self

        def item(x):
            stack = tracer._stack()
            pushed = not stack or stack[-1] != map_sid
            if pushed:
                stack.append(map_sid)
            start = time.perf_counter()
            try:
                return fn(x)
            finally:
                item_times.append(time.perf_counter() - start)
                if pushed:
                    stack.pop()

        return item

    def install(self) -> None:
        """Wrap every target and rebind it wherever hypolib holds it."""
        if self._rebound:
            raise RuntimeError("tracer already installed")
        for metric, (module, attr) in CACHES.items():
            cache = _resolve(module, attr)[2]
            self._caches[metric] = (cache, cache.cache_info())
        for target in TARGETS:
            owner, leaf, orig = _resolve(target.module, target.attr)
            wrapper = self._wrap(target, orig)
            if isinstance(owner, type):
                self._rebound.append((owner, leaf, orig))
                setattr(owner, leaf, wrapper)
                continue
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "hypolib" or mod_name.startswith("hypolib.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._rebound.append((mod, key, orig))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        """Put every original object back where install() found it."""
        for owner, key, orig in reversed(self._rebound):
            setattr(owner, key, orig)
        self._rebound.clear()

    @property
    def rebound(self) -> list[tuple]:
        return list(self._rebound)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def summary(self) -> dict:
        """Additive per-name totals: self_s, incl_s, calls, work, items_s;
        and per-cache [hits, misses] since install()."""
        children = defaultdict(list)
        for sid, _, start, end, parent, *_ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        totals: dict = {}
        for sid, name, start, end, _, _, work, items_s in self.spans:
            covered = _union_length(children.get(sid, ()), start, end)
            t = totals.setdefault(
                name, {"self_s": 0.0, "incl_s": 0.0, "calls": 0, "work": 0, "items_s": 0.0}
            )
            t["self_s"] += (end - start) - covered
            t["incl_s"] += end - start
            t["calls"] += 1
            t["work"] += int(work)
            t["items_s"] += items_s
        caches = {}
        for metric, (cache, before) in self._caches.items():
            now = cache.cache_info()
            caches[metric] = [now.hits - before.hits, now.misses - before.misses]
        return {"spans": totals, "caches": caches}


def _union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def merge(summaries) -> dict:
    """Sum summaries of several traced processes."""
    out = {"spans": {}, "caches": {}}
    for s in summaries:
        for name, t in s["spans"].items():
            acc = out["spans"].setdefault(name, dict.fromkeys(t, 0))
            for key, value in t.items():
                acc[key] += value
        for metric, (hits, misses) in s["caches"].items():
            acc = out["caches"].setdefault(metric, [0, 0])
            acc[0] += hits
            acc[1] += misses
    return out


# Per-layer metrics read from spans: (span name, measures).  "s" is self
# time, "calls" the call count; any other measure (lanes, nodes, points,
# items) is the span's work count.
_SPAN_METRICS = (
    ("numerics.gauss_2f1_many", ("s", "calls", "lanes")),
    ("numerics.gauss_2f1", ("s", "calls")),
    ("numerics.integrate_circle", ("s", "calls", "nodes")),
    ("numerics.integrate_panels", ("s", "calls", "nodes")),
    ("numerics.integrate_halfline_peak", ("s", "calls")),
    ("numerics.circle_fft", ("calls", "points")),
    ("numerics.parallel_map", ("s", "items")),
    ("spherical.spherical_function.near", ("s", "calls")),
    ("spherical.spherical_function.far", ("s", "calls")),
    ("spherical.closed_form_many", ("s", "calls")),
    ("spherical.closed_form", ("s", "calls")),
    ("spherical.radial_zeros", ("s",)),
    ("spherical.zero_free_radius", ("s",)),
    ("spherical.boundary_constant", ("s",)),
    ("kernels.polyharmonic_kernel", ("s", "calls")),
    ("polynomials.ComplexPoly.evaluate", ("s", "calls", "points")),
    *((f"transforms.poisson_transform.{k}", ("s", "calls"))
      for k in ("density", "atoms", "fourier", "mixture")),
    *((f"transforms.convergence_probe.{m}", ("s",))
      for m in ("uniform", "pointwise-ae", "Lp", "weak-star")),
    ("transforms.DirichletSolution.verify", ("s",)),
    ("transforms.RiquierSolution.verify", ("s",)),
    ("regions.maximal_inequality_probe", ("s",)),
    ("regions.field_at_radius", ("s", "calls", "points")),
    ("regions.fatou_probe", ("s",)),
    ("classical.radial_log_weight", ("s", "calls")),
    ("classical.lacunary_circle_sup", ("s", "calls")),
    ("classical.lacunary_witness", ("s",)),
)


def _unit(measure: str) -> str:
    return "s" if measure == "s" else "count"


def layer_metric_names(criteria, cli_names) -> list[tuple[str, str]]:
    """Every per-layer metric a traced run reports, with its unit."""
    names = []
    for span, measures in _SPAN_METRICS:
        names.extend((f"{span}.{m}", _unit(m)) for m in measures)
    names += [
        ("numerics.parallel_map.concurrency", "ratio"),
        ("numerics.parallel_map.wall_s", "s"),
        ("numerics.parallel_map.serial_s", "s"),
    ]
    names += [(metric, "ratio") for metric in CACHES]
    names += [(f"acceptance.criterion.{i}.s", "s") for i in criteria]
    for name in cli_names:
        names += [(f"cli.{name}.s", "s"), (f"cli.{name}.rss_mb", "MB")]
    names += [(f"setup.{pkg}_s", "s") for pkg in ("scipy", "numpy", "mpmath", "hypolib")]
    names += [("trace.overhead_s", "s")]
    return names


def span_metrics(summary: dict, serial: Optional[dict] = None) -> dict:
    """Per-layer values that come from spans and caches."""
    spans = summary["spans"]
    zero = {"self_s": 0.0, "incl_s": 0.0, "calls": 0, "work": 0, "items_s": 0.0}
    out = {}
    for span, measures in _SPAN_METRICS:
        t = spans.get(span, zero)
        for m in measures:
            out[f"{span}.{m}"] = {"s": t["self_s"], "calls": t["calls"]}.get(m, t["work"])
    pm = spans.get("numerics.parallel_map", zero)
    out["numerics.parallel_map.concurrency"] = pm["items_s"] / pm["incl_s"] if pm["incl_s"] else 0.0
    out["numerics.parallel_map.wall_s"] = pm["incl_s"]
    serial_pm = (serial or {"spans": {}})["spans"].get("numerics.parallel_map", zero)
    out["numerics.parallel_map.serial_s"] = serial_pm["incl_s"]
    for metric, (hits, misses) in summary["caches"].items():
        out[metric] = hits / (hits + misses) if hits + misses else 0.0
    for name, t in spans.items():
        if name.startswith("acceptance.criterion."):
            out[f"{name}.s"] = t["self_s"]
    return out
