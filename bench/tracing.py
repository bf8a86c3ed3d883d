"""Spans, counters and per-layer metrics for the traced benchmark pass.

The wrappers live in the benchmark, not in the package. ``install`` swaps
every binding of the traced public functions and methods across the loaded
``causalgeom`` modules (``cli`` and ``manifold`` import the estimators by
name, so patching ``causalgeom.ei`` alone would miss their calls) and puts
the originals back on exit. Exceptions pass through unchanged, so the CLI's
``UseMonteCarloError`` fallback still runs.

Spans of one op share a run identifier. The CLI's thread pool does not copy
``contextvars``, so a span opened on a thread with no open span of its own
takes the op's outermost open span as its parent and the op's identifier.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import functools
import inspect
import itertools
import math
import sys
import threading
import time
import typing as tp

ESTIMATORS = ("ei.quad", "ei.mc", "ei.geom")

# (name, unit) of every per-layer metric, in report order.
LAYER_METRICS = (
    ("cli.main.wall_s", "s"),
    ("cli.self_s", "s"),
    ("cli.pool_util", "ratio"),
    ("manifold.scan.busy_s", "s"),
    ("manifold.scan.self_s", "s"),
    ("manifold.scan.grid_evals", "count"),
    ("manifold.scan.refine_evals", "count"),
    ("manifold.coarse.busy_s", "s"),
    ("ei.quad.calls", "count"),
    ("ei.quad.busy_s", "s"),
    ("ei.quad.checked_calls", "count"),
    ("ei.quad.effect_nodes", "count"),
    ("ei.quad.nodes_per_s", "1/s"),
    ("ei.quad.refused", "count"),
    ("ei.mc.calls", "count"),
    ("ei.mc.busy_s", "s"),
    ("ei.mc.samples", "count"),
    ("ei.mc.samples_per_s", "1/s"),
    ("ei.geom.calls", "count"),
    ("ei.geom.busy_s", "s"),
    ("ei.geom.self_s", "s"),
    ("ei.geom.grid_points", "count"),
    ("ei.flagged", "count"),
    ("geometry.metric.busy_s", "s"),
    ("geometry.metric.points", "count"),
    ("models.build.calls", "count"),
    ("models.build.busy_s", "s"),
    ("channels.mean.rows", "count"),
    ("channels.mean.busy_s", "s"),
    ("trace.overhead_share", "ratio"),
)


@dataclasses.dataclass
class Span:
    id: int
    name: str
    parent: int | None
    run: int | None
    thread: int
    start: float
    end: float = math.nan
    attrs: dict = dataclasses.field(default_factory=dict)
    error: str | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans and counters in memory; safe to use from pool threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: collections.Counter = collections.Counter()
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._runs = itertools.count()
        self._local = threading.local()
        self._run: int | None = None
        self._root: int | None = None

    def begin_run(self) -> int:
        """Start a new op; spans opened until the next call share its identifier."""
        with self._lock:
            self._run = next(self._runs)
            return self._run

    def count(self, key: str) -> None:
        with self._lock:
            self.counts[key] += 1

    @contextlib.contextmanager
    def span(self, name: str) -> tp.Iterator[Span]:
        stack = self._local.__dict__.setdefault("stack", [])
        with self._lock:
            parent = stack[-1] if stack else self._root
            sp = Span(next(self._ids), name, parent, self._run, threading.get_ident(), 0.0)
            self.spans.append(sp)
            if parent is None:
                self._root = sp.id
        stack.append(sp.id)
        sp.start = time.perf_counter()
        try:
            yield sp
        except BaseException as exc:
            sp.error = type(exc).__name__
            raise
        finally:
            sp.end = time.perf_counter()
            stack.pop()
            with self._lock:
                if self._root == sp.id:
                    self._root = None


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

# An annotator takes a thunk giving the call's bound arguments and the result,
# and returns the span's work counts; it runs after the span has ended.
Annotate = tp.Callable[[tp.Callable[[], inspect.BoundArguments], tp.Any], dict]


def _wrap(tracer: Tracer, name: str, fn: tp.Callable, annotate: Annotate | None = None):
    sig = inspect.signature(fn)

    def bind(args: tuple, kwargs: dict) -> inspect.BoundArguments:
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name) as sp:
            result = fn(*args, **kwargs)
        if annotate is not None:
            sp.attrs.update(annotate(lambda: bind(args, kwargs), result))
        return result

    return traced


def _flagged(result) -> dict:
    return {"flagged": bool(result.flags)}


def _quad_attrs(bind, result) -> dict:
    from causalgeom import DiscretePoints, QuadratureSpec

    b = bind()
    n = (b.arguments["spec"] or QuadratureSpec()).nodes_per_axis
    x_set = b.arguments["x_set"]
    discrete = isinstance(x_set, DiscretePoints)
    k = len(x_set.points) if discrete else n
    nodes = k * n
    checked = bool(b.arguments["check_convergence"])
    if checked:
        nodes += (k if discrete else 2 * n) * 2 * n
    return {"checked": checked, "effect_nodes": nodes, **_flagged(result)}


def _mc_attrs(bind, result) -> dict:
    from causalgeom import MonteCarloSpec

    b = bind()
    spec = b.arguments["spec"] or MonteCarloSpec()
    outer = spec.batches * -(-spec.outer_samples // spec.batches)
    return {"samples": outer * spec.inner_samples * 2, **_flagged(result)}


def _geom_attrs(bind, result) -> dict:
    b = bind()
    n = int(b.arguments["nodes_per_axis"])
    d = b.arguments["domain"].dim
    points = n + n % 2 if d == 1 else math.prod(n + k for k in range(d))
    return {"grid_points": points, **_flagged(result)}


def _metric_batch_attrs(bind, result) -> dict:
    return {"points": len(result)}


def _mean_attrs(bind, result) -> dict:
    shape = getattr(result, "shape", ())
    return {"rows": math.prod(shape[:-1]) if len(shape) > 1 else 1}


def _wrap_scan(tracer: Tracer, fn: tp.Callable):
    """crossover_scan with its curve callables counted by phase.

    Grid-phase calls hit a sweep value; bisection midpoints lie strictly
    inside a bracket of adjacent sweep values, so they never do.
    """

    @functools.wraps(fn)
    def traced(models, sweep, *args, **kwargs):
        grid = {float(v) for v in sweep.values}

        def counted(curve):
            def call(value):
                phase = "grid" if float(value) in grid else "refine"
                tracer.count(f"manifold.scan.{phase}_evals")
                return curve(value)

            return call

        models = [(label, counted(curve)) for label, curve in models]
        with tracer.span("manifold.scan"):
            return fn(models, sweep, *args, **kwargs)

    return traced


def _targets(tracer: Tracer) -> tuple[list[tuple[tp.Callable, tp.Callable]], list[tuple[type, str, tp.Callable]]]:
    """(original, wrapper) for functions; (class, attribute, wrapper) for methods."""
    import causalgeom.cli as cli
    import causalgeom.ei as ei
    import causalgeom.manifold as manifold
    import causalgeom.models as models
    from causalgeom.channels import GaussianChannel
    from causalgeom.geometry import MetricField

    funcs = [
        (cli.main, _wrap(tracer, "cli.main", cli.main)),
        (manifold.crossover_scan, _wrap_scan(tracer, manifold.crossover_scan)),
        (manifold.coarse_grained_ei, _wrap(tracer, "manifold.coarse", manifold.coarse_grained_ei)),
        (ei.ei_exact_quadrature, _wrap(tracer, "ei.quad", ei.ei_exact_quadrature, _quad_attrs)),
        (ei.ei_exact_mc, _wrap(tracer, "ei.mc", ei.ei_exact_mc, _mc_attrs)),
        (ei.ei_geometric, _wrap(tracer, "ei.geom", ei.ei_geometric, _geom_attrs)),
    ]
    for name, fn in vars(models).items():
        if inspect.isfunction(fn) and fn.__module__ == models.__name__ and not name.startswith("_"):
            funcs.append((fn, _wrap(tracer, "models.build", fn)))
    methods = [
        (MetricField, "batch", _wrap(tracer, "geometry.metric", MetricField.batch, _metric_batch_attrs)),
        (MetricField, "__call__", _wrap(tracer, "geometry.metric", MetricField.__call__, lambda b, r: {"points": 1})),
        (GaussianChannel, "mean", _wrap(tracer, "channels.mean", GaussianChannel.mean, _mean_attrs)),
    ]
    return funcs, methods


@contextlib.contextmanager
def install(tracer: Tracer) -> tp.Iterator[Tracer]:
    """Wrap every binding of the traced callables while the block runs."""
    funcs, methods = _targets(tracer)
    wrapper_of = {id(orig): wrapper for orig, wrapper in funcs}
    saved: list[tuple[tp.Any, str, tp.Any]] = []
    try:
        modules = [m for name, m in list(sys.modules.items()) if name == "causalgeom" or name.startswith("causalgeom.")]
        for module in modules:
            for attr, value in list(vars(module).items()):
                wrapper = wrapper_of.get(id(value))
                if wrapper is not None:
                    saved.append((module, attr, value))
                    setattr(module, attr, wrapper)
        for cls, attr, wrapper in methods:
            saved.append((cls, attr, cls.__dict__[attr]))
            setattr(cls, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics of one pass
# ---------------------------------------------------------------------------


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -math.inf
    for lo, hi in sorted(intervals):
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the union of its children's intervals.

    Children on pool threads overlap each other, so their union, clipped to
    the parent's interval, is what gets subtracted.
    """
    children: dict[int, list[Span]] = collections.defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = {}
    for s in spans:
        covered = [
            (max(c.start, s.start), min(c.end, s.end)) for c in children[s.id] if c.end > s.start and c.start < s.end
        ]
        out[s.id] = s.duration - _union_length(covered)
    return out


def layer_metrics(tracer: Tracer, threads: int) -> dict[str, float]:
    """Per-layer metrics of one pass (``trace.overhead_share`` is left to the caller).

    A layer's busy time sums the durations of its outermost spans, so nested
    spans of the same layer are not counted twice; it sums across threads.
    """
    spans = tracer.spans
    by_id = {s.id: s for s in spans}

    def ancestors(s: Span) -> tp.Iterator[Span]:
        while s.parent is not None:
            s = by_id[s.parent]
            yield s

    top: dict[str, list[Span]] = collections.defaultdict(list)
    under_cli: set[int] = set()
    for s in spans:
        names = [a.name for a in ancestors(s)]
        if s.name not in names:
            top[s.name].append(s)
        if "cli.main" in names:
            under_cli.add(s.id)
    selfs = self_times(spans)

    def busy(name: str) -> float:
        return sum(s.duration for s in top[name])

    def self_sum(name: str) -> float:
        return sum(selfs[s.id] for s in top[name])

    def attr_sum(name: str, key: str) -> float:
        return sum(s.attrs.get(key, 0) for s in top[name])

    def rate(work: float, seconds: float) -> float:
        return work / seconds if seconds > 0 else 0.0

    cli_wall = busy("cli.main")
    est_under_cli = sum(s.duration for name in ESTIMATORS for s in top[name] if s.id in under_cli)
    quad = top["ei.quad"]
    return {
        "cli.main.wall_s": cli_wall,
        "cli.self_s": self_sum("cli.main"),
        "cli.pool_util": rate(est_under_cli, cli_wall * threads),
        "manifold.scan.busy_s": busy("manifold.scan"),
        "manifold.scan.self_s": self_sum("manifold.scan"),
        "manifold.scan.grid_evals": tracer.counts["manifold.scan.grid_evals"],
        "manifold.scan.refine_evals": tracer.counts["manifold.scan.refine_evals"],
        "manifold.coarse.busy_s": busy("manifold.coarse"),
        "ei.quad.calls": len(quad),
        "ei.quad.busy_s": busy("ei.quad"),
        "ei.quad.checked_calls": sum(1 for s in quad if s.attrs.get("checked")),
        "ei.quad.effect_nodes": attr_sum("ei.quad", "effect_nodes"),
        "ei.quad.nodes_per_s": rate(attr_sum("ei.quad", "effect_nodes"), busy("ei.quad")),
        "ei.quad.refused": sum(1 for s in quad if s.error == "UseMonteCarloError"),
        "ei.mc.calls": len(top["ei.mc"]),
        "ei.mc.busy_s": busy("ei.mc"),
        "ei.mc.samples": attr_sum("ei.mc", "samples"),
        "ei.mc.samples_per_s": rate(attr_sum("ei.mc", "samples"), busy("ei.mc")),
        "ei.geom.calls": len(top["ei.geom"]),
        "ei.geom.busy_s": busy("ei.geom"),
        "ei.geom.self_s": self_sum("ei.geom"),
        "ei.geom.grid_points": attr_sum("ei.geom", "grid_points"),
        "ei.flagged": sum(1 for name in ESTIMATORS for s in top[name] if s.attrs.get("flagged")),
        "geometry.metric.busy_s": busy("geometry.metric"),
        "geometry.metric.points": attr_sum("geometry.metric", "points"),
        "models.build.calls": len(top["models.build"]),
        "models.build.busy_s": busy("models.build"),
        "channels.mean.rows": attr_sum("channels.mean", "rows"),
        "channels.mean.busy_s": busy("channels.mean"),
    }
