"""Submanifolds of parameter space and coarse-grained information.

A submanifold restricts attention to a k-dimensional family of parameter
values. Pulling both metrics back through the embedding gives the
coarse-grained geometric effective information, and scanning it against the
full model over a noise (or timescale) sweep locates the crossovers where a
description of lower dimension starts carrying more information.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import typing as tp

import numpy as np

from .channels import Domain
from .ei import EIReport, _field_grid, ei_geometric
from .errors import CausalGeomError, DegenerateEmbeddingError, InvalidConfigError
from .geometry import MetricField, _sym

logger = logging.getLogger(__name__)


@dataclasses.dataclass(frozen=True)
class Submanifold:
    """A smooth embedding of a box of coordinates into parameter space.

    ``embed`` maps (..., k) to (..., d); ``jacobian`` maps (..., k) to
    (..., d, k) and must have full column rank everywhere.
    """

    embed: tp.Callable[[np.ndarray], np.ndarray]
    jacobian: tp.Callable[[np.ndarray], np.ndarray]
    sigma_domain: Domain
    label: str

    @property
    def dim(self) -> int:
        return self.sigma_domain.dim


def _embedding_jacobian(sub: Submanifold, dims: tp.Iterable[int], points: np.ndarray) -> np.ndarray:
    """The embedding Jacobian (n, d, k) at ``points``, checked for shape and rank.

    Raises InvalidConfigError when it is not (d, k) for each metric dimension
    d in ``dims``, and DegenerateEmbeddingError where it is rank deficient.
    """
    jac = np.asarray(sub.jacobian(points), dtype=float)  # (n, d, k)
    for dim in dims:
        if jac.shape != (len(points), dim, sub.dim):
            raise InvalidConfigError(
                f"embedding Jacobian has shape {jac.shape[1:]}, expected {(dim, sub.dim)}"
            )
    if sub.dim == 1:  # the one singular value is the column norm
        svals = np.sqrt(np.sum(jac * jac, axis=1))
    else:
        svals = np.linalg.svd(jac, compute_uv=False)
    rank_deficient = svals[:, -1] <= 1e-12 * np.maximum(svals[:, 0], 1.0)
    if rank_deficient.any():
        bad = points[int(np.argmax(rank_deficient))]
        raise DegenerateEmbeddingError(f"embedding Jacobian is rank deficient at {bad}")
    return jac


def _pullback(m: MetricField, sub: Submanifold, jac: np.ndarray, points: np.ndarray) -> np.ndarray:
    """J^T m J at ``points``, given the embedding Jacobian J there."""
    mats = m.batch(np.asarray(sub.embed(points), dtype=float))
    return _sym(np.swapaxes(jac, -1, -2) @ mats @ jac)


def _unchecked_pullback_field(m: MetricField, sub: Submanifold) -> MetricField:
    """:func:`pullback_field` for points whose embedding Jacobian is already checked."""

    def batch(points: np.ndarray) -> np.ndarray:
        return _pullback(m, sub, np.asarray(sub.jacobian(points), dtype=float), points)

    return MetricField(lambda sigma: batch(sigma[None])[0], sub.dim, batch)


def pullback_field(m: MetricField, sub: Submanifold) -> MetricField:
    """The pulled-back metric J^T m J as a field over the submanifold coordinates.

    Raises InvalidConfigError when the embedding Jacobian is not (d, k), and
    DegenerateEmbeddingError where it is rank deficient.
    """

    def batch(points: np.ndarray) -> np.ndarray:
        return _pullback(m, sub, _embedding_jacobian(sub, (m.dim,), points), points)

    return MetricField(lambda sigma: batch(sigma[None])[0], sub.dim, batch)


def coarse_grained_ei(model, sub: Submanifold, nodes_per_axis: int = 101) -> EIReport:
    """Geometric effective information of the model restricted to a submanifold.

    ``model`` must expose metric fields ``g`` and ``h``; both are pulled back
    through the embedding and integrated over the submanifold's own box, with
    the dimension in the volume term equal to the submanifold dimension. The
    embedding Jacobian is checked once on that box's grid, for both fields.
    """
    grid = _field_grid(sub.sigma_domain, nodes_per_axis)[0]
    _embedding_jacobian(sub, (model.h.dim, model.g.dim), grid)
    g_hat = _unchecked_pullback_field(model.g, sub)
    h_hat = _unchecked_pullback_field(model.h, sub)
    return ei_geometric(g_hat, h_hat, sub.sigma_domain, nodes_per_axis)


# ---------------------------------------------------------------------------
# sweeps and crossovers
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SweepSpec:
    """A one-dimensional sweep over a named model quantity."""

    variable: str
    values: np.ndarray
    log: bool = False

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 2:
            raise InvalidConfigError("sweep needs at least two values")
        if not np.all(np.diff(vals) > 0):
            raise InvalidConfigError("sweep values must be strictly increasing")
        if self.log and not np.all(vals > 0):
            raise InvalidConfigError("log-spaced sweep values must be positive")
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_range(
        cls, variable: str, start: float, stop: float, steps: int, log: bool
    ) -> "SweepSpec":
        if steps < 2:
            raise InvalidConfigError("sweep needs at least two steps")
        if log:
            if not (start > 0 and stop > 0):
                raise InvalidConfigError("log-spaced sweep values must be positive")
            vals = np.geomspace(start, stop, steps)
        else:
            vals = np.linspace(start, stop, steps)
        return cls(variable, vals, log)


@dataclasses.dataclass(frozen=True)
class Crossing:
    """A refined location where two curves exchange order."""

    first: str
    second: str
    value: float
    bracket: tuple[float, float]


@dataclasses.dataclass(frozen=True)
class CrossoverScan:
    """Curves over a sweep, per-point winners, and refined crossings."""

    sweep: SweepSpec
    curves: dict[str, list[EIReport | None]]
    argmax: list[str | None]
    crossings: tuple[Crossing, ...]


CurveFn = tp.Callable[[float], EIReport]


def _refine_crossing(
    fn_a: CurveFn, fn_b: CurveFn, lo: float, hi: float, d_lo: float, log: bool
) -> tuple[float, tuple[float, float]]:
    """Bisect the sign change of fn_a - fn_b inside [lo, hi].

    The bracket comes from adjacent sweep grid points, so roughly ten extra
    EI evaluations reach a relative width of 1e-3.
    """
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    sign_lo = math.copysign(1.0, d_lo)
    for _ in range(40):
        mid = 0.5 * (a + b)
        value = math.exp(mid) if log else mid
        if abs(b - a) <= 1e-3 * max(abs(mid), 1e-30):
            break
        diff = fn_a(value).nats - fn_b(value).nats
        if math.copysign(1.0, diff) == sign_lo:
            a = mid
        else:
            b = mid
    lo_v, hi_v = (math.exp(a), math.exp(b)) if log else (a, b)
    mid_v = math.exp(0.5 * (a + b)) if log else 0.5 * (a + b)
    return mid_v, (lo_v, hi_v)


def crossover_scan(
    models: tp.Sequence[tuple[str, CurveFn]],
    sweep: SweepSpec,
) -> CrossoverScan:
    """Evaluate each model's EI curve over the sweep and locate crossings.

    Points where a curve fails to evaluate (degenerate model, unreachable
    parameters, ...) are kept as gaps, each logged as a warning: they are
    excluded from the winner count and never used as crossing brackets.
    """
    if len(models) < 1:
        raise InvalidConfigError("crossover scan needs at least one model")
    labels = [label for label, _ in models]
    if len(set(labels)) != len(labels):
        raise InvalidConfigError("model labels must be distinct")
    fns = dict(models)
    # Crossings that share a grid bracket bisect it through the same
    # midpoints, so each (curve, value) is evaluated once per scan.
    memo: dict[tuple[str, float], EIReport] = {}

    def curve(label: str) -> CurveFn:
        def call(value: float) -> EIReport:
            if (label, value) not in memo:
                memo[label, value] = fns[label](value)
            return memo[label, value]

        return call

    curves: dict[str, list[EIReport | None]] = {label: [] for label in labels}
    for v in sweep.values:
        for label in labels:
            try:
                curves[label].append(curve(label)(float(v)))
            except CausalGeomError as exc:
                logger.warning(
                    "%s at %s = %r left as a gap: %s", label, sweep.variable, float(v), exc
                )
                curves[label].append(None)

    argmax: list[str | None] = []
    for i in range(sweep.values.size):
        best, best_val = None, -math.inf
        for label in labels:
            rep = curves[label][i]
            if rep is not None and rep.nats > best_val:
                best, best_val = label, rep.nats
        argmax.append(best)

    crossings: list[Crossing] = []
    for ia in range(len(labels)):
        for ib in range(ia + 1, len(labels)):
            la, lb = labels[ia], labels[ib]
            for i in range(sweep.values.size - 1):
                quad = (curves[la][i], curves[lb][i], curves[la][i + 1], curves[lb][i + 1])
                if any(r is None for r in quad):
                    continue
                d0 = quad[0].nats - quad[1].nats
                d1 = quad[2].nats - quad[3].nats
                if d0 == 0.0 or math.copysign(1.0, d0) != math.copysign(1.0, d1):
                    value, bracket = _refine_crossing(
                        curve(la),
                        curve(lb),
                        float(sweep.values[i]),
                        float(sweep.values[i + 1]),
                        d0,
                        sweep.log,
                    )
                    crossings.append(Crossing(la, lb, value, bracket))
    return CrossoverScan(sweep=sweep, curves=curves, argmax=argmax, crossings=tuple(crossings))
