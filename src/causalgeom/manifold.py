"""Submanifolds of parameter space and coarse-grained information.

A submanifold restricts attention to a line through parameter space, a
one-parameter family of parameter values. Pulling both metrics back onto the
line gives the coarse-grained geometric effective information, and scanning
it against the full model over a noise (or timescale) sweep locates the
crossovers where a description of lower dimension starts carrying more
information.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import typing as tp

import numpy as np

from .channels import Domain
from .ei import EIReport, ei_geometric
from .errors import CausalGeomError, InvalidConfigError, _require_integer
from .geometry import MetricField

logger = logging.getLogger(__name__)


@dataclasses.dataclass(frozen=True)
class Submanifold:
    """The line sigma -> offset + sigma * direction through parameter space.

    ``offset`` and ``direction`` are finite 1-D arrays of the parameter
    dimension d, and ``sigma_domain`` is the one-dimensional box sigma ranges
    over. They are checked once, here: InvalidConfigError for any value that
    does not make a line, a zero direction included.
    """

    offset: np.ndarray
    direction: np.ndarray
    sigma_domain: Domain
    label: str

    def __post_init__(self) -> None:
        offset = np.asarray(self.offset, dtype=float)
        direction = np.asarray(self.direction, dtype=float)
        if self.sigma_domain.dim != 1:
            raise InvalidConfigError("a submanifold line needs a one-dimensional sigma domain")
        if offset.ndim != 1 or direction.shape != offset.shape:
            raise InvalidConfigError(
                f"offset {offset.shape} and direction {direction.shape} must be 1-D of one length"
            )
        if not np.isfinite([offset, direction]).all():
            raise InvalidConfigError(f"submanifold {self.label!r} has a non-finite offset or direction")
        if not direction.any():
            raise InvalidConfigError(f"submanifold {self.label!r} has a zero direction")
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "direction", direction)

    def embed(self, points: np.ndarray) -> np.ndarray:
        """Parameter points (n, d) of the line at coordinates ``points`` (n, 1)."""
        return self.offset + points * self.direction


def pullback_field(m: MetricField, sub: Submanifold) -> MetricField:
    """The pulled-back metric a^T m a as a field over the line's coordinate.

    For the direction a it is the sum of a_i a_k m_ik over the lower triangle
    of m, row by row, each off-diagonal term twice: taken on m's entries at
    the line's coordinates offset_k + sigma * a_k (:attr:`MetricField.entries`),
    with no (n, d, d) stack or product formed. So a constant m pulls back to
    a scalar. Raises InvalidConfigError when the direction's length is not
    m's dimension.
    """
    a, offset = sub.direction.tolist(), sub.offset.tolist()
    if len(a) != m.dim:
        raise InvalidConfigError(
            f"submanifold {sub.label!r} lies in {len(a)} dimensions, the metric in {m.dim}"
        )
    # The weight a_i a_k of each entry, doubled off the diagonal, formed once.
    weights = [(2.0 if k < i else 1.0) * a[i] * a[k] for i in range(m.dim) for k in range(i + 1)]

    def entries(coords: tp.Sequence[np.ndarray]) -> tuple[np.ndarray]:
        parent = m.entries(tuple(offset[k] + coords[0] * a[k] for k in range(m.dim)))
        total = weights[0] * parent[0]
        for weight, entry in zip(weights[1:], parent[1:]):
            total = total + weight * entry
        return (total,)

    return MetricField(entries, 1)


def coarse_grained_ei(model, sub: Submanifold, nodes_per_axis: int = 101) -> EIReport:
    """Geometric effective information of the model restricted to a submanifold.

    ``model`` must expose metric fields ``g`` and ``h``; both are pulled back
    onto the line and integrated over its sigma interval, with dimension one
    in the volume term.
    """
    g_hat, h_hat = pullback_field(model.g, sub), pullback_field(model.h, sub)
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
        _require_integer("steps", steps)
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
    """Where two curves exchange order: a refined root, or an exact tie."""

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
) -> tuple[float, tuple[float, float]] | None:
    """Bisect the sign change of fn_a - fn_b inside [lo, hi].

    The bracket comes from adjacent sweep grid points. Bisection runs in v,
    or in ln v on a log sweep, and stops once the bracket [a, b] in that
    coordinate has |b - a| <= 1e-3 * max(|(a + b) / 2|, 1e-30), or after 40
    halvings. On a log sweep the width is thus relative to |ln v|, not to v:
    the stop tightens as the crossing nears v = 1 and loosens away from it.
    A NaN difference at a midpoint (both curves at the same infinity) has no
    sign, so it ends the refinement and None is returned: no crossing.
    """
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    sign_lo = math.copysign(1.0, d_lo)
    for _ in range(40):
        mid = 0.5 * (a + b)
        value = math.exp(mid) if log else mid
        if abs(b - a) <= 1e-3 * max(abs(mid), 1e-30):
            break
        diff = fn_a(value).nats - fn_b(value).nats
        if math.isnan(diff):
            return None
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
    A grid point where two curves are exactly equal is reported as a crossing
    there, with the bracket (v, v); a grid bracket is refined only where the
    differences at its ends have strictly opposite signs, and one whose
    refinement meets a NaN difference is logged as a warning and reports no
    crossing.
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
            # A gap leaves no difference, and two curves both at -inf (or both
            # at +inf) a NaN one; neither has a sign.
            diffs = [
                math.nan if ra is None or rb is None else ra.nats - rb.nats
                for ra, rb in zip(curves[la], curves[lb])
            ]
            for i, d0 in enumerate(diffs):
                v0 = float(sweep.values[i])
                if d0 == 0.0:  # an exact tie is its own crossing, at the grid value
                    crossings.append(Crossing(la, lb, v0, (v0, v0)))
                if i + 1 < len(diffs) and (d0 < 0.0 < diffs[i + 1] or diffs[i + 1] < 0.0 < d0):
                    v1 = float(sweep.values[i + 1])
                    refined = _refine_crossing(curve(la), curve(lb), v0, v1, d0, sweep.log)
                    if refined is None:
                        logger.warning(
                            "%s - %s is NaN inside %s in (%r, %r): no crossing reported there",
                            la, lb, sweep.variable, v0, v1,
                        )
                    else:
                        crossings.append(Crossing(la, lb, *refined))
    return CrossoverScan(sweep=sweep, curves=curves, argmax=argmax, crossings=tuple(crossings))
