"""Built-in causal models.

Each constructor returns a frozen bundle holding the intervention set, the
intervention noise, the Gaussian effect channel, and (where closed forms
exist) the two metric fields over the parameter box. Response profiles are
defined on the whole real line and strictly increasing there, because exact
estimators must evaluate them a few noise widths beyond the nominal
parameter interval.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import sys
import typing as tp

import numpy as np

from ._quadrature import composite_gauss_legendre
from .channels import (
    ConstantIsotropic,
    DiagonalStateDependent,
    DiscretePoints,
    Domain,
    FullConstant,
    GaussianChannel,
    InterventionSet,
    NoiseSpec,
    UniformBox,
)
from .errors import InvalidConfigError, NumericalFailureError, _require_integer
from .geometry import MetricField, constant_metric, effect_metric
from .manifold import Submanifold

WEBER_FLOOR = 1e-3
# ln of the largest float: e^a overflows for a above it
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _check_scale(name: str, value: float) -> None:
    """Refuse a scale unless it is positive with a finite, nonzero square of finite reciprocal.

    The metrics divide by the square; a subnormal square (a scale below
    about 7.5e-155) is nonzero but its reciprocal overflows.
    """
    if not (value > 0.0 and 0.0 < value * value < math.inf and 1.0 / (value * value) < math.inf):
        raise InvalidConfigError(f"{name} must be positive with a finite, nonzero square, got {value}")


# ---------------------------------------------------------------------------
# response profiles
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class DimmerProfile:
    """A scalar response profile: f(0) = 0, f(1) = 1, strictly increasing.

    ``f`` and ``df`` accept arrays of any shape. Both must be valid on all of
    the real line, not just [0, 1].
    """

    f: tp.Callable[[np.ndarray], np.ndarray]
    df: tp.Callable[[np.ndarray], np.ndarray]
    label: str

    def __post_init__(self) -> None:
        ends = np.asarray(self.f(np.array([0.0, 1.0])), dtype=float)
        if abs(ends[0]) > 1e-9 or abs(ends[1] - 1.0) > 1e-9:
            raise InvalidConfigError(f"profile {self.label!r} must map 0 -> 0 and 1 -> 1")
        grid = np.linspace(0.0, 1.0, 101)
        if not np.all(np.asarray(self.df(grid), dtype=float) >= 0.0):
            raise InvalidConfigError(f"profile {self.label!r} must be nondecreasing on [0, 1]")


def linear_profile() -> DimmerProfile:
    return DimmerProfile(
        f=lambda t: np.asarray(t, dtype=float),
        df=lambda t: np.ones_like(np.asarray(t, dtype=float)),
        label="linear",
    )


def _exp_profile(a: float, label: str) -> DimmerProfile:
    """f(t) = (e^{a t} - 1) / (e^a - 1), a != 0, with the slope formed as the
    one exponential e^{a t + log(a / (e^a - 1))}: unlike the product
    a e^{a t}, which overflows for a near ln(DBL_MAX), it is finite wherever
    the slope is."""
    denom = math.expm1(a)
    log_scale = math.log(a / denom)

    def f(t):
        return np.expm1(a * np.asarray(t, dtype=float)) / denom

    def df(t):
        return np.exp(a * np.asarray(t, dtype=float) + log_scale)

    return DimmerProfile(f=f, df=df, label=label)


def family_profile(a: float) -> DimmerProfile:
    """One member of the exponential profile family, linear at a = 0.

    The parameter bends the response: a < 0 rises steeply then saturates,
    a > 0 stays flat then shoots up. Restricted to |a| <= 5, where the
    profiles stay numerically tame on the extended evaluation range.
    """
    if not -5.0 <= a <= 5.0:
        raise InvalidConfigError(f"family parameter must lie in [-5, 5], got {a}")
    if a == 0.0:
        return linear_profile()
    return _exp_profile(a, f"family(a={a:g})")


def power_profile(p: float) -> DimmerProfile:
    """f(theta) = theta^p on [0, 1], extended oddly so it stays increasing."""
    if p < 1.0:
        raise InvalidConfigError("power profile needs p >= 1")

    def f(t):
        t = np.asarray(t, dtype=float)
        return np.sign(t) * np.abs(t) ** p

    def df(t):
        t = np.asarray(t, dtype=float)
        return p * np.abs(t) ** (p - 1.0)

    return DimmerProfile(f=f, df=df, label=f"power(p={p:g})")


def weber_optimal_profile(r: float) -> DimmerProfile:
    """The exponential profile matched to relative (Weber-type) effect noise.

    With effect noise proportional to the output, equal steps of the
    parameter should produce equal *relative* steps of the response, which
    gives f(theta) = (e^{theta/r} - 1) / (e^{1/r} - 1). e^{1/r} overflows
    for r below 1/ln(DBL_MAX), about 1.409e-3, which is refused.
    """
    if r <= 0.0:
        raise InvalidConfigError("rate parameter r must be positive")
    if not 1.0 / r <= _LOG_FLOAT_MAX:
        raise InvalidConfigError(
            f"rate parameter r must be at least {1.0 / _LOG_FLOAT_MAX:.4g}, as e^(1/r) overflows below it, got {r}"
        )
    return _exp_profile(1.0 / r, f"weber-optimal(r={r:g})")


def weber_noise(eps0: float, floor: float = WEBER_FLOOR) -> DiagonalStateDependent:
    """Relative effect noise sigma(y) = eps0 * max(y, floor).

    The floor keeps the noise positive near (and below) zero output, where a
    literal proportional law would make the channel deterministic. The spec
    names that output among its ``kinks``, so exact quadrature can put a
    breakpoint there. Both scales pass the one scale rule, under the
    config keys ``epsilon0`` and ``floor``.
    """
    _check_scale("epsilon0", eps0)
    _check_scale("floor", floor)

    def sigma(y: np.ndarray) -> np.ndarray:
        return eps0 * np.maximum(np.asarray(y, dtype=float), floor)

    return DiagonalStateDependent(sigma, kinks=(floor,))


# ---------------------------------------------------------------------------
# dimmer chains
# ---------------------------------------------------------------------------

UNIT_INTERVAL = Domain(((0.0, 1.0),))


@dataclasses.dataclass(frozen=True)
class ChainModel:
    """An intervention set, its noise, the effect channel and the metric closed forms.

    An intervention x sets the parameter itself: theta ~ N(x, Sigma) with
    Sigma the ``noise_xt`` covariance at x, so interventions are parameter
    coordinates and h is the Fisher metric of that noise. The parameter box
    is the box of ``x_set``; a finite set of points has none.
    """

    label: str
    x_set: InterventionSet
    noise_xt: NoiseSpec
    ch_ty: GaussianChannel
    g: MetricField
    h: MetricField


def _profile_channel(profile: DimmerProfile, noise: NoiseSpec) -> GaussianChannel:
    def mean(theta):
        theta = np.asarray(theta, dtype=float)
        return np.asarray(profile.f(theta[..., 0]), dtype=float)[..., None]

    def jac(theta):
        theta = np.asarray(theta, dtype=float)
        return np.asarray(profile.df(theta[..., 0]), dtype=float)[..., None, None]

    return GaussianChannel(mean_map=mean, noise=noise, jacobian=jac)


def dimmer_model(profile: DimmerProfile, eps: float | NoiseSpec, delta: float) -> ChainModel:
    """Continuous dimmer: uniform interventions on [0, 1], scalar response.

    ``eps`` is the effect noise: a float for constant noise of that sigma, or
    a noise spec such as :func:`weber_noise` for noise that depends on the
    output. g is the Fisher metric of the effect channel, (f'/sigma(f))^2,
    and h the constant 1/delta^2 of the intervention noise.
    """
    _check_scale("delta", delta)
    if np.isscalar(eps):
        _check_scale("epsilon", eps)
        eps = ConstantIsotropic(float(eps))
    ch_ty = _profile_channel(profile, eps)
    return ChainModel(
        label=f"dimmer[{profile.label}]",
        x_set=UniformBox(UNIT_INTERVAL),
        noise_xt=ConstantIsotropic(delta),
        ch_ty=ch_ty,
        g=effect_metric(ch_ty, UNIT_INTERVAL.dim),
        h=constant_metric(np.array([[1.0 / delta**2]])),
    )


def dimmer_family(a: float, eps: float, delta: float) -> ChainModel:
    """Dimmer with the exponential family profile at bend parameter a."""
    return dimmer_model(family_profile(a), eps, delta)


def binary_switch_model(eps: float, delta: float) -> ChainModel:
    """The linear dimmer restricted to the two extreme interventions."""
    base = dimmer_model(linear_profile(), eps, delta)
    return dataclasses.replace(
        base,
        label="binary-switch",
        x_set=DiscretePoints(np.array([[0.0], [1.0]])),
    )


# ---------------------------------------------------------------------------
# two-species decay
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class TwoSpeciesConfig:
    """Two exponentially decaying species observed at a few time points.

    ``matrix`` couples interventions to the two decay rates; the identity
    means each intervention knob drives its own species.
    """

    epsilon: float
    delta: float
    delta_t: float = 1.0
    n_points: int = 3
    matrix: np.ndarray = dataclasses.field(default_factory=lambda: np.eye(2))

    def __post_init__(self) -> None:
        _check_scale("epsilon", self.epsilon)
        _check_scale("delta", self.delta)
        if self.delta_t <= 0.0:
            raise InvalidConfigError("sampling interval must be positive")
        _require_integer("n_points", self.n_points)
        if self.n_points < 2:
            raise InvalidConfigError(f"n_points must be at least 2, one per parameter, got {self.n_points}")
        m = np.asarray(self.matrix, dtype=float)
        if m.shape != (2, 2):
            raise InvalidConfigError("coupling matrix must be 2x2")
        if abs(np.linalg.det(m)) < 1e-12:
            raise InvalidConfigError("coupling matrix must be invertible")
        object.__setattr__(self, "matrix", m)


UNIT_SQUARE = Domain(((0.0, 1.0), (0.0, 1.0)))


def two_species_model(cfg: TwoSpeciesConfig) -> ChainModel:
    """Decay-rate chain: interventions set the rates, effects are the counts.

    The observed trace is y_n = exp(-n dt theta_1) + exp(-n dt theta_2) for
    n = 1..N (the species are indistinguishable in the count). Interventions
    are parameterized by their targeted rate pair u = A x, which runs over
    the unit square; a uniform draw of x is a uniform draw of u, so the
    information quantities are unchanged by this relabeling while the
    intervention box stays axis-aligned. The rate-setting noise is then
    N(u, A A^T delta^2), giving the constant intervention metric
    (A A^T)^{-1} / delta^2.
    """
    n = cfg.n_points
    dt = cfg.delta_t
    times = dt * np.arange(1, n + 1)

    def mean(theta):
        theta = np.asarray(theta, dtype=float)
        return np.exp(-times * theta[..., 0:1]) + np.exp(-times * theta[..., 1:2])

    def jac(theta):
        """d mean / d theta, (..., n, 2): column k is -t exp(-t theta_k)."""
        theta = np.asarray(theta, dtype=float)
        return np.stack([-times * np.exp(-times * theta[..., k : k + 1]) for k in (0, 1)], axis=-1)

    a = cfg.matrix
    ch_ty = GaussianChannel(mean_map=mean, noise=ConstantIsotropic(cfg.epsilon), jacobian=jac)

    def column(coord: np.ndarray) -> np.ndarray:
        """Column k of `jac` at coordinate k, for every time point at once: (n,) + coord's shape."""
        neg_t = -times.reshape((n,) + (1,) * np.ndim(coord))
        col = neg_t * coord
        np.exp(col, out=col)
        col *= neg_t
        return col

    def in_order_sum(rows: np.ndarray) -> np.ndarray:
        """The rows summed first to last, which numpy's reductions do not promise."""
        total = rows[0] + rows[1]  # a new array, so += adds to it in place
        for row in rows[2:]:
            total += row
        return total

    def g_entries(coords: tp.Sequence[np.ndarray]) -> tuple[np.ndarray, ...]:
        # J^T J entry by entry, each an in-order sum over the time points: the
        # einsum's value, at a fraction of its cost on these short axes. The
        # Jacobian's columns are formed once for all time points. On the open
        # mesh of a tensor grid column 0 varies along theta_1 alone and
        # column 1 along theta_2 alone, so g00 and g11 stay vectors; only
        # g01 fills the grid, and it is accumulated in place one time point
        # at a time, not from an (n, N) stack of products. The columns are
        # then squared in place for the diagonal entries.
        j0, j1 = column(coords[0]), column(coords[1])
        g01 = j0[0] * j1[0]
        for k in range(1, n):
            g01 += j0[k] * j1[k]
        j0 *= j0
        j1 *= j1
        g00, g11 = in_order_sum(j0), in_order_sum(j1)
        scale = cfg.epsilon**2
        g00 /= scale
        g01 /= scale
        g11 /= scale
        return g00, g01, g11

    g = MetricField(g_entries, 2)
    a_inv = np.linalg.inv(a)
    h = constant_metric(a_inv.T @ a_inv / cfg.delta**2)
    return ChainModel(
        label="two-species",
        x_set=UniformBox(UNIT_SQUARE),
        noise_xt=FullConstant(a @ a.T * cfg.delta**2),
        ch_ty=ch_ty,
        g=g,
        h=h,
    )


def diagonal_submanifold() -> Submanifold:
    """Both species share one rate: sigma -> (sigma, sigma)."""
    return Submanifold(np.zeros(2), np.ones(2), UNIT_INTERVAL, "diagonal")


def antidiagonal_submanifold() -> Submanifold:
    """Complementary rates: sigma -> (sigma, 1 - sigma)."""
    return Submanifold(np.array([0.0, 1.0]), np.array([1.0, -1.0]), UNIT_INTERVAL, "antidiagonal")


# ---------------------------------------------------------------------------
# confounded decay (statistical vs causal intervention geometry)
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class DecayConfounderConfig:
    """Single decaying species whose observation noise grows with the rate.

    A targeted experiment sets the rate with error alpha * sigma_t; passive
    observation instead infers it with a rate-dependent net error
    sigma_net(x) = alpha / sqrt(1/sigma_t^2 + x^2/sigma_x^2) and a slightly
    biased conditional mean. The two resulting intervention metrics differ:
    the causal one is flat, the statistical one bends with the parameter.
    """

    sigma_t: float
    sigma_x: float = 1.0
    alpha: float = 1.0
    x_hat: float = 1.0

    def __post_init__(self) -> None:
        for name in ("sigma_t", "sigma_x", "alpha"):
            _check_scale(name, getattr(self, name))

    @property
    def ratio(self) -> float:
        return self.sigma_t / self.sigma_x


@dataclasses.dataclass(frozen=True)
class DecayConfounderMetrics:
    h_caus: MetricField
    h_stat: MetricField
    h_stat_series: tp.Callable[[float], float]
    config: DecayConfounderConfig


def _confounder_root(mu: tp.Callable[[float], float], theta: float) -> float:
    """The level x with mu(x) = theta, on Python floats.

    Bisection, down to adjacent floats, on the first bracket
    [theta - w, theta + w], w = 1, 2, 4, ..., whose ends have mu below and
    above theta; of its two ends the one nearer in mu is returned. mu need
    not be monotone, but it grows like x in both tails, so a bracket exists;
    one not found within 2^63 of theta raises NumericalFailureError naming
    theta.
    """
    width = 1.0
    for _ in range(64):
        lo, hi = theta - width, theta + width
        if mu(lo) < theta < mu(hi):
            break
        width *= 2.0
    else:
        raise NumericalFailureError(f"no level x with mean theta={theta} could be bracketed")
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if mu(mid) < theta:
            lo = mid
        else:
            hi = mid
    return lo if theta - mu(lo) <= mu(hi) - theta else hi


def _confounder_moments(cfg: DecayConfounderConfig, theta: float) -> tuple[float, float]:
    """(numeric Fisher, mean of 1/sigma_net^2) of the observational inverse.

    The conditional density over the rate given an observed level x is
    N(mu(x), sigma_net(x)^2); inverted at fixed rate theta it is normalized
    over all x. Scores in theta are analytic (the variance does not depend on
    theta), so a single windowed Gauss-Legendre pass gives the Fisher
    information as the score covariance -- no finite differences involved.
    The window is centred on the root of mu(x) = theta
    (:func:`_confounder_root`) and spans 14 widths sigma_net / |mu'| either
    side; a window that holds no mass raises NumericalFailureError naming
    theta. It is integrated by a composite rule of 8 equal panels of 50
    nodes. Against a dense trapezoid over the same window, on the configs
    measured, both moments are within 1e-14 relative inside the series
    regime (ratio <= 0.1) and within 2e-6 outside it, where mu bends inside
    the window; there the window itself, sized from mu's slope at the root,
    can also miss mass.
    """
    # The helpers take Python floats and arrays alike; squares are written
    # x * x, which rounds as numpy's array x**2 does.
    def s2(x):
        # sigma_net^2 = alpha^2 / (1/sigma_t^2 + x^2/sigma_x^2)
        return cfg.alpha**2 / (1.0 / cfg.sigma_t**2 + x * x / cfg.sigma_x**2)

    def mu(x):
        return x * (1.0 + cfg.x_hat * s2(x) / (cfg.alpha * cfg.sigma_x**2))

    def dmu(x):
        s = s2(x)
        c = cfg.x_hat * s / (cfg.alpha * cfg.sigma_x**2)
        ds2 = -2.0 * x / cfg.sigma_x**2 * (s * s) / cfg.alpha**2
        return 1.0 + c + x * cfg.x_hat * ds2 / (cfg.alpha * cfg.sigma_x**2)

    theta = float(theta)
    x0 = _confounder_root(mu, theta)
    width = 14.0 * math.sqrt(s2(x0)) / abs(dmu(x0))
    nodes, w = composite_gauss_legendre(np.linspace(x0 - width, x0 + width, 9), 50)
    var = s2(nodes)
    dens = np.exp(-0.5 * (theta - mu(nodes)) ** 2 / var) / np.sqrt(2.0 * math.pi * var)
    score = -(theta - mu(nodes)) / var
    wq = w * dens
    m0 = float(np.sum(wq))
    if not m0 > 0.0:
        raise NumericalFailureError(f"the observational density has no mass near theta={theta}")
    mean_score = float(np.sum(wq * score)) / m0
    fisher = float(np.sum(wq * (score - mean_score) ** 2)) / m0
    mean_inv_var = float(np.sum(wq / var)) / m0
    return fisher, mean_inv_var


def decay_confounder_metrics(cfg: DecayConfounderConfig) -> DecayConfounderMetrics:
    """Causal and statistical intervention metrics of the confounded decay.

    ``h_stat_series`` is the small-(sigma_t/sigma_x) expansion
    <1/sigma_net^2> - 3 (alpha x_hat + theta^2) (sigma_t/sigma_x)^4 and is
    only served inside its validity regime (ratio <= 0.1); outside it raises
    NumericalFailureError.
    """
    h_caus_val = 1.0 / (cfg.sigma_t**2 * cfg.alpha**2)
    h_caus = constant_metric(np.array([[h_caus_val]]))

    # one entry: an eigen row reads h_stat and h_stat_series at the same theta
    @functools.lru_cache(maxsize=1)
    def moments(theta: float) -> tuple[float, float]:
        return _confounder_moments(cfg, theta)

    def stat_batch(points: np.ndarray) -> np.ndarray:
        return np.array([[[moments(float(theta))[0]]] for theta in points[:, 0]])

    h_stat = MetricField.from_batch(stat_batch, 1)

    def series(theta: float) -> float:
        if cfg.ratio > 0.1:
            raise NumericalFailureError(
                f"series expansion valid for sigma_t/sigma_x <= 0.1, got {cfg.ratio:g}"
            )
        _, mean_inv_var = moments(float(theta))
        corr = 3.0 * (cfg.alpha * cfg.x_hat + theta**2) * cfg.ratio**4
        return mean_inv_var - corr

    return DecayConfounderMetrics(h_caus=h_caus, h_stat=h_stat, h_stat_series=series, config=cfg)
