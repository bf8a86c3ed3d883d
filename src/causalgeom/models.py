"""Built-in causal models.

Each constructor returns a frozen bundle holding the intervention set, the
two Gaussian channels of the chain, and (where closed forms exist) the two
metric fields over the parameter box. Response profiles are defined on the
whole real line and strictly increasing there, because exact estimators must
evaluate them a few noise widths beyond the nominal parameter interval.
"""

from __future__ import annotations

import dataclasses
import math
import typing as tp

import numpy as np

from ._quadrature import gauss_legendre
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
from .errors import InvalidConfigError, RegimeError
from .geometry import MetricField, constant_metric, effect_metric
from .manifold import Submanifold

WEBER_FLOOR = 1e-3


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
    denom = math.expm1(a)

    def f(t):
        return np.expm1(a * np.asarray(t, dtype=float)) / denom

    def df(t):
        return a * np.exp(a * np.asarray(t, dtype=float)) / denom

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
    gives f(theta) = (e^{theta/r} - 1) / (e^{1/r} - 1).
    """
    if r <= 0.0:
        raise InvalidConfigError("rate parameter r must be positive")
    return _exp_profile(1.0 / r, f"weber-optimal(r={r:g})")


def weber_noise(eps0: float, floor: float = WEBER_FLOOR) -> DiagonalStateDependent:
    """Relative effect noise sigma(y) = eps0 * max(y, floor).

    The floor keeps the noise positive near (and below) zero output, where a
    literal proportional law would make the channel deterministic. The spec
    names that output among its ``kinks``, so exact quadrature can put a
    breakpoint there.
    """
    if eps0 <= 0.0 or floor <= 0.0:
        raise InvalidConfigError("weber noise needs eps0 > 0 and floor > 0")

    def sigma(y: np.ndarray) -> np.ndarray:
        return eps0 * np.maximum(np.asarray(y, dtype=float), floor)

    return DiagonalStateDependent(sigma, kinks=(floor,))


# ---------------------------------------------------------------------------
# dimmer chains
# ---------------------------------------------------------------------------

UNIT_INTERVAL = Domain(((0.0, 1.0),))


@dataclasses.dataclass(frozen=True)
class ChainModel:
    """An intervention set, the two channels, and the metric closed forms."""

    label: str
    x_set: InterventionSet
    ch_xt: GaussianChannel
    ch_ty: GaussianChannel
    theta_domain: Domain
    g: MetricField
    h: MetricField


def _identity_channel(noise: NoiseSpec, domain: Domain) -> GaussianChannel:
    dim = domain.dim

    def identity(x):
        return np.asarray(x, dtype=float)

    def jac(x):
        x = np.asarray(x, dtype=float)
        eye = np.eye(dim)
        return np.broadcast_to(eye, x.shape[:-1] + (dim, dim)).copy()

    return GaussianChannel(
        mean_map=identity,
        noise=noise,
        input_domain=domain,
        output_domain=domain,
        jacobian=jac,
        mean_is_identity=True,
    )


def _profile_channel(profile: DimmerProfile, noise: NoiseSpec) -> GaussianChannel:
    def mean(theta):
        theta = np.asarray(theta, dtype=float)
        return np.asarray(profile.f(theta[..., 0]), dtype=float)[..., None]

    def jac(theta):
        theta = np.asarray(theta, dtype=float)
        return np.asarray(profile.df(theta[..., 0]), dtype=float)[..., None, None]

    return GaussianChannel(
        mean_map=mean,
        noise=noise,
        input_domain=UNIT_INTERVAL,
        output_domain=UNIT_INTERVAL,
        jacobian=jac,
    )


def dimmer_model(profile: DimmerProfile, eps: float | NoiseSpec, delta: float) -> ChainModel:
    """Continuous dimmer: uniform interventions on [0, 1], scalar response.

    ``eps`` is the effect noise: a float for constant noise of that sigma, or
    a noise spec such as :func:`weber_noise` for noise that depends on the
    output. g is the Fisher metric of the effect channel, (f'/sigma(f))^2,
    and h the constant 1/delta^2 of the intervention channel.
    """
    if delta <= 0.0:
        raise InvalidConfigError("intervention noise delta must be positive")
    ch_ty = _profile_channel(profile, ConstantIsotropic(float(eps)) if np.isscalar(eps) else eps)
    return ChainModel(
        label=f"dimmer[{profile.label}]",
        x_set=UniformBox(UNIT_INTERVAL),
        ch_xt=_identity_channel(ConstantIsotropic(delta), UNIT_INTERVAL),
        ch_ty=ch_ty,
        theta_domain=UNIT_INTERVAL,
        g=effect_metric(ch_ty),
        h=constant_metric(np.array([[1.0 / delta**2]]), 1),
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
        if self.epsilon <= 0.0 or self.delta <= 0.0:
            raise InvalidConfigError("noise scales must be positive")
        if self.delta_t <= 0.0:
            raise InvalidConfigError("sampling interval must be positive")
        if self.n_points < 1:
            raise InvalidConfigError("need at least one time point")
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
    ch_xt = _identity_channel(FullConstant(a @ a.T * cfg.delta**2), UNIT_SQUARE)
    y_domain = Domain(tuple((0.0, 2.0) for _ in range(n)))
    ch_ty = GaussianChannel(
        mean_map=mean,
        noise=ConstantIsotropic(cfg.epsilon),
        input_domain=UNIT_SQUARE,
        output_domain=y_domain,
        jacobian=jac,
    )

    def g_batch(points: np.ndarray) -> np.ndarray:
        # J^T J entry by entry, each an in-order sum over the time points: the
        # einsum's value, at a fraction of its cost on these short axes. One
        # time point at a time on N-vectors, so no (n, N) temporary is built;
        # the products are those of `jac`.
        th0, th1 = points[:, 0], points[:, 1]
        g00 = g01 = g11 = 0
        for neg_t in -times:
            j0 = neg_t * np.exp(neg_t * th0)
            j1 = neg_t * np.exp(neg_t * th1)
            g00 = g00 + j0 * j0
            g01 = g01 + j0 * j1
            g11 = g11 + j1 * j1
        out = np.empty((len(points), 2, 2))
        out[:, 0, 0], out[:, 0, 1], out[:, 1, 0], out[:, 1, 1] = g00, g01, g01, g11
        out /= cfg.epsilon**2
        return out

    g = MetricField(lambda t: g_batch(t[None, :])[0], 2, g_batch)
    a_inv = np.linalg.inv(a)
    h = constant_metric(a_inv.T @ a_inv / cfg.delta**2, 2)
    return ChainModel(
        label="two-species",
        x_set=UniformBox(UNIT_SQUARE),
        ch_xt=ch_xt,
        ch_ty=ch_ty,
        theta_domain=UNIT_SQUARE,
        g=g,
        h=h,
    )


def diagonal_submanifold() -> Submanifold:
    """Both species share one rate: sigma -> (sigma, sigma)."""

    def embed(s):
        s = np.asarray(s, dtype=float)
        return np.concatenate([s, s], axis=-1)

    def jacobian(s):
        s = np.asarray(s, dtype=float)
        j = np.array([[1.0], [1.0]])
        return np.broadcast_to(j, s.shape[:-1] + (2, 1)).copy()

    return Submanifold(embed, jacobian, UNIT_INTERVAL, "diagonal")


def antidiagonal_submanifold() -> Submanifold:
    """Complementary rates: sigma -> (sigma, 1 - sigma)."""

    def embed(s):
        s = np.asarray(s, dtype=float)
        return np.concatenate([s, 1.0 - s], axis=-1)

    def jacobian(s):
        s = np.asarray(s, dtype=float)
        j = np.array([[1.0], [-1.0]])
        return np.broadcast_to(j, s.shape[:-1] + (2, 1)).copy()

    return Submanifold(embed, jacobian, UNIT_INTERVAL, "antidiagonal")


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
    theta_domain: Domain = dataclasses.field(default_factory=lambda: Domain(((0.0, 1.0),)))

    def __post_init__(self) -> None:
        if self.sigma_t <= 0.0 or self.sigma_x <= 0.0 or self.alpha <= 0.0:
            raise InvalidConfigError("sigma_t, sigma_x and alpha must be positive")

    @property
    def ratio(self) -> float:
        return self.sigma_t / self.sigma_x


@dataclasses.dataclass(frozen=True)
class DecayConfounderMetrics:
    h_caus: MetricField
    h_stat: MetricField
    h_stat_series: tp.Callable[[float], float]
    config: DecayConfounderConfig


def _confounder_moments(cfg: DecayConfounderConfig, theta: float) -> tuple[float, float]:
    """(numeric Fisher, mean of 1/sigma_net^2) of the observational inverse.

    The conditional density over the rate given an observed level x is
    N(mu(x), sigma_net(x)^2); inverted at fixed rate theta it is normalized
    over all x. Scores in theta are analytic (the variance does not depend on
    theta), so a single windowed Gauss-Legendre pass gives the Fisher
    information as the score covariance -- no finite differences involved.
    """
    def s2(x: np.ndarray) -> np.ndarray:
        # sigma_net^2 = alpha^2 / (1/sigma_t^2 + x^2/sigma_x^2)
        return cfg.alpha**2 / (1.0 / cfg.sigma_t**2 + x**2 / cfg.sigma_x**2)

    def mu(x: np.ndarray) -> np.ndarray:
        return x * (1.0 + cfg.x_hat * s2(x) / (cfg.alpha * cfg.sigma_x**2))

    def dmu(x: np.ndarray) -> np.ndarray:
        c = cfg.x_hat * s2(x) / (cfg.alpha * cfg.sigma_x**2)
        ds2 = -2.0 * x / cfg.sigma_x**2 * s2(x) ** 2 / cfg.alpha**2
        return 1.0 + c + x * cfg.x_hat * ds2 / (cfg.alpha * cfg.sigma_x**2)

    x0 = float(theta)
    for _ in range(16):
        x0 -= (float(mu(np.array([x0]))[0]) - theta) / float(dmu(np.array([x0]))[0])
    width = 14.0 * math.sqrt(float(s2(np.array([x0]))[0])) / abs(float(dmu(np.array([x0]))[0]))
    nodes, w = gauss_legendre(x0 - width, x0 + width, 400)
    var = s2(nodes)
    dens = np.exp(-0.5 * (theta - mu(nodes)) ** 2 / var) / np.sqrt(2.0 * math.pi * var)
    score = -(theta - mu(nodes)) / var
    wq = w * dens
    m0 = float(np.sum(wq))
    mean_score = float(np.sum(wq * score)) / m0
    fisher = float(np.sum(wq * (score - mean_score) ** 2)) / m0
    mean_inv_var = float(np.sum(wq / var)) / m0
    return fisher, mean_inv_var


def decay_confounder_metrics(cfg: DecayConfounderConfig) -> DecayConfounderMetrics:
    """Causal and statistical intervention metrics of the confounded decay.

    ``h_stat_series`` is the small-(sigma_t/sigma_x) expansion
    <1/sigma_net^2> - 3 (alpha x_hat + theta^2) (sigma_t/sigma_x)^4 and is
    only served inside its validity regime (ratio <= 0.1).
    """
    h_caus_val = 1.0 / (cfg.sigma_t**2 * cfg.alpha**2)
    h_caus = constant_metric(np.array([[h_caus_val]]), 1)

    def stat_single(theta: np.ndarray) -> np.ndarray:
        fisher, _ = _confounder_moments(cfg, float(theta[0]))
        return np.array([[fisher]])

    h_stat = MetricField(stat_single, 1)

    def series(theta: float) -> float:
        if cfg.ratio > 0.1:
            raise RegimeError(
                f"series expansion valid for sigma_t/sigma_x <= 0.1, got {cfg.ratio:g}"
            )
        _, mean_inv_var = _confounder_moments(cfg, float(theta))
        corr = 3.0 * (cfg.alpha * cfg.x_hat + theta**2) * cfg.ratio**4
        return mean_inv_var - corr

    return DecayConfounderMetrics(h_caus=h_caus, h_stat=h_stat, h_stat_series=series, config=cfg)


def decay_causal_channel(cfg: DecayConfounderConfig, x_domain: Domain | None = None) -> GaussianChannel:
    """The targeted-experiment channel, for cross-checks against h_caus."""
    x_domain = x_domain or Domain(((-2.0, 3.0),))
    return _identity_channel(ConstantIsotropic(cfg.alpha * cfg.sigma_t), x_domain)
