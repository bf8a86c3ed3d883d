"""Gaussian causal channels and their uniform-prior inversion.

A channel maps an input point to a Gaussian distribution over an output
space: the mean comes from a smooth map, the covariance from a noise
specification evaluated at that mean. Interventions are modelled as either a
uniform box or a finite set of points with equal weights; each set supplies
the parameter mixture that the exact estimators average over.

Inverting a channel against the uniform intervention prior gives, for each
output value theta, a normalized density over the interventions that could
have produced it. The normalization integral runs over the intervention box
only; output-side densities are never truncated.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import typing as tp

import numpy as np
from scipy.special import logsumexp, ndtr

from ._quadrature import gauss_legendre, graded_gauss_legendre, nodes_weights
from .errors import (
    DegenerateDistributionError,
    DomainViolationError,
    InvalidConfigError,
    UnreachableParameterError,
    UseMonteCarloError,
)

ArrayLike = tp.Union[float, tp.Sequence[float], np.ndarray]

# Normalization integrals below this value mean "no allowed intervention
# reaches this parameter point".
_NORMALIZER_FLOOR = 1e-300

_LOG_2PI = math.log(2.0 * math.pi)


# ---------------------------------------------------------------------------
# domains and intervention sets
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Domain:
    """Axis-aligned box with strictly ordered finite bounds."""

    axes: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if len(self.axes) < 1:
            raise InvalidConfigError("domain needs at least one axis")
        for lo, hi in self.axes:
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise InvalidConfigError("domain bounds must be finite")
            if not lo < hi:
                raise InvalidConfigError(f"domain axis has lo >= hi: ({lo}, {hi})")

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def lower(self) -> np.ndarray:
        return np.array([a[0] for a in self.axes])

    @property
    def upper(self) -> np.ndarray:
        return np.array([a[1] for a in self.axes])

    @property
    def spans(self) -> np.ndarray:
        return self.upper - self.lower

    @property
    def volume(self) -> float:
        return float(np.prod(self.spans))

    def contains(self, point: ArrayLike, rtol: float = 1e-9) -> bool:
        p = np.atleast_1d(np.asarray(point, dtype=float))
        slack = rtol * self.spans
        return bool(np.all(p >= self.lower - slack) and np.all(p <= self.upper + slack))


# Every intervention set answers the same questions about the parameter law
# it induces through an intervention channel, the mixture mean_x q(theta|do(x)):
# its log density at parameter points (..., d), the range of its component
# means, and the component means and weights of an outer average over the
# set. The exact estimators average over a set only through these. An outer
# rule may be graded into layers of the integrand: their centres and widths,
# two arrays (n,) in parameter units.

Layers = tuple[np.ndarray, np.ndarray]


@dataclasses.dataclass(frozen=True)
class UniformBox:
    """Uniform density over a box of interventions."""

    domain: Domain

    @property
    def dim(self) -> int:
        return self.domain.dim

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        lo, hi = self.domain.lower, self.domain.upper
        return lo + (hi - lo) * rng.random((n, self.dim))

    def log_mixture(self, channel: GaussianChannel) -> tp.Callable[[np.ndarray], np.ndarray]:
        """log of the box average of q(theta | do(x)), for theta (..., d).

        Closed forms need an identity intervention mean and noise that does
        not depend on the state: normal CDF differences for diagonal noise in
        any dimension, and one conditional-CDF quadrature for full covariance
        in two dimensions. Anything else raises UseMonteCarloError.
        """
        if not channel.mean_is_identity:
            raise UseMonteCarloError(
                "a box-averaged parameter density needs an identity intervention mean "
                "(reparameterize the interventions so the mean map is the identity)"
            )
        if isinstance(channel.noise, DiagonalStateDependent):
            raise UseMonteCarloError(
                "a box-averaged parameter density needs constant intervention noise"
            )
        lo, hi = self.domain.lower, self.domain.upper
        log_vol = math.log(self.domain.volume)
        cov = channel.noise.covariance(lo)

        if np.allclose(cov, np.diag(np.diag(cov)), atol=0.0):
            sig = np.sqrt(np.diag(cov))

            def log_mix(theta: np.ndarray) -> np.ndarray:
                probs = ndtr((hi - theta) / sig) - ndtr((lo - theta) / sig)
                return np.sum(np.log(np.maximum(probs, 1e-300)), axis=-1) - log_vol

            return log_mix

        if self.dim == 2:
            chol = np.linalg.cholesky(cov)
            l11, l21, l22 = chol[0, 0], chol[1, 0], chol[1, 1]
            z_nodes, z_w = gauss_legendre(0.0, 1.0, 64)

            def log_mix(theta: np.ndarray) -> np.ndarray:
                a = lo - theta  # (..., 2)
                b = hi - theta
                z_lo = np.maximum(a[..., 0] / l11, -9.0)
                z_hi = np.minimum(b[..., 0] / l11, 9.0)
                span = np.maximum(z_hi - z_lo, 0.0)
                z = z_lo[..., None] + span[..., None] * z_nodes
                phi = np.exp(-0.5 * z**2) / math.sqrt(2.0 * math.pi)
                inner = ndtr((b[..., 1, None] - l21 * z) / l22) - ndtr((a[..., 1, None] - l21 * z) / l22)
                prob = span * np.sum(z_w * phi * inner, axis=-1)
                return np.log(np.maximum(prob, 1e-300)) - log_vol

            return log_mix

        raise UseMonteCarloError(
            "box-averaged density implemented for diagonal noise (any dimension) "
            "or full covariance in two dimensions"
        )

    def mean_range(self, channel: GaussianChannel) -> tuple[np.ndarray, np.ndarray]:
        """The box edges: log_mixture admits only identity intervention means."""
        return self.domain.lower, self.domain.upper

    def components(
        self, channel: GaussianChannel, rule: str, nodes: int, layers: Layers
    ) -> tuple[np.ndarray, np.ndarray]:
        """Means (m, d) and weights (m,), summing to one, of ``rule`` on a scalar box.

        The trapezoid rule spreads ``nodes`` nodes evenly. Gauss-Legendre puts
        ``nodes`` nodes on each panel of a composite rule graded into
        ``layers`` (log_mixture admits only an identity intervention mean, so
        parameter values are intervention values here).
        """
        if self.dim != 1:
            raise UseMonteCarloError("an outer rule over a box needs scalar interventions")
        lo, hi = self.domain.axes[0]
        if rule == "gauss-legendre":
            x, w = graded_gauss_legendre(lo, hi, *layers, nodes)
        else:
            x, w = nodes_weights(rule, lo, hi, nodes)
        return channel.mean(x[:, None]), w / self.domain.volume


@dataclasses.dataclass(frozen=True)
class DiscretePoints:
    """Finite set of interventions, all equally weighted."""

    points: np.ndarray

    def __post_init__(self) -> None:
        pts = np.atleast_2d(np.asarray(self.points, dtype=float))
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise InvalidConfigError("discrete intervention set needs a (k, d) array")
        for i in range(pts.shape[0]):
            for j in range(i + 1, pts.shape[0]):
                if np.array_equal(pts[i], pts[j]):
                    raise InvalidConfigError("discrete intervention points must be distinct")
        object.__setattr__(self, "points", pts)

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        idx = rng.integers(0, self.points.shape[0], size=n)
        return self.points[idx]

    def log_mixture(self, channel: GaussianChannel) -> tp.Callable[[np.ndarray], np.ndarray]:
        """log of the mean of q(theta | do(x)) over the points, for theta (..., d)."""
        mus = channel.mean(self.points)  # (k, d)
        log_k = math.log(mus.shape[0])

        def log_mix(theta: np.ndarray) -> np.ndarray:
            log_q = gaussian_log_density(channel.noise, theta[..., None, :], mus)
            return logsumexp(log_q, axis=-1) - log_k

        return log_mix

    def mean_range(self, channel: GaussianChannel) -> tuple[np.ndarray, np.ndarray]:
        """The extreme point means on each axis."""
        mus = channel.mean(self.points)
        return np.min(mus, axis=0), np.max(mus, axis=0)

    def components(
        self, channel: GaussianChannel, rule: str, nodes: int, layers: Layers
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every point with equal weight; the rule, node count and layers do not apply."""
        k = self.points.shape[0]
        return channel.mean(self.points), np.full(k, 1.0 / k)


InterventionSet = tp.Union[UniformBox, DiscretePoints]


# ---------------------------------------------------------------------------
# noise specifications
# ---------------------------------------------------------------------------


# Every noise spec answers the same questions about its covariance Sigma(mean)
# at a batch of channel means (..., d): the matrix itself, a whitened residual
# (a symmetric W with W W = Sigma^-1 applied along the last axis, so whitening
# twice applies the precision), half its log-determinant, a draw, and a bound
# on its largest standard deviation over a set of means. Each also names the
# channel means where its covariance has a kink (``kinks``), so an integration
# rule can break there. Callers branch on the kind of noise only to refuse it
# or to pick a closed form.


@dataclasses.dataclass(frozen=True)
class ConstantIsotropic:
    """sigma * identity, the same at every state."""

    sigma: float
    kinks: tp.ClassVar[tuple[float, ...]] = ()

    def __post_init__(self) -> None:
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise InvalidConfigError(f"noise sigma must be finite and > 0, got {self.sigma}")

    def covariance(self, mean: np.ndarray) -> np.ndarray:
        d = np.shape(mean)[-1]
        return self.sigma**2 * np.eye(d)

    def whiten(self, resid: np.ndarray, mean: np.ndarray) -> np.ndarray:
        return resid / self.sigma

    def half_logdet(self, mean: np.ndarray) -> float:
        return np.shape(mean)[-1] * math.log(self.sigma)

    def draw(self, rng: np.random.Generator, mean: np.ndarray) -> np.ndarray:
        return mean + self.sigma * rng.standard_normal(np.shape(mean))

    def scale_bound(self, means: np.ndarray) -> float:
        return self.sigma


@dataclasses.dataclass(frozen=True)
class DiagonalStateDependent:
    """Per-axis sigma as a function of the output point (the channel mean).

    ``kinks`` lists the scalar outputs where ``sigma_fn`` is not smooth, such
    as the floor of :func:`~causalgeom.models.weber_noise`; exact quadrature
    puts an integration breakpoint at each.
    """

    sigma_fn: tp.Callable[[np.ndarray], np.ndarray]
    kinks: tuple[float, ...] = ()

    def sigma_diag(self, mean: np.ndarray) -> np.ndarray:
        sig = np.asarray(self.sigma_fn(np.asarray(mean, dtype=float)), dtype=float)
        sig = np.broadcast_to(sig, np.shape(mean))
        if not np.all(sig > 0.0):
            raise DegenerateDistributionError("state-dependent sigma must stay positive")
        return sig

    def covariance(self, mean: np.ndarray) -> np.ndarray:
        sig = self.sigma_diag(mean)
        return sig[..., None] ** 2 * np.eye(sig.shape[-1])

    def whiten(self, resid: np.ndarray, mean: np.ndarray) -> np.ndarray:
        return resid / self.sigma_diag(mean)

    def half_logdet(self, mean: np.ndarray) -> np.ndarray:
        return np.sum(np.log(self.sigma_diag(mean)), axis=-1)

    def draw(self, rng: np.random.Generator, mean: np.ndarray) -> np.ndarray:
        return mean + self.sigma_diag(mean) * rng.standard_normal(np.shape(mean))

    def scale_bound(self, means: np.ndarray) -> float:
        return float(np.max(self.sigma_diag(means)))


@dataclasses.dataclass(frozen=True)
class FullConstant:
    """A fixed full covariance matrix, the same at every state.

    ``cov`` may also be a stack (..., d, d) whose leading axes broadcast
    against those of the means, e.g. one proposal covariance per row.
    """

    cov: np.ndarray
    kinks: tp.ClassVar[tuple[float, ...]] = ()

    def __post_init__(self) -> None:
        c = np.atleast_2d(np.asarray(self.cov, dtype=float))
        if c.shape[-1] != c.shape[-2]:
            raise InvalidConfigError("covariance must be square")
        c_t = np.swapaxes(c, -1, -2)
        if not np.allclose(c, c_t, atol=1e-12 * max(1.0, float(np.abs(c).max()))):
            raise InvalidConfigError("covariance must be symmetric")
        try:
            chol = np.linalg.cholesky(c)
        except np.linalg.LinAlgError as exc:
            raise DegenerateDistributionError("covariance is not positive definite") from exc
        object.__setattr__(self, "cov", c)
        object.__setattr__(self, "_chol", chol)

    @functools.cached_property
    def _white(self) -> np.ndarray:
        """Symmetric inverse square root of the covariance."""
        vals, vecs = np.linalg.eigh(self.cov)
        return (vecs / np.sqrt(vals)[..., None, :]) @ np.swapaxes(vecs, -1, -2)

    def covariance(self, mean: np.ndarray) -> np.ndarray:
        return self.cov

    def whiten(self, resid: np.ndarray, mean: np.ndarray) -> np.ndarray:
        # A sum over the d columns in order (draw does the same): the einsum's
        # value, at less cost on these short axes
        white = self._white
        return sum(resid[..., j : j + 1] * white[..., j, :] for j in range(white.shape[-1]))

    def half_logdet(self, mean: np.ndarray) -> np.ndarray:
        chol = self._chol  # type: ignore[attr-defined]
        return np.sum(np.log(np.diagonal(chol, axis1=-2, axis2=-1)), axis=-1)

    def draw(self, rng: np.random.Generator, mean: np.ndarray) -> np.ndarray:
        z = rng.standard_normal(np.shape(mean))
        chol = self._chol  # type: ignore[attr-defined]
        return mean + sum(z[..., j : j + 1] * chol[..., :, j] for j in range(chol.shape[-1]))

    def scale_bound(self, means: np.ndarray) -> float:
        return math.sqrt(float(np.max(np.linalg.eigvalsh(self.cov))))


NoiseSpec = tp.Union[ConstantIsotropic, DiagonalStateDependent, FullConstant]


def gaussian_log_density(noise: NoiseSpec, point: np.ndarray, mean: np.ndarray) -> np.ndarray:
    """log N(point; mean, noise covariance at mean), reduced over the last axis."""
    white = noise.whiten(point - mean, mean)
    out = np.einsum("...i,...i->...", white, white)
    out += white.shape[-1] * _LOG_2PI
    out *= -0.5
    out -= noise.half_logdet(mean)
    return out


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class GaussianChannel:
    """Input -> Gaussian(mean_map(input), noise at that mean).

    ``mean_map`` must accept arrays shaped (..., d_in) and return
    (..., d_out). ``jacobian``, when given, must return (..., d_out, d_in);
    otherwise a central finite difference with step 1e-5 of the input axis
    span is used.
    """

    mean_map: tp.Callable[[np.ndarray], np.ndarray]
    noise: NoiseSpec
    input_domain: Domain
    output_domain: Domain
    jacobian: tp.Callable[[np.ndarray], np.ndarray] | None = None
    # True when mean_map is the identity; lets downstream integrals use the
    # closed-form box-averaged density instead of a numeric inverse.
    mean_is_identity: bool = False

    @property
    def dim_in(self) -> int:
        return self.input_domain.dim

    @property
    def dim_out(self) -> int:
        return self.output_domain.dim

    def mean(self, x: ArrayLike) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        out = np.asarray(self.mean_map(x), dtype=float)
        return out

    def jac(self, x: ArrayLike) -> np.ndarray:
        """Jacobian of the mean map, analytic if available else central FD."""
        x = np.asarray(x, dtype=float)
        if self.jacobian is not None:
            return np.asarray(self.jacobian(x), dtype=float)
        steps = 1e-5 * self.input_domain.spans
        cols = []
        for k in range(self.dim_in):
            e = np.zeros(self.dim_in)
            e[k] = steps[k]
            cols.append((self.mean(x + e) - self.mean(x - e)) / (2.0 * steps[k]))
        return np.stack(cols, axis=-1)

    def sample(self, rng: np.random.Generator, x: np.ndarray) -> np.ndarray:
        """Draw one output per input row; x has shape (..., d_in)."""
        return self.noise.draw(rng, self.mean(x))


@dataclasses.dataclass(frozen=True)
class Gaussian:
    """A concrete multivariate normal produced by a channel."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mean = np.atleast_1d(np.asarray(self.mean, dtype=float))
        cov = np.atleast_2d(np.asarray(self.cov, dtype=float))
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size

    def log_density(self, point: ArrayLike) -> float | np.ndarray:
        p = np.atleast_1d(np.asarray(point, dtype=float))
        out = gaussian_log_density(FullConstant(self.cov), p, self.mean)
        return float(out) if np.ndim(point) <= 1 else out

    def density(self, point: ArrayLike) -> float | np.ndarray:
        return np.exp(self.log_density(point))


def push_forward(channel: GaussianChannel, x: ArrayLike) -> Gaussian:
    """Distribution over outputs under do(x). x must lie in the input domain."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if x.shape != (channel.dim_in,):
        raise DomainViolationError(
            f"expected a point of dimension {channel.dim_in}, got shape {x.shape}"
        )
    if not channel.input_domain.contains(x):
        raise DomainViolationError(f"intervention {x} lies outside the input domain")
    mean = channel.mean(x)
    return Gaussian(mean, np.atleast_2d(channel.noise.covariance(mean)))


def log_density(dist: Gaussian, point: ArrayLike) -> float | np.ndarray:
    """Log density of a channel output distribution at a point."""
    return dist.log_density(point)


# ---------------------------------------------------------------------------
# conditional density of the output given the input, vectorized over inputs
# ---------------------------------------------------------------------------


def _log_gauss_given_inputs(channel: GaussianChannel, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """log q(theta | do(x_i)) for a batch of inputs x (n, d_in), fixed theta."""
    return gaussian_log_density(channel.noise, theta, channel.mean(x))


def _score_given_inputs(channel: GaussianChannel, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """d/dtheta log q(theta | do(x_i)) = -Sigma(x_i)^-1 (theta - mean(x_i)).

    Exact: the covariance never depends on theta, only on the input.
    """
    mean = channel.mean(x)
    noise = channel.noise
    return -noise.whiten(noise.whiten(theta - mean, mean), mean)


# ---------------------------------------------------------------------------
# uniform-prior inversion
# ---------------------------------------------------------------------------


class InvertedChannel:
    """Posterior over interventions given a channel output, uniform prior.

    For a fixed output theta the density over interventions x in the box is
    q(theta|do(x)) / Z(theta) with Z the integral of the numerator over the
    box. Outputs are unbounded; only this normalization is box-truncated.
    """

    def __init__(self, channel: GaussianChannel, box: Domain):
        if box.dim != channel.dim_in:
            raise InvalidConfigError("intervention box dimension must match channel input")
        self.channel = channel
        self.box = box
        self._norm_cache: dict[bytes, float] = {}

    # -- peak location and integration windows ------------------------------

    def _peak(self, theta: np.ndarray) -> np.ndarray:
        """Intervention in the box whose output mean is closest to theta (ish)."""
        lo, hi = self.box.lower, self.box.upper
        grids = [np.linspace(lo[k], hi[k], 33) for k in range(self.box.dim)]
        mesh = np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1).reshape(-1, self.box.dim)
        logq = _log_gauss_given_inputs(self.channel, theta, mesh)
        x0 = mesh[int(np.argmax(logq))]
        # local refinement by coordinate-wise golden section
        width = (hi - lo) / 16.0
        for _ in range(3):
            for k in range(self.box.dim):
                a = max(lo[k], x0[k] - width[k])
                b = min(hi[k], x0[k] + width[k])
                ts = np.linspace(a, b, 17)
                cand = np.tile(x0, (17, 1))
                cand[:, k] = ts
                vals = _log_gauss_given_inputs(self.channel, theta, cand)
                x0 = cand[int(np.argmax(vals))]
            width /= 8.0
        return x0

    def _segments(self, theta: np.ndarray, x_star: np.ndarray) -> list[list[tuple[float, float, int]]]:
        """Per-axis integration segments: a dense window at the peak plus the
        rest of the box at lower order."""
        sig_max = self.channel.noise.scale_bound(self.channel.mean(x_star))
        jac = self.channel.jac(x_star)
        svals = np.linalg.svd(jac, compute_uv=False)
        s_min = float(svals.min()) if svals.size else 0.0
        if s_min <= 1e-12:
            half = np.inf
        else:
            half = 12.0 * sig_max / s_min
        segments: list[list[tuple[float, float, int]]] = []
        for k in range(self.box.dim):
            lo, hi = self.box.axes[k]
            a = max(lo, x_star[k] - half)
            b = min(hi, x_star[k] + half)
            segs = []
            if a > lo:
                segs.append((lo, a, 48))
            segs.append((a, b, 160))
            if b < hi:
                segs.append((b, hi, 48))
            segments.append(segs)
        return segments

    def _box_nodes(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Composite Gauss-Legendre nodes over the box, dense near the peak."""
        x_star = self._peak(theta)
        per_axis = []
        for segs in self._segments(theta, x_star):
            xs, ws = zip(*(gauss_legendre(a, b, n) for a, b, n in segs))
            per_axis.append((np.concatenate(xs), np.concatenate(ws)))
        if self.box.dim == 1:
            return per_axis[0][0][:, None], per_axis[0][1]
        node_mesh = np.meshgrid(*(x for x, _ in per_axis), indexing="ij")
        w_mesh = np.meshgrid(*(w for _, w in per_axis), indexing="ij")
        nodes = np.stack([m.reshape(-1) for m in node_mesh], axis=-1)
        weights = np.prod(np.stack([m.reshape(-1) for m in w_mesh], axis=-1), axis=-1)
        return nodes, weights

    # -- public surface ------------------------------------------------------

    def normalizer(self, theta: ArrayLike) -> float:
        """Z(theta) = integral of q(theta|do(x)) over the intervention box."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        key = theta.tobytes()
        if key in self._norm_cache:
            return self._norm_cache[key]
        nodes, weights = self._box_nodes(theta)
        z = float(np.sum(weights * np.exp(_log_gauss_given_inputs(self.channel, theta, nodes))))
        if not (z > _NORMALIZER_FLOOR):
            raise UnreachableParameterError(
                f"no intervention in the box reaches theta={theta}: normalizer {z:g}"
            )
        self._norm_cache[key] = z
        return z

    def log_density(self, x: ArrayLike, theta: ArrayLike) -> float | np.ndarray:
        """log of the inverted density over interventions, at x given theta."""
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        x_arr = np.atleast_2d(np.asarray(x, dtype=float))
        for row in x_arr:
            if not self.box.contains(row):
                raise DomainViolationError(f"intervention {row} lies outside the box")
        logq = _log_gauss_given_inputs(self.channel, theta, x_arr)
        out = logq - math.log(self.normalizer(theta))
        return float(out[0]) if np.ndim(x) <= 1 else out

    def density(self, x: ArrayLike, theta: ArrayLike) -> float | np.ndarray:
        return np.exp(self.log_density(x, theta))

    def fisher(self, theta: ArrayLike) -> np.ndarray:
        """Fisher information of the inverted density with respect to theta.

        Equals the covariance, under the inverted density, of the exact
        per-intervention score d/dtheta log q(theta|do(x)); the normalizer
        term is the score's mean and drops out through the covariance.
        """
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        nodes, weights = self._box_nodes(theta)
        logq = _log_gauss_given_inputs(self.channel, theta, nodes)
        shift = float(np.max(logq))
        q = np.exp(logq - shift)
        sc = _score_given_inputs(self.channel, theta, nodes)
        wq = weights * q
        m0 = float(np.sum(wq))
        if not (m0 * math.exp(shift) > _NORMALIZER_FLOOR):
            raise UnreachableParameterError(
                f"no intervention in the box reaches theta={theta}"
            )
        mean_sc = (wq @ sc) / m0
        centered = sc - mean_sc
        cov = (centered.T * wq) @ centered / m0
        return 0.5 * (cov + cov.T)


def invert_uniform_prior(channel: GaussianChannel, x_set: InterventionSet) -> InvertedChannel:
    """Invert a channel against the uniform prior over a box of interventions."""
    if isinstance(x_set, DiscretePoints):
        raise InvalidConfigError(
            "uniform-prior inversion needs a continuous intervention box"
        )
    return InvertedChannel(channel, x_set.domain)
