"""Gaussian causal channels, intervention sets and noise.

A channel maps an input point to a Gaussian distribution over an output
space: the mean comes from a smooth map, the covariance from a noise
specification evaluated at that mean. An intervention sets the parameter
itself, blurred by a noise spec; interventions are modelled as either a
uniform box or a finite set of points with equal weights, and each set
supplies the parameter mixture that the exact estimators average over.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import typing as tp

import numpy as np

from ._quadrature import gauss_legendre, graded_gauss_legendre
from ._special import box_mass, logsumexp, ndtr
from .errors import DegenerateDistributionError, InvalidConfigError, UseMonteCarloError

ArrayLike = tp.Union[float, tp.Sequence[float], np.ndarray]

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


# An intervention sets the parameter itself, blurred by the intervention
# noise: q(theta | do(x)) = N(theta; x, Sigma(x)). Every intervention set
# answers the same questions about the mixture mean_x q(theta|do(x)) it
# induces: its log density at parameter points (..., d) under a noise spec,
# the range of the interventions, and the interventions and weights of an
# outer average over the set. The exact estimators average over a set only
# through these. An outer rule may be graded into layers of the integrand:
# their centres and widths, two arrays (n,) in parameter units.

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

    def log_mixture(self, noise: NoiseSpec) -> tp.Callable[[np.ndarray], np.ndarray]:
        """log of the box average of q(theta | do(x)), for theta (..., d).

        Closed forms need intervention noise that does not depend on the
        state: normal CDF differences for diagonal noise in any dimension,
        and one conditional-CDF quadrature for full covariance in two
        dimensions. Anything else raises UseMonteCarloError.

        Each call evaluates all its points at once; the exact kernel hands
        it one row block at a time (ei._BLOCK points at most).
        """
        if isinstance(noise, DiagonalStateDependent):
            raise UseMonteCarloError(
                "a box-averaged parameter density needs constant intervention noise"
            )
        lo, hi = self.domain.lower, self.domain.upper
        log_vol = math.log(self.domain.volume)
        cov = noise.covariance(lo)

        if np.allclose(cov, np.diag(np.diag(cov)), atol=0.0):
            axes = tuple(zip(lo.tolist(), hi.tolist(), np.sqrt(np.diag(cov)).tolist()))

            def log_mix(theta: np.ndarray) -> np.ndarray:
                flat = np.reshape(theta, (-1, self.dim))
                out = np.zeros(flat.shape[0])
                for k, (a, b, s) in enumerate(axes):
                    probs = box_mass(flat[:, k], a, b, s)
                    out += np.log(np.maximum(probs, 1e-300, out=probs), out=probs)
                out -= log_vol
                return out.reshape(np.shape(theta)[:-1])

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

    def mean_range(self) -> tuple[np.ndarray, np.ndarray]:
        """The box edges."""
        return self.domain.lower, self.domain.upper

    def components(self, nodes: int, layers: Layers) -> tuple[np.ndarray, np.ndarray]:
        """Interventions (m, d) and weights (m,), summing to one, of the outer rule on a scalar box.

        Composite Gauss-Legendre with ``nodes`` nodes on each panel, graded
        into ``layers``.
        """
        if self.dim != 1:
            raise UseMonteCarloError("an outer rule over a box needs scalar interventions")
        lo, hi = self.domain.axes[0]
        x, w = graded_gauss_legendre(lo, hi, *layers, nodes)
        return x[:, None], w / self.domain.volume


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

    def log_mixture(self, noise: NoiseSpec) -> tp.Callable[[np.ndarray], np.ndarray]:
        """log of the mean of q(theta | do(x)) over the points, for theta (..., d)."""
        log_k = math.log(self.points.shape[0])

        def log_mix(theta: np.ndarray) -> np.ndarray:
            log_q = gaussian_log_density(noise, theta[..., None, :], self.points)
            return logsumexp(log_q, axis=-1) - log_k

        return log_mix

    def mean_range(self) -> tuple[np.ndarray, np.ndarray]:
        """The extreme points on each axis."""
        return np.min(self.points, axis=0), np.max(self.points, axis=0)

    def components(self, nodes: int, layers: Layers) -> tuple[np.ndarray, np.ndarray]:
        """Every point with equal weight; the node count and layers do not apply."""
        k = self.points.shape[0]
        return self.points, np.full(k, 1.0 / k)


InterventionSet = tp.Union[UniformBox, DiscretePoints]


# ---------------------------------------------------------------------------
# noise specifications
# ---------------------------------------------------------------------------


# Every noise spec answers the same questions about its covariance Sigma(mean)
# at a batch of means (..., d), an effect channel's means or, for intervention
# noise, the interventions themselves: the matrix itself, a whitened residual
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
        atol = 1e-12 * max(1.0, float(np.abs(c).max()))
        # np.allclose's test at its default rtol, written out: a third of allclose's cost on a 2 x 2
        if not np.all(np.abs(c - c_t) <= atol + 1e-5 * np.abs(c_t)):
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
    if white.shape[-1] == 1:
        # the einsum's value; whiten returns a new array, so it is squared in place
        out = np.multiply(white, white, out=white)[..., 0]
    else:
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
