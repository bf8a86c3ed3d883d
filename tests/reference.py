"""The paper's definition of the intervention metric h, as a test reference.

h is the Fisher metric of the intervention noise inverted against the
uniform intervention prior. An intervention x sets the parameter to
theta ~ N(x, Sigma(x)); inverting that against the prior gives, for each
parameter value theta, a normalized density over the interventions that
could have produced it. The normalization integral runs over the
intervention box only; parameter-side densities are never truncated.

Every bundled model gives h in closed form, so the package carries no
numerical inversion; the tests check each closed-form h against this one.
Likewise every channel carries its analytic Jacobian, and the tests check
each against the central difference of its mean map built here.
"""

from __future__ import annotations

import dataclasses
import math
import typing as tp

import numpy as np

from causalgeom import DiscretePoints, Domain, InvalidConfigError, MetricField, NumericalFailureError
from causalgeom._quadrature import gauss_legendre
from causalgeom.channels import GaussianChannel, InterventionSet, NoiseSpec, gaussian_log_density

ArrayLike = tp.Union[float, tp.Sequence[float], np.ndarray]

# Normalization integrals below this value mean "no allowed intervention
# reaches this parameter point".
_NORMALIZER_FLOOR = 1e-300


class DomainViolationError(InvalidConfigError):
    """A point lies outside the domain it is required to be in."""


class UnreachableParameterError(NumericalFailureError):
    """No intervention in the box reaches this parameter value.

    Raised when the normalization integral of the inverted channel underflows
    (below 1e-300), i.e. the parameter point is essentially impossible under
    every allowed intervention.
    """


def _contains(box: Domain, point: ArrayLike, rtol: float = 1e-9) -> bool:
    p = np.atleast_1d(np.asarray(point, dtype=float))
    slack = rtol * box.spans
    return bool(np.all(p >= box.lower - slack) and np.all(p <= box.upper + slack))


# ---------------------------------------------------------------------------
# density of the parameter given the intervention, vectorized over interventions
# ---------------------------------------------------------------------------


def _log_gauss_given_inputs(noise: NoiseSpec, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """log q(theta | do(x_i)) for a batch of interventions x (n, d), fixed theta."""
    return gaussian_log_density(noise, theta, x)


def _score_given_inputs(noise: NoiseSpec, theta: np.ndarray, x: np.ndarray) -> np.ndarray:
    """d/dtheta log q(theta | do(x_i)) = -Sigma(x_i)^-1 (theta - x_i).

    Exact: the covariance never depends on theta, only on the intervention.
    """
    return -noise.whiten(noise.whiten(theta - x, x), x)


# ---------------------------------------------------------------------------
# uniform-prior inversion
# ---------------------------------------------------------------------------


class InvertedChannel:
    """Posterior over interventions given a parameter value, uniform prior.

    For a fixed parameter theta the density over interventions x in the box
    is q(theta|do(x)) / Z(theta) with Z the integral of the numerator over
    the box. Parameters are unbounded; only this normalization is
    box-truncated.
    """

    def __init__(self, noise: NoiseSpec, box: Domain):
        self.noise = noise
        self.box = box
        self._norm_cache: dict[bytes, float] = {}

    # -- peak location and integration windows ------------------------------

    def _peak(self, theta: np.ndarray) -> np.ndarray:
        """Intervention in the box closest to theta (ish)."""
        lo, hi = self.box.lower, self.box.upper
        grids = [np.linspace(lo[k], hi[k], 33) for k in range(self.box.dim)]
        mesh = np.stack(np.meshgrid(*grids, indexing="ij"), axis=-1).reshape(-1, self.box.dim)
        logq = _log_gauss_given_inputs(self.noise, theta, mesh)
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
                vals = _log_gauss_given_inputs(self.noise, theta, cand)
                x0 = cand[int(np.argmax(vals))]
            width /= 8.0
        return x0

    def _segments(self, theta: np.ndarray, x_star: np.ndarray) -> list[list[tuple[float, float, int]]]:
        """Per-axis integration segments: a dense window at the peak plus the
        rest of the box at lower order.

        The window reaches 12 of the widest noise sds either side of the
        peak. Its node count resolves the narrowest direction of the noise
        ridge, sig_min wide: two nodes per such width, and never fewer than
        160. On a scalar box, and for isotropic noise, that is at most 48,
        so the window keeps 160 nodes; the skewed two-species noise of
        [[1, .8], [.7, 1]] (sds 7 to 1) gets 335 at the box centre.
        """
        sig_max = self.noise.scale_bound(x_star)
        sig_min = math.sqrt(float(np.min(np.linalg.eigvalsh(self.noise.covariance(x_star)))))
        half = 12.0 * sig_max
        segments: list[list[tuple[float, float, int]]] = []
        for k in range(self.box.dim):
            lo, hi = self.box.axes[k]
            a = max(lo, x_star[k] - half)
            b = min(hi, x_star[k] + half)
            segs = []
            if a > lo:
                segs.append((lo, a, 48))
            segs.append((a, b, max(160, math.ceil(2.0 * (b - a) / sig_min))))
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
        z = float(np.sum(weights * np.exp(_log_gauss_given_inputs(self.noise, theta, nodes))))
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
            if not _contains(self.box, row):
                raise DomainViolationError(f"intervention {row} lies outside the box")
        logq = _log_gauss_given_inputs(self.noise, theta, x_arr)
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
        logq = _log_gauss_given_inputs(self.noise, theta, nodes)
        shift = float(np.max(logq))
        q = np.exp(logq - shift)
        sc = _score_given_inputs(self.noise, theta, nodes)
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


def invert_uniform_prior(noise: NoiseSpec, x_set: InterventionSet) -> InvertedChannel:
    """Invert the intervention noise against the uniform prior over a box of interventions."""
    if isinstance(x_set, DiscretePoints):
        raise InvalidConfigError(
            "uniform-prior inversion needs a continuous intervention box"
        )
    return InvertedChannel(noise, x_set.domain)


def intervention_metric(inverted: InvertedChannel) -> MetricField:
    """Fisher metric of the uniform-prior inverted intervention noise."""
    return MetricField.from_batch(
        lambda points: np.stack([inverted.fisher(p) for p in points]), inverted.box.dim
    )


# ---------------------------------------------------------------------------
# finite-difference Jacobian
# ---------------------------------------------------------------------------


def finite_difference_channel(channel: GaussianChannel, box: Domain) -> GaussianChannel:
    """The channel with its Jacobian replaced by the central difference of its mean map.

    The step on each input axis is 1e-5 of the box's span on that axis.
    """
    steps = 1e-5 * box.spans

    def jacobian(x: np.ndarray) -> np.ndarray:
        cols = []
        for k in range(box.dim):
            e = np.zeros(box.dim)
            e[k] = steps[k]
            cols.append((channel.mean(x + e) - channel.mean(x - e)) / (2.0 * steps[k]))
        return np.stack(cols, axis=-1)

    return dataclasses.replace(channel, jacobian=jacobian)
