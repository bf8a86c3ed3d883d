"""The paper's definition of the intervention metric h, as a test reference.

h is the Fisher metric of the channel inverted against the uniform
intervention prior. Inverting a channel against that prior gives, for each
output value theta, a normalized density over the interventions that could
have produced it. The normalization integral runs over the intervention box
only; output-side densities are never truncated.

Every bundled model gives h in closed form, so the package carries no
numerical inversion; the tests check each closed-form h against this one.
"""

from __future__ import annotations

import math
import typing as tp

import numpy as np

from causalgeom import CausalGeomError, DiscretePoints, Domain, GaussianChannel, InvalidConfigError, MetricField
from causalgeom._quadrature import gauss_legendre
from causalgeom.channels import InterventionSet, gaussian_log_density

ArrayLike = tp.Union[float, tp.Sequence[float], np.ndarray]

# Normalization integrals below this value mean "no allowed intervention
# reaches this parameter point".
_NORMALIZER_FLOOR = 1e-300


class DomainViolationError(CausalGeomError):
    """A point lies outside the domain it is required to be in."""


class UnreachableParameterError(CausalGeomError):
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
        rest of the box at lower order.

        The window reaches 12 of the widest noise sds either side of the
        peak. Its node count resolves the narrowest direction of the noise
        ridge, at least sig_min / s_max wide in the interventions: two nodes
        per such width, and never fewer than 160. On a scalar box, and for
        isotropic noise through the identity, that is at most 48, so the
        window keeps 160 nodes; the skewed two-species noise of
        [[1, .8], [.7, 1]] (sds 7 to 1) gets 335 at the box centre.
        """
        mean = self.channel.mean(x_star)
        sig_max = self.channel.noise.scale_bound(mean)
        sig_min = math.sqrt(float(np.min(np.linalg.eigvalsh(self.channel.noise.covariance(mean)))))
        jac = self.channel.jac(x_star)
        svals = np.linalg.svd(jac, compute_uv=False)
        s_min = float(svals.min()) if svals.size else 0.0
        s_max = float(svals.max()) if svals.size else 0.0
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
            segs.append((a, b, max(160, math.ceil(2.0 * (b - a) * s_max / sig_min))))
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
            if not _contains(self.box, row):
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


def intervention_metric(inverted: InvertedChannel) -> MetricField:
    """Fisher metric of the uniform-prior inverted channel."""
    return MetricField.from_batch(
        lambda points: np.stack([inverted.fisher(p) for p in points]), inverted.channel.dim_out
    )
