"""Metric fields over parameter space and their comparison.

Two Riemannian metrics live on the parameter manifold of a causal chain: the
effect metric g (how distinguishable nearby parameters are from downstream
observations) and the intervention metric h (how precisely upstream
interventions pin the parameter down). Their relative size, summarized by the
eigenvalues of the pencil (g, h) and by the local mismatch
l = 0.5 * logdet(1 + g^-1 h), is what the information quantities in
:mod:`causalgeom.ei` integrate.
"""

from __future__ import annotations

import dataclasses
import math
import typing as tp

import numpy as np

from .channels import GaussianChannel, InvertedChannel
from .errors import DegenerateModelError, IllPosedInterventionsError

ArrayLike = tp.Union[float, tp.Sequence[float], np.ndarray]


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def chol_logdet(m: np.ndarray, jitter: bool = True) -> float:
    """log det of an SPD matrix via Cholesky.

    On failure, one jitter of 1e-12 * trace/d is added and the factorization
    retried; a second failure means the matrix is genuinely indefinite.
    """
    try:
        chol = np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        if not jitter:
            raise
        d = m.shape[-1]
        eps = 1e-12 * float(np.trace(m)) / d
        try:
            chol = np.linalg.cholesky(m + eps * np.eye(d))
        except np.linalg.LinAlgError as exc:
            raise DegenerateModelError(
                "matrix stayed non-positive-definite after one jitter"
            ) from exc
    return 2.0 * float(np.sum(np.log(np.diag(chol))))


@dataclasses.dataclass(frozen=True)
class MetricField:
    """A symmetric-matrix-valued function of the parameter point."""

    func: tp.Callable[[np.ndarray], np.ndarray]
    dim: int
    batch_func: tp.Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, theta: ArrayLike) -> np.ndarray:
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        return _sym(np.asarray(self.func(theta), dtype=float))

    def batch(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at (n, dim) points, returning (n, dim, dim)."""
        points = np.asarray(points, dtype=float)
        if self.batch_func is not None:
            return _sym(np.asarray(self.batch_func(points), dtype=float))
        return np.stack([self(p) for p in points])


@dataclasses.dataclass(frozen=True)
class ScalarField:
    """A scalar-valued function of the parameter point."""

    func: tp.Callable[[np.ndarray], float]
    dim: int
    batch_func: tp.Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, theta: ArrayLike) -> float:
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        return float(self.func(theta))

    def batch(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        if self.batch_func is not None:
            return np.asarray(self.batch_func(points), dtype=float)
        return np.array([self(p) for p in points])


@dataclasses.dataclass(frozen=True)
class SmoothMap:
    """A differentiable change of parameters with an explicit Jacobian."""

    func: tp.Callable[[np.ndarray], np.ndarray]
    jacobian: tp.Callable[[np.ndarray], np.ndarray]


@dataclasses.dataclass(frozen=True)
class EigenReport:
    """Eigenvalues of the pencil (g, h), i.e. of h^-1 g, at one point.

    ``basis`` holds the eigenvector columns in the coordinates where h is the
    identity (the h-whitened frame), ordered like ``eigenvalues``
    (descending).
    """

    eigenvalues: np.ndarray
    basis: np.ndarray
    theta: np.ndarray


# ---------------------------------------------------------------------------
# metric constructors
# ---------------------------------------------------------------------------


def effect_metric(channel: GaussianChannel) -> MetricField:
    """Fisher metric of the effect channel: J^T Sigma^-1 J at the channel mean.

    Works on one point (d,) or a batch (n, d) alike.
    """

    def fisher(theta: np.ndarray) -> np.ndarray:
        mean = channel.mean(theta)
        jac = np.asarray(channel.jac(theta), dtype=float)  # (..., dy, dt)
        wj_t = channel.noise.whiten(np.swapaxes(jac, -1, -2), mean[..., None, :])  # (W J)^T
        return wj_t @ np.swapaxes(wj_t, -1, -2)

    return MetricField(fisher, channel.dim_in, fisher)


def intervention_metric(inverted: InvertedChannel) -> MetricField:
    """Fisher metric of the uniform-prior inverted channel."""
    return MetricField(inverted.fisher, inverted.channel.dim_out)


def constant_metric(matrix: np.ndarray, dim: int) -> MetricField:
    """A metric field equal to the same matrix everywhere."""
    matrix = _sym(np.atleast_2d(np.asarray(matrix, dtype=float)))

    def batch(points: np.ndarray) -> np.ndarray:
        return np.broadcast_to(matrix, (points.shape[0],) + matrix.shape).copy()

    return MetricField(lambda theta: matrix, dim, batch)


# ---------------------------------------------------------------------------
# mismatch
# ---------------------------------------------------------------------------


def mismatch_at(g_mat: np.ndarray, h_mat: np.ndarray) -> float:
    """Local mismatch 0.5 * [logdet(g + h) - logdet(g)] at one point.

    Returns +inf when g is singular (to numerical precision, without jitter):
    the parameter directions h still cares about are then invisible to the
    effects, and the log ratio genuinely diverges. A singular g + h instead
    means the comparison itself is undefined and raises.
    """
    g_mat = np.atleast_2d(np.asarray(g_mat, dtype=float))
    h_mat = np.atleast_2d(np.asarray(h_mat, dtype=float))
    try:
        logdet_sum = chol_logdet(g_mat + h_mat, jitter=True)
    except np.linalg.LinAlgError as exc:
        raise DegenerateModelError("g + h is singular; mismatch undefined") from exc
    try:
        logdet_g = chol_logdet(g_mat, jitter=False)
    except np.linalg.LinAlgError:
        return math.inf
    return 0.5 * (logdet_sum - logdet_g)


def _mismatch_batch(g_stack: np.ndarray, h_stack: np.ndarray) -> np.ndarray:
    """Vectorized mismatch over stacks; falls back per point on failure."""
    try:
        chol_sum = np.linalg.cholesky(g_stack + h_stack)
        chol_g = np.linalg.cholesky(g_stack)
    except np.linalg.LinAlgError:
        return np.array([mismatch_at(g, h) for g, h in zip(g_stack, h_stack)])
    ld_sum = 2.0 * np.sum(np.log(np.diagonal(chol_sum, axis1=-2, axis2=-1)), axis=-1)
    ld_g = 2.0 * np.sum(np.log(np.diagonal(chol_g, axis1=-2, axis2=-1)), axis=-1)
    return 0.5 * (ld_sum - ld_g)


def mismatch(g: MetricField, h: MetricField) -> ScalarField:
    """The mismatch as a scalar field over parameter space."""
    if g.dim != h.dim:
        raise DegenerateModelError("metric fields live on spaces of different dimension")

    def single(theta: np.ndarray) -> float:
        return mismatch_at(g(theta), h(theta))

    def batch(points: np.ndarray) -> np.ndarray:
        return _mismatch_batch(g.batch(points), h.batch(points))

    return ScalarField(single, g.dim, batch)


# ---------------------------------------------------------------------------
# pencil eigenvalues and coordinate changes
# ---------------------------------------------------------------------------


def causal_eigenvalues(g: MetricField, h: MetricField, theta: ArrayLike) -> EigenReport:
    """Eigen-decomposition of h^-1 g at theta, via Cholesky whitening of h.

    The whitened matrix L^-1 g L^-T (h = L L^T) is symmetric, so the solve is
    stable and the eigenvalues are exactly those of h^-1 g.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    g_mat = g(theta)
    h_mat = h(theta)
    try:
        chol = np.linalg.cholesky(h_mat)
    except np.linalg.LinAlgError:
        d = h_mat.shape[0]
        eps = 1e-12 * float(np.trace(h_mat)) / d
        try:
            chol = np.linalg.cholesky(h_mat + eps * np.eye(d))
        except np.linalg.LinAlgError as exc:
            raise IllPosedInterventionsError(
                f"intervention metric is singular at theta={theta}"
            ) from exc
    half = np.linalg.solve(chol, g_mat)
    whitened = np.linalg.solve(chol, half.T)
    whitened = _sym(whitened)
    vals, vecs = np.linalg.eigh(whitened)
    order = np.argsort(vals)[::-1]
    return EigenReport(eigenvalues=vals[order], basis=vecs[:, order], theta=theta)


def reparameterize(m: MetricField, phi: SmoothMap) -> MetricField:
    """Pull a metric field back through a change of parameters.

    With theta = phi(theta'), the new field is J_phi^T m(phi(theta')) J_phi,
    which is the unique transformation keeping lengths of curves unchanged.
    """

    def single(theta_new: np.ndarray) -> np.ndarray:
        jac = np.atleast_2d(np.asarray(phi.jacobian(theta_new), dtype=float))
        return jac.T @ m(np.atleast_1d(np.asarray(phi.func(theta_new), dtype=float))) @ jac

    return MetricField(single, m.dim)
