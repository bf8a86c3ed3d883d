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
from numpy.linalg import _umath_linalg

from .channels import GaussianChannel, InvertedChannel
from .errors import DegenerateModelError, IllPosedInterventionsError

ArrayLike = tp.Union[float, tp.Sequence[float], np.ndarray]


def _sym(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + np.swapaxes(m, -1, -2))


def _potf2(mats: np.ndarray) -> tuple[list[np.ndarray], np.ndarray | None, np.ndarray]:
    """LAPACK's unblocked potf2 on each matrix of a stack (..., d, d), d <= 2.

    Returns the factor's diagonal [l00] or [l00, l11], its l10 (None for
    d = 1) and where a matrix fails, with the operations of potf2 (as
    OpenBLAS builds it) in its order on stack-shaped vectors:
    l00 = sqrt(a), l10 = b * (1 / l00), l11 = sqrt(c - l10 * l10), failing
    where a pivot is <= 0. A NaN pivot is no failure. The entries of a
    failing matrix are left as the arithmetic makes them. FP flags are
    ignored; the public wrapper turns the invalid flag into one exception
    for the whole stack.
    """
    with np.errstate(all="ignore"):
        a = mats[..., 0, 0]
        diag = [np.sqrt(a)]
        failed = a <= 0.0
        l10 = None
        if mats.shape[-1] == 2:
            l10 = mats[..., 1, 0] * (1.0 / diag[0])
            pivot = mats[..., 1, 1] - l10 * l10
            diag.append(np.sqrt(pivot))
            failed |= pivot <= 0.0
    return diag, l10, failed


def _potrf(mats: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of each matrix of a stack (..., d, d).

    A matrix that does not factor becomes all NaN, upper triangle included;
    a factor has a zero upper triangle. For d <= 2 the factor is assembled
    from :func:`_potf2`; a NaN pivot is no failure, so a factor that inherits
    a NaN keeps its zero upper triangle. That is the gufunc behind ``np.linalg.cholesky`` bit for bit,
    without its per-matrix copy and LAPACK call; the one exception is a +inf
    pivot over an infinite or NaN b, where OpenBLAS scales by 1 / l00 = 0 by
    writing zeros and IEEE arithmetic gives NaN. For d >= 3 the gufunc
    factors the stack in one call, its FP flags ignored.
    """
    if mats.shape[-1] > 2:
        with np.errstate(all="ignore"):
            return _umath_linalg.cholesky_lo(mats, signature="d->d")
    diag, l10, failed = _potf2(mats)
    chol = np.zeros(mats.shape)
    for j, l_jj in enumerate(diag):
        chol[..., j, j] = l_jj
    if l10 is not None:
        chol[..., 1, 0] = l10
    chol[failed] = np.nan
    return chol


def _jittered(mats: np.ndarray) -> np.ndarray:
    """The stack (n, d, d) with 1e-12 * trace/d added to each diagonal: the one retry."""
    d = mats.shape[-1]
    shift = (1e-12 * np.trace(mats, axis1=-2, axis2=-1)) / d
    return mats + shift[:, None, None] * np.eye(d)


def _cholesky(mats: np.ndarray, jitter: bool = False) -> np.ndarray:
    """Lower Cholesky factors of a stack (n, d, d); NaN where a matrix does not factor.

    With ``jitter``, the failing matrices are retried once, in one more
    :func:`_potrf` call, through :func:`_jittered`, which absorbs round-off
    but not a genuinely indefinite matrix. Every factor is the one
    ``np.linalg.cholesky`` gives that matrix alone: LAPACK's arithmetic for
    d <= 2, the gufunc itself above, which unlike the public function reports
    a failure per matrix.
    """
    chol = _potrf(mats)
    if jitter:
        # A failure is all NaN, while a factor's upper corner is 0 even when
        # it inherits a NaN from its input; such a factor is not retried.
        failed = np.isnan(chol[..., 0, -1])
        if failed.any():
            chol[failed] = _potrf(_jittered(mats[failed]))
    return chol


def _small_logdet(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """log det of each matrix of a stack (n, d, d), d <= 2, and where it fails (NaN)."""
    diag, _, failed = _potf2(mats)
    with np.errstate(all="ignore"):
        logdet = 2.0 * sum(np.log(l_jj) for l_jj in diag)
    np.copyto(logdet, np.nan, where=failed)
    return logdet, failed


def _logdet(mats: np.ndarray, jitter: bool = False) -> np.ndarray:
    """log det of each matrix of a stack (n, d, d); NaN where it does not factor.

    2 * the sum of the logs of the Cholesky diagonal of :func:`_cholesky`,
    with the same jitter rule. For d <= 2 the diagonal comes from the potf2
    pivots (:func:`_potf2`) as stack-shaped vectors, without building the
    factor stack. A stack that repeats one matrix along a stride-0 axis 0 (a
    constant metric's batch) is factored once, and that log det is broadcast.
    """
    if len(mats) > 1 and mats.strides[0] == 0:
        return np.broadcast_to(_logdet(mats[:1], jitter), mats.shape[:1])
    d = mats.shape[-1]
    if d > 2:
        chol = _cholesky(mats, jitter)
        # Summed in order, as np.sum does over fewer than 8 terms.
        return 2.0 * sum(np.log(chol[..., j, j]) for j in range(d))
    logdet, failed = _small_logdet(mats)
    if jitter and failed.any():
        logdet[failed] = _small_logdet(_jittered(mats[failed]))[0]
    return logdet


def _require_factored(logdet: np.ndarray, points: np.ndarray | None, what: str) -> None:
    """Raise DegenerateModelError naming the first point whose log det is NaN."""
    failed = np.isnan(logdet)
    if failed.any():
        where = "" if points is None else f" at {points[int(np.argmax(failed))]}"
        raise DegenerateModelError(f"{what} is not positive definite{where}")


def chol_logdet(m: np.ndarray) -> float:
    """log det of an SPD matrix via Cholesky, with the one jitter of :func:`_cholesky`."""
    logdet = _logdet(np.asarray(m, dtype=float)[None], jitter=True)
    _require_factored(logdet, None, "matrix")
    return float(logdet[0])


@dataclasses.dataclass(frozen=True)
class MetricField:
    """A symmetric-matrix-valued function of the parameter point.

    ``func`` and ``batch_func`` must return symmetric matrices; the field
    passes them on as they are. A constructor whose arithmetic can break
    symmetry in the last bit symmetrizes once, itself.
    """

    func: tp.Callable[[np.ndarray], np.ndarray]
    dim: int
    batch_func: tp.Callable[[np.ndarray], np.ndarray] | None = None

    def __call__(self, theta: ArrayLike) -> np.ndarray:
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        return np.asarray(self.func(theta), dtype=float)

    def batch(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at (n, dim) points, returning (n, dim, dim)."""
        points = np.asarray(points, dtype=float)
        if self.batch_func is not None:
            return np.asarray(self.batch_func(points), dtype=float)
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
        return _sym(wj_t @ np.swapaxes(wj_t, -1, -2))

    return MetricField(fisher, channel.dim_in, fisher)


def intervention_metric(inverted: InvertedChannel) -> MetricField:
    """Fisher metric of the uniform-prior inverted channel."""
    return MetricField(inverted.fisher, inverted.channel.dim_out)


def constant_metric(matrix: np.ndarray, dim: int) -> MetricField:
    """A metric field equal to the same matrix everywhere.

    Its batch is a read-only view repeating the matrix along a stride-0
    axis 0, which :func:`_logdet` factors once.
    """
    matrix = _sym(np.atleast_2d(np.asarray(matrix, dtype=float)))
    matrix.setflags(write=False)  # every call hands out this one array

    def batch(points: np.ndarray) -> np.ndarray:
        return np.broadcast_to(matrix, (points.shape[0],) + matrix.shape)

    return MetricField(lambda theta: matrix, dim, batch)


# ---------------------------------------------------------------------------
# mismatch
# ---------------------------------------------------------------------------


def mismatch_at(g_mat: np.ndarray, h_mat: np.ndarray) -> float:
    """Local mismatch 0.5 * [logdet(g + h) - logdet(g)] at one point.

    +inf where g is singular; see :func:`_mismatch_batch`.
    """
    g_mat = np.atleast_2d(np.asarray(g_mat, dtype=float))
    h_mat = np.atleast_2d(np.asarray(h_mat, dtype=float))
    return float(_mismatch_batch(g_mat[None], h_mat[None])[0])


def _mismatch_batch(
    g_stack: np.ndarray, h_stack: np.ndarray, points: np.ndarray | None = None
) -> np.ndarray:
    """Mismatch over stacks (n, d, d); ``points`` only names a failing point.

    Gives +inf where g does not factor (without jitter): the parameter
    directions h still cares about are then invisible to the effects, and the
    log ratio genuinely diverges. A g + h that stays indefinite after the
    jitter instead makes the comparison itself undefined and raises.
    """
    ld_sum = _logdet(g_stack + h_stack, jitter=True)
    _require_factored(ld_sum, points, "g + h")
    ld_g = _logdet(g_stack)
    return np.where(np.isnan(ld_g), math.inf, 0.5 * (ld_sum - ld_g))


def mismatch(g: MetricField, h: MetricField) -> ScalarField:
    """The mismatch as a scalar field over parameter space."""
    if g.dim != h.dim:
        raise DegenerateModelError("metric fields live on spaces of different dimension")

    def batch(points: np.ndarray) -> np.ndarray:
        return _mismatch_batch(g.batch(points), h.batch(points), points)

    return ScalarField(lambda theta: batch(theta[None])[0], g.dim, batch)


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
    chol = _cholesky(h(theta)[None], jitter=True)[0]
    if np.isnan(chol).any():
        raise IllPosedInterventionsError(f"intervention metric is singular at theta={theta}")
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
        return _sym(jac.T @ m(np.atleast_1d(np.asarray(phi.func(theta_new), dtype=float))) @ jac)

    return MetricField(single, m.dim)
