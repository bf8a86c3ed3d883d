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


Entries = tp.Tuple[np.ndarray, ...]


def _entries(mats: np.ndarray) -> Entries:
    """The lower triangle of each matrix of a stack (..., d, d), row by row.

    (m00,) for d = 1 and (m00, m10, m11) for d = 2, as views. This is the
    form the estimator works on: entries may be any arrays that broadcast
    to one grid shape, so an entry that varies along one axis of a tensor
    grid stays a vector and a constant entry a scalar.
    """
    d = mats.shape[-1]
    return tuple(mats[..., i, j] for i in range(d) for j in range(i + 1))


def _gather(entries: Entries, where: tp.Any = Ellipsis) -> np.ndarray:
    """The symmetric matrices (..., d, d) that ``entries`` give at the nodes ``where`` selects."""
    shape = np.broadcast_shapes(*(np.shape(e) for e in entries))
    cols = [np.broadcast_to(e, shape)[where] for e in entries]
    d = (math.isqrt(8 * len(entries) + 1) - 1) // 2
    mats = np.empty(cols[0].shape + (d, d))
    for (i, j), col in zip([(i, j) for i in range(d) for j in range(i + 1)], cols):
        mats[..., i, j] = mats[..., j, i] = col
    return mats


def _potf2(entries: Entries) -> tuple[list[np.ndarray], np.ndarray | None, np.ndarray]:
    """LAPACK's unblocked potf2 on the matrices given by their entries, d <= 2.

    ``entries`` is (a,) or (a, b, c) = (m00, m10, m11), see :func:`_entries`.
    Returns the factor's diagonal [l00] or [l00, l11], its l10 (None for
    d = 1) and where a matrix fails, with the operations of potf2 (as
    OpenBLAS builds it) in its order, broadcast over the entries:
    l00 = sqrt(a), l10 = b * (1 / l00), l11 = sqrt(c - l10 * l10), failing
    where a pivot is <= 0. A NaN pivot is no failure. The entries of a
    failing matrix are left as the arithmetic makes them. FP flags are
    ignored; the public wrapper turns the invalid flag into one exception
    for the whole stack.
    """
    with np.errstate(all="ignore"):
        a = entries[0]
        diag = [np.sqrt(a)]
        failed = np.less_equal(a, 0.0)
        l10 = None
        if len(entries) == 3:
            l10 = entries[1] * (1.0 / diag[0])
            pivot = entries[2] - l10 * l10
            diag.append(np.sqrt(pivot))
            failed = failed | (pivot <= 0.0)
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
    diag, l10, failed = _potf2(_entries(mats))
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


def _small_logdet(entries: Entries) -> tuple[np.ndarray, np.ndarray]:
    """log det of the matrices given by their entries, d <= 2, and where it fails (NaN).

    The log det is an array, 0-d where every entry is a scalar.
    """
    diag, _, failed = _potf2(entries)
    with np.errstate(all="ignore"):
        logdet = np.asarray(2.0 * sum(np.log(l_jj) for l_jj in diag))
    np.copyto(logdet, np.nan, where=failed)
    return logdet, failed


def _logdet(entries: Entries, jitter: bool = False) -> np.ndarray:
    """log det of the matrices given by their entries (:func:`_entries`); NaN where one does not factor.

    2 * the sum of the logs of the Cholesky diagonal of :func:`_cholesky`,
    with the same jitter rule, in the broadcast shape of the entries. For
    d <= 2 the diagonal comes from the potf2 pivots (:func:`_potf2`) without
    building a matrix or factor stack; the jitter retries the failing
    matrices alone, gathered into a small stack. Above d = 2 the matrices
    are gathered and factored by LAPACK.
    """
    if len(entries) > 3:
        chol = _cholesky(_gather(entries), jitter)
        # Summed in order, as np.sum does over fewer than 8 terms.
        return 2.0 * sum(np.log(chol[..., j, j]) for j in range(chol.shape[-1]))
    logdet, failed = _small_logdet(entries)
    if jitter and failed.any():
        logdet[failed] = _small_logdet(_entries(_jittered(_gather(entries, failed))))[0]
    return logdet


def _require_factored(logdet: np.ndarray, points: np.ndarray | None, what: str) -> None:
    """Raise DegenerateModelError naming the first point whose log det is NaN.

    ``points`` (..., d) holds the nodes in the shape ``logdet`` broadcasts to.
    """
    failed = np.isnan(logdet)
    if failed.any():
        where = ""
        if points is not None:
            first = int(np.argmax(np.broadcast_to(failed, points.shape[:-1])))
            where = f" at {points.reshape(-1, points.shape[-1])[first]}"
        raise DegenerateModelError(f"{what} is not positive definite{where}")


@dataclasses.dataclass(frozen=True)
class MetricField:
    """A symmetric-matrix-valued function of the parameter point.

    ``func`` and ``batch_func`` must return symmetric matrices; the field
    passes them on as they are. A constructor whose arithmetic can break
    symmetry in the last bit symmetrizes once, itself.

    ``grid_func`` is an optional hook for the geometric estimator: given the
    node vectors of a tensor grid, one per axis, it returns the field's
    entries there (see :meth:`grid`), each an array that broadcasts to the
    grid shape. A field whose entries separate along the axes, or are
    constant, can then compute them on vectors instead of at every node.
    """

    func: tp.Callable[[np.ndarray], np.ndarray]
    dim: int
    batch_func: tp.Callable[[np.ndarray], np.ndarray] | None = None
    grid_func: tp.Callable[[tp.Sequence[np.ndarray]], Entries] | None = None

    def __call__(self, theta: ArrayLike) -> np.ndarray:
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        return np.asarray(self.func(theta), dtype=float)

    def batch(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at (n, dim) points, returning (n, dim, dim)."""
        points = np.asarray(points, dtype=float)
        if self.batch_func is not None:
            return np.asarray(self.batch_func(points), dtype=float)
        return np.stack([self(p) for p in points])

    def grid(self, axes: tp.Sequence[np.ndarray], points: np.ndarray) -> Entries:
        """The entries (m00,) or (m00, m10, m11) on the tensor grid of ``axes``.

        ``points`` (N, dim) is that grid flattened in C order. Each entry
        broadcasts to the grid shape (len(axis) for each axis). They come from
        ``grid_func`` when the field has one, else from :meth:`batch` at
        ``points``, as views of its stack.
        """
        if self.grid_func is not None:
            return self.grid_func(axes)
        shape = tuple(len(axis) for axis in axes) + (self.dim, self.dim)
        return _entries(self.batch(points).reshape(shape))


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
    axis 0, and its grid entries are scalars, which the estimator factors
    once.
    """
    matrix = _sym(np.atleast_2d(np.asarray(matrix, dtype=float)))
    matrix.setflags(write=False)  # every call hands out this one array
    entries = _entries(matrix)

    def batch(points: np.ndarray) -> np.ndarray:
        return np.broadcast_to(matrix, (points.shape[0],) + matrix.shape)

    return MetricField(lambda theta: matrix, dim, batch, lambda axes: entries)


# ---------------------------------------------------------------------------
# mismatch
# ---------------------------------------------------------------------------


def mismatch_at(g_mat: np.ndarray, h_mat: np.ndarray) -> float:
    """Local mismatch 0.5 * [logdet(g + h) - logdet(g)] at one point.

    +inf where g is singular; see :func:`_mismatch_batch`.
    """
    g_mat = np.atleast_2d(np.asarray(g_mat, dtype=float))
    h_mat = np.atleast_2d(np.asarray(h_mat, dtype=float))
    return float(_mismatch_batch(_entries(g_mat[None]), _entries(h_mat[None]))[0])


def _mismatch_batch(g: Entries, h: Entries, points: np.ndarray | None = None) -> np.ndarray:
    """Mismatch from the entries of g and h (:func:`_entries`), in their broadcast shape.

    ``points`` only names a failing point (see :func:`_require_factored`).
    Gives +inf where g does not factor (without jitter): the parameter
    directions h still cares about are then invisible to the effects, and the
    log ratio genuinely diverges. A g + h that stays indefinite after the
    jitter instead makes the comparison itself undefined and raises. g + h
    is summed entry by entry, so no matrix stack is built for d <= 2.
    """
    ld_sum = _logdet(tuple(g_e + h_e for g_e, h_e in zip(g, h)), jitter=True)
    _require_factored(ld_sum, points, "g + h")
    ld_g = _logdet(g)
    return np.where(np.isnan(ld_g), math.inf, 0.5 * (ld_sum - ld_g))


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
