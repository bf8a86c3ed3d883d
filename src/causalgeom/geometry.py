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

from .channels import GaussianChannel
from .errors import NumericalFailureError

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


def _dim(entries: Entries) -> int:
    """d, from the d * (d + 1) / 2 entries of a lower triangle."""
    return (math.isqrt(8 * len(entries) + 1) - 1) // 2


def _gather(entries: Entries, shape: tuple[int, ...] = ()) -> np.ndarray:
    """The symmetric matrices (..., d, d) that ``entries`` give, in their broadcast shape with ``shape``."""
    shape = np.broadcast_shapes(shape, *(np.shape(e) for e in entries))
    cols = [np.broadcast_to(e, shape) for e in entries]
    d = _dim(entries)
    mats = np.empty(cols[0].shape + (d, d))
    for (i, j), col in zip([(i, j) for i in range(d) for j in range(i + 1)], cols):
        mats[..., i, j] = mats[..., j, i] = col
    return mats


def _potf2(entries: Entries) -> tuple[list[np.ndarray], np.ndarray]:
    """The pivots of LAPACK's unblocked potf2 on the matrices given by their entries, d <= 2.

    ``entries`` is (a,) or (a, b, c) = (m00, m10, m11), see :func:`_entries`.
    Returns the pivots [a] or [a, c - l10 * l10] and where a matrix fails,
    with the operations of potf2 (as OpenBLAS builds it) in its order,
    broadcast over the entries: l10 = b * (1 / sqrt(a)), failing where a
    pivot is <= 0. A NaN pivot is no failure. The square roots of the pivots
    are the diagonal of the gufunc behind ``np.linalg.cholesky`` bit for bit,
    without its per-matrix copy and LAPACK call; the one exception is a +inf
    a over an infinite or NaN b, where OpenBLAS scales by 1 / sqrt(a) = 0 by
    writing zeros and IEEE arithmetic gives NaN. FP flags are ignored. The
    first pivot is tested on a's own entry, which on a tensor grid is a
    vector, and joins the grid's failures only where it fails.
    """
    a = entries[0]
    a_failed = np.less_equal(a, 0.0)
    if len(entries) == 1:
        return [a], a_failed
    with np.errstate(all="ignore"):
        l10 = entries[1] * (1.0 / np.sqrt(a))
        l10 *= l10
        pivot = entries[2] - l10
        failed = pivot <= 0.0  # in the broadcast shape of all three entries
    if a_failed.any():
        failed |= a_failed
    return [a, pivot], failed


def _lapack_cholesky(mats: np.ndarray) -> np.ndarray:
    """Lower Cholesky factors of a stack (..., d, d), FP flags ignored.

    One call of the gufunc behind ``np.linalg.cholesky``, which unlike the
    public function reports a failure per matrix: a matrix that does not
    factor becomes all NaN, while a factor's upper triangle is 0 even where
    it inherits a NaN.
    """
    with np.errstate(all="ignore"):
        return _umath_linalg.cholesky_lo(mats, signature="d->d")


def _jittered(entries: Entries) -> Entries:
    """The entries with (1e-12 * trace) / d added to each diagonal one: the one retry.

    It absorbs round-off but not a genuinely indefinite matrix. The trace is
    summed over the diagonal entries in order.
    """
    d = _dim(entries)
    on_diag = [i * (i + 3) // 2 for i in range(d)]
    trace = sum((entries[k] for k in on_diag[1:]), entries[0])
    shift = (1e-12 * trace) / d
    return tuple(e + shift if k in on_diag else e for k, e in enumerate(entries))


def _logdet(entries: Entries, jitter: bool = False) -> np.ndarray:
    """log det of the matrices given by their entries (:func:`_entries`); NaN where one does not factor.

    In the broadcast shape of the entries (0-d where every entry is a
    scalar). For d <= 2 it is the in-order sum of the logs of the potf2
    pivots (:func:`_potf2`), without building a matrix or factor stack;
    above, the matrices are gathered and factored by
    :func:`_lapack_cholesky`, and it is 2 * the in-order sum of the logs of
    the factor's diagonal. With ``jitter`` the failing matrices alone are
    retried once, on their entries through :func:`_jittered`.

    The factorization is the one step that raises FP flags, under its own
    ``errstate``. The logs raise none: a factor that fails is all NaN, and
    the pivots of a failing matrix, <= 0 where they fail, are made NaN
    before their logs are taken. Every other pivot is positive or NaN.
    """
    if len(entries) > 3:
        chol = _lapack_cholesky(_gather(entries))
        logdet = np.asarray(2.0 * sum(np.log(chol[..., j, j]) for j in range(chol.shape[-1])))
        failed = np.isnan(chol[..., 0, -1])
        failing = failed.any()
    else:
        pivots, failed = _potf2(entries)
        failing = failed.any()
        if failing:
            pivots = [np.where(p > 0.0, p, np.nan) for p in pivots]
        # The last pivot has the broadcast shape; IEEE addition commutes,
        # so adding the first log to it in place is log p0 + log p1.
        logdet = np.asarray(np.log(pivots[-1]))
        if len(pivots) == 2:
            logdet += np.log(pivots[0])
    if failing and jitter:
        shape = np.shape(failed)
        retry = tuple(np.broadcast_to(e, shape)[failed] for e in entries)
        logdet[failed] = _logdet(_jittered(retry))
    return logdet


def _require_factored(logdet: np.ndarray, coords: tp.Sequence[np.ndarray] | None, what: str) -> None:
    """Raise NumericalFailureError naming the first node whose log det is NaN.

    ``coords`` holds one array per parameter (as ``MetricField.entries``
    takes them), broadcasting to the shape ``logdet`` broadcasts to.
    """
    failed = np.isnan(logdet)
    if failed.any():
        where = ""
        if coords is not None:
            shape = np.broadcast_shapes(failed.shape, *(np.shape(c) for c in coords))
            first = np.unravel_index(int(np.argmax(np.broadcast_to(failed, shape))), shape)
            where = f" at {np.array([np.broadcast_to(c, shape)[first] for c in coords])}"
        raise NumericalFailureError(f"{what} is not positive definite{where}")


@dataclasses.dataclass(frozen=True)
class MetricField:
    """A symmetric-matrix-valued function of the parameter point, given by its entries.

    ``entries(coords)`` is the field: given d arrays that broadcast
    together, the k-th holding coordinate k of the points, it returns the
    entries (m00,) or (m00, m10, m11) there (:func:`_entries`), each
    broadcasting to the coordinates' shape. The geometric estimator passes
    the open mesh of its tensor grid and a line passes
    ``offset_k + sigma * a_k``, so a field whose entries separate along the
    axes, or are constant, computes them on vectors or as scalars instead of
    at every point. A field known as matrices over a stack of points gets
    its hook from :meth:`from_batch`.
    """

    entries: tp.Callable[[tp.Sequence[np.ndarray]], Entries]
    dim: int

    @classmethod
    def from_batch(cls, batch: tp.Callable[[np.ndarray], np.ndarray], dim: int) -> MetricField:
        """The field whose entries are views of ``batch``'s (n, dim, dim) stack at (n, dim) points.

        Only the stack's lower triangle is read, so every reader returns it
        mirrored; a constructor whose arithmetic can break symmetry in the
        last bit and wants both triangles averaged symmetrizes once, itself.
        """

        def entries(coords: tp.Sequence[np.ndarray]) -> Entries:
            points = np.stack(np.broadcast_arrays(*coords), axis=-1)
            mats = np.asarray(batch(points.reshape(-1, dim)), dtype=float)
            return _entries(mats.reshape(points.shape[:-1] + (dim, dim)))

        return cls(entries, dim)

    def __call__(self, theta: ArrayLike) -> np.ndarray:
        theta = np.atleast_1d(np.asarray(theta, dtype=float))
        return self.batch(theta[None])[0]

    def batch(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at (n, dim) points, returning (n, dim, dim)."""
        points = np.asarray(points, dtype=float)
        return _gather(self.entries(tuple(points.T)), points.shape[:1])


# ---------------------------------------------------------------------------
# metric constructors
# ---------------------------------------------------------------------------


def effect_metric(channel: GaussianChannel, dim: int) -> MetricField:
    """Fisher metric of the effect channel: J^T Sigma^-1 J at the channel mean.

    ``dim`` is the dimension of the channel's input, the parameter space.
    Computed on a stack of points (n, dim) at once (:meth:`MetricField.from_batch`).
    """

    def fisher(theta: np.ndarray) -> np.ndarray:
        mean = channel.mean(theta)
        jac = channel.jac(theta)  # (..., dy, dt)
        wj_t = channel.noise.whiten(np.swapaxes(jac, -1, -2), mean[..., None, :])  # (W J)^T
        return wj_t @ np.swapaxes(wj_t, -1, -2)

    return MetricField.from_batch(fisher, dim)


def constant_metric(matrix: np.ndarray) -> MetricField:
    """A metric field equal to the same matrix everywhere, of the matrix's dimension.

    Its entries are scalars, which the estimator factors once and a line
    pulls back to a scalar.
    """
    matrix = _sym(np.atleast_2d(np.asarray(matrix, dtype=float)))
    matrix.setflags(write=False)  # every call hands out views of this one array
    entries = _entries(matrix)
    return MetricField(lambda coords: entries, matrix.shape[0])


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


def _mismatch_batch(g: Entries, h: Entries, coords: tp.Sequence[np.ndarray] | None = None) -> np.ndarray:
    """Mismatch from the entries of g and h (:func:`_entries`), in their broadcast shape.

    ``coords`` only names a failing node (see :func:`_require_factored`).
    Gives +inf where g does not factor (without jitter): the parameter
    directions h still cares about are then invisible to the effects, and the
    log ratio genuinely diverges. A g + h that stays indefinite after the
    jitter instead makes the comparison itself undefined and raises. g + h
    is summed entry by entry, so no matrix stack is built for d <= 2.
    """
    ld_sum = _logdet(tuple(g_e + h_e for g_e, h_e in zip(g, h)), jitter=True)
    _require_factored(ld_sum, coords, "g + h")
    ld_g = _logdet(g)
    # g + h has the broadcast shape of both, so the mismatch is assembled in ld_sum.
    mismatch = np.subtract(ld_sum, ld_g, out=ld_sum)
    mismatch *= 0.5
    singular = np.isnan(ld_g)
    if singular.any():
        np.copyto(mismatch, math.inf, where=singular)
    return mismatch


# ---------------------------------------------------------------------------
# pencil eigenvalues and coordinate changes
# ---------------------------------------------------------------------------


def causal_eigenvalues(g: MetricField, h: MetricField, theta: ArrayLike) -> np.ndarray:
    """The eigenvalues of h^-1 g at theta, descending, via Cholesky whitening of h.

    The whitened matrix L^-1 g L^-T (h = L L^T) is symmetric, so the solve is
    stable and the eigenvalues are exactly those of h^-1 g. h is factored by
    the gufunc with :func:`_logdet`'s one jitter retry; an h whose factor is
    then still not finite raises NumericalFailureError.
    """
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    g_mat, h_mat = g(theta), h(theta)
    chol = _lapack_cholesky(h_mat)
    if not np.isfinite(chol).all():
        chol = _lapack_cholesky(_gather(_jittered(_entries(h_mat))))
    if not np.isfinite(chol).all():
        raise NumericalFailureError(f"intervention metric is singular at theta={theta}")
    half = np.linalg.solve(chol, g_mat)
    whitened = np.linalg.solve(chol, half.T)
    whitened = _sym(whitened)
    vals, _ = np.linalg.eigh(whitened)
    return vals[np.argsort(vals)[::-1]]


def reparameterize(
    m: MetricField,
    func: tp.Callable[[np.ndarray], np.ndarray],
    jacobian: tp.Callable[[np.ndarray], np.ndarray],
) -> MetricField:
    """Pull a metric field back through the change of parameters theta = func(theta').

    ``jacobian(theta')`` is d func / d theta'. The new field is
    J^T m(func(theta')) J, the unique transformation keeping lengths of
    curves unchanged.
    """

    def single(theta_new: np.ndarray) -> np.ndarray:
        jac = np.atleast_2d(np.asarray(jacobian(theta_new), dtype=float))
        return _sym(jac.T @ m(np.atleast_1d(np.asarray(func(theta_new), dtype=float))) @ jac)

    return MetricField.from_batch(lambda points: np.stack([single(p) for p in points]), m.dim)
