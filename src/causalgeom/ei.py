"""Effective information of a two-stage Gaussian causal chain.

The chain is intervention -> parameter -> effect. Effective information is
the average KL divergence between the effect distribution under a specific
intervention and the effect distribution averaged over all interventions
(equivalently, the mutual information between interventions drawn uniformly
and their effects).

Three estimators are provided:

* exact tensor-grid quadrature for scalar-parameter chains,
* a nested Monte Carlo estimator for anything else,
* a geometric estimate built purely from the two metric fields, which is the
  quantity the sweep/crossover machinery works with.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import typing as tp

import numpy as np

from ._quadrature import (
    GRADING,
    gauss_hermite,
    gauss_legendre,
    midpoint_axes,
    nodes_weights,
)
from .channels import (
    Domain,
    FullConstant,
    GaussianChannel,
    InterventionSet,
    gaussian_log_density,
)
from .errors import (
    InvalidConfigError,
    NumericalFailureError,
    UseMonteCarloError,
)
from .geometry import MetricField, _logdet, _mismatch_batch, _require_factored, _sym

_LN2 = math.log(2.0)
_LOG_2PIE = math.log(2.0 * math.pi) + 1.0
_P_FLOOR = 1e-280

FLAG_NEGATIVE_GEOMETRIC = "negative-geometric-ei"
FLAG_NOT_CONVERGED = "quadrature-not-converged"
FLAG_UNRELIABLE = "unreliable-estimate"


# ---------------------------------------------------------------------------
# specs and report
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class QuadratureSpec:
    """Grid sizes and rule of the exact quadrature estimator."""

    nodes_per_axis: int = 201
    rule: str = "gauss-legendre"
    effect_tail_sigmas: float = 8.0

    def __post_init__(self) -> None:
        if self.nodes_per_axis < 21:
            raise InvalidConfigError("nodes_per_axis must be at least 21")
        if self.rule not in ("gauss-legendre", "trapezoid"):
            raise InvalidConfigError(f"unknown rule {self.rule!r}")
        if self.effect_tail_sigmas < 4.0:
            raise InvalidConfigError("effect_tail_sigmas must be at least 4")


@dataclasses.dataclass(frozen=True)
class MonteCarloSpec:
    """Sample counts and seed for the nested Monte Carlo estimator."""

    outer_samples: int = 20000
    inner_samples: int = 256
    seed: int = 0
    batches: int = 50

    def __post_init__(self) -> None:
        if self.outer_samples < self.batches:
            raise InvalidConfigError("outer_samples must be at least the batch count")
        if self.inner_samples < 2:
            raise InvalidConfigError("inner_samples must be at least 2")
        if self.batches < 8:
            raise InvalidConfigError("need at least 8 batches for a batch-means stderr")
        if self.seed < 0:
            raise InvalidConfigError(f"seed must be a non-negative integer, got {self.seed}")


@dataclasses.dataclass(frozen=True)
class EIReport:
    """One effective-information value plus how it was obtained.

    ``nats`` and ``bits`` always describe the same number; for the geometric
    method ``nats`` is exactly ``volume_term - mean_mismatch``.
    """

    nats: float
    bits: float
    method: str
    grid_or_samples: str
    volume_term: float | None = None
    mean_mismatch: float | None = None
    stderr: float | None = None
    seed: int | None = None
    flags: tuple[str, ...] = ()

    @classmethod
    def build(cls, nats: float, method: str, grid_or_samples: str, **kw) -> "EIReport":
        return cls(
            nats=nats,
            bits=nats / _LN2,
            method=method,
            grid_or_samples=grid_or_samples,
            **kw,
        )


def _sd(noise, mean: np.ndarray) -> np.ndarray:
    """Per-row standard deviation of one-dimensional noise at means (n, 1).

    In one dimension the half log-determinant is the log standard deviation.
    """
    return np.exp(np.broadcast_to(noise.half_logdet(mean), np.shape(mean)[:-1]))


# ---------------------------------------------------------------------------
# scalar-parameter chain: core quadrature kernels
# ---------------------------------------------------------------------------


class _ScalarChain:
    """Precomputed plumbing for a chain whose parameter and effect are scalars.

    The effect map f must be defined and strictly monotone on the whole
    extended parameter range (intervention box inflated by the tails of the
    intervention noise); built-in models satisfy this by construction.
    """

    KERNEL_NODES = 32
    KERNEL_ITERS = 8
    SCALE_INFLATION = 1.4
    SEGMENT_NODES = 16
    LADDER = (-12.0, -6.0, -3.0, -1.0, 1.0, 3.0, 6.0, 12.0)
    PANEL_NODES = 12  # per graded panel of a box's outer rule
    EFFECT_GRID = 4001  # odd, so every other point is a grid of its own
    WINDOW_FLOOR = 33  # the fewest grid points of one effect window, odd
    EFFECT_TOL = 2.5e-13
    INVERSE_TABLE = 1025
    NEWTON_STEPS = 3

    def __init__(self, ch_xt: GaussianChannel, ch_ty: GaussianChannel, x_set: InterventionSet):
        if ch_xt.dim_out != 1:
            raise UseMonteCarloError("exact quadrature requires a scalar parameter")
        if ch_ty.dim_out != 1:
            raise UseMonteCarloError("exact quadrature requires a scalar effect")
        self.ch_xt = ch_xt
        self.ch_ty = ch_ty
        self.x_set = x_set
        lo, hi = ch_xt.input_domain.lower, ch_xt.input_domain.upper
        probe = lo + (hi - lo) * np.linspace(0.0, 1.0, 65)[:, None]
        self.sigma_q = ch_xt.noise.scale_bound(ch_xt.mean(probe))
        self.log_mix = x_set.log_mixture(ch_xt)
        lo, hi = (float(v[0]) for v in x_set.mean_range(ch_xt))
        pad = 8.0 * self.sigma_q + 1e-12
        self.mix_lo = lo  # where the parameter mixture has its shoulders
        self.mix_hi = hi
        self.ext_lo = lo - pad
        self.ext_hi = hi + pad
        self.theta_table = np.linspace(self.ext_lo, self.ext_hi, self.INVERSE_TABLE)
        f_table = self.f(self.theta_table)[:, 0]
        self.sign = 1.0 if f_table[-1] >= f_table[0] else -1.0
        self.f_table = self.sign * f_table  # increasing
        # the effect noise names effect values where it has a kink (Weber
        # noise at its floor); the segment and outer rules break there
        kink_bp = self.invert_effect(np.asarray(ch_ty.noise.kinks, dtype=float))
        self.fixed_bp = np.r_[self.mix_lo, self.mix_hi, kink_bp]
        self.outer_layers = self._outer_layers(np.r_[lo, hi, kink_bp[(kink_bp > lo) & (kink_bp < hi)]])

    # -- effect map shorthand ------------------------------------------------

    def f(self, theta: np.ndarray) -> np.ndarray:
        """f evaluated at theta (...,), returning (..., 1)."""
        return self.ch_ty.mean(theta[..., None])

    def slope(self, theta: np.ndarray) -> np.ndarray:
        """df/dtheta at theta (...,), returning (..., 1)."""
        return np.asarray(self.ch_ty.jac(theta[..., None]), dtype=float)[..., 0]

    def edge_noise(self, theta: np.ndarray) -> np.ndarray:
        """The noise at parameter values theta (n,), in parameter units.

        s = sqrt(sigma_q^2 + sigma_eps(f)^2 / f'^2): the intervention noise
        and the effect noise pulled back through f. At a box edge it is the
        width of the boundary layer that blurs the edge; it is infinite
        where f' = 0.
        """
        theta = np.asarray(theta, dtype=float)
        sig_q = _sd(self.ch_xt.noise, theta[:, None])
        eps = _sd(self.ch_ty.noise, self.f(theta))
        with np.errstate(divide="ignore"):
            return np.hypot(sig_q, eps / np.abs(self.slope(theta)[:, 0]))

    def _outer_layers(self, centres: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Centres and widths of the layers an outer rule over a box grades into.

        The centres are the box edges and the effect-noise kinks inside the
        box, each as wide as its edge noise. Where f' = 0 the edge noise has
        no finite width; such a centre is graded from sigma_q across the box,
        by layers each GRADING[-1] times wider than the one before.
        """
        widths = self.edge_noise(centres)
        layers = [(c, w) for c, w in zip(centres, widths) if np.isfinite(w)]
        for c in centres[~np.isfinite(widths)]:
            w = float(_sd(self.ch_xt.noise, np.array([[c]]))[0])
            while w < self.mix_hi - self.mix_lo:
                layers.append((c, w))
                w *= GRADING[-1]
        return tuple(np.array(layers).reshape(-1, 2).T)

    def components(
        self, spec: QuadratureSpec, refine: int = 1
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Parameter mean, sd and weight of each component of the outer average.

        On a box, Gauss-Legendre takes PANEL_NODES nodes per panel graded
        into outer_layers, and the trapezoid rule nodes_per_axis nodes;
        refine multiplies either. A discrete set takes every point.
        """
        nodes = self.PANEL_NODES if spec.rule == "gauss-legendre" else spec.nodes_per_axis
        mus, weights = self.x_set.components(self.ch_xt, spec.rule, refine * nodes, self.outer_layers)
        return mus[:, 0], _sd(self.ch_xt.noise, mus), weights

    # -- conditional effect density ------------------------------------------

    def conditional_density(self, y: np.ndarray, mu_q, sig_q) -> np.ndarray:
        """P(y | do(x)) for a batch of effect points y (n, 1).

        mu_q and sig_q may be scalars or per-row arrays, so one call can mix
        effect points belonging to different interventions. The parameter is
        integrated out with Gauss-Hermite nodes centered on the product of
        the intervention Gaussian and the locally linearized effect
        likelihood, iterated to a fixed point. Node placement only; the
        integrand itself is evaluated exactly, so mild non-Gaussianity is
        absorbed by the rule.
        """
        y = np.atleast_2d(np.asarray(y, dtype=float))
        n = y.shape[0]
        mu_q = np.broadcast_to(np.asarray(mu_q, dtype=float), (n,))
        sig_q = np.broadcast_to(np.asarray(sig_q, dtype=float), (n,))
        theta = mu_q.copy()
        prec_q = 1.0 / sig_q**2
        noise = self.ch_ty.noise
        for _ in range(self.KERNEL_ITERS):
            f_val = self.f(theta)
            j = self.slope(theta)
            w = noise.whiten(noise.whiten(j, f_val), f_val)  # Sigma^-1 df/dtheta
            prec = prec_q + np.sum(w * j, axis=-1)
            rhs = mu_q * prec_q + np.sum(w * (y - f_val + j * theta[:, None]), axis=-1)
            theta = rhs / prec
        scale = self.SCALE_INFLATION / np.sqrt(prec)
        t, gh_w = gauss_hermite(self.KERNEL_NODES)
        nodes = theta[:, None] + math.sqrt(2.0) * scale[:, None] * t[None, :]
        log_psi = self._log_joint(nodes, y, mu_q)
        log_term = log_psi + t[None, :] ** 2
        shift = np.max(log_term, axis=1, keepdims=True)
        total = np.sum(gh_w[None, :] * np.exp(log_term - shift), axis=1)
        return math.sqrt(2.0) * scale * total * np.exp(shift[:, 0])

    def _log_joint(self, nodes: np.ndarray, y: np.ndarray, mu_q: np.ndarray) -> np.ndarray:
        """log[q(theta|x) p(y|theta)] at nodes (n, k) for paired rows y (n, 1)."""
        log_q = gaussian_log_density(self.ch_xt.noise, nodes[..., None], mu_q[:, None, None])
        return log_q + gaussian_log_density(self.ch_ty.noise, y[:, None, :], self.f(nodes))

    # -- averaged effect density ----------------------------------------------

    def invert_effect(self, targets: np.ndarray) -> np.ndarray:
        """Parameter at which the scalar effect map equals each target.

        f is tabulated once per chain on INVERSE_TABLE points over the
        extended range. Each target is bracketed with searchsorted, started
        by linear interpolation inside its bracket and polished by
        NEWTON_STEPS Newton steps on slope, clipped to the bracket. Targets
        beyond f's range come back as ext_lo or ext_hi.
        """
        table = self.theta_table
        z = self.sign * targets
        j = np.clip(np.searchsorted(self.f_table, z) - 1, 0, table.size - 2)
        lo, hi = table[j], table[j + 1]
        f_lo, f_hi = self.f_table[j], self.f_table[j + 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.clip((z - f_lo) / (f_hi - f_lo), 0.0, 1.0)
        theta = lo + np.nan_to_num(t) * (hi - lo)
        for _ in range(self.NEWTON_STEPS):
            resid = self.f(theta)[..., 0] - targets
            with np.errstate(divide="ignore", invalid="ignore"):
                step = np.nan_to_num(resid / self.slope(theta)[..., 0])
            theta = np.clip(theta - step, lo, hi)
        return theta

    def _breakpoints(self, y: np.ndarray) -> np.ndarray:
        """Sorted integration breakpoints (n, k) for the averaged density.

        The likelihood support is bracketed in effect space, not by local
        slope: a ladder of whitened distances is inverted back to parameter
        values, so plateaus of the effect map (where the slope collapses but
        the likelihood stays flat and alive) are still covered. Mixture
        shoulders and noise kinks contribute breakpoints of their own.
        """
        n = y.shape[0]
        eps_y = _sd(self.ch_ty.noise, y)
        targets = y[:, 0:1] + eps_y[:, None] * np.asarray(self.LADDER)[None, :]
        bp = self.invert_effect(targets.reshape(-1)).reshape(n, -1)
        fixed = np.broadcast_to(self.fixed_bp, (n, self.fixed_bp.size))
        bp = np.concatenate([bp, fixed], axis=1)
        return np.sort(np.clip(bp, self.ext_lo, self.ext_hi), axis=1)

    def averaged_density(self, y: np.ndarray) -> np.ndarray:
        """Effect density averaged over interventions, at y rows (n, 1)."""
        return self._averaged(y)[0]

    def _averaged(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Averaged effect density e, de/dy and d2e/dy2 at y rows (n, 1).

        Integrates the parameter mixture times p(y|theta), summed in log space,
        by composite quadrature over segments between the likelihood/mixture
        breakpoints. The same
        integrand times the effect score s = -Sigma^-1 (y - f) gives de/dy,
        and times s^2 - Sigma^-1 gives d2e/dy2, since Sigma depends on f(theta)
        and not on y.
        """
        y = np.atleast_2d(np.asarray(y, dtype=float))
        n = y.shape[0]
        bp = self._breakpoints(y)
        widths = np.diff(bp, axis=1)  # (n, s)
        t, w = gauss_legendre(0.0, 1.0, self.SEGMENT_NODES)
        nodes = bp[:, :-1, None] + widths[:, :, None] * t[None, None, :]
        weights = (widths[:, :, None] * w[None, None, :]).reshape(n, -1)
        flat = nodes.reshape(n, -1)  # (n, s*k)
        f_val = self.f(flat)
        noise = self.ch_ty.noise
        log_p = gaussian_log_density(noise, y[:, None, :], f_val)
        terms = weights * np.exp(self.log_mix(flat[..., None]) + log_p)
        score = -noise.whiten(noise.whiten(y[:, None, :] - f_val, f_val), f_val)[..., 0]
        prec = noise.whiten(noise.whiten(np.ones_like(f_val), f_val), f_val)[..., 0]
        return (
            np.sum(terms, axis=1),
            np.sum(terms * score, axis=1),
            np.sum(terms * (score * score - prec), axis=1),
        )

    def log_averaged_density(self, y: np.ndarray, weight: np.ndarray) -> np.ndarray:
        """log e at effect nodes y (m, k), one row of nodes per intervention.

        weight (m, k) is how far each node's KL term moves per unit error in
        log e, up to its rule weight (sd * p in kl_all). The rows' [min, max]
        envelopes are merged into disjoint windows: one grid spanning them
        all would cross gaps where e underflows. On each window e is
        evaluated once on a Chebyshev-Lobatto grid of EFFECT_GRID points and
        log e is interpolated by quintic Hermite steps with slope e'/e and
        curvature e''/e - (e'/e)^2. Steps over every other grid point, checked
        at the points in between, bound the error of each interval (about 64
        times over where e is smooth, as the step error falls as h^6). A
        node whose weight times that bound exceeds EFFECT_TOL gets e
        directly, and so does every node when the grids would have more
        points than there are nodes. The windows share EFFECT_GRID points
        (window_sizes), so a single window has them all.
        """
        out = np.empty(y.shape)
        direct = np.ones(y.shape, dtype=bool)
        lo, hi = _effect_windows(y)
        rows = np.bincount(np.searchsorted(lo, np.min(y, axis=1), side="right") - 1, minlength=lo.size)
        sizes = self.window_sizes(rows)
        if y.size > np.sum(sizes):
            c = [0.5 * (1.0 - np.cos(np.linspace(0.0, math.pi, n))) for n in sizes]
            x = np.concatenate([a + (b - a) * cn for a, b, cn in zip(lo, hi, c)])
            e, de, d2e = self._averaged(x[:, None])
            with np.errstate(divide="ignore", invalid="ignore"):
                log_e, slope = np.log(e), de / e
                curv = d2e / e - slope * slope
            # every other point of each window, both of its ends included
            odd = (np.arange(x.size) - np.repeat(np.cumsum(sizes) - sizes, sizes)) % 2 == 1
            every_other = (v[~odd] for v in (x, log_e, slope, curv))
            coarse, _ = _hermite(*every_other, x[odd])
            # each check point covers the two intervals beside it; the step
            # from a window's last point to the next window, only met at t = 0,
            # keeps a zero bound
            err = np.zeros(x.size)
            err[odd] = err[np.flatnonzero(odd) - 1] = np.abs(coarse - log_e[odd])
            out, j = _hermite(x, log_e, slope, curv, y)
            direct = ~(weight * err[j] <= self.EFFECT_TOL)
        if np.any(direct):
            with np.errstate(divide="ignore"):
                out[direct] = np.log(self.averaged_density(y[direct][:, None]))
        return out

    def window_sizes(self, rows: np.ndarray) -> np.ndarray:
        """Odd grid point counts of effect windows holding these numbers of rows.

        Each window gets WINDOW_FLOOR points plus a share of the rest of
        EFFECT_GRID in proportion to its rows, that is to the nodes it
        serves. The counts add up to at most EFFECT_GRID (unless the floors
        alone exceed it), and one window gets exactly EFFECT_GRID.
        """
        pairs = max(self.EFFECT_GRID - rows.size * self.WINDOW_FLOOR, 0) // 2
        cut = np.rint(pairs * np.cumsum(rows) / np.sum(rows))
        return self.WINDOW_FLOOR + 2 * np.diff(cut, prepend=0.0).astype(int)

    # -- per-intervention KL --------------------------------------------------

    def predicted_moments_batch(
        self, mu_q: np.ndarray, sig_q: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Mean and covariance of the effect under each do(x), linearized at mu_q."""
        f0 = self.f(mu_q)  # (m, 1)
        j0 = self.slope(mu_q)
        cov = sig_q[:, None, None] ** 2 * j0[:, :, None] * j0[:, None, :]
        return f0, cov + self.ch_ty.noise.covariance(f0)

    def kl_all(
        self, mu_q: np.ndarray, sig_q: np.ndarray, spec: QuadratureSpec, nodes: int
    ) -> np.ndarray:
        """Per-intervention KL between conditional and averaged effect laws.

        All intervention rows share one flattened effect grid so the kernel
        runs a handful of large vector operations instead of a Python loop;
        the averaged density comes from one shared interpolant per call.
        """
        mu_q = np.asarray(mu_q, dtype=float)
        sig_q = np.broadcast_to(np.asarray(sig_q, dtype=float), mu_q.shape)
        f0, cov = self.predicted_moments_batch(mu_q, sig_q)
        m = mu_q.shape[0]
        u, w = nodes_weights(spec.rule, -spec.effect_tail_sigmas, spec.effect_tail_sigmas, nodes)
        sd = np.sqrt(cov[:, 0, 0])
        y = f0 + sd[:, None] * u[None, :]  # (m, k)
        k = u.shape[0]
        p = self.conditional_density(y.reshape(-1, 1), np.repeat(mu_q, k), np.repeat(sig_q, k))
        log_e = self.log_averaged_density(y, sd[:, None] * p.reshape(m, k)).reshape(-1)
        return sd * (_kl_integrand(p, log_e).reshape(m, k) @ w)


def _effect_windows(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted disjoint windows (lo, hi) covering the [min, max] of each row of y."""
    order = np.argsort(np.min(y, axis=1))
    lo = np.min(y, axis=1)[order]
    hi = np.maximum.accumulate(np.max(y, axis=1)[order])
    starts = np.flatnonzero(np.r_[True, lo[1:] > hi[:-1]])
    ends = np.r_[starts[1:] - 1, lo.size - 1]
    return lo[starts], hi[ends]


def _hermite(
    x: np.ndarray, v: np.ndarray, s: np.ndarray, c: np.ndarray, at: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Quintic Hermite interpolant through values v, slopes s and curvatures c at sorted x.

    Returns the interpolant at the points `at` and the index of the interval
    holding each point.
    """
    j = np.clip(np.searchsorted(x, at, side="right") - 1, 0, x.size - 2)
    h = x[j + 1] - x[j]
    t = (at - x[j]) / h
    r = 1.0 - t
    # the basis in factored form: r^3 (...) carries the left end, t^3 (...) the right
    left = v[j] * (1.0 + t * (3.0 + 6.0 * t)) + h * t * (s[j] * (1.0 + 3.0 * t) + 0.5 * h * t * c[j])
    right = v[j + 1] * (1.0 + r * (3.0 + 6.0 * r)) - h * r * (
        s[j + 1] * (1.0 + 3.0 * r) - 0.5 * h * r * c[j + 1]
    )
    return r**3 * left + t**3 * right, j


def _kl_integrand(p: np.ndarray, log_e: np.ndarray) -> np.ndarray:
    out = np.zeros_like(p)
    live = p > _P_FLOOR
    if np.any(live & ~np.isfinite(log_e)):
        raise NumericalFailureError(
            "averaged effect density vanished where the conditional does not"
        )
    out[live] = p[live] * (np.log(p[live]) - log_e[live])
    return out


# ---------------------------------------------------------------------------
# public estimators
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class DensityEstimate:
    """The intervention-averaged effect density on an evaluation window."""

    density: tp.Callable[[np.ndarray], np.ndarray]
    window: Domain

    def __call__(self, y) -> np.ndarray:
        y2 = np.atleast_2d(np.asarray(y, dtype=float))
        out = self.density(y2)
        return float(out[0]) if np.ndim(y) == 0 or np.shape(y) == (1,) else out

    def integral(self, nodes: int = 1001) -> float:
        if self.window.dim != 1:
            raise InvalidConfigError("normalization check implemented for scalar effects")
        lo, hi = self.window.axes[0]
        x, w = gauss_legendre(lo, hi, nodes)
        return float(np.sum(w * self.density(x[:, None])))


def effect_distribution(
    x_set: InterventionSet,
    ch_xt: GaussianChannel,
    ch_ty: GaussianChannel,
    spec: QuadratureSpec | None = None,
) -> DensityEstimate:
    """Effect density averaged over the intervention set."""
    spec = spec or QuadratureSpec()
    chain = _ScalarChain(ch_xt, ch_ty, x_set)
    # a box's edges and 31 points between
    mu, sig, _ = chain.components(QuadratureSpec(nodes_per_axis=33, rule="trapezoid"))
    f0, cov = chain.predicted_moments_batch(mu, sig)
    reach = spec.effect_tail_sigmas * np.sqrt(cov[:, 0, 0])
    window = ((float(np.min(f0[:, 0] - reach)), float(np.max(f0[:, 0] + reach))),)
    return DensityEstimate(density=chain.averaged_density, window=Domain(window))


def _quadrature_pass(chain: _ScalarChain, spec: QuadratureSpec, refine: int) -> tuple[float, int]:
    """EI in nats with every node count times refine, and the outer node count."""
    mu, sig, w = chain.components(spec, refine)
    return float(w @ chain.kl_all(mu, sig, spec, refine * spec.nodes_per_axis)), mu.size


def ei_exact_quadrature(
    x_set: InterventionSet,
    ch_xt: GaussianChannel,
    ch_ty: GaussianChannel,
    spec: QuadratureSpec | None = None,
    check_convergence: bool = True,
) -> EIReport:
    """Effective information by nested quadrature.

    The domain is a scalar parameter and a scalar effect, interventions on a
    scalar box (with an identity intervention mean) or a discrete set, and
    isotropic, diagonal or 1x1 full effect noise. Anything else raises
    UseMonteCarloError; the CLI then falls back to ``ei_exact_mc``.

    The parameter is marginalized per intervention and the effect integral
    runs over a mean +- tail*sigma envelope with nodes_per_axis nodes. The
    intervention average over a box is composite Gauss-Legendre, 12 nodes
    per panel, with panels graded into the boundary layer at each edge and
    around each effect-noise kink (or the trapezoid rule on nodes_per_axis
    nodes); over discrete points it is a plain mean. The intervention-averaged effect density is evaluated,
    with its first two derivatives, once per pass on a Chebyshev grid per
    effect window, and log e is interpolated at the effect nodes by quintic
    Hermite steps; nodes the grids do not resolve to the kernel's tolerance
    are evaluated directly. Its integration breakpoints come from inverting
    f through a table built once per chain. On the bundled chains the graded
    panels match a uniform 401-node outer rule to 5e-12 nats, and against direct
    evaluation at every node the grids move the bundled figures by at most
    1e-13 nats. A second pass with every node count doubled flags
    non-convergence beyond 1e-3 nats.
    """
    spec = spec or QuadratureSpec()
    chain = _ScalarChain(ch_xt, ch_ty, x_set)
    nats, outer = _quadrature_pass(chain, spec, 1)
    flags: tuple[str, ...] = ()
    if check_convergence:
        doubled, _ = _quadrature_pass(chain, spec, 2)
        if abs(doubled - nats) > 1e-3:
            flags = (FLAG_NOT_CONVERGED,)
    panels = f" ({chain.PANEL_NODES} per graded panel on a box)" if spec.rule == "gauss-legendre" else ""
    grid = (
        f"{spec.rule}:{outer} outer nodes{panels}, {spec.nodes_per_axis} effect nodes, "
        f"tail {spec.effect_tail_sigmas} sigma"
    )
    return EIReport.build(nats, "exact-quadrature", grid, flags=flags)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def _logmeanexp(a: np.ndarray, axis: int) -> np.ndarray:
    shift = np.max(a, axis=axis, keepdims=True)
    out = np.log(np.mean(np.exp(a - shift), axis=axis)) + np.squeeze(shift, axis=axis)
    return out


def _log_bias_correction(log_w: np.ndarray, axis: int, lme: np.ndarray) -> np.ndarray:
    """First-order Jensen debias for a log-of-mean estimate (delta method).

    E[log wbar] sits below log E[w] by roughly Var(wbar) / (2 E[w]^2); the
    sample version of that ratio is added back. Nonnegative by construction.
    """
    m = log_w.shape[axis]
    if m < 2:
        return np.zeros_like(lme)
    rel_second_moment = np.exp(_logmeanexp(2.0 * log_w, axis=axis) - 2.0 * lme)
    return (rel_second_moment - 1.0) / (2.0 * (m - 1))


def _likelihood_curvature(
    ch_ty: GaussianChannel, y: np.ndarray, theta: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Newton pieces (J' Sy^-1 J, J' Sy^-1 r) of log p(y|theta) per row."""
    f_val = ch_ty.mean(theta)
    jac = np.asarray(ch_ty.jac(theta), dtype=float)
    wj_t = ch_ty.noise.whiten(np.swapaxes(jac, -1, -2), f_val[:, None, :])  # (W J)^T
    wr = ch_ty.noise.whiten(y - f_val, f_val)
    return wj_t @ np.swapaxes(wj_t, -1, -2), np.einsum("bdk,bk->bd", wj_t, wr)


def _gauss_newton_mode(
    ch_ty: GaussianChannel,
    y: np.ndarray,
    theta0: np.ndarray,
    prec_prior: np.ndarray,
    mu_prior: np.ndarray | None,
    iters: int = 6,
) -> tuple[np.ndarray, np.ndarray]:
    """Mode and curvature of log p(y|theta) plus an optional Gaussian prior.

    With mu_prior None the prior precision acts as step damping only, so the
    fixed point is the plain likelihood mode.
    """
    theta = theta0.copy()
    for _ in range(iters):
        curv, grad = _likelihood_curvature(ch_ty, y, theta)
        lam = prec_prior + curv
        if mu_prior is not None:
            grad = grad + np.einsum("bde,be->bd", prec_prior, mu_prior - theta)
        theta = theta + np.linalg.solve(lam, grad[..., None])[..., 0]
    curv, _ = _likelihood_curvature(ch_ty, y, theta)
    return theta, prec_prior + curv


def _defensive_log_mean(
    rng: np.random.Generator,
    ch_ty: GaussianChannel,
    y: np.ndarray,
    shape: tuple[int, ...],
    center: np.ndarray,
    cov: np.ndarray,
    draw_prior: tp.Callable[[np.random.Generator], np.ndarray],
    log_prior: tp.Callable[[np.ndarray], np.ndarray],
) -> np.ndarray:
    """Debiased log of E_prior[p(y|theta)] per outer row y (b, d_y).

    Inner draws have shape (b, inner, d). The proposal is a defensive
    half-and-half mixture of the prior and a Gaussian at center (b, d) with
    covariance cov (b, d, d), one per row. The draw order (Gaussian, prior,
    pick) fixes the random stream.
    """
    prop = FullConstant(_sym(cov)[:, None])
    lap = prop.draw(rng, np.broadcast_to(center[:, None, :], shape))
    alt = draw_prior(rng)
    pick = rng.random(lap.shape[:2]) < 0.5
    theta = np.where(pick[..., None], lap, alt)
    log_pr = log_prior(theta)
    log_r = np.logaddexp(gaussian_log_density(prop, theta, center[:, None, :]), log_pr) - _LN2
    lw = log_pr + gaussian_log_density(ch_ty.noise, y[:, None, :], ch_ty.mean(theta)) - log_r
    out = _logmeanexp(lw, axis=1)
    return out + _log_bias_correction(lw, 1, out)


def ei_exact_mc(
    x_set: InterventionSet,
    ch_xt: GaussianChannel,
    ch_ty: GaussianChannel,
    spec: MonteCarloSpec | None = None,
) -> EIReport:
    """Effective information by nested Monte Carlo.

    Outer samples follow the generative chain. Both inner integrals (the
    conditional effect density and the intervention-averaged one) are
    importance-sampled from defensive mixtures: half the draws come from a
    Laplace proposal (a short Gauss-Newton run locates where the integrand
    concentrates, an inflated Gaussian is placed there), half from the exact
    parameter prior for that integral. The Laplace half handles small effect
    noise, where prior sampling has log-normally heavy weights; the prior
    half handles plateaus of the effect map, where the integrand spreads
    over the whole box and a local proposal misses it. The mixture bounds
    the weights by twice the conditional likelihood, and the leading 1/M
    log bias is removed with a delta-method correction.

    The stream is split per batch from the seed, so results are bit-identical
    for a given spec no matter how batches are scheduled.
    """
    spec = spec or MonteCarloSpec()
    batch_size = -(-spec.outer_samples // spec.batches)  # ceil
    d_t = ch_xt.dim_out
    inflate_cond = 1.4**2
    inflate_avg = 1.6**2

    noise_xt = ch_xt.noise
    log_mix = x_set.log_mixture(ch_xt)
    clip_lo, clip_hi = x_set.mean_range(ch_xt)

    seeds = np.random.SeedSequence(spec.seed).spawn(spec.batches)
    batch_means = np.empty(spec.batches)
    for b, ss in enumerate(seeds):
        rng = np.random.Generator(np.random.PCG64(ss))
        x = x_set.sample(rng, batch_size)
        mu = ch_xt.mean(x)
        theta = noise_xt.draw(rng, mu)
        y = ch_ty.noise.draw(rng, ch_ty.mean(theta))

        # per-row precision of the intervention noise: whitening twice
        eye = np.broadcast_to(np.eye(d_t), (batch_size, d_t, d_t))
        prec_q = noise_xt.whiten(noise_xt.whiten(eye, mu[:, None, :]), mu[:, None, :])
        mu_in = np.repeat(mu[:, None, :], spec.inner_samples, axis=1)

        def draw_mix(gen: np.random.Generator) -> np.ndarray:
            x_mix = x_set.sample(gen, batch_size * spec.inner_samples)
            return noise_xt.draw(gen, ch_xt.mean(x_mix).reshape(mu_in.shape))

        # conditional density: Laplace proposal at the per-intervention
        # posterior mode, defended by the intervention channel itself
        th_c, lam_c = _gauss_newton_mode(ch_ty, y, theta, prec_q, mu)
        log_cond = _defensive_log_mean(
            rng,
            ch_ty,
            y,
            mu_in.shape,
            th_c,
            inflate_cond * np.linalg.inv(lam_c),
            lambda gen: noise_xt.draw(gen, mu_in),
            lambda th: gaussian_log_density(noise_xt, th, mu_in),
        )

        # averaged density: Laplace proposal at the box-clipped likelihood
        # mode (widened by the intervention noise to cover the mixture
        # shoulders), defended by the parameter mixture itself
        th_e, lam_e = _gauss_newton_mode(ch_ty, y, theta, 1e-2 * prec_q, None)
        log_avg = _defensive_log_mean(
            rng,
            ch_ty,
            y,
            mu_in.shape,
            np.clip(th_e, clip_lo, clip_hi),
            inflate_avg * np.linalg.inv(lam_e) + noise_xt.covariance(mu),
            draw_mix,
            log_mix,
        )

        vals = log_cond - log_avg
        if not np.all(np.isfinite(vals)):
            raise NumericalFailureError(f"non-finite Monte Carlo contribution in batch {b}")
        batch_means[b] = float(np.mean(vals))

    nats = float(np.mean(batch_means))
    stderr = float(np.std(batch_means, ddof=1) / math.sqrt(spec.batches))
    flags: tuple[str, ...] = ()
    if stderr > 0.2 * abs(nats):
        flags = (FLAG_UNRELIABLE,)
    grid = f"mc:{spec.batches}x{batch_size} outer, {spec.inner_samples} inner"
    return EIReport.build(
        nats, "exact-mc", grid, stderr=stderr, seed=spec.seed, flags=flags
    )


# ---------------------------------------------------------------------------
# geometric estimate
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=16)
def _field_grid(domain: Domain, nodes_per_axis: int) -> tuple[np.ndarray, float]:
    """Midpoint nodes (N, d) of the box and the cell volume, built once per grid.

    The nodes are read-only: every call with this grid shares the one array.
    """
    axes, cell = midpoint_axes(domain.lower, domain.upper, nodes_per_axis)
    if domain.dim == 1:
        pts = axes[0][:, None]
    else:
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.reshape(-1) for m in mesh], axis=-1)
    pts.flags.writeable = False
    return pts, cell


def ei_geometric(
    g: MetricField,
    h: MetricField,
    domain: Domain,
    nodes_per_axis: int = 101,
) -> EIReport:
    """Geometric effective information from the two metric fields.

    nats = log(V / (2 pi e)^{d/2}) - <l>, with V the intervention-metric
    volume of the box and <l> the volume-weighted mean mismatch. Midpoint
    grids (staggered counts across axes above one dimension) keep nodes off
    symmetry-aligned singular lines. For a scalar dimmer, with h = 1/delta^2
    and g = f'^2/sigma(f)^2 over an interval of length L, this is the
    small-noise closed form log L - <0.5 log(2 pi e (delta^2 + sigma^2/f'^2))>.
    The value may legitimately be negative, and is -inf when g is singular at
    a node; it is reported as-is with a flag. An h that is not positive
    definite at a node raises, naming it.
    """
    if g.dim != h.dim or g.dim != domain.dim:
        raise InvalidConfigError("metric fields and domain must share a dimension")
    d = domain.dim
    pts, cell = _field_grid(domain, nodes_per_axis)
    h_stack = h.batch(pts)
    g_stack = g.batch(pts)
    logdet_h = _logdet(h_stack)
    _require_factored(logdet_h, pts, "intervention metric")
    sqrt_h = np.exp(0.5 * logdet_h)
    l_vals = _mismatch_batch(g_stack, h_stack, pts)
    volume = float(cell * np.sum(sqrt_h))
    mean_l = float(np.sum(sqrt_h * l_vals) * cell / volume)
    volume_term = math.log(volume) - 0.5 * d * _LOG_2PIE
    nats = volume_term - mean_l
    flags: tuple[str, ...] = ()
    if nats < 0.0:
        flags = (FLAG_NEGATIVE_GEOMETRIC,)
    if d == 1:
        counts = str(nodes_per_axis + nodes_per_axis % 2)
    else:
        counts = "x".join(str(nodes_per_axis + k) for k in range(d))
    return EIReport.build(
        nats,
        "geometric",
        f"midpoint:{counts}",
        volume_term=volume_term,
        mean_mismatch=mean_l,
        flags=flags,
    )
