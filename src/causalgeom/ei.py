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
    _read_only,
    gauss_hermite,
    gauss_legendre,
    midpoint_axes,
)
from ._special import logsumexp
from .channels import (
    Domain,
    FullConstant,
    GaussianChannel,
    InterventionSet,
    NoiseSpec,
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
# Half-width of each intervention's effect rule, in predicted standard deviations.
_EFFECT_TAIL_SIGMAS = 8.0
# Elements of one (rows x nodes) temporary of the exact kernel (512 KB of
# float64): the conditional and the averaged density take rows in blocks of
# this many elements. Blocks bound the kernel's working set and keep the
# temporaries in cache. They do not stop glibc from mapping and trimming the
# temporaries' memory afresh: a 6-point fig1b sweep still takes about 23k
# minor page faults, about 5k with its mmap and trim thresholds raised.
_BLOCK = 65536

FLAG_NEGATIVE_GEOMETRIC = "negative-geometric-ei"
FLAG_NOT_CONVERGED = "quadrature-not-converged"
FLAG_UNRELIABLE = "unreliable-estimate"


# ---------------------------------------------------------------------------
# specs and report
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class QuadratureSpec:
    """Grid sizes of the exact quadrature estimator."""

    nodes_per_axis: int = 201

    def __post_init__(self) -> None:
        if self.nodes_per_axis < 21:
            raise InvalidConfigError("nodes_per_axis must be at least 21")


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

    ``bits`` is derived from ``nats``, so the two always describe the same
    number; for the geometric method ``nats`` is exactly ``volume_term -
    mean_mismatch``.
    """

    nats: float
    method: str
    grid_or_samples: str
    volume_term: float | None = None
    mean_mismatch: float | None = None
    stderr: float | None = None
    seed: int | None = None
    flags: tuple[str, ...] = ()

    @property
    def bits(self) -> float:
        return self.nats / _LN2


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
    WINDOW_FLOOR = 33  # the points an effect window and a conditional grid start with, odd
    EFFECT_TOL = 2.5e-13
    POINT_COST = 1.3  # direct rows of e a grid row costs, as it also forms e' and e'' (1.2-1.4 measured)
    COND_TOL = 2.5e-13
    INVERSE_TABLE = 1025
    NEWTON_STEPS = 3

    def __init__(self, noise_xt: NoiseSpec, ch_ty: GaussianChannel, x_set: InterventionSet):
        if x_set.dim != 1:
            raise UseMonteCarloError("exact quadrature requires a scalar parameter")
        if ch_ty.dim_out != 1:
            raise UseMonteCarloError("exact quadrature requires a scalar effect")
        self.noise_xt = noise_xt
        self.ch_ty = ch_ty
        self.x_set = x_set
        lo, hi = x_set.mean_range()
        self.sigma_q = noise_xt.scale_bound(lo + (hi - lo) * np.linspace(0.0, 1.0, 65)[:, None])
        self.log_mix = x_set.log_mixture(noise_xt)
        lo, hi = float(lo[0]), float(hi[0])
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
        # nodes of the segment rule per effect point
        self.segment_nodes = (len(self.LADDER) + self.fixed_bp.size - 1) * self.SEGMENT_NODES
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
        sig_q = _sd(self.noise_xt, theta[:, None])
        eps = _sd(self.ch_ty.noise, self.f(theta))
        with np.errstate(divide="ignore"):
            return np.hypot(sig_q, eps / np.abs(self.slope(theta)[:, 0]))

    def _outer_layers(self, centres: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Centres and widths of the layers an outer rule over a box grades into.

        The centres are the box edges and the effect-noise kinks inside the
        box, each as wide as its edge noise; a kink, inside the box, is
        graded at 1 and 3 widths only (graded_gauss_legendre). Where f' = 0
        the edge noise has no finite width; such a centre is graded from
        sigma_q across the box, by layers each GRADING[-1] times wider than
        the one before.
        """
        widths = self.edge_noise(centres)
        layers = [(c, w) for c, w in zip(centres, widths) if np.isfinite(w)]
        for c in centres[~np.isfinite(widths)]:
            w = float(_sd(self.noise_xt, np.array([[c]]))[0])
            while w < self.mix_hi - self.mix_lo:
                layers.append((c, w))
                w *= GRADING[-1]
        return tuple(np.array(layers).reshape(-1, 2).T)

    def components(self, refine: int = 1) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Parameter mean, sd and weight of each component of the outer average.

        On a box, Gauss-Legendre takes refine * PANEL_NODES nodes per panel
        graded into outer_layers. A discrete set takes every point.
        """
        mus, weights = self.x_set.components(refine * self.PANEL_NODES, self.outer_layers)
        return mus[:, 0], _sd(self.noise_xt, mus), weights

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

        The (rows x nodes) arrays are formed in blocks of _BLOCK //
        KERNEL_NODES = 2048 rows, their arithmetic in place; each row's value
        does not depend on the blocks.
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
        spread = math.sqrt(2.0) * scale
        t, gh_w = gauss_hermite(self.KERNEL_NODES)
        t_sq = t**2
        total, shift = np.empty(n), np.empty(n)
        for rows in _row_blocks(n, _BLOCK // self.KERNEL_NODES):
            nodes = np.multiply(spread[rows, None], t)
            nodes += theta[rows, None]
            log_term = self._log_joint(nodes, y[rows], mu_q[rows])
            log_term += t_sq
            top = np.max(log_term, axis=1, keepdims=True)
            log_term -= top
            np.exp(log_term, out=log_term)
            log_term *= gh_w
            total[rows] = np.sum(log_term, axis=1)
            shift[rows] = top[:, 0]
        return spread * total * np.exp(shift)

    def _log_joint(self, nodes: np.ndarray, y: np.ndarray, mu_q: np.ndarray) -> np.ndarray:
        """log[q(theta|x) p(y|theta)] at nodes (n, k) for paired rows y (n, 1)."""
        log_q = gaussian_log_density(self.noise_xt, nodes[..., None], mu_q[:, None, None])
        log_q += gaussian_log_density(self.ch_ty.noise, y[:, None, :], self.f(nodes))
        return log_q

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
        return self._averaged(y, False)[0]

    def _averaged(self, y: np.ndarray, derivatives: bool = True) -> np.ndarray:
        """Averaged effect density e, de/dy and d2e/dy2 at y rows (n, 1), stacked (3, n).

        Without derivatives only e, (1, n). The segment terms of e times the
        effect score s = -Sigma^-1 (y - f) give de/dy, and times s^2 -
        Sigma^-1 give d2e/dy2, since Sigma depends on f(theta) and not on y.
        The rows run in blocks of at most _BLOCK terms each (455 rows of 144
        segment nodes, 409 of 160 on the Weber chain), which also bounds each
        call of the parameter mixture; each row's sums do not depend on the
        blocks.
        """
        y = np.atleast_2d(np.asarray(y, dtype=float))
        out = np.empty((3 if derivatives else 1, y.shape[0]))
        noise = self.ch_ty.noise
        for rows in _row_blocks(y.shape[0], _BLOCK // self.segment_nodes):
            terms, f_val = self._segment_terms(y[rows])
            out[0, rows] = np.sum(terms, axis=1)
            if derivatives:
                score = -noise.whiten(noise.whiten(y[rows, None, :] - f_val, f_val), f_val)[..., 0]
                prec = noise.whiten(noise.whiten(np.ones_like(f_val), f_val), f_val)[..., 0]
                out[1, rows] = np.sum(terms * score, axis=1)
                out[2, rows] = np.sum(terms * (score * score - prec), axis=1)
        return out

    def _segment_terms(self, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Quadrature terms of e at y rows (n, 1), each row summing to e, and f at the nodes.

        A term is the parameter mixture times p(y|theta), formed in log
        space, at a node of the composite Gauss-Legendre rule over the
        segments between the likelihood/mixture breakpoints, times its weight.
        """
        n = y.shape[0]
        bp = self._breakpoints(y)
        widths = np.diff(bp, axis=1)  # (n, s)
        t, w = gauss_legendre(0.0, 1.0, self.SEGMENT_NODES)
        nodes = bp[:, :-1, None] + widths[:, :, None] * t[None, None, :]
        weights = (widths[:, :, None] * w[None, None, :]).reshape(n, -1)
        flat = nodes.reshape(n, -1)  # (n, s*k)
        f_val = self.f(flat)
        terms = self.log_mix(flat[..., None])
        terms += gaussian_log_density(self.ch_ty.noise, y[:, None, :], f_val)
        np.exp(terms, out=terms)
        terms *= weights
        return terms, f_val

    def log_averaged_density(self, y: np.ndarray, weight: np.ndarray) -> np.ndarray:
        """log e at effect nodes y (m, k), one row of nodes per intervention.

        weight (m, k) is how far each node's KL term moves per unit error in
        log e, up to its rule weight (sd * p in kl_all). log e comes from
        the locally refined grids of effect_grids, by quintic Hermite steps
        over the interval holding each node, with slope e'/e and curvature
        e''/e - (e'/e)^2, except at the nodes it leaves for direct
        evaluation. Against direct evaluation at every node, log e is at
        most 4.5e-10 off where the weight is at least 1e-3 (the power-2
        dimmer at 1e-3; 4.1e-10 on the Weber chain, 3.2e-10 on family a =
        +-5), and each intervention's KL moves by at most 3e-12 nats (Weber).
        """
        out = np.empty(y.shape)
        x, grid, _, direct = self.effect_grids(y, weight)
        out[~direct] = _hermite(x, grid, y[~direct])
        if np.any(direct):
            with np.errstate(divide="ignore"):
                out[direct] = np.log(self.averaged_density(y[direct][:, None]))
        return out

    def effect_grids(
        self, y: np.ndarray, weight: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Locally refined Chebyshev-Lobatto grids of log e over the windows of nodes y (m, k).

        The rows' [min, max] envelopes are merged into disjoint windows: one
        grid spanning them all would cross gaps where e underflows. A window
        with more nodes than WINDOW_FLOOR starts with that many grid points;
        the others are left to direct evaluation. The grid is read as cells
        of two intervals in the window's Chebyshev angle. A cell is checked
        by the quintic step across it, compared with log e at its midpoint
        (about 64 times its intervals' error where e is smooth, as the step
        error falls as h^6), and a node fails when its weight times that
        check exceeds EFFECT_TOL. A cell with failing nodes adds its two
        quarter points and splits into two cells while those nodes
        outnumber what the two points cost (POINT_COST direct rows each)
        and while it is wider than 1/8 of the smallest effect-noise sd at
        its points: e is the parameter mixture blurred by that noise, so a
        narrower cell that still fails sees the segment rule's own jitter in
        y, not curvature. Each round evaluates the new points of every
        splitting cell at once, across windows.

        Returns the grid points x (N,) of all windows in order, log e, its
        slope and its curvature there (3, N), the cells as the indices into
        x of their start, midpoint and end (3, C), and the nodes (m, k) that
        still fail, for direct evaluation.
        """
        lo, hi = _effect_windows(y)
        win = np.searchsorted(lo, np.min(y, axis=1), side="right") - 1
        gridded = np.bincount(win, minlength=lo.size) * y.shape[1] > self.WINDOW_FLOOR
        order = np.argsort(y, axis=None)
        ys, ws = y.reshape(-1)[order], weight.reshape(-1)[order]
        on_grid = gridded[np.searchsorted(lo, ys, side="right") - 1]
        # each point is a window and a Chebyshev angle pi t; the cells are
        # triples of point indices (start, midpoint, end)
        n = self.WINDOW_FLOOR
        wp = np.repeat(np.flatnonzero(gridded), n)
        t = np.tile(np.arange(n) / (n - 1), np.count_nonzero(gridded))
        a = (np.arange(0, wp.size, n)[:, None] + np.arange(0, n - 1, 2)).reshape(-1)
        m, b = a + 1, a + 2
        x, grid, sd, err = np.empty(0), np.empty((3, 0)), np.empty(0), np.empty(0)
        fail = np.zeros(ys.size, dtype=bool)
        while x.size < wp.size:
            new = slice(x.size, wp.size)
            x_new = _lobatto(lo[wp[new]], hi[wp[new]], math.pi * t[new])
            x, sd = np.r_[x, x_new], np.r_[sd, _sd(self.ch_ty.noise, x_new[:, None])]
            grid = np.concatenate([grid, self._log_averaged(x_new)], axis=1)
            c = slice(err.size, a.size)  # the cells not yet checked
            with np.errstate(invalid="ignore"):
                err = np.r_[err, np.abs(_hermite_step(x, grid, a[c], b[c], x[m[c]]) - grid[0, m[c]])]
                starts = np.argsort(x[a])
                cell = starts[np.searchsorted(x[a][starts], ys, side="right") - 1]
                fail = ~(ws * err[cell] <= self.EFFECT_TOL) & on_grid
            split = np.bincount(cell, fail, minlength=a.size) > 2 * self.POINT_COST
            split &= x[b] - x[a] > np.min(sd[np.stack([a, m, b])], axis=0) / 8.0
            s = np.flatnonzero(split)
            q = wp.size + np.arange(0, 2 * s.size, 2)  # the quarter points
            wp = np.r_[wp, np.repeat(wp[m[s]], 2)]
            t = np.r_[t, np.c_[t[a[s]] + t[m[s]], t[m[s]] + t[b[s]]].reshape(-1) / 2.0]
            keep = ~split
            a, m, b = np.r_[a[keep], a[s], m[s]], np.r_[m[keep], q, q + 1], np.r_[b[keep], m[s], b[s]]
            err = err[keep]
        order_x = np.argsort(x)
        rank = np.empty(x.size, dtype=np.intp)
        rank[order_x] = np.arange(x.size)
        direct = np.empty(y.shape, dtype=bool)
        direct.reshape(-1)[order] = fail | ~on_grid
        return x[order_x], grid[:, order_x], rank[np.stack([a, m, b])], direct

    def _log_averaged(self, x: np.ndarray) -> np.ndarray:
        """log e, e'/e and e''/e - (e'/e)^2 at effect points x (n,), stacked (3, n)."""
        e, de, d2e = self._averaged(x[:, None])
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = de / e
            return np.stack([np.log(e), slope, d2e / e - slope * slope])

    # -- per-intervention KL --------------------------------------------------

    def predicted_moments_batch(
        self, mu_q: np.ndarray, sig_q: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Mean and covariance of the effect under each do(x), linearized at mu_q."""
        f0 = self.f(mu_q)  # (m, 1)
        j0 = self.slope(mu_q)
        cov = sig_q[:, None, None] ** 2 * j0[:, :, None] * j0[:, None, :]
        return f0, cov + self.ch_ty.noise.covariance(f0)

    def conditional_grids(
        self, f0: np.ndarray, sd: np.ndarray, mu_q: np.ndarray, sig_q: np.ndarray, w: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """log p(y|do(x)) at the effect nodes y = f0 + sd u (m, k) of kl_all, from grids in u.

        w (k,) is the effect rule's weights. Each component's log p is
        evaluated on a Chebyshev-Lobatto grid in u over [-8, 8] and
        interpolated to the nodes by one barycentric matrix per grid size,
        shared by every component (_chebyshev). The sum of the magnitudes of
        the top half of its Chebyshev coefficients estimates the error; a
        component keeps its grid once that estimate times its largest KL
        weight sd p w is below COND_TOL. Every grid starts at WINDOW_FLOOR
        = 33 points. A failing component doubles its grid, nested,
        evaluating only the new points, while the doubled grid has fewer
        points than the nodes and geometric decay of its coefficients could
        bring it under COND_TOL: decay at the rate the top half shows
        against the rest would cut the estimate by their ratio. Measured at
        every doubling of 16,224 components (both passes of the fig1b
        family, linear dimmers and switches at noise 1e-3 to 0.5, power and
        Weber dimmers, dimmer_family at 0.2 and 0.3), the doubled grid's
        estimate was never below 1.66 times that prediction, and no
        component its doubled grid resolves came within 25 times of being
        refused it. A component that stops doubling unresolved, or whose
        grid holds a log p that is not finite, is left to direct
        evaluation. On dimmer_family(1, 0.2, 0.2) this sends 7,242 rows to
        conditional_density, where direct evaluation alone sends 9,648.

        COND_TOL is EFFECT_TOL's 2.5e-13. On 17 chains (the fig1b family,
        linear, power and Weber dimmers, the binary switch, at noise 1e-4 to
        0.3) every tolerance from 1e-13 to 4e-12 moved the EI by at most
        7e-14 nats from direct evaluation, and at 2.5e-13 by at most 3.9e-14
        (the linear dimmer at 1e-3): what is left is the rounding of the
        nodes y, which moves direct values as much. The tolerance sets how
        many components go direct.

        Returns log p (m, k), set only on the rows kept on a grid, the error
        estimate of each component (m,), and the components (m,) left direct.
        """
        m, k = sd.size, w.size
        log_p, est = np.empty((m, k)), np.full(m, np.inf)
        direct = np.ones(m, dtype=bool)

        def log_conditional(rows: np.ndarray, at: np.ndarray) -> np.ndarray:
            """log p at u = at (s,) for the components rows, (rows, s)."""
            p = self.conditional_density(
                (f0[rows] + sd[rows, None] * at).reshape(-1, 1),
                np.repeat(mu_q[rows], at.size),
                np.repeat(sig_q[rows], at.size),
            )
            with np.errstate(divide="ignore"):
                return np.log(p).reshape(rows.size, at.size)

        rows, size = np.arange(m), self.WINDOW_FLOOR
        grid = log_conditional(rows, _chebyshev(size, k)[0])
        while rows.size:
            _, interp, coef = _chebyshev(size, k)
            q = (size - 1) // 2
            with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
                lp = grid @ interp
                c = np.abs(grid @ coef)
                est[rows] = np.sum(c[:, -q:], axis=1)
                weight = np.max(sd[rows, None] * np.exp(lp) * w, axis=1)
                # what the doubled grid's estimate would be at best
                hope = est[rows] ** 2 / np.sum(c[:, :-q], axis=1) * weight < self.COND_TOL
            keep = np.all(np.isfinite(grid), axis=1) & (est[rows] * weight < self.COND_TOL)
            log_p[rows[keep]] = lp[keep]
            direct[rows[keep]] = False
            retry = ~keep & hope & (2 * size - 1 < k)
            rows, size = rows[retry], 2 * size - 1
            if rows.size:
                nested = np.empty((rows.size, size))
                nested[:, ::2] = grid[retry]
                nested[:, 1::2] = log_conditional(rows, _chebyshev(size, k)[0][1::2])
                grid = nested
        return log_p, est, direct

    def kl_all(self, mu_q: np.ndarray, sig_q: np.ndarray, nodes: int) -> np.ndarray:
        """Per-intervention KL between conditional and averaged effect laws.

        All intervention rows share one flattened effect grid so the kernel
        runs a handful of large vector operations instead of a Python loop.
        The conditional density comes from per-component Chebyshev grids
        (conditional_grids) and the averaged density from one set of locally
        refined grids per call (effect_grids); each leaves what its grids do
        not resolve to direct evaluation. On the six seed-0 fig1b points of
        the sweep-quad bench workload the conditional grids send 36,236
        rows to the conditional density, where every node direct takes
        143,208, and over all of fig1b they move the EI by at most 8.9e-16
        nats; the averaged density's cells evaluate it at 5,617 rows (13,572
        when each window doubled whole), and move each EI by at most 8.9e-15
        nats against direct evaluation.
        """
        mu_q = np.asarray(mu_q, dtype=float)
        sig_q = np.broadcast_to(np.asarray(sig_q, dtype=float), mu_q.shape)
        f0, cov = self.predicted_moments_batch(mu_q, sig_q)
        u, w = gauss_legendre(-_EFFECT_TAIL_SIGMAS, _EFFECT_TAIL_SIGMAS, nodes)
        sd = np.sqrt(cov[:, 0, 0])
        y = f0 + sd[:, None] * u[None, :]  # (m, k)
        k = u.shape[0]
        log_p, _, direct = self.conditional_grids(f0, sd, mu_q, sig_q, w)
        p = np.empty(y.shape)
        p[~direct] = np.exp(log_p[~direct])
        if np.any(direct):
            p[direct] = self.conditional_density(
                y[direct].reshape(-1, 1), np.repeat(mu_q[direct], k), np.repeat(sig_q[direct], k)
            ).reshape(-1, k)
            with np.errstate(divide="ignore"):
                log_p[direct] = np.log(p[direct])
        log_e = self.log_averaged_density(y, sd[:, None] * p)
        return sd * (_kl_integrand(p, log_p, log_e) @ w)


def _row_blocks(n: int, rows: int) -> tp.Iterator[slice]:
    """Slices of at most rows rows covering n rows in order."""
    return (slice(start, start + rows) for start in range(0, n, rows))


def _effect_windows(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sorted disjoint windows (lo, hi) covering the [min, max] of each row of y."""
    order = np.argsort(np.min(y, axis=1))
    lo = np.min(y, axis=1)[order]
    hi = np.maximum.accumulate(np.max(y, axis=1)[order])
    starts = np.flatnonzero(np.r_[True, lo[1:] > hi[:-1]])
    ends = np.r_[starts[1:] - 1, lo.size - 1]
    return lo[starts], hi[ends]


def _lobatto(lo: np.ndarray, hi: np.ndarray, angle: np.ndarray) -> np.ndarray:
    """The Chebyshev-Lobatto points at angles (n,) on the windows [lo, hi] (n,)."""
    return lo + (hi - lo) * (0.5 * (1.0 - np.cos(angle)))


@functools.lru_cache(maxsize=8)
def _chebyshev(size: int, nodes: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Chebyshev-Lobatto interpolation on kl_all's effect axis u in [-8, 8], read-only.

    Returns the size grid points in order (_lobatto's, so a grid's points
    are the even-indexed points of its doubling); the barycentric matrix
    (size, nodes) that takes values at them to their interpolant at the
    nodes of gauss_legendre(-8, 8, nodes) (Berrut & Trefethen, SIAM Rev.
    46, 2004); and the matrix (size, size - 1) that takes them to their
    Chebyshev coefficients but the first, up to sign.
    """
    x = _lobatto(-_EFFECT_TAIL_SIGMAS, _EFFECT_TAIL_SIGMAS, math.pi * np.arange(size) / (size - 1))
    t, _ = gauss_legendre(-_EFFECT_TAIL_SIGMAS, _EFFECT_TAIL_SIGMAS, nodes)
    bw = (-1.0) ** np.arange(size)
    bw[[0, -1]] *= 0.5
    d = t[None, :] - x[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        interp = bw[:, None] / d
        interp /= np.sum(interp, axis=0)
    hit = np.any(d == 0.0, axis=0)  # a node on a grid point takes its value
    interp[:, hit] = d[:, hit] == 0.0
    # c_k = 2/(size - 1) sum_j'' f_j T_k(x_j), halved at k = size - 1, with
    # T_k(x_j) = (-1)^k cos(pi k j / (size - 1))
    j = np.arange(size)
    coef = np.cos(math.pi * np.outer(j, j[1:]) / (size - 1)) * (2.0 / (size - 1))
    coef[[0, -1]] *= 0.5
    coef[:, -1] *= 0.5
    return _read_only((x, interp, coef))


def _hermite(x: np.ndarray, grid: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Quintic Hermite interpolant through log e, slope and curvature grid (3, N) at sorted x.

    Each of the points `at` takes the step over the interval holding it.
    """
    j = np.clip(np.searchsorted(x, at, side="right") - 1, 0, x.size - 2)
    return _hermite_step(x, grid, j, j + 1, at)


def _hermite_step(
    x: np.ndarray, grid: np.ndarray, a: np.ndarray, b: np.ndarray, at: np.ndarray
) -> np.ndarray:
    """The quintic Hermite steps from the points a to the points b of x, at the points `at`."""
    v, s, c = grid
    h = x[b] - x[a]
    t = (at - x[a]) / h
    r = 1.0 - t
    # the basis in factored form: r^3 (...) carries the left end, t^3 (...) the right
    left = v[a] * (1.0 + t * (3.0 + 6.0 * t)) + h * t * (s[a] * (1.0 + 3.0 * t) + 0.5 * h * t * c[a])
    right = v[b] * (1.0 + r * (3.0 + 6.0 * r)) - h * r * (s[b] * (1.0 + 3.0 * r) - 0.5 * h * r * c[b])
    return r**3 * left + t**3 * right


def _kl_integrand(p: np.ndarray, log_p: np.ndarray, log_e: np.ndarray) -> np.ndarray:
    """p (log p - log e), zero where p is at most _P_FLOOR.

    log p is passed in: a component interpolated on its grid has it, and p
    is its exp.
    """
    out = np.zeros_like(p)
    live = p > _P_FLOOR
    if np.any(live & ~np.isfinite(log_e)):
        raise NumericalFailureError(
            "averaged effect density vanished where the conditional does not"
        )
    out[live] = p[live] * (log_p[live] - log_e[live])
    return out


# ---------------------------------------------------------------------------
# public estimators
# ---------------------------------------------------------------------------


def _quadrature_pass(chain: _ScalarChain, spec: QuadratureSpec, refine: int) -> tuple[float, int]:
    """EI in nats with every node count times refine, and the outer node count."""
    mu, sig, w = chain.components(refine)
    return float(w @ chain.kl_all(mu, sig, refine * spec.nodes_per_axis)), mu.size


def ei_exact_quadrature(
    x_set: InterventionSet,
    noise_xt: NoiseSpec,
    ch_ty: GaussianChannel,
    spec: QuadratureSpec | None = None,
    check_convergence: bool = True,
) -> EIReport:
    """Effective information by nested quadrature.

    Each intervention sets the parameter, blurred by ``noise_xt``. The
    domain is a scalar parameter and a scalar effect, interventions on a
    scalar box (with noise that does not depend on the state) or a discrete
    set, and isotropic, diagonal or 1x1 full effect noise. Anything else raises
    UseMonteCarloError; the CLI then falls back to ``ei_exact_mc``.

    The parameter is marginalized per intervention and the effect integral
    runs over a mean +- tail*sigma envelope with nodes_per_axis nodes. The
    intervention average over a box is composite Gauss-Legendre, 12 nodes
    per panel, with panels graded into the boundary layer at each edge and,
    at 1 and 3 layer widths only, around each effect-noise kink (the Weber
    chain: 180 outer nodes, 8.8e-10 nats from uniform G3201, where the full
    ladder took 252 for 9.8e-10); over discrete points it is a plain mean.
    The intervention-averaged effect density is evaluated, with its first
    two derivatives, on Chebyshev grids, one per effect window, each
    starting at 33 points and refined cell by cell where its error check
    fails at more nodes than the new points cost, down to 1/8 of the
    effect-noise sd (``_ScalarChain.effect_grids``); log e is interpolated
    at the effect nodes by quintic Hermite steps, and nodes the grids do not
    resolve to the kernel's tolerance are evaluated directly. On the six
    fig1b points of the sweep-quad bench workload this evaluates the
    density at 5,617 rows, where doubling whole windows took 13,572. Its
    integration breakpoints come from inverting f through a table built
    once per chain. On the bundled chains the graded panels match a uniform
    401-node outer rule to 5e-12 nats, and against direct evaluation at
    every node the grids move the bundled figures by at most 1.4e-13 nats.
    Each intervention's conditional effect density is evaluated on a
    Chebyshev-Lobatto grid in the standardized effect coordinate, starting
    at 33 points and doubled, nested, while its coefficient-tail error
    estimate asks, the doubled grid has fewer points than the effect
    nodes, and geometric decay of its coefficients could resolve it; its
    log is interpolated to the effect nodes, and a component the grids do
    not resolve is evaluated at every node
    (``_ScalarChain.conditional_grids``). Against evaluating every
    component at every node, these grids move fig1b by at most 8.9e-16
    nats and fig1c by at most 3.9e-14. A second pass with every node
    count doubled flags non-convergence beyond 1e-3 nats.

    The kernel's (rows x nodes) arrays, those of the conditional and of the
    averaged density, are formed in row blocks of at most _BLOCK = 65,536
    elements (512 KB each), and the parameter mixture is evaluated on one
    averaged-density block at a time, so beyond its blocks a pass keeps a
    few float vectors per effect node alive; the blocks do not move any
    value.
    """
    spec = spec or QuadratureSpec()
    chain = _ScalarChain(noise_xt, ch_ty, x_set)
    nats, outer = _quadrature_pass(chain, spec, 1)
    flags: tuple[str, ...] = ()
    if check_convergence:
        doubled, _ = _quadrature_pass(chain, spec, 2)
        if abs(doubled - nats) > 1e-3:
            flags = (FLAG_NOT_CONVERGED,)
    grid = (
        f"gauss-legendre:{outer} outer nodes ({chain.PANEL_NODES} per graded panel on a box), "
        f"{spec.nodes_per_axis} effect nodes, tail {_EFFECT_TAIL_SIGMAS} sigma"
    )
    return EIReport(nats, "exact-quadrature", grid, flags=flags)


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------


def _logmeanexp(a: np.ndarray, axis: int) -> np.ndarray:
    return logsumexp(a, axis=axis) - math.log(a.shape[axis])


def _log_bias_correction(log_w: np.ndarray, axis: int, lme: np.ndarray) -> np.ndarray:
    """First-order Jensen debias for a log-of-mean estimate (delta method).

    E[log wbar] sits below log E[w] by roughly Var(wbar) / (2 E[w]^2); the
    sample version of that ratio is added back. Nonnegative by construction.
    The m draws along axis number at least 2, as MonteCarloSpec requires.
    """
    m = log_w.shape[axis]
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
    noise_xt: NoiseSpec,
    ch_ty: GaussianChannel,
    spec: MonteCarloSpec | None = None,
) -> EIReport:
    """Effective information by nested Monte Carlo.

    Outer samples follow the generative chain: an intervention drawn from
    the set, the parameter drawn around it from ``noise_xt``, the effect
    from ``ch_ty``. Both inner integrals (the
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
    d_t = x_set.dim
    inflate_cond = 1.4**2
    inflate_avg = 1.6**2

    log_mix = x_set.log_mixture(noise_xt)
    clip_lo, clip_hi = x_set.mean_range()

    seeds = np.random.SeedSequence(spec.seed).spawn(spec.batches)
    batch_means = np.empty(spec.batches)
    for b, ss in enumerate(seeds):
        rng = np.random.Generator(np.random.PCG64(ss))
        mu = x_set.sample(rng, batch_size)
        theta = noise_xt.draw(rng, mu)
        y = ch_ty.noise.draw(rng, ch_ty.mean(theta))

        # per-row precision of the intervention noise: whitening twice
        eye = np.broadcast_to(np.eye(d_t), (batch_size, d_t, d_t))
        prec_q = noise_xt.whiten(noise_xt.whiten(eye, mu[:, None, :]), mu[:, None, :])
        mu_in = np.repeat(mu[:, None, :], spec.inner_samples, axis=1)

        def draw_mix(gen: np.random.Generator) -> np.ndarray:
            x_mix = x_set.sample(gen, batch_size * spec.inner_samples)
            return noise_xt.draw(gen, x_mix.reshape(mu_in.shape))

        # conditional density: Laplace proposal at the per-intervention
        # posterior mode, defended by the intervention noise itself
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
    return EIReport(nats, "exact-mc", grid, stderr=stderr, seed=spec.seed, flags=flags)


# ---------------------------------------------------------------------------
# geometric estimate
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=16)
def _field_mesh(domain: Domain, nodes_per_axis: int) -> tuple[tuple[np.ndarray, ...], float]:
    """The open mesh of the box's midpoint nodes and the cell volume, read-only.

    Axis k's nodes lie along dimension k of the mesh (``np.ix_``), so the
    coordinates broadcast to the tensor grid without filling it.
    """
    axes, cell = midpoint_axes(domain.lower, domain.upper, nodes_per_axis)
    mesh = np.ix_(*axes)
    for coord in mesh:
        coord.flags.writeable = False
    return mesh, cell


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

    Both metrics are read through :attr:`MetricField.entries` at the open
    mesh of the tensor grid, as entries that broadcast to the grid shape: a
    constant metric, the two-species g and a line's pullback compute them
    per axis or as scalars, a field made by :meth:`MetricField.from_batch`
    (the 1-D effect metrics) at every node. The log dets are taken from
    those entries; for d <= 2 no g + h or factor stack is built.
    ``nodes_per_axis`` must be an integer >= 1 (a bool is not one).
    """
    n = nodes_per_axis
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise InvalidConfigError(f"nodes_per_axis must be an integer >= 1, got {n!r}")
    if g.dim != h.dim or g.dim != domain.dim:
        raise InvalidConfigError("metric fields and domain must share a dimension")
    d = domain.dim
    mesh, cell = _field_mesh(domain, nodes_per_axis)
    shape = tuple(coord.size for coord in mesh)
    h_grid = h.entries(mesh)
    g_grid = g.entries(mesh)
    logdet_h = _logdet(h_grid)
    _require_factored(logdet_h, mesh, "intervention metric")
    l_vals = _mismatch_batch(g_grid, h_grid, mesh)
    # A view of the grid's shape: a constant h takes one exp and fills no grid.
    sqrt_h = np.broadcast_to(np.exp(0.5 * logdet_h), shape)
    volume = float(cell * sqrt_h.sum())
    mean_l = float((sqrt_h * l_vals).sum() * cell / volume)
    volume_term = math.log(volume) - 0.5 * d * _LOG_2PIE
    nats = volume_term - mean_l
    flags: tuple[str, ...] = ()
    if nats < 0.0:
        flags = (FLAG_NEGATIVE_GEOMETRIC,)
    return EIReport(
        nats,
        "geometric",
        f"midpoint:{'x'.join(str(n) for n in shape)}",
        volume_term=volume_term,
        mean_mismatch=mean_l,
        flags=flags,
    )
