"""Small quadrature toolbox used by the numeric modules.

Thin wrappers around numpy's Gauss rules, composite Gauss-Legendre rules on
given panels or graded into layers of the integrand, and the midpoint grids
used for metric-field integrals. Nothing here is model specific.
"""

from __future__ import annotations

import functools

import numpy as np

# imported here, not lazily by the first rule a pool thread asks for
import numpy.polynomial.hermite
import numpy.polynomial.legendre

__all__ = [
    "gauss_legendre",
    "composite_gauss_legendre",
    "graded_gauss_legendre",
    "gauss_hermite",
    "midpoint_axes",
]


def _read_only(rule: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Lock cached nodes and weights so no caller can change them for the next."""
    for a in rule:
        a.flags.writeable = False
    return rule


@functools.lru_cache(maxsize=64)
def _leggauss(n: int) -> tuple[np.ndarray, np.ndarray]:
    return _read_only(np.polynomial.legendre.leggauss(n))


@functools.lru_cache(maxsize=16)
def gauss_hermite(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Physicists' Gauss-Hermite rule: integrates f against exp(-t^2)."""
    return _read_only(np.polynomial.hermite.hermgauss(n))


def gauss_legendre(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights mapped to the interval [a, b]."""
    t, w = _leggauss(int(n))
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return mid + half * t, half * w


def composite_gauss_legendre(breakpoints: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rule with n nodes on each panel between consecutive breakpoints.

    The breakpoints must increase. Only the n-node rule is built, so a wide
    window costs the panels' arithmetic, not a rule as large as its node count.
    """
    t, w = _leggauss(int(n))
    mid = 0.5 * (breakpoints[:-1] + breakpoints[1:])
    half = 0.5 * np.diff(breakpoints)
    return (mid[:, None] + half[:, None] * t).ravel(), (half[:, None] * w).ravel()


# breakpoints of graded_gauss_legendre, in layer widths from a layer's centre
GRADING = (1.0, 3.0, 6.0, 12.0, 24.0)


def graded_gauss_legendre(
    a: float, b: float, centres: np.ndarray, widths: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on [a, b] with n nodes per panel.

    The panels are graded into a layer around each centre c of width w:
    breakpoints sit at c, c - k w and c + k w for k in GRADING, clipped to
    [a, b] and deduplicated. So a layer at an edge is graded from one side.
    A layer inside the interval is a kink of the integrand, smooth again a
    few widths out, and is graded from both sides at k = 1 and 3 only.
    """
    steps = np.r_[-np.asarray(GRADING)[::-1], 0.0, GRADING]
    centres = np.asarray(centres, dtype=float)
    inner = centres[:, None] + np.asarray(widths, dtype=float)[:, None] * steps
    edge = (centres <= a) | (centres >= b)
    inner = inner[edge[:, None] | (np.abs(steps) <= GRADING[1])]
    bp = np.sort(np.clip(np.r_[a, inner, b], a, b))
    bp = bp[np.r_[True, np.diff(bp) > 0.0]]  # np.unique's values, without its lazy numpy.ma import
    return composite_gauss_legendre(bp, n)


def midpoint_axes(
    lower: np.ndarray, upper: np.ndarray, nodes_per_axis: int
) -> tuple[list[np.ndarray], float]:
    """Cell-midpoint nodes per axis plus the (constant) cell volume.

    Node counts are nudged so that no node lands on the symmetry sets where
    models tend to degenerate. In two or more dimensions the axes get
    staggered counts (n, n+1, n+2, ...): midpoints of an equal-count square
    grid land exactly on lines such as theta_1 = theta_2. In one dimension
    an odd count puts a node on the exact domain midpoint, so odd counts are
    rounded up to even. Either way the rule stays a plain midpoint rule.
    """
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    dim = lower.size
    axes = []
    cell = 1.0
    for k in range(dim):
        if dim == 1:
            n_k = int(nodes_per_axis) + int(nodes_per_axis) % 2
        else:
            n_k = int(nodes_per_axis) + k
        h = (upper[k] - lower[k]) / n_k
        axes.append(lower[k] + h * (np.arange(n_k) + 0.5))
        cell *= h
    return axes, cell
