"""Small quadrature toolbox used by the numeric modules.

Thin wrappers around numpy's Gauss rules, a composite Gauss-Legendre rule
graded into layers of the integrand, and the midpoint grids used for
metric-field integrals. Nothing here is model specific.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = [
    "gauss_legendre",
    "graded_gauss_legendre",
    "trapezoid",
    "nodes_weights",
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


# breakpoints of graded_gauss_legendre, in layer widths from a layer's centre
GRADING = (1.0, 3.0, 6.0, 12.0, 24.0)


def graded_gauss_legendre(
    a: float, b: float, centres: np.ndarray, widths: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre rule on [a, b] with n nodes per panel.

    The panels are graded into a layer around each centre c of width w:
    breakpoints sit at c, c - k w and c + k w for k in GRADING, clipped to
    [a, b] and deduplicated. So a layer at an edge is graded from one side,
    and one inside the interval from both.
    """
    steps = np.r_[-np.asarray(GRADING)[::-1], 0.0, GRADING]
    inner = np.asarray(centres, dtype=float)[:, None] + np.asarray(widths, dtype=float)[:, None] * steps
    bp = np.unique(np.clip(np.r_[a, inner.ravel(), b], a, b))
    t, w = _leggauss(int(n))
    mid = 0.5 * (bp[:-1] + bp[1:])
    half = 0.5 * np.diff(bp)
    return (mid[:, None] + half[:, None] * t).ravel(), (half[:, None] * w).ravel()


def trapezoid(a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Composite trapezoid nodes/weights on [a, b] with n nodes."""
    n = int(n)
    x = np.linspace(a, b, n)
    h = (b - a) / (n - 1)
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return x, w


def nodes_weights(rule: str, a: float, b: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    if rule == "gauss-legendre":
        return gauss_legendre(a, b, n)
    if rule == "trapezoid":
        return trapezoid(a, b, n)
    raise ValueError(f"unknown quadrature rule: {rule!r}")


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
