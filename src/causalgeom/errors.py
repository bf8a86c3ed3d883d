"""Exception hierarchy shared across the package.

Everything raised on purpose derives from :class:`CausalGeomError`, so callers
(and the command line driver) can distinguish "the model/config is bad" from
genuine bugs. It has three subclasses, one per outcome a caller acts on:

- :class:`InvalidConfigError`: a value is refused; the CLI exits 2;
- :class:`UseMonteCarloError`: exact quadrature does not apply; the CLI falls
  back to Monte Carlo;
- :class:`NumericalFailureError`: a computation on valid values failed; the
  CLI exits 3, or leaves a gap in a crossover scan.

It also holds the one rule for what counts as an integer count.
"""

from __future__ import annotations

import math

import numpy as np


class CausalGeomError(Exception):
    """Base class for all errors raised deliberately by this package."""


class InvalidConfigError(CausalGeomError):
    """A configuration value is malformed or out of its allowed range."""


class UseMonteCarloError(CausalGeomError):
    """The requested exact quadrature is not feasible at this dimension."""


class NumericalFailureError(CausalGeomError):
    """A numerical routine failed to produce a trustworthy result.

    Raised, e.g., for a covariance that is not positive definite, an
    intervention metric that is singular where it must be invertible, or a
    formula asked for outside the regime it is valid in.
    """


def _require_integer(name: str, value: object, minimum: float = -math.inf) -> None:
    """Refuse a count that is not an int or numpy integer (a bool is not one), or is below ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        at_least = "" if minimum == -math.inf else f" >= {minimum}"
        raise InvalidConfigError(f"{name} must be an integer{at_least}, got {value!r}")
