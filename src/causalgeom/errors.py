"""Exception hierarchy shared across the package.

Everything raised on purpose derives from :class:`CausalGeomError`, so callers
(and the command line driver) can distinguish "the model/config is bad" from
genuine bugs.
"""

from __future__ import annotations


class CausalGeomError(Exception):
    """Base class for all errors raised deliberately by this package."""


class InvalidConfigError(CausalGeomError):
    """A configuration value is malformed or out of its allowed range."""


class DegenerateDistributionError(CausalGeomError):
    """A covariance matrix is not positive definite."""


class IllPosedInterventionsError(CausalGeomError):
    """The intervention metric is singular where it must be invertible."""


class DegenerateModelError(CausalGeomError):
    """A model quantity that must be finite/invertible is not.

    Used e.g. when g + h is singular at a quadrature node, which makes the
    mismatch field undefined rather than +inf.
    """


class DegenerateEmbeddingError(CausalGeomError):
    """A submanifold line has a zero direction."""


class UseMonteCarloError(CausalGeomError):
    """The requested exact quadrature is not feasible at this dimension."""


class RegimeError(CausalGeomError):
    """Model parameters are outside the regime a formula is valid in."""


class NumericalFailureError(CausalGeomError):
    """A numerical routine failed to produce a trustworthy result."""
