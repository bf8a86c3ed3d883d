"""The normal CDF and log-sum-exp in plain numpy.

``ndtr`` ports the rational forms of Cephes' ``ndtr``, ``erf`` and ``erfc``
(S. L. Moshier), which follow W. J. Cody, "Rational Chebyshev approximations
for the error function", Math. Comp. 23 (1969). ``scipy.special.ndtr`` uses
the same forms, so the two agree bit for bit wherever numpy's ``exp`` agrees
with the C library's, and within a few ulp elsewhere. Each element is sent to
one branch, and each branch runs Horner's rule in place on its own elements.
"""

from __future__ import annotations

import numpy as np

__all__ = ["ndtr", "box_mass", "logsumexp"]

_SQRT1_2 = 0.70710678118654752440
# Cephes sets erfc(z) to 0 where z*z > MAXLOG = 7.09782712893383996843e2;
# this is the largest z with z*z <= MAXLOG in double precision.
_Z_MAX = 26.641747557046326

# Horner coefficients, highest power first, numerator over denominator. The
# leading 1 of Cephes' monic denominators (p1evl) is written out, and a
# shorter numerator is padded with a leading 0: 1*z and 0*z + c are exact, so
# both rows take the same number of steps and give Cephes' bits.
_ERF_NEAR = np.array(  # erf(x) = x T(x^2) / U(x^2) for |x| < 1
    [
        [0.0, 9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
         7.00332514112805075473e3, 5.55923013010394962768e4],
        [1.0, 3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
         2.26290000613890934246e4, 4.92673942608635921086e4],
    ]
)
_ERFC_MID = np.array(  # erfc(z) = exp(-z^2) P(z) / Q(z) for 1 <= z < 8
    [
        [2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
         4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
         9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2],
        [1.0, 1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
         9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
         1.65666309194161350182e3, 5.57535340817727675546e2],
    ]
)
_ERFC_FAR = np.array(  # erfc(z) = exp(-z^2) R(z) / S(z) for z >= 8
    [
        [0.0, 5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
         6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0],
        [1.0, 2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
         1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0],
    ]
)

# box_mass leaves a term out of ndtr(b) - ndtr(a) only where the difference
# keeps its bits (tests/test_special.py checks both facts used):
# - ndtr(b) is exactly 1.0 for b > 8.3, so b > SATURATED skips it;
# - ndtr(a) is dropped where it is below 2**-54 ndtr(b), under half the gap
#   below ndtr(b). ndtr(a) < 2**-55 for a < -8.4, so a < -SATURATED with
#   b >= 0 skips it. So does a < -SATURATED with b < 0 where b - a >=
#   SATURATED: ndtr is log-concave, so for b <= 0 the ratio
#   ndtr(b - w) / ndtr(b) is largest at b = 0, where it is 2 ndtr(-w).
# The margin past 8.3 and 8.4 absorbs the rounding of (edge - t) / scale,
# so box_mass decides on t without forming a and b.
SATURATED = 8.5


def _horner(z: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """Both rows of ``coef`` at z (n,) by Horner's rule in place, as (2, n)."""
    acc = np.multiply.outer(coef[:, 0], z)
    acc += coef[:, 1:2]
    for k in range(2, coef.shape[1]):
        acc *= z
        acc += coef[:, k : k + 1]
    return acc


def _erfc_half(z: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """0.5 erfc(z) = 0.5 exp(-z^2) P(z) / Q(z) on z (n,) in one branch's range."""
    e = np.multiply(z, z)
    np.negative(e, out=e)
    np.exp(e, out=e)
    num, den = _horner(z, coef)
    e *= num  # (exp(-z^2) P(z)) / Q(z), grouped as Cephes groups it
    e /= den
    e *= 0.5
    return e


def ndtr(x: np.ndarray) -> np.ndarray:
    """The standard normal CDF, elementwise; nan stays nan.

    With s = x / sqrt(2): 0.5 + 0.5 erf(s) where |s| < 1, else the lower
    tail 0.5 erfc(|s|), or one minus it for s > 0.
    """
    x = np.asarray(x, dtype=float)
    s = x.reshape(-1) * _SQRT1_2
    z = np.abs(s)
    near = z < 1.0
    mid = z < 8.0
    far = z <= _Z_MAX  # beyond it the lower tail is 0
    far ^= mid
    mid ^= near
    out = np.minimum(z, 0.0)  # a lower tail of 0, and nan for nan
    out[mid] = _erfc_half(z[mid], _ERFC_MID)
    out[far] = _erfc_half(z[far], _ERFC_FAR)
    np.subtract(1.0, out, out=out, where=s > 0.0)
    sn = s[near]
    erf, den = _horner(sn * sn, _ERF_NEAR)
    erf *= sn  # (s T(s^2)) / U(s^2)
    erf /= den
    erf *= 0.5
    erf += 0.5
    out[near] = erf
    return out.reshape(x.shape)


def box_mass(t: np.ndarray, lo: float, hi: float, scale: float) -> np.ndarray:
    """ndtr((hi - t) / scale) - ndtr((lo - t) / scale) for t (n,), lo < hi, scale > 0.

    The plain difference's bits, with ndtr called only where a term can
    change them (see SATURATED): deep inside [lo, hi] the mass is 1.0
    without any call.
    """
    far = np.inf if hi - lo >= SATURATED * scale else hi  # skip ndtr(a) up to here
    need_hi = t >= hi - SATURATED * scale
    need_lo = ~((t > lo + SATURATED * scale) & (t <= far))  # nan is needed
    t_hi, t_lo = t[need_hi], t[need_lo]
    z = np.empty(t_hi.size + t_lo.size)  # one ndtr call: each has a set-up cost
    np.subtract(hi, t_hi, out=z[: t_hi.size])
    np.subtract(lo, t_lo, out=z[t_hi.size :])
    z /= scale
    cdf = ndtr(z)
    out = np.ones(t.shape)
    out[need_hi] = cdf[: t_hi.size]
    out[need_lo] -= cdf[t_hi.size :]
    return out


def logsumexp(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """log(sum(exp(a))) along ``axis``, shifted by its largest term.

    The largest terms stay out of the sum and enter through log1p
    (Blanchard, Higham and Higham, IMA J. Numer. Anal. 41, 2021), as in
    ``scipy.special.logsumexp``. A row of -inf gives -inf, and a row
    holding nan gives nan.
    """
    top = np.max(a, axis=axis, keepdims=True)
    is_top = a == top
    count = np.count_nonzero(is_top, axis=axis, keepdims=True)
    # -inf - -inf in a row of -inf, and log(0) in a row holding nan
    with np.errstate(invalid="ignore", divide="ignore"):
        rest = np.exp(a - top)
        rest[is_top] = 0.0
        out = np.log1p(np.sum(rest, axis=axis, keepdims=True) / count) + np.log(count) + top
    return np.squeeze(out, axis=axis)
