"""Channel construction, Gaussian log densities, and uniform-prior inversion."""

import math

import numpy as np
import pytest
from scipy import integrate, stats

from causalgeom import (
    ConstantIsotropic,
    DiagonalStateDependent,
    DiscretePoints,
    Domain,
    FullConstant,
    GaussianChannel,
    InvalidConfigError,
    NumericalFailureError,
    TwoSpeciesConfig,
    UniformBox,
    UseMonteCarloError,
    two_species_model,
)
from causalgeom._quadrature import gauss_legendre
from causalgeom.channels import gaussian_log_density
from reference import UnreachableParameterError, finite_difference_channel, invert_uniform_prior

UNIT = Domain(((0.0, 1.0),))
CUBE = Domain(((0.0, 1.0),) * 3)


def scalar_channel(delta: float, fn, jac) -> GaussianChannel:
    return GaussianChannel(mean_map=fn, noise=ConstantIsotropic(delta), jacobian=jac)


def test_domain_validation():
    with pytest.raises(InvalidConfigError):
        Domain(())
    with pytest.raises(InvalidConfigError):
        Domain(((1.0, 0.0),))
    with pytest.raises(InvalidConfigError):
        Domain(((0.0, math.inf),))
    assert Domain(((0.0, 2.0), (-1.0, 1.0))).volume == 4.0


def test_discrete_points_must_be_distinct():
    with pytest.raises(InvalidConfigError):
        DiscretePoints(np.array([[0.0], [0.0]]))
    pts = DiscretePoints(np.array([[0.0], [1.0]]))
    assert pts.dim == 1


def test_isotropic_log_density_at_origin():
    # d=2, N(0, eps^2 I) evaluated at its own mean: -ln(2 pi eps^2)
    eps = 0.3
    value = gaussian_log_density(ConstantIsotropic(eps), np.zeros(2), np.zeros(2))
    assert value == pytest.approx(-math.log(2 * math.pi * eps**2), rel=1e-14)


def test_gaussian_density_matches_scipy():
    rng = np.random.default_rng(7)
    mean = rng.normal(size=3)
    a = rng.normal(size=(3, 3))
    cov = a @ a.T + 0.5 * np.eye(3)
    noise = FullConstant(cov)
    ref = stats.multivariate_normal(mean=mean, cov=cov)
    for _ in range(5):
        p = rng.normal(size=3)
        assert gaussian_log_density(noise, p, mean) == pytest.approx(ref.logpdf(p), rel=1e-12)


def test_full_covariance_validation():
    with pytest.raises(InvalidConfigError):
        FullConstant(np.array([[1.0, 0.5], [0.4, 1.0]]))
    with pytest.raises(NumericalFailureError, match="covariance is not positive definite"):
        FullConstant(np.array([[1.0, 2.0], [2.0, 1.0]]))


def test_state_dependent_noise_must_stay_positive():
    noise = DiagonalStateDependent(lambda y: y)
    with pytest.raises(NumericalFailureError, match="state-dependent sigma must stay positive"):
        noise.sigma_diag(np.array([0.0]))


def test_finite_difference_jacobian_matches_analytic():
    ch_an = scalar_channel(0.1, fn=lambda x: np.sin(x), jac=lambda x: np.cos(x)[..., None, None] if np.ndim(x) > 1 else np.atleast_2d(np.cos(x)))
    ch_fd = finite_difference_channel(ch_an, UNIT)
    x = np.array([0.37])
    fd = ch_fd.jac(x)
    an = np.atleast_2d(np.cos(0.37))
    assert fd == pytest.approx(an, rel=1e-8)
    assert ch_an.jac(x) == pytest.approx(an, rel=1e-12)


def test_inversion_normalizes_to_one():
    """The inverted density must integrate to 1 over the intervention box."""
    inv = invert_uniform_prior(ConstantIsotropic(0.05), UniformBox(UNIT))
    for theta in (0.03, 0.31, 0.5, 0.97):
        total, err = integrate.quad(lambda x: inv.density(x, theta), 0.0, 1.0, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)
        assert err < 1e-8


def test_inversion_matches_gaussian_in_the_interior():
    """Far from the box edges the inverted intervention noise is N(theta, delta^2)."""
    delta = 0.01
    inv = invert_uniform_prior(ConstantIsotropic(delta), UniformBox(UNIT))
    theta = 0.42
    for x in (theta - 2 * delta, theta, theta + 2.5 * delta):
        ref = math.exp(-0.5 * ((x - theta) / delta) ** 2) / (delta * math.sqrt(2 * math.pi))
        assert inv.density(x, theta) == pytest.approx(ref, rel=1e-6)


def test_inversion_truncates_at_the_boundary():
    # Half of the Gaussian mass is cut off at theta = 0, so the density at the
    # peak doubles relative to the interior value.
    delta = 0.01
    inv = invert_uniform_prior(ConstantIsotropic(delta), UniformBox(UNIT))
    interior = inv.density(0.5, 0.5)
    edge = inv.density(0.0, 0.0)
    assert edge == pytest.approx(2.0 * interior, rel=1e-4)


def test_unreachable_parameter_raises():
    inv = invert_uniform_prior(ConstantIsotropic(1e-3), UniformBox(UNIT))
    with pytest.raises(UnreachableParameterError):
        inv.normalizer(50.0)


def test_fisher_of_identity_inversion_is_one_over_delta_squared():
    delta = 0.02
    inv = invert_uniform_prior(ConstantIsotropic(delta), UniformBox(UNIT))
    info = inv.fisher(0.5)
    assert info[0, 0] == pytest.approx(1.0 / delta**2, rel=1e-6)


# ---------------------------------------------------------------------------
# the parameter mixture each intervention set supplies
# ---------------------------------------------------------------------------


def dense_box_log_mixture(noise, box, theta, nodes=200, reach=12.0):
    """log of (1 / vol) * integral over the box of q(theta | do(x)), by a tensor
    Gauss-Legendre rule on the part of the box within reach sds of theta."""
    sds = np.sqrt(np.diag(noise.covariance(box.lower)))
    out = []
    for t in theta:
        lo = np.maximum(box.lower, t - reach * sds)
        hi = np.minimum(box.upper, t + reach * sds)
        axes = [gauss_legendre(a, b, nodes) for a, b in zip(lo, hi)]
        x = np.stack(np.meshgrid(*(n for n, _ in axes), indexing="ij"), axis=-1).reshape(-1, box.dim)
        w = np.prod(np.stack(np.meshgrid(*(v for _, v in axes), indexing="ij"), axis=-1), axis=-1).reshape(-1)
        q = np.exp(gaussian_log_density(noise, t, x))
        out.append(math.log(np.sum(w * q) / box.volume))
    return np.array(out)


def near_the_edges(box, sds, rng, n=12):
    """Points within three sds of a box edge on some axis, plus interior ones."""
    lo, hi = box.lower, box.upper
    inner = lo + (hi - lo) * rng.random((n, box.dim))
    edge = np.where(rng.random((n, box.dim)) < 0.5, lo, hi) + sds * rng.uniform(-3.0, 3.0, (n, box.dim))
    return np.concatenate([inner, edge])


SQUARE = Domain(((0.0, 1.0), (0.0, 1.0)))


@pytest.mark.parametrize(
    "domain, noise",
    [
        (UNIT, ConstantIsotropic(0.05)),
        (SQUARE, FullConstant(np.diag([0.03, 0.08]) ** 2)),
        (SQUARE, two_species_model(TwoSpeciesConfig(0.01, 0.01, matrix=np.array([[1.0, 0.5], [0.0, 1.0]]))).noise_xt),
    ],
    ids=["1d-isotropic", "2d-diagonal", "2d-full"],
)
def test_box_log_mixture_matches_a_dense_tensor_rule(domain, noise):
    """The closed forms (CDF differences; one conditional-CDF rule for the
    correlated square) against a dense average, in log: measured worst
    7e-14, 1.2e-13 and 1.7e-13."""
    box = UniformBox(domain)
    sds = np.sqrt(np.diag(noise.covariance(box.domain.lower)))
    theta = near_the_edges(box.domain, sds, np.random.default_rng(3))
    got = box.log_mixture(noise)(theta)
    ref = dense_box_log_mixture(noise, box.domain, theta)
    assert np.max(np.abs(got - ref)) <= 1e-12
    # any leading shape: one value per parameter point
    assert np.array_equal(box.log_mixture(noise)(theta.reshape(2, -1, box.dim)).reshape(-1), got)


def test_box_log_mixture_refuses_what_has_no_closed_form():
    refused = [
        (UNIT, DiagonalStateDependent(lambda t: 0.02 + 0.1 * t)),
        (CUBE, FullConstant(np.full((3, 3), 0.5) + 0.5 * np.eye(3))),
    ]
    for domain, noise in refused:
        with pytest.raises(UseMonteCarloError):
            UniformBox(domain).log_mixture(noise)


def test_point_log_mixture_is_the_mean_over_the_points():
    """Interventions are parameter coordinates, so points given in some other
    coordinates are mapped into the parameter's before the set is built."""
    cov = np.array([[0.04, 0.01], [0.01, 0.02]])
    noise = FullConstant(cov)
    raw = np.array([[0.0, 0.0], [1.0, 0.2], [0.3, 0.9]])
    means = np.concatenate([raw[..., :1] + raw[..., 1:], raw[..., :1] - 0.5 * raw[..., 1:]], axis=-1)
    points = DiscretePoints(means)
    theta = np.random.default_rng(5).uniform(-0.5, 1.5, (40, 2))
    got = points.log_mixture(noise)(theta)
    ref = np.mean([stats.multivariate_normal(m, cov).pdf(theta) for m in means], axis=0)
    np.testing.assert_allclose(np.exp(got), ref, rtol=1e-12)
    lo, hi = points.mean_range()
    assert np.array_equal(lo, means.min(axis=0)) and np.array_equal(hi, means.max(axis=0))
