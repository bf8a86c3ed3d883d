"""Property-based checks of the package-wide numerical contracts."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, linalg

from causalgeom import (
    ConstantIsotropic,
    Domain,
    MonteCarloSpec,
    UniformBox,
    causal_eigenvalues,
    constant_metric,
    dimmer_model,
    ei_exact_mc,
    ei_exact_quadrature,
    ei_geometric,
    linear_profile,
    mismatch_at,
    pullback_field,
    reparameterize,
    antidiagonal_submanifold,
)
from causalgeom.ei import FLAG_NOT_CONVERGED
from reference import invert_uniform_prior

UNIT = Domain(((0.0, 1.0),))


def spd_from(draw_values, d: int, scale: float = 1.0) -> np.ndarray:
    a = np.asarray(draw_values, dtype=float).reshape(d, d)
    return scale * (a @ a.T) + 0.05 * np.eye(d)


finite = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)


@given(st.lists(finite, min_size=4, max_size=4), st.lists(finite, min_size=4, max_size=4))
@settings(max_examples=200, deadline=None)
def test_mismatch_matches_pencil_eigenvalues(g_vals, h_vals):
    """l = 0.5 sum ln(1 + 1/lambda) for the (g, h) generalized spectrum."""
    g_mat = spd_from(g_vals, 2)
    h_mat = spd_from(h_vals, 2)
    lam = linalg.eigh(g_mat, h_mat, eigvals_only=True)
    ref = 0.5 * float(np.sum(np.log1p(1.0 / lam)))
    assert abs(mismatch_at(g_mat, h_mat) - ref) < 1e-10


@given(st.lists(finite, min_size=4, max_size=4))
@settings(max_examples=100, deadline=None)
def test_metric_symmetry(vals):
    m = constant_metric(spd_from(vals, 2))
    mat = m(np.zeros(2))
    assert np.max(np.abs(mat - mat.T)) < 1e-12


@given(
    st.lists(finite, min_size=4, max_size=4),
    st.lists(finite, min_size=4, max_size=4),
    st.floats(0.1, 5.0),
    st.floats(0.05, 0.95),
)
@settings(max_examples=100, deadline=None)
def test_pullback_linearity(v1, v2, alpha, sigma):
    m1 = constant_metric(spd_from(v1, 2))
    m2 = constant_metric(spd_from(v2, 2))
    combo = constant_metric(alpha * m1(np.zeros(2)) + m2(np.zeros(2)))
    sub = antidiagonal_submanifold()
    lhs = pullback_field(combo, sub)(sigma)
    rhs = alpha * pullback_field(m1, sub)(sigma) + pullback_field(m2, sub)(sigma)
    scale = max(1.0, float(np.max(np.abs(lhs))))
    assert np.max(np.abs(lhs - rhs)) < 1e-12 * scale


@given(
    st.lists(finite, min_size=4, max_size=4),
    st.lists(finite, min_size=4, max_size=4),
    st.lists(st.floats(-0.4, 0.4), min_size=4, max_size=4),
    st.lists(st.floats(-0.5, 0.5), min_size=2, max_size=2),
)
@settings(max_examples=100, deadline=None)
def test_pencil_spectrum_reparameterization_invariance(g_vals, h_vals, b_vals, point):
    g = constant_metric(spd_from(g_vals, 2))
    h = constant_metric(spd_from(h_vals, 2))
    b = np.asarray(b_vals).reshape(2, 2) + 1.5 * np.eye(2)

    def func(t):
        return b @ t + 0.1 * np.tanh(t)

    def jacobian(t):
        return b + 0.1 * np.diag(1.0 / np.cosh(t) ** 2)

    theta_new = np.asarray(point, dtype=float)
    theta = func(theta_new)
    before = causal_eigenvalues(g, h, theta)
    after = causal_eigenvalues(reparameterize(g, func, jacobian), reparameterize(h, func, jacobian), theta_new)
    np.testing.assert_allclose(after, before, rtol=1e-8)


@given(st.floats(0.05, 0.6), st.floats(0.05, 0.6))
@settings(max_examples=25, deadline=None)
def test_geometric_report_decomposition(eps, delta):
    model = dimmer_model(linear_profile(), eps, delta)
    report = ei_geometric(model.g, model.h, model.x_set.domain)
    assert report.nats == report.volume_term - report.mean_mismatch


@given(st.floats(0.04, 0.7))
@settings(max_examples=5, deadline=None)
def test_grid_doubling_convergence(scale):
    """The built-in convergence check (a doubled-node second pass) stays
    below 1e-3 nats on the dimmer across its noise range."""
    model = dimmer_model(linear_profile(), scale, scale)
    report = ei_exact_quadrature(model.x_set, model.noise_xt, model.ch_ty)
    assert FLAG_NOT_CONVERGED not in report.flags


@given(st.integers(0, 2**31 - 1))
@settings(max_examples=10, deadline=None)
def test_mc_byte_determinism(seed):
    model = dimmer_model(linear_profile(), 0.4, 0.4)
    spec = MonteCarloSpec(outer_samples=160, inner_samples=8, seed=seed, batches=8)
    a = ei_exact_mc(model.x_set, model.noise_xt, model.ch_ty, spec)
    b = ei_exact_mc(model.x_set, model.noise_xt, model.ch_ty, spec)
    assert a == b


@given(st.floats(0.02, 0.3), st.floats(0.1, 0.9))
@settings(max_examples=10, deadline=None)
def test_inverted_channel_normalization(delta, theta):
    inv = invert_uniform_prior(ConstantIsotropic(delta), UniformBox(UNIT))
    total, _ = integrate.quad(lambda x: inv.density(x, theta), 0.0, 1.0, limit=200)
    assert total == pytest.approx(1.0, abs=1e-6)
