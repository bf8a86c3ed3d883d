"""Exact (quadrature and Monte Carlo) and geometric effective information."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate

from causalgeom import (
    ConstantIsotropic,
    Domain,
    FullConstant,
    GaussianChannel,
    InvalidConfigError,
    MonteCarloSpec,
    QuadratureSpec,
    UseMonteCarloError,
    binary_switch_model,
    dimmer_model,
    effect_distribution,
    ei_dimmer_approx,
    ei_exact_mc,
    ei_exact_quadrature,
    ei_geometric,
    linear_profile,
    power_profile,
    two_species_model,
    weber_noise,
    weber_optimal_profile,
    TwoSpeciesConfig,
    UniformBox,
)
from causalgeom.ei import FLAG_NEGATIVE_GEOMETRIC, FLAG_NOT_CONVERGED, _ScalarChain

LN2 = math.log(2.0)


def quad_ei(model, **kw):
    return ei_exact_quadrature(model.x_set, model.ch_xt, model.ch_ty, **kw)


def test_spec_validation():
    with pytest.raises(InvalidConfigError):
        QuadratureSpec(nodes_per_axis=5)
    with pytest.raises(InvalidConfigError):
        QuadratureSpec(rule="simpson")
    with pytest.raises(InvalidConfigError):
        MonteCarloSpec(inner_samples=1)
    with pytest.raises(InvalidConfigError):
        MonteCarloSpec(batches=4)


def test_quadrature_matches_interior_closed_form_at_small_noise():
    # With both scales small the box edges contribute little and EI approaches
    # log L - 0.5 log(2 pi e (eps^2 + delta^2)) for the linear response.
    eps = delta = 1e-3
    model = dimmer_model(linear_profile(), eps, delta)
    report = quad_ei(model, check_convergence=False)
    anchor = -0.5 * math.log(2 * math.pi * math.e * (eps**2 + delta**2))
    assert report.nats == pytest.approx(anchor, rel=2e-3)
    assert report.bits == pytest.approx(report.nats / LN2, rel=1e-15)


def test_quadrature_agrees_with_closed_form_linear_chain():
    """For the linear chain the marginal over the parameter is exactly
    Gaussian, N(y; x, eps^2 + delta^2), and the intervention-averaged density
    is a difference of normal CDFs. Nesting scipy.quad over that closed form
    gives an implementation-independent value."""
    from scipy.stats import norm

    eps = delta = 0.25
    s = math.sqrt(eps**2 + delta**2)
    model = dimmer_model(linear_profile(), eps, delta)

    def e_avg(y):
        if y > 0.5:
            return norm.sf((y - 1.0) / s) - norm.sf(y / s)
        return norm.cdf(y / s) - norm.cdf((y - 1.0) / s)

    def kl_at(x):
        def integrand(y):
            p = norm.pdf(y, loc=x, scale=s)
            if p < 1e-300:
                return 0.0
            return p * (math.log(p) - math.log(e_avg(y)))

        val, _ = integrate.quad(integrand, x - 10 * s, x + 10 * s, limit=200)
        return val

    reference, err = integrate.quad(kl_at, 0.0, 1.0, limit=100)
    assert err < 1e-7

    report = quad_ei(model, check_convergence=False)
    assert report.nats == pytest.approx(reference, abs=1e-4)


def test_profile_ranking_quadratic_below_linear():
    eps = delta = 0.03
    lin = quad_ei(dimmer_model(linear_profile(), eps, delta), check_convergence=False)
    sq = quad_ei(dimmer_model(power_profile(2.0), eps, delta), check_convergence=False)
    assert sq.nats < lin.nats


def test_weber_profile_beats_linear_under_weber_noise():
    noise = weber_noise(0.03)
    delta = 0.003
    best = ei_dimmer_approx(weber_optimal_profile(0.1), lambda y: noise(y), delta)
    base = ei_dimmer_approx(linear_profile(), lambda y: noise(y), delta)
    assert best.nats > base.nats


def test_nonnegativity_at_large_noise():
    # EI is a mutual information; the exact estimators stay >= 0 up to
    # integration tolerance even where the geometric value goes negative.
    model = dimmer_model(linear_profile(), 0.7, 0.7)
    exact = quad_ei(model, check_convergence=False)
    assert exact.nats >= -3e-3
    geom = ei_geometric(model.g, model.h, model.theta_domain)
    assert geom.nats < 0.0
    assert FLAG_NEGATIVE_GEOMETRIC in geom.flags


def test_geometric_report_decomposition_is_exact():
    model = dimmer_model(linear_profile(), 0.05, 0.05)
    report = ei_geometric(model.g, model.h, model.theta_domain)
    assert report.nats == report.volume_term - report.mean_mismatch


def test_quadrature_convergence_flag_clean_on_defaults():
    model = dimmer_model(linear_profile(), 0.1, 0.1)
    report = quad_ei(model)
    assert FLAG_NOT_CONVERGED not in report.flags


def test_oracle_equivalence_exact_vs_geometric_small_noise():
    """At eps = delta = 1e-2 with a flat profile the two routes agree to 5%."""
    model = dimmer_model(linear_profile(), 1e-2, 1e-2)
    exact = quad_ei(model, check_convergence=False)
    geom = ei_geometric(model.g, model.h, model.theta_domain)
    assert abs(exact.nats - geom.nats) <= 0.05 * abs(exact.nats)


def test_effect_distribution_normalizes():
    model = dimmer_model(linear_profile(), 0.08, 0.05)
    est = effect_distribution(model.x_set, model.ch_xt, model.ch_ty)
    assert est.integral() == pytest.approx(1.0, abs=1e-6)


def test_effect_distribution_discrete_mixture_closed_form():
    eps = delta = 0.05
    model = binary_switch_model(eps, delta)
    est = effect_distribution(model.x_set, model.ch_xt, model.ch_ty)
    s2 = eps**2 + delta**2
    for y in (-0.1, 0.2, 0.5, 1.05):
        ref = 0.5 * sum(
            math.exp(-0.5 * (y - m) ** 2 / s2) / math.sqrt(2 * math.pi * s2) for m in (0.0, 1.0)
        )
        # the parameter-side truncation to [0, 1] perturbs the mixture only
        # through the tails, invisible at this noise level
        assert est(y) == pytest.approx(ref, rel=1e-4)


def test_quadrature_refuses_high_dimensional_chains():
    model = two_species_model(TwoSpeciesConfig(epsilon=0.01, delta=0.01))
    with pytest.raises(UseMonteCarloError):
        quad_ei(model)


def test_mc_is_deterministic_given_seed():
    model = dimmer_model(linear_profile(), 0.3, 0.3)
    spec = MonteCarloSpec(outer_samples=400, inner_samples=16, seed=9, batches=8)
    a = ei_exact_mc(model.x_set, model.ch_xt, model.ch_ty, spec)
    b = ei_exact_mc(model.x_set, model.ch_xt, model.ch_ty, spec)
    assert a == b
    c = ei_exact_mc(model.x_set, model.ch_xt, model.ch_ty, dataclasses.replace(spec, seed=10))
    assert c.nats != a.nats


def test_mc_agrees_with_quadrature():
    model = dimmer_model(linear_profile(), 0.1, 0.1)
    exact = quad_ei(model, check_convergence=False)
    spec = MonteCarloSpec(outer_samples=4000, inner_samples=64, seed=0, batches=16)
    mc = ei_exact_mc(model.x_set, model.ch_xt, model.ch_ty, spec)
    assert mc.stderr is not None and mc.stderr > 0
    assert abs(mc.nats - exact.nats) <= 3.5 * mc.stderr + 1e-3


def test_mc_on_discrete_interventions():
    model = binary_switch_model(0.2, 0.2)
    exact = quad_ei(model, check_convergence=False)
    spec = MonteCarloSpec(outer_samples=4000, inner_samples=64, seed=1, batches=16)
    mc = ei_exact_mc(model.x_set, model.ch_xt, model.ch_ty, spec)
    assert abs(mc.nats - exact.nats) <= 3.5 * mc.stderr + 1e-3


def test_dimmer_approx_closed_form_value():
    eps = delta = 0.03
    report = ei_dimmer_approx(linear_profile(), eps, delta)
    expected = -0.5 * math.log(2 * math.pi * math.e * (eps**2 + delta**2))
    assert report.nats == pytest.approx(expected, rel=1e-10)


def test_geometric_midpoint_grid_avoids_singular_center():
    """The two-species effect metric is rank-1 on the diagonal; the staggered
    midpoint grid must keep every node off it so EI_g stays finite."""
    model = two_species_model(TwoSpeciesConfig(epsilon=0.01, delta=0.01))
    report = ei_geometric(model.g, model.h, model.theta_domain)
    assert math.isfinite(report.nats)


def test_quadrature_refuses_curve_valued_effects_and_mc_takes_them():
    unit = Domain(((0.0, 1.0),))
    ch_xt = GaussianChannel(
        mean_map=lambda x: np.asarray(x, dtype=float),
        noise=ConstantIsotropic(0.1),
        input_domain=unit,
        output_domain=unit,
        mean_is_identity=True,
    )
    ch_ty = GaussianChannel(
        mean_map=lambda t: np.concatenate([t, t**2], axis=-1),
        noise=ConstantIsotropic(0.1),
        input_domain=unit,
        output_domain=Domain(((0.0, 1.0), (0.0, 1.0))),
    )
    x_set = UniformBox(unit)
    with pytest.raises(UseMonteCarloError):
        ei_exact_quadrature(x_set, ch_xt, ch_ty)
    with pytest.raises(UseMonteCarloError):
        effect_distribution(x_set, ch_xt, ch_ty)
    spec = MonteCarloSpec(outer_samples=400, inner_samples=16, seed=0, batches=8)
    report = ei_exact_mc(x_set, ch_xt, ch_ty, spec)
    assert math.isfinite(report.nats) and report.nats > 0.0


def test_one_by_one_full_effect_noise_matches_isotropic():
    model = dimmer_model(linear_profile(), 0.1, 0.1)
    full = dataclasses.replace(model.ch_ty, noise=FullConstant(np.array([[0.1**2]])))
    iso = quad_ei(model, check_convergence=False)
    got = ei_exact_quadrature(model.x_set, model.ch_xt, full, check_convergence=False)
    assert got.nats == pytest.approx(iso.nats, abs=1e-12)


def test_discrete_averaged_density_is_the_mean_of_the_conditionals():
    model = binary_switch_model(0.05, 0.05)
    chain = _ScalarChain(model.ch_xt, model.ch_ty, model.x_set)
    y = np.array([[-0.1], [0.2], [0.5], [1.05]])
    mus, sigs = chain.q_params_batch(model.x_set.points)
    per_point = [chain.conditional_density(y, mu, sig) for mu, sig in zip(mus, sigs)]
    assert chain.averaged_density(y) == pytest.approx(np.mean(per_point, axis=0), rel=1e-12)


@pytest.mark.parametrize("sigma", [0.1, 0.01, 0.001])
def test_exact_minus_geometric_is_first_order_in_the_noise(sigma):
    """Clarke-Barron asymptotics: for the linear dimmer with eps = delta =
    sigma the geometric estimate misses only the box's boundary layer, so
    (exact - geometric) / sigma holds at 2.5546 over three decades."""
    model = dimmer_model(linear_profile(), sigma, sigma)
    exact = quad_ei(model, check_convergence=False)
    geom = ei_geometric(model.g, model.h, model.theta_domain)
    assert (exact.nats - geom.nats) / sigma == pytest.approx(2.5546, rel=0.01)
