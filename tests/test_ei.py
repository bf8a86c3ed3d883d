"""Exact (quadrature and Monte Carlo) and geometric effective information."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import integrate
from scipy.special import log_ndtr, ndtr

from causalgeom import (
    ConstantIsotropic,
    DegenerateModelError,
    DiagonalStateDependent,
    DiscretePoints,
    Domain,
    FullConstant,
    GaussianChannel,
    InvalidConfigError,
    MonteCarloSpec,
    QuadratureSpec,
    UseMonteCarloError,
    binary_switch_model,
    constant_metric,
    dimmer_family,
    dimmer_model,
    effect_distribution,
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
from causalgeom._quadrature import GRADING, gauss_legendre, graded_gauss_legendre, nodes_weights
from causalgeom.channels import gaussian_log_density
from causalgeom.ei import (
    FLAG_NEGATIVE_GEOMETRIC,
    FLAG_NOT_CONVERGED,
    _effect_windows,
    _ScalarChain,
    _field_grid,
    _sd,
)

LN2 = math.log(2.0)


def quad_ei(model, **kw):
    return ei_exact_quadrature(model.x_set, model.ch_xt, model.ch_ty, **kw)


def test_spec_validation():
    with pytest.raises(InvalidConfigError):
        MonteCarloSpec(seed=-1)
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

    def geometric(profile):
        model = dimmer_model(profile, noise, delta)
        return ei_geometric(model.g, model.h, model.theta_domain)

    best = geometric(weber_optimal_profile(0.1))
    base = geometric(linear_profile())
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
    model = dimmer_model(linear_profile(), eps, delta)
    report = ei_geometric(model.g, model.h, model.theta_domain)
    expected = -0.5 * math.log(2 * math.pi * math.e * (eps**2 + delta**2))
    assert report.nats == pytest.approx(expected, rel=1e-10)


def test_geometric_midpoint_grid_avoids_singular_center():
    """The two-species effect metric is rank-1 on the diagonal; the staggered
    midpoint grid must keep every node off it so EI_g stays finite."""
    model = two_species_model(TwoSpeciesConfig(epsilon=0.01, delta=0.01))
    report = ei_geometric(model.g, model.h, model.theta_domain)
    assert math.isfinite(report.nats)


def test_field_grid_is_built_once_per_grid_and_read_only():
    """Equal boxes share one read-only node array; another count is another grid."""
    pts, cell = _field_grid(Domain(((0.0, 1.0), (0.0, 2.0))), 11)
    again, cell_again = _field_grid(Domain(((0.0, 1.0), (0.0, 2.0))), 11)
    assert again is pts and cell_again == cell
    assert pts.shape == (11 * 12, 2) and not pts.flags.writeable
    with pytest.raises(ValueError):
        pts[0, 0] = 0.5
    assert _field_grid(Domain(((0.0, 1.0), (0.0, 2.0))), 12)[0].shape == (12 * 13, 2)


def test_geometric_rejects_indefinite_intervention_metric_with_positive_determinant():
    """det(diag(-1, -1)) > 0, but h is no metric: its Cholesky factor fails."""
    square = Domain(((0.0, 1.0), (0.0, 1.0)))
    g = constant_metric(np.diag([10.0, 10.0]), 2)
    h = constant_metric(np.diag([-1.0, -1.0]), 2)
    with pytest.raises(DegenerateModelError, match=r"intervention metric .* at \["):
        ei_geometric(g, h, square)


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
    mus, sigs, _ = chain.components(QuadratureSpec())
    per_point = [chain.conditional_density(y, mu, sig) for mu, sig in zip(mus, sigs)]
    assert chain.averaged_density(y) == pytest.approx(np.mean(per_point, axis=0), rel=1e-12)


def test_box_quadrature_refuses_state_dependent_intervention_noise():
    """The box mixture integrates one Gaussian kernel over the box, so an
    intervention sigma that varies with the state has no closed form there.
    A discrete set still uses each point's own sigma."""
    model = dimmer_model(linear_profile(), 0.03, 0.03)
    ch_xt = dataclasses.replace(model.ch_xt, noise=DiagonalStateDependent(lambda t: 0.02 + 0.1 * t))
    with pytest.raises(UseMonteCarloError):
        ei_exact_quadrature(model.x_set, ch_xt, model.ch_ty)
    with pytest.raises(UseMonteCarloError):
        effect_distribution(model.x_set, ch_xt, model.ch_ty)
    with pytest.raises(UseMonteCarloError):
        ei_exact_mc(model.x_set, ch_xt, model.ch_ty)
    points = DiscretePoints(np.array([[0.0], [1.0]]))
    report = ei_exact_quadrature(points, ch_xt, model.ch_ty, check_convergence=False)
    assert 0.0 < report.nats <= math.log(2.0)


def kernel_nodes(chain, spec, refine=1):
    """Effect nodes (m, k) of one kl_all pass and their KL weights sd * p."""
    nodes = refine * spec.nodes_per_axis
    mu, sig, _ = chain.components(spec, refine)
    f0, cov = chain.predicted_moments_batch(mu, sig)
    sd = np.sqrt(cov[:, 0, 0])
    u, w = nodes_weights(spec.rule, -spec.effect_tail_sigmas, spec.effect_tail_sigmas, nodes)
    y = f0 + sd[:, None] * u
    p = chain.conditional_density(y.reshape(-1, 1), np.repeat(mu, nodes), np.repeat(sig, nodes))
    return y, sd[:, None] * p.reshape(y.shape), w


def test_effect_windows_merge_overlapping_envelopes():
    y = np.array([[3.5, 3.6], [0.0, 1.0], [10.0, 11.0], [0.5, 2.0], [3.0, 4.0], [2.0, 2.5]])
    lo, hi = _effect_windows(y)
    assert lo.tolist() == [0.0, 3.0, 10.0] and hi.tolist() == [2.5, 4.0, 11.0]
    # the switch's two effect clusters stay apart at small noise
    model = binary_switch_model(1e-3, 1e-3)
    chain = _ScalarChain(model.ch_xt, model.ch_ty, model.x_set)
    y, _, _ = kernel_nodes(chain, QuadratureSpec())
    lo, hi = _effect_windows(y)
    assert lo.size == 2 and hi[0] < 0.5 < lo[1]


GRID_CASES = {
    "family-a-5": (dimmer_family(-5.0, 0.03, 0.03), QuadratureSpec()),
    "family-a0": (dimmer_family(0.0, 0.03, 0.03), QuadratureSpec()),
    "family-a5": (dimmer_family(5.0, 0.03, 0.03), QuadratureSpec()),
    "linear-1e-3": (dimmer_model(linear_profile(), 1e-3, 1e-3), QuadratureSpec()),
    # two disjoint windows, with enough nodes that the grids cost less
    "switch-1e-3": (
        binary_switch_model(1e-3, 1e-3),
        QuadratureSpec(nodes_per_axis=5001, rule="trapezoid"),
    ),
    "state-dependent": (
        dimmer_model(linear_profile(), DiagonalStateDependent(lambda y: 0.02 + 0.05 * y), 0.03),
        QuadratureSpec(),
    ),
}


@pytest.mark.parametrize(
    "model, spec",
    [
        *GRID_CASES.values(),
        # near its floor Weber noise is 3e-5 wide, about the grid spacing
        # there, so the error bound sends many nodes to direct evaluation
        (dimmer_model(weber_optimal_profile(0.1), weber_noise(0.03), 0.003), QuadratureSpec()),
    ],
    ids=[*GRID_CASES, "weber"],
)
def test_shared_grid_log_density_matches_direct_evaluation(model, spec, monkeypatch):
    chain = _ScalarChain(model.ch_xt, model.ch_ty, model.x_set)
    y, weight, w = kernel_nodes(chain, spec)
    direct = np.log(chain.averaged_density(y.reshape(-1, 1))).reshape(y.shape)
    rows = []
    averaged = chain.averaged_density
    monkeypatch.setattr(chain, "averaged_density", lambda ys: rows.append(len(ys)) or averaged(ys))
    got = chain.log_averaged_density(y, weight)
    assert sum(rows) < y.size / 2  # the grids serve most nodes
    bulk = weight >= 1e-3
    assert np.max(np.abs(got - direct)[bulk]) <= 1e-9
    # what each intervention's KL moves by
    assert np.max(np.abs((weight * (got - direct)) @ w)) <= 1e-10


@pytest.mark.parametrize("model, spec", GRID_CASES.values(), ids=list(GRID_CASES))
def test_averaged_density_slope_matches_central_difference(model, spec):
    """A difference of quadrature values also carries the motion of the
    y-dependent breakpoints; on family a=-5 that differs from de/dy by 5e-6
    of e/sigma, while de/dy and e both match a dense integral to 6e-8."""
    chain = _ScalarChain(model.ch_xt, model.ch_ty, model.x_set)
    y, weight, _ = kernel_nodes(chain, spec)
    y = y[weight >= 1e-3][:, None]
    sigma = _sd(chain.ch_ty.noise, y)
    h = 1e-4 * sigma[:, None]
    e, de, _ = chain._averaged(y)
    central = (chain.averaged_density(y + h) - chain.averaged_density(y - h)) / (2.0 * h[:, 0])
    assert np.max(np.abs(de - central) * sigma / e) <= 1e-5


@pytest.mark.parametrize("model, spec", GRID_CASES.values(), ids=list(GRID_CASES))
def test_averaged_density_curvature_matches_central_difference(model, spec):
    """d2e/dy2 against a central difference of de/dy; as for the slope, the
    difference also carries the motion of the breakpoints (worst measured
    1.6e-5 of e/sigma^2, on family a = +-5)."""
    chain = _ScalarChain(model.ch_xt, model.ch_ty, model.x_set)
    y, weight, _ = kernel_nodes(chain, spec)
    y = y[weight >= 1e-3][:, None]
    sigma = _sd(chain.ch_ty.noise, y)
    h = 1e-4 * sigma[:, None]
    e, _, d2e = chain._averaged(y)
    central = (chain._averaged(y + h)[1] - chain._averaged(y - h)[1]) / (2.0 * h[:, 0])
    assert np.max(np.abs(d2e - central) * sigma**2 / e) <= 5e-5


@pytest.mark.parametrize("a, share", [(-3.25, 0.01), (0.25, 0.01), (2.0, 0.01), (-5.0, 0.05)])
def test_effect_grid_serves_nearly_every_node(a, share, monkeypatch):
    """Quintic steps clear EFFECT_TOL almost everywhere on fig1b's family
    (measured 0, 0, 0 and 3.3% of nodes evaluated directly; cubic steps
    sent 11-20% there)."""
    model = dimmer_family(a, 0.03, 0.03)
    chain = _ScalarChain(model.ch_xt, model.ch_ty, model.x_set)
    y, weight, _ = kernel_nodes(chain, QuadratureSpec())
    rows = []
    averaged = chain.averaged_density
    monkeypatch.setattr(chain, "averaged_density", lambda ys: rows.append(len(ys)) or averaged(ys))
    chain.log_averaged_density(y, weight)
    assert sum(rows) <= share * y.size


def test_fragmented_rows_take_the_grid_path_within_effect_grid(monkeypatch):
    """Graded outer rows of the linear dimmer at 1e-3 leave gaps between
    their effect envelopes, in both passes; the windows then share
    EFFECT_GRID points in one grid evaluation instead of falling back to
    direct evaluation at every node (the bounds are those of the shared-grid
    test, which runs this chain too)."""
    model = dimmer_model(linear_profile(), 1e-3, 1e-3)
    chain = _ScalarChain(model.ch_xt, model.ch_ty, model.x_set)
    for refine in (1, 2):
        y, weight, w = kernel_nodes(chain, QuadratureSpec(), refine)
        assert _effect_windows(y)[0].size > 1
        direct = np.log(chain.averaged_density(y.reshape(-1, 1))).reshape(y.shape)
        grids, averaged = [], chain._averaged
        monkeypatch.setattr(chain, "_averaged", lambda ys: grids.append(len(ys)) or averaged(ys))
        got = chain.log_averaged_density(y, weight)
        monkeypatch.undo()
        # the first evaluation is the grids', the rest are direct
        assert grids[0] <= chain.EFFECT_GRID and sum(grids[1:]) < y.size / 10
        assert np.max(np.abs(got - direct)[weight >= 1e-3]) <= 1e-9
        assert np.max(np.abs((weight * (got - direct)) @ w)) <= 1e-10


def test_one_window_keeps_the_whole_effect_grid(monkeypatch):
    model = dimmer_family(0.0, 0.03, 0.03)
    chain = _ScalarChain(model.ch_xt, model.ch_ty, model.x_set)
    y, weight, _ = kernel_nodes(chain, QuadratureSpec())
    assert _effect_windows(y)[0].size == 1
    grids, averaged = [], chain._averaged
    monkeypatch.setattr(chain, "_averaged", lambda ys: grids.append(len(ys)) or averaged(ys))
    chain.log_averaged_density(y, weight)
    assert grids == [chain.EFFECT_GRID]


def test_window_sizes_share_the_effect_grid_by_rows():
    model = dimmer_family(0.0, 0.03, 0.03)
    chain = _ScalarChain(model.ch_xt, model.ch_ty, model.x_set)
    grid, floor = chain.EFFECT_GRID, chain.WINDOW_FLOOR
    assert chain.window_sizes(np.array([7])).tolist() == [grid]
    for rows in ([60, 1, 1, 1, 60], [1, 2], [3] * 12, [1] * 121, [5, 400, 2, 9]):
        sizes = chain.window_sizes(np.array(rows))
        assert np.all(sizes % 2 == 1) and grid - 1 <= np.sum(sizes) <= grid
        share = (grid - len(rows) * floor) * np.array(rows) / np.sum(rows)
        assert np.all(np.abs(sizes - floor - share) <= 2.0)


OUTER_CASES = {
    **{f"family-a{a:g}": dimmer_family(a, 0.03, 0.03) for a in (-5.0, -2.0, 0.0, 2.0, 5.0)},
    "linear-1e-3": dimmer_model(linear_profile(), 1e-3, 1e-3),
    "linear-1e-2": dimmer_model(linear_profile(), 1e-2, 1e-2),
}


def uniform_outer_ei(chain, nodes, spec=QuadratureSpec()):
    """EI with a uniform Gauss-Legendre outer rule and the production effect axis."""
    (lo, hi), = chain.x_set.domain.axes
    x, wx = gauss_legendre(lo, hi, nodes)
    mus = chain.ch_xt.mean(x[:, None])
    kl = chain.kl_all(mus[:, 0], _sd(chain.ch_xt.noise, mus), spec, spec.nodes_per_axis)
    return (wx / chain.x_set.domain.volume) @ kl


@pytest.mark.parametrize("model", OUTER_CASES.values(), ids=list(OUTER_CASES))
def test_graded_outer_panels_match_a_uniform_401_node_rule(model):
    """12 nodes per graded panel (84-132 nodes) against uniform G401: measured
    worst 1.7e-12 nats, on a = +-5, where uniform G201 is itself 2e-12 off;
    8 nodes per panel miss by 2.9e-9 there."""
    chain = _ScalarChain(model.ch_xt, model.ch_ty, model.x_set)
    mu, sig, w = chain.components(QuadratureSpec())
    assert mu.size <= 132
    graded = w @ chain.kl_all(mu, sig, QuadratureSpec(), 201)
    assert abs(graded - uniform_outer_ei(chain, 401)) <= 5e-12


@pytest.mark.parametrize(
    "model",
    [
        *OUTER_CASES.values(),
        dimmer_model(power_profile(2.0), 1e-3, 1e-3),
        dimmer_model(weber_optimal_profile(0.1), weber_noise(0.03), 0.003),
    ],
    ids=[*OUTER_CASES, "square-1e-3", "weber"],
)
def test_graded_panels_tile_the_box(model):
    chain = _ScalarChain(model.ch_xt, model.ch_ty, model.x_set)
    (lo, hi), = model.x_set.domain.axes
    for n in (12, 24):
        x, w = graded_gauss_legendre(lo, hi, *chain.outer_layers, n)
        assert abs(np.sum(w) - (hi - lo)) <= 1e-15
        assert np.all((x > lo) & (x < hi)) and np.all(np.diff(x) > 0)


def test_weber_kink_is_an_outer_layer():
    """The per-intervention KL turns sharply where Weber noise meets its
    floor; graded around that kink the outer rule matches uniform G1601 to
    1.1e-9 nats (edge layers alone: 2.5e-5, uniform G201: 4.6e-7)."""
    model = dimmer_model(weber_optimal_profile(0.1), weber_noise(0.03), 0.003)
    chain = _ScalarChain(model.ch_xt, model.ch_ty, model.x_set)
    kink = chain.invert_effect(np.asarray(model.ch_ty.noise.kinks))
    assert kink[0] in chain.outer_layers[0]
    mu, sig, w = chain.components(QuadratureSpec())
    graded = w @ chain.kl_all(mu, sig, QuadratureSpec(), 201)
    assert abs(graded - uniform_outer_ei(chain, 1601)) <= 1e-8


def test_flat_edge_is_graded_from_the_intervention_noise():
    """f = theta^2 has f' = 0 at theta = 0: the edge noise is infinite there,
    with no division warning, so the first-order ladder puts no breakpoint
    at that edge (2.8e-3 nats off at 1e-3). Instead the edge is graded from
    sigma_q across the box; measured 6e-11 nats from uniform G1601, which
    uniform G401 misses by 8e-10."""
    model = dimmer_model(power_profile(2.0), 1e-3, 1e-3)
    with np.errstate(all="raise"):
        chain = _ScalarChain(model.ch_xt, model.ch_ty, model.x_set)
    assert chain.edge_noise(np.array([0.0]))[0] == np.inf
    centres, widths = chain.outer_layers
    flat = widths[centres == 0.0]
    ladder = flat[:, None] * np.asarray(GRADING)
    assert flat[0] == pytest.approx(1e-3) and np.all(np.diff(flat) > 0) and ladder.max() >= 1.0
    mu, sig, w = chain.components(QuadratureSpec())
    graded = w @ chain.kl_all(mu, sig, QuadratureSpec(), 201)
    assert abs(graded - uniform_outer_ei(chain, 401)) <= 5e-9


def test_doubled_pass_doubles_the_panel_and_effect_nodes(monkeypatch):
    model = dimmer_family(1.0, 0.03, 0.03)
    passes = []
    kl_all = _ScalarChain.kl_all

    def recording(self, mu_q, sig_q, spec, nodes):
        passes.append((mu_q.size, nodes))
        return kl_all(self, mu_q, sig_q, spec, nodes)

    monkeypatch.setattr(_ScalarChain, "kl_all", recording)
    report = quad_ei(model)
    (outer, effect), (outer2, effect2) = passes
    assert outer % _ScalarChain.PANEL_NODES == 0 and (outer2, effect2) == (2 * outer, 2 * effect)
    assert effect == 201 and f"{outer} outer nodes" in report.grid_or_samples
    assert "12 per graded panel" in report.grid_or_samples


@pytest.mark.parametrize(
    "model",
    [
        dimmer_family(-5.0, 0.03, 0.03),
        dimmer_family(5.0, 0.03, 0.03),
        dimmer_model(linear_profile(), 1e-3, 1e-3),
        dimmer_model(weber_optimal_profile(0.1), weber_noise(0.03), 0.003),
    ],
    ids=["family-a-5", "family-a5", "linear", "weber"],
)
def test_tabulated_inverse_matches_bisection(model):
    chain = _ScalarChain(model.ch_xt, model.ch_ty, model.x_set)
    f_lo, f_hi = chain.f(np.array([chain.ext_lo, chain.ext_hi]))[:, 0]
    reach = f_hi - f_lo
    targets = np.linspace(f_lo - 0.1 * reach, f_hi + 0.1 * reach, 20001)
    lo = np.full(targets.shape, chain.ext_lo)
    hi = np.full(targets.shape, chain.ext_hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        up = (chain.f(mid)[:, 0] < targets) == (f_hi > f_lo)
        lo, hi = np.where(up, mid, lo), np.where(up, hi, mid)
    got = chain.invert_effect(targets)
    # measured worst 1.1e-14 of the range, on the plateau of a = -5
    assert np.max(np.abs(got - 0.5 * (lo + hi))) <= 1e-13 * (chain.ext_hi - chain.ext_lo)
    beyond = (targets < min(f_lo, f_hi)) | (targets > max(f_lo, f_hi))
    ends = np.where((targets < f_lo) == (f_hi > f_lo), chain.ext_lo, chain.ext_hi)
    assert np.all(got[beyond] == ends[beyond])


def test_weber_kink_is_a_breakpoint():
    """sigma = eps0 * max(f, floor) has a kink where f meets the floor; with a
    breakpoint there e matches a dense trapezoid integral where the
    conditional density is live (y = 1e-3; 1.7e-5 off without it). At
    y = -9e-5 what is left is the mixture shoulder at theta = 0 under a flat
    likelihood, which the segment rule does not resolve."""
    model = dimmer_model(weber_optimal_profile(0.1), weber_noise(0.03), 0.003)
    chain = _ScalarChain(model.ch_xt, model.ch_ty, model.x_set)
    y = np.array([[1e-3], [-9e-5]])
    theta = np.linspace(chain.ext_lo, chain.ext_hi, 2_000_001)
    mix = np.exp(chain.log_mix(theta[:, None]))
    f_val = chain.f(theta)
    dense = [
        integrate.trapezoid(mix * np.exp(gaussian_log_density(chain.ch_ty.noise, yy, f_val)), theta)
        for yy in y
    ]
    rel = np.abs(chain.averaged_density(y) / dense - 1.0)
    assert rel[0] <= 1e-10 and rel[1] <= 5e-5


# relative residual of the rate check per sigma: measured 4.2e-8, 1.3e-12
# and 3.2e-11 (the last is the quadrature's own error, amplified by 1/sigma)
RATE_REL = {0.1: 1e-7, 0.01: 1e-11, 0.001: 1e-10}


@pytest.mark.parametrize("sigma", list(RATE_REL))
def test_exact_minus_geometric_is_first_order_in_the_noise(sigma):
    """Clarke-Barron asymptotics: for the linear dimmer with eps = delta =
    sigma the geometric estimate misses only the box's boundary layer, so
    (exact - geometric) / sigma holds at 2 sqrt(2) c over three decades, with
    c = integral of -Phi(z) ln Phi(z) = 0.9031972856: the entropy the
    Gaussian blur adds at each edge of the box."""
    c, _ = integrate.quad(lambda z: -ndtr(z) * log_ndtr(z), -np.inf, np.inf, epsabs=1e-14, epsrel=1e-13)
    model = dimmer_model(linear_profile(), sigma, sigma)
    exact = quad_ei(model, check_convergence=False)
    geom = ei_geometric(model.g, model.h, model.theta_domain)
    assert (exact.nats - geom.nats) / sigma == pytest.approx(2.0 * math.sqrt(2.0) * c, rel=RATE_REL[sigma])
