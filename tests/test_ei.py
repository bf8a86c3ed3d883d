"""Exact (quadrature and Monte Carlo) and geometric effective information."""

import dataclasses
import math
import tracemalloc

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
    coarse_grained_ei,
    constant_metric,
    diagonal_submanifold,
    dimmer_family,
    dimmer_model,
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
from causalgeom._quadrature import GRADING, gauss_legendre, graded_gauss_legendre
from causalgeom import ei
from causalgeom.channels import gaussian_log_density
from causalgeom.ei import (
    FLAG_NEGATIVE_GEOMETRIC,
    FLAG_NOT_CONVERGED,
    _EFFECT_TAIL_SIGMAS,
    _effect_windows,
    _ScalarChain,
    _field_mesh,
    _sd,
)

LN2 = math.log(2.0)


def quad_ei(model, **kw):
    return ei_exact_quadrature(model.x_set, model.noise_xt, model.ch_ty, **kw)


def test_spec_validation():
    with pytest.raises(InvalidConfigError):
        MonteCarloSpec(seed=-1)
    with pytest.raises(InvalidConfigError):
        QuadratureSpec(nodes_per_axis=5)
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
    eps, delta = 0.08, 0.05
    model = dimmer_model(linear_profile(), eps, delta)
    chain = _ScalarChain(model.noise_xt, model.ch_ty, model.x_set)
    # the unit box's effects, 8 combined sds beyond each edge
    reach = 8.0 * math.hypot(eps, delta)
    y, w = gauss_legendre(-reach, 1.0 + reach, 1001)
    assert w @ chain.averaged_density(y[:, None]) == pytest.approx(1.0, abs=1e-6)


def test_effect_distribution_discrete_mixture_closed_form():
    eps = delta = 0.05
    model = binary_switch_model(eps, delta)
    chain = _ScalarChain(model.noise_xt, model.ch_ty, model.x_set)
    s2 = eps**2 + delta**2
    for y in (-0.1, 0.2, 0.5, 1.05):
        ref = 0.5 * sum(
            math.exp(-0.5 * (y - m) ** 2 / s2) / math.sqrt(2 * math.pi * s2) for m in (0.0, 1.0)
        )
        # the parameter-side truncation to [0, 1] perturbs the mixture only
        # through the tails, invisible at this noise level
        assert chain.averaged_density(np.array([[y]]))[0] == pytest.approx(ref, rel=1e-4)


def test_quadrature_refuses_high_dimensional_chains():
    model = two_species_model(TwoSpeciesConfig(epsilon=0.01, delta=0.01))
    with pytest.raises(UseMonteCarloError):
        quad_ei(model)


def test_mc_is_deterministic_given_seed():
    model = dimmer_model(linear_profile(), 0.3, 0.3)
    spec = MonteCarloSpec(outer_samples=400, inner_samples=16, seed=9, batches=8)
    a = ei_exact_mc(model.x_set, model.noise_xt, model.ch_ty, spec)
    b = ei_exact_mc(model.x_set, model.noise_xt, model.ch_ty, spec)
    assert a == b
    c = ei_exact_mc(model.x_set, model.noise_xt, model.ch_ty, dataclasses.replace(spec, seed=10))
    assert c.nats != a.nats


@pytest.mark.parametrize(
    "matrix, nats",
    [
        # the diagonal box mixture
        (np.eye(2), 4.449873010942536),
        # the two-dimensional full-covariance box mixture
        ([[1.0, 0.8], [0.7, 1.0]], 4.05503925837147),
    ],
    ids=["diagonal", "full"],
)
def test_mc_two_species_is_pinned(matrix, nats):
    """The Monte Carlo estimate of the two-species chain at a fixed spec. Not
    bitwise: numpy releases differ in the last bits of its linear algebra."""
    model = two_species_model(TwoSpeciesConfig(epsilon=0.01, delta=0.01, matrix=np.asarray(matrix)))
    spec = MonteCarloSpec(outer_samples=800, inner_samples=64, batches=8, seed=0)
    report = ei_exact_mc(model.x_set, model.noise_xt, model.ch_ty, spec)
    assert report.nats == pytest.approx(nats, rel=1e-12, abs=0.0)


def test_report_bits_follow_nats():
    """bits is derived from nats on a report from each estimator, also after
    dataclasses.replace."""
    model = dimmer_model(linear_profile(), 0.3, 0.3)
    spec = MonteCarloSpec(outer_samples=80, inner_samples=8, batches=8)
    reports = [
        quad_ei(model, check_convergence=False),
        ei_exact_mc(model.x_set, model.noise_xt, model.ch_ty, spec),
        ei_geometric(model.g, model.h, model.theta_domain),
    ]
    assert [r.method for r in reports] == ["exact-quadrature", "exact-mc", "geometric"]
    for report in reports:
        assert "bits" not in dataclasses.asdict(report)
        assert report.bits == report.nats / LN2
        assert dataclasses.replace(report, nats=0.75).bits == 0.75 / LN2


def test_mc_agrees_with_quadrature():
    model = dimmer_model(linear_profile(), 0.1, 0.1)
    exact = quad_ei(model, check_convergence=False)
    spec = MonteCarloSpec(outer_samples=4000, inner_samples=64, seed=0, batches=16)
    mc = ei_exact_mc(model.x_set, model.noise_xt, model.ch_ty, spec)
    assert mc.stderr is not None and mc.stderr > 0
    assert abs(mc.nats - exact.nats) <= 3.5 * mc.stderr + 1e-3


def test_mc_on_discrete_interventions():
    model = binary_switch_model(0.2, 0.2)
    exact = quad_ei(model, check_convergence=False)
    spec = MonteCarloSpec(outer_samples=4000, inner_samples=64, seed=1, batches=16)
    mc = ei_exact_mc(model.x_set, model.noise_xt, model.ch_ty, spec)
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


def test_geometric_grid_names_the_axis_lengths():
    """The reported counts are the grid's own: 101 nodes rounded up to even
    in 1-D, staggered to 101 x 102 in 2-D."""
    dimmer = dimmer_model(linear_profile(), 0.03, 0.03)
    assert ei_geometric(dimmer.g, dimmer.h, dimmer.theta_domain).grid_or_samples == "midpoint:102"
    two = two_species_model(TwoSpeciesConfig(epsilon=0.02, delta=0.02))
    assert ei_geometric(two.g, two.h, two.theta_domain).grid_or_samples == "midpoint:101x102"


def test_field_grid_is_built_once_per_grid_and_read_only():
    """Equal boxes share one read-only open mesh; another count is another grid."""
    mesh, cell = _field_mesh(Domain(((0.0, 1.0), (0.0, 2.0))), 11)
    again, cell_again = _field_mesh(Domain(((0.0, 1.0), (0.0, 2.0))), 11)
    assert again is mesh and cell_again == cell
    assert [c.shape for c in mesh] == [(11, 1), (1, 12)] and not any(c.flags.writeable for c in mesh)
    with pytest.raises(ValueError):
        mesh[0][0, 0] = 0.5
    assert [c.shape for c in _field_mesh(Domain(((0.0, 1.0), (0.0, 2.0))), 12)[0]] == [(12, 1), (1, 13)]


def test_geometric_rejects_a_constant_metric_of_another_dimension():
    """A constant metric takes its dimension from its matrix, so a 2 x 2 h
    on the 1-D dimmer fails the estimator's dimension check."""
    model = dimmer_model(linear_profile(), 0.03, 0.03)
    assert constant_metric(np.eye(2)).dim == 2
    with pytest.raises(InvalidConfigError, match="share a dimension"):
        ei_geometric(model.g, constant_metric(np.eye(2)), model.theta_domain)


@pytest.mark.parametrize("nodes", [0, -3, 2.5, True])
def test_geometric_and_coarse_grained_refuse_a_node_count_that_is_no_positive_integer(nodes):
    dimmer = dimmer_model(linear_profile(), 0.03, 0.03)
    with pytest.raises(InvalidConfigError, match="nodes_per_axis must be an integer >= 1"):
        ei_geometric(dimmer.g, dimmer.h, dimmer.theta_domain, nodes_per_axis=nodes)
    two = two_species_model(TwoSpeciesConfig(epsilon=0.02, delta=0.02))
    with pytest.raises(InvalidConfigError, match="nodes_per_axis must be an integer >= 1"):
        coarse_grained_ei(two, diagonal_submanifold(), nodes_per_axis=nodes)


def test_geometric_rejects_indefinite_intervention_metric_with_positive_determinant():
    """det(diag(-1, -1)) > 0, but h is no metric: its Cholesky factor fails."""
    square = Domain(((0.0, 1.0), (0.0, 1.0)))
    g = constant_metric(np.diag([10.0, 10.0]))
    h = constant_metric(np.diag([-1.0, -1.0]))
    with pytest.raises(DegenerateModelError, match=r"intervention metric .* at \["):
        ei_geometric(g, h, square)


def test_quadrature_refuses_curve_valued_effects_and_mc_takes_them():
    unit = Domain(((0.0, 1.0),))
    noise_xt = ConstantIsotropic(0.1)
    ch_ty = GaussianChannel(
        mean_map=lambda t: np.concatenate([t, t**2], axis=-1),
        noise=ConstantIsotropic(0.1),
        input_domain=unit,
        output_domain=Domain(((0.0, 1.0), (0.0, 1.0))),
    )
    x_set = UniformBox(unit)
    with pytest.raises(UseMonteCarloError):
        ei_exact_quadrature(x_set, noise_xt, ch_ty)
    spec = MonteCarloSpec(outer_samples=400, inner_samples=16, seed=0, batches=8)
    report = ei_exact_mc(x_set, noise_xt, ch_ty, spec)
    assert math.isfinite(report.nats) and report.nats > 0.0


def test_one_by_one_full_effect_noise_matches_isotropic():
    model = dimmer_model(linear_profile(), 0.1, 0.1)
    full = dataclasses.replace(model.ch_ty, noise=FullConstant(np.array([[0.1**2]])))
    iso = quad_ei(model, check_convergence=False)
    got = ei_exact_quadrature(model.x_set, model.noise_xt, full, check_convergence=False)
    assert got.nats == pytest.approx(iso.nats, abs=1e-12)


@pytest.mark.parametrize(
    "model",
    [dimmer_family(2.0, 0.03, 0.03), dimmer_family(-4.0, 0.01, 0.01), binary_switch_model(0.01, 0.01)],
    ids=["family-2", "family-minus-4", "switch"],
)
def test_a_mirrored_effect_map_gives_the_same_ei(model):
    """EI is invariant under y -> -y. The kernel turns a decreasing effect
    map (sign -1) into an increasing one, and the checked value must match
    the unmirrored chain's within 4 ulp (at most 2 ulp measured)."""
    ch = model.ch_ty
    mirrored = dataclasses.replace(
        ch,
        mean_map=lambda t: -ch.mean(t),
        jacobian=lambda t: -ch.jac(t),
        output_domain=Domain(((-1.0, 0.0),)),
    )
    assert _ScalarChain(model.noise_xt, mirrored, model.x_set).sign == -1.0
    want = quad_ei(model)
    got = ei_exact_quadrature(model.x_set, model.noise_xt, mirrored)
    assert got.flags == want.flags == ()
    assert got.nats == pytest.approx(want.nats, rel=0.0, abs=4 * math.ulp(want.nats))


def test_discrete_averaged_density_is_the_mean_of_the_conditionals():
    model = binary_switch_model(0.05, 0.05)
    chain = _ScalarChain(model.noise_xt, model.ch_ty, model.x_set)
    y = np.array([[-0.1], [0.2], [0.5], [1.05]])
    mus, sigs, _ = chain.components()
    per_point = [chain.conditional_density(y, mu, sig) for mu, sig in zip(mus, sigs)]
    assert chain.averaged_density(y) == pytest.approx(np.mean(per_point, axis=0), rel=1e-12)


def test_box_quadrature_refuses_state_dependent_intervention_noise():
    """The box mixture integrates one Gaussian kernel over the box, so an
    intervention sigma that varies with the state has no closed form there.
    A discrete set still uses each point's own sigma."""
    model = dimmer_model(linear_profile(), 0.03, 0.03)
    noise_xt = DiagonalStateDependent(lambda t: 0.02 + 0.1 * t)
    with pytest.raises(UseMonteCarloError):
        ei_exact_quadrature(model.x_set, noise_xt, model.ch_ty)
    with pytest.raises(UseMonteCarloError):
        ei_exact_mc(model.x_set, noise_xt, model.ch_ty)
    points = DiscretePoints(np.array([[0.0], [1.0]]))
    report = ei_exact_quadrature(points, noise_xt, model.ch_ty, check_convergence=False)
    assert 0.0 < report.nats <= math.log(2.0)


def trapezoid(a, b, n):
    """Evenly spaced nodes on [a, b] with trapezoid weights."""
    x = np.linspace(a, b, n)
    w = np.full(n, (b - a) / (n - 1))
    w[[0, -1]] *= 0.5
    return x, w


def kernel_nodes(chain, spec, refine=1, rule=gauss_legendre):
    """Effect nodes (m, k) of one kl_all pass, their KL weights sd * p and
    the effect rule's weights (k,); kl_all's rule is Gauss-Legendre."""
    nodes = refine * spec.nodes_per_axis
    mu, sig, _ = chain.components(refine)
    f0, cov = chain.predicted_moments_batch(mu, sig)
    sd = np.sqrt(cov[:, 0, 0])
    u, w = rule(-_EFFECT_TAIL_SIGMAS, _EFFECT_TAIL_SIGMAS, nodes)
    y = f0 + sd[:, None] * u
    p = chain.conditional_density(y.reshape(-1, 1), np.repeat(mu, nodes), np.repeat(sig, nodes))
    return y, sd[:, None] * p.reshape(y.shape), w


def test_effect_windows_merge_overlapping_envelopes():
    y = np.array([[3.5, 3.6], [0.0, 1.0], [10.0, 11.0], [0.5, 2.0], [3.0, 4.0], [2.0, 2.5]])
    lo, hi = _effect_windows(y)
    assert lo.tolist() == [0.0, 3.0, 10.0] and hi.tolist() == [2.5, 4.0, 11.0]
    # the switch's two effect clusters stay apart at small noise
    model = binary_switch_model(1e-3, 1e-3)
    chain = _ScalarChain(model.noise_xt, model.ch_ty, model.x_set)
    y, _, _ = kernel_nodes(chain, QuadratureSpec())
    lo, hi = _effect_windows(y)
    assert lo.size == 2 and hi[0] < 0.5 < lo[1]


GRID_CASES = {
    "family-a-5": (dimmer_family(-5.0, 0.03, 0.03), QuadratureSpec(), gauss_legendre),
    "family-a0": (dimmer_family(0.0, 0.03, 0.03), QuadratureSpec(), gauss_legendre),
    "family-a5": (dimmer_family(5.0, 0.03, 0.03), QuadratureSpec(), gauss_legendre),
    "linear-1e-3": (dimmer_model(linear_profile(), 1e-3, 1e-3), QuadratureSpec(), gauss_legendre),
    # two disjoint windows, with enough evenly spaced nodes that the grids cost less
    "switch-1e-3": (binary_switch_model(1e-3, 1e-3), QuadratureSpec(nodes_per_axis=5001), trapezoid),
    "state-dependent": (
        dimmer_model(linear_profile(), DiagonalStateDependent(lambda y: 0.02 + 0.05 * y), 0.03),
        QuadratureSpec(),
        gauss_legendre,
    ),
}


@pytest.mark.parametrize(
    "model, spec, rule",
    [
        *GRID_CASES.values(),
        # near its floor Weber noise is 3e-5 wide, about the grid spacing
        # there, so the error bound sends many nodes to direct evaluation
        (dimmer_model(weber_optimal_profile(0.1), weber_noise(0.03), 0.003), QuadratureSpec(), gauss_legendre),
        # f' = 0 at the box's lower edge, where cells reach the noise-width floor
        (dimmer_model(power_profile(2.0), 1e-3, 1e-3), QuadratureSpec(), gauss_legendre),
        # at large noise most nodes sit in the mixture's shoulders
        (dimmer_family(1.0, 0.2, 0.2), QuadratureSpec(), gauss_legendre),
    ],
    ids=[*GRID_CASES, "weber", "power2-1e-3", "family-a1-0.2"],
)
def test_shared_grid_log_density_matches_direct_evaluation(model, spec, rule, monkeypatch):
    chain = _ScalarChain(model.noise_xt, model.ch_ty, model.x_set)
    y, weight, w = kernel_nodes(chain, spec, rule=rule)
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


@pytest.mark.parametrize("model, spec, rule", GRID_CASES.values(), ids=list(GRID_CASES))
def test_averaged_density_slope_matches_central_difference(model, spec, rule):
    """A difference of quadrature values also carries the motion of the
    y-dependent breakpoints; on family a=-5 that differs from de/dy by 5e-6
    of e/sigma, while de/dy and e both match a dense integral to 6e-8."""
    chain = _ScalarChain(model.noise_xt, model.ch_ty, model.x_set)
    y, weight, _ = kernel_nodes(chain, spec, rule=rule)
    y = y[weight >= 1e-3][:, None]
    sigma = _sd(chain.ch_ty.noise, y)
    h = 1e-4 * sigma[:, None]
    e, de, _ = chain._averaged(y)
    central = (chain.averaged_density(y + h) - chain.averaged_density(y - h)) / (2.0 * h[:, 0])
    assert np.max(np.abs(de - central) * sigma / e) <= 1e-5


@pytest.mark.parametrize("model, spec, rule", GRID_CASES.values(), ids=list(GRID_CASES))
def test_averaged_density_curvature_matches_central_difference(model, spec, rule):
    """d2e/dy2 against a central difference of de/dy; as for the slope, the
    difference also carries the motion of the breakpoints (worst measured
    1.6e-5 of e/sigma^2, on family a = +-5)."""
    chain = _ScalarChain(model.noise_xt, model.ch_ty, model.x_set)
    y, weight, _ = kernel_nodes(chain, spec, rule=rule)
    y = y[weight >= 1e-3][:, None]
    sigma = _sd(chain.ch_ty.noise, y)
    h = 1e-4 * sigma[:, None]
    e, _, d2e = chain._averaged(y)
    central = (chain._averaged(y + h)[1] - chain._averaged(y - h)[1]) / (2.0 * h[:, 0])
    assert np.max(np.abs(d2e - central) * sigma**2 / e) <= 5e-5


def window_of_each_row(y):
    lo, _ = _effect_windows(y)
    return np.searchsorted(lo, np.min(y, axis=1), side="right") - 1


def cell_failures(chain, y, weight, x, grid, cells):
    """The cells sorted by their start (3, C), each one's nodes failing
    EFFECT_TOL and the failing nodes (m, k). A node's bound is its weight
    times the check of the cell holding it: the quintic step across the cell
    against log e at its midpoint. Nodes outside every cell do not fail."""
    a, m, b = cells[:, np.argsort(cells[0])]
    err = np.abs(ei._hermite_step(x, grid, a, b, x[m]) - grid[0, m])
    cell = np.searchsorted(x[a], y.reshape(-1), side="right") - 1
    inside = (cell >= 0) & (y.reshape(-1) <= x[b[cell]])
    bound = weight.reshape(-1) * err[cell]
    assert np.all(np.isfinite(bound[inside]))
    fails = inside & (bound > chain.EFFECT_TOL)
    return np.stack([a, m, b]), np.bincount(cell[fails], minlength=a.size), fails.reshape(y.shape)


def points_per_window(y, x):
    lo, _ = _effect_windows(y)
    return np.bincount(np.searchsorted(lo, x, side="right") - 1, minlength=lo.size)


GROWTH_CASES = {
    **{f"family-a{a:g}": (dimmer_family(a, 0.03, 0.03), 1) for a in (-5.0, -3.25, 0.25, 2.0)},
    "family-a1-doubled": (dimmer_family(1.0, 0.03, 0.03), 2),
    "linear-1e-3": (dimmer_model(linear_profile(), 1e-3, 1e-3), 1),
    "linear-1e-3-doubled": (dimmer_model(linear_profile(), 1e-3, 1e-3), 2),
    "power2-1e-3": (dimmer_model(power_profile(2.0), 1e-3, 1e-3), 1),
    "weber": (dimmer_model(weber_optimal_profile(0.1), weber_noise(0.03), 0.003), 1),
}


@pytest.mark.parametrize("model, refine", GROWTH_CASES.values(), ids=list(GROWTH_CASES))
def test_effect_grids_double_while_doubling_pays(model, refine):
    """The grids double locally, cell by cell. The cells tile each window,
    three grid points each, with the midpoint halfway in the window's
    Chebyshev angle. A cell stops splitting in two only when its failing
    nodes do not outnumber what its two quarter points would cost, or when
    it is no wider than 1/8 of the smallest effect-noise sd at its points;
    the failing nodes are exactly the direct ones."""
    chain = _ScalarChain(model.noise_xt, model.ch_ty, model.x_set)
    y, weight, _ = kernel_nodes(chain, QuadratureSpec(), refine)
    x, grid, cells, direct = chain.effect_grids(y, weight)
    (a, m, b), failing, fails = cell_failures(chain, y, weight, x, grid, cells)
    windows = np.count_nonzero(points_per_window(y, x))
    assert np.all(np.diff(x) > 0) and np.all(m == a + 1) and np.all(b == a + 2)
    assert np.count_nonzero(np.diff(a) == 3) == windows - 1 and np.all(np.isin(np.diff(a), (2, 3)))
    lo, hi = (np.repeat(v, points_per_window(y, x)) for v in _effect_windows(y))
    angle = np.arccos(1.0 - 2.0 * (x - lo) / (hi - lo))
    np.testing.assert_allclose(angle[m], 0.5 * (angle[a] + angle[b]), rtol=0, atol=1e-9)
    np.testing.assert_array_equal(direct, fails)
    sd = _sd(chain.ch_ty.noise, x[:, None])
    floor = x[b] - x[a] <= np.minimum(np.minimum(sd[a], sd[m]), sd[b]) / 8.0
    assert np.all((failing <= 2 * chain.POINT_COST) | floor)
    assert np.any(failing > 0) and len(a) > windows * (chain.WINDOW_FLOOR // 2)


@pytest.mark.parametrize(
    "model, refine",
    [GROWTH_CASES["family-a-5"], GROWTH_CASES["linear-1e-3-doubled"]],
    ids=["family-a-5", "linear-1e-3-doubled"],
)
def test_every_effect_grid_point_is_evaluated_once(model, refine, monkeypatch):
    """One averaged-density evaluation (its row blocks inside) per round:
    the starting grids first, then the two quarter points of every
    splitting cell; then one for the nodes left to direct evaluation. The
    rows evaluated are the final grid points plus the direct nodes."""
    chain = _ScalarChain(model.noise_xt, model.ch_ty, model.x_set)
    y, weight, _ = kernel_nodes(chain, QuadratureSpec(), refine)
    calls, averaged = [], chain._averaged
    monkeypatch.setattr(chain, "_averaged", lambda ys, *args: calls.append(ys[:, 0]) or averaged(ys, *args))
    x, _, cells, direct = chain.effect_grids(y, weight)
    evaluated = np.concatenate(calls)
    assert np.array_equal(np.sort(evaluated), x) and np.unique(evaluated).size == x.size
    windows = np.count_nonzero(points_per_window(y, x))
    assert calls[0].size == windows * chain.WINDOW_FLOOR and all(c.size % 2 == 0 for c in calls[1:])
    assert x.size == 2 * cells.shape[1] + windows
    rounds = len(calls)
    assert rounds > 1 and np.any(direct)
    calls.clear()
    chain.log_averaged_density(y, weight)
    assert len(calls) == rounds + 1
    assert sum(map(len, calls)) == x.size + np.count_nonzero(direct)


def test_window_with_no_more_nodes_than_its_starting_grid_goes_direct():
    """Each interior outer row of the linear dimmer at 1e-3 has an effect
    window of its own; with up to 33 effect nodes those windows get no grid,
    while the edge windows (61 rows each) refine theirs."""
    model = dimmer_model(linear_profile(), 1e-3, 1e-3)
    chain = _ScalarChain(model.noise_xt, model.ch_ty, model.x_set)
    for nodes in (31, 33, 35):
        y, weight, _ = kernel_nodes(chain, QuadratureSpec(nodes_per_axis=nodes))
        rows = np.bincount(window_of_each_row(y))
        assert rows.tolist() == [61] + [1] * 10 + [61]
        x, _, _, direct = chain.effect_grids(y, weight)
        points = points_per_window(y, x)
        assert np.array_equal(points == 0, rows * nodes <= chain.WINDOW_FLOOR)
        assert np.all(direct[points[window_of_each_row(y)] == 0])
        assert np.all(points[[0, -1]] > chain.WINDOW_FLOOR)


def test_fragmented_rows_take_the_grid_path_within_effect_grid(monkeypatch):
    """Graded outer rows of the linear dimmer at 1e-3 leave gaps between
    their effect envelopes, in both passes; every window then gets a grid of
    its own, all refined in the same rounds, instead of falling back to
    direct evaluation at every node (the bounds are those of the shared-grid
    test, which runs this chain too). The row bounds are those of a fixed
    4001-point grid shared between the windows by rows: 12,437 rows over
    both passes and 4,156 in the first, where whole-window doubling took
    9,370 and 4,212 (leaving 916 nodes of each edge window direct), and
    local refinement takes 2,532 and 930 (920 grid points, 10 nodes
    direct)."""
    model = dimmer_model(linear_profile(), 1e-3, 1e-3)
    chain = _ScalarChain(model.noise_xt, model.ch_ty, model.x_set)
    evaluated = []
    for refine in (1, 2):
        y, weight, w = kernel_nodes(chain, QuadratureSpec(), refine)
        assert _effect_windows(y)[0].size > 1
        direct = np.log(chain.averaged_density(y.reshape(-1, 1))).reshape(y.shape)
        rows, terms = [], chain._segment_terms
        monkeypatch.setattr(chain, "_segment_terms", lambda ys: rows.append(len(ys)) or terms(ys))
        got = chain.log_averaged_density(y, weight)
        monkeypatch.undo()
        evaluated.append(sum(rows))
        assert np.all(points_per_window(y, chain.effect_grids(y, weight)[0]) >= chain.WINDOW_FLOOR)
        assert np.max(np.abs(got - direct)[weight >= 1e-3]) <= 1e-9
        assert np.max(np.abs((weight * (got - direct)) @ w)) <= 1e-10
    assert evaluated[0] <= 4212 and sum(evaluated) <= 12437


def test_the_six_sweep_bench_points_evaluate_few_averaged_density_rows(monkeypatch):
    """The six seed-0 fig1b points of the sweep-quad bench workload (a = -5
    to 3.75, 7 grid steps apart), unchecked as a sweep runs them, send at
    most 5,617 rows to the averaged density, grid and direct: measured 3,704
    + 1,913, where whole-window doubling took 9,222 + 4,350."""
    rows = []
    averaged = _ScalarChain._averaged
    monkeypatch.setattr(
        _ScalarChain, "_averaged", lambda self, ys, *args: rows.append(len(ys)) or averaged(self, ys, *args)
    )
    for a in np.linspace(-5.0, 5.0, 41)[::7]:
        quad_ei(dimmer_family(a, 0.03, 0.03), check_convergence=False)
    assert sum(rows) <= 5617


BLOCK_CHAINS = {
    "family-a0.25": dimmer_family(0.25, 0.03, 0.03),
    # criterion 05's chain: state-dependent effect noise with a kink at its floor
    "weber": dimmer_model(weber_optimal_profile(0.1), weber_noise(0.03), 0.003),
    # the discrete log-sum-exp mixture
    "switch": binary_switch_model(0.05, 0.05),
}


def effect_rows(chain, n):
    """n effect rows y (n, 1) with their intervention means and sds (n,), as
    kl_all lays them out: a Gauss-Legendre effect axis per outer row."""
    mu, sig, _ = chain.components()
    nodes = -(-n // mu.size)
    f0, cov = chain.predicted_moments_batch(mu, sig)
    u, _ = gauss_legendre(-_EFFECT_TAIL_SIGMAS, _EFFECT_TAIL_SIGMAS, nodes)
    y = f0 + np.sqrt(cov[:, 0, 0])[:, None] * u
    return y.reshape(-1, 1)[:n], np.repeat(mu, nodes)[:n], np.repeat(sig, nodes)[:n]


@pytest.mark.parametrize("model", BLOCK_CHAINS.values(), ids=list(BLOCK_CHAINS))
def test_row_blocks_never_change_the_numbers(model, monkeypatch):
    """conditional_density and _averaged over three full row blocks and a
    ragged last one equal one block over the same rows, bit for bit."""
    chain = _ScalarChain(model.noise_xt, model.ch_ty, model.x_set)
    cond_rows = ei._BLOCK // chain.KERNEL_NODES
    avg_rows = ei._BLOCK // chain.segment_nodes
    y, mu, sig = effect_rows(chain, 3 * cond_rows + 357)
    y_avg = y[np.linspace(0, y.shape[0] - 1, 3 * avg_rows + 101).astype(int)]
    for rows, n in ((cond_rows, y.shape[0]), (avg_rows, y_avg.shape[0])):
        assert n > 3 * rows and n % rows
    blocked = chain.conditional_density(y, mu, sig), chain._averaged(y_avg), chain.averaged_density(y_avg)
    monkeypatch.setattr(ei, "_BLOCK", 1 << 40)
    whole = chain.conditional_density(y, mu, sig), chain._averaged(y_avg), chain.averaged_density(y_avg)
    assert np.all(blocked[0] > 0.0) and np.all(blocked[1][0] > 0.0)
    for got, want in zip(blocked, whole):
        np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(blocked[2], blocked[1][0])


@pytest.mark.parametrize("name", ["family-a0.25", "weber"])
def test_kl_all_hands_the_box_mixture_one_row_block_at_a_time(name):
    """Every call of the box mixture during kl_all, at a fig1b point and on
    the Weber chain, gets at most _BLOCK points: the kernel's row blocks
    alone bound it."""
    model = BLOCK_CHAINS[name]
    chain = _ScalarChain(model.noise_xt, model.ch_ty, model.x_set)
    sizes = []
    log_mix = chain.log_mix

    def recording(theta):
        sizes.append(np.size(theta) // np.shape(theta)[-1])
        return log_mix(theta)

    chain.log_mix = recording
    mu, sig, _ = chain.components()
    chain.kl_all(mu, sig, 201)
    assert sizes and max(sizes) <= ei._BLOCK


def traced_peak(func) -> int:
    """Peak traced bytes of a second call of func (the first warms caches)."""
    func()
    tracemalloc.start()
    try:
        func()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_exact_kernel_working_set_is_bounded():
    """kl_all at a fig1b point (a = 0.25: 120 outer rows of 201 effect nodes)
    peaks under 12 MB traced, where 9.3 MB was measured (33 MB with the
    kernel's (rows x nodes) arrays whole); and conditional_density's peak,
    less 16 float vectors of its rows (about 11 measured), does not grow
    when its rows grow 4 times: those arrays live one row block at a time."""
    model = dimmer_family(0.25, 0.03, 0.03)
    chain = _ScalarChain(model.noise_xt, model.ch_ty, model.x_set)
    mu, sig, _ = chain.components()
    assert mu.size == 120
    assert traced_peak(lambda: chain.kl_all(mu, sig, 201)) <= 12e6
    rows = effect_rows(chain, 120 * 201)
    n = rows[0].shape[0]
    rows_4 = np.tile(rows[0], (4, 1)), np.tile(rows[1], 4), np.tile(rows[2], 4)
    small = traced_peak(lambda: chain.conditional_density(*rows))
    large = traced_peak(lambda: chain.conditional_density(*rows_4))
    assert large - 16 * 8 * 4 * n <= small - 16 * 8 * n


GRID_CHAINS = {
    **{f"family-a{a:g}": dimmer_family(a, 0.03, 0.03) for a in (-5.0, 0.25, 5.0)},
    "linear-1e-3": dimmer_model(linear_profile(), 1e-3, 1e-3),
    "power2-1e-3": dimmer_model(power_profile(2.0), 1e-3, 1e-3),
    "weber": dimmer_model(weber_optimal_profile(0.1), weber_noise(0.03), 0.003),
    "switch-0.1": binary_switch_model(0.1, 0.1),
}


def grid_inputs(model):
    """The chain, its components and the f0, sd, mu, sig and rule (u, w) of one kl_all pass."""
    chain = _ScalarChain(model.noise_xt, model.ch_ty, model.x_set)
    mu, sig, _ = chain.components()
    f0, cov = chain.predicted_moments_batch(mu, sig)
    return chain, f0, np.sqrt(cov[:, 0, 0]), mu, sig, gauss_legendre(-_EFFECT_TAIL_SIGMAS, _EFFECT_TAIL_SIGMAS, 201)


@pytest.mark.parametrize("model", GRID_CHAINS.values(), ids=list(GRID_CHAINS))
def test_conditional_grid_error_is_bounded_by_its_estimate(model):
    """On every component kept on a grid, interpolated log p is within the
    error estimate of direct evaluation at each of the 201 nodes, beyond the
    rounding direct evaluation carries: how far log p moves when its node y
    moves by one ulp (the nodes are y = f0 + sd u, rounded; that rounding
    moves a direct value by up to 1.3e-12 on the linear chain at 1e-3).
    Measured worst ratio 0.85 (Weber); 3.5 with no rounding allowance
    (power profile at 1e-3, where the rounding is the whole difference)."""
    chain, f0, sd, mu, sig, (u, w) = grid_inputs(model)
    log_p, est, direct = chain.conditional_grids(f0, sd, mu, sig, w)
    kept = ~direct
    assert np.sum(kept) >= mu.size // 3 and np.all(np.isfinite(est[kept]))
    y = f0[kept] + sd[kept, None] * u

    def log_direct(at):
        p = chain.conditional_density(at.reshape(-1, 1), np.repeat(mu[kept], u.size), np.repeat(sig[kept], u.size))
        return np.log(p).reshape(at.shape)

    ref = log_direct(y)
    rounding = np.maximum(
        np.abs(log_direct(np.nextafter(y, np.inf)) - ref), np.abs(log_direct(np.nextafter(y, -np.inf)) - ref)
    )
    assert np.all(np.abs(log_p[kept] - ref) - rounding <= est[kept][:, None])


@pytest.mark.parametrize("model", GRID_CHAINS.values(), ids=list(GRID_CHAINS))
def test_conditional_grids_off_give_the_direct_kernel_bit_for_bit(model, monkeypatch):
    """With COND_TOL = 0 every component is evaluated directly, and kl_all
    equals the kernel that evaluates p at every node, bit for bit."""
    chain, f0, sd, mu, sig, (u, w) = grid_inputs(model)
    monkeypatch.setattr(_ScalarChain, "COND_TOL", 0.0)
    assert np.all(chain.conditional_grids(f0, sd, mu, sig, w)[2])
    y = f0 + sd[:, None] * u
    p = chain.conditional_density(y.reshape(-1, 1), np.repeat(mu, u.size), np.repeat(sig, u.size))
    log_e = chain.log_averaged_density(y, sd[:, None] * p.reshape(y.shape)).reshape(-1)
    live = p > ei._P_FLOOR
    integrand = np.zeros_like(p)
    integrand[live] = p[live] * (np.log(p[live]) - log_e[live])
    np.testing.assert_array_equal(chain.kl_all(mu, sig, 201), sd * (integrand.reshape(y.shape) @ w))


@pytest.mark.parametrize("size", [33, 65, 129])
def test_chebyshev_interpolation_reproduces_polynomials(size):
    """The barycentric matrix reproduces polynomials of degree < size at the
    Gauss-Legendre nodes, each node's weights sum to 1, and the tail rows
    give the top half of the Chebyshev coefficients."""
    x, interp, tail = ei._chebyshev(size, 201)
    u, _ = gauss_legendre(-_EFFECT_TAIL_SIGMAS, _EFFECT_TAIL_SIGMAS, 201)
    assert np.all(np.diff(x) > 0) and x[0] == -_EFFECT_TAIL_SIGMAS and x[-1] == _EFFECT_TAIL_SIGMAS
    np.testing.assert_allclose(np.sum(interp, axis=0), 1.0, rtol=0, atol=1e-14)
    rng = np.random.default_rng(0)
    for degree in (0, 1, size // 2, size - 1):
        coef = rng.normal(size=degree + 1)
        cheb = np.polynomial.Chebyshev(coef, domain=[-_EFFECT_TAIL_SIGMAS, _EFFECT_TAIL_SIGMAS])
        np.testing.assert_allclose(cheb(x) @ interp, cheb(u), rtol=0, atol=1e-13 * np.sum(np.abs(coef)))
        full = np.zeros(size)
        full[: degree + 1] = coef
        np.testing.assert_allclose(np.abs(cheb(x) @ tail), np.abs(full[size - tail.shape[1] :]), rtol=0, atol=1e-13)
    assert ei._chebyshev(size, 201) is ei._chebyshev(size, 201) and not interp.flags.writeable
    np.testing.assert_array_equal(ei._chebyshev(2 * size - 1, 201)[0][::2], x)


def test_a_doubled_conditional_grid_evaluates_only_its_new_points(monkeypatch):
    """One component per kl_all call: it sends 33 rows to
    conditional_density, then 32 and 64 for each doubling it takes (to 65
    and 129 points), and 201 more if it is left direct. (33, 32, 201) is
    possible too, but no component of these two chains takes it."""
    counts = {}
    for name in ("family-a-5", "weber"):
        model = GRID_CHAINS[name]
        chain = _ScalarChain(model.noise_xt, model.ch_ty, model.x_set)
        mu, sig, _ = chain.components()
        density = chain.conditional_density
        for i in range(mu.size):
            rows = []
            monkeypatch.setattr(chain, "conditional_density", lambda y, *a: rows.append(len(y)) or density(y, *a))
            chain.kl_all(mu[i : i + 1], sig[i : i + 1], 201)
            counts[tuple(rows)] = counts.get(tuple(rows), 0) + 1
    assert set(counts) == {(33,), (33, 32), (33, 32, 64), (33, 201), (33, 32, 64, 201)}


@pytest.mark.parametrize(
    "model",
    [*GRID_CHAINS.values(), dimmer_family(1.0, 0.2, 0.2), dimmer_family(-5.0, 0.3, 0.3)],
    ids=[*GRID_CHAINS, "family-a1-0.2", "family-a-5-0.3"],
)
def test_only_components_their_doubled_grid_fails_go_direct(model):
    """The components kept are exactly those that a grid of 33, 65 or 129
    points resolves while, at every smaller grid, geometric decay of the
    Chebyshev coefficients could still bring the next grid's estimate under
    COND_TOL. Measured at every doubling of 16,224 components (both passes
    of the fig1b family, linear dimmers and switches at noise 1e-3 to 0.5,
    power and Weber dimmers, dimmer_family at 0.2 and 0.3): the doubled
    grid's estimate is at least 1.66 times what geometric decay predicts,
    and no component its doubled grid resolves comes within 25 times of
    being refused it."""
    chain, f0, sd, mu, sig, (u, w) = grid_inputs(model)
    direct = chain.conditional_grids(f0, sd, mu, sig, w)[2]
    kept = np.zeros(mu.size, dtype=bool)
    hope = np.ones(mu.size, dtype=bool)
    for size in (33, 65, 129):
        x, interp, coef = ei._chebyshev(size, 201)
        at = f0 + sd[:, None] * x
        p = chain.conditional_density(at.reshape(-1, 1), np.repeat(mu, size), np.repeat(sig, size))
        q = size // 2
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            lp = np.log(p).reshape(at.shape)
            c = np.abs(lp @ coef)
            est = np.sum(c[:, -q:], axis=1)
            weight = np.max(sd[:, None] * np.exp(lp @ interp) * w, axis=1)
            resolved = np.all(np.isfinite(lp), axis=1) & (est * weight < chain.COND_TOL)
            kept |= hope & resolved
            hope &= ~resolved & (est**2 / np.sum(c[:, :-q], axis=1) * weight < chain.COND_TOL)
    np.testing.assert_array_equal(~direct, kept)


def conditional_rows(monkeypatch, models) -> int:
    """The rows unchecked exact EIs of models send to conditional_density."""
    rows = []
    density = _ScalarChain.conditional_density
    monkeypatch.setattr(
        _ScalarChain, "conditional_density", lambda self, y, *a: rows.append(len(y)) or density(self, y, *a)
    )
    for model in models:
        quad_ei(model, check_convergence=False)
    return sum(rows)


def test_large_noise_conditional_grids_evaluate_fewer_rows_than_direct_evaluation(monkeypatch):
    """dimmer_family(1, 0.2, 0.2) has 48 components of 201 effect nodes,
    9,648 rows direct. Its grids take fewer: measured 7,242, where a single
    doubling with every failing component sent direct took 12,448."""
    assert conditional_rows(monkeypatch, [dimmer_family(1.0, 0.2, 0.2)]) < 48 * 201


def test_the_six_sweep_bench_points_evaluate_few_conditional_density_rows(monkeypatch):
    """The six seed-0 fig1b points of the sweep-quad bench workload send at
    most 36,236 rows to conditional_density, grid and direct: measured
    36,236, where a single doubling took 37,880 and every node direct
    143,208."""
    models = [dimmer_family(a, 0.03, 0.03) for a in np.linspace(-5.0, 5.0, 41)[::7]]
    assert conditional_rows(monkeypatch, models) <= 36236


OUTER_CASES = {
    **{f"family-a{a:g}": dimmer_family(a, 0.03, 0.03) for a in (-5.0, -2.0, 0.0, 2.0, 5.0)},
    "linear-1e-3": dimmer_model(linear_profile(), 1e-3, 1e-3),
    "linear-1e-2": dimmer_model(linear_profile(), 1e-2, 1e-2),
}


def uniform_outer_ei(chain, nodes, spec=QuadratureSpec()):
    """EI with a uniform Gauss-Legendre outer rule and the production effect axis."""
    (lo, hi), = chain.x_set.domain.axes
    x, wx = gauss_legendre(lo, hi, nodes)
    kl = chain.kl_all(x, _sd(chain.noise_xt, x[:, None]), spec.nodes_per_axis)
    return (wx / chain.x_set.domain.volume) @ kl


@pytest.mark.parametrize("model", OUTER_CASES.values(), ids=list(OUTER_CASES))
def test_graded_outer_panels_match_a_uniform_401_node_rule(model):
    """12 nodes per graded panel (84-132 nodes) against uniform G401: measured
    worst 1.7e-12 nats, on a = +-5, where uniform G201 is itself 2e-12 off;
    8 nodes per panel miss by 2.9e-9 there."""
    chain = _ScalarChain(model.noise_xt, model.ch_ty, model.x_set)
    mu, sig, w = chain.components()
    assert mu.size <= 132
    graded = w @ chain.kl_all(mu, sig, 201)
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
    chain = _ScalarChain(model.noise_xt, model.ch_ty, model.x_set)
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
    chain = _ScalarChain(model.noise_xt, model.ch_ty, model.x_set)
    kink = chain.invert_effect(np.asarray(model.ch_ty.noise.kinks))
    assert kink[0] in chain.outer_layers[0]
    mu, sig, w = chain.components()
    graded = w @ chain.kl_all(mu, sig, 201)
    assert abs(graded - uniform_outer_ei(chain, 1601)) <= 1e-8


def test_flat_edge_is_graded_from_the_intervention_noise():
    """f = theta^2 has f' = 0 at theta = 0: the edge noise is infinite there,
    with no division warning, so the first-order ladder puts no breakpoint
    at that edge (2.8e-3 nats off at 1e-3). Instead the edge is graded from
    sigma_q across the box; measured 6e-11 nats from uniform G1601, which
    uniform G401 misses by 8e-10."""
    model = dimmer_model(power_profile(2.0), 1e-3, 1e-3)
    with np.errstate(all="raise"):
        chain = _ScalarChain(model.noise_xt, model.ch_ty, model.x_set)
    assert chain.edge_noise(np.array([0.0]))[0] == np.inf
    centres, widths = chain.outer_layers
    flat = widths[centres == 0.0]
    ladder = flat[:, None] * np.asarray(GRADING)
    assert flat[0] == pytest.approx(1e-3) and np.all(np.diff(flat) > 0) and ladder.max() >= 1.0
    mu, sig, w = chain.components()
    graded = w @ chain.kl_all(mu, sig, 201)
    assert abs(graded - uniform_outer_ei(chain, 401)) <= 5e-9


def test_doubled_pass_doubles_the_panel_and_effect_nodes(monkeypatch):
    model = dimmer_family(1.0, 0.03, 0.03)
    passes = []
    kl_all = _ScalarChain.kl_all

    def recording(self, mu_q, sig_q, nodes):
        passes.append((mu_q.size, nodes))
        return kl_all(self, mu_q, sig_q, nodes)

    monkeypatch.setattr(_ScalarChain, "kl_all", recording)
    report = quad_ei(model)
    (outer, effect), (outer2, effect2) = passes
    assert outer % _ScalarChain.PANEL_NODES == 0 and (outer2, effect2) == (2 * outer, 2 * effect)
    assert effect == 201 and f"{outer} outer nodes" in report.grid_or_samples
    assert "12 per graded panel" in report.grid_or_samples
    assert report.grid_or_samples.endswith(", 201 effect nodes, tail 8.0 sigma")


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
    chain = _ScalarChain(model.noise_xt, model.ch_ty, model.x_set)
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
    chain = _ScalarChain(model.noise_xt, model.ch_ty, model.x_set)
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
