"""Built-in model constructors: profiles, chains, and the confounded decay."""

import dataclasses
import math
import pathlib
import re
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import trapezoid

from causalgeom import (
    ConstantIsotropic,
    DecayConfounderConfig,
    DiscretePoints,
    FullConstant,
    InvalidConfigError,
    MetricField,
    NumericalFailureError,
    TwoSpeciesConfig,
    UniformBox,
    binary_switch_model,
    decay_confounder_metrics,
    dimmer_family,
    dimmer_model,
    effect_metric,
    family_profile,
    linear_profile,
    power_profile,
    antidiagonal_submanifold,
    diagonal_submanifold,
    pullback_field,
    two_species_model,
    weber_noise,
    weber_optimal_profile,
)
from causalgeom import _quadrature, models
from causalgeom.cli import MODELS, main
from causalgeom.ei import _field_mesh
from reference import finite_difference_channel, intervention_metric, invert_uniform_prior

GRID = np.linspace(0.0, 1.0, 201)


def _nodes(domain, nodes_per_axis):
    """The geometric estimator's midpoint nodes (N, d), its open mesh flattened in C order."""
    mesh = _field_mesh(domain, nodes_per_axis)[0]
    return np.stack(np.broadcast_arrays(*mesh), axis=-1).reshape(-1, domain.dim)


def test_profiles_are_anchored_and_monotone():
    for profile in (
        linear_profile(),
        power_profile(2.0),
        weber_optimal_profile(0.1),
        family_profile(-5.0),
        family_profile(3.0),
    ):
        f = np.asarray(profile.f(GRID), dtype=float)
        assert f[0] == pytest.approx(0.0, abs=1e-12)
        assert f[-1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.diff(f) > 0)
        assert np.all(np.asarray(profile.df(GRID[1:-1]), dtype=float) > 0)


def test_steepest_weber_profile_has_a_finite_positive_slope():
    """At r = 1.41e-3, just above the refusal bound, a = 1/r puts a * e^(a t)
    above DBL_MAX near t = 1 while the slope itself stays below 700 on
    [0, 1]: it is finite and positive there, with no FP warning raised."""
    profile = weber_optimal_profile(1.41e-3)
    with np.errstate(all="raise"):
        df = np.asarray(profile.df(GRID), dtype=float)
    assert np.all(np.isfinite(df)) and np.all(df > 0.0)
    a = 1.0 / 1.41e-3
    assert df[-1] == pytest.approx(a / -math.expm1(-a), rel=1e-12)


def test_family_profile_is_linear_at_zero_and_continuous_there():
    lin = linear_profile()
    f0 = np.asarray(family_profile(0.0).f(GRID))
    np.testing.assert_allclose(f0, lin.f(GRID), atol=1e-12)
    gap = np.max(np.abs(np.asarray(family_profile(1e-5).f(GRID)) - f0))
    assert gap < 1e-5


def test_weber_noise_floor():
    noise = weber_noise(0.05, floor=1e-3)
    assert noise.sigma_fn(np.array([0.0]))[0] == pytest.approx(0.05 * 1e-3)
    assert noise.sigma_fn(np.array([0.4]))[0] == pytest.approx(0.02)


def test_noise_specs_name_their_kinks():
    assert weber_noise(0.05, floor=1e-3).kinks == (1e-3,)
    assert ConstantIsotropic(0.1).kinks == ()
    assert FullConstant(np.eye(2)).kinks == ()


@pytest.mark.parametrize(
    "profile, noise",
    [
        (family_profile(-5.0), 0.03),
        (family_profile(5.0), 0.03),
        (linear_profile(), 1e-3),
        (weber_optimal_profile(0.1), weber_noise(0.03)),
    ],
    ids=["family-a-5", "family-a5", "linear-1e-3", "weber"],
)
def test_dimmer_g_is_the_effect_fisher_metric(profile, noise):
    """g = (f'/sigma(f))^2 bit for bit, one point at a time and stacked."""
    model = dimmer_model(profile, noise, 0.03)
    t = np.linspace(-0.1, 1.1, 241)
    sigma = noise if np.isscalar(noise) else noise.sigma_fn(profile.f(t))
    expected = (profile.df(t) / sigma) ** 2
    np.testing.assert_array_equal(model.g.batch(t[:, None])[:, 0, 0], expected)
    np.testing.assert_array_equal([model.g(x)[0, 0] for x in t], expected)


def test_dimmer_model_metrics_match_numerical_routes():
    """The stored closed-form g and h agree with the geometry-module numerics
    built from the raw channels (finite-difference Jacobian for g, quadrature
    Fisher of the inverted channel for h)."""
    eps, delta = 0.04, 0.03
    model = dimmer_model(power_profile(2.0), eps, delta)
    g_fd = effect_metric(finite_difference_channel(model.ch_ty, model.x_set.domain), 1)
    inv = invert_uniform_prior(model.noise_xt, model.x_set)
    h_num = intervention_metric(inv)
    for theta in (0.25, 0.5, 0.75):
        assert model.g(theta)[0, 0] == pytest.approx(g_fd(theta)[0, 0], rel=1e-4)
        assert model.h(theta)[0, 0] == pytest.approx(h_num(theta)[0, 0], rel=1e-4)


@pytest.mark.parametrize("theta", [(0.4, 0.6), (0.5, 0.5)])
@pytest.mark.parametrize("matrix", [np.eye(2), np.array([[1.0, 0.8], [0.7, 1.0]])], ids=["identity", "skewed"])
def test_two_species_h_matches_the_uniform_prior_inversion(matrix, theta):
    """The closed-form two-species h equals the Fisher metric of the
    uniform-prior inverted channel on the unit square. At delta = 0.01 the
    noise ridge stays far from the edges at these points, so box truncation
    does not enter; the reference is within 7e-15 of the closed form here."""
    model = two_species_model(TwoSpeciesConfig(epsilon=0.01, delta=0.01, matrix=matrix))
    h_ref = intervention_metric(invert_uniform_prior(model.noise_xt, model.x_set))
    h = model.h(np.array(theta))
    assert np.max(np.abs(h_ref(theta) - h)) <= 1e-12 * np.max(np.abs(h))


def test_binary_switch_keeps_two_interventions():
    model = binary_switch_model(0.01, 0.01)
    assert isinstance(model.x_set, DiscretePoints)
    np.testing.assert_array_equal(model.x_set.points, [[0.0], [1.0]])


def test_two_species_mean_map_and_metrics():
    cfg = TwoSpeciesConfig(epsilon=0.01, delta=0.02, delta_t=0.5, n_points=4)
    model = two_species_model(cfg)
    theta = np.array([0.3, 0.7])
    times = 0.5 * np.arange(1, 5)
    expected = np.exp(-times * 0.3) + np.exp(-times * 0.7)
    np.testing.assert_allclose(model.ch_ty.mean(theta), expected, rtol=1e-14)

    # h is the constant closed form A^-T A^-1 / delta^2
    np.testing.assert_allclose(model.h(theta), np.eye(2) / 0.02**2, rtol=1e-12)

    # g from the analytic Jacobian vs a finite-difference build of the channel
    g_fd = effect_metric(finite_difference_channel(model.ch_ty, model.x_set.domain), 2)
    np.testing.assert_allclose(model.g(theta), g_fd(theta), rtol=1e-4)


@pytest.mark.parametrize("n_points", [2, 3, 7])
@pytest.mark.parametrize("delta_t", [0.02, 1.0, 50.0])
def test_two_species_gram_is_bit_identical_to_einsum(n_points, delta_t):
    """The Jacobian and the effect metric on the ei_geometric grid equal the
    per-column Jacobian and its einsum Gram bit for bit."""
    eps = 0.02
    model = two_species_model(TwoSpeciesConfig(epsilon=eps, delta=eps, delta_t=delta_t, n_points=n_points))
    pts = _nodes(model.x_set.domain, 101)
    assert pts.shape == (101 * 102, 2)
    times = delta_t * np.arange(1, n_points + 1)
    jac = np.stack([-times * np.exp(-times * pts[..., k : k + 1]) for k in (0, 1)], axis=-1)
    np.testing.assert_array_equal(model.ch_ty.jac(pts), jac)
    gram = np.einsum("nki,nkj->nij", jac, jac) / eps**2
    np.testing.assert_array_equal(model.g.batch(pts), 0.5 * (gram + np.swapaxes(gram, -1, -2)))


@pytest.mark.parametrize("n_points", [2, 3, 7])
@pytest.mark.parametrize("delta_t", [0.02, 1.0, 50.0])
def test_two_species_open_mesh_entries_are_the_batch_bit_for_bit(n_points, delta_t):
    """On the open mesh of the 101 x 102 grid, g00 is a (101, 1) vector, g11
    a (1, 102) vector and g01 the (101, 102) grid, and each, broadcast to
    the grid, equals the entry of g.batch at the same 10,302 nodes bit for
    bit."""
    model = two_species_model(TwoSpeciesConfig(epsilon=0.02, delta=0.02, delta_t=delta_t, n_points=n_points))
    mesh = _field_mesh(model.x_set.domain, 101)[0]
    entries = model.g.entries(mesh)
    assert [np.shape(e) for e in entries] == [(101, 1), (101, 102), (1, 102)]
    stack = model.g.batch(_nodes(model.x_set.domain, 101)).reshape(101, 102, 2, 2)
    for entry, (i, j) in zip(entries, [(0, 0), (1, 0), (1, 1)]):
        np.testing.assert_array_equal(np.broadcast_to(entry, (101, 102)), stack[..., i, j])


def test_two_species_g_batch_peak_memory_is_a_few_outputs():
    """g on the 101 x 102 grid builds no (n_points, N) temporaries: its traced
    peak stays within 3 times the (N, 2, 2) stack it returns."""
    model = two_species_model(TwoSpeciesConfig(epsilon=0.02, delta=0.02))
    pts = _nodes(model.x_set.domain, 101)
    model.g.batch(pts)
    tracemalloc.start()
    try:
        out = model.g.batch(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (101 * 102, 2, 2)
    assert peak <= 3 * out.nbytes


def test_two_species_g_entries_take_zero_dimensional_coordinates():
    """At 0-d coordinates the entries hook gives the entries of the matrix g
    takes at that point, summed over every time point."""
    model = two_species_model(TwoSpeciesConfig(epsilon=0.1, delta=0.1, n_points=4))
    entries = model.g.entries((np.array(0.3), np.array(0.7)))
    assert [np.shape(e) for e in entries] == [(), (), ()]
    g = model.g(np.array([0.3, 0.7]))
    np.testing.assert_array_equal(entries, [g[0, 0], g[1, 0], g[1, 1]])


def test_two_species_skewed_matrix_intervention_metric():
    a = np.array([[1.0, 0.8], [0.7, 1.0]])
    model = two_species_model(TwoSpeciesConfig(epsilon=0.01, delta=0.05, matrix=a))
    inv_a = np.linalg.inv(a)
    np.testing.assert_allclose(
        model.h(np.array([0.4, 0.6])), inv_a.T @ inv_a / 0.05**2, rtol=1e-12
    )


def test_two_species_effect_metric_rank_one_on_the_diagonal():
    model = two_species_model(TwoSpeciesConfig(epsilon=0.01, delta=0.01))
    lam = np.linalg.eigvalsh(model.g(np.array([0.4, 0.4])))
    assert lam[0] < 1e-10 * lam[-1]


def test_two_species_config_validation():
    with pytest.raises(InvalidConfigError):
        TwoSpeciesConfig(epsilon=-0.01, delta=0.01)
    with pytest.raises(InvalidConfigError):
        TwoSpeciesConfig(epsilon=0.01, delta=0.01, n_points=0)
    with pytest.raises(InvalidConfigError, match="n_points"):
        TwoSpeciesConfig(epsilon=0.01, delta=0.01, n_points=1)
    # squares that overflow to inf or underflow to 0
    with pytest.raises(InvalidConfigError, match="delta"):
        TwoSpeciesConfig(epsilon=0.01, delta=1e300)
    with pytest.raises(InvalidConfigError, match="epsilon"):
        TwoSpeciesConfig(epsilon=1e-200, delta=0.01)
    with pytest.raises(InvalidConfigError):
        TwoSpeciesConfig(epsilon=0.01, delta=0.01, matrix=np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_dimmer_family_sweep_changes_ei_monotonically_nearby():
    # not the full acceptance sweep; just that the constructor honors `a`
    m_neg = dimmer_family(-2.0, 0.03, 0.03)
    m_zero = dimmer_family(0.0, 0.03, 0.03)
    theta = np.array([0.25])
    assert m_neg.ch_ty.mean(theta)[0] != pytest.approx(m_zero.ch_ty.mean(theta)[0])


def test_decay_confounder_causal_metric_is_constant():
    cfg = DecayConfounderConfig(sigma_t=0.05, sigma_x=1.0, alpha=1.0, x_hat=1.0)
    mets = decay_confounder_metrics(cfg)
    thetas = np.linspace(0.1, 0.9, 9)
    vals = np.array([mets.h_caus(t)[0, 0] for t in thetas])
    assert np.max(np.abs(vals / vals[0] - 1.0)) < 1e-12
    assert vals[0] == pytest.approx(1.0 / (cfg.alpha * cfg.sigma_t) ** 2, rel=1e-12)


def test_decay_confounder_statistical_metric_varies_and_matches_series():
    cfg = DecayConfounderConfig(sigma_t=0.05, sigma_x=1.0, alpha=1.0, x_hat=1.0)
    mets = decay_confounder_metrics(cfg)
    h02 = mets.h_stat(0.2)[0, 0]
    h08 = mets.h_stat(0.8)[0, 0]
    assert h02 != h08
    base = mets.h_caus(0.5)[0, 0]
    for theta in (0.2, 0.5, 0.8):
        numeric = mets.h_stat(theta)[0, 0]
        series = mets.h_stat_series(theta)
        # compare at the scale of the deviation from the causal constant
        assert abs(numeric - series) <= 0.2 * abs(series - base)


def test_decay_confounder_limit_recovers_causal_metric():
    cfg = DecayConfounderConfig(sigma_t=1e-3, sigma_x=1.0, alpha=1.0, x_hat=1.0)
    mets = decay_confounder_metrics(cfg)
    assert mets.h_stat(0.5)[0, 0] == pytest.approx(mets.h_caus(0.5)[0, 0], rel=1e-5)


def test_decay_confounder_series_regime_guard():
    cfg = DecayConfounderConfig(sigma_t=0.5, sigma_x=1.0, alpha=1.0, x_hat=1.0)
    mets = decay_confounder_metrics(cfg)
    with pytest.raises(NumericalFailureError, match=r"series expansion valid for sigma_t/sigma_x <= 0\.1"):
        mets.h_stat_series(0.5)


# sigma_t / sigma_x = 2: the observational mean bends so sharply that Newton
# from x = theta overshoots the one root of mu(x) = theta
STEEP = DecayConfounderConfig(sigma_t=0.4, sigma_x=0.2, alpha=3.0, x_hat=1.0)


def _observational_mean(cfg: DecayConfounderConfig):
    """sigma_net^2(x), mu(x) and mu'(x) of the confounded decay, from their formulas."""

    def s2(x):
        return cfg.alpha**2 / (1.0 / cfg.sigma_t**2 + x * x / cfg.sigma_x**2)

    def mu(x):
        return x * (1.0 + cfg.x_hat * s2(x) / (cfg.alpha * cfg.sigma_x**2))

    def dmu(x):
        ds2 = -2.0 * x / cfg.sigma_x**2 * s2(x) ** 2 / cfg.alpha**2
        return 1.0 + cfg.x_hat * (s2(x) + x * ds2) / (cfg.alpha * cfg.sigma_x**2)

    return s2, mu, dmu


@pytest.mark.parametrize("theta", [0.365, 0.37, 0.4])
def test_decay_confounder_root_is_bracketed_where_newton_overshoots(theta):
    """Newton from x = theta misses the root here, while the bisection finds
    it: it is the one sign change of mu(x) - theta on a dense scan, and the
    statistical metric over the window around it matches a dense trapezoid
    integral of the observational density over all levels."""
    s2, mu, dmu = _observational_mean(STEEP)
    x = theta
    for _ in range(16):
        x -= (mu(x) - theta) / dmu(x)
    assert abs(mu(x) - theta) > 1.0

    xs = np.linspace(-30.0, 30.0, 600_001)
    f = mu(xs) - theta
    (crossing,) = np.flatnonzero(np.sign(f[1:]) != np.sign(f[:-1]))
    root = models._confounder_root(mu, theta)
    assert xs[crossing] <= root <= xs[crossing + 1]
    assert abs(mu(root) - theta) <= 1e-15

    var = s2(xs)
    dens = np.exp(-0.5 * (theta - mu(xs)) ** 2 / var) / np.sqrt(2.0 * math.pi * var)
    score = -(theta - mu(xs)) / var
    m0 = trapezoid(dens, xs)
    mean_score = trapezoid(dens * score, xs) / m0
    fisher = trapezoid(dens * (score - mean_score) ** 2, xs) / m0
    assert decay_confounder_metrics(STEEP).h_stat(theta)[0, 0] == pytest.approx(fisher, rel=1e-8)


# (sigma_t, sigma_x, alpha, x_hat): four inside the series regime
# sigma_t / sigma_x <= 0.1 and four outside it, STEEP among them
WINDOW_CONFIGS = [
    (0.01, 1.0, 1.0, 1.0),
    (0.05, 1.0, 1.0, 1.0),
    (0.05, 1.0, 3.0, 0.5),
    (0.02, 0.2, 0.5, 1.0),
    (0.4, 1.0, 1.0, 1.0),
    (1.0, 1.0, 0.5, 0.5),
    (1.0, 0.2, 0.5, 0.5),
    (STEEP.sigma_t, STEEP.sigma_x, STEEP.alpha, STEEP.x_hat),
]


@pytest.mark.parametrize("params", WINDOW_CONFIGS)
def test_confounder_window_rule_matches_a_dense_trapezoid(params):
    """Both moments of the statistical metric's window, at theta = 0.1, 0.5
    and 0.9, against a 200,001-point trapezoid over the same window (within
    8.9e-15 of 1,600,001 points). Measured: at most 6.5e-15 relative inside
    the series regime; outside it 6.3e-15, but 1.5e-6 on (1, 0.2, 0.5, 0.5)
    at 0.9, where mu bends inside the window. A single 400-node panel was
    1.8e-15 and 9.2e-5 off."""
    cfg = DecayConfounderConfig(*params)
    s2, mu, dmu = _observational_mean(cfg)
    tol = 1e-13 if cfg.ratio <= 0.1 else 5e-6
    for theta in (0.1, 0.5, 0.9):
        x0 = models._confounder_root(mu, theta)
        width = 14.0 * math.sqrt(s2(x0)) / abs(dmu(x0))
        xs = np.linspace(x0 - width, x0 + width, 200_001)
        var = s2(xs)
        dens = np.exp(-0.5 * (theta - mu(xs)) ** 2 / var) / np.sqrt(2.0 * math.pi * var)
        score = -(theta - mu(xs)) / var
        m0 = trapezoid(dens, xs)
        mean_score = trapezoid(dens * score, xs) / m0
        fisher = trapezoid(dens * (score - mean_score) ** 2, xs) / m0
        mean_inv_var = trapezoid(dens / var, xs) / m0
        got = models._confounder_moments(cfg, theta)
        assert got == pytest.approx((fisher, mean_inv_var), rel=tol, abs=0.0), theta


def test_appendix_a_builds_no_large_gauss_legendre_rule(tmp_path, monkeypatch):
    """The appendixA eigen sweep asks for no Gauss-Legendre rule above 64
    nodes: building a large rule is a dense eigenproblem of its own, which
    costs more than the sweep's arithmetic."""
    asked = []
    leggauss = _quadrature._leggauss

    def recording(n):
        asked.append(n)
        return leggauss(n)

    monkeypatch.setattr(_quadrature, "_leggauss", recording)
    config = pathlib.Path(__file__).resolve().parents[1] / "configs" / "appendixA.yaml"
    assert main(["run", str(config), "--output", str(tmp_path / "out")]) == 0
    assert asked and max(asked) <= 64


def test_appendix_a_integrates_each_rows_confounder_window_once(tmp_path, monkeypatch):
    """h_stat and h_stat_series of an eigen row share one moments pass: the
    19 thetas of appendixA call _confounder_moments 19 times, once each."""
    thetas = []
    moments = models._confounder_moments

    def counting(cfg, theta):
        thetas.append(theta)
        return moments(cfg, theta)

    monkeypatch.setattr(models, "_confounder_moments", counting)
    config = pathlib.Path(__file__).resolve().parents[1] / "configs" / "appendixA.yaml"
    assert main(["run", str(config), "--output", str(tmp_path / "out")]) == 0
    assert len(thetas) == 19 and len(set(thetas)) == 19


_SCALED = {  # a build from the one scale it is handed, by model and the name its refusal gives
    "dimmer-epsilon": lambda v: dimmer_model(linear_profile(), v, 0.03),
    "dimmer-delta": lambda v: dimmer_model(linear_profile(), 0.03, v),
    "family-epsilon": lambda v: dimmer_family(-2.0, v, 0.03),
    "family-delta": lambda v: dimmer_family(-2.0, 0.03, v),
    "switch-epsilon": lambda v: binary_switch_model(v, 1e-4),
    "switch-delta": lambda v: binary_switch_model(1e-4, v),
    "weber-epsilon0": lambda v: weber_noise(v),
    "weber-floor": lambda v: weber_noise(0.03, floor=v),
    "two-species-epsilon": lambda v: TwoSpeciesConfig(epsilon=v, delta=0.01),
    "two-species-delta": lambda v: TwoSpeciesConfig(epsilon=0.01, delta=v),
    **{
        f"confounder-{k}": lambda v, k=k: DecayConfounderConfig(**{"sigma_t": 0.05, k: v})
        for k in ("sigma_t", "sigma_x", "alpha")
    },
}


@pytest.mark.parametrize("value", [5e-324, 1e-300, 1e-160, 1e300])
@pytest.mark.parametrize("case", _SCALED)
def test_a_scale_whose_square_is_not_finite_and_positive_is_refused_by_name(case, value):
    """Subnormal, underflowing and overflowing scales: the square the metrics
    divide by is 0, inf or (at 1e-160) a subnormal whose reciprocal is inf,
    so every model refuses them with one message."""
    name = case.split("-")[-1]
    want = f"{name} must be positive with a finite, nonzero square, got {value}"
    with pytest.raises(InvalidConfigError, match=f"^{re.escape(want)}$"):
        _SCALED[case](value)


def test_decay_confounder_root_without_a_bracket_names_theta():
    """A mean that never reaches theta raises a numerical failure naming theta."""
    with pytest.raises(NumericalFailureError, match="theta=0.5"):
        models._confounder_root(lambda x: -abs(x) - 1.0, 0.5)


def test_decay_confounder_config_validation():
    with pytest.raises(InvalidConfigError):
        DecayConfounderConfig(sigma_t=-0.1, sigma_x=1.0, alpha=1.0, x_hat=1.0)
    with pytest.raises(InvalidConfigError):
        DecayConfounderConfig(sigma_t=0.05, sigma_x=0.0, alpha=1.0, x_hat=1.0)


def _assert_reads_mirrored(field, points, lower):
    """batch, __call__ and entries of field at points (n, d) all give the
    matrices whose lower triangle is lower (n, d, d), mirrored."""
    rows, cols = np.tril_indices(field.dim)
    want = np.tril(lower) + np.swapaxes(np.tril(lower, -1), -1, -2)
    np.testing.assert_array_equal(field.batch(points), want)
    for k in (0, len(points) // 2, len(points) - 1):
        np.testing.assert_array_equal(field(points[k]), want[k])
    for e, i, j in zip(field.entries(tuple(points.T)), rows, cols):
        np.testing.assert_array_equal(np.broadcast_to(e, points.shape[:1]), want[:, i, j])


@pytest.mark.parametrize(
    "name, params",
    [
        *((name, {}) for name in MODELS),
        ("dimmer", {"profile": "power", "exponent": 3.0}),
        ("two-species", {"delta_t": 50.0, "matrix": [[1.0, 0.8], [0.7, 1.0]]}),
        ("two-species", {"delta_t": 0.02, "n_points": 7}),
    ],
)
def test_bundled_metric_stacks_equal_their_transpose(name, params, monkeypatch):
    """Every reader of a metric field mirrors its lower-triangle entries, so
    each stack a bundled model's from_batch hook computes must itself be
    symmetric bit for bit for no upper triangle to be dropped. Each bundled
    g and h, and two-species' diagonal and antidiagonal pullbacks, read the
    same matrices through batch, __call__ and entries."""
    computed = []
    from_batch = MetricField.from_batch.__func__

    def recording(cls, batch, dim):
        def recorded(points):
            mats = np.asarray(batch(points), dtype=float)
            computed.append(mats)
            return mats

        return from_batch(cls, recorded, dim)

    monkeypatch.setattr(MetricField, "from_batch", classmethod(recording))
    entry = MODELS[name]
    model = entry.build({**entry.defaults, **params})
    fields = [getattr(model, f.name) for f in dataclasses.fields(model)]
    fields = [f for f in fields if isinstance(f, MetricField)]
    # the confounder has no intervention set and the switch's is two points;
    # the metrics of both live on the unit interval
    x_set = getattr(model, "x_set", None)
    domain = x_set.domain if isinstance(x_set, UniformBox) else models.UNIT_INTERVAL
    pts = _nodes(domain, 101 if domain.dim == 2 else 41)
    cases = [(f, pts) for f in fields]
    if name == "two-species":
        sigmas = _nodes(diagonal_submanifold().sigma_domain, 101)
        for sub in (diagonal_submanifold(), antidiagonal_submanifold()):
            cases += [(pullback_field(f, sub), sigmas) for f in fields]
    assert len(cases) == (6 if name == "two-species" else 2)
    for field, points in cases:
        stack = field.batch(points)
        assert stack.shape[1:] == (domain.dim,) * 2 or stack.shape[1:] == (1, 1)
        np.testing.assert_array_equal(stack, np.swapaxes(stack, -1, -2))
        _assert_reads_mirrored(field, points, stack)
    assert computed or name == "two-species"
    for mats in computed:
        np.testing.assert_array_equal(mats, np.swapaxes(mats, -1, -2))


def test_from_batch_reads_only_the_lower_triangle():
    """A batch whose upper triangle differs is read, by batch, __call__ and
    entries alike, as its lower triangle mirrored."""
    rng = np.random.default_rng(7)
    points = rng.random((9, 3))

    def batch(p):
        lower = np.einsum("ni,nj->nij", p + 1.0, p + 2.0)
        return lower + np.triu(np.ones((3, 3)), 1)  # the upper triangle is off by one

    field = MetricField.from_batch(batch, 3)
    _assert_reads_mirrored(field, points, batch(points))
    assert not np.array_equal(batch(points), np.swapaxes(batch(points), -1, -2))
