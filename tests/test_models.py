"""Built-in model constructors: profiles, chains, and the confounded decay."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from causalgeom import (
    ConstantIsotropic,
    DecayConfounderConfig,
    DiscretePoints,
    FullConstant,
    InvalidConfigError,
    MetricField,
    RegimeError,
    TwoSpeciesConfig,
    UniformBox,
    binary_switch_model,
    decay_causal_channel,
    decay_confounder_metrics,
    dimmer_family,
    dimmer_model,
    effect_metric,
    family_profile,
    intervention_metric,
    invert_uniform_prior,
    linear_profile,
    power_profile,
    antidiagonal_submanifold,
    diagonal_submanifold,
    pullback_field,
    two_species_model,
    weber_noise,
    weber_optimal_profile,
)
from causalgeom.cli import MODELS
from causalgeom.ei import _field_grid

GRID = np.linspace(0.0, 1.0, 201)


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
    import dataclasses

    fd_channel = dataclasses.replace(model.ch_ty, jacobian=None)
    g_fd = effect_metric(fd_channel)
    inv = invert_uniform_prior(model.ch_xt, UniformBox(model.ch_xt.input_domain))
    h_num = intervention_metric(inv)
    for theta in (0.25, 0.5, 0.75):
        assert model.g(theta)[0, 0] == pytest.approx(g_fd(theta)[0, 0], rel=1e-4)
        assert model.h(theta)[0, 0] == pytest.approx(h_num(theta)[0, 0], rel=1e-4)


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
    import dataclasses

    g_fd = effect_metric(dataclasses.replace(model.ch_ty, jacobian=None))
    np.testing.assert_allclose(model.g(theta), g_fd(theta), rtol=1e-4)


@pytest.mark.parametrize("n_points", [1, 3, 7])
@pytest.mark.parametrize("delta_t", [0.02, 1.0, 50.0])
def test_two_species_gram_is_bit_identical_to_einsum(n_points, delta_t):
    """The Jacobian and the effect metric on the ei_geometric grid equal the
    per-column Jacobian and its einsum Gram bit for bit."""
    eps = 0.02
    model = two_species_model(TwoSpeciesConfig(epsilon=eps, delta=eps, delta_t=delta_t, n_points=n_points))
    pts, _ = _field_grid(model.theta_domain, 101)
    assert pts.shape == (101 * 102, 2)
    times = delta_t * np.arange(1, n_points + 1)
    jac = np.stack([-times * np.exp(-times * pts[..., k : k + 1]) for k in (0, 1)], axis=-1)
    np.testing.assert_array_equal(model.ch_ty.jac(pts), jac)
    gram = np.einsum("nki,nkj->nij", jac, jac) / eps**2
    np.testing.assert_array_equal(model.g.batch(pts), 0.5 * (gram + np.swapaxes(gram, -1, -2)))


def test_two_species_g_batch_peak_memory_is_a_few_outputs():
    """g on the 101 x 102 grid builds no (n_points, N) temporaries: its traced
    peak stays within 3 times the (N, 2, 2) stack it returns."""
    model = two_species_model(TwoSpeciesConfig(epsilon=0.02, delta=0.02))
    pts, _ = _field_grid(model.theta_domain, 101)
    model.g.batch(pts)
    tracemalloc.start()
    try:
        out = model.g.batch(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.shape == (101 * 102, 2, 2)
    assert peak <= 3 * out.nbytes


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
    with pytest.raises(RegimeError):
        mets.h_stat_series(0.5)


def test_decay_causal_channel_pushforward():
    cfg = DecayConfounderConfig(sigma_t=0.05, sigma_x=1.0, alpha=1.0, x_hat=1.0)
    ch = decay_causal_channel(cfg)
    mean = ch.mean(np.array([1.3]))
    assert mean[0] == pytest.approx(cfg.alpha * 1.3, rel=1e-14)


def test_decay_confounder_config_validation():
    with pytest.raises(InvalidConfigError):
        DecayConfounderConfig(sigma_t=-0.1, sigma_x=1.0, alpha=1.0, x_hat=1.0)
    with pytest.raises(InvalidConfigError):
        DecayConfounderConfig(sigma_t=0.05, sigma_x=0.0, alpha=1.0, x_hat=1.0)


@pytest.mark.parametrize(
    "name, params",
    [
        *((name, {}) for name in MODELS),
        ("dimmer", {"profile": "power", "exponent": 3.0}),
        ("two-species", {"delta_t": 50.0, "matrix": [[1.0, 0.8], [0.7, 1.0]]}),
        ("two-species", {"delta_t": 0.02, "n_points": 7}),
    ],
)
def test_bundled_metric_stacks_equal_their_transpose(name, params):
    """A metric field passes its stacks on as they are, so every bundled
    model's g and h, and two-species' diagonal and antidiagonal pullbacks,
    must come out symmetric bit for bit."""
    entry = MODELS[name]
    model = entry.build({**entry.defaults, **params})
    fields = [getattr(model, f.name) for f in dataclasses.fields(model)]
    fields = [f for f in fields if isinstance(f, MetricField)]
    domain = model.config.theta_domain if name == "decay-confounder" else model.theta_domain
    pts = _field_grid(domain, 101 if domain.dim == 2 else 41)[0]
    stacks = [f.batch(pts) for f in fields]
    if name == "two-species":
        sigmas = _field_grid(diagonal_submanifold().sigma_domain, 101)[0]
        for sub in (diagonal_submanifold(), antidiagonal_submanifold()):
            stacks += [pullback_field(f, sub).batch(sigmas) for f in fields]
    assert len(stacks) == (6 if name == "two-species" else 2)
    for stack in stacks:
        assert stack.shape[1:] == (domain.dim,) * 2 or stack.shape[1:] == (1, 1)
        np.testing.assert_array_equal(stack, np.swapaxes(stack, -1, -2))
