"""Pullbacks, coarse-grained information, sweeps, and crossover scans."""

import math

import numpy as np
import pytest
from scipy import integrate

from causalgeom import manifold
from causalgeom import (
    CausalGeomError,
    DegenerateEmbeddingError,
    Domain,
    EIReport,
    InvalidConfigError,
    Submanifold,
    SweepSpec,
    TwoSpeciesConfig,
    coarse_grained_ei,
    constant_metric,
    crossover_scan,
    diagonal_submanifold,
    antidiagonal_submanifold,
    ei_geometric,
    pullback,
    pullback_field,
    two_species_model,
)

LN_2PIE = math.log(2.0 * math.pi * math.e)


def test_pullback_diagonal_of_identity_metric():
    sub = diagonal_submanifold()
    m = constant_metric(np.eye(2), 2)
    assert pullback(m, sub, 0.3)[0, 0] == pytest.approx(2.0, rel=1e-14)


def test_pullback_linearity():
    rng = np.random.default_rng(31)
    a1, a2 = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
    m1 = constant_metric(a1 @ a1.T + 0.2 * np.eye(2), 2)
    m2 = constant_metric(a2 @ a2.T + 0.2 * np.eye(2), 2)
    alpha = 1.7
    combo = constant_metric(alpha * m1(np.zeros(2)) + m2(np.zeros(2)), 2)
    sub = antidiagonal_submanifold()
    sigma = 0.62
    lhs = pullback(combo, sub, sigma)
    rhs = alpha * pullback(m1, sub, sigma) + pullback(m2, sub, sigma)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_pullback_field_batch_matches_single():
    model = two_species_model(TwoSpeciesConfig(epsilon=0.05, delta=0.05))
    sub = diagonal_submanifold()
    field = pullback_field(model.g, sub)
    sigmas = np.array([[0.2], [0.5], [0.8]])
    batch = field.batch(sigmas)
    for k, s in enumerate(sigmas):
        np.testing.assert_allclose(batch[k], field(s), rtol=1e-12)


def test_degenerate_embedding_rejected():
    sub = Submanifold(
        embed=lambda s: np.stack([s[..., 0], s[..., 0] * 0.0], axis=-1),
        jacobian=lambda s: np.zeros(s.shape[:-1] + (2, 1)),
        sigma_domain=Domain(((0.0, 1.0),)),
        label="collapsed",
    )
    m = constant_metric(np.eye(2), 2)
    with pytest.raises(DegenerateEmbeddingError):
        pullback(m, sub, 0.5)


def test_coarse_grained_ei_rejects_degenerate_embedding():
    """The batched pullback checks the rank the single point always did."""
    sub = Submanifold(
        embed=lambda s: np.stack([s[..., 0], s[..., 0] * 0.0], axis=-1),
        jacobian=lambda s: np.zeros(s.shape[:-1] + (2, 1)),
        sigma_domain=Domain(((0.0, 1.0),)),
        label="collapsed",
    )
    model = two_species_model(TwoSpeciesConfig(epsilon=0.05, delta=0.05))
    with pytest.raises(DegenerateEmbeddingError, match="rank deficient at"):
        coarse_grained_ei(model, sub)


def test_coarse_grained_ei_checks_the_embedding_rank_once(monkeypatch):
    """g and h are pulled back through one checked Jacobian: one rank check
    per call, and the same report as the two checked pullback fields."""
    model = two_species_model(TwoSpeciesConfig(epsilon=0.02, delta=0.02))
    sub = antidiagonal_submanifold()
    expected = ei_geometric(
        pullback_field(model.g, sub), pullback_field(model.h, sub), sub.sigma_domain
    )
    calls = []
    check = manifold._embedding_jacobian

    def counting(*args, **kwargs):
        calls.append(1)
        return check(*args, **kwargs)

    monkeypatch.setattr(manifold, "_embedding_jacobian", counting)
    assert coarse_grained_ei(model, sub) == expected
    assert len(calls) == 1


def test_one_dimensional_rank_check_takes_the_column_norm(monkeypatch):
    """For k = 1 the one singular value is the column norm, so no SVD runs;
    a zero column still raises the same error. k = 2 keeps the SVD."""
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw))
    points = np.linspace(0.0, 1.0, 5)[:, None]
    jac = manifold._embedding_jacobian(diagonal_submanifold(), (2,), points)
    assert jac.shape == (5, 2, 1)
    collapsed = Submanifold(
        embed=lambda s: np.stack([s[..., 0], s[..., 0] * 0.0], axis=-1),
        jacobian=lambda s: np.zeros(s.shape[:-1] + (2, 1)),
        sigma_domain=Domain(((0.0, 1.0),)),
        label="collapsed",
    )
    with pytest.raises(DegenerateEmbeddingError, match=r"embedding Jacobian is rank deficient at \[0.\]"):
        manifold._embedding_jacobian(collapsed, (2,), points)
    assert calls == []
    plane = Submanifold(
        embed=lambda s: s,
        jacobian=lambda s: np.broadcast_to(np.eye(2), s.shape[:-1] + (2, 2)),
        sigma_domain=Domain(((0.0, 1.0), (0.0, 1.0))),
        label="plane",
    )
    manifold._embedding_jacobian(plane, (2,), np.zeros((3, 2)))
    assert len(calls) == 1


def test_pullback_field_batch_rejects_wrong_jacobian_shape():
    sub = Submanifold(
        embed=lambda s: np.concatenate([s, s], axis=-1),
        jacobian=lambda s: np.ones(s.shape[:-1] + (1, 2)),
        sigma_domain=Domain(((0.0, 1.0),)),
        label="transposed",
    )
    field = pullback_field(constant_metric(np.eye(2), 2), sub)
    with pytest.raises(InvalidConfigError, match="shape"):
        field.batch(np.array([[0.2], [0.4]]))


def test_coarse_grained_ei_against_adaptive_quadrature():
    """Same geometric definition evaluated with scipy's adaptive integrator
    on the closed-form pulled-back fields."""
    eps = delta = 1e-2
    dt, n = 1.0, 3
    model = two_species_model(TwoSpeciesConfig(epsilon=eps, delta=delta, delta_t=dt, n_points=n))
    sub = diagonal_submanifold()
    times = dt * np.arange(1, n + 1)

    def g_hat(s):
        return float(np.sum((2.0 * times * np.exp(-times * s)) ** 2)) / eps**2

    h_hat = 2.0 / delta**2
    vol, _ = integrate.quad(lambda s: math.sqrt(h_hat), 0.0, 1.0)
    num, _ = integrate.quad(
        lambda s: math.sqrt(h_hat) * 0.5 * math.log1p(h_hat / g_hat(s)), 0.0, 1.0
    )
    reference = math.log(vol) - 0.5 * LN_2PIE - num / vol

    report = coarse_grained_ei(model, sub, nodes_per_axis=801)
    assert report.nats == pytest.approx(reference, abs=1e-6)


def test_coarse_grained_ei_reparameterization_invariance():
    """Substituting sigma -> sigma^2 in the embedding leaves EI_g unchanged
    up to grid error; both volume and mean mismatch are invariant integrals."""
    model = two_species_model(TwoSpeciesConfig(epsilon=0.02, delta=0.02))
    base = diagonal_submanifold()

    def embed(s):
        return base.embed(s**2)

    def jacobian(s):
        return base.jacobian(s**2) * (2.0 * s)[..., None]

    squared = Submanifold(
        embed=embed, jacobian=jacobian, sigma_domain=base.sigma_domain, label="diag-sq"
    )
    a = coarse_grained_ei(model, base)
    b = coarse_grained_ei(model, squared)
    assert abs(a.nats - b.nats) < 1e-3


def test_sweep_spec_validation():
    with pytest.raises(InvalidConfigError):
        SweepSpec("x", np.array([1.0]))
    with pytest.raises(InvalidConfigError):
        SweepSpec("x", np.array([2.0, 1.0]))
    with pytest.raises(InvalidConfigError):
        SweepSpec("x", np.array([-1.0, 1.0]), log=True)
    with pytest.raises(InvalidConfigError):
        SweepSpec.from_range("x", 0.0, 1.0, 1, log=False)


def synthetic_curve(fn):
    return lambda v: EIReport.build(fn(v), "synthetic", "n/a")


def test_crossover_scan_finds_single_crossing():
    sweep = SweepSpec.from_range("v", 0.1, 10.0, 9, log=True)
    scan = crossover_scan(
        [("rising", synthetic_curve(lambda v: math.log(v))),
         ("flat", synthetic_curve(lambda v: 0.3))],
        sweep,
    )
    assert len(scan.crossings) == 1
    c = scan.crossings[0]
    assert {c.first, c.second} == {"rising", "flat"}
    # log(v) = 0.3 at v = e^{0.3}
    assert c.value == pytest.approx(math.exp(0.3), rel=1e-3)
    assert c.bracket[0] <= c.value <= c.bracket[1]
    assert scan.argmax[0] == "flat" and scan.argmax[-1] == "rising"


def test_crossover_scan_evaluates_each_curve_value_once():
    """Two crossings in one grid bracket bisect through common midpoints;
    each (curve, value) is still evaluated once."""
    calls = []

    def counted(label, fn):
        def call(v):
            calls.append((label, v))
            return EIReport.build(fn(v), "synthetic", "n/a")

        return label, call

    sweep = SweepSpec.from_range("v", 0.0, 1.0, 2, log=False)
    scan = crossover_scan(
        [
            counted("flat", lambda v: 0.0),
            counted("early", lambda v: v - 0.3),
            counted("late", lambda v: v - 0.6),
        ],
        sweep,
    )
    assert [(c.first, c.second) for c in scan.crossings] == [("flat", "early"), ("flat", "late")]
    assert scan.crossings[0].value == pytest.approx(0.3, abs=1e-3)
    assert scan.crossings[1].value == pytest.approx(0.6, abs=1e-3)
    assert ("flat", 0.5) in calls
    assert len(calls) == len(set(calls))


def test_crossover_scan_keeps_failures_as_gaps():
    def flaky(v):
        if 0.4 < v < 0.6:
            raise CausalGeomError("synthetic failure")
        return 1.0

    sweep = SweepSpec.from_range("v", 0.0, 1.0, 11, log=False)
    scan = crossover_scan(
        [("flaky", synthetic_curve(flaky)), ("low", synthetic_curve(lambda v: 0.5))],
        sweep,
    )
    vals = scan.curves["flaky"]
    assert any(r is None for r in vals)
    gap_idx = [i for i, r in enumerate(vals) if r is None]
    for i in gap_idx:
        assert scan.argmax[i] == "low"
    assert len(scan.crossings) == 0


def test_crossover_scan_logs_every_gap(caplog):
    def failing_late(v):
        if v > 0.75:
            raise CausalGeomError(f"synthetic failure at {v}")
        return 1.0

    sweep = SweepSpec.from_range("v", 0.0, 1.0, 11, log=False)
    with caplog.at_level("WARNING", logger="causalgeom.manifold"):
        scan = crossover_scan([("late", synthetic_curve(failing_late))], sweep)
    gaps = [float(v) for v, r in zip(sweep.values, scan.curves["late"]) if r is None]
    assert len(caplog.records) == len(gaps) == 3
    for v, record in zip(gaps, caplog.records):
        assert record.levelname == "WARNING"
        assert "late" in record.getMessage() and f"v = {v!r}" in record.getMessage()
        assert f"synthetic failure at {v}" in record.getMessage()


def test_crossover_scan_rejects_duplicate_labels():
    sweep = SweepSpec.from_range("v", 0.0, 1.0, 3, log=False)
    with pytest.raises(InvalidConfigError):
        crossover_scan(
            [("a", synthetic_curve(lambda v: v)), ("a", synthetic_curve(lambda v: -v))],
            sweep,
        )


def test_curve_nats_has_nan_gaps():
    def flaky(v):
        if v > 0.5:
            raise CausalGeomError("synthetic failure")
        return v

    sweep = SweepSpec.from_range("v", 0.0, 1.0, 5, log=False)
    scan = crossover_scan([("c", synthetic_curve(flaky))], sweep)
    vals = scan.curve_nats("c")
    assert np.isnan(vals[-1]) and vals[0] == 0.0
