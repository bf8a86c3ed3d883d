"""Pullbacks, coarse-grained information, sweeps, and crossover scans."""

import math

import numpy as np
import pytest
from scipy import integrate

from causalgeom import (
    CausalGeomError,
    DegenerateEmbeddingError,
    Domain,
    EIReport,
    InvalidConfigError,
    MetricField,
    SmoothMap,
    Submanifold,
    SweepSpec,
    TwoSpeciesConfig,
    coarse_grained_ei,
    constant_metric,
    crossover_scan,
    diagonal_submanifold,
    antidiagonal_submanifold,
    ei_geometric,
    pullback_field,
    reparameterize,
    two_species_model,
)

LN_2PIE = math.log(2.0 * math.pi * math.e)


def test_pullback_diagonal_of_identity_metric():
    sub = diagonal_submanifold()
    m = constant_metric(np.eye(2))
    assert pullback_field(m, sub)(0.3)[0, 0] == pytest.approx(2.0, rel=1e-14)


def test_pullback_linearity():
    rng = np.random.default_rng(31)
    a1, a2 = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
    m1 = constant_metric(a1 @ a1.T + 0.2 * np.eye(2))
    m2 = constant_metric(a2 @ a2.T + 0.2 * np.eye(2))
    alpha = 1.7
    combo = constant_metric(alpha * m1(np.zeros(2)) + m2(np.zeros(2)))
    sub = antidiagonal_submanifold()
    sigma = 0.62
    lhs = pullback_field(combo, sub)(sigma)
    rhs = alpha * pullback_field(m1, sub)(sigma) + pullback_field(m2, sub)(sigma)
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
    """A line with a zero direction is refused when it is built, so no pullback
    or coarse-grained EI ever sees it."""
    with pytest.raises(DegenerateEmbeddingError, match="zero direction"):
        Submanifold(np.zeros(2), np.zeros(2), Domain(((0.0, 1.0),)), "collapsed")


def test_coarse_grained_ei_rejects_degenerate_embedding():
    """A collapsed line never yields a coarse-grained EI: the zero direction
    raises before coarse_grained_ei can run on it."""
    model = two_species_model(TwoSpeciesConfig(epsilon=0.05, delta=0.05))
    with pytest.raises(DegenerateEmbeddingError, match="zero direction"):
        coarse_grained_ei(
            model, Submanifold(np.zeros(2), np.zeros(2), Domain(((0.0, 1.0),)), "collapsed")
        )


def test_one_dimensional_rank_check_takes_the_column_norm(monkeypatch):
    """A line's one embedding column is its direction, so its rank check is
    the direction being nonzero: no SVD runs to build a line, to refuse a zero
    one, or to take its coarse-grained EI."""
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *a, **kw: calls.append(1) or svd(*a, **kw))
    unit = Domain(((0.0, 1.0),))
    tiny = Submanifold(np.zeros(2), np.array([1e-300, 0.0]), unit, "tiny")
    np.testing.assert_array_equal(tiny.direction, [1e-300, 0.0])
    with pytest.raises(DegenerateEmbeddingError, match="zero direction"):
        Submanifold(np.zeros(2), np.array([0.0, -0.0]), unit, "collapsed")
    model = two_species_model(TwoSpeciesConfig(epsilon=0.05, delta=0.05))
    assert math.isfinite(coarse_grained_ei(model, diagonal_submanifold()).nats)
    assert calls == []


def test_submanifold_rejects_shapes_that_do_not_make_a_line():
    unit = Domain(((0.0, 1.0),))
    with pytest.raises(InvalidConfigError):
        Submanifold(np.zeros(2), np.ones(3), unit, "mismatched")
    with pytest.raises(InvalidConfigError):
        Submanifold(np.zeros((2, 1)), np.ones((2, 1)), unit, "columns")
    with pytest.raises(InvalidConfigError):
        Submanifold(np.zeros(2), np.array([1.0, math.nan]), unit, "nan")
    with pytest.raises(InvalidConfigError):
        Submanifold(np.zeros(2), np.ones(2), Domain(((0.0, 1.0), (0.0, 1.0))), "plane")


def test_pullback_field_rejects_a_direction_of_the_wrong_length():
    sub = Submanifold(np.zeros(3), np.ones(3), Domain(((0.0, 1.0),)), "three")
    with pytest.raises(InvalidConfigError, match="3 dimensions"):
        pullback_field(constant_metric(np.eye(2)), sub)


def test_bundled_lines_embed_the_grid_exactly():
    """The diagonal and antidiagonal put the 102-node submanifold grid at
    exactly (s, s) and (s, 1 - s), bit for bit."""
    sigma = (np.arange(102)[:, None] + 0.5) / 102
    s = sigma[:, 0]
    np.testing.assert_array_equal(diagonal_submanifold().embed(sigma), np.stack([s, s], axis=-1))
    np.testing.assert_array_equal(
        antidiagonal_submanifold().embed(sigma), np.stack([s, 1.0 - s], axis=-1)
    )


# |entry-wise pullback - J^T M J| in ulps of |J|^T |M| |J|: measured at most
# 1.00 over these cases (both products round each of a few terms once).
PULLBACK_ULPS = 2.0


@pytest.mark.parametrize("matrix", [np.eye(2), np.array([[1.0, 0.8], [0.7, 1.0]])])
def test_entrywise_pullback_matches_the_matrix_product(matrix):
    """The pulled-back g and h, summed from the metric's entries, match
    J^T M J from the stack of M on the 102-node submanifold grid, with J the
    line's direction as a column, on the diagonal and the antidiagonal, over
    the fig4 sweep."""
    sigma = (np.arange(102)[:, None] + 0.5) / 102
    worst = 0.0
    for delta_t in np.geomspace(0.02, 50.0, 25):
        model = two_species_model(TwoSpeciesConfig(epsilon=0.02, delta=0.02, delta_t=delta_t, matrix=matrix))
        for sub in (diagonal_submanifold(), antidiagonal_submanifold()):
            jac = np.broadcast_to(sub.direction[:, None], (102, 2, 1))
            jac_t = np.swapaxes(jac, -1, -2)
            for m in (model.g, model.h):
                mats = m.batch(sub.embed(sigma))
                got = pullback_field(m, sub).batch(sigma)
                assert got.shape == (102, 1, 1)
                scale = np.abs(jac_t) @ np.abs(mats) @ np.abs(jac)
                gap = np.abs(got - jac_t @ mats @ jac) / (np.finfo(float).eps * scale)
                worst = max(worst, float(gap.max()))
    assert worst <= PULLBACK_ULPS


def _stack_pullback(m, sub):
    """The pullback summed over the entries of m's (n, d, d) batch along the
    line, in the same order as pullback_field, with no entries hook."""
    a = sub.direction

    def batch(points):
        mats = m.batch(sub.embed(points))
        total = a[0] * a[0] * mats[:, 0, 0]
        for i in range(1, m.dim):
            for k in range(i):
                total += 2.0 * a[i] * a[k] * mats[:, i, k]
            total += a[i] * a[i] * mats[:, i, i]
        return total[:, None, None]

    return MetricField.from_batch(batch, 1)


@pytest.mark.parametrize("matrix", [np.eye(2), np.array([[1.0, 0.8], [0.7, 1.0]])])
def test_constant_metric_pulls_back_to_a_scalar_and_lines_keep_their_bits(matrix):
    """A constant metric pulls back to a 0-d entry, a^T M a (exact here in
    binary). The coarse-grained estimate on the diagonal and antidiagonal is
    the one the stack path gives, bit for bit, over the fig4 sweep."""
    m = np.array([[2.0, 0.5], [0.5, 4.0]])
    line = Submanifold(np.array([0.25, 0.75]), np.array([0.5, -1.5]), Domain(((0.0, 1.0),)), "line")
    (entry,) = pullback_field(constant_metric(m), line).entries((np.linspace(0.0, 1.0, 5),))
    assert np.shape(entry) == ()
    assert entry == line.direction @ m @ line.direction == 8.75

    for delta_t in np.geomspace(0.02, 50.0, 25):
        model = two_species_model(TwoSpeciesConfig(epsilon=0.02, delta=0.02, delta_t=delta_t, matrix=matrix))
        for sub in (diagonal_submanifold(), antidiagonal_submanifold()):
            stacked = ei_geometric(_stack_pullback(model.g, sub), _stack_pullback(model.h, sub), sub.sigma_domain)
            assert coarse_grained_ei(model, sub) == stacked


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
    """Substituting sigma -> sigma^2 in the pulled-back fields leaves EI_g
    unchanged up to grid error; both volume and mean mismatch are invariant
    integrals."""
    model = two_species_model(TwoSpeciesConfig(epsilon=0.02, delta=0.02))
    sub = diagonal_submanifold()
    a = coarse_grained_ei(model, sub)
    square = SmoothMap(lambda s: s**2, lambda s: 2.0 * s)
    g_sq = reparameterize(pullback_field(model.g, sub), square)
    h_sq = reparameterize(pullback_field(model.h, sub), square)
    b = ei_geometric(g_sq, h_sq, sub.sigma_domain)
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
    return lambda v: EIReport(fn(v), "synthetic", "n/a")


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
            return EIReport(fn(v), "synthetic", "n/a")

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


def test_crossover_scan_reports_an_exact_tie_once_at_the_grid_value():
    """A tie at a grid point is one crossing there, with a zero-width bracket;
    the bracket after it, whose far end has the same sign, is not bisected."""
    sweep = SweepSpec.from_range("v", 0.0, 1.0, 3, log=False)
    scan = crossover_scan(
        [("rising", synthetic_curve(lambda v: v - 0.5)), ("zero", synthetic_curve(lambda v: 0.0))],
        sweep,
    )
    assert [(c.value, c.bracket) for c in scan.crossings] == [(0.5, (0.5, 0.5))]


def test_crossover_scan_skips_brackets_where_both_curves_are_minus_inf():
    """Two curves both at -inf have no sign of difference: no crossing is
    read into the bracket where they reach it."""

    def a(v):
        return 1.0 if v <= 0.7 else -math.inf

    def b(v):
        return 0.0 if v <= 0.7 else -math.inf

    sweep = SweepSpec.from_range("v", 0.0, 1.0, 11, log=False)
    scan = crossover_scan([("a", synthetic_curve(a)), ("b", synthetic_curve(b))], sweep)
    assert scan.crossings == ()


def test_crossover_scan_reports_no_crossing_where_a_midpoint_difference_is_nan(caplog):
    """Inside a sign-changing bracket both curves are -inf on (0.4, 0.6): the
    first bisection midpoint has a NaN difference, which has no sign, so the
    bracket reports no crossing and logs a warning. Read by the NaN's sign
    bit, the bisection walked to 0.59985, where a - b is 0.2."""

    def a(v):
        return -math.inf if 0.4 < v < 0.6 else 2.0 * (v - 0.5)

    def b(v):
        return -math.inf if 0.4 < v < 0.6 else 0.0

    sweep = SweepSpec(variable="v", values=np.linspace(0.0, 1.0, 2))
    with caplog.at_level("WARNING", logger="causalgeom.manifold"):
        scan = crossover_scan([("a", synthetic_curve(a)), ("b", synthetic_curve(b))], sweep)
    assert scan.crossings == ()
    assert scan.argmax == ["b", "a"]
    (record,) = caplog.records
    assert "a - b is NaN inside v in (0.0, 1.0)" in record.getMessage()


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
    assert scan.curves["c"][-1] is None and scan.curves["c"][0].nats == 0.0
