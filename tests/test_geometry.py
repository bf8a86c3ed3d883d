"""Metric fields, mismatch, eigen-spectra, and reparameterization."""

import math

import numpy as np
import pytest
from scipy import linalg

from causalgeom import (
    ConstantIsotropic,
    DegenerateModelError,
    Domain,
    GaussianChannel,
    MetricField,
    SmoothMap,
    TwoSpeciesConfig,
    UniformBox,
    causal_eigenvalues,
    constant_metric,
    effect_metric,
    ei_geometric,
    intervention_metric,
    invert_uniform_prior,
    mismatch,
    mismatch_at,
    reparameterize,
    two_species_model,
)
from causalgeom import geometry
from causalgeom.ei import _field_grid
from causalgeom.geometry import _cholesky, _mismatch_batch, chol_logdet

UNIT = Domain(((0.0, 1.0),))


def spd(rng, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d))
    return a @ a.T + 0.1 * np.eye(d)


def test_chol_logdet_known_values():
    assert chol_logdet(np.eye(3)) == 0.0
    m = np.diag([2.0, 5.0])
    assert chol_logdet(m) == pytest.approx(math.log(10.0), rel=1e-14)


def test_chol_logdet_jitter_recovers_marginal_matrices():
    # A tiny negative eigenvalue is absorbed by the one-shot jitter; a clearly
    # indefinite matrix is not.
    m = np.diag([1.0, -1e-20])
    assert math.isfinite(chol_logdet(m))
    with pytest.raises(DegenerateModelError):
        chol_logdet(np.diag([1.0, -1.0]))


def test_effect_metric_linear_channel():
    eps = 0.05
    ch = GaussianChannel(
        mean_map=lambda t: np.asarray(t, dtype=float),
        noise=ConstantIsotropic(eps),
        input_domain=UNIT,
        output_domain=UNIT,
    )
    g = effect_metric(ch)
    assert g(0.3)[0, 0] == pytest.approx(1.0 / eps**2, rel=1e-8)


def test_effect_metric_finite_difference_consistency():
    """Analytic-Jacobian metric and FD metric agree to 1e-4 relative."""
    eps = 0.1

    def mean(t):
        t = np.asarray(t, dtype=float)
        return np.stack([np.exp(-t[..., 0]), np.exp(-2.0 * t[..., 0])], axis=-1)

    def jac(t):
        t = np.asarray(t, dtype=float)
        return np.stack(
            [-np.exp(-t[..., 0]), -2.0 * np.exp(-2.0 * t[..., 0])], axis=-1
        )[..., None]

    out = Domain(((0.0, 1.0), (0.0, 1.0)))
    ch_an = GaussianChannel(mean, ConstantIsotropic(eps), UNIT, out, jacobian=jac)
    ch_fd = GaussianChannel(mean, ConstantIsotropic(eps), UNIT, out)
    g_an, g_fd = effect_metric(ch_an), effect_metric(ch_fd)
    for theta in (0.1, 0.5, 0.9):
        np.testing.assert_allclose(g_fd(theta), g_an(theta), rtol=1e-4)


def test_intervention_metric_identity_channel():
    delta = 0.02
    ch = GaussianChannel(
        mean_map=lambda x: np.asarray(x, dtype=float),
        noise=ConstantIsotropic(delta),
        input_domain=UNIT,
        output_domain=UNIT,
        mean_is_identity=True,
    )
    h = intervention_metric(invert_uniform_prior(ch, UniformBox(UNIT)))
    assert h(0.5)[0, 0] == pytest.approx(1.0 / delta**2, rel=1e-6)


def test_metric_symmetry():
    rng = np.random.default_rng(3)
    m = constant_metric(spd(rng, 3), 3)
    mat = m(np.zeros(3))
    assert np.max(np.abs(mat - mat.T)) < 1e-12


def test_mismatch_scalar_closed_form():
    g = np.array([[4.0]])
    h = np.array([[1.0]])
    assert mismatch_at(g, h) == pytest.approx(0.5 * math.log(1.25), rel=1e-12)


def test_mismatch_eigenvalue_identity():
    """l = 0.5 * sum ln(1 + 1/lambda_i) with lambda_i the (g, h) pencil spectrum."""
    rng = np.random.default_rng(11)
    for d in (1, 2, 3):
        for _ in range(20):
            g_mat, h_mat = spd(rng, d), spd(rng, d)
            lam = linalg.eigh(g_mat, h_mat, eigvals_only=True)
            ref = 0.5 * np.sum(np.log1p(1.0 / lam))
            assert abs(mismatch_at(g_mat, h_mat) - ref) < 1e-10


def test_mismatch_infinite_at_singular_g():
    assert mismatch_at(np.array([[0.0]]), np.array([[1.0]])) == math.inf


def test_mixed_stack_matches_pointwise_mismatch():
    """One stack mixing a PD pair, a singular g (mismatch +inf) and a g + h
    that the one jitter recovers, shuffled so the failing matrices sit at
    arbitrary positions: the batch equals the single-point form everywhere."""
    rng = np.random.default_rng(17)
    cases = [
        (spd(rng, 2), spd(rng, 2)),
        (np.array([[1.0, 1.0], [1.0, 1.0]]), spd(rng, 2)),
        (np.diag([1.0, 0.0]), np.diag([1.0, -1e-20])),
    ]
    picks = rng.integers(0, len(cases), size=37)
    g_stack = np.stack([cases[k][0] for k in picks])
    h_stack = np.stack([cases[k][1] for k in picks])
    points = np.column_stack([np.arange(picks.size, dtype=float), np.zeros(picks.size)])

    def field(stack):
        return MetricField(lambda t: stack[int(t[0])], 2, lambda pts: stack[pts[:, 0].astype(int)])

    expected = np.array([mismatch_at(g_mat, h_mat) for g_mat, h_mat in zip(g_stack, h_stack)])
    assert np.all(np.isinf(expected) == (picks > 0))
    np.testing.assert_array_equal(_mismatch_batch(g_stack, h_stack), expected)
    np.testing.assert_array_equal(mismatch(field(g_stack), field(h_stack)).batch(points), expected)

    chol = _cholesky(g_stack)
    assert np.all(np.isnan(chol).all(axis=(1, 2)) == (picks > 0))
    np.testing.assert_array_equal(chol[picks == 0], np.linalg.cholesky(g_stack[picks == 0]))

    h_stack[5] = np.diag([-2.0, 0.0])  # g + h indefinite at node 5 whatever g is there
    with pytest.raises(DegenerateModelError, match=r"g \+ h .* at \[5\. 0\.\]"):
        mismatch(field(g_stack), field(h_stack)).batch(points)


def _cholesky_one(m: np.ndarray, jitter: bool) -> np.ndarray:
    """One matrix alone through np.linalg.cholesky, with the one jitter retry."""
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        pass
    if jitter:
        d = m.shape[-1]
        try:
            return np.linalg.cholesky(m + (1e-12 * float(np.trace(m)) / d) * np.eye(d))
        except np.linalg.LinAlgError:
            pass
    return np.full_like(m, np.nan)


def _edge_stack(d: int) -> np.ndarray:
    """Shuffled SPD, singular, jitter-recoverable, indefinite and NaN-holding
    d x d matrices, each five times."""
    rng = np.random.default_rng(23 + d)
    nan_cases = [np.full((d, d), np.nan)]
    if d == 1:
        cases = [np.array([[2.5]]), np.array([[0.0]]), np.array([[-1e-300]]), np.array([[-1.0]])]
    else:
        cases = [
            np.ones((d, d)),
            np.diag([1.0] * (d - 1) + [-1e-20]),
            np.diag([1.0] * (d - 1) + [-1.0]),
            np.zeros((d, d)),
        ]
        # Zero pivots take the jitter as it is, so at d = 3 its last bit shows
        # if 1e-12 * trace / d is evaluated in another order.
        cases += [np.diag([x] + [0.0] * (d - 1)) for x in rng.uniform(0.5, 2.0, 6)]
        for where in ((0, 0), (1, 0), (0, 1), (1, 1)):
            m = spd(rng, d)
            m[where] = np.nan
            nan_cases.append(m)
    cases += nan_cases + [spd(rng, d) for _ in range(3)]
    return np.stack([cases[k] for k in rng.permutation(np.repeat(np.arange(len(cases)), 5))])


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("jitter", [False, True])
def test_cholesky_stack_matches_each_matrix_alone(d, jitter):
    """Shuffled SPD, singular, jitter-recoverable, indefinite and NaN-holding
    matrices: every row is the factor np.linalg.cholesky gives that matrix
    alone (bit for bit), and a row that does not factor is all NaN."""
    stack = _edge_stack(d)
    expected = np.stack([_cholesky_one(m, jitter) for m in stack])
    chol = _cholesky(stack, jitter)
    np.testing.assert_array_equal(chol, expected)

    failed = np.isnan(expected).all(axis=(1, 2))
    assert failed.any() and not failed.all()
    # The jitter recovers some rows above d = 1; a 1x1 jitter has the sign of the entry.
    recovered = ~np.isnan(_cholesky(stack, True)).all(axis=(1, 2))
    assert (recovered & np.isnan(_cholesky(stack)).all(axis=(1, 2))).any() == (d > 1)


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("jitter", [False, True])
def test_logdet_is_twice_the_log_diagonal_of_each_factor(d, jitter):
    """On the same edge stacks, the log det (for d <= 2 taken from the potf2
    pivots, with no factor stack) is 2 * the in-order sum of the logs of the
    diagonal np.linalg.cholesky gives each matrix alone, bit for bit; NaN
    where that matrix does not factor."""
    stack = _edge_stack(d)
    factors = np.stack([_cholesky_one(m, jitter) for m in stack])
    expected = 2.0 * sum(np.log(factors[:, j, j]) for j in range(d))
    logdet = geometry._logdet(stack, jitter)
    np.testing.assert_array_equal(logdet, expected)
    assert np.isnan(logdet).any() and not np.isnan(logdet).all()
    # and with zero, -0.0, subnormal, inf, NaN and negative entries in each place
    specials = [0.0, -0.0, 5e-324, 1e-310, math.inf, math.nan, -1.0, 2.5]
    if d <= 2:
        cases = []
        for v in specials:
            for where in np.ndindex(d, d):
                m = np.diag([4.0, 3.0][:d])
                m[where] = v
                cases.append(m)
        mats = np.stack(cases)
        factors = np.stack([_cholesky_one(m, jitter) for m in mats])
        expected = 2.0 * sum(np.log(factors[:, j, j]) for j in range(d))
        np.testing.assert_array_equal(geometry._logdet(mats, jitter), expected)


def test_cholesky_makes_at_most_two_lapack_calls_per_stack(monkeypatch):
    """On a fig4a point where g does not factor at some nodes (two-species at
    delta_t = 50), each stack costs at most one LAPACK call plus one for the
    jitter; the 2x2 stacks go through potf2 element-wise and cost none."""
    model = two_species_model(TwoSpeciesConfig(epsilon=0.02, delta=0.02, delta_t=50.0, n_points=3))
    lapack_calls = []
    cholesky_lo = geometry._umath_linalg.cholesky_lo

    def counting_lo(*args, **kwargs):
        lapack_calls.append(1)
        return cholesky_lo(*args, **kwargs)

    per_stack = []
    failing_rows = []
    potf2 = geometry._potf2

    def counting_potf2(mats):
        before = len(lapack_calls)
        diag, l10, failed = potf2(mats)
        per_stack.append(len(lapack_calls) - before)
        failing_rows.append(int(failed.sum()))
        return diag, l10, failed

    monkeypatch.setattr(geometry._umath_linalg, "cholesky_lo", counting_lo)
    monkeypatch.setattr(geometry, "_potf2", counting_potf2)
    report = ei_geometric(model.g, model.h, model.theta_domain, nodes_per_axis=101)
    assert report.nats == -math.inf
    assert max(failing_rows) > 0
    assert per_stack and max(per_stack) <= 2
    assert len(lapack_calls) == sum(per_stack)


def _lapack_factor(stack: np.ndarray) -> np.ndarray:
    """The stack through the gufunc behind np.linalg.cholesky, flags ignored."""
    with np.errstate(all="ignore"):
        return geometry._umath_linalg.cholesky_lo(stack, signature="d->d")


@pytest.mark.parametrize("matrix", [np.eye(2), np.array([[1.0, 0.8], [0.7, 1.0]])])
def test_small_factor_matches_lapack_on_two_species_stacks(matrix):
    """The element-wise d <= 2 factor equals LAPACK's bit for bit on the g,
    g + h and h stacks that ei_geometric factors for two-species, from short
    intervals to delta_t = 50, where g does not factor at some nodes."""
    failing = 0
    for delta_t in (0.02, 0.1, 1.0, 5.0, 13.57, 20.0, 50.0):
        model = two_species_model(
            TwoSpeciesConfig(epsilon=0.02, delta=0.02, delta_t=delta_t, matrix=matrix)
        )
        pts = _field_grid(model.theta_domain, 101)[0]
        g_stack, h_stack = model.g.batch(pts), model.h.batch(pts)
        for stack in (g_stack, g_stack + h_stack, h_stack):
            expected = _lapack_factor(stack)
            np.testing.assert_array_equal(geometry._potrf(stack), expected)
            failing += int(np.isnan(expected).all(axis=(1, 2)).sum())
    assert failing > 0


def test_small_factor_matches_lapack_on_edge_entries():
    """Zero and -0.0 pivots, subnormals, infinities, a second pivot of exactly
    0 and a NaN in each entry, at d = 1 and d = 2: the factor, its zero upper
    triangle and its all-NaN failures are LAPACK's."""
    specials = [0.0, -0.0, 5e-324, 1e-310, math.inf, -math.inf, math.nan, -1.0]
    scalars = np.array(specials + [2.5, 1e-300, 1e300])[:, None, None]
    np.testing.assert_array_equal(geometry._potrf(scalars), _lapack_factor(scalars))

    # [[4, 2], [2, 1]] has c - l10 * l10 == 0 exactly: 2 * (1 / 2) = 1.
    bases = [np.array([[4.0, 2.0], [2.0, 3.0]]), np.array([[4.0, 2.0], [2.0, 1.0]])]
    bases += [np.array([[1.0, 3.0], [3.0, 9.0]]), np.array([[2.0, 0.0], [0.0, 5.0]])]
    cases = list(bases)
    for base in bases:
        for where in ((0, 0), (1, 0), (0, 1), (1, 1)):
            for v in specials:
                m = base.copy()
                m[where] = v
                cases.append(m)
    mats = np.stack(cases)
    expected = _lapack_factor(mats)
    np.testing.assert_array_equal(geometry._potrf(mats), expected)
    failed = np.isnan(expected).all(axis=(1, 2))
    assert failed[1] and failed.any() and not failed.all()
    assert np.all(expected[~failed, 0, 1] == 0.0)


def _count_lapack_calls(monkeypatch) -> list:
    calls = []
    cholesky_lo = geometry._umath_linalg.cholesky_lo

    def counting_lo(*args, **kwargs):
        calls.append(1)
        return cholesky_lo(*args, **kwargs)

    monkeypatch.setattr(geometry._umath_linalg, "cholesky_lo", counting_lo)
    return calls


def test_small_stacks_make_no_lapack_call(monkeypatch):
    """A d = 2 stack with failing and jitter-recovered rows is factored
    without the gufunc."""
    stack = np.stack([np.eye(2), np.diag([1.0, -1e-20]), np.diag([1.0, -1.0])] * 4)
    calls = _count_lapack_calls(monkeypatch)
    chol = _cholesky(stack, jitter=True)
    assert not calls
    assert np.isnan(chol[2::3]).all() and not np.isnan(chol[1::3]).any()


def test_large_stacks_make_at_most_two_lapack_calls(monkeypatch):
    """A d = 3 stack with failing rows costs one gufunc call plus one for the
    jitter retry."""
    rng = np.random.default_rng(31)
    stack = np.stack([spd(rng, 3), np.diag([1.0, 1.0, -1e-20]), np.diag([1.0, 1.0, -1.0])] * 4)
    calls = _count_lapack_calls(monkeypatch)
    chol = _cholesky(stack, jitter=True)
    assert 1 <= len(calls) <= 2
    assert np.isnan(chol[2::3]).all() and not np.isnan(chol[1::3]).any()


def test_mismatch_field_matches_pointwise():
    rng = np.random.default_rng(5)
    g = constant_metric(spd(rng, 2), 2)
    h = constant_metric(spd(rng, 2), 2)
    field = mismatch(g, h)
    theta = np.array([0.2, 0.8])
    assert field(theta) == pytest.approx(mismatch_at(g(theta), h(theta)), rel=1e-14)


def test_causal_eigenvalues_descending_and_match_generalized_solver():
    rng = np.random.default_rng(23)
    g_mat, h_mat = spd(rng, 3), spd(rng, 3)
    report = causal_eigenvalues(constant_metric(g_mat, 3), constant_metric(h_mat, 3), np.zeros(3))
    assert np.all(np.diff(report.eigenvalues) <= 0)
    ref = np.sort(linalg.eigh(g_mat, h_mat, eigvals_only=True))[::-1]
    np.testing.assert_allclose(report.eigenvalues, ref, rtol=1e-12)


def test_reparameterize_identity_map_is_noop():
    rng = np.random.default_rng(2)
    g = constant_metric(spd(rng, 2), 2)
    phi = SmoothMap(func=lambda t: t, jacobian=lambda t: np.eye(2))
    g2 = reparameterize(g, phi)
    theta = np.array([0.4, 0.6])
    np.testing.assert_allclose(g2(theta), g(theta), rtol=1e-15)


def test_reparameterize_scaling_quadruples_constant_metric():
    # theta = 2 theta' pulls a constant 1D metric back to 4x its value.
    g = constant_metric(np.array([[3.0]]), 1)
    phi = SmoothMap(func=lambda t: 2.0 * t, jacobian=lambda t: np.array([[2.0]]))
    g2 = reparameterize(g, phi)
    assert g2(0.1)[0, 0] == pytest.approx(12.0, rel=1e-14)


def test_pencil_spectrum_invariant_under_reparameterization():
    """Transforming g and h together leaves the h^-1 g spectrum unchanged;
    the spectrum of g alone moves."""
    rng = np.random.default_rng(17)
    g_mat, h_mat = spd(rng, 2), spd(rng, 2)
    g = constant_metric(g_mat, 2)
    h = constant_metric(h_mat, 2)
    b = np.array([[0.5, 0.2], [-0.1, 0.8]])

    def func(t):
        return b @ t + 0.1 * np.tanh(t)

    def jacobian(t):
        return b + 0.1 * np.diag(1.0 / np.cosh(t) ** 2)

    phi = SmoothMap(func=func, jacobian=jacobian)
    theta_new = np.array([0.3, -0.2])
    theta = func(theta_new)

    before = causal_eigenvalues(g, h, theta).eigenvalues
    after = causal_eigenvalues(reparameterize(g, phi), reparameterize(h, phi), theta_new).eigenvalues
    np.testing.assert_allclose(after, before, rtol=1e-8)

    g_alone_before = np.sort(np.linalg.eigvalsh(g(theta)))
    g_alone_after = np.sort(np.linalg.eigvalsh(reparameterize(g, phi)(theta_new)))
    assert np.max(np.abs(g_alone_after / g_alone_before - 1.0)) > 0.10


@pytest.mark.parametrize(
    "cfg",
    [
        TwoSpeciesConfig(epsilon=1e-2, delta=1e-2),
        # g fails to factor at some nodes here; there is no retry for g alone
        TwoSpeciesConfig(epsilon=0.02, delta=0.02, delta_t=50.0, matrix=np.array([[1.0, 0.8], [0.7, 1.0]])),
    ],
)
def test_two_species_ei_geometric_factors_the_constant_h_once(monkeypatch, cfg):
    """The constant h reaches the factorization as one row; g + h and g as
    one row per grid node each."""
    rows = []
    potf2 = geometry._potf2

    def counting(mats):
        rows.append(math.prod(mats.shape[:-2]))
        return potf2(mats)

    model = two_species_model(cfg)
    expected = ei_geometric(model.g, model.h, model.theta_domain)
    monkeypatch.setattr(geometry, "_potf2", counting)
    report = ei_geometric(model.g, model.h, model.theta_domain)
    assert rows == [1, 101 * 102, 101 * 102]
    assert report == expected
