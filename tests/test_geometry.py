"""Metric fields, mismatch, eigen-spectra, and reparameterization."""

import math
import re
import tracemalloc
import types

import numpy as np
import pytest
from scipy import linalg

from causalgeom import (
    ConstantIsotropic,
    DegenerateModelError,
    Domain,
    GaussianChannel,
    IllPosedInterventionsError,
    MetricField,
    TwoSpeciesConfig,
    UniformBox,
    causal_eigenvalues,
    constant_metric,
    effect_metric,
    ei_geometric,
    mismatch_at,
    reparameterize,
    two_species_model,
)
from causalgeom import ei, geometry
from causalgeom.ei import _field_mesh
from causalgeom.geometry import _entries, _logdet, _mismatch_batch, _require_factored
from reference import intervention_metric, invert_uniform_prior

UNIT = Domain(((0.0, 1.0),))


def spd(rng, d: int) -> np.ndarray:
    a = rng.normal(size=(d, d))
    return a @ a.T + 0.1 * np.eye(d)


def chol_logdet(m: np.ndarray) -> float:
    """log det of one matrix with the one jitter, raising where it does not factor."""
    logdet = _logdet(_entries(np.asarray(m, dtype=float)[None]), jitter=True)
    _require_factored(logdet, None, "matrix")
    return float(logdet[0])


def mismatch(g: MetricField, h: MetricField, points: np.ndarray) -> np.ndarray:
    """The mismatch of two fields at points (n, d), each read through its batch."""
    return _mismatch_batch(_entries(g.batch(points)), _entries(h.batch(points)), tuple(points.T))


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
    h = intervention_metric(invert_uniform_prior(ConstantIsotropic(delta), UniformBox(UNIT)))
    assert h(0.5)[0, 0] == pytest.approx(1.0 / delta**2, rel=1e-6)


def test_metric_symmetry():
    rng = np.random.default_rng(3)
    m = constant_metric(spd(rng, 3))
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
        return MetricField.from_batch(lambda pts: stack[pts[:, 0].astype(int)], 2)

    expected = np.array([mismatch_at(g_mat, h_mat) for g_mat, h_mat in zip(g_stack, h_stack)])
    assert np.all(np.isinf(expected) == (picks > 0))
    np.testing.assert_array_equal(_mismatch_batch(_entries(g_stack), _entries(h_stack)), expected)
    np.testing.assert_array_equal(mismatch(field(g_stack), field(h_stack), points), expected)

    ld_g = _logdet(_entries(g_stack))
    assert np.all(np.isnan(ld_g) == (picks > 0))
    chol = np.linalg.cholesky(g_stack[picks == 0])
    np.testing.assert_array_equal(ld_g[picks == 0], _pivot_logdet(_entries(g_stack[picks == 0]), chol, False))

    h_stack[5] = np.diag([-2.0, 0.0])  # g + h indefinite at node 5 whatever g is there
    with pytest.raises(DegenerateModelError, match=r"g \+ h .* at \[5\. 0\.\]"):
        mismatch(field(g_stack), field(h_stack), points)


def _cholesky_one(m: np.ndarray, jitter: bool) -> np.ndarray:
    """One matrix alone through np.linalg.cholesky, with the one jitter retry."""
    try:
        return np.linalg.cholesky(m)
    except np.linalg.LinAlgError:
        pass
    if jitter:
        d = m.shape[-1]
        try:
            with np.errstate(invalid="ignore"):  # an infinite trace times the eye's zeros
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


# |log det - 2 * sum log diag(L)| in ulps of 1 + sum |log pivot|: measured at
# most 1.88 on the fig4 grids of g and g + h and 1.61 on 200,000 random SPD 2 x 2
# matrices. Taking the root of a pivot rounds it, which moves its log by up to
# one ulp of 1 after the doubling.
PIVOT_ULPS = 2.0


def _pivots_with_retry(entries, jitter: bool):
    """potf2's pivots of each matrix, or of its jittered form where it fails
    and ``jitter`` is on, and where the matrix then still fails."""
    pivots, failed = geometry._potf2(entries)
    if jitter:
        retry, still = geometry._potf2(geometry._jittered(entries))
        pivots = [np.where(failed, r, p) for p, r in zip(pivots, retry)]
        failed = failed & still
    return pivots, failed


def _pivot_logdet(entries, factors: np.ndarray, jitter: bool) -> np.ndarray:
    """The in-order sum of the logs of the potf2 pivots of each d <= 2 matrix
    (n, d, d) given by ``entries``, with the one jitter retry, NaN where it
    fails; checked against ``factors``, LAPACK's factors of the same matrices
    with the same retry. The square root of each pivot is the factor's
    diagonal bit for bit; the log det is 2 * the in-order sum of the logs of
    that diagonal within PIVOT_ULPS ulps of 1 + sum |log pivot|."""
    pivots, failed = _pivots_with_retry(entries, jitter)
    with np.errstate(all="ignore"):
        for j, pivot in enumerate(pivots):
            np.testing.assert_array_equal(np.where(failed, np.nan, np.sqrt(pivot)), factors[:, j, j])
        logs = [np.log(p) for p in pivots]
        logdet = np.where(failed, np.nan, sum(logs[1:], logs[0]))
        from_factor = 2.0 * sum(np.log(factors[:, j, j]) for j in range(len(pivots)))
        np.testing.assert_array_equal(np.isnan(logdet), np.isnan(from_factor))
        finite = np.isfinite(logdet)
        np.testing.assert_array_equal(logdet[~finite], from_factor[~finite])
        scale = 1.0 + sum(np.abs(term) for term in logs)
        gap = np.abs(logdet - from_factor)[finite] / (np.finfo(float).eps * scale[finite])
    assert gap.max(initial=0.0) <= PIVOT_ULPS
    return logdet


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("jitter", [False, True])
def test_logdet_is_twice_the_log_diagonal_of_each_factor(d, jitter):
    """On shuffled SPD, singular, jitter-recoverable, indefinite and
    NaN-holding matrices, with factors from np.linalg.cholesky on each matrix
    alone: for d <= 2 the log det is the in-order sum of the logs of the
    potf2 pivots bit for bit, each pivot the square of the factor's diagonal
    (see _pivot_logdet); for d = 3 it is 2 * the in-order sum of the logs of
    that diagonal bit for bit. NaN where the matrix does not factor."""
    stack = _edge_stack(d)
    factors = np.stack([_cholesky_one(m, jitter) for m in stack])
    if d <= 2:
        expected = _pivot_logdet(_entries(stack), factors, jitter)
    else:
        expected = 2.0 * sum(np.log(factors[:, j, j]) for j in range(d))
    logdet = geometry._logdet(_entries(stack), jitter)
    np.testing.assert_array_equal(logdet, expected)
    assert np.isnan(logdet).any() and not np.isnan(logdet).all()
    # The jitter recovers some rows above d = 1; a 1x1 jitter has the sign of the entry.
    recovered = ~np.isnan(_logdet(_entries(stack), True))
    assert (recovered & np.isnan(_logdet(_entries(stack)))).any() == (d > 1)
    # and with zero, -0.0, subnormal, tiny, huge, infinite, NaN and negative
    # entries in each place; [[4, 2], [2, 1]] has c - l10 * l10 == 0 exactly:
    # 2 * (1 / 2) = 1.
    specials = [0.0, -0.0, 5e-324, 1e-310, 1e-300, 1e300, math.inf, -math.inf, math.nan, -1.0, 2.5]
    if d <= 2:
        bases = [np.diag([4.0, 3.0][:d])] + [np.array([[4.0, 2.0], [2.0, 1.0]])] * (d - 1)
        cases = list(bases)
        for base in bases:
            for v in specials:
                for where in np.ndindex(d, d):
                    m = base.copy()
                    m[where] = v
                    cases.append(m)
        mats = np.stack(cases)
        factors = np.stack([_cholesky_one(m, jitter) for m in mats])
        logdet = geometry._logdet(_entries(mats), jitter)
        np.testing.assert_array_equal(logdet, _pivot_logdet(_entries(mats), factors, jitter))
        if d == 2:  # the exact-zero pivot fails, and the jitter recovers it
            assert np.isnan(logdet[1]) != jitter


def _cubic_metric(points: np.ndarray) -> np.ndarray:
    """diag(1, 1, -1 - 2^-52) where theta_0 < 0.3 on points (n, 3), else the identity.

    Plus the identity it fails to factor by one ulp, and the jitter recovers it.
    """
    out = np.broadcast_to(np.eye(3), (points.shape[0], 3, 3)).copy()
    out[:, 2, 2] = np.where(points[:, 0] < 0.3, -1.0 - 2.0**-52, 1.0)
    return out


def test_cholesky_makes_at_most_two_lapack_calls_per_stack(monkeypatch):
    """Each log det the geometric estimator takes costs at most one LAPACK
    call plus one for the jitter retry (the retry's own _logdet call
    included), counted per outermost _logdet call. On a fig4a point where g
    does not factor at some nodes (two-species at delta_t = 50) the 2x2
    metrics go through potf2 and cost none; with 3x3 metrics, where g fails
    and g + h factors only with the jitter, the g + h log det costs two."""
    cubic = types.SimpleNamespace(
        g=MetricField.from_batch(_cubic_metric, 3),
        h=constant_metric(np.eye(3)),
        theta_domain=Domain(((0.0, 1.0),) * 3),
    )
    cases = [
        (two_species_model(TwoSpeciesConfig(epsilon=0.02, delta=0.02, delta_t=50.0, n_points=3)), 101, [0, 0, 0]),
        (cubic, 9, [1, 2, 1]),  # h, g + h with its retry, g
    ]
    lapack_calls = _count_lapack_calls(monkeypatch)
    per_call = []
    depth = []
    logdet = geometry._logdet

    def counting_logdet(entries, jitter=False):
        before = len(lapack_calls)
        depth.append(1)
        try:
            return logdet(entries, jitter)
        finally:
            depth.pop()
            if not depth:
                per_call.append(len(lapack_calls) - before)

    monkeypatch.setattr(geometry, "_logdet", counting_logdet)
    monkeypatch.setattr(ei, "_logdet", counting_logdet)
    for model, nodes, want in cases:
        lapack_calls.clear()
        per_call.clear()
        report = ei_geometric(model.g, model.h, model.theta_domain, nodes_per_axis=nodes)
        assert report.nats == -math.inf
        assert per_call == want and len(lapack_calls) == sum(per_call)


def _lapack_factor(stack: np.ndarray) -> np.ndarray:
    """The stack through the gufunc behind np.linalg.cholesky, flags ignored."""
    with np.errstate(all="ignore"):
        return geometry._umath_linalg.cholesky_lo(stack, signature="d->d")


def _count_lapack_calls(monkeypatch) -> list:
    calls = []
    cholesky_lo = geometry._umath_linalg.cholesky_lo

    def counting_lo(*args, **kwargs):
        calls.append(1)
        return cholesky_lo(*args, **kwargs)

    monkeypatch.setattr(geometry._umath_linalg, "cholesky_lo", counting_lo)
    return calls


def test_small_stacks_make_no_lapack_call(monkeypatch):
    """The log det of a d = 2 stack with failing and jitter-recovered rows
    is taken without the gufunc."""
    stack = np.stack([np.eye(2), np.diag([1.0, -1e-20]), np.diag([1.0, -1.0])] * 4)
    calls = _count_lapack_calls(monkeypatch)
    logdet = _logdet(_entries(stack), jitter=True)
    assert not calls
    assert np.isnan(logdet[2::3]).all() and not np.isnan(logdet[1::3]).any()


def test_large_stacks_make_at_most_two_lapack_calls(monkeypatch):
    """The log det of a d = 3 stack with failing rows costs one gufunc call
    plus one for the jitter retry."""
    rng = np.random.default_rng(31)
    stack = np.stack([spd(rng, 3), np.diag([1.0, 1.0, -1e-20]), np.diag([1.0, 1.0, -1.0])] * 4)
    calls = _count_lapack_calls(monkeypatch)
    logdet = _logdet(_entries(stack), jitter=True)
    assert 1 <= len(calls) <= 2
    assert np.isnan(logdet[2::3]).all() and not np.isnan(logdet[1::3]).any()


def test_mismatch_field_matches_pointwise():
    rng = np.random.default_rng(5)
    g = constant_metric(spd(rng, 2))
    h = constant_metric(spd(rng, 2))
    theta = np.array([0.2, 0.8])
    assert mismatch(g, h, theta[None])[0] == pytest.approx(mismatch_at(g(theta), h(theta)), rel=1e-14)


def test_causal_eigenvalues_descending_and_match_generalized_solver():
    rng = np.random.default_rng(23)
    g_mat, h_mat = spd(rng, 3), spd(rng, 3)
    values = causal_eigenvalues(constant_metric(g_mat), constant_metric(h_mat), np.zeros(3))
    assert np.all(np.diff(values) <= 0)
    ref = np.sort(linalg.eigh(g_mat, h_mat, eigvals_only=True))[::-1]
    np.testing.assert_allclose(values, ref, rtol=1e-12)


def _whitened_eigenvalues(g_mat: np.ndarray, h_mat: np.ndarray) -> np.ndarray:
    """Eigenvalues of h^-1 g, descending, through np.linalg.cholesky whitening of h."""
    chol = np.linalg.cholesky(h_mat)
    whitened = np.linalg.solve(chol, np.linalg.solve(chol, g_mat).T)
    return np.linalg.eigh(0.5 * (whitened + whitened.T))[0][::-1]


@pytest.mark.parametrize("matrix", [np.eye(2), np.array([[1.0, 0.8], [0.7, 1.0]])])
def test_two_species_causal_eigenvalues_match_a_whitening_reference(matrix):
    model = two_species_model(TwoSpeciesConfig(epsilon=0.02, delta=0.02, matrix=matrix))
    for theta in ([0.3, 0.7], [0.05, 0.9], [0.5, 0.5]):
        theta = np.array(theta)
        values = causal_eigenvalues(model.g, model.h, theta)
        np.testing.assert_array_equal(values, _whitened_eigenvalues(model.g(theta), model.h(theta)))


def test_causal_eigenvalues_retry_h_once_with_the_jitter():
    """An h = diag(1, -1e-20) that only the one jitter factors gives the
    eigenvalues of the jittered h; an indefinite h raises."""
    g = constant_metric(np.array([[2.0, 0.5], [0.5, 1.0]]))
    h_mat = np.diag([1.0, -1e-20])
    with pytest.raises(np.linalg.LinAlgError):
        np.linalg.cholesky(h_mat)
    jittered = h_mat + (1e-12 * (1.0 - 1e-20) / 2) * np.eye(2)
    values = causal_eigenvalues(g, constant_metric(h_mat), np.zeros(2))
    assert np.all(np.isfinite(values))
    np.testing.assert_array_equal(values, _whitened_eigenvalues(g(np.zeros(2)), jittered))
    with pytest.raises(IllPosedInterventionsError, match="intervention metric is singular"):
        causal_eigenvalues(g, constant_metric(np.diag([1.0, -1.0])), np.zeros(2))


def test_reparameterize_identity_map_is_noop():
    rng = np.random.default_rng(2)
    g = constant_metric(spd(rng, 2))
    g2 = reparameterize(g, lambda t: t, lambda t: np.eye(2))
    theta = np.array([0.4, 0.6])
    np.testing.assert_allclose(g2(theta), g(theta), rtol=1e-15)


def test_reparameterize_scaling_quadruples_constant_metric():
    # theta = 2 theta' pulls a constant 1D metric back to 4x its value.
    g = constant_metric(np.array([[3.0]]))
    g2 = reparameterize(g, lambda t: 2.0 * t, lambda t: np.array([[2.0]]))
    assert g2(0.1)[0, 0] == pytest.approx(12.0, rel=1e-14)


def test_pencil_spectrum_invariant_under_reparameterization():
    """Transforming g and h together leaves the h^-1 g spectrum unchanged;
    the spectrum of g alone moves."""
    rng = np.random.default_rng(17)
    g_mat, h_mat = spd(rng, 2), spd(rng, 2)
    g = constant_metric(g_mat)
    h = constant_metric(h_mat)
    b = np.array([[0.5, 0.2], [-0.1, 0.8]])

    def func(t):
        return b @ t + 0.1 * np.tanh(t)

    def jacobian(t):
        return b + 0.1 * np.diag(1.0 / np.cosh(t) ** 2)

    theta_new = np.array([0.3, -0.2])
    theta = func(theta_new)

    before = causal_eigenvalues(g, h, theta)
    after = causal_eigenvalues(reparameterize(g, func, jacobian), reparameterize(h, func, jacobian), theta_new)
    np.testing.assert_allclose(after, before, rtol=1e-8)

    g_alone_before = np.sort(np.linalg.eigvalsh(g(theta)))
    g_alone_after = np.sort(np.linalg.eigvalsh(reparameterize(g, func, jacobian)(theta_new)))
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

    def counting(entries):
        rows.append(np.broadcast(*entries).size)
        return potf2(entries)

    model = two_species_model(cfg)
    expected = ei_geometric(model.g, model.h, model.theta_domain)
    monkeypatch.setattr(geometry, "_potf2", counting)
    report = ei_geometric(model.g, model.h, model.theta_domain)
    assert rows == [1, 101 * 102, 101 * 102]
    assert report == expected


@pytest.mark.parametrize("delta_t", [0.914, 50.0])
def test_two_species_constant_h_weighs_as_the_same_h_per_node(delta_t):
    """At fig4a settings the two-species constant h, whose sqrt(det h) is one
    0-d value broadcast to the grid, gives the estimate that the same h given
    at every node (MetricField.from_batch) gives, within 1e-13 nats in each
    term; at delta_t = 50, where g does not factor at some nodes, both are
    -inf."""
    model = two_species_model(TwoSpeciesConfig(epsilon=0.02, delta=0.02, delta_t=delta_t))
    per_node = MetricField.from_batch(model.h.batch, 2)
    assert [np.shape(e) for e in per_node.entries(_field_mesh(model.theta_domain, 101)[0])] == [(101, 102)] * 3
    constant = ei_geometric(model.g, model.h, model.theta_domain)
    batch = ei_geometric(model.g, per_node, model.theta_domain)
    if delta_t == 50.0:
        assert constant.nats == batch.nats == -math.inf
    else:
        for name in ("nats", "volume_term", "mean_mismatch"):
            assert abs(getattr(constant, name) - getattr(batch, name)) <= 1e-13, name


SKEWED = np.array([[1.0, 0.8], [0.7, 1.0]])


def _grid(domain: Domain, nodes_per_axis: int = 101):
    """The estimator's open mesh, flattened nodes and nodes in grid shape."""
    mesh = _field_mesh(domain, nodes_per_axis)[0]
    nodes = np.stack(np.broadcast_arrays(*mesh), axis=-1)
    return mesh, nodes.reshape(-1, domain.dim), nodes


def _stack_logdet(stack: np.ndarray, jitter: bool) -> np.ndarray:
    """log det of each 2 x 2 matrix of a stack from its potf2 pivots, checked
    against LAPACK's factors (see _pivot_logdet), with one retry of the
    failing ones at 1e-12 * trace / 2 added to the diagonal."""
    chol = _lapack_factor(stack)
    failed = np.isnan(chol).all(axis=(1, 2))
    if jitter and failed.any():
        retry = stack[failed]
        shift = (1e-12 * (retry[:, 0, 0] + retry[:, 1, 1])) / 2
        chol[failed] = _lapack_factor(retry + shift[:, None, None] * np.eye(2))
    return _pivot_logdet(_entries(stack), chol, jitter)


@pytest.mark.parametrize("matrix", [np.eye(2), SKEWED])
def test_two_species_grid_entries_and_mismatch_match_the_stacks(matrix):
    """On the 101 x 102 grid, from short intervals to delta_t = 50 (where g
    does not factor at some nodes): the grid entries of g and h equal the
    entries of their batch stacks bit for bit, g00 and g11 stay vectors along
    their own axis and h's are scalars; the mismatch from the entries equals
    the arithmetic on the pivots of the full g + h and g stacks, whose roots
    are LAPACK's factor diagonal (see _stack_logdet)."""
    singular = 0
    for delta_t in (0.02, 0.1, 1.0, 5.0, 13.57, 20.0, 50.0):
        model = two_species_model(
            TwoSpeciesConfig(epsilon=0.02, delta=0.02, delta_t=delta_t, matrix=matrix)
        )
        mesh, pts, nodes = _grid(model.theta_domain)
        shape = nodes.shape[:-1]
        g_grid, h_grid = model.g.entries(mesh), model.h.entries(mesh)
        g_stack, h_stack = model.g.batch(pts), model.h.batch(pts)
        assert [np.shape(e) for e in g_grid] == [(101, 1), shape, (1, 102)]
        assert [np.shape(e) for e in h_grid] == [(), (), ()]
        for grid, stack in ((g_grid, g_stack), (h_grid, h_stack)):
            for entry, expected in zip(grid, _entries(stack.reshape(shape + (2, 2)))):
                np.testing.assert_array_equal(np.broadcast_to(entry, shape), expected)

        ld_g = _stack_logdet(g_stack, False)
        expected = np.where(np.isnan(ld_g), math.inf, 0.5 * (_stack_logdet(g_stack + h_stack, True) - ld_g))
        l_vals = _mismatch_batch(g_grid, h_grid, mesh)
        assert l_vals.shape == shape
        np.testing.assert_array_equal(l_vals.reshape(-1), expected)
        singular += int(np.isinf(expected).sum())
    assert singular > 0


# The fig4 sweep (np.geomspace(0.02, 50, 25)) at 0.02, 0.0277, 13.57 and 50:
# both ends, the cell whose 2d value is round-off, and the first where g fails.
FIG4_DELTA_T = np.geomspace(0.02, 50.0, 25)[[0, 1, 20, 24]]


@pytest.mark.parametrize("matrix", [np.eye(2), SKEWED])
def test_fig4_pivot_roots_are_lapack_factor_diagonals(matrix):
    """On the fig4 grids, the square roots of the potf2 pivots of g and of
    g + h, taken on the grid entries, are the diagonal of the gufunc behind
    np.linalg.cholesky on the stacked matrices bit for bit, and potf2 fails
    exactly where that factor is NaN. This pins the pivot arithmetic:
    c - b * b / a in place of c - l10 * l10 moves last bits on these grids."""
    failing = 0
    for delta_t in FIG4_DELTA_T:
        model = two_species_model(TwoSpeciesConfig(epsilon=0.02, delta=0.02, delta_t=delta_t, matrix=matrix))
        mesh, pts, nodes = _grid(model.theta_domain)
        shape = nodes.shape[:-1]
        g_grid, h_grid = model.g.entries(mesh), model.h.entries(mesh)
        g_stack, h_stack = model.g.batch(pts), model.h.batch(pts)
        sum_grid = tuple(g_e + h_e for g_e, h_e in zip(g_grid, h_grid))
        for entries, stack in ((g_grid, g_stack), (sum_grid, g_stack + h_stack)):
            pivots, failed = geometry._potf2(entries)
            failed = np.broadcast_to(failed, shape).reshape(-1)
            chol = _lapack_factor(stack)
            np.testing.assert_array_equal(failed, np.isnan(chol).all(axis=(1, 2)))
            for j, pivot in enumerate(pivots):
                with np.errstate(invalid="ignore"):
                    root = np.sqrt(np.broadcast_to(pivot, shape)).reshape(-1)
                np.testing.assert_array_equal(root[~failed], chol[~failed, j, j])
            failing += int(failed.sum())
    assert failing > 0


def _split_field(c_of_theta2, h11: float):
    """A 2-D g whose entries separate along the axes, g = diag(1, c(theta_2)),
    with the constant h = diag(1, h11)."""
    g = MetricField(lambda coords: (1.0, 0.0, c_of_theta2(coords[1])), 2)
    return g, constant_metric(np.diag([1.0, h11]))


def test_grid_path_retries_failing_g_plus_h_nodes_with_the_jitter(monkeypatch):
    """g + h = diag(2, -1e-20) for theta_2 > 0.75: those nodes fail the first
    factorization and the one jitter recovers them, gathered into one small
    stack; g fails there too, so the mismatch is +inf. The grid path agrees
    with the stack path of the mismatch field. A g + h the jitter cannot
    recover raises, naming the first failing node of the grid."""
    square = Domain(((0.0, 1.0), (0.0, 1.0)))
    g, h = _split_field(lambda t2: np.where(t2 > 0.75, -2e-20, 1.0), 1e-20)
    mesh, pts, nodes = _grid(square)
    failing = int(np.sum(mesh[1] > 0.75))
    rows = []
    potf2 = geometry._potf2

    def counting(entries):
        rows.append(np.broadcast(*entries).size)
        return potf2(entries)

    monkeypatch.setattr(geometry, "_potf2", counting)
    l_vals = _mismatch_batch(g.entries(mesh), h.entries(mesh), mesh)
    assert rows == [102, failing, 102]  # g + h, its jitter retry, g
    expected = mismatch(g, h, pts).reshape(nodes.shape[:-1])
    np.testing.assert_array_equal(np.broadcast_to(l_vals, expected.shape), expected)
    assert np.isinf(expected).sum() == 101 * failing and np.isfinite(expected).any()
    assert ei_geometric(g, h, square).nats == -math.inf

    g, h = _split_field(lambda t2: np.where(t2 > 0.75, -2.0, 1.0), 1.0)
    first = nodes[0, int(np.argmax(mesh[1][0] > 0.75))]
    with pytest.raises(DegenerateModelError, match=re.escape(f"g + h is not positive definite at {first}")):
        ei_geometric(g, h, square)


def test_two_species_estimate_builds_no_matrix_stack(monkeypatch):
    """At every factorization inside a 2-D two-species estimate, no live block
    traced since the call began is as large as an (N, 2, 2) stack, while the
    per-node vectors (N,) are live: the metrics never exist as stacks."""
    model = two_species_model(TwoSpeciesConfig(epsilon=0.02, delta=0.02, delta_t=50.0, matrix=SKEWED))
    expected = ei_geometric(model.g, model.h, model.theta_domain)
    n_nodes = 101 * 102
    largest = []
    potf2 = geometry._potf2

    def snapshotting(entries):
        largest.append(max(t.size for t in tracemalloc.take_snapshot().traces))
        return potf2(entries)

    monkeypatch.setattr(geometry, "_potf2", snapshotting)
    tracemalloc.start()
    try:
        report = ei_geometric(model.g, model.h, model.theta_domain)
    finally:
        tracemalloc.stop()
    assert report == expected
    assert len(largest) == 3
    assert max(largest) < n_nodes * 2 * 2 * 8
    assert max(largest) >= n_nodes * 8
