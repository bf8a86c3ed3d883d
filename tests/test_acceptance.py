"""End-to-end acceptance gate.

Each test prints exactly one PASS/FAIL line with the measured numbers, then
asserts. Structural targets (crossing counts, winner sequences) are checked
as orderings; numeric anchors carry their tolerances inline.
"""

import math
import time

import numpy as np
from scipy import linalg

from causalgeom import (
    MonteCarloSpec,
    SweepSpec,
    TwoSpeciesConfig,
    binary_switch_model,
    causal_eigenvalues,
    coarse_grained_ei,
    constant_metric,
    crossover_scan,
    decay_confounder_metrics,
    DecayConfounderConfig,
    diagonal_submanifold,
    antidiagonal_submanifold,
    dimmer_family,
    dimmer_model,
    ei_exact_mc,
    ei_exact_quadrature,
    ei_geometric,
    linear_profile,
    mismatch_at,
    pullback_field,
    reparameterize,
    two_species_model,
    weber_noise,
    weber_optimal_profile,
)
from causalgeom.ei import FLAG_NOT_CONVERGED

LN2 = math.log(2.0)


def check(criterion: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion:02d}: {detail}", flush=True)
    assert ok, f"criterion {criterion:02d}: {detail}"


def quad(model, **kw):
    return ei_exact_quadrature(model.x_set, model.noise_xt, model.ch_ty, **kw)


def two_species_curves(fixed: dict, sweep_to: dict):
    """Curve functions (full model and the equal-rates restriction) where the
    swept value lands in the config fields named by sweep_to."""

    def build(value):
        params = dict(fixed)
        for key in sweep_to:
            params[key] = value
        return two_species_model(TwoSpeciesConfig(**params))

    def full(value):
        m = build(value)
        return ei_geometric(m.g, m.h, m.theta_domain)

    def part(value):
        return coarse_grained_ei(build(value), diagonal_submanifold())

    return full, part


def test_criterion_01_two_point_switch_saturates_at_one_bit():
    start = time.perf_counter()
    model = binary_switch_model(1e-4, 1e-4)
    report = quad(model, check_convergence=False)
    elapsed = time.perf_counter() - start
    ok = abs(report.bits - 1.0) <= 0.002 and elapsed < 5.0
    check(1, ok, f"two-point switch gives {report.bits:.6f} bits (target 1.000 +/- 0.002) in {elapsed:.1f}s")


def test_criterion_02_small_noise_approximation_matches_quadrature():
    start = time.perf_counter()
    eps = delta = 0.03
    model = dimmer_model(linear_profile(), eps, delta)
    approx = ei_geometric(model.g, model.h, model.theta_domain)
    exact = quad(model)
    elapsed = time.perf_counter() - start
    anchor = 1.741
    rel = abs(exact.nats - approx.nats) / abs(exact.nats)
    ok = (
        rel <= 0.05
        and abs(approx.nats - anchor) <= 0.05 * anchor
        and abs(exact.nats - anchor) <= 0.05 * anchor
        and elapsed < 10.0
    )
    check(
        2,
        ok,
        f"linear response: small-noise geometric {approx.nats:.4f} vs quadrature {exact.nats:.4f} nats "
        f"(gap {100 * rel:.1f}%, anchor {anchor}) in {elapsed:.1f}s",
    )


def test_criterion_03_profile_family_peaks_at_the_linear_member():
    a_grid = np.linspace(-5.0, 5.0, 41)
    values = np.array(
        [quad(dimmer_family(a, 0.03, 0.03), check_convergence=False).nats for a in a_grid]
    )
    peak = int(np.argmax(values))
    center = int(np.argmin(np.abs(a_grid)))
    left = values[: center + 1]
    right = values[center:]
    ok = peak == center and np.all(np.diff(left) > 0) and np.all(np.diff(right) < 0)
    check(
        3,
        ok,
        f"family sweep peaks at a={a_grid[peak]:g} (expected 0) and falls off strictly on both sides",
    )


def test_criterion_04_continuous_versus_switch_crossover():
    start = time.perf_counter()
    noises = np.geomspace(1e-3, 0.5, 11)
    cont, disc = [], []
    for s in noises:
        cont.append(quad(dimmer_model(linear_profile(), s, s), check_convergence=False).nats)
        disc.append(quad(binary_switch_model(s, s), check_convergence=False).nats)
    diff = np.array(cont) - np.array(disc)
    flips = int(np.sum(np.sign(diff[:-1]) != np.sign(diff[1:])))
    elapsed = time.perf_counter() - start
    ok = diff[0] > 0 and diff[-1] < 0 and flips == 1 and elapsed < 60.0
    check(
        4,
        ok,
        f"continuous wins at 1e-3, switch wins at 0.5, {flips} crossing(s) in between, in {elapsed:.1f}s",
    )


def test_criterion_05_matched_profile_beats_linear_under_proportional_noise():
    noise = weber_noise(0.03)
    delta = 0.003
    best = quad(dimmer_model(weber_optimal_profile(0.1), noise, delta), check_convergence=False)
    base = quad(dimmer_model(linear_profile(), noise, delta), check_convergence=False)
    ok = best.nats > base.nats
    check(
        5,
        ok,
        f"matched profile {best.nats:.4f} nats > linear {base.nats:.4f} nats under proportional output noise",
    )


def test_criterion_06_volume_scaling_slopes():
    deltas = np.geomspace(3e-4, 3e-3, 5)
    full_vals, part_vals = [], []
    for d in deltas:
        model = two_species_model(TwoSpeciesConfig(epsilon=d, delta=d))
        full_vals.append(ei_geometric(model.g, model.h, model.theta_domain).nats)
        part_vals.append(coarse_grained_ei(model, diagonal_submanifold()).nats)
    x = np.log(deltas)
    slope_full = float(np.polyfit(x, full_vals, 1)[0])
    slope_part = float(np.polyfit(x, part_vals, 1)[0])
    ok = abs(slope_full + 2.0) <= 0.02 and abs(slope_part + 1.0) <= 0.02
    check(
        6,
        ok,
        f"geometric EI slope vs log noise: full {slope_full:.4f} (target -2.00 +/- 0.02), "
        f"restricted {slope_part:.4f} (target -1.00 +/- 0.02)",
    )


def test_criterion_07_noise_sweeps_each_show_one_crossover():
    start = time.perf_counter()
    sweep = SweepSpec.from_range("noise", 1e-3, 1.0, 13, log=True)
    base = dict(epsilon=1e-2, delta=1e-2, delta_t=1.0, n_points=3)
    cases = {
        "effect-noise sweep": ["epsilon"],
        "intervention-noise sweep": ["delta"],
        "joint sweep": ["epsilon", "delta"],
    }
    detail, ok = [], True
    for name, keys in cases.items():
        full, part = two_species_curves(base, dict.fromkeys(keys))
        scan = crossover_scan([("full", full), ("restricted", part)], sweep)
        one = len(scan.crossings) == 1
        coarse_wins_late = scan.argmax[-1] == "restricted"
        ok = ok and one and coarse_wins_late
        detail.append(f"{name}: {len(scan.crossings)} crossing(s), last winner {scan.argmax[-1]}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 120.0
    check(7, ok, "; ".join(detail) + f"; total {elapsed:.1f}s")


def regime_sequence(matrix) -> list[str]:
    sweep = SweepSpec.from_range("delta_t", 0.02, 50.0, 25, log=True)

    def build(dt):
        return two_species_model(
            TwoSpeciesConfig(epsilon=0.02, delta=0.02, delta_t=dt, matrix=np.asarray(matrix))
        )

    curves = [
        ("full", lambda v: (lambda m: ei_geometric(m.g, m.h, m.theta_domain))(build(v))),
        ("A", lambda v: coarse_grained_ei(build(v), diagonal_submanifold())),
        ("B", lambda v: coarse_grained_ei(build(v), antidiagonal_submanifold())),
    ]
    scan = crossover_scan(curves, sweep)
    collapsed = []
    for winner in scan.argmax:
        if winner is not None and (not collapsed or collapsed[-1] != winner):
            collapsed.append(winner)
    return collapsed, scan.argmax


def test_criterion_08_timescale_sweep_passes_through_three_regimes():
    collapsed, _ = regime_sequence(np.eye(2))
    ok = collapsed == ["A", "full", "B"]
    check(
        8,
        ok,
        f"winner sequence over the sampling-interval sweep is {'-'.join(collapsed)} (expected A-full-B)",
    )


def test_criterion_09_skewed_mixing_never_favors_the_full_model():
    _, argmax = regime_sequence([[1.0, 0.8], [0.7, 1.0]])
    wins = sum(1 for w in argmax if w == "full")
    check(
        9,
        wins == 0,
        f"with skewed mixing the full model is the per-point winner at {wins}/25 sweep points (expected 0)",
    )


def test_criterion_10_sampling_estimate_matches_geometric_route():
    start = time.perf_counter()
    model = two_species_model(TwoSpeciesConfig(epsilon=1e-2, delta=1e-2))
    geom = ei_geometric(model.g, model.h, model.theta_domain)
    mc = ei_exact_mc(model.x_set, model.noise_xt, model.ch_ty, MonteCarloSpec())
    elapsed = time.perf_counter() - start
    gap = abs(mc.nats - geom.nats)
    allowed = max(3.0 * mc.stderr, 0.05 * abs(geom.nats))
    ok = gap <= allowed and elapsed < 120.0
    check(
        10,
        ok,
        f"sampling {mc.nats:.4f} +/- {mc.stderr:.4f} vs geometric {geom.nats:.4f} nats "
        f"(gap {gap:.4f} <= {allowed:.4f}) in {elapsed:.1f}s",
    )


def test_criterion_11_spectrum_is_coordinate_invariant():
    model = two_species_model(TwoSpeciesConfig(epsilon=1e-2, delta=1e-2))
    worst_pencil, weakest_g_change = 0.0, math.inf
    for k in range(10):
        rng = np.random.default_rng(100 + k)
        b = 0.25 * (np.eye(2) + 0.3 * rng.uniform(-1.0, 1.0, (2, 2)))
        theta = rng.uniform(0.15, 0.85, 2)
        while abs(theta[0] - theta[1]) < 0.15:
            theta = rng.uniform(0.15, 0.85, 2)
        theta_new = rng.uniform(-0.5, 0.5, 2)
        shift = theta - b @ (theta_new + 0.1 * np.tanh(theta_new))

        def func(t):
            return shift + b @ (t + 0.1 * np.tanh(t))

        def jacobian(t):
            return b @ np.diag(1.0 + 0.1 / np.cosh(t) ** 2)

        before = causal_eigenvalues(model.g, model.h, theta)
        after = causal_eigenvalues(
            reparameterize(model.g, func, jacobian), reparameterize(model.h, func, jacobian), theta_new
        )
        worst_pencil = max(worst_pencil, float(np.max(np.abs(after / before - 1.0))))

        g_before = np.sort(np.linalg.eigvalsh(model.g(theta)))
        g_after = np.sort(np.linalg.eigvalsh(reparameterize(model.g, func, jacobian)(theta_new)))
        weakest_g_change = min(
            weakest_g_change, float(np.max(np.abs(g_after / g_before - 1.0)))
        )
    ok = worst_pencil <= 1e-8 and weakest_g_change > 0.10
    check(
        11,
        ok,
        f"10 smooth reparameterizations: joint-spectrum drift {worst_pencil:.2e} (<= 1e-8), "
        f"single-metric eigenvalues move >= {100 * weakest_g_change:.0f}% (> 10%)",
    )


def test_criterion_12_confounded_decay_metrics():
    cfg = DecayConfounderConfig(sigma_t=0.05, sigma_x=1.0, alpha=1.0, x_hat=1.0)
    mets = decay_confounder_metrics(cfg)
    thetas = np.linspace(0.1, 0.9, 9)
    caus = np.array([mets.h_caus(t)[0, 0] for t in thetas])
    constancy = float(np.max(np.abs(caus / caus[0] - 1.0)))
    stat = np.array([mets.h_stat(t)[0, 0] for t in thetas])
    varies = float(np.max(stat) - np.min(stat)) > 0.0
    series_ok = True
    for t in (0.2, 0.5, 0.8):
        numeric = mets.h_stat(t)[0, 0]
        series = mets.h_stat_series(t)
        series_ok = series_ok and abs(numeric - series) <= 0.2 * abs(series - caus[0])
    ok = constancy < 1e-12 and varies and series_ok
    check(
        12,
        ok,
        f"causal metric constant to {constancy:.1e}; observational metric varies across theta "
        f"and matches its small-ratio series within 20% of the deviation",
    )


def test_criterion_13_property_contracts():
    rng = np.random.default_rng(13)
    results = []

    a1, a2 = rng.normal(size=(2, 2)), rng.normal(size=(2, 2))
    g_mat = a1 @ a1.T + 0.1 * np.eye(2)
    h_mat = a2 @ a2.T + 0.1 * np.eye(2)
    lam = linalg.eigh(g_mat, h_mat, eigvals_only=True)
    results.append(
        abs(mismatch_at(g_mat, h_mat) - 0.5 * float(np.sum(np.log1p(1.0 / lam)))) < 1e-10
    )

    sub = diagonal_submanifold()
    m1 = constant_metric(g_mat)
    m2 = constant_metric(h_mat)
    combo = constant_metric(2.5 * g_mat + h_mat)
    pulled = [pullback_field(m, sub)(0.4) for m in (combo, m1, m2)]
    gap = np.max(np.abs(pulled[0] - 2.5 * pulled[1] - pulled[2]))
    results.append(gap < 1e-12)

    model = dimmer_model(linear_profile(), 0.1, 0.1)
    results.append(FLAG_NOT_CONVERGED not in quad(model).flags)

    spec = MonteCarloSpec(outer_samples=160, inner_samples=8, seed=5, batches=8)
    results.append(
        ei_exact_mc(model.x_set, model.noise_xt, model.ch_ty, spec)
        == ei_exact_mc(model.x_set, model.noise_xt, model.ch_ty, spec)
    )

    geom = ei_geometric(model.g, model.h, model.theta_domain)
    results.append(geom.nats == geom.volume_term - geom.mean_mismatch)

    names = [
        "mismatch-eigenvalue identity",
        "pullback linearity",
        "grid-doubling convergence",
        "seeded sampling determinism",
        "report decomposition",
    ]
    failed = [n for n, r in zip(names, results) if not r]
    check(13, not failed, "property contracts all hold" if not failed else f"failed: {failed}")
