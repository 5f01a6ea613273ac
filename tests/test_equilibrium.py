import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifedcrowd import (
    ClientProfile,
    NumericError,
    RateBox,
    RewardRates,
    ScenarioConfig,
    Strategy,
    SweepSpec,
    SystemParams,
    compute_equilibrium,
    d2u_dr1,
    d2u_dr2,
    du_dr1,
    du_dr2,
    feasible_rate_box,
    leader_objective,
    sample_population,
    solve_r1,
    solve_r2,
    verify_client_equilibrium,
    verify_server_equilibrium,
)
from ifedcrowd import equilibrium
from ifedcrowd.game_core import ACCURACY_MAX, ACCURACY_MIN, FRESHNESS_MAX

SINGLE = [ClientProfile(id=0, gamma=2.0, delta=1.0, t_min=1.0)]
PARAMS_1 = SystemParams(alpha=80.0, beta=50.0, comm_size=0.0, n=1)
THIRTY = [ClientProfile(id=k, gamma=2.0, delta=1.0, t_min=1.0) for k in range(30)]
PARAMS_30 = SystemParams(alpha=80.0, beta=50.0, comm_size=0.0, n=30)


def bisect(f, lo, hi, width=1e-12):
    """Plain bisection oracle, independent of the package solver."""
    flo = f(lo)
    assert flo * f(hi) < 0
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if flo * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def random_population(rng, n):
    return [
        ClientProfile(
            id=k,
            gamma=float(rng.uniform(1.0, 5.0)),
            delta=float(rng.uniform(1.0, 2.0)),
            t_min=float(rng.uniform(1.0, 3.0)),
        )
        for k in range(n)
    ]


# ------------------------------------------------------------- first derivative

def test_du_dr1_single_client_value():
    # equals 37.5 * exp(0.5) + 1 for this configuration
    assert du_dr1(SINGLE, PARAMS_1, 3.0) == pytest.approx(
        37.5 * math.exp(0.5) + 1.0, rel=1e-12
    )


def test_du_dr1_sign_change_for_thirty_clients():
    assert du_dr1(THIRTY, PARAMS_30, 2.2) > 0
    assert du_dr1(THIRTY, PARAMS_30, 2.5) < 0


def test_du_dr1_finite_when_all_responses_clamp_low():
    pop = [ClientProfile(id=k, gamma=8.0, delta=1.0, t_min=2.0) for k in range(5)]
    params = SystemParams(alpha=80.0, beta=50.0, comm_size=0.0, n=5)
    assert math.isfinite(du_dr1(pop, params, 1.0))


def test_du_dr2_single_client_value():
    assert du_dr2(SINGLE, PARAMS_1, 10.0) == pytest.approx(
        4.0 - math.log(10.0), rel=1e-12
    )


def test_du_dr2_negative_for_huge_rate():
    assert du_dr2(SINGLE, PARAMS_1, math.exp(49.0)) < 0


def test_du_dr2_at_r2_equal_delta():
    # the log term vanishes; the sign is beta/(n delta^2) - 1/delta
    profile = [ClientProfile(id=0, gamma=1.0, delta=1.0, t_min=1.0)]
    rich = SystemParams(alpha=1.0, beta=50.0, comm_size=0.0, n=1)
    poor = SystemParams(alpha=1.0, beta=0.5, comm_size=0.0, n=1)
    assert du_dr2(profile, rich, 1.0) == pytest.approx(49.0)
    assert du_dr2(profile, poor, 1.0) == pytest.approx(-0.5)


# ------------------------------------------------------------ second derivative

def test_d2u_dr1_single_client_value():
    # x (alpha t - n r - 2 gamma n t) / (n gamma^2 t^3) with x = exp(0.5):
    # (80 - 3 - 4) / 4 = 18.25; positive, so u is not concave in r1
    assert d2u_dr1(SINGLE, PARAMS_1, 3.0) == pytest.approx(
        18.25 * math.exp(0.5), rel=1e-12
    )


def test_d2u_dr2_single_client_value():
    assert d2u_dr2(SINGLE, PARAMS_1, 10.0) == pytest.approx(-0.6, rel=1e-12)


def central_difference(f, x):
    """(f(x + h) - f(x - h)) / 2h and the rounding floor of that quotient."""
    h = 1e-5 * max(1.0, abs(x))
    up, down = f(x + h), f(x - h)
    return (up - down) / (2 * h), 1e-15 * (abs(up) + abs(down)) / h


def test_second_derivatives_negative_everywhere_sampled():
    # d2u_dr2 is negative everywhere; d2u_dr1 changes sign, so it is pinned
    # to a central difference of du_dr1 instead
    rng = np.random.default_rng(11)
    for _ in range(1000):
        pop = random_population(rng, int(rng.integers(1, 8)))
        params = SystemParams(alpha=80.0, beta=50.0, comm_size=0.0, n=len(pop))
        box = feasible_rate_box(pop, 100.0)
        r1 = float(rng.uniform(box.r1_lo, box.r1_hi))
        r2 = float(rng.uniform(box.r2_lo, box.r2_hi))
        analytic = d2u_dr1(pop, params, r1)
        fd, floor = central_difference(lambda x: du_dr1(pop, params, x), r1)
        assert abs(analytic - fd) <= 1e-6 * max(abs(analytic), abs(fd)) + floor
        assert d2u_dr2(pop, params, r2) < 0


# --------------------------------------------------------------- objective

def test_leader_objective_separable_in_rates():
    rng = np.random.default_rng(3)
    pop = random_population(rng, 6)
    params = SystemParams(alpha=80.0, beta=50.0, comm_size=0.0, n=6)
    diff_ref = None
    for r1 in (2.0, 4.0, 7.5, 11.0):
        diff = leader_objective(pop, params, r1, 9.0) - leader_objective(
            pop, params, r1, 4.0
        )
        if diff_ref is None:
            diff_ref = diff
        assert diff == pytest.approx(diff_ref, abs=1e-10)


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(17)
    for _ in range(30):
        pop = random_population(rng, int(rng.integers(1, 10)))
        params = SystemParams(alpha=80.0, beta=50.0, comm_size=0.0, n=len(pop))
        box = feasible_rate_box(pop, 100.0)
        r1 = float(rng.uniform(box.r1_lo * 1.01, box.r1_hi * 0.99))
        r2 = float(rng.uniform(box.r2_lo * 1.05, box.r2_hi * 0.95))
        h1 = 1e-6 * max(1.0, r1)
        fd1 = (
            leader_objective(pop, params, r1 + h1, r2)
            - leader_objective(pop, params, r1 - h1, r2)
        ) / (2 * h1)
        assert du_dr1(pop, params, r1) == pytest.approx(fd1, rel=1e-6)
        h2 = 1e-6 * max(1.0, r2)
        fd2 = (
            leader_objective(pop, params, r1, r2 + h2)
            - leader_objective(pop, params, r1, r2 - h2)
        ) / (2 * h2)
        assert du_dr2(pop, params, r2) == pytest.approx(fd2, rel=1e-6)


# ------------------------------------------------------------------- solvers

def test_solve_r2_single_client_fixture():
    box = feasible_rate_box(SINGLE, 100.0)
    r2, boundary = solve_r2(SINGLE, PARAMS_1, box)
    assert not boundary
    assert r2 == pytest.approx(13.796, abs=1e-3)
    oracle = bisect(lambda x: 50.0 / x - 1.0 - math.log(x), 1.0, 100.0)
    assert abs(r2 - oracle) < 1e-8


def test_solve_r1_single_client_hits_upper_edge():
    box = feasible_rate_box(SINGLE, 100.0)
    r1, boundary = solve_r1(SINGLE, PARAMS_1, box)
    assert boundary
    assert r1 == box.r1_hi


def test_solve_r1_thirty_clients_interior_fixture():
    box = feasible_rate_box(THIRTY, 100.0)
    r1, boundary = solve_r1(THIRTY, PARAMS_30, box)
    assert not boundary
    assert r1 == pytest.approx(2.348, abs=1e-3)

    def oracle_f(x):
        e = math.exp(x / 2.0 - 1.0)
        return 40.0 * e - 30.0 * (x * e / 2.0 + e - 1.0)

    oracle = bisect(oracle_f, 2.0, box.r1_hi)
    assert abs(r1 - oracle) < 1e-8


def test_solver_matches_pure_bisection_on_random_populations():
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(20):
        pop = random_population(rng, int(rng.integers(2, 10)))
        params = SystemParams(alpha=80.0, beta=50.0, comm_size=0.0, n=len(pop))
        box = feasible_rate_box(pop, 100.0)
        if du_dr2(pop, params, box.r2_lo) * du_dr2(pop, params, box.r2_hi) < 0:
            r2, boundary = solve_r2(pop, params, box)
            assert not boundary
            oracle = bisect(lambda x: du_dr2(pop, params, x), box.r2_lo, box.r2_hi)
            assert abs(r2 - oracle) < 1e-8
            checked += 1
    assert checked > 10


def test_solver_reports_nonfinite_derivative():
    pop = [
        ClientProfile(id=0, gamma=1e-3, delta=1.0, t_min=1.0),
        ClientProfile(id=1, gamma=500.0, delta=1.0, t_min=2.0),
    ]
    params = SystemParams(alpha=80.0, beta=50.0, comm_size=0.0, n=2)
    box = feasible_rate_box(pop, 100.0)
    with pytest.raises(NumericError):
        solve_r1(pop, params, box)


# --------------------------------------------------------- compute_equilibrium

def test_compute_equilibrium_single_client():
    box = feasible_rate_box(SINGLE, 100.0)
    eq = compute_equilibrium(SINGLE, PARAMS_1, box)
    # r1 lands on the accuracy-cap kink just inside the box edge: beyond it
    # the response is pinned at ACCURACY_MAX and extra rate is pure cost
    assert eq.rates.r1 == pytest.approx(2.0 * (1.0 + math.log1p(ACCURACY_MAX)), abs=1e-9)
    assert eq.rates.r2 == pytest.approx(13.795582974561722, abs=1e-6)
    assert eq.strategies[0].accuracy == pytest.approx(0.999, abs=1e-6)
    assert eq.strategies[0].freshness == pytest.approx(math.log(eq.rates.r2), rel=1e-12)
    assert eq.strategies[0].completion_time == 1.0
    assert eq.r1_boundary
    assert not eq.r2_boundary


def test_compute_equilibrium_identical_clients_symmetric():
    box = feasible_rate_box(THIRTY, 100.0)
    eq = compute_equilibrium(THIRTY, PARAMS_30, box)
    assert len(set(eq.strategies)) == 1
    assert len(eq.client_utilities) == 30
    assert eq.rates.r1 == pytest.approx(2.348, abs=1e-3)


def test_compute_equilibrium_boundary_flags_imply_residuals():
    rng = np.random.default_rng(31)
    for _ in range(10):
        pop = random_population(rng, int(rng.integers(1, 12)))
        params = SystemParams(alpha=80.0, beta=50.0, comm_size=0.0, n=len(pop))
        box = feasible_rate_box(pop, 100.0)
        eq = compute_equilibrium(pop, params, box)
        if not eq.r1_boundary:
            assert abs(eq.foc_residuals[0]) < 1e-8
        if not eq.r2_boundary:
            assert abs(eq.foc_residuals[1]) < 1e-8
        assert len(eq.strategies) == len(pop)


def test_compute_equilibrium_time_rescale():
    # scaling every completion time (and with it the r1 box) by c scales r1*
    # by c and leaves the accuracy responses unchanged
    c = 2.5
    scaled = [ClientProfile(id=k, gamma=2.0, delta=1.0, t_min=c) for k in range(30)]
    box = feasible_rate_box(THIRTY, 100.0)
    box_scaled = feasible_rate_box(scaled, 100.0)
    eq = compute_equilibrium(THIRTY, PARAMS_30, box)
    eq_scaled = compute_equilibrium(scaled, PARAMS_30, box_scaled)
    assert eq_scaled.rates.r1 / eq.rates.r1 == pytest.approx(c, rel=1e-9)
    assert eq_scaled.strategies[0].accuracy == pytest.approx(
        eq.strategies[0].accuracy, abs=1e-9
    )


def test_equilibrium_rates_dominate_realized_grid():
    rng = np.random.default_rng(37)
    for _ in range(5):
        pop = random_population(rng, 8)
        params = SystemParams(alpha=80.0, beta=50.0, comm_size=0.0, n=8)
        box = feasible_rate_box(pop, 100.0)
        eq = compute_equilibrium(pop, params, box)
        report = verify_server_equilibrium(pop, params, eq.rates, box, grid_n=60)
        assert report.passed, f"violation {report.worst_violation} at {report.worst_rates}"


def realized_axis_values(pop, params, r1, r2):
    """Independent oracle: the r1 and r2 parts of the realized server utility."""
    gamma = np.array([p.gamma for p in pop])
    delta = np.array([p.delta for p in pop])
    t = np.array([p.t_min for p in pop])
    r1 = np.asarray(r1, dtype=float)[..., None]
    r2 = np.asarray(r2, dtype=float)[..., None]
    a = np.clip(np.exp(r1 / (gamma * t) - 1.0) - 1.0, ACCURACY_MIN, ACCURACY_MAX)
    f = np.clip(np.log(r2 / delta) / delta, 0.0, FRESHNESS_MAX)
    u1 = np.sum(params.alpha / params.n * a - r1 * a / t, axis=-1)
    u2 = np.sum(params.beta / params.n * f - r2 * f, axis=-1)
    return u1, u2


def test_interior_r2_in_first_scan_cell_above_box_floor():
    # the client with the largest delta sets r2_lo and has freshness exactly
    # 0 there; its slope term must count, or this interior maximum, which
    # lies inside the first scan cell, is lost to the box edge
    spec = SweepSpec.for_axis("workers", ScenarioConfig())
    config = spec.cell_config(10)
    pop = sample_population(config, 6)
    box = feasible_rate_box(pop, config.r2_cap)
    eq = compute_equilibrium(pop, config.system_params, box)
    assert eq.rates.r2 > box.r2_lo
    assert eq.rates.r2 == pytest.approx(3.6728760520921, abs=1e-9)


def test_certified_rates_beat_dense_grid_on_default_cells():
    for axis in ("gamma", "delta", "workers"):
        spec = SweepSpec.for_axis(axis, ScenarioConfig())
        for value in spec.values:
            config = spec.cell_config(value)
            params = config.system_params
            for run in range(config.runs):
                pop = sample_population(config, run)
                box = feasible_rate_box(pop, config.r2_cap)
                eq = compute_equilibrium(pop, params, box)
                u1, u2 = realized_axis_values(pop, params, eq.rates.r1, eq.rates.r2)
                g1, g2 = realized_axis_values(
                    pop,
                    params,
                    np.linspace(box.r1_lo, box.r1_hi, 20001),
                    np.linspace(box.r2_lo, box.r2_hi, 20001),
                )
                assert u1 >= np.max(g1) - 1e-9, (axis, value, run)
                assert u2 >= np.max(g2) - 1e-9, (axis, value, run)


def test_large_r2_optimum_completes_and_verifies():
    # refining to 1e-12 near r2 ~ 1e4 runs into float spacing (one ulp is
    # about 1.8e-12 there); the search must stop there rather than loop
    config = ScenarioConfig(beta=1e6, r2_cap=1e5)
    pop = sample_population(config, 0)
    params = config.system_params
    box = feasible_rate_box(pop, config.r2_cap)
    eq = compute_equilibrium(pop, params, box)
    assert eq.rates.r2 == pytest.approx(10083.93, abs=0.01)
    assert verify_server_equilibrium(pop, params, eq.rates, box).passed


def test_r1_at_accuracy_cap_kink_is_the_exact_kink():
    # the realized r1 slope jumps from positive to negative at the cap kink;
    # the bracket around that sign change must yield the kink itself, not a
    # midpoint a fraction of 1e-12 to its left
    pop = [ClientProfile(id=0, gamma=1.0, delta=1.0, t_min=1.0)]
    box = feasible_rate_box(pop, 100.0)
    eq = compute_equilibrium(pop, PARAMS_1, box)
    kink = 1.0 * (1.0 + math.log1p(ACCURACY_MAX))
    assert eq.rates.r1 == kink
    u_star, _ = realized_axis_values(pop, PARAMS_1, eq.rates.r1, eq.rates.r2)
    u_kink, _ = realized_axis_values(pop, PARAMS_1, kink, eq.rates.r2)
    assert u_star >= u_kink


def scalar_search_value(slope, value, lo, hi, kinks):
    """Oracle: best value over the scan's sign changes, each bisected on its own."""
    xs = np.linspace(lo, hi, equilibrium._SCAN)
    signs = np.sign(slope(xs))
    candidates = [lo, hi, *(k for k in kinks if lo < k < hi)]
    for i in np.nonzero(signs[:-1] != signs[1:])[0]:
        a, b = float(xs[i]), float(xs[i + 1])
        mid = 0.5 * (a + b)
        while b - a > 1e-12 and a < mid < b:
            if np.sign(slope(mid)) == signs[i]:
                a = mid
            else:
                b = mid
            mid = 0.5 * (a + b)
        candidates.append(mid)
    return float(np.max(value(np.array(candidates))))


@st.composite
def heterogeneous_scenarios(draw):
    n = draw(st.integers(1, 40))
    g = draw(st.floats(0.2, 6.0))
    clients = draw(
        st.lists(
            st.tuples(st.floats(g, g + 4.0), st.floats(1.0, 2.0), st.floats(1.0, 3.0)),
            min_size=n,
            max_size=n,
        )
    )
    pop = [
        ClientProfile(id=k, gamma=gamma, delta=delta, t_min=t_min)
        for k, (gamma, delta, t_min) in enumerate(clients)
    ]
    alpha = draw(st.floats(10.0, 200.0))
    beta = draw(st.floats(10.0, 200.0))
    return pop, SystemParams(alpha=alpha, beta=beta, comm_size=0.0, n=n)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(heterogeneous_scenarios())
def test_search_reaches_scalar_bisection_oracle(scenario):
    pop, params = scenario
    box = feasible_rate_box(pop, 100.0)
    gamma = np.array([p.gamma for p in pop])
    delta = np.array([p.delta for p in pop])
    t = np.array([p.t_min for p in pop])
    gt = gamma * t
    r1_kinks = np.concatenate(
        [gt * (1.0 + math.log1p(ACCURACY_MIN)), gt * (1.0 + math.log1p(ACCURACY_MAX))]
    )
    r2_kinks = delta * np.exp(FRESHNESS_MAX * delta)
    for clamp in (False, True):
        axes = (
            (
                equilibrium._argmax_r1,
                lambda r: equilibrium._r1_slope(r, gamma, t, params, clamp),
                lambda r: equilibrium._r1_value(r, gamma, t, params, clamp),
                box.r1_lo,
                box.r1_hi,
                r1_kinks,
            ),
            (
                equilibrium._argmax_r2,
                lambda r: equilibrium._r2_slope(r, delta, params, clamp),
                lambda r: equilibrium._r2_value(r, delta, params, clamp),
                box.r2_lo,
                box.r2_hi,
                r2_kinks,
            ),
        )
        for argmax, slope, value, lo, hi, kinks in axes:
            rate, _ = argmax(pop, params, box, clamp)
            best = scalar_search_value(slope, value, lo, hi, kinks if clamp else ())
            assert value(rate) >= best - 1e-12 * max(1.0, abs(best)), (clamp, lo, hi)

    eq = compute_equilibrium(pop, params, box)
    u1, u2 = realized_axis_values(pop, params, eq.rates.r1, eq.rates.r2)
    g1, g2 = realized_axis_values(
        pop,
        params,
        np.linspace(box.r1_lo, box.r1_hi, 2001),
        np.linspace(box.r2_lo, box.r2_hi, 2001),
    )
    assert u1 >= np.max(g1) - 1e-9
    assert u2 >= np.max(g2) - 1e-9


def test_refinement_slope_call_budget(monkeypatch):
    # the default workers=10 cell, run 2, has 14 r1 sign changes; all
    # are refined together, so each axis costs one scan, a handful of refine
    # steps and one du_dr* residual, not dozens of calls per sign change
    calls = {"r1": 0, "r2": 0}

    def counted(name, slope):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return slope(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(equilibrium, "_r1_slope", counted("r1", equilibrium._r1_slope))
    monkeypatch.setattr(equilibrium, "_r2_slope", counted("r2", equilibrium._r2_slope))
    config = SweepSpec.for_axis("workers", ScenarioConfig()).cell_config(10)
    pop = sample_population(config, 2)
    compute_equilibrium(pop, config.system_params, feasible_rate_box(pop, config.r2_cap))
    assert 0 < calls["r1"] <= 10
    assert 0 < calls["r2"] <= 10


# ---------------------------------------------------------------- verification

def test_verify_client_interior_case():
    rates = RewardRates(r1=3.0, r2=2.0 * math.e)
    profile = ClientProfile(id=0, gamma=2.0, delta=2.0, t_min=1.0)
    report = verify_client_equilibrium(profile, rates)
    assert report.passed
    assert report.worst_violation <= 1e-9
    assert report.checked > 10000


def test_verify_client_clamped_case():
    profile = ClientProfile(id=0, gamma=4.0, delta=1.0, t_min=2.0)
    rates = RewardRates(r1=1.0, r2=5.0)  # far below this client's r1 range
    report = verify_client_equilibrium(profile, rates)
    assert report.passed


def test_verify_client_flags_perturbed_strategy():
    rates = RewardRates(r1=3.0, r2=2.0 * math.e)
    profile = ClientProfile(id=0, gamma=2.0, delta=2.0, t_min=1.0)
    from ifedcrowd.game_core import best_response

    star = best_response(profile, rates).strategy
    worse = Strategy(star.accuracy + 0.1, star.freshness, star.completion_time)
    report = verify_client_equilibrium(profile, rates, strategy=worse)
    assert not report.passed
    assert report.worst_violation > 1e-6
    assert abs(report.worst_strategy.accuracy - star.accuracy) < 0.02


def test_verify_server_flags_suboptimal_rates():
    box = feasible_rate_box(THIRTY, 100.0)
    midpoint = RewardRates(
        r1=0.5 * (box.r1_lo + box.r1_hi), r2=0.5 * (box.r2_lo + box.r2_hi)
    )
    report = verify_server_equilibrium(THIRTY, PARAMS_30, midpoint, box)
    assert not report.passed
    assert report.worst_violation > 1.0


def test_verify_server_degenerate_box_vacuous():
    box = RateBox(r1_lo=3.0, r1_hi=3.0, r2_lo=5.0, r2_hi=5.0, per_client_r1=((3.0, 3.0),))
    rates = RewardRates(r1=3.0, r2=5.0)
    report = verify_server_equilibrium(SINGLE, PARAMS_1, rates, box)
    assert report.passed
    assert report.worst_violation <= 0.0


def test_solve_r1_low_edge_when_derivative_negative_throughout():
    # a tiny accuracy valuation makes every extra unit of r1 a net loss
    pop = [ClientProfile(id=k, gamma=2.0, delta=1.0, t_min=1.0) for k in range(4)]
    params = SystemParams(alpha=0.1, beta=50.0, comm_size=0.0, n=4)
    box = feasible_rate_box(pop, 100.0)
    assert du_dr1(pop, params, box.r1_lo) < 0
    r1, boundary = solve_r1(pop, params, box)
    assert boundary
    assert r1 == box.r1_lo


def test_numeric_error_reports_offending_rate():
    pop = [
        ClientProfile(id=0, gamma=1e-3, delta=1.0, t_min=1.0),
        ClientProfile(id=1, gamma=500.0, delta=1.0, t_min=2.0),
    ]
    params = SystemParams(alpha=80.0, beta=50.0, comm_size=0.0, n=2)
    box = feasible_rate_box(pop, 100.0)
    with pytest.raises(NumericError, match="rate"):
        solve_r1(pop, params, box)
