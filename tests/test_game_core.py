import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifedcrowd import (
    ClientProfile,
    DomainError,
    ConfigError,
    RewardRates,
    Strategy,
    SystemParams,
    best_response,
    calculation_cost,
    client_reward,
    client_utility,
    collection_cost,
    feasible_rate_box,
    server_utility,
    total_cost,
)
from ifedcrowd.game_core import (
    ACCURACY_MAX,
    ACCURACY_MIN,
    FRESHNESS_MAX,
    best_responses,
    client_r1_range,
    population_utilities,
)

E05 = math.exp(0.5)  # exp(0.5), accuracy response at h = 0.5


def make_profile(gamma=2.0, delta=2.0, t_min=1.0, pid=0):
    return ClientProfile(id=pid, gamma=gamma, delta=delta, t_min=t_min)


# ---------------------------------------------------------- calculation cost

def test_calculation_cost_zero_accuracy():
    assert calculation_cost(2.0, 0.0) == 0.0


def test_calculation_cost_analytic_point():
    # at accuracy exp(0.5)-1 the cost is gamma * exp(0.5) * 0.5
    assert calculation_cost(2.0, E05 - 1.0) == pytest.approx(E05, rel=1e-12)


def test_calculation_cost_rejects_bad_inputs():
    with pytest.raises(DomainError):
        calculation_cost(1.0, math.e - 1.0)  # accuracy >= 1
    with pytest.raises(DomainError):
        calculation_cost(1.0, -0.1)
    with pytest.raises(DomainError):
        calculation_cost(0.0, 0.5)


def test_calculation_cost_strictly_increasing():
    values = [calculation_cost(3.0, a) for a in np.linspace(0.0, 0.99, 50)]
    assert all(b > a for a, b in zip(values, values[1:]))


# ----------------------------------------------------------- collection cost

def test_collection_cost_floor_and_points():
    assert collection_cost(2.0, 0.0) == 1.0
    assert collection_cost(2.0, 0.5) == pytest.approx(math.e, rel=1e-12)
    assert collection_cost(1.0, 1.0) == pytest.approx(math.e, rel=1e-12)


def test_collection_cost_rejects_bad_inputs():
    with pytest.raises(DomainError):
        collection_cost(2.0, -0.1)
    with pytest.raises(DomainError):
        collection_cost(-1.0, 0.5)


def test_collection_cost_overflow_names_delta_and_freshness():
    # exp(1500) overflows; the error is a typed one naming both inputs
    with pytest.raises(DomainError, match=r"overflows at delta=150\.0, F=10\.0$"):
        collection_cost(150.0, 10.0)


# ---------------------------------------------------------------- total cost

def test_total_cost_composition():
    profile = make_profile(gamma=2.0, delta=2.0)
    strategy = Strategy(accuracy=E05 - 1.0, freshness=0.5, completion_time=1.0)
    breakdown = total_cost(profile, strategy, 0.1)
    assert breakdown.total == pytest.approx(E05 + math.e + 0.1, rel=1e-12)
    assert breakdown.total == pytest.approx(4.467003099159173, rel=1e-12)


def test_total_cost_collection_floor():
    profile = make_profile(gamma=1.0, delta=1.0)
    strategy = Strategy(accuracy=0.0, freshness=0.0, completion_time=1.0)
    breakdown = total_cost(profile, strategy, 0.0)
    assert breakdown.calculation == 0.0
    assert breakdown.collection == 1.0
    assert breakdown.total == 1.0


def test_total_cost_general_point():
    profile = make_profile(gamma=3.0, delta=1.0)
    strategy = Strategy(accuracy=0.2, freshness=0.3, completion_time=1.0)
    breakdown = total_cost(profile, strategy, 0.5)
    expected = 3.0 * 1.2 * math.log(1.2) + math.exp(0.3) + 0.5
    assert breakdown.total == pytest.approx(expected, rel=1e-12)


def test_total_cost_sum_identity_exact():
    profile = make_profile(gamma=2.7, delta=1.3)
    strategy = Strategy(accuracy=0.41, freshness=0.77, completion_time=2.0)
    b = total_cost(profile, strategy, 0.37)
    # exact: total is formed by one left-to-right sum of the three parts
    assert b.total == b.calculation + b.collection + b.communication


# ------------------------------------------------------------- client reward

def test_client_reward_point():
    rates = RewardRates(r1=3.0, r2=2.0 * math.e)
    strategy = Strategy(accuracy=E05 - 1.0, freshness=0.5, completion_time=1.0)
    assert client_reward(rates, strategy) == pytest.approx(
        3.0 * (E05 - 1.0) + math.e, rel=1e-12
    )


def test_client_reward_zero_contribution():
    rates = RewardRates(r1=7.0, r2=11.0)
    assert client_reward(rates, Strategy(0.0, 0.0, 1.0)) == 0.0


def test_client_reward_freshness_term_vanishes():
    rates = RewardRates(r1=1.0, r2=1.0)
    assert client_reward(rates, Strategy(0.5, 0.0, 2.0)) == pytest.approx(0.25)


def test_zero_completion_time_rejected_at_type_level():
    with pytest.raises(DomainError):
        Strategy(accuracy=0.5, freshness=0.0, completion_time=0.0)


# ------------------------------------------------------------ client utility

def test_client_utility_composed_example():
    profile = make_profile(gamma=2.0, delta=2.0, t_min=1.0)
    rates = RewardRates(r1=3.0, r2=2.0 * math.e)
    strategy = Strategy(accuracy=E05 - 1.0, freshness=0.5, completion_time=1.0)
    u = client_utility(profile, rates, strategy, 0.1)
    assert u == pytest.approx(0.19744254140025674, rel=1e-9)


def test_client_utility_collection_floor_case():
    profile = make_profile(gamma=5.0, delta=3.0)
    rates = RewardRates(r1=1.0, r2=1.0)
    u = client_utility(profile, rates, Strategy(0.0, 0.0, 1.0), 0.0)
    assert u == pytest.approx(-1.0)


def test_client_utility_decreasing_in_completion_time():
    profile = make_profile(gamma=2.0, delta=2.0)
    rates = RewardRates(r1=3.0, r2=2.0 * math.e)
    fast = client_utility(profile, rates, Strategy(E05 - 1.0, 0.5, 1.0), 0.1)
    slow = client_utility(profile, rates, Strategy(E05 - 1.0, 0.5, 2.0), 0.1)
    assert slow < fast


# ------------------------------------------------------------ server utility

def test_server_utility_single_client_example():
    params = SystemParams(alpha=80.0, beta=50.0, comm_size=0.0, n=1)
    rates = RewardRates(r1=3.0, r2=5.43656)
    strategy = Strategy(accuracy=0.64872, freshness=0.5, completion_time=1.0)
    assert server_utility(params, rates, [strategy]) == pytest.approx(
        71.23316, abs=1e-9
    )


def test_server_utility_all_zero_strategies():
    params = SystemParams(alpha=80.0, beta=50.0, comm_size=0.0, n=2)
    rates = RewardRates(r1=3.0, r2=4.0)
    strategies = [Strategy(0.0, 0.0, 1.0), Strategy(0.0, 0.0, 1.0)]
    assert server_utility(params, rates, strategies) == pytest.approx(-1.0)


def test_server_utility_benefit_averaged_payment_summed():
    rates = RewardRates(r1=2.0, r2=3.0)
    s = Strategy(accuracy=0.4, freshness=0.7, completion_time=1.5)
    one = server_utility(SystemParams(80.0, 50.0, 0.0, 1), rates, [s])
    two = server_utility(SystemParams(80.0, 50.0, 0.0, 2), rates, [s, s])
    # duplicating the population leaves the averaged benefit and the wall
    # clock unchanged but doubles the payment
    assert one - two == pytest.approx(client_reward(rates, s), rel=1e-12)


def test_server_utility_count_checks():
    params = SystemParams(alpha=80.0, beta=50.0, comm_size=0.0, n=2)
    rates = RewardRates(r1=1.0, r2=1.0)
    with pytest.raises(DomainError):
        server_utility(params, rates, [])
    with pytest.raises(DomainError):
        server_utility(params, rates, [Strategy(0.1, 0.1, 1.0)])


def test_server_utility_permutation_invariant():
    rng = np.random.default_rng(5)
    strategies = [
        Strategy(float(rng.uniform(0, 0.9)), float(rng.uniform(0, 3)), float(rng.uniform(0.5, 3)))
        for _ in range(6)
    ]
    params = SystemParams(alpha=80.0, beta=50.0, comm_size=0.0, n=6)
    rates = RewardRates(r1=2.5, r2=4.0)
    base = server_utility(params, rates, strategies)
    shuffled = list(strategies)
    rng.shuffle(shuffled)
    assert server_utility(params, rates, shuffled) == pytest.approx(base, rel=1e-12)


def test_server_utility_linear_in_each_strategy_term():
    # with everything else fixed, utility responds linearly to A_k/T_k and F_k
    params = SystemParams(alpha=80.0, beta=50.0, comm_size=0.0, n=3)
    rates = RewardRates(r1=2.0, r2=3.0)
    base = [Strategy(0.2, 0.5, 2.0), Strategy(0.4, 1.0, 2.0), Strategy(0.6, 1.5, 2.0)]

    def with_accuracy(a):
        return [Strategy(a, 0.5, 2.0)] + base[1:]

    u1 = server_utility(params, rates, with_accuracy(0.1))
    u2 = server_utility(params, rates, with_accuracy(0.3))
    u3 = server_utility(params, rates, with_accuracy(0.5))
    assert u3 - u2 == pytest.approx(u2 - u1, rel=1e-9)

    def with_freshness(f):
        return [Strategy(0.2, f, 2.0)] + base[1:]

    v1 = server_utility(params, rates, with_freshness(0.5))
    v2 = server_utility(params, rates, with_freshness(1.5))
    v3 = server_utility(params, rates, with_freshness(2.5))
    assert v3 - v2 == pytest.approx(v2 - v1, rel=1e-9)


# -------------------------------------------------------------- best response

def grid_best_utility(profile, rates, a_grid, f_grid, t_values, comm_size=0.0):
    """Brute-force maximizer of the client utility over a strategy grid."""
    best = (-math.inf, None)
    gain_f = rates.r2 * f_grid - np.exp(profile.delta * f_grid)
    fi = int(np.argmax(gain_f))
    cost_a = profile.gamma * (1.0 + a_grid) * np.log1p(a_grid)
    for t in t_values:
        part_a = rates.r1 * a_grid / t - cost_a
        ai = int(np.argmax(part_a))
        u = float(part_a[ai] + gain_f[fi]) - comm_size
        if u > best[0]:
            best = (u, Strategy(float(a_grid[ai]), float(f_grid[fi]), float(t)))
    return best


def test_best_response_interior_matches_grid_search():
    profile = make_profile(gamma=2.0, delta=2.0, t_min=1.0)
    rates = RewardRates(r1=3.0, r2=2.0 * math.e)
    response = best_response(profile, rates)
    assert response.strategy.accuracy == pytest.approx(E05 - 1.0, rel=1e-12)
    assert response.strategy.freshness == pytest.approx(0.5, rel=1e-12)
    assert response.strategy.completion_time == 1.0
    assert not response.clamped

    a_grid = np.arange(0.0, 1.0, 1e-4)
    f_grid = np.arange(0.0, 3.0 + 1e-12, 1e-4)
    u_best, s_best = grid_best_utility(profile, rates, a_grid, f_grid, [1.0])
    assert abs(s_best.accuracy - response.strategy.accuracy) <= 1e-4
    assert abs(s_best.freshness - response.strategy.freshness) <= 1e-4
    u_star = client_utility(profile, rates, response.strategy, 0.0)
    assert u_star >= u_best - 1e-9


def test_best_response_low_boundary_clamps_accuracy_only():
    profile = make_profile(gamma=2.0, delta=2.0, t_min=1.0)
    rates = RewardRates(r1=2.0, r2=2.0)  # r1 = gamma * t_min and r2 = delta exactly
    response = best_response(profile, rates)
    assert response.strategy.accuracy == ACCURACY_MIN
    assert response.accuracy_clamped
    assert response.strategy.freshness == 0.0
    assert not response.freshness_clamped


def test_best_response_clamps_high_accuracy():
    profile = make_profile(gamma=1.0, delta=1.0, t_min=1.0)
    response = best_response(profile, RewardRates(r1=10.0, r2=1.0))
    assert response.strategy.accuracy == ACCURACY_MAX
    assert response.accuracy_clamped


def test_best_response_clamps_overflowed_accuracy_to_cap():
    # r1/(gamma t_min) - 1 = 25399 overflows exp; the response lies far above
    # the cap.  RuntimeWarnings fail the tests, so this also checks that the
    # overflow raises none.
    profile = make_profile(gamma=1e-3, delta=1.0, t_min=1.0)
    rates = RewardRates(r1=25.4, r2=100.0)
    with pytest.raises(OverflowError):
        math.exp(rates.r1 / (profile.gamma * profile.t_min) - 1.0)
    response = best_response(profile, rates)
    assert response.strategy.accuracy == ACCURACY_MAX
    assert response.accuracy_clamped
    assert response.strategy.freshness == pytest.approx(math.log(100.0), rel=1e-15)
    # beside an in-range client, which keeps the plain formula unclamped
    accuracy, freshness, a_clamped, f_clamped = best_responses(
        np.array([1e-3, 2.0]), np.array([1.0, 2.0]), np.array([1.0, 1.0]), 3.0, 25.4
    )
    assert accuracy[0] == ACCURACY_MAX and accuracy[1] == pytest.approx(E05 - 1.0, rel=1e-15)
    assert a_clamped.tolist() == [True, False] and f_clamped.tolist() == [False, False]


def oracle_best_response(profile, rates):
    """The scalar math-library response rule that `best_responses` replaced.

    Returns the clamped accuracy and freshness, their clamp flags, and the
    raw (unclamped) responses.
    """
    try:
        a_raw = math.exp(rates.r1 / (profile.gamma * profile.t_min) - 1.0) - 1.0
    except OverflowError:
        a_raw = math.inf
    f_raw = math.log(rates.r2 / profile.delta) / profile.delta
    a = min(max(a_raw, ACCURACY_MIN), ACCURACY_MAX)
    f = min(max(f_raw, 0.0), FRESHNESS_MAX)
    return a, f, a != a_raw, f != f_raw, a_raw, f_raw


def near_bound(raw, bounds):
    return any(abs(raw - b) <= 1e-12 for b in bounds)


@settings(max_examples=200)
@given(
    clients=st.lists(
        st.tuples(
            st.floats(1e-4, 1e3),  # gamma
            st.floats(0.1, 10.0),  # t_min
            st.floats(1e-3, 150.0),  # delta
        ),
        min_size=1,
        max_size=20,
    ),
    r1=st.floats(1e-6, 1e4),
    r2=st.floats(1e-6, 1e6),
)
def test_best_responses_match_scalar_oracle(clients, r1, r2):
    profiles = [make_profile(gamma=g, delta=d, t_min=t, pid=k) for k, (g, t, d) in enumerate(clients)]
    rates = RewardRates(r1=r1, r2=r2)
    gamma, t_min, delta = (np.array(column) for column in zip(*clients))
    arrays = [v.tolist() for v in best_responses(gamma, delta, t_min, r1, r2)]
    for k, profile in enumerate(profiles):
        a, f, a_clamped, f_clamped, a_raw, f_raw = oracle_best_response(profile, rates)
        view = best_response(profile, rates)
        for got in (
            (arrays[0][k], arrays[1][k], arrays[2][k], arrays[3][k]),
            (view.strategy.accuracy, view.strategy.freshness, view.accuracy_clamped, view.freshness_clamped),
        ):
            assert abs(got[0] - a) <= 4.5e-16
            assert abs(got[1] - f) <= 1e-15 * abs(f)
            if not near_bound(a_raw, (ACCURACY_MIN, ACCURACY_MAX)):
                assert got[2] == a_clamped
            if not near_bound(f_raw, (0.0, FRESHNESS_MAX)):
                assert got[3] == f_clamped
        assert view.strategy.completion_time == profile.t_min


def test_population_utilities_match_per_client_formulas():
    rng = np.random.default_rng(8)
    for n in (1, 7, 50):
        profiles = [
            make_profile(
                gamma=float(rng.uniform(0.5, 5.0)),
                delta=float(rng.uniform(0.1, 3.0)),
                t_min=float(rng.uniform(0.5, 3.0)),
                pid=k,
            )
            for k in range(n)
        ]
        params = SystemParams(alpha=80.0, beta=50.0, comm_size=0.1, n=n)
        rates = RewardRates(r1=float(rng.uniform(0.5, 20.0)), r2=float(rng.uniform(3.0, 100.0)))
        strategies = [best_response(p, rates).strategy for p in profiles]
        gamma, delta, t_min, accuracy, freshness = (
            np.array(column)
            for column in zip(
                *((p.gamma, p.delta, p.t_min, s.accuracy, s.freshness) for p, s in zip(profiles, strategies))
            )
        )
        utilities, payouts, server = population_utilities(
            gamma, delta, t_min, accuracy, freshness, params, rates.r1, rates.r2
        )
        expected = [client_utility(p, rates, s, params.comm_size) for p, s in zip(profiles, strategies)]
        np.testing.assert_allclose(utilities, expected, rtol=1e-13, atol=1e-13)
        assert payouts.tolist() == [client_reward(rates, s) for s in strategies]
        assert server == pytest.approx(server_utility(params, rates, strategies), rel=1e-13)


def test_best_response_clamps_high_freshness():
    profile = make_profile(gamma=1.0, delta=0.05, t_min=1.0)
    response = best_response(profile, RewardRates(r1=1.5, r2=5.0))
    assert response.strategy.freshness == FRESHNESS_MAX
    assert response.freshness_clamped


def test_best_response_optimal_within_clamped_grid():
    # for rates inside each client's own feasible range, no grid deviation
    # may beat the response
    rng = np.random.default_rng(42)
    a_grid = np.unique(np.clip(np.arange(0.0, 1.0, 0.01), ACCURACY_MIN, ACCURACY_MAX))
    f_grid = np.arange(0.0, 5.0 + 1e-12, 0.05)
    for _ in range(40):
        profile = make_profile(
            gamma=float(rng.uniform(0.5, 5.0)),
            delta=float(rng.uniform(0.5, 3.0)),
            t_min=float(rng.uniform(0.5, 3.0)),
        )
        lo, hi = client_r1_range(profile)
        rates = RewardRates(
            r1=float(rng.uniform(lo * 1.001, hi * 0.999)),
            r2=float(profile.delta * rng.uniform(1.05, 20.0)),
        )
        response = best_response(profile, rates)
        u_star = client_utility(profile, rates, response.strategy, 0.0)
        t_values = [profile.t_min, 1.5 * profile.t_min, 2.0 * profile.t_min]
        u_best, _ = grid_best_utility(profile, rates, a_grid, f_grid, t_values)
        assert u_star >= u_best - 1e-9


def test_unclamped_response_interior_for_in_range_rates():
    rng = np.random.default_rng(7)
    for _ in range(60):
        profile = make_profile(
            gamma=float(rng.uniform(0.5, 8.0)),
            delta=float(rng.uniform(0.3, 4.0)),
            t_min=float(rng.uniform(0.5, 3.0)),
        )
        lo, hi = client_r1_range(profile)
        rates = RewardRates(
            r1=float(rng.uniform(lo * 1.0001, hi * 0.9999)),
            r2=float(profile.delta * rng.uniform(1.001, 10.0)),
        )
        response = best_response(profile, rates)
        assert not response.clamped
        assert 0.0 < response.strategy.accuracy < 1.0
        assert response.strategy.freshness > 0.0


def client_utility_gradient(
    profile: ClientProfile, rates: RewardRates, strategy: Strategy
) -> tuple[float, float, float]:
    """Partial derivatives of the client utility in (accuracy, freshness, time).

    Used by stationarity checks: at an interior best response the first two
    components vanish and the third is strictly negative for positive accuracy.
    """
    d_acc = (
        -profile.gamma * math.log1p(strategy.accuracy)
        - profile.gamma
        + rates.r1 / strategy.completion_time
    )
    d_fresh = -profile.delta * math.exp(profile.delta * strategy.freshness) + rates.r2
    d_time = -rates.r1 * strategy.accuracy / strategy.completion_time**2
    return d_acc, d_fresh, d_time


def test_interior_stationarity_and_finite_differences():
    profile = make_profile(gamma=2.0, delta=2.0, t_min=1.0)
    rates = RewardRates(r1=3.0, r2=2.0 * math.e)
    response = best_response(profile, rates)
    d_acc, d_fresh, d_time = client_utility_gradient(profile, rates, response.strategy)
    assert abs(d_acc) < 1e-8
    assert abs(d_fresh) < 1e-8
    assert d_time < 0.0

    # finite differences agree with the analytic partials at interior points
    def u(a, f, t):
        return client_utility(profile, rates, Strategy(a, f, t), 0.0)

    for a, f, t in [(0.3, 0.4, 1.2), (0.6, 0.2, 0.9), (0.45, 0.8, 2.0)]:
        g = client_utility_gradient(profile, rates, Strategy(a, f, t))
        h = 1e-6
        fd = (
            (u(a + h, f, t) - u(a - h, f, t)) / (2 * h),
            (u(a, f + h, t) - u(a, f - h, t)) / (2 * h),
            (u(a, f, t + h) - u(a, f, t - h)) / (2 * h),
        )
        for analytic, numeric in zip(g, fd):
            assert numeric == pytest.approx(analytic, rel=1e-6, abs=1e-8)


def test_monotone_decrease_in_completion_time():
    profile = make_profile(gamma=1.5, delta=1.0)
    rates = RewardRates(r1=2.0, r2=3.0)
    for a, f in [(0.2, 0.1), (0.7, 1.0)]:
        us = [
            client_utility(profile, rates, Strategy(a, f, t), 0.0)
            for t in (1.0, 1.5, 2.0, 3.0)
        ]
        assert all(b < a_ for a_, b in zip(us, us[1:]))


def test_equilibrium_client_utility_monotone_in_rates():
    profile = make_profile(gamma=2.0, delta=1.5, t_min=1.2)

    def u_at(r1, r2):
        rates = RewardRates(r1=r1, r2=r2)
        return client_utility(profile, rates, best_response(profile, rates).strategy, 0.0)

    r1_grid = np.linspace(1.0, 12.0, 40)
    values = [u_at(float(r), 4.0) for r in r1_grid]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
    r2_grid = np.linspace(1.0, 60.0, 40)
    values = [u_at(3.0, float(r)) for r in r2_grid]
    assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


# ----------------------------------------------------------- feasible rate box

def test_feasible_rate_box_single_client():
    profile = make_profile(gamma=2.0, delta=1.0, t_min=1.0)
    box = feasible_rate_box([profile], r2_cap=100.0)
    assert box.r1_lo == 2.0
    assert box.r1_hi == pytest.approx(3.386294361119891, rel=1e-12)
    assert box.r2_lo == 1.0
    assert box.r2_hi == 100.0


def test_feasible_rate_box_union_hull():
    clients = [
        make_profile(gamma=1.0, delta=1.0, t_min=1.0, pid=0),
        make_profile(gamma=2.0, delta=3.0, t_min=1.0, pid=1),
    ]
    box = feasible_rate_box(clients, r2_cap=50.0)
    assert box.r1_lo == 1.0
    assert box.r1_hi == pytest.approx(3.386294361119891, rel=1e-12)
    assert box.r2_lo == 3.0
    assert box.r2_hi == 50.0


@pytest.mark.parametrize("cap", [math.inf, math.nan])
def test_feasible_rate_box_rejects_non_finite_cap(cap):
    with pytest.raises(ConfigError, match="^r2_cap must be finite, got"):
        feasible_rate_box([make_profile(delta=3.0)], r2_cap=cap)


def test_feasible_rate_box_rejects_empty_r2_interval():
    clients = [make_profile(delta=3.0)]
    with pytest.raises(ConfigError):
        feasible_rate_box(clients, r2_cap=3.0)
    with pytest.raises(DomainError):
        feasible_rate_box([], r2_cap=10.0)


# ------------------------------------------------------------------ invariants

def test_profile_validation():
    for bad in [dict(gamma=0.0), dict(delta=-1.0), dict(t_min=0.0)]:
        kwargs = dict(gamma=1.0, delta=1.0, t_min=1.0)
        kwargs.update(bad)
        with pytest.raises(DomainError):
            ClientProfile(id=0, **kwargs)


def test_rates_and_params_validation():
    with pytest.raises(DomainError):
        RewardRates(r1=0.0, r2=1.0)
    with pytest.raises(DomainError):
        RewardRates(r1=1.0, r2=-2.0)
    with pytest.raises(DomainError):
        SystemParams(alpha=0.0, beta=50.0, comm_size=0.0, n=1)
    with pytest.raises(DomainError):
        SystemParams(alpha=80.0, beta=50.0, comm_size=-0.1, n=1)
    with pytest.raises(DomainError):
        SystemParams(alpha=80.0, beta=50.0, comm_size=0.0, n=0)


@pytest.mark.parametrize("value", [math.inf, math.nan])
def test_non_finite_values_are_named_as_such(value):
    # an infinite parameter is refused for not being finite, not for its sign
    calls = [
        (lambda: ClientProfile(id=0, gamma=value, delta=1.0, t_min=1.0), "gamma"),
        (lambda: ClientProfile(id=0, gamma=1.0, delta=value, t_min=1.0), "delta"),
        (lambda: ClientProfile(id=0, gamma=1.0, delta=1.0, t_min=value), "t_min"),
        (lambda: RewardRates(r1=value, r2=1.0), "r1"),
        (lambda: RewardRates(r1=1.0, r2=value), "r2"),
        (lambda: SystemParams(alpha=value, beta=50.0, comm_size=0.0, n=1), "alpha"),
        (lambda: SystemParams(alpha=80.0, beta=value, comm_size=0.0, n=1), "beta"),
    ]
    for make, name in calls:
        with pytest.raises(DomainError, match=rf"^{name} must be positive and finite, got"):
            make()
    with pytest.raises(DomainError, match="^comm_size must be non-negative and finite, got"):
        SystemParams(alpha=80.0, beta=50.0, comm_size=value, n=1)
