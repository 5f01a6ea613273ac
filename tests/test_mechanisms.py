import numpy as np
import pytest

from ifedcrowd import (
    ClientProfile,
    ConfigError,
    MechanismKind,
    RateBox,
    SystemParams,
    best_response,
    client_utility,
    compute_equilibrium,
    feasible_rate_box,
    select_rates,
    server_utility,
)


def population(seed, n=6):
    rng = np.random.default_rng(seed)
    return [
        ClientProfile(
            id=k,
            gamma=float(rng.uniform(1.0, 5.0)),
            delta=float(rng.uniform(1.0, 2.0)),
            t_min=float(rng.uniform(1.0, 3.0)),
        )
        for k in range(n)
    ]


def realized_server_utility(pop, params, rates):
    strategies = [best_response(p, rates).strategy for p in pop]
    return server_utility(params, rates, strategies)


def test_tokens_round_trip():
    assert MechanismKind.from_token("ifedcrowd") is MechanismKind.IFEDCROWD
    assert MechanismKind.from_token(" MAX ") is MechanismKind.MAX
    assert MechanismKind.RANDOM.token == "random"
    with pytest.raises(ConfigError):
        MechanismKind.from_token("greedy")


def test_max_takes_upper_corner():
    pop = population(1)
    params = SystemParams(alpha=80.0, beta=50.0, comm_size=0.0, n=len(pop))
    box = feasible_rate_box(pop, 100.0)
    rates = select_rates(MechanismKind.MAX, pop, params, box, rng_seed=0)
    assert rates.r1 == box.r1_hi
    assert rates.r2 == box.r2_hi


def test_random_is_deterministic_given_seed():
    pop = population(2)
    params = SystemParams(alpha=80.0, beta=50.0, comm_size=0.0, n=len(pop))
    box = feasible_rate_box(pop, 100.0)
    first = select_rates(MechanismKind.RANDOM, pop, params, box, rng_seed=7)
    second = select_rates(MechanismKind.RANDOM, pop, params, box, rng_seed=7)
    assert first == second
    other = select_rates(MechanismKind.RANDOM, pop, params, box, rng_seed=8)
    assert other != first


def test_all_mechanisms_stay_inside_box():
    pop = population(3)
    params = SystemParams(alpha=80.0, beta=50.0, comm_size=0.0, n=len(pop))
    box = feasible_rate_box(pop, 100.0)
    for kind in MechanismKind:
        for seed in range(5):
            rates = select_rates(kind, pop, params, box, rng_seed=seed)
            assert box.r1_lo <= rates.r1 <= box.r1_hi
            assert box.r2_lo <= rates.r2 <= box.r2_hi


def test_equilibrium_mechanism_delegates_to_solver():
    pop = [ClientProfile(id=0, gamma=2.0, delta=1.0, t_min=1.0)]
    params = SystemParams(alpha=80.0, beta=50.0, comm_size=0.0, n=1)
    box = feasible_rate_box(pop, 100.0)
    rates = select_rates(MechanismKind.IFEDCROWD, pop, params, box, rng_seed=123)
    assert rates == compute_equilibrium(pop, params, box).rates


def test_infeasible_box_rejected():
    pop = population(4)
    params = SystemParams(alpha=80.0, beta=50.0, comm_size=0.0, n=len(pop))
    bad = RateBox(r1_lo=2.0, r1_hi=2.0, r2_lo=1.0, r2_hi=100.0)
    with pytest.raises(ConfigError):
        select_rates(MechanismKind.MAX, pop, params, bad, rng_seed=0)


def test_equilibrium_dominates_baselines_on_realized_utility():
    for seed in range(8):
        pop = population(100 + seed)
        params = SystemParams(alpha=80.0, beta=50.0, comm_size=0.0, n=len(pop))
        box = feasible_rate_box(pop, 100.0)
        u_eq = realized_server_utility(
            pop, params, select_rates(MechanismKind.IFEDCROWD, pop, params, box, 0)
        )
        u_max = realized_server_utility(
            pop, params, select_rates(MechanismKind.MAX, pop, params, box, 0)
        )
        assert u_eq >= u_max
        for draw in range(6):
            u_rand = realized_server_utility(
                pop, params, select_rates(MechanismKind.RANDOM, pop, params, box, draw)
            )
            assert u_eq >= u_rand


def test_max_gives_workers_at_least_equilibrium_utility():
    # the realized client utility is monotone in both rates, and MAX picks
    # the component-wise largest rates in the box
    for seed in range(6):
        pop = population(200 + seed)
        params = SystemParams(alpha=80.0, beta=50.0, comm_size=0.1, n=len(pop))
        box = feasible_rate_box(pop, 100.0)
        r_eq = select_rates(MechanismKind.IFEDCROWD, pop, params, box, 0)
        r_max = select_rates(MechanismKind.MAX, pop, params, box, 0)
        assert r_eq.r1 <= r_max.r1 and r_eq.r2 <= r_max.r2

        def avg_utility(rates):
            return float(
                np.mean(
                    [
                        client_utility(p, rates, best_response(p, rates).strategy, 0.1)
                        for p in pop
                    ]
                )
            )

        assert avg_utility(r_max) >= avg_utility(r_eq) - 1e-12
