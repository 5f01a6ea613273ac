import dataclasses
import itertools
import json
import math
import random
from fractions import Fraction
from unittest.mock import patch

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifedcrowd import (
    ClientProfile,
    MechanismKind,
    NumericError,
    RateBox,
    RewardRates,
    ScenarioConfig,
    Strategy,
    SweepSpec,
    SystemParams,
    best_response,
    client_reward,
    client_utility,
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
    total_cost,
    verify_client_equilibrium,
    verify_server_equilibrium,
)
from ifedcrowd import equilibrium, game_core, harness
from ifedcrowd.game_core import ACCURACY_MAX, ACCURACY_MIN, FRESHNESS_MAX

SINGLE = [ClientProfile(id=0, gamma=2.0, delta=1.0, t_min=1.0)]
PARAMS_1 = SystemParams(alpha=80.0, beta=50.0, comm_size=0.0, n=1)
THIRTY = [ClientProfile(id=k, gamma=2.0, delta=1.0, t_min=1.0) for k in range(30)]
PARAMS_30 = SystemParams(alpha=80.0, beta=50.0, comm_size=0.0, n=30)
SCAN = 4097  # points of the dense grid the oracles read


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
    assert eq.r1_source == "kink"
    assert eq.r2_source == "root"


def test_compute_equilibrium_identical_clients_symmetric():
    box = feasible_rate_box(THIRTY, 100.0)
    eq = compute_equilibrium(THIRTY, PARAMS_30, box)
    assert len(set(eq.strategies)) == 1
    assert len(eq.client_utilities) == 30
    assert eq.rates.r1 == pytest.approx(2.348, abs=1e-3)


def default_cell_runs(base=ScenarioConfig()):
    """(population, params, box) of every run of every sweep cell around ``base``."""
    for axis in harness.SWEEP_AXES:
        spec = SweepSpec.for_axis(axis, base)
        for value in spec.values:
            config = spec.cell_config(value)
            for run in range(config.runs):
                pop = sample_population(config, run)
                yield pop, config.system_params, feasible_rate_box(pop, config.r2_cap)


def same_bits(x, y):
    return np.asarray(x).tobytes() == np.asarray(y).tobytes()


def stacks_to_solve():
    """(params, populations, boxes) of stacks that share their params."""
    for axis in harness.SWEEP_AXES:
        spec = SweepSpec.for_axis(axis, ScenarioConfig())
        for value in spec.values:
            config = spec.cell_config(value)
            pops = [sample_population(config, run) for run in range(config.runs)]
            yield config.system_params, pops, [feasible_rate_box(p, config.r2_cap) for p in pops]
    # per-worker valuations at n = 300: reads of more than _BLOCK entries
    config = ScenarioConfig(n=300, alpha=2400.0, beta=1500.0, runs=4)
    pops = [sample_population(config, run) for run in range(config.runs)]
    yield config.system_params, pops, [feasible_rate_box(p, config.r2_cap) for p in pops]
    # completion times 1 to 10^4 times the default: boxes of very different
    # widths, whose refine brackets close after different numbers of steps
    rng = np.random.default_rng(11)
    pops = []
    for p in range(12):
        gamma, t = rng.uniform(1.0, 5.0, 12), 10.0 ** (p % 5) * rng.uniform(1.0, 3.0, 12)
        pops.append(game_core.Population(np.arange(12), gamma, rng.uniform(1.0, 2.0, 12), t))
    params = SystemParams(alpha=96.0, beta=60.0, comm_size=0.0, n=12)
    yield params, pops, [feasible_rate_box(p, 1e6) for p in pops]


def test_a_stack_solves_each_population_as_its_own_solve_does():
    # each default sweep cell solved as one stack of its runs, and the
    # stacks above: every population's rates, sources, responses and
    # utilities equal those of its own solve bit for bit
    solved = 0
    for params, pops, boxes in stacks_to_solve():
        stack = [np.stack([getattr(pop, k) for pop in pops]) for k in ("gamma", "delta", "t_min")]
        for pop, box, got in zip(pops, boxes, equilibrium._equilibria(*stack, params, boxes)):
            want = compute_equilibrium(pop, params, box)
            assert (got.r1_source, got.r2_source) == (want.r1_source, want.r2_source)
            for name in ("accuracy", "freshness", "completion_time", "utilities", "server_utility"):
                assert same_bits(getattr(got, name), getattr(want, name)), (params, name)
            assert same_bits([got.rates.r1, got.rates.r2], [want.rates.r1, want.rates.r2])
            solved += 1
    assert solved == 196


def test_compute_equilibrium_source_names_the_winner():
    rng = np.random.default_rng(31)
    cases = []
    for _ in range(10):
        pop = random_population(rng, int(rng.integers(1, 12)))
        params = SystemParams(alpha=80.0, beta=50.0, comm_size=0.0, n=len(pop))
        cases.append((pop, params, feasible_rate_box(pop, 100.0)))
    cases += default_cell_runs()
    assert len(cases) == 190
    r1_sources = set()
    for pop, params, box in cases:
        eq = compute_equilibrium(pop, params, box)
        assert len(eq.strategies) == len(pop)
        gamma = np.array([p.gamma for p in pop])
        delta = np.array([p.delta for p in pop])
        t = np.array([p.t_min for p in pop])
        gt = gamma * t
        c_in, c_out = 1.0 + math.log1p(ACCURACY_MIN), 1.0 + math.log1p(ACCURACY_MAX)
        axes = (
            (
                eq.rates.r1,
                eq.r1_source,
                box.r1_lo,
                box.r1_hi,
                np.concatenate([gt * c_in, gt * c_out]),
                lambda r: r1_slope(r, gamma, t, params, True),
            ),
            (
                eq.rates.r2,
                eq.r2_source,
                box.r2_lo,
                box.r2_hi,
                np.concatenate([delta, delta * np.exp(FRESHNESS_MAX * delta)]),
                lambda r: equilibrium._r2_slope(r, delta, params, True),
            ),
        )
        for rate, source, lo, hi, kinks, slope in axes:
            assert source in ("root", "kink", "edge")
            assert (source == "edge") == (rate in (lo, hi)), (source, rate, lo, hi)
            if source == "kink":
                assert rate in kinks, rate
            if source == "root":
                assert slope(rate * (1 - 1e-7)) > 0 >= slope(rate * (1 + 1e-7)), rate
        r1_sources.add(eq.r1_source)
    assert r1_sources == {"root", "kink", "edge"}


def test_compute_equilibrium_degenerate_box_reports_edges():
    box = RateBox(r1_lo=3.0, r1_hi=3.0, r2_lo=5.0, r2_hi=5.0)
    eq = compute_equilibrium(SINGLE, PARAMS_1, box)
    assert (eq.rates.r1, eq.rates.r2) == (3.0, 5.0)
    assert (eq.r1_source, eq.r2_source) == ("edge", "edge")


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
        report = verify_server_equilibrium(pop, params, eq.rates, box)
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


# The solvers take a stack of populations (`_refine`, `_best`, `_argmax_r1`,
# `_argmax_r2`).  These adapters give the tests below their one-population
# form: plain slope and value functions of the rates, scalar box ends, and
# the error raised rather than returned.

SECTIONS = 64  # sections per coarse cell the grid search oracle reads


def stack_form(fn):
    """A one-population slope, value or bound function, taking and ignoring the populations."""
    return lambda *args: fn(*args[:-1])


def solved(found):
    if isinstance(found, Exception):
        raise found
    return found


def argmax_r1(gamma, t, params, box, clamp):
    """`_argmax_r1` on a stack of one population."""
    stack = np.asarray(gamma, dtype=float)[None], np.asarray(t, dtype=float)[None]
    (found,) = equilibrium._argmax_r1(*stack, params, [box], clamp)
    return solved(found)


def argmax_r2(delta, params, box, clamp):
    """`_argmax_r2` on a stack of one population."""
    (found,) = equilibrium._argmax_r2(np.asarray(delta, dtype=float)[None], params, [box], clamp)
    return solved(found)


def slope_only(slope):
    """A `_refine` curve function of ``slope`` alone: a NaN curvature makes
    every step the safeguard's midpoint, a bisection."""
    return lambda r: (slope(r), np.full(len(r), np.nan))


def r1_curve(gamma, t, params, clamp):
    """`_r1_newton` of one population, as a function of the rates alone."""
    stack = np.asarray(gamma, dtype=float)[None], np.asarray(t, dtype=float)[None]
    newton = equilibrium._r1_newton(*stack, params.alpha / params.n, clamp)
    return lambda r: newton(r, np.zeros(len(r), dtype=np.intp))


def coarse_points(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """np.linspace(lo_p, hi_p, _CELLS + 1) as row p, for every p, rounded as linspace rounds."""
    j = np.arange(equilibrium._CELLS + 1)
    width = (hi - lo)[:, None]
    step = width / equilibrium._CELLS
    # linspace scales j/equilibrium._CELLS by the width where the step underflows to 0
    points = np.where(step == 0, j / equilibrium._CELLS * width, j * step) + lo[:, None]
    points[:, -1] = hi
    return points


def grid_search(
    slope,
    curve,
    value,
    lo: np.ndarray,
    hi: np.ndarray,
    kinks: np.ndarray,
    kink_pop: np.ndarray,
    cut: np.ndarray,
    bound=None,
) -> list:
    """Oracle: the r1 grid search the package ran before its branch and bound.

    Each population's box is cut into cells at equilibrium._CELLS + 1
    equally spaced points up to the first at or past ``cut``, at hi and at
    the in-box ``kinks``; with ``bound`` the cell ends are valued and the
    cells whose bound falls short of the best end by more than `_best`'s
    tie snap are dropped.  Every kept cell's slope is read at the ends of
    SECTIONS equal sections (ceil((b - a)/h) for a cell that is not
    between neighbouring coarse points), an end at a kink stepped
    max(_XTOL, ulp) inside; each sign change that leaves a slope >= 0 is
    narrowed by `_refine`, its root snapped onto a kink within its
    bracket's width, and `_best` picks among the roots, the edges and the
    kinks of kept cells.  Returns (rate, source) or the NumericError of a
    non-finite slope, per population.
    """
    out: list = [(float(x), "edge") for x in lo]
    live = hi > lo
    if not live.any():
        return out
    inside = live[kink_pop] & (lo[kink_pop] < kinks) & (kinks < hi[kink_pop])
    kinks, kink_pop = kinks[inside], kink_pop[inside]
    coarse = coarse_points(lo, hi)
    below_cut = np.sum(coarse < cut[:, None], axis=1)
    coarse_kept = live[:, None] & (np.arange(equilibrium._CELLS + 1) <= below_cut[:, None])
    points = np.concatenate([coarse[coarse_kept], kinks, hi[live]])
    point_pop = np.concatenate([np.nonzero(coarse_kept)[0], kink_pop, np.flatnonzero(live)])
    order = np.lexsort((points, point_pop))
    points, point_pop = points[order], point_pop[order]
    # not np.unique, whose first call imports numpy.ma
    new = np.ones(len(points), dtype=bool)
    new[1:] = (points[1:] > points[:-1]) | (point_pop[1:] != point_pop[:-1])
    ends, pop = points[new], point_pop[new]
    rank = np.empty(len(order), dtype=np.intp)
    rank[order] = np.cumsum(new) - 1
    n_coarse = int(coarse_kept.sum())
    at = rank[n_coarse : n_coarse + len(kinks)]  # the end at each kink
    at_kink = np.zeros(len(ends), dtype=bool)
    at_kink[at] = True
    at_coarse = np.zeros(len(ends), dtype=bool)
    at_coarse[rank[:n_coarse]] = True
    left = np.flatnonzero(pop[:-1] == pop[1:])
    a, b, cell_pop = ends[left], ends[left + 1], pop[left]
    keep = a < cut[cell_pop]
    if bound is not None:
        v = value(ends, pop)
        top = np.full(len(lo), np.nan)
        starts = equilibrium._starts(pop)
        top[pop[starts]] = np.maximum.reduceat(v, starts)
        floor = top - 1e-10 * np.maximum(1.0, np.abs(top))
        keep &= ~(bound(a, b, v[left], v[left + 1], cell_pop)[0] < floor[cell_pop])
    ends_kept = np.zeros(len(ends), dtype=bool)
    ends_kept[left[keep]] = True
    ends_kept[left[keep] + 1] = True
    valued = ends_kept[at]
    kink_a, kink_b = at_kink[left][keep], at_kink[left + 1][keep]
    whole = (at_coarse[left] & at_coarse[left + 1])[keep]  # between neighbouring coarse points
    a, b, cell_pop = a[keep], b[keep], cell_pop[keep]
    # cell i is read at a_i + (b_i - a_i) j/m_i, j = 0..m_i, each end stepped off a kink
    h = (hi - lo) / (equilibrium._CELLS * SECTIONS)
    m = np.where(whole, SECTIONS, np.maximum(np.ceil((b - a) / h[cell_pop]), 1.0))
    cell = np.repeat(np.arange(len(a)), (m + 1).astype(int))
    j = np.arange(len(cell)) - np.searchsorted(cell, cell)
    xs = a[cell] + (b - a)[cell] * (j / m[cell])
    first, last = j == 0, j == m[cell]
    xs[last] = b[cell[last]]
    step = (first & kink_a[cell]) | (last & kink_b[cell])
    off = np.maximum(equilibrium._XTOL, np.spacing(xs[step]))
    xs[step] += np.where(first[step], 1.0, -1.0) * off
    xs_pop = cell_pop[cell]
    s = np.full(len(xs), -1.0)
    below = xs < cut[xs_pop]
    if below.any():
        s[below] = slope(xs[below], xs_pop[below])
    failed = np.zeros(len(lo), dtype=bool)
    bad = np.flatnonzero(~np.isfinite(s))
    for i in bad[equilibrium._starts(xs_pop[bad])].tolist() if bad.size else ():
        failed[xs_pop[i]] = True
        out[xs_pop[i]] = NumericError(f"derivative not finite at rate {xs[i]}")
    signs = np.sign(s)
    i = np.flatnonzero(
        (cell[:-1] == cell[1:])
        & (xs[:-1] < xs[1:])
        & (signs[:-1] != signs[1:])
        & (signs[:-1] >= 0)
        & ~failed[xs_pop[:-1]]
    )
    bracket_pop = xs_pop[i]
    b_lo, b_hi = equilibrium._refine(curve, xs[i], xs[i + 1], s[i], s[i + 1], bracket_pop)
    roots = 0.5 * (b_lo + b_hi)
    if kinks.size:
        w = (b_hi - b_lo)[:, None]
        held = (
            (bracket_pop[:, None] == kink_pop)
            & (b_lo[:, None] - w <= kinks)
            & (kinks <= b_hi[:, None] + w)
        )
        roots = np.where(held.any(axis=1), kinks[held.argmax(axis=1)], roots)
    pops = np.flatnonzero(live & ~failed)
    if pops.size:
        shown = valued & ~failed[kink_pop]
        kinks, kink_pop = kinks[shown], kink_pop[shown]
        picks = equilibrium._best(value, roots, bracket_pop, lo, hi, kinks, kink_pop, pops)
        for p, pick in zip(pops.tolist(), picks):
            out[p] = pick
    return out


def grid_search1(slope, curve, value, lo, hi, kinks=(), cut=math.inf, bound=None):
    """`grid_search` on one population."""
    kinks = np.asarray(kinks, dtype=float)
    (found,) = grid_search(
        stack_form(slope),
        stack_form(curve),
        stack_form(value),
        np.array([lo]),
        np.array([hi]),
        kinks,
        np.zeros(len(kinks), dtype=np.intp),
        np.array([cut]),
        None if bound is None else stack_form(bound),
    )
    return solved(found)


def search1(slope, value, lo, hi, kinks=(), cut=math.inf, bound=None, curve=None):
    """`grid_search` on one population; without ``curve`` it refines by bisection."""
    return grid_search1(slope, curve or slope_only(slope), value, lo, hi, kinks, cut, bound)


def oracle_r1(search, gamma, t, params, box, clamp):
    """r1 by a one-population oracle ``search`` (`grid_search1`, `parent_search`
    or `refine_every_sign_change`) given what `_argmax_r1` gave the grid
    search: on the realized slice the cut, the down-kinks and `_R1Bound`."""
    gamma, t = np.asarray(gamma, dtype=float), np.asarray(t, dtype=float)
    cut, kinks, bound = math.inf, (), None
    if clamp:
        cut = float(equilibrium._r1_cut(params, t))
        if cut <= box.r1_lo:
            return box.r1_lo, "edge"
        cells = equilibrium._R1Bound(gamma[None], t[None], params.alpha / params.n)
        bound = lambda *ends: cells(*ends, np.zeros(len(ends[0]), dtype=np.intp))  # noqa: E731
        kinks = down_kinks(gamma, t, params)
    return search(
        lambda r: r1_slope(r, gamma, t, params, clamp),
        r1_curve(gamma, t, params, clamp),
        lambda r: equilibrium._r1_value(r, gamma, t, params, clamp),
        box.r1_lo,
        box.r1_hi,
        kinks,
        cut,
        bound,
    )


def refine1(curve, lo, hi, s_lo, s_hi):
    """`_refine` on brackets of one population."""
    pop = np.zeros(len(lo), dtype=np.intp)
    return equilibrium._refine(stack_form(curve), lo, hi, s_lo, s_hi, pop)


def best1(value, roots, lo, hi, kinks):
    """`_best` of one population."""
    roots, kinks = np.asarray(roots, dtype=float), np.asarray(kinks, dtype=float)
    zeros = np.zeros(len(roots) + len(kinks), dtype=np.intp)
    (pick,) = equilibrium._best(
        stack_form(value),
        roots,
        zeros[: len(roots)],
        np.array([lo]),
        np.array([hi]),
        kinks,
        zeros[len(roots) :],
        np.array([0]),
    )
    return pick


def scalar_search_value(slope, value, lo, hi, kinks):
    """Oracle: best value over the scan's sign changes, each bisected on its own."""
    xs = np.linspace(lo, hi, SCAN)
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


@settings(max_examples=40)
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
                lambda: argmax_r1(gamma, t, params, box, clamp),
                lambda r: r1_slope(r, gamma, t, params, clamp),
                lambda r: equilibrium._r1_value(r, gamma, t, params, clamp),
                box.r1_lo,
                box.r1_hi,
                r1_kinks,
            ),
            (
                lambda: argmax_r2(delta, params, box, clamp),
                lambda r: equilibrium._r2_slope(r, delta, params, clamp),
                lambda r: equilibrium._r2_value(r, delta, params, clamp),
                box.r2_lo,
                box.r2_hi,
                r2_kinks,
            ),
        )
        for argmax, slope, value, lo, hi, kinks in axes:
            rate, _ = argmax()
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


@st.composite
def kinked_r2_scenarios(draw):
    # delta near 0.05-0.8 puts freshness caps delta e^{10 delta} inside the
    # r2 box [max delta, 100], so the realized r2 axis has in-box kinks
    pop, params = draw(heterogeneous_scenarios())
    g = draw(st.floats(0.05, 0.5))
    deltas = draw(st.lists(st.floats(g, g + 0.3), min_size=len(pop), max_size=len(pop)))
    pop = [
        ClientProfile(id=p.id, gamma=p.gamma, delta=d, t_min=p.t_min)
        for p, d in zip(pop, deltas)
    ]
    return pop, params


@settings(max_examples=60)
@given(kinked_r2_scenarios())
def test_clamped_r2_with_in_box_kinks_is_exact(scenario):
    pop, params = scenario
    box = feasible_rate_box(pop, 100.0)
    delta = np.array([p.delta for p in pop])
    kinks = delta * np.exp(FRESHNESS_MAX * delta)
    kinks = kinks[(box.r2_lo < kinks) & (kinks < box.r2_hi)]
    rate, _ = argmax_r2(delta, params, box, clamp=True)
    grid = np.concatenate([np.linspace(box.r2_lo, box.r2_hi, 20001), kinks])
    _, u_star = realized_axis_values(pop, params, box.r1_lo, rate)
    _, u_grid = realized_axis_values(pop, params, box.r1_lo, grid)
    assert u_star >= np.max(u_grid) - 1e-9
    slope = lambda r: equilibrium._r2_slope(r, delta, params, True)  # noqa: E731
    value = lambda r: equilibrium._r2_value(r, delta, params, True)  # noqa: E731
    best = scalar_search_value(slope, value, box.r2_lo, box.r2_hi, kinks)
    assert value(rate) >= best - 1e-12 * max(1.0, abs(best))


def direct_r2(r, delta, params, clamp):
    """Oracle: the r2 slice and its right slope summed client by client."""
    r = np.asarray(r, dtype=float)[:, None]
    raw = np.log(r / delta) / delta
    f = np.clip(raw, 0.0, FRESHNESS_MAX) if clamp else raw
    if clamp:  # live on [0, FRESHNESS_MAX), stated through the kinks themselves
        live = (r >= delta) & (r < delta * np.exp(FRESHNESS_MAX * delta))
    else:
        live = np.ones_like(raw, dtype=bool)
    margin = params.beta / params.n - r[:, 0]
    value = margin * f.sum(axis=1)
    slope = margin / r[:, 0] * (live @ (1.0 / delta)) - f.sum(axis=1)
    # rounding floor: n roundings of the largest summand magnitudes
    size = np.sum((np.abs(np.log(r)) + np.abs(np.log(delta))) / delta, axis=1)
    size += FRESHNESS_MAX * len(delta)
    eps = 4 * len(delta) * np.finfo(float).eps
    floors = (
        eps * np.abs(margin) * size,
        eps * (np.abs(margin) / r[:, 0] * np.sum(1.0 / delta) + size),
    )
    return value, slope, raw, live, floors


def test_r2_prefix_sums_match_direct_formulas():
    rng = np.random.default_rng(41)
    for n in (1, 2, 17, 300):
        delta = rng.uniform(0.05, 0.9, n)
        delta[: n // 3] = delta[0]  # duplicated kinks
        cap = delta * np.exp(FRESHNESS_MAX * delta)
        params = SystemParams(alpha=80.0, beta=float(rng.uniform(10, 5000)), comm_size=0.0, n=n)
        rate_sets = {
            "spread": np.exp(rng.uniform(np.log(0.5 * delta.min()), np.log(2 * cap.max()), 400)),
            "outside": np.array([0.25, 0.99]) * delta.min(),
            "beyond": np.array([1.01, 3.0]) * cap.max(),
            "kinks": np.concatenate([delta, cap]),
        }
        for clamp in (False, True):
            for name, rates in rate_sets.items():
                value, slope, raw, live, (v_floor, s_floor) = direct_r2(rates, delta, params, clamp)
                if clamp and name != "kinks":
                    # off the kinks the exact mask is the [0, FRESHNESS_MAX) test
                    np.testing.assert_array_equal(live, (raw >= 0) & (raw < FRESHNESS_MAX))
                got_v = equilibrium._r2_value(rates, delta, params, clamp)
                got_s = equilibrium._r2_slope(rates, delta, params, clamp)
                assert np.all(np.abs(got_v - value) <= 1e-12 * np.abs(value) + v_floor)
                assert np.all(np.abs(got_s - slope) <= 1e-12 * np.abs(slope) + s_floor)
                for i in (0, len(rates) - 1):  # scalar in, float out
                    assert isinstance(equilibrium._r2_value(float(rates[i]), delta, params, clamp), float)
                    assert equilibrium._r2_slope(float(rates[i]), delta, params, clamp) == got_s[i]


def test_clamped_r2_search_holds_no_rates_by_clients_array():
    # 10^4 clients, 7932 of whose freshness caps lie inside the box; one
    # 4097 x 10^4 float array alone would take 328 MB
    import tracemalloc

    config = ScenarioConfig(n=10**4, beta=5e4, delta=(0.05, 0.35))
    pop = sample_population(config, 0)
    params = config.system_params
    box = feasible_rate_box(pop, config.r2_cap)
    delta = np.array([p.delta for p in pop])
    tracemalloc.start()
    try:
        rate, source = argmax_r2(delta, params, box, clamp=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20
    assert source == "root" and box.r2_lo < rate < box.r2_hi


@pytest.mark.parametrize("n", [10, 2000])
def test_r1_values_only_the_kinks_where_the_slope_jumps_down(monkeypatch, n):
    # an upward slope jump is a convex corner, never a maximum; each client
    # has at most one downward kink, so at most n kinks end a cell.  The cell
    # ends (the _CELLS + 1 coarse points, hi and those kinks) are valued once,
    # then `_best` values the roots, the edges and the kinks of kept cells
    if n == 10:
        config = SweepSpec.for_axis("workers", ScenarioConfig()).cell_config(10)
        pop = sample_population(config, 2)
    else:
        config = ScenarioConfig(n=n)
        pop = sample_population(config, 0)
    params = config.system_params
    box = feasible_rate_box(pop, config.r2_cap)
    counts = {"rows": 0, "roots": 0}
    value, refine = equilibrium._r1_value, equilibrium._refine

    def counted_value(r, *args):
        counts["rows"] += np.size(r)
        return value(r, *args)

    def counted_refine(curve, lo, *args):
        counts["roots"] += len(lo)
        return refine(curve, lo, *args)

    gamma = np.array([p.gamma for p in pop])
    t = np.array([p.t_min for p in pop])
    monkeypatch.setattr(equilibrium, "_r1_value", counted_value)
    monkeypatch.setattr(equilibrium, "_refine", counted_refine)
    rate, _ = argmax_r1(gamma, t, params, box, clamp=True)
    monkeypatch.undo()
    cell_ends = equilibrium._CELLS + 2 + n
    assert counts["rows"] <= cell_ends + counts["roots"] + 2 + n

    # every kink, upward ones included, still picks the same rate
    gt = gamma * t
    every_kink = np.concatenate(
        [gt * (1.0 + math.log1p(ACCURACY_MIN)), gt * (1.0 + math.log1p(ACCURACY_MAX))]
    )
    full, _ = search1(
        lambda r: r1_slope(r, gamma, t, params, True),
        lambda r: equilibrium._r1_value(r, gamma, t, params, True),
        box.r1_lo,
        box.r1_hi,
        every_kink,
        curve=r1_curve(gamma, t, params, True),
    )
    assert rate == full


def test_refinement_slope_call_budget(monkeypatch):
    # the default workers=10 cell, run 2: the r1 branch and bound values
    # rates in three calls (its starting points, one split level and
    # `_best`) and narrows its one concave sign change in three Newton
    # passes, not dozens of calls per sign change; r2 is solved from prefix
    # sums and never calls the slope helper
    calls = {"r2": 0, "pass": 0, "value": 0}

    def counted(name, slope):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return slope(*args, **kwargs)

        return wrapper

    newton = equilibrium._r1_newton
    monkeypatch.setattr(equilibrium, "_r1_value", counted("value", equilibrium._r1_value))
    monkeypatch.setattr(equilibrium, "_r2_slope", counted("r2", equilibrium._r2_slope))
    monkeypatch.setattr(equilibrium, "_r1_newton", lambda *args: counted("pass", newton(*args)))
    config = SweepSpec.for_axis("workers", ScenarioConfig()).cell_config(10)
    pop = sample_population(config, 2)
    compute_equilibrium(pop, config.system_params, feasible_rate_box(pop, config.r2_cap))
    assert calls == {"r2": 0, "pass": 3, "value": 3}


def r1_curvature_cases():
    """(gamma, t, params, rates) over random populations, rates across and past each box."""
    rng = np.random.default_rng(17)
    for n in (1, 3, 10, 40, 300):
        gamma, t = rng.uniform(0.5, 5.0, n), rng.uniform(0.5, 3.0, n)
        alpha = float(rng.uniform(5.0, 50.0)) * n
        params = SystemParams(alpha=alpha, beta=50.0, comm_size=0.0, n=n)
        gt = gamma * t
        rates = rng.uniform(0.5 * gt.min(), 1.2 * equilibrium._C_OUT * gt.max(), 200)
        yield gamma, t, params, rates


def test_r1_curvature_matches_d2u_dr1_on_the_unclamped_slice():
    # the refine's pass counts every client on the surrogate, as d2u_dr1
    # does, and its slope is du_dr1's; both to 1e-12 of the terms' sizes
    for gamma, t, params, rates in r1_curvature_cases():
        pop = game_core.Population(np.arange(len(gamma)), gamma, np.ones(len(gamma)), t)
        slope, curve = r1_curve(gamma, t, params, False)(rates)
        # each sum's own size: its terms taken positive
        gt, r = gamma * t, rates[:, None]
        x = np.exp(r / gt - 1.0)
        share = params.alpha / params.n
        slope_size = np.sum(x * (share + r / t) / gt + np.abs(x - 1.0) / t, axis=1)
        curve_size = np.sum(x * (np.abs(share - r / t) / gt**2 + 2.0 / (gt * t)), axis=1)
        for i, rate in enumerate(rates):
            want_c, want_s = d2u_dr1(pop, params, rate), du_dr1(pop, params, rate)
            assert abs(curve[i] - want_c) <= 1e-12 * curve_size[i], (rate, curve[i], want_c)
            assert abs(slope[i] - want_s) <= 1e-12 * slope_size[i], (rate, slope[i], want_s)


def test_r1_curvature_matches_a_centred_slope_difference_on_the_clamped_slice():
    # away from the clamp kinks the clamped slope is smooth, and its centred
    # difference over +-h is within O(h^2) of the pass's curvature; the
    # pass's slope is the dense oracle's to 1e-12 of its terms' size
    checked = 0
    for gamma, t, params, rates in r1_curvature_cases():
        h = 1e-5 * rates
        gt = gamma * t
        kinks = np.concatenate([gt * equilibrium._C_IN, gt * equilibrium._C_OUT])
        clear = np.min(np.abs(rates[:, None] - kinks), axis=1) > 4.0 * h
        rates, h = rates[clear], h[clear]
        slope, curve = r1_curve(gamma, t, params, True)(rates)
        up, down = (r1_slope(rates + d, gamma, t, params, True) for d in (h, -h))
        want = (up - down) / (2.0 * h)
        # the curvature's own size: every live client's term taken positive
        x = np.exp(rates[:, None] / gt - 1.0)
        live = (x - 1.0 >= ACCURACY_MIN) & (x - 1.0 < ACCURACY_MAX)
        share = params.alpha / params.n
        terms = x * (np.abs(share - rates[:, None] / t) / gt**2 + 2.0 / (gt * t))
        size = np.sum(live * terms, axis=1)
        assert np.all(np.abs(curve - want) <= 1e-6 * size + 1e-12), (rates, curve, want)
        a = np.clip(x - 1.0, ACCURACY_MIN, ACCURACY_MAX)
        slope_size = np.sum(live * x * (share + rates[:, None] / t) / gt + a / t, axis=1)
        scan = r1_slope(rates, gamma, t, params, True)
        assert np.all(np.abs(slope - scan) <= 1e-12 * slope_size), (rates, slope, scan)
        checked += int(live.any(axis=1).sum())
    assert checked > 300


def test_the_refine_takes_the_middle_where_the_curvature_is_not_negative():
    # the slope r^4 on [0, 1] leaves 0 at 0 and rises: the secant point is
    # the end 0, so the first read is the middle, 0.5, which keeps [0, 0.5).
    # Its Newton point, 0.375, lies inside that, but the curvature there is
    # positive, so the next read is the middle again, 0.25; the bracket
    # closes on the first step where the slope leaves 0, in about 40 passes
    # (Newton from 0.5 would creep toward 0 by r^2/12 a pass)
    reads = []

    def curve(r, pop):
        reads.append(r.copy())
        assert len(reads) <= 45
        return r**4, 12.0 * r**2

    lo, hi, pop = np.array([0.0]), np.array([1.0]), np.zeros(1, dtype=np.intp)
    b_lo, b_hi = equilibrium._refine(curve, lo, hi, np.zeros(1), np.ones(1), pop)
    assert reads[0][1] == 0.5
    assert reads[1][1] == pytest.approx(0.25, abs=1e-11)
    assert (b_lo[0], b_hi[0]) == (0.0, 2.0**-40)


def test_the_refine_takes_the_middle_where_newton_leaves_the_bracket_across_an_up_kink():
    # a slope falling slowly to 0.5, where it jumps up, then steeply to its
    # root at 0.6: the secant point lies on the slow piece, whose Newton point
    # is far past the bracket, so the next read is the middle of what is left
    reads = []

    def curve(r, pop):
        reads.append(r.copy())
        slow = r < 0.5
        return np.where(slow, 1.0 - 0.1 * r, 2.0 - 20.0 * (r - 0.5)), np.where(slow, -0.1, -20.0)

    lo, hi, pop = np.array([0.0]), np.array([1.0]), np.zeros(1, dtype=np.intp)
    b_lo, b_hi = equilibrium._refine(curve, lo, hi, np.array([1.0]), np.array([-8.0]), pop)
    first = reads[0][1]
    assert first == pytest.approx(1.0 / 9.0, abs=1e-12)
    assert reads[1][1] == pytest.approx(0.5 * (first + 1.0), abs=1e-11)
    assert b_lo[0] < 0.6 < b_hi[0] and b_hi[0] - b_lo[0] <= equilibrium._XTOL
    assert len(reads) <= 4


def test_a_newton_point_far_past_the_bracket_takes_the_middle_without_a_warning():
    # a curvature of -1e-300 puts the Newton point near 1e300, whose count of
    # steps would overflow; the refine bisects to the root of 0.3 - r^3
    def curve(r, pop):
        return 0.3 - r**3, np.full(len(r), -1e-300)

    lo, hi, pop = np.array([0.0]), np.array([1.0]), np.zeros(1, dtype=np.intp)
    b_lo, b_hi = equilibrium._refine(curve, lo, hi, np.array([0.3]), np.array([-0.7]), pop)
    assert b_lo[0] < 0.3 ** (1.0 / 3.0) < b_hi[0] and b_hi[0] - b_lo[0] <= equilibrium._XTOL


def test_a_bracket_holding_an_up_kink_closes_on_a_sign_change_of_the_slope():
    # brackets that hold an entry kink where a client's slope jumps up, and
    # no kink where it jumps down (those end the search's cells), on
    # default-sweep populations: from the last read at or left of the kink
    # with a slope >= 0 to the first read right of it with a negative slope.
    # Newton steps from one smooth piece may leave the bracket across the
    # kink, and the safeguard keeps the refine on a sign change of the slope
    closed = 0
    for pop, params, box in default_cell_runs():
        gamma, t = pop.gamma, pop.t_min
        share = params.alpha / params.n
        up = gamma * t * equilibrium._C_IN
        up = up[(share > equilibrium._C_IN * gamma) & (box.r1_lo < up) & (up < box.r1_hi)]
        down = down_kinks(gamma, t, params)
        for kink in up:
            xs = kink + np.linspace(-0.2, 0.2, 401)
            s = r1_slope(xs, gamma, t, params, True)
            left = np.flatnonzero((xs < kink) & (s >= 0.0))
            right = np.flatnonzero((xs > kink) & (s < 0.0))
            if not (left.size and right.size):
                continue
            i, j = left[-1], right[0]
            if np.any((xs[i] <= down) & (down <= xs[j])):
                continue
            curve = r1_curve(gamma, t, params, True)
            b_lo, b_hi = refine1(curve, xs[[i]], xs[[j]], s[[i]], s[[j]])
            assert xs[i] <= b_lo[0] < b_hi[0] <= xs[j]
            assert b_hi[0] - b_lo[0] <= equilibrium._XTOL
            ends = np.concatenate([b_lo, b_hi])
            ends = np.sign(r1_slope(ends, gamma, t, params, True))
            assert ends[0] == np.sign(s[i]) != ends[1], (kink, xs[i], xs[j], b_lo, b_hi)
            closed += 1
    assert closed >= 12


def test_roots_above_8192_end_on_adjacent_floats(monkeypatch):
    # one ulp exceeds _XTOL above 8192, so a bracket closes on one step, one
    # ulp of its larger starting end: adjacent floats, or two ulps apart
    # where the bracket, a whole concave cell, starts in the next binade up.
    # Its ends straddle a sign change of the refine's own slope (there
    # another slope sum rounds differently, by about the slope an ulp away)
    refine = equilibrium._refine
    closed = []

    def recorded(curve, lo, hi, s_lo, *args):
        b_lo, b_hi = refine(curve, lo, hi, s_lo, *args)
        closed.append((b_lo, b_hi, np.sign(s_lo), hi))
        return b_lo, b_hi

    monkeypatch.setattr(equilibrium, "_refine", recorded)
    roots = 0
    for seed in range(6):
        rng = np.random.default_rng(seed)
        gamma, t = rng.uniform(6e3, 9e3, 8), rng.uniform(1.0, 2.0, 8)
        box = feasible_rate_box(game_core.Population(np.arange(8), gamma, np.ones(8), t), 1e9)
        for ratio in (1.2, 1.5, 2.0, 3.0):
            params = SystemParams(alpha=8 * ratio * gamma.mean(), beta=50.0, comm_size=0.0, n=8)
            closed.clear()
            rate, source = argmax_r1(gamma, t, params, box, True)
            for b_lo, b_hi, sign, hi in closed:
                big = b_lo > 8192.0
                assert np.all(b_lo[big] < b_hi[big])
                assert np.all(b_hi[big] - b_lo[big] <= np.spacing(hi[big]))
                s, _ = r1_curve(gamma, t, params, True)(np.concatenate([b_lo, b_hi]))
                left, right = np.sign(s).reshape(2, -1)
                assert np.all(left == sign) and np.all(right != sign)
            roots += source == "root" and rate > 8192.0
    assert roots >= 8


def test_every_default_sweep_cell_refines_in_few_passes(monkeypatch):
    # a cell narrows its runs' concave sign changes together, once after its
    # last level, in four Newton passes at most on every default cell
    # (each bracket is a whole concave cell, about 1/64 of the box)
    newton = equilibrium._r1_newton
    passes = []

    def counted(*args):
        step = newton(*args)

        def wrapper(*pass_args):
            passes[-1] += 1
            return step(*pass_args)

        return wrapper

    monkeypatch.setattr(equilibrium, "_r1_newton", counted)
    for axis in harness.SWEEP_AXES:
        spec = SweepSpec.for_axis(axis, ScenarioConfig())
        for value in spec.values:
            passes.append(0)
            harness.evaluate_cell(spec.cell_config(value), [MechanismKind.IFEDCROWD])
    assert len(passes) == 18
    assert max(passes) <= 4


def test_a_whole_coarse_cell_is_read_at_its_sections(monkeypatch):
    # the surrogate starts from np.linspace(r1_lo, r1_hi, 65), bit for bit,
    # valued in its first call: a whole coarse cell is bounded and closed
    # from its own curvature sums, not read at sections
    valued = []
    value = equilibrium._r1_value
    monkeypatch.setattr(
        equilibrium, "_r1_value", lambda r, *args: valued.append(np.copy(r)) or value(r, *args)
    )
    for pop, params, box in default_cell_runs():
        valued.clear()
        solve_r1(pop, params, box)
        coarse = np.linspace(box.r1_lo, box.r1_hi, equilibrium._CELLS + 1)
        assert same_bits(valued[0], coarse)


def test_r1_search_and_verification_memory_stay_within_absolute_budgets():
    # the r1 helpers value and slope rates in blocks of at most _BLOCK rates x
    # clients entries, so neither a search nor a whole verification holds a
    # scan x clients array; one such 4097 x 10^4 array alone takes 328 MB
    import tracemalloc

    def peak_bytes(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    config = ScenarioConfig(n=3000)
    pop = sample_population(config, 0)
    box = feasible_rate_box(pop, config.r2_cap)
    gamma = np.array([p.gamma for p in pop])
    t = np.array([p.t_min for p in pop])
    params = config.system_params
    search = lambda: argmax_r1(gamma, t, params, box, clamp=True)  # noqa: E731
    assert peak_bytes(search) <= 8 * 2**20
    assert peak_bytes(lambda: harness.verify_scenario(ScenarioConfig(n=10**4))) <= 64 * 2**20


def test_the_refine_pass_holds_no_rates_by_clients_array():
    # 300 rates over 3000 clients: one 300 x 3000 float array alone takes
    # 7.2 MB, and the pass's blocks keep all its temporaries within _BLOCK
    # entries (0.5 MB), both clamped and unclamped
    import tracemalloc

    rng = np.random.default_rng(5)
    gamma, t = rng.uniform(0.5, 5.0, (1, 3000)), rng.uniform(0.5, 3.0, (1, 3000))
    gt = gamma * t
    rates = rng.uniform(gt.min(), equilibrium._C_OUT * gt.max(), 300)
    pop = np.zeros(300, dtype=np.intp)
    for clamp in (True, False):
        newton = equilibrium._r1_newton(gamma, t, 2.0, clamp)
        tracemalloc.start()
        try:
            slope, curve = newton(rates, pop)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2**20, peak
        assert np.all(np.isfinite(slope)) and np.all(np.isfinite(curve))


def dense_r1(r1, gamma, t, params, clamp, slope):
    """Oracle: the r1 slice or its right slope over the full rates x clients array.

    This is how `_r1_value` and the r1 slope were computed before the live
    windows, in the clients' own order.  Also returns the rounding scale:
    the summed magnitudes of each rate's terms.
    """
    r = np.atleast_1d(np.asarray(r1, dtype=float))
    gt = gamma * t
    share = params.alpha / params.n
    with np.errstate(over="ignore", invalid="ignore"):
        x = np.exp(r[:, None] / gt - 1.0)
        a = x - 1.0
        if clamp:
            x[~((a >= ACCURACY_MIN) & (a < ACCURACY_MAX))] = 0.0
            np.clip(a, ACCURACY_MIN, ACCURACY_MAX, out=a)
        if slope:
            out = x @ (share / gt) - r * (x @ (1.0 / (t * gt))) - a @ (1.0 / t)
            size = x @ (share / gt) + np.abs(r) * (x @ (1.0 / (t * gt))) + np.abs(a) @ (1.0 / t)
        else:
            out = share * a.sum(axis=1) - r * (a @ (1.0 / t))
            size = share * np.abs(a).sum(axis=1) + np.abs(r) * (np.abs(a) @ (1.0 / t))
    return out, size


def r1_slope(r1, gamma, t, params, clamp):
    """Oracle: the r1 slice's right slope by `dense_r1`, in blocks of rates, shaped as r1."""
    r = np.atleast_1d(np.asarray(r1, dtype=float))
    step = max((1 << 18) // len(gamma), 1)
    parts = [dense_r1(r[i : i + step], gamma, t, params, clamp, True)[0] for i in range(0, len(r), step)]
    out = np.concatenate([np.empty(0), *parts])
    return out if np.ndim(r1) else float(out[0])


def r1_test_rates(rng, gamma, t, spread):
    """Every client's entry and cap kink, one ulp either side of each, and
    ``spread`` rates across and beyond the kinks, shuffled."""
    gt = gamma * t
    kinks = np.concatenate([gt * equilibrium._C_IN, gt * equilibrium._C_OUT])
    rates = np.concatenate(
        [
            kinks,
            np.nextafter(kinks, 0.0),
            np.nextafter(kinks, np.inf),
            rng.uniform(0.5 * gt.min(), 1.2 * equilibrium._C_OUT * gt.max(), spread),
        ]
    )
    return rng.permutation(rates)


def assert_r1_helpers_match_dense_oracle(rates, gamma, t, params):
    for clamp in (True, False):
        want, size = dense_r1(rates, gamma, t, params, clamp, False)
        got = equilibrium._r1_value(rates, gamma, t, params, clamp)
        assert got.shape == rates.shape
        # a client misclassified at a window edge moves a value by a whole
        # client term, far more than this
        bad = ~(np.abs(got - want) <= 1e-12 * size)
        assert not bad.any(), (clamp, rates[bad][:3], got[bad][:3], want[bad][:3])
        scalar = equilibrium._r1_value(float(rates[0]), gamma, t, params, clamp)
        assert isinstance(scalar, float)
        assert abs(scalar - want[0]) <= 1e-12 * size[0]


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    alpha=st.floats(1.0, 500.0),
    twins=st.booleans(),
    block=st.sampled_from([None, 97]),
)
def test_windowed_r1_helpers_match_dense_oracle(n, seed, alpha, twins, block):
    rng = np.random.default_rng(seed)
    gamma = rng.uniform(0.5, 5.0, n)
    t = rng.uniform(0.5, 3.0, n)
    if twins:  # identical clients share both kinks
        gamma[: n // 3], t[: n // 3] = gamma[0], t[0]
    params = SystemParams(alpha=alpha, beta=50.0, comm_size=0.0, n=n)
    rates = r1_test_rates(rng, gamma, t, spread=200)
    with patch.object(equilibrium, "_BLOCK", block or equilibrium._BLOCK):
        assert_r1_helpers_match_dense_oracle(rates, gamma, t, params)


def test_windowed_r1_helpers_match_dense_oracle_at_scale_size():
    config = ScenarioConfig(n=2000)
    pop = sample_population(config, 0)
    box = feasible_rate_box(pop, config.r2_cap)
    gamma = np.array([p.gamma for p in pop])
    t = np.array([p.t_min for p in pop])
    rng = np.random.default_rng(7)
    rates = rng.permutation(
        np.concatenate(
            [
                np.linspace(box.r1_lo, box.r1_hi, SCAN),
                r1_test_rates(rng, gamma[:300], t[:300], spread=0),
            ]
        )
    )
    assert_r1_helpers_match_dense_oracle(rates, gamma, t, config.system_params)


def scale_populations():
    """The four populations of the benchmark's ``scale`` workload at seed 1."""
    rng = random.Random(1)
    for _ in range(4):
        config = ScenarioConfig(n=2000, seed=rng.randrange(1, 2**31))
        pop = sample_population(config, 0)
        yield pop, config.system_params, feasible_rate_box(pop, config.r2_cap)


def test_r1_search_matches_the_dense_search_bit_for_bit():
    # the dense helpers in the clients' own order, in the unchanged search,
    # are the r1 solver as it was before the live windows
    for pop, params, box in [*default_cell_runs(), *scale_populations()]:
        gamma = np.array([p.gamma for p in pop])
        t = np.array([p.t_min for p in pop])
        gt = gamma * t
        share = params.alpha / params.n
        kinks = np.concatenate(
            [
                gt[share < equilibrium._C_IN * gamma] * equilibrium._C_IN,
                gt[share > equilibrium._C_OUT * gamma] * equilibrium._C_OUT,
            ]
        )
        want = search1(
            lambda r: dense_r1(r, gamma, t, params, True, slope=True)[0],
            lambda r: dense_r1(r, gamma, t, params, True, slope=False)[0],
            box.r1_lo,
            box.r1_hi,
            kinks,
            curve=r1_curve(gamma, t, params, True),
        )
        got = argmax_r1(gamma, t, params, box, clamp=True)
        assert got[0].hex() == want[0].hex() and got[1] == want[1], (got, want)


def down_kinks(gamma, t, params):
    """The realized r1 kinks where the slope jumps down, as `_argmax_r1` lists them."""
    gt = gamma * t
    share = params.alpha / params.n
    return np.concatenate(
        [
            gt[share < equilibrium._C_IN * gamma] * equilibrium._C_IN,
            gt[share > equilibrium._C_OUT * gamma] * equilibrium._C_OUT,
        ]
    )


def full_r1_search(gamma, t, params, box, slope, value):
    """The r1 search with no cut and no cell bound: every cell read and every kink valued."""
    return search1(
        lambda r: slope(r, gamma, t, params, True),
        lambda r: value(r, gamma, t, params, True),
        box.r1_lo,
        box.r1_hi,
        down_kinks(gamma, t, params),
        curve=r1_curve(gamma, t, params, True),
    )


def alpha_with_cut(t, n, box, where, u):
    """An alpha whose cut (alpha/n) max t lies below, inside or above the r1 box."""
    cut = {
        "below": u * box.r1_lo,
        "inside": box.r1_lo + u * (box.r1_hi - box.r1_lo),
        "above": (1.0 + u) * box.r1_hi,
    }[where]
    return cut * n / float(t.max())


def assert_r1_cut_is_exact(gamma, t, params, box):
    # the cut changes no rate or source of the full search
    dense = lambda slope: lambda r, *args: dense_r1(r, *args, slope=slope)[0]  # noqa: E731
    want = full_r1_search(gamma, t, params, box, dense(True), dense(False))
    got = argmax_r1(gamma, t, params, box, clamp=True)
    assert got[0].hex() == want[0].hex() and got[1] == want[1], (got, want)
    # past the cut every computed scan slope is negative, the sign the search assumes
    cut = params.alpha / params.n * float(t.max())
    xs = np.linspace(box.r1_lo, box.r1_hi, SCAN)
    past = xs[xs >= cut]
    if past.size:
        assert np.all(r1_slope(past, gamma, t, params, True) < 0)
    # and the realized slice strictly falls there, in or beyond the box
    rs = np.linspace(cut, max(cut, box.r1_hi) + (box.r1_hi - box.r1_lo), 4001)
    values, _ = dense_r1(rs, gamma, t, params, True, slope=False)
    assert np.all(np.diff(values) < 0)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 60),
    seed=st.integers(0, 2**32 - 1),
    where=st.sampled_from(["below", "inside", "above"]),
    u=st.floats(0.05, 0.95),
)
def test_r1_search_past_the_cut_is_exact(n, seed, where, u):
    rng = np.random.default_rng(seed)
    gamma = rng.uniform(0.2, 6.0, n)
    t = rng.uniform(0.5, 3.0, n)
    box = feasible_rate_box(game_core.Population(np.arange(n), gamma, np.ones(n), t), 100.0)
    alpha = alpha_with_cut(t, n, box, where, u)
    params = SystemParams(alpha=alpha, beta=50.0, comm_size=0.0, n=n)
    assert_r1_cut_is_exact(gamma, t, params, box)


@pytest.mark.parametrize("where", ["below", "inside", "above"])
def test_r1_search_past_the_cut_is_exact_at_scale_size(where):
    pop = sample_population(ScenarioConfig(n=2000), 0)
    box = feasible_rate_box(pop, 100.0)
    alpha = alpha_with_cut(pop.t_min, 2000, box, where, 0.5)
    params = SystemParams(alpha=alpha, beta=50.0, comm_size=0.0, n=2000)
    assert_r1_cut_is_exact(pop.gamma, pop.t_min, params, box)


def r1_search_work(monkeypatch, pop, params, box):
    """The rates valued in one `compute_equilibrium`."""
    valued = []
    value = equilibrium._r1_value
    monkeypatch.setattr(
        equilibrium, "_r1_value", lambda r, *args: valued.append(np.size(r)) or value(r, *args)
    )
    compute_equilibrium(pop, params, box)
    monkeypatch.undo()
    return sum(valued)


def test_the_input_decides_whether_the_r1_scan_runs(monkeypatch):
    # (alpha/n) max t lies below r1_lo on these populations, so the slice
    # falls across the whole box: r1_lo is returned with no value read
    big = ScenarioConfig(n=10**4)
    big_pop = sample_population(big, 0)
    cases = [
        *scale_populations(),
        (big_pop, big.system_params, feasible_rate_box(big_pop, big.r2_cap)),
    ]
    for pop, params, box in cases:
        assert r1_search_work(monkeypatch, pop, params, box) == 0
    # at n=2000 with alpha=40000 the cut, about 60, lies past r1_hi, about 24.7,
    # so no cell is ruled out by it; the cell bounds close all but a few
    # cells, and the search values 157 rates (the grid search valued 2,071:
    # its cell ends included every in-box down-kink)
    config = ScenarioConfig(n=2000, alpha=40000.0)
    pop = sample_population(config, 0)
    box = feasible_rate_box(pop, config.r2_cap)
    assert config.alpha / config.n * pop.t_min.max() > box.r1_hi
    assert r1_search_work(monkeypatch, pop, config.system_params, box) <= 157


@pytest.mark.parametrize("n", [10, 2000])
def test_r1_cut_hides_no_error_of_the_full_scan(n):
    # a subnormal gamma*t makes the slope's 1/(gamma t) terms overflow, and
    # the full grid scan raises on it; the branch and bound reads no slope
    # helper, and its bounds keep that client's infinities in the cells it
    # is live in, so it solves, as high as a dense read.  At 1e-300 only
    # 1/(gamma t)^2 overflows, and it returns the full scan's rate and source
    config = ScenarioConfig(n=n)
    base = sample_population(config, 0)
    for tiny in (1e-310, 1e-300):
        gamma = base.gamma.copy()
        gamma[0] = tiny
        pop = game_core.Population(base.ids, gamma, base.delta, base.t_min)
        box = feasible_rate_box(pop, config.r2_cap)
        params = config.system_params
        full = lambda: full_r1_search(  # noqa: E731
            gamma, base.t_min, params, box, r1_slope, equilibrium._r1_value
        )
        eq = compute_equilibrium(pop, params, box)
        if tiny == 1e-310:
            with pytest.raises(NumericError, match="derivative not finite"):
                full()
            dense = np.append(np.linspace(box.r1_lo, box.r1_hi, 1 << 16), eq.rates.r1)
            values = equilibrium._r1_value(dense, gamma, base.t_min, params, True)
            assert values[-1] >= values.max() - 1e-10 * max(1.0, abs(values.max()))
        else:
            want = full()
            assert (eq.rates.r1.hex(), eq.r1_source) == (want[0].hex(), want[1])


@pytest.mark.parametrize("n", [10, 2000])
def test_a_client_whose_terms_overflow_solves_and_verifies_within_the_cell_budget(n):
    # gamma t = 1e-310: 1/g, 1/(g t) and 1/(g^2 t) overflow, and so does
    # that client's slope jump at its exit.  Sums taken from the large-g end
    # keep the infinities in the cells whose windows hold the client, whose
    # range bound stays finite, so every run solves and certifies within the
    # cell budget, with no RuntimeWarning (they fail the tests)
    config = ScenarioConfig(n=n, runs=10 if n == 10 else 2)
    bounded = []
    call = equilibrium._R1Bound.__call__

    def counted(self, a, *args):
        bounded[-1] += len(a)
        return call(self, a, *args)

    for run in range(config.runs):
        base = sample_population(config, run)
        gamma = base.gamma.copy()
        gamma[0] = 1e-310 / base.t_min[0]
        pop = game_core.Population(base.ids, gamma, base.delta, base.t_min)
        box = feasible_rate_box(pop, config.r2_cap)
        bounded.append(0)
        with patch.object(equilibrium._R1Bound, "__call__", counted):
            eq = compute_equilibrium(pop, config.system_params, box)
            report = verify_server_equilibrium(pop, config.system_params, eq.rates, box)
        assert report.passed, (run, report)
        assert bounded[-1] <= 2 * equilibrium._CELL_BUDGET  # a solve's and a certificate's


def in_box(kinks, lo, hi):
    kinks = np.asarray(kinks, dtype=float)
    return kinks[(lo < kinks) & (kinks < hi)]


def cell_reads(lo, hi, kinks, cut=math.inf):
    """Oracle: where `grid_search` reads the slope of each cell below ``cut``,
    every cell kept, as arrays of cell indices and rates.

    The cells end at the _CELLS + 1 coarse points up to the first one at or
    past the cut, at hi and at the in-box kinks.  A cell between two coarse
    points is read at the ends of SECTIONS equal sections, any other at
    the ends of ceil(width / h), h = (hi - lo)/(_CELLS SECTIONS), an end at
    a kink max(_XTOL, ulp) inside the cell.
    """
    kinks = in_box(kinks, lo, hi)
    coarse = np.linspace(lo, hi, equilibrium._CELLS + 1).tolist()
    ends = sorted({*coarse[: int(np.searchsorted(coarse, cut)) + 1], *kinks.tolist(), hi})
    h = (hi - lo) / (equilibrium._CELLS * SECTIONS)
    cells, rates = [], []
    for i, (a, b) in enumerate(zip(ends, ends[1:])):
        if a >= cut:
            break
        if a in coarse and b in coarse:
            m = SECTIONS
        else:
            m = max(math.ceil((b - a) / h), 1)
        pts = [a + (b - a) * (j / m) for j in range(m)] + [b]
        for j, inward in ((0, 1.0), (m, -1.0)):
            if pts[j] in kinks:
                pts[j] += inward * max(equilibrium._XTOL, float(np.spacing(pts[j])))
        cells += [i] * (m + 1)
        rates += pts
    return np.array(cells), np.array(rates)


def refine_every_sign_change(slope, curve, value, lo, hi, kinks=(), cut=math.inf, bound=None):
    """Oracle: the r1 search that refines every sign change inside a cell,
    rising ones included.

    It reads every cell below the cut, so it ignores the cell bound
    ``bound``, and it values every in-box kink.
    """
    if hi <= lo:
        return lo, "edge"
    kinks = in_box(kinks, lo, hi)
    cells, xs = cell_reads(lo, hi, kinks, cut)
    s = np.full(len(xs), -1.0)
    below = xs < cut
    if below.any():
        s[below] = slope(xs[below])
    bad = ~np.isfinite(s)
    if bad.any():
        raise NumericError(f"derivative not finite at rate {xs[bad][0]}")
    signs = np.sign(s)
    i = np.nonzero((cells[:-1] == cells[1:]) & (xs[:-1] < xs[1:]) & (signs[:-1] != signs[1:]))[0]
    b_lo, b_hi = refine1(curve, xs[i], xs[i + 1], s[i], s[i + 1])
    roots = 0.5 * (b_lo + b_hi)
    if kinks.size:
        w = (b_hi - b_lo)[:, None]
        held = (b_lo[:, None] - w <= kinks) & (kinks <= b_hi[:, None] + w)
        roots = np.where(held.any(axis=1), kinks[held.argmax(axis=1)], roots)
    return best1(value, roots, lo, hi, kinks)


def r1_refining_every_sign_change(gamma, t, params, box, clamp):
    """r1 by the oracle search that refines every sign change."""
    return oracle_r1(refine_every_sign_change, gamma, t, params, box, clamp)


def assert_same_r1(gamma, t, params, box, clamp):
    """The solver gives the oracle's rate and source bit for bit, or beats its
    value by more than `_best`'s tie snap: a maximum in a rise narrower than
    the oracle's sections, which it never reads.  Returns whether it beat it."""
    got = argmax_r1(gamma, t, params, box, clamp)
    want = r1_refining_every_sign_change(gamma, t, params, box, clamp)
    if (got[0].hex(), got[1]) == (want[0].hex(), want[1]):
        return False
    v_got, v_want = equilibrium._r1_value(np.array([got[0], want[0]]), gamma, t, params, clamp)
    assert v_got > v_want + 1e-10 * max(1.0, abs(v_want)), (params, clamp, got, want)
    return True


def test_refining_only_what_can_win_keeps_every_r1_rate_and_source():
    # the default sweep in both clamp modes, the scale populations with the
    # cut inside the box, and per-worker valuations at n = 2000 and 10^4:
    # every rate and source is the oracle's but one, a scale population
    # whose maximum, a root 8.7e-5 above the oracle's kink, sits in a rise
    # the oracle's sections step over
    beaten = 0
    for pop, params, box in default_cell_runs():
        for clamp in (True, False):
            beaten += assert_same_r1(pop.gamma, pop.t_min, params, box, clamp)
    for pop, params, box in scale_populations():
        for u in (0.25, 0.5, 0.75):
            alpha = alpha_with_cut(pop.t_min, 2000, box, "inside", u)
            params_u = dataclasses.replace(params, alpha=alpha)
            beaten += assert_same_r1(pop.gamma, pop.t_min, params_u, box, True)
    for n in (2000, 10**4):
        config = ScenarioConfig(n=n, alpha=8.0 * n, beta=5.0 * n)
        pop = sample_population(config, 0)
        box = feasible_rate_box(pop, config.r2_cap)
        beaten += assert_same_r1(pop.gamma, pop.t_min, config.system_params, box, True)
    assert beaten == 1


@settings(max_examples=100)
@given(heterogeneous_scenarios())
def test_refining_only_what_can_win_differs_only_by_a_tied_local_minimum(scenario):
    pop, params = scenario
    box = feasible_rate_box(pop, 100.0)
    gamma, _, t = game_core._population_arrays(pop)
    for clamp in (False, True):
        got = argmax_r1(gamma, t, params, box, clamp)
        want = r1_refining_every_sign_change(gamma, t, params, box, clamp)
        if (got[0].hex(), got[1]) == (want[0].hex(), want[1]):
            continue
        # the oracle picked the root of a sign change leaving a negative slope,
        # a local minimum, that tied the new pick within `_best`'s snap
        kinks = down_kinks(gamma, t, params) if clamp else ()
        cells, xs = cell_reads(box.r1_lo, box.r1_hi, kinks)
        j = np.nonzero((cells[:-1] == cells[1:]) & (xs[:-1] <= want[0]) & (want[0] <= xs[1:]))[0]
        ends = np.concatenate([xs[j], xs[j + 1]])
        left, right = np.sign(r1_slope(ends, gamma, t, params, clamp)).reshape(2, -1)
        assert want[1] == "root" and np.any((left < 0) & (0 <= right))
        v_got, v_want = equilibrium._r1_value(np.array([got[0], want[0]]), gamma, t, params, clamp)
        assert v_got >= v_want - 1e-10 * max(1.0, abs(v_want))


def test_only_sign_changes_that_can_hold_a_maximum_are_refined(monkeypatch):
    # over the 180 default-sweep populations the branch and bound narrows
    # 80 sign changes, each in a concave cell whose slope falls from
    # positive to negative, so each holds a maximum: one `_refine` call per
    # r1 search that has any (74), none from r2, whose segments are solved
    # in closed form.  The grid search read 329 sign changes in its cells,
    # 221 of them local minima, and refined 84
    calls, brackets = [], []
    refine = equilibrium._refine

    def counted(curve, lo, hi, s_lo, s_hi, pop):
        calls.append(len(lo))
        brackets.extend(zip(np.sign(s_lo).tolist(), np.sign(s_hi).tolist()))
        return refine(curve, lo, hi, s_lo, s_hi, pop)

    monkeypatch.setattr(equilibrium, "_refine", counted)
    runs = 0
    for pop, params, box in default_cell_runs():
        compute_equilibrium(pop, params, box)
        runs += 1
    assert runs == 180
    assert len(calls) == 74 and min(calls) >= 1
    assert sum(calls) == 80
    assert set(brackets) == {(1.0, -1.0)}


@pytest.mark.parametrize("bound", [None, lambda a, b, va, vb: (np.maximum(va, vb), a)])
def test_a_slope_falling_across_a_cell_ending_kink_yields_the_kink_unrefined(monkeypatch, bound):
    # one client whose slope jumps from positive to negative at its cap
    # kink, strictly inside a coarse cell.  The kink splits that cell, and
    # the two kink-free cells it ends are closed from their own sums (the
    # slice is convex on each) with no sign change inside, so nothing is
    # refined and `_best` values the kink, also with a cell bound that is
    # only the larger end value
    gamma, t = np.array([1.0]), np.array([1.0])
    box = feasible_rate_box(game_core.Population(np.arange(1), gamma, np.ones(1), t), 100.0)
    kink = gamma[0] * t[0] * equilibrium._C_OUT
    assert box.r1_lo < kink < box.r1_hi
    assert kink not in np.linspace(box.r1_lo, box.r1_hi, equilibrium._CELLS + 1)
    refined = []
    refine = equilibrium._refine

    def counted(curve, lo, *args):
        refined.append(len(lo))
        return refine(curve, lo, *args)

    monkeypatch.setattr(equilibrium, "_refine", counted)
    if bound is not None:
        monkeypatch.setattr(equilibrium._R1Bound, "__call__", lambda self, *args: bound(*args[:-1]))
    assert argmax_r1(gamma, t, PARAMS_1, box, True) == (kink, "kink")
    assert refined == []


def test_reads_step_off_kinks_where_xtol_is_below_half_an_ulp():
    # kinks at 2e4 and more: k +- _XTOL rounds to k, so the grid search read
    # a cell end at a kink at least one ulp inside its cell.  The branch and
    # bound steps off no kink: a cell that ends at one takes its end slope
    # from its own live clients, so every rate it values near a down-kink is
    # that kink itself, and its r1 stays the grid search's
    at_kinks = 0
    for seed in range(4):
        rng = np.random.default_rng(seed)
        gamma, t = rng.uniform(2e4, 6e4, 12), rng.uniform(1.0, 3.0, 12)
        kinks = gamma * t * np.array([[equilibrium._C_IN], [equilibrium._C_OUT]])
        assert np.all(kinks + equilibrium._XTOL == kinks)
        assert np.all(kinks - equilibrium._XTOL == kinks)
        box = feasible_rate_box(game_core.Population(np.arange(12), gamma, np.ones(12), t), 100.0)
        for ratio in (1.2, 1.5, 2.0, 3.0):
            params = SystemParams(alpha=12 * ratio * gamma.mean(), beta=50.0, comm_size=0.0, n=12)
            valued = []
            value = equilibrium._r1_value
            with patch.object(
                equilibrium, "_r1_value", lambda r, *args: valued.append(r) or value(r, *args)
            ):
                argmax_r1(gamma, t, params, box, True)
            down = in_box(down_kinks(gamma, t, params), box.r1_lo, box.r1_hi)
            gap = np.abs(np.concatenate(valued)[:, None] - down)
            near = gap < 1e-6
            assert np.all(gap[near] == 0.0)
            at_kinks += int(near.sum())
            assert not assert_same_r1(gamma, t, params, box, True)
            assert_near_the_parent_search(gamma, t, params, box, True)
    assert at_kinks >= 8


def parent_kink_roots(slope, a, b, sign_lo, kinks):
    """Which grid brackets [a_i, b_i] first leave their left sign across one
    of the sorted ``kinks``, read at k -+ max(_XTOL, ulp(k))."""
    resolved = np.zeros(len(a), dtype=bool)
    owner = np.searchsorted(b, kinks)
    held = owner < len(b)
    held[held] = a[owner[held]] < kinks[held]
    if not held.any():
        return resolved
    k, owner = kinks[held], owner[held]
    eps = np.maximum(equilibrium._XTOL, np.spacing(k))
    s = slope(np.concatenate([k - eps, k + eps])).reshape(2, -1)
    left, right = np.sign(s)
    sign, finite = sign_lo[owner], np.isfinite(s).all(axis=0)
    stays = finite & (left == sign) & (right == sign)
    crosses = finite & (left == sign) & (right != sign)
    decide = np.nonzero(~stays)[0]
    brackets, first = np.unique(owner[decide], return_index=True)
    resolved[brackets] = crosses[decide[first]]
    return resolved


def parent_search(slope, curve, value, lo, hi, kinks=(), cut=math.inf, bound=None):
    """Reference: the r1 search as it read the slope on one SCAN-point grid.

    Cells end at every 64th grid point below the cut, hi and the in-box
    kinks; the kept cells are read on the grid, and a grid bracket that
    holds a kink is resolved by `parent_kink_roots` in a second slope call.
    """
    if hi <= lo:
        return lo, "edge"
    xs = np.linspace(lo, hi, SCAN)
    below = int(np.searchsorted(xs, cut))
    kinks = in_box(kinks, lo, hi)
    valued = kinks
    scan = np.ones(SCAN, dtype=bool)
    if bound is not None:
        last = min(-(-below // 64) * 64, SCAN - 1)
        ends = np.sort(np.concatenate([xs[: last + 1 : 64], kinks, [hi]]))
        v = value(ends)
        a, b = ends[:-1], ends[1:]
        top = float(np.max(v))
        keep = ~(bound(a, b, v[:-1], v[1:])[0] < top - 1e-10 * max(1.0, abs(top)))
        ends_kept = np.zeros(len(ends), dtype=bool)
        ends_kept[:-1] = keep
        ends_kept[1:] |= keep
        valued = kinks[ends_kept[np.searchsorted(ends, kinks)]]
        first = np.searchsorted(xs, a[keep], side="right") - 1
        stop = np.searchsorted(xs, b[keep]) + 1
        scan = np.zeros(SCAN, dtype=bool)
        for i, j in zip(first.tolist(), stop.tolist()):
            scan[i:j] = True
    read = scan.copy()
    read[below:] = False
    s = np.full(SCAN, -1.0)
    if read.any():
        s[read] = slope(xs[read])
    bad = ~np.isfinite(s)
    if bad.any():
        raise NumericError(f"derivative not finite at rate {xs[bad][0]}")
    signs = np.sign(s)
    i = np.nonzero(scan[:-1] & scan[1:] & (signs[:-1] != signs[1:]) & (signs[:-1] >= 0))[0]
    i = i[~parent_kink_roots(slope, xs[i], xs[i + 1], signs[i], np.sort(kinks))]
    b_lo, b_hi = refine1(curve, xs[i], xs[i + 1], s[i], s[i + 1])
    roots = 0.5 * (b_lo + b_hi)
    if kinks.size:
        w = (b_hi - b_lo)[:, None]
        held = (b_lo[:, None] - w <= kinks) & (kinks <= b_hi[:, None] + w)
        roots = np.where(held.any(axis=1), kinks[held.argmax(axis=1)], roots)
    return best1(value, roots, lo, hi, valued)


def assert_near_the_parent_search(gamma, t, params, box, clamp, move=None):
    """`_argmax_r1` gives the grid search's source, a rate within
    2 max(_XTOL, ulp) of its rate (or ``move``), and no lower a value less
    `_best`'s tie snap."""
    got = argmax_r1(gamma, t, params, box, clamp)
    want = oracle_r1(parent_search, gamma, t, params, box, clamp)
    assert got[1] == want[1], (params, clamp, got, want)
    if move is None:
        move = 2.0 * max(equilibrium._XTOL, float(np.spacing(want[0])))
    assert abs(got[0] - want[0]) <= move, (params, clamp, got, want)
    v_got, v_want = equilibrium._r1_value(np.array([got[0], want[0]]), gamma, t, params, clamp)
    assert v_got >= v_want - 1e-10 * max(1.0, abs(v_want))


def test_cell_reads_stay_near_the_grid_search_on_fixed_populations():
    # the default sweep, the sweep at seed 7919 and per-worker valuations
    # alpha = 8n, beta = 5n at n = 100, 2000 and 10^4, in both clamp modes
    cases = [*default_cell_runs(), *default_cell_runs(ScenarioConfig(seed=7919))]
    for n in (100, 2000, 10**4):
        config = ScenarioConfig(n=n, alpha=8.0 * n, beta=5.0 * n)
        pop = sample_population(config, 0)
        cases.append((pop, config.system_params, feasible_rate_box(pop, config.r2_cap)))
    assert len(cases) == 363
    for pop, params, box in cases:
        for clamp in (True, False):
            assert_near_the_parent_search(pop.gamma, pop.t_min, params, box, clamp)


@settings(max_examples=100)
@given(heterogeneous_scenarios())
def test_cell_reads_stay_near_the_grid_search(scenario):
    pop, params = scenario
    box = feasible_rate_box(pop, 100.0)
    gamma, _, t = game_core._population_arrays(pop)
    for clamp in (False, True):
        assert_near_the_parent_search(gamma, t, params, box, clamp)


def test_no_bracket_is_empty_where_kinks_crowd_a_coarse_point_or_each_other(monkeypatch):
    # a down-kink within a read step of a coarse point, of another client's
    # kink, or of its twin's (the same kink) makes cells narrower than a
    # read step of the grid search: cells split at crowded kinks must still
    # hand `_refine` only brackets with room inside, and the pick stays the
    # grid search's
    refine = equilibrium._refine

    def checked(curve, lo, hi, *args):
        assert np.all(lo < hi)
        return refine(curve, lo, hi, *args)

    rng = np.random.default_rng(3)
    gamma, t = rng.uniform(0.5, 3.0, 6), rng.uniform(0.5, 2.0, 6)
    base = game_core.Population(np.arange(6), gamma, np.ones(6), t)
    box = feasible_rate_box(base, 100.0)
    coarse = np.linspace(box.r1_lo, box.r1_hi, equilibrium._CELLS + 1)
    step = (box.r1_hi - box.r1_lo) / (equilibrium._CELLS * SECTIONS)
    g = gamma * t
    inner = coarse[(coarse > 1.01 * equilibrium._C_IN * g.min()) & (coarse < g.max())]
    offsets = [0.0, 1e-15, 4e-13, 1e-12, 1.5e-12, 3e-12, 0.5 * step, 0.99 * step]
    searches = 0
    for x in inner[:: max(len(inner) // 4, 1)]:
        for share in (0.5 * g.mean(), 2.0 * g.mean()):
            for near, other in itertools.product([-1e-12, *offsets], [None, *offsets]):
                # a client whose entry kink, a down-kink, lies near a coarse point
                g_new = [(x + near) / equilibrium._C_IN]
                if other is not None:  # and a second one just right of it, or its twin
                    g_new.append(g_new[0] + other / equilibrium._C_IN)
                t_new = [gk / (2.0 * share) for gk in g_new]
                pop_g = np.concatenate([g, g_new])
                pop_t = np.concatenate([t, t_new])
                n = len(pop_g)
                params = SystemParams(alpha=share * n, beta=50.0, comm_size=0.0, n=n)
                gam = pop_g / pop_t
                assert feasible_rate_box(
                    game_core.Population(np.arange(n), gam, np.ones(n), pop_t), 100.0
                ) == box
                monkeypatch.setattr(equilibrium, "_refine", checked)
                argmax_r1(gam, pop_t, params, box, True)
                monkeypatch.undo()
                assert_near_the_parent_search(gam, pop_t, params, box, True, move=1e-11)
                searches += 1
    assert searches >= 300


def r1_reading_every_cell(gamma, t, params, box):
    """Oracle: the realized r1 search with no cell bound and no cut, which
    reads every cell."""
    return full_r1_search(gamma, t, params, box, r1_slope, equilibrium._r1_value)


def assert_cells_keep_r1(gamma, t, params, box):
    got = argmax_r1(gamma, t, params, box, True)
    want = r1_reading_every_cell(gamma, t, params, box)
    assert (got[0].hex(), got[1]) == (want[0].hex(), want[1]), (params, got, want)


def test_cell_bounds_keep_every_r1_rate_and_source():
    # the default sweep, every cell of the sweep at seed 7919, and
    # per-worker valuations alpha = 8n, beta = 5n at n = 100 and 2000
    held_out = ScenarioConfig(seed=7919)
    cases = [*default_cell_runs(), *default_cell_runs(held_out)]
    assert len(cases) == 360
    for n in (100, 2000):
        config = ScenarioConfig(n=n, alpha=8.0 * n, beta=5.0 * n)
        pop = sample_population(config, 0)
        cases.append((pop, config.system_params, feasible_rate_box(pop, config.r2_cap)))
    for pop, params, box in cases:
        assert_cells_keep_r1(pop.gamma, pop.t_min, params, box)


class BoundWithoutCurvature(equilibrium._R1Bound):
    """Mutant of `_R1Bound`: a cell's bound is max(V(a), V(b)) alone."""

    def __call__(self, a, b, va, vb, pop):
        return np.maximum(va, vb), np.where(va >= vb, a, b)


class BoundOfClientsLiveAtTheEnds(equilibrium._R1Bound):
    """Mutant of `_R1Bound`: a cell's bound is the chord bound, with M
    summed only over the clients live at a cell's ends."""

    def __call__(self, a, b, va, vb, pop):
        g, t = self.g[pop], self.t[pop]

        def live(r):
            return (g * equilibrium._C_IN <= r[:, None]) & (r[:, None] < g * equilibrium._C_OUT)

        terms = b[:, None] / (t * g**2) + 2.0 / (g * t)
        m = (1.0 + ACCURACY_MAX) * np.sum(terms * (live(a) | live(b)), axis=1)
        return np.maximum(va, vb) + m * (b - a) ** 2 / 8.0, np.where(va >= vb, a, b)


def assert_mutant_moves_r1(mutant, gamma, t, alpha):
    """The search keeps the oracle's r1, and with ``mutant`` it misses the
    maximum, which lies strictly inside a coarse cell."""
    gamma, t = np.array(gamma), np.array(t)
    n = len(gamma)
    params = SystemParams(alpha=alpha, beta=50.0, comm_size=0.0, n=n)
    box = feasible_rate_box(game_core.Population(np.arange(n), gamma, np.ones(n), t), 100.0)
    want = r1_reading_every_cell(gamma, t, params, box)
    assert_cells_keep_r1(gamma, t, params, box)
    coarse = np.linspace(box.r1_lo, box.r1_hi, equilibrium._CELLS + 1)
    j = int(np.searchsorted(coarse, want[0]))
    assert want[1] == "root" and coarse[j - 1] < want[0] < coarse[j]
    with patch.object(equilibrium, "_R1Bound", mutant):
        moved = argmax_r1(gamma, t, params, box, True)
    assert moved[0] != want[0]
    v_moved, v_want = equilibrium._r1_value(np.array([moved[0], want[0]]), gamma, t, params, True)
    assert v_moved < v_want
    return coarse[j - 1], coarse[j]


def test_a_bound_without_its_curvature_term_misses_the_maximum():
    # the maximum is a root between two coarse points, and both ends of
    # its cell lie below the best cell end
    gamma, t = [0.612, 0.43, 0.312], [0.038, 0.278, 0.077]
    assert_mutant_moves_r1(BoundWithoutCurvature, gamma, t, 3.0)


def test_a_bump_narrower_than_a_coarse_cell_is_bounded_by_its_client():
    # client 1 is live on [g (1 + ln 1.001), g (1 + ln 1.999)), g = 0.28, strictly
    # inside the coarse cell about [0.27, 0.53], and its interior root is the
    # maximum.  At neither end of the cell is client 1 live, so a bound
    # summed over the clients live at the ends misses its curvature and
    # falls below the maximum, while the cell's bound holds it
    gamma, t = np.array([1e-5, 0.6, 5.0]), np.array([100.0, 0.4667, 2.0])
    params = SystemParams(alpha=3.0, beta=50.0, comm_size=0.0, n=3)
    box = feasible_rate_box(game_core.Population(np.arange(3), gamma, np.ones(3), t), 100.0)
    want = r1_reading_every_cell(gamma, t, params, box)
    assert_cells_keep_r1(gamma, t, params, box)
    coarse = np.linspace(box.r1_lo, box.r1_hi, equilibrium._CELLS + 1)
    j = int(np.searchsorted(coarse, want[0]))
    a, b = coarse[j - 1 : j], coarse[j : j + 1]
    g = gamma[1] * t[1]
    assert want[1] == "root"
    assert a[0] < g * equilibrium._C_IN < want[0] < g * equilibrium._C_OUT < b[0]
    va, vb, top = equilibrium._r1_value(np.array([a[0], b[0], want[0]]), gamma, t, params, True)
    assert top > max(va, vb) + 0.05
    zero = np.zeros(1, dtype=np.intp)
    share = params.alpha / params.n
    ends = a, b, np.array([va]), np.array([vb]), zero
    assert equilibrium._R1Bound(gamma[None], t[None], share)(*ends)[0][0] >= top
    assert BoundOfClientsLiveAtTheEnds(gamma[None], t[None], share)(*ends)[0][0] < top


def test_the_r1_cell_bound_is_never_below_its_end_values():
    # the cone rounded one ulp below V(b) on this cell, which holds the entry
    # kink of a client whose 1/g^2 overflows; the exact cone is never below
    # max(V(a), V(b)), and the bound is floored there
    gamma, t = np.array([[1.0, 1.0, 1e-200]]), np.ones((1, 3))
    params = SystemParams(alpha=24.0, beta=50.0, comm_size=0.0, n=3)
    a, b = np.array([5.005e-201]), np.array([1.0127e-200])
    va, vb = (equilibrium._r1_value(x, gamma[0], t[0], params, True) for x in (a, b))
    assert va < vb
    bound, where = equilibrium._R1Bound(gamma, t, 8.0)(a, b, va, vb, np.zeros(1, dtype=np.intp))
    assert bound[0] == vb[0]


@st.composite
def bound_stacks(draw):
    """A stack of r1 populations that share alpha/n, with cells to bound.

    alpha is 8n (per-worker valuations) or drawn.  A population may hold
    identical twins and a client so small in g that its terms overflow:
    1/g itself at gamma = 1e-310, or only 1/g^2 at 1e-200.  Each population
    gets cells around one of its kinks, so holding it, and cells between
    neighbouring kinks, past the last one or from 0, so holding none.
    """
    n = draw(st.integers(1, 8))
    share = draw(st.sampled_from([8.0, None])) or draw(st.floats(0.5, 12.0))
    gamma, t, cells = [], [], []
    for p in range(draw(st.integers(1, 4))):
        g_p = np.array(draw(st.lists(st.floats(0.2, 6.0), min_size=n, max_size=n)))
        t_p = np.array(draw(st.lists(st.floats(0.5, 3.0), min_size=n, max_size=n)))
        if n >= 2 and draw(st.booleans()):
            g_p[1], t_p[1] = g_p[0], t_p[0]
        g_p[-1] = draw(st.sampled_from([g_p[-1], 1e-310, 1e-200]))
        gamma.append(g_p)
        t.append(t_p)
        kinks = np.sort(np.outer([equilibrium._C_IN, equilibrium._C_OUT], g_p * t_p).ravel())
        edges = np.unique(np.concatenate([[0.0], kinks, [2.0 * kinks[-1]]]))
        for _ in range(draw(st.integers(1, 4))):
            if draw(st.booleans()):
                k = float(draw(st.sampled_from(kinks.tolist())))
                left, right = draw(st.floats(0.01, 0.5)), draw(st.floats(0.01, 0.5))
                a, b = k * (1.0 - left), k * (1.0 + right)
            else:
                i = draw(st.integers(0, len(edges) - 2))
                u, v = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=2, max_size=2)))
                a, b = (edges[i] + x * (edges[i + 1] - edges[i]) for x in (u, v))
            if a < b:
                cells.append((p, a, b))
    return np.array(gamma), np.array(t), share, cells


@settings(max_examples=100, deadline=None)
@given(bound_stacks())
def test_the_r1_cell_bound_holds_and_sees_each_population_alone(stack):
    gamma, t, share, cells = stack
    n = gamma.shape[1]
    params = SystemParams(alpha=share * n, beta=50.0, comm_size=0.0, n=n)
    pop = np.array([p for p, _, _ in cells], dtype=np.intp)
    a = np.array([x for _, x, _ in cells])
    b = np.array([x for _, _, x in cells])
    # each cell's slice on a dense scan, whose ends are the cell's ends
    dense = [
        equilibrium._r1_value(np.linspace(x, y, SCAN), gamma[p], t[p], params, True)
        for p, x, y in cells
    ]
    va, vb = np.array([v[0] for v in dense]), np.array([v[-1] for v in dense])
    r1_bound = equilibrium._R1Bound(gamma, t, share)
    bound, where = r1_bound(a, b, va, vb, pop)
    first, _ = r1_bound.window(a, b, pop)
    assert not np.isnan(bound).any()
    for i, (p, x, y) in enumerate(cells):
        # the bound holds for the exact slice, given V(a) and V(b) as
        # computed; the scan's values carry their own rounding, a few n eps
        # of their terms' magnitudes (|A| <= ACCURACY_MAX)
        size = np.sum((share + y / t[p]) * ACCURACY_MAX)
        assert bound[i] >= dense[i].max() - 4.0 * n * np.finfo(float).eps * size, (p, x, y)
        assert x <= where[i] <= y
        assert bound[i] >= max(va[i], vb[i])
        if gamma[p, -1] in (1e-310, 1e-200) and first[i] > 0:
            # the sums from the large-g end keep the overflowed client's
            # infinities out of every window that excludes it
            assert np.isfinite(bound[i]), (p, x, y)
    for p in np.unique(pop).tolist():
        mine = pop == p
        alone = equilibrium._R1Bound(gamma[p : p + 1], t[p : p + 1], share)(
            a[mine], b[mine], va[mine], vb[mine], np.zeros(mine.sum(), dtype=np.intp)
        )
        assert same_bits(alone[0], bound[mine]) and same_bits(alone[1], where[mine])


def test_r1_searches_of_the_default_sweep_read_few_rates():
    # over the 180 default-sweep populations the branch and bound values
    # 10,137 rates in 525 calls (the starting points, the split levels and
    # `_best`), and narrows its sign changes in 240 Newton passes of 780
    # rates.  The grid search read 20,707 slopes and valued 11,426 rates;
    # reading every cell below the cut took 580,491 slope rates.  The
    # ceilings are those counts, so a looser cell bound, a return to
    # section reads or a refine by value reads fails here
    rates = {"value": 0, "refine": 0}
    calls = {"value": 0, "refine": 0}
    value, newton = equilibrium._r1_value, equilibrium._r1_newton

    def counted(name, helper):
        def wrapper(r, *args):
            rates[name] += np.size(r)
            calls[name] += 1
            return helper(r, *args)

        return wrapper

    with patch.object(equilibrium, "_r1_value", counted("value", value)), patch.object(
        equilibrium, "_r1_newton", lambda *args: counted("refine", newton(*args))
    ):
        for pop, params, box in default_cell_runs():
            compute_equilibrium(pop, params, box)
    assert rates["value"] <= 10_137 and calls["value"] <= 525
    assert calls["refine"] <= 240 and rates["refine"] <= 780


@pytest.mark.parametrize("n, entries", [(2000, 215_124), (10**4, 828_753)])
def test_r1_solve_at_per_worker_valuations_takes_few_rates_by_clients(n, entries):
    # alpha = 8n: the grid search valued every in-box down-kink up front,
    # 1,232,741 rates x clients entries at n = 2000 and 24,453,433 at 10^4
    # (counted the same way, slope reads included); the branch and bound
    # values a few rates per level over each rate's live clients.  The
    # ceilings are the counts of exponentials taken
    config = ScenarioConfig(n=n, alpha=8.0 * n, beta=5.0 * n)
    pop = sample_population(config, 0)
    box = feasible_rate_box(pop, config.r2_cap)
    taken = []
    terms = equilibrium._r1_terms

    def counted(r, g, *args):
        taken.append(len(r) * g.shape[-1])
        return terms(r, g, *args)

    with patch.object(equilibrium, "_r1_terms", counted):
        eq = compute_equilibrium(pop, config.system_params, box)
    assert sum(taken) <= entries
    assert eq.r1_source in ("kink", "root")


def bisect_r2_segments(delta, params, box, clamp):
    """Oracle: `_argmax_r2` with each inner segment's root bisected by `_refine`."""
    lo, hi = box.r2_lo, box.r2_hi
    sums = equilibrium._freshness_sums(delta)
    kinks = np.concatenate(sums[:2]) if clamp else np.empty(0)
    kinks = np.sort(kinks[(lo < kinks) & (kinks < hi)])
    ends = np.concatenate(([lo], kinks, [hi]))
    a, b = ends[:-1], ends[1:]
    live = equilibrium._live_sums(a, sums, clamp)
    s_a = equilibrium._r2_parts(a, live, params)[1]
    s_b = equilibrium._r2_parts(b, live, params)[1]
    inner = (s_a > 0) & (s_b < 0)

    def parts(r):
        return equilibrium._r2_parts(r, equilibrium._live_sums(r, sums, clamp), params)

    slope = slope_only(lambda r: parts(r)[1])
    b_lo, b_hi = refine1(slope, a[inner], b[inner], s_a[inner], s_b[inner])
    return best1(lambda r: parts(r)[0], 0.5 * (b_lo + b_hi), lo, hi, kinks)


def r2_root_ulps(delta, params, rate):
    """Distance in ulps from ``rate`` to the 50-digit root of its segment's r2 slope."""
    live = equilibrium._live_sums(np.array([rate]), equilibrium._freshness_sums(delta), True)
    s1, s2, m = (float(x[0]) for x in live)
    with mpmath.workdps(50):
        share = mpmath.mpf(params.beta / params.n)
        root = mpmath.findroot(
            lambda r: (share - r) / r * s1 - (s1 * mpmath.log(r) - s2 + FRESHNESS_MAX * m),
            mpmath.mpf(rate),
        )
        return float(abs(root - rate)) / np.spacing(rate)


@pytest.mark.parametrize(
    "n, beta, delta, run",
    [
        (10, 50.0, (1.0, 2.0), 0),  # the default seed-1 population
        (10, 50.0, (1.0, 2.0), 1),
        (10, 50.0, (0.05, 0.35), 0),
        (10, 50.0, (0.05, 0.35), 1),
        (30, 150.0, (0.05, 0.35), 2),
        (200, 1000.0, (0.05, 0.35), 0),
    ],
)
def test_r2_closed_form_root_is_within_an_ulp_of_the_exact_root(n, beta, delta, run):
    config = ScenarioConfig(n=n, beta=beta, delta=delta)
    pop = sample_population(config, run)
    params, box = config.system_params, feasible_rate_box(pop, config.r2_cap)
    rate, source = argmax_r2(pop.delta, params, box, clamp=True)
    bisected, bisected_source = bisect_r2_segments(pop.delta, params, box, clamp=True)
    assert source == bisected_source == "root"
    assert abs(rate - bisected) <= 1e-12 * bisected
    ulps = r2_root_ulps(pop.delta, params, rate)
    assert ulps <= min(1.0, r2_root_ulps(pop.delta, params, bisected))


def test_r2_closed_form_moves_no_source_on_the_default_sweep():
    for pop, params, box in default_cell_runs():
        for clamp in (True, False):
            rate, source = argmax_r2(pop.delta, params, box, clamp)
            bisected, bisected_source = bisect_r2_segments(pop.delta, params, box, clamp)
            assert source == bisected_source
            assert abs(rate - bisected) <= 1e-12 * bisected


@pytest.mark.parametrize("share", [1e-3, 1e-1, 10.0, 1e3, 1e5, 1e7])
@pytest.mark.parametrize("spread", [(1e-3, 1e-2), (0.05, 0.35), (1.0, 10.0)])
def test_r2_newton_solve_ends_and_meets_the_bisection_oracle(share, spread):
    # beta/n from 1e-3 to 1e7 and delta from 1e-3 to 10; a RuntimeWarning fails the test
    rng = np.random.default_rng(5)
    n = 25
    delta = np.exp(rng.uniform(np.log(spread[0]), np.log(spread[1]), n))
    params = SystemParams(alpha=80.0, beta=share * n, comm_size=0.0, n=n)
    for cap in (100.0, 1e5):
        box = RateBox(r1_lo=1.0, r1_hi=2.0, r2_lo=float(delta.max()), r2_hi=cap)
        for clamp in (True, False):
            rate, _ = argmax_r2(delta, params, box, clamp)
            slope = lambda r: equilibrium._r2_slope(r, delta, params, clamp)  # noqa: E731
            value = lambda r: equilibrium._r2_value(r, delta, params, clamp)  # noqa: E731
            kinks = delta * np.exp(FRESHNESS_MAX * delta) if clamp else ()
            best = scalar_search_value(slope, value, box.r2_lo, box.r2_hi, kinks)
            assert value(rate) >= best - 1e-12 * max(1.0, abs(best)), (cap, clamp)


# ---------------------------------------------------------------- verification

def test_verify_bound_maximizer_stays_inside_clamp_rectangle():
    # the strategy reaching each client's bound is a legal deviation: inside
    # the clamp rectangle, at the shortest completion time
    for pop, rates in (
        (clamped_population(), CLAMPED_RATES),
        (sample_population(ScenarioConfig(n=2000), 0), RewardRates(r1=1.2, r2=3.0)),
    ):
        gamma, delta, t_min = game_core._population_arrays(pop)
        bounds, worst = equilibrium._deviation_bounds(gamma, delta, t_min, rates)
        assert np.all(np.isfinite(bounds)) and np.all(bounds >= 0.0)
        assert np.all((ACCURACY_MIN <= worst[:, 0]) & (worst[:, 0] <= ACCURACY_MAX))
        assert np.all((0.0 <= worst[:, 1]) & (worst[:, 1] <= FRESHNESS_MAX))
        assert np.array_equal(worst[:, 2], t_min)


# The deviation grid the client verifier searched before it was certified by
# strong concavity: accuracy 0.001, 0.01, ..., 0.99, freshness 0, 0.05, ..., 5
# and completion times t_min x {1, 1.5, 2}.
GRID_ACCURACY = np.maximum(np.arange(0.0, 1.0, 0.01), ACCURACY_MIN)
GRID_FRESHNESS = np.arange(0.0, 5.0 + 1e-12, 0.05)
GRID_TIME_FACTORS = (1.0, 1.5, 2.0)


def grid_gains(
    gamma,
    delta,
    t_min,
    rates,
    utilities,
    comm_size,
    a=GRID_ACCURACY,
    f=GRID_FRESHNESS,
    time_factors=GRID_TIME_FACTORS,
):
    """Oracle: every client's best grid utility minus its audited utility.

    Utility separates into an accuracy part, which depends on the completion
    time, and a freshness part, so one argmax per part and time factor
    searches the whole accuracy x freshness x time grid.
    """
    with np.errstate(over="ignore"):  # an infinite collection cost never wins
        part_f = np.max(rates.r2 * f - np.exp(delta[:, None] * f), axis=1)
    cost_a = gamma[:, None] * (1.0 + a) * np.log1p(a)
    best = np.full(len(gamma), -math.inf)
    for factor in time_factors:
        part_a = np.max(rates.r1 * a / (factor * t_min)[:, None] - cost_a, axis=1)
        best = np.maximum(best, part_a + part_f - comm_size)
    return best - utilities


def rounding_tol(profile, rates, audited):
    """Rounding allowance of a violation: a few ulps of the magnitudes of the
    utility terms at the audited strategy and at the best response."""
    best = best_response(profile, rates).strategy
    terms = sum(
        client_reward(rates, s) + total_cost(profile, s, 0.0).total for s in (audited, best)
    )
    return 1e-15 * (terms + 1.0)


def mp_gain(profile, rates, accuracy, freshness, completion_time):
    """Oracle in 80-digit arithmetic: the most any strategy in the clamp
    rectangle gains over (accuracy, freshness, completion_time).

    Utility falls in the completion time, and each of its two parts is
    concave, so the best strategy is the exact response clipped into the
    rectangle, at t_min.
    """
    mpf = mpmath.mpf
    with mpmath.workdps(80):
        gamma, delta, t = mpf(profile.gamma), mpf(profile.delta), mpf(profile.t_min)
        r1, r2 = mpf(rates.r1), mpf(rates.r2)

        def part_a(a, time):
            return r1 * a / time - gamma * (1 + a) * mpmath.log1p(a)

        def part_f(f):
            return r2 * f - mpmath.exp(delta * f)

        best_a = mpmath.exp(r1 / (gamma * t) - 1) - 1
        best_a = min(max(best_a, mpf(ACCURACY_MIN)), mpf(ACCURACY_MAX))
        best_f = min(max(mpmath.log(r2 / delta) / delta, mpf(0)), mpf(FRESHNESS_MAX))
        return (part_a(best_a, t) - part_a(mpf(accuracy), mpf(completion_time))) + (
            part_f(best_f) - part_f(mpf(freshness))
        )


def clamped_population():
    """Clients whose responses at CLAMPED_RATES hit all four clamp edges."""
    rng = np.random.default_rng(11)
    return [
        ClientProfile(
            id=k,
            gamma=float(rng.uniform(0.5, 5.0)),
            delta=float(rng.uniform(0.1, 8.0)),
            t_min=float(rng.uniform(0.5, 3.0)),
        )
        for k in range(40)
    ]


CLAMPED_RATES = RewardRates(r1=3.0, r2=5.0)


@pytest.mark.parametrize("comm_size", [0.0, 0.1])
@pytest.mark.parametrize("case", ["1", "7", "2000", "clamped", "perturbed"])
def test_verify_clients_matches_per_client_oracle(case, comm_size):
    # one client at a time, the certificate agrees bit for bit with the array
    # bounds that `verify_scenario` reports, and it is never below the gain
    # of the old deviation grid
    if case == "clamped":
        pop, rates = clamped_population(), CLAMPED_RATES
    else:
        config = ScenarioConfig(n=7 if case == "perturbed" else int(case), seed=3)
        pop = sample_population(config, 0)
        rates = compute_equilibrium(
            pop, config.system_params, feasible_rate_box(pop, config.r2_cap)
        ).rates
    strategies = [best_response(p, rates).strategy for p in pop]
    if case == "clamped":
        assert {ACCURACY_MIN, ACCURACY_MAX} <= {s.accuracy for s in strategies}
        assert {0.0, FRESHNESS_MAX} <= {s.freshness for s in strategies}
    if case == "perturbed":
        strategies = [Strategy(0.5, s.freshness + 0.3, s.completion_time) for s in strategies]
    utilities = [client_utility(p, rates, s, comm_size) for p, s in zip(pop, strategies)]

    reports = [
        verify_client_equilibrium(p, rates, comm_size, strategy=s)
        for p, s in zip(pop, strategies)
    ]
    gamma, delta, t_min = game_core._population_arrays(pop)
    grid = grid_gains(gamma, delta, t_min, rates, np.array(utilities), comm_size)
    for p, s, r, g in zip(pop, strategies, reports, grid.tolist()):
        assert r.worst_violation >= g - rounding_tol(p, rates, s)
    if case == "perturbed":
        assert not any(r.passed for r in reports)
        return
    bounds, worst = equilibrium._deviation_bounds(gamma, delta, t_min, rates)
    assert reports == list(equilibrium._client_reports(bounds, worst))
    assert [r.worst_violation.hex() for r in reports] == [b.hex() for b in bounds.tolist()]
    assert all(r.passed for r in reports)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    comm_size=st.sampled_from([0.0, 0.1]),
)
def test_certificate_never_below_dense_grid_gain(n, seed, comm_size):
    # random clients, rates and audited strategies anywhere in the clamp
    # rectangle: no point of a dense grid over the whole rectangle, at three
    # completion times, gains more than the certified violation
    rng = np.random.default_rng(seed)
    pop = [
        ClientProfile(
            id=k,
            gamma=float(10.0 ** rng.uniform(-2, 2)),
            delta=float(10.0 ** rng.uniform(-2, 1.5)),
            t_min=float(10.0 ** rng.uniform(-1, 1)),
        )
        for k in range(n)
    ]
    r1, r2 = 10.0 ** rng.uniform(-2, 2.5, size=2)
    rates = RewardRates(r1=float(r1), r2=float(r2))
    strategies = [
        Strategy(
            float(rng.uniform(ACCURACY_MIN, ACCURACY_MAX)),
            float(rng.uniform(0.0, FRESHNESS_MAX)) * float(rng.integers(0, 2)),
            p.t_min * float(rng.choice([1.0, rng.uniform(1.0, 3.0)])),
        )
        for p in pop
    ]
    utilities = np.array(
        [client_utility(p, rates, s, comm_size) for p, s in zip(pop, strategies)]
    )
    gamma, delta, t_min = game_core._population_arrays(pop)
    dense = grid_gains(
        gamma,
        delta,
        t_min,
        rates,
        utilities,
        comm_size,
        a=np.linspace(ACCURACY_MIN, ACCURACY_MAX, 801),
        f=np.linspace(0.0, FRESHNESS_MAX, 801),
        time_factors=(1.0, 1.5, 2.0),
    )
    for p, s, g in zip(pop, strategies, dense.tolist()):
        report = verify_client_equilibrium(p, rates, comm_size, strategy=s)
        assert report.worst_violation >= g - rounding_tol(p, rates, s)


@pytest.mark.parametrize("offset, flagged", [(1e-2, True), (1e-5, False)])
def test_certificate_flags_clients_of_offset_rates_by_their_true_gain(offset, flagged):
    # criterion 4's populations: clients best-respond to rates `offset` off the
    # solved ones, and are audited at the solved rates.  At 1% every client
    # whose exact gain exceeds VERIFY_TOL is flagged (the old grid flagged 1 of
    # 10 at seed 4000); at 0.001% none is.
    gains = []
    for run in range(20):
        config = ScenarioConfig(seed=4000 + run)
        pop = sample_population(config, 0)
        params = config.system_params
        rates = compute_equilibrium(pop, params, feasible_rate_box(pop, config.r2_cap)).rates
        moved = RewardRates(r1=rates.r1 * (1 + offset), r2=rates.r2 * (1 + offset))
        for p in pop:
            played = best_response(p, moved).strategy
            report = verify_client_equilibrium(p, rates, params.comm_size, strategy=played)
            gain = mp_gain(p, rates, played.accuracy, played.freshness, played.completion_time)
            gains.append(gain)
            assert report.passed == (gain <= equilibrium.VERIFY_TOL), (run, p.id, gain)
    assert (max(gains) > equilibrium.VERIFY_TOL) == flagged


def stressed_clients():
    """Clients and rates that sit at, or one ulp beside, the clamp kinks, for
    gamma from 1e-100 up and delta from 1e-6 up."""

    def beside(*rates):
        return [float(np.nextafter(r, to)) for r in rates for to in (0.0, r, math.inf)]

    rows = []
    for gamma, t, delta in itertools.product(
        (1e-100, 1e-9, 0.37, 4.2, 1e5), (1e-3, 1.0, 30.0), (1e-6, 0.05, 1.3, 40.0)
    ):
        g = gamma * t
        r1s = beside(g * equilibrium._C_IN, g * equilibrium._C_OUT, g * (1.0 + math.log(1.4)))
        r2s = beside(delta, delta * math.exp(FRESHNESS_MAX * delta), delta * math.e)
        rows += [(gamma, delta, t, r1, r2) for r1, r2 in itertools.product(r1s, r2s)]
    return np.array(rows)


def test_padded_certificate_holds_where_rounding_is_stressed(monkeypatch):
    rows = stressed_clients()
    gamma, delta, t = rows[:, 0].copy(), rows[:, 1].copy(), rows[:, 2].copy()

    def shortfalls():
        """The clients whose bound falls below the exact gain from their best response."""
        short = []
        for k, (g, d, tm, r1, r2) in enumerate(rows.tolist()):
            rates = RewardRates(r1=r1, r2=r2)
            one = slice(k, k + 1)
            (bound,), _ = equilibrium._deviation_bounds(gamma[one], delta[one], t[one], rates)
            profile = ClientProfile(k, g, d, tm)
            x = best_response(profile, rates).strategy
            if mpmath.mpf(bound) < mp_gain(profile, rates, x.accuracy, x.freshness, tm):
                short.append(k)
        return short

    assert shortfalls() == []
    # the stress is real: without the slack some bound falls short
    monkeypatch.setattr(equilibrium, "_SLACK", 0.0)
    assert shortfalls()


def test_verify_scenario_makes_no_call_per_client(monkeypatch):
    calls = {"best_response": 0, "client_utility": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (game_core, equilibrium, harness):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    summary = harness.verify_scenario(ScenarioConfig(n=50))
    assert summary.ok and len(summary.client_reports) == 50
    # the solver evaluates all responses and utilities in one array pass,
    # and the verifier reuses them
    assert calls == {"best_response": 0, "client_utility": 0}


def test_nothing_is_built_per_client_until_it_is_read(monkeypatch):
    # the solver and the verifier keep per-client results as arrays; the
    # Strategy and report objects exist only once `strategies` or
    # `client_reports` is read, and then equal the per-client oracles
    built = {"Strategy": 0, "ClientEquilibriumReport": 0}
    for cls in (Strategy, equilibrium.ClientEquilibriumReport):
        init = cls.__init__

        def counted(self, *args, _init=init, _name=cls.__name__, **kwargs):
            built[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)

    config = ScenarioConfig(n=2000)
    pop = sample_population(config, 0)
    eq = compute_equilibrium(pop, config.system_params, feasible_rate_box(pop, config.r2_cap))
    summary = harness.verify_scenario(config)
    assert summary.ok
    assert built == {"Strategy": 0, "ClientEquilibriumReport": 0}

    assert eq.strategies == tuple(best_response(p, eq.rates).strategy for p in pop)
    assert eq.client_utilities == pytest.approx(
        [client_utility(p, eq.rates, s, config.comm_size) for p, s in zip(pop, eq.strategies)],
        rel=1e-12,
    )
    assert eq.strategies is eq.strategies  # built once
    reports = summary.client_reports
    assert reports is summary.client_reports
    assert reports == tuple(
        verify_client_equilibrium(p, summary.equilibrium.rates, config.comm_size) for p in pop
    )
    assert summary.clients_passed and all(r.passed for r in reports)
    with pytest.raises(ValueError):
        eq.accuracy[0] = 0.5


def test_verify_client_interior_case():
    rates = RewardRates(r1=3.0, r2=2.0 * math.e)
    profile = ClientProfile(id=0, gamma=2.0, delta=2.0, t_min=1.0)
    report = verify_client_equilibrium(profile, rates)
    assert report.passed
    # at an interior best response the bound is the padded slope squared over
    # twice the curvature bound: far below rounding of the utility itself
    assert 0.0 <= report.worst_violation <= 1e-20
    star = best_response(profile, rates).strategy
    assert report.worst_strategy.accuracy == pytest.approx(star.accuracy, abs=1e-12)
    assert report.worst_strategy.freshness == pytest.approx(star.freshness, abs=1e-12)
    assert report.worst_strategy.completion_time == profile.t_min


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
    # the violation is what returning to the best response gains, plus the
    # best response's own bound, and the bound's maximizer is that response
    gain = client_utility(profile, rates, star, 0.0) - client_utility(profile, rates, worse, 0.0)
    assert report.worst_violation == pytest.approx(gain, rel=1e-12)
    assert abs(report.worst_strategy.accuracy - star.accuracy) < 1e-12


def test_verify_server_flags_suboptimal_rates():
    box = feasible_rate_box(THIRTY, 100.0)
    midpoint = RewardRates(
        r1=0.5 * (box.r1_lo + box.r1_hi), r2=0.5 * (box.r2_lo + box.r2_hi)
    )
    report = verify_server_equilibrium(THIRTY, PARAMS_30, midpoint, box)
    assert not report.passed
    assert report.worst_violation > 1.0


@pytest.mark.parametrize("n", [10, 2000])
def test_server_report_is_plain_json(n):
    report = harness.verify_scenario(ScenarioConfig(n=n)).server_report
    assert type(report.passed) is bool
    assert json.loads(json.dumps(dataclasses.asdict(report)))["passed"] is report.passed


def test_verify_server_degenerate_box_vacuous():
    box = RateBox(r1_lo=3.0, r1_hi=3.0, r2_lo=5.0, r2_hi=5.0)
    rates = RewardRates(r1=3.0, r2=5.0)
    report = verify_server_equilibrium(SINGLE, PARAMS_1, rates, box)
    assert report.passed
    assert report.worst_violation <= 0.0


# ------------------------------------------------------- server certificate

def grid_violation(pop, params, rates, box, grid_n=50):
    """The server check as a grid of rates, the package's verifier before the certificate.

    The r1 and r2 slices are read on a grid_n x grid_n joint rate grid (they
    separate, so its best pair joins the axis maxima) and on 4 grid_n-point
    sweeps along each axis through the audited rates.  A grid only samples
    the box, so a sound certificate never reports less.
    """
    gamma, delta, t = game_core._population_arrays(pop)
    sums = equilibrium._freshness_sums(delta)

    def part1(r):
        return equilibrium._r1_value(r, gamma, t, params, clamp=True)

    def part2(r):
        return equilibrium._r2_parts(r, equilibrium._live_sums(r, sums, True), params)[0]

    def best(part, lo, hi, points):
        return float(np.max(part(np.linspace(lo, hi, points))))

    u1, u2 = part1(rates.r1), part2(rates.r2)
    joint = best(part1, box.r1_lo, box.r1_hi, grid_n) + best(part2, box.r2_lo, box.r2_hi, grid_n)
    return max(
        joint - (u1 + u2),
        best(part1, box.r1_lo, box.r1_hi, 4 * grid_n) - u1,
        best(part2, box.r2_lo, box.r2_hi, 4 * grid_n) - u2,
    )


def certified_populations(group):
    """(population, params, box) of each population the certificate is held to."""
    if group.startswith("sweep-seed-"):
        yield from default_cell_runs(ScenarioConfig(seed=int(group.rsplit("-", 1)[1])))
        return
    if group == "alpha-8n":
        configs = [ScenarioConfig(n=n, alpha=8.0 * n) for n in (100, 2000)]
    elif group == "criterion-4":
        configs = [ScenarioConfig(seed=4000 + run) for run in range(20)]
    else:  # the fuzz config pinned in tests/test_harness.py
        configs = [
            ScenarioConfig(
                n=3,
                alpha=6172564.30773397,
                beta=134.000065039774,
                gamma=(1.6285538380743923e-12, 8.748586912244195e-11),
                delta=(6.736945767318462, 8.267449019119113),
                tmin=(3.1502369769572876e-05, 0.00010024722204509243),
                r2_cap=97477.44489754959,
                seed=173,
            )
        ]
    for config in configs:
        pop = sample_population(config, 0)
        yield pop, config.system_params, feasible_rate_box(pop, config.r2_cap)


@pytest.mark.parametrize(
    "group", ["sweep-seed-1", "sweep-seed-7919", "alpha-8n", "criterion-4", "pinned-fuzz"]
)
def test_certificate_passes_the_solver_and_never_reports_less_than_the_grid(group):
    for pop, params, box in certified_populations(group):
        eq = compute_equilibrium(pop, params, box)
        report = verify_server_equilibrium(pop, params, eq.rates, box)
        grid = grid_violation(pop, params, eq.rates, box)
        assert report.passed, (group, report)
        assert report.worst_violation >= grid - 1e-12 * max(1.0, abs(eq.server_utility))


def realized_gain(pop, params, rates, better):
    """What the rates ``better`` gain over ``rates``, by `realized_axis_values`."""
    u1, u2 = realized_axis_values(pop, params, [rates.r1, better.r1], [rates.r2, better.r2])
    return float((u1[1] + u2[1]) - (u1[0] + u2[0]))


@pytest.mark.parametrize(
    "config",
    [ScenarioConfig(), ScenarioConfig(n=100, alpha=800.0), ScenarioConfig(n=2000, alpha=16000.0)],
    ids=["default", "alpha-8n-100", "alpha-8n-2000"],
)
@pytest.mark.parametrize("axis", ["r1", "r2"])
def test_certificate_flags_shifted_rates(config, axis):
    # r1* (1 + 1e-3) passes the grid oracle on all three populations, with
    # its r1 sweep's best point below u1*; the certificate bounds what the
    # solved rates truly gain over the shifted ones
    pop = sample_population(config, 0)
    params = config.system_params
    box = feasible_rate_box(pop, config.r2_cap)
    solved = compute_equilibrium(pop, params, box).rates
    if axis == "r1":
        rates = RewardRates(solved.r1 * (1.0 + 1e-3), solved.r2)
    else:
        rates = RewardRates(solved.r1, solved.r2 + 1e-3 * (box.r2_hi - box.r2_lo))
    report = verify_server_equilibrium(pop, params, rates, box)
    assert not report.passed
    gain = realized_gain(pop, params, rates, solved)
    assert report.worst_violation >= gain > equilibrium.VERIFY_TOL


def test_certificate_catches_a_bump_the_grid_oracle_misses():
    # client 0 (g = 8.28e-5, t = 0.003) is live only on [8.29e-5, 1.40e-4):
    # its term rises there and then falls at slope -0.999/0.003, so the
    # slice's maximum, that client's exit kink, stands on a bump narrower
    # than 1/4097 of the box [8.28e-5, 19.0].  The grid's best rate is
    # r1_lo, and the grid oracle passes it
    gamma, t = np.array([0.0276, 6.43]), np.array([0.003, 1.745])
    params = SystemParams(alpha=2.76, beta=50.0, comm_size=0.0, n=2)
    pop = game_core.Population(np.arange(2), gamma, np.ones(2), t)
    box = feasible_rate_box(pop, 100.0)

    def value(r):
        return equilibrium._r1_value(r, gamma, t, params, True)

    grid = np.linspace(box.r1_lo, box.r1_hi, 200)
    r2 = compute_equilibrium(pop, params, box).rates.r2
    rates = RewardRates(float(grid[np.argmax(value(grid))]), r2)
    dense = np.linspace(box.r1_lo, box.r1_hi, 1 << 18)
    v = value(dense)
    bump = dense[v > value(rates.r1) + equilibrium.VERIFY_TOL]
    assert 0.0 < bump[-1] - bump[0] < (box.r1_hi - box.r1_lo) / 4097
    assert grid_violation(pop, params, rates, box) <= equilibrium.VERIFY_TOL
    report = verify_server_equilibrium(pop, params, rates, box)
    assert not report.passed
    assert report.worst_violation >= np.max(v) - value(rates.r1) > 1.0


def test_certificate_bounds_a_maximum_strictly_inside_its_only_cell():
    # THIRTY's r1 slice peaks at a root near 2.348, strictly inside a
    # starting cell of [r1_lo, c] and far above both its ends; a cell bound
    # without its curvature term would stop at the ends and pass r1_lo
    box = feasible_rate_box(THIRTY, 100.0)
    solved = compute_equilibrium(THIRTY, PARAMS_30, box).rates
    rates = RewardRates(box.r1_lo, solved.r2)
    cut = equilibrium._r1_cut(PARAMS_30, np.ones(30))
    assert box.r1_lo < solved.r1 < cut < box.r1_hi
    coarse = np.linspace(box.r1_lo, box.r1_hi, equilibrium._CELLS + 1)
    assert solved.r1 not in coarse
    report = verify_server_equilibrium(THIRTY, PARAMS_30, rates, box)
    assert not report.passed
    assert report.worst_violation >= realized_gain(THIRTY, PARAMS_30, rates, solved) > 1.0


def test_one_sided_r1_slopes_step_at_the_kinks():
    # a kink-free cell takes the slope at each end from its own live
    # clients: just left of a kink a client counts as it is there, not as it
    # is to the right.  At every client's entry and exit kink the slope
    # just inside the cell ending there and the one just inside the cell
    # starting there match one-sided difference quotients, and they differ
    # by the kink's jump; each is padded by a sliver of its size
    gamma, t = np.array([2.0, 1.0, 5.0, 0.7]), np.array([1.0, 2.6, 0.3, 2.0])
    params = SystemParams(alpha=12.0, beta=50.0, comm_size=0.0, n=4)
    share = params.alpha / params.n
    cells = equilibrium._R1Bound(gamma[None], t[None], share)
    g = gamma * t
    kinks = np.sort(np.concatenate([g * equilibrium._C_IN, g * equilibrium._C_OUT]))
    jumps = 0
    for r, jump in [
        *zip(g * equilibrium._C_IN, (share - equilibrium._C_IN * gamma) * (1 + ACCURACY_MIN) / g),
        *zip(g * equilibrium._C_OUT, (equilibrium._C_OUT * gamma - share) * (1 + ACCURACY_MAX) / g),
    ]:
        h = 1e-7 * r
        assert not np.any((r - h < kinks) & (kinks < r + h) & (kinks != r))
        zero = np.zeros(1, dtype=np.intp)
        left_cell, right_cell = np.array([r - h, r]), np.array([r, r + h])
        at_a = cells.inside(left_cell, right_cell, np.zeros(2, dtype=np.intp))[0]
        _, left, _, pad_left, _, _ = cells.smooth(left_cell[:1], right_cell[:1], zero, at_a[:1])
        right, _, pad_right, _, _, _ = cells.smooth(left_cell[1:], right_cell[1:], zero, at_a[1:])
        v = equilibrium._r1_value(np.array([r - h, r, r + h]), gamma, t, params, True)
        assert left[0] == pytest.approx((v[1] - v[0]) / h, rel=1e-5, abs=1e-5)
        assert right[0] == pytest.approx((v[2] - v[1]) / h, rel=1e-5, abs=1e-5)
        assert right[0] - left[0] == pytest.approx(jump, rel=1e-9)
        assert 0 < pad_left[0] < 1e-12 and 0 < pad_right[0] < 1e-12
        jumps += abs(jump) > 0.1
    assert jumps == 8


def test_past_the_r1_cut_no_term_can_rise():
    # exactly, (alpha/n) t_k <= c for every client, so for r >= c each term
    # (alpha/n - r/t_k) A_k(r) is a falling factor <= 0 times a rising
    # A_k(r) >= ACCURACY_MIN > 0: for c <= r < r',
    # (s - r'/t) A(r') <= (s - r/t) A(r') <= (s - r/t) A(r)
    rng = np.random.default_rng(11)
    for _ in range(400):
        n = int(rng.integers(1, 40))
        alpha = float(10.0 ** rng.uniform(-3, 6))
        t = 10.0 ** rng.uniform(-4, 3, n)
        cut = Fraction(equilibrium._r1_cut(SystemParams(alpha, 1.0, 0.0, n), t))
        assert all(Fraction(alpha) / n * Fraction(x) <= cut for x in t.tolist())
    # and the computed slice falls past the cut, to within its rounding
    for n, seed in [(3, 1), (40, 2), (2000, 3)]:
        rng = np.random.default_rng(seed)
        gamma, t = rng.uniform(0.2, 6.0, n), rng.uniform(0.5, 3.0, n)
        box = feasible_rate_box(game_core.Population(np.arange(n), gamma, np.ones(n), t), 100.0)
        params = SystemParams(alpha_with_cut(t, n, box, "inside", 0.3), 50.0, 0.0, n)
        rs = np.linspace(equilibrium._r1_cut(params, t), box.r1_hi, 4001)
        v = equilibrium._r1_value(rs, gamma, t, params, True)
        assert np.all(np.diff(v) <= 1e-13 * np.max(np.abs(v)))


def test_scale_populations_certify_from_a_few_values():
    # on the benchmark's scale populations both rates are box edges, the cut
    # lies below r1_lo and no r2 kink lies inside the box, so the r1 axis
    # values r1_lo and r1*, and the r2 axis reads r2_lo, r2* and r2_hi: a
    # return to rate grids fails here
    for pop, params, box in scale_populations():
        solved = compute_equilibrium(pop, params, box)
        read = {"r1": set(), "r2": set()}

        def counted(name, helper):
            def wrapper(r, *args, **kwargs):
                read[name].update(np.atleast_1d(r).tolist())
                return helper(r, *args, **kwargs)

            return wrapper

        with patch.object(
            equilibrium, "_r1_value", counted("r1", equilibrium._r1_value)
        ), patch.object(equilibrium, "_r2_parts", counted("r2", equilibrium._r2_parts)):
            report = verify_server_equilibrium(pop, params, solved.rates, box)
        d = np.sort(pop.delta)
        kinks = np.concatenate([d, d * np.exp(FRESHNESS_MAX * d)])
        in_box = int(np.sum((box.r2_lo < kinks) & (kinks < box.r2_hi)))
        assert (solved.r1_source, solved.r2_source, in_box) == ("edge", "edge", 0)
        assert equilibrium._r1_cut(params, pop.t_min) <= box.r1_lo
        assert report.passed and report.worst_violation == 0.0
        assert len(read["r1"]) <= 2
        assert len(read["r2"]) <= in_box + 3


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
