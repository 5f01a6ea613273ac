"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 7 and 8 are split per rate so a genuine trend violation pinpoints
the failing axis; the remaining criteria are numeric fixtures, certification
sweeps, and determinism gates.
"""

import functools
import math
import time

import numpy as np
import pytest

from ifedcrowd import (
    ClientProfile,
    MechanismKind,
    RoundConfig,
    ScenarioConfig,
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
    init_state,
    leader_objective,
    run_round,
    run_sweep,
    sample_population,
    solve_r1,
    solve_r2,
    verify_client_equilibrium,
    verify_server_equilibrium,
)
from ifedcrowd.game_core import ACCURACY_MIN, client_r1_range
from ifedcrowd.harness import evaluate_cell, table_to_csv


def report(ok, criterion, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    return ok


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_best_response_oracle_equivalence():
    """Brute-force grid maximization agrees with the closed-form responses."""
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    a_grid = np.arange(0.0, 1.0, 1e-3)
    f_grid = np.arange(0.0, 5.0 + 1e-12, 1e-3)
    worst_a = worst_f = 0.0
    for _ in range(200):
        profile = ClientProfile(
            id=0,
            gamma=float(rng.uniform(1.0, 10.0)),
            delta=float(rng.uniform(0.5, 4.0)),
            t_min=float(rng.uniform(1.0, 3.0)),
        )
        a_target = float(rng.uniform(0.01, 0.95))
        f_target = float(rng.uniform(0.05, 4.5))
        r1 = profile.gamma * profile.t_min * (1.0 + math.log1p(a_target))
        r2 = profile.delta * math.exp(profile.delta * f_target)
        from ifedcrowd import RewardRates

        rates = RewardRates(r1=r1, r2=r2)
        response = best_response(profile, rates).strategy

        gain_f = rates.r2 * f_grid - np.exp(profile.delta * f_grid)
        fi = int(np.argmax(gain_f))
        best_u, best_a, best_t = -math.inf, 0.0, profile.t_min
        for t in (profile.t_min, 2.0 * profile.t_min):
            part = rates.r1 * a_grid / t - profile.gamma * (1.0 + a_grid) * np.log1p(a_grid)
            ai = int(np.argmax(part))
            u = float(part[ai] + gain_f[fi])
            if u > best_u:
                best_u, best_a, best_t = u, float(a_grid[ai]), t

        assert best_t == profile.t_min
        worst_a = max(worst_a, abs(best_a - response.accuracy))
        worst_f = max(worst_f, abs(float(f_grid[fi]) - response.freshness))
        u_star = client_utility(profile, rates, response, 0.0)
        assert u_star >= best_u - 1e-9
    elapsed = time.perf_counter() - start
    assert worst_a <= 1e-3 + 1e-9
    assert worst_f <= 1e-3 + 1e-9
    assert elapsed < 30.0
    assert report(
        True,
        "criterion 1 (best-response oracle equivalence)",
        f"200 pairs, worst |dA|={worst_a:.2e}, worst |dF|={worst_f:.2e}, {elapsed:.1f}s",
    )


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_derivative_fidelity():
    """Analytic derivatives match central differences; r2 curvature negative.

    The comparison allows the provable finite-difference noise floor
    eps * |U| / (2h): the objective mixes both rate dimensions, so the
    inactive dimension's (possibly huge) contribution cancels only up to
    float rounding when differencing.
    """
    rng = np.random.default_rng(2002)
    worst_rel = 0.0

    def check(analytic, r, objective):
        h = 3e-5 * max(1.0, abs(r))
        up = objective(r + h)
        down = objective(r - h)
        fd = (up - down) / (2 * h)
        noise_floor = 5e-11 * (1.0 + abs(up) + abs(down))
        assert abs(analytic - fd) <= 1e-6 * max(abs(analytic), abs(fd)) + noise_floor
        return abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-9)

    for _ in range(500):
        n = int(rng.integers(1, 12))
        pop = [
            ClientProfile(
                id=k,
                gamma=float(rng.uniform(1.0, 5.0)),
                delta=float(rng.uniform(1.0, 2.0)),
                t_min=float(rng.uniform(1.0, 3.0)),
            )
            for k in range(n)
        ]
        params = SystemParams(alpha=80.0, beta=50.0, comm_size=0.0, n=n)
        box = feasible_rate_box(pop, 100.0)
        r1 = float(rng.uniform(box.r1_lo * 1.01, box.r1_hi * 0.99))
        r2 = float(rng.uniform(box.r2_lo * 1.05, box.r2_hi * 0.95))

        rel1 = check(
            du_dr1(pop, params, r1), r1, lambda x: leader_objective(pop, params, x, r2)
        )
        rel2 = check(
            du_dr2(pop, params, r2), r2, lambda x: leader_objective(pop, params, r1, x)
        )
        # d2u_dr1 changes sign inside the box, so it is pinned to a central
        # difference of du_dr1 rather than to a sign
        rel_curv = check(d2u_dr1(pop, params, r1), r1, lambda x: du_dr1(pop, params, x))
        worst_rel = max(worst_rel, rel1, rel2, rel_curv)
        assert d2u_dr2(pop, params, r2) < 0
    assert report(
        True,
        "criterion 2 (derivative fidelity)",
        f"500 interior points, worst relative error {worst_rel:.2e}",
    )


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_derived_solver_fixtures():
    """Independent bisection oracles pin the two solver fixtures."""

    def bisect(f, lo, hi):
        flo = f(lo)
        while hi - lo > 1e-12:
            mid = 0.5 * (lo + hi)
            if flo * f(mid) <= 0:
                hi = mid
            else:
                lo = mid
        return 0.5 * (lo + hi)

    single = [ClientProfile(id=0, gamma=2.0, delta=1.0, t_min=1.0)]
    params1 = SystemParams(alpha=80.0, beta=50.0, comm_size=0.0, n=1)
    box1 = feasible_rate_box(single, 100.0)
    r2_star, _ = solve_r2(single, params1, box1)
    r2_oracle = bisect(lambda x: 50.0 / x - 1.0 - math.log(x), 1.0, 100.0)
    assert abs(r2_star - 13.796) <= 1e-3
    assert abs(r2_star - r2_oracle) <= 1e-8

    thirty = [ClientProfile(id=k, gamma=2.0, delta=1.0, t_min=1.0) for k in range(30)]
    params30 = SystemParams(alpha=80.0, beta=50.0, comm_size=0.0, n=30)
    box30 = feasible_rate_box(thirty, 100.0)
    r1_star, boundary = solve_r1(thirty, params30, box30)

    def foc30(x):
        e = math.exp(x / 2.0 - 1.0)
        return 40.0 * e - 30.0 * (x * e / 2.0 + e - 1.0)

    r1_oracle = bisect(foc30, 2.0, box30.r1_hi)
    assert not boundary
    assert abs(r1_star - 2.348) <= 1e-3
    assert abs(r1_star - r1_oracle) <= 1e-8
    assert report(
        True,
        "criterion 3 (derived solver fixtures)",
        f"r2*={r2_star:.6f} (oracle {r2_oracle:.6f}), r1*={r1_star:.6f} (oracle {r1_oracle:.6f})",
    )


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_nash_equilibrium_certification():
    """verify_client / verify_server report zero violations above 1e-9."""
    start = time.perf_counter()
    worst_client = worst_server = -math.inf
    for run in range(20):
        config = ScenarioConfig(seed=4000 + run)
        pop = sample_population(config, 0)
        params = config.system_params
        box = feasible_rate_box(pop, config.r2_cap)
        eq = compute_equilibrium(pop, params, box)
        server = verify_server_equilibrium(pop, params, eq.rates, box)
        worst_server = max(worst_server, server.worst_violation)
        assert server.passed, f"server violation {server.worst_violation}"
        for p in pop:
            client = verify_client_equilibrium(p, eq.rates, comm_size=params.comm_size)
            worst_client = max(worst_client, client.worst_violation)
            assert client.passed, f"client {p.id} violation {client.worst_violation}"
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    assert report(
        True,
        "criterion 4 (Nash-equilibrium certification)",
        f"20 populations, worst server excess {worst_server:.2e}, "
        f"worst client excess {worst_client:.2e}, {elapsed:.1f}s",
    )


# ----------------------------------------------------- criteria 5-8 shared data

@functools.cache
def axis_outcomes(axis):
    """Per-cell per-run mechanism outcomes on shared populations."""
    spec = SweepSpec.for_axis(axis, ScenarioConfig())
    cells = {}
    for value in spec.values:
        outcomes, failures = evaluate_cell(spec.cell_config(value), list(MechanismKind))
        assert not failures, failures
        cells[value] = outcomes
    return cells


def paired_cell_runs():
    """(cell, run) -> {mechanism: CellRun} across the 12 gamma/delta sweep cells."""
    pairs = []
    for axis in ("gamma", "delta"):
        for value, outcomes in axis_outcomes(axis).items():
            by_run = {}
            for o in outcomes:
                by_run.setdefault(o.run_index, {})[o.mechanism] = o
            for run, mechs in sorted(by_run.items()):
                pairs.append((f"{axis}={value}", run, mechs))
    return pairs


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_mechanism_dominance():
    """Equilibrium rates beat MAX and Random on server utility in every cell-run."""
    pairs = paired_cell_runs()
    assert len(pairs) == 120
    for cell, run, mechs in pairs:
        eq = mechs[MechanismKind.IFEDCROWD].server_utility
        assert eq >= mechs[MechanismKind.MAX].server_utility, (cell, run)
        assert eq >= mechs[MechanismKind.RANDOM].server_utility, (cell, run)
    assert report(
        True,
        "criterion 5 (mechanism dominance)",
        "120/120 paired cell-runs dominated (exact inequality)",
    )


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_worker_utility_ordering():
    """MAX pays workers at least the equilibrium utility in >= 95% of runs."""
    pairs = paired_cell_runs()
    hits = sum(
        1
        for _, _, mechs in pairs
        if mechs[MechanismKind.MAX].worker_utility
        >= mechs[MechanismKind.IFEDCROWD].worker_utility - 1e-12
    )
    share = hits / len(pairs)
    ok = share >= 0.95
    assert report(
        ok,
        "criterion 6 (worker-utility ordering)",
        f"MAX >= equilibrium in {hits}/{len(pairs)} paired runs ({share:.0%})",
    )


# ---------------------------------------------------------------- criterion 7

@functools.cache
def axis_equilibria(axis):
    """solved[run] = [(population, box, EquilibriumResult) for each cell of the axis, in order]."""
    spec = SweepSpec.for_axis(axis, ScenarioConfig())
    solved = {}
    for value in spec.values:
        config = spec.cell_config(value)
        for run in range(config.runs):
            pop = sample_population(config, run)
            box = feasible_rate_box(pop, config.r2_cap)
            eq = compute_equilibrium(pop, config.system_params, box)
            solved.setdefault(run, []).append((pop, box, eq))
    # the sweep's own rates, which the gates read
    for run, by_value in per_run_rates(axis).items():
        assert [by_value[v] for v in spec.values] == [
            (eq.rates.r1, eq.rates.r2) for _, _, eq in solved[run]
        ]
    return solved


def per_run_rates(axis):
    """rates[run][axis_value] = (r1, r2) for the equilibrium mechanism."""
    rates = {}
    for value, outcomes in axis_outcomes(axis).items():
        for o in outcomes:
            if o.mechanism is MechanismKind.IFEDCROWD:
                rates.setdefault(o.run_index, {})[value] = (o.r1, o.r2)
    return rates


def trend_violations(rates_by_run, component, direction):
    """Worst adjacent-step trend violation per run; positive means violated."""
    rows = []
    for run, by_value in sorted(rates_by_run.items()):
        values = [by_value[v][component] for v in sorted(by_value)]
        if direction == "nondecreasing":
            worst = max(a - b for a, b in zip(values, values[1:]))
        else:
            worst = max(b - a for a, b in zip(values, values[1:]))
        rows.append((run, worst, [round(v, 4) for v in values]))
    return rows


def test_criterion_7a_r1_nondecreasing_in_gamma():
    """r1* should not fall as the computation-cost interval shifts up."""
    rows = trend_violations(per_run_rates("gamma"), 0, "nondecreasing")
    bad = [r for r in rows if r[1] > 1e-9]
    for run, worst, values in bad:
        print(f"  seed {run}: worst drop {worst:.4f}, r1* by cell: {values}")
    ok = not bad
    report(
        ok,
        "criterion 7a (r1* non-decreasing in the gamma sweep)",
        f"{len(rows) - len(bad)}/{len(rows)} seeds monotone",
    )
    assert ok, (
        "r1* is not monotone in the gamma shift for the seeds listed above: "
        "the certified optimum jumps between local maxima of the clamped "
        "objective (see the decisions ledger)"
    )


def test_criterion_7a_violations_are_branch_switches():
    """Each r1* drop in the gamma sweep comes with fewer clients served above ACCURACY_MIN.

    Gate 7a stays red: the realized r1 objective is multimodal, and as the
    gamma interval shifts up the global optimum can jump to a local maximum
    that serves fewer clients.  Every drop the gate counts (12 on the
    default sweep) must be such a switch; a drop of any other kind fails
    here.
    """
    drops = []
    for run, cells in axis_equilibria("gamma").items():
        for (_, _, before), (_, _, after) in zip(cells, cells[1:]):
            if before.rates.r1 - after.rates.r1 > 1e-9:
                served = [int(np.sum(eq.accuracy > ACCURACY_MIN)) for eq in (before, after)]
                drops.append((run, *served))
    unexplained = [d for d in drops if not d[2] < d[1]]
    assert not unexplained, unexplained
    assert report(
        True,
        "criterion 7a violations explained",
        f"{len(drops)} r1* drops, each with fewer clients served above ACCURACY_MIN",
    )


def test_criterion_7b_r2_nondecreasing_in_delta():
    """r2* rises as the collection-cost interval shifts up."""
    rows = trend_violations(per_run_rates("delta"), 1, "nondecreasing")
    bad = [r for r in rows if r[1] > 1e-9]
    for run, worst, values in bad:
        print(f"  seed {run}: worst drop {worst:.4f}, r2* by cell: {values}")
    ok = not bad
    assert report(
        ok,
        "criterion 7b (r2* non-decreasing in the delta sweep)",
        f"{len(rows) - len(bad)}/{len(rows)} seeds monotone",
    )


# ---------------------------------------------------------------- criterion 8

def test_criterion_8a_r1_nonincreasing_in_worker_count():
    rows = trend_violations(per_run_rates("workers"), 0, "nonincreasing")
    bad = [r for r in rows if r[1] > 1e-9]
    for run, worst, values in bad:
        print(f"  seed {run}: worst rise {worst:.6f}, r1* by n: {values}")
    ok = not bad
    assert report(
        ok,
        "criterion 8a (r1* non-increasing in the worker sweep)",
        f"{len(rows) - len(bad)}/{len(rows)} seeds monotone",
    )


def test_criterion_8b_r2_nonincreasing_in_worker_count():
    rows = trend_violations(per_run_rates("workers"), 1, "nonincreasing")
    bad = [r for r in rows if r[1] > 1e-9]
    for run, worst, values in bad:
        print(f"  seed {run}: worst rise {worst:.6f}, r2* by n: {values}")
    ok = not bad
    report(
        ok,
        "criterion 8b (r2* non-increasing in the worker sweep)",
        f"{len(rows) - len(bad)}/{len(rows)} seeds monotone",
    )
    assert ok, (
        "r2* is not monotone in the worker count for the seeds listed above: "
        "the feasible-box floor max(delta_k) rises whenever a later worker "
        "sets a new delta maximum and the pinned solution rises with it "
        "(see the decisions ledger)"
    )


def test_criterion_8b_violations_are_rises_of_the_r2_floor():
    """Each r2* rise in the worker sweep is an edge at the box floor max delta, and the floor rose.

    Gate 8b stays red: r2_lo = max delta can only rise as workers are added.
    Every rise the gate counts (9 on the default sweep) must be the solution
    pinned on a floor that rose; a rise of any other kind fails here.
    """
    rises = []
    for run, cells in axis_equilibria("workers").items():
        for (_, floor, before), (pop, box, after) in zip(cells, cells[1:]):
            if after.rates.r2 - before.rates.r2 > 1e-9:
                pinned = after.r2_source == "edge" and after.rates.r2 == box.r2_lo
                rises.append((run, pinned, box.r2_lo == pop.delta.max(), box.r2_lo > floor.r2_lo))
    unexplained = [r for r in rises if not all(r[1:])]
    assert not unexplained, unexplained
    assert report(
        True,
        "criterion 8b violations explained",
        f"{len(rises)} r2* rises, each an edge on a floor max(delta) that rose",
    )


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_simulation_consistency():
    """Noise-free rounds realize the equilibrium utility; settlement is exact."""
    worst = 0.0
    for seed in (90, 91):
        config = ScenarioConfig(seed=seed, comm_size=0.0)
        pop = sample_population(config, 0)
        params = config.system_params
        round_config = RoundConfig(noise_std=0.0)
        box = feasible_rate_box(pop, config.r2_cap)
        eq = compute_equilibrium(pop, params, box)
        state = init_state(pop, round_config, run_seed=seed)
        for index in range(3):
            rep = run_round(
                pop,
                params,
                eq.rates,
                round_config,
                state,
                run_seed=seed,
                round_index=index,
            )
            assert rep.n_failed == 0
            worst = max(worst, abs(rep.server_utility - eq.server_utility))
            assert abs(rep.server_utility - eq.server_utility) <= 1e-6
            for record in rep.clients:
                assert record.payout == client_reward(rep.rates, record.achieved)
    assert report(
        True,
        "criterion 9 (simulation consistency)",
        f"2 scenarios x 3 rounds, worst |realized - predicted| = {worst:.2e}",
    )


# --------------------------------------------------------------- criterion 10

def test_criterion_10_sweep_determinism_and_runtime():
    """The full default sweep is byte-identical across runs and fast."""

    def full_sweep():
        chunks = []
        for axis in ("gamma", "delta", "workers"):
            spec = SweepSpec.for_axis(axis, ScenarioConfig())
            chunks.append(table_to_csv(run_sweep(spec, list(MechanismKind))))
        return "".join(chunks)

    start = time.perf_counter()
    first = full_sweep()
    elapsed = time.perf_counter() - start
    second = full_sweep()
    assert first == second
    assert elapsed < 60.0
    assert report(
        True,
        "criterion 10 (sweep determinism and runtime)",
        f"byte-identical output, single full sweep in {elapsed:.1f}s",
    )
