import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifedcrowd import (
    ACCURACY_MAX,
    ClientDataset,
    ClientProfile,
    ConfigError,
    DomainError,
    FRESHNESS_MAX,
    MechanismKind,
    ModelParams,
    Population,
    RoundConfig,
    SystemParams,
    TrainResult,
    aggregate,
    client_reward,
    collect_data,
    collection_cost,
    compute_equilibrium,
    feasible_rate_box,
    init_state,
    local_train,
    rate_seed,
    run_round,
    sample_population,
    select_rates,
    server_utility,
)
from ifedcrowd import fedsim
from ifedcrowd.game_core import _population_arrays, best_responses, population_utilities
from ifedcrowd.harness import ScenarioConfig, run_simulation


def make_dataset(n=100, dim=10, noise=0.1, seed=1):
    rng = np.random.default_rng(seed)
    w_true = rng.standard_normal(dim)
    x = rng.standard_normal((n, dim))
    y = x @ w_true + (noise * rng.standard_normal(n) if noise else 0.0)
    return ClientDataset.from_rows(x, y)


# ------------------------------------------------------------------ datasets

def test_dataset_validation():
    with pytest.raises(DomainError):
        ClientDataset.from_rows(np.zeros(3), np.zeros(3))
    with pytest.raises(DomainError):
        ClientDataset.from_rows(np.zeros((3, 2)), np.zeros(2))
    with pytest.raises(DomainError):
        ClientDataset.from_rows(np.zeros((3, 2)), np.zeros((3, 1)))
    ds = ClientDataset.from_rows(np.array([[1.0, 2.0], [0.0, 1.0], [1.0, 0.0]]), [1.0, 2.0, 3.0])
    assert ds.size == 3
    assert ds.gram.tolist() == [[2.0, 2.0], [2.0, 5.0]]
    assert ds.xty.tolist() == [4.0, 4.0]
    assert ds.yty == 14.0


def test_model_params_validation():
    with pytest.raises(DomainError):
        ModelParams(np.array([1.0, float("nan")]))
    with pytest.raises(DomainError):
        ModelParams(np.zeros((2, 2)))


# ---------------------------------------------------------------- collection

def collect_one(last, freshness, upload_time, interval, round_start=0.0, latency=0.0):
    """One client's collection: its count, newest sample time, freshness and flag."""
    result = collect_data([last], [freshness], [upload_time], round_start, interval, latency)
    return tuple(v.item() for v in result)


def test_collect_schedules_final_sample_for_target():
    _, last, achieved, shortfall = collect_one(0.0, 0.5, 10.0, interval=1.0)
    assert last == pytest.approx(8.0)
    assert achieved == pytest.approx(0.5)
    assert not shortfall


def test_collect_without_target_uses_last_cadence_sample():
    _, last, achieved, shortfall = collect_one(0.0, 0.0, 10.0, interval=1.0)
    assert last == pytest.approx(9.0)
    assert achieved == pytest.approx(1.0)
    assert not shortfall


def test_collect_without_target_keeps_freshness_within_cap():
    # the cadence sample at 9.5 lies 0.05 before upload, so it would make
    # the achieved freshness 20 > FRESHNESS_MAX; the last one taken is 9.0
    count, last, achieved, shortfall = collect_one(0.0, 0.0, 9.55, interval=0.5)
    assert count == 18
    assert last == 9.0
    assert achieved == pytest.approx(1.0 / 0.55)
    assert not shortfall


def test_collect_latency_shortfall():
    _, _, achieved, shortfall = collect_one(0.0, 2.0, 1.0, interval=5.0, latency=0.6)
    assert achieved == pytest.approx(1.0 / 0.6)
    assert shortfall


def test_collect_stale_target_reaches_before_round_start():
    # the scheduled sample may predate the round window: collection never stops
    _, last, achieved, shortfall = collect_one(-math.inf, 0.9, 1.0, interval=0.25)
    assert achieved == pytest.approx(0.9)
    assert last == pytest.approx(1.0 - 1.0 / 0.9)
    assert not shortfall


def test_collect_count_and_state_advance():
    counts, last, _, _ = collect_data(
        last_sample=[0.0, 0.0, 7.5],
        freshness=[0.25, 0.3, 0.3],
        upload_time=[8.0, 8.0, 8.0],
        round_start=0.0,
        interval=0.5,
    )
    # cadence samples at 0.5, 1.0, ..., 4.0 = 8 - 1/0.25, the target's last sample
    assert counts[0] == 8
    assert last[0] == 4.0
    # off the cadence, the scheduled sample is one more after the last routine one
    assert counts[1] == 10  # 0.5, ..., 4.5, then 8 - 1/0.3
    assert last[1] == pytest.approx(8.0 - 1.0 / 0.3)
    # a target older than the last sample adds nothing
    assert counts[2] == 0
    assert last[2] == 7.5


def scalar_collect(last, freshness, upload_time, round_start, interval, latency):
    """The collection rule for one client, as it was first written, with Python scalars."""
    if freshness > 0:
        age_target = max(1.0 / freshness, latency, fedsim._MIN_AGE)
    else:
        age_target = max(latency, 1.0 / FRESHNESS_MAX)
    final_time = upload_time - age_target
    cadence_start = max(last, round_start)
    count = max(0, math.floor((final_time + 1e-12 - cadence_start) / interval))
    new_last = cadence_start + count * interval if count else last
    if freshness > 0 and final_time > last and (not count or new_last < final_time - 1e-12):
        count += 1
        new_last = final_time
    if math.isfinite(new_last):
        achieved = 1.0 / max(upload_time - new_last, fedsim._MIN_AGE)
    else:
        achieved = 0.0
    shortfall = freshness > 0 and achieved < freshness * (1 - 1e-12)
    return count, new_last, achieved, shortfall


collecting_client = st.tuples(
    st.one_of(st.just(-math.inf), st.floats(-6.0, 6.0)),  # newest sample so far
    st.one_of(st.just(0.0), st.floats(1e-3, FRESHNESS_MAX)),  # freshness target
    st.floats(1e-3, 5.0),  # time from round start to upload
)


@settings(max_examples=300, deadline=None)
@given(
    clients=st.lists(collecting_client, min_size=1, max_size=8),
    round_start=st.floats(0.0, 5.0),
    interval=st.floats(0.01, 2.0),
    latency=st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
)
def test_collect_matches_the_scalar_rule_bit_for_bit(clients, round_start, interval, latency):
    last, freshness, elapsed = (list(v) for v in zip(*clients))
    upload_time = [round_start + t for t in elapsed]
    counts, new_last, achieved, shortfall = collect_data(
        last, freshness, upload_time, round_start, interval, latency
    )
    assert counts.dtype == np.int64 and shortfall.dtype == bool
    for k in range(len(clients)):
        want = scalar_collect(
            last[k], freshness[k], upload_time[k], round_start, interval, latency
        )
        assert counts[k].item() == want[0]
        assert new_last[k].item().hex() == want[1].hex()
        assert achieved[k].item().hex() == want[2].hex()
        assert shortfall[k].item() is want[3]


def test_collect_rejects_a_negative_target():
    with pytest.raises(DomainError, match="freshness target must be non-negative"):
        collect_data([0.0, 0.0], [0.5, -0.1], [2.0, 2.0], 0.0, 0.25)


@pytest.mark.parametrize("interval", [0.0, -0.25, math.nan, math.inf])
def test_collect_rejects_a_bad_interval(interval):
    with pytest.raises(DomainError, match="collection_interval must be positive and finite"):
        collect_data([0.0], [0.5], [2.0], 0.0, interval)


def test_collect_rejects_an_interval_too_small_for_the_window():
    # one client's window alone is enough to refuse the whole call
    with pytest.raises(DomainError, match="collection_interval is too small"):
        collect_data([0.0, -math.inf], [0.5, 0.5], [1.0, 3.0], 0.0, 5e-7)
    counts, _, _, _ = collect_data([0.0, -math.inf], [0.5, 0.5], [1.0, 3.0], 0.0, 1e-6)
    assert counts.tolist() == [0, 1_000_000]


# ------------------------------------------------------------------ training

def test_local_train_tiny_target_terminates_fast():
    ds = make_dataset()
    res = local_train(
        ModelParams(np.zeros(10)), ds, 0.001, iteration_scale=1.0, cap_scale=50.0
    )
    assert res.achieved_accuracy >= 0.001 - 1e-15
    assert res.iterations <= 3


def test_local_train_regression_fixture_well_conditioned():
    # frozen from a reference run: seed 1, d=10, N=100, noise 0.1, target 0.9
    ds = make_dataset(n=100, dim=10, noise=0.1, seed=1)
    res = local_train(
        ModelParams(np.zeros(10)), ds, 0.9, iteration_scale=2.0, cap_scale=50.0
    )
    assert res.achieved_accuracy == pytest.approx(0.9, abs=1e-12)
    assert res.iterations == 1


def ill_conditioned_dataset():
    rng = np.random.default_rng(2)
    base = rng.standard_normal((200, 1))
    x = base + 0.05 * rng.standard_normal((200, 12))
    w = rng.standard_normal(12)
    return ClientDataset.from_rows(x, x @ w)


def test_local_train_regression_fixture_ill_conditioned():
    # frozen from a reference run: correlated features need several steps
    ds = ill_conditioned_dataset()
    res = local_train(
        ModelParams(np.zeros(12)), ds, 0.999, iteration_scale=3.0, cap_scale=50.0
    )
    assert res.achieved_accuracy == pytest.approx(0.999, abs=1e-12)
    assert res.iterations == 7


def test_local_train_exact_line_search_descends():
    # run the same problem with increasing targets: iterations never decrease
    # and every target is landed exactly (monotone descent of the loss)
    ds = ill_conditioned_dataset()
    iters = []
    for target in (0.5, 0.9, 0.99, 0.999):
        res = local_train(
            ModelParams(np.zeros(12)), ds, target, iteration_scale=3.0, cap_scale=50.0
        )
        assert res.achieved_accuracy == pytest.approx(target, abs=1e-12)
        iters.append(res.iterations)
    assert iters == sorted(iters)


def test_local_train_cap_leaves_shortfall():
    ds = ill_conditioned_dataset()
    res = local_train(
        ModelParams(np.zeros(12)), ds, 0.999, iteration_scale=3.0, cap_scale=0.1
    )
    assert res.iterations == 1
    assert res.achieved_accuracy < 0.999


def iteration_cap(target_accuracy, iteration_scale, cap_scale):
    return max(
        1,
        math.ceil(
            iteration_scale * (1.0 + target_accuracy) * math.log1p(target_accuracy) * cap_scale
        ),
    )


def row_space_train(model, x, y, target_accuracy, iteration_scale, cap_scale, steps=None):
    """Oracle: the same descent run on the N-row residual, re-reading the rows every step.

    Returns the TrainResult plus why the loop stopped: "landed", "target",
    "stalled", "stationary" or "cap".  Given ``steps``, the run replays a run
    of known length: it takes at most that many steps and does not stop on a
    stall, since its loss, summed over the rows, stalls on its own rounding.
    """
    n = x.shape[0]
    w = model.weights.copy()

    def loss_of(res):
        return float(res @ res) / n

    residual = x @ w - y
    loss_init = loss_of(residual)
    if loss_init <= 0.0:
        return TrainResult(ModelParams(w), 1.0 - 1e-15, 0), "target"
    target_loss = (1.0 - target_accuracy) * loss_init
    cap = iteration_cap(target_accuracy, iteration_scale, cap_scale) if steps is None else steps
    loss = loss_init
    iterations = 0
    stop = "cap"
    for _ in range(cap):
        grad = (2.0 / n) * (x.T @ residual)
        xg = x @ grad
        denom = float(xg @ xg)
        if denom <= 0.0:
            stop = "stationary"
            break
        eta = (n / 2.0) * float(grad @ grad) / denom
        new_loss = loss_of(residual - eta * xg)
        if steps is None and new_loss >= loss:
            stop = "stalled"
            break
        landed = new_loss < target_loss
        if landed:
            a_q = denom / n
            b_q = -2.0 * float(xg @ residual) / n
            c_q = loss - target_loss
            disc = max(b_q * b_q - 4.0 * a_q * c_q, 0.0)
            eta = (-b_q - math.sqrt(disc)) / (2.0 * a_q)
        w = w - eta * grad
        residual = residual - eta * xg
        loss = loss_of(residual)
        iterations += 1
        if landed:
            loss = target_loss
            stop = "landed"
            break
        if 1.0 - loss / loss_init >= target_accuracy:
            stop = "target"
            break
    achieved = min(max(1.0 - loss / loss_init, 0.0), ACCURACY_MAX)
    return TrainResult(ModelParams(w), achieved, iterations), stop


@st.composite
def training_problems(draw):
    n = draw(st.integers(1, 500))
    dim = draw(st.integers(1, 12))
    noise = draw(st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):  # ill-conditioned: every feature near one shared column
        x = rng.standard_normal((n, 1)) + 0.05 * rng.standard_normal((n, dim))
    else:
        x = rng.standard_normal((n, dim))
    y = x @ rng.standard_normal(dim) + noise * rng.standard_normal(n)
    start = rng.standard_normal(dim) if draw(st.booleans()) else np.zeros(dim)
    return (
        ModelParams(start),
        x,
        y,
        1.0 - 10.0 ** -draw(st.floats(0.005, 3.0)),  # targets 0.011 to 0.999
        draw(st.floats(0.5, 6.0)),
        draw(st.floats(0.1, 100.0)),
    )


@settings(max_examples=200)
@given(training_problems())
def test_gram_space_training_matches_row_space_oracle(problem):
    model, x, y, target, scale, cap_scale = problem
    ds = ClientDataset.from_rows(x, y)
    res = local_train(model, ds, target, iteration_scale=scale, cap_scale=cap_scale)
    # step for step: the oracle replays as many steps as the Gram run took
    oracle, _ = row_space_train(model, x, y, target, scale, cap_scale, steps=res.iterations)
    assert oracle.iterations == res.iterations
    assert res.achieved_accuracy == pytest.approx(oracle.achieved_accuracy, abs=1e-12)
    w_oracle = oracle.model.weights
    assert np.all(np.abs(res.model.weights - w_oracle) <= 1e-9 * (1.0 + np.abs(w_oracle)))

    # run on its own, the oracle stops where the Gram run does unless one of
    # them stalled: the two loss trackers round differently, so their stalls
    # may fall a step or more apart
    own, stop = row_space_train(model, x, y, target, scale, cap_scale)
    if stop in ("landed", "target"):
        assert res.iterations == own.iterations
    cap = iteration_cap(target, scale, cap_scale)
    if res.iterations < cap and res.achieved_accuracy < target - 1e-12:
        # short of the target before the cap, the Gram run stalled: its next
        # step would not lower its loss, so a run restarted from there takes none
        again = local_train(res.model, ds, target, iteration_scale=scale, cap_scale=cap_scale)
        assert again.iterations == 0


@settings(max_examples=100)
@given(training_problems())
def test_local_train_accuracy_never_falls_with_more_iterations(problem):
    # a larger cap runs the same steps further; since an exact line-search
    # step cannot raise the loss, more iterations never mean less accuracy
    model, x, y, target, scale, _ = problem
    ds = ClientDataset.from_rows(x, y)
    runs = sorted(
        (res.iterations, res.achieved_accuracy)
        for res in (
            local_train(model, ds, target, iteration_scale=scale, cap_scale=cap_scale)
            for cap_scale in (0.1, 0.3, 1.0, 3.0, 10.0, 30.0, 100.0)
        )
    )
    accuracies = [accuracy for _, accuracy in runs]
    assert accuracies == sorted(accuracies)


@pytest.mark.parametrize("seed, spread", [(1, None), (2, None), (3, None), (4, 1.0), (5, 1.0)])
def test_local_train_stops_at_the_noise_floor_within_the_kantorovich_bound(seed, spread):
    # a 0.999 target below the least-squares floor cannot be met; training
    # stalls there before the cap, short of the best accuracy the rows allow
    # by at most the Kantorovich factor times the stalled step's decrease,
    # which lies below one rounding of the loss: eps * loss
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((200, 8))
    if spread is not None:  # correlated features: kappa near 10 rather than 2
        x = rng.standard_normal((200, 1)) + spread * x
    y = x @ rng.standard_normal(8) + 0.3 * rng.standard_normal(200)
    ds = ClientDataset.from_rows(x, y)
    res = local_train(ModelParams(np.zeros(8)), ds, 0.999, iteration_scale=3.0, cap_scale=50.0)
    assert 0 < res.iterations < iteration_cap(0.999, 3.0, 50.0)

    eps = np.finfo(float).eps
    loss_init = float(y @ y) / 200
    residual = x @ np.linalg.lstsq(x, y, rcond=None)[0] - y
    optimum = 1.0 - float(residual @ residual) / 200 / loss_init
    assert optimum < 0.999
    eig = np.linalg.eigvalsh(ds.gram)
    eig = eig[eig > eig[-1] * 1e-12]  # G over its range
    kappa = eig[-1] / eig[0]
    bound = (kappa + 1.0) ** 2 / (4.0 * kappa) * eps * (1.0 - res.achieved_accuracy)
    # each step rounds the tracked loss twice, by at most eps * loss_init / 2 each
    rounding = res.iterations * eps
    assert res.achieved_accuracy <= optimum + rounding
    assert optimum - res.achieved_accuracy <= bound + rounding


@pytest.mark.parametrize("rows, seed", [("well", 4), ("ill", 3)])
def test_local_train_interpolating_start_takes_no_steps(rows, seed):
    # the statistics resolve the loss only down to their rounding level: a
    # noise-free dataset started at its true weights is already interpolating
    # (both seeds leave a positive rounding residue in the initial loss)
    rng = np.random.default_rng(seed)
    if rows == "well":
        x = rng.standard_normal((100, 10))
        w = rng.standard_normal(10)
    else:
        # nearly parallel columns and weights of alternating sign: X w cancels,
        # so the statistics' rounding is large against w^T G w + y^T y
        x = rng.standard_normal((200, 1)) + 0.05 * rng.standard_normal((200, 12))
        w = np.tile([1.0, -1.0], 6)
    ds = ClientDataset.from_rows(x, x @ w)
    for target in (0.5, 0.999):
        res = local_train(ModelParams(w), ds, target, iteration_scale=3.0, cap_scale=50.0)
        assert res.iterations == 0
        assert res.achieved_accuracy == 1.0 - 1e-15
        assert np.array_equal(res.model.weights, w)


def test_local_train_rejects_bad_inputs():
    ds = make_dataset()
    with pytest.raises(DomainError):
        local_train(ModelParams(np.zeros(10)), ds, 1.0, iteration_scale=1.0, cap_scale=50.0)
    with pytest.raises(DomainError, match="empty dataset"):
        local_train(
            ModelParams(np.zeros(10)),
            ClientDataset.empty(10),
            0.5,
            iteration_scale=1.0,
            cap_scale=50.0,
        )


# --------------------------------------------------------------- aggregation

def test_aggregate_identical_models_idempotent():
    m = ModelParams(np.array([1.5, -2.0, 3.0]))
    out = aggregate([m, m, m], [0.2, 0.3, 0.5])
    assert out.weights == pytest.approx(m.weights, rel=1e-12)


def test_aggregate_symmetry():
    out = aggregate(
        [ModelParams(np.array([1.0, 0.0])), ModelParams(np.array([0.0, 1.0]))],
        [1.0, 1.0],
    )
    assert out.weights == pytest.approx([0.5, 0.5])


def test_aggregate_weighted_mean():
    models = [ModelParams(np.array([v])) for v in (2.0, 4.0, 6.0)]
    out = aggregate(models, [1.0, 2.0, 3.0])
    assert out.weights == pytest.approx([14.0 / 3.0], rel=1e-12)


def test_aggregate_permutation_invariant():
    rng = np.random.default_rng(0)
    models = [ModelParams(rng.standard_normal(5)) for _ in range(4)]
    weights = [1.0, 2.0, 3.0, 4.0]
    base = aggregate(models, weights)
    order = [2, 0, 3, 1]
    shuffled = aggregate([models[i] for i in order], [weights[i] for i in order])
    assert shuffled.weights == pytest.approx(base.weights, rel=1e-12)


def test_aggregate_validation():
    with pytest.raises(DomainError):
        aggregate([], [])
    with pytest.raises(DomainError):
        aggregate([ModelParams(np.zeros(2)), ModelParams(np.zeros(3))], [1.0, 1.0])
    with pytest.raises(DomainError):
        aggregate([ModelParams(np.zeros(2))], [0.0])
    with pytest.raises(DomainError):
        aggregate([ModelParams(np.zeros(2))], [-1.0])


# -------------------------------------------------------------------- rounds

def default_round_setup(seed=3, noise=0.0, kind=MechanismKind.IFEDCROWD):
    config = ScenarioConfig(seed=seed, comm_size=0.0)
    population = sample_population(config, 0)
    params = config.system_params
    box = feasible_rate_box(population, config.r2_cap)
    rates = select_rates(kind, population, params, box, rng_seed=rate_seed(config, 0))
    round_config = RoundConfig(noise_std=noise)
    state = init_state(population, round_config, run_seed=config.seed)
    return population, params, rates, round_config, state


def test_noise_free_rounds_realize_the_static_prediction():
    """A round with no shortfall realizes the server utility the game predicts.

    Default scenario at n = 10, seeds 1-10, every mechanism, noise-free
    data, 3 rounds each.  A round in which no client falls short settles
    every client at its best response, so its server utility must equal
    `population_utilities` at those responses to rounding.  Of the 90
    rounds, 3 have a training shortfall (Random at seeds 2 and 9, MAX at
    seed 9) and are skipped; they miss by up to 3.0e-6 relative.

    n >= 30 waits for the zero-freshness-target defect (ROADMAP item 2): a
    client with a zero freshness target still collects routine samples and
    is paid for the freshness they give, which the prediction does not
    count, and at n = 30 ifedcrowd misses by 0.59 relative.
    """
    round_config = RoundConfig(noise_std=0.0)
    checked = 0
    for seed in range(1, 11):
        config = ScenarioConfig(seed=seed)
        population = sample_population(config, 0)
        params = config.system_params
        box = feasible_rate_box(population, config.r2_cap)
        gamma, delta, t_min = _population_arrays(population)
        for kind in MechanismKind:
            rates = select_rates(kind, population, params, box, rng_seed=rate_seed(config, 0))
            accuracy, freshness, _, _ = best_responses(gamma, delta, t_min, rates.r1, rates.r2)
            _, _, predicted = population_utilities(
                gamma, delta, t_min, accuracy, freshness, params, rates.r1, rates.r2
            )
            state = init_state(population, round_config, run_seed=seed)
            for index in range(3):
                report = run_round(population, params, rates, round_config, state, seed, index)
                if report.n_shortfall == 0:
                    assert report.server_utility == pytest.approx(predicted, rel=1e-12, abs=0)
                    checked += 1
    assert checked == 87


def test_run_round_matches_equilibrium_prediction():
    population, params, _, round_config, state = default_round_setup()
    box = feasible_rate_box(population, ScenarioConfig().r2_cap)
    predicted = compute_equilibrium(population, params, box)
    report = run_round(
        population,
        params,
        predicted.rates,
        round_config,
        state,
        run_seed=3,
    )
    assert report.n_failed == 0
    assert report.server_utility == pytest.approx(predicted.server_utility, abs=1e-6)
    for record in report.clients:
        assert record.achieved.accuracy == pytest.approx(
            record.target.accuracy, abs=1e-12
        )
        assert record.achieved.freshness == pytest.approx(
            record.target.freshness, abs=1e-12
        )
        assert record.achieved.completion_time == record.target.completion_time


def test_run_round_settlement_is_bitwise_consistent():
    population, params, rates, round_config, state = default_round_setup(seed=5)
    report = run_round(
        population, params, rates, round_config, state, run_seed=5
    )
    for record in report.clients:
        assert record.payout == client_reward(report.rates, record.achieved)


def test_run_round_report_recomputes_server_utility():
    population, params, rates, round_config, state = default_round_setup(
        seed=7, kind=MechanismKind.MAX
    )
    report = run_round(
        population, params, rates, round_config, state, run_seed=7
    )
    achieved = [r.achieved for r in report.clients if not r.failed]
    recomputed = server_utility(
        SystemParams(params.alpha, params.beta, params.comm_size, len(achieved)),
        report.rates,
        achieved,
    )
    assert report.server_utility == pytest.approx(recomputed, rel=1e-12)
    assert report.wall_clock == max(r.achieved.completion_time for r in report.clients)


def test_run_round_deterministic():
    population, params, rates, round_config, state_a = default_round_setup(seed=11, noise=0.1)
    _, _, _, _, state_b = default_round_setup(seed=11, noise=0.1)
    a = run_round(
        population, params, rates, round_config, state_a, run_seed=11
    )
    b = run_round(
        population, params, rates, round_config, state_b, run_seed=11
    )
    assert a == b


def test_run_round_rejects_empty_population():
    _, params, rates, round_config, state = default_round_setup(kind=MechanismKind.MAX)
    with pytest.raises(DomainError):
        run_round([], params, rates, round_config, state, run_seed=1)


def test_run_round_cap_shortfall_reduces_payout():
    population, params, rates, _, _ = default_round_setup(seed=13, kind=MechanismKind.MAX)
    starved = RoundConfig(noise_std=0.0, iteration_cap_scale=1e-6)
    state = init_state(population, starved, run_seed=13)
    report = run_round(
        population, params, rates, starved, state, run_seed=13
    )
    for record in report.clients:
        assert not record.failed
        target_payout = client_reward(report.rates, record.target)
        if record.accuracy_shortfall:
            assert record.payout < target_payout
            assert record.achieved.accuracy < record.target.accuracy
    assert any(r.accuracy_shortfall for r in report.clients)


def test_round_report_serializes_to_plain_json():
    import json

    population, params, rates, round_config, state = default_round_setup(
        seed=17, noise=0.1, kind=MechanismKind.RANDOM
    )
    report = run_round(
        population, params, rates, round_config, state, run_seed=17
    )
    payload = json.dumps(report.to_dict())
    parsed = json.loads(payload)
    assert parsed["round_index"] == 0
    assert len(parsed["clients"]) == len(population)
    assert parsed["rates"]["r1"] == report.rates.r1


def run_failed_round(monkeypatch, failing=2):
    """One noisy default round in which client ``failing``'s training fails.

    Returns the population, the system parameters, the report and the models
    that the other clients trained, in population order.
    """
    population, params, rates, round_config, state = default_round_setup(seed=3, noise=0.1)
    assert len({p.gamma for p in population}) == len(population)
    real_train = fedsim.local_train
    models = []

    def train(*args, iteration_scale, **kwargs):
        if iteration_scale == population[failing].gamma:
            raise DomainError("injected training failure")
        result = real_train(*args, iteration_scale=iteration_scale, **kwargs)
        models.append(result.model)
        return result

    monkeypatch.setattr(fedsim, "local_train", train)
    report = run_round(population, params, rates, round_config, state, run_seed=3)
    assert report.server_model == tuple(state.server_model.weights)
    return population, params, report, models


def test_run_round_records_a_failed_client_and_settles_the_survivors(monkeypatch):
    population, params, report, models = run_failed_round(monkeypatch)
    failed = report.clients[2]
    assert failed.client_id == population[2].id
    assert failed.achieved is None
    assert (failed.payout, failed.utility, failed.iterations) == (0.0, 0.0, 0)
    assert failed.failed and failed.accuracy_shortfall
    assert failed.error == "injected training failure"
    assert failed.dataset_size > 0  # its collection still ran
    assert report.n_failed == 1
    assert report.n_shortfall == 1 + sum(
        r.accuracy_shortfall or r.freshness_shortfall for r in report.clients if not r.failed
    )

    survivors = [r for r in report.clients if not r.failed]
    assert len(survivors) == len(models) == len(population) - 1
    assert all(r.error is None and r.iterations > 0 for r in survivors)
    sizes = np.array([r.dataset_size for r in survivors], dtype=float)
    expected_model = sizes @ np.stack([m.weights for m in models]) / sizes.sum()
    np.testing.assert_allclose(report.server_model, expected_model, rtol=1e-12, atol=1e-15)

    realized = SystemParams(params.alpha, params.beta, params.comm_size, len(survivors))
    assert report.server_utility == pytest.approx(
        server_utility(realized, report.rates, [r.achieved for r in survivors]), rel=1e-12
    )

    line = json.dumps(report.to_dict())
    assert json.loads(line)["clients"][2]["achieved"] is None
    assert '"achieved": null' in line


def oracle_client_dict(record) -> dict:
    """The hand-written client-record format that reports were first written in."""

    def strat(s):
        if s is None:
            return None
        return {
            "accuracy": s.accuracy,
            "freshness": s.freshness,
            "completion_time": s.completion_time,
        }

    return {
        "client_id": record.client_id,
        "target": strat(record.target),
        "achieved": strat(record.achieved),
        "payout": record.payout,
        "utility": record.utility,
        "accuracy_clamped": record.accuracy_clamped,
        "freshness_clamped": record.freshness_clamped,
        "accuracy_shortfall": record.accuracy_shortfall,
        "freshness_shortfall": record.freshness_shortfall,
        "iterations": record.iterations,
        "dataset_size": record.dataset_size,
        "failed": record.failed,
        "error": record.error,
    }


def oracle_round_dict(report) -> dict:
    return {
        "round_index": report.round_index,
        "rates": {"r1": report.rates.r1, "r2": report.rates.r2},
        "clients": [oracle_client_dict(c) for c in report.clients],
        "server_model": list(report.server_model),
        "server_utility": report.server_utility,
        "wall_clock": report.wall_clock,
        "n_failed": report.n_failed,
        "n_shortfall": sum(c.accuracy_shortfall or c.freshness_shortfall for c in report.clients),
    }


def assert_keys_are_field_names(data, record):
    """Every object's keys are its record's field names, in order, at every level."""
    names = [f.name for f in dataclasses.fields(record)]
    assert list(data) == names
    for name in names:
        value = getattr(record, name)
        if isinstance(value, tuple):
            assert isinstance(data[name], list)
            pairs = zip(data[name], value, strict=True)
        else:
            pairs = [(data[name], value)]
        for item_data, item in pairs:
            if dataclasses.is_dataclass(item):
                assert_keys_are_field_names(item_data, item)


def assert_report_matches_oracle(report):
    data = report.to_dict()
    assert json.dumps(data) == json.dumps(oracle_round_dict(report))
    assert_keys_are_field_names(data, report)


@pytest.mark.parametrize("kind", list(MechanismKind))
def test_round_report_format_matches_hand_written_oracle(kind):
    population, params, rates, round_config, state = default_round_setup(
        seed=31, noise=0.1, kind=kind
    )
    for index in range(20):
        report = run_round(
            population, params, rates, round_config, state, run_seed=31, round_index=index
        )
        assert_report_matches_oracle(report)


def test_failed_round_report_matches_hand_written_oracle(monkeypatch):
    _, _, report, _ = run_failed_round(monkeypatch)
    assert report.n_failed == 1
    assert_report_matches_oracle(report)


def test_client_with_no_sample_before_upload_fails_and_the_round_settles():
    # beta = 1 puts r2 on the box floor, where client 4 targets freshness 0;
    # its t_min of about 0.028 is shorter than the 1/FRESHNESS_MAX = 0.1 that
    # the last routine sample must precede upload by, so it has no data yet
    config = dataclasses.replace(ScenarioConfig(), beta=1.0, tmin=(0.01, 0.05), seed=1)
    report = next(iter(run_simulation(config)))
    failed = report.clients[4]
    assert failed.target.freshness == 0.0
    assert failed.target.completion_time < 1.0 / FRESHNESS_MAX
    assert failed.error == "cannot train on an empty dataset"
    assert failed.dataset_size == 0 and failed.achieved is None and failed.failed
    assert report.n_failed == 1
    assert sum(not r.failed for r in report.clients) == 9
    assert math.isfinite(report.server_utility)
    assert_report_matches_oracle(report)


def test_multi_round_datasets_grow_and_clock_advances():
    population, params, rates, round_config, state = default_round_setup(seed=19, noise=0.1)
    sizes = []
    clock = 0.0
    for index in range(3):
        report = run_round(
            population,
            params,
            rates,
            round_config,
            state,
            run_seed=19,
            round_index=index,
        )
        sizes.append(sum(r.dataset_size for r in report.clients))
        assert state.clock == pytest.approx(clock + report.wall_clock)
        clock = state.clock
    assert sizes == sorted(sizes)


def dataset_nbytes(ds):
    return sum(np.asarray(getattr(ds, f.name)).nbytes for f in dataclasses.fields(ds))


def test_client_dataset_merges_statistics_in_fixed_memory():
    # merging adds statistics: the same as the statistics of the stacked rows
    rng = np.random.default_rng(4)
    xa, xb = rng.standard_normal((7, 5)), rng.standard_normal((3, 5))
    ya, yb = rng.standard_normal(7), rng.standard_normal(3)
    merged = ClientDataset.from_rows(xa, ya).merged(ClientDataset.from_rows(xb, yb))
    stacked = ClientDataset.from_rows(np.vstack([xa, xb]), np.concatenate([ya, yb]))
    assert merged.size == stacked.size == 10
    np.testing.assert_allclose(merged.gram, stacked.gram, rtol=1e-12)
    np.testing.assert_allclose(merged.xty, stacked.xty, rtol=1e-12)
    assert merged.yty == pytest.approx(stacked.yty, rel=1e-12)

    # so a client's dataset holds the same bytes however many rounds it ran
    population, params, rates, round_config, state = default_round_setup(seed=29, noise=0.1)
    nbytes, sizes = set(), []
    for index in range(50):
        run_round(
            population,
            params,
            rates,
            round_config,
            state,
            run_seed=29,
            round_index=index,
        )
        nbytes.add(dataset_nbytes(state.datasets[0]))
        sizes.append(state.datasets[0].size)
    assert sizes[-1] > sizes[0] > 0
    assert nbytes == {dataset_nbytes(ClientDataset.empty(round_config.dim))}


def test_run_round_rejects_a_state_built_for_another_population():
    population, params, rates, round_config, _ = default_round_setup()
    for other in (population[:5], [*population, *population[:2]]):
        state = init_state(other, round_config, run_seed=3)
        with pytest.raises(
            DomainError, match=f"holds {len(other)} clients but the population has 10"
        ):
            run_round(population, params, rates, round_config, state, run_seed=3)
        assert state.clock == 0.0


def snapshot(state):
    return (
        [d.size for d in state.datasets],
        state.last_sample.tolist(),
        state.server_model.weights.tolist(),
        state.clock,
    )


def test_a_round_that_raises_in_collection_leaves_the_state_as_it_was():
    # clients 7 and 9's round windows hold more than 10^6 cadence samples and
    # the other eight hold 341,279 to 987,036: none of those may be merged
    population, params, rates, _, _ = default_round_setup(seed=1, kind=MechanismKind.MAX)
    tiny = RoundConfig(collection_interval=2.2e-6)
    state = init_state(population, tiny, run_seed=1)
    before = snapshot(state)
    with pytest.raises(DomainError, match="collection_interval is too small"):
        run_round(population, params, rates, tiny, state, run_seed=1)
    assert snapshot(state) == before == ([0] * 10, [-math.inf] * 10, [0.0] * 8, 0.0)


def test_a_round_that_raises_in_settlement_leaves_the_state_as_it_was(monkeypatch):
    population, params, rates, round_config, state = default_round_setup(seed=3, noise=0.1)
    _, _, _, _, twin = default_round_setup(seed=3, noise=0.1)
    for s in (state, twin):
        run_round(population, params, rates, round_config, s, run_seed=3, round_index=0)
    before = snapshot(state)

    real_settle = fedsim.population_utilities
    calls = []

    def settle(*args):
        calls.append(args)
        raise DomainError("injected settlement failure")

    monkeypatch.setattr(fedsim, "population_utilities", settle)
    with pytest.raises(DomainError, match="injected settlement failure"):
        run_round(population, params, rates, round_config, state, run_seed=3, round_index=1)
    monkeypatch.setattr(fedsim, "population_utilities", real_settle)
    assert len(calls) == 1 and len(calls[0][0]) == 10  # one pass over every survivor
    assert snapshot(state) == before

    # so a retried round collects once, as if the failed attempt never ran
    retried = run_round(population, params, rates, round_config, state, run_seed=3, round_index=1)
    assert retried == run_round(
        population, params, rates, round_config, twin, run_seed=3, round_index=1
    )
    assert snapshot(state) == snapshot(twin)


def test_a_collection_cost_that_overflows_names_the_first_survivor(monkeypatch):
    # clients 4 and 6 reach a freshness at which exp(delta F) overflows; the
    # round raises collection_cost's error for client 4, with no RuntimeWarning
    population, params, rates, round_config, state = default_round_setup(seed=3)
    real_collect = fedsim.collect_data

    def collect(*args, **kwargs):
        counts, last_sample, freshness, shortfall = real_collect(*args, **kwargs)
        freshness = freshness.copy()
        freshness[[4, 6]] = 800.0 / population.delta[[4, 6]]
        return counts, last_sample, freshness, shortfall

    monkeypatch.setattr(fedsim, "collect_data", collect)
    d, f = population.delta[4].item(), 800.0 / population.delta[4].item()
    with pytest.raises(DomainError) as raised:
        run_round(population, params, rates, round_config, state, run_seed=3)
    with pytest.raises(DomainError) as scalar:
        collection_cost(d, f)
    assert str(raised.value) == str(scalar.value)


def test_clients_sharing_an_id_keep_their_own_state(monkeypatch):
    population = Population([0, 0, 1], [1.0, 2.0, 3.0], [1.0, 1.5, 2.0], [1.0, 2.0, 3.0])
    params = SystemParams(alpha=80.0, beta=50.0, comm_size=0.0, n=3)
    box = feasible_rate_box(population, ScenarioConfig().r2_cap)
    rates = select_rates(MechanismKind.MAX, population, params, box, rng_seed=0)
    config = RoundConfig()
    state = init_state(population, config, run_seed=1)
    real_collect = fedsim.collect_data
    counts = []

    def collect(*args, **kwargs):
        result = real_collect(*args, **kwargs)
        counts.append(result[0])
        return result

    monkeypatch.setattr(fedsim, "collect_data", collect)
    for index in range(3):
        report = run_round(population, params, rates, config, state, 1, index)
        assert [r.dataset_size for r in report.clients] == sum(counts).tolist()
    assert counts[0][0] != counts[0][1]  # one id, two collection clocks


GOLDEN_SIMULATION = Path(__file__).parent / "data" / "simulate_default.jsonl"


def golden_scenarios():
    """20 default rounds, then 5 rounds in which one client fails every round."""
    return [
        ScenarioConfig(rounds=20),
        dataclasses.replace(ScenarioConfig(), beta=1.0, tmin=(0.01, 0.05), rounds=5),
    ]


def assert_json_close(got, want, where="$"):
    """Floats agree to 1e-12 relative; every other value, key and type exactly."""
    assert type(got) is type(want), where
    if isinstance(want, dict):
        assert list(got) == list(want), where
        for key in want:
            assert_json_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_json_close(g, w, f"{where}[{i}]")
    elif isinstance(want, float) and not math.isnan(want):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), where
    elif isinstance(want, float):
        assert math.isnan(got), where
    else:
        assert got == want, where


def test_simulation_reports_match_the_golden_jsonl():
    # each line as `ifedcrowd simulate` writes it: json.dumps(report.to_dict())
    lines = [
        json.dumps(report.to_dict())
        for config in golden_scenarios()
        for report in run_simulation(config)
    ]
    golden = GOLDEN_SIMULATION.read_text(encoding="utf-8").splitlines()
    assert len(lines) == len(golden) == 25
    assert sum(json.loads(line)["n_failed"] for line in golden[20:]) == 5
    for index, (line, want) in enumerate(zip(lines, golden)):
        assert_json_close(json.loads(line), json.loads(want), f"line {index}")


def test_completion_jitter_shifts_realized_times():
    population, params, rates, _, _ = default_round_setup(seed=23)
    jittered = RoundConfig(noise_std=0.0, completion_jitter=0.5)
    state = init_state(population, jittered, run_seed=23)
    report = run_round(
        population, params, rates, jittered, state, run_seed=23
    )
    for record, profile in zip(report.clients, population):
        assert record.achieved.completion_time == pytest.approx(profile.t_min + 0.5)
    assert report.wall_clock == pytest.approx(
        max(p.t_min for p in population) + 0.5
    )


# ------------------------------------------------------------ round config

@pytest.mark.parametrize("dim", [0, -2, 2.5, float("nan")])
def test_round_config_dim_is_a_positive_integer(dim):
    with pytest.raises(ConfigError, match="dim"):
        RoundConfig(dim=dim)
    config = RoundConfig(dim=np.int64(3))
    assert config.dim == 3 and type(config.dim) is int


@pytest.mark.parametrize("key", ["collection_interval", "iteration_cap_scale"])
@pytest.mark.parametrize("value", [0.0, -3.0])
def test_round_config_cadence_and_cap_are_positive(key, value):
    with pytest.raises(ConfigError, match=key):
        RoundConfig(**{key: value})


@pytest.mark.parametrize("key", ["collection_latency", "noise_std", "completion_jitter"])
def test_round_config_delays_and_noise_are_non_negative(key):
    with pytest.raises(ConfigError, match=key):
        RoundConfig(**{key: -0.5})
    assert getattr(RoundConfig(**{key: 0.0}), key) == 0.0


@pytest.mark.parametrize(
    "key",
    [
        "collection_interval",
        "collection_latency",
        "noise_std",
        "completion_jitter",
        "iteration_cap_scale",
    ],
)
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_round_config_values_are_finite(key, value):
    with pytest.raises(ConfigError, match=f"{key} must be .*finite"):
        RoundConfig(**{key: value})
