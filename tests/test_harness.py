import argparse
import json
import math
import resource
import subprocess
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ifedcrowd import (
    ConfigError,
    DomainError,
    IFedCrowdError,
    MechanismKind,
    NumericError,
    Population,
    RoundConfig,
    ScenarioConfig,
    SweepSpec,
    SweepTable,
    compute_equilibrium,
    emit,
    evaluate_cell,
    feasible_rate_box,
    init_state,
    load_table,
    parse_config,
    rate_seed,
    run_round,
    run_simulation,
    run_sweep,
    sample_population,
    verify_scenario,
    verify_server_equilibrium,
)
from ifedcrowd import ClientProfile, game_core, harness, mechanisms
from ifedcrowd.equilibrium import VERIFY_TOL
from ifedcrowd.harness import table_to_csv, table_to_json

GOLDEN_SWEEP = Path(__file__).parent / "data" / "sweep_default.csv"

CONFIG_TEXT = """
# sample scenario
n = 10
alpha = 80
beta = 50
comm_size = 0.1
gamma_lo = 1
gamma_hi = 5
delta_lo = 1
delta_hi = 2
tmin_lo = 1
tmin_hi = 3
r2_cap = 100
mechanism = ifedcrowd
runs = 10
seed = 1
rounds = 1
"""


# ------------------------------------------------------------------- config

def test_parse_config_full():
    config = parse_config(CONFIG_TEXT)
    assert config == ScenarioConfig()


def test_parse_config_defaults_for_missing_keys():
    config = parse_config("n = 4\nseed = 9\n")
    assert config.n == 4
    assert config.seed == 9
    assert config.alpha == 80.0
    assert config.mechanism is MechanismKind.IFEDCROWD


def test_parse_config_unknown_key_fails_fast():
    with pytest.raises(ConfigError, match="gamma_low"):
        parse_config("gamma_low = 1\n")


def test_parse_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        parse_config("n = ten\n")
    with pytest.raises(ConfigError):
        parse_config("alpha = fast\n")
    with pytest.raises(ConfigError):
        parse_config("mechanism = greedy\n")
    with pytest.raises(ConfigError):
        parse_config("n = 1\nn = 2\n")
    with pytest.raises(ConfigError):
        parse_config("gamma_lo = 1\n")  # missing gamma_hi
    with pytest.raises(ConfigError):
        parse_config("gamma_lo = 5\ngamma_hi = 1\n")  # unordered bounds


def test_scenario_validation():
    with pytest.raises(ConfigError):
        ScenarioConfig(runs=0)
    with pytest.raises(ConfigError):
        ScenarioConfig(n=0)
    with pytest.raises(ConfigError):
        ScenarioConfig(tmin=(2.0, 1.0))


@pytest.mark.parametrize(
    "kwargs, key",
    [
        ({"seed": -1}, "seed"),
        ({"n": 2.5}, "n"),
        ({"runs": 1.5}, "runs"),
        ({"rounds": 2.0}, "rounds"),
        ({"seed": 1.0}, "seed"),
        ({"comm_size": math.nan}, "comm_size"),
        ({"alpha": math.inf}, "alpha"),
        ({"beta": math.nan}, "beta"),
        ({"r2_cap": math.inf}, "r2_cap"),
        ({"gamma": (1.0, math.inf)}, "gamma_hi"),
        ({"delta": (math.nan, 2.0)}, "delta_lo"),
        ({"tmin": (1.0, math.nan)}, "tmin_hi"),
    ],
)
def test_scenario_rejects_non_integer_and_non_finite_values(kwargs, key):
    with pytest.raises(ConfigError, match=rf"^{key} must be"):
        ScenarioConfig(**kwargs)


def test_scenario_accepts_numpy_integers_as_int():
    config = ScenarioConfig(n=np.int64(4), runs=np.int32(2), rounds=np.uint8(3), seed=np.int64(0))
    assert (config.n, config.runs, config.rounds, config.seed) == (4, 2, 3, 0)
    assert all(type(v) is int for v in (config.n, config.runs, config.rounds, config.seed))
    assert config.system_params.n == 4
    assert config == ScenarioConfig(n=4, runs=2, rounds=3, seed=0)


# ----------------------------------------------------------------- sampling

def test_sample_population_deterministic():
    config = ScenarioConfig(seed=4)
    assert sample_population(config, 0) == sample_population(config, 0)
    assert sample_population(config, 0) != sample_population(config, 1)


def test_sample_population_ranges():
    config = ScenarioConfig(n=50, gamma=(2.0, 6.0), delta=(0.5, 0.7), tmin=(1.0, 1.5))
    for p in sample_population(config, 3):
        assert 2.0 <= p.gamma <= 6.0
        assert 0.5 <= p.delta <= 0.7
        assert 1.0 <= p.t_min <= 1.5


def test_gamma_interval_shift_is_exact():
    # common random numbers: shifting the gamma interval shifts every draw
    lo = ScenarioConfig(seed=6, gamma=(1.0, 5.0))
    hi = ScenarioConfig(seed=6, gamma=(6.0, 10.0))
    for a, b in zip(sample_population(lo, 2), sample_population(hi, 2)):
        assert b.gamma - a.gamma == pytest.approx(5.0, abs=1e-12)
        assert b.delta == a.delta
        assert b.t_min == a.t_min


def test_population_prefix_stability_across_worker_counts():
    small = ScenarioConfig(seed=8, n=5)
    large = ScenarioConfig(seed=8, n=30)
    assert sample_population(small, 1) == sample_population(large, 1)[:5]


def per_row_population(config, run_index):
    """Oracle: the population drawn one worker at a time, three uniforms each."""
    rng = np.random.default_rng(
        np.random.SeedSequence((config.seed, run_index, harness._POP_TAG))
    )
    profiles = []
    for k in range(config.n):
        u = rng.random(3)
        gamma = config.gamma[0] + (config.gamma[1] - config.gamma[0]) * float(u[0])
        delta = config.delta[0] + (config.delta[1] - config.delta[0]) * float(u[1])
        t_min = config.tmin[0] + (config.tmin[1] - config.tmin[0]) * float(u[2])
        profiles.append(
            ClientProfile(
                id=k,
                gamma=max(gamma, harness._PARAM_FLOOR),
                delta=max(delta, harness._PARAM_FLOOR),
                t_min=max(t_min, harness._PARAM_FLOOR),
            )
        )
    return profiles


@pytest.mark.parametrize("n", [1, 7, 2000])
def test_sample_population_matches_per_row_draws(n):
    # the (n, 3) draw must reproduce the per-worker stream bit for bit,
    # floored parameters included
    for config in (
        ScenarioConfig(n=n, seed=5),
        ScenarioConfig(n=n, seed=9, gamma=(0.0, 0.0), delta=(0.3, 0.6), tmin=(2, 7)),
    ):
        for run in (0, 3):
            drawn = sample_population(config, run)
            assert drawn == per_row_population(config, run)
            assert all(type(p.delta) is float for p in drawn)


def profiles_of(values):
    """The ClientProfile list of an (n, 3) array of gamma, delta, t_min rows."""
    return [ClientProfile(k, *row) for k, row in enumerate(values.tolist())]


def assert_same_results(population, profiles, alpha):
    """Every entry point gives bit-identical results for the two representations."""
    params = ScenarioConfig(n=len(profiles), alpha=alpha).system_params
    box = feasible_rate_box(population)
    assert box == feasible_rate_box(profiles)
    assert [v.hex() for v in asdict(box).values()] == [
        v.hex() for v in asdict(feasible_rate_box(profiles)).values()
    ]
    eq = compute_equilibrium(population, params, box)
    eq_list = compute_equilibrium(profiles, params, box)
    assert (eq.rates.r1.hex(), eq.rates.r2.hex(), eq.r1_source, eq.r2_source) == (
        eq_list.rates.r1.hex(),
        eq_list.rates.r2.hex(),
        eq_list.r1_source,
        eq_list.r2_source,
    )
    for name in ("accuracy", "freshness", "completion_time", "utilities"):
        assert getattr(eq, name).tobytes() == getattr(eq_list, name).tobytes()
    assert eq.server_utility.hex() == eq_list.server_utility.hex()
    assert verify_server_equilibrium(population, params, eq.rates, box) == (
        verify_server_equilibrium(profiles, params, eq.rates, box)
    )
    rounds = RoundConfig()
    reports = [
        run_round(pop, params, eq.rates, rounds, init_state(pop, rounds, run_seed=3), 3, 0)
        for pop in (population, profiles)
    ]
    assert json.dumps(reports[0].to_dict()) == json.dumps(reports[1].to_dict())


@settings(max_examples=25, deadline=None)
@given(n=st.integers(1, 300), seed=st.integers(0, 2**32 - 1), alpha=st.sampled_from([80.0, 5e3]))
def test_population_and_profile_list_give_identical_results(n, seed, alpha):
    values = np.random.default_rng(seed).uniform((1.0, 1.0, 1.0), (5.0, 2.0, 3.0), (n, 3))
    population = Population(np.arange(n), *values.T)
    profiles = profiles_of(values)
    assert population == profiles and profiles == population
    assert list(population) == profiles and len(population) == n
    assert_same_results(population, profiles, alpha)


def test_population_and_profile_list_give_identical_results_at_n_2000():
    population = sample_population(ScenarioConfig(n=2000), 0)
    profiles = list(population)
    assert isinstance(population, Population) and type(profiles[0]) is ClientProfile
    assert_same_results(population, profiles, 80.0)


def test_population_holds_read_only_arrays_and_builds_profiles_once():
    population = sample_population(ScenarioConfig(n=6, seed=2), 1)
    arrays = game_core._population_arrays(population)
    assert arrays == (population.gamma, population.delta, population.t_min)
    assert all(a is b for a, b in zip(arrays, game_core._population_arrays(population)))
    for values in (population.ids, *arrays):
        with pytest.raises(ValueError):
            values[0] = 1.0
    assert population[2] is population[2] and population[-1].id == 5
    part = population[1:4]
    assert isinstance(part, Population) and part == list(population)[1:4]
    assert part.ids.tolist() == [1, 2, 3]
    assert population != list(population)[:-1] and population != population[::-1]
    assert population != "abcdef" and population != 6


@pytest.mark.parametrize("field", ["gamma", "delta", "t_min"])
@pytest.mark.parametrize("bad", [0.0, -1.5, math.nan, math.inf, -math.inf])
def test_population_refuses_bad_values_as_client_profile_does(field, bad):
    values = {"gamma": [2.0, 3.0, 4.0], "delta": [1.0, 1.5, 2.0], "t_min": [1.0, 2.0, 3.0]}
    values[field][1] = bad
    with pytest.raises(DomainError, match=f"^{field} must be positive and finite") as refused:
        Population([0, 1, 2], **values)
    with pytest.raises(DomainError) as single:
        ClientProfile(1, *(values[name][1] for name in ("gamma", "delta", "t_min")))
    assert str(refused.value) == str(single.value)


def test_population_refuses_arrays_of_other_shapes():
    with pytest.raises(DomainError, match="one length"):
        Population([0, 1], [1.0, 2.0], [1.0], [1.0, 2.0])
    with pytest.raises(DomainError, match="1-D"):
        Population([[0]], [[1.0]], [[1.0]], [[1.0]])


def test_rate_seed_deterministic():
    config = ScenarioConfig(seed=2)
    assert rate_seed(config, 3) == rate_seed(config, 3)
    assert rate_seed(config, 3) != rate_seed(config, 4)


# ------------------------------------------------------------------- sweeps

def test_sweep_spec_axes_defaults():
    base = ScenarioConfig()
    gamma = SweepSpec.for_axis("gamma", base)
    assert gamma.values == (1, 2, 3, 4, 5, 6)
    assert gamma.base.delta == (1.0, 2.0)
    assert gamma.cell_config(3).gamma == (3.0, 7.0)

    delta = SweepSpec.for_axis("delta", base)
    assert delta.values == (0, 1, 2, 3, 4, 5)
    assert delta.base.gamma == (1.0, 5.0)
    assert delta.cell_config(2).delta == (2.0, 3.0)

    workers = SweepSpec.for_axis("workers", base)
    assert workers.values == (5, 10, 15, 20, 25, 30)
    assert workers.base.gamma == (3.0, 5.0)
    assert workers.base.delta == (2.0, 4.0)
    assert workers.cell_config(15).n == 15

    with pytest.raises(ConfigError):
        SweepSpec.for_axis("bandwidth", base)


@pytest.mark.parametrize("value", [2.5, math.inf, math.nan])
def test_workers_axis_refuses_fractional_counts(value):
    # a cell solves n = int(value) workers, so its row would misreport n
    with pytest.raises(ConfigError, match="^workers values must be whole numbers, got"):
        SweepSpec("workers", (5, value), ScenarioConfig(runs=1))
    table = run_sweep(SweepSpec("workers", (2.0,), ScenarioConfig(runs=1)), [MechanismKind.MAX])
    assert [row.axis_value for row in table.rows] == [2.0]


def test_evaluate_cell_makes_no_call_per_client(monkeypatch):
    # responses and utilities of a cell-run come from one array pass each
    from ifedcrowd import equilibrium, fedsim, game_core, mechanisms

    calls = {"best_response": 0, "client_utility": 0, "server_utility": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (game_core, equilibrium, mechanisms, fedsim, harness):
        for name in calls:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    outcomes, failures = evaluate_cell(ScenarioConfig(), list(MechanismKind))
    assert failures == [] and len(outcomes) == 30
    assert calls == {"best_response": 0, "client_utility": 0, "server_utility": 0}


def test_evaluate_cell_pairs_mechanisms_on_shared_populations():
    config = ScenarioConfig(runs=3, seed=5)
    outcomes, failures = evaluate_cell(config, list(MechanismKind))
    assert not failures
    assert len(outcomes) == 9
    by_run = {}
    for o in outcomes:
        by_run.setdefault(o.run_index, set()).add(o.mechanism)
    assert all(len(m) == 3 for m in by_run.values())
    # MAX rates depend only on the (shared) population, not on the seed
    max_rates = {o.run_index: o.r1 for o in outcomes if o.mechanism is MechanismKind.MAX}
    assert len(max_rates) == 3


def test_sweep_max_r1_is_box_edge_per_cell():
    base = ScenarioConfig(runs=4, seed=12)
    spec = SweepSpec.for_axis("gamma", base)
    table = run_sweep(spec, [MechanismKind.MAX])
    for value, row in zip(spec.values, table.rows):
        config = spec.cell_config(value)
        edges = []
        for run in range(config.runs):
            population = sample_population(config, run)
            edges.append(
                (1.0 + math.log(2.0)) * max(p.gamma * p.t_min for p in population)
            )
        assert row.r1_mean == pytest.approx(float(np.mean(edges)), rel=1e-8)
        assert row.runs == config.runs


def test_sweep_table_emission_round_trip(tmp_path):
    spec = SweepSpec.for_axis("gamma", ScenarioConfig(runs=2, seed=3))
    table = run_sweep(spec, [MechanismKind.MAX, MechanismKind.RANDOM])

    csv_path = tmp_path / "out.csv"
    emit(table, "csv", str(csv_path))
    text = csv_path.read_text()
    assert text.splitlines()[0] == (
        "axis_value,mechanism,r1_mean,r1_std,r2_mean,r2_std,"
        "worker_utility_mean,worker_utility_std,"
        "server_utility_mean,server_utility_std,runs"
    )
    assert load_table(str(csv_path), "csv").rows == table.rows

    json_path = tmp_path / "out.json"
    emit(table, "json", str(json_path))
    assert load_table(str(json_path), "json").rows == table.rows


def test_empty_table_emits_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit(SweepTable(rows=()), "csv", str(path))
    assert path.read_text().splitlines() == [
        "axis_value,mechanism,r1_mean,r1_std,r2_mean,r2_std,"
        "worker_utility_mean,worker_utility_std,"
        "server_utility_mean,server_utility_std,runs"
    ]


def test_single_row_table_has_two_lines():
    spec = SweepSpec("gamma", (2,), ScenarioConfig(runs=1, seed=1))
    table = run_sweep(spec, [MechanismKind.MAX])
    assert len(table_to_csv(table).splitlines()) == 2


def test_sweep_reruns_byte_identical():
    spec = SweepSpec.for_axis("delta", ScenarioConfig(runs=3, seed=21))
    first = run_sweep(spec, list(MechanismKind))
    second = run_sweep(spec, list(MechanismKind))
    assert table_to_csv(first) == table_to_csv(second)
    assert table_to_json(first) == table_to_json(second)


def test_default_sweep_reproduces_golden_csv():
    # the default 3-axis, all-mechanism sweep, one CSV with the axis prepended;
    # a change that alters the sweep regenerates the file and logs the diff
    lines = []
    for axis in harness.SWEEP_AXES:
        table = run_sweep(SweepSpec.for_axis(axis, ScenarioConfig()), list(MechanismKind))
        assert not table.failures
        header, *rows = table_to_csv(table).splitlines()
        lines += [f"{axis},{row}" for row in rows]
    text = "\n".join([f"axis,{header}", *lines]) + "\n"
    assert text == GOLDEN_SWEEP.read_text(encoding="utf-8")


def test_sweep_baseline_dominance_in_every_cell():
    spec = SweepSpec.for_axis("gamma", ScenarioConfig(runs=3, seed=33))
    table = run_sweep(spec, list(MechanismKind))
    by_cell = {}
    for row in table.rows:
        by_cell.setdefault(row.axis_value, {})[row.mechanism] = row
    for rows in by_cell.values():
        assert rows["ifedcrowd"].server_utility_mean >= rows["max"].server_utility_mean
        assert (
            rows["ifedcrowd"].server_utility_mean
            >= rows["random"].server_utility_mean
        )


# --------------------------------------------------------------- simulation

def test_run_simulation_reports_and_fixed_rates():
    config = ScenarioConfig(seed=9, n=6, runs=1)
    reports = list(run_simulation(replace(config, rounds=3)))
    assert [r.round_index for r in reports] == [0, 1, 2]
    assert len({(r.rates.r1, r.rates.r2) for r in reports}) == 1
    again = list(run_simulation(replace(config, rounds=3)))
    assert reports == again


# ---------------------------------------------------------------------- CLI

def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "ifedcrowd.cli", *args],
        capture_output=True,
        text=True,
    )


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text("n = 6\nruns = 2\nseed = 5\n")
    return path


def test_cli_equilibrium_outputs_json(config_file):
    proc = run_cli("equilibrium", "--config", str(config_file))
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["rates"]["r1"] > 0
    assert len(payload["strategies"]) == 6
    assert len(payload["client_utilities"]) == 6


def test_cli_equilibrium_solves_without_verifying(config_file, tmp_path, monkeypatch):
    # the command prints the solver's result; the client and server checks
    # of `verify` are not part of it
    from ifedcrowd import cli, equilibrium

    def forbidden(*args, **kwargs):
        raise AssertionError("equilibrium must not run the verification")

    monkeypatch.setattr(equilibrium, "verify_client_equilibrium", forbidden)
    for module in (equilibrium, harness):
        monkeypatch.setattr(module, "_deviation_bounds", forbidden)
        monkeypatch.setattr(module, "verify_server_equilibrium", forbidden)
    out = tmp_path / "eq.json"
    assert cli.main(["equilibrium", "--config", str(config_file), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    config = harness.load_config(str(config_file))
    population = sample_population(config, 0)
    box = feasible_rate_box(population, config.r2_cap)
    expected = equilibrium.compute_equilibrium(population, config.system_params, box)
    assert payload["rates"] == {"r1": expected.rates.r1, "r2": expected.rates.r2}
    assert payload["server_utility"] == expected.server_utility
    assert payload["r1_source"] == expected.r1_source
    assert payload["r2_source"] == expected.r2_source
    assert "foc_residuals" not in payload


def test_cli_equilibrium_json_lists_every_client_in_field_order(config_file, tmp_path):
    # the command writes the solver's arrays directly; the JSON must read as
    # the result's fields and per-client views would, key order included
    from ifedcrowd import cli

    out = tmp_path / "eq.json"
    assert cli.main(["equilibrium", "--config", str(config_file), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    config = harness.load_config(str(config_file))
    population = sample_population(config, 0)
    box = feasible_rate_box(population, config.r2_cap)
    expected = compute_equilibrium(population, config.system_params, box)
    assert list(payload) == [
        "rates", "strategies", "server_utility", "client_utilities", "r1_source", "r2_source"
    ]
    assert payload["rates"] == asdict(expected.rates)
    assert payload["strategies"] == [asdict(s) for s in expected.strategies]
    for strategy in payload["strategies"]:
        assert list(strategy) == ["accuracy", "freshness", "completion_time"]
    assert payload["client_utilities"] == list(expected.client_utilities)


def test_cli_sweep_writes_table(config_file, tmp_path):
    out = tmp_path / "sweep.csv"
    proc = run_cli(
        "sweep",
        "--axis",
        "gamma",
        "--mechanism",
        "all",
        "--config",
        str(config_file),
        "--out",
        str(out),
    )
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 6 * 3  # header + 6 cells x 3 mechanisms


def test_cli_sweep_exits_1_when_a_cell_fails_and_still_writes_the_table(tmp_path, capsys):
    # at r2_cap = 5 the cell delta = 5 (delta ~ U(5, 6)) has an empty r2
    # interval in both runs; the cells delta = 0..4 are solved and written
    from ifedcrowd import cli

    cfg = tmp_path / "cap.cfg"
    cfg.write_text("r2_cap = 5\nruns = 2\n")
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--axis", "delta", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2
    for run, line in enumerate(err):
        assert line.startswith(f"cell failure: delta=5: run {run}: r2_cap=5.0 must exceed")
    rows = load_table(str(out), "csv").rows
    assert [(row.axis_value, row.mechanism) for row in rows] == [
        (float(v), kind.token) for v in range(5) for kind in MechanismKind
    ]
    assert all(row.runs == 2 for row in rows)


def test_cli_sweep_choices_come_from_their_sources():
    from ifedcrowd import cli

    sub = next(
        a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    options = {a.dest: a for a in sub.choices["sweep"]._actions}
    assert list(options["axis"].choices) == list(harness.SWEEP_AXES) == [
        "gamma",
        "delta",
        "workers",
    ]
    mechanisms = [kind.token for kind in MechanismKind] + ["all"]
    assert list(options["mechanism"].choices) == mechanisms == [
        "ifedcrowd",
        "random",
        "max",
        "all",
    ]
    assert options["mechanism"].default == "all"


def test_cli_simulate_streams_round_reports(config_file, tmp_path):
    out = tmp_path / "rounds.jsonl"
    proc = run_cli(
        "simulate", "--config", str(config_file), "--rounds", "2", "--out", str(out)
    )
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[1])["round_index"] == 1


def test_cli_simulate_runs_the_configs_rounds_by_default(tmp_path):
    cfg = tmp_path / "two_rounds.cfg"
    cfg.write_text("n = 6\nseed = 5\nrounds = 2\n")
    out = tmp_path / "rounds.jsonl"
    proc = run_cli("simulate", "--config", str(cfg), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert [json.loads(line)["round_index"] for line in lines] == [0, 1]


def test_cli_simulate_rejects_zero_rounds(config_file, tmp_path):
    out = tmp_path / "rounds.jsonl"
    proc = run_cli(
        "simulate", "--config", str(config_file), "--rounds", "0", "--out", str(out)
    )
    assert proc.returncode == 2
    assert proc.stderr == "error: rounds must be at least 1, got 0\n"
    assert not out.exists()


def test_cli_simulate_zero_freshness_target_stays_finite(tmp_path):
    # beta = 1 puts r2 on the box floor max delta, where that client's
    # freshness target is 0; routine samples used to reach 1e-9 before
    # upload, and exp(delta F) overflowed with a raw traceback
    cfg = tmp_path / "beta1.cfg"
    cfg.write_text("beta = 1\nseed = 5\n")
    out = tmp_path / "rounds.jsonl"
    proc = run_cli("simulate", "--config", str(cfg), "--rounds", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert min(c["target"]["freshness"] for c in report["clients"]) == 0.0
    assert max(c["achieved"]["freshness"] for c in report["clients"]) <= 10.0


def test_cli_simulate_reports_collection_cost_overflow(tmp_path):
    # delta near 155 makes exp(delta F) overflow once the achieved freshness
    # exceeds about 4.6; that is a typed error, not a traceback
    cfg = tmp_path / "large_delta.cfg"
    cfg.write_text("delta_lo = 150\ndelta_hi = 160\nr2_cap = 1000\nseed = 1\n")
    out = tmp_path / "rounds.jsonl"
    proc = run_cli("simulate", "--config", str(cfg), "--rounds", "1", "--out", str(out))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: collection cost exp(delta * F) overflows at delta=")
    assert proc.stderr.count("\n") == 1


def test_cli_verify_exit_code(config_file):
    proc = run_cli("verify", "--config", str(config_file))
    assert proc.returncode == 0, proc.stderr
    assert "pass" in proc.stdout


def test_cli_rejects_unknown_config_key(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("n = 6\nworkers = 3\n")
    proc = run_cli("equilibrium", "--config", str(bad))
    assert proc.returncode == 2
    assert "workers" in proc.stderr


@pytest.mark.parametrize(
    "line, message",
    [
        ("seed = -1", "seed must be at least 0"),
        ("r2_cap = inf", "r2_cap must be finite"),
        ("alpha = inf", "alpha must be finite"),
        ("gamma_lo = 1\ngamma_hi = inf", "gamma_hi must be finite"),
    ],
    ids=["seed", "r2_cap", "alpha", "gamma_hi"],
)
def test_cli_rejects_invalid_scenario_value(tmp_path, line, message):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"n = 6\n{line}\n")
    proc = run_cli("verify", "--config", str(bad))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"error: {message}, got ")
    assert proc.stderr.count("\n") == 1  # no traceback, no RuntimeWarning
    assert proc.stdout == ""


def test_cli_unwritable_output_path(config_file, tmp_path):
    missing_dir = tmp_path / "nope" / "table.csv"
    proc = run_cli(
        "sweep",
        "--axis",
        "gamma",
        "--mechanism",
        "max",
        "--config",
        str(config_file),
        "--out",
        str(missing_dir),
    )
    assert proc.returncode == 2
    assert "error" in proc.stderr.lower()


def test_sweep_records_cell_failures_and_continues():
    # delta interval above the r2 cap makes the rate box infeasible for every
    # run of that cell; the sweep records the failures and keeps going
    base = ScenarioConfig(runs=2, seed=2, delta=(1.0, 2.0), r2_cap=5.0)
    spec = SweepSpec("delta", (1, 6), base)
    table = run_sweep(spec, [MechanismKind.MAX])
    assert len(table.failures) == 2
    assert all(f.startswith("delta=6") for f in table.failures)
    cells = {row.axis_value for row in table.rows}
    assert cells == {1.0}


def test_cell_with_tiny_gamma_survives_accuracy_overflow():
    # gamma near 0 drives r1/(gamma t_min) past exp's range inside a valid box
    config = ScenarioConfig(gamma=(1e-4, 5.0), n=30, seed=3, runs=50)
    outcomes, failures = evaluate_cell(config, list(MechanismKind))
    assert failures == []
    assert len(outcomes) == 150


def test_a_run_with_an_empty_box_fails_alone():
    # n = 2 with delta in [4, 6] and r2_cap = 5: runs 1, 2, 4 and 6 draw a
    # largest delta past the cap, so their r2 intervals are empty
    config = ScenarioConfig(n=2, delta=(4.0, 6.0), r2_cap=5.0, runs=8, seed=3)
    outcomes, failures = evaluate_cell(config, list(MechanismKind))
    assert failures == [
        f"run {run}: r2_cap=5.0 must exceed the largest delta {delta}: empty r2 interval"
        for run, delta in (
            (1, 5.4639038947530985),
            (2, 5.5603250394836286),
            (4, 5.9206958371916265),
            (6, 5.587786870710911),
        )
    ]
    assert [(o.run_index, o.mechanism) for o in outcomes] == [
        (run, mech) for run in (0, 3, 5, 7) for mech in MechanismKind
    ]


def test_a_run_whose_solve_fails_fails_alone(monkeypatch):
    # a subnormal gamma*t makes run 4's r1 slope overflow; that run fails with
    # the error of its own solve, after the mechanism played before it, and
    # every other run keeps the outcomes of the cell without it
    config = ScenarioConfig()
    mechanisms = [MechanismKind.RANDOM, MechanismKind.IFEDCROWD, MechanismKind.MAX]
    clean, _ = evaluate_cell(config, mechanisms)
    sample = harness.sample_population

    def tiny_gamma_in_run_4(config, run):
        pop = sample(config, run)
        if run != 4:
            return pop
        gamma = pop.gamma.copy()
        gamma[0] = 1e-310
        return Population(pop.ids, gamma, pop.delta, pop.t_min)

    pop = tiny_gamma_in_run_4(config, 4)
    with pytest.raises(NumericError, match="derivative not finite") as alone:
        compute_equilibrium(pop, config.system_params, feasible_rate_box(pop, config.r2_cap))
    monkeypatch.setattr(harness, "sample_population", tiny_gamma_in_run_4)
    outcomes, failures = evaluate_cell(config, mechanisms)
    assert failures == [f"run 4: {alone.value}"]
    assert [(o.run_index, o.mechanism) for o in outcomes if o.run_index == 4] == [
        (4, MechanismKind.RANDOM)
    ]
    assert [o for o in outcomes if o.run_index != 4] == [o for o in clean if o.run_index != 4]


def test_a_cell_solves_its_runs_in_one_pass(monkeypatch):
    # the default workers=10 cell: its ten solves one by one make 10 r1 slope
    # calls, 20 r1 value calls and 12 refine passes, the costliest run 1, 2
    # and 2; solved together, the cell makes no more calls than that run
    from ifedcrowd import equilibrium

    config = SweepSpec.for_axis("workers", ScenarioConfig()).cell_config(10)
    calls = {"slope": 0, "value": 0, "pass": 0}

    def counted(name, helper):
        def wrapper(*args):
            calls[name] += 1
            return helper(*args)

        return wrapper

    newton = equilibrium._r1_newton
    monkeypatch.setattr(equilibrium, "_r1_slope", counted("slope", equilibrium._r1_slope))
    monkeypatch.setattr(equilibrium, "_r1_value", counted("value", equilibrium._r1_value))
    monkeypatch.setattr(equilibrium, "_r1_newton", lambda *args: counted("pass", newton(*args)))
    per_run = []
    for run in range(config.runs):
        pop = sample_population(config, run)
        compute_equilibrium(pop, config.system_params, feasible_rate_box(pop, config.r2_cap))
        per_run.append((calls["slope"], calls["value"], calls["pass"]))
        calls.update({name: 0 for name in calls})
    assert tuple(map(sum, zip(*per_run))) == (10, 20, 12)
    assert max(per_run) == (1, 2, 2)
    outcomes, failures = evaluate_cell(config, list(MechanismKind))
    assert len(outcomes) == 30 and not failures
    assert calls["slope"] <= 1 and calls["value"] <= 2 and calls["pass"] <= 2


def test_pinned_fuzz_config_verifies():
    # a fuzz config that once failed the 1e-9 contract: alpha ~ 6e6, gamma
    # ~ 1e-12 and t_min ~ 1e-4, so the r1 box sits near 1e-13
    config = ScenarioConfig(
        n=3,
        alpha=6172564.30773397,
        beta=134.000065039774,
        gamma=(1.6285538380743923e-12, 8.748586912244195e-11),
        delta=(6.736945767318462, 8.267449019119113),
        tmin=(3.1502369769572876e-05, 0.00010024722204509243),
        r2_cap=97477.44489754959,
        seed=173,
    )
    summary = harness.verify_scenario(config)
    assert summary.ok
    assert summary.server_report.worst_violation <= VERIFY_TOL


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda e: 10.0**e)


def log_interval(lo, hi):
    return st.tuples(log_uniform(lo, hi), log_uniform(lo, hi)).map(sorted).map(tuple)


@st.composite
def fuzz_configs(draw):
    delta = draw(log_interval(1e-3, 1e2))
    # r2_cap above every delta the population can draw, or at most the least one
    if draw(st.booleans()):
        r2_cap = delta[1] * draw(log_uniform(1.001, 1e3))
    else:
        r2_cap = delta[0] * draw(log_uniform(1e-2, 1.0))
    return ScenarioConfig(
        n=draw(st.integers(1, 40)),
        alpha=draw(log_uniform(1e-2, 1e4)),
        beta=draw(log_uniform(1e-2, 1e4)),
        gamma=draw(log_interval(1e-3, 1e2)),
        delta=delta,
        tmin=draw(log_interval(1e-3, 1e2)),
        r2_cap=r2_cap,
        mechanism=draw(st.sampled_from(MechanismKind)),
        seed=draw(st.integers(0, 1000)),
    )


@settings(max_examples=50)
@given(config=fuzz_configs())
def test_every_command_succeeds_or_raises_a_typed_error(config):
    # RuntimeWarnings fail the tests, so none may fire either
    population = sample_population(config, 0)
    commands = (
        lambda: compute_equilibrium(
            population, config.system_params, feasible_rate_box(population, config.r2_cap)
        ),
        lambda: verify_scenario(config),
        lambda: next(run_simulation(config)),
    )
    for command in commands:
        try:
            command()
        except IFedCrowdError:
            pass


def test_verify_scenario_with_large_delta_emits_no_overflow():
    # exp(delta f) overflows on the freshness grid once delta exceeds ~142;
    # RuntimeWarnings fail the tests, so this also checks that none is raised
    summary = harness.verify_scenario(ScenarioConfig(delta=(150.0, 160.0), r2_cap=1000.0))
    assert summary.ok


def test_verify_scenario_with_huge_delta_emits_no_overflow():
    # delta^2, the freshness part's curvature bound, overflows above ~1.3e154
    summary = harness.verify_scenario(ScenarioConfig(delta=(1e160, 1e160), r2_cap=1e161))
    assert summary.ok and np.all(np.isfinite(summary.client_violations))


def test_verify_scenario_at_n_2000_takes_few_page_faults():
    # every r1 value or slope call writes its blocks into one scratch
    # allocation, which the allocator hands out whole to the next call;
    # block temporaries of their own came back as fresh zeroed pages.  The
    # first two calls grow the heap once.
    config = ScenarioConfig(n=2000)
    for _ in range(2):
        harness.verify_scenario(config)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        harness.verify_scenario(config)
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before <= 500


def test_sweep_propagates_programming_errors(monkeypatch):
    # only package errors count as cell failures; a bug must surface
    def broken(*args, **kwargs):
        raise TypeError("broken policy")

    monkeypatch.setattr(mechanisms, "population_utilities", broken)
    spec = SweepSpec("delta", (1,), ScenarioConfig(runs=1))
    with pytest.raises(TypeError, match="broken policy"):
        run_sweep(spec, [MechanismKind.MAX])
