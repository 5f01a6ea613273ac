"""Experiment harness: scenario config, seeded sampling, sweeps, file output.

Populations are sampled from a stream keyed by (seed, run_index) only, so a
cell that changes a distribution bound reuses the same underlying uniforms:
sweeping the gamma interval shifts every sampled gamma by exactly the
interval shift (common random numbers), and growing the worker count extends
the population without resampling earlier workers.  All mechanisms within a
cell-run share the sampled population, making baseline comparisons paired.
"""

from __future__ import annotations

import csv
import io
import json
import math
import operator
from dataclasses import asdict, astuple, dataclass, fields, replace
from functools import cached_property
from typing import get_type_hints

import numpy as np

from .equilibrium import (
    VERIFY_TOL,
    ClientEquilibriumReport,
    EquilibriumResult,
    ServerEquilibriumReport,
    _client_reports,
    _deviation_bounds,
    compute_equilibrium,
    verify_server_equilibrium,
)
from .errors import ConfigError, IFedCrowdError
from .fedsim import RoundConfig, init_state, run_round
from .game_core import (
    DEFAULT_R2_CAP,
    Population,
    SystemParams,
    _population_arrays,
    feasible_rate_box,
)
from .mechanisms import MechanismKind, _play, select_rates

_POP_TAG = 11
_RATE_TAG = 13
_PARAM_FLOOR = 1e-9  # open-interval draws: parameters must stay strictly positive

SWEEP_AXES = ("gamma", "delta", "workers")


@dataclass(frozen=True)
class ScenarioConfig:
    """One experiment scenario; field names double as the config-file keys."""

    n: int = 10
    alpha: float = 80.0
    beta: float = 50.0
    comm_size: float = 0.1
    gamma: tuple[float, float] = (1.0, 5.0)
    delta: tuple[float, float] = (1.0, 2.0)
    tmin: tuple[float, float] = (1.0, 3.0)
    r2_cap: float = DEFAULT_R2_CAP
    mechanism: MechanismKind = MechanismKind.IFEDCROWD
    runs: int = 10
    seed: int = 1
    rounds: int = 1

    def __post_init__(self):
        for key, floor in (("n", 1), ("runs", 1), ("rounds", 1), ("seed", 0)):
            value = getattr(self, key)
            try:
                value = operator.index(value)
            except TypeError:
                raise ConfigError(f"{key} must be an integer, got {value!r}") from None
            if value < floor:
                raise ConfigError(f"{key} must be at least {floor}, got {value}")
            object.__setattr__(self, key, value)  # numpy integers become int
        for key in ("alpha", "beta", "comm_size", "r2_cap"):
            value = getattr(self, key)
            if not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")
            if not value > 0 and key != "comm_size":
                raise ConfigError(f"{key} must be positive, got {value}")
        if self.comm_size < 0:
            raise ConfigError(f"comm_size must be non-negative, got {self.comm_size}")
        for name in ("gamma", "delta", "tmin"):
            lo, hi = getattr(self, name)
            for end, value in (("lo", lo), ("hi", hi)):
                if not math.isfinite(value):
                    raise ConfigError(f"{name}_{end} must be finite, got {value}")
            if not (lo <= hi):
                raise ConfigError(f"{name} bounds must satisfy lo <= hi, got ({lo}, {hi})")
            if lo < 0:
                raise ConfigError(f"{name} lower bound must be non-negative, got {lo}")

    @property
    def system_params(self) -> SystemParams:
        return SystemParams(
            alpha=self.alpha, beta=self.beta, comm_size=self.comm_size, n=self.n
        )


_HINTS = get_type_hints(ScenarioConfig)
_PAIRS = tuple(name for name, hint in _HINTS.items() if hint == tuple[float, float])
# every config-file key and the type of its value; a pair field gives two keys
_KEYS = {
    key: float if name in _PAIRS else hint
    for name, hint in _HINTS.items()
    for key in ((f"{name}_lo", f"{name}_hi") if name in _PAIRS else (name,))
}


def parse_config(text: str) -> ScenarioConfig:
    """Parse flat ``key = value`` scenario text; unknown keys fail fast."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        kind = _KEYS.get(key)
        if kind is int:
            try:
                values[key] = int(val)
            except ValueError:
                raise ConfigError(f"line {lineno}: {key} expects an integer, got {val!r}")
        elif kind is float:
            try:
                values[key] = float(val)
            except ValueError:
                raise ConfigError(f"line {lineno}: {key} expects a number, got {val!r}")
        elif kind is MechanismKind:
            values[key] = MechanismKind.from_token(val)
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")

    kwargs: dict[str, object] = {}
    for name in _PAIRS:
        lo_key, hi_key = f"{name}_lo", f"{name}_hi"
        if (lo_key in values) != (hi_key in values):
            raise ConfigError(f"{lo_key} and {hi_key} must be given together")
        if lo_key in values:
            kwargs[name] = (values.pop(lo_key), values.pop(hi_key))
    kwargs.update(values)
    return ScenarioConfig(**kwargs)  # type: ignore[arg-type]


def load_config(path: str) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())


def sample_population(config: ScenarioConfig, run_index: int) -> Population:
    """Draw n client profiles from the configured uniforms, as a `Population`.

    The underlying standard uniforms depend only on (seed, run_index) and the
    worker index, never on the distribution bounds or on n, which is what
    makes shifted-interval and grown-population comparisons paired.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence((config.seed, run_index, _POP_TAG))
    )
    # one (n, 3) draw is the same stream as n successive draws of 3
    lo = np.array([config.gamma[0], config.delta[0], config.tmin[0]])
    hi = np.array([config.gamma[1], config.delta[1], config.tmin[1]])
    values = np.maximum(lo + (hi - lo) * rng.random((config.n, 3)), _PARAM_FLOOR)
    return Population(np.arange(config.n), *values.T)


def rate_seed(config: ScenarioConfig, run_index: int) -> int:
    """Deterministic seed for the Random mechanism's per-run rate draw."""
    return int(
        np.random.SeedSequence((config.seed, run_index, _RATE_TAG)).generate_state(1)[0]
    )


@dataclass(frozen=True)
class SweepSpec:
    """A swept axis (which parameter varies, over which values) plus the base scenario."""

    axis: str
    values: tuple[float, ...]
    base: ScenarioConfig

    def __post_init__(self):
        if self.axis not in SWEEP_AXES:
            raise ConfigError(f"unknown sweep axis {self.axis!r}; expected {SWEEP_AXES}")
        if not self.values:
            raise ConfigError("sweep needs at least one axis value")
        if self.axis == "workers" and not all(float(v).is_integer() for v in self.values):
            raise ConfigError(f"workers values must be whole numbers, got {self.values}")

    @classmethod
    def for_axis(cls, axis: str, base: ScenarioConfig) -> "SweepSpec":
        """Default sweep for an axis, with the companion distributions it assumes."""
        if axis == "gamma":
            return cls(axis, tuple(range(1, 7)), replace(base, delta=(1.0, 2.0)))
        if axis == "delta":
            return cls(axis, tuple(range(0, 6)), replace(base, gamma=(1.0, 5.0)))
        if axis == "workers":
            return cls(
                axis,
                (5, 10, 15, 20, 25, 30),
                replace(base, gamma=(3.0, 5.0), delta=(2.0, 4.0)),
            )
        raise ConfigError(f"unknown sweep axis {axis!r}; expected {SWEEP_AXES}")

    def cell_config(self, value: float) -> ScenarioConfig:
        if self.axis == "gamma":
            return replace(self.base, gamma=(float(value), float(value) + 4.0))
        if self.axis == "delta":
            return replace(self.base, delta=(float(value), float(value) + 1.0))
        return replace(self.base, n=int(value))


@dataclass(frozen=True)
class CellRun:
    """Outcome of one mechanism on one sampled population."""

    run_index: int
    mechanism: MechanismKind
    r1: float
    r2: float
    worker_utility: float
    server_utility: float


def evaluate_cell(
    config: ScenarioConfig, mechanisms: list[MechanismKind]
) -> tuple[list[CellRun], list[str]]:
    """Run every (run, mechanism) pair of one sweep cell on shared populations.

    Every run is sampled first, and then each mechanism is played on all of
    them at once (`mechanisms._play`).  The outcomes and failures are those
    of a loop over the runs: a run stops at its first error, recorded as
    ``run {k}: {message}``, and keeps the outcomes of the mechanisms before
    the one that failed.
    """
    params = config.system_params
    slot: dict[int, int] = {}  # each sampled run's row in the stack
    columns, boxes, seeds = [], [], []
    errors: dict[int, IFedCrowdError] = {}
    for run in range(config.runs):
        try:
            population = sample_population(config, run)
            boxes.append(feasible_rate_box(population, config.r2_cap))
        except IFedCrowdError as exc:
            errors[run] = exc
            continue
        slot[run] = len(columns)
        columns.append(_population_arrays(population))
        seeds.append(rate_seed(config, run))
    played = {}
    if slot:
        stack = tuple(map(np.stack, zip(*columns)))
        played = {mech: _play(mech, *stack, params, boxes, seeds) for mech in mechanisms}
    # each mechanism's mean worker utility of every population it played, in one mean
    means = {}
    for mech, results in played.items():
        ok = [i for i, result in enumerate(results) if not isinstance(result, IFedCrowdError)]
        rows = np.mean([results[i][1] for i in ok], axis=1).tolist() if ok else []
        means[mech] = dict(zip(ok, rows))
    outcomes: list[CellRun] = []
    failures: list[str] = []
    for run in range(config.runs):
        for mech in mechanisms if run in slot else ():
            result = played[mech][slot[run]]
            if isinstance(result, IFedCrowdError):
                errors[run] = result
                break
            rates, _, server = result
            outcomes.append(
                CellRun(
                    run_index=run,
                    mechanism=mech,
                    r1=rates.r1,
                    r2=rates.r2,
                    worker_utility=means[mech][slot[run]],
                    server_utility=server,
                )
            )
        if run in errors:
            failures.append(f"run {run}: {errors[run]}")
    return outcomes, failures


def _sig9(x: float) -> float:
    """Round to the 9 significant digits used by the output files."""
    return float(format(float(x), ".9g"))


@dataclass(frozen=True)
class SweepRow:
    """One emitted line: per-cell per-mechanism means and standard deviations."""

    axis_value: float
    mechanism: str
    r1_mean: float
    r1_std: float
    r2_mean: float
    r2_std: float
    worker_utility_mean: float
    worker_utility_std: float
    server_utility_mean: float
    server_utility_std: float
    runs: int


@dataclass(frozen=True)
class SweepTable:
    rows: tuple[SweepRow, ...]
    failures: tuple[str, ...] = ()


_STAT_COLUMNS = ("r1", "r2", "worker_utility", "server_utility")  # in SweepRow's order


def _aggregate_rows(
    axis_value: float, outcomes: list[CellRun], mechanisms: list[MechanismKind]
) -> list[SweepRow]:
    rows = []
    for mech in mechanisms:
        runs = [o for o in outcomes if o.mechanism is mech]
        if not runs:
            continue
        # one row per column, so each row is reduced as one contiguous run
        columns = np.array([[getattr(o, name) for o in runs] for name in _STAT_COLUMNS])
        mean = columns.mean(axis=1).tolist()
        std = columns.std(axis=1, ddof=1).tolist() if len(runs) > 1 else [0.0] * 4
        stats = [_sig9(x) for pair in zip(mean, std) for x in pair]
        rows.append(SweepRow(_sig9(axis_value), mech.token, *stats, runs=len(runs)))
    return rows


def run_sweep(
    spec: SweepSpec, mechanisms: list[MechanismKind] | None = None
) -> SweepTable:
    """Evaluate the whole sweep; cell failures are recorded, never fatal."""
    if mechanisms is None:
        mechanisms = [spec.base.mechanism]
    rows: list[SweepRow] = []
    failures: list[str] = []
    for value in spec.values:
        config = spec.cell_config(value)
        outcomes, cell_failures = evaluate_cell(config, mechanisms)
        rows.extend(_aggregate_rows(value, outcomes, mechanisms))
        failures.extend(f"{spec.axis}={value}: {msg}" for msg in cell_failures)
    return SweepTable(rows=tuple(rows), failures=tuple(failures))


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


def table_to_csv(table: SweepTable) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(f.name for f in fields(SweepRow))
    for row in table.rows:
        writer.writerow(_fmt(v) if isinstance(v, float) else v for v in astuple(row))
    return buf.getvalue()


def table_to_json(table: SweepTable) -> str:
    return json.dumps({"rows": [asdict(row) for row in table.rows]}, indent=2) + "\n"


def emit(table: SweepTable, fmt: str, path: str) -> None:
    """Write the sweep table as CSV or JSON; unwritable paths raise OSError."""
    if fmt == "csv":
        payload = table_to_csv(table)
    elif fmt == "json":
        payload = table_to_json(table)
    else:
        raise ConfigError(f"unknown format {fmt!r}; expected csv or json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(payload)


def _row_from_dict(d: dict) -> SweepRow:
    return SweepRow(**{key: kind(d[key]) for key, kind in get_type_hints(SweepRow).items()})


def load_table(path: str, fmt: str) -> SweepTable:
    """Parse a previously emitted table back into memory."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if fmt == "csv":
        reader = csv.DictReader(io.StringIO(text))
        return SweepTable(rows=tuple(_row_from_dict(d) for d in reader))
    if fmt == "json":
        data = json.loads(text)
        return SweepTable(rows=tuple(_row_from_dict(d) for d in data["rows"]))
    raise ConfigError(f"unknown format {fmt!r}; expected csv or json")


def run_simulation(config: ScenarioConfig):
    """Yield one RoundReport for each of the scenario's ``rounds`` rounds.

    The population and the reward rates are fixed for the whole run (Random
    draws its rates once per run, not per round); client models and datasets
    persist across rounds.
    """
    round_config = RoundConfig()
    population = sample_population(config, run_index=0)
    params = config.system_params
    box = feasible_rate_box(population, config.r2_cap)
    rates = select_rates(
        config.mechanism, population, params, box, rng_seed=rate_seed(config, 0)
    )
    state = init_state(population, round_config, run_seed=config.seed)
    for index in range(config.rounds):
        yield run_round(
            population, params, rates, round_config, state, config.seed, index
        )


@dataclass(frozen=True, eq=False)
class VerificationSummary:
    """Joint NE verification outcome for one scenario's run-0 population.

    The client checks are kept as the verifier's arrays: client k's
    certified bound on what any deviation gains, ``client_violations[k]``,
    and the strategy reaching that bound, row k of
    ``client_worst_strategies``.  `client_reports` gives them as report
    objects, built when first read.
    """

    equilibrium: EquilibriumResult
    client_violations: np.ndarray
    client_worst_strategies: np.ndarray
    server_report: ServerEquilibriumReport
    ok: bool

    @property
    def clients_passed(self) -> bool:
        return bool(np.all(self.client_violations <= VERIFY_TOL))

    @cached_property
    def client_reports(self) -> tuple[ClientEquilibriumReport, ...]:
        return _client_reports(self.client_violations, self.client_worst_strategies)


def verify_scenario(config: ScenarioConfig) -> VerificationSummary:
    """Solve the scenario's equilibrium and certify it client- and server-side."""
    population = sample_population(config, run_index=0)
    params = config.system_params
    box = feasible_rate_box(population, config.r2_cap)
    result = compute_equilibrium(population, params, box)
    # every client is audited at its best response, so its violation is the bound alone
    violations, worst = _deviation_bounds(*_population_arrays(population), result.rates)
    server_report = verify_server_equilibrium(population, params, result.rates, box)
    ok = server_report.passed and bool(np.all(violations <= VERIFY_TOL))
    return VerificationSummary(result, violations, worst, server_report, ok)
