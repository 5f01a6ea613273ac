"""Tracing from outside the package: wrappers around public functions record spans.

A span is (name id, start ns, end ns, parent index, op id).  Spans stay in a
list in memory and are written out when the run ends.  A span's self time is
its duration minus the durations of its direct children, so the self times
of all spans add up to the durations of the root spans by definition.  The
runner times the untraced remainder on its own and checks that root spans
plus remainder come to the traced wall time.  Counts are taken in the same
wrappers, at the same boundaries.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

# Per-layer metrics: (name, unit, better).  Time metrics are self seconds per
# pass, counts are per pass.  BENCHMARK.json lists the same names.
PER_LAYER = (
    ("setup.import_s", "s", "lower"),
    ("harness.run_sweep_self_s", "s", "lower"),
    ("harness.evaluate_cell_self_s", "s", "lower"),
    ("harness.sample_population_s", "s", "lower"),
    ("harness.sample_population_calls", "count", "lower"),
    ("harness.verify_scenario_self_s", "s", "lower"),
    ("harness.output_s", "s", "lower"),
    ("harness.output_bytes", "bytes", "lower"),
    ("mechanisms.select_rates_ifedcrowd_s", "s", "lower"),
    ("mechanisms.select_rates_random_s", "s", "lower"),
    ("mechanisms.select_rates_max_s", "s", "lower"),
    ("equilibrium.foc_solve_s", "s", "lower"),
    ("equilibrium.foc_solves", "count", "lower"),
    ("equilibrium.deriv_evals", "count", "lower"),
    ("equilibrium.deriv_evals_per_solve", "count", "lower"),
    ("equilibrium.certify_self_s", "s", "lower"),
    ("equilibrium.compute_calls", "count", "lower"),
    ("equilibrium.verify_client_s", "s", "lower"),
    ("equilibrium.verify_client_calls", "count", "lower"),
    ("equilibrium.verify_server_s", "s", "lower"),
    ("equilibrium.verify_server_calls", "count", "lower"),
    ("game_core.best_response_s", "s", "lower"),
    ("game_core.best_response_calls", "count", "lower"),
    ("game_core.feasible_rate_box_s", "s", "lower"),
    ("fedsim.run_round_self_s", "s", "lower"),
    ("fedsim.init_state_s", "s", "lower"),
    ("fedsim.local_train_s", "s", "lower"),
    ("fedsim.local_train_iterations", "count", "lower"),
    ("fedsim.train_row_iters", "count", "lower"),
    ("fedsim.merge_s", "s", "lower"),
    ("fedsim.collect_data_s", "s", "lower"),
    ("fedsim.aggregate_s", "s", "lower"),
    ("fedsim.client_rounds", "count", "lower"),
    ("fedsim.target_met_ratio", "ratio", "higher"),
    ("bench.op_self_s", "s", "lower"),
    ("bench.check_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
)

# Span name -> the per-layer time metric its self time adds to.
SELF_TIME_METRIC = {
    "bench.op": "bench.op_self_s",
    "bench.check": "bench.check_s",
    "harness.run_sweep": "harness.run_sweep_self_s",
    "harness.evaluate_cell": "harness.evaluate_cell_self_s",
    "harness.sample_population": "harness.sample_population_s",
    "harness.verify_scenario": "harness.verify_scenario_self_s",
    "harness.output": "harness.output_s",
    "mechanisms.select_rates.ifedcrowd": "mechanisms.select_rates_ifedcrowd_s",
    "mechanisms.select_rates.random": "mechanisms.select_rates_random_s",
    "mechanisms.select_rates.max": "mechanisms.select_rates_max_s",
    "equilibrium.compute_equilibrium": "equilibrium.certify_self_s",
    "equilibrium.solve_r1": "equilibrium.foc_solve_s",
    "equilibrium.solve_r2": "equilibrium.foc_solve_s",
    "equilibrium.verify_client": "equilibrium.verify_client_s",
    "equilibrium.verify_server": "equilibrium.verify_server_s",
    "game_core.best_response": "game_core.best_response_s",
    "game_core.feasible_rate_box": "game_core.feasible_rate_box_s",
    "fedsim.run_round": "fedsim.run_round_self_s",
    "fedsim.init_state": "fedsim.init_state_s",
    "fedsim.local_train": "fedsim.local_train_s",
    "fedsim.merge": "fedsim.merge_s",
    "fedsim.collect_data": "fedsim.collect_data_s",
    "fedsim.aggregate": "fedsim.aggregate_s",
}

# Span name -> the per-layer count metric its number of calls sets.
CALL_COUNT_METRIC = {
    "harness.sample_population": "harness.sample_population_calls",
    "equilibrium.compute_equilibrium": "equilibrium.compute_calls",
    "equilibrium.solve_r1": "equilibrium.foc_solves",
    "equilibrium.solve_r2": "equilibrium.foc_solves",
    "equilibrium.verify_client": "equilibrium.verify_client_calls",
    "equilibrium.verify_server": "equilibrium.verify_server_calls",
    "game_core.best_response": "game_core.best_response_calls",
}


class Tracer:
    """Span recorder; ``call`` runs a function inside a span."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[tuple[int, int, int, int, int] | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id = -1
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, name: str, fn, *args, **kwargs):
        nid = self.name_id(name)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(None)
        self._stack.append(idx)
        start = perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[idx] = (nid, start, end, parent, self.op_id)

    def self_times_ns(self) -> dict[str, int]:
        """Total self time per span name."""
        own = [end - start for (_, start, end, _, _) in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        totals: dict[str, int] = defaultdict(int)
        for (nid, _, _, _, _), t in zip(self.spans, own):
            totals[self.names[nid]] += t
        return dict(totals)

    def call_counts(self) -> dict[str, int]:
        calls: dict[str, int] = defaultdict(int)
        for nid, *_ in self.spans:
            calls[self.names[nid]] += 1
        return dict(calls)

    def root_ns(self) -> int:
        return sum(end - start for (_, start, end, parent, _) in self.spans if parent < 0)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op,name,start_ns,end_ns,parent\n")
            for nid, start, end, parent, op in self.spans:
                fh.write(f"{op},{self.names[nid]},{start},{end},{parent}\n")


def _span_wrapper(tracer: Tracer, name, fn, hook=None):
    """Wrap fn in a span; name may be a callable of the call's arguments."""

    def wrapped(*args, **kwargs):
        span = name(args) if callable(name) else name
        result = tracer.call(span, fn, *args, **kwargs)
        if hook is not None:
            hook(tracer.counts, args, kwargs, result)
        return result

    wrapped.__wrapped__ = fn
    return wrapped


def _count_wrapper(tracer: Tracer, counter: str, fn):
    counts = tracer.counts

    def wrapped(*args, **kwargs):
        counts[counter] += 1
        return fn(*args, **kwargs)

    wrapped.__wrapped__ = fn
    return wrapped


def _count_training(counts, args, kwargs, result) -> None:
    dataset = kwargs["dataset"] if "dataset" in kwargs else args[1]
    counts["fedsim.local_train_iterations"] += result.iterations
    counts["fedsim.train_row_iters"] += result.iterations * dataset.size


def _count_round(counts, args, kwargs, result) -> None:
    counts["fedsim.client_rounds"] += len(result.clients)
    counts["fedsim.targets_met"] += sum(
        1 for c in result.clients if not (c.failed or c.accuracy_shortfall)
    )


def _count_output(counts, args, kwargs, result) -> None:
    counts["harness.output_bytes"] += len(result)


def _targets(output_owner):
    """(owner, attribute, span name, hook) or (owner, attribute, None, counter name)."""
    from ifedcrowd import equilibrium, fedsim, game_core, harness, mechanisms

    return [
        (harness, "run_sweep", "harness.run_sweep", None),
        (harness, "evaluate_cell", "harness.evaluate_cell", None),
        (harness, "sample_population", "harness.sample_population", None),
        (harness, "verify_scenario", "harness.verify_scenario", None),
        (harness, "table_to_csv", "harness.output", _count_output),
        (output_owner, "_output", "harness.output", _count_output),
        (
            mechanisms,
            "select_rates",
            lambda args: "mechanisms.select_rates." + args[0].value,
            None,
        ),
        (equilibrium, "compute_equilibrium", "equilibrium.compute_equilibrium", None),
        (equilibrium, "solve_r1", "equilibrium.solve_r1", None),
        (equilibrium, "solve_r2", "equilibrium.solve_r2", None),
        (equilibrium, "verify_client_equilibrium", "equilibrium.verify_client", None),
        (equilibrium, "verify_server_equilibrium", "equilibrium.verify_server", None),
        (equilibrium, "du_dr1", None, "equilibrium.deriv_evals"),
        (equilibrium, "du_dr2", None, "equilibrium.deriv_evals"),
        (game_core, "best_response", "game_core.best_response", None),
        (game_core, "feasible_rate_box", "game_core.feasible_rate_box", None),
        (fedsim, "run_round", "fedsim.run_round", _count_round),
        (fedsim, "init_state", "fedsim.init_state", None),
        (fedsim, "local_train", "fedsim.local_train", _count_training),
        (fedsim, "collect_data", "fedsim.collect_data", None),
        (fedsim, "aggregate", "fedsim.aggregate", None),
        (fedsim.ClientDataset, "merged", "fedsim.merge", None),
    ]


@contextmanager
def installed(tracer: Tracer, output_owner):
    """Swap the wrappers in for the duration of the block, then restore the originals.

    A module-level function is replaced in every ifedcrowd module that bound
    it, since ``from .x import f`` copies the reference; a method is replaced
    on its class.
    """
    modules = [m for n, m in sys.modules.items() if n.startswith("ifedcrowd")]
    undo: list[tuple[object, str, object]] = []
    try:
        for owner, attr, span, extra in _targets(output_owner):
            fn = getattr(owner, attr, None)
            if fn is None:
                continue  # only workloads that write output themselves have _output
            if span is None:
                wrapper = _count_wrapper(tracer, extra, fn)
            else:
                wrapper = _span_wrapper(tracer, span, fn, extra)
            for holder in [owner] if isinstance(owner, type) else modules:
                for name, value in list(vars(holder).items()):
                    if value is fn:
                        undo.append((holder, name, fn))
                        setattr(holder, name, wrapper)
        yield tracer
    finally:
        for holder, name, fn in reversed(undo):
            setattr(holder, name, fn)


def layer_metrics(
    tracer: Tracer,
    passes: int,
    wall_ns: int,
    untraced_ns: int,
    time_scale: float,
    import_s: float,
    overhead_ratio: float,
) -> dict[str, float]:
    """Per-layer metrics per pass from a finished traced phase.

    ``untraced_ns`` is the phase's time outside any span, as the runner timed
    it.  Span times are multiplied by ``time_scale``, which brings them to
    the reference speed; ``import_s`` comes scaled from the set-up probes.
    """
    seconds = time_scale / 1e9 / passes  # per ns of span time
    values = {name: 0.0 for name, _, _ in PER_LAYER}
    for span, ns in tracer.self_times_ns().items():
        values[SELF_TIME_METRIC[span]] += ns * seconds
    for span, calls in tracer.call_counts().items():
        if span in CALL_COUNT_METRIC:
            values[CALL_COUNT_METRIC[span]] += calls / passes
    counts = tracer.counts
    for name in (
        "equilibrium.deriv_evals",
        "fedsim.local_train_iterations",
        "fedsim.train_row_iters",
        "fedsim.client_rounds",
        "harness.output_bytes",
    ):
        values[name] = counts[name] / passes
    if values["equilibrium.foc_solves"]:
        values["equilibrium.deriv_evals_per_solve"] = (
            values["equilibrium.deriv_evals"] / values["equilibrium.foc_solves"]
        )
    if counts["fedsim.client_rounds"]:
        values["fedsim.target_met_ratio"] = (
            counts["fedsim.targets_met"] / counts["fedsim.client_rounds"]
        )
    values["setup.import_s"] = import_s
    values["trace.wall_s"] = wall_ns * seconds
    values["trace.untraced_s"] = untraced_ns * seconds
    values["trace.overhead_ratio"] = overhead_ratio
    return values
