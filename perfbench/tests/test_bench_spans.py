import json
import os

from ifedcrowd import equilibrium, fedsim, harness, mechanisms
from perfbench import spans, workloads

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_self_times_add_up_to_root_spans():
    tracer = spans.Tracer()

    def inner():
        return sum(range(20000))

    def outer():
        tracer.call("b", inner)
        tracer.call("b", inner)
        return sum(range(20000))

    tracer.call("a", outer)
    tracer.call("b", inner)
    own = tracer.self_times_ns()
    assert set(own) == {"a", "b"}
    assert all(ns > 0 for ns in own.values())
    assert sum(own.values()) == tracer.root_ns()
    a = tracer.spans[0]
    assert own["a"] == (a[2] - a[1]) - sum(e - s for (_, s, e, p, _) in tracer.spans if p == 0)
    assert tracer.call_counts() == {"a": 1, "b": 3}
    assert [p for (_, _, _, p, _) in tracer.spans] == [-1, 0, 0, -1]


def test_span_survives_an_exception():
    tracer = spans.Tracer()

    def boom():
        raise ValueError("x")

    try:
        tracer.call("a", boom)
    except ValueError:
        pass
    assert tracer.spans[0] is not None and tracer._stack == []


def test_installed_wraps_every_binding_and_restores_it():
    originals = (harness.compute_equilibrium, mechanisms.compute_equilibrium, equilibrium.solve_r1,
                 fedsim.ClientDataset.merged, harness.table_to_csv)
    tracer = spans.Tracer()
    with spans.installed(tracer, workloads.Sweep):
        assert harness.compute_equilibrium is not originals[0]
        assert mechanisms.compute_equilibrium is harness.compute_equilibrium
        harness.verify_scenario(harness.ScenarioConfig(n=6))
    assert (harness.compute_equilibrium, mechanisms.compute_equilibrium, equilibrium.solve_r1,
            fedsim.ClientDataset.merged, harness.table_to_csv) == originals
    calls = tracer.call_counts()
    assert calls["harness.verify_scenario"] == 1
    assert calls["equilibrium.solve_r1"] == calls["equilibrium.solve_r2"] == 1
    assert calls["equilibrium.verify_client"] == 6
    assert calls["game_core.best_response"] == 12  # solver's responses plus one per client check
    assert tracer.counts["equilibrium.deriv_evals"] > 2 * 512
    names = {tracer.names[nid]: parent for nid, _, _, parent, _ in tracer.spans}
    assert names["harness.verify_scenario"] == -1


def test_layer_metrics_cover_every_span_and_balance(tmp_path):
    tracer = spans.Tracer()
    w = workloads.Simulate(seed=1, out_dir=str(tmp_path))
    w.config = harness.ScenarioConfig(rounds=5)
    w.ROUNDS = 5
    try:
        with spans.installed(tracer, workloads.Simulate):
            from time import perf_counter_ns

            start = perf_counter_ns()
            for i in range(5):
                out = tracer.call("bench.op", w.op, i)
                assert tracer.call("bench.check", w.check, i, out) == []
            wall = perf_counter_ns() - start
    finally:
        w.close()
    assert set(tracer.self_times_ns()) <= set(spans.SELF_TIME_METRIC)
    values = spans.layer_metrics(tracer, 1, wall, wall - tracer.root_ns(), 1.3, 0.5, 1.0)
    assert list(values) == [name for name, _, _ in spans.PER_LAYER]
    self_metrics = set(spans.SELF_TIME_METRIC.values())
    total = sum(v for k, v in values.items() if k in self_metrics) + values["trace.untraced_s"]
    assert abs(total - values["trace.wall_s"]) < 1e-9
    assert values["fedsim.client_rounds"] == 50
    assert 0 < values["fedsim.target_met_ratio"] <= 1
    assert values["fedsim.local_train_iterations"] > 0
    assert values["harness.output_bytes"] > 0
    assert values["equilibrium.compute_calls"] == 1


def test_benchmark_json_lists_the_per_layer_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    listed = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert listed == list(spans.PER_LAYER)
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
