import hashlib
import math
from dataclasses import replace

import pytest

from ifedcrowd import harness
from perfbench import checks, workloads


@pytest.fixture(scope="module")
def reference():
    return checks.load_reference(workloads.REFERENCE_PATH)


def _rows(reference_rows):
    return tuple(
        harness.SweepRow(
            axis_value=float(r["axis_value"]),
            mechanism=r["mechanism"],
            **{k: float(r[k]) for k in r if k.endswith(("_mean", "_std"))},
            runs=int(r["runs"]),
        )
        for r in reference_rows
    )


@pytest.fixture(scope="module")
def cell(reference):
    ref = reference[("workers", 5.0)]
    table = harness.SweepTable(rows=_rows(ref))
    return ref, table, harness.table_to_csv(table)


def test_reference_has_all_cells_and_mechanisms(reference):
    assert len(reference) == 18
    assert all([r["mechanism"] for r in rows] == ["ifedcrowd", "random", "max"] for rows in reference.values())


def test_sweep_cell_from_reference_passes(cell):
    ref, table, csv_text = cell
    assert checks.sweep_failures(table, csv_text, ref, csv_text) == []


def test_live_cell_matches_reference(reference):
    axis, value, spec = workloads.sweep_cells(harness.ScenarioConfig())[12]
    table = harness.run_sweep(spec, workloads.MECHANISMS)
    assert checks.sweep_failures(table, harness.table_to_csv(table), reference[(axis, float(value))], None) == []


def test_random_beating_ifedcrowd_is_rejected(cell):
    ref, table, csv_text = cell
    ifed = table.rows[0].server_utility_mean
    rows = (table.rows[0], replace(table.rows[1], server_utility_mean=ifed + 1e-6), table.rows[2])
    problems = checks.dominance_failures(rows)
    assert len(problems) == 1 and "random" in problems[0]
    # within the 1e-9 tolerance is still a pass
    rows = (table.rows[0], replace(table.rows[1], server_utility_mean=ifed + 1e-10), table.rows[2])
    assert checks.dominance_failures(rows) == []
    assert checks.dominance_failures(table.rows[1:]) == ["axis value 5.0: no ifedcrowd row"]


def test_cell_failures_and_csv_drift_are_rejected(cell):
    ref, table, csv_text = cell
    failed = replace(table, failures=("workers=5: run 3: boom",))
    assert checks.sweep_failures(failed, csv_text, ref, csv_text) == ["cell failure: workers=5: run 3: boom"]
    drifted = csv_text.replace("\n", "\r\n", 1)
    assert checks.sweep_failures(table, drifted, ref, csv_text) == [
        "CSV differs from an earlier run of the same cell"
    ]


@pytest.mark.parametrize("column", ["r1_mean", "r2_std", "worker_utility_mean", "server_utility_std"])
def test_reference_tolerates_ninth_digit_drift_only(cell, column):
    ref, table, _ = cell
    value = getattr(table.rows[0], column)
    scale = abs(getattr(table.rows[0], column.replace("_std", "_mean")))
    ninth_digit = replace(table.rows[0], **{column: value + 5e-9 * scale})
    assert checks.reference_failures((ninth_digit,) + table.rows[1:], ref) == []
    changed = replace(table.rows[0], **{column: value + 1e-5 * max(scale, abs(value))})
    problems = checks.reference_failures((changed,) + table.rows[1:], ref)
    assert len(problems) == 1 and column in problems[0]


def test_reference_rejects_missing_or_reordered_rows(cell):
    ref, table, _ = cell
    assert checks.reference_failures(table.rows[:2], ref) == ["2 rows where the reference has 3"]
    swapped = (table.rows[1], table.rows[0], table.rows[2])
    assert len(checks.reference_failures(swapped, ref)) == 2


@pytest.fixture(scope="module")
def summary():
    return harness.verify_scenario(harness.ScenarioConfig(n=12, seed=5))


def test_verified_scenario_passes(summary):
    assert checks.verify_failures(summary) == []


def test_failed_or_violated_verification_is_rejected(summary):
    assert len(checks.verify_failures(replace(summary, ok=False))) == 1
    for worst in (1e-8, math.nan):
        bad = replace(summary, server_report=replace(summary.server_report, worst_violation=worst))
        problems = checks.verify_failures(bad)
        assert len(problems) == 1 and "worst violation" in problems[0]


@pytest.fixture(scope="module")
def reports():
    return list(harness.run_simulation(harness.ScenarioConfig(rounds=3)))


def _digest(report):
    import json

    return hashlib.sha256((json.dumps(report.to_dict()) + "\n").encode()).digest()


def test_simulated_rounds_pass(reports):
    for report in reports:
        assert checks.round_failures(report, _digest(report), _digest(report)) == []


def test_payout_off_by_one_ulp_is_rejected(reports):
    report = reports[-1]
    rec = report.clients[4]
    off = replace(rec, payout=math.nextafter(rec.payout, math.inf))
    bad = replace(report, clients=report.clients[:4] + (off,) + report.clients[5:])
    problems = checks.round_failures(bad, _digest(report), _digest(report))
    assert len(problems) == 1 and "client 4" in problems[0]


def test_failed_client_and_changed_line_are_rejected(reports):
    report = reports[0]
    assert checks.round_failures(replace(report, n_failed=1), b"a", b"a") == [
        "round 0: 1 clients failed"
    ]
    assert checks.round_failures(report, b"a", b"b") == [
        "round 0: JSONL line differs from the first pass"
    ]


def test_simulate_workload_flags_a_pass_that_differs(tmp_path, reports):
    w = workloads.Simulate(seed=1, out_dir=str(tmp_path))
    line = "{}\n"
    assert w.check(0, (reports[0], line)) == []
    assert w.check(w.ROUNDS, (reports[0], line)) == []
    assert w.check(2 * w.ROUNDS, (reports[0], "{ }\n")) == [
        "round 0: JSONL line differs from the first pass"
    ]
