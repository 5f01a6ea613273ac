"""Correctness checks on every op's output; each returns a list of failure messages.

An op whose check returns any message counts as failed.  The checks are pure
functions of the outputs so the tests can feed them corrupted copies.
"""

from __future__ import annotations

import csv
from collections import defaultdict

from ifedcrowd.game_core import client_reward

DOMINANCE_TOL = 1e-9         # acceptance criterion 5: ifedcrowd beats Random and MAX
SERVER_VIOLATION_TOL = 1e-9  # acceptance criterion 4: no in-box rate beats the solved one
# The reference table was written with 9 significant digits; an exact rate
# solver may move the 9th digit, which a relative 1e-6 still accepts while a
# real change in any column does not pass.
REFERENCE_RTOL = 1e-6

_STAT_COLUMNS = ("r1", "r2", "worker_utility", "server_utility")


def load_reference(path: str) -> dict[tuple[str, float], list[dict[str, str]]]:
    """Reference sweep rows keyed by (axis, axis value), in emitted order."""
    with open(path, "r", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    table: dict[tuple[str, float], list[dict[str, str]]] = defaultdict(list)
    for row in rows:
        table[(row["axis"], float(row["axis_value"]))].append(row)
    return dict(table)


def dominance_failures(rows) -> list[str]:
    """ifedcrowd's server utility must reach every baseline's, per axis value."""
    by_value: dict[float, dict[str, float]] = defaultdict(dict)
    for row in rows:
        by_value[row.axis_value][row.mechanism] = row.server_utility_mean
    problems = []
    for value, utils in by_value.items():
        if "ifedcrowd" not in utils:
            problems.append(f"axis value {value}: no ifedcrowd row")
            continue
        for mech, util in utils.items():
            if not utils["ifedcrowd"] >= util - DOMINANCE_TOL:
                problems.append(
                    f"axis value {value}: {mech} server utility {util!r} beats "
                    f"ifedcrowd {utils['ifedcrowd']!r}"
                )
    return problems


def reference_failures(rows, reference: list[dict[str, str]]) -> list[str]:
    """Rows must equal the stored reference up to REFERENCE_RTOL per column.

    A standard deviation is compared on the scale of its mean, since drift in
    the values moves a small spread by more than its own relative tolerance.
    """
    if len(rows) != len(reference):
        return [f"{len(rows)} rows where the reference has {len(reference)}"]
    problems = []
    for row, ref in zip(rows, reference):
        where = f"{ref['axis']}={ref['axis_value']} {ref['mechanism']}"
        if row.mechanism != ref["mechanism"] or row.runs != int(ref["runs"]):
            problems.append(f"{where}: got {row.mechanism} with {row.runs} runs")
            continue
        if row.axis_value != float(ref["axis_value"]):
            problems.append(f"{where}: axis value {row.axis_value!r}")
        for stat in _STAT_COLUMNS:
            scale = abs(float(ref[f"{stat}_mean"]))
            for col in (f"{stat}_mean", f"{stat}_std"):
                got, want = getattr(row, col), float(ref[col])
                tol = REFERENCE_RTOL * max(scale, abs(want)) + 1e-12
                if not abs(got - want) <= tol:
                    problems.append(f"{where}: {col} {got!r} != reference {want!r}")
    return problems


def sweep_failures(table, csv_text: str, reference, first_csv: str | None) -> list[str]:
    """All checks on one sweep cell: no failures, dominance, repeatability, reference."""
    problems = [f"cell failure: {msg}" for msg in table.failures]
    problems += dominance_failures(table.rows)
    if first_csv is not None and csv_text != first_csv:
        problems.append("CSV differs from an earlier run of the same cell")
    problems += reference_failures(table.rows, reference)
    return problems


def verify_failures(summary) -> list[str]:
    """verify_scenario must certify the equilibrium with no server-side violation."""
    problems = []
    if not summary.ok:
        bad = sum(1 for r in summary.client_reports if not r.passed)
        problems.append(
            f"verification failed: server passed={summary.server_report.passed}, "
            f"{bad} client checks failed"
        )
    worst = summary.server_report.worst_violation
    if not worst <= SERVER_VIOLATION_TOL:
        problems.append(f"server worst violation {worst!r} exceeds {SERVER_VIOLATION_TOL}")
    return problems


def round_failures(report, line_digest: bytes, first_digest: bytes | None) -> list[str]:
    """One simulated round: no failed client, exact payouts, repeatable JSONL line."""
    problems = []
    if report.n_failed != 0:
        problems.append(f"round {report.round_index}: {report.n_failed} clients failed")
    for rec in report.clients:
        if rec.achieved is None:
            continue  # counted by n_failed
        want = client_reward(report.rates, rec.achieved)
        if not (isinstance(rec.payout, float) and rec.payout.hex() == want.hex()):
            problems.append(
                f"round {report.round_index} client {rec.client_id}: payout "
                f"{rec.payout!r} != client_reward {want!r}"
            )
    if first_digest is not None and line_digest != first_digest:
        problems.append(f"round {report.round_index}: JSONL line differs from the first pass")
    return problems
