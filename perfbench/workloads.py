"""The benchmark's workloads: ``sweep``, ``scale`` and ``simulate``.

Each workload is a closed loop in one process and one thread: op ``i`` starts
when op ``i - 1`` has returned.  Ops come in passes of ``pass_ops``; a pass
holds every input of the workload once.  A run measures whole passes, at
least ``min_passes`` of them.  Ops differ in cost (sweep cells with 5 to 30
workers, rounds that slow down as the datasets grow), so a run that stopped
mid-pass would measure a mix that depends on how fast the code under test
is.  ``input_of(i)`` names the input of op ``i``, so that the latency tail
can take the median of each input's repeats.  A workload calls the package only
through module attributes (``harness.run_sweep``, not a bound name), so the
tracer's wrappers on those attributes see every call.

The workload seed chooses the inputs where that leaves the work per op steady:
the cell order of ``sweep`` and the populations of ``scale``.  ``simulate``
always runs the default scenario, because at n = 10 the work of a 400-round
simulation varies from 1.3 s to 6.1 s between scenario seeds 1..10, which
would swamp any change under test.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from dataclasses import replace

from ifedcrowd import harness
from ifedcrowd.mechanisms import MechanismKind

from . import checks

REFERENCE_PATH = os.path.join(os.path.dirname(__file__), "reference", "sweep_default.csv")
MECHANISMS = list(MechanismKind)


def sweep_cells(base: harness.ScenarioConfig) -> list[tuple[str, float, harness.SweepSpec]]:
    """The 18 default sweep cells (3 axes x 6 values) as one-value sweep specs."""
    cells = []
    for axis in harness.SWEEP_AXES:
        spec = harness.SweepSpec.for_axis(axis, base)
        for value in spec.values:
            cells.append((axis, value, harness.SweepSpec(axis, (value,), spec.base)))
    return cells


class Sweep:
    """One op: run_sweep on one default sweep cell with all mechanisms, then table_to_csv."""

    name = "sweep"
    min_passes = 1

    def __init__(self, seed: int, out_dir: str):
        self.cells = sweep_cells(harness.ScenarioConfig())
        self.pass_ops = len(self.cells)
        self.reference = checks.load_reference(REFERENCE_PATH)
        self._rng = random.Random(seed)
        self._order: list[int] = []
        self._first_csv: dict[int, str] = {}

    def _cell(self, i: int) -> int:
        """The cell of op i; each pass visits the cells in a fresh seeded order."""
        while len(self._order) <= i:
            perm = list(range(self.pass_ops))
            self._rng.shuffle(perm)
            self._order.extend(perm)
        return self._order[i]

    def warmup(self) -> None:
        spec = harness.SweepSpec("workers", (5,), replace(harness.ScenarioConfig(), runs=1))
        harness.table_to_csv(harness.run_sweep(spec, MECHANISMS))

    def input_of(self, i: int) -> int:
        return self._cell(i)

    def op(self, i: int):
        cell = self._cell(i)
        table = harness.run_sweep(self.cells[cell][2], MECHANISMS)
        return cell, table, harness.table_to_csv(table)

    def check(self, i: int, out) -> list[str]:
        cell, table, csv_text = out
        axis, value, _ = self.cells[cell]
        first = self._first_csv.setdefault(cell, csv_text)
        return checks.sweep_failures(
            table, csv_text, self.reference[(axis, float(value))], first
        )

    def close(self) -> None:
        pass


class Scale:
    """One op: verify_scenario at n = 2000, cycling over the seed's population seeds."""

    name = "scale"
    min_passes = 1
    N = 2000
    POPULATIONS = 4

    def __init__(self, seed: int, out_dir: str):
        rng = random.Random(seed)
        base = harness.ScenarioConfig(n=self.N)
        self.configs = [
            replace(base, seed=rng.randrange(1, 2**31)) for _ in range(self.POPULATIONS)
        ]
        self.pass_ops = len(self.configs)

    def warmup(self) -> None:
        harness.verify_scenario(replace(self.configs[0], n=20))

    def input_of(self, i: int) -> int:
        return i % self.pass_ops

    def op(self, i: int):
        return harness.verify_scenario(self.configs[self.input_of(i)])

    def check(self, i: int, out) -> list[str]:
        return checks.verify_failures(out)

    def close(self) -> None:
        pass


class Simulate:
    """One op: one round of run_simulation (default scenario, 400 rounds) written as JSONL.

    A pass is one whole simulation; its output file is rewritten every pass,
    as the CLI's ``simulate --out`` would write it.
    """

    name = "simulate"
    ROUNDS = 400
    min_passes = 2  # the checks compare each pass with the first

    def __init__(self, seed: int, out_dir: str):
        self.config = replace(harness.ScenarioConfig(), rounds=self.ROUNDS)
        self.pass_ops = self.ROUNDS
        self.path = os.path.join(out_dir, f"simulate-seed{seed}.jsonl")
        self._rounds = None
        self._fh = None
        self._first_digest: dict[int, bytes] = {}

    def warmup(self) -> None:
        for report in harness.run_simulation(replace(self.config, rounds=3)):
            json.dumps(report.to_dict())

    def _output(self, report) -> str:
        line = json.dumps(report.to_dict()) + "\n"
        self._fh.write(line)
        return line

    def input_of(self, i: int) -> int:
        return i % self.ROUNDS

    def op(self, i: int):
        if i % self.ROUNDS == 0:
            self.close()
            self._rounds = harness.run_simulation(self.config)
            self._fh = open(self.path, "w", encoding="utf-8")
        report = next(self._rounds)
        return report, self._output(report)

    def check(self, i: int, out) -> list[str]:
        report, line = out
        digest = hashlib.sha256(line.encode()).digest()
        first = self._first_digest.setdefault(i % self.ROUNDS, digest)
        return checks.round_failures(report, digest, first)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


WORKLOADS = {cls.name: cls for cls in (Sweep, Scale, Simulate)}


def make(name: str, seed: int, out_dir: str):
    return WORKLOADS[name](seed, out_dir)
