"""Write the sweep reference table that the ``sweep`` workload checks against.

    python3 perfbench/make_reference.py

Runs the 18 default sweep cells with all mechanisms and writes their rows,
prefixed by the axis, to reference/sweep_default.csv.  Regenerate it only
when a change deliberately alters sweep output, and log the difference.
"""

from __future__ import annotations

import csv
import io
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
    from ifedcrowd import harness
    from perfbench import workloads

    out = io.StringIO()
    writer = None
    for axis, _, spec in workloads.sweep_cells(harness.ScenarioConfig()):
        table = harness.run_sweep(spec, workloads.MECHANISMS)
        if table.failures:
            raise SystemExit(f"cell {axis}: {table.failures}")
        rows = list(csv.reader(io.StringIO(harness.table_to_csv(table))))
        if writer is None:
            writer = csv.writer(out, lineterminator="\n")
            writer.writerow(["axis"] + rows[0])
        for row in rows[1:]:
            writer.writerow([axis] + row)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as fh:
        fh.write(out.getvalue())
    return 0


if __name__ == "__main__":
    sys.exit(main())
