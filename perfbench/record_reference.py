"""Record the rollout costs that solve-long checks its jobs against.

    PYTHONPATH=src python3 perfbench/record_reference.py

Solves every bank game of every solve-long (shape, solver) pair once and
writes perfbench/reference_costs.json.  Run it only when the bank or the
game recipe changes: the point of the file is to pin the costs computed at
the commit that recorded it, so that later commits are checked against
them.
"""

from __future__ import annotations

import json
import sys

import numpy as np

from workloads import SolveLong

# Relative tolerance of the cost check.  Across every bank game that has a
# second formulation in the library (solve_alt for feedback and open-loop
# Nash, feedback Nash for lqr), the two agree to within 1.4e-10 relative;
# the worst case is 3x10x3 feedback Nash, bank entry 13.  The open-loop
# Nash games are unstable over T = 200 (costs up to 3e65), yet their two
# formulations agree to 1.4e-12.  1e-7 leaves a margin of about 700 for
# reordered floating-point sums and still fails a wrong equilibrium.
RTOL = 1e-7


def main() -> int:
    costs = {}
    for shape, solver in SolveLong.COMBOS:
        rows = []
        for index in range(SolveLong.BANK):
            spec, x0 = SolveLong.bank_game(shape, index)
            job = {"shape": shape, "solver": solver, "spec": spec, "x0": x0}
            total = np.asarray(SolveLong.run(job))
            if not np.all(np.isfinite(total)):
                raise SystemExit(f"{shape}/{solver}[{index}]: non-finite costs {total}")
            rows.append(total.tolist())
        costs[f"{shape}/{solver}"] = rows
        print(f"{shape}/{solver}: {len(rows)} games", file=sys.stderr)
    doc = {"horizon": SolveLong.HORIZON, "bank": SolveLong.BANK, "rtol": RTOL, "costs": costs}
    SolveLong.REFERENCE.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
