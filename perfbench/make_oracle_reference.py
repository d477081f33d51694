"""Write oracle_reference.json, the seed-free table single-cell-cli checks against.

For each oracle cell of the workload it stores (exact, asymptotic, bound) of
every MomentQuantity as `ou-bench oracle` computes them.  k3_fn_z is computed
with its dense cap raised to the cell's n, so that the table also covers the
rows the program refuses today.

    PYTHONPATH=src python3 perfbench/make_oracle_reference.py
"""

from __future__ import annotations

import functools
import json

from ou_drift_bench import oracles
from ou_drift_bench.ou_core import OuParams
from workloads import ORACLE_CELLS, ORACLE_REFERENCE


def main() -> None:
    k3_fn_z = oracles.k3_fn_z
    cells = []
    for preset, n, delta in ORACLE_CELLS:
        params = OuParams(theta=1.0, delta=delta, n=n)
        oracles.k3_fn_z = functools.partial(k3_fn_z, n_cap=n)
        try:
            rows = {}
            for quantity in oracles.MomentQuantity:
                report = oracles.moment_report(quantity, params)
                rows[quantity.value] = [
                    report.exact_value,
                    report.asymptotic_value,
                    report.bound_value,
                ]
        finally:
            oracles.k3_fn_z = k3_fn_z
        cells.append({"preset": preset, "n": n, "delta": delta, "rows": rows})
    text = json.dumps({"theta": 1.0, "cells": cells}, indent=1)
    ORACLE_REFERENCE.write_text(text + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
