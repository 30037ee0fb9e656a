"""Seeded network generator for the fleet-criticals workload.

`small_system_network` returns a network document (the JSON the program's
`load_network` reads) plus the admittance table it references, and
`write_network` puts both on disk.  The logic lives here rather than being
imported from the test suite so that editing a test cannot change a
workload.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

TABLE_HEADER = ["f_hz", "re_dd", "im_dd", "re_dq", "im_dq",
                "re_qd", "im_qd", "re_qq", "im_qq"]


def small_system_network(seed: int) -> tuple[dict, dict]:
    """Random 1..3-node chain: RL branches, RC shunts, a stiff grid tie and
    one tabulated device with a band-limited (possibly negative)
    conductance bump.  Same draws, in the same order, as the test suite's
    `make_random_small_system`, written as a network file with the device
    in a table CSV."""
    r = np.random.default_rng(seed)
    n = int(r.integers(1, 4))
    nodes = list(range(1, n + 1))
    branches = [{"type": "rl", "from": i, "to": i + 1,
                 "r_ohm": float(r.uniform(0.05, 0.5)),
                 "l_h": float(r.uniform(0.2e-3, 2e-3))}
                for i in range(1, n)]
    shunts = [{"type": "grid", "node": 1,
               "params": {"r_ohm": float(r.uniform(0.1, 0.6)),
                          "l_h": float(r.uniform(0.1e-3, 1e-3))}}]
    for nid in nodes:
        shunts.append({"type": "capacitor", "node": nid,
                       "params": {"c_f": float(r.uniform(2e-6, 2e-5))}})

    y_peak = complex(r.uniform(-1.2, 0.4), r.uniform(-0.3, 0.3))
    f0 = float(r.uniform(150.0, 1200.0))
    f_tab = np.logspace(0.0, 5.0, 61)
    bump = y_peak * np.exp(-(np.log(f_tab / f0) / 0.45) ** 2)
    table_name = f"device_{seed}.csv"
    rows = [[f, b.real, b.imag, 0.0, 0.0, 0.0, 0.0, b.real, b.imag]
            for f, b in zip(f_tab, bump)]
    shunts.append({"type": "inverter", "node": int(r.integers(1, n + 1)),
                   "table_path": table_name})
    return {"fundamental_hz": 50.0, "nodes": nodes, "branches": branches,
            "shunts": shunts}, {table_name: rows}


def write_network(directory: Path, name: str, doc: dict, tables: dict) -> Path:
    """Write `name`.json and its table CSVs into directory; returns the
    network file path."""
    directory.mkdir(parents=True, exist_ok=True)
    for table_name, rows in tables.items():
        lines = [",".join(TABLE_HEADER)]
        lines += [",".join(format(float(v), ".17g") for v in row) for row in rows]
        (directory / table_name).write_text("\n".join(lines) + "\n")
    path = directory / f"{name}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path
