import math

import hypothesis
import numpy as np
import pytest

from damp_planner import load_network
from damp_planner.cli_reporting import emit_fixture
from damp_planner.component_models import (
    AdmittanceTable,
    CapacitorParams,
    GridImpedanceParams,
    RlBranchParams,
)
from damp_planner.network_assembly import Branch, NetworkGraph, Shunt

hypothesis.settings.register_profile("ci", max_examples=50, deadline=None)
hypothesis.settings.load_profile("ci")


@pytest.fixture(scope="session")
def case_graph(tmp_path_factory) -> NetworkGraph:
    """The built-in three-inverter case-study network."""
    path = tmp_path_factory.mktemp("net") / "case.json"
    emit_fixture(path)
    return load_network(path)


def table_from_rows(rows) -> AdmittanceTable:
    """A table from rows of (f_hz, dd, dq, qd, qq) complex entries."""
    return AdmittanceTable([r[0] for r in rows],
                           [[[r[1], r[2]], [r[3], r[4]]] for r in rows])


def jw(f_hz):
    """s = j*2*pi*f for frequencies f in Hz, as assemble_grid converts them."""
    return 1j * 2.0 * np.pi * np.asarray(f_hz, dtype=float)


@pytest.fixture(scope="session")
def rng() -> np.random.Generator:
    return np.random.default_rng(20240517)


def make_random_small_system(seed: int) -> NetworkGraph:
    """Random 1..3-node chain: RL branches, RC shunts, a stiff grid tie and
    one tabulated device with a band-limited (possibly negative)
    conductance bump -- the destabilizing ingredient.  The bump decays
    towards the sweep edges so every eigenvalue starts and ends in the
    right half plane, which keeps the discrete Nyquist closure clean."""
    r = np.random.default_rng(seed)
    w0 = 2 * math.pi * 50.0
    n = int(r.integers(1, 4))
    nodes = tuple(range(1, n + 1))
    branches = tuple(
        Branch(i, i + 1, RlBranchParams(float(r.uniform(0.05, 0.5)),
                                        float(r.uniform(0.2e-3, 2e-3))))
        for i in range(1, n))
    shunts = [Shunt(1, GridImpedanceParams(float(r.uniform(0.1, 0.6)),
                                           float(r.uniform(0.1e-3, 1e-3))))]
    for nid in nodes:
        shunts.append(Shunt(nid, CapacitorParams(float(r.uniform(2e-6, 2e-5)))))

    y_peak = complex(r.uniform(-1.2, 0.4), r.uniform(-0.3, 0.3))
    f0 = float(r.uniform(150.0, 1200.0))
    f_tab = np.logspace(0.0, 5.0, 61)
    bump = np.exp(-(np.log(f_tab / f0) / 0.45) ** 2)
    blocks = np.zeros((len(f_tab), 2, 2), dtype=complex)
    blocks[:, 0, 0] = y_peak * bump
    blocks[:, 1, 1] = y_peak * bump
    shunts.append(Shunt(int(r.integers(1, n + 1)), AdmittanceTable(f_tab, blocks)))
    return NetworkGraph(nodes, branches, tuple(shunts), w0)
