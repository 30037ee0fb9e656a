import math

import numpy as np
import pytest

from damp_planner import network_assembly
from damp_planner.cli_reporting import CASE_STUDY_AD_PARAMS
from damp_planner.compensation_planner import _with_conductance
from damp_planner.component_models import (
    ADParams,
    AdmittanceTable,
    CapacitorParams,
    GridImpedanceParams,
    InverterParams,
    PiCableParams,
    RlBranchParams,
)
from damp_planner.network_assembly import (
    Branch,
    InvalidNetworkError,
    NetworkGraph,
    Shunt,
    SingularBranchError,
    assemble,
    assemble_grid,
    validate,
)

W0 = 2 * math.pi * 50.0

INV = InverterParams(v_dc=750.0, l_h=2.5e-3, c_f=15e-6, i_d=50.0, i_q=0.0,
                     k_pi=10.0, k_ii=300.0, k_p_pll=6.0, k_i_pll=100.0,
                     f_s_hz=10e3, v_d0=311.0)


def single_node_graph(device) -> NetworkGraph:
    return NetworkGraph((1,), (), (Shunt(1, device),), W0)


def two_node_graph() -> NetworkGraph:
    return NetworkGraph(
        (1, 2),
        (Branch(1, 2, RlBranchParams(0.1, 1e-3), "link"),),
        (Shunt(1, CapacitorParams(10e-6), "cap"),),
        W0,
    )


# --- validation ---

def test_single_node_with_inverter_is_valid():
    assert validate(single_node_graph(INV)) == []


def test_unknown_branch_node_is_diagnosed():
    g = NetworkGraph((1, 2, 3, 4),
                     (Branch(1, 9, RlBranchParams(0.1, 1e-3), "bad-link"),),
                     (), W0)
    diags = validate(g)
    assert any("bad-link" in d and "9" in d for d in diags)


def test_disconnected_graph_is_diagnosed():
    g = NetworkGraph((1, 2, 3),
                     (Branch(1, 2, RlBranchParams(0.1, 1e-3)),),
                     (), W0)
    diags = validate(g)
    assert any("disconnected" in d for d in diags)


def test_bare_node_is_diagnosed():
    # no branch and no shunt: the node's rows are zero at every frequency
    assert validate(NetworkGraph((1,), (), (), W0)) == ["node 1 has no branch and no shunt"]
    g = NetworkGraph((1, 2), (Branch(1, 2, RlBranchParams(0.1, 1e-3)),),
                     (Shunt(1, CapacitorParams(10e-6)),), W0)
    assert validate(g) == []  # node 2 is attached by its branch


def test_empty_node_list_is_diagnosed():
    assert validate(NetworkGraph((), (), (), W0)) != []


def test_two_dampers_at_one_node_diagnosed():
    ad = ADParams(**CASE_STUDY_AD_PARAMS)
    g = NetworkGraph((1,), (), (Shunt(1, ad), Shunt(1, ad)), W0)
    assert any("damper" in d for d in validate(g))


def test_assemble_rejects_invalid_graph():
    g = NetworkGraph((), (), (), W0)
    with pytest.raises(InvalidNetworkError):
        assemble(g, 100.0)


def test_graph_is_validated_once_per_instance(monkeypatch):
    validated = []

    def counted(g):
        validated.append(id(g))
        return validate(g)

    monkeypatch.setattr(network_assembly, "validate", counted)
    g = two_node_graph()
    for _ in range(3):
        assemble(g, 60.0)
        assemble_grid(g, [60.0, 70.0])
    g2 = g.with_shunt_device(2, CapacitorParams(1e-6))
    assemble(g2, 60.0)
    assemble_grid(g2, [80.0])
    assert validated == [id(g), id(g2)]


def test_invalid_graph_raises_on_every_assembly():
    g = NetworkGraph((1, 1), (), (), W0)
    for _ in range(2):
        with pytest.raises(InvalidNetworkError, match="duplicate node id 1"):
            assemble(g, 100.0)
        with pytest.raises(InvalidNetworkError, match="duplicate node id 1"):
            assemble_grid(g, [100.0, 200.0])


def test_damper_added_to_a_validated_graph_is_revalidated():
    ad = ADParams(**CASE_STUDY_AD_PARAMS)
    g = single_node_graph(ad)
    assemble(g, 100.0)
    with pytest.raises(InvalidNetworkError, match="more than one active damper"):
        assemble(g.with_shunt_device(1, ad), 100.0)


# --- stamping ---

def test_single_shunt_matrix_equals_block():
    g = single_node_graph(CapacitorParams(10e-6))
    nod = assemble(g, 60.0)
    w = 2 * math.pi * 60.0
    expected = np.array([[1j * w * 10e-6, -W0 * 10e-6],
                         [W0 * 10e-6, 1j * w * 10e-6]])
    assert np.allclose(nod, expected, rtol=1e-14, atol=0)


def test_two_node_block_pattern():
    g = two_node_graph()
    nod = assemble(g, 60.0)
    yb = np.linalg.inv(np.array([[0.1 + 1j * 2 * math.pi * 60.0 * 1e-3, -W0 * 1e-3],
                                 [W0 * 1e-3, 0.1 + 1j * 2 * math.pi * 60.0 * 1e-3]]))
    ys = np.array([[1j * 2 * math.pi * 60.0 * 10e-6, -W0 * 10e-6],
                   [W0 * 10e-6, 1j * 2 * math.pi * 60.0 * 10e-6]])
    assert np.allclose(nod[0:2, 0:2], ys + yb, rtol=1e-12)
    assert np.allclose(nod[0:2, 2:4], -yb, rtol=1e-12)
    assert np.allclose(nod[2:4, 0:2], -yb, rtol=1e-12)
    assert np.allclose(nod[2:4, 2:4], yb, rtol=1e-12)


def test_pi_cable_branch_places_half_cap_at_both_ends():
    g = NetworkGraph((1, 2),
                     (Branch(1, 2, PiCableParams(0.2, 0.3e-3, 12e-6), "cable"),),
                     (), W0)
    nod = assemble(g, 300.0)
    w = 2 * math.pi * 300.0
    # off-diagonal blocks carry only -inv(Z); the diagonal adds jwC/2
    yb = -nod[0:2, 2:4]
    ysh = nod[0:2, 0:2] - yb
    assert ysh[0, 0] == pytest.approx(1j * w * 6e-6, rel=1e-12)
    assert np.allclose(nod[2:4, 2:4], yb + ysh, rtol=1e-12)


def test_case_fixture_first_node_block_hand_stamped(case_graph):
    # independent re-stamp of the node-1 diagonal block: grid cable R-L
    # inverse plus transformer R-L inverse, all by explicit 2x2 adjugate
    f = 203.0
    w = 2 * math.pi * f

    def inv2(m):
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        return np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / det

    z_cab = np.array([[0.2 + 1j * w * 0.3e-3, -W0 * 0.3e-3],
                      [W0 * 0.3e-3, 0.2 + 1j * w * 0.3e-3]])
    z_tr = np.array([[0.0032 + 1j * w * 0.0764e-3, -W0 * 0.0764e-3],
                     [W0 * 0.0764e-3, 0.0032 + 1j * w * 0.0764e-3]])
    expected = inv2(z_cab) + inv2(z_tr)

    nod = assemble(case_graph, f)
    assert nod.shape == (8, 8)
    assert np.allclose(nod[0:2, 0:2], expected, rtol=1e-12)


def test_passive_block_pattern_is_symmetric():
    g = NetworkGraph(
        (1, 2, 3),
        (Branch(1, 2, RlBranchParams(0.05, 0.5e-3)),
         Branch(2, 3, PiCableParams(0.2, 0.3e-3, 12e-6))),
        (Shunt(1, GridImpedanceParams(0.2, 0.3e-3)),
         Shunt(3, CapacitorParams(5e-6))),
        W0,
    )
    for f in (17.0, 203.0, 1500.0):
        nod = assemble(g, f)
        for i in range(3):
            for j in range(3):
                assert np.array_equal(nod[2*i:2*i+2, 2*j:2*j+2],
                                      nod[2*j:2*j+2, 2*i:2*i+2])


def test_purely_inductive_branch_dc_limit_raises():
    g = NetworkGraph((1, 2),
                     (Branch(1, 2, RlBranchParams(0.0, 1e-3), "choke"),),
                     (Shunt(1, CapacitorParams(1e-6)),), omega0=0.0)
    with pytest.raises(SingularBranchError, match="choke"):
        assemble(g, 1e-160)


def test_lossless_grid_tie_at_the_fundamental_raises():
    # R = 0: the tie's impedance is singular where f equals the
    # fundamental; it used to be inverted unchecked, through rounding
    g = NetworkGraph((1, 2), (Branch(1, 2, RlBranchParams(0.1, 1e-3)),),
                     (Shunt(1, GridImpedanceParams(0.0, 3e-4), "tie"),), W0)
    with pytest.raises(SingularBranchError,
                       match=r"^tie has singular series impedance at f=50.0 Hz$"):
        assemble_grid(g, [40.0, 50.0, 60.0])


@pytest.mark.parametrize("f_hz", [[55.5, 64.5], np.arange(12.0, 300.0, 5.0)])
def test_lossless_element_raises_over_a_grid_spanning_the_fundamental(f_hz):
    # det Z vanishes only at the fundamental, between these samples; a
    # 60 Hz fundamental computes as 59.99999999999999 Hz
    g = NetworkGraph((1, 2), (Branch(1, 2, RlBranchParams(0.0, 1e-3), "choke"),),
                     (Shunt(1, GridImpedanceParams(0.1, 3e-4), "tie"),), 2 * math.pi * 60.0)
    with pytest.raises(SingularBranchError,
                       match=r"^branch choke has singular series impedance at f=60.0 Hz$"):
        assemble_grid(g, f_hz)
    assert np.all(np.isfinite(assemble_grid(g, [10.0, 59.5])))


# --- conductance shunt added by the planner ---

def with_conductance(g, node_index, f, alpha):
    """The planner's matrix: assemble(g, f) plus alpha on the node's d/q diagonal."""
    return _with_conductance(g, node_index, [f], alpha)[0]


def test_with_shunt_zero_block_is_identity(case_graph):
    nod = assemble(case_graph, 100.0)
    same = with_conductance(case_graph, 2, 100.0, 0.0)
    assert np.array_equal(nod, same)


def test_with_shunt_conductance_shifts_single_node_eigenvalues():
    g = single_node_graph(CapacitorParams(10e-6))
    nod = assemble(g, 60.0)
    lam0 = sorted(np.linalg.eigvals(nod), key=lambda z: z.imag)
    shifted = with_conductance(g, 0, 60.0, 0.25)
    lam1 = sorted(np.linalg.eigvals(shifted), key=lambda z: z.imag)
    assert np.allclose(np.array(lam1), np.array(lam0) + 0.25, rtol=0, atol=1e-12)


def test_with_shunt_touches_only_target_entries(case_graph):
    nod = assemble(case_graph, 500.0)
    mod = with_conductance(case_graph, 3, 500.0, 0.05)  # node 4 -> rows 6,7
    delta = mod - nod
    touched = {(6, 6), (7, 7)}
    assert {tuple(ij) for ij in np.argwhere(delta != 0)} == touched
    for ij in touched:
        assert delta[ij] == pytest.approx(0.05, rel=1e-12)


def test_stamping_linearity_two_shunts_equal_with_shunt():
    cap = CapacitorParams(10e-6)
    g1 = NetworkGraph((1,), (), (Shunt(1, cap), Shunt(1, CapacitorParams(4e-6))), W0)
    g2 = NetworkGraph((1,), (), (Shunt(1, cap),), W0)
    f = 60.0
    w = 2 * math.pi * f
    extra = np.array([[1j * w * 4e-6, -W0 * 4e-6], [W0 * 4e-6, 1j * w * 4e-6]])
    a = assemble(g1, f)
    b = assemble(g2, f) + extra
    assert np.allclose(a, b, rtol=0, atol=1e-18)


def test_assemble_rejects_sweeps_beyond_sampled_control_band(case_graph):
    with pytest.raises(ValueError, match="f_s/2"):
        assemble_grid(case_graph, np.array([100.0, 5001.0]))


def test_assemble_grid_matches_single_assemblies(case_graph):
    freqs = np.array([50.0, 203.0, 1821.0])
    stack = assemble_grid(case_graph, freqs)
    assert stack.shape == (3, 8, 8)
    for k, f in enumerate(freqs):
        assert np.array_equal(stack[k], assemble(case_graph, float(f)))


def test_node_index_and_with_device(case_graph):
    assert case_graph.node_index(1) == 0
    assert case_graph.node_index(4) == 3
    with pytest.raises(KeyError):
        case_graph.node_index(99)
    g2 = case_graph.with_shunt_device(4, CapacitorParams(1e-6))
    assert len(g2.shunts) == len(case_graph.shunts) + 1
    assert len(case_graph.shunts) == 4


# --- one evaluation per distinct shunt device ---

def per_shunt_reference(g, f):
    """assemble_grid as the plain per-shunt sum: the branch stamps, then
    every shunt's device block evaluated and added on its own, in order."""
    y = assemble_grid(NetworkGraph(g.nodes, g.branches, (), g.omega0), f)
    for s in g.shunts:
        i = 2 * g.node_index(s.node)
        y[:, i:i + 2, i:i + 2] += network_assembly._device_block(s.device, f, g.omega0,
                                                                 s.label)
    return y


def test_identical_inverters_are_evaluated_once(case_graph, monkeypatch):
    f = np.linspace(10.0, 2500.0, 7)
    inverters = [s for s in case_graph.shunts if isinstance(s.device, InverterParams)]
    assert len(inverters) == 3 and len({s.device for s in inverters}) == 1
    expected = per_shunt_reference(case_graph, f)
    calls = []
    real = network_assembly.inverter_block

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(network_assembly, "inverter_block", counted)
    got = assemble_grid(case_graph, f)
    assert len(calls) == 1
    assert np.array_equal(got, expected)


def test_shared_table_is_queried_once_per_call(monkeypatch):
    # two shunts share table a; table b has a's values but is another object
    f_tab = np.logspace(0.0, 4.0, 9)
    blocks = np.zeros((len(f_tab), 2, 2), dtype=complex)
    blocks[:, 0, 0] = blocks[:, 1, 1] = 0.01 + 0.002j * np.log(f_tab)
    a, b = AdmittanceTable(f_tab, blocks), AdmittanceTable(f_tab, blocks)
    g = NetworkGraph((1, 2, 3),
                     (Branch(1, 2, RlBranchParams(0.1, 1e-3)),
                      Branch(2, 3, RlBranchParams(0.2, 2e-3))),
                     (Shunt(1, GridImpedanceParams(0.3, 0.5e-3)),
                      Shunt(1, a), Shunt(2, a), Shunt(3, b)), W0)
    f = np.array([50.0, 125.0, 900.0])
    expected = per_shunt_reference(g, f)
    queried = []
    real = AdmittanceTable.query

    def counted(self, f_hz):
        queried.append(self)
        return real(self, f_hz)

    monkeypatch.setattr(AdmittanceTable, "query", counted)
    for _ in range(2):
        queried.clear()
        got = assemble_grid(g, f)
        assert sorted(map(id, queried)) == sorted([id(a), id(b)])
        assert np.array_equal(got, expected)
