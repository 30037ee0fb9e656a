import dataclasses
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import damp_planner
from conftest import jw
from damp_planner import cli_reporting, network_assembly, stability_engine
from damp_planner.cli_reporting import (
    NetworkFileError,
    ReportDocument,
    RunConfig,
    emit_fixture,
    load_network,
    main,
    run_command,
)
from damp_planner.compensation_planner import plan
from damp_planner.component_models import (
    CapacitorParams,
    GridImpedanceParams,
    InverterParams,
    PiCableParams,
    ad_scalar,
)
from damp_planner.dq_core import FrequencyGrid
from damp_planner.network_assembly import Branch, NetworkGraph, Shunt, assemble_grid
from damp_planner.stability_engine import analyze


@pytest.fixture(scope="module")
def fixture_path(tmp_path_factory):
    return emit_fixture(tmp_path_factory.mktemp("cli") / "case.json")


# --- network files ---

def test_fixture_roundtrips_through_loader(fixture_path):
    g = load_network(fixture_path)
    assert g.nodes == (1, 2, 3, 4)
    inverters = [s for s in g.shunts if isinstance(s.device, InverterParams)]
    grids = [s for s in g.shunts if isinstance(s.device, GridImpedanceParams)]
    assert len(inverters) == 3
    assert len(grids) == 1
    assert grids[0].node == 1


def test_fixture_carries_expected_design_values(fixture_path):
    g = load_network(fixture_path)
    inv = next(s.device for s in g.shunts if isinstance(s.device, InverterParams))
    assert inv.k_p_pll == 6.0
    assert inv.k_i_pll == 100.0
    tr = next(b for b in g.branches if "transformer" in b.label)
    assert tr.model.l_h == pytest.approx(0.0764e-3)
    assert tr.model.r_ohm == pytest.approx(0.0032)


def test_fixture_damper_defaults(fixture_path):
    ad = load_network(fixture_path).damper_defaults
    assert ad.l_f_h == pytest.approx(0.8e-3)
    assert ad.gain_s == pytest.approx(0.06)
    assert ad.omega_c_rad_s == pytest.approx(21991.13)
    assert ad.k_v == 0.0
    assert ad.mode == "proposed"


def test_unknown_branch_type_is_a_parse_error(tmp_path):
    doc = {"nodes": [1, 2],
           "branches": [{"type": "xyz", "from": 1, "to": 2, "r_ohm": 1, "l_h": 1e-3}],
           "shunts": []}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(NetworkFileError, match="xyz"):
        load_network(path)


def test_empty_node_list_is_a_validation_error(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"nodes": [], "branches": [], "shunts": []}))
    with pytest.raises(NetworkFileError, match="empty"):
        load_network(path)


def test_bare_node_is_a_validation_error(tmp_path, capsys):
    path = tmp_path / "bare.json"
    path.write_text('{"nodes": [1]}')
    with pytest.raises(NetworkFileError, match="node 1 has no branch and no shunt"):
        load_network(path)
    code = main(["criticals", "--network", str(path), "--out", str(tmp_path / "out"),
                 "--fmin", "10", "--fmax", "100"])
    assert code == 1
    assert "node 1 has no branch and no shunt" in capsys.readouterr().err


def test_json_syntax_error_reports_position(tmp_path):
    path = tmp_path / "syntax.json"
    path.write_text('{"nodes": [1,]\n}')
    with pytest.raises(NetworkFileError, match=r":\d+:\d+:"):
        load_network(path)


def test_network_is_validated_once_per_command(fixture_path, tmp_path, monkeypatch):
    original = network_assembly.validate
    calls = []

    def counted(g):
        calls.append(g)
        return original(g)

    for mod in (damp_planner, network_assembly, cli_reporting):
        if getattr(mod, "validate", None) is original:
            monkeypatch.setattr(mod, "validate", counted)
    run_command(RunConfig(network=str(fixture_path), out_dir=str(tmp_path)), "criticals")
    assert len(calls) == 1


@pytest.mark.parametrize("command, text, element", [
    ("criticals", "[1, 2]", "top level"),
    ("criticals", '{"nodes": [1], "branches": [5]}', "branches[0]"),
    ("criticals", '{"nodes": [1], "shunts": ["grid"]}', "shunts[0]"),
    ("criticals", '{"nodes": [1, "one"]}', "nodes[1]"),
    ("criticals", '{"nodes": [1], "fundamental_hz": "abc"}', "fundamental_hz"),
    ("ad-curve", "[1, 2]", "top level"),
    ("ad-curve", '{"damper_defaults": [3]}', "damper_defaults"),
    # ad-curve used to read only the fundamental and the damper block
    ("ad-curve", '{"nodes": [1], "shunts": [{"type": "inverter", "node": 1, '
                 '"table_path": "absent.csv"}]}', "shunts[0]"),
], ids=["top-level-list", "branch-not-object", "shunt-not-object", "node-not-numeric",
        "fundamental-not-numeric", "ad-curve-top-level-list", "damper-defaults-not-object",
        "ad-curve-missing-table"])
def test_malformed_network_file_names_file_and_element(tmp_path, capsys, command, text,
                                                        element):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code = main([command, "--network", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {path}: {element}: ")


_TWO_NODES = {"nodes": [1, 2],
              "branches": [{"type": "rl", "from": 1, "to": 2, "r_ohm": 0.1, "l_h": 1e-3}],
              "shunts": [{"type": "grid", "node": 1, "params": {"r_ohm": 0.2, "l_h": 3e-4}}]}


@pytest.mark.parametrize("key, index, value, element", [
    ("nodes", 1, 2.7, "nodes[1]"),
    ("nodes", 0, True, "nodes[0]"),
    ("branches", "to", 2.2, "branches[0]: to"),
    ("branches", "from", False, "branches[0]: from"),
    ("shunts", "node", 1.9, "shunts[0]: node"),
], ids=["fractional-node", "boolean-node", "fractional-to", "boolean-from",
        "fractional-shunt-node"])
def test_node_id_must_be_an_integer(tmp_path, capsys, key, index, value, element):
    """A fractional or boolean node id used to load, truncated by int():
    nodes [1, 2.7] as (1, 2), a branch to 2.2 as 1-2, a shunt at 1.9 at
    node 1, and true as node 1."""
    doc = json.loads(json.dumps(_TWO_NODES))
    (doc[key] if key == "nodes" else doc[key][0])[index] = value
    path = tmp_path / "bad_node.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(NetworkFileError) as err:
        load_network(path)
    assert str(err.value) == (f"{path}: {element}: node id {value!r} is not an integer")
    code = main(["criticals", "--network", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {err.value}\n"


def test_whole_float_node_ids_load(tmp_path):
    doc = json.loads(json.dumps(_TWO_NODES))
    doc["nodes"] = [1, 2.0]
    doc["branches"][0]["to"] = 2.0
    doc["shunts"][0]["node"] = 1.0
    path = tmp_path / "float_nodes.json"
    path.write_text(json.dumps(doc))
    g = load_network(path)
    assert g.nodes == (1, 2)
    assert (g.branches[0].from_node, g.branches[0].to_node, g.shunts[0].node) == (1, 2, 1)


# (keys into the fixture document, the value put there, the error after the file name)
_NUMBER_CASES = [
    (("nodes", 1), "2", "nodes[1]: node id '2' is not an integer"),
    (("branches", 0, "to"), " 2 ", "branches[0]: to: node id ' 2 ' is not an integer"),
    (("shunts", 1, "node"), "2", "shunts[1]: node: node id '2' is not an integer"),
    (("branches", 0, "r_ohm"), True, "branches[0]: r_ohm: True is not a finite number"),
    (("branches", 1, "r_ohm"), "0.04", "branches[1]: r_ohm: '0.04' is not a finite number"),
    (("branches", 2, "l_h"), math.inf, "branches[2]: l_h: inf is not a finite number"),
    (("shunts", 0, "params", "l_h"), "3e-4", "shunts[0]: l_h: '3e-4' is not a finite number"),
    (("shunts", 1, "params", "k_pi"), "10", "shunts[1]: k_pi: '10' is not a finite number"),
    (("shunts", 4, "params", "c_f"), True, "shunts[4]: c_f: True is not a finite number"),
    (("fundamental_hz",), "50", "fundamental_hz: '50' is not a finite number"),
    (("damper_defaults", "gain_s"), "0.06",
     "damper_defaults: gain_s: '0.06' is not a finite number"),
    (("damper_defaults", "k_v"), True, "damper_defaults: k_v: True is not a finite number"),
]


@pytest.mark.parametrize("keys, value, message", _NUMBER_CASES,
                         ids=["string-node", "padded-string-to", "string-shunt-node",
                              "boolean-r", "string-r", "infinite-l", "string-grid-l",
                              "string-inverter-gain", "boolean-capacitor", "string-fundamental",
                              "string-damper-gain", "boolean-damper-k_v"])
def test_network_file_numbers_are_finite_json_numbers(fixture_path, tmp_path, capsys,
                                                      keys, value, message):
    """Each used to load, through int() or float() (a boolean as 0 or 1),
    or to fail in the sweep with a numpy traceback ("k_pi": "10"); a
    boolean r_ohm turned the fixture's criticals at --fmax 300 stable.
    The whole file is read for every command, so criticals and ad-curve
    reject it alike: criticals used to ignore the damper block, and
    ad-curve everything else."""
    doc = json.loads(fixture_path.read_text())
    doc["shunts"].append({"type": "capacitor", "node": 2, "params": {"c_f": 1e-6}})
    target = doc
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    path = tmp_path / "bad_number.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(NetworkFileError) as err:
        load_network(path)
    assert str(err.value) == f"{path}: {message}"
    for command in ("criticals", "ad-curve"):
        code = main([command, "--network", str(path), "--fmax", "300",
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert capsys.readouterr().err == f"error: {err.value}\n"


@pytest.mark.parametrize("command", ["criticals", "ad-curve"])
@pytest.mark.parametrize("hz", [0, -50], ids=["zero", "negative"])
def test_fundamental_must_be_positive(fixture_path, tmp_path, capsys, command, hz):
    """A dq frame that does not rotate, or rotates backwards: at -50 Hz
    the fixture's criticals at --fmax 300 used to report a verdict."""
    doc = json.loads(fixture_path.read_text())
    doc["fundamental_hz"] = hz
    path = tmp_path / "bad_fundamental.json"
    path.write_text(json.dumps(doc))
    message = f"{path}: fundamental_hz: {float(hz)!r} is not > 0"
    with pytest.raises(NetworkFileError) as err:
        load_network(path)
    assert str(err.value) == message
    code = main([command, "--network", str(path), "--fmax", "300",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_lossless_grid_tie_is_a_named_error(fixture_path, tmp_path, capsys):
    """R = 0 makes the tie's impedance singular at the fundamental, which
    the sweep grid hits; it used to be inverted unchecked, and the run
    failed in the crossover refinement with no element named."""
    doc = json.loads(fixture_path.read_text())
    doc["shunts"][0]["params"]["r_ohm"] = 0.0
    path = tmp_path / "lossless_tie.json"
    path.write_text(json.dumps(doc))
    code = main(["criticals", "--network", str(path), "--fmax", "300",
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == ("error: grid-cable has singular series "
                                       "impedance at f=50.0 Hz\n")


@pytest.mark.parametrize("grid", [["--fmin", "10.5"], ["--fmin", "12", "--df", "5"]],
                         ids=["half-hz-offset", "5-hz-step"])
def test_lossless_grid_tie_between_grid_points_is_a_named_error(fixture_path, tmp_path,
                                                                capsys, grid):
    """A grid that steps over the fundamental never lands on the
    singularity; the run used to fail in the crossover refinement near
    50 Hz with no element named."""
    doc = json.loads(fixture_path.read_text())
    doc["shunts"][0]["params"]["r_ohm"] = 0.0
    path = tmp_path / "lossless_tie.json"
    path.write_text(json.dumps(doc))
    code = main(["criticals", "--network", str(path), "--fmax", "300", *grid,
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == ("error: grid-cable has singular series "
                                       "impedance at f=50.0 Hz\n")


def test_pi_cable_without_r_and_l_is_a_load_error(fixture_path, tmp_path):
    doc = json.loads(fixture_path.read_text())
    doc["branches"][1].update(type="pi_cable", r_ohm=0.0, l_h=0.0, c_f=1e-6)
    path = tmp_path / "zero_cable.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(NetworkFileError) as err:
        load_network(path)
    assert str(err.value) == f"{path}: branches[1]: R and L cannot both be zero"


@pytest.mark.parametrize("text, message", [
    ('{"nodes": [1], "shunts": [{"type": "battery", "node": 1}]}',
     "shunts[0]: unknown shunt type 'battery' (expected one of "
     "('inverter', 'ad', 'grid', 'capacitor'))"),
    ('{"nodes": [1], "shunts": [{"type": "grid", "node": 1, "table_path": "y.csv"}]}',
     "shunts[0]: table_path is only valid for inverter shunts"),
    ('{"nodes": [1, 2], "branches": [{"type": "rl", "from": 1, "to": 2, "r_ohm": 0.1}]}',
     "branches[0]: missing field 'l_h'"),
    ('{"nodes": [1], "branches": [{"type": "rl", "from": 1, "to": 1, "r_ohm": 0.1, '
     '"l_h": 1e-3}]}', "rl[0] is a self-loop at node 1"),
], ids=["unknown-shunt-type", "table-path-on-a-grid-shunt", "missing-branch-field",
        "self-loop"])
def test_loader_error_names_file_element_and_cause(tmp_path, capsys, text, message):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(NetworkFileError) as err:
        load_network(path)
    assert str(err.value) == f"{path}: {message}"
    # ad-curve, which analyses no network, used to plot from such a file
    code = main(["ad-curve", "--network", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {err.value}\n"


def test_pi_cable_from_a_file_assembles_as_built(tmp_path):
    doc = json.loads(json.dumps(_TWO_NODES))
    doc["branches"][0].update(type="pi_cable", c_f=2e-6)
    path = tmp_path / "cable.json"
    path.write_text(json.dumps(doc))
    g = load_network(path)
    built = NetworkGraph((1, 2), (Branch(1, 2, PiCableParams(0.1, 1e-3, 2e-6)),),
                         (Shunt(1, GridImpedanceParams(0.2, 3e-4)),))
    f = FrequencyGrid.regular(10.0, 2500.0, 10.0).hz
    assert g.branches[0].model == built.branches[0].model
    assert np.array_equal(assemble_grid(g, f), assemble_grid(built, f))


def test_missing_file_is_reported(tmp_path):
    with pytest.raises(NetworkFileError):
        load_network(tmp_path / "nope.json")


def _network_with_table(tmp_path, fixture_path, table_text):
    doc = json.loads(fixture_path.read_text())
    for sh in doc["shunts"]:
        if sh.get("label") == "inverter-2":
            sh.pop("params")
            sh["table_path"] = "inv2.csv"
    (tmp_path / "inv2.csv").write_text(table_text)
    net = tmp_path / "case_tab.json"
    net.write_text(json.dumps(doc))
    return net


_TABLE_HEADER = "f_hz,re_dd,im_dd,re_dq,im_dq,re_qd,im_qd,re_qq,im_qq\n"


_TABLE_ROWS = ["10,1,0,0,0,0,0,1,0", "152.75,1,0,0,0,0,0,1,0", "5000,1,0,0,0,0,0,1,0"]


def _table(*rows):
    return _TABLE_HEADER + "".join(row + "\n" for row in rows)


@pytest.mark.parametrize("table_text, where", [
    (_TABLE_HEADER + "10,1,0,0,0,0,0,1,0\n100,1,0,0\n", "inv2.csv:3:"),
    ("", "inv2.csv:1:"),
    # criticals at 10-2500 Hz used to fail on the NaN as "matrix has
    # non-finite entries", naming no file, line or frequency
    (_table(_TABLE_ROWS[0], "152.75,nan,0,0,0,0,0,1,0", _TABLE_ROWS[2]),
     "inv2.csv:3: re_dd = nan is not finite"),
    # a NaN frequency passes the ordering check, as NaN compares false
    (_table(_TABLE_ROWS[0], "nan,1,0,0,0,0,0,1,0", _TABLE_ROWS[2]),
     "inv2.csv:3: f_hz = nan is not finite"),
    # outside the sweep range, so the sweep alone never sees it
    (_table(*_TABLE_ROWS[:2], "5000,1,0,0,0,0,inf,1,0"), "inv2.csv:4: im_qd = inf is not finite"),
], ids=["short-row", "empty-file", "nan-entry", "nan-frequency", "inf-beyond-the-sweep"])
def test_malformed_admittance_table_is_a_network_file_error(
        tmp_path, fixture_path, capsys, table_text, where):
    net = _network_with_table(tmp_path, fixture_path, table_text)
    with pytest.raises(NetworkFileError, match=where):
        load_network(net)
    code = main(["criticals", "--network", str(net), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_a_file_that_is_not_utf8_text_is_named(tmp_path, fixture_path, capsys):
    """A network file, or the admittance table it names, with a byte that
    is not UTF-8: one error line naming the file (the table's line too),
    not a bare codec message naming neither."""
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    code = main(["criticals", "--network", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == (
        f"error: {path}: 'utf-8' codec can't decode byte 0xff in position 0: "
        "invalid start byte\n")

    net = _network_with_table(tmp_path, fixture_path, _table(*_TABLE_ROWS))
    table = tmp_path / "inv2.csv"
    table.write_bytes(table.read_bytes().replace(b"152.75", b"152.\xff5"))
    with pytest.raises(NetworkFileError) as err:
        load_network(net)
    assert str(err.value).startswith(f"{net}: shunts[")
    assert str(err.value).endswith(
        f": {table}:3: could not convert string to float: '152.\ufffd5'")


# --- reports and determinism ---

def test_sweep_outputs_are_byte_identical_across_runs(fixture_path, tmp_path):
    cfg1 = RunConfig(network=str(fixture_path), fmin_hz=100.0, fmax_hz=300.0,
                     df_hz=1.0, out_dir=str(tmp_path / "a"))
    cfg2 = RunConfig(network=str(fixture_path), fmin_hz=100.0, fmax_hz=300.0,
                     df_hz=1.0, out_dir=str(tmp_path / "b"))
    run_command(cfg1, "sweep")
    run_command(cfg2, "sweep")
    a = (tmp_path / "a" / "traces.csv").read_bytes()
    b = (tmp_path / "b" / "traces.csv").read_bytes()
    assert a == b
    header = a.decode().splitlines()[0]
    assert header == "f_hz,trace_id,re_lambda,im_lambda"


def test_sweep_report_carries_trace_health(fixture_path, tmp_path):
    """Per trace, the lowest tracking overlap and the flagged steps: on the
    fixture's 1 Hz sweep every step overlaps by at least 0.985, and none
    is flagged."""
    doc, _ = run_command(RunConfig(network=str(fixture_path), out_dir=str(tmp_path)), "sweep")
    tracking = json.loads((tmp_path / "report_sweep.json").read_text())["data"]["tracking"]
    assert tracking == doc.data["tracking"]
    assert [t["trace_id"] for t in tracking] == list(range(1, 9))
    for t in tracking:
        assert set(t) == {"trace_id", "min_overlap", "discontinuities"}
        assert 0.985 <= t["min_overlap"] <= 1.0
        assert t["discontinuities"] == []
    assert min(t["min_overlap"] for t in tracking) == pytest.approx(0.985, abs=5e-4)


def test_sweep_report_names_flagged_steps(fixture_path, tmp_path, monkeypatch):
    # a threshold above every overlap flags every step of every trace
    monkeypatch.setattr(stability_engine, "DEFAULT_OVERLAP_THRESHOLD", 2.0)
    cfg = RunConfig(network=str(fixture_path), fmin_hz=100.0, fmax_hz=103.0,
                    out_dir=str(tmp_path))
    doc, _ = run_command(cfg, "sweep")
    for t in doc.data["tracking"]:
        assert t["discontinuities"] == [[100.0, 101.0], [101.0, 102.0], [102.0, 103.0]]


def test_verify_holds_one_spectrum_at_a_time(fixture_path, tmp_path):
    """The traced allocation peak of one verify on the fixture's 1 Hz grid
    stays below the eigenvector stacks w and u of two sweeps (4 nf m^2
    complex numbers): the traces copy no eigenvectors, and the baseline
    analysis is let go before the damper's re-analysis."""
    cfg = RunConfig(network=str(fixture_path), out_dir=str(tmp_path))
    run_command(cfg, "verify")  # warm-up: lazy imports and caches
    nf, m = len(cfg.grid()), 2 * len(load_network(fixture_path).nodes)
    tracemalloc.start()
    try:
        run_command(cfg, "verify")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * nf * m * m * 16


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="CPython 3.10 keeps call arguments on the caller's stack until "
                           "the call returns, so an assembled chunk outlives its eig there")
def test_verify_peaks_below_one_and_a_half_stacks(fixture_path, tmp_path):
    """One verify on the fixture's 1 Hz grid peaks at 3.4 MB traced, 1.3
    of the 2.55 MB stacks of nf m^2 complex numbers: each analysis
    streams its sweep chunk by chunk, holding no Spectrum, and the
    baseline traces are let go before the re-analysis."""
    cfg = RunConfig(network=str(fixture_path), out_dir=str(tmp_path))
    run_command(cfg, "verify")  # warm-up: lazy imports and caches
    tracemalloc.start()
    try:
        run_command(cfg, "verify")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.4e6


def test_report_embeds_config_hash_and_metadata(fixture_path, tmp_path):
    cfg = RunConfig(network=str(fixture_path), fmin_hz=150.0, fmax_hz=250.0,
                    df_hz=2.0, out_dir=str(tmp_path))
    doc, code = run_command(cfg, "criticals")
    on_disk = json.loads((tmp_path / "report_criticals.json").read_text())
    assert on_disk["config_hash"] == cfg.hash()
    assert on_disk["tool"] == "damp-planner"
    assert on_disk["created_utc"]
    assert on_disk["version"]
    assert code == 2  # the 179 Hz critical lies inside this window


def test_crossover_csv_schema(fixture_path, tmp_path):
    cfg = RunConfig(network=str(fixture_path), fmin_hz=150.0, fmax_hz=250.0,
                    df_hz=2.0, out_dir=str(tmp_path))
    run_command(cfg, "criticals")
    lines = (tmp_path / "crossovers.csv").read_text().splitlines()
    assert lines[0] == "trace_id,f_cr_hz,re_lambda,verdict"
    assert any("critical" in ln for ln in lines[1:])


def test_rank_command_prefers_node_4(fixture_path, tmp_path):
    cfg = RunConfig(network=str(fixture_path), out_dir=str(tmp_path))
    doc, code = run_command(cfg, "rank")
    assert code == 0
    assert doc.data["ranking"][0]["node"] == 4
    assert (tmp_path / "kc_table.csv").exists()


def test_ad_curve_command(fixture_path, tmp_path):
    cfg = RunConfig(network=str(fixture_path), fmin_hz=100.0, fmax_hz=2000.0,
                    df_hz=10.0, k_v=1.5, out_dir=str(tmp_path))
    doc, code = run_command(cfg, "ad-curve")
    assert code == 0
    lines = (tmp_path / "ad_curve.csv").read_text().splitlines()
    assert lines[0] == "f_hz,re_y_s,im_y_s,abs_im_re_ratio"
    ratios = [float(ln.split(",")[3]) for ln in lines[1:]]
    assert max(ratios) <= 0.1


@pytest.mark.parametrize("cluster", [[], ["--cluster", "k_v", "--values", "0.5,2"]],
                         ids=["single", "cluster"])
def test_ad_curve_uses_the_network_fundamental(fixture_path, tmp_path, cluster):
    # a 60 Hz network's damper is plotted at 60 Hz, as verify calibrates it
    doc = json.loads(fixture_path.read_text())
    doc["fundamental_hz"] = 60.0
    net = tmp_path / "net60.json"
    net.write_text(json.dumps(doc))
    assert main(["ad-curve", "--network", str(net), "--fmin", "50", "--fmax", "500",
                 "--df", "50", "--kv", "1.5", "--out", str(tmp_path), *cluster]) == 0
    name = "ad_curve_cluster.csv" if cluster else "ad_curve.csv"
    rows = [ln.split(",") for ln in (tmp_path / name).read_text().splitlines()[1:]]
    assert len(rows) == (2 if cluster else 1) * 10
    base = load_network(net).damper_defaults
    for row in rows:
        k_v = float(row[0]) if cluster else 1.5
        f, re_y, im_y = row[-4:-1]
        y = ad_scalar(dataclasses.replace(base, k_v=k_v), [float(f)], 2 * math.pi * 60.0)[0]
        assert (re_y, im_y) == (format(y.real, ".9g"), format(y.imag, ".9g"))


def test_ad_curve_cluster_command(fixture_path, tmp_path):
    cfg = RunConfig(network=str(fixture_path), fmin_hz=200.0, fmax_hz=1000.0,
                    df_hz=100.0, k_v=1.0, out_dir=str(tmp_path),
                    cluster_param="k_v", cluster_values=(0.5, 1.0, 2.0))
    doc, code = run_command(cfg, "ad-curve")
    assert code == 0
    lines = (tmp_path / "ad_curve_cluster.csv").read_text().splitlines()
    assert lines[0].startswith("k_v,f_hz,")
    assert len(lines) == 1 + 3 * 9


# --- CLI surface ---

def test_main_emit_fixture_and_criticals(tmp_path, capsys):
    net = tmp_path / "net.json"
    assert main(["emit-fixture", str(net)]) == 0
    code = main(["criticals", "--network", str(net),
                 "--fmin", "150", "--fmax", "250", "--df", "2",
                 "--out", str(tmp_path / "out")])
    assert code == 2  # unstable verdict


def test_main_usage_error_is_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep"])  # missing --network
    assert exc.value.code == 1


def test_main_missing_network_file_is_exit_1(tmp_path, capsys):
    code = main(["sweep", "--network", str(tmp_path / "ghost.json"),
                 "--out", str(tmp_path)])
    assert code == 1


@pytest.mark.parametrize("command", ["sweep", "criticals", "rank", "plan", "ad-curve",
                                     "verify"])
def test_cli_flags_land_on_run_config_fields(monkeypatch, command):
    seen = []

    def fake_run_command(cfg, cmd):
        seen.append((cfg, cmd))
        return ReportDocument(cmd, cfg.hash(), None, {}), 0

    monkeypatch.setattr(cli_reporting, "run_command", fake_run_command)
    flags = ["--fmin", "20", "--fmax", "300", "--df", "2", "--epsilon", "0.01",
             "--dalpha", "0.002", "--node", "3", "--ad-mode", "traditional",
             "--kv", "1.5", "--out", "elsewhere", "--formats", "json"]
    expected = RunConfig(network="net.json", fmin_hz=20.0, fmax_hz=300.0, df_hz=2.0,
                         epsilon_s=0.01, dalpha_s=0.002, node=3, ad_mode="traditional",
                         k_v=1.5, out_dir="elsewhere", formats=("json",))
    if command == "ad-curve":
        flags += ["--cluster", "gain_s", "--values", "0.03,0.06"]
        expected = dataclasses.replace(expected, cluster_param="gain_s",
                                       cluster_values=(0.03, 0.06))
    assert main([command, "--network", "net.json"]) == 0
    assert main([command, "--network", "net.json", *flags]) == 0
    assert seen == [(RunConfig(network="net.json"), command), (expected, command)]


def _plan_without_criticals(**settings):
    g = NetworkGraph((1,), (), (Shunt(1, GridImpedanceParams(10.0, 0.0)),
                                Shunt(1, CapacitorParams(10e-6))))
    _, traces, report = analyze(g, FrequencyGrid.regular(10.0, 100.0, 10.0))
    return plan(g, 1, traces, report, **{"epsilon": 0.005, **settings})


_CONFIG_CASES = [("fmin_hz", math.nan), ("fmax_hz", math.nan), ("fmax_hz", math.inf),
                 ("df_hz", math.nan), ("epsilon_s", math.nan), ("epsilon_s", math.inf),
                 ("dalpha_s", math.nan), ("dalpha_s", -math.inf)]


@pytest.mark.parametrize("build, message", [
    (lambda: FrequencyGrid((1.0, math.nan, 3.0)), "frequencies must be finite, got nan"),
    (lambda: FrequencyGrid((1.0, math.inf)), "frequencies must be finite, got inf"),
    (lambda: FrequencyGrid.regular(10.0, math.inf, 1.0), "fmax=inf"),
    *[(lambda name=name, value=value: RunConfig(network="net.json", **{name: value}),
       f"{name} must be finite, got {value}") for name, value in _CONFIG_CASES],
    (lambda: _plan_without_criticals(epsilon=math.nan), "epsilon must be finite and > 0, got nan"),
    (lambda: _plan_without_criticals(epsilon=math.inf), "epsilon must be finite and > 0, got inf"),
    (lambda: _plan_without_criticals(dalpha=math.nan), "dalpha must be finite and > 0, got nan"),
    *[(lambda value=value: RunConfig(network="net.json", dalpha_s=value),
       f"dalpha_s must be > 0, got {value}") for value in (0.0, -1.0)],
    *[(lambda value=value: _plan_without_criticals(dalpha=value),
       f"dalpha must be finite and > 0, got {value}") for value in (0.0, -1.0)],
], ids=["grid-nan", "grid-inf", "regular-inf",
        *[f"{name}-{value}" for name, value in _CONFIG_CASES],
        "plan-epsilon-nan", "plan-epsilon-inf", "plan-dalpha-nan",
        "dalpha_s-0", "dalpha_s--1", "plan-dalpha-0", "plan-dalpha--1"])
def test_non_finite_settings_are_rejected(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_cli_names_a_non_finite_option(fixture_path, tmp_path, capsys):
    code = main(["criticals", "--network", str(fixture_path), "--fmax", "nan",
                 "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == "error: fmax_hz must be finite, got nan\n"


@pytest.mark.parametrize("flags, message", [
    (["--kv", "nan"], "k_v must be finite, got nan"),
    (["--kv", "inf"], "k_v must be finite, got inf"),
    (["--cluster", "l_f_h", "--values", "nan,1e-3"], "cluster_values must be finite, got nan"),
    (["--cluster", "k_v", "--values", "1,inf"], "cluster_values must be finite, got inf"),
], ids=["kv-nan", "kv-inf", "values-nan", "values-inf"])
def test_ad_curve_rejects_a_non_finite_damper_setting(fixture_path, tmp_path, capsys, flags,
                                                      message):
    code = main(["ad-curve", "--network", str(fixture_path), "--out", str(tmp_path), *flags])
    assert code == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not list(tmp_path.iterdir())


def test_non_finite_damper_defaults_name_the_block(fixture_path, tmp_path, capsys):
    doc = json.loads(fixture_path.read_text())
    doc["damper_defaults"]["l_f_h"] = math.nan
    path = tmp_path / "nan_damper.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(NetworkFileError, match="damper_defaults: .*finite"):
        load_network(path).damper_defaults
    code = main(["ad-curve", "--network", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {path}: damper_defaults: ")


@pytest.mark.parametrize("mode", ["bogus", "traditional"])
def test_damper_defaults_take_no_mode(fixture_path, tmp_path, capsys, mode):
    """A mode in the block used to be overwritten with "proposed"; the
    run's --ad-mode picks the variant."""
    doc = json.loads(fixture_path.read_text())
    doc["damper_defaults"]["mode"] = mode
    path = tmp_path / "moded_damper.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(NetworkFileError) as err:
        load_network(path).damper_defaults
    assert str(err.value) == (f"{path}: damper_defaults: takes no 'mode'; a run's ad_mode "
                              "(--ad-mode) picks the damper variant")
    code = main(["ad-curve", "--network", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == f"error: {err.value}\n"


@pytest.mark.parametrize("command", ["plan", "verify"])
def test_cli_rejects_a_node_not_in_the_network_before_the_sweep(fixture_path, tmp_path,
                                                                capsys, monkeypatch, command):
    def no_analysis(*args, **kwargs):
        raise AssertionError("the baseline analysis ran")

    monkeypatch.setattr(cli_reporting, "analyze", no_analysis)
    code = main([command, "--network", str(fixture_path), "--node", "99",
                 "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: node 99 is not in the network {fixture_path} ")
    assert "Traceback" not in err


def test_ad_curve_rejects_a_node_not_in_the_network(fixture_path, tmp_path, capsys):
    """The node rule of plan and verify holds for ad-curve too, which writes
    nothing then."""
    out = tmp_path / "out"
    code = main(["ad-curve", "--network", str(fixture_path), "--node", "99",
                 "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: node 99 is not in the network {fixture_path} ")
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["sweep", "criticals", "rank", "plan", "verify"])
def test_one_point_grid_names_its_flags(fixture_path, tmp_path, capsys, monkeypatch,
                                        command):
    def no_analysis(*args, **kwargs):
        raise AssertionError("the baseline analysis ran")

    monkeypatch.setattr(cli_reporting, "analyze", no_analysis)
    code = main([command, "--network", str(fixture_path), "--fmin", "10", "--fmax", "10.5",
                 "--df", "1", "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == ("error: --fmin 10.0 --fmax 10.5 --df 1.0 give 1 "
                                       "sweep point; tracking needs at least 2\n")


def _at_60_hz(fixture_path, tmp_path) -> Path:
    """The fixture re-declared at a 60 Hz fundamental."""
    doc = json.loads(fixture_path.read_text())
    doc["fundamental_hz"] = 60.0
    path = tmp_path / "fx60.json"
    path.write_text(json.dumps(doc))
    return path


def test_verify_calibrates_at_the_file_fundamental(fixture_path, tmp_path, capsys):
    """At 60 Hz no gain keeps the damper planned at node 4 both conductive
    enough and quasi-resistive over the band: verify stops there."""
    code = main(["verify", "--network", str(_at_60_hz(fixture_path, tmp_path)),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert capsys.readouterr().err == (
        "error: conductance requirement 0.044 S and quasi-resistive bound |Im/Re| <= 0.1 "
        "conflict over [100.0, 2000.0] Hz\n")


@pytest.mark.parametrize("network, args", [
    ("missing", ["criticals"]),
    ("fixture", ["plan", "--node", "99"]),
    ("60 Hz", ["verify"]),
])
def test_a_run_that_fails_before_writing_leaves_no_output_directory(
        fixture_path, tmp_path, capsys, network, args):
    path = {"missing": tmp_path / "missing.json", "fixture": fixture_path,
            "60 Hz": _at_60_hz(fixture_path, tmp_path)}[network]
    code = main([args[0], "--network", str(path), "--out", str(tmp_path / "new"), *args[1:]])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "new").exists()


def test_ad_curve_accepts_a_one_point_grid(fixture_path, tmp_path):
    cfg = RunConfig(network=str(fixture_path), fmin_hz=10.0, fmax_hz=10.5, df_hz=1.0,
                    out_dir=str(tmp_path))
    _, code = run_command(cfg, "ad-curve")
    assert code == 0
    assert len((tmp_path / "ad_curve.csv").read_text().splitlines()) == 2


def test_cli_rejects_a_non_positive_dalpha(fixture_path, tmp_path, capsys):
    code = main(["plan", "--network", str(fixture_path), "--dalpha", "0",
                 "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == "error: dalpha_s must be > 0, got 0.0\n"


def test_table_backed_inverter_matches_analytic(fixture_path, tmp_path):
    # swap one analytic inverter for its own measurement table; the
    # assembled spectra must agree to interpolation accuracy
    import math

    from damp_planner.component_models import AdmittanceTable, inverter_block
    from damp_planner.network_assembly import assemble

    g = load_network(fixture_path)
    inv = next(s.device for s in g.shunts if isinstance(s.device, InverterParams))
    f_tab = np.logspace(1, math.log10(2600.0), 1500)
    table = AdmittanceTable(f_tab, inverter_block(inv, jw(f_tab), g.omega0))
    table.to_csv(tmp_path / "inv2.csv")

    doc = json.loads(fixture_path.read_text())
    for sh in doc["shunts"]:
        if sh.get("label") == "inverter-2":
            sh.pop("params")
            sh["table_path"] = "inv2.csv"
    net2 = tmp_path / "case_tab.json"
    net2.write_text(json.dumps(doc))

    g2 = load_network(net2)
    for f in (95.0, 433.0, 1777.0):
        lam1 = np.sort_complex(np.linalg.eigvals(assemble(g, f)))
        lam2 = np.sort_complex(np.linalg.eigvals(assemble(g2, f)))
        assert np.max(np.abs(lam1 - lam2)) <= 1e-3 * float(np.max(np.abs(lam1)))


@pytest.mark.parametrize("command, verdict, code", [
    ("sweep", "unstable", 2),
    ("criticals", "unstable", 2),
    ("rank", "unstable", 0),
    ("plan", "unstable", 0),
    ("ad-curve", None, 0),
    ("verify", "stable", 0),
])
def test_exit_code_contract(fixture_path, tmp_path, command, verdict, code):
    # sweep/criticals/verify exit by their verdict (0 stable, 2 unstable);
    # rank/plan/ad-curve exit 0 when they complete.  The 150-250 Hz window
    # keeps the fixture's 179 Hz critical crossover.
    cfg = RunConfig(network=str(fixture_path), fmin_hz=150.0, fmax_hz=250.0,
                    df_hz=2.0, out_dir=str(tmp_path))
    doc, got = run_command(cfg, command)
    assert (doc.verdict, got) == (verdict, code)


@pytest.mark.parametrize("command, sweeps", [("plan", 1), ("verify", 2)])
def test_one_baseline_analysis_per_command(fixture_path, tmp_path, monkeypatch,
                                           command, sweeps):
    # plan reuses the baseline analysis; verify adds only the re-assessment
    # with the damper installed
    real_stream = stability_engine._stream
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real_stream(*args, **kwargs)

    monkeypatch.setattr(stability_engine, "_stream", counted)
    cfg = RunConfig(network=str(fixture_path), fmin_hz=150.0, fmax_hz=250.0,
                    df_hz=2.0, out_dir=str(tmp_path))
    run_command(cfg, command)
    assert len(calls) == sweeps


def test_plan_and_verify_report_the_same_design(fixture_path, tmp_path):
    # verify calibrates the damper that plan designs, at the top-ranked node
    docs = {}
    for command in ("plan", "verify"):
        cfg = RunConfig(network=str(fixture_path), fmin_hz=150.0, fmax_hz=250.0,
                        df_hz=2.0, out_dir=str(tmp_path / command))
        run_command(cfg, command)
        docs[command] = json.loads((tmp_path / command / f"report_{command}.json").read_text())
    assert docs["plan"]["data"]["plan"]["entries"]
    assert docs["plan"]["data"]["plan"] == docs["verify"]["data"]["plan"]


def test_stable_verify_designs_and_installs_at_its_node(fixture_path, tmp_path):
    # 150-170 Hz holds no critical crossing: with nothing to rank, the
    # design node is --node, where the damper is installed
    cfg = RunConfig(network=str(fixture_path), fmin_hz=150.0, fmax_hz=170.0,
                    df_hz=2.0, node=2, out_dir=str(tmp_path))
    doc, code = run_command(cfg, "verify")
    assert (doc.data["before"]["verdict"], code) == ("stable", 0)
    assert doc.data["design_node"] == doc.data["install_node"] == 2
    assert doc.data["plan"]["node"] == 2


def test_stable_verify_installs_nothing_and_sweeps_once(fixture_path, tmp_path, monkeypatch):
    # with no critical crossing the plan is empty and k_v is 0: the baseline
    # is the verdict after, with no damper installed and no second sweep
    real_stream = stability_engine._stream
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real_stream(*args, **kwargs)

    monkeypatch.setattr(stability_engine, "_stream", counted)
    cfg = RunConfig(network=str(fixture_path), fmin_hz=150.0, fmax_hz=170.0,
                    df_hz=2.0, node=2, out_dir=str(tmp_path))
    doc, code = run_command(cfg, "verify")
    assert len(calls) == 1
    assert (doc.verdict, code) == ("stable", 0)
    assert doc.data["after"] == doc.data["before"]
    assert doc.data["calibrated_k_v"] == 0.0
    assert doc.data["damper_installed"] is False
    on_disk = json.loads((tmp_path / "report_verify.json").read_text())
    assert on_disk["data"]["damper_installed"] is False


def test_unstable_verify_reports_the_damper_installed(fixture_path, tmp_path):
    cfg = RunConfig(network=str(fixture_path), fmin_hz=150.0, fmax_hz=250.0,
                    df_hz=2.0, out_dir=str(tmp_path))
    doc, _ = run_command(cfg, "verify")
    assert doc.data["before"]["verdict"] == "unstable"
    assert doc.data["damper_installed"] is True
    assert doc.data["calibrated_k_v"] > 0.0


@pytest.mark.parametrize("command", ["verify", "ad-curve"])
def test_network_file_is_read_once_per_command(fixture_path, tmp_path, monkeypatch, command):
    real_read = cli_reporting._read_document
    reads = []

    def counted(path):
        reads.append(path)
        return real_read(path)

    monkeypatch.setattr(cli_reporting, "_read_document", counted)
    cfg = RunConfig(network=str(fixture_path), fmin_hz=150.0, fmax_hz=250.0,
                    df_hz=2.0, out_dir=str(tmp_path))
    run_command(cfg, command)
    assert len(reads) == 1


def test_module_entry_point_runs_without_runtime_warning(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    res = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "damp_planner",
                          "emit-fixture", str(tmp_path / "fx.json")],
                         env=env, capture_output=True, text=True, timeout=120)
    assert (res.returncode, res.stderr) == (0, "")
    assert (tmp_path / "fx.json").is_file()


@pytest.mark.slow
def test_main_verify_exit_codes(tmp_path):
    net = tmp_path / "net.json"
    emit_fixture(net)
    assert main(["verify", "--network", str(net), "--node", "4",
                 "--out", str(tmp_path / "v4")]) == 0
    assert main(["verify", "--network", str(net), "--node", "3",
                 "--out", str(tmp_path / "v3")]) == 2
    assert main(["verify", "--network", str(net), "--node", "4",
                 "--ad-mode", "traditional",
                 "--out", str(tmp_path / "v4t")]) == 2
    before_after = (tmp_path / "v4" / "verify_crossovers.csv").read_text().splitlines()
    assert before_after[0] == "phase,trace_id,f_cr_hz,re_lambda,verdict"
    assert any(ln.startswith("before") and "critical" in ln for ln in before_after)
    assert not any(ln.startswith("after") and "critical" in ln for ln in before_after)


def test_cli_help_lists_all_commands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for cmd in ("emit-fixture", "sweep", "criticals", "rank", "plan",
                "ad-curve", "verify"):
        assert cmd in out


def test_config_rejects_bad_sweep_range(fixture_path):
    with pytest.raises(ValueError):
        RunConfig(network=str(fixture_path), fmin_hz=0.0)
    with pytest.raises(ValueError):
        RunConfig(network=str(fixture_path), fmax_hz=1.0)
    with pytest.raises(ValueError):
        RunConfig(network=str(fixture_path), epsilon_s=0.0)
    with pytest.raises(ValueError):
        RunConfig(network=str(fixture_path), formats=("xml",))


@pytest.mark.parametrize("settings, message", [
    ({"cluster_values": (1.0, 2.0)}, r"cluster_values \(--values\) need cluster_param"),
    ({"cluster_param": "k_v"}, r"cluster_param \(--cluster k_v\) needs cluster_values"),
])
def test_config_rejects_a_cluster_half(settings, message):
    with pytest.raises(ValueError, match=message):
        RunConfig(network="net.json", **settings)


def test_config_rejects_an_unknown_cluster_param():
    with pytest.raises(ValueError, match=r"cluster_param \(--cluster\) must be one of "
                                         r"l_f_h, gain_s, k_v, got 'xi'"):
        RunConfig(network="net.json", cluster_param="xi", cluster_values=(0.5,))


def test_ad_curve_values_without_cluster_is_an_error(fixture_path, tmp_path, capsys):
    code = main(["ad-curve", "--network", str(fixture_path), "--values", "1,2",
                 "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: cluster_values (--values)")
    assert not list(tmp_path.iterdir())


def test_ad_curve_beyond_the_damper_f_s_half_is_an_error(fixture_path, tmp_path, capsys):
    # the fixture damper samples at 40 kHz: a curve up to 30 kHz passes
    # its f_s/2 = 20 kHz
    code = main(["ad-curve", "--network", str(fixture_path), "--fmax", "30000",
                 "--df", "500", "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: f reaches 29510.0 Hz, not below the sampled control's "
                          "f_s/2 = 20000.0 Hz")
    assert not (tmp_path / "ad_curve.csv").exists()


def test_sweep_beyond_the_inverter_f_s_half_names_the_grid_frequency(fixture_path, tmp_path,
                                                                    capsys):
    # the fixture inverters sample at 10 kHz; the assembly hands them
    # s = j*2*pi*f, and the guard names f as given, not Im s/2pi
    # (5219.000000000001)
    code = main(["criticals", "--network", str(fixture_path), "--fmax", "5219",
                 "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == ("error: f reaches 5219.0 Hz, not below the sampled "
                                       "control's f_s/2 = 5000.0 Hz\n")


def test_sweep_far_beyond_the_inverter_f_s_half_names_the_grid_top(fixture_path, tmp_path,
                                                                   capsys):
    # 10-9000 Hz @ 1 Hz passes f_s/2 = 5000 Hz in many of its chunks: the
    # error names the grid's top frequency, as one assembly of the grid
    # would, not the top of the first chunk past 5000 Hz
    code = main(["criticals", "--network", str(fixture_path), "--fmax", "9000",
                 "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == ("error: f reaches 9000.0 Hz, not below the sampled "
                                       "control's f_s/2 = 5000.0 Hz\n")


def test_criticals_grid_stays_below_fmax(fixture_path, tmp_path):
    # 2-4999.5 Hz @ 2 Hz ends at 4998 Hz, below the controls' f_s/2 = 5000 Hz
    code = main(["criticals", "--network", str(fixture_path), "--fmin", "2",
                 "--fmax", "4999.5", "--df", "2", "--out", str(tmp_path)])
    assert code in (0, 2)


def test_formats_selects_emitted_files(fixture_path, tmp_path):
    cfg = RunConfig(network=str(fixture_path), fmin_hz=150.0, fmax_hz=250.0,
                    df_hz=5.0, out_dir=str(tmp_path), formats=("json",))
    run_command(cfg, "criticals")
    assert not (tmp_path / "crossovers.csv").exists()
    assert (tmp_path / "report_criticals.json").exists()
