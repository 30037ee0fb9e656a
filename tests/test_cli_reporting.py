import json

import numpy as np
import pytest

import damp_planner
from damp_planner import cli_reporting, network_assembly, stability_engine
from damp_planner.cli_reporting import (
    NetworkFileError,
    RunConfig,
    damper_defaults_from_file,
    emit_fixture,
    load_network,
    main,
    run_command,
)
from damp_planner.component_models import GridImpedanceParams, InverterParams


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
    ad = damper_defaults_from_file(fixture_path)
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
], ids=["top-level-list", "branch-not-object", "shunt-not-object", "node-not-numeric",
        "fundamental-not-numeric", "ad-curve-top-level-list", "damper-defaults-not-object"])
def test_malformed_network_file_names_file_and_element(tmp_path, capsys, command, text,
                                                        element):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code = main([command, "--network", str(path), "--out", str(tmp_path / "out")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith(f"error: {path}: {element}: ")


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


@pytest.mark.parametrize("table_text, where", [
    (_TABLE_HEADER + "10,1,0,0,0,0,0,1,0\n100,1,0,0\n", "inv2.csv:3:"),
    ("", "inv2.csv:1:"),
], ids=["short-row", "empty-file"])
def test_malformed_admittance_table_is_a_network_file_error(
        tmp_path, fixture_path, capsys, table_text, where):
    net = _network_with_table(tmp_path, fixture_path, table_text)
    with pytest.raises(NetworkFileError, match=where):
        load_network(net)
    code = main(["criticals", "--network", str(net), "--out", str(tmp_path / "out")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


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


def test_table_backed_inverter_matches_analytic(fixture_path, tmp_path):
    # swap one analytic inverter for its own measurement table; the
    # assembled spectra must agree to interpolation accuracy
    import math

    from damp_planner.component_models import tabulate
    from damp_planner.network_assembly import assemble

    g = load_network(fixture_path)
    inv = next(s.device for s in g.shunts if isinstance(s.device, InverterParams))
    table = tabulate(inv, np.logspace(1, math.log10(2600.0), 1500), g.omega0)
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
    real_sweep = stability_engine.sweep
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real_sweep(*args, **kwargs)

    monkeypatch.setattr(stability_engine, "sweep", counted)
    cfg = RunConfig(network=str(fixture_path), fmin_hz=150.0, fmax_hz=250.0,
                    df_hz=2.0, out_dir=str(tmp_path))
    run_command(cfg, command)
    assert len(calls) == sweeps


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


def test_rank_respects_candidate_node_filter(fixture_path, tmp_path):
    cfg = RunConfig(network=str(fixture_path), out_dir=str(tmp_path),
                    candidate_nodes=(1, 2))
    doc, _ = run_command(cfg, "rank")
    assert {r["node"] for r in doc.data["ranking"]} == {1, 2}


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


def test_formats_selects_emitted_files(fixture_path, tmp_path):
    cfg = RunConfig(network=str(fixture_path), fmin_hz=150.0, fmax_hz=250.0,
                    df_hz=5.0, out_dir=str(tmp_path), formats=("json",))
    run_command(cfg, "criticals")
    assert not (tmp_path / "crossovers.csv").exists()
    assert (tmp_path / "report_criticals.json").exists()
