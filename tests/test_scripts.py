import ast
import csv
import json
import math
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import damp_planner
from damp_planner import cli_reporting, compensation_planner, stability_engine
from damp_planner.cli_reporting import CASE_STUDY_AD_PARAMS, CASE_STUDY_INVERTER_PARAMS
from damp_planner.component_models import ADParams, ad_scalar

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


@pytest.mark.parametrize("script, args", [
    ("run_case_study.py", ["--fmax", "400"]),
    ("ad_admittance_curves.py", []),
])
def test_script_runs_to_completion(tmp_path, script, args):
    # the scripts call the library API directly, so a signature change
    # would otherwise break them unnoticed
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    res = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args,
                          "--out", str(tmp_path)],
                         env=env, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr


def run_script(monkeypatch, script, *args):
    """Run a script in this process, as from the command line."""
    monkeypatch.setattr(sys, "argv", [str(SCRIPTS / script), *args])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert done.value.code == 0


def test_case_study_runs_one_baseline_analysis(tmp_path, monkeypatch, capsys):
    """One analyze for the baseline, which the sweep, criticals, rank and
    plan writers share, and one per verification: 4, where writing the
    pipeline out by hand next to four run_command calls made 8.  One plan,
    the damper design that plan and the three verifications share, where
    each of those writers planned on its own made 4."""
    calls = []
    real = stability_engine.analyze

    def counted(*args, **kwargs):
        calls.append(args[1])
        return real(*args, **kwargs)

    for mod in (damp_planner, stability_engine, cli_reporting, compensation_planner):
        monkeypatch.setattr(mod, "analyze", counted)
    plans = []
    real_plan = cli_reporting.plan

    def counted_plan(g, node_id, *args, **kwargs):
        plans.append(node_id)
        return real_plan(g, node_id, *args, **kwargs)

    monkeypatch.setattr(cli_reporting, "plan", counted_plan)
    run_script(monkeypatch, "run_case_study.py", "--fmax", "400", "--out", str(tmp_path))
    assert len(calls) == 4
    assert plans == [4]
    stdout = capsys.readouterr().out
    for line in ["verify: proposed damper at node 4: stable",
                 "verify: proposed damper at node 3: unstable",
                 "verify: traditional damper at node 4: stable"]:
        assert f"\n{line}\n" in stdout
    for name in ["traces.csv", "crossovers.csv", "kc_table.csv", "plan.csv",
                 "report_sweep.json", "report_criticals.json", "report_rank.json",
                 "report_plan.json"]:
        assert (tmp_path / name).is_file()
    for sub in ["verify_top", "verify_runner_up", "verify_traditional"]:
        assert {p.name for p in (tmp_path / sub).iterdir()} == {
            "report_verify.json", "verify_crossovers.csv"}


def test_case_study_checks_its_grid_before_the_sweep(tmp_path, monkeypatch, capsys):
    """A one-point grid stops the script before any analysis, with the
    CLI's message, not in the tracker."""
    def no_analysis(*args, **kwargs):
        raise AssertionError("the baseline analysis ran")

    monkeypatch.setattr(damp_planner, "analyze", no_analysis)
    monkeypatch.setattr(sys, "argv", [str(SCRIPTS / "run_case_study.py"), "--fmax", "10",
                                      "--out", str(tmp_path)])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SCRIPTS / "run_case_study.py"), run_name="__main__")
    assert done.value.code == 1
    assert capsys.readouterr().err == ("error: --fmin 10.0 --fmax 10.0 --df 1.0 give 1 sweep "
                                       "point; tracking needs at least 2\n")


@pytest.mark.parametrize("script, args, message", [
    ("run_case_study.py", ["--network", "missing.json"],
     "missing.json: [Errno 2] No such file or directory: 'missing.json'"),
    ("ad_admittance_curves.py", ["--kv", "nan"], "k_v must be finite, got nan"),
], ids=["case-study-missing-network", "curves-non-finite-kv"])
def test_scripts_report_an_operational_error_as_one_line(tmp_path, monkeypatch, capsys,
                                                         script, args, message):
    """Each used to end in a Python traceback; the CLI's main() prints the
    same errors as one "error: " line and exits 1."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", [str(SCRIPTS / script), *args, "--out", "out"])
    with pytest.raises(SystemExit) as done:
        runpy.run_path(str(SCRIPTS / script), run_name="__main__")
    assert done.value.code == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_case_study_compensates_a_one_node_network(tmp_path, monkeypatch, capsys):
    """One node (a grid tie and the case-study inverter) has a critical
    crossing at 162.7 Hz; the script used to say "nothing to compensate"
    there, as no runner-up ranks.  It plans and verifies at that node and
    skips only the runner-up verification."""
    net = tmp_path / "one_node.json"
    net.write_text(json.dumps({
        "nodes": [1],
        "shunts": [{"type": "grid", "node": 1, "params": {"r_ohm": 0.2, "l_h": 6e-3}},
                   {"type": "inverter", "node": 1, "params": CASE_STUDY_INVERTER_PARAMS}],
        "damper_defaults": CASE_STUDY_AD_PARAMS}))
    run_script(monkeypatch, "run_case_study.py", "--network", str(net), "--fmax", "300",
               "--out", str(tmp_path / "out"))
    lines = capsys.readouterr().out.splitlines()
    assert "  critical: trace 2 at   162.70 Hz, Re = -0.05321 S" in lines
    assert "plan at node 1: required Re[Y] >= 0.0590 S over [100, 200] Hz" in lines
    assert "one ranked node: no runner-up to verify" in lines
    assert "calibrated damper gain k_v = 0.5420" in lines
    assert "verify: proposed damper at node 1: stable" in lines
    assert "verify: traditional damper at node 1: stable" in lines
    assert not (tmp_path / "out" / "verify_runner_up").exists()


def test_case_study_has_no_workflow_of_its_own():
    """The plan, calibration, ranking and verification belong to the CLI's
    command writers; the script names none of the library functions
    behind them."""
    tree = ast.parse((SCRIPTS / "run_case_study.py").read_text())
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    assert not names & {"plan", "calibrate_ad", "verify_with_ad", "rank_locations",
                        "compensation_table"}


def test_damper_curves_are_ad_curve_runs(tmp_path, monkeypatch):
    """One ad-curve run per mode and per cluster, each into its own
    subdirectory; the curves are the fixture damper's at the 50 Hz
    fundamental of its file."""
    runs = []
    real = cli_reporting.run_command

    def recorded(cfg, command):
        runs.append((Path(cfg.out_dir).name, command))
        return real(cfg, command)

    monkeypatch.setattr(damp_planner, "run_command", recorded)
    run_script(monkeypatch, "ad_admittance_curves.py", "--fmax", "200", "--out", str(tmp_path))
    subdirs = ["proposed", "traditional", "cluster_l_f_h", "cluster_gain_s", "cluster_k_v"]
    assert runs == [(sub, "ad-curve") for sub in subdirs]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([*subdirs, "network.json"])
    for mode in ("proposed", "traditional"):
        with open(tmp_path / mode / "ad_curve.csv") as fh:
            rows = list(csv.reader(fh))[1:]
        p = ADParams(**{**CASE_STUDY_AD_PARAMS, "k_v": 1.5, "mode": mode})
        f = [float(row[0]) for row in rows]
        assert f == [10.0 + 2.0 * k for k in range(96)]
        y = ad_scalar(p, f, 2 * math.pi * 50.0)
        assert [row[1:3] for row in rows] == [[format(v.real, ".9g"), format(v.imag, ".9g")]
                                              for v in y]
