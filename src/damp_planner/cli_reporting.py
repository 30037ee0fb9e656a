"""Configuration ingestion, network files, the command-line workflow and
CSV/JSON report emission.

Network files are JSON documents with top-level keys `nodes`, `branches`,
`shunts`, `fundamental_hz`.  Branches: {type: rl|pi_cable|transformer,
from, to, r_ohm, l_h, c_f?}.  Shunts: {type: inverter|ad|grid|capacitor,
node, params|table_path}.  All emitted CSV data uses 9-significant-digit
fixed formatting so identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .component_models import (
    ADParams,
    AdmittanceTable,
    CapacitorParams,
    GridImpedanceParams,
    InverterParams,
    PiCableParams,
    RlBranchParams,
    ad_scalar,
    ad_curve_cluster,
)
from .compensation_planner import (
    calibrate_ad,
    compensation_table,
    plan,
    rank_locations,
    verify_with_ad,
)
from .dq_core import FrequencyGrid
from .network_assembly import (
    Branch,
    InvalidNetworkError,
    NetworkGraph,
    Shunt,
)
from .stability_engine import analyze

EXIT_STABLE = 0
EXIT_ERROR = 1
EXIT_UNSTABLE = 2


class NetworkFileError(ValueError):
    """Network file failed to parse or validate."""


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


@dataclass(frozen=True)
class RunConfig:
    """Everything one command run depends on (hashed into every report)."""

    network: str
    fmin_hz: float = 10.0
    fmax_hz: float = 2500.0
    df_hz: float = 1.0
    epsilon_s: float = 0.005
    dalpha_s: float = 1e-3
    node: int | None = None
    ad_mode: str = "proposed"
    k_v: float | None = None
    out_dir: str = "out"
    formats: tuple[str, ...] = ("csv", "json")
    candidate_nodes: tuple[int, ...] | None = None
    cluster_param: str | None = None
    cluster_values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.fmin_hz <= 0 or self.fmax_hz < self.fmin_hz or self.df_hz <= 0:
            raise ValueError("sweep range must be positive and ordered")
        if self.epsilon_s <= 0:
            raise ValueError("epsilon must be > 0")
        if not self.formats or any(f not in ("csv", "json") for f in self.formats):
            raise ValueError("formats must be a non-empty subset of {csv, json}")

    def grid(self) -> FrequencyGrid:
        return FrequencyGrid.regular(self.fmin_hz, self.fmax_hz, self.df_hz)

    def hash(self) -> str:
        blob = json.dumps(dataclasses.asdict(self), sort_keys=True, default=str)
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


@dataclass
class ReportDocument:
    """Run metadata plus the command's result tables."""

    command: str
    config_hash: str
    verdict: str | None
    data: dict
    tool: str = "damp-planner"
    version: str = __version__
    created_utc: str = ""

    def __post_init__(self):
        if not self.created_utc:
            self.created_utc = datetime.now(timezone.utc).isoformat()

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            json.dump(dataclasses.asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")


# ---------------------------------------------------------------------------
# network file IO
# ---------------------------------------------------------------------------

_BRANCH_TYPES = ("rl", "pi_cable", "transformer")
_SHUNT_TYPES = {"inverter": InverterParams, "ad": ADParams,
                "grid": GridImpedanceParams, "capacitor": CapacitorParams}


def _at(where: str, build, /, *args, **kwargs):
    """build(*args, **kwargs), with malformed input reported as a
    NetworkFileError naming where."""
    try:
        return build(*args, **kwargs)
    except KeyError as e:
        raise NetworkFileError(f"{where}: missing field {e}") from None
    except (NetworkFileError, TypeError, ValueError, OSError) as e:
        raise NetworkFileError(f"{where}: {e}") from None


def _expect(kind: type, value):
    """value, which must be a JSON object (kind dict) or list (kind list)."""
    if not isinstance(value, kind):
        raise NetworkFileError(f"expected {'an object' if kind is dict else 'a list'}, "
                               f"got {type(value).__name__}")
    return value


def _build_branch(idx: int, obj) -> Branch:
    btype = _expect(dict, obj).get("type")
    if btype not in _BRANCH_TYPES:
        raise NetworkFileError(
            f"unknown branch type {btype!r} (expected one of {_BRANCH_TYPES})")
    if btype == "pi_cable":
        model = PiCableParams(float(obj["r_ohm"]), float(obj["l_h"]), float(obj["c_f"]))
    else:
        model = RlBranchParams(float(obj["r_ohm"]), float(obj["l_h"]))
    return Branch(int(obj["from"]), int(obj["to"]), model,
                  label=obj.get("label", f"{btype}[{idx}]"))


def _build_shunt(idx: int, obj, base_dir: Path) -> Shunt:
    stype = _expect(dict, obj).get("type")
    if stype not in _SHUNT_TYPES:
        raise NetworkFileError(
            f"unknown shunt type {stype!r} (expected one of {tuple(_SHUNT_TYPES)})")
    node = int(obj["node"])
    if "table_path" in obj:
        if stype != "inverter":
            raise NetworkFileError("table_path is only valid for inverter shunts")
        device = AdmittanceTable.from_csv(base_dir / obj["table_path"])
    else:
        device = _SHUNT_TYPES[stype](**obj["params"])
    return Shunt(node, device, label=obj.get("label", f"{stype}[{idx}]"))


def _read_document(path: Path) -> dict:
    """The parsed JSON document of a network file, which must be an
    object; raises NetworkFileError naming the file, with the parse
    position for malformed JSON."""
    try:
        doc = json.loads(path.read_text())
    except OSError as e:
        raise NetworkFileError(f"{path}: {e}") from None
    except json.JSONDecodeError as e:
        raise NetworkFileError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from None
    return _at(f"{path}: top level", _expect, dict, doc)


def load_network(path) -> NetworkGraph:
    """Parse and validate a network file; raises NetworkFileError naming
    the file and the parse position, the malformed element or all
    validation diagnostics."""
    path = Path(path)
    doc = _read_document(path)
    nodes, branches, shunts = (_at(f"{path}: {key}", _expect, list, doc.get(key, []))
                               for key in ("nodes", "branches", "shunts"))
    omega0 = 2 * math.pi * _at(f"{path}: fundamental_hz", float,
                               doc.get("fundamental_hz", 50.0))
    nodes = tuple(_at(f"{path}: nodes[{i}]", int, n) for i, n in enumerate(nodes))
    branches = tuple(_at(f"{path}: branches[{i}]", _build_branch, i, b)
                     for i, b in enumerate(branches))
    shunts = tuple(_at(f"{path}: shunts[{i}]", _build_shunt, i, s, path.parent)
                   for i, s in enumerate(shunts))
    g = NetworkGraph(nodes, branches, shunts, omega0)

    # the graph's cached validation, which its assembly reuses
    if g._diagnostics:
        raise NetworkFileError(f"{path}: " + "; ".join(g._diagnostics))
    return g


def damper_defaults_from_file(path, mode: str = "proposed",
                              k_v: float = 0.0) -> ADParams:
    """AD base parameters from the network file's damper_defaults block,
    falling back to the built-in case-study set when the block is absent."""
    where = f"{Path(path)}: damper_defaults"
    params = _at(where, _expect, dict,
                 _read_document(Path(path)).get("damper_defaults", CASE_STUDY_AD_PARAMS))
    # the file's k_v, when it has one, wins over the argument
    return _at(where, ADParams, **{"k_v": k_v, **params, "mode": mode})


# ---------------------------------------------------------------------------
# built-in case-study fixture
# ---------------------------------------------------------------------------

CASE_STUDY_INVERTER_PARAMS = {
    "v_dc": 750.0,
    "l_h": 2.5e-3,
    "c_f": 15e-6,
    "i_d": 50.0,
    "i_q": 0.0,
    "k_pi": 10.0,
    "k_ii": 300.0,
    "k_p_pll": 6.0,
    "k_i_pll": 100.0,
    "f_s_hz": 10e3,
    "v_d0": 311.0,
}

CASE_STUDY_AD_PARAMS = {
    "v_dc": 750.0,
    "l_f_h": 0.8e-3,
    "k_pi": 5.0,
    "k_ii": 100.0,
    "xi": 0.707,
    "tau_s": 0.0014,
    "beta": 2.0,
    "omega_low_rad_s": 12566.36,
    "omega_c_rad_s": 21991.13,
    "gain_s": 0.06,
    "k_v": 0.0,
    "f_s_hz": 40e3,
}

_FIXTURE_NOTES = [
    "Topology: ideal grid - cable - node 1 - transformer - node 2 (busbar, "
    "inverter 1) - line 1 - node 3 (inverter 2) - line 2 - node 4 (inverter 3).",
    "The ideal grid is a small-signal short, so the cable appears as a series "
    "R-L shunt at node 1; the cable charging capacitance (12 uF total) is "
    "neglected in this grid equivalent.",
    "Inverter operating-point terminal voltage v_d0 = 311 V (amplitude-"
    "invariant dq, 50 Hz system); not part of the published parameter set.",
    "Transformer is a series R-L referred to its low-voltage side; no "
    "magnetizing branch.",
    "damper_defaults hold the shunt damper design values; k_v = 0 means "
    "uncalibrated (the plan/verify workflow calibrates it).",
]


def emit_fixture(path) -> Path:
    """Write the built-in three-inverter case-study network file."""
    doc = {
        "fundamental_hz": 50.0,
        "nodes": [1, 2, 3, 4],
        "branches": [
            {"type": "transformer", "from": 1, "to": 2,
             "r_ohm": 0.0032, "l_h": 0.0764e-3, "label": "transformer"},
            {"type": "rl", "from": 2, "to": 3,
             "r_ohm": 0.04, "l_h": 1.5e-3, "label": "line-1"},
            {"type": "rl", "from": 3, "to": 4,
             "r_ohm": 0.06, "l_h": 2.0e-3, "label": "line-2"},
        ],
        "shunts": [
            {"type": "grid", "node": 1, "label": "grid-cable",
             "params": {"r_ohm": 0.2, "l_h": 0.3e-3}},
            {"type": "inverter", "node": 2, "label": "inverter-1",
             "params": dict(CASE_STUDY_INVERTER_PARAMS)},
            {"type": "inverter", "node": 3, "label": "inverter-2",
             "params": dict(CASE_STUDY_INVERTER_PARAMS)},
            {"type": "inverter", "node": 4, "label": "inverter-3",
             "params": dict(CASE_STUDY_INVERTER_PARAMS)},
        ],
        "damper_defaults": dict(CASE_STUDY_AD_PARAMS),
        "notes": _FIXTURE_NOTES,
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# CSV emission
# ---------------------------------------------------------------------------

def _write_csv(cfg: "RunConfig", path: Path, header: list[str], rows) -> None:
    if "csv" not in cfg.formats:
        return
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _trace_rows(traces):
    for tr in traces:
        for f, lam in zip(tr.f_hz, tr.lam):
            yield [_fmt(f), tr.trace_id, _fmt(lam.real), _fmt(lam.imag)]


def _crossover_rows(events):
    for e in events:
        yield [e.trace_id, _fmt(e.f_cr_hz), _fmt(e.re_lambda), e.verdict]


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _verdict_str(report) -> str:
    return "stable" if report.stable else "unstable"


def _events_data(events) -> list[dict]:
    return [{"trace_id": e.trace_id, "f_cr_hz": e.f_cr_hz,
             "re_lambda_s": e.re_lambda, "direction": e.direction,
             "verdict": e.verdict} for e in events]


def cmd_sweep(cfg: RunConfig, out: Path) -> tuple[ReportDocument, int]:
    g = load_network(cfg.network)
    _, traces, report = analyze(g, cfg.grid())
    _write_csv(cfg, out / "traces.csv", ["f_hz", "trace_id", "re_lambda", "im_lambda"],
               _trace_rows(traces))
    doc = ReportDocument("sweep", cfg.hash(), _verdict_str(report),
                         {"crossovers": _events_data(report.events),
                          "n_traces": len(traces)})
    return doc, EXIT_STABLE if report.stable else EXIT_UNSTABLE


def cmd_criticals(cfg: RunConfig, out: Path) -> tuple[ReportDocument, int]:
    g = load_network(cfg.network)
    _, _, report = analyze(g, cfg.grid())
    _write_csv(cfg, out / "crossovers.csv", ["trace_id", "f_cr_hz", "re_lambda", "verdict"],
               _crossover_rows(report.events))
    doc = ReportDocument("criticals", cfg.hash(), _verdict_str(report),
                         {"crossovers": _events_data(report.events),
                          "critical_trace_ids": list(report.critical_trace_ids)})
    return doc, EXIT_STABLE if report.stable else EXIT_UNSTABLE


def _ranked_nodes(g, traces, report, candidates=None, epsilon=0.005):
    coeffs = compensation_table(g, traces, report.critical_events)
    if candidates is not None:
        wanted = {g.node_index(n) for n in candidates}
        coeffs = [c for c in coeffs if c.node_index in wanted]
    demands = {e.trace_id: max(epsilon - e.re_lambda, 1e-12)
               for e in report.critical_events}
    return coeffs, rank_locations(coeffs, demands)


def cmd_rank(cfg: RunConfig, out: Path) -> tuple[ReportDocument, int]:
    g = load_network(cfg.network)
    _, traces, report = analyze(g, cfg.grid())
    coeffs, ranks = _ranked_nodes(g, traces, report, cfg.candidate_nodes,
                                  cfg.epsilon_s)
    rows = [[g.nodes[c.node_index], c.trace_id, _fmt(c.f_cr_hz),
             _fmt(c.value.real), _fmt(c.value.imag)] for c in coeffs]
    _write_csv(cfg, out / "kc_table.csv",
               ["node", "trace_id", "f_cr_hz", "re_kc", "im_kc"], rows)
    doc = ReportDocument("rank", cfg.hash(), _verdict_str(report), {
        "ranking": [{"node": g.nodes[r.node_index],
                     "score": r.score} for r in ranks],
        "crossovers": _events_data(report.events),
    })
    return doc, EXIT_STABLE


def _plan_at(cfg: RunConfig, g, traces, report):
    if cfg.node is not None:
        node_id = cfg.node
    else:
        _, ranks = _ranked_nodes(g, traces, report, cfg.candidate_nodes,
                                 cfg.epsilon_s)
        if not ranks:
            node_id = g.nodes[0]
        else:
            node_id = g.nodes[ranks[0].node_index]
    return node_id, plan(g, node_id, traces, report, cfg.epsilon_s, cfg.dalpha_s)


def _plan_data(g, node_id, cplan) -> dict:
    return {
        "node": node_id,
        "epsilon_s": cplan.epsilon_s,
        "dalpha_s": cplan.dalpha_s,
        "band_lo_hz": cplan.band_lo_hz,
        "band_hi_hz": cplan.band_hi_hz,
        "required_re_yad_s": cplan.required_re_yad_s,
        "entries": [{"trace_id": e.trace_id,
                     "f_cr_start_hz": e.f_cr_start_hz,
                     "f_cr_final_hz": e.f_cr_final_hz,
                     "re_lambda_start_s": e.re_lambda_start,
                     "alpha_s": e.alpha_s,
                     "iterations": e.iterations,
                     "predicted_re_s": e.predicted_re} for e in cplan.entries],
    }


def cmd_plan(cfg: RunConfig, out: Path) -> tuple[ReportDocument, int]:
    g = load_network(cfg.network)
    _, traces, report = analyze(g, cfg.grid())
    node_id, cplan = _plan_at(cfg, g, traces, report)
    rows = [[e.trace_id, _fmt(e.f_cr_start_hz), _fmt(e.f_cr_final_hz),
             _fmt(e.alpha_s), e.iterations, _fmt(e.predicted_re)]
            for e in cplan.entries]
    _write_csv(cfg, out / "plan.csv",
               ["trace_id", "f_cr_start_hz", "f_cr_final_hz", "alpha_s",
                "iterations", "predicted_re"], rows)
    doc = ReportDocument("plan", cfg.hash(), _verdict_str(report),
                         {"plan": _plan_data(g, node_id, cplan)})
    return doc, EXIT_STABLE


def cmd_ad_curve(cfg: RunConfig, out: Path) -> tuple[ReportDocument, int]:
    base = damper_defaults_from_file(cfg.network, mode=cfg.ad_mode)
    k_v = cfg.k_v if cfg.k_v is not None else 1.0
    p = dataclasses.replace(base, k_v=k_v)
    grid = cfg.grid()
    if cfg.cluster_param:
        curves = ad_curve_cluster(p, cfg.cluster_param, cfg.cluster_values or (), grid)
        rows = []
        for c in curves:
            for f, y in zip(c.f_hz, c.y):
                ratio = abs(y.imag / y.real) if y.real else float("inf")
                rows.append([_fmt(c.value), _fmt(f), _fmt(y.real), _fmt(y.imag),
                             _fmt(ratio)])
        _write_csv(cfg, out / "ad_curve_cluster.csv",
                   [cfg.cluster_param, "f_hz", "re_y_s", "im_y_s", "abs_im_re_ratio"],
                   rows)
        data = {"mode": cfg.ad_mode, "k_v": k_v,
                "cluster_param": cfg.cluster_param,
                "cluster_values": list(cfg.cluster_values or ())}
    else:
        y = ad_scalar(p, grid.hz, grid.omega0)
        with np.errstate(divide="ignore"):
            ratio = np.abs(y.imag / y.real)
        rows = [[_fmt(f), _fmt(v.real), _fmt(v.imag), _fmt(r)]
                for f, v, r in zip(grid.hz, y, ratio)]
        _write_csv(cfg, out / "ad_curve.csv",
                   ["f_hz", "re_y_s", "im_y_s", "abs_im_re_ratio"], rows)
        data = {"mode": cfg.ad_mode, "k_v": k_v}
    doc = ReportDocument("ad-curve", cfg.hash(), None, data)
    return doc, EXIT_STABLE


def cmd_verify(cfg: RunConfig, out: Path) -> tuple[ReportDocument, int]:
    g = load_network(cfg.network)
    _, traces, report = analyze(g, cfg.grid())
    coeffs, ranks = _ranked_nodes(g, traces, report, cfg.candidate_nodes,
                                  cfg.epsilon_s)
    if ranks:
        top_node = g.nodes[ranks[0].node_index]
    else:
        top_node = cfg.node if cfg.node is not None else g.nodes[0]

    # the damper is always designed for the top-ranked location; --node
    # only moves where it is installed
    cplan = plan(g, top_node, traces, report, cfg.epsilon_s, cfg.dalpha_s)
    base = damper_defaults_from_file(cfg.network, mode="proposed")
    calibrated = calibrate_ad(cplan, base, omega0=g.omega0, df=cfg.df_hz)
    if cfg.ad_mode == "traditional":
        calibrated = dataclasses.replace(calibrated, mode="traditional")
    install_node = cfg.node if cfg.node is not None else top_node

    after = verify_with_ad(g, install_node, calibrated, cfg.grid())

    rows = [["before", *row] for row in _crossover_rows(report.events)]
    rows += [["after", *row] for row in _crossover_rows(after.events)]
    _write_csv(cfg, out / "verify_crossovers.csv",
               ["phase", "trace_id", "f_cr_hz", "re_lambda", "verdict"], rows)
    doc = ReportDocument("verify", cfg.hash(), _verdict_str(after), {
        "install_node": install_node,
        "design_node": top_node,
        "ad_mode": cfg.ad_mode,
        "calibrated_k_v": calibrated.k_v,
        "plan": _plan_data(g, top_node, cplan),
        "before": {"verdict": _verdict_str(report),
                   "crossovers": _events_data(report.events)},
        "after": {"verdict": _verdict_str(after),
                  "crossovers": _events_data(after.events)},
    })
    return doc, EXIT_STABLE if after.stable else EXIT_UNSTABLE


_COMMANDS = {
    "sweep": cmd_sweep,
    "criticals": cmd_criticals,
    "rank": cmd_rank,
    "plan": cmd_plan,
    "ad-curve": cmd_ad_curve,
    "verify": cmd_verify,
}


def run_command(cfg: RunConfig, command: str) -> tuple[ReportDocument, int]:
    """Run one workflow command; writes its data files and report JSON
    into cfg.out_dir and returns (report, exit code)."""
    if command not in _COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    doc, code = _COMMANDS[command](cfg, out)
    if "json" in cfg.formats:
        doc.write(out / f"report_{command.replace('-', '_')}.json")
    return doc, code


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--network", required=True, help="network JSON file")
    p.add_argument("--fmin", type=float, default=10.0, help="sweep start [Hz]")
    p.add_argument("--fmax", type=float, default=2500.0, help="sweep end [Hz]")
    p.add_argument("--df", type=float, default=1.0, help="sweep spacing [Hz]")
    p.add_argument("--epsilon", type=float, default=0.005,
                   help="damping margin for planning [S]")
    p.add_argument("--dalpha", type=float, default=1e-3,
                   help="conductance step for planning [S]")
    p.add_argument("--node", type=int, default=None,
                   help="target node id (default: top-ranked)")
    p.add_argument("--ad-mode", choices=["proposed", "traditional"],
                   default="proposed", help="damper control variant")
    p.add_argument("--kv", type=float, default=None,
                   help="damper gain for ad-curve (default 1.0)")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--formats", default="csv,json",
                   help="comma-separated output formats (csv, json)")


class _Parser(argparse.ArgumentParser):
    # usage problems are operational errors (exit 1); exit 2 is reserved
    # for an unstable verdict
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_ERROR, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="damp-planner",
        description="Frequency-domain stability analysis and damping-"
                    "compensation planning for multi-inverter AC networks.")
    sub = ap.add_subparsers(dest="command", required=True)

    fx = sub.add_parser("emit-fixture", help="write the built-in case-study network")
    fx.add_argument("path", help="destination network JSON file")

    for name, help_text in [
            ("sweep", "eigenvalue traces over the frequency grid"),
            ("criticals", "crossover table and stability verdict"),
            ("rank", "compensation coefficients and damper placement ranking"),
            ("plan", "required damping compensation at a node"),
            ("ad-curve", "damper admittance curves"),
            ("verify", "plan, calibrate, install the damper and re-assess")]:
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name == "ad-curve":
            p.add_argument("--cluster", choices=["l_f_h", "gain_s", "k_v"],
                           default=None, help="parameter to sweep into a curve cluster")
            p.add_argument("--values", default=None,
                           help="comma-separated values for --cluster")
    return ap


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    values = None
    if getattr(args, "values", None):
        values = tuple(float(v) for v in args.values.split(","))
    return RunConfig(
        network=args.network,
        fmin_hz=args.fmin,
        fmax_hz=args.fmax,
        df_hz=args.df,
        epsilon_s=args.epsilon,
        dalpha_s=args.dalpha,
        node=args.node,
        ad_mode=args.ad_mode,
        k_v=args.kv,
        out_dir=args.out,
        formats=tuple(f.strip() for f in args.formats.split(",") if f.strip()),
        cluster_param=getattr(args, "cluster", None),
        cluster_values=values,
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "emit-fixture":
            path = emit_fixture(args.path)
            print(f"wrote {path}")
            return EXIT_STABLE
        cfg = _config_from_args(args)
        doc, code = run_command(cfg, args.command)
        verdict = f" verdict={doc.verdict}" if doc.verdict else ""
        print(f"{args.command}: ok{verdict} (outputs in {cfg.out_dir}, "
              f"config {doc.config_hash})")
        return code
    except (NetworkFileError, InvalidNetworkError, ValueError,
            RuntimeError, OSError) as e:
        # engine errors (plan/calibration infeasibility, refinement
        # failures) and IO problems are operational failures
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
