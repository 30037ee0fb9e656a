"""Configuration ingestion, network files, the command-line workflow and
CSV/JSON report emission.

Network files are JSON documents with top-level keys `nodes`, `branches`,
`shunts`, `fundamental_hz`, `damper_defaults`.  Branches: {type:
rl|pi_cable|transformer, from, to, r_ohm, l_h, c_f?}.  Shunts: {type:
inverter|ad|grid|capacitor, node, params|table_path}.  Every number in a
file, node ids included, is a finite JSON number, not a boolean or a
string.  All emitted CSV data uses 9-significant-digit fixed formatting
so identical inputs produce byte-identical outputs.
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
)
from .compensation_planner import (
    calibrate_ad,
    compensation_table,
    plan,
    rank_locations,
    verify_with_ad,
)
from .dq_core import FrequencyGrid
from .network_assembly import Branch, NetworkGraph, Shunt
from .stability_engine import analyze

EXIT_STABLE = 0
EXIT_ERROR = 1
EXIT_UNSTABLE = 2

# what every entry point reports as one "error: " line and exit 1: bad
# input (network files, options), engine errors (plan or calibration
# infeasibility, refinement failures) and IO problems
OPERATIONAL_ERRORS = (ValueError, RuntimeError, OSError)


# the damper parameters an ad-curve cluster (--cluster) can sweep
_CLUSTER_PARAMS = ("l_f_h", "gain_s", "k_v")


class NetworkFileError(ValueError):
    """Network file failed to parse or validate."""


def _fmt(x: float) -> str:
    return format(float(x), ".9g")


@dataclass(frozen=True)
class RunConfig:
    """Everything one command run depends on (hashed into every report);
    its defaults are the command line's."""

    network: str
    fmin_hz: float = 10.0
    fmax_hz: float = 2500.0
    df_hz: float = 1.0
    epsilon_s: float = 0.005
    dalpha_s: float = 1e-3
    node: int | None = None
    ad_mode: str = "proposed"
    k_v: float = 1.0  # the damper gain ad-curve plots
    out_dir: str = "out"
    formats: tuple[str, ...] = ("csv", "json")
    cluster_param: str | None = None
    cluster_values: tuple[float, ...] = ()

    def __post_init__(self):
        scalars = ("fmin_hz", "fmax_hz", "df_hz", "epsilon_s", "dalpha_s", "k_v")
        for name, value in [*((n, getattr(self, n)) for n in scalars),
                            *(("cluster_values", v) for v in self.cluster_values)]:
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.fmin_hz <= 0 or self.fmax_hz < self.fmin_hz or self.df_hz <= 0:
            raise ValueError("sweep range must be positive and ordered")
        for name in ("epsilon_s", "dalpha_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if not self.formats or any(f not in ("csv", "json") for f in self.formats):
            raise ValueError("formats must be a non-empty subset of {csv, json}")
        if self.cluster_values and self.cluster_param is None:
            raise ValueError("cluster_values (--values) need cluster_param (--cluster)")
        if self.cluster_param not in (None, *_CLUSTER_PARAMS):
            raise ValueError(f"cluster_param (--cluster) must be one of "
                             f"{', '.join(_CLUSTER_PARAMS)}, got {self.cluster_param!r}")
        if self.cluster_param is not None and not self.cluster_values:
            raise ValueError(f"cluster_param (--cluster {self.cluster_param}) needs "
                             "cluster_values (--values)")

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

    def write(self, out_dir: Path) -> None:
        """Write the report into out_dir, made if missing, as
        report_<command>.json, with a dash in the command written as an
        underscore."""
        path = Path(out_dir) / f"report_{self.command.replace('-', '_')}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
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


def _number(value, integer: bool = False):
    """A number of a network file: a finite JSON number, not a boolean and
    not a string, as a float; with integer (a node id), an integral one
    as an int (2.0 reads as 2, but 2.7 is an error)."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max
            or integer and not float(value).is_integer()):
        raise NetworkFileError(f"node id {value!r} is not an integer" if integer
                               else f"{value!r} is not a finite number")
    return int(value) if integer else float(value)


def _field(obj: dict, key: str, integer: bool = False):
    """_number of obj[key], an error naming the field."""
    return _at(key, _number, obj[key], integer=integer)


def _numbers(params: dict, keep=()) -> dict:
    """params with every value but those of the keys in keep read by _number."""
    return {k: v if k in keep else _field(params, k) for k, v in params.items()}


def _build_branch(idx: int, obj) -> Branch:
    btype = _expect(dict, obj).get("type")
    if btype not in _BRANCH_TYPES:
        raise NetworkFileError(
            f"unknown branch type {btype!r} (expected one of {_BRANCH_TYPES})")
    if btype == "pi_cable":
        model = PiCableParams(*(_field(obj, key) for key in ("r_ohm", "l_h", "c_f")))
    else:
        model = RlBranchParams(_field(obj, "r_ohm"), _field(obj, "l_h"))
    return Branch(*(_field(obj, key, integer=True) for key in ("from", "to")), model,
                  label=obj.get("label", f"{btype}[{idx}]"))


def _build_shunt(idx: int, obj, base_dir: Path) -> Shunt:
    stype = _expect(dict, obj).get("type")
    if stype not in _SHUNT_TYPES:
        raise NetworkFileError(
            f"unknown shunt type {stype!r} (expected one of {tuple(_SHUNT_TYPES)})")
    node = _field(obj, "node", integer=True)
    if "table_path" in obj:
        if stype != "inverter":
            raise NetworkFileError("table_path is only valid for inverter shunts")
        device = AdmittanceTable.from_csv(base_dir / obj["table_path"])
    else:
        params = _at("params", _expect, dict, obj["params"])
        # an active damper's mode is its one value that is not a number
        device = _SHUNT_TYPES[stype](**_numbers(params, ("mode",) if stype == "ad" else ()))
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
    """Parse and validate the whole network file, whatever the command
    that reads it: nodes, branches, shunts, fundamental_hz (50 Hz when
    absent; > 0) and damper_defaults, the AD base parameters, which the
    graph carries.  That block falls back to the built-in case-study set
    when absent; every value is a finite number, k_v is 0 (uncalibrated)
    unless it sets it, and it takes no mode, as a run's ad_mode picks the
    variant.  Raises NetworkFileError naming the file and the parse
    position, the malformed element or all validation diagnostics."""
    path = Path(path)
    doc = _read_document(path)
    nodes, branches, shunts = (_at(f"{path}: {key}", _expect, list, doc.get(key, []))
                               for key in ("nodes", "branches", "shunts"))
    hz = _at(f"{path}: fundamental_hz", _number, doc.get("fundamental_hz", 50.0))
    if hz <= 0:
        raise NetworkFileError(f"{path}: fundamental_hz: {hz!r} is not > 0")
    where = f"{path}: damper_defaults"
    params = _at(where, _expect, dict, doc.get("damper_defaults", CASE_STUDY_AD_PARAMS))
    if "mode" in params:
        raise NetworkFileError(f"{where}: takes no 'mode'; a run's ad_mode (--ad-mode) "
                               "picks the damper variant")
    damper = _at(where, lambda: ADParams(**{"k_v": 0.0, **_numbers(params)}))
    nodes = tuple(_at(f"{path}: nodes[{i}]", _number, n, integer=True)
                  for i, n in enumerate(nodes))
    branches = tuple(_at(f"{path}: branches[{i}]", _build_branch, i, b)
                     for i, b in enumerate(branches))
    shunts = tuple(_at(f"{path}: shunts[{i}]", _build_shunt, i, s, path.parent)
                   for i, s in enumerate(shunts))
    g = NetworkGraph(nodes, branches, shunts, 2 * math.pi * hz, damper)

    # the graph's cached validation, which its assembly reuses
    if g._diagnostics:
        raise NetworkFileError(f"{path}: " + "; ".join(g._diagnostics))
    return g


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
    path.parent.mkdir(parents=True, exist_ok=True)
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


def _tracking_data(traces) -> list[dict]:
    """Per trace, the lowest tracking overlap and the [f_t, f_t+1] Hz
    steps flagged as discontinuities."""
    return [{"trace_id": tr.trace_id,
             "min_overlap": float(tr.overlaps.min()),
             "discontinuities": [[float(tr.f_hz[t]), float(tr.f_hz[t + 1])]
                                 for t in tr.discontinuities]} for tr in traces]


def cmd_sweep(cfg: RunConfig, out: Path, g, traces, report):
    _write_csv(cfg, out / "traces.csv", ["f_hz", "trace_id", "re_lambda", "im_lambda"],
               _trace_rows(traces))
    doc = ReportDocument("sweep", cfg.hash(), _verdict_str(report),
                         {"crossovers": _events_data(report.events),
                          "n_traces": len(traces),
                          "tracking": _tracking_data(traces)})
    return doc, EXIT_STABLE if report.stable else EXIT_UNSTABLE


def cmd_criticals(cfg: RunConfig, out: Path, g, traces, report):
    _write_csv(cfg, out / "crossovers.csv", ["trace_id", "f_cr_hz", "re_lambda", "verdict"],
               _crossover_rows(report.events))
    doc = ReportDocument("criticals", cfg.hash(), _verdict_str(report),
                         {"crossovers": _events_data(report.events),
                          "critical_trace_ids": list(report.critical_trace_ids)})
    return doc, EXIT_STABLE if report.stable else EXIT_UNSTABLE


def cmd_rank(cfg: RunConfig, out: Path, g, traces, report):
    coeffs = compensation_table(g, report.critical_events)
    ranks = rank_locations(coeffs, cfg.epsilon_s)
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


def _plan_data(g, cplan) -> dict:
    return {
        "node": g.nodes[cplan.node_index],
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


def design(cfg: RunConfig, g, traces, report, node: int | None = None):
    """The run's one damper design: the plan at node, else at the top K_C
    node, else (nothing critical) at cfg.node or the network's first node."""
    if node is None:
        ranks = rank_locations(compensation_table(g, report.critical_events), cfg.epsilon_s)
        node = (g.nodes[ranks[0].node_index] if ranks
                else cfg.node if cfg.node is not None else g.nodes[0])
    return plan(g, node, traces, report, cfg.epsilon_s, cfg.dalpha_s)


def cmd_plan(cfg: RunConfig, out: Path, g, traces, report, cplan):
    rows = [[e.trace_id, _fmt(e.f_cr_start_hz), _fmt(e.f_cr_final_hz),
             _fmt(e.alpha_s), e.iterations, _fmt(e.predicted_re)]
            for e in cplan.entries]
    _write_csv(cfg, out / "plan.csv",
               ["trace_id", "f_cr_start_hz", "f_cr_final_hz", "alpha_s",
                "iterations", "predicted_re"], rows)
    doc = ReportDocument("plan", cfg.hash(), _verdict_str(report),
                         {"plan": _plan_data(g, cplan)})
    return doc, EXIT_STABLE


def cmd_ad_curve(cfg: RunConfig, out: Path, g) -> tuple[ReportDocument, int]:
    """The admittance curve of g's damper defaults at g's fundamental,
    with cfg's k_v and ad_mode, or a cluster of them over one parameter;
    no network is analysed."""
    p = dataclasses.replace(g.damper_defaults, k_v=cfg.k_v, mode=cfg.ad_mode)
    param = cfg.cluster_param
    f_hz = cfg.grid().hz
    rows = []
    for v in cfg.cluster_values if param else (cfg.k_v,):
        y_f = ad_scalar(dataclasses.replace(p, **{param or "k_v": v}), f_hz, g.omega0)
        rows += [[_fmt(v), _fmt(f), _fmt(y.real), _fmt(y.imag),
                  _fmt(abs(y.imag / y.real) if y.real else math.inf)]
                 for f, y in zip(f_hz, y_f)]
    header = ["f_hz", "re_y_s", "im_y_s", "abs_im_re_ratio"]
    data = {"mode": cfg.ad_mode, "k_v": cfg.k_v}
    if param:
        _write_csv(cfg, out / "ad_curve_cluster.csv", [param, *header], rows)
        data.update(cluster_param=param, cluster_values=list(cfg.cluster_values))
    else:
        _write_csv(cfg, out / "ad_curve.csv", header, [row[1:] for row in rows])
    return ReportDocument("ad-curve", cfg.hash(), None, data), EXIT_STABLE


def cmd_verify(cfg: RunConfig, out: Path, g, traces, report, cplan):
    """Calibrate g's damper defaults for the design cplan at its
    fundamental (g's), install the damper (at the plan's node, or --node,
    as the --ad-mode variant) and re-analyse.  A baseline with no critical
    crossing needs none: its plan is empty and k_v 0, so nothing is
    installed and "after" is the baseline."""
    design_node = g.nodes[cplan.node_index]
    calibrated = dataclasses.replace(calibrate_ad(cplan, g.damper_defaults),
                                     mode=cfg.ad_mode)
    install_node = cfg.node if cfg.node is not None else design_node
    installed = not report.stable

    after = verify_with_ad(g, install_node, calibrated, cfg.grid()) if installed else report

    rows = [["before", *row] for row in _crossover_rows(report.events)]
    rows += [["after", *row] for row in _crossover_rows(after.events)]
    _write_csv(cfg, out / "verify_crossovers.csv",
               ["phase", "trace_id", "f_cr_hz", "re_lambda", "verdict"], rows)
    doc = ReportDocument("verify", cfg.hash(), _verdict_str(after), {
        "install_node": install_node,
        "design_node": design_node,
        "ad_mode": cfg.ad_mode,
        "calibrated_k_v": calibrated.k_v,
        "damper_installed": installed,
        "plan": _plan_data(g, cplan),
        "before": {"verdict": _verdict_str(report),
                   "crossovers": _events_data(report.events)},
        "after": {"verdict": _verdict_str(after),
                  "crossovers": _events_data(after.events)},
    })
    return doc, EXIT_STABLE if after.stable else EXIT_UNSTABLE


# the analysis commands' report writers (see run_command for their arguments)
_ANALYSIS_COMMANDS = {
    "sweep": cmd_sweep,
    "criticals": cmd_criticals,
    "rank": cmd_rank,
    "plan": cmd_plan,
    "verify": cmd_verify,
}


def check_run(cfg: RunConfig, g) -> FrequencyGrid:
    """cfg's sweep grid, once cfg is checked against the network g: a
    cfg.node g does not have and a grid of fewer than 2 points (too few
    to track) are errors, raised before any sweep."""
    if cfg.node is not None and cfg.node not in g.nodes:
        raise ValueError(f"node {cfg.node} is not in the network {Path(cfg.network)} "
                         f"(nodes {', '.join(map(str, g.nodes))})")
    grid = cfg.grid()
    if len(grid) < 2:
        raise ValueError(f"--fmin {cfg.fmin_hz} --fmax {cfg.fmax_hz} --df {cfg.df_hz} "
                         f"give {len(grid)} sweep point; tracking needs at least 2")
    return grid


def run_command(cfg: RunConfig, command: str) -> tuple[ReportDocument, int]:
    """Run one workflow command; writes its data files and report JSON
    into cfg.out_dir and returns (report, exit code).

    Every command loads the whole network file once (load_network), so a
    file is valid or invalid whatever the command; cfg.out_dir is made
    only when a file is written into it.  ad-curve plots the graph's
    damper defaults and analyses no network.  The analysis commands check
    cfg against the network (check_run) and run the baseline analyze
    once, here, keeping its traces and report only; plan and verify make
    their one design here.  Each writer in _ANALYSIS_COMMANDS then writes
    from (cfg, out, g, traces, report), plan and verify with the design.
    """
    if command != "ad-curve" and command not in _ANALYSIS_COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    out = Path(cfg.out_dir)
    g = load_network(cfg.network)
    if command == "ad-curve":
        doc, code = cmd_ad_curve(cfg, out, g)
    else:
        grid = check_run(cfg, g)
        # the traces index the spectrum; it is not kept past the analysis
        traces, report = analyze(g, grid)[1:]
        extra = ()
        if command in ("plan", "verify"):  # plan at --node, verify at the top-ranked node
            node = cfg.node if command == "plan" else None
            extra = (design(cfg, g, traces, report, node),)
        doc, code = _ANALYSIS_COMMANDS[command](cfg, out, g, traces, report, *extra)
    if "json" in cfg.formats:
        doc.write(out)
    return doc, code


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _formats(text: str) -> tuple[str, ...]:
    return tuple(f.strip() for f in text.split(",") if f.strip())


def _values(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(","))


def _add_common(p: argparse.ArgumentParser) -> None:
    # each dest is a RunConfig field; an unset flag keeps RunConfig's default
    p.add_argument("--network", required=True, help="network JSON file")
    p.add_argument("--fmin", dest="fmin_hz", type=float, help="sweep start [Hz]")
    p.add_argument("--fmax", dest="fmax_hz", type=float, help="sweep end [Hz]")
    p.add_argument("--df", dest="df_hz", type=float, help="sweep spacing [Hz]")
    p.add_argument("--epsilon", dest="epsilon_s", type=float,
                   help="damping margin for planning [S]")
    p.add_argument("--dalpha", dest="dalpha_s", type=float,
                   help="conductance step for planning [S]")
    p.add_argument("--node", type=int, help="target node id (default: top-ranked)")
    p.add_argument("--ad-mode", choices=["proposed", "traditional"],
                   help="damper control variant")
    p.add_argument("--kv", dest="k_v", type=float, help="damper gain for ad-curve")
    p.add_argument("--out", dest="out_dir", help="output directory")
    p.add_argument("--formats", type=_formats,
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
        p = sub.add_parser(name, help=help_text, argument_default=argparse.SUPPRESS)
        _add_common(p)
        if name == "ad-curve":
            p.add_argument("--cluster", dest="cluster_param",
                           choices=_CLUSTER_PARAMS,
                           help="parameter to sweep into a curve cluster")
            p.add_argument("--values", dest="cluster_values", type=_values,
                           help="comma-separated values for --cluster")
    return ap


def main(argv=None) -> int:
    args = vars(build_parser().parse_args(argv))
    command = args.pop("command")
    try:
        if command == "emit-fixture":
            print(f"wrote {emit_fixture(args['path'])}")
            return EXIT_STABLE
        cfg = RunConfig(**args)
        doc, code = run_command(cfg, command)
        verdict = f" verdict={doc.verdict}" if doc.verdict else ""
        print(f"{command}: ok{verdict} (outputs in {cfg.out_dir}, "
              f"config {doc.config_hash})")
        return code
    except OPERATIONAL_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
