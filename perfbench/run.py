#!/usr/bin/env python3
"""damp-planner benchmark.

    python3 perfbench/run.py --workload fixture-verify --seed 1 --seconds 55 --trace 0

Drives the program in this process through its public API (`run_command`)
as a closed loop: one client, each operation starting when the previous
one returns.  Every operation's output is checked outside the timed
region.  The last line of standard output is one JSON object with keys
`correct`, `attempted`, `failed` and `metrics`; the line before it holds the
machine and run settings and the details behind the metrics.

`--trace 0` reports the end-to-end metrics of BENCHMARK.json, `--trace 1`
the per-layer metrics from a separate traced run (see README.md).
"""

import os

# Fixed thread counts (nproc is 2 on the reference machine); must be set
# before numpy loads OpenBLAS.  One thread keeps runs steady on a shared box.
THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "DAMP_PLANNER_THREADS"):
    os.environ[_var] = THREADS

import argparse
import ctypes
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

WORKLOADS = ("fixture-verify", "fleet-criticals")
FLEET_POOL = 128            # small networks with recorded verdicts
FLEET_SIZE = 64             # networks drawn from the pool per run
FLEET_GRID = dict(fmin_hz=2.0, fmax_hz=5000.0, df_hz=2.0)
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
MIN_OPS = 2

_IMPORT_PROBE = ("import time; t = time.perf_counter(); import damp_planner; "
                 "print(time.perf_counter() - t)")


@dataclass
class Op:
    cfg: object          # damp_planner.RunConfig
    command: str
    expect: object       # reference the output is checked against


# ---------------------------------------------------------------------------
# workloads: set-up and output checks
# ---------------------------------------------------------------------------

def load_reference() -> dict:
    return json.loads((BENCH_DIR / "reference.json").read_text())


def setup_ops(workload: str, seed: int, work: Path, reference: dict) -> list[Op]:
    """Generate and write the workload's network files; one Op per input."""
    from damp_planner import RunConfig, emit_fixture
    import numpy as np
    from generators import small_system_network, write_network

    out = str(work / "out")
    if workload == "fixture-verify":
        path = emit_fixture(work / "fixture.json")
        return [Op(RunConfig(network=str(path), out_dir=out), "verify", None)]
    ids = np.random.default_rng(seed).choice(FLEET_POOL, FLEET_SIZE, replace=False)
    ops = []
    for k in ids.tolist():
        path = write_network(work, f"net{k}", *small_system_network(k))
        ops.append(Op(RunConfig(network=str(path), out_dir=out, **FLEET_GRID),
                      "criticals", reference["fleet"][str(k)]))
    return ops


class Checker:
    """Untimed output checks; `check` returns an error string or None."""

    def __init__(self):
        # bound now, so that checks made during a traced pass are not traced
        from damp_planner import GridImpedanceParams, analyze, load_network

        self._pure_conductance = lambda alpha: GridImpedanceParams(1.0 / alpha, 0.0)
        self._analyze = analyze
        self._load_network = load_network
        self.actual_re = {}   # (network, node, trace, alpha, f_final) -> Re lambda
        self.plan_error = None  # max |predicted_re - actual Re lambda| seen

    def check(self, op: Op, doc, code: int) -> str | None:
        return getattr(self, "_" + op.command)(op, doc, code)

    def _verify(self, op, doc, code):
        d = doc.data
        if d["before"]["verdict"] != "unstable":
            return f"before-verdict {d['before']['verdict']}, expected unstable"
        if d["design_node"] != 4:
            return f"design node {d['design_node']}, expected 4"
        if d["after"]["verdict"] != "stable" or code != 0:
            return f"after-verdict {d['after']['verdict']} (exit {code}), expected stable"
        return self.check_plan(op.cfg, d["plan"])

    def check_plan(self, cfg, plan_data) -> str | None:
        eps = cfg.epsilon_s
        if not plan_data["entries"]:
            return "empty plan"
        error = None
        for e in plan_data["entries"]:
            actual = self.actual(cfg, plan_data["node"], e)
            self.plan_error = max(self.plan_error or 0.0,
                                  abs(e["predicted_re_s"] - actual))
            if error is None and (e["predicted_re_s"] < eps or actual < eps):
                error = (f"trace {e['trace_id']}: predicted {e['predicted_re_s']:.6g} S, "
                         f"actual {actual:.6g} S, margin {eps} S")
        return error

    def actual(self, cfg, node: int, entry: dict) -> float:
        """Re lambda at the crossing nearest f_cr_final with the planned
        conductance installed as a pure conductance at the node; it depends
        only on the entry, so it is computed once per distinct entry."""
        key = (cfg.network, node, entry["trace_id"], entry["alpha_s"],
               entry["f_cr_final_hz"])
        if key not in self.actual_re:
            g = self._load_network(cfg.network).with_shunt_device(
                node, self._pure_conductance(entry["alpha_s"]))
            _, _, report = self._analyze(g, cfg.grid())
            nearest = min(report.events,
                          key=lambda ev: abs(ev.f_cr_hz - entry["f_cr_final_hz"]))
            self.actual_re[key] = nearest.re_lambda
        return self.actual_re[key]

    def _criticals(self, op, doc, code):
        want = op.expect["verdict"]
        if doc.verdict != want or code != (0 if want == "stable" else 2):
            return f"{op.cfg.network}: verdict {doc.verdict} (exit {code}), expected {want}"
        return None


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------

class Loop:
    """Closed-loop runner: latencies, attempts and failures."""

    def __init__(self, checker: Checker):
        self.checker = checker
        self.latencies: list[float] = []   # every attempt, failed ones too
        self.attempted = 0
        self.failed = 0

    def run(self, op: Op) -> float:
        from damp_planner import cli_reporting

        self.attempted += 1
        t0 = time.perf_counter()
        try:
            # looked up on the module so that a traced pass sees the wrapper
            doc, code = cli_reporting.run_command(op.cfg, op.command)
        except Exception as e:  # a failed operation is counted, not fatal
            dt = time.perf_counter() - t0
            error = f"{type(e).__name__}: {e}"
        else:
            dt = time.perf_counter() - t0
            error = self.checker.check(op, doc, code)
        self.latencies.append(dt)
        if error:
            self.failed += 1
            print(f"operation failed: {error}", file=sys.stderr)
        return dt

    def for_seconds(self, ops: list[Op], seconds: float) -> None:
        """Run ops cyclically until the next operation, at the median
        latency so far, would end past `seconds` of operation time."""
        busy = 0.0
        i = 0
        while True:
            busy += self.run(ops[i % len(ops)])
            i += 1
            if i >= MIN_OPS and busy + statistics.median(self.latencies) > seconds:
                break


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond): the highest percentile with at
    least 10 samples beyond it, but no lower than the median.  Below 20
    samples that percentile would fall under the median, so the median is
    taken: a fixture-verify run holds 14-24 operations of 2-4 s, too few
    for a steady tail."""
    xs = sorted(latencies)
    n = len(xs)
    if n >= 20:
        return xs[n - 11], 100.0 * (n - 10) / n, 10
    median = statistics.median(xs)
    return median, 50.0, sum(x > median for x in xs)


def measure_setup(workload: str, seed: int, work: Path, reference: dict):
    """Median import time (fresh interpreters) plus median time to generate
    and write the workload's network files."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    imports = []
    for _ in range(IMPORT_REPEATS):
        res = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                             capture_output=True, text=True, timeout=120, check=True)
        imports.append(float(res.stdout.strip()))
    gens = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        t0 = time.perf_counter()
        ops = setup_ops(workload, seed, work, reference)
        gens.append(time.perf_counter() - t0)
    return statistics.median(imports) + statistics.median(gens), ops


def plan_probe(checker: Checker, work: Path) -> str | None:
    """Plan the built-in fixture and check the plan, untimed, so that
    workloads that do not plan also report plan_error_s."""
    from damp_planner import RunConfig, emit_fixture, run_command

    path = emit_fixture(work / "probe" / "fixture.json")
    cfg = RunConfig(network=str(path), out_dir=str(work / "probe" / "out"))
    doc, _ = run_command(cfg, "plan")
    return checker.check_plan(cfg, doc.data["plan"])


def machine_info() -> dict:
    import numpy as np

    info = {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__,
            "DAMP_PLANNER_THREADS": os.environ["DAMP_PLANNER_THREADS"]}
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    try:  # ask the OpenBLAS that numpy loaded (Linux only)
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln and ".so" in ln}
        for lib_path in libs:
            lib = ctypes.CDLL(lib_path)
            for name in ("scipy_openblas_get_num_threads64_",
                         "openblas_get_num_threads64_", "openblas_get_num_threads"):
                fn = getattr(lib, name, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    info["openblas_threads"] = fn()
                    break
    except OSError:
        pass
    info.setdefault("openblas_threads", f"unknown (OPENBLAS_NUM_THREADS={THREADS})")
    return info


def run_untraced(ops, seconds, checker, work):
    loop = Loop(checker)
    loop.for_seconds(ops, seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    probe = "ok"
    if checker.plan_error is None:
        probe = plan_probe(checker, work) or "ok"
        if probe != "ok":
            print(f"fixture plan probe failed: {probe}", file=sys.stderr)
    lat = loop.latencies
    t_val, t_pct, t_beyond = tail(lat)
    metrics = {
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (t_val, "s"),
        "ops_per_s": ((loop.attempted - loop.failed) / sum(lat), "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "plan_error_s": (checker.plan_error, "siemens"),
    }
    details = {"ops_completed": loop.attempted - loop.failed,
               "latencies_s": [round(x, 6) for x in lat],
               "op_tail": {"percentile": t_pct, "samples_beyond": t_beyond},
               "fail_ratio": loop.failed / loop.attempted,
               "plan_probe": probe}
    return loop, metrics, details, probe == "ok"


def run_traced(ops, checker):
    from tracer import EXACT, LAYER_METRICS, Tracer, installed, layer_metrics

    loop = Loop(checker)
    loop.run(ops[0])  # warm-up, so that lazy set-up is not charged to either side
    plain = sum(loop.run(op) for op in ops)
    passes, walls = [], []
    for _ in range(2):
        with installed(Tracer()) as tracer:
            walls.append(sum(loop.run(op) for op in ops))
        passes.append(layer_metrics(tracer.spans, len(ops)))
    mismatched = [k for k in EXACT if passes[0][k] != passes[1][k]]
    for k in mismatched:
        print(f"count {k} differs between traced passes: "
              f"{passes[0][k]} vs {passes[1][k]}", file=sys.stderr)
    units = dict(LAYER_METRICS)
    metrics = {k: (0.5 * (passes[0][k] + passes[1][k]), units[k]) for k in units}
    overhead = statistics.mean(walls) / plain
    metrics["tracing.overhead_ratio"] = (overhead, "ratio")
    details = {"ops_per_pass": len(ops), "untraced_pass_s": plain,
               "traced_pass_s": walls, "counts_repeat": not mismatched,
               "fail_ratio": loop.failed / loop.attempted}
    return loop, metrics, details, not mismatched


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "damp_planner" / "__init__.py").is_file():
        print(f"error: damp_planner sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    work = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    try:
        reference = load_reference()
        setup_s, ops = measure_setup(args.workload, args.seed, work, reference)
        checker = Checker()
        if args.trace:
            loop, metrics, details, checks_ok = run_traced(ops, checker)
        else:
            loop, metrics, details, checks_ok = run_untraced(ops, args.seconds, checker, work)
            metrics["setup_s"] = (setup_s, "s")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "loop": "closed, 1 client",
            "machine": machine_info(), **details}
    print(json.dumps({"info": info}))
    result = {
        "correct": loop.failed == 0 and checks_ok,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
