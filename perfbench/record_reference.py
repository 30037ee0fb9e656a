#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

    python3 perfbench/record_reference.py

Writes perfbench/reference.json from the program at the current commit:
the verdict of every network in the fleet-criticals pool.  Each verdict is
checked against the Nyquist winding oracle on the networks where the
winding count is determinate.  The two criteria differ in one known way: a trace that
crosses the negative real axis once in each direction winds zero times
round the origin, while the positive-net-damping verdict flags both
crossings.  Such networks are recorded as "cancelling pair"; any other
disagreement stops the recording.  Run it only when a change to the
program is meant to change these outputs.
"""

import json
import shutil
import sys

import run  # sets the thread counts before numpy is imported

sys.path.insert(0, str(run.SRC))

from damp_planner import RunConfig, analyze, load_network, nyquist_winding, run_command
from generators import small_system_network, write_network


def cancelling_pairs(report) -> bool:
    """True when every trace's critical crossings come in rising/falling
    pairs, so that they add nothing to its winding number."""
    net: dict[int, int] = {}
    for e in report.critical_events:
        net[e.trace_id] = net.get(e.trace_id, 0) + (1 if e.direction == "rising" else -1)
    return all(v == 0 for v in net.values())


def main() -> int:
    work = run.ROOT / ".perfbench-work" / "reference"
    ref = {"fleet": {}}
    try:
        for k in range(run.FLEET_POOL):
            path = write_network(work, f"net{k}", *small_system_network(k))
            cfg = RunConfig(network=str(path), out_dir=str(work / "out"), **run.FLEET_GRID)
            doc, _ = run_command(cfg, "criticals")
            _, traces, report = analyze(load_network(path), cfg.grid())
            windings = [nyquist_winding(tr) for tr in traces]
            if any(w is None for w in windings):
                oracle = "indeterminate"
            elif (sum(abs(w) for w in windings) == 0) == report.stable:
                oracle = "agrees"
            elif not report.stable and cancelling_pairs(report):
                oracle = "cancelling pair"
            else:
                print(f"fleet network {k}: verdict {doc.verdict} disagrees with "
                      f"the Nyquist windings {windings}", file=sys.stderr)
                return 1
            if doc.verdict != ("stable" if report.stable else "unstable"):
                print(f"fleet network {k}: criticals and analyze disagree", file=sys.stderr)
                return 1
            ref["fleet"][str(k)] = {"verdict": doc.verdict, "nyquist": oracle}
            print(f"fleet {k}: {doc.verdict} ({oracle})", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (run.BENCH_DIR / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
