#!/usr/bin/env python3
"""End-to-end case study: sweep the three-inverter test network, rank
damper locations, compute the damping-compensation requirement, calibrate
the damper and verify stabilization at the recommended node versus the
runner-up and versus the traditional damper variant.

Writes the plot-ready CSV outputs of every stage into --out.
"""

import argparse
import dataclasses
import sys
import time
from pathlib import Path

from damp_planner import (
    FrequencyGrid,
    analyze,
    calibrate_ad,
    compensation_table,
    emit_fixture,
    load_network,
    plan,
    rank_locations,
    verify_with_ad,
)
from damp_planner.cli_reporting import RunConfig, damper_defaults_from_file, run_command


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--network", default=None,
                    help="network JSON (default: write the built-in case study)")
    ap.add_argument("--out", default="out/case_study", help="output directory")
    ap.add_argument("--epsilon", type=float, default=0.005, help="damping margin [S]")
    ap.add_argument("--fmax", type=float, default=2500.0, help="sweep end [Hz]")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    net = Path(args.network) if args.network else emit_fixture(out / "network.json")
    g = load_network(net)
    grid = FrequencyGrid.regular(10.0, args.fmax, 1.0)

    t0 = time.perf_counter()
    traces, report = analyze(g, grid)[1:]
    print(f"sweep: {len(grid)} frequencies, {len(traces)} traces "
          f"({time.perf_counter() - t0:.2f} s)")
    print(f"baseline verdict: {'stable' if report.stable else 'unstable'}")
    for e in report.critical_events:
        print(f"  critical: trace {e.trace_id} at {e.f_cr_hz:8.2f} Hz, "
              f"Re = {e.re_lambda:+.5f} S")

    ranks = rank_locations(compensation_table(g, report.critical_events), args.epsilon)
    print("placement ranking (best first):",
          ", ".join(f"node {g.nodes[r.node_index]}" for r in ranks))
    if len(ranks) < 2 or report.stable:
        print("nothing to compensate; stopping after the sweep")
        return 0
    top, second = (g.nodes[ranks[0].node_index], g.nodes[ranks[1].node_index])

    cplan = plan(g, top, traces, report, epsilon=args.epsilon)
    print(f"plan at node {top}: required Re[Y] >= {cplan.required_re_yad_s:.4f} S "
          f"over [{cplan.band_lo_hz:.0f}, {cplan.band_hi_hz:.0f}] Hz")
    for e in cplan.entries:
        print(f"  trace {e.trace_id}: alpha = {e.alpha_s:.4f} S in {e.iterations} steps "
              f"(crossover {e.f_cr_start_hz:.1f} -> {e.f_cr_final_hz:.1f} Hz)")

    base = damper_defaults_from_file(net)
    damper = calibrate_ad(cplan, base, omega0=g.omega0)
    print(f"calibrated damper gain k_v = {damper.k_v:.4f}")

    for label, node, p in [
            (f"proposed damper at node {top}", top, damper),
            (f"proposed damper at node {second}", second, damper),
            (f"traditional damper at node {top}", top,
             dataclasses.replace(damper, mode="traditional"))]:
        rep = verify_with_ad(g, node, p, grid)
        verdict = "stable" if rep.stable else "unstable"
        print(f"verify: {label}: {verdict}")
        for e in rep.critical_events:
            print(f"    still critical: trace {e.trace_id} at {e.f_cr_hz:8.2f} Hz, "
                  f"Re = {e.re_lambda:+.5f} S")

    # plot-ready data files for every stage
    for command in ("sweep", "criticals", "rank", "plan"):
        cfg = RunConfig(network=str(net), fmax_hz=args.fmax,
                        epsilon_s=args.epsilon, out_dir=str(out))
        run_command(cfg, command)
    print(f"CSV outputs in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
