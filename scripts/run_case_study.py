#!/usr/bin/env python3
"""End-to-end case study: sweep the three-inverter test network, rank
damper locations, compute the damping-compensation requirement, calibrate
the damper and verify stabilization at the recommended node versus the
runner-up and versus the traditional damper variant.

One baseline analysis and one damper design on it feed the CLI's command
writers: sweep, criticals, rank and plan write their plot-ready outputs
into --out, each verification into its own subdirectory.
"""

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

from damp_planner import RunConfig, analyze, emit_fixture, load_network
from damp_planner.cli_reporting import (
    OPERATIONAL_ERRORS,
    cmd_criticals,
    cmd_plan,
    cmd_rank,
    cmd_sweep,
    cmd_verify,
    check_run,
    design,
)


def print_criticals(crossovers, prefix: str) -> None:
    for e in crossovers:
        if e["verdict"] == "critical":
            print(f"{prefix} trace {e['trace_id']} at {e['f_cr_hz']:8.2f} Hz, "
                  f"Re = {e['re_lambda_s']:+.5f} S")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--network", default=None,
                    help="network JSON (default: write the built-in case study)")
    ap.add_argument("--out", default="out/case_study", help="output directory")
    ap.add_argument("--epsilon", type=float, default=RunConfig.epsilon_s,
                    help="damping margin [S]")
    ap.add_argument("--fmax", type=float, default=RunConfig.fmax_hz, help="sweep end [Hz]")
    args = ap.parse_args()

    out = Path(args.out)
    net = Path(args.network) if args.network else emit_fixture(out / "network.json")
    cfg = RunConfig(network=str(net), fmax_hz=args.fmax, epsilon_s=args.epsilon,
                    out_dir=str(out))
    g = load_network(net)
    grid = check_run(cfg, g)

    t0 = time.perf_counter()
    baseline = (g, *analyze(g, grid)[1:])
    print(f"sweep: {len(grid)} frequencies, {len(baseline[1])} traces "
          f"({time.perf_counter() - t0:.2f} s)")

    def write(command, cfg, *extra):
        """command's report on the baseline; its files go into cfg.out_dir."""
        out_dir = Path(cfg.out_dir)
        doc = command(cfg, out_dir, *baseline, *extra)[0]
        doc.write(out_dir)
        return doc

    sweep, criticals, rank = (write(c, cfg) for c in (cmd_sweep, cmd_criticals, cmd_rank))
    print(f"baseline verdict: {sweep.verdict}")
    print_criticals(criticals.data["crossovers"], "  critical:")
    ranking = [r["node"] for r in rank.data["ranking"]]
    print("placement ranking (best first):", ", ".join(f"node {n}" for n in ranking))
    if sweep.verdict == "stable":
        print("nothing to compensate; stopping after the sweep")
        return 0

    cplan = design(cfg, *baseline)
    planned = write(cmd_plan, cfg, cplan).data["plan"]
    print(f"plan at node {planned['node']}: required Re[Y] >= "
          f"{planned['required_re_yad_s']:.4f} S "
          f"over [{planned['band_lo_hz']:.0f}, {planned['band_hi_hz']:.0f}] Hz")
    for e in planned["entries"]:
        print(f"  trace {e['trace_id']}: alpha = {e['alpha_s']:.4f} S in {e['iterations']} "
              f"steps (crossover {e['f_cr_start_hz']:.1f} -> {e['f_cr_final_hz']:.1f} Hz)")

    # each calibrates that one design; node and ad_mode pick where and which variant
    checks = [("verify_top", {}), ("verify_traditional", {"ad_mode": "traditional"})]
    if len(ranking) > 1:
        checks.insert(1, ("verify_runner_up", {"node": ranking[1]}))
    else:
        print("one ranked node: no runner-up to verify")
    verifications = [write(cmd_verify, replace(cfg, out_dir=str(out / sub), **change), cplan)
                     for sub, change in checks]
    print(f"calibrated damper gain k_v = {verifications[0].data['calibrated_k_v']:.4f}")
    for doc in verifications:
        print(f"verify: {doc.data['ad_mode']} damper at node {doc.data['install_node']}: "
              f"{doc.verdict}")
        print_criticals(doc.data["after"]["crossovers"], "    still critical:")
    print(f"CSV outputs in {out}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except OPERATIONAL_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(1)
