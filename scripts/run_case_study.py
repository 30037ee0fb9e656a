#!/usr/bin/env python3
"""End-to-end case study: sweep the three-inverter test network, rank
damper locations, compute the damping-compensation requirement, calibrate
the damper and verify stabilization at the recommended node versus the
runner-up and versus the traditional damper variant.

One baseline analysis feeds the CLI's command writers: sweep, criticals,
rank and plan write their plot-ready outputs into --out, each
verification into its own subdirectory.
"""

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

from damp_planner import RunConfig, analyze, emit_fixture, load_network
from damp_planner.cli_reporting import (
    cmd_criticals,
    cmd_plan,
    cmd_rank,
    cmd_sweep,
    cmd_verify,
    damper_defaults_from_file,
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

    t0 = time.perf_counter()
    baseline = (g, *analyze(g, cfg.grid())[1:])
    print(f"sweep: {len(cfg.grid())} frequencies, {len(baseline[1])} traces "
          f"({time.perf_counter() - t0:.2f} s)")

    def write(command, cfg, *extra):
        """command's report on the baseline; its files go into cfg.out_dir."""
        out_dir = Path(cfg.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        doc = command(cfg, out_dir, *baseline, *extra)[0]
        doc.write(out_dir)
        return doc

    sweep, criticals, rank = (write(c, cfg) for c in (cmd_sweep, cmd_criticals, cmd_rank))
    print(f"baseline verdict: {sweep.verdict}")
    print_criticals(criticals.data["crossovers"], "  critical:")
    ranking = [r["node"] for r in rank.data["ranking"]]
    print("placement ranking (best first):", ", ".join(f"node {n}" for n in ranking))
    if len(ranking) < 2 or sweep.verdict == "stable":
        print("nothing to compensate; stopping after the sweep")
        return 0

    cplan = write(cmd_plan, cfg).data["plan"]
    print(f"plan at node {cplan['node']}: required Re[Y] >= {cplan['required_re_yad_s']:.4f} S "
          f"over [{cplan['band_lo_hz']:.0f}, {cplan['band_hi_hz']:.0f}] Hz")
    for e in cplan["entries"]:
        print(f"  trace {e['trace_id']}: alpha = {e['alpha_s']:.4f} S in {e['iterations']} "
              f"steps (crossover {e['f_cr_start_hz']:.1f} -> {e['f_cr_final_hz']:.1f} Hz)")

    # each verification designs the damper at the top node; node and
    # ad_mode only change where and which variant it installs
    base = damper_defaults_from_file(net)
    verifications = [write(cmd_verify, replace(cfg, out_dir=str(out / sub), **change), base)
                     for sub, change in [("verify_top", {}),
                                         ("verify_runner_up", {"node": ranking[1]}),
                                         ("verify_traditional", {"ad_mode": "traditional"})]]
    print(f"calibrated damper gain k_v = {verifications[0].data['calibrated_k_v']:.4f}")
    for doc in verifications:
        print(f"verify: {doc.data['ad_mode']} damper at node {doc.data['install_node']}: "
              f"{doc.verdict}")
        print_criticals(doc.data["after"]["crossovers"], "    still critical:")
    print(f"CSV outputs in {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
