#!/usr/bin/env python3
"""Damper admittance curves: proposed vs traditional control, plus
parameter clusters (filter inductance, intended low-pass gain, damper
gain).  Runs the CLI's ad-curve command on the built-in case-study
network, whose file gives the fundamental and the damper parameters, once
per mode and once per cluster, each into its own subdirectory of --out."""

import argparse
import sys
from pathlib import Path

from damp_planner import RunConfig, emit_fixture, run_command
from damp_planner.cli_reporting import OPERATIONAL_ERRORS

CLUSTERS = {
    "l_f_h": (0.4e-3, 0.8e-3, 1.6e-3),
    "gain_s": (0.03, 0.06, 0.12),
    "k_v": (0.5, 1.0, 1.5, 2.0),
}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kv", type=float, default=1.5, help="damper gain")
    ap.add_argument("--fmax", type=float, default=3000.0)
    ap.add_argument("--out", default="out/ad_curves")
    args = ap.parse_args()

    out = Path(args.out)
    net = emit_fixture(out / "network.json")
    runs = [(mode, {"ad_mode": mode}) for mode in ("proposed", "traditional")]
    runs += [(f"cluster_{param}", {"cluster_param": param, "cluster_values": values})
             for param, values in CLUSTERS.items()]
    for sub, settings in runs:
        cfg = RunConfig(network=str(net), fmax_hz=args.fmax, df_hz=2.0, k_v=args.kv,
                        out_dir=str(out / sub), **settings)
        run_command(cfg, "ad-curve")
        print(f"wrote {cfg.out_dir}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except OPERATIONAL_ERRORS as e:
        print(f"error: {e}", file=sys.stderr)
        sys.exit(1)
