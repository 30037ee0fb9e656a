#!/usr/bin/env python3
"""Damper admittance curves: proposed vs traditional control, plus
parameter clusters (filter inductance, intended low-pass gain, damper
gain).  Emits plot-ready CSVs."""

import argparse
import csv
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from damp_planner import FrequencyGrid, ad_curve_cluster
from damp_planner.cli_reporting import CASE_STUDY_AD_PARAMS
from damp_planner.component_models import ADParams, ad_scalar

# the case study is a 50 Hz system (the fixture's fundamental_hz)
OMEGA0 = 2 * math.pi * 50.0


def write_curves(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="\n") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
    print(f"wrote {path}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kv", type=float, default=1.5, help="damper gain")
    ap.add_argument("--fmax", type=float, default=3000.0)
    ap.add_argument("--out", default="out/ad_curves")
    args = ap.parse_args()

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    grid = FrequencyGrid.regular(10.0, args.fmax, 2.0)
    base = ADParams(**{**CASE_STUDY_AD_PARAMS, "k_v": args.kv})

    rows = []
    for mode in ("proposed", "traditional"):
        p = dataclasses.replace(base, mode=mode)
        y = ad_scalar(p, grid.hz, OMEGA0)
        with np.errstate(divide="ignore"):
            ratio = np.abs(y.imag / y.real)
        rows += [[mode, f"{f:.9g}", f"{v.real:.9g}", f"{v.imag:.9g}", f"{r:.9g}"]
                 for f, v, r in zip(grid.hz, y, ratio)]
    write_curves(out / "modes.csv",
                 ["mode", "f_hz", "re_y_s", "im_y_s", "abs_im_re_ratio"], rows)

    sweeps = {
        "l_f_h": [0.4e-3, 0.8e-3, 1.6e-3],
        "gain_s": [0.03, 0.06, 0.12],
        "k_v": [0.5, 1.0, 1.5, 2.0],
    }
    for param, values in sweeps.items():
        rows = []
        for curve in ad_curve_cluster(base, param, values, grid.hz, OMEGA0):
            rows += [[f"{curve.value:.9g}", f"{f:.9g}", f"{v.real:.9g}", f"{v.imag:.9g}"]
                     for f, v in zip(curve.f_hz, curve.y)]
        write_curves(out / f"cluster_{param}.csv",
                     [param, "f_hz", "re_y_s", "im_y_s"], rows)
    return 0


if __name__ == "__main__":
    sys.exit(main())
