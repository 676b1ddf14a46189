#!/usr/bin/env python3
"""Spectral analysis of the Hessian at a steady state.

Writes a CSV of the lowest eigenvalues per spherical-harmonic sector (both
the plain and the Dirichlet-normalized spectra), the translation-mode
alignment, the coercivity constant, and the compactness proxy.

Usage:
  python scripts/run_spectral_report.py --kind king --w0 3 --out spectrum
"""

import argparse
import csv
import json

import numpy as np

from vpstab.spectral import (
    _SectorMatrices,
    coercivity_constant,
    compactness_ratio,
    harmonic_operator_spectrum,
)
from vpstab.steady_state import king_model, polytrope_model


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kind", choices=["king", "polytrope"], default="king")
    ap.add_argument("--w0", type=float, default=3.0)
    ap.add_argument("--q", type=float, default=1.0)
    ap.add_argument("--depth", type=float, default=1.0)
    ap.add_argument("--k-max", type=int, default=4)
    ap.add_argument("--n-eigs", type=int, default=4)
    ap.add_argument("--out", default="spectrum")
    args = ap.parse_args()

    model = king_model(args.w0) if args.kind == "king" else polytrope_model(args.q, args.depth)
    # the Dirichlet-normalized column: the pencil of each sector on the
    # grid harmonic_operator_spectrum uses, solved on one sector set
    sm = _SectorMatrices(model)
    rows = []
    kernel_residual = None
    for k in range(args.k_max + 1):
        rep = harmonic_operator_spectrum(model, k, n_eigs=args.n_eigs)
        if k == 1:
            kernel_residual = rep.kernel_residual
        dirichlet = sm.dirichlet_eigenvalues(k, args.n_eigs)
        for idx in range(args.n_eigs):
            rows.append((k, idx, rep.eigenvalues[idx], dirichlet[idx]))

    with open(f"{args.out}_eigenvalues.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "index", "eigenvalue", "dirichlet_normalized"])
        for row in rows:
            writer.writerow([row[0], row[1], repr(float(row[2])), repr(float(row[3]))])

    report = {
        "kind": args.kind,
        "c0": coercivity_constant(model),
        "kernel_alignment_residual": kernel_residual,
        "compactness_ratio_20_to_1": compactness_ratio(model),
        "V_max": float(model.vq_fn(np.array([0.0]))[0]),
    }
    with open(f"{args.out}_report.json", "w") as fh:
        json.dump(report, fh, indent=1)
    print(json.dumps(report, indent=1))


if __name__ == "__main__":
    main()
