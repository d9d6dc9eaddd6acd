#!/usr/bin/env python3
"""How fast finite blocks reach the asymptotic channel capacity.

Computes the asymptotic per-dimension capacity of a short ISI channel over
an SNR grid and compares it with seeded finite-N Monte Carlo capacities for
several block sizes (median over realizations). With the defaults
(K = L = 2, N in {2, 4, 10}) the N = 10 curve already tracks the asymptote
to a few percent.

Run:
    python scripts/capacity_convergence.py --out results/capacity
"""

import argparse
from pathlib import Path

import numpy as np

import blockspectra as bs
from blockspectra.cli import CsvArtifact, JsonArtifact, emit


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--K", type=int, default=2)
    ap.add_argument("--L", type=int, default=2)
    ap.add_argument("--sizes", type=int, nargs="+", default=[2, 4, 10])
    ap.add_argument("--realizations", type=int, default=50)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--snr-points", type=int, default=25)
    ap.add_argument("--out", type=Path, default=Path("results/capacity"))
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    spec = bs.isi_covariance(args.K, args.L)
    dens = bs.density_hh_star(
        spec, epsilon=1e-4, config=bs.SolverConfig(tol=1e-12)
    )
    snrs = np.geomspace(0.05, 50.0, args.snr_points)
    asymptotic = np.array([bs.capacity(dens, s) for s in snrs])

    columns = {"snr": snrs, "bits": asymptotic}
    for N in args.sizes:
        per_real = []
        for r in range(args.realizations):
            seed = np.random.SeedSequence(entropy=args.seed, spawn_key=(N, r))
            lam = np.clip(
                bs.sample_block_gaussian(spec, N, seed).eigenvalues, 0.0, None
            )
            per_real.append([np.mean(np.log2(1.0 + s * lam)) for s in snrs])
        med = np.median(np.array(per_real), axis=0)
        columns[f"bits_mc_N{N}"] = med
        gap = np.abs(med / asymptotic - 1.0).max()
        print(f"N = {N:3d}: worst relative gap to asymptote = {gap:.4f}")

    header = tuple(columns)
    rows = tuple(zip(*columns.values()))
    emit(CsvArtifact(header, rows), args.out / "capacity.csv")
    emit(JsonArtifact({
        "K": args.K, "L": args.L, "sizes": args.sizes,
        "realizations": args.realizations, "seed": args.seed,
    }), args.out / "summary.json")
    print(f"artifacts in {args.out}/")


if __name__ == "__main__":
    main()
