#!/usr/bin/env python3
"""Limiting spectrum of the banded ISI channel vs finite-size simulation.

Solves the Gram-law density for a K-frame, L-tap channel, pools eigenvalues
of seeded finite-N realizations, and writes plot-ready CSV/JSON artifacts
together with the KS distance between the two. With the defaults (K = L = 4,
N = 100, 100 realizations) this reproduces the classic overlay experiment
at desk scale.

Run:
    python scripts/isi_spectrum_experiment.py --out results/isi44
"""

import argparse
import json
from pathlib import Path

import numpy as np

import blockspectra as bs
from blockspectra.cli import CsvArtifact, JsonArtifact, emit


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--K", type=int, default=4, help="frame length")
    ap.add_argument("--L", type=int, default=4, help="channel taps")
    ap.add_argument("--N", type=int, default=100, help="block size per realization")
    ap.add_argument("--realizations", type=int, default=100)
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--epsilon", type=float, default=1e-4)
    ap.add_argument("--out", type=Path, default=Path("results/isi_spectrum"))
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    spec = bs.isi_covariance(args.K, args.L)
    cfg = bs.SolverConfig(tol=1e-12)
    dens = bs.density_hh_star(spec, epsilon=args.epsilon, config=cfg)
    print(f"solved density on [{dens.xs[0]:.3g}, {dens.xs[-1]:.3g}], "
          f"mass = {bs.mass(dens):.6f}")

    pooled = []
    for r in range(args.realizations):
        seed = np.random.SeedSequence(entropy=args.seed, spawn_key=(args.N, r))
        pooled.append(bs.sample_block_gaussian(spec, args.N, seed).eigenvalues)
    pooled = np.sort(np.concatenate(pooled))
    ks = bs.ks_distance(pooled, bs.cdf(dens))
    print(f"pooled {pooled.size} eigenvalues from {args.realizations} runs at "
          f"N = {args.N}: KS distance = {ks:.4f}")

    emit(CsvArtifact(("x", "density"), tuple(zip(dens.xs, dens.ps))),
         args.out / "density.csv")
    emit(CsvArtifact(("eigenvalue",), tuple((x,) for x in pooled)),
         args.out / "eigenvalues.csv")
    emit(JsonArtifact(bs.histogram(pooled)), args.out / "histogram.json")
    emit(JsonArtifact({
        "K": args.K, "L": args.L, "N": args.N,
        "realizations": args.realizations, "seed": args.seed,
        "ks_distance": ks, "mass": bs.mass(dens),
    }), args.out / "summary.json")
    print(f"artifacts in {args.out}/")


if __name__ == "__main__":
    main()
