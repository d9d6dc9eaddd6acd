#!/usr/bin/env python3
"""In-process A/B timing of two source trees on the ``isi-grid`` operations.

    python scripts/ab_inprocess.py PARENT CHANGE [--rounds R] [--runs N]

PARENT and CHANGE are checkout roots. Each round starts one child process
per tree, alternating which tree goes first. A child imports its tree's
``src/`` with one BLAS thread and parses three operations from that tree's
``configs/``: ``isi_k4_l4`` ``density`` (K4), the same config at ``K = 5``
without its ``mc`` block (K5), and ``nonsep_t2`` ``moments``. It runs each
operation once to warm up, then times N calls of ``cli.run(..., threads=1)``
per operation; parsing is outside the timing. The script prints, per
operation, each tree's 10th percentile over all rounds, the range of the
per-round 10th percentiles, and the change/parent ratio of the pooled ones.

Process start-up, imports and the harness are left out, so a gain in the
solver shows here before it can clear ``perfbench``'s end-to-end noise;
``perfbench`` stays the gate for end-to-end metrics.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

OPS = ("K4", "K5", "nonsep_t2")


def child(root: Path, runs: int) -> dict:
    """Per operation, the seconds of ``runs`` timed calls of ``cli.run`` in this process."""
    sys.path.insert(0, str(root / "src"))
    from blockspectra import cli

    configs = root / "configs"
    k4 = json.loads((configs / "isi_k4_l4.json").read_text(encoding="utf-8"))
    k5 = {key: value for key, value in k4.items() if key != "mc"}
    ops = {
        "K4": ("density", cli.parse_config(configs / "isi_k4_l4.json")),
        "K5": ("density", cli.parse_config(json.dumps(dict(k5, K=5)))),
        "nonsep_t2": ("moments", cli.parse_config(configs / "nonsep_t2.json")),
    }
    times = {}
    with tempfile.TemporaryDirectory() as out:
        for label, (command, config) in ops.items():
            cli.run(command, config, out_dir=out, threads=1)
            seconds = []
            for _ in range(runs):
                t0 = time.perf_counter()
                cli.run(command, config, out_dir=out, threads=1)
                seconds.append(time.perf_counter() - t0)
            times[label] = seconds
    return times


def spawn(root: Path, runs: int) -> dict:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", str(root), "--runs", str(runs)],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", nargs="?", type=Path)
    parser.add_argument("change", nargs="?", type=Path)
    parser.add_argument("--rounds", type=int, default=5)
    parser.add_argument("--runs", type=int, default=40)
    parser.add_argument("--child", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        print(json.dumps(child(args.child.resolve(), args.runs)))
        return 0
    if args.parent is None or args.change is None:
        parser.error("PARENT and CHANGE are required")
    if args.rounds < 1 or args.runs < 1:
        parser.error("--rounds and --runs must be at least 1")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    rounds = {name: [] for name in trees}
    for r in range(args.rounds):
        order = list(trees) if r % 2 == 0 else list(trees)[::-1]
        for name in order:
            rounds[name].append(spawn(trees[name], args.runs))
    print(f"in-process p10 over {args.rounds} rounds x {args.runs} runs, ms "
          "(pooled, per-round range)")
    for op in OPS:
        p10 = {}
        cells = []
        for name in trees:
            per_round = [1e3 * np.percentile(times[op], 10) for times in rounds[name]]
            p10[name] = 1e3 * np.percentile(np.concatenate([t[op] for t in rounds[name]]), 10)
            cells.append(f"{name} {p10[name]:.2f} ({min(per_round):.2f}-{max(per_round):.2f})")
        ratio = p10["change"] / p10["parent"]
        print(f"{op:10s} " + "  ".join(cells) + f"  change/parent {ratio:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
