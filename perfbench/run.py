"""Benchmark for blockspectra: end-to-end metrics, or per-layer metrics when traced.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload isi-grid --seed 1 --seconds 60 --trace 0

Each pass of a workload runs in a fresh process, so every pass pays
interpreter start, imports and config parsing as a CLI user does. Within
``--seconds`` the run starts two set-up-only processes and then a pass,
and repeats that (at least once) until the next round would overrun.
Outputs of every pass are checked; a wrong output makes ``correct`` false
and the exit code 1.

The last line of standard output is the result object
(``correct``, ``attempted``, ``failed``, ``metrics``). The line before it
is a report with the environment, the correctness values, the failure
counts by type, the artifact digests and, when traced, the per-layer
metrics and the tracing overhead. Both also go to
``.perfbench_out/results/``, with the spans of a traced pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import workloads as wl

HARD_LIMIT_S = 170.0  # the whole run, child processes included
# Set-up-only processes run in pairs before each pass, after one untimed
# warm-up, so that set-up and pass samples span the same stretch of the
# run and a slow minute of the host weighs on both alike.
PROBES_PER_PASS = 2
MAX_PASSES = 12
# One BLAS thread: on a 2-core box OpenBLAS worker threads spin between
# calls and compete with the interpreter thread; pinned, the workloads ran
# faster (point-queries 6.4 s vs 7.7 s) and with a third of the spread.
PINNED_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "query_p50_ms": "ms",
    "query_p95_ms": "ms",
    "moment_err": "ratio",
    "mass_err": "1",
}
# The single-point route metrics (solver.point_s.<route> and the like) are
# computed by tracing.layer_metrics and appear in the report, but are not
# listed: only the unlisted point-queries workload makes them nonzero.
PER_LAYER = {
    "covariance.build_s": "s",
    "covariance.eta_s": "s",
    "covariance.eta_bytes": "bytes",
    "covariance.eta_nnz": "count",
    "covariance.self_s": "s",
    "solver.grid_s": "s",
    "solver.grid_s.K4": "s",
    "solver.grid_s.K5": "s",
    "solver.grid_points": "count",
    "solver.grid_iterations": "count",
    "solver.worst_residual": "1",
    "solver.max_im_eig": "1",
    "solver.self_s": "s",
    "spectrum.density_s": "s",
    "spectrum.self_s": "s",
    "nonsep.density_s": "s",
    "nonsep.self_s": "s",
    "oracle.sample_s": "s",
    "oracle.samples": "count",
    "oracle.kept_mb": "MB",
    "oracle.ks_s": "s",
    "oracle.nc2_s": "s",
    "oracle.self_s": "s",
    "cli.parse_s": "s",
    "cli.emit_s": "s",
    "cli.emit_mb": "MB",
    "cli.run_s": "s",
    "cli.self_s": "s",
    "fail_frac": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


RESULTS = Path(".perfbench_out", "results")  # under the checkout root


class BenchError(Exception):
    """The run could not be carried out; no result is printed."""


def _source_identity(root: Path) -> dict:
    """The git commit when the checkout is a repository, and a digest of src/."""
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = None
    h = hashlib.sha256()
    for p in sorted((root / "src").rglob("*.py")):
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return {"git_commit": commit, "src_sha256": h.hexdigest()}


class Runner:
    """Starts the child processes of one run and collects their results."""

    def __init__(self, root: Path, work: Path, inputs: dict, started: float,
                 spans_path: Path | None = None):
        self.root, self.work, self.inputs, self.started = root, work, inputs, started
        self.spans_path = spans_path or work / "spans.json"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), **PINNED_THREADS)
        self.count = 0
        # Each child is pinned to one CPU, taking the CPUs in turn. Left to
        # the scheduler, consecutive children mostly land on the CPU the last
        # one used, and on a shared host the speed of each virtual CPU drifts
        # on its own (two probes, one per CPU, did not correlate), so a whole
        # run could sample one CPU's slow stretch. Taking turns, passes and
        # set-up probes alike sample every CPU. One CPU per child suffices:
        # BLAS and the CLI pool each run one thread.
        self.cpus = sorted(os.sched_getaffinity(0))

    def spawn(self, mode: str, trace: bool = False) -> dict:
        self.count += 1
        tag = f"{mode}{self.count}"
        job = {
            "mode": mode, "trace": trace, "inputs": self.inputs,
            "out_dir": str(self.work / tag),
            "spans_path": str(self.spans_path),
        }
        job_path = self.work / f"{tag}.job.json"
        result_path = self.work / f"{tag}.result.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        remaining = HARD_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("time limit reached before the run finished")
        child = Path(__file__).with_name("child.py")
        spawned = time.monotonic()
        cpu = self.cpus[self.count % len(self.cpus)]
        proc = subprocess.Popen(
            [sys.executable, str(child), str(job_path), str(result_path)],
            cwd=self.root, env=self.env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            preexec_fn=lambda: os.sched_setaffinity(0, {cpu}),
        )
        try:
            _, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"{mode} process exceeded the {HARD_LIMIT_S:.0f} s limit")
        if proc.returncode != 0:
            raise BenchError(f"{mode} process failed:\n{err.decode(errors='replace')[-3000:]}")
        out = json.loads(result_path.read_text(encoding="utf-8"))
        out["setup_s"] = out["setup_done"] - spawned
        if mode == "pass":
            out["wall_s"] = out["last_artifact"] - spawned
            shutil.rmtree(self.work / tag, ignore_errors=True)
        return out


def measure(root: Path, workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    started = time.monotonic()
    work = root / ".perfbench_out" / f"{workload}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    (root / RESULTS).mkdir(parents=True, exist_ok=True)
    try:
        inputs = wl.make_inputs(workload, seed, root, 1.0, work / "inputs")
        runner = Runner(root, work, inputs, started,
                        root / RESULTS / f"{workload}-seed{seed}-spans.json")
        deadline = started + seconds
        runner.spawn("setup")  # warm-up: bytecode caches, page cache
        setups, passes = [], []
        while not passes or (
            len(passes) < MAX_PASSES
            and time.monotonic() + statistics.median(p["wall_s"] for p in passes)
            + PROBES_PER_PASS * statistics.median(setups) <= deadline
        ):
            setups += [runner.spawn("setup")["setup_s"] for _ in range(PROBES_PER_PASS)]
            passes.append(runner.spawn("pass"))
        traced = runner.spawn("pass", trace=True) if trace else None
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(root, inputs, setups, passes, traced)


def _failure(op) -> str:
    where = "" if op.get("x") is None else f" at x={op['x']:.6g}"
    return f"{op['label']}{where}: {op['outcome']}"


def summarize(root, inputs, setups, passes, traced):
    everything = passes + ([traced] if traced else [])
    outcomes: dict[str, int] = {}
    for p in everything:
        for op in p["ops"]:
            outcomes[op["outcome"]] = outcomes.get(op["outcome"], 0) + 1
    attempted = sum(outcomes.values())
    failed = attempted - outcomes.get("ok", 0)
    # a query's latency is its median over the passes; percentiles run across queries
    latencies = [statistics.median(p["ops"][i]["ms"] for p in passes)
                 for i in range(len(passes[0]["ops"]))]
    checks: dict[str, float] = {}
    for p in everything:
        for name, value in p["checks"].items():
            checks[name] = max(checks.get(name, 0.0), value)
    # any failed operation (typed error, unconverged, mass or clip warning) invalidates the run
    failures = {_failure(op) for p in everything for op in p["ops"] if op["outcome"] != "ok"}
    violations = sorted({v for p in everything for v in p["violations"]} | failures)
    digests = [p["digests"] for p in everything]
    if any(d != digests[0] for d in digests):
        violations.append("artifact digests differ between passes of the same code")
    src = str((root / "src").resolve())
    if any(not str(Path(p["module"]).resolve()).startswith(src) for p in everything):
        violations.append("the package was not imported from this checkout's src/")
    if traced and (traced["span_problems"] or traced["missing_wrappers"]):
        violations.append("span tree malformed or a traced function is missing")
    if "moment_err" not in checks:
        violations.append("no moment comparison was made")
    walls = [p["wall_s"] for p in passes]
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        "query_p50_ms": float(np.percentile(latencies, 50)),
        "query_p95_ms": float(np.percentile(latencies, 95)),
        "moment_err": checks.get("moment_err", 1.0),
        # point-queries makes no density, so it reports no mass_err
        "mass_err": checks.get("mass_err"),
    }
    report = {
        "workload": inputs["workload"],
        "env": dict(passes[0]["env"], **_source_identity(root), cli_threads=wl.CLI_THREADS),
        "passes": len(passes),
        "setup_samples": len(setups),
        "query_samples": len(latencies),
        "wall_s_per_pass": walls,
        "outcomes": outcomes,
        "fail_frac": failed / attempted,
        "end_to_end": {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()
                       if metrics[k] is not None},
        "checks": {k: {"value": v, "unit": "ratio" if k == "moment_err" else "1"}
                   for k, v in checks.items()},
        "violations": violations,
        "digests": digests[0],
    }
    if traced:
        layers = dict(traced["layers"])
        layers["fail_frac"] = failed / attempted
        layers["trace.wall_s"] = traced["wall_s"]
        layers["trace.overhead_s"] = traced["wall_s"] - metrics["wall_s"]
        layers["trace.spans"] = float(traced["span_count"])
        report["per_layer"] = layers
        shown = {k: {"value": layers[k], "unit": u} for k, u in PER_LAYER.items()}
    else:
        shown = {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END.items()
                 if metrics[k] is not None}
    result = {
        "correct": not violations,
        "attempted": attempted,
        "failed": failed,
        "metrics": shown,
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "blockspectra" / "__init__.py").is_file():
        print("perfbench: run from a checkout root containing src/blockspectra", file=sys.stderr)
        return 2
    try:
        report, result = measure(root, args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    report.update(seed=args.seed, seconds=args.seconds, trace=args.trace)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (root / RESULTS / name).write_text(json.dumps({"report": report, "result": result}, indent=1),
                                encoding="utf-8")
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
