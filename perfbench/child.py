"""One fresh benchmark process: set-up only, or one pass of a workload.

Usage: python3 perfbench/child.py JOB.json RESULT.json

The job names the workload inputs, the mode (``setup`` or ``pass``),
whether to trace, and the output directory. Times are reported as
``time.monotonic()`` readings, which share one clock across processes, so
the parent can measure from the moment it started this process.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path


def _blas_info(np) -> dict:
    """Name, version and thread count of the BLAS numpy is linked against."""
    info = {"name": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info.update(name=blas.get("name"), version=blas.get("version"))
    except (KeyError, TypeError):
        pass
    try:
        with open("/proc/self/maps", encoding="utf-8") as maps:
            libs = {line.split()[-1] for line in maps if "blas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def environment() -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),  # run.py pins each child
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_info(np),
    }


def _grid_rows(tracer, records) -> tuple[dict, list]:
    """Direct public grid solves on each operation's settled grid, smaller offset."""
    from blockspectra import solver as slv
    from blockspectra.errors import BlockspectraError

    import numpy as np

    rows, failures = {}, []
    for rec in records:
        start, end = rec["span"]
        inside = [d for d in tracer.densities if start <= d[4] <= end]
        if not inside:
            continue
        name, args, kwargs, density, _ = inside[-1]
        eta, xs, eps2 = args[0], density.xs, density.epsilon_used[1]
        config = kwargs.get("config") or slv.SolverConfig(newton=True)
        t0 = time.perf_counter()
        try:
            if name == "spectrum.density_gram":
                sols, _ = slv.solve_gram_grid(eta, args[1], xs, eps2, config)
            else:
                sols = slv.solve_grid(eta, xs, eps2, config)
        except BlockspectraError as exc:
            failures.append(f"{rec['label']}: direct grid solve raised {type(exc).__name__}")
            continue
        seconds = time.perf_counter() - t0
        Gs = np.stack([s.G for s in sols])
        im = (Gs - Gs.conj().swapaxes(-1, -2)) / 2j
        rows[rec["label"]] = {
            "seconds": seconds,
            "points": len(sols),
            "iterations": int(sum(s.iterations for s in sols)),
            "worst_residual": float(max(s.residual for s in sols)),
            "max_im_eig": float(np.linalg.eigvalsh(im).max()),
            "unconverged": sum(1 for s in sols if not s.converged),
        }
    return rows, failures


def main(argv) -> int:
    job = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    import workloads as wl

    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    inputs = job["inputs"]
    ctx = wl.setup(inputs, build=job["mode"] == "setup")
    out = {"setup_done": time.monotonic()}
    if job["mode"] == "pass":
        import blockspectra

        out_dir = Path(job["out_dir"])
        out_dir.mkdir(parents=True, exist_ok=True)
        pass_out = wl.run_pass(inputs, ctx, out_dir)
        pass_end_ns = time.perf_counter_ns()
        # the eta tensors the pass made, before the checks build their own
        etas = list(tracer.etas.values()) if tracer is not None else []
        out["last_artifact"] = pass_out["last_artifact"]
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        records = pass_out["records"]
        out["ops"] = [
            {"label": r["label"], "x": r.get("x"), "outcome": r["outcome"],
             "ms": (r["span"][1] - r["span"][0]) / 1e6}
            for r in records
        ]
        checks = wl.check_pass(inputs, ctx, pass_out, out_dir)
        out["checks"] = checks.values
        out["violations"] = checks.violations
        out["digests"] = wl.digest_outputs(inputs, pass_out, out_dir)
        out["module"] = blockspectra.__file__
        out["env"] = environment()
        if tracer is not None:
            import tracing

            # only the pass's spans: the checks and direct grid solves come later
            spans = [s for s in tracer.spans if s["start"] <= pass_end_ns]
            rows, failures = _grid_rows(tracer, records)
            for row in rows.values():
                if row["max_im_eig"] > wl.IM_EIG_TOL or row["unconverged"]:
                    failures.append("direct grid solve left the physical branch or stalled")
            out["violations"] += failures
            out["layers"] = tracing.layer_metrics(spans, etas, rows)
            out["span_problems"] = tracing.check_tree(tracer.spans)
            out["missing_wrappers"] = tracer.missing
            out["span_count"] = len(spans)
            Path(job["spans_path"]).write_text(json.dumps(tracer.spans), encoding="utf-8")
    Path(argv[2]).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
