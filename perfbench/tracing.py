"""Spans around the package's public functions, installed from outside it.

:func:`install` replaces public functions on the package's module objects
with recording wrappers. Callers look these functions up as module
attributes (``cli`` calls ``cov.isi_covariance``, ``spc.density_hh_star``,
``emit`` and so on), so they reach the wrappers without any change to the
package. Spans carry name, start, end and parent, stay in memory, and are
written once when the traced pass ends.

:func:`layer_metrics` turns spans into the per-layer metrics. A layer's
self time is the duration of its spans minus the time their child spans
cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import statistics
import threading
import time

import numpy as np

# module -> layer name and the public functions wrapped there
TRACED = {
    "blockspectra.covariance": ("covariance", (
        "selfadjoint_covariance", "hh_star_covariance", "rectangular_covariance",
        "isi_covariance", "validate_covariance",
        "hermitize_covariance", "eta_map", "eta_alpha_map", "eta1_map", "eta2_map",
    )),
    "blockspectra.solver": ("solver", (
        "solve_fixed_point", "newton_refine", "solve_grid", "solve_hh_star",
        "solve_hh_star_grid", "solve_gram_grid", "solve_hh_star_direct", "moment_check",
    )),
    "blockspectra.spectrum": ("spectrum", (
        "density_from_eta", "density_gram", "density_hh_star", "density_h_star_h",
        "stieltjes_invert", "capacity", "cdf", "moments_from_density",
    )),
    "blockspectra.nonsep": ("nonsep", (
        "validate_family", "build_nonsep_eta", "hermitized_eta",
        "solve_fading", "solve_fading_block", "fading_density",
    )),
    "blockspectra.oracle": ("oracle", (
        "sample_block_gaussian", "empirical_spectrum", "ks_distance", "nc2_moment",
        "histogram",
    )),
    "blockspectra.cli": ("cli", ("parse_config", "run", "emit")),
}

BUILD = {f"covariance.{n}" for n in (
    "selfadjoint_covariance", "hh_star_covariance", "rectangular_covariance",
    "isi_covariance", "validate_covariance")}
ETA = {f"covariance.{n}" for n in (
    "hermitize_covariance", "eta_map", "eta_alpha_map", "eta1_map", "eta2_map")}
ETA_PRODUCERS = ETA | {"nonsep.build_nonsep_eta", "nonsep.hermitized_eta"}
DENSITY = {f"spectrum.{n}" for n in (
    "density_from_eta", "density_gram", "density_hh_star", "density_h_star_h")}
# point-query routes: span name -> metric suffix
ROUTES = {
    "solver.solve_fixed_point": ("solver", "fixed_point"),
    "solver.solve_hh_star": ("solver", "hh_star"),
    "solver.solve_hh_star_direct": ("solver", "hh_star_direct"),
    "solver.moment_check": ("solver", "moment_check"),
    "nonsep.solve_fading": ("nonsep", "fading"),
    "nonsep.solve_fading_block": ("nonsep", "fading_block"),
}
LAYERS = ("covariance", "solver", "spectrum", "nonsep", "oracle", "cli")
GRID_ROWS = ("K4", "K5")  # per-size rows of the ISI grid solve


def _attrs(name, result):
    """Counts recorded at the boundary, from the call's result."""
    if name in ROUTES:
        if hasattr(result, "iterations"):
            return {"iterations": int(result.iterations), "converged": bool(result.converged)}
        return {}
    if name == "oracle.sample_block_gaussian":
        return {"bytes": int(result.matrix.nbytes + result.eigenvalues.nbytes)}
    if name == "cli.emit":
        return {"bytes": int(result.stat().st_size)}
    return {}


class Tracer:
    """In-memory span recorder; one parent stack per thread."""

    def __init__(self):
        self.spans: list[dict] = []
        self.densities: list[tuple] = []  # (name, args, kwargs, result, start_ns)
        self.etas: dict[int, np.ndarray] = {}  # every distinct eta tensor materialized
        self.missing: list[str] = []
        self._local = threading.local()
        self._ids = itertools.count()

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            span = {"id": sid, "parent": stack[-1] if stack else None, "name": name}
            stack.append(sid)
            span["start"] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span["error"] = type(exc).__name__
                raise
            finally:
                span["end"] = time.perf_counter_ns()
                stack.pop()
                self.spans.append(span)
            span.update(_attrs(name, result))
            if name in ("spectrum.density_from_eta", "spectrum.density_gram"):
                self.densities.append((name, args, kwargs, result, span["start"]))
            if name in ETA_PRODUCERS:
                maps = result if isinstance(result, tuple) else (result,)
                self.etas.update((id(m.tensor), m.tensor) for m in maps if hasattr(m, "tensor"))
            return result
        return traced

    def install(self):
        for modname, (layer, names) in TRACED.items():
            mod = importlib.import_module(modname)
            for name in names:
                fn = getattr(mod, name, None)
                if fn is None:
                    self.missing.append(f"{layer}.{name}")
                    continue
                setattr(mod, name, self.wrap(f"{layer}.{name}", fn))


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------

def _union_seconds(spans) -> float:
    """Wall time covered by the union of the spans' intervals."""
    total, cur_start, cur_end = 0, None, None
    for s in sorted(spans, key=lambda s: s["start"]):
        if cur_end is None or s["start"] > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s["start"], s["end"]
        else:
            cur_end = max(cur_end, s["end"])
    if cur_end is not None:
        total += cur_end - cur_start
    return total / 1e9


def check_tree(spans) -> list[str]:
    """Problems with the span tree: unknown parents, children outside parents."""
    by_id = {s["id"]: s for s in spans}
    problems = []
    for s in spans:
        if s["end"] < s["start"]:
            problems.append(f"span {s['id']} {s['name']} ends before it starts")
        p = s["parent"]
        if p is None:
            continue
        if p not in by_id:
            problems.append(f"span {s['id']} {s['name']} has unknown parent {p}")
            continue
        parent = by_id[p]
        if not parent["start"] <= s["start"] <= s["end"] <= parent["end"]:
            problems.append(f"span {s['id']} {s['name']} lies outside parent {parent['name']}")
    return problems


def self_seconds(spans) -> dict[str, float]:
    """Per-layer self time: span durations minus the time their children cover."""
    children: dict[int, list] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        own = (s["end"] - s["start"]) / 1e9 - _union_seconds(children.get(s["id"], []))
        layer = s["name"].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + own
    return out


def layer_metrics(spans, etas, grid_rows: dict) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced pass.

    ``etas`` are the distinct eta tensors the pass materialized (their bytes
    and nonzeros are computed, not measured). ``grid_rows`` holds the
    benchmark's direct grid solves, keyed by operation label.
    """
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    def pick(*names):
        return [s for n in names for s in by_name.get(n, [])]

    names = {s["id"]: s["name"] for s in spans}
    emits = pick("cli.emit")
    samples = pick("oracle.sample_block_gaussian")
    m = {
        "covariance.build_s": _union_seconds(pick(*BUILD)),
        "covariance.eta_s": _union_seconds(pick(*ETA)),
        "covariance.eta_bytes": float(sum(t.nbytes for t in etas)),
        "covariance.eta_nnz": float(sum(np.count_nonzero(t) for t in etas)),
        "spectrum.density_s": _union_seconds(pick(*DENSITY)),
        "nonsep.density_s": _union_seconds(pick("nonsep.fading_density")),
        "oracle.sample_s": _union_seconds(samples),
        "oracle.samples": float(len(samples)),
        "oracle.kept_mb": sum(s.get("bytes", 0) for s in samples) / 1e6,
        "oracle.ks_s": _union_seconds(pick("oracle.ks_distance")),
        "oracle.nc2_s": _union_seconds(pick("oracle.nc2_moment")),
        "cli.parse_s": _union_seconds(pick("cli.parse_config")),
        "cli.run_s": _union_seconds(pick("cli.run")),
        "cli.emit_s": _union_seconds(emits),
        "cli.emit_mb": sum(s.get("bytes", 0) for s in emits) / 1e6,
    }
    unconverged = 0
    for name, (layer, route) in ROUTES.items():
        # a route call is a point query only when no other route or grid call made it
        top = [s for s in pick(name)
               if names.get(s["parent"], "").split(".", 1)[0] not in ("solver", "nonsep")]
        durations = [(s["end"] - s["start"]) / 1e9 for s in top]
        m[f"{layer}.point_s.{route}"] = statistics.median(durations) if durations else 0.0
        top_ids = {s["id"] for s in top}
        its = sum(s.get("iterations", 0) for s in top)
        its += sum(s.get("iterations", 0) for s in spans if s["parent"] in top_ids
                   and s["name"] in ROUTES)
        m[f"{layer}.point_iterations.{route}"] = float(its)
        unconverged += sum(1 for s in top if s.get("converged") is False)
    rows = grid_rows.values()
    m["solver.grid_s"] = float(sum(r["seconds"] for r in rows))
    m["solver.grid_points"] = float(sum(r["points"] for r in rows))
    m["solver.grid_iterations"] = float(sum(r["iterations"] for r in rows))
    for label in GRID_ROWS:
        m[f"solver.grid_s.{label}"] = grid_rows[label]["seconds"] if label in grid_rows else 0.0
    m["solver.worst_residual"] = max((r["worst_residual"] for r in rows), default=0.0)
    m["solver.max_im_eig"] = max((r["max_im_eig"] for r in rows), default=0.0)
    m["solver.unconverged"] = float(unconverged + sum(r["unconverged"] for r in rows))
    for layer, seconds in self_seconds(spans).items():
        m[f"{layer}.self_s"] = seconds
    return m
