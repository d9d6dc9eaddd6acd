"""Batch front end: JSON problem configs in, CSV/JSON artifacts out.

One process runs one command against one config:

    blockspectra --config problem.json --command density --out results/

Commands: ``density`` (x, density CSV), ``capacity`` (snr, bits CSV with
optional Monte Carlo columns), ``mc-compare`` (pooled eigenvalue dump,
histogram JSON, KS summary), ``moments`` (recursion vs density table).
Complex numbers in configs are [re, im] pairs. Unknown keys are rejected.
Exit codes: 0 ok, 1 numerical failure, 2 usage error; failures print a
machine-readable error JSON to stdout.

Everything that differs between models (config keys and how to parse and
dump them, the model build, the density and moment routes, whether the
law is a Gram law and whether it can be sampled) is one row of
``_MODELS``; parsing, serializing and the commands loop over that row.
Each config's model is built once and cached.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import covariance as cov
from . import nonsep as ns
from . import oracle as orc
from . import solver as slv
from . import spectrum as spc
from .errors import (
    BlockspectraError,
    InvariantViolation,
    IoError,
    ParseError,
    ValidationError,
)

COMMANDS = ("density", "capacity", "mc-compare", "moments")
ENV_THREADS = "BLOCKSPECTRA_THREADS"

_GRID_KEYS = {"xmin", "xmax", "points", "epsilon"}
_SOLVER_KEYS = {"tol", "max_iter", "newton"}
_MC_KEYS = {"N", "realizations", "seed"}
_TOP_KEYS = {"model", "grid", "solver", "snr", "mc"}


@dataclass(frozen=True)
class GridConfig:
    xmin: float | None = None
    xmax: float | None = None
    points: int = 512
    epsilon: float | None = None


@dataclass(frozen=True)
class McConfig:
    N: tuple[int, ...] = ()
    realizations: int = 1
    seed: int = 0


@dataclass(frozen=True)
class ProblemConfig:
    """One fully validated problem: model, grid, solver, optional snr/mc."""

    model: str
    K: int | None = None
    L: int | None = None
    taps: tuple[float, ...] | None = None
    d: int | None = None
    a: int | None = None
    b: int | None = None
    alpha: tuple[float, ...] | None = None
    entries: tuple[tuple[int, int, int, int, complex], ...] | None = None
    psi: tuple[tuple[tuple[complex, ...], ...], ...] | None = None
    psi_hat: tuple[tuple[tuple[complex, ...], ...], ...] | None = None
    grid: GridConfig = field(default_factory=GridConfig)
    solver: slv.SolverConfig = field(default_factory=lambda: slv.SolverConfig(newton=True))
    snr: tuple[float, ...] | None = None
    mc: McConfig | None = None


def _complex_value(raw, where):
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        return complex(raw)
    if (
        isinstance(raw, list)
        and len(raw) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in raw)
    ):
        return complex(raw[0], raw[1])
    raise ValidationError(where, f"{where}: expected a number or [re, im] pair")


def _int_value(raw, where, minimum=None):
    if not isinstance(raw, int) or isinstance(raw, bool):
        raise ValidationError(where, f"{where}: expected an integer")
    if minimum is not None and raw < minimum:
        raise ValidationError(where, f"{where}: must be >= {minimum}")
    return raw


def _float_value(raw, where):
    if not isinstance(raw, (int, float)) or isinstance(raw, bool):
        raise ValidationError(where, f"{where}: expected a number")
    return float(raw)


def _reject_unknown(mapping, allowed, where):
    unknown = set(mapping) - allowed
    if unknown:
        raise ValidationError(
            sorted(unknown)[0], f"{where}: unknown key(s) {sorted(unknown)}"
        )


def _parse_entries(raw, real):
    if not isinstance(raw, list):
        raise ValidationError("entries", "entries: expected a list")
    out = []
    for pos, ent in enumerate(raw):
        where = f"entries[{pos}]"
        if not isinstance(ent, list) or len(ent) != 5:
            raise ValidationError(where, f"{where}: expected [i, j, k, l, value]")
        idx = tuple(_int_value(x, where, minimum=1) for x in ent[:4])
        val = _complex_value(ent[4], where)
        if real and val.imag != 0.0:
            raise ValidationError(where, f"{where}: hh_star values must be real")
        out.append((*idx, val))
    return tuple(out)


def _parse_matrix_list(raw, where):
    if not isinstance(raw, list) or not raw:
        raise ValidationError(where, f"{where}: expected a nonempty list of matrices")
    mats = []
    for s, mat in enumerate(raw):
        here = f"{where}[{s}]"
        if not isinstance(mat, list) or not mat:
            raise ValidationError(here, f"{here}: expected a matrix (list of rows)")
        rows = []
        for r, row in enumerate(mat):
            if not isinstance(row, list) or len(row) != len(mat):
                raise ValidationError(here, f"{here}: matrix must be square")
            rows.append(tuple(_complex_value(x, f"{here}[{r}]") for x in row))
        mats.append(tuple(rows))
    return tuple(mats)


def _float_list(raw, key):
    if not isinstance(raw, list) or not raw:
        raise ValidationError(key, f"{key}: expected a nonempty list")
    return tuple(_float_value(x, key) for x in raw)


def _dump_entries(entries):
    return [[*e[:4], e[4].real if e[4].imag == 0.0 else [e[4].real, e[4].imag]]
            for e in entries]


def _dump_matrices(mats):
    return [[[[x.real, x.imag] for x in row] for row in m] for m in mats]


# ---------------------------------------------------------------------------
# the per-model table: every difference between models lives in one row.
# Routes look package functions up as module attributes when called, so
# wrappers installed on those modules see every call.
# ---------------------------------------------------------------------------

class _Key(NamedTuple):
    """One model key: parse(raw JSON value, key) -> config value, dump back to JSON."""

    parse: Callable
    dump: Callable
    required: bool = True


class _Model(NamedTuple):
    keys: dict[str, _Key]
    build: Callable     # ProblemConfig -> spec or correlation family
    density: Callable   # (model, xs=, npoints=, epsilon=, config=) -> SpectralDensity
    moments: Callable   # model -> (eta, trace weights, (num, den) rescaling the recursion)
    gram: bool          # a nonnegative Gram law: capacity applies, order k pairs with X^(2k)
    sampled: bool = True  # Monte Carlo sampling is defined


_COUNT = _Key(lambda raw, key: _int_value(raw, key, minimum=1), lambda v: v)
_FLOATS = _Key(_float_list, list)
_ENTRIES = _Key(lambda raw, key: _parse_entries(raw, real=False), _dump_entries)
_REAL_ENTRIES = _Key(lambda raw, key: _parse_entries(raw, real=True), _dump_entries)
_MATRICES = _Key(_parse_matrix_list, _dump_matrices)


def _hermitized_moments(spec):
    # X^2 splits its spectrum between the two Gram forms: HH* gets (a+b)/(2a)
    eta = cov._hermitized_map(cov.eta1_map(spec), cov.eta2_map(spec))
    return eta, None, (spec.a + spec.b, 2 * spec.a)


def _family(config):
    return ns.validate_family(ns.CorrelationFamily(
        psi=tuple(np.array(m, dtype=complex) for m in config.psi),
        psi_hat=tuple(np.array(m, dtype=complex) for m in config.psi_hat),
    ))


def _half_trace_weights(family):
    p, q = family.p, family.q
    return np.concatenate((np.full(p, 0.5 / p), np.full(q, 0.5 / q)))


_MODELS = {
    "selfadjoint": _Model(
        keys={"d": _COUNT, "entries": _ENTRIES},
        build=lambda c: cov.selfadjoint_covariance(c.d, c.entries),
        density=lambda m, **kw: spc.density_from_eta(cov.eta_map(m), **kw),
        moments=lambda m: (cov.eta_map(m), None, (1, 1)),
        gram=False,
    ),
    "hh_star": _Model(
        keys={"a": _COUNT, "b": _COUNT, "entries": _REAL_ENTRIES},
        build=lambda c: cov.hh_star_covariance(c.a, c.b, c.entries),
        density=lambda m, **kw: spc.density_hh_star(m, **kw),
        moments=_hermitized_moments,
        gram=True,
    ),
    "isi": _Model(
        keys={"K": _COUNT, "L": _COUNT, "taps": _FLOATS._replace(required=False)},
        build=lambda c: cov.isi_covariance(c.K, c.L, tap_var=c.taps),
        density=lambda m, **kw: spc.density_hh_star(m, **kw),
        moments=_hermitized_moments,
        gram=True,
    ),
    "rectangular": _Model(
        keys={"alpha": _FLOATS, "entries": _ENTRIES},
        build=lambda c: cov.rectangular_covariance(c.alpha, c.entries),
        density=lambda m, **kw: spc.density_from_eta(
            cov.eta_alpha_map(m), trace_weights=m.alpha, **kw),
        moments=lambda m: (cov.eta_alpha_map(m), m.alpha, (1, 1)),
        gram=False,
    ),
    "nonsep": _Model(
        keys={"psi": _MATRICES, "psi_hat": _MATRICES},
        build=_family,
        density=lambda m, **kw: ns.fading_density(m, **kw),
        moments=lambda m: (ns.hermitized_eta(m), _half_trace_weights(m), (1, 1)),
        gram=True,
        sampled=False,
    ),
}
MODELS = tuple(_MODELS)


def _parse_grid(raw):
    _reject_unknown(raw, _GRID_KEYS, "grid")
    xmin = None if raw.get("xmin") is None else _float_value(raw["xmin"], "grid.xmin")
    xmax = None if raw.get("xmax") is None else _float_value(raw["xmax"], "grid.xmax")
    points = _int_value(raw.get("points", 512), "grid.points", minimum=2)
    eps = None if raw.get("epsilon") is None else _float_value(raw["epsilon"], "grid.epsilon")
    if (xmin is None) != (xmax is None):
        raise ValidationError("grid", "grid: give both xmin and xmax or neither")
    if xmin is not None and xmax <= xmin:
        raise ValidationError("grid", "grid: xmax must exceed xmin")
    if eps is not None and eps <= 0:
        raise ValidationError("grid.epsilon", "grid.epsilon must be positive")
    return GridConfig(xmin=xmin, xmax=xmax, points=points, epsilon=eps)


def _parse_solver(raw):
    _reject_unknown(raw, _SOLVER_KEYS, "solver")
    kwargs = {}
    if "tol" in raw:
        kwargs["tol"] = _float_value(raw["tol"], "solver.tol")
    if "max_iter" in raw:
        kwargs["max_iter"] = _int_value(raw["max_iter"], "solver.max_iter", minimum=1)
    if "newton" in raw:
        if not isinstance(raw["newton"], bool):
            raise ValidationError("solver.newton", "solver.newton: expected a boolean")
        kwargs["newton"] = raw["newton"]
    kwargs.setdefault("newton", True)
    try:
        return slv.SolverConfig(**kwargs)
    except BlockspectraError as exc:
        raise ValidationError("solver", f"solver: {exc}") from exc


def _parse_mc(raw):
    _reject_unknown(raw, _MC_KEYS, "mc")
    for key in ("N", "realizations", "seed"):
        if key not in raw:
            raise ValidationError(f"mc.{key}", f"mc.{key} is required")
    rawN = raw["N"]
    if isinstance(rawN, list):
        Ns = tuple(_int_value(x, "mc.N", minimum=1) for x in rawN)
        if not Ns:
            raise ValidationError("mc.N", "mc.N: empty list")
    else:
        Ns = (_int_value(rawN, "mc.N", minimum=1),)
    return McConfig(
        N=Ns,
        realizations=_int_value(raw["realizations"], "mc.realizations", minimum=1),
        seed=_int_value(raw["seed"], "mc.seed", minimum=0),
    )


def parse_config(source) -> ProblemConfig:
    """Parse and validate a problem config from JSON text or a file path."""
    if isinstance(source, Path):
        text = _read_file(source)
    elif isinstance(source, str) and source.lstrip().startswith("{"):
        text = source
    else:
        text = _read_file(Path(source))
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"config is not valid JSON: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from exc
    if not isinstance(raw, dict):
        raise ValidationError("config", "config: top level must be an object")
    if "model" not in raw:
        raise ValidationError("model", "model is required")
    model = raw["model"]
    if model not in MODELS:
        raise ValidationError("model", f"model must be one of {MODELS}, got {model!r}")
    keys = _MODELS[model].keys
    _reject_unknown(raw, _TOP_KEYS | set(keys), "config")

    fields: dict = {"model": model}
    for key, spec in keys.items():
        if key in raw:
            fields[key] = spec.parse(raw[key], key)
        elif spec.required:
            raise ValidationError(key, f"{model} needs {key}")

    fields["grid"] = _parse_grid(raw.get("grid", {}))
    fields["solver"] = _parse_solver(raw.get("solver", {}))
    if "snr" in raw:
        if not isinstance(raw["snr"], list) or not raw["snr"]:
            raise ValidationError("snr", "snr: expected a nonempty list")
        snr = tuple(_float_value(x, "snr") for x in raw["snr"])
        if any(s <= 0 for s in snr):
            raise ValidationError("snr", "snr values must be positive")
        fields["snr"] = snr
    if "mc" in raw:
        if not isinstance(raw["mc"], dict):
            raise ValidationError("mc", "mc: expected an object")
        fields["mc"] = _parse_mc(raw["mc"])

    config = ProblemConfig(**fields)
    _build_model(config)  # fail early on semantically invalid model params
    return config


def _read_file(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError("config", f"cannot read config file {path}: {exc}") from exc


def config_to_json(config: ProblemConfig) -> str:
    """Serialize a config back to JSON; parse(config_to_json(c)) == c."""
    out: dict = {"model": config.model}
    for key, spec in _MODELS[config.model].keys.items():
        value = getattr(config, key)
        if value is not None:
            out[key] = spec.dump(value)
    out["grid"] = {
        "xmin": config.grid.xmin,
        "xmax": config.grid.xmax,
        "points": config.grid.points,
        "epsilon": config.grid.epsilon,
    }
    out["solver"] = {
        "tol": config.solver.tol,
        "max_iter": config.solver.max_iter,
        "newton": config.solver.newton,
    }
    if config.snr is not None:
        out["snr"] = list(config.snr)
    if config.mc is not None:
        out["mc"] = {
            "N": list(config.mc.N),
            "realizations": config.mc.realizations,
            "seed": config.mc.seed,
        }
    return json.dumps(out, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# artifacts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CsvArtifact:
    header: tuple[str, ...]
    rows: tuple[tuple, ...]


@dataclass(frozen=True)
class JsonArtifact:
    payload: dict


def _format_cell(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return "%.17g" % float(x)


def emit(artifact, path) -> Path:
    """Write one artifact atomically (temp file + rename)."""
    path = Path(path)
    if isinstance(artifact, CsvArtifact):
        lines = [",".join(artifact.header)]
        lines += [",".join(_format_cell(c) for c in row) for row in artifact.rows]
        text = "\n".join(lines) + "\n"
    elif isinstance(artifact, JsonArtifact):
        text = json.dumps(artifact.payload, indent=2, sort_keys=True) + "\n"
    else:
        raise IoError(f"unknown artifact type {type(artifact).__name__}")
    tmp = path.with_name(path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8", newline="\n")
        os.replace(tmp, path)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    return path


# ---------------------------------------------------------------------------
# model assembly and law solving
# ---------------------------------------------------------------------------

@lru_cache(maxsize=32)
def _build_model(config: ProblemConfig):
    """The config's spec or family, built and validated once per config."""
    try:
        return _MODELS[config.model].build(config)
    except BlockspectraError as exc:
        if isinstance(exc, ValidationError):
            raise
        raise ValidationError(config.model, f"{config.model} model: {exc}") from exc


def _explicit_grid(config: ProblemConfig):
    g = config.grid
    if g.xmin is None:
        return None
    return np.linspace(g.xmin, g.xmax, g.points)


def _solve_density(config: ProblemConfig, model_obj) -> spc.SpectralDensity:
    return _MODELS[config.model].density(
        model_obj,
        xs=_explicit_grid(config),
        npoints=config.grid.points,
        epsilon=config.grid.epsilon,
        config=config.solver,
    )


def _density_diagnostics(density: spc.SpectralDensity) -> dict:
    m = spc.mass(density)
    diag = {
        "mass": m,
        "min_density": float(density.ps.min()),
        "clip_excursion": density.clip_excursion,
        "atom_at_zero": density.atom_at_zero,
        "grid": [float(density.xs[0]), float(density.xs[-1])],
        "points": int(len(density.xs)),
        "epsilon": list(density.epsilon_used),
    }
    if abs(m - 1.0) > spc.MASS_TOL:
        raise InvariantViolation(
            f"density mass {m:.6f} violates 1 +/- {spc.MASS_TOL}"
        )
    if density.clip_excursion > spc.CLIP_WARN:
        raise InvariantViolation(
            f"density dipped {density.clip_excursion:.2e} below zero before "
            f"clipping; the transform did not converge cleanly"
        )
    return diag


def _mc_seeds(seed: int, N: int, count: int):
    return [np.random.SeedSequence(entropy=seed, spawn_key=(N, i)) for i in range(count)]


def _sample_eigenvalues(spec, config, N, threads, seed):
    """Eigenvalues of each seeded realization; the sampled matrices are dropped."""
    if not _MODELS[config.model].sampled:
        raise ValidationError(
            "mc", f"Monte Carlo sampling is not defined for {config.model} models"
        )
    seeds = _mc_seeds(seed, N, config.mc.realizations)

    def draw(s):
        return orc.sample_block_gaussian(spec, N, s).eigenvalues

    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(draw, seeds))
    return [draw(s) for s in seeds]


def _resolve_threads(threads) -> int:
    if threads is None:
        raw = os.environ.get(ENV_THREADS, "0")
        try:
            threads = int(raw)
        except ValueError as exc:
            raise ValidationError(ENV_THREADS, f"{ENV_THREADS} must be an integer") from exc
    if threads == 0:
        return os.cpu_count() or 1
    if threads < 0:
        raise ValidationError("threads", "threads must be >= 0")
    return threads


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _cmd_density(config, out_dir, seed, threads):
    density = _solve_density(config, _build_model(config))
    diag = _density_diagnostics(density)
    path = emit(
        CsvArtifact(("x", "density"), tuple(zip(density.xs, density.ps))),
        out_dir / "density.csv",
    )
    return {"command": "density", "artifacts": [str(path)], "diagnostics": diag}


def _capacity_curve(density, snrs):
    return [spc.capacity(density, s) for s in snrs]


def _mc_capacity_rows(spec, config, snrs, threads, seed):
    """Median over realizations of the per-eigenvalue capacity, per N."""
    columns = {}
    for N in config.mc.N:
        per_real = np.array(
            [
                [float(np.mean(np.log2(1.0 + s * np.clip(eig, 0, None)))) for s in snrs]
                for eig in _sample_eigenvalues(spec, config, N, threads, seed)
            ]
        )
        columns[N] = np.median(per_real, axis=0)
    return columns


def _cmd_capacity(config, out_dir, seed, threads):
    if config.snr is None:
        raise ValidationError("snr", "capacity command needs an snr list")
    if not _MODELS[config.model].gram:
        raise ValidationError(
            "model", "capacity is defined for the nonnegative Gram laws only"
        )
    spec = _build_model(config)
    density = _solve_density(config, spec)
    diag = _density_diagnostics(density)
    bits = _capacity_curve(density, config.snr)
    header = ["snr", "bits"]
    cols = [list(config.snr), bits]
    if config.mc is not None:
        mc_cols = _mc_capacity_rows(spec, config, config.snr, threads, seed)
        for N in config.mc.N:
            header.append(f"bits_mc_N{N}")
            cols.append(list(mc_cols[N]))
    rows = tuple(zip(*cols))
    path = emit(CsvArtifact(tuple(header), rows), out_dir / "capacity.csv")
    return {
        "command": "capacity",
        "artifacts": [str(path)],
        "diagnostics": diag,
        "snr": list(config.snr),
        "bits": [float(b) for b in bits],
    }


def _cmd_mc_compare(config, out_dir, seed, threads):
    if config.mc is None:
        raise ValidationError("mc", "mc-compare command needs an mc block")
    if len(config.mc.N) != 1:
        raise ValidationError("mc.N", "mc-compare needs a single N")
    N = config.mc.N[0]
    spec = _build_model(config)
    density = _solve_density(config, spec)
    diag = _density_diagnostics(density)
    pooled = np.sort(np.concatenate(_sample_eigenvalues(spec, config, N, threads, seed)))
    ks = orc.ks_distance(pooled, spc.cdf(density))
    paths = [
        emit(
            CsvArtifact(("eigenvalue",), tuple((x,) for x in pooled)),
            out_dir / "eigenvalues.csv",
        ),
        emit(JsonArtifact(orc.histogram(pooled)), out_dir / "histogram.json"),
        emit(
            JsonArtifact(
                {
                    "ks_distance": ks,
                    "N": N,
                    "realizations": config.mc.realizations,
                    "pooled_eigenvalues": int(pooled.size),
                    "seed": seed,
                }
            ),
            out_dir / "ks_summary.json",
        ),
    ]
    return {
        "command": "mc-compare",
        "artifacts": [str(p) for p in paths],
        "diagnostics": diag,
        "ks_distance": ks,
    }


def _moment_table(config):
    row = _MODELS[config.model]
    model_obj = _build_model(config)
    density = _solve_density(config, model_obj)
    diag = _density_diagnostics(density)
    eta, weights, (num, den) = row.moments(model_obj)
    step = 2 if row.gram else 1
    rows = []
    for k in ((1, 2, 3, 4) if row.gram else (2, 4, 6, 8)):
        _, tr = orc.nc2_moment(eta, step * k, trace_weights=weights)
        rows.append((k, tr.real * num / den, spc.moments_from_density(density, k)))
    return rows, diag


def _cmd_moments(config, out_dir, seed, threads):
    rows, diag = _moment_table(config)
    path = emit(
        CsvArtifact(("order", "moment_recursion", "moment_density"), tuple(rows)),
        out_dir / "moments.csv",
    )
    return {
        "command": "moments",
        "artifacts": [str(path)],
        "diagnostics": diag,
        "table": [[int(k), float(r), float(d)] for (k, r, d) in rows],
    }


_COMMANDS = {
    "density": _cmd_density,
    "capacity": _cmd_capacity,
    "mc-compare": _cmd_mc_compare,
    "moments": _cmd_moments,
}


def run(command, config, out_dir=".", seed=None, threads=None) -> dict:
    """Run a command against a parsed config; returns the summary dict.

    ``seed`` (>= 0) overrides the config's mc.seed; ``threads`` follows the
    --threads flag and the BLOCKSPECTRA_THREADS variable (0 = auto). All
    artifact writes are atomic and byte-deterministic for a fixed config
    and seed.
    """
    if command not in _COMMANDS:
        raise ValidationError("command", f"unknown command {command!r}")
    eff_seed = seed if seed is not None else (config.mc.seed if config.mc else 0)
    if eff_seed < 0:
        raise ValidationError("seed", f"seed must be >= 0, got {eff_seed}")
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {out}: {exc}") from exc
    return _COMMANDS[command](config, out, eff_seed, _resolve_threads(threads))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="blockspectra",
        description="Limiting spectra and capacity of correlated Gaussian block matrices.",
    )
    parser.add_argument("--config", required=True, help="problem config JSON path")
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override mc seed")
    parser.add_argument(
        "--threads", type=int, default=None,
        help=f"worker threads; 0 = auto (default: ${ENV_THREADS} or 0)",
    )
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = parse_config(args.config)
        summary = run(
            args.command, config, out_dir=args.out, seed=args.seed, threads=args.threads
        )
    except (ParseError, ValidationError) as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 2
    except BlockspectraError as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 1
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
