"""Batch front end: JSON problem configs in, CSV/JSON artifacts out.

One process runs one command against one config:

    blockspectra --config problem.json --command density --out results/

Commands: ``density`` (x, density CSV), ``capacity`` (snr, bits CSV with
optional Monte Carlo columns), ``mc-compare`` (pooled eigenvalue dump,
histogram JSON, KS summary), ``moments`` (recursion vs density table).
Complex numbers in configs are [re, im] pairs. Unknown keys are rejected.
Exit codes: 0 ok, 1 numerical failure, 2 usage error; failures print a
machine-readable error JSON to stdout.

Every run is one pipeline: parse the config, check the command against
it, build the law once, solve and check the density once, then write the
command's artifacts. Every usage error is raised by the first two steps,
before an output directory is made or a solve starts; that includes a
Monte Carlo draw the sampler would refuse.

Parsing reads every JSON object (the top level, ``grid``, ``solver``,
``mc``) through one function and a table of ``_Key`` rows. A model is
one row of ``_MODELS``: its config keys and how to parse them, and a
build that makes its covariance spec (a ``nonsep`` family builds its
hh_star spec). A :class:`ProblemConfig` builds its spec when it is made,
so an invalid model never gets past parsing. Every command then reads
the spec's law (``covariance._law``): the map it is solved with, the
trace weights that read G, and whether it is a Gram law.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import covariance as cov
from . import nonsep as ns
from . import oracle as orc
from . import solver as slv
from . import spectrum as spc
from .errors import (
    BadParameter,
    BlockspectraError,
    InvariantViolation,
    IoError,
    ParseError,
    ValidationError,
)

ENV_THREADS = "BLOCKSPECTRA_THREADS"


@dataclass(frozen=True)
class GridConfig:
    xmin: float | None = None
    xmax: float | None = None
    points: int = spc.DEFAULT_POINTS
    epsilon: float | None = None

    def __post_init__(self):
        if (self.xmin is None) != (self.xmax is None):
            raise BadParameter("give both xmin and xmax or neither")
        if self.xmin is not None and self.xmax <= self.xmin:
            raise BadParameter("xmax must exceed xmin")


@dataclass(frozen=True)
class McConfig:
    N: tuple[int, ...] = ()
    realizations: int = 1
    seed: int = 0


@dataclass(frozen=True)
class ProblemConfig:
    """One fully validated problem: model, grid, solver, optional snr/mc.

    The constructor builds the model's covariance spec into ``built``,
    which takes no part in equality; a model the package rejects raises
    ValidationError.
    """

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
    solver: slv.SolverConfig = slv.DEFAULT_CONFIG
    snr: tuple[float, ...] | None = None
    mc: McConfig | None = None
    built: cov.CovarianceSpec = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            built = _MODELS[self.model].build(self)
        except BlockspectraError as exc:
            raise ValidationError(self.model, f"{self.model} model: {exc}") from exc
        object.__setattr__(self, "built", built)


# ---------------------------------------------------------------------------
# values: each parser takes (raw JSON value, field name) and returns the
# config value, or raises ValidationError naming the field
# ---------------------------------------------------------------------------

def _complex_value(raw, where):
    if isinstance(raw, (int, float)) and not isinstance(raw, bool):
        raw = [raw, 0.0]
    if not (
        isinstance(raw, list)
        and len(raw) == 2
        and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in raw)
    ):
        raise ValidationError(where, f"{where}: expected a number or [re, im] pair")
    return complex(_float_value(raw[0], where), _float_value(raw[1], where))


def _int_value(raw, where, minimum):
    if not isinstance(raw, int) or isinstance(raw, bool):
        raise ValidationError(where, f"{where}: expected an integer")
    if raw < minimum:
        raise ValidationError(where, f"{where}: must be >= {minimum}")
    return raw


def _float_value(raw, where):
    if not isinstance(raw, (int, float)) or isinstance(raw, bool):
        raise ValidationError(where, f"{where}: expected a number")
    try:
        val = float(raw)
    except OverflowError:  # an integer beyond the float range
        val = math.inf
    if not math.isfinite(val):
        raise ValidationError(where, f"{where}: must be finite, got {val}")
    return val


def _positive(raw, where):
    val = _float_value(raw, where)
    if val <= 0:
        raise ValidationError(where, f"{where} must be positive")
    return val


def _count(raw, where):
    return _int_value(raw, where, minimum=1)


def _list(raw, where, value):
    if not isinstance(raw, list) or not raw:
        raise ValidationError(where, f"{where}: expected a nonempty list")
    return tuple(value(x, where) for x in raw)


def _nullable(value):
    return lambda raw, where: None if raw is None else value(raw, where)


def _only_true(raw, where):
    if raw is not True:
        raise ValidationError(where, f"{where}: only true is accepted; Newton always refines")
    return raw


def _parse_entries(raw, where):
    if not isinstance(raw, list):
        raise ValidationError(where, f"{where}: expected a list")
    out = []
    for pos, ent in enumerate(raw):
        here = f"{where}[{pos}]"
        if not isinstance(ent, list) or len(ent) != 5:
            raise ValidationError(here, f"{here}: expected [i, j, k, l, value]")
        idx = tuple(_int_value(x, here, minimum=1) for x in ent[:4])
        out.append((*idx, _complex_value(ent[4], here)))
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


# ---------------------------------------------------------------------------
# key tables: one row per config key, for the model keys and every section
# ---------------------------------------------------------------------------

class _Key(NamedTuple):
    """One config key: parse(raw JSON value, field name) -> config value."""

    parse: Callable
    required: bool = True


def _parse_object(raw, keys, section=None) -> dict:
    """The values of a JSON object's keys by their rows, named ``section.key``."""
    label = section or "config"
    if not isinstance(raw, dict):
        raise ValidationError(label, f"{label}: expected an object")
    unknown = sorted(set(raw) - set(keys))
    if unknown:
        raise ValidationError(label, f"{label}: unknown key(s) {unknown}")
    out = {}
    for key, row in keys.items():
        name = f"{section}.{key}" if section else key
        if key in raw:
            out[key] = row.parse(raw[key], name)
        elif row.required:
            raise ValidationError(name, f"{name} is required")
    return out


def _section(make, keys):
    """Row parser of a JSON object section: make(**its values), errors as ValidationError."""
    def parse(raw, where):
        fields = _parse_object(raw, keys, where)
        try:
            return make(**fields)
        except BlockspectraError as exc:
            raise ValidationError(where, f"{where}: {exc}") from exc
    return parse


_SECTIONS = {
    "grid": _Key(_section(GridConfig, {
        "xmin": _Key(_nullable(_float_value), False),
        "xmax": _Key(_nullable(_float_value), False),
        "points": _Key(lambda raw, key: _int_value(raw, key, minimum=2), False),
        "epsilon": _Key(_nullable(_positive), False),
    }), False),
    "solver": _Key(_section(slv.SolverConfig, {
        "tol": _Key(_float_value, False),
        "max_iter": _Key(_count, False),
        "newton": _Key(_only_true, False),
    }), False),
    "snr": _Key(lambda raw, key: _list(raw, key, _positive), False),
    "mc": _Key(_section(McConfig, {
        "N": _Key(lambda raw, key: _list(raw if isinstance(raw, list) else [raw], key, _count)),
        "realizations": _Key(_count),
        "seed": _Key(lambda raw, key: _int_value(raw, key, minimum=0)),
    }), False),
}


# ---------------------------------------------------------------------------
# the per-model table: a row is the model's config keys and the build of its
# covariance spec. Builds look package functions up as module attributes
# when called, so wrappers installed on those modules see every call.
# ---------------------------------------------------------------------------

class _Model(NamedTuple):
    keys: dict[str, _Key]
    build: Callable     # ProblemConfig -> CovarianceSpec


_COUNT = _Key(_count)
_FLOATS = _Key(lambda raw, key: _list(raw, key, _float_value))
_ENTRIES = _Key(_parse_entries)
_MATRICES = _Key(_parse_matrix_list)


def _family_spec(config):
    return ns.CorrelationFamily(
        psi=tuple(np.array(m, dtype=complex) for m in config.psi),
        psi_hat=tuple(np.array(m, dtype=complex) for m in config.psi_hat),
    ).spec


_MODELS = {
    "selfadjoint": _Model({"d": _COUNT, "entries": _ENTRIES},
                          lambda c: cov.selfadjoint_covariance(c.d, c.entries)),
    "hh_star": _Model({"a": _COUNT, "b": _COUNT, "entries": _ENTRIES},
                      lambda c: cov.hh_star_covariance(c.a, c.b, c.entries)),
    "isi": _Model({"K": _COUNT, "L": _COUNT, "taps": _FLOATS._replace(required=False)},
                  lambda c: cov.isi_covariance(c.K, c.L, tap_var=c.taps)),
    "rectangular": _Model({"alpha": _FLOATS, "entries": _ENTRIES},
                          lambda c: cov.rectangular_covariance(c.alpha, c.entries)),
    "nonsep": _Model({"psi": _MATRICES, "psi_hat": _MATRICES}, _family_spec),
}
MODELS = tuple(_MODELS)


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
    model = raw.get("model")
    if model not in MODELS:
        raise ValidationError("model", f"model must be one of {MODELS}, got {model!r}")
    keys = {"model": _Key(lambda raw, key: raw), **_MODELS[model].keys, **_SECTIONS}
    return ProblemConfig(**_parse_object(raw, keys))


def _read_file(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError("config", f"cannot read config file {path}: {exc}") from exc


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
# law solving
# ---------------------------------------------------------------------------

def _solve_density(config: ProblemConfig, law: cov.Law) -> spc.SpectralDensity:
    g = config.grid
    kwargs = dict(xs=None if g.xmin is None else np.linspace(g.xmin, g.xmax, g.points),
                  npoints=g.points, epsilon=g.epsilon, config=config.solver)
    if law.gram:
        return spc.density_gram(law.eta, config.built.a, **kwargs)
    return spc.density_from_eta(law.eta, trace_weights=law.weights, **kwargs)


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


def _sample_eigenvalues(config, N, threads, seed):
    """Eigenvalues of each seeded realization; the sampled matrices are dropped."""
    seeds = [np.random.SeedSequence(entropy=seed, spawn_key=(N, i))
             for i in range(config.mc.realizations)]

    def draw(s):
        return orc.sample_block_gaussian(config.built, N, s).eigenvalues

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor  # a one-thread run skips its import

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
        if hasattr(os, "sched_getaffinity"):  # the CPUs this process may run on
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if threads < 0:
        raise ValidationError("threads", "threads must be >= 0")
    return threads


# ---------------------------------------------------------------------------
# commands: each writes its artifacts from the checked density and returns
# (artifact paths, its own summary keys)
# ---------------------------------------------------------------------------

def _cmd_density(config, law, density, out_dir, seed, threads):
    path = emit(
        CsvArtifact(("x", "density"), tuple(zip(density.xs, density.ps))),
        out_dir / "density.csv",
    )
    return [path], {}


def _cmd_capacity(config, law, density, out_dir, seed, threads):
    bits = [spc.capacity(density, s) for s in config.snr]
    header = ["snr", "bits"]
    cols = [list(config.snr), bits]
    for N in config.mc.N if config.mc is not None else ():
        # median over realizations of the per-eigenvalue capacity at each snr
        per_real = [
            [float(np.mean(np.log2(1.0 + s * np.clip(eig, 0, None)))) for s in config.snr]
            for eig in _sample_eigenvalues(config, N, threads, seed)
        ]
        header.append(f"bits_mc_N{N}")
        cols.append(list(np.median(np.array(per_real), axis=0)))
    path = emit(CsvArtifact(tuple(header), tuple(zip(*cols))), out_dir / "capacity.csv")
    return [path], {"snr": list(config.snr), "bits": [float(b) for b in bits]}


def _cmd_mc_compare(config, law, density, out_dir, seed, threads):
    N = config.mc.N[0]
    pooled = np.sort(np.concatenate(_sample_eigenvalues(config, N, threads, seed)))
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
    return paths, {"ks_distance": ks}


def _cmd_moments(config, law, density, out_dir, seed, threads):
    step = 2 if law.gram else 1
    rows = []
    for k in ((1, 2, 3, 4) if law.gram else (2, 4, 6, 8)):
        _, tr = orc.nc2_moment(law.eta, step * k, trace_weights=law.weights)
        rows.append((k, tr.real, spc.moments_from_density(density, k)))
    path = emit(
        CsvArtifact(("order", "moment_recursion", "moment_density"), tuple(rows)),
        out_dir / "moments.csv",
    )
    return [path], {"table": [[int(k), float(r), float(d)] for (k, r, d) in rows]}


_COMMANDS = {
    "density": _cmd_density,
    "capacity": _cmd_capacity,
    "mc-compare": _cmd_mc_compare,
    "moments": _cmd_moments,
}
COMMANDS = tuple(_COMMANDS)


def _check_command(command, config, seed, threads):
    """Every usage error of a command on a config; returns (seed, threads) to run with."""
    if command not in _COMMANDS:
        raise ValidationError("command", f"unknown command {command!r}")
    if command == "capacity" and config.snr is None:
        raise ValidationError("snr", "capacity command needs an snr list")
    if command == "capacity" and config.built.kind != "hh_star":
        raise ValidationError("model", "capacity is defined for the nonnegative Gram laws only")
    if command == "mc-compare" and config.mc is None:
        raise ValidationError("mc", "mc-compare command needs an mc block")
    if command == "mc-compare" and len(config.mc.N) != 1:
        raise ValidationError("mc.N", "mc-compare needs a single N")
    if command in ("mc-compare", "capacity") and config.mc is not None:
        for N in config.mc.N:
            try:
                orc._check_draw(config.built, N)
            except BlockspectraError as exc:
                raise ValidationError("mc", f"{command}: {exc}") from exc
    seed = seed if seed is not None else (config.mc.seed if config.mc else 0)
    if seed < 0:
        raise ValidationError("seed", f"seed must be >= 0, got {seed}")
    return seed, _resolve_threads(threads)


def run(command, config, out_dir=".", seed=None, threads=None) -> dict:
    """Run a command against a parsed config; returns the summary dict.

    ``seed`` (>= 0) overrides the config's mc.seed; ``threads`` follows the
    --threads flag and the BLOCKSPECTRA_THREADS variable (0 = auto). Every
    usage error is raised before the output directory is made or the
    density is solved. All artifact writes are atomic and
    byte-deterministic for a fixed config and seed.
    """
    seed, threads = _check_command(command, config, seed, threads)
    law = cov._law(config.built)
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create output directory {out}: {exc}") from exc
    density = _solve_density(config, law)
    diagnostics = _density_diagnostics(density)
    # only moments reads the map again; the sampling commands draw without it held
    law = law if command == "moments" else None
    paths, extra = _COMMANDS[command](config, law, density, out, seed, threads)
    return {"command": command, "artifacts": [str(p) for p in paths],
            "diagnostics": diagnostics, **extra}


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
    except BlockspectraError as exc:
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return 2 if isinstance(exc, (ParseError, ValidationError)) else 1
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
