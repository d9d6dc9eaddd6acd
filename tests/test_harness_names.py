"""The benchmark harness's calls into the package still work.

``perfbench/tracing.py`` wraps the names listed in its ``TRACED`` table;
a name that is missing makes a traced benchmark run fail. The first check
runs the same lookup, so removing a traced name fails here first. The
second runs the set-up of every workload in ``perfbench/workloads.py``,
which calls the package outside that table. The third runs the tracer's
reads of the results it records. All load the harness files by path and
only read them.
"""

import importlib
import importlib.util
from pathlib import Path

import blockspectra as bs
from blockspectra import cli

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"
WORKLOADS = ROOT / "perfbench" / "workloads.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_exists():
    missing = [
        f"{modname}.{name}"
        for modname, (_layer, names) in _tracing().TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(modname), name, None))
    ]
    assert missing == []


def test_harness_set_up_runs_on_the_package(tmp_path):
    """Every workload's inputs parse and build through the calls the harness makes.

    The harness also calls names it does not trace (``validate_covariance``,
    ``validate_family``, ``hermitize_covariance``, ``eta_apply``,
    ``SolverConfig(newton=True)``), reads ``ProblemConfig`` attributes and
    writes ``"newton": true`` into the configs it generates. A reduced-size
    set-up of every workload runs all of them.
    """
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for name in workloads.WORKLOADS:
        out = tmp_path / name
        out.mkdir()
        inputs = workloads.make_inputs(name, 1, ROOT, 0.1, out)
        ctx = workloads.setup(inputs, build=True)
        if name == "point-queries":
            assert len(workloads._point_calls(inputs, ctx)) == len(inputs["order"])


def test_tracer_reads_the_results_it_records(tmp_path):
    """``_attrs`` reads fields of a sample, an emitted path and a solution.

    Without this, dropping a field it reads would fail only a traced run.
    """
    attrs = _tracing()._attrs
    sample = bs.sample_block_gaussian(bs.isi_covariance(2, 2), 4, 0)
    assert attrs("oracle.sample_block_gaussian", sample) == {
        "bytes": sample.matrix.nbytes + sample.eigenvalues.nbytes
    }
    path = cli.emit(cli.JsonArtifact({"a": 1}), tmp_path / "a.json")
    assert attrs("cli.emit", path) == {"bytes": path.stat().st_size}
    sol = bs.solve_hh_star(bs.isi_covariance(2, 2), 2 + 0.1j)
    assert attrs("solver.solve_hh_star", sol) == {
        "iterations": sol.iterations, "converged": sol.converged
    }
