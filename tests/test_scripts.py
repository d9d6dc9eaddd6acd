"""The checked-in tools run: the benchmark's self-test and the in-process A/B script."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ONE_THREAD = dict(os.environ, OPENBLAS_NUM_THREADS="1")


def test_benchmark_selftest_passes_on_a_copy(tmp_path):
    # a copy, so the self-test's scratch output never lands in the checkout
    for name in ("perfbench", "configs", "src"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__", ".perfbench_out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=tmp_path,
                          capture_output=True, text=True, env=ONE_THREAD, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "selftest ok"


def test_ab_inprocess_smoke():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "ab_inprocess.py"), str(ROOT), str(ROOT),
         "--rounds", "1", "--runs", "2"],
        capture_output=True, text=True, env=ONE_THREAD, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    rows = proc.stdout.splitlines()[1:]
    assert [row.split()[0] for row in rows] == ["K4", "K5", "nonsep_t2"]
    for row in rows:
        assert row.split()[-2] == "change/parent" and float(row.split()[-1]) > 0
