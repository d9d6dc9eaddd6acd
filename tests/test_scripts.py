import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("script, args, artifacts", [
    ("capacity_convergence.py",
     ["--sizes", "2", "4", "--realizations", "3", "--snr-points", "5"],
     ("capacity.csv", "summary.json")),
    ("isi_spectrum_experiment.py",
     ["--N", "10", "--realizations", "3"],
     ("density.csv", "eigenvalues.csv", "histogram.json", "summary.json")),
])
def test_script_writes_its_artifacts(script, args, artifacts, tmp_path):
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "scripts" / script), *args,
         "--out", str(tmp_path)],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    for name in artifacts:
        assert (tmp_path / name).stat().st_size > 0
