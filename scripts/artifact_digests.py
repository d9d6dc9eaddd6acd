#!/usr/bin/env python3
"""sha256 of every CLI artifact of every shipped config, for byte-identity checks.

Runs each command on each config in ``configs/`` into a temporary directory
and prints one line per artifact: ``config command file sha256``. A command
a config does not support (``capacity`` without an ``snr`` list,
``mc-compare`` without a single ``mc.N``) fails validation and is skipped.
The package is imported from this checkout's ``src/``, so running the
script in two checkouts and diffing the output compares their artifacts.
``scripts/artifact_digests.txt`` holds the digests of the current
artifacts, so this prints nothing when they are byte-identical:

    python scripts/artifact_digests.py | diff - scripts/artifact_digests.txt

The BLAS thread pool is pinned to one thread before numpy loads: the
sampled eigenvalues behind ``mc-compare`` can differ in their last bits
with the pool's size, and the digests must not depend on the core count.
"""

import hashlib
import os
import sys
import tempfile
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from blockspectra import cli  # noqa: E402
from blockspectra.errors import ValidationError  # noqa: E402


def main():
    with tempfile.TemporaryDirectory() as tmp:
        for path in sorted((ROOT / "configs").glob("*.json")):
            config = cli.parse_config(path)
            for command in cli.COMMANDS:
                out = Path(tmp) / path.stem / command
                try:
                    summary = cli.run(command, config, out_dir=out, threads=1)
                except ValidationError:
                    continue
                for artifact in sorted(summary["artifacts"]):
                    digest = hashlib.sha256(Path(artifact).read_bytes()).hexdigest()
                    print(path.stem, command, Path(artifact).name, digest, flush=True)


if __name__ == "__main__":
    main()
