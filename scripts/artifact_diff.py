#!/usr/bin/env python3
"""Bound the value-by-value difference between two trees of CLI artifacts.

    python scripts/artifact_diff.py A B [--bound REL]

``A`` and ``B`` are directories written by ``artifact_digests.py --keep``
(``<config>/<command>/<file>``), typically from two checkouts. For every
artifact in either tree this prints one line: its path, whether it is
present in both, and if so the largest absolute difference over its
numbers (the cells of a CSV file, the numbers of a JSON file) and that
difference relative to the largest absolute value of the artifact in
``A``. Artifacts whose text or layout differs outside their numbers
(headers, keys, row counts) are reported as ``layout differs``.

With ``--bound REL`` the exit code is 1 when any artifact moved by more
than ``REL`` of its largest value, is only in one tree, or differs in
layout, and 0 otherwise.
"""

import argparse
import csv
import json
import math
import sys
from pathlib import Path


def _numbers(path):
    """The artifact's numbers in reading order, and its non-numeric skeleton."""
    numbers, skeleton = [], []

    def walk(value):
        if isinstance(value, bool) or not isinstance(value, (int, float, dict, list)):
            skeleton.append(value)
        elif isinstance(value, (int, float)):
            numbers.append(float(value))
        elif isinstance(value, dict):
            for key in sorted(value):
                skeleton.append(key)
                walk(value[key])
        else:
            skeleton.append(len(value))
            for item in value:
                walk(item)

    if path.suffix == ".json":
        walk(json.loads(path.read_text(encoding="utf-8")))
    else:
        with path.open(newline="", encoding="utf-8") as fh:
            for row in csv.reader(fh):
                skeleton.append(len(row))
                for cell in row:
                    try:
                        numbers.append(float(cell))
                    except ValueError:
                        skeleton.append(cell)
    return numbers, skeleton


def _move(x, y):
    """|x - y|; 0 for two NaNs, and inf for a NaN against a number, which max would drop."""
    if x == y or math.isnan(x) and math.isnan(y):
        return 0.0
    return math.inf if math.isnan(x) or math.isnan(y) else abs(x - y)


def compare(a: Path, b: Path):
    """One ``(name, status, abs_diff, rel_diff)`` row per artifact in either tree."""
    names = sorted({p.relative_to(root).as_posix()
                    for root in (a, b) for p in root.rglob("*") if p.is_file()})
    rows = []
    for name in names:
        pa, pb = a / name, b / name
        if not (pa.is_file() and pb.is_file()):
            rows.append((name, "only in " + ("A" if pa.is_file() else "B"), None, None))
            continue
        (na, sa), (nb, sb) = _numbers(pa), _numbers(pb)
        if sa != sb or len(na) != len(nb):
            rows.append((name, "layout differs", None, None))
            continue
        diff = max((_move(x, y) for x, y in zip(na, nb)), default=0.0)
        top = max((abs(x) for x in na), default=0.0)
        rows.append((name, "both", diff, diff / top if top else diff))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path)
    parser.add_argument("b", type=Path)
    parser.add_argument("--bound", metavar="REL", type=float,
                        help="exit 1 if an artifact moved by more than REL of its largest "
                             "value, is only in one tree or differs in layout")
    args = parser.parse_args(argv)
    bound = math.inf if args.bound is None else args.bound
    within = True
    for name, status, diff, rel in compare(args.a, args.b):
        if diff is None:
            print(f"{name} {status}")
            within = False
        else:
            print(f"{name} {status} max_abs_diff={diff:.3g} rel_to_max={rel:.3g}")
            within = within and rel <= bound  # a NaN move is out of bound
    return 0 if within or args.bound is None else 1


if __name__ == "__main__":
    sys.exit(main())
