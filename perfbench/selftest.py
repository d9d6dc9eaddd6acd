"""Self-test of the benchmark: metric tables, span tree, and a reduced pass per workload.

Run from the root of a source checkout:

    python3 perfbench/selftest.py

Checks that BENCHMARK.json and run.py name the same workloads and metrics
with the same units, that the span-tree check rejects a child outside its
parent, and that a reduced pass of every workload runs untraced and traced
with correct outputs, identical artifact digests, a well-formed span tree
and every metric emitted with its unit, and that one failed operation
makes the run incorrect. Exits 1 on the first failure.
"""

from __future__ import annotations

import copy
import json
import shutil
import sys
import time
from pathlib import Path

import run
import tracing
import workloads as wl

REDUCED = 0.1


def check(ok, message):
    if not ok:
        print(f"selftest FAIL: {message}")
        sys.exit(1)


def check_tables(root: Path):
    bench = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    check([w["name"] for w in bench["workloads"]]
          == [w for w in wl.WORKLOADS if w not in wl.UNLISTED],
          "BENCHMARK.json workloads differ from the listed workloads.WORKLOADS")
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = {m["name"]: m["unit"] for m in bench[key]}
        check(listed == table, f"BENCHMARK.json {key} differs from run.py: "
              f"{sorted(set(listed.items()) ^ set(table.items()))}")


def check_tree_detection():
    good = [{"id": 0, "parent": None, "name": "a", "start": 0, "end": 10},
            {"id": 1, "parent": 0, "name": "b", "start": 2, "end": 5}]
    bad = good + [{"id": 2, "parent": 0, "name": "c", "start": 8, "end": 12}]
    check(not tracing.check_tree(good), "a well-formed span tree was rejected")
    check(tracing.check_tree(bad), "a child span outside its parent was accepted")
    check(abs(tracing.self_seconds(good)["a"] - 7e-9) < 1e-15,
          "self time is not duration minus the children's cover")


def check_workload(root: Path, workload: str):
    work = root / ".perfbench_out" / f"selftest-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    try:
        inputs = wl.make_inputs(workload, 7, root, REDUCED, work / "inputs")
        runner = run.Runner(root, work, inputs, time.monotonic())
        setups = [runner.spawn("setup")["setup_s"]]
        passes = [runner.spawn("pass"), runner.spawn("pass")]
        traced = runner.spawn("pass", trace=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    check(not traced["span_problems"], f"{workload}: {traced['span_problems'][:3]}")
    check(not traced["missing_wrappers"], f"{workload}: missing {traced['missing_wrappers']}")
    check(traced["span_count"] > 0, f"{workload}: the traced pass recorded no spans")
    for trace, table in ((None, run.END_TO_END), (traced, run.PER_LAYER)):
        report, result = run.summarize(root, inputs, setups, passes, trace)
        check(result["correct"], f"{workload}: reduced pass failed: {report['violations']}")
        check(result["failed"] == 0, f"{workload}: failures {report['outcomes']}")
        shown = result["metrics"]
        missing = set(table) - set(shown)
        if workload in wl.UNLISTED and trace is None:
            missing.discard("mass_err")  # point-queries makes no density
        check(not missing and set(shown) <= set(table), f"{workload}: metrics "
              f"{sorted(set(shown) ^ set(table))}")
        for name, unit in table.items():
            if name not in shown:
                continue
            value = shown[name]["value"]
            check(shown[name]["unit"] == unit and isinstance(value, (int, float))
                  and value == value, f"{workload}: bad metric {name}: {shown[name]}")
            check(trace or value > 0, f"{workload}: end-to-end metric {name} is 0")
    broken = copy.deepcopy(passes)
    broken[0]["ops"][0]["outcome"] = "InvariantViolation"
    _, result = run.summarize(root, inputs, setups, broken, None)
    check(not result["correct"] and result["failed"] == 1,
          f"{workload}: a failed operation did not invalidate the run")
    print(f"selftest ok: {workload} ({len(passes)} passes + 1 traced, "
          f"{traced['span_count']} spans)")


def main() -> int:
    root = Path.cwd()
    check((root / "src" / "blockspectra").is_dir(), "run from the checkout root")
    check_tables(root)
    check_tree_detection()
    for workload in wl.WORKLOADS:
        check_workload(root, workload)
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
