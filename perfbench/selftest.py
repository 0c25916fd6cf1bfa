#!/usr/bin/env python3
"""Self-test of the benchmark itself (about 2 minutes).

    python3 perfbench/selftest.py

1. Corrupted output files are counted as failed ops, while round-off-level
   changes (what an exact faster algorithm produces) are not.
2. Every metric the benchmark prints, traced and untraced, on every workload,
   is declared in BENCHMARK.json with the same unit, and vice versa.
3. Without the toolkit's sources the benchmark exits non-zero and prints no
   result.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

from run import HERE, ROOT, SRC, WORK, run_workload
from workloads import WORKLOADS

sys.path.insert(0, SRC)


def _edit(path: str, fn) -> None:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    new = fn(text)
    if new == text:
        raise RuntimeError(f"corruption left {os.path.basename(path)} unchanged")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(new)


def _edit_cell(text: str, row: int, col: int, fn) -> str:
    lines = text.splitlines()
    cells = lines[row].split(",")
    cells[col] = fn(cells[col])
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


def _scale_cell(text: str, row: int, col: int, factor: float) -> str:
    return _edit_cell(text, row, col, lambda cell: repr(float(cell) * factor))


def _flip_verdict(text: str) -> str:
    return re.sub(r"verdict: (Not)?Strategic",
                  lambda m: "verdict: " + ("Strategic" if m.group(1) else "NotStrategic"), text)


def _move_first_pole(text: str) -> str:
    return re.sub(r"spectrum: \[([^,\]]+)", lambda m: f"spectrum: [{float(m.group(1)) + 1e-9!r}", text, count=1)


def _flip_first_strategic(text: str) -> str:
    return _edit_cell(text, 1, 2, lambda flag: "0" if flag == "1" else "1")


def _in(name: str, fn):
    return lambda out_dir: _edit(os.path.join(out_dir, name), fn)


# (workload, description, corruption of the op's output directory, must fail)
CASES = (
    ("run_n8_collar", "err_gamma sample off by 1e-7", _in("trajectory.csv", lambda t: _scale_cell(t, 200, 1, 1 + 1e-7)), True),
    ("run_n8_collar", "verdict flipped", _in("summary.txt", _flip_verdict), True),
    ("run_n8_collar", "J changed", _in("summary.txt", lambda t: t.replace("J (unstable modes) = 1", "J (unstable modes) = 2")), True),
    ("run_n8_collar", "closed-loop pole moved by 1e-9", _in("summary.txt", _move_first_pole), True),
    ("run_n8_collar", "gain.csv missing", lambda out_dir: os.remove(os.path.join(out_dir, "gain.csv")), True),
    ("run_n8_collar", "err_gamma sample off by 1e-14 (round-off)",
     _in("trajectory.csv", lambda t: _scale_cell(t, 200, 1, 1 + 1e-14)), False),
    ("sweep_n8_grid33", "one strategic flag flipped", _in("sweep.csv", _flip_first_strategic), True),
    ("sweep_n8_grid33", "min_gramian_eig set to 1e-6", _in("sweep.csv", lambda t: _edit_cell(t, 1, 3, lambda _: "1e-06")), True),
    ("sweep_n8_grid33", "min_gramian_eig doubled (round-off)", _in("sweep.csv", lambda t: _scale_cell(t, 1, 3, 2.0)), False),
)


def check_corruptions() -> list[str]:
    errors = []
    for workload, what, corrupt, must_fail in CASES:
        result = run_workload(workload, seed=0, seconds=0.1, trace=False,
                              corrupt=lambda op, out_dir, c=corrupt: c(out_dir))
        frac = len(result["failures"]) / result["attempted"]
        expected = 1.0 if must_fail else 0.0
        status = "ok" if frac == expected else "WRONG"
        print(f"[{status}] {workload}: {what}: failed_ops_frac = {frac} (expected {expected})")
        if frac != expected:
            errors.append(f"{workload}: {what}")
    return errors


def check_metric_names() -> list[str]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    if sorted(w["name"] for w in bench["workloads"]) != sorted(WORKLOADS):
        return ["BENCHMARK.json workloads differ from workloads.py"]
    errors = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, *bench["command"][1:], "--workload", workload, "--seed", "0",
                 "--seconds", "1", "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=300)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            ok = (proc.returncode == 0 and printed == declared[trace]
                  and set(result) == {"correct", "attempted", "failed", "metrics"}
                  and result["correct"] and result["attempted"] >= 1)
            print(f"[{'ok' if ok else 'WRONG'}] {workload} --trace {trace}: {len(printed)} metrics match BENCHMARK.json")
            if not ok:
                errors.append(f"{workload} trace {trace}: printed {printed}, declared {declared[trace]}")
    return errors


def check_without_sources() -> list[str]:
    bare = os.path.join(WORK, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "run_n8_collar", "--seed", "0",
                           "--seconds", "1", "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    ok = proc.returncode != 0 and '"metrics"' not in proc.stdout
    print(f"[{'ok' if ok else 'WRONG'}] without sources: exit {proc.returncode}, no result line")
    return [] if ok else ["benchmark without sources did not fail cleanly"]


def main() -> int:
    errors = check_corruptions() + check_metric_names() + check_without_sources()
    for e in errors:
        print("FAILED:", e)
    print("self-test", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
