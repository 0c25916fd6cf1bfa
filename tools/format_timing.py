"""Time `floattext.format_rows` of the working tree against a base revision.

    python tools/format_timing.py [--base REV] [--repeats R]

The trajectory table of variant 0 of perfbench's run_n24_both workload
(501 rows of 580 cells) is rebuilt in process: the working tree's CLI runs
the variant once into a temporary directory and trajectory.csv is read back,
which gives the table's doubles exactly, since every cell is their repr.
The `src/` of REV (default HEAD) is exported with `git archive`, as
tools/same_outputs.py does, and its floattext.py is loaded beside the working
tree's.  Each side formats the table in row blocks of its own
harness._BLOCK_CELLS, as trajectory.csv is written; the two sides alternate
R times (default 41), each side first in every other round.  Both sides must
write the same bytes.  Printed per side: the median and the quartiles of the
seconds per table, then the base median over the working-tree median.  Then
the cost of the tables that floattext builds on its first call: each side's
`_tables()` is timed in 9 fresh Python processes, the sides alternating,
and the median and quartiles are printed.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib.util
import io
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
sys.path.insert(0, str(ROOT / "src"))

from same_outputs import _workloads, export_src  # noqa: E402

from regobs.cli import main as regobs_main  # noqa: E402

FRESH_PROCESSES = 9
FIRST_CALL = """import importlib.util, sys, time
spec = importlib.util.spec_from_file_location("_floattext", sys.argv[1])
module = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
start = time.perf_counter()
module._tables()
print(time.perf_counter() - start)
"""


def trajectory_table(tmp: Path):
    """(values, empty) of run_n24_both variant 0's trajectory.csv."""
    config = tmp / "run_n24_both.cfg"
    config.write_text(_workloads().run_n24_both(0).config_text)
    out = tmp / "out"
    with contextlib.redirect_stdout(io.StringIO()):
        code = regobs_main(["run", "--config", str(config), "--out", str(out)])
    if code != 0:
        raise RuntimeError("run_n24_both variant 0 failed")
    rows = [line.split(",") for line in (out / "trajectory.csv").read_text().splitlines()[1:]]
    empty = np.array([[cell == "" for cell in row] for row in rows])
    values = np.array([[float(cell) if cell else 0.0 for cell in row] for row in rows])
    return values, empty


def block_cells(src: Path) -> int:
    """The value of _BLOCK_CELLS in src/regobs/harness.py."""
    tree = ast.parse((src / "regobs" / "harness.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets if isinstance(t, ast.Name)] == ["_BLOCK_CELLS"]:
            return int(eval(compile(ast.Expression(node.value), "harness.py", "eval"), {}))
    raise LookupError("_BLOCK_CELLS not found")


def load_formatter(src: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, src / "regobs" / "floattext.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.format_rows


def first_call_seconds(src: Path) -> float:
    """Seconds of floattext._tables() of src in a fresh process."""
    done = subprocess.run([sys.executable, "-c", FIRST_CALL, str(src / "regobs" / "floattext.py")],
                          capture_output=True, check=True, text=True)
    return float(done.stdout)


def summary(times) -> str:
    q1, median, q3 = statistics.quantiles(times, n=4)
    return f"median {median * 1e3:.2f} ms, quartiles {q1 * 1e3:.2f}-{q3 * 1e3:.2f} ms"


def format_table(format_rows, values, empty, cells: int) -> bytes:
    block = max(1, cells // values.shape[1])
    return b"".join(format_rows(values[start:start + block], empty[start:start + block])
                    for start in range(0, values.shape[0], block))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="revision to compare against (default HEAD)")
    parser.add_argument("--repeats", type=int, default=41, help="rounds of both sides (default 41)")
    opts = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="format_timing_") as tmp:
        tmp = Path(tmp)
        values, empty = trajectory_table(tmp)
        base_src = export_src(opts.base, tmp / "base")
        sides = {"base": (load_formatter(base_src, "_base_floattext"), block_cells(base_src)),
                 "work": (load_formatter(ROOT / "src", "_work_floattext"), block_cells(ROOT / "src"))}
        sources = {"base": base_src, "work": ROOT / "src"}
        first_call = {side: [] for side in sides}
        for r in range(FRESH_PROCESSES):
            for side in (("base", "work") if r % 2 == 0 else ("work", "base")):
                first_call[side].append(first_call_seconds(sources[side]))
    texts = {side: format_table(fmt, values, empty, cells) for side, (fmt, cells) in sides.items()}
    if texts["base"] != texts["work"]:
        print("the two sides write different bytes")
        return 1
    times = {side: [] for side in sides}
    for r in range(opts.repeats):
        for side in (("base", "work") if r % 2 == 0 else ("work", "base")):
            fmt, cells = sides[side]
            start = time.perf_counter()
            format_table(fmt, values, empty, cells)
            times[side].append(time.perf_counter() - start)
    print(f"table: {values.shape[0]} x {values.shape[1]} cells, {len(texts['work'])} bytes; {opts.repeats} rounds")
    for side, (_, cells) in sides.items():
        print(f"{side}: {summary(times[side])} ({cells} cells per block)")
    print(f"base / work: {statistics.median(times['base']) / statistics.median(times['work']):.2f}x")
    for side in sides:
        print(f"{side} first-call _tables(): {summary(first_call[side])} ({FRESH_PROCESSES} fresh processes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
