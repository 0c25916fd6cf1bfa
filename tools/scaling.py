"""Time the north star's matrix of ops, the working tree against a base revision.

    python tools/scaling.py [--base REV] [--repeats R] [--json PATH]

The matrix has 27 cells: `regobs run`, `regobs sweep --grid 9` and
`regobs sweep --grid 33` on each of configs/*.cfg, at simulation.n_modes =
8, 16 and 24 (64, 256 and 576 modes per field).  The `src/` of REV (default
HEAD) is exported with `git archive`, as tools/same_outputs.py does, and the
working tree's `src/` is copied beside it: imported in place, the tree's
VmHWM differed from an export of the same commit by up to 0.13 MB, beyond
the quartiles of 9 rounds.  Each op runs in one fresh Python process on one
side's copy.  The child times `import regobs.cli` and then `main` on the op
apart, both with perf_counter, and reads its VmHWM, the peak resident set,
from /proc/self/status when the op is done.  A round runs every cell once
on each side, the two sides one after the other, each side first in every
other round; R rounds (default 3).  Both sides of a cell must write the
same files.

Printed per cell and side: the median op seconds and VmHWM with their
quartiles, and the base median op over the working-tree one.  Then each
side's import seconds over all its processes.  The JSON (default
scaling.json) holds every sample and these summaries.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from importlib.metadata import version
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from same_outputs import export_src  # noqa: E402

N_MODES = (8, 16, 24)
COMMANDS = (("run", ()), ("sweep", ("--grid", "9")), ("sweep", ("--grid", "33")))
CHILD = """import contextlib, io, json, sys, time
start = time.perf_counter()
import regobs.cli
imported = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = regobs.cli.main(sys.argv[1:])
done = time.perf_counter()
with open("/proc/self/status", encoding="ascii") as fh:
    hwm_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(json.dumps({"code": code, "import_s": imported - start, "op_s": done - imported, "vmhwm_mb": hwm_kb / 1024}))
"""


def cells(tmp: Path):
    """(name, subcommand, config path, arguments after the config) of every
    cell; each config is a shipped one with simulation.n_modes set."""
    for n in N_MODES:
        for shipped in sorted((ROOT / "configs").glob("*.cfg")):
            lines = [line for line in shipped.read_text().splitlines()
                     if not line.strip().startswith("simulation.n_modes")]
            config = tmp / "configs" / f"{shipped.stem}_n{n}.cfg"
            config.parent.mkdir(parents=True, exist_ok=True)
            config.write_text("\n".join([*lines, f"simulation.n_modes = {n}", ""]))
            for command, args in COMMANDS:
                yield " ".join([command, *args, shipped.stem, f"n{n}"]), command, config, args


def run_child(src: Path, command: str, config: Path, args, out: Path) -> dict:
    """The child's record of one op on src, written into a fresh out;
    raises if the op fails."""
    shutil.rmtree(out, ignore_errors=True)
    argv = [sys.executable, "-c", CHILD, command, "--config", str(config), *args, "--out", str(out)]
    done = subprocess.run(argv, env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, check=True,
                          text=True)
    record = json.loads(done.stdout)
    if record["code"] != 0:
        raise RuntimeError(f"{command} on {config.name} exited {record['code']} on {src}")
    return record


def same_files(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    return names == sorted(p.name for p in b.iterdir()) and all(
        filecmp.cmp(a / name, b / name, shallow=False) for name in names)


def spread(values) -> dict:
    """Median and quartiles (inclusive method) of the samples; one sample
    is all three."""
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="revision to compare against (default HEAD)")
    parser.add_argument("--repeats", type=int, default=3, help="rounds of every cell on both sides (default 3)")
    parser.add_argument("--json", default="scaling.json", help="file to write (default scaling.json)")
    opts = parser.parse_args(argv)
    if opts.repeats < 1:
        parser.error("--repeats must be >= 1")
    samples = {}
    with tempfile.TemporaryDirectory(prefix="scaling_") as tmp:
        tmp = Path(tmp)
        sources = {"base": export_src(opts.base, tmp / "base"),
                   "work": shutil.copytree(ROOT / "src", tmp / "work" / "src",
                                           ignore=shutil.ignore_patterns("__pycache__"))}
        matrix = list(cells(tmp))
        for r in range(opts.repeats):
            for name, command, config, args in matrix:
                outs = {}
                for side in (("base", "work") if r % 2 == 0 else ("work", "base")):
                    outs[side] = tmp / "out" / side
                    record = run_child(sources[side], command, config, args, outs[side])
                    samples.setdefault(name, {"base": [], "work": []})[side].append(record)
                if not same_files(outs["base"], outs["work"]):
                    print(f"{name}: the two sides write different files")
                    return 1
    report = {"base": opts.base, "repeats": opts.repeats, "nproc": os.cpu_count(),
              "python": platform.python_version(), "numpy": version("numpy"), "cells": {}}
    print(f"{len(samples)} cells, {opts.repeats} rounds; median op s [quartiles], median VmHWM MB [quartiles]")
    for name, sides in samples.items():
        cell = report["cells"][name] = {}
        for side, records in sides.items():
            cell[side] = {"op_s": spread([rec["op_s"] for rec in records]),
                          "vmhwm_mb": spread([rec["vmhwm_mb"] for rec in records]),
                          "samples": records}
        parts = [f"{side} {c['op_s']['median']:.3f} [{c['op_s']['q1']:.3f}-{c['op_s']['q3']:.3f}] s "
                 f"{c['vmhwm_mb']['median']:.1f} [{c['vmhwm_mb']['q1']:.1f}-{c['vmhwm_mb']['q3']:.1f}] MB"
                 for side, c in cell.items()]
        cell["base_over_work_op"] = cell["base"]["op_s"]["median"] / cell["work"]["op_s"]["median"]
        print(f"{name:<38} {'  '.join(parts)}  base/work {cell['base_over_work_op']:.2f}x")
    report["import_s"] = {side: spread([rec["import_s"] for sides in samples.values() for rec in sides[side]])
                          for side in ("base", "work")}
    for side, s in report["import_s"].items():
        print(f"{side} import: median {s['median']:.3f} s, quartiles {s['q1']:.3f}-{s['q3']:.3f} s")
    Path(opts.json).write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {opts.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
