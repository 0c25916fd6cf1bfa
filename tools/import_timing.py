"""Time a fresh `import regobs.cli` of the working tree against a base revision.

    python tools/import_timing.py [--base REV] [--repeats R]

The `src/` of REV (default HEAD) is exported with `git archive`, as
tools/same_outputs.py does.  Each round starts one fresh
`python -c "import regobs.cli"` process on REV's `src/` and one on the
working tree's, each side first in every other round, R rounds (default
41).  A sample is the wall time of `subprocess.run` with no timeout, so
the parent waits on the child without polling and the sample is not
rounded to a polling step.  Before timing, each side checks that the child
imports regobs from that side's `src/`.  Printed per side: the median and
the quartiles of the seconds per process, then the base median over the
working-tree median.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))

from same_outputs import export_src  # noqa: E402

IMPORT = "import regobs.cli"


def child_env(src: Path) -> dict:
    return {**os.environ, "PYTHONPATH": str(src)}


def check_source(src: Path) -> None:
    """Raise unless a child on src imports regobs from src."""
    done = subprocess.run([sys.executable, "-c", IMPORT + "; print(regobs.cli.__file__)"], env=child_env(src),
                          capture_output=True, check=True, text=True)
    if Path(done.stdout.strip()).resolve() != (src / "regobs" / "cli.py").resolve():
        raise RuntimeError(f"a child on {src} imported {done.stdout.strip()}")


def import_seconds(src: Path) -> float:
    """Wall time of one fresh process that imports regobs.cli from src."""
    env = child_env(src)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", IMPORT], env=env, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def summary(times) -> str:
    q1, median, q3 = statistics.quantiles(times, n=4)
    return f"median {median * 1e3:.1f} ms, quartiles {q1 * 1e3:.1f}-{q3 * 1e3:.1f} ms"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="revision to compare against (default HEAD)")
    parser.add_argument("--repeats", type=int, default=41, help="rounds of both sides (default 41)")
    opts = parser.parse_args(argv)
    if opts.repeats < 2:
        parser.error("--repeats must be at least 2")
    with tempfile.TemporaryDirectory(prefix="import_timing_") as tmp:
        sources = {"base": export_src(opts.base, Path(tmp) / "base"), "work": ROOT / "src"}
        for src in sources.values():
            check_source(src)
        times = {side: [] for side in sources}
        for r in range(opts.repeats):
            for side in (("base", "work") if r % 2 == 0 else ("work", "base")):
                times[side].append(import_seconds(sources[side]))
    print(f"fresh `{IMPORT}` processes, {opts.repeats} rounds (base {opts.base})")
    for side in sources:
        print(f"{side}: {summary(times[side])}")
    print(f"base / work: {statistics.median(times['base']) / statistics.median(times['work']):.3f}x")
    return 0


if __name__ == "__main__":
    sys.exit(main())
