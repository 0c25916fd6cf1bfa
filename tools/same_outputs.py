"""Check that the working tree's CLI writes the same bytes as a base revision.

    python tools/same_outputs.py [--base REV] [extra.cfg ...]

The `src/` of REV (default HEAD) is exported with `git archive` into a
temporary directory, and `python -m regobs` runs on it and on the working
tree's `src/` for every case:

- the variants of every workload in perfbench/workloads.py, which is read
  and not changed;
- `run`, `rank` and `sweep --grid 9` on each configs/*.cfg, on each
  tools/cases/*.cfg and on each extra config given.

The configs under tools/cases/ reach paths that the shipped configs do not:
J = 2 on a 1 x 1.3 domain with both estimators, a left-edge collar with its
plot, a non-detectable run whose error is truncated before T = 9, and five
sensors whose error decays while their unstable plant grows past the
divergence bound, and whose sweep reports nonzero min_gramian_eig.

Both trees read the same config file.  A case differs when its stdout
(with the output directory written as <out>), stderr, exit code or any
output file differs byte for byte.  Each differing case and file is
printed, and the exit code is 1 if any case differs.
"""

from __future__ import annotations

import argparse
import filecmp
import importlib.util
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COMMANDS = (("run", ()), ("rank", ()), ("sweep", ("--grid", "9")))


def _workloads():
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def cases(extra_configs):
    """(name, config text, subcommand, arguments) of every case."""
    workloads = _workloads()
    for workload, make in workloads.WORKLOADS.items():
        for v in range(workloads.N_VARIANTS):
            op = make(v)
            yield f"{workload}/{v}", op.config_text, op.kind, op.extra_args
    in_repo = [*sorted((ROOT / "configs").glob("*.cfg")), *sorted((ROOT / "tools" / "cases").glob("*.cfg"))]
    for path in [*in_repo, *map(Path, extra_configs)]:
        text = path.read_text()
        for command, args in COMMANDS:
            yield f"{path.name} {command}", text, command, args


def export_src(rev: str, dest: Path) -> Path:
    """The src/ of rev, extracted under dest."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev, "src"],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def invoke(src: Path, config: Path, command: str, args, out: Path):
    """(stdout with out written as <out>, stderr, exit code) of one call."""
    argv = [sys.executable, "-m", "regobs", command, "--config", str(config), *args]
    if command != "rank":
        argv += ["--out", str(out)]
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run(argv, capture_output=True, env=env, cwd=config.parent)
    return done.stdout.replace(os.fsencode(out), b"<out>"), done.stderr.replace(os.fsencode(out), b"<out>"), \
        done.returncode


def differences(base_out: Path, work_out: Path, base_call, work_call) -> list[str]:
    """What differs between the two calls of one case."""
    found = [what for what, a, b in zip(("stdout", "stderr", "exit code"), base_call, work_call) if a != b]
    base_files = sorted(p.name for p in base_out.iterdir()) if base_out.exists() else []
    work_files = sorted(p.name for p in work_out.iterdir()) if work_out.exists() else []
    found += [f"file {name} written by one tree only" for name in sorted(set(base_files) ^ set(work_files))]
    found += [f"file {name}" for name in sorted(set(base_files) & set(work_files))
              if not filecmp.cmp(base_out / name, work_out / name, shallow=False)]
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", default="HEAD", help="revision to compare against (default HEAD)")
    parser.add_argument("configs", nargs="*", help="extra configs to run, rank and sweep")
    opts = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        tmp = Path(tmp)
        trees = {"base": export_src(opts.base, tmp / "base"), "work": ROOT / "src"}
        total = differing = 0
        for k, (name, text, command, args) in enumerate(cases(opts.configs)):
            case = tmp / "cases" / str(k)
            case.mkdir(parents=True)
            config = case / "case.cfg"
            config.write_text(text)
            calls = {tree: invoke(src, config, command, args, case / tree) for tree, src in trees.items()}
            found = differences(case / "base", case / "work", calls["base"], calls["work"])
            total += 1
            if found:
                differing += 1
                print(f"DIFFERS {name}: {', '.join(found)}")
        print(f"{total} cases against {opts.base}: {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
