#!/usr/bin/env python3
"""regobs benchmark: drives `regobs.cli.main` on generated configs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

One closed-loop client (this process) issues `regobs run` / `regobs sweep`
ops back to back for S seconds, checks every op's files against the stored
reference (checks.py) and prints, as the last line of standard output, one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With --trace 0
the metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 every
other batch of ops runs with per-module spans (spans.py) and the metrics are
the per-layer ones.  The environment record, derived figures and failure
reasons go to standard error and to _work/.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
sys.path.insert(0, HERE)

import checks  # noqa: E402
import spans  # noqa: E402
from workloads import N_VARIANTS, SWEEP_GRID, WORKLOADS, ops_for_seed, reference_key  # noqa: E402

SETUP_SAMPLES = 5
SETUP_TIMEOUT_S = 60
MAX_REPORTED_FAILURES = 5
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _blas_threads() -> dict:
    """Thread counts of every OpenBLAS library loaded in this process."""
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line and line.rstrip().endswith(".so")}
    except OSError:
        paths = set()
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def environment(seed: int) -> dict:
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401 - loads scipy's own BLAS

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "blas_threads_requested": {var: os.environ[var] for var in THREAD_VARS if var in os.environ},
        "seed": seed,
    }


def measure_setup() -> list[float]:
    """Wall time of fresh processes that import the CLI and exit."""
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import regobs.cli"], env=env, check=True,
                       stdout=subprocess.DEVNULL, timeout=SETUP_TIMEOUT_S)
        samples.append(time.perf_counter() - start)
    return samples


def load_reference(workload: str) -> dict:
    with open(os.path.join(HERE, "reference", f"{workload}.json"), encoding="utf-8") as fh:
        return json.load(fh)["variants"]


def write_configs(workload: str) -> dict[int, str]:
    """Write every variant's config text; returns variant -> path."""
    config_dir = os.path.join(WORK, "configs", workload)
    os.makedirs(config_dir, exist_ok=True)
    paths = {}
    for v in range(N_VARIANTS):
        op = WORKLOADS[workload](v)
        paths[v] = os.path.join(config_dir, f"variant-{v}.cfg")
        with open(paths[v], "w", encoding="utf-8", newline="\n") as fh:
            fh.write(op.config_text)
    return paths


def run_op(cli, op, config_path: str, out_dir: str, tracer=None):
    """One CLI op; returns (exit code, stdout, stderr, wall seconds)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = [op.kind, "--config", config_path, *op.extra_args, "--out", out_dir]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is None:
            start = time.perf_counter()
            code = cli.main(argv)
            wall = time.perf_counter() - start
        else:
            # looked up inside the call, after the tracer has wrapped cli.main
            code, wall = tracer.call(lambda: cli.main(argv))
    return code, out.getvalue(), err.getvalue(), wall


def check_op(op, code: int, stdout: str, stderr: str, out_dir: str, reference: dict) -> list[str]:
    if code != 0:
        return [f"exit code {code}: {stderr.strip()[:200]}"]
    try:
        if op.kind == "sweep":
            got = checks.extract_sweep(out_dir, stdout)
            problems = checks.sweep_consistency(got)
            scale = checks.gramian_scale(op.config_text)
        else:
            got = checks.extract_run(out_dir, stdout)
            problems, scale = [], None
        return problems + checks.compare(got, reference[reference_key(op)], scale)
    except Exception as exc:  # noqa: BLE001 - malformed output fails the op, the run goes on
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, corrupt=None) -> dict:
    """Closed loop for `seconds`; `corrupt(op, out_dir)`, when given, edits
    each op's files before they are checked (used by the self-test)."""
    import regobs.cli as cli

    reference = load_reference(workload)
    config_paths = write_configs(workload)
    out_dir = os.path.join(WORK, "out", workload)
    tracer = spans.Tracer() if trace else None
    # Sweep ops alternate pointwise and zone sensors; run them in pairs so
    # every run times both kinds equally often.
    batch = 2 if workload.startswith("sweep") else 1
    min_batches = 2 if trace else 1
    ops = ops_for_seed(workload, seed)
    walls, untraced_walls, failures = [], [], []
    attempted = 0
    start = time.perf_counter()
    batches = 0
    while True:
        elapsed = time.perf_counter() - start
        if batches >= min_batches and elapsed + batch * statistics.median(walls) > seconds:
            break
        traced = trace and batches % 2 == 1
        for _ in range(batch):
            op = next(ops)
            code, stdout, stderr, wall = run_op(cli, op, config_paths[op.variant], out_dir,
                                                tracer if traced else None)
            if corrupt is not None:
                corrupt(op, out_dir)
            problems = check_op(op, code, stdout, stderr, out_dir, reference)
            attempted += 1
            walls.append(wall)
            if not traced:
                untraced_walls.append(wall)
            if problems:
                failures.append((op.variant, problems))
        batches += 1
    return {
        "attempted": attempted,
        "failures": failures,
        "walls": walls,
        "untraced_walls": untraced_walls,
        "tracer": tracer,
        "measured_s": time.perf_counter() - start,
    }


def tail(walls: list[float]):
    """Highest percentile with at least ten samples beyond it."""
    n = len(walls)
    if n < 20:
        return None
    beyond = 10
    ordered = sorted(walls)
    pct = 100.0 * (n - beyond) / n
    return {"percentile": round(pct, 2), "value_s": ordered[n - beyond - 1], "samples": n, "beyond": beyond}


def _record_path(workload: str, seed: int, trace: int) -> str:
    return os.path.join(WORK, f"result-{workload}-seed{seed}-trace{trace}.json")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    if not os.path.isfile(os.path.join(SRC, "regobs", "cli.py")):
        _log(f"error: regobs sources not found under {SRC}")
        return 2
    sys.path.insert(0, SRC)

    env = environment(args.seed)
    _log("env: " + json.dumps(env, sort_keys=True))
    # OpenBLAS silently caps a larger request at the core count, so refuse the
    # request as well as the count the library reports.
    too_many = {lib: n for lib, n in env["blas_threads"].items() if n > env["nproc"]}
    too_many.update({var: value for var, value in env["blas_threads_requested"].items()
                     if int(value.split(",")[0]) > env["nproc"]})
    if too_many:
        _log(f"error: BLAS threads {too_many} exceed nproc = {env['nproc']}; "
             "set OPENBLAS_NUM_THREADS to at most nproc")
        return 2

    setup = measure_setup() if not args.trace else []
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    attempted, failures, walls = result["attempted"], result["failures"], result["walls"]
    for variant, problems in failures[:MAX_REPORTED_FAILURES]:
        _log(f"failed op (variant {variant}): " + "; ".join(problems[:3]))

    derived = {
        "failed_ops_frac": len(failures) / attempted,
        "ops": attempted,
        "op_s_tail": tail(walls),
        "measured_s": result["measured_s"],
    }
    if args.workload.startswith("sweep"):
        derived["positions_per_s"] = SWEEP_GRID**2 * attempted / sum(walls)
    if args.trace:
        tracer = result["tracer"]
        metrics = spans.layer_metrics(tracer, result["untraced_walls"])
        tracer.write(os.path.join(WORK, f"spans-{args.workload}.csv.gz"))
    else:
        metrics = {
            "op_s_p50": {"value": statistics.median(walls), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
        derived["setup_samples_s"] = setup
    _log("derived (not gated): " + json.dumps(derived, sort_keys=True))
    record = {"workload": args.workload, "trace": args.trace, "env": env, "metrics": metrics,
              "derived": derived, "op_walls_s": walls}
    with open(_record_path(args.workload, args.seed, args.trace), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print each metric with its unit."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{workload}: benchmark failed (exit {proc.returncode})\n{proc.stderr}")
            status = 1
            continue
        result = json.loads(lines[-1])
        with open(_record_path(workload, args.seed, args.trace), encoding="utf-8") as fh:
            derived = json.load(fh)["derived"]
        print(f"{workload}: attempted={result['attempted']} failed={result['failed']} "
              f"failed_ops_frac={derived.get('failed_ops_frac')}")
        for name, metric in result["metrics"].items():
            print(f"  {name:42s} {metric['value']:.6g} {metric['unit']}")
        if derived.get("op_s_tail"):
            t = derived["op_s_tail"]
            print(f"  op_s_tail (not gated)                      {t['value_s']:.6g} s "
                  f"at p{t['percentile']} of {t['samples']} ops, {t['beyond']} beyond")
        if "positions_per_s" in derived:
            print(f"  positions_per_s (not gated)                {derived['positions_per_s']:.6g} 1/s")
        status |= 0 if result["correct"] else 1
    return status


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - report and exit non-zero without a result line
        traceback.print_exc()
        sys.exit(2)
