#!/usr/bin/env python3
"""Regenerate reference/<workload>.json from the toolkit in ../src.

    python3 perfbench/make_reference.py [WORKLOAD ...]

The stored references were produced by the unmodified toolkit.  Regenerate
them only when an output format or a workload definition changes on purpose,
never to make a failing op pass.
"""

from __future__ import annotations

import json
import os
import sys

from run import HERE, SRC, WORK, check_op, run_op
from workloads import N_VARIANTS, WORKLOADS, reference_key
import checks


def build(workload: str) -> dict:
    import regobs.cli as cli

    out_dir = os.path.join(WORK, "reference-out", workload)
    config_dir = os.path.join(WORK, "reference-configs")
    os.makedirs(config_dir, exist_ok=True)
    variants = {}
    for v in range(N_VARIANTS):
        op = WORKLOADS[workload](v)
        key = reference_key(op)
        if key in variants:
            continue
        config_path = os.path.join(config_dir, f"{workload}-{v}.cfg")
        with open(config_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(op.config_text)
        code, stdout, stderr, _ = run_op(cli, op, config_path, out_dir)
        if code != 0:
            raise SystemExit(f"{workload} variant {v} exited {code}: {stderr}")
        extract = checks.extract_sweep if op.kind == "sweep" else checks.extract_run
        variants[key] = extract(out_dir, stdout)
        # also runs the sweep's predicate / rank-test consistency check
        problems = check_op(op, code, stdout, stderr, out_dir, variants)
        if problems:
            raise SystemExit(f"{workload} variant {v} fails its own reference: {problems}")
        print(f"{workload}: variant {v} -> reference {key}", file=sys.stderr)
    return variants


def main(argv) -> int:
    sys.path.insert(0, SRC)
    for workload in argv or list(WORKLOADS):
        variants = build(workload)
        path = os.path.join(HERE, "reference", f"{workload}.json")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump({"workload": workload, "variants": variants}, fh, separators=(",", ":"), sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
