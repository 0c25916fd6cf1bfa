"""Output checks: what one CLI op wrote, reduced to comparable quantities.

`extract_run` / `extract_sweep` read an op's files and stdout into
``{"discrete": {...}, "floats": {...}}``.  A reference of the same shape,
produced by the unmodified toolkit, is stored per workload variant in
``reference/``.  `compare` passes an op only when

* every discrete item (verdict, J, not_detectable, ranks, manifest, config
  echo, CSV headers and row counts, sweep verdicts and triggered modes,
  stdout) is equal, and
* every float quantity has the reference's shape and lies within a round-off
  bound scaled to that quantity's magnitude (the RTOL_* constants), so an
  exact faster algorithm passes and a wrong one fails.

`sweep_consistency` needs no reference: on the sweep workloads every
non-strategic position must be explained by the closed-form predicate and
vice versa.
"""

from __future__ import annotations

import math
import os
import re

FLOAT_RE = re.compile(r"(?<![\w.])-?(?:\d+\.\d*(?:e[-+]?\d+)?|\d+e[-+]?\d+|inf|nan)(?![\w.])")

# Float quantities pass when every element satisfies |x - r| <= rtol * scale,
# where scale is the largest |r| of the quantity: round-off of an exact method
# is absolute in units of the quantity's size, not of each small element.
# Replacing the dense propagator by an eigendecomposition moved trajectories by
# 6e-13 and decay fits by 7e-10 of their scale; the analytic closed-loop
# spectrum differs from the computed one by 2e-14 of its scale.  Scaling the
# gain by 1 + 1e-6 moved trajectories by 2e-8 and decay fits by 6e-7.
RTOL_SPECTRUM = 1e-12
RTOL_DECAY_FIT = 1e-8  # the fit takes logs of the smallest samples
RTOL_DEFAULT = 1e-10
# error_decay.svg prints pixel coordinates with 2 decimals
SVG_PIXEL_TOL = 0.015
# min_gramian_eig is round-off on these inputs; it is compared only to within
# GRAMIAN_RTOL times an upper bound on the Gramian's trace (gramian_scale).
GRAMIAN_RTOL = 1e-12


class OutputError(Exception):
    """An op's outputs are missing or malformed."""


def _split_floats(line: str):
    values = [float(m) for m in FLOAT_RE.findall(line)]
    return FLOAT_RE.sub("#", line), values


def _summary(text: str, discrete: dict, floats: dict) -> list[str]:
    """Summary lines become a float-free skeleton plus labelled floats."""
    skeleton = []
    section = "rank"
    for line in text.splitlines():
        if line.startswith("estimator: "):
            section = line.split()[1]
        elif line == "--- config ---":
            section = "config"
        skel, values = _split_floats(line)
        skeleton.append(skel)
        if values:
            label = skel.split("#", 1)[0].strip().rstrip("=:[ ").replace(" ", "_")
            key = f"summary:{section}:{label}"
            floats.setdefault(key, []).extend(values)
        if line.startswith("files: "):
            discrete["manifest"] = line[len("files: "):].split(", ")
    discrete["summary_skeleton"] = skeleton
    return discrete.get("manifest", [])


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise OutputError(f"cannot read {os.path.basename(path)}: {exc}") from None


def _trajectory(text: str, discrete: dict, floats: dict) -> int:
    lines = text.splitlines()
    if not lines:
        raise OutputError("trajectory.csv is empty")
    header = lines[0].split(",")
    discrete["trajectory_header"] = lines[0]
    discrete["trajectory_rows"] = len(lines) - 1
    cols = {name: [] for name in ("t", "err_gamma", "err_full_order", "err_reduced_order")}
    mode_norm = []
    empty = set()
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise OutputError("trajectory.csv row width differs from its header")
        for k, name in enumerate(cols):
            if cells[k]:
                cols[name].append(float(cells[k]))
            else:
                empty.add(name)
        mode_norm.append(math.sqrt(sum(float(c) ** 2 for c in cells[4:] if c)))
    discrete["trajectory_empty_columns"] = sorted(empty)
    for name, values in cols.items():
        floats[f"trajectory:{name}"] = values
    floats["trajectory:mode_err_norm"] = mode_norm
    return len(lines) - 1


def _gain(text: str, discrete: dict, floats: dict) -> None:
    lines = text.splitlines()
    discrete["gain_header"] = lines[0]
    index, values = [], []
    for line in lines[1:]:
        cells = line.split(",")
        index.append(",".join(cells[:3]))
        values.extend(float(c) for c in cells[3:])
    discrete["gain_rows"] = index
    floats["gain:H"] = values


def _svg(text: str, discrete: dict, floats: dict) -> None:
    skeleton, points, counts = [], [], []
    for line in text.splitlines():
        if line.startswith("<polyline"):
            pts = re.search(r'points="([^"]*)"', line).group(1).split()
            counts.append(len(pts))
            points.extend(float(v) for p in pts for v in p.split(","))
            line = re.sub(r'points="[^"]*"', 'points=""', line)
        skeleton.append(line)
    discrete["svg_skeleton"] = skeleton
    discrete["svg_polyline_points"] = counts
    floats["svg:points"] = points


def extract_run(out_dir: str, stdout: str) -> dict:
    discrete, floats = {}, {}
    discrete["stdout"] = stdout.replace(out_dir, "<out>").splitlines()
    manifest = _summary(_read(os.path.join(out_dir, "summary.txt")), discrete, floats)
    present = sorted(os.listdir(out_dir))
    if present != sorted(manifest):
        raise OutputError(f"files {present} differ from the manifest {manifest}")
    rows = _trajectory(_read(os.path.join(out_dir, "trajectory.csv")), discrete, floats)
    if "gain.csv" in manifest:
        _gain(_read(os.path.join(out_dir, "gain.csv")), discrete, floats)
    if "error_decay.svg" in manifest:
        _svg(_read(os.path.join(out_dir, "error_decay.svg")), discrete, floats)
        if discrete["svg_polyline_points"][:1] != [rows]:
            raise OutputError("error_decay.svg data polyline does not cover every sample")
    return {"discrete": discrete, "floats": floats}


def extract_sweep(out_dir: str, stdout: str) -> dict:
    present = sorted(os.listdir(out_dir))
    if present != ["sweep.csv"]:
        raise OutputError(f"sweep wrote {present}, expected ['sweep.csv']")
    lines = _read(os.path.join(out_dir, "sweep.csv")).splitlines()
    if not lines:
        raise OutputError("sweep.csv is empty")
    strategic, triggered, b, min_eig = [], [], [], []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != 5:
            raise OutputError("sweep.csv row does not have 5 cells")
        b.extend((float(cells[0]), float(cells[1])))
        strategic.append(cells[2])
        min_eig.append(float(cells[3]))
        triggered.append(cells[4])
    discrete = {
        "stdout": stdout.replace(out_dir, "<out>").splitlines(),
        "sweep_header": lines[0],
        "strategic": "".join(strategic),
        "triggered_modes": triggered,
    }
    return {"discrete": discrete, "floats": {"sweep:b": b, "sweep:min_gramian_eig": min_eig}}


def sweep_consistency(extracted: dict) -> list[str]:
    """The predicate must fire exactly where the rank test says NotStrategic."""
    d = extracted["discrete"]
    bad = [k for k, (s, t) in enumerate(zip(d["strategic"], d["triggered_modes"]))
           if (s == "0") != bool(t)]
    if bad:
        return [f"predicate and rank test disagree at {len(bad)} positions (first row {bad[0] + 1})"]
    return []


def _bound(key: str, ref, gramian_scale: float | None) -> float:
    if key == "sweep:min_gramian_eig":
        return GRAMIAN_RTOL * gramian_scale
    if key == "svg:points":
        return SVG_PIXEL_TOL
    finite = [abs(r) for r in ref if math.isfinite(r)]
    scale = max(finite) if finite else 0.0
    if key.endswith(":closed-loop_spectrum"):
        return RTOL_SPECTRUM * scale
    if ":decay_fit" in key:
        return RTOL_DECAY_FIT * scale
    return RTOL_DEFAULT * scale


def _close(key: str, got, ref, gramian_scale: float | None) -> str | None:
    if len(got) != len(ref):
        return f"{key}: {len(got)} values, reference has {len(ref)}"
    if not ref:
        return None
    bound = _bound(key, ref, gramian_scale)
    worst, where = -1.0, -1
    for k, (x, r) in enumerate(zip(got, ref)):
        if math.isfinite(r) and math.isfinite(x):
            err = abs(x - r)
        else:
            err = 0.0 if (x == r or (math.isnan(x) and math.isnan(r))) else math.inf
        if err > bound and err > worst:
            worst, where = err, k
    if where >= 0:
        return f"{key}[{where}] = {got[where]!r}, reference {ref[where]!r} (bound {bound:.3g})"
    return None


def compare(extracted: dict, reference: dict, gramian_scale: float | None = None) -> list[str]:
    """Reasons the extracted outputs fail the reference; empty when they pass."""
    problems = []
    got_d, ref_d = extracted["discrete"], reference["discrete"]
    for key in sorted(set(got_d) | set(ref_d)):
        if got_d.get(key) != ref_d.get(key):
            problems.append(f"{key} differs from the reference{_first_difference(got_d.get(key), ref_d.get(key))}")
    got_f, ref_f = extracted["floats"], reference["floats"]
    for key in sorted(set(got_f) | set(ref_f)):
        if key not in got_f or key not in ref_f:
            problems.append(f"{key} missing from {'output' if key not in got_f else 'reference'}")
            continue
        msg = _close(key, got_f[key], ref_f[key], gramian_scale)
        if msg:
            problems.append(msg)
    return problems


def _first_difference(got, ref) -> str:
    if isinstance(got, list) and isinstance(ref, list):
        for k, (a, b) in enumerate(zip(got, ref)):
            if a != b:
                return f" at item {k}: {a!r} vs {b!r}"
        return f": {len(got)} items vs {len(ref)}"
    return f": {got!r} vs {ref!r}"


def gramian_scale(config_text: str) -> float:
    """Upper bound on the trace of the sweep's observability Gramian of A_ww.

    trace W = sum_m c_m^2 (exp(2 d_m T) - 1) / (2 d_m) with d_m the diagonal
    of A_ww; |c_m| is bounded by 2/sqrt(L1 L2) for a pointwise sensor and by
    that times the support area for a zone sensor.
    """
    cfg = {}
    for line in config_text.splitlines():
        if "=" in line and not line.lstrip().startswith("#"):
            key, value = line.split("=", 1)
            cfg[key.strip()] = value.strip()
    l1 = float(cfg["domain.beta1"]) - float(cfg["domain.alpha1"])
    l2 = float(cfg["domain.beta2"]) - float(cfg["domain.alpha2"])
    gamma = float(cfg["coefficients.gamma_diff"])
    beta = float(cfg["coefficients.beta_couple"])
    horizon = float(cfg["observer.gramian_horizon"])
    n = int(cfg["simulation.n_modes"])
    c_max = 2.0 / math.sqrt(l1 * l2)
    if cfg["sensor.1.kind"] == "zone":
        lo1, hi1, lo2, hi2 = (float(v) for v in cfg["sensor.1.rect"].split(","))
        c_max *= (hi1 - lo1) * (hi2 - lo2)
    total = 0.0
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            d = beta - gamma * math.pi**2 * ((i / l1) ** 2 + (j / l2) ** 2)
            total += math.expm1(2 * d * horizon) / (2 * d) if d != 0 else horizon
    return c_max**2 * total
