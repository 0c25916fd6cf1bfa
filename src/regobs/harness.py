"""Experiment orchestration: single runs, placement sweeps, file emission.

All emitted text uses shortest round-trip floats and contains no timestamps
or absolute paths, so identical config text produces byte-identical outputs.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, ExperimentConfig, render_config
from .floattext import format_rows
from .observer import _simulate, design_estimator
from .region import BoundarySegment, DecayFit, build_collar, fit_decay, region_operator
from .sensing import (PointwiseSensor, StrategicReport, _lattice_sweep, group_modes_by_eigenvalue, output_matrix,
                      strategic_rank_test)
from .spectral import ModeSet, assemble_exchange_model

CONFIG_ECHO_BEGIN = "--- config ---"
CONFIG_ECHO_END = "--- end config ---"
_BLOCK_CELLS = 1 << 13  # cells formatted at a time: the formatter holds ~270 bytes per cell
_OPTIONAL_OUTPUTS = ("gain.csv", "error_decay.svg")  # files a run writes only in some cases


def _fmt(value) -> str:
    return repr(float(value))


@dataclass
class EstimatorSummary:
    kind: str
    j_unstable: int
    not_detectable: bool
    detail: str
    closed_loop_eigs: tuple[float, ...]
    achieved_margin: float
    decay_fit: DecayFit | None = None
    err_first: float | None = None
    err_last: float | None = None
    diverged: bool = False
    divergence_message: str = ""


@dataclass
class RunReport:
    config_echo: str
    strategic: StrategicReport
    estimators: dict[str, EstimatorSummary]
    primary: str
    region_note: str
    manifest: tuple[str, ...] = ()

    @property
    def not_detectable(self) -> bool:
        return self.estimators[self.primary].not_detectable

    @property
    def decay_fit(self) -> DecayFit | None:
        return self.estimators[self.primary].decay_fit


def _observed_model(cfg: ExperimentConfig, sensors):
    """The config's modal model, the diagonal a_ww of its unmeasured-field
    block, the eigenvalue groups of a_ww and the output matrix of `sensors`
    (no rows for none)."""
    modes = ModeSet.square(cfg.simulation.n_modes)
    model = assemble_exchange_model(cfg.coefficients, cfg.domain, modes)
    a_ww = model.diagonals(cfg.observer.measured_field)[2]
    groups = group_modes_by_eigenvalue(model, cfg.observer.measured_field)
    c = output_matrix(sensors, cfg.domain, modes) if sensors else np.zeros((0, len(modes)))
    return model, a_ww, groups, c


def rank_report(cfg: ExperimentConfig) -> StrategicReport:
    """Strategic rank test of the config's sensor suite (possibly empty)."""
    _, _, groups, c = _observed_model(cfg, cfg.sensors)
    return strategic_rank_test(c, groups)


def _norm_region(cfg: ExperimentConfig):
    """Region used for error norms; boundary segments report the collar norm
    as the boundary-region proxy (the plant basis vanishes on the boundary)."""
    if isinstance(cfg.region, BoundarySegment):
        collar = build_collar(cfg.region, cfg.collar_radius, cfg.domain)
        note = (
            f"boundary segment region: collar omega_r (radius = {_fmt(cfg.collar_radius)}) "
            "norm reported as the boundary-region proxy"
        )
        return collar, note
    return cfg.region, "internal rectangle region"


def _initial_state(cfg: ExperimentConfig, n: int) -> np.ndarray:
    rng = np.random.default_rng(cfg.simulation.x0_seed)
    draw = rng.standard_normal(2 * n)
    x1 = np.array(cfg.simulation.x0_field1, dtype=float) if cfg.simulation.x0_field1 else draw[:n]
    x2 = np.array(cfg.simulation.x0_field2, dtype=float) if cfg.simulation.x0_field2 else draw[n:]
    return np.concatenate([x1, x2])


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None):
    """Full pipeline: assemble, rank test, gain design, simulate, fit, emit.

    A failed gain design (NotDetectable) is a successful run: the flag is set
    and the open-loop (zero gain) simulation is recorded.
    """
    if not cfg.sensors:
        raise ConfigError("observer requires ≥ 1 sensor")
    model, _, groups, c = _observed_model(cfg, cfg.sensors)
    mf = cfg.observer.measured_field
    sim = cfg.simulation
    strategic = strategic_rank_test(c, groups)
    norm_region, region_note = _norm_region(cfg)
    gram = region_operator(norm_region, cfg.domain, model.mode_set)

    x0 = _initial_state(cfg, model.n_modes)
    wanted = ("reduced", "full") if cfg.observer.estimators == "both" else (cfg.observer.estimators,)
    t_hi = cfg.output.fit_t_hi if cfg.output.fit_t_hi is not None else sim.t_final
    summaries: dict[str, EstimatorSummary] = {}
    runs = {}
    for k, kind in enumerate(wanted):
        gain, failure = design_estimator(kind, model, c, cfg.observer.margin, cfg.observer.target_margin,
                                         measured_field=mf)
        # the truth (None) or a zero estimate of the estimated coordinates, one per gain row
        xhat0 = None if sim.estimator_init == "truth" else np.zeros(gain.H.shape[0])
        traj, _ = _simulate(kind, model, c, gain, x0, xhat0, sim.dt, sim.t_final, measured_field=mf, gram=gram,
                            norm_weight=cfg.output.norm, primary=k == 0)
        summary = summaries[kind] = EstimatorSummary(
            kind=kind,
            j_unstable=gain.split.j_unstable,
            not_detectable=failure is not None,
            detail="gain placed all unstable modes at the target margin" if failure is None else str(failure),
            closed_loop_eigs=tuple(float(v) for v in np.real(gain.closed_loop_eigs)),
            achieved_margin=gain.achieved_margin,
            err_first=float(traj.err_gamma[0]),
            err_last=float(traj.err_gamma[-1]),
            diverged=traj.diverged,
            divergence_message=traj.divergence_message,
        )
        t_end = float(traj.times[-1])
        window = (min(cfg.output.fit_t_lo, t_end), min(t_hi, t_end))
        with contextlib.suppress(ValueError):  # too few or only floored samples in the window: no fit
            summary.decay_fit = fit_decay(traj.times, traj.err_gamma, window=window)
        runs[kind] = traj, gain

    report = RunReport(
        config_echo=render_config(cfg),
        strategic=strategic,
        estimators=summaries,
        primary=wanted[0],
        region_note=region_note,
    )
    if out_dir is not None:
        report.manifest = emit_outputs(report, runs, cfg, out_dir)
    return report, {kind: traj for kind, (traj, _) in runs.items()}


# --- placement sweep ----------------------------------------------------------


@dataclass(eq=False)
class SweepResult:
    """The placement lattice as columns: position (b1[a], b2[b]) has the
    verdict strategic[a, b], the eigenvalue min_gramian_eig[a, b] and the
    flagged modes triggered[a][b]."""

    b1: np.ndarray
    b2: np.ndarray
    strategic: np.ndarray
    min_gramian_eig: np.ndarray
    triggered: list


def _feasible_interval(cfg: ExperimentConfig, sensor):
    d = cfg.domain
    h1, h2 = (0.0, 0.0) if isinstance(sensor, PointwiseSensor) else sensor.rect.half_widths
    if d.alpha1 + h1 >= d.beta1 - h1 or d.alpha2 + h2 >= d.beta2 - h2:
        raise ConfigError("zone sensor support too wide to sweep inside the domain")
    return (d.alpha1 + h1, d.beta1 - h1), (d.alpha2 + h2, d.beta2 - h2)


def placement_sweep(cfg: ExperimentConfig, grid_n: int) -> SweepResult:
    """Evaluate sensor placements over an interior lattice.

    The first sensor's location (or zone center) is varied over a
    grid_n x grid_n lattice at fractions k/(grid_n + 1) of the feasible span;
    remaining sensors stay fixed.  Each position records the strategic
    verdict, the smallest observability-Gramian eigenvalue of the
    unmeasured-field block, and the closed-form predicate triggers, all from
    sensing._lattice_sweep.  Raises ConfigError when observer.gramian_horizon
    is so long that the Gramian overflows.
    """
    if grid_n < 2:
        raise ConfigError("sweep grid must be >= 2")
    if not cfg.sensors:
        raise ConfigError("sweep requires ≥ 1 sensor")
    model, a_ww, groups, fixed = _observed_model(cfg, cfg.sensors[1:])
    horizon = cfg.observer.gramian_horizon
    (lo1, hi1), (lo2, hi2) = _feasible_interval(cfg, cfg.sensors[0])
    fracs = [k / (grid_n + 1) for k in range(1, grid_n + 1)]
    xs = [lo1 + (hi1 - lo1) * f for f in fracs]
    ys = [lo2 + (hi2 - lo2) * f for f in fracs]
    try:
        columns = _lattice_sweep(cfg.sensors[0], fixed, groups, a_ww, horizon, cfg.domain, model.mode_set, xs, ys)
    except OverflowError as exc:
        raise ConfigError(f"observer.gramian_horizon = {horizon!r} is too long: {exc}") from None
    return SweepResult(np.array(xs), np.array(ys), *columns)


# --- file emission -------------------------------------------------------------


def emit_outputs(report: RunReport, trajectories, cfg: ExperimentConfig, out_dir: str) -> tuple[str, ...]:
    """Write trajectory.csv, gain.csv (when the design succeeded), the
    optional error_decay.svg, and summary.txt; returns the manifest.  A
    gain.csv or error_decay.svg that an earlier run left in out_dir and this
    run does not write is removed, so the directory holds the manifest's
    files and any file of another name untouched."""
    os.makedirs(out_dir, exist_ok=True)
    manifest = []

    primary_traj, primary_gain = trajectories[report.primary]
    full = trajectories.get("full", (None, None))[0]
    reduced = trajectories.get("reduced", (None, None))[0]
    _write_trajectory_csv(os.path.join(out_dir, "trajectory.csv"), cfg, primary_traj, full, reduced)
    manifest.append("trajectory.csv")

    if not report.not_detectable:
        _write_gain_csv(os.path.join(out_dir, "gain.csv"), cfg, report.primary, primary_gain)
        manifest.append("gain.csv")

    if cfg.output.plot and primary_traj.err_gamma is not None and report.decay_fit is not None:
        write_decay_svg(os.path.join(out_dir, "error_decay.svg"),
                        primary_traj.times, primary_traj.err_gamma, report.decay_fit)
        manifest.append("error_decay.svg")

    for name in _OPTIONAL_OUTPUTS:
        if name not in manifest:
            with contextlib.suppress(FileNotFoundError, IsADirectoryError):
                os.remove(os.path.join(out_dir, name))
    manifest.append("summary.txt")
    report.manifest = tuple(manifest)
    with open(os.path.join(out_dir, "summary.txt"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(render_summary(report, cfg))
    return report.manifest


def _write_trajectory_csv(path, cfg, primary, full, reduced):
    """trajectory.csv: per sample, t, the error series of the primary, full
    and reduced estimators and the primary's per-mode errors, formatted one
    block of rows at a time; a divergence truncates a series, and its
    missing samples are empty cells."""
    modes = ModeSet.square(cfg.simulation.n_modes)
    header = ["t", "err_gamma", "err_full_order", "err_reduced_order"]
    header += [f"e_{m.i}_{m.j}" for m in modes]
    rows = max(traj.times.shape[0] for traj in (primary, full, reduced) if traj is not None)
    columns = [(col, () if traj is None or traj.err_gamma is None else traj.err_gamma)
               for col, traj in enumerate((primary, full, reduced), start=1)]
    columns.append((slice(4, None), primary.mode_abs_err))
    block = max(1, _BLOCK_CELLS // len(header))
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        for start in range(0, rows, block):
            stop = min(start + block, rows)
            table = np.zeros((stop - start, len(header)))
            empty = np.zeros(table.shape, dtype=bool)
            table[:, 0] = np.arange(start, stop) * cfg.simulation.dt
            for cells, values in columns:
                part = values[start:stop]
                table[:len(part), cells] = part
                empty[len(part):, cells] = True
            fh.write(format_rows(table, empty))


def _write_gain_csv(path, cfg, kind, gain):
    modes = list(ModeSet.square(cfg.simulation.n_modes))
    q = gain.H.shape[1]
    header = ["field", "i", "j"] + [f"h_{s}" for s in range(1, q + 1)]
    mf = cfg.observer.measured_field
    if kind == "reduced":
        fields = [2 if mf == 1 else 1] * len(modes)
        mode_rows = modes
    else:
        fields = [1] * len(modes) + [2] * len(modes)
        mode_rows = modes + modes
    cells = format_rows(gain.H).split(b"\n")
    with open(path, "wb") as fh:
        fh.write((",".join(header) + "\n").encode())
        fh.write(b"".join(f"{f},{m.i},{m.j},".encode() + line + b"\n"
                          for f, m, line in zip(fields, mode_rows, cells)))


def emit_sweep(result: SweepResult, out_dir: str) -> str:
    """Write sweep.csv, one line per position, row-major (b1 outer); each
    coordinate and each distinct set of triggered modes is formatted once."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "sweep.csv")
    b2 = [_fmt(y) for y in result.b2]
    trig = {}
    lines = ["b1,b2,strategic,min_gramian_eig,triggered_modes\n"]
    for x, flags, eigs, row_triggered in zip(result.b1, result.strategic.tolist(),
                                             result.min_gramian_eig.tolist(), result.triggered):
        b1 = _fmt(x)
        for y, s, e, t in zip(b2, flags, eigs, row_triggered):
            if t not in trig:
                trig[t] = ";".join(f"{m.i}.{m.j}" for m in t)
            lines.append(f"{b1},{y},{int(s)},{e!r},{trig[t]}\n")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("".join(lines))
    return path


def render_rank_report(report: StrategicReport) -> str:
    lines = [f"verdict: {report.verdict}"]
    lines.append(f"sensors: q = {report.q}, largest multiplicity = {report.max_multiplicity}")
    lines.append(f"rank tolerance: {_fmt(report.tol_rank)}")
    lines.append("groups (descending eigenvalue):")
    for k, block in enumerate(report.blocks):
        modes = " ".join(f"({m.i},{m.j})" for m in block.group.modes)
        flag = "  << offending" if k in report.offending else ""
        lines.append(
            f"  value = {_fmt(block.group.value)}  multiplicity = {block.group.multiplicity}"
            f"  rank = {block.rank}  modes: {modes}{flag}"
        )
    return "\n".join(lines) + "\n"


def render_summary(report: RunReport, cfg: ExperimentConfig) -> str:
    lines = ["regobs run summary", "=================="]
    lines.append(f"error norm: {cfg.output.norm} ({report.region_note})")
    lines.append("")
    lines.append(render_rank_report(report.strategic).rstrip("\n"))
    for kind in ("reduced", "full"):
        summary = report.estimators.get(kind)
        if summary is None:
            continue
        lines.append("")
        lines.append(f"estimator: {kind}" + ("  (primary)" if kind == report.primary else ""))
        lines.append(f"  J (unstable modes) = {summary.j_unstable}")
        lines.append(f"  not_detectable = {str(summary.not_detectable).lower()}")
        lines.append(f"  detail: {summary.detail}")
        lines.append(f"  achieved margin = {_fmt(summary.achieved_margin)}")
        eigs = ", ".join(_fmt(v) for v in summary.closed_loop_eigs)
        lines.append(f"  closed-loop spectrum: [{eigs}]")
        if summary.err_first is not None:
            lines.append(f"  err_gamma initial = {_fmt(summary.err_first)}, final = {_fmt(summary.err_last)}")
        if summary.decay_fit is not None:
            f = summary.decay_fit
            lines.append(
                f"  decay fit: alpha = {_fmt(f.alpha_fit)}, M = {_fmt(f.m_fit)}, "
                f"window = [{_fmt(f.t_lo)}, {_fmt(f.t_hi)}], residual = {_fmt(f.residual)}, "
                f"floored = {f.n_floored}"
            )
        if summary.diverged:
            lines.append(f"  divergence: {summary.divergence_message}")
    lines.append("")
    lines.append("files: " + ", ".join(report.manifest))
    lines.append(CONFIG_ECHO_BEGIN)
    lines.append(report.config_echo.rstrip("\n"))
    lines.append(CONFIG_ECHO_END)
    return "\n".join(lines) + "\n"


def extract_config_echo(summary_text: str) -> str:
    """Recover the normalized config text embedded in a summary."""
    begin = summary_text.index(CONFIG_ECHO_BEGIN) + len(CONFIG_ECHO_BEGIN)
    end = summary_text.index(CONFIG_ECHO_END)
    return summary_text[begin:end].strip("\n") + "\n"


def write_decay_svg(path, times, values, fit: DecayFit):
    """Log-scale error plot: exactly two polylines (data, fitted line)."""
    width, height = 640, 420
    ml, mr, mt, mb = 60, 20, 20, 40
    t = np.asarray(times, dtype=float)
    v = np.maximum(np.asarray(values, dtype=float), 1e-30)
    logv = np.log10(v)
    t_min, t_max = float(t[0]), float(t[-1])
    y_min, y_max = float(logv.min()), float(logv.max())
    if y_max - y_min < 1e-12:
        y_min, y_max = y_min - 1.0, y_max + 1.0
    if t_max - t_min < 1e-12:
        t_max = t_min + 1.0

    def sx(x):
        return ml + (x - t_min) / (t_max - t_min) * (width - ml - mr)

    def sy(y):
        return height - mb - (y - y_min) / (y_max - y_min) * (height - mt - mb)

    data_pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(t, logv))
    fit_t = np.linspace(fit.t_lo, fit.t_hi, 2)
    fit_v = np.log10(np.maximum(fit.m_fit * np.exp(-fit.alpha_fit * fit_t), 1e-30))
    fit_v = np.clip(fit_v, y_min, y_max)
    fit_pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in zip(fit_t, fit_v))
    svg = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" viewBox="0 0 {width} {height}">',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 8}" font-size="12" text-anchor="middle">t</text>',
        f'<text x="14" y="{height // 2}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 14 {height // 2})">log10 err_gamma</text>',
        f'<polyline fill="none" stroke="steelblue" stroke-width="1.5" points="{data_pts}"/>',
        f'<polyline fill="none" stroke="crimson" stroke-width="1.5" stroke-dasharray="6 3" points="{fit_pts}"/>',
        "</svg>",
    ]
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(svg) + "\n")
