"""Experiment orchestration: single runs, placement sweeps, file emission.

All emitted text uses shortest round-trip floats and contains no timestamps
or absolute paths, so identical config text produces byte-identical outputs.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

import numpy as np

from .config import ConfigError, ExperimentConfig, render_config
from .floattext import format_rows
from .observer import (
    NotDetectableError,
    _estimator_maps,
    _field_slices,
    _simulate,
    _steps,
    _zero_gain,
    design_gain,
    split_unstable_stable,
)
from .region import BoundarySegment, DecayFit, build_collar, fit_decay, region_operator
from .sensing import (
    PointwiseSensor,
    StrategicReport,
    _group_layout,
    _horizon_kernel,
    _kernel_rank,
    _lattice_rows,
    _lattice_triggered,
    _stacked_rank_test,
    group_modes_by_eigenvalue,
    observability_gramian,
    output_matrix,
    strategic_rank_test,
)
from .spectral import ModeSet, assemble_exchange_model

CONFIG_ECHO_BEGIN = "--- config ---"
CONFIG_ECHO_END = "--- end config ---"
_BLOCK_CELLS = 1 << 13  # cells formatted at a time: the formatter holds ~320 bytes per cell
_SWEEP_CHUNK_ENTRIES = 1 << 13  # output-matrix entries a sweep rank-tests at a time
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
    def j_unstable(self) -> int:
        return self.estimators[self.primary].j_unstable

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
    summaries: dict[str, EstimatorSummary] = {}
    estimators, gains = {}, {}

    for kind in wanted:
        block, obs_map, sensor_matrix = _estimator_maps(kind, model, c, mf)
        truth0 = x0[_field_slices(model.n_modes, mf)[1]] if kind == "reduced" else x0
        split = split_unstable_stable(block, cfg.observer.margin)
        try:
            gain = design_gain(obs_map, split, cfg.observer.target_margin, sensor_matrix=sensor_matrix)
            not_detectable = False
            detail = "gain placed all unstable modes at the target margin"
        except NotDetectableError as exc:
            gain = _zero_gain(obs_map.shape[0], split, cfg.observer.target_margin, exc.residual, sensor_matrix)
            not_detectable = True
            detail = str(exc)

        xhat0 = truth0 if sim.estimator_init == "truth" else np.zeros_like(truth0)
        estimators[kind], gains[kind] = (gain, xhat0 - truth0), gain
        summaries[kind] = EstimatorSummary(
            kind=kind,
            j_unstable=split.j_unstable,
            not_detectable=not_detectable,
            detail=detail,
            closed_loop_eigs=tuple(float(v) for v in np.real(gain.closed_loop_eigs)),
            achieved_margin=gain.achieved_margin,
        )

    primary = "reduced" if "reduced" in summaries else "full"
    trajectories = _simulate(model, c, x0, sim.dt, _steps(sim.dt, sim.t_final), estimators, measured_field=mf,
                             gram=gram, norm_weight=cfg.output.norm, keep_modes=(primary,))
    for kind, traj in trajectories.items():
        summary = summaries[kind]
        summary.diverged, summary.divergence_message = traj.diverged, traj.divergence_message
        if traj.err_gamma is not None and traj.err_gamma.size:
            summary.err_first = float(traj.err_gamma[0])
            summary.err_last = float(traj.err_gamma[-1])
            t_hi = cfg.output.fit_t_hi if cfg.output.fit_t_hi is not None else cfg.simulation.t_final
            t_lo = min(cfg.output.fit_t_lo, float(traj.times[-1]))
            t_hi = min(t_hi, float(traj.times[-1]))
            try:
                summary.decay_fit = fit_decay(traj.times, traj.err_gamma, window=(t_lo, t_hi))
            except ValueError:
                summary.decay_fit = None

    report = RunReport(
        config_echo=render_config(cfg),
        strategic=strategic,
        estimators=summaries,
        primary=primary,
        region_note=region_note,
    )
    if out_dir is not None:
        report.manifest = emit_outputs(report, {k: (t, gains[k]) for k, t in trajectories.items()}, cfg, out_dir)
    return report, trajectories


# --- placement sweep ----------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    b1: float
    b2: float
    strategic: bool
    min_gramian_eig: float
    triggered: tuple


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

    @cached_property
    def rows(self) -> tuple[SweepRow, ...]:
        """One SweepRow per position, row-major (b1 outer), built when read."""
        b2 = self.b2.tolist()
        return tuple(
            SweepRow(b1=x, b2=y, strategic=s, min_gramian_eig=e, triggered=t)
            for x, flags, eigs, trig in zip(self.b1.tolist(), self.strategic.tolist(),
                                             self.min_gramian_eig.tolist(), self.triggered)
            for y, s, e, t in zip(b2, flags, eigs, trig)
        )


def _feasible_interval(cfg: ExperimentConfig, sensor):
    d = cfg.domain
    if isinstance(sensor, PointwiseSensor):
        return (d.alpha1, d.beta1), (d.alpha2, d.beta2)
    h1, h2 = sensor.rect.half_widths
    if d.alpha1 + h1 >= d.beta1 - h1 or d.alpha2 + h2 >= d.beta2 - h2:
        raise ConfigError("zone sensor support too wide to sweep inside the domain")
    return (d.alpha1 + h1, d.beta1 - h1), (d.alpha2 + h2, d.beta2 - h2)


def placement_sweep(cfg: ExperimentConfig, grid_n: int) -> SweepResult:
    """Evaluate sensor placements over an interior lattice.

    The first sensor's location (or zone center) is varied over a
    grid_n x grid_n lattice at fractions k/(grid_n + 1) of the feasible span;
    remaining sensors stay fixed.  Each position records the strategic
    verdict, the smallest observability-Gramian eigenvalue of the
    unmeasured-field block, and the closed-form predicate triggers.  The
    positions are rank-tested and checked for Gramian overflow in chunks of
    whole lattice rows (fixed b1), as many rows as keep a chunk's output
    matrices within _SWEEP_CHUNK_ENTRIES entries and at least one.  When q
    sensors times the numerical rank r of the Gramian kernel's correlation
    fall short of the n modes (sensing._kernel_rank), every Gramian is
    singular to within n eps sum_s max_i c_si^2 K_ii, and the eigenvalue is
    written as 0.0 with no eigensolve; otherwise the Gramians are formed and
    eigensolved one lattice row at a time, and a negative eigvalsh value,
    round-off of a positive semidefinite W, is written as 0.0.  Raises
    ConfigError when observer.gramian_horizon is so long that the Gramian
    overflows.
    """
    if grid_n < 2:
        raise ConfigError("sweep grid must be >= 2")
    if not cfg.sensors:
        raise ConfigError("sweep requires ≥ 1 sensor")
    model, a_ww, groups, fixed = _observed_model(cfg, cfg.sensors[1:])
    horizon = cfg.observer.gramian_horizon
    modes = model.mode_set
    varied = cfg.sensors[0]
    (lo1, hi1), (lo2, hi2) = _feasible_interval(cfg, varied)
    fracs = [k / (grid_n + 1) for k in range(1, grid_n + 1)]
    xs = [lo1 + (hi1 - lo1) * f for f in fracs]
    ys = [lo2 + (hi2 - lo2) * f for f in fracs]
    q, n = len(cfg.sensors), len(modes)
    layout = _group_layout(groups)
    too_long = f"observer.gramian_horizon = {horizon!r} is too long: "
    try:
        k = _horizon_kernel(a_ww, horizon)
    except ValueError as exc:
        raise ConfigError(too_long + str(exc)) from None
    # q r < n: every Gramian is numerically singular (_kernel_rank)
    singular = q * _kernel_rank(k) < n
    strategic = np.zeros((grid_n, grid_n), dtype=bool)
    min_eig = np.zeros((grid_n, grid_n))
    lattice = _lattice_rows(varied, cfg.domain, modes, xs, ys)
    chunk = max(1, _SWEEP_CHUNK_ENTRIES // (grid_n * q * n))
    for start in range(0, grid_n, chunk):
        varied_rows = np.stack(list(islice(lattice, chunk))).reshape(-1, 1, n)
        span = slice(start, start + len(varied_rows) // grid_n)
        c = np.concatenate([varied_rows, np.broadcast_to(fixed, (len(varied_rows), q - 1, n))], axis=1)
        strategic[span] = _stacked_rank_test(c, layout)[3].reshape(-1, grid_n)
        with np.errstate(over="ignore"):
            # |W_ij| <= sqrt(W_ii W_jj), so W overflows where its diagonal does
            if not np.isfinite(np.sum(c * c, axis=1) * np.diag(k)).all():
                raise ConfigError(f"{too_long}observability Gramian overflows at t_horizon = {horizon!r}")
        if not singular:
            for row_c, row_eig in zip(c.reshape(-1, grid_n, q, n), min_eig[span]):
                w = observability_gramian(a_ww, row_c, horizon)
                # W is positive semidefinite: a negative eigvalsh value is round-off,
                # and 0 is never farther from the true eigenvalue than it is
                np.maximum(np.linalg.eigvalsh(w)[:, 0], 0.0, out=row_eig)
    return SweepResult(b1=np.array(xs), b2=np.array(ys), strategic=strategic, min_gramian_eig=min_eig,
                       triggered=_lattice_triggered(varied, cfg.domain, modes, xs, ys))


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
