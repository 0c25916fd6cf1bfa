"""Unstable/stable spectral splitting, detectability gain design, and exact
simulation of the full-order and reduced-order exponential estimators.

The gain shifts only the finitely many unstable eigendirections: on the
unstable block the equation H_u O_u = A_u + margin*I is solved by minimum-norm
least squares, which for diagonal blocks is exact pole placement and is
solvable precisely when the unstable observation columns have full rank.  A
residual above tolerance therefore signals that the sensor suite cannot
stabilize the error dynamics (NotDetectableError).

Both estimators are built so that the estimation error obeys autonomous
dynamics e' = F e, whatever the plant and a known input do.  A run
propagates the error only, exactly, so the discrete trajectory satisfies
the continuous error dynamics at the sample instants; every output of a run
is a function of e.  In the coordinates of the split F is diagonal outside
the rows where the gain is nonzero, so the error follows from scalar
exponentials, one exponential of the order of those rows and their coupling
to the rest: J rows for a designed gain, every row for a dense one.

A run (harness.run_experiment) takes one estimator at a time: its gain
from design_estimator, then its error from one _simulate call, told whether
it is the primary.  The error is made in blocks of samples, each at most
_TIME_BLOCK_CELLS cells of the stacked state, and each block is reduced at
once into err_gamma and, for the primary, the per-mode errors.  Every
product behind them is taken row by row, so they do not depend on the block
size.  The divergence guard reads e: an estimator stops before the first
sample after t = 0 at which its error is non-finite or exceeds
MAX_STATE_NORM.  simulate_reduced_order and simulate_full_order share one
body that keeps the error rows of the same _simulate call, then adds the
plant (n 2 x 2 mode blocks with closed-form exponentials), its measurements
and the estimator state on the kept samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .region import gram_norm_series, region_operator
from .sensing import TOL_RANK, output_matrix
from .spectral import ModalModel, ModePairs, few_rows_blocks

MAX_STATE_NORM = 1e12
# A gain design is not detectable when its unstable-block residual exceeds
# TOL_DETECT of the target's scale, and misses its margin when a closed-loop
# eigenvalue lies more than TOL_EIG above the prescribed bound.
TOL_DETECT = 1e-8
TOL_EIG = 1e-8
# Rows of a gain in eigen coordinates below this share of its largest entry
# are round-off of forming H = V_u h_u, and are treated as zero.
GAIN_ROUNDOFF = 1e-13


class GainDesignError(RuntimeError):
    """The designed closed-loop spectrum misses the prescribed margin."""


class NotDetectableError(RuntimeError):
    """The unstable-block rank condition fails for the given sensors."""

    def __init__(self, message: str, residual: float, blind_positions: tuple[int, ...]):
        super().__init__(message)
        self.residual = residual
        self.blind_positions = blind_positions


@dataclass(frozen=True)
class UnstableSplit:
    """Spectral partition of a block: eigendirections with Re >= -margin are
    unstable.  A diagonal block, given as its vector, keeps the modes as
    coordinates (basis None); otherwise indices refer to the columns of the
    eigenbasis, the ModePairs of the stacked exchange matrix or, built
    directly, a dense orthogonal matrix."""

    eigenvalues: np.ndarray = field(repr=False)
    unstable: tuple[int, ...]
    stable: tuple[int, ...]
    margin: float
    basis: np.ndarray | ModePairs | None = field(default=None, repr=False)

    def unstable_basis(self) -> np.ndarray | None:
        """The unstable eigenbasis columns (n x J); None for a diagonal block."""
        basis, idx = self.basis, list(self.unstable)
        if not isinstance(basis, ModePairs):
            return None if basis is None else basis[:, idx]
        unit = np.zeros((len(idx), 2 * basis.n))
        unit[np.arange(len(idx)), idx] = 1.0
        return basis.from_eigen(unit).T

    @property
    def j_unstable(self) -> int:
        return len(self.unstable)


def split_unstable_stable(block, margin: float = 0.0) -> UnstableSplit:
    """Split a block into unstable and stable eigendirections.

    block is one of the two forms the model's blocks take: the vector of a
    diagonal block (ModalModel.diagonals), which keeps its natural mode
    coordinates, or the ModePairs of the stacked exchange matrix
    (ModalModel.mode_pairs), which brings its closed-form eigenbasis.  A
    matrix, a NaN margin or a non-finite eigenvalue, which no comparison
    would place on either side, raises ValueError.  Each side lists its
    directions by descending eigenvalue, ties by index.
    """
    if not margin >= 0:
        raise ValueError(f"margin must be >= 0, got {margin!r}")
    basis = block if isinstance(block, ModePairs) else None
    eigs = block.rates if basis is not None else np.array(block, dtype=float, ndmin=1)
    if eigs.ndim != 1:
        raise ValueError("a block to split is a diagonal given as a vector or a ModePairs, not a matrix")
    if not np.isfinite(eigs).all():
        raise ValueError("a block to split must have finite eigenvalues")
    order = np.argsort(-eigs, kind="stable")
    unstable = eigs[order] >= -margin
    return UnstableSplit(eigenvalues=eigs, unstable=tuple(order[unstable].tolist()),
                         stable=tuple(order[~unstable].tolist()), margin=margin, basis=basis)


@dataclass(eq=False)
class ObserverGain:
    """Output-injection gain with the split it was designed on.

    H is n x q in the coordinates of the block (modal for diagonal blocks);
    rows indexed by stable modes are zero.  closed_loop_eigs is the spectrum
    of block - H @ obs_map, read off the split: eig(diag(lambda_u) - H_u O_u)
    and the stable eigenvalues (the matrix is block upper-triangular there).
    """

    H: np.ndarray
    split: UnstableSplit
    target_margin: float
    closed_loop_eigs: np.ndarray
    residual: float
    sensor_matrix: np.ndarray | None = None

    @property
    def achieved_margin(self) -> float:
        if self.closed_loop_eigs.size == 0:
            return float("inf")
        return float(-np.max(self.closed_loop_eigs.real))


def _zero_gain(q: int, split: UnstableSplit, target_margin: float, residual: float,
               sensor_matrix) -> ObserverGain:
    """Zero gain: the closed loop is the open-loop block.  Used when no mode is
    unstable, and as the open-loop record of a NotDetectable design."""
    return ObserverGain(H=np.zeros((len(split.eigenvalues), q)), split=split, target_margin=target_margin,
                        closed_loop_eigs=np.sort(split.eigenvalues)[::-1], residual=residual,
                        sensor_matrix=sensor_matrix)


def design_gain(obs_map: np.ndarray, split: UnstableSplit, target_margin: float, *,
                sensor_matrix: np.ndarray | None = None) -> ObserverGain:
    """Gain placing every unstable eigendirection at -target_margin.

    The split carries the block's spectrum and eigenbasis
    (split_unstable_stable).  obs_map is the observation matrix the gain
    multiplies in the error dynamics (C for the full system, the
    sensor-composed coupling rows for the reduced system).  sensor_matrix
    optionally records the raw C used to factor the gain through the
    measurements.
    """
    if not target_margin > 0:
        raise ValueError(f"target_margin must be > 0, got {target_margin!r}")
    obs_map = np.atleast_2d(np.asarray(obs_map, dtype=float))
    n = split.eigenvalues.shape[0]
    q = obs_map.shape[0]
    j = split.j_unstable
    if j == 0:
        return _zero_gain(q, split, target_margin, 0.0, sensor_matrix)
    idx = list(split.unstable)
    lam_u = split.eigenvalues[idx]
    target = np.diag(lam_u + target_margin)
    v_u = split.unstable_basis()
    if v_u is None:
        o_u = obs_map[:, idx]
    else:
        o_u = obs_map @ v_u
    h_u = target @ np.linalg.pinv(o_u)
    residual = float(np.linalg.norm(h_u @ o_u - target))
    scale = max(1.0, float(np.linalg.norm(target)))
    # pinv truncates relative to o_u's own largest singular value, so a block
    # of pure round-off is inverted with residual 0: test it on the absolute
    # scale of the whole observation map as well, with strategic_rank_test's
    # tolerance
    sv = np.linalg.svd(o_u, compute_uv=False)
    sigma_min = float(sv[-1]) if sv.size else 0.0
    rank_floor = TOL_RANK * float(np.linalg.norm(obs_map, 2))
    unsolved = residual > TOL_DETECT * scale
    if unsolved or sigma_min <= rank_floor:
        col_norms = np.linalg.norm(o_u, axis=0)
        blind = tuple(idx[k] for k in range(j) if col_norms[k] <= TOL_DETECT * max(1.0, col_norms.max()))
        why = (f"residual {residual:.3e}" if unsolved else
               f"smallest singular value {sigma_min:.3e} at or below {rank_floor:.3e}")
        raise NotDetectableError(
            f"unstable block not observable through the sensors ({why})",
            residual=residual,
            blind_positions=blind,
        )
    if v_u is None:
        h = np.zeros((n, q))
        h[idx, :] = h_u
    else:
        h = v_u @ h_u
    stable_eigs = split.eigenvalues[list(split.stable)]
    closed = np.concatenate([np.linalg.eigvals(np.diag(lam_u) - h_u @ o_u), stable_eigs])
    closed = np.sort_complex(closed)[::-1]
    if np.abs(closed.imag).max() <= 1e-8 * max(1.0, np.abs(closed).max()):
        closed = closed.real
    worst = max((-target_margin, *stable_eigs.tolist()))
    if np.max(np.real(closed)) > worst + TOL_EIG:
        raise GainDesignError("closed-loop spectrum misses the prescribed margin")
    return ObserverGain(H=h, split=split, target_margin=target_margin,
                        closed_loop_eigs=np.asarray(closed), residual=residual,
                        sensor_matrix=sensor_matrix)


def reduced_output_map(model: ModalModel, c: np.ndarray, measured_field: int = 1) -> np.ndarray:
    """Observation map of the reduced (unmeasured-field) error dynamics.

    The unmeasured field reaches the measurements only through the coupling
    block of the measured field's equation, read out by the sensors: the map
    is C diag(a_mw), column k of C scaled by a_mw[k] (q x n).
    """
    _, a_mw, _ = model.diagonals(measured_field)
    return np.atleast_2d(np.asarray(c, dtype=float)) * a_mw


def estimator_matrices(model: ModalModel, gain: ObserverGain, *, measured_field: int = 1):
    """Reduced-estimator coefficient matrices (F_red, G_y).

    With HC = H @ C (the gain factored through the sensors, C =
    gain.sensor_matrix):

        F_red = A_ww - HC A_mw
        G_y   = A_ww HC - HC A_mw HC - HC A_mm + A_wm   (applied to the measured field)

    The A blocks are diagonal vectors (ModalModel.diagonals), A_wm = A_mw, so
    each product with one is a broadcast, equal to the dense product bit for bit.
    """
    a_mm, a_mw, a_ww = model.diagonals(measured_field)
    c = gain.sensor_matrix
    if c is None:
        raise ValueError("estimator matrices need the sensor matrix the gain factors through")
    hc = gain.H @ np.atleast_2d(np.asarray(c, dtype=float))
    diagonal = np.diag_indices(model.n_modes)
    f_red = -(hc * a_mw)
    f_red[diagonal] += a_ww
    g_y = a_ww[:, None] * hc - (hc * a_mw) @ hc - hc * a_mm
    g_y[diagonal] += a_mw
    return f_red, g_y


@dataclass(eq=False)
class Trajectory:
    """Time-sampled record of one estimator simulation.

    x1/x2 are the true modal states; y the measurements; estimator_state is
    z_hat (full order, both fields stacked) or phi (reduced order); x2_hat is
    the recovered estimate of the unmeasured field (phi + H y in the reduced
    case); mode_abs_err are per-mode absolute errors of that estimate.
    err_gamma is attached when a region is supplied.  The samples end where
    the error leaves MAX_STATE_NORM (diverged).  simulate_reduced_order and
    simulate_full_order fill every field.  A run (run_experiment) keeps only
    what it reports, times, err_gamma and, for its primary estimator (the
    first of observer.estimators), mode_abs_err; the other arrays are None.
    """

    kind: str
    times: np.ndarray
    x1: np.ndarray | None = None
    x2: np.ndarray | None = None
    y: np.ndarray | None = None
    estimator_state: np.ndarray | None = None
    x2_hat: np.ndarray | None = None
    mode_abs_err: np.ndarray | None = None
    err_gamma: np.ndarray | None = None
    diverged: bool = False
    divergence_message: str = ""


# A simulation makes its samples one block of rows at a time, each block at
# most this many cells of the stacked state (rows x 2 n_modes) and at least
# one row: 256 KiB per block array.
_TIME_BLOCK_CELLS = 1 << 15


def _steps(dt: float, t_final: float) -> int:
    """Number of dt steps in the horizon t_final, which must be a whole
    number of them up to a relative round-off of 1e-9."""
    if not (dt > 0 and t_final >= dt):
        raise ValueError("need dt > 0 and t_final >= dt")
    steps = t_final / dt
    if not (np.isfinite(steps) and abs(steps - round(steps)) <= 1e-9 * steps):
        raise ValueError("t_final must be a whole number of dt steps")
    return int(round(steps))


def _row_blocks(steps: int, n: int):
    """Row ranges (start, stop) that cover samples 0..steps in order, each of
    at most _TIME_BLOCK_CELLS // 2n rows and at least one."""
    size = max(1, _TIME_BLOCK_CELLS // (2 * n))
    for start in range(0, steps + 1, size):
        yield start, min(start + size, steps + 1)


def _field_slices(n: int, measured_field: int):
    """Slices (measured, unmeasured) of a stacked [x1; x2] state."""
    if measured_field not in (1, 2):
        raise ValueError("measured_field must be 1 or 2")
    first, second = slice(0, n), slice(n, 2 * n)
    return (first, second) if measured_field == 1 else (second, first)


def _estimator_maps(kind: str, model: ModalModel, c: np.ndarray, measured_field: int):
    """(block, obs_map, sensor_matrix) of one estimator: the block its gain
    is designed on and its error dynamics start from, the observation map
    the gain multiplies in F = block - H obs_map, and the sensor matrix the
    gain factors through.  The reduced estimator has the diagonal a_ww as a
    vector, C diag(a_mw) and C; the full one the closed-form ModePairs of the
    stacked matrix and C_full (q x 2n), which is zero on the other field."""
    if kind == "reduced":
        a_ww = model.diagonals(measured_field)[2]
        return a_ww, reduced_output_map(model, c, measured_field), c
    if kind != "full":
        raise ValueError(f"estimator kind must be 'reduced' or 'full', got {kind!r}")
    c_full = np.zeros((c.shape[0], 2 * model.n_modes))  # C on the measured field's columns
    c_full[:, _field_slices(model.n_modes, measured_field)[0]] = c
    return model.mode_pairs, c_full, c_full


def design_estimator(kind: str, model: ModalModel, c: np.ndarray, margin: float, target_margin: float, *,
                     measured_field: int = 1) -> tuple[ObserverGain, NotDetectableError | None]:
    """Gain of the "reduced" or "full" estimator for the output matrix c:
    its block is split at margin (split_unstable_stable) and the unstable
    directions placed at -target_margin (design_gain).  Returns (gain, None),
    or the open-loop zero gain and the NotDetectableError."""
    block, obs_map, sensor_matrix = _estimator_maps(kind, model, c, measured_field)
    split = split_unstable_stable(block, margin)
    try:
        return design_gain(obs_map, split, target_margin, sensor_matrix=sensor_matrix), None
    except NotDetectableError as exc:
        return _zero_gain(obs_map.shape[0], split, target_margin, exc.residual, sensor_matrix), exc


def _error_blocks(kind: str, model: ModalModel, c: np.ndarray, gain: ObserverGain, e0: np.ndarray,
                  dt: float, steps: int, measured_field: int):
    """Exact samples of the estimation error e' = F e, F = block - H obs_map,
    one block of rows per range of _row_blocks.

    In split coordinates (the modes for the reduced estimator, the per-mode
    2 x 2 eigenbasis ModalModel.mode_pairs for the full one) block is
    diagonal, so F equals it outside the rows where the gain is nonzero and
    few_rows_blocks applies to any gain: a designed gain has the J unstable
    rows, a dense one all of them.  Rows below GAIN_ROUNDOFF of the largest
    are round-off of forming H and count as zero.
    """
    block, obs_map, _ = _estimator_maps(kind, model, c, measured_field)
    if kind == "reduced":
        rates, to_split, from_split = block, np.asarray, np.asarray  # the modes are the split coordinates
    else:
        rates, to_split, from_split = block.rates, block.to_eigen, block.from_eigen
    hz = to_split(gain.H.T).T
    size = np.abs(hz).max(axis=1, initial=0.0)
    rows = np.flatnonzero(size > GAIN_ROUNDOFF * size.max(initial=0.0))
    f_rows = -hz[rows] @ to_split(obs_map)
    f_rows[np.arange(rows.size), rows] += rates[rows]
    z_blocks = few_rows_blocks(rates, rows, f_rows, to_split(e0), dt, _row_blocks(steps, model.n_modes))
    for k, z in enumerate(z_blocks):
        e = from_split(z)
        if k == 0:
            e[0] = e0
        yield e


def _bad_rows(block: np.ndarray) -> np.ndarray:
    """Rows of a block that are non-finite or exceed MAX_STATE_NORM in
    sup-norm: a NaN row's max is NaN, which fails the comparison."""
    return ~(np.abs(block).max(axis=1) <= MAX_STATE_NORM)


def _simulate(kind: str, model: ModalModel, c: np.ndarray, gain: ObserverGain, x0: np.ndarray, xhat0, dt: float,
              t_final: float, *, measured_field: int, gram, norm_weight: str, primary: bool, keep: bool = False):
    """Propagate one estimator's error exactly, one block of samples at a
    time; returns its Trajectory, with no plant or state array, and the kept
    error rows when keep is set (None otherwise).

    kind is "reduced" or "full"; xhat0 is the initial estimate of the
    unmeasured field or of the stacked state, None for the truth, and the
    initial error is xhat0 - x0 on those coordinates.  The error obeys
    e' = F e, with F = A_ww - H C A_mw (reduced) or A - H C_full (full),
    whatever the plant does.  Each block is reduced at once into err_gamma
    (when gram, from region.region_operator, is given) and, for the primary,
    mode_abs_err, so a run holds only its blocks and the series it reports.
    The estimator stops before the first sample after t = 0 at which its
    error is non-finite or exceeds MAX_STATE_NORM in sup-norm.
    """
    n, steps = model.n_modes, _steps(dt, t_final)
    if kind == "full" and gain.H.shape != (2 * n, c.shape[0]):
        raise ValueError("full-order gain must have shape (2 n_modes, q)")
    unmeas = _field_slices(n, measured_field)[1]
    estimated = unmeas if kind == "reduced" else slice(0, 2 * n)
    e0 = (x0[estimated] if xhat0 is None else xhat0) - x0[estimated]
    err_gamma = None if gram is None else np.empty(steps + 1)
    mode_abs_err = np.empty((steps + 1, n)) if primary else None
    kept, stop, diverged = [], 0, False
    with np.errstate(over="ignore", invalid="ignore"):
        for e in _error_blocks(kind, model, c, gain, e0, dt, steps, measured_field):
            bad = _bad_rows(e)
            if stop == 0:
                bad[0] = False
            hits = np.flatnonzero(bad)
            diverged = bool(hits.size)
            if diverged:
                e = e[:hits[0]]
            rows = slice(stop, stop + e.shape[0])
            stop = rows.stop
            if err_gamma is not None and e.shape[0]:
                # a full error's two field rows per sample are rows of one call
                norms = gram_norm_series(e.reshape(-1, n), gram, model.eigenvalues, norm_weight)
                err_gamma[rows] = np.sqrt(np.sum(norms.reshape(e.shape[0], -1)**2, axis=1))
            if mode_abs_err is not None:
                np.abs(e if kind == "reduced" else e[:, unmeas], out=mode_abs_err[rows])
            if keep:
                kept.append(e)
            if diverged:
                break
    msg = (f"state norm exceeded {MAX_STATE_NORM:.0e} at t index {stop}; run truncated "
           "(non-detectable dynamics diverge)") if diverged else ""
    traj = Trajectory(kind=kind, times=dt * np.arange(stop),
                      mode_abs_err=None if mode_abs_err is None else mode_abs_err[:stop],
                      err_gamma=None if err_gamma is None else err_gamma[:stop],
                      diverged=diverged, divergence_message=msg)
    return traj, np.concatenate(kept) if keep else None


def _simulate_one(kind: str, model: ModalModel, sensors, gain: ObserverGain, x0, initial, dt: float,
                  t_final: float, measured_field: int, region, norm_weight: str) -> Trajectory:
    """The body of simulate_reduced_order and simulate_full_order: one
    estimator started at phi0 (reduced) or xhat0 (full), its error reduced
    as in a run, then the plant, the measurements and the estimator state
    added on the kept rows."""
    c, n = output_matrix(sensors, model.domain, model.mode_set), model.n_modes
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != 2 * n:
        raise ValueError("x0 must stack both fields, shape (2 n_modes,)")
    xhat0 = np.asarray(initial, dtype=float).reshape(n if kind == "reduced" else 2 * n)
    # a non-finite start would read as divergence at the first sample
    for name, value in (("x0", x0), ("phi0" if kind == "reduced" else "xhat0", xhat0), ("gain.H", gain.H)):
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite")
    meas, unmeas = _field_slices(n, measured_field)
    if kind == "reduced":  # x2_hat = phi + H y
        xhat0 = xhat0 + gain.H @ (c @ x0[meas])
    gram = None if region is None else region_operator(region, model.domain, model.mode_set)
    traj, e = _simulate(kind, model, c, gain, x0, xhat0, dt, t_final, measured_field=measured_field, gram=gram,
                        norm_weight=norm_weight, primary=True, keep=True)
    with np.errstate(over="ignore", invalid="ignore"):
        x = model.mode_pairs.samples(x0, dt, e.shape[0] - 1)
        y = x[:, meas] @ c.T
        if kind == "reduced":
            h_y = y @ gain.H.T
            state = x[:, unmeas] + e - h_y
            x2_hat = state + h_y
        else:
            state = x + e
            x2_hat = state[:, unmeas]
    traj.x1, traj.x2, traj.y, traj.estimator_state, traj.x2_hat = x[:, :n], x[:, n:], y, state, x2_hat
    return traj


def simulate_reduced_order(
    model: ModalModel,
    sensors,
    gain: ObserverGain,
    x0: np.ndarray,
    phi0: np.ndarray,
    dt: float,
    t_final: float,
    *,
    measured_field: int = 1,
    region=None,
    norm_weight: str = "l2",
) -> Trajectory:
    """Simulate the plant with the reduced-order estimator.

    The estimator state phi obeys phi' = F_red phi + G_y x_m, with the
    measured-field injection synthesized exactly from the plant dynamics (the
    auxiliary output is algebraic in the modal states, never differenced).
    The recovered estimate is x2_hat = phi + H y and its error obeys
    e' = F_red e exactly at the sample instants.  t_final must be a whole
    number of dt steps.  A start at the truth, phi0 = x_w(0) - H y(0),
    returns x_w(0) only to round-off (about 1e-16 relative), so its error
    series is of that size, not 0; run_experiment with
    simulation.estimator_init = truth starts from x_w(0) itself and is exact.

    The samples stop where the error leaves MAX_STATE_NORM, as in a run.
    The plant arrays on them are exact samples that may exceed the bound,
    since an unstable plant grows while the error decays; past the float
    range they are inf, and the state and estimate are then non-finite.
    """
    return _simulate_one("reduced", model, sensors, gain, x0, phi0, dt, t_final, measured_field, region,
                         norm_weight)


def simulate_full_order(
    model: ModalModel,
    sensors,
    gain: ObserverGain,
    x0: np.ndarray,
    xhat0: np.ndarray,
    dt: float,
    t_final: float,
    *,
    measured_field: int = 1,
    region=None,
    norm_weight: str = "l2",
) -> Trajectory:
    """Simulate the plant with the full-order estimator
    z_hat' = A z_hat + H (y - C_full z_hat); the stacked error obeys
    e' = (A - H C_full) e exactly at the sample instants.

    err_gamma combines both field errors, sqrt(|e1|_G^2 + |e2|_G^2).  t_final,
    the stopping rule and the plant arrays, exact samples that may exceed
    MAX_STATE_NORM, are as in simulate_reduced_order.
    """
    return _simulate_one("full", model, sensors, gain, x0, xhat0, dt, t_final, measured_field, region,
                         norm_weight)
