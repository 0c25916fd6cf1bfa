"""Unstable/stable spectral splitting, detectability gain design, and exact
simulation of the full-order and reduced-order exponential estimators.

The gain shifts only the finitely many unstable eigendirections: on the
unstable block the equation H_u O_u = A_u + margin*I is solved by minimum-norm
least squares, which for diagonal blocks is exact pole placement and is
solvable precisely when the unstable observation columns have full rank.  A
residual above tolerance therefore signals that the sensor suite cannot
stabilize the error dynamics (NotDetectableError).

Both estimators are built so that the estimation error obeys autonomous
dynamics e' = F e, which a known input would leave unchanged; the plant is
therefore simulated without one.  A simulation propagates the plant and the
error exactly and recovers the estimator state from the two, so the discrete
trajectory satisfies the continuous error dynamics at the sample instants.
The plant is n independent 2 x 2 mode blocks with closed-form exponentials.
In the coordinates of the split F is diagonal outside the rows where the
gain is nonzero, so the error follows from scalar exponentials, one
exponential of the order of those rows and their coupling to the rest: J
rows for a designed gain, every row for a dense one.

A simulation runs through time in blocks of samples, each at most
_TIME_BLOCK_CELLS cells of the stacked state: every block of plant rows is
made once, shared by the estimators, and reduced at once with each
estimator's error rows into what the caller keeps.  A run
(harness.run_experiment) keeps the error series err_gamma and its primary
estimator's per-mode errors, so no array of every sample of the state
exists; simulate_reduced_order and simulate_full_order collect the same
blocks into a whole Trajectory.  Every product behind err_gamma and the
per-mode errors is taken row by row, so they do not depend on the block
size.  The divergence check compares the estimator state, formed with
products over the block, with MAX_STATE_NORM; its index could move with
the block size only for a sample within rounding of that bound.
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
    coordinates (basis None); otherwise indices refer to the eigenbasis
    columns, a dense matrix or the ModePairs of the stacked exchange matrix."""

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


def _eigenpairs(block):
    """Eigenvalues and eigenbasis of a split's block: a vector is a diagonal,
    whose coordinates are the modes themselves (basis None); a symmetric
    matrix is diagonalized by eigh; a ModePairs brings its own basis."""
    if isinstance(block, ModePairs):
        return block.rates, block
    block = np.atleast_1d(np.array(block, dtype=float))
    if block.ndim == 1:
        return block, None
    if (block.ndim == 2 and block.shape[0] == block.shape[1] and
            np.allclose(block, block.T, rtol=0.0, atol=1e-12 * max(1.0, float(np.abs(block).max())))):
        return np.linalg.eigh(block)
    raise ValueError("a block to split is a diagonal given as a vector, a symmetric matrix or a ModePairs")


def split_unstable_stable(block, margin: float = 0.0) -> UnstableSplit:
    """Split a block into unstable and stable eigendirections.

    block is the vector of a diagonal block, which keeps its natural mode
    coordinates; a symmetric matrix, diagonalized orthogonally; or the
    ModePairs of the stacked exchange matrix (ModalModel.mode_pairs), which
    brings its closed-form eigenbasis.  Any other matrix, or a NaN margin or
    non-finite eigenvalue, which no comparison would place on either side,
    raises ValueError.  Each side lists its directions by descending
    eigenvalue, ties by index.
    """
    if not margin >= 0:
        raise ValueError(f"margin must be >= 0, got {margin!r}")
    eigs, basis = _eigenpairs(block)
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
    err_gamma is attached when a region is supplied.  simulate_reduced_order
    and simulate_full_order fill every field.  A run (run_experiment) keeps
    only what it reports, times, err_gamma and, for its primary estimator,
    mode_abs_err, and leaves the other arrays None.
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


def _full_sensor_matrix(c: np.ndarray, n: int, measured_field: int) -> np.ndarray:
    """Sensor matrix C_full (q x 2n) of the stacked state: C on the measured
    field's columns, zero on the other field's."""
    c_full = np.zeros((c.shape[0], 2 * n))
    c_full[:, _field_slices(n, measured_field)[0]] = c
    return c_full


def _estimator_maps(kind: str, model: ModalModel, c: np.ndarray, measured_field: int):
    """(block, obs_map, sensor_matrix) of one estimator: the block its gain
    is designed on and its error dynamics start from, the observation map
    the gain multiplies in F = block - H obs_map, and the sensor matrix the
    gain factors through.  The reduced estimator has the diagonal a_ww as a
    vector, C diag(a_mw) and C; the full one the closed-form ModePairs of the
    stacked matrix and C_full."""
    if kind == "reduced":
        a_ww = model.diagonals(measured_field)[2]
        return a_ww, reduced_output_map(model, c, measured_field), c
    c_full = _full_sensor_matrix(c, model.n_modes, measured_field)
    return model.mode_pairs, c_full, c_full


def _plant_blocks(model: ModalModel, x0: np.ndarray, dt: float, steps: int):
    """Exact samples of the plant x' = A x, as (start, rows) per block of
    _row_blocks, by closed-form per-mode 2 x 2 exponentials."""
    for start, stop in _row_blocks(steps, model.n_modes):
        yield start, model.mode_pairs.samples(x0, dt, stop - 1, start)


def _identity(x):
    return x


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
        rates, to_split, from_split = block, _identity, _identity
    else:
        rates, to_split, from_split = block.rates, block.to_eigen, block.from_eigen
    hz = to_split(gain.H.T).T
    size = np.abs(hz).max(axis=1, initial=0.0)
    rows = np.flatnonzero(size > GAIN_ROUNDOFF * size.max(initial=0.0))
    f_rows = -hz[rows] @ to_split(obs_map)
    f_rows[np.arange(rows.size), rows] += rates[rows]
    bounds = _row_blocks(steps, model.n_modes)
    z_blocks = few_rows_blocks(rates, rows, f_rows, to_split(e0), dt, _row_blocks(steps, model.n_modes))
    for (start, _), z in zip(bounds, z_blocks):
        e = from_split(z)
        if start == 0:
            e[0] = e0
        yield e


def _bad_rows(state: np.ndarray) -> np.ndarray:
    """Rows of a block that are non-finite or exceed MAX_STATE_NORM in sup-norm."""
    return ~np.isfinite(state).all(axis=1) | (np.abs(state).max(axis=1) > MAX_STATE_NORM)


class _Run:
    """One estimator along a simulation, reduced block by block into the
    arrays its Trajectory keeps and stopped before the first sample after
    t = 0 at which the plant or the estimator state diverges."""

    def __init__(self, kind: str, model: ModalModel, c: np.ndarray, gain: ObserverGain, e0: np.ndarray,
                 dt: float, steps: int, measured_field: int, *, keep_states: bool, keep_modes: bool,
                 norms: bool):
        n, rows = model.n_modes, steps + 1
        self.kind, self.model, self.h = kind, model, gain.H
        if kind == "full" and self.h.shape != (2 * n, c.shape[0]):
            raise ValueError("full-order gain must have shape (2 n_modes, q)")
        self.unmeas = _field_slices(n, measured_field)[1]
        self.estimated = self.unmeas if kind == "reduced" else slice(0, 2 * n)
        self.errors = _error_blocks(kind, model, c, gain, e0, dt, steps, measured_field)
        self.stop, self.diverged = 0, False
        self.err_gamma = np.empty(rows) if norms else None
        self.mode_abs_err = np.empty((rows, n)) if keep_modes else None
        self.x = self.y = self.state = self.x2_hat = None
        if keep_states:
            self.x, self.y = np.empty((rows, 2 * n)), np.empty((rows, c.shape[0]))
            self.state = np.empty((rows, n if kind == "reduced" else 2 * n))
            if kind == "reduced":
                self.x2_hat = np.empty((rows, n))

    def add(self, start: int, x: np.ndarray, y: np.ndarray, plant_bad: np.ndarray, gram,
            norm_weight: str) -> bool:
        """Take the block of samples from `start` on: the plant rows x, the
        measurements y and the plant's bad rows.  False once diverged."""
        e = next(self.errors)
        state = x[:, self.estimated] + e
        if self.kind == "reduced":
            state -= y @ self.h.T
        bad = plant_bad | _bad_rows(state)
        if start == 0:
            bad[0] = False
        hits = np.flatnonzero(bad)
        kept = int(hits[0]) if hits.size else e.shape[0]
        self.stop, self.diverged = start + kept, bool(hits.size)
        rows = slice(start, self.stop)
        e, state = e[:kept], state[:kept]
        e_w = e if self.kind == "reduced" else e[:, self.unmeas]
        if self.err_gamma is not None and kept:
            domain, modes = self.model.domain, self.model.mode_set
            fields = (e,) if self.kind == "reduced" else (e[:, :len(modes)], e[:, len(modes):])
            norms = np.array([gram_norm_series(f, gram, domain, modes, norm_weight) for f in fields])
            self.err_gamma[rows] = np.sqrt(np.sum(norms**2, axis=0))
        if self.mode_abs_err is not None:
            np.abs(e_w, out=self.mode_abs_err[rows])
        if self.x is not None:
            self.x[rows], self.y[rows], self.state[rows] = x[:kept], y[:kept], state
            if self.x2_hat is not None:
                self.x2_hat[rows] = state + y[:kept] @ self.h.T
        return not self.diverged

    def trajectory(self, dt: float) -> Trajectory:
        k, n = self.stop, self.model.n_modes
        fields = {}
        if self.x is not None:
            x, state = self.x[:k], self.state[:k]
            fields = dict(x1=x[:, :n], x2=x[:, n:], y=self.y[:k], estimator_state=state,
                          x2_hat=state[:, self.unmeas] if self.x2_hat is None else self.x2_hat[:k])
        msg = ""
        if self.diverged:
            msg = (f"state norm exceeded {MAX_STATE_NORM:.0e} at t index {k}; "
                   "run truncated (non-detectable dynamics diverge)")
        return Trajectory(
            kind=self.kind,
            times=dt * np.arange(k),
            mode_abs_err=None if self.mode_abs_err is None else self.mode_abs_err[:k],
            err_gamma=None if self.err_gamma is None else self.err_gamma[:k],
            diverged=self.diverged,
            divergence_message=msg,
            **fields,
        )


def _simulate(model: ModalModel, c: np.ndarray, x0: np.ndarray, dt: float, steps: int, estimators: dict, *,
              measured_field: int, gram, norm_weight: str, keep_states: bool = False,
              keep_modes=("reduced", "full")) -> dict[str, Trajectory]:
    """Simulate the plant once and every estimator along it, one block of
    samples at a time; returns a Trajectory per estimator.

    estimators maps a kind, "reduced" or "full", to its (gain, e0), the
    initial error of the estimate of the unmeasured field or of the stacked
    state.  Each block of plant rows is made once and shared.  The error
    obeys the autonomous dynamics e' = F e, with F = A_ww - H C A_mw
    (reduced) or A - H C_full (full), and is propagated exactly; the
    estimator state is recovered from the plant and the error, phi = x_w + e
    - H y or z_hat = x + e, and checked for divergence.  A block is reduced
    at once into err_gamma (when gram, the target region's operator from
    region.region_operator, is given), mode_abs_err for the kinds in
    keep_modes and, with keep_states, the plant, measurement and estimator
    arrays; a run keeps nothing else, so it holds only its blocks and the
    series it reports.  An estimator stops before the first sample after
    t = 0 at which the plant or its state is non-finite or exceeds
    MAX_STATE_NORM in sup-norm, and the simulation stops once every one has.
    """
    meas = _field_slices(model.n_modes, measured_field)[0]
    runs = {kind: _Run(kind, model, c, gain, e0, dt, steps, measured_field, keep_states=keep_states,
                       keep_modes=kind in keep_modes, norms=gram is not None)
            for kind, (gain, e0) in estimators.items()}
    live = list(runs.values())
    with np.errstate(over="ignore", invalid="ignore"):
        for start, x in _plant_blocks(model, x0, dt, steps):
            plant_bad = _bad_rows(x)
            y = x[:, meas] @ c.T
            live = [run for run in live if run.add(start, x, y, plant_bad, gram, norm_weight)]
            if not live:
                break
    return {kind: run.trajectory(dt) for kind, run in runs.items()}


def _region_operator(model: ModalModel, region):
    return None if region is None else region_operator(region, model.domain, model.mode_set)


def _initial_plant(model: ModalModel, x0, dt: float, t_final: float):
    """The stacked initial state x0 as a vector and the number of steps."""
    x0 = np.asarray(x0, dtype=float).reshape(-1)
    if x0.shape[0] != 2 * model.n_modes:
        raise ValueError("x0 must stack both fields, shape (2 n_modes,)")
    return x0, _steps(dt, t_final)


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
    number of dt steps.
    """
    c = output_matrix(sensors, model.domain, model.mode_set)
    x0, steps = _initial_plant(model, x0, dt, t_final)
    meas, unmeas = _field_slices(model.n_modes, measured_field)
    xhat0 = np.asarray(phi0, dtype=float).reshape(model.n_modes) + gain.H @ (c @ x0[meas])
    return _simulate(model, c, x0, dt, steps, {"reduced": (gain, xhat0 - x0[unmeas])},
                     measured_field=measured_field, gram=_region_operator(model, region),
                     norm_weight=norm_weight, keep_states=True)["reduced"]


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

    err_gamma combines both field errors, sqrt(|e1|_G^2 + |e2|_G^2).  t_final
    is as in simulate_reduced_order.
    """
    c = output_matrix(sensors, model.domain, model.mode_set)
    x0, steps = _initial_plant(model, x0, dt, t_final)
    xhat0 = np.asarray(xhat0, dtype=float).reshape(2 * model.n_modes)
    return _simulate(model, c, x0, dt, steps, {"full": (gain, xhat0 - x0)},
                     measured_field=measured_field, gram=_region_operator(model, region),
                     norm_weight=norm_weight, keep_states=True)["full"]
