import os
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings
import scipy.linalg
from scipy.interpolate import RegularGridInterpolator
from scipy.linalg import expm

import regobs
from regobs import ModalModel, PointwiseSensor, parse_config
from regobs.geometry import gauss_nodes
from regobs.sensing import TOL_GROUP, ModeGroup
from regobs.spectral import ModeSet, eval_matrix

# Property tests draw the same examples on every run by default, seeded from
# each test and with no example database, so the suite passes or fails the
# same way at every commit.  REGOBS_HYPOTHESIS_PROFILE=explore draws fresh
# examples on each run and replays stored failures, for a wider search; pin
# anything it finds with @example.
settings.register_profile("deterministic", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, print_blob=True)
settings.load_profile(os.environ.get("REGOBS_HYPOTHESIS_PROFILE", "deterministic"))

# Detectable two-sensor configuration with one unstable mode (beta = 3).
BETA3_CONFIG = """\
coefficients.alpha_diff = 1.0
coefficients.gamma_diff = 0.1
coefficients.beta_couple = 3.0
region.kind = internal_rectangle
region.rect = 0.2, 0.8, 0.2, 0.8
sensor.1.kind = pointwise
sensor.1.location = 0.23, 0.31
sensor.2.kind = pointwise
sensor.2.location = 0.57, 0.43
simulation.x0_seed = 14
"""

# Three unstable modes (beta = 6); the sensor at b1 = 0.5 is blind to (2, 1).
BETA6_BLIND_CONFIG = """\
coefficients.beta_couple = 6.0
sensor.1.kind = pointwise
sensor.1.location = 0.5, 0.43
simulation.T = 3.0
output.fit_t_lo = 0.0
"""

# Five sensors at beta = 8 (N = 4): the gain places all four unstable modes,
# so the error decays at the target margin, while the plant's (1, 1) pair
# grows past MAX_STATE_NORM at t = 3.11.
FIVE_SENSORS_CONFIG = "coefficients.beta_couple = 8.0\nsimulation.n_modes = 4\n" + "".join(
    f"sensor.{k}.kind = pointwise\nsensor.{k}.location = {b1}, {b2}\n" for k, (b1, b2) in
    enumerate([(0.23, 0.31), (0.57, 0.43), (0.71, 0.19), (0.37, 0.83), (0.89, 0.61)], start=1))

# Reference coefficient set: gamma = 0.1, beta = 1; every A22 mode is stable.
STABLE_CONFIG = """\
coefficients.gamma_diff = 0.1
coefficients.beta_couple = 1.0
sensor.1.kind = pointwise
sensor.1.location = 0.23, 0.31
"""


@pytest.fixture
def beta3_config():
    return parse_config(BETA3_CONFIG)


@pytest.fixture
def beta6_blind_config():
    return parse_config(BETA6_BLIND_CONFIG)


@pytest.fixture
def stable_config():
    return parse_config(STABLE_CONFIG)


def random_sensor_configs(seed=0, n_configs=50, q_choices=(1, 3), lo=0.1, hi=0.9, snap_p=0.3):
    """Randomized pointwise sensor suites mixing generic positions with
    nodal-line snaps, so both strategic and non-strategic cases occur."""
    rng = np.random.default_rng(seed)
    nodal = [0.5, 1 / 3, 2 / 3, 0.25, 0.75]
    configs = []
    for _ in range(n_configs):
        q = int(rng.choice(q_choices))
        snapped = rng.random() < snap_p
        sensors = []
        for _ in range(q):
            if snapped:
                snap = rng.choice(nodal)
                other = rng.uniform(lo, hi)
                loc = (snap, other) if rng.random() < 0.5 else (other, snap)
            else:
                loc = (rng.uniform(lo, hi), rng.uniform(lo, hi))
            sensors.append(PointwiseSensor(loc))
        configs.append(sensors)
    return configs


def python_env():
    """Environment for a child Python process that imports the regobs under
    test, however this process found it."""
    src = str(Path(regobs.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}


def stacked_a(model: ModalModel) -> np.ndarray:
    """The dense 2n x 2n matrix of the model's dynamics, built from its
    diagonals: [[diag(a11), diag(a12)], [diag(a12), diag(a22)]]."""
    n = model.n_modes
    a, i = np.zeros((2 * n, 2 * n)), np.arange(n)
    a[i, i], a[i, n + i], a[n + i, i], a[n + i, n + i] = model.a11, model.a12, model.a12, model.a22
    return a


class Propagator:
    """Exact one-step propagator x(t + dt) = E x(t), E = exp(M dt), of
    dx/dt = M x by one dense matrix exponential: the oracle of the
    closed forms (ModePairs, exp_samples, few_rows_blocks) that every
    simulation uses.

    M dt is embedded as [[M dt, 0, e1], [e1^T, 0, 0], [0, 0, 0]] and E is
    the leading block of its exponential.  scipy's expm writes the
    off-diagonal of an upper or lower triangular input from a divided
    difference of its diagonal exponentials, which cancels where two
    diagonal entries nearly coincide.  The appended row and column keep the
    input from being triangular either way; the row only reads M's first
    coordinate and the column feeds it from a constant, so neither reaches
    the leading block."""

    def __init__(self, m: np.ndarray, dt: float):
        m = np.atleast_2d(np.asarray(m, dtype=float))
        if m.shape[0] != m.shape[1]:
            raise ValueError("M must be square")
        if dt <= 0:
            raise ValueError("dt must be > 0")
        self.dt = float(dt)
        self.n = m.shape[0]
        embedded = np.zeros((self.n + 2, self.n + 2))
        embedded[:-2, :-2] = m * dt
        embedded[-2, 0] = embedded[0, -1] = 1.0
        self.E = expm(embedded)[:-2, :-2]

    def step(self, state: np.ndarray) -> np.ndarray:
        return self.E @ state

    def run(self, state0: np.ndarray, steps: int) -> np.ndarray:
        """Propagate `steps` steps; returns array of shape (steps + 1, n)."""
        out = np.empty((steps + 1, self.n))
        out[0] = np.asarray(state0, dtype=float).reshape(self.n)
        for k in range(steps):
            out[k + 1] = self.step(out[k])
        return out


def propagate(model_or_matrix, state0, dt: float, steps: int) -> np.ndarray:
    """Dense exact trajectory of the model (its state stacks both fields,
    [x1; x2]) or of any square matrix, from state0."""
    if isinstance(model_or_matrix, ModalModel):
        m = stacked_a(model_or_matrix)
    else:
        m = np.atleast_2d(np.asarray(model_or_matrix, dtype=float))
    state0 = np.asarray(state0, dtype=float).reshape(-1)
    if state0.shape[0] != m.shape[0]:
        raise ValueError("state dimension does not match the system matrix")
    return Propagator(m, dt).run(state0, steps)


@contextmanager
def no_dense_propagator(rows=1):
    """Fail if a simulation inside the block takes a matrix exponential it
    does not need.  Every call of scipy.linalg.expm is counted (the library
    imports it where it uses it), and the block yields the list of their
    orders.  A simulation whose gains act on at most one row (rows <= 1)
    must take none; with J = rows >= 2 gain rows it may take only the J-row
    step exp(F_RR dt), of order J, and the Van Loan blocks of order J + 2.
    A dense propagation, of order n_modes or 2 n_modes, fails unless the
    gain acts on (nearly) every row.  Run dense oracles outside the block."""
    orders = []
    expm_in_use = scipy.linalg.expm

    def counting(a, *args, **kwargs):
        orders.append(np.shape(a)[-1])
        return expm_in_use(a, *args, **kwargs)

    with mock.patch.object(scipy.linalg, "expm", counting):
        yield orders
    allowed = {rows, rows + 2} if rows >= 2 else set()
    assert set(orders) <= allowed, f"matrix exponentials of orders {sorted(set(orders))} with {rows} gain rows"


def reference_groups(values, modes):
    """Eigenvalue groups by a Python sort on the key (-value, position) and a
    chain over the sorted values, the oracle of sensing.group_values."""
    values = np.asarray(values, dtype=float)
    order = sorted(range(len(values)), key=lambda k: (-values[k], k))
    groups: list[list[int]] = []
    for k in order:
        if groups:
            ref = values[groups[-1][0]]
            if abs(values[k] - ref) <= TOL_GROUP * max(1.0, abs(ref)):
                groups[-1].append(k)
                continue
        groups.append([k])
    groups = [sorted(idx) for idx in groups]
    return [ModeGroup(float(values[idx[0]]), tuple(idx), tuple(modes.modes[k] for k in idx)) for idx in groups]


def _weight_values(sensor, pts):
    rect = sensor.rect
    if sensor.weight == "uniform":
        return np.ones(pts.shape[0])
    if sensor.weight == "separable_sine":
        w1 = rect.hi1 - rect.lo1
        w2 = rect.hi2 - rect.lo2
        return np.sin(np.pi * (pts[:, 0] - rect.lo1) / w1) * np.sin(np.pi * (pts[:, 1] - rect.lo2) / w2)
    samples = np.asarray(sensor.samples, dtype=float)
    interp = RegularGridInterpolator(
        (np.linspace(rect.lo1, rect.hi1, samples.shape[0]),
         np.linspace(rect.lo2, rect.hi2, samples.shape[1])),
        samples,
        method="linear",
    )
    return interp(pts)


def zone_row_quadrature(sensor, domain, modes, n_quad=32):
    """Output row of a zone sensor by tensor Gauss-Legendre quadrature, the
    oracle of the closed-form rows: n_quad nodes per axis on each cell where
    the weight is smooth, which is the whole support for the uniform and
    sine-bump weights and each interpolation cell of a tabulated weight."""
    rect = sensor.rect
    cells = np.shape(sensor.samples) if sensor.weight == "tabulated" else (2, 2)
    edges1 = np.linspace(rect.lo1, rect.hi1, cells[0])
    edges2 = np.linspace(rect.lo2, rect.hi2, cells[1])
    rule2 = [gauss_nodes(lo, hi, n_quad) for lo, hi in zip(edges2[:-1], edges2[1:])]
    ys, wy = np.concatenate([r[0] for r in rule2]), np.concatenate([r[1] for r in rule2])
    row = np.zeros(len(modes))
    for lo, hi in zip(edges1[:-1], edges1[1:]):
        xs, wx = gauss_nodes(lo, hi, n_quad)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        row += eval_matrix(domain, modes, pts).T @ (np.outer(wx, wy).ravel() * _weight_values(sensor, pts))
    return row


def reference_trajectory_csv(path, cfg, primary, full, reduced):
    """trajectory.csv written one `repr` per cell, the oracle of the bulk
    formatter: the error series, padded with empty cells past a divergence,
    then the primary estimator's per-mode errors."""
    modes = ModeSet.square(cfg.simulation.n_modes)
    header = ["t", "err_gamma", "err_full_order", "err_reduced_order"]
    header += [f"e_{m.i}_{m.j}" for m in modes]
    rows = max(traj.times.shape[0] for traj in (primary, full, reduced) if traj is not None)

    def column(traj):
        values = [] if traj is None or traj.err_gamma is None else traj.err_gamma.tolist()
        return list(map(repr, values)) + [""] * (rows - len(values))

    times = [repr(k * cfg.simulation.dt) for k in range(rows)]
    modal = [",".join(map(repr, row)) for row in primary.mode_abs_err.tolist()]
    modal += [",".join([""] * len(modes))] * (rows - len(modal))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for cells in zip(times, column(primary), column(full), column(reduced), modal):
            fh.write(",".join(cells) + "\n")


def reference_sweep_csv(path, result):
    """sweep.csv written one line per lattice position, row-major (b1 outer),
    with a `repr` per float cell, the oracle of emit_sweep."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("b1,b2,strategic,min_gramian_eig,triggered_modes\n")
        for a, b1 in enumerate(result.b1.tolist()):
            for b, b2 in enumerate(result.b2.tolist()):
                modes = ";".join(f"{m.i}.{m.j}" for m in result.triggered[a][b])
                eig = float(result.min_gramian_eig[a, b])
                fh.write(f"{b1!r},{b2!r},{int(result.strategic[a, b])},{eig!r},{modes}\n")
