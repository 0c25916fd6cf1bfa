import os
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import settings
from scipy.interpolate import RegularGridInterpolator

import regobs
from regobs import PointwiseSensor, parse_config, spectral
from regobs.geometry import gauss_nodes
from regobs.spectral import eval_matrix

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


@contextmanager
def no_dense_propagator():
    """Fail if a dense spectral.Propagator is built inside the block; run
    dense oracles outside it."""
    def refuse(self, *args, **kwargs):
        raise AssertionError("dense Propagator built inside a simulation")

    with mock.patch.object(spectral.Propagator, "__init__", refuse):
        yield


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
