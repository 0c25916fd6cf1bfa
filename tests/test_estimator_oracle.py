"""The public simulators against the dense co-simulation oracle.

The oracle stacks the plant with the estimator state, [x_m; x_w; phi] with
phi' = F_red phi + G_y x_m for the reduced-order estimator and [x; z_hat]
with z_hat' = A z_hat + H C_full (x - z_hat) for the full-order one, and
propagates the stack with one dense Propagator.  It stops where its dense
error, e0 stepped sample by sample by a Propagator of F, first leaves
MAX_STATE_NORM; the plant may exceed the bound before that.  It also keeps
F_red and G_y of estimator_matrices verified.  The simulations run under
no_dense_propagator: random dense gains take the same structured path as
designed gains, with one exponential over all their rows.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from regobs import (
    Coefficients,
    Domain,
    ModeIndex,
    ModeSet,
    ObserverGain,
    PointwiseSensor,
    assemble_exchange_model,
    estimator_matrices,
    output_matrix,
    simulate_full_order,
    simulate_reduced_order,
    split_unstable_stable,
)
from regobs.observer import MAX_STATE_NORM
from conftest import Propagator, no_dense_propagator, stacked_a

UNIT = Domain()
RTOL = 1e-10


def _guarded_dense(m, s0, f, e0, steps, dt):
    """Step the error e' = F e from e0 and stop before the first sample
    after t = 0 at which it is non-finite or exceeds MAX_STATE_NORM; step
    the stacked system m from s0 over the samples kept.  Returns the kept
    states and the failing sample index (None when the run completes)."""
    prop, e = Propagator(f, dt), e0
    for k in range(1, steps + 1):
        e = prop.step(e)
        if not np.all(np.isfinite(e)) or np.abs(e).max() > MAX_STATE_NORM:
            return Propagator(m, dt).run(s0, k - 1), k
    return Propagator(m, dt).run(s0, steps), None


def _fields(n, mf):
    first, second = slice(0, n), slice(n, 2 * n)
    return (first, second) if mf == 1 else (second, first)


def dense_reduced(model, c, gain, x0, phi0, dt, steps, mf):
    n = model.n_modes
    f_red, g_y = estimator_matrices(model, gain, measured_field=mf)
    meas, unmeas = _fields(n, mf)
    a = stacked_a(model)
    z = np.zeros((n, n))
    m = np.block([[a[meas, meas], a[meas, unmeas], z], [a[unmeas, meas], a[unmeas, unmeas], z], [g_y, z, f_red]])
    e0 = phi0 + gain.H @ (c @ x0[meas]) - x0[unmeas]
    states, k = _guarded_dense(m, np.concatenate([x0[meas], x0[unmeas], phi0]), f_red, e0, steps, dt)
    x = np.empty((states.shape[0], 2 * n))
    x[:, meas], x[:, unmeas] = states[:, :n], states[:, n:2 * n]
    phi = states[:, 2 * n:]
    x_w_hat = phi + (states[:, :n] @ c.T) @ gain.H.T
    return x, phi, x_w_hat, np.abs(x_w_hat - x[:, unmeas]), k


def dense_full(model, c, gain, x0, xhat0, dt, steps, mf):
    n = model.n_modes
    meas, unmeas = _fields(n, mf)
    c_full = np.zeros((c.shape[0], 2 * n))
    c_full[:, meas] = c
    a, hc = stacked_a(model), gain.H @ c_full
    m = np.block([[a, np.zeros_like(a)], [hc, a - hc]])
    states, k = _guarded_dense(m, np.concatenate([x0, xhat0]), a - hc, xhat0 - x0, steps, dt)
    x, zhat = states[:, :2 * n], states[:, 2 * n:]
    return x, zhat, zhat[:, unmeas], np.abs(zhat[:, unmeas] - x[:, unmeas]), k


def _assert_close(got, ref, what):
    assert got.shape == ref.shape, what
    scale = max(float(np.abs(ref).max()), 1e-300)
    assert np.abs(got - ref).max() <= RTOL * scale, what


def _assert_matches(traj, x, est, x_w_hat, abs_err, k, dt):
    assert traj.diverged == (k is not None)
    assert traj.times.shape[0] == x.shape[0]
    assert np.array_equal(traj.times, dt * np.arange(x.shape[0]))
    if k is not None:
        assert f"at t index {k};" in traj.divergence_message
    _assert_close(np.hstack([traj.x1, traj.x2]), x, "plant")
    _assert_close(traj.estimator_state, est, "estimator state")
    _assert_close(traj.x2_hat, x_w_hat, "estimate")
    _assert_close(traj.mode_abs_err, abs_err, "per-mode error")


def _case(seed, n_side, q, beta):
    rng = np.random.default_rng(seed)
    modes = ModeSet.square(n_side)
    model = assemble_exchange_model(Coefficients(1.0, 0.1, beta), UNIT, modes)
    sensors = [PointwiseSensor(tuple(rng.uniform(0.1, 0.9, 2))) for _ in range(q)]
    c = output_matrix(sensors, UNIT, modes)
    return rng, model, sensors, c


CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    n_side=st.sampled_from([1, 2]),
    q=st.sampled_from([1, 2]),
    mf=st.sampled_from([1, 2]),
    beta=st.floats(0.5, 6.0),
)


@settings(max_examples=40, deadline=None)
@given(**CASES)
def test_reduced_matches_dense_cosimulation(seed, n_side, q, mf, beta):
    rng, model, sensors, c = _case(seed, n_side, q, beta)
    n = model.n_modes
    a_ww = model.diagonals(mf)[2]
    gain = ObserverGain(H=0.5 * rng.standard_normal((n, q)), split=split_unstable_stable(a_ww),
                        target_margin=1.0, closed_loop_eigs=np.zeros(n), residual=0.0, sensor_matrix=c)
    x0 = rng.standard_normal(2 * n)
    phi0 = rng.standard_normal(n)
    dt, steps = 0.05, 30
    with no_dense_propagator(rows=n):
        traj = simulate_reduced_order(model, sensors, gain, x0, phi0, dt, dt * steps, measured_field=mf)
    _assert_matches(traj, *dense_reduced(model, c, gain, x0, phi0, dt, steps, mf), dt)


@settings(max_examples=40, deadline=None)
@given(**CASES)
def test_full_matches_dense_cosimulation(seed, n_side, q, mf, beta):
    rng, model, sensors, c = _case(seed, n_side, q, beta)
    n = model.n_modes
    gain = ObserverGain(H=0.5 * rng.standard_normal((2 * n, q)), split=split_unstable_stable(model.mode_pairs),
                        target_margin=1.0, closed_loop_eigs=np.zeros(2 * n), residual=0.0)
    x0 = rng.standard_normal(2 * n)
    xhat0 = rng.standard_normal(2 * n)
    dt, steps = 0.05, 30
    with no_dense_propagator(rows=2 * n):
        traj = simulate_full_order(model, sensors, gain, x0, xhat0, dt, dt * steps, measured_field=mf)
    _assert_matches(traj, *dense_full(model, c, gain, x0, xhat0, dt, steps, mf), dt)


def test_diverging_run_truncates_at_dense_index():
    # beta = 6 with a sensor on the x = 1/2 nodal line: the unstable (2, 1)
    # mode is unobserved, and the open-loop run crosses MAX_STATE_NORM
    model = assemble_exchange_model(Coefficients(1.0, 0.1, 6.0), UNIT, ModeSet.square(2))
    blind = [PointwiseSensor((0.5, 0.43))]
    c = output_matrix(blind, UNIT, model.mode_set)
    assert abs(c[0, model.mode_set.position(ModeIndex(2, 1))]) < 1e-15
    n = model.n_modes
    x0 = np.full(2 * n, 10.0)
    dt, steps = 0.05, 240
    reduced_gain = ObserverGain(H=np.zeros((n, 1)), split=split_unstable_stable(model.a22),
                                target_margin=1.0, closed_loop_eigs=model.a22,
                                residual=float("nan"), sensor_matrix=c)
    with no_dense_propagator():
        traj = simulate_reduced_order(model, blind, reduced_gain, x0, np.zeros(n), dt, dt * steps)
    oracle = dense_reduced(model, c, reduced_gain, x0, np.zeros(n), dt, steps, 1)
    assert oracle[-1] is not None and oracle[-1] < steps
    _assert_matches(traj, *oracle, dt)

    full_gain = ObserverGain(H=np.zeros((2 * n, 1)), split=split_unstable_stable(model.mode_pairs),
                             target_margin=1.0, closed_loop_eigs=np.zeros(2 * n), residual=float("nan"))
    with no_dense_propagator():
        traj = simulate_full_order(model, blind, full_gain, x0, np.zeros(2 * n), dt, dt * steps)
    oracle = dense_full(model, c, full_gain, x0, np.zeros(2 * n), dt, steps, 1)
    assert oracle[-1] is not None and oracle[-1] < steps
    _assert_matches(traj, *oracle, dt)
