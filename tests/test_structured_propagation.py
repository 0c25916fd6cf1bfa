"""Structured exact propagation against the dense Propagator oracle.

Every simulation takes one path: the plant is propagated by the closed-form
per-mode 2 x 2 exponentials (spectral.ModePairs), and the estimation error
by spectral.propagate_few_rows in split coordinates, for designed and
arbitrary gains alike.  The dense Propagator is only the reference: every
structured result here is compared with it to a worst-case relative error of
RTOL, and no simulation may build one.
"""

import os
import re
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from regobs import (
    Coefficients,
    Domain,
    ModeSet,
    NotDetectableError,
    ObserverGain,
    PointwiseSensor,
    UnstableSplit,
    assemble_exchange_model,
    design_gain,
    load_config,
    output_matrix,
    parse_config,
    run_experiment,
    simulate_full_order,
    simulate_reduced_order,
    split_unstable_stable,
)
from regobs import harness, observer, spectral
from regobs.observer import _error_blocks, _estimator_maps, _full_sensor_matrix, _plant_blocks, _row_blocks
from regobs.region import SeparableGram, region_operator
from regobs.spectral import ModePairs, _one_row_step, propagate_few_rows
from conftest import BETA3_CONFIG, Propagator, no_dense_propagator, propagate, stacked_a
from test_estimator_oracle import dense_full, dense_reduced

UNIT = Domain()
RTOL = 1e-10
CONFIG_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "configs")


def _assert_close(got, ref):
    assert got.shape == ref.shape
    assert np.abs(got - ref).max() <= RTOL * np.abs(ref).max()


def _model(beta, n_side, alpha=1.0, gamma=0.1):
    return assemble_exchange_model(Coefficients(alpha, gamma, beta), UNIT, ModeSet.square(n_side))


def _unstable_rows_gain(split, h_u):
    """Gain equal to h_u on the split's unstable coordinates, zero elsewhere."""
    v_u = split.unstable_basis()
    if v_u is not None:
        return v_u @ h_u
    idx = list(split.unstable)
    h = np.zeros((len(split.eigenvalues), h_u.shape[1]))
    h[idx] = h_u
    return h


def _dense_error(kind, model, c, h, e0, dt, steps, mf):
    _, obs_map, _ = _estimator_maps(kind, model, c, mf)
    block = np.diag(model.diagonals(mf)[2]) if kind == "reduced" else stacked_a(model)
    return Propagator(block - h @ obs_map, dt).run(e0, steps)


def _plant_samples(model, x0, dt, steps):
    """Every plant sample, collected from the simulation's blocks."""
    return np.concatenate([x for _, x in _plant_blocks(model, x0, dt, steps)])


def _error_samples(kind, model, c, gain, e0, dt, steps, mf):
    """Every error sample, collected from the simulation's blocks."""
    return np.concatenate(list(_error_blocks(kind, model, c, gain, e0, dt, steps, mf)))


def _dense_plant_blocks(model, x0, dt, steps):
    x = propagate(model, x0, dt, steps)
    for start, stop in _row_blocks(steps, model.n_modes):
        yield start, x[start:stop]


def _dense_error_blocks(kind, model, c, gain, e0, dt, steps, mf):
    e = _dense_error(kind, model, c, gain.H, e0, dt, steps, mf)
    for start, stop in _row_blocks(steps, model.n_modes):
        yield e[start:stop]


def _stacked_pairs(a, b, d):
    """Dense 2n x 2n matrix with the symmetric blocks [[a_i, b_i], [b_i, d_i]]
    on the coordinate pairs (i, n + i)."""
    return np.block([[np.diag(a), np.diag(b)], [np.diag(b), np.diag(d)]])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_side=st.sampled_from([1, 2, 3]), beta=st.floats(0.0, 8.0),
       alpha=st.floats(0.05, 2.0), gamma=st.floats(0.05, 2.0), dt=st.sampled_from([0.01, 0.05, 0.2]),
       zero_rate=st.booleans())
@example(seed=1, n_side=2, beta=3.0, alpha=1.0, gamma=0.1, dt=0.05, zero_rate=True)
def test_closed_form_plant_matches_dense(seed, n_side, beta, alpha, gamma, dt, zero_rate):
    # a zero_rate case propagates ModePairs.of_blocks directly, with one pair
    # [[s, s], [s, s]], s > 0, whose eigenvalue mean - hypot(0, s) = 0 is
    # exact: the free response there is constant, exp(0 t) = 1
    rng = np.random.default_rng(seed)
    modes = ModeSet.square(n_side)
    n = len(modes)
    model = assemble_exchange_model(Coefficients(alpha, gamma, beta), UNIT, modes)
    x0 = rng.standard_normal(2 * n)
    steps = 40
    if zero_rate:
        a, b, d = model.a11.copy(), model.a12.copy(), model.a22.copy()
        a[0] = b[0] = d[0] = rng.uniform(0.5, 3.0)
        pairs = ModePairs.of_blocks(a, b, d)
        assert pairs.rates[n] == 0.0
        with no_dense_propagator():
            x = pairs.samples(x0, dt, steps)
        ref = propagate(_stacked_pairs(a, b, d), x0, dt, steps)
    else:
        with no_dense_propagator():
            x = _plant_samples(model, x0, dt, steps)
        ref = propagate(model, x0, dt, steps)
    _assert_close(x, ref)
    assert np.array_equal(x[0], x0)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["reduced", "full"]),
       n_side=st.sampled_from([1, 2, 3]), beta=st.sampled_from([1.0, 3.0, 6.0]) | st.floats(0.5, 8.0),
       q=st.sampled_from([1, 2, 3]), mf=st.sampled_from([1, 2]), designed=st.booleans(),
       target_margin=st.floats(0.2, 3.0), confluent=st.booleans())
@example(seed=18, kind="full", n_side=2, beta=3.0, q=1, mf=1, designed=True, target_margin=1.0,
         confluent=True)
def test_error_propagation_matches_dense(seed, kind, n_side, beta, q, mf, designed, target_margin, confluent):
    # beta = 6, n_side = 2 has J = 3 with a repeated unstable eigenvalue in
    # both estimators; designed gains need q = 3 there, the others put random
    # rows on the J unstable coordinates.  A confluent design places -m on
    # the rate of a stable coordinate; in the example it is -76.1, and the
    # Van Loan block is large enough for scipy's expm to square it.
    rng = np.random.default_rng(seed)
    model = _model(beta, n_side)
    sensors = [PointwiseSensor(tuple(rng.uniform(0.1, 0.9, 2))) for _ in range(q)]
    c = output_matrix(sensors, UNIT, model.mode_set)
    block, obs_map, sensor_matrix = _estimator_maps(kind, model, c, mf)
    split = split_unstable_stable(block, 0.0)
    if confluent and split.stable:
        target_margin = -split.eigenvalues[split.stable[int(rng.integers(len(split.stable)))]]
    h = None
    if designed:
        try:
            h = design_gain(obs_map, split, target_margin, sensor_matrix=sensor_matrix).H
        except NotDetectableError:
            pass
    if h is None:
        h = _unstable_rows_gain(split, rng.standard_normal((split.j_unstable, q)))
    gain = ObserverGain(H=h, split=split, target_margin=target_margin,
                        closed_loop_eigs=np.zeros(h.shape[0]), residual=0.0)
    e0 = rng.standard_normal(h.shape[0])
    dt, steps = 0.05, 40
    with no_dense_propagator(split.j_unstable):
        e = _error_samples(kind, model, c, gain, e0, dt, steps, mf)
    _assert_close(e, _dense_error(kind, model, c, h, e0, dt, steps, mf))


@pytest.mark.parametrize("kind", ["reduced", "full"])
@pytest.mark.parametrize("mf", [1, 2])
@pytest.mark.parametrize("beta,n_side,q", [(3.0, 2, 2), (6.0, 2, 3), (3.0, 4, 2)])
def test_confluent_target_margin(kind, mf, beta, n_side, q):
    # target_margin = -(a stable diagonal entry in split coordinates): the
    # placed eigenvalue -m of F_RR equals that coordinate's rate d_s
    rng = np.random.default_rng(17)
    model = _model(beta, n_side)
    sensors = [PointwiseSensor(tuple(rng.uniform(0.1, 0.9, 2))) for _ in range(q)]
    c = output_matrix(sensors, UNIT, model.mode_set)
    block, obs_map, sensor_matrix = _estimator_maps(kind, model, c, mf)
    split = split_unstable_stable(block, 0.0)
    rate = split.eigenvalues[split.stable[0]]
    gain = design_gain(obs_map, split, -rate, sensor_matrix=sensor_matrix)
    assert -gain.target_margin == rate
    e0 = rng.standard_normal(gain.H.shape[0])
    dt, steps = 0.05, 60
    with no_dense_propagator(split.j_unstable):
        e = _error_samples(kind, model, c, gain, e0, dt, steps, mf)
    _assert_close(e, _dense_error(kind, model, c, gain.H, e0, dt, steps, mf))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_side=st.sampled_from([1, 2]), beta=st.floats(5.0, 8.0),
       scale=st.floats(1.0, 1e3), mf=st.sampled_from([1, 2]))
def test_diverging_zero_gain_truncates_at_dense_index(seed, n_side, beta, scale, mf):
    # the plant's mode (1, 1) grows at a rate >= 4.3, so every run crosses
    # MAX_STATE_NORM before t = 15
    rng = np.random.default_rng(seed)
    model = _model(beta, n_side)
    sensors = [PointwiseSensor(tuple(rng.uniform(0.1, 0.9, 2)))]
    c = output_matrix(sensors, UNIT, model.mode_set)
    n = model.n_modes
    x0 = scale * rng.standard_normal(2 * n)
    dt, steps = 0.05, 300
    a_ww = model.diagonals(mf)[2]
    reduced = ObserverGain(H=np.zeros((n, 1)), split=split_unstable_stable(a_ww), target_margin=1.0,
                           closed_loop_eigs=np.zeros(n), residual=float("nan"), sensor_matrix=c)
    full = ObserverGain(H=np.zeros((2 * n, 1)), split=split_unstable_stable(model.mode_pairs),
                        target_margin=1.0, closed_loop_eigs=np.zeros(2 * n), residual=float("nan"))
    phi0, xhat0 = rng.standard_normal(n), rng.standard_normal(2 * n)
    with no_dense_propagator():
        traj_r = simulate_reduced_order(model, sensors, reduced, x0, phi0, dt, dt * steps, measured_field=mf)
        traj_f = simulate_full_order(model, sensors, full, x0, xhat0, dt, dt * steps, measured_field=mf)
    for traj, oracle in ((traj_r, dense_reduced(model, c, reduced, x0, phi0, dt, steps, mf)),
                         (traj_f, dense_full(model, c, full, x0, xhat0, dt, steps, mf))):
        x, est, x_w_hat, abs_err, k = oracle
        assert k is not None and traj.divergence_message.startswith("state norm exceeded")
        assert f"at t index {k};" in traj.divergence_message
        assert traj.times.shape[0] == x.shape[0] == k
        _assert_close(np.hstack([traj.x1, traj.x2]), x)
        _assert_close(traj.estimator_state, est)
        _assert_close(traj.x2_hat, x_w_hat)
        # the oracle's error is a difference of states near MAX_STATE_NORM,
        # so it is exact only to round-off of the state's size
        assert np.abs(traj.mode_abs_err - abs_err).max() <= RTOL * np.abs(x).max()


@pytest.mark.parametrize("mf", [1, 2])
def test_zero_start_on_unstable_modes_stays_zero_past_overflow(mf):
    # x0 and the initial error vanish on every mode with a growing
    # eigenvalue; exp(rate t) overflows after t = 709.8 / 9.1 = 78, but
    # 0 * exp(rate t) must stay 0 as in the dense runs, not become nan
    rng = np.random.default_rng(5)
    model = _model(8.0, 3)
    n = model.n_modes
    growing = model.mode_pairs.rates[:n] > 0
    assert 0 < growing.sum() < n and model.mode_pairs.rates.max() * 100.0 > 709.8
    x0 = rng.standard_normal(2 * n)
    x0[np.concatenate([growing, growing])] = 0.0
    dt, steps = 0.5, 200
    with no_dense_propagator():
        x = _plant_samples(model, x0, dt, steps)
    _assert_close(x, propagate(model, x0, dt, steps))

    sensors = [PointwiseSensor((0.3, 0.6))]
    c = output_matrix(sensors, UNIT, model.mode_set)
    a_ww = model.diagonals(mf)[2]
    reduced = ObserverGain(H=np.zeros((n, 1)), split=split_unstable_stable(a_ww), target_margin=1.0,
                           closed_loop_eigs=np.zeros(n), residual=float("nan"), sensor_matrix=c)
    full = ObserverGain(H=np.zeros((2 * n, 1)), split=split_unstable_stable(model.mode_pairs),
                        target_margin=1.0, closed_loop_eigs=np.zeros(2 * n), residual=float("nan"))
    x_w0 = x0[n:] if mf == 1 else x0[:n]
    with no_dense_propagator():
        traj_r = simulate_reduced_order(model, sensors, reduced, x0, x_w0, dt, dt * steps, measured_field=mf)
        traj_f = simulate_full_order(model, sensors, full, x0, x0, dt, dt * steps, measured_field=mf)
    for traj, oracle in ((traj_r, dense_reduced(model, c, reduced, x0, x_w0, dt, steps, mf)),
                         (traj_f, dense_full(model, c, full, x0, x0, dt, steps, mf))):
        x_ref, est, x_w_hat, abs_err, k = oracle
        assert k is None and not traj.diverged
        assert traj.times.shape[0] == steps + 1
        _assert_close(np.hstack([traj.x1, traj.x2]), x_ref)
        _assert_close(traj.estimator_state, est)
        _assert_close(traj.x2_hat, x_w_hat)
        assert np.array_equal(traj.mode_abs_err, np.zeros_like(abs_err))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_side=st.sampled_from([1, 2, 3, 4]), beta=st.floats(0.5, 8.0),
       margin=st.floats(0.0, 2.0), target_margin=st.floats(0.2, 3.0))
def test_stacked_split_matches_eigh(seed, n_side, beta, margin, target_margin):
    # the closed-form split of the stacked exchange matrix against the dense
    # eigh split: same sorted spectrum, same gain H = V_u h_u
    rng = np.random.default_rng(seed)
    model = _model(beta, n_side)
    a = stacked_a(model)
    split = split_unstable_stable(model.mode_pairs, margin)
    w, v = np.linalg.eigh(a)
    scale = np.abs(w).max()
    assert np.abs(np.sort(split.eigenvalues) - w).max() <= 1e-12 * scale
    basis = split.basis.from_eigen(np.eye(a.shape[0])).T
    assert np.abs(basis.T @ basis - np.eye(a.shape[0])).max() <= 1e-14
    assert np.abs(basis.T @ a @ basis - np.diag(split.eigenvalues)).max() <= 1e-12 * scale
    order = sorted(range(len(w)), key=lambda k: (-w[k], k))
    dense = UnstableSplit(eigenvalues=w, unstable=tuple(k for k in order if w[k] >= -margin),
                          stable=tuple(k for k in order if w[k] < -margin), margin=margin, basis=v)
    assert split.j_unstable == dense.j_unstable
    q = max(split.j_unstable, 1) + 1
    c = output_matrix([PointwiseSensor(tuple(rng.uniform(0.1, 0.9, 2))) for _ in range(q)],
                      UNIT, model.mode_set)
    c_full = _full_sensor_matrix(c, model.n_modes, 1)
    try:
        ref = design_gain(c_full, dense, target_margin)
    except NotDetectableError:
        with pytest.raises(NotDetectableError):
            design_gain(c_full, split, target_margin)
        return
    got = design_gain(c_full, split, target_margin)
    assert np.abs(got.H - ref.H).max() <= RTOL * max(np.abs(ref.H).max(), 1.0)
    assert np.abs(got.closed_loop_eigs - ref.closed_loop_eigs).max() <= 1e-12 * scale


def _van_loan_column(lam, f_s, d_s, dt):
    """Gamma_s of one row by the Van Loan block exponential
    exp([[lam, f_s], [0, d_s]] dt)[0, 1]; the row appended below keeps the
    block from being triangular, which scipy's expm would square with a
    divided difference that cancels at d_s near lam."""
    block = np.zeros((3, 3))
    block[0, 0], block[0, 1], block[1, 1], block[2, 0] = lam * dt, f_s * dt, d_s * dt, 1.0
    return expm(block)[0, 1]


def _exact_column(lam, f_s, d_s, dt):
    """Gamma_s = f_s (exp(lam dt) - exp(d_s dt)) / (lam - d_s) of the float
    inputs, in 60-digit arithmetic."""
    with mpmath.workdps(60):
        lam, f_s, d_s, dt = (mpmath.mpf(float(v)) for v in (lam, f_s, d_s, dt))
        if lam == d_s:
            return f_s * dt * mpmath.exp(lam * dt)
        return f_s * (mpmath.exp(lam * dt) - mpmath.exp(d_s * dt)) / (lam - d_s)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 6), lam=st.floats(-20.0, 20.0),
       k=st.none() | st.integers(0, 16), sign=st.sampled_from([-1.0, 1.0]),
       dt=st.sampled_from([0.01, 0.05, 0.2, 1.0]))
@example(seed=4, n=5, lam=1.8328690600325714, k=13, sign=1.0, dt=0.2)
@example(seed=1, n=3, lam=0.5, k=None, sign=1.0, dt=0.05)
def test_one_row_closed_form_near_spectrum(seed, n, lam, k, sign, dt):
    # coordinate 0 has the rate d_0 = lam + sign 10^-k (d_0 = lam for k None),
    # where the divided difference in Gamma_0 cancels if formed directly; the
    # other rates are stable.  The row sits last, so F is lower triangular,
    # which scipy's expm squares in full; it would take an upper triangular F
    # through its divided difference of the diagonal, which cancels here.
    rng = np.random.default_rng(seed)
    d = -rng.uniform(0.0, 60.0, n - 1)
    d[0] = lam if k is None else lam + sign * 10.0**-k
    f = rng.standard_normal(n - 1)
    rates = np.append(d, lam)
    f_rows = np.append(f, lam)[None]
    dense = np.diag(rates)
    dense[-1] = f_rows[0]
    z0 = rng.standard_normal(n)
    steps = 30
    with mock.patch.object(spectral, "_few_rows_step", side_effect=AssertionError("J = 1 took the general path")):
        z = propagate_few_rows(rates, [n - 1], f_rows, z0, dt, steps)
        step, gamma = _one_row_step(f_rows[:, -1:], f, d, dt)
    # the dense oracles are exact to the round-off of scaling and squaring,
    # which grows with |lam| dt (about 3e-12 of the Van Loan column at
    # |lam| dt = 16) and, for the run, with the steps
    ref = Propagator(dense, dt).run(z0, steps)
    assert np.all(np.abs(z - ref).max(axis=0) <= RTOL * np.abs(ref).max(axis=0))
    assert step.shape == (1, 1) and step[0, 0] == np.exp(lam * dt)
    assert gamma.shape == (n - 1, 1)
    van_loan = _van_loan_column(lam, f[0], d[0], dt)
    assert abs(gamma[0, 0] - van_loan) <= 1e-11 * abs(van_loan)
    # against the exact column: the exponential's condition |max(lam, d_s) dt|
    # carries the rounding of its argument, and phi1 adds a few units in the
    # last place
    bound = 4 * np.finfo(float).eps * (2.0 + np.abs(np.maximum(lam, d)) * dt)
    exact = np.array([float(_exact_column(lam, f[s], d[s], dt)) for s in range(n - 1)])
    assert np.all(np.abs(gamma[:, 0] - exact) <= bound * np.abs(exact))


@pytest.mark.parametrize("row_above", [True, False])
def test_one_row_closed_form_far_separations(row_above):
    # |lam - d_s| dt runs from 1 to 1e4, for an unstable row lam = 2 above a
    # decaying coordinate, or a placed row far below a slow coordinate at
    # d_s = -0.5.  Once exp(d_s dt) underflows or phi1 of the positive
    # separation overflows, exp(d_s dt) phi1((lam - d_s) dt) is inf or 0 * inf;
    # the closed form stays finite and equals the resolvent form, which is
    # exact this far from the spectrum.
    dt = 0.1
    rng = np.random.default_rng(8)
    for sep in np.logspace(0.0, 4.0, 41):
        lam, d_s = (2.0, 2.0 - sep / dt) if row_above else (-0.5 - sep / dt, -0.5)
        f = rng.standard_normal(1)
        step, gamma = _one_row_step(np.array([[lam]]), f, np.array([d_s]), dt)
        resolvent = f[0] * (np.exp(lam * dt) - np.exp(d_s * dt)) / (lam - d_s)
        assert np.isfinite(gamma[0, 0]) and gamma[0, 0] != 0.0
        assert abs(gamma[0, 0] - resolvent) <= 1e-14 * abs(resolvent)
        z = propagate_few_rows(np.array([d_s, lam]), [1], np.array([[f[0], lam]]), rng.standard_normal(2), dt, 50)
        assert np.all(np.isfinite(z))


NUMBER = re.compile(rb"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def _assert_same_up_to_round_off(got: bytes, ref: bytes, name: str):
    """Same text outside the numbers; each number within RTOL relative, where
    numbers below 1e-3 of the file's largest are measured against that floor
    (decayed round-off)."""
    assert NUMBER.split(got) == NUMBER.split(ref), name
    x, y = (np.array([float(v) for v in NUMBER.findall(b)]) for b in (got, ref))
    assert x.shape == y.shape, name
    if y.size:
        assert np.all(np.abs(x - y) <= RTOL * np.maximum(np.abs(y), 1e-3 * np.abs(y).max())), name


@pytest.mark.parametrize("name", sorted(f for f in os.listdir(CONFIG_DIR) if f.endswith(".cfg")))
def test_shipped_configs_match_dense_path_without_propagator(name, tmp_path, monkeypatch):
    # the reference run propagates the plant and the error with dense
    # Propagators; the structured run must build none and emit the same files
    cfg = load_config(os.path.join(CONFIG_DIR, name))
    with monkeypatch.context() as dense:
        dense.setattr(observer, "_plant_blocks", _dense_plant_blocks)
        dense.setattr(observer, "_error_blocks", _dense_error_blocks)
        ref_report, _ = run_experiment(cfg, str(tmp_path / "ref"))
    with no_dense_propagator():
        report, _ = run_experiment(cfg, str(tmp_path / "fast"))
    assert report.manifest == ref_report.manifest
    for fname in report.manifest:
        with open(tmp_path / "ref" / fname, "rb") as ref, open(tmp_path / "fast" / fname, "rb") as got:
            _assert_same_up_to_round_off(got.read(), ref.read(), fname)


def test_both_estimators_share_one_gram_matrix(monkeypatch):
    # the region operator, a SeparableGram for this rectangle, is built once
    calls = []

    def counting(*args):
        calls.append(region_operator(*args))
        return calls[-1]

    monkeypatch.setattr(harness, "region_operator", counting)
    monkeypatch.setattr(observer, "region_operator", counting)
    _, trajs = run_experiment(parse_config(BETA3_CONFIG + "observer.estimators = both\n"))
    assert set(trajs) == {"reduced", "full"}
    assert len(calls) == 1 and isinstance(calls[0], SeparableGram)
