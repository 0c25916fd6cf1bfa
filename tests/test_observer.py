import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from conftest import propagate, random_sensor_configs, stacked_a
from regobs import (
    Coefficients,
    ConfigError,
    Domain,
    GainDesignError,
    InternalRectangle,
    ModeIndex,
    ModeSet,
    NotDetectableError,
    ObserverGain,
    PointwiseSensor,
    Rect,
    ZoneSensor,
    assemble_exchange_model,
    design_gain,
    estimator_matrices,
    fit_decay,
    group_modes_by_eigenvalue,
    output_matrix,
    parse_config,
    reduced_output_map,
    simulate_full_order,
    simulate_reduced_order,
    split_unstable_stable,
    strategic_rank_test,
)
from regobs import observer
from regobs.spectral import ModePairs

UNIT = Domain()
PI2 = math.pi**2
REGION = InternalRectangle(Rect(0.2, 0.8, 0.2, 0.8))


def make_model(beta, n=2):
    return assemble_exchange_model(Coefficients(1.0, 0.1, beta), UNIT, ModeSet.square(n))


def make_gain(model, sensors, target_margin=1.0, margin=0.0):
    c = output_matrix(sensors, model.domain, model.mode_set)
    split = split_unstable_stable(model.a22, margin)
    obs = reduced_output_map(model, c)
    return c, design_gain(obs, split, target_margin, sensor_matrix=c)


STRATEGIC_PAIR = [PointwiseSensor((0.23, 0.31)), PointwiseSensor((0.57, 0.43))]


class TestSplit:
    def test_beta3_one_unstable(self):
        split = split_unstable_stable(make_model(3.0).a22, 0.0)
        assert split.j_unstable == 1
        assert split.eigenvalues[split.unstable[0]] == pytest.approx(3 - 0.2 * PI2, abs=1e-12)

    def test_beta6_three_unstable(self):
        model = make_model(6.0)
        split = split_unstable_stable(model.a22, 0.0)
        assert split.j_unstable == 3
        unstable_modes = {model.mode_set.modes[k] for k in split.unstable}
        assert unstable_modes == {ModeIndex(1, 1), ModeIndex(1, 2), ModeIndex(2, 1)}

    def test_beta1_all_stable(self):
        split = split_unstable_stable(make_model(1.0).a22, 0.0)
        assert split.j_unstable == 0

    def test_partition_is_exhaustive(self):
        split = split_unstable_stable(make_model(6.0, n=3).a22, 0.5)
        assert sorted(split.unstable + split.stable) == list(range(9))

    @pytest.mark.parametrize("block", [np.diag([1.0, -2.0]), np.array([[1.026]]), np.zeros((2, 3))])
    def test_matrix_block_rejected(self, block):
        # a block is a diagonal given as a vector or the model's ModePairs;
        # any matrix, symmetric and 1 x 1 included, is rejected
        with pytest.raises(ValueError, match="not a matrix"):
            split_unstable_stable(block, 0.0)

    def test_negative_margin_rejected(self):
        with pytest.raises(ValueError, match="margin must be >= 0"):
            split_unstable_stable(make_model(3.0).a22, margin=-1)

    def test_nan_margin_rejected(self):
        # a NaN margin fails both ">= -margin" and "< -margin": every
        # direction would be in neither part
        with pytest.raises(ValueError, match="margin must be >= 0"):
            split_unstable_stable(make_model(3.0).a22, math.nan)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_eigenvalue_rejected(self, bad):
        # a NaN fails both ">= -margin" and "< -margin": it would be in neither part
        a22 = make_model(3.0).a22.copy()
        a22[1] = bad
        with pytest.raises(ValueError, match="finite"):
            split_unstable_stable(a22)
        with np.errstate(invalid="ignore"):
            pairs = ModePairs.of_blocks(a22, np.full(4, -3.0), a22)
        with pytest.raises(ValueError, match="finite"):
            split_unstable_stable(pairs)


class TestDesignGain:
    def test_scalar_pole_shift(self):
        split = split_unstable_stable(np.array([1.026]), 0.0)
        gain = design_gain(np.array([[-1.0]]), split, 1.0)
        assert gain.H[0, 0] == pytest.approx(-2.026, abs=1e-12)
        assert gain.closed_loop_eigs[0] == pytest.approx(-1.0, abs=1e-12)

    @pytest.mark.parametrize("target_margin", [0.0, -1.0, math.nan])
    def test_nonpositive_target_margin_rejected(self, target_margin):
        model = make_model(3.0)
        c = output_matrix(STRATEGIC_PAIR, UNIT, model.mode_set)
        with pytest.raises(ValueError, match="target_margin must be > 0"):
            design_gain(reduced_output_map(model, c), split_unstable_stable(model.a22), target_margin)

    def test_no_unstable_modes_zero_gain(self):
        model = make_model(1.0)
        c, gain = make_gain(model, [PointwiseSensor((0.3, 0.4))])
        assert not gain.H.any()
        assert gain.achieved_margin == pytest.approx(0.2 * PI2 - 1, abs=1e-12)

    def test_blind_sensor_not_detectable(self):
        model = make_model(6.0)
        with pytest.raises(NotDetectableError):
            make_gain(model, [PointwiseSensor((0.5, 0.43))])

    def test_detectable_beta3_places_unstable_mode(self):
        model = make_model(3.0)
        _, gain = make_gain(model, STRATEGIC_PAIR)
        eigs = np.sort(np.real(gain.closed_loop_eigs))[::-1]
        assert eigs[0] == pytest.approx(-1.0, abs=1e-10)
        assert gain.achieved_margin == pytest.approx(1.0, abs=1e-10)

    def test_stable_rows_zero(self):
        model = make_model(3.0)
        _, gain = make_gain(model, STRATEGIC_PAIR)
        stable_rows = list(gain.split.stable)
        assert not gain.H[stable_rows, :].any()

    def test_full_order_design_on_stacked_system(self):
        model = make_model(3.0)
        c = output_matrix(STRATEGIC_PAIR, UNIT, model.mode_set)
        c_full = np.hstack([c, np.zeros_like(c)])
        split = split_unstable_stable(model.mode_pairs, 0.0)
        assert split.j_unstable == 1
        gain = design_gain(c_full, split, 1.0, sensor_matrix=c_full)
        assert np.max(np.real(gain.closed_loop_eigs)) <= -1.0 + 1e-9

    def test_missed_margin_is_typed_error(self, monkeypatch):
        # The sensor at b1 = 0.5 is blind to the unstable mode (2, 1); a loose
        # TOL_DETECT lets the residual test pass, and that mode stays unstable.
        model = make_model(6.0)
        c = output_matrix([PointwiseSensor((0.5, 0.43))], UNIT, model.mode_set)
        split = split_unstable_stable(model.a22, 0.0)
        monkeypatch.setattr(observer, "TOL_DETECT", 10.0)
        with pytest.raises(GainDesignError, match="misses the prescribed margin"):
            design_gain(reduced_output_map(model, c), split, 1.0)
        assert issubclass(GainDesignError, RuntimeError)

    def test_round_off_blind_zone_sensor_not_detectable(self):
        # The tabulated weight is odd about the zone centre, so the sensor is
        # blind to the unstable mode (1, 1) up to round-off; pinv alone would
        # invert that round-off into a gain of ~1e16 with residual 0.
        model = make_model(3.0)
        sensor = ZoneSensor(Rect(0.3, 0.7, 0.3, 0.7), weight="tabulated", samples=((1, 1), (-1, -1)))
        c = output_matrix([sensor], UNIT, model.mode_set)
        blind = c[0, model.mode_set.position(ModeIndex(1, 1))]
        assert 0 < abs(blind) < 1e-15 * np.abs(c).max()
        groups = group_modes_by_eigenvalue(model)
        assert not strategic_rank_test(c, groups).strategic
        split = split_unstable_stable(model.a22, 0.0)
        with pytest.raises(NotDetectableError, match="smallest singular value") as err:
            design_gain(reduced_output_map(model, c), split, 1.0, sensor_matrix=c)
        assert err.value.blind_positions == (model.mode_set.position(ModeIndex(1, 1)),)
        c_full = np.hstack([c, np.zeros_like(c)])
        with pytest.raises(NotDetectableError):
            design_gain(c_full, split_unstable_stable(model.mode_pairs, 0.0), 1.0, sensor_matrix=c_full)

    @settings(max_examples=40, deadline=None)
    @given(
        beta=st.floats(2.0, 8.0),
        target_margin=st.floats(0.2, 3.0),
        kind=st.sampled_from(["reduced", "full"]),
        locations=st.lists(st.tuples(st.floats(0.05, 0.95), st.floats(0.05, 0.95)), min_size=2, max_size=3),
    )
    def test_spectrum_matches_dense_eigvals(self, beta, target_margin, kind, locations):
        model = make_model(beta, n=3)
        c = output_matrix([PointwiseSensor(loc) for loc in locations], UNIT, model.mode_set)
        if kind == "reduced":
            block, obs_map = model.a22, reduced_output_map(model, c)
            dense_block = np.diag(block)
        else:
            block, obs_map = model.mode_pairs, np.hstack([c, np.zeros_like(c)])
            dense_block = stacked_a(model)
        split = split_unstable_stable(block, 0.0)
        try:
            gain = design_gain(obs_map, split, target_margin)
        except NotDetectableError:
            assume(False)
        dense = np.sort_complex(np.linalg.eigvals(dense_block - gain.H @ obs_map))[::-1]
        scale = max(1.0, float(np.abs(dense).max()))
        assert np.abs(gain.closed_loop_eigs - dense).max() <= 1e-10 * scale

    def test_not_detectable_iff_unstable_rank_fails(self):
        # Exact in the q >= J regime the construction targets: J = 1 at
        # beta = 3 with one or two sensors, J = 3 at beta = 6 with three.
        cases = [(3.0, (1, 2)), (6.0, (3,))]
        for beta, q_choices in cases:
            model = make_model(beta, n=3)
            groups = group_modes_by_eigenvalue(model)
            unstable_groups = [g for g in groups if g.value >= 0.0]
            split = split_unstable_stable(model.a22, 0.0)
            for sensors in random_sensor_configs(seed=21, n_configs=25, q_choices=q_choices):
                c = output_matrix(sensors, UNIT, model.mode_set)
                rank_ok = strategic_rank_test(c, unstable_groups).strategic
                try:
                    design_gain(reduced_output_map(model, c), split, 1.0)
                    designed = True
                except NotDetectableError:
                    designed = False
                assert designed == rank_ok


class TestEstimatorMatrices:
    def test_zero_gain_reduces_to_plant_blocks(self):
        model = make_model(1.0)
        c = output_matrix(STRATEGIC_PAIR, UNIT, model.mode_set)
        split = split_unstable_stable(model.a22, 0.0)
        gain = design_gain(reduced_output_map(model, c), split, 1.0, sensor_matrix=c)
        assert not gain.H.any()
        f_red, g_y = estimator_matrices(model, gain)
        assert np.array_equal(f_red, np.diag(model.a22))
        assert np.array_equal(g_y, np.diag(model.a12))

    def test_single_mode_symbolic(self):
        # One mode, one sensor with unit output coefficient: with a12 = -1,
        # F_red = (1 - 0.2 pi^2) + h.
        model = assemble_exchange_model(Coefficients(1.0, 0.1, 1.0), UNIT, ModeSet((ModeIndex(1, 1),)))
        h = 0.7
        c = np.array([[1.0]])
        split = split_unstable_stable(model.a22, 0.0)
        gain = ObserverGain(H=np.array([[h]]), split=split, target_margin=1.0,
                            closed_loop_eigs=np.zeros(1), residual=0.0, sensor_matrix=c)
        f_red, g_y = estimator_matrices(model, gain)
        assert f_red[0, 0] == pytest.approx((1 - 0.2 * PI2) + h, abs=1e-12)
        a22, a12, a11, a21 = model.a22[0], -1.0, model.a11[0], -1.0
        assert g_y[0, 0] == pytest.approx(a22 * h - h * a12 * h - h * a11 + a21, abs=1e-12)

    def test_gain_identity(self):
        # A22 - (A22 - H_gamma A12) == H_gamma A12 entrywise for random H.
        model = make_model(2.0, n=3)
        rng = np.random.default_rng(8)
        c = output_matrix(STRATEGIC_PAIR, UNIT, model.mode_set)
        h = rng.standard_normal((9, 2))
        split = split_unstable_stable(model.a22, 0.0)
        gain = ObserverGain(H=h, split=split, target_margin=1.0,
                            closed_loop_eigs=np.zeros(9), residual=0.0, sensor_matrix=c)
        f_red, _ = estimator_matrices(model, gain)
        assert np.allclose(np.diag(model.a22) - f_red, (h @ c) @ np.diag(model.a12), atol=1e-13)


class TestSimulateReduced:
    def test_zero_initial_error_stays_zero(self):
        model = make_model(3.0)
        c, gain = make_gain(model, STRATEGIC_PAIR)
        rng = np.random.default_rng(1)
        x0 = rng.standard_normal(8)
        phi0 = x0[4:] - gain.H @ (c @ x0[:4])
        traj = simulate_reduced_order(model, STRATEGIC_PAIR, gain, x0, phi0, 0.01, 2.0, region=REGION)
        assert np.abs(traj.x2_hat - traj.x2).max() < 1e-10
        assert traj.err_gamma.max() < 1e-10

    def test_error_matches_matrix_exponential_any_gain(self):
        # Eq-of-motion equivalence for an arbitrary (not designed) gain.
        model = make_model(3.0, n=3)
        rng = np.random.default_rng(4)
        c = output_matrix(STRATEGIC_PAIR, UNIT, model.mode_set)
        h = rng.standard_normal((9, 2))
        split = split_unstable_stable(model.a22, 0.0)
        gain = ObserverGain(H=h, split=split, target_margin=1.0,
                            closed_loop_eigs=np.zeros(9), residual=0.0, sensor_matrix=c)
        x0 = rng.standard_normal(18)
        phi0 = rng.standard_normal(9)
        traj = simulate_reduced_order(model, STRATEGIC_PAIR, gain, x0, phi0, 0.02, 1.5)
        f_red, _ = estimator_matrices(model, gain)
        e0 = traj.x2_hat[0] - traj.x2[0]
        for k in range(0, traj.times.shape[0], 5):
            oracle = expm(f_red * traj.times[k]) @ e0
            assert np.abs((traj.x2_hat[k] - traj.x2[k]) - oracle).max() < 1e-8

    def test_detectable_decay_rate(self):
        model = make_model(3.0)
        c, gain = make_gain(model, STRATEGIC_PAIR)
        # initial error with a dominant slow-mode component, so the fit
        # window sees the -1 closed-loop rate rather than the transient
        x0 = np.array([0.3, -0.2, 0.4, 0.1, 1.0, 0.1, 0.1, 0.1])
        traj = simulate_reduced_order(model, STRATEGIC_PAIR, gain, x0,
                                      -gain.H @ (c @ x0[:4]), 0.01, 5.0, region=REGION)
        fit = fit_decay(traj.times, traj.err_gamma, window=(1.0, 5.0))
        assert abs(fit.alpha_fit - 1.0) <= 0.1

    def test_zero_gain_open_loop_rate(self):
        model = make_model(1.0)
        c, gain = make_gain(model, STRATEGIC_PAIR)  # J = 0 so H = 0
        rng = np.random.default_rng(3)
        x0 = rng.standard_normal(8)
        traj = simulate_reduced_order(model, STRATEGIC_PAIR, gain, x0,
                                      np.zeros(4), 0.01, 5.0, region=REGION)
        fit = fit_decay(traj.times, traj.err_gamma, window=(1.0, 5.0))
        assert abs(fit.alpha_fit - abs(1 - 0.2 * PI2)) / abs(1 - 0.2 * PI2) < 0.05

    def test_unobserved_unstable_mode_grows(self):
        model = make_model(6.0)
        blind = [PointwiseSensor((0.5, 0.43))]
        with pytest.raises(NotDetectableError):
            make_gain(model, blind)
        c = output_matrix(blind, UNIT, model.mode_set)
        split = split_unstable_stable(model.a22, 0.0)
        gain = ObserverGain(H=np.zeros((4, 1)), split=split, target_margin=1.0,
                            closed_loop_eigs=model.a22, residual=float("nan"),
                            sensor_matrix=c)
        rng = np.random.default_rng(5)
        x0 = rng.standard_normal(8)
        traj = simulate_reduced_order(model, blind, gain, x0, np.zeros(4), 0.01, 3.0)
        col = model.mode_set.position(ModeIndex(2, 1))
        fit = fit_decay(traj.times, traj.mode_abs_err[:, col], window=(0.0, 3.0))
        rate = 6 - 0.5 * PI2
        assert abs(-fit.alpha_fit - rate) / rate < 0.05

    def test_decay_floor_over_target_margins(self):
        # fitted rate >= 0.9 min(alpha, slowest closed-loop eigenvalue);
        # margins chosen away from the stable spectrum (-1.935, -4.896): a
        # target colliding with a stable eigenvalue makes the norm a mixture
        # of near-equal exponentials and bends the log-linear fit
        model = make_model(3.0)
        c = output_matrix(STRATEGIC_PAIR, UNIT, model.mode_set)
        split = split_unstable_stable(model.a22, 0.0)
        x0 = np.array([0.3, -0.2, 0.4, 0.1, 1.0, 0.6, 0.5, 0.4])
        for alpha in (0.5, 1.0, 3.0):
            gain = design_gain(reduced_output_map(model, c), split, alpha, sensor_matrix=c)
            traj = simulate_reduced_order(model, STRATEGIC_PAIR, gain, x0,
                                          -gain.H @ (c @ x0[:4]), 0.01, 5.0, region=REGION)
            fit = fit_decay(traj.times, traj.err_gamma, window=(1.0, 5.0))
            slowest = min(abs(v) for v in np.real(gain.closed_loop_eigs))
            assert fit.alpha_fit >= 0.9 * min(alpha, slowest)

    def test_horizon_must_be_whole_steps(self):
        # dt = 0.4 does not divide t_final = 1.0; rounding would stop at t = 0.8
        model = make_model(3.0)
        c, gain = make_gain(model, STRATEGIC_PAIR)
        with pytest.raises(ValueError, match="whole number of dt steps"):
            simulate_reduced_order(model, STRATEGIC_PAIR, gain, np.ones(8), np.zeros(4), 0.4, 1.0)

    @pytest.mark.parametrize("t_final", [0.4, 0.2])
    def test_one_step_horizon_agrees_with_config(self, t_final):
        # T == dt is one step for the API and the config alike; T < dt is
        # rejected by both
        model = make_model(3.0)
        c, gain = make_gain(model, STRATEGIC_PAIR)
        text = f"simulation.dt = 0.4\nsimulation.T = {t_final}\n"
        if t_final >= 0.4:
            traj = simulate_reduced_order(model, STRATEGIC_PAIR, gain, np.ones(8), np.zeros(4), 0.4, t_final)
            assert traj.times.tolist() == [0.0, 0.4]
            assert parse_config(text).simulation.t_final == t_final
        else:
            with pytest.raises(ValueError, match="t_final >= dt"):
                simulate_reduced_order(model, STRATEGIC_PAIR, gain, np.ones(8), np.zeros(4), 0.4, t_final)
            with pytest.raises(ConfigError, match=r"simulation\.T must be >= simulation\.dt"):
                parse_config(text)

    def test_estimate_recovery_identity(self):
        model = make_model(3.0)
        c, gain = make_gain(model, STRATEGIC_PAIR)
        rng = np.random.default_rng(6)
        x0 = rng.standard_normal(8)
        traj = simulate_reduced_order(model, STRATEGIC_PAIR, gain, x0, rng.standard_normal(4), 0.01, 1.0)
        recovered = traj.estimator_state + traj.y @ gain.H.T
        assert np.array_equal(traj.x2_hat, recovered)

    def test_divergence_guard_truncates(self):
        model = make_model(6.0)
        blind = [PointwiseSensor((0.5, 0.43))]
        c = output_matrix(blind, UNIT, model.mode_set)
        split = split_unstable_stable(model.a22, 0.0)
        gain = ObserverGain(H=np.zeros((4, 1)), split=split, target_margin=1.0,
                            closed_loop_eigs=model.a22, residual=float("nan"),
                            sensor_matrix=c)
        x0 = np.full(8, 10.0)
        traj = simulate_reduced_order(model, blind, gain, x0, np.zeros(4), 0.05, 12.0)
        assert traj.diverged
        assert traj.times.shape[0] < int(round(12.0 / 0.05)) + 1
        assert "truncated" in traj.divergence_message


@pytest.mark.parametrize("kind", ["reduced", "full"])
@pytest.mark.parametrize("bad", ["x0", "start", "gain.H"])
def test_non_finite_start_rejected(kind, bad):
    # a non-finite start is an input error, not the divergence of the run
    model = make_model(3.0, n=3)
    c = output_matrix(STRATEGIC_PAIR, UNIT, model.mode_set)
    n = model.n_modes
    if kind == "reduced":
        gain = design_gain(reduced_output_map(model, c), split_unstable_stable(model.a22), 1.0, sensor_matrix=c)
        simulate, start, start_name = simulate_reduced_order, np.zeros(n), "phi0"
    else:
        c_full = np.hstack([c, np.zeros_like(c)])
        gain = design_gain(c_full, split_unstable_stable(model.mode_pairs), 1.0, sensor_matrix=c_full)
        simulate, start, start_name = simulate_full_order, np.zeros(2 * n), "xhat0"
    x0 = np.ones(2 * n)
    if bad == "x0":
        x0[4] = math.nan
    elif bad == "start":
        start[0] = math.inf
    else:
        gain.H[0, 0] = math.nan
    name = start_name if bad == "start" else bad
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be finite$"):
        simulate(model, STRATEGIC_PAIR, gain, x0, start, 0.1, 1.0)


def test_divergence_guard_edge():
    # exactly the bound is kept, the next double above it and any non-finite
    # cell are bad: the one-pass rule agrees with the two-pass one
    bound = observer.MAX_STATE_NORM
    block = np.array([[0.0, 0.0, 0.0],
                      [bound, -bound, 1.0],
                      [-bound, 0.5, bound],
                      [np.nextafter(bound, math.inf), 0.0, 1.0],
                      [0.0, -np.nextafter(bound, math.inf), 0.0],
                      [math.inf, 0.0, 0.0],
                      [1.0, -math.inf, 2.0],
                      [1.0, math.nan, 2.0]])
    two_pass = ~np.isfinite(block).all(axis=1) | (np.abs(block).max(axis=1) > bound)
    got = observer._bad_rows(block)
    assert got.tolist() == [False, False, False, True, True, True, True, True]
    assert np.array_equal(got, two_pass)


class TestSimulateFullOrder:
    def _full_gain(self, model, sensors, margin=1.0):
        c = output_matrix(sensors, UNIT, model.mode_set)
        c_full = np.hstack([c, np.zeros_like(c)])
        split = split_unstable_stable(model.mode_pairs, 0.0)
        return design_gain(c_full, split, margin, sensor_matrix=c_full)

    def test_identical_initialization_zero_error(self):
        model = make_model(3.0)
        gain = self._full_gain(model, STRATEGIC_PAIR)
        rng = np.random.default_rng(7)
        x0 = rng.standard_normal(8)
        traj = simulate_full_order(model, STRATEGIC_PAIR, gain, x0, x0, 0.01, 2.0, region=REGION)
        assert traj.err_gamma.max() < 1e-9

    def test_error_obeys_output_injection_dynamics(self):
        model = make_model(3.0)
        gain = self._full_gain(model, STRATEGIC_PAIR)
        c = output_matrix(STRATEGIC_PAIR, UNIT, model.mode_set)
        c_full = np.hstack([c, np.zeros_like(c)])
        f = stacked_a(model) - gain.H @ c_full
        rng = np.random.default_rng(8)
        x0 = rng.standard_normal(8)
        z0 = rng.standard_normal(8)
        traj = simulate_full_order(model, STRATEGIC_PAIR, gain, x0, z0, 0.02, 1.0)
        e0 = z0 - x0
        full_state_err = traj.estimator_state - np.hstack([traj.x1, traj.x2])
        for k in range(0, traj.times.shape[0], 10):
            oracle = expm(f * traj.times[k]) @ e0
            assert np.abs(full_state_err[k] - oracle).max() < 1e-8

    def test_gain_shape_checked(self):
        # a reduced-order gain (n_modes x q) is not a full-order one
        model = make_model(3.0)
        _, gain = make_gain(model, STRATEGIC_PAIR)
        x0 = np.random.default_rng(10).standard_normal(8)
        with pytest.raises(ValueError, match="full-order gain must have shape"):
            simulate_full_order(model, STRATEGIC_PAIR, gain, x0, x0, 0.01, 1.0)

    def test_zero_gain_reproduces_open_loop_plant(self):
        model = make_model(1.0)
        c = output_matrix(STRATEGIC_PAIR, UNIT, model.mode_set)
        c_full = np.hstack([c, np.zeros_like(c)])
        split = split_unstable_stable(model.mode_pairs, 0.0)
        gain = design_gain(c_full, split, 1.0, sensor_matrix=c_full)
        assert not gain.H.any()
        rng = np.random.default_rng(9)
        x0 = rng.standard_normal(8)
        traj = simulate_full_order(model, STRATEGIC_PAIR, gain, x0, x0, 0.01, 1.0)
        open_loop = propagate(model, x0, 0.01, traj.times.shape[0] - 1)
        assert np.abs(traj.estimator_state - open_loop).max() < 1e-12
