import math
import subprocess
import sys

import numpy as np
import pytest
from scipy.linalg import expm

from conftest import python_env, random_sensor_configs, zone_row_quadrature
from regobs import (
    Coefficients,
    Domain,
    ModeIndex,
    ModeSet,
    PointwiseSensor,
    PredicateInapplicableError,
    Rect,
    ZoneSensor,
    assemble_exchange_model,
    group_modes_by_eigenvalue,
    input_matrix,
    nonstrategic_pointwise_predicate,
    nonstrategic_zone_predicate,
    observability_gramian,
    output_matrix,
    strategic_rank_test,
)
from regobs.geometry import gauss_nodes
from regobs.sensing import group_values
from regobs.spectral import eval_matrix

UNIT = Domain()
PI2 = math.pi**2


def model_with_beta(beta, n=2, gamma=0.1):
    return assemble_exchange_model(Coefficients(1.0, gamma, beta), UNIT, ModeSet.square(n))


class TestOutputMatrix:
    def test_pointwise_center(self):
        modes = ModeSet.square(2)
        c = output_matrix([PointwiseSensor((0.5, 0.5))], UNIT, modes)
        assert c[0, modes.position(ModeIndex(1, 1))] == pytest.approx(2.0, abs=1e-12)
        assert c[0, modes.position(ModeIndex(2, 1))] == pytest.approx(0.0, abs=1e-12)

    def test_pointwise_rows_equal_eval_matrix(self):
        # the separable row of a point is the eigenfunction evaluation, bit for bit
        domain = Domain(-0.3, 1.7, 0.2, 1.5)
        modes = ModeSet.square(6)
        rng = np.random.default_rng(4)
        points = np.column_stack([rng.uniform(-0.3, 1.7, 40), rng.uniform(0.2, 1.5, 40)])
        c = output_matrix([PointwiseSensor(tuple(p)) for p in points.tolist()], domain, modes)
        assert np.array_equal(c, eval_matrix(domain, modes, points))

    def test_uniform_zone_closed_form(self):
        sensor = ZoneSensor(Rect(0.25, 0.75, 0.25, 0.75))
        c = output_matrix([sensor], UNIT, ModeSet((ModeIndex(1, 1),)))
        assert c[0, 0] == pytest.approx(4 / PI2, abs=1e-12)

    def test_closed_form_matches_quadrature(self):
        modes = ModeSet.square(4)
        for weight in ("uniform", "separable_sine"):
            sensor = ZoneSensor(Rect(0.13, 0.57, 0.22, 0.91), weight=weight)
            closed = output_matrix([sensor], UNIT, modes)[0]
            quad = zone_row_quadrature(sensor, UNIT, modes, 32)
            assert np.abs(closed - quad).max() < 1e-9

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (5, 4), (9, 9), (40, 3)])
    def test_tabulated_matches_per_cell_quadrature(self, shape):
        domain = Domain(0.0, 1.0, 0.0, 1.3)
        modes = ModeSet.square(8)
        samples = np.random.default_rng(shape[0] * shape[1]).uniform(-1.0, 1.0, shape)
        sensor = ZoneSensor(Rect(0.17, 0.59, 0.35, 0.95), weight="tabulated", samples=tuple(map(tuple, samples)))
        row = output_matrix([sensor], domain, modes)[0]
        quad = zone_row_quadrature(sensor, domain, modes)
        assert np.abs(row - quad).max() <= 1e-12 * np.abs(quad).max()

    @pytest.mark.parametrize("edge_only", [False, True], ids=["smooth", "edge_only"])
    def test_fine_tabulated_grid_matches_per_cell_quadrature(self, edge_only):
        # 400 samples over a support 0.02 wide put w h below 2e-3 on the first
        # axis, where the end hats' odd term runs on its series.  With samples
        # only at x = 0, the domain edge, the row is that odd term alone.
        domain = Domain(0.0, 1.0, 0.0, 1.3)
        modes = ModeSet.square(8)
        x = np.linspace(0.0, 1.0, 400)[:, None]
        samples = np.cos(7.0 * x) + np.array([[0.3, -1.0, 0.5]]) * x**2
        if edge_only:
            samples[1:] = 0.0
        lo1 = 0.0 if edge_only else 0.61
        sensor = ZoneSensor(Rect(lo1, lo1 + 0.02, 0.2, 0.8), weight="tabulated", samples=tuple(map(tuple, samples)))
        row = output_matrix([sensor], domain, modes)[0]
        quad = zone_row_quadrature(sensor, domain, modes, n_quad=16)
        assert np.abs(row - quad).max() <= 1e-12 * np.abs(quad).max()

    def test_cli_import_leaves_out_scipy_interpolate(self):
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, regobs.cli; print('scipy.interpolate' in sys.modules)"],
            capture_output=True, text=True, check=True, env=python_env(),
        )
        assert proc.stdout.strip() == "False"

    def test_tabulated_constant_matches_uniform(self):
        rect = Rect(0.2, 0.6, 0.3, 0.7)
        modes = ModeSet.square(3)
        ones = tuple((1.0,) * 5 for _ in range(5))
        tab = output_matrix([ZoneSensor(rect, weight="tabulated", samples=ones)], UNIT, modes)
        uni = output_matrix([ZoneSensor(rect)], UNIT, modes)
        assert np.abs(tab - uni).max() < 1e-9

    def test_support_outside_domain(self):
        with pytest.raises(ValueError):
            output_matrix([ZoneSensor(Rect(0.5, 1.5, 0.2, 0.4))], UNIT, ModeSet.square(2))
        with pytest.raises(ValueError):
            output_matrix([PointwiseSensor((1.0, 0.5))], UNIT, ModeSet.square(2))

    def test_input_matrix_is_transpose(self):
        sensors = [PointwiseSensor((0.3, 0.4)), ZoneSensor(Rect(0.1, 0.3, 0.5, 0.9))]
        modes = ModeSet.square(2)
        assert np.array_equal(input_matrix(sensors, UNIT, modes), output_matrix(sensors, UNIT, modes).T)


class TestGrouping:
    def test_square_symmetry_pair(self):
        groups = group_modes_by_eigenvalue(model_with_beta(1.0))
        mults = [g.multiplicity for g in groups]
        assert mults == [1, 2, 1]
        pair = groups[1]
        assert set(pair.modes) == {ModeIndex(1, 2), ModeIndex(2, 1)}

    def test_single_mode(self):
        model = assemble_exchange_model(Coefficients(), UNIT, ModeSet((ModeIndex(1, 1),)))
        groups = group_modes_by_eigenvalue(model)
        assert len(groups) == 1 and groups[0].multiplicity == 1

    def test_incommensurable_sides_all_simple(self):
        # L2^2 = pi is irrational over the rationals generated by i^2, j^2,
        # so no eigenvalue ties occur at any truncation.
        dom = Domain(0.0, 1.0, 0.0, math.sqrt(math.pi))
        model = assemble_exchange_model(Coefficients(), dom, ModeSet.square(8))
        groups = group_modes_by_eigenvalue(model)
        assert all(g.multiplicity == 1 for g in groups)

    def test_sqrt2_sides_collide_at_eight(self):
        # On (0,1) x (0,sqrt(2)) eigenvalues are -pi^2 (i^2 + j^2/2), so ties
        # are exactly the integer solutions of 2 i^2 + j^2 = 2 k^2 + l^2,
        # e.g. (5, 2) and (3, 6).  None occur for i, j <= 4; several do by 8.
        dom = Domain(0.0, 1.0, 0.0, math.sqrt(2.0))
        small = assemble_exchange_model(Coefficients(), dom, ModeSet.square(4))
        assert all(g.multiplicity == 1 for g in group_modes_by_eigenvalue(small))
        full = assemble_exchange_model(Coefficients(), dom, ModeSet.square(8))
        groups = group_modes_by_eigenvalue(full)
        oracle = {}
        for m in full.mode_set:
            oracle.setdefault(2 * m.i**2 + m.j**2, set()).add(m)
        collided = {frozenset(g.modes) for g in groups if g.multiplicity > 1}
        expected = {frozenset(ms) for ms in oracle.values() if len(ms) > 1}
        assert collided == expected
        assert frozenset({ModeIndex(5, 2), ModeIndex(3, 6)}) in collided

    def test_groups_sorted_descending(self):
        groups = group_modes_by_eigenvalue(model_with_beta(3.0, n=3))
        values = [g.value for g in groups]
        assert values == sorted(values, reverse=True)


class TestStrategicRank:
    def test_center_sensor_not_strategic(self):
        model = model_with_beta(1.0)
        groups = group_modes_by_eigenvalue(model)
        c = output_matrix([PointwiseSensor((0.5, 0.5))], UNIT, model.mode_set)
        report = strategic_rank_test(c, groups)
        assert not report.strategic
        assert ModeIndex(2, 1) in report.offending_modes()

    def test_two_sensor_pair_strategic(self):
        model = model_with_beta(1.0)
        groups = group_modes_by_eigenvalue(model)
        sensors = [PointwiseSensor((0.23, 0.31)), PointwiseSensor((0.57, 0.43))]
        c = output_matrix(sensors, UNIT, model.mode_set)
        report = strategic_rank_test(c, groups)
        assert report.strategic
        assert report.offending == ()

    def test_zero_sensors_not_strategic(self):
        model = model_with_beta(1.0)
        groups = group_modes_by_eigenvalue(model)
        report = strategic_rank_test(np.zeros((0, 4)), groups, q=0)
        assert not report.strategic
        assert len(report.offending) == len(groups)

    def test_all_zero_output_not_strategic(self):
        model = model_with_beta(1.0)
        groups = group_modes_by_eigenvalue(model)
        report = strategic_rank_test(np.zeros((2, 4)), groups)
        assert not report.strategic
        assert len(report.offending) == len(groups)

    def test_row_augmentation_never_breaks_strategic(self):
        model = model_with_beta(1.0, n=3)
        groups = group_modes_by_eigenvalue(model)
        rng = np.random.default_rng(11)
        for _ in range(20):
            pts = [tuple(rng.uniform(0.1, 0.9, 2)) for _ in range(3)]
            sensors = [PointwiseSensor(p) for p in pts]
            c = output_matrix(sensors, UNIT, model.mode_set)
            if not strategic_rank_test(c, groups).strategic:
                continue
            extra = sensors + [PointwiseSensor(tuple(rng.uniform(0.1, 0.9, 2)))]
            c2 = output_matrix(extra, UNIT, model.mode_set)
            assert strategic_rank_test(c2, groups).strategic


class TestGramian:
    def test_scalar_infinite_horizon_limit(self):
        w = observability_gramian(np.array([[-1.0]]), np.array([[1.0]]), 20.0)
        assert w[0, 0] == pytest.approx(0.5, abs=1e-10)

    def test_zero_observation(self):
        w = observability_gramian(-np.eye(3), np.zeros((1, 3)), 5.0)
        assert not w.any()

    def test_single_mode_exchange_block(self):
        d = 1 - 0.2 * PI2  # A22 entry for gamma=0.1, beta=1, mode (1,1)
        w = observability_gramian(np.array([[d]]), np.array([[-1.0]]), 1.0)
        oracle = (1 - math.exp(2 * d)) / (-2 * d)
        assert w[0, 0] == pytest.approx(oracle, abs=1e-12)

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            observability_gramian(np.eye(2), np.eye(2), 0.0)

    def test_closed_form_zero_sum_limit(self):
        # d_i + d_j = 0 gives the integral of 1 over [0, T]: exactly T O'O
        d = np.array([0.7, -0.7, 0.0])
        obs = np.array([[1.0, 2.0, -1.5]])
        w = observability_gramian(np.diag(d), obs, 1.5)
        assert w[0, 1] == w[1, 0] == 2.0 * 1.5
        assert w[2, 2] == 1.5**2 * 1.5
        near = observability_gramian(np.diag([0.7, -0.7 + 1e-9, 0.0]), obs, 1.5)
        assert near[0, 1] == pytest.approx(3.0, rel=1e-8)

    @pytest.mark.parametrize("diagonal", [True, False], ids=["closed_form", "van_loan"])
    def test_stack_matches_one_map_at_a_time(self, diagonal):
        rng = np.random.default_rng(5)
        m = np.diag(-rng.uniform(0.5, 3.0, 4)) if diagonal else rng.standard_normal((4, 4)) - 2 * np.eye(4)
        stack = rng.standard_normal((3, 2, 4))
        w = observability_gramian(m, stack, 1.5)
        assert w.shape == (3, 4, 4)
        for wp, obs in zip(w, stack):
            one = observability_gramian(m, obs, 1.5)
            assert np.abs(wp - one).max() <= 1e-13 * np.abs(one).max()

    def test_quadrature_matches_dense_path(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((4, 4)) - 2 * np.eye(4)
        obs = rng.standard_normal((2, 4))
        w_dense = observability_gramian(m, obs, 1.5)
        w_diag = observability_gramian(np.diag(np.diag(m)), obs, 1.5)
        d = np.diag(m)
        k = (np.exp((d[:, None] + d[None, :]) * 1.5) - 1.0) / (d[:, None] + d[None, :])
        assert np.abs(w_diag - (obs.T @ obs) * k).max() < 1e-10
        assert w_dense.shape == (4, 4) and np.allclose(w_dense, w_dense.T)

    def test_van_loan_on_rotated_diagonal_matches_closed_form(self):
        # M = Q diag(d) Q' is not diagonal, so the block exponential runs;
        # the Gramian of (M, O Q') is Q W_diag Q'.
        d = np.array([0.7, -0.7, 0.0, -2.5, -4.0])
        obs = np.random.default_rng(5).standard_normal((2, 5))
        q, _ = np.linalg.qr(np.random.default_rng(6).standard_normal((5, 5)))
        closed = q @ observability_gramian(np.diag(d), obs, 1.5) @ q.T
        van_loan = observability_gramian(q @ np.diag(d) @ q.T, obs @ q.T, 1.5)
        assert np.abs(van_loan - closed).max() <= 1e-12 * np.abs(closed).max()

    def test_van_loan_matches_fine_gauss_rule(self):
        rng = np.random.default_rng(2)
        m = rng.standard_normal((4, 4)) - 2 * np.eye(4)
        obs = rng.standard_normal((2, 4))
        oto = obs.T @ obs
        nodes, weights = gauss_nodes(0.0, 1.5, 256)
        quad = sum(wk * expm(m.T * s) @ oto @ expm(m * s) for s, wk in zip(nodes, weights))
        w = observability_gramian(m, obs, 1.5)
        assert np.abs(w - quad).max() <= 1e-10 * np.abs(quad).max()

    def test_singularity_agrees_with_rank_verdict(self):
        model = model_with_beta(1.0, n=3)
        groups = group_modes_by_eigenvalue(model)
        for sensors in random_sensor_configs(seed=0, n_configs=50):
            c = output_matrix(sensors, UNIT, model.mode_set)
            report = strategic_rank_test(c, groups)
            w = observability_gramian(model.A22, c, 2.0)
            min_eig = np.linalg.eigvalsh(w)[0]
            assert report.strategic == (min_eig >= 1e-8)


class TestPredicates:
    def test_pointwise_center_even_modes(self):
        modes = ModeSet.square(4)
        result = nonstrategic_pointwise_predicate(PointwiseSensor((0.5, 0.5)), UNIT, modes)
        assert result.triggered
        expected = tuple(m for m in modes if m.i % 2 == 0 or m.j % 2 == 0)
        assert result.modes == expected

    def test_pointwise_quarter(self):
        modes = ModeSet.square(4)
        result = nonstrategic_pointwise_predicate(PointwiseSensor((0.25, 0.7)), UNIT, modes)
        assert result.triggered
        assert result.modes == tuple(m for m in modes if m.i % 4 == 0)

    def test_pointwise_irrational_not_triggered(self):
        modes = ModeSet.square(8)
        b = (1 / math.sqrt(2), 1 / math.sqrt(3))
        result = nonstrategic_pointwise_predicate(PointwiseSensor(b), UNIT, modes)
        assert not result.triggered and result.modes == ()

    def test_zone_center_half(self):
        modes = ModeSet.square(4)
        sensor = ZoneSensor(Rect(0.4, 0.6, 0.17, 0.37))
        result = nonstrategic_zone_predicate(sensor, UNIT, modes)
        assert result.triggered
        assert result.modes == tuple(m for m in modes if m.i % 2 == 0)
        # Oracle: the symmetric-weight zone row vanishes exactly on those modes.
        row = output_matrix([sensor], UNIT, modes)[0]
        for k, m in enumerate(modes):
            if m in result.modes:
                assert abs(row[k]) < 1e-12
            else:
                assert abs(row[k]) > 1e-6

    def test_zone_center_third(self):
        modes = ModeSet.square(6)
        sensor = ZoneSensor(Rect(1 / 3 - 0.1, 1 / 3 + 0.1, 0.4, 0.6))
        result = nonstrategic_zone_predicate(sensor, UNIT, modes)
        assert result.axis_denominators == (3, 2)
        assert all(m.i % 3 == 0 or m.j % 2 == 0 for m in result.modes)
        assert any(m.i % 3 == 0 for m in result.modes)

    def test_zone_irrational_center_not_triggered(self):
        modes = ModeSet.square(8)
        cx, cy = 1 / math.sqrt(2), 1 / math.sqrt(3)
        sensor = ZoneSensor(Rect(cx - 0.05, cx + 0.05, cy - 0.05, cy + 0.05))
        assert not nonstrategic_zone_predicate(sensor, UNIT, modes).triggered

    def test_asymmetric_tabulated_weight_inapplicable(self):
        samples = tuple(tuple(float(i + 2 * j) for j in range(3)) for i in range(3))
        sensor = ZoneSensor(Rect(0.4, 0.6, 0.4, 0.6), weight="tabulated", samples=samples)
        with pytest.raises(PredicateInapplicableError):
            nonstrategic_zone_predicate(sensor, UNIT, ModeSet.square(2))

    def test_predicate_rank_agreement_on_lattice(self):
        # Every predicate hit inside the unstable set (beta = 6) must show up
        # as an offending unstable group in the rank test.
        modes = ModeSet.square(4)
        model = model_with_beta(6.0, n=4)
        groups = group_modes_by_eigenvalue(model)
        unstable = [g for g in groups if g.value >= 0.0]
        for a in range(1, 10):
            for b in range(1, 10):
                loc = (a / 10, b / 10)
                pred = nonstrategic_pointwise_predicate(PointwiseSensor(loc), UNIT, modes)
                hits = [k for k, g in enumerate(unstable) if set(pred.modes) & set(g.modes)]
                if not hits:
                    continue
                c = output_matrix([PointwiseSensor(loc)], UNIT, modes)
                report = strategic_rank_test(c, unstable)
                assert not report.strategic
                for k in hits:
                    assert k in report.offending
