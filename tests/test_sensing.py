import dataclasses
import fractions
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import python_env, random_sensor_configs, reference_groups, zone_row_quadrature
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
    nonstrategic_pointwise_predicate,
    nonstrategic_zone_predicate,
    observability_gramian,
    output_matrix,
    parse_config,
    placement_sweep,
    strategic_rank_test,
)
from regobs.geometry import gauss_nodes
from regobs.sensing import (
    TOL_GROUP,
    TOL_RANK,
    TOL_RAT,
    _axis_denominators,
    _group_layout,
    _lattice_triggered,
    _singular_values,
    _stacked_rank_test,
    group_values,
)
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
        sensors = [ZoneSensor(Rect(0.13, 0.57, 0.22, 0.91), weight=w) for w in ("uniform", "separable_sine")]
        # widths L/2 and L/4: the bump's frequency equals mode 2's, then mode 4's
        sensors.append(ZoneSensor(Rect(0.25, 0.75, 0.5, 0.75), weight="separable_sine"))
        for sensor in sensors:
            closed = output_matrix([sensor], UNIT, modes)[0]
            quad = zone_row_quadrature(sensor, UNIT, modes, 32)
            assert np.abs(closed - quad).max() < 1e-9

    @pytest.mark.parametrize("shape", [(2, 2), (3, 3), (5, 4), (9, 9), (40, 3)])
    def test_tabulated_matches_per_cell_quadrature(self, shape):
        modes = ModeSet.square(8)
        samples = np.random.default_rng(shape[0] * shape[1]).uniform(-1.0, 1.0, shape)
        sensor = ZoneSensor(Rect(0.17, 0.59, 0.35, 0.95), weight="tabulated", samples=tuple(map(tuple, samples)))
        # the second domain's origin is not 0, so the hats' offsets from it count
        for domain in (Domain(0.0, 1.0, 0.0, 1.3), Domain(0.1, 1.1, -0.2, 1.1)):
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
            [sys.executable, "-c",
             "import sys, regobs.cli; print('scipy.interpolate' in sys.modules, 'scipy.linalg' in sys.modules)"],
            capture_output=True, text=True, check=True, env=python_env(),
        )
        assert proc.stdout.strip() == "False False"

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

    def test_empty_sensor_list_rejected(self):
        with pytest.raises(ValueError, match="sensor list must be nonempty"):
            output_matrix([], UNIT, ModeSet.square(2))


@settings(max_examples=100, deadline=None)
@given(n_side=st.integers(1, 8), tall=st.booleans(), mf=st.sampled_from([1, 2]), alpha=st.floats(0.05, 2.0),
       gamma=st.floats(0.05, 2.0), beta=st.floats(-8.0, 8.0),
       nudges=st.lists(st.tuples(st.integers(0, 2**16), st.integers(0, 2**16),
                                 st.sampled_from([-1.0, 1.0]) | st.floats(-2.0, 2.0), st.booleans()), max_size=6))
@example(n_side=4, tall=False, mf=1, alpha=1.0, gamma=0.1, beta=3.0, nudges=[])
@example(n_side=2, tall=True, mf=2, alpha=1.0, gamma=0.1, beta=3.0, nudges=[(0, 1, 1.0, True), (2, 1, -1.0, False)])
def test_grouping_matches_sort_and_chain_oracle(n_side, tall, mf, alpha, gamma, beta, nudges):
    # each nudge puts one value u TOL_GROUP (relative, floor 1) from another,
    # |u| <= 2, so values fall on both sides of a group's edge and chains of
    # near values form; a nudge from a value first set to 0 with u = +-1 lies
    # exactly on the edge, and the unit square adds exact ties
    domain = Domain(0.0, 1.0, 0.0, 1.3) if tall else UNIT
    model = assemble_exchange_model(Coefficients(alpha, gamma, beta), domain, ModeSet.square(n_side))
    values = model.diagonals(mf)[2].copy()
    for dst, src, u, zero in nudges:
        if zero:
            values[src % values.size] = 0.0
        ref = values[src % values.size]
        values[dst % values.size] = ref + u * TOL_GROUP * max(1.0, abs(ref))
    nudged = dataclasses.replace(model, **{"a22" if mf == 1 else "a11": values})
    assert group_modes_by_eigenvalue(nudged, mf) == reference_groups(values, model.mode_set)


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
        report = strategic_rank_test(np.zeros((0, 4)), groups)
        assert not report.strategic
        assert len(report.offending) == len(groups)

    def test_all_zero_output_not_strategic(self):
        model = model_with_beta(1.0)
        groups = group_modes_by_eigenvalue(model)
        report = strategic_rank_test(np.zeros((2, 4)), groups)
        assert not report.strategic
        assert len(report.offending) == len(groups)

    @pytest.mark.parametrize("shape", [(40, 1, 1), (6, 5, 1, 1), (40, 1, 3), (40, 3, 1), (8, 4, 1, 64), (8, 4, 64, 1)])
    def test_vector_block_singular_value_is_scaled_norm(self, shape):
        rng = np.random.default_rng(sum(shape))
        for scale in (1.0, 1e-160, 1e150):
            blocks = scale * rng.standard_normal(shape)
            s = _singular_values(blocks)
            svd = np.linalg.svd(blocks, compute_uv=False)
            assert s.shape == svd.shape
            assert np.all(np.abs(s - svd) <= 4 * np.spacing(svd))
            if shape[-2:] == (1, 1):
                # |c| exactly, as LAPACK returns it unless it first rescales a
                # matrix whose norm lies outside about [1e-138, 1e138]
                assert np.array_equal(s[..., 0], np.abs(blocks[..., 0, 0]))
                if scale == 1.0:
                    assert np.array_equal(s, svd)
        assert not _singular_values(np.zeros(shape)).any()

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


def _rank_test_by_svd(stack, groups):
    """Ranks and verdicts with LAPACK's svd of every block, one position at a time."""
    ranks = []
    for c in stack:
        scale = np.linalg.svd(c, compute_uv=False)[0]
        ranks.append([int(np.sum(np.linalg.svd(c[:, list(g.positions)], compute_uv=False) > TOL_RANK * scale))
                      if scale > 0 else 0 for g in groups])
    ranks = np.array(ranks)
    mult = np.array([g.multiplicity for g in groups])
    return ranks, (stack.shape[1] >= mult.max()) & (ranks >= mult).all(axis=1)


@settings(max_examples=40, deadline=None)
@given(q=st.integers(1, 3), tall=st.booleans(), n_side=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
def test_rank_test_matches_svd_of_every_block(q, tall, n_side, seed):
    # pointwise suites at 12 positions, some on nodal lines, so blind groups,
    # round-off blocks and full-rank ones all occur; the unit square has
    # multiplicity-2 groups, whose blocks are vectors only for q = 1
    domain = Domain(0.0, 1.0, 0.0, 1.3 if tall else 1.0)
    modes = ModeSet.square(n_side)
    groups = group_values(assemble_exchange_model(Coefficients(1.0, 0.1, 3.0), domain, modes).a22, modes)
    rng = np.random.default_rng(seed)
    points = np.where(rng.random((12, q, 2)) < 0.3, [0.5 * domain.length1, domain.length2 / 3],
                      rng.uniform(0.05, 0.95, (12, q, 2)) * [domain.length1, domain.length2])
    stack = np.stack([output_matrix([PointwiseSensor(tuple(p)) for p in suite.tolist()], domain, modes)
                      for suite in points])
    layout = _group_layout(groups)
    unscaled = _stacked_rank_test(stack, layout)
    for scale in (1.0, 1e-160):
        ranks, _, _, strategic = _stacked_rank_test(scale * stack, layout)
        ref_ranks, ref_strategic = _rank_test_by_svd(scale * stack, groups)
        assert np.array_equal(ranks, ref_ranks) and np.array_equal(strategic, ref_strategic)
        assert np.array_equal(ranks, unscaled[0]) and np.array_equal(strategic, unscaled[3])


@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("scale", [1.0, 1e-160])
def test_report_singular_values_are_each_blocks(q, scale):
    # N = 8 on the unit square has groups of multiplicity 1 to 4, so the
    # blocks are 1 x 1, row and column vectors and full svd blocks; one
    # suite of each size sits on nodal lines, where blocks are round-off
    modes = ModeSet.square(8)
    groups = group_modes_by_eigenvalue(model_with_beta(3.0, n=8))
    rng = np.random.default_rng(q)
    for points in (rng.uniform(0.05, 0.95, (q, 2)), np.full((q, 2), 0.5) + rng.uniform(0, 1e-3, (q, 2))):
        c = scale * output_matrix([PointwiseSensor(tuple(p)) for p in points.tolist()], UNIT, modes)
        report = strategic_rank_test(c, groups)
        for block in report.blocks:
            expected = _singular_values(c[:, list(block.group.positions)])
            assert np.array(block.singular_values).tobytes() == expected.tobytes()
            assert all(type(s) is float for s in block.singular_values)


def _symmetrized_closed_form(d, obs, t_horizon):
    """The diagonal Gramian with an explicit (W + W')/2 pass: the reference
    the closed form must equal bit for bit."""
    d_sum = d[:, None] + d[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        k = np.where(d_sum != 0.0, np.expm1(d_sum * t_horizon) / d_sum, t_horizon)
    w = (np.swapaxes(obs, -1, -2) @ obs) * k
    return (w + np.swapaxes(w, -1, -2)) * 0.5


@settings(max_examples=60, deadline=None)
@given(base=st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=6), mirrored=st.integers(0, 6),
       q=st.integers(1, 3), stack=st.integers(0, 4), t_horizon=st.floats(0.05, 5.0), seed=st.integers(0, 2**32 - 1))
def test_diagonal_gramian_is_exactly_symmetric(base, mirrored, q, stack, t_horizon, seed):
    # mirrored entries give pairs with d_i + d_j = 0, where K_ij = T
    d = np.array(base + [-x for x in base[:mirrored]])
    shape = (stack, q, d.size) if stack else (q, d.size)
    obs = np.random.default_rng(seed).standard_normal(shape)
    w = observability_gramian(d, obs, t_horizon)
    assert np.array_equal(w, np.swapaxes(w, -1, -2))
    assert np.array_equal(w, _symmetrized_closed_form(d, obs, t_horizon))


class TestGramian:
    def test_scalar_infinite_horizon_limit(self):
        w = observability_gramian(np.array([-1.0]), np.array([[1.0]]), 20.0)
        assert w[0, 0] == pytest.approx(0.5, abs=1e-10)

    def test_zero_observation(self):
        w = observability_gramian(-np.ones(3), np.zeros((1, 3)), 5.0)
        assert not w.any()

    def test_single_mode_exchange_block(self):
        d = 1 - 0.2 * PI2  # a22 entry for gamma=0.1, beta=1, mode (1,1)
        w = observability_gramian(np.array([d]), np.array([[-1.0]]), 1.0)
        oracle = (1 - math.exp(2 * d)) / (-2 * d)
        assert w[0, 0] == pytest.approx(oracle, abs=1e-12)

    def test_rejects_nonpositive_horizon(self):
        with pytest.raises(ValueError):
            observability_gramian(np.ones(2), np.eye(2), 0.0)

    def test_rejects_nan_horizon(self):
        # not as an overflow: a NaN horizon is no horizon at all
        with pytest.raises(ValueError, match="t_horizon must be > 0"):
            observability_gramian(np.ones(2), np.eye(2), math.nan)

    def test_closed_form_zero_sum_limit(self):
        # d_i + d_j = 0 gives the integral of 1 over [0, T]: exactly T O'O
        d = np.array([0.7, -0.7, 0.0])
        obs = np.array([[1.0, 2.0, -1.5]])
        w = observability_gramian(d, obs, 1.5)
        assert w[0, 1] == w[1, 0] == 2.0 * 1.5
        assert w[2, 2] == 1.5**2 * 1.5
        near = observability_gramian(np.array([0.7, -0.7 + 1e-9, 0.0]), obs, 1.5)
        assert near[0, 1] == pytest.approx(3.0, rel=1e-8)

    def test_stack_matches_one_map_at_a_time(self):
        rng = np.random.default_rng(5)
        d = -rng.uniform(0.5, 3.0, 4)
        stack = rng.standard_normal((3, 2, 4))
        w = observability_gramian(d, stack, 1.5)
        assert w.shape == (3, 4, 4)
        for wp, obs in zip(w, stack):
            one = observability_gramian(d, obs, 1.5)
            assert np.abs(wp - one).max() <= 1e-13 * np.abs(one).max()

    def test_overflowing_horizon_raises(self):
        # W grows like e^{2T}, past the largest double by T = 400; the closed
        # form refuses to return inf or nan
        d = np.array([1.0, -2.0])
        obs = np.array([[1.0, 1.0]])
        assert np.isfinite(observability_gramian(d, obs, 100.0)).all()
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="overflows"):
            observability_gramian(d, obs, 400.0)

    def test_quadrature_matches_dense_path(self):
        rng = np.random.default_rng(2)
        d = np.diag(rng.standard_normal((4, 4))) - 2.0
        obs = rng.standard_normal((2, 4))
        w_diag = observability_gramian(d, obs, 1.5)
        k = (np.exp((d[:, None] + d[None, :]) * 1.5) - 1.0) / (d[:, None] + d[None, :])
        assert np.abs(w_diag - (obs.T @ obs) * k).max() < 1e-10

    def test_closed_form_matches_fine_gauss_rule(self):
        # the integrand (O'O)_ij exp((d_i + d_j) s) is entire, so 256 nodes
        # converge to round-off; growing, decaying and cancelling rates
        d = np.array([0.7, -0.7, 0.0, -2.5, -4.0, 1.3])
        obs = np.random.default_rng(2).standard_normal((2, d.size))
        nodes, weights = gauss_nodes(0.0, 1.5, 256)
        quad = (obs.T @ obs) * sum(wk * np.exp((d[:, None] + d[None, :]) * s) for s, wk in zip(nodes, weights))
        w = observability_gramian(d, obs, 1.5)
        assert np.abs(w - quad).max() <= 1e-12 * np.abs(quad).max()

    def test_singularity_agrees_with_rank_verdict(self):
        model = model_with_beta(1.0, n=3)
        groups = group_modes_by_eigenvalue(model)
        for sensors in random_sensor_configs(seed=0, n_configs=50):
            c = output_matrix(sensors, UNIT, model.mode_set)
            report = strategic_rank_test(c, groups)
            w = observability_gramian(model.a22, c, 2.0)
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

    def test_nearly_symmetric_tabulated_weight_inapplicable(self):
        # Asymmetric by 1e-6 in one sample: the rows of (2, 2) and (4, 4), which
        # a symmetric weight centred at (0.5, 0.4) would zero, are 2.5e-9 and
        # 8.3e-9 of max|C| and the rank test counts both modes as observed, so
        # no predicate may flag them.
        samples = ((1.0, 2.0, 1.0), (2.0, 4.0, 2.0), (1.0, 2.0, 1.0 + 1e-6))
        sensor = ZoneSensor(Rect(0.4, 0.6, 0.3, 0.5), weight="tabulated", samples=samples)
        modes = ModeSet.square(4)
        with pytest.raises(PredicateInapplicableError):
            nonstrategic_zone_predicate(sensor, UNIT, modes)
        assert _lattice_triggered(sensor, UNIT, modes, [0.5], [0.4]) == [[()]]
        c = output_matrix([sensor], UNIT, modes)
        groups = group_modes_by_eigenvalue(model_with_beta(3.0, n=4))
        report = strategic_rank_test(c, groups)
        for mode in (ModeIndex(2, 2), ModeIndex(4, 4)):
            assert 0 < abs(c[0, modes.position(mode)]) < 1e-8 * np.abs(c).max()
            k = next(k for k, block in enumerate(report.blocks) if mode in block.group.modes)
            assert report.blocks[k].rank == 1 and k not in report.offending

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


def _limit_denominator(ratio, max_den):
    """The oracle: the best approximation p/q, q <= max_den, of the ratio
    (Fraction.limit_denominator), kept when it lies within TOL_RAT."""
    frac = fractions.Fraction(ratio).limit_denominator(max_den)
    return frac.denominator if abs(ratio - float(frac)) <= TOL_RAT else None


def _assert_matches_oracle(ratios, max_den):
    found = _axis_denominators(ratios, max_den)
    assert found == [_limit_denominator(r, max_den) for r in ratios]
    assert all(q is None or type(q) is int for q in found)
    return found


class TestAxisDenominators:
    @settings(max_examples=200, deadline=None)
    @given(ratios=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40), max_den=st.integers(1, 96))
    @example(ratios=[0.0, 1.0], max_den=1)
    @example(ratios=[0.0, 1.0], max_den=96)
    def test_random_ratios(self, ratios, max_den):
        _assert_matches_oracle(ratios, max_den)

    def test_every_exact_fraction(self):
        for max_den in range(1, 97):
            pairs = [(p, q) for q in range(1, max_den + 1) for p in range(q + 1)]
            found = _assert_matches_oracle([p / q for p, q in pairs], max_den)
            assert found == [q // math.gcd(p, q) for p, q in pairs]

    @settings(max_examples=300, deadline=None)
    @given(q=st.integers(1, 96), p_share=st.floats(0.0, 1.0), sign=st.sampled_from((-1.0, 1.0)),
           side=st.sampled_from((-1.0, 1.0)), max_den=st.integers(1, 96))
    def test_ratios_either_side_of_the_tolerance(self, q, p_share, sign, side, max_den):
        p = round(p_share * q)
        ratio = p / q + sign * TOL_RAT * (1 + side * 1e-6)
        (found,) = _assert_matches_oracle([ratio], max_den)
        if q <= max_den:
            assert found == (q // math.gcd(p, q) if side < 0 else None)

    def test_every_fraction_either_side_of_the_tolerance(self):
        pairs = [(p, q) for q in range(1, 97) for p in range(q + 1)]
        for sign in (-1.0, 1.0):
            for side in (-1.0, 1.0):
                found = _assert_matches_oracle([p / q + sign * TOL_RAT * (1 + side * 1e-6) for p, q in pairs], 96)
                assert found == [q // math.gcd(p, q) if side < 0 else None for p, q in pairs]

    def test_grid33_sweep_constructs_no_fraction(self):
        cfg = parse_config("domain.beta2 = 1.3\nsensor.1.kind = pointwise\nsensor.1.location = 0.3, 0.4\n")
        original = vars(fractions.Fraction)["__new__"]
        made = []

        def counting_new(cls, *args, **kwargs):
            made.append(args)
            return original.__func__(cls, *args, **kwargs)

        fractions.Fraction.__new__ = staticmethod(counting_new)
        try:
            result = placement_sweep(cfg, 33)
            assert made == []
            fractions.Fraction(0.25)  # the count sees a construction
            assert made == [(0.25,)]
        finally:
            fractions.Fraction.__new__ = original
        assert result.strategic.size == 33 * 33 and any(any(row) for row in result.triggered)
