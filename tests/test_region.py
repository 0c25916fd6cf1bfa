import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from regobs import (
    BoundarySegment,
    Coefficients,
    Domain,
    InternalRectangle,
    ModeIndex,
    ModeSet,
    PointwiseSensor,
    Rect,
    assemble_exchange_model,
    build_collar,
    eigenvalues,
    eval_matrix,
    fit_decay,
    gamma_error_norm,
    load_config,
    output_matrix,
    restrict_trace,
    simulate_reduced_order,
)
from regobs import geometry
from regobs.geometry import edge_segment, gauss_nodes
from regobs.region import SeparableGram, gram_norm_series, region_gram, region_operator, region_quadrature
from regobs.observer import ObserverGain, split_unstable_stable

UNIT = Domain()
PI2 = math.pi**2
FULL_SQUARE = InternalRectangle(Rect(0.0, 1.0, 0.0, 1.0))
COLLAR_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "boundary_collar.cfg"


def quadrature_gram(region, domain, modes):
    pts, w = region_quadrature(region, domain)
    phi = eval_matrix(domain, modes, pts)
    return phi.T @ (w[:, None] * phi)


class TestGaussNodes:
    @pytest.mark.parametrize("n", [1, 2, 7, 64])
    def test_cached_rule_is_bitwise_the_scaled_leggauss(self, n):
        x, w = np.polynomial.legendre.leggauss(n)
        for lo, hi in ((0.0, 1.0), (-0.3, 0.45), (0.2, 0.2 + 1e-9)):
            nodes, weights = gauss_nodes(lo, hi, n)
            assert nodes.tobytes() == (0.5 * (hi - lo) * x + 0.5 * (hi + lo)).tobytes()
            assert weights.tobytes() == (0.5 * (hi - lo) * w).tobytes()

    def test_collar_builds_each_rule_once_and_shares_it_read_only(self):
        geometry._legendre_rule.cache_clear()
        with mock.patch.object(geometry, "leggauss", wraps=np.polynomial.legendre.leggauss) as built:
            first = build_collar(BoundarySegment("bottom", 0.2, 0.7), 0.3, UNIT)
            second = build_collar(BoundarySegment("bottom", 0.2, 0.7), 0.3, UNIT)
        assert built.call_count == 1
        assert first.points.tobytes() == second.points.tobytes()
        assert first.weights.tobytes() == second.weights.tobytes()
        x, w = geometry._legendre_rule(64)
        assert not x.flags.writeable and not w.flags.writeable
        # the scaled arrays are the caller's own
        nodes, weights = gauss_nodes(0.0, 1.0, 64)
        nodes[:] = weights[:] = 0.0
        assert gauss_nodes(0.0, 1.0, 64)[0].any()


class TestRestrictTrace:
    def test_dirichlet_boundary_trace_vanishes(self):
        modes = ModeSet.square(3)
        coeffs = np.arange(1.0, 10.0)
        segment = BoundarySegment("bottom", 0.1, 0.9)
        values = restrict_trace(coeffs, UNIT, modes, segment)
        assert np.abs(values).max() < 1e-12

    def test_single_mode_at_center(self):
        modes = ModeSet((ModeIndex(1, 1),))
        region = InternalRectangle(Rect(0.0, 1.0, 0.0, 1.0), n_quad=3)
        pts, _ = region_quadrature(region, UNIT)
        values = restrict_trace(np.array([0.7]), UNIT, modes, region)
        center = np.argmin(np.abs(pts - 0.5).sum(axis=1))
        assert values[center] == pytest.approx(
            0.7 * 2 * math.sin(math.pi * pts[center, 0]) * math.sin(math.pi * pts[center, 1]), abs=1e-12
        )

    def test_mixed_field_point_value(self):
        # c1 phi_11 + c2 phi_21 at (0.25, 0.5) = sqrt(2) c1 + 2 c2
        modes = ModeSet((ModeIndex(1, 1), ModeIndex(2, 1)))
        c1, c2 = 0.4, -1.3
        from regobs import eval_matrix

        val = (eval_matrix(UNIT, modes, [(0.25, 0.5)]) @ np.array([c1, c2]))[0]
        assert val == pytest.approx(math.sqrt(2) * c1 + 2 * c2, abs=1e-12)

    def test_linearity(self):
        modes = ModeSet.square(3)
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal(9), rng.standard_normal(9)
        a, b = 1.7, -0.4
        region = InternalRectangle(Rect(0.1, 0.6, 0.2, 0.9), n_quad=8)
        lhs = restrict_trace(a * x + b * y, UNIT, modes, region)
        rhs = a * restrict_trace(x, UNIT, modes, region) + b * restrict_trace(y, UNIT, modes, region)
        assert np.abs(lhs - rhs).max() < 1e-12


class TestGammaErrorNorm:
    def test_identical_fields_zero(self):
        modes = ModeSet.square(2)
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert gamma_error_norm(x, x, UNIT, modes, FULL_SQUARE) == 0.0

    def test_unit_mode_l2_norm_one(self):
        modes = ModeSet.square(2)
        err = np.array([1.0, 0.0, 0.0, 0.0])
        norm = gamma_error_norm(np.zeros(4), err, UNIT, modes, FULL_SQUARE)
        assert norm == pytest.approx(1.0, abs=1e-10)

    def test_unit_mode_sobolev_surrogate(self):
        modes = ModeSet.square(2)
        err = np.array([1.0, 0.0, 0.0, 0.0])
        norm = gamma_error_norm(np.zeros(4), err, UNIT, modes, FULL_SQUARE, weight="sobolev_half")
        assert norm == pytest.approx((1 + 2 * PI2) ** 0.25, abs=1e-8)

    def test_norm_positive_definite_on_truncation(self):
        # Indicator-projection Gram matrix of the region must be positive
        # definite, so the restricted norm vanishes only at zero coefficients.
        modes = ModeSet.square(4)
        region = InternalRectangle(Rect(0.55, 0.95, 0.05, 0.45))
        from regobs import eval_matrix

        pts, w = region_quadrature(region, UNIT)
        phi = eval_matrix(UNIT, modes, pts)
        gram = phi.T @ (w[:, None] * phi)
        # restricted modes are nearly dependent on a small region, so lambda_min
        # is tiny (~2e-9 here) but strictly above round-off zero
        assert np.linalg.eigvalsh(gram)[0] > 1e-10
        rng = np.random.default_rng(1)
        for _ in range(5):
            coeffs = rng.standard_normal(16)
            assert gamma_error_norm(np.zeros(16), coeffs, UNIT, modes, region) > 1e-6

    def test_norm_choice_preserves_decay_rate(self):
        model = assemble_exchange_model(Coefficients(1.0, 0.1, 3.0), UNIT, ModeSet.square(2))
        sensors = [PointwiseSensor((0.23, 0.31)), PointwiseSensor((0.57, 0.43))]
        from regobs import design_gain, output_matrix, reduced_output_map

        c = output_matrix(sensors, UNIT, model.mode_set)
        split = split_unstable_stable(model.a22, 0.0)
        gain = design_gain(reduced_output_map(model, c), split, 1.0, sensor_matrix=c)
        x0 = np.array([0.3, -0.2, 0.4, 0.1, 1.0, 0.1, 0.1, 0.1])
        traj = simulate_reduced_order(model, sensors, gain, x0, -gain.H @ (c @ x0[:4]), 0.01, 5.0)
        err = traj.x2_hat - traj.x2
        region = InternalRectangle(Rect(0.2, 0.8, 0.2, 0.8))
        fits = []
        for weight in ("l2", "sobolev_half"):
            series = gram_norm_series(err, region_gram(region, UNIT, model.mode_set), UNIT, model.mode_set, weight)
            fits.append(fit_decay(traj.times, series, window=(1.0, 5.0)).alpha_fit)
        assert abs(fits[0] - fits[1]) / abs(fits[0]) < 0.02


class TestRegionGram:
    def test_rectangle_closed_form_matches_quadrature(self):
        domain = Domain(0.0, 1.0, 0.0, 1.3)
        modes = ModeSet.square(8)
        region = InternalRectangle(Rect(0.13, 0.58, 0.71, 1.17))
        exact = region_gram(region, domain, modes)
        quad = quadrature_gram(region, domain, modes)
        assert np.abs(exact - quad).max() <= 1e-12 * np.abs(quad).max()

    def test_full_domain_gram_is_identity(self):
        modes = ModeSet.square(4)
        assert np.abs(region_gram(FULL_SQUARE, UNIT, modes) - np.eye(16)).max() < 1e-14

    @pytest.mark.parametrize("weight", ["l2", "sobolev_half"])
    def test_collar_norm_matches_nodewise_quadrature(self, weight):
        # the Gram form against the norm evaluated at every quadrature node
        modes = ModeSet.square(5)
        collar = build_collar(BoundarySegment("left", 0.2, 0.7), 0.15, UNIT)
        err = np.random.default_rng(3).standard_normal((7, 25))
        vals = err @ eval_matrix(UNIT, modes, collar.points).T
        if weight == "l2":
            nodewise = np.sqrt((vals**2) @ collar.weights)
        else:
            sob = np.sqrt(1.0 + np.abs(eigenvalues(modes, UNIT)))
            nodewise = np.sqrt((((vals * collar.weights) @ eval_matrix(UNIT, modes, collar.points)) ** 2) @ sob)
        got = gram_norm_series(err, region_gram(collar, UNIT, modes), UNIT, modes, weight)
        assert np.abs(got - nodewise).max() <= 1e-12 * nodewise.max()

    @pytest.mark.parametrize("weight", ["l2", "sobolev_half"])
    @pytest.mark.parametrize("modes", [
        ModeSet.square(6),
        ModeSet(tuple(ModeIndex(i, j) for i in range(1, 8) for j in range(1, 5))),  # max_i != max_j
        ModeSet(tuple(ModeIndex(i, j) for j in range(1, 5) for i in range(1, 8))),  # column-major
        ModeSet(tuple(ModeIndex(*m) for m in np.random.default_rng(5).permutation(ModeSet.square(5).modes).tolist())),
        ModeSet(tuple(ModeIndex(i, j) for i in range(1, 8) for j in range(1, 8) if i + j <= 8)),  # not a grid
    ], ids=["square", "non-square", "column-major", "shuffled", "triangle"])
    def test_separable_norm_matches_dense_gram(self, weight, modes):
        # the run's separable contraction against the dense n x n Gram
        domain = Domain(0.0, 1.0, 0.0, 1.3)
        region = InternalRectangle(Rect(0.13, 0.58, 0.71, 1.17))
        operator = region_operator(region, domain, modes)
        assert isinstance(operator, SeparableGram)
        err = np.random.default_rng(7).standard_normal((6, len(modes)))
        err[1] = 0.0
        err[2, ::3] = 1e-310  # subnormal: flushed by both forms
        before = err.copy()
        got = gram_norm_series(err, operator, domain, modes, weight)
        ref = gram_norm_series(err, region_gram(region, domain, modes), domain, modes, weight)
        assert (np.abs(got - ref) <= 1e-13 * ref).all()
        assert got[1] == 0.0
        assert err.tobytes() == before.tobytes()

    def test_unknown_weight_rejected(self):
        with pytest.raises(ValueError):
            gram_norm_series(np.zeros((1, 4)), np.eye(4), UNIT, ModeSet.square(2), "h1")


class TestCollar:
    def test_members_match_scalar_distance_rule(self):
        def scalar_distance(point, a, b):
            px, py = point
            (ax, ay), (bx, by) = a, b
            dx, dy = bx - ax, by - ay
            t = min(1.0, max(0.0, ((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy)))
            return math.hypot(px - (ax + t * dx), py - (ay + t * dy))

        cfg = load_config(str(COLLAR_CONFIG))
        gamma, radius, domain = cfg.region, cfg.collar_radius, cfg.domain
        collar = build_collar(gamma, radius, domain)
        a, b = edge_segment(domain, gamma.edge, gamma.lo, gamma.hi)
        lo1 = max(domain.alpha1, min(a[0], b[0]) - radius)
        hi1 = min(domain.beta1, max(a[0], b[0]) + radius)
        lo2 = max(domain.alpha2, min(a[1], b[1]) - radius)
        hi2 = min(domain.beta2, max(a[1], b[1]) + radius)
        xs, wx = gauss_nodes(lo1, hi1, gamma.n_quad)
        ys, wy = gauss_nodes(lo2, hi2, gamma.n_quad)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        member = np.array([scalar_distance(p, a, b) < radius for p in pts])
        assert 0 < member.sum() < member.size
        assert np.array_equal(collar.points, pts[member])
        assert np.array_equal(collar.weights, np.outer(wx, wy).ravel()[member])
        assert all(collar.contains(p) for p in collar.points[::17])

    def test_membership_examples(self):
        gamma = BoundarySegment("bottom", 0.25, 0.75)
        collar = build_collar(gamma, 0.1, UNIT)
        assert collar.contains((0.5, 0.05))
        assert not collar.contains((0.9, 0.05))  # distance ~0.158 > 0.1
        assert not collar.contains((0.5, -0.01))

    def test_all_quadrature_points_are_members(self):
        gamma = BoundarySegment("left", 0.2, 0.6)
        collar = build_collar(gamma, 0.15, UNIT)
        assert collar.points.shape[0] > 0
        for p in collar.points[::37]:
            assert collar.contains(p)

    def test_segment_coverage(self):
        # every point of the segment is within radius of some collar node
        gamma = BoundarySegment("top", 0.3, 0.7)
        collar = build_collar(gamma, 0.12, UNIT)
        for s in np.linspace(0.3, 0.7, 21):
            d = np.hypot(collar.points[:, 0] - s, collar.points[:, 1] - 1.0).min()
            assert d < 0.12

    def test_nodes_follow_the_segment_n_quad(self):
        # the collar is the members of the segment's own n_quad x n_quad rule
        gamma = BoundarySegment("bottom", 0.2, 0.7, n_quad=16)
        collar = build_collar(gamma, 0.15, UNIT)
        xs, wx = gauss_nodes(0.2 - 0.15, 0.7 + 0.15, 16)
        ys, wy = gauss_nodes(0.0, 0.15, 16)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        member = np.array([collar.contains(p) for p in pts])
        assert 0 < member.sum() < member.size
        assert np.array_equal(collar.points, pts[member])
        assert np.array_equal(collar.weights, np.outer(wx, wy).ravel()[member])

    def test_large_radius_degenerates_to_domain(self):
        gamma = BoundarySegment("bottom", 0.0, 1.0, n_quad=16)
        collar = build_collar(gamma, 5.0, UNIT)
        assert collar.points.shape[0] == 16 * 16  # nothing filtered
        assert collar.weights.sum() == pytest.approx(1.0, abs=1e-10)

    def test_zero_collar_norm_implies_zero_trace(self):
        modes = ModeSet.square(3)
        gamma = BoundarySegment("bottom", 0.25, 0.75)
        collar = build_collar(gamma, 0.1, UNIT)
        zero = np.zeros(9)
        assert gamma_error_norm(zero, zero, UNIT, modes, collar) == 0.0
        assert np.abs(restrict_trace(zero, UNIT, modes, gamma)).max() == 0.0
        rng = np.random.default_rng(2)
        for _ in range(10):
            coeffs = rng.standard_normal(9)
            collar_norm = gamma_error_norm(zero, coeffs, UNIT, modes, collar)
            trace_sup = np.abs(restrict_trace(coeffs, UNIT, modes, gamma)).max()
            if collar_norm < 1e-12 * np.linalg.norm(coeffs):
                assert trace_sup < 1e-9 * np.linalg.norm(coeffs)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            build_collar(BoundarySegment("bottom", 0.2, 0.8), 0.0, UNIT)


class TestFitDecay:
    def test_exact_exponential(self):
        t = np.arange(0.0, 5.0001, 0.1)
        fit = fit_decay(t, np.exp(-2.0 * t))
        assert fit.alpha_fit == pytest.approx(2.0, abs=1e-9)
        assert fit.residual < 1e-12

    def test_constant_series(self):
        t = np.linspace(0.0, 3.0, 31)
        fit = fit_decay(t, np.ones_like(t))
        assert fit.alpha_fit == pytest.approx(0.0, abs=1e-12)

    def test_noisy_series_within_one_percent(self):
        rng = np.random.default_rng(7)
        t = np.arange(0.0, 5.0001, 0.01)
        v = 3.0 * np.exp(-0.974 * t) + 1e-6 * rng.random(t.shape)
        fit = fit_decay(t, v, window=(1.0, 5.0))
        assert abs(fit.alpha_fit - 0.974) / 0.974 < 0.01

    def test_floors_nonpositive_values(self):
        t = np.linspace(0.0, 1.0, 11)
        v = np.exp(-t)
        v[3] = 0.0
        fit = fit_decay(t, v)
        assert fit.n_floored == 1

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_decay(np.array([0.0, 1.0]), np.array([1.0, 0.5]))

    def test_window_selects_samples(self):
        t = np.arange(0.0, 10.0001, 0.1)
        v = np.exp(-1.0 * t) + 5.0 * np.exp(-8.0 * t)
        fit = fit_decay(t, v, window=(4.0, 10.0))
        assert abs(fit.alpha_fit - 1.0) < 1e-3
        assert fit.t_lo == pytest.approx(4.0)


class TestRegionValidation:
    def test_segment_outside_edge(self):
        seg = BoundarySegment("bottom", -0.5, 0.5)
        with pytest.raises(ValueError):
            region_quadrature(seg, UNIT)

    def test_rect_outside_domain(self):
        region = InternalRectangle(Rect(0.5, 1.5, 0.0, 1.0))
        with pytest.raises(ValueError):
            region_quadrature(region, UNIT)
        with pytest.raises(ValueError, match="internal rectangle outside domain"):
            region_gram(region, UNIT, ModeSet.square(2))

    def test_unknown_edge(self):
        with pytest.raises(ValueError):
            BoundarySegment("diagonal", 0.0, 1.0)
