"""The lattice-row placement sweep against a per-position loop of the public
sensing calls, and the predicate/rank-test consistency it relies on."""

import dataclasses
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from regobs import (
    Coefficients,
    Domain,
    ModeSet,
    PointwiseSensor,
    PredicateInapplicableError,
    Rect,
    ZoneSensor,
    assemble_exchange_model,
    nonstrategic_pointwise_predicate,
    nonstrategic_zone_predicate,
    observability_gramian,
    output_matrix,
    parse_config,
    placement_sweep,
    strategic_rank_test,
)
from regobs import sensing
from regobs.sensing import ModeGroup, group_values
from regobs.spectral import ModeIndex

BASE = "coefficients.beta_couple = 3.0\nsimulation.n_modes = 4\nobserver.gramian_horizon = 2.0\n"
TALL = "domain.beta2 = 1.3\n"
SYMMETRIC = ((1.0, 2.0, 1.0), (2.0, 4.0, 2.0), (1.0, 2.0, 1.0))
ASYMMETRIC = ((1.0, 2.0, 3.0), (2.0, 4.0, 2.0), (1.0, 2.0, 1.0))
FIXED = PointwiseSensor((0.41, 0.67))


def _varied(kind):
    if kind == "pointwise":
        return PointwiseSensor((0.23, 0.31))
    rect = Rect(0.2, 0.4, 0.3, 0.5)
    if kind == "tabulated_symmetric":
        return ZoneSensor(rect, "tabulated", SYMMETRIC)
    if kind == "tabulated_asymmetric":
        return ZoneSensor(rect, "tabulated", ASYMMETRIC)
    return ZoneSensor(rect, kind)


def _at(sensor, b1, b2):
    if isinstance(sensor, PointwiseSensor):
        return PointwiseSensor((b1, b2))
    h1, h2 = sensor.rect.half_widths
    return ZoneSensor(Rect(b1 - h1, b1 + h1, b2 - h2, b2 + h2), sensor.weight, sensor.samples)


def _modes_and_a_ww(cfg):
    modes = ModeSet.square(cfg.simulation.n_modes)
    model = assemble_exchange_model(cfg.coefficients, cfg.domain, modes)
    return modes, model.diagonals(cfg.observer.measured_field)[2]


def _kernel(d, t_horizon):
    """K_ij = int_0^T e^{(d_i + d_j) t} dt, entry by entry."""
    return np.array([[np.expm1(s * t_horizon) / s if s else t_horizon for s in d + di] for di in d])


def _sweep_runs_eigvalsh(cfg):
    """q r >= n, with r the count of eigenvalues of the kernel's correlation
    C_ij = K_ij / sqrt(K_ii K_jj) above eps times the largest: below that, the
    rank-(q r) part of W = O'O * K puts W within the bound of _per_position
    of a singular matrix, and the sweep writes 0 with no eigensolve."""
    d = _modes_and_a_ww(cfg)[1]
    k = _kernel(d, cfg.observer.gramian_horizon)
    lam = np.linalg.eigvalsh(k / np.sqrt(np.outer(np.diag(k), np.diag(k))))
    return len(cfg.sensors) * np.count_nonzero(lam > np.finfo(float).eps * lam[-1]) >= d.size


def _positions(result):
    """(b1, b2) of each lattice position of a sweep, row-major (b1 outer)."""
    return [(x, y) for x in result.b1.tolist() for y in result.b2.tolist()]


def _columns(result):
    """The sweep's verdicts, eigenvalues and flags, one per position in the
    order of _positions."""
    return (result.strategic.ravel().tolist(), result.min_gramian_eig.ravel().tolist(),
            [t for row in result.triggered for t in row])


def _per_position(cfg, result):
    """(strategic, min eig, trace, bound, triggered) of each position of the
    sweep, one position at a time through the public calls.  bound is
    n eps sum_s max_i c_si^2 K_ii, the distance of a numerically singular
    Gramian's smallest eigenvalue from 0 (sensing._kernel_rank)."""
    modes, a_ww = _modes_and_a_ww(cfg)
    groups = group_values(a_ww, modes)
    k_diag = np.diag(_kernel(a_ww, cfg.observer.gramian_horizon))
    out = []
    for b1, b2 in _positions(result):
        sensor = _at(cfg.sensors[0], b1, b2)
        c = output_matrix((sensor, *cfg.sensors[1:]), cfg.domain, modes)
        w = observability_gramian(a_ww, c, cfg.observer.gramian_horizon)
        try:
            predicate = (nonstrategic_pointwise_predicate if isinstance(sensor, PointwiseSensor)
                         else nonstrategic_zone_predicate)
            triggered = predicate(sensor, cfg.domain, modes).modes
        except PredicateInapplicableError:
            triggered = ()
        bound = len(modes) * np.finfo(float).eps * float(np.sum(np.max(c * c * k_diag, axis=1)))
        out.append((strategic_rank_test(c, groups).strategic, float(np.linalg.eigvalsh(w)[0]),
                    float(np.trace(w)), bound, triggered))
    return out


@pytest.mark.parametrize("fixed", [False, True], ids=["alone", "fixed_second"])
@pytest.mark.parametrize("domain", ["", TALL], ids=["unit_square", "tall"])
@pytest.mark.parametrize("kind", ["pointwise", "uniform", "separable_sine",
                                  "tabulated_symmetric", "tabulated_asymmetric"])
def test_batched_rows_match_per_position_loop(kind, domain, fixed):
    cfg = parse_config(BASE + domain)
    cfg = dataclasses.replace(cfg, sensors=(_varied(kind), FIXED) if fixed else (_varied(kind),))
    grid_n = 7
    result = placement_sweep(cfg, grid_n)
    assert result.strategic.shape == result.min_gramian_eig.shape == (grid_n, grid_n)
    assert [len(row) for row in result.triggered] == [grid_n] * grid_n
    strategic, min_eigs, triggered = _columns(result)
    reference = _per_position(cfg, result)
    assert strategic == [r[0] for r in reference]
    assert triggered == [r[4] for r in reference]
    runs_eigvalsh = _sweep_runs_eigvalsh(cfg)
    for swept, (_, min_eig, trace, bound, _) in zip(min_eigs, reference):
        assert abs(swept - min_eig) <= 1e-12 * trace
        if not runs_eigvalsh:
            assert swept == 0.0 and abs(min_eig) <= bound
        elif not fixed:
            assert swept == min_eig
    # one sensor: the unit square's multiplicities exceed q; on the tall
    # domain the lattice k/8 of the span crosses nodal lines, so both verdicts
    # occur where a predicate applies
    if not fixed and domain == "":
        assert set(strategic) == {False}
    if not fixed and domain == TALL and kind != "tabulated_asymmetric":
        assert set(strategic) == {False, True}
        assert any(triggered)


def test_sweep_groups_by_multiplicity_once():
    # the grouping is Python work that does not depend on the lattice row,
    # so a longer sweep must not repeat it
    cfg = dataclasses.replace(parse_config(BASE + TALL), sensors=(_varied("pointwise"), FIXED))
    multiplicity = ModeGroup.multiplicity

    def reads(grid_n):
        calls = []

        def counting(group):
            calls.append(group)
            return multiplicity.fget(group)

        with mock.patch.object(ModeGroup, "multiplicity", property(counting)):
            placement_sweep(cfg, grid_n)
        return len(calls)

    assert 0 < reads(3) == reads(9)


def test_singular_sweep_solves_one_eigenproblem():
    # one sensor and C of rank 13 < n = 16: one horizon kernel K and one
    # eigvalsh of its correlation C decide every position, however many there are
    cfg = dataclasses.replace(parse_config(BASE + TALL), sensors=(_varied("pointwise"),))
    assert not _sweep_runs_eigvalsh(cfg)

    def calls(grid_n):
        with (mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eig,
              mock.patch.object(sensing, "_horizon_kernel", wraps=sensing._horizon_kernel) as kernel):
            result = placement_sweep(cfg, grid_n)
        assert set(result.min_gramian_eig.ravel().tolist()) == {0.0}
        return eig.call_count, kernel.call_count

    assert calls(3) == calls(9) == (1, 1)


def _oracle_min_eigs(cfg, result, dps=150):
    """Smallest eigenvalue of each position's Gramian O'O * K, with O the same
    double rows the sweep uses and K and the eigensolve in dps digits."""
    modes, a_ww = _modes_and_a_ww(cfg)
    out = []
    with mpmath.workdps(dps):
        t_horizon = mpmath.mpf(cfg.observer.gramian_horizon)
        d = [mpmath.mpf(float(v)) for v in a_ww]
        k = [[mpmath.expm1((a + b) * t_horizon) / (a + b) if a + b else t_horizon for b in d] for a in d]
        for b1, b2 in _positions(result):
            c = output_matrix((_at(cfg.sensors[0], b1, b2), *cfg.sensors[1:]), cfg.domain, modes)
            c = [[mpmath.mpf(float(v)) for v in line] for line in c]
            w = mpmath.matrix([[sum(line[i] * line[j] for line in c) * k[i][j] for j in range(len(d))]
                               for i in range(len(d))])
            out.append(min(mpmath.eigsy(w, eigvals_only=True)))
    return out


def _oracle_cfg(n_side, q, t_horizon, beta, tall, kind):
    cfg = parse_config(f"coefficients.beta_couple = {beta!r}\nsimulation.n_modes = {n_side}\n"
                       f"observer.gramian_horizon = {t_horizon!r}\n" + (TALL if tall else ""))
    return dataclasses.replace(cfg, sensors=(_varied(kind), FIXED)[:q])


@settings(max_examples=10, deadline=None)
@given(n_side=st.integers(2, 4), q=st.integers(1, 2), t_horizon=st.sampled_from([0.1, 2.0, 6.0]),
       beta=st.sampled_from([3.0, 8.0]), tall=st.booleans(), kind=st.sampled_from(["pointwise", "uniform"]))
@example(n_side=4, q=1, t_horizon=6.0, beta=8.0, tall=False, kind="pointwise")
@example(n_side=2, q=1, t_horizon=0.1, beta=3.0, tall=True, kind="pointwise")
def test_min_gramian_eig_within_bound_of_high_precision_oracle(n_side, q, t_horizon, beta, tall, kind):
    # a written 0 and an eigvalsh value alike lie within n eps sum_s max_i
    # c_si^2 K_ii of the true smallest eigenvalue
    cfg = _oracle_cfg(n_side, q, t_horizon, beta, tall, kind)
    result = placement_sweep(cfg, 3)
    for swept, truth, (*_, bound, _) in zip(_columns(result)[1], _oracle_min_eigs(cfg, result),
                                            _per_position(cfg, result)):
        assert abs(swept - truth) <= bound


def test_graded_kernel_keeps_the_eigensolve():
    # N = 2, T = 6, beta = 8 on the tall domain: K spans some 30 orders of
    # magnitude and is numerically rank-deficient at n eps, but its
    # correlation C is not, so the sweep keeps eigvalsh, which resolves the
    # large smallest eigenvalues to many digits; the bound would also admit 0.
    # W is positive semidefinite, so a negative eigvalsh value is written as 0
    cfg = _oracle_cfg(2, 1, 6.0, 8.0, True, "pointwise")
    lam = np.linalg.eigvalsh(_kernel(_modes_and_a_ww(cfg)[1], 6.0))
    assert np.count_nonzero(lam > lam.size * np.finfo(float).eps * lam[-1]) < lam.size
    assert _sweep_runs_eigvalsh(cfg)
    result = placement_sweep(cfg, 3)
    truths = _oracle_min_eigs(cfg, result)
    assert max(truths) > 1e6
    for swept, truth, (_, min_eig, *_) in zip(_columns(result)[1], truths, _per_position(cfg, result)):
        assert swept == max(min_eig, 0.0)
        if truth > 1:
            assert abs(swept - truth) <= 1e-10 * truth


def test_eigensolved_sweep_writes_no_negative_eigenvalue():
    # five sensors, N = 4, T = 6, beta = 8: q r >= n, so every position's
    # Gramian goes through eigvalsh, which returns negative round-off (down to
    # about -1 against a bound of about 4e16) at some of them; W is positive
    # semidefinite, so the sweep writes 0 there
    cfg = parse_config(
        "coefficients.beta_couple = 8.0\nsimulation.n_modes = 4\nobserver.gramian_horizon = 6.0\n"
        + "".join(f"sensor.{k}.kind = pointwise\nsensor.{k}.location = {b1}, {b2}\n" for k, (b1, b2) in
                  enumerate([(0.23, 0.31), (0.57, 0.43), (0.71, 0.19), (0.37, 0.83), (0.11, 0.62)], start=1)))
    assert _sweep_runs_eigvalsh(cfg)
    result = placement_sweep(cfg, 9)
    reference = _per_position(cfg, result)
    assert min(min_eig for _, min_eig, *_ in reference) < 0
    for swept, (_, min_eig, _, bound, _) in zip(_columns(result)[1], reference):
        assert swept >= 0.0
        assert abs(swept - max(min_eig, 0.0)) <= bound


@settings(max_examples=25, deadline=None)
@given(q=st.integers(1, 3), beta=st.floats(0.5, 8.0), t_horizon=st.floats(0.1, 6.0), n_side=st.integers(2, 4),
       tall=st.booleans(), kind=st.sampled_from(["pointwise", "uniform", "tabulated_symmetric"]))
def test_sweep_gramians_match_per_position_loop(q, beta, t_horizon, n_side, tall, kind):
    # the sweep's stacked Gramians give each position's smallest eigenvalue
    # as a per-position observability_gramian does, or 0 within the bound
    # where q r < n
    cfg = parse_config(f"coefficients.beta_couple = {beta!r}\nsimulation.n_modes = {n_side}\n"
                       f"observer.gramian_horizon = {t_horizon!r}\n" + (TALL if tall else ""))
    fixed = (FIXED, PointwiseSensor((0.71, 0.19)))[: q - 1]
    cfg = dataclasses.replace(cfg, sensors=(_varied(kind), *fixed))
    result = placement_sweep(cfg, 4)
    strategic, min_eigs, triggered = _columns(result)
    reference = _per_position(cfg, result)
    assert strategic == [r[0] for r in reference]
    assert triggered == [r[4] for r in reference]
    runs_eigvalsh = _sweep_runs_eigvalsh(cfg)
    for swept, (_, min_eig, trace, bound, _) in zip(min_eigs, reference):
        assert abs(swept - min_eig) <= 1e-12 * trace
        if not runs_eigvalsh:
            assert swept == 0.0 and abs(min_eig) <= bound
        elif q == 1:
            assert swept == min_eig


def _fraction(snap, p, d, k):
    # a rational p/d that a predicate may detect, or k/997, which lies farther
    # than 1e-4 from every fraction with a denominator below 997
    return min(p, d - 1) / d if snap else k / 997


@settings(max_examples=80, deadline=None)
@given(n_side=st.integers(2, 5), tall=st.booleans(), beta=st.floats(0.5, 8.0),
       kind=st.sampled_from(["pointwise", "uniform", "separable_sine", "tabulated_symmetric"]),
       snap=st.tuples(st.booleans(), st.booleans()),
       p=st.tuples(st.integers(1, 5), st.integers(1, 5)), d=st.tuples(st.integers(2, 6), st.integers(2, 6)),
       k=st.tuples(st.integers(50, 947), st.integers(50, 947)))
def test_predicate_flags_only_offending_modes(n_side, tall, beta, kind, snap, p, d, k):
    # a mode a predicate flags is blind to the sensor, so the rank test of
    # that sensor alone finds its group rank-deficient
    domain = Domain(0.0, 1.0, 0.0, 1.3 if tall else 1.0)
    b1 = domain.length1 * _fraction(snap[0], p[0], d[0], k[0])
    b2 = domain.length2 * _fraction(snap[1], p[1], d[1], k[1])
    modes = ModeSet.square(n_side)
    sensor = _varied(kind)
    if isinstance(sensor, ZoneSensor):
        h1, h2 = 0.04, 0.04
        b1 = min(max(b1, h1), domain.beta1 - h1)
        b2 = min(max(b2, h2), domain.beta2 - h2)
        sensor = ZoneSensor(Rect(b1 - h1, b1 + h1, b2 - h2, b2 + h2), sensor.weight, sensor.samples)
        flagged = nonstrategic_zone_predicate(sensor, domain, modes).modes
    else:
        sensor = PointwiseSensor((b1, b2))
        flagged = nonstrategic_pointwise_predicate(sensor, domain, modes).modes
    model = assemble_exchange_model(Coefficients(1.0, 0.1, beta), domain, modes)
    groups = group_values(model.a22, modes)
    report = strategic_rank_test(output_matrix([sensor], domain, modes), groups)
    assert set(flagged) <= set(report.offending_modes())
    if flagged:
        assert not report.strategic


@pytest.mark.parametrize("modes", [ModeSet.square(5), ModeSet(tuple(ModeIndex(i, j) for j in (2, 5, 1) for i in (3, 1)))],
                         ids=["square", "scattered"])
@pytest.mark.parametrize("kind", ["pointwise", "uniform", "separable_sine",
                                  "tabulated_symmetric", "tabulated_asymmetric"])
def test_lattice_rows_equal_output_matrix_bit_for_bit(kind, modes):
    # the lattice takes each axis's factors for all its spans at once; every
    # row must keep the bits, signed zeros included, of the one-sensor call
    domain = Domain(0.1, 1.1, -0.2, 1.1)
    sensor = _varied(kind)
    xs = [0.3 + 0.55 * k / 6 for k in range(7)]
    ys = [0.1 + 0.7 * k / 4 for k in range(5)] + [0.45]  # y = 0.45 is the axis midpoint: a nodal line
    for x, rows in zip(xs, sensing._sensor_rows(sensor, domain, modes, *sensing._lattice_spans(sensor, xs, ys))):
        assert rows.shape == (len(ys), len(modes))
        for y, row in zip(ys, rows):
            expected = output_matrix([_at(sensor, x, y)], domain, modes)[0]
            assert row.tobytes() == expected.tobytes()


def _count_rank_tests(cfg, grid_n):
    with mock.patch.object(sensing, "_stacked_rank_test", wraps=sensing._stacked_rank_test) as rank_test:
        result = placement_sweep(cfg, grid_n)
    return rank_test.call_count, result


def test_sweep_rank_tests_lattice_rows_in_chunks():
    # N = 8, one sensor: a lattice row of 33 positions holds 33 x 64 entries,
    # so a chunk of 2^13 entries takes 3 rows and the 33 rows take 11 calls
    cfg = parse_config("simulation.n_modes = 8\n" + TALL + "sensor.1.kind = pointwise\nsensor.1.location = 0.3, 0.4\n")
    assert sensing._SWEEP_CHUNK_ENTRIES == 1 << 13
    assert _count_rank_tests(cfg, 33)[0] == 11


@pytest.mark.parametrize("q", [1, 2])
def test_sweep_takes_one_call_per_row_over_budget(monkeypatch, q):
    # a single lattice row larger than the budget is a chunk of its own, and
    # the chunking changes no verdict and no eigenvalue; q = 2 eigensolves
    cfg = dataclasses.replace(parse_config(BASE + TALL), sensors=(_varied("pointwise"), FIXED)[:q])
    assert _sweep_runs_eigvalsh(cfg) == (q == 2)
    grid_n = 6
    calls, result = _count_rank_tests(cfg, grid_n)
    assert calls == 1
    monkeypatch.setattr(sensing, "_SWEEP_CHUNK_ENTRIES", grid_n * q * 16 - 1)
    calls, small = _count_rank_tests(cfg, grid_n)
    assert calls == grid_n
    assert np.array_equal(small.strategic, result.strategic)
    assert small.min_gramian_eig.tobytes() == result.min_gramian_eig.tobytes()


@pytest.mark.parametrize("domain", ["", TALL], ids=["unit_square", "tall"])
@pytest.mark.parametrize("kind", ["pointwise", "uniform", "separable_sine",
                                  "tabulated_symmetric", "tabulated_asymmetric"])
def test_chunked_rows_match_per_position_loop(kind, domain):
    # N = 4 and a fixed second sensor: a lattice row of 17 positions holds
    # 17 x 2 x 16 entries, so chunks of 15 rows leave a last chunk of 2
    cfg = dataclasses.replace(parse_config(BASE + domain), sensors=(_varied(kind), FIXED))
    grid_n = 17
    assert grid_n % (sensing._SWEEP_CHUNK_ENTRIES // (grid_n * 2 * 16)) == 2
    calls, result = _count_rank_tests(cfg, grid_n)
    assert calls == 2
    assert result.strategic.shape == (grid_n, grid_n)
    strategic, min_eigs, triggered = _columns(result)
    reference = _per_position(cfg, result)
    assert strategic == [r[0] for r in reference]
    assert triggered == [r[4] for r in reference]
    runs_eigvalsh = _sweep_runs_eigvalsh(cfg)
    for swept, (_, min_eig, trace, bound, _) in zip(min_eigs, reference):
        assert abs(swept - min_eig) <= 1e-12 * trace
        if not runs_eigvalsh:
            assert swept == 0.0 and abs(min_eig) <= bound

