"""The lattice-row placement sweep against a per-position loop of the public
sensing calls, and the predicate/rank-test consistency it relies on."""

import dataclasses
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
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
from regobs.sensing import ModeGroup, group_values

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


def _per_position(cfg, rows):
    """(strategic, min eig, trace, triggered) of each row's position, one
    position at a time through the public calls."""
    modes = ModeSet.square(cfg.simulation.n_modes)
    model = assemble_exchange_model(cfg.coefficients, cfg.domain, modes)
    a_ww = model.partition(cfg.observer.measured_field)[3]
    groups = group_values(np.diag(a_ww), modes)
    out = []
    for row in rows:
        sensor = _at(cfg.sensors[0], row.b1, row.b2)
        c = output_matrix((sensor, *cfg.sensors[1:]), cfg.domain, modes)
        w = observability_gramian(a_ww, c, cfg.observer.gramian_horizon)
        try:
            predicate = (nonstrategic_pointwise_predicate if isinstance(sensor, PointwiseSensor)
                         else nonstrategic_zone_predicate)
            triggered = predicate(sensor, cfg.domain, modes).modes
        except PredicateInapplicableError:
            triggered = ()
        out.append((strategic_rank_test(c, groups).strategic, float(np.linalg.eigvalsh(w)[0]),
                    float(np.trace(w)), triggered))
    return out


@pytest.mark.parametrize("fixed", [False, True], ids=["alone", "fixed_second"])
@pytest.mark.parametrize("domain", ["", TALL], ids=["unit_square", "tall"])
@pytest.mark.parametrize("kind", ["pointwise", "uniform", "separable_sine",
                                  "tabulated_symmetric", "tabulated_asymmetric"])
def test_batched_rows_match_per_position_loop(kind, domain, fixed):
    cfg = parse_config(BASE + domain)
    cfg = dataclasses.replace(cfg, sensors=(_varied(kind), FIXED) if fixed else (_varied(kind),))
    grid_n = 7
    rows = placement_sweep(cfg, grid_n).rows
    assert len(rows) == grid_n**2
    # row-major lattice: b1 is constant along each lattice row
    assert all(row.b1 == rows[k - k % grid_n].b1 for k, row in enumerate(rows))
    reference = _per_position(cfg, rows)
    assert [row.strategic for row in rows] == [r[0] for r in reference]
    assert [row.triggered for row in rows] == [r[3] for r in reference]
    for row, (_, min_eig, trace, _) in zip(rows, reference):
        assert abs(row.min_gramian_eig - min_eig) <= 1e-12 * trace
        if not fixed:
            assert row.min_gramian_eig == min_eig
    # one sensor: the unit square's multiplicities exceed q; on the tall
    # domain the lattice k/8 of the span crosses nodal lines, so both verdicts
    # occur where a predicate applies
    verdicts = {row.strategic for row in rows}
    if not fixed and domain == "":
        assert verdicts == {False}
    if not fixed and domain == TALL and kind != "tabulated_asymmetric":
        assert verdicts == {False, True}
        assert any(row.triggered for row in rows)


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


@settings(max_examples=25, deadline=None)
@given(q=st.integers(1, 3), beta=st.floats(0.5, 8.0), t_horizon=st.floats(0.1, 6.0), n_side=st.integers(2, 4),
       tall=st.booleans(), kind=st.sampled_from(["pointwise", "uniform", "tabulated_symmetric"]))
def test_sweep_gramians_match_per_position_loop(q, beta, t_horizon, n_side, tall, kind):
    # the sweep's stacked Gramians give each position's smallest eigenvalue
    # as a per-position observability_gramian does
    cfg = parse_config(f"coefficients.beta_couple = {beta!r}\nsimulation.n_modes = {n_side}\n"
                       f"observer.gramian_horizon = {t_horizon!r}\n" + (TALL if tall else ""))
    fixed = (FIXED, PointwiseSensor((0.71, 0.19)))[: q - 1]
    cfg = dataclasses.replace(cfg, sensors=(_varied(kind), *fixed))
    rows = placement_sweep(cfg, 4).rows
    reference = _per_position(cfg, rows)
    assert [row.strategic for row in rows] == [r[0] for r in reference]
    assert [row.triggered for row in rows] == [r[3] for r in reference]
    for row, (_, min_eig, trace, _) in zip(rows, reference):
        assert abs(row.min_gramian_eig - min_eig) <= 1e-12 * trace
        if q == 1:
            assert row.min_gramian_eig == min_eig


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
    groups = group_values(np.diag(model.A22), modes)
    report = strategic_rank_test(output_matrix([sensor], domain, modes), groups)
    assert set(flagged) <= set(report.offending_modes())
    if flagged:
        assert not report.strategic
