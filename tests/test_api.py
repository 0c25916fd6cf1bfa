"""Calls in the form of parameters that the public API no longer takes fail
with TypeError, instead of binding a value to the wrong parameter; uses of
the dense model blocks, general matrices and actuator inputs that the modal
model no longer holds or takes fail with their own error, instead of
returning a wrong value.  The public export list stays in step with the
package's names."""

import types

import numpy as np
import pytest

import regobs
from regobs import (
    BoundarySegment,
    Coefficients,
    Domain,
    ModeSet,
    PointwiseSensor,
    Propagator,
    Rect,
    ZoneSensor,
    assemble_exchange_model,
    build_collar,
    design_gain,
    estimator_matrices,
    group_modes_by_eigenvalue,
    nonstrategic_pointwise_predicate,
    nonstrategic_zone_predicate,
    observability_gramian,
    output_matrix,
    propagate,
    reduced_output_map,
    simulate_full_order,
    simulate_reduced_order,
    split_unstable_stable,
    strategic_rank_test,
)

UNIT = Domain()
MODEL = assemble_exchange_model(Coefficients(1.0, 0.1, 3.0), UNIT, ModeSet.square(2))
SENSORS = [PointwiseSensor((0.23, 0.31)), PointwiseSensor((0.57, 0.43))]
C = output_matrix(SENSORS, UNIT, MODEL.mode_set)
OBS = reduced_output_map(MODEL, C)
SPLIT = split_unstable_stable(MODEL.a22)
GAIN = design_gain(OBS, SPLIT, 1.0, sensor_matrix=C)
C_FULL = np.hstack([C, np.zeros_like(C)])
FULL_GAIN = design_gain(C_FULL, split_unstable_stable(MODEL.mode_pairs), 1.0, sensor_matrix=C_FULL)
X0 = np.ones(8)
GAMMA = BoundarySegment("bottom", 0.2, 0.7)

STALE_CALLS = {
    "design_gain with the block first": lambda: design_gain(MODEL.a22, OBS, SPLIT, 1.0),
    "design_gain with tol_detect": lambda: design_gain(OBS, SPLIT, 1.0, tol_detect=1e-8),
    "design_gain with a positional sensor_matrix": lambda: design_gain(OBS, SPLIT, 1.0, C),
    "estimator_matrices with a sensor matrix": lambda: estimator_matrices(MODEL, GAIN, C),
    "strategic_rank_test with q": lambda: strategic_rank_test(C, group_modes_by_eigenvalue(MODEL), q=0),
    "strategic_rank_test with tol_rank": lambda: strategic_rank_test(C, group_modes_by_eigenvalue(MODEL),
                                                                     tol_rank=1e-10),
    "group_modes_by_eigenvalue with tol_group": lambda: group_modes_by_eigenvalue(MODEL, tol_group=1e-9),
    "build_collar with n_quad": lambda: build_collar(GAMMA, 0.1, UNIT, 16),
    "pointwise predicate with tol_rat": lambda: nonstrategic_pointwise_predicate(
        PointwiseSensor((0.5, 0.5)), UNIT, MODEL.mode_set, tol_rat=1e-9),
    "zone predicate with tol_rat": lambda: nonstrategic_zone_predicate(
        ZoneSensor(Rect(0.4, 0.6, 0.4, 0.6)), UNIT, MODEL.mode_set, tol_rat=1e-9),
    "simulate_reduced_order with an input": lambda: simulate_reduced_order(
        MODEL, SENSORS, GAIN, None, X0, np.zeros(4), 0.1, 0.5),
    "simulate_full_order with an input": lambda: simulate_full_order(
        MODEL, SENSORS, FULL_GAIN, None, X0, X0, 0.1, 0.5),
    "assemble_exchange_model with b1": lambda: assemble_exchange_model(
        Coefficients(1.0, 0.1, 3.0), UNIT, MODEL.mode_set, np.ones((4, 1))),
    "Propagator with b": lambda: Propagator(MODEL.stacked_a(), 0.1, np.ones((8, 1))),
    "propagate with u": lambda: propagate(MODEL, X0, 0.1, 5, np.ones(1)),
}


@pytest.mark.parametrize("call", sorted(STALE_CALLS))
def test_stale_call_raises_type_error(call):
    with pytest.raises(TypeError, match="argument"):
        STALE_CALLS[call]()


def _unpack_three_estimator_matrices():
    f_red, g_y, g_u = estimator_matrices(MODEL, GAIN)


STALE_FORMS = {
    "the dense block model.A22": (AttributeError, "A22", lambda: MODEL.A22),
    "model.partition": (AttributeError, "partition", lambda: MODEL.partition(1)),
    "observability_gramian of a dense diag(d)": (
        ValueError, "diagonal", lambda: observability_gramian(np.diag(MODEL.a22), C, 2.0)),
    "split_unstable_stable of a non-symmetric matrix": (
        ValueError, "symmetric", lambda: split_unstable_stable(np.array([[1.0, 2.0], [0.0, -3.0]]))),
    "the actuator block model.B1": (AttributeError, "B1", lambda: MODEL.B1),
    "model.stacked_b": (AttributeError, "stacked_b", lambda: MODEL.stacked_b()),
    "importing input_matrix": (ImportError, "input_matrix", lambda: exec("from regobs import input_matrix", {})),
    "importing restrict_trace": (
        ImportError, "restrict_trace", lambda: exec("from regobs import restrict_trace", {})),
    "estimator_matrices unpacked with G_u": (ValueError, "unpack", _unpack_three_estimator_matrices),
}


@pytest.mark.parametrize("form", sorted(STALE_FORMS))
def test_stale_form_fails_loudly(form):
    error, match, call = STALE_FORMS[form]
    with pytest.raises(error, match=match):
        call()


def test_export_list_matches_public_names():
    missing = [name for name in regobs.__all__ if not hasattr(regobs, name)]
    unlisted = [name for name in dir(regobs) if not name.startswith("_")
                and not isinstance(getattr(regobs, name), types.ModuleType) and name not in regobs.__all__]
    assert missing == [] and unlisted == []
    exec("from regobs import *", {})
