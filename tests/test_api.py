"""Calls in the form of parameters that the public API no longer takes fail
with TypeError, instead of binding a value to the wrong parameter; uses of
the dense model blocks, general matrices and actuator inputs that the modal
model no longer holds or takes fail with their own error, instead of
returning a wrong value.  The public export list stays in step with the
package's names, and each exported name is one the CLI reaches or one
listed with the reason it stays public."""

import ast
import types
from pathlib import Path

import numpy as np
import pytest

import regobs
from regobs import (
    BoundarySegment,
    Coefficients,
    Domain,
    ModeSet,
    PointwiseSensor,
    Rect,
    RunReport,
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
    "group_modes_by_eigenvalue with block": lambda: group_modes_by_eigenvalue(MODEL, block="a11"),
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
        ValueError, "not a matrix", lambda: split_unstable_stable(np.array([[1.0, 2.0], [0.0, -3.0]]))),
    "split_unstable_stable of a symmetric matrix": (
        ValueError, "not a matrix", lambda: split_unstable_stable(np.diag(MODEL.a22))),
    "RunReport.j_unstable": (AttributeError, "j_unstable", lambda: RunReport(
        "", strategic_rank_test(C, group_modes_by_eigenvalue(MODEL)), {}, "reduced", "").j_unstable),
    "the actuator block model.B1": (AttributeError, "B1", lambda: MODEL.B1),
    "model.stacked_b": (AttributeError, "stacked_b", lambda: MODEL.stacked_b()),
    "importing input_matrix": (ImportError, "input_matrix", lambda: exec("from regobs import input_matrix", {})),
    "importing restrict_trace": (
        ImportError, "restrict_trace", lambda: exec("from regobs import restrict_trace", {})),
    "estimator_matrices unpacked with G_u": (ValueError, "unpack", _unpack_three_estimator_matrices),
    "importing Propagator": (ImportError, "Propagator", lambda: exec("from regobs import Propagator", {})),
    "importing propagate": (ImportError, "propagate", lambda: exec("from regobs import propagate", {})),
    "importing eigenfunction_eval": (
        ImportError, "eigenfunction_eval", lambda: exec("from regobs import eigenfunction_eval", {})),
    "model.stacked_a": (AttributeError, "stacked_a", lambda: MODEL.stacked_a()),
    "CollarRegion.contains": (AttributeError, "contains", lambda: build_collar(GAMMA, 0.1, UNIT).contains((0.5, 0.05))),
    "group_modes_by_eigenvalue with a positional block name": (
        ValueError, "measured_field", lambda: group_modes_by_eigenvalue(MODEL, "laplacian")),
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


# Public names that no CLI command reaches, each with why it stays public.
UNREACHED_FROM_CLI = {
    "PredicateResult": "what the two predicates return",
    "eigenvalue": "public entry point: gate criterion 1 (the model takes every mode at once from eigenvalues)",
    "estimator_matrices": "gate reference: criterion 5 and the dense co-simulation oracle",
    "gamma_error_norm": "the public region norm of one estimate's error",
    "nonstrategic_pointwise_predicate": "public entry point: gate criterion 4",
    "nonstrategic_zone_predicate": "public entry point: the zone sensor's predicate",
    "simulate_full_order": "public entry point: the full-order estimator without a config",
    "simulate_reduced_order": "public entry point: the README sketch and gate criterion 5",
}


def _reached_from_cli():
    """Names that cli.main or import-time code reaches through the top-level
    definitions of the package's modules (__init__.py aside), matched by name:
    the identifiers and attributes each definition uses, transitively."""
    uses: dict[str, set[str]] = {}
    todo = ["main"]
    for path in Path(regobs.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            used = {n.id if isinstance(n, ast.Name) else n.attr
                    for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                uses.setdefault(node.name, set()).update(used)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                todo.extend(used)
    reached = set()
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(uses.get(name, ()))
    return reached


def test_every_public_name_is_reached_or_listed():
    # a public name that nothing runs is a second copy of a rule or dead
    # weight: use it from the library, or list it with its reason
    reached = _reached_from_cli()
    assert sorted(set(regobs.__all__) - reached - set(UNREACHED_FROM_CLI)) == []
    assert sorted(name for name in UNREACHED_FROM_CLI if name in reached or name not in regobs.__all__) == []


def test_harness_reaches_observer_only_through_its_two_entry_points():
    # a run designs each estimator with design_estimator and simulates them
    # with _simulate: the gain design and the propagation each have one place.
    # A sweep evaluates its lattice with sensing._lattice_sweep, the one
    # private sensing name harness may import
    tree = ast.parse((Path(regobs.__file__).parent / "harness.py").read_text(encoding="utf-8"))
    imported = {"observer": set(), "sensing": set()}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (None, "regobs"):
            assert not set(imported) & {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module.removeprefix("regobs.") in imported:
            imported[node.module.removeprefix("regobs.")].update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            assert not {"regobs.observer", "regobs.sensing"} & {alias.name for alias in node.names}
    assert imported["observer"] == {"design_estimator", "_simulate"}
    assert {name for name in imported["sensing"] if name.startswith("_")} == {"_lattice_sweep"}
