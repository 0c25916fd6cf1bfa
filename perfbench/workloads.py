"""Workload definitions: config text generated from a seed.

Every workload has N_VARIANTS input variants.  Variant v draws only the
initial-state seed and the sensor positions from a generator seeded by the
workload name and v, so the same variant always yields the same config text.
A benchmark run with seed s issues its k-th op on variant (s + k) mod
N_VARIANTS; consecutive ops therefore see different inputs, and each variant
has a stored reference output produced by the unmodified toolkit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

N_VARIANTS = 8


@dataclass(frozen=True)
class Op:
    """One CLI invocation: the config text and the subcommand arguments that
    follow `--config <path>` (the output directory is appended by the runner)."""

    variant: int
    kind: str  # "run" or "sweep"
    config_text: str
    extra_args: tuple[str, ...] = ()


def _pointwise(rng: random.Random, lo: float, hi: float) -> tuple[float, float]:
    # full-precision draws keep sensors off rational nodal lines
    return rng.uniform(lo, hi), rng.uniform(lo, hi)


def _fmt(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def run_n24_both(v: int) -> Op:
    rng = random.Random(f"run_n24_both/{v}")
    s1 = _pointwise(rng, 0.05, 0.95)
    s2 = _pointwise(rng, 0.05, 0.95)
    x0_seed = rng.randrange(2**31)
    text = f"""# run_n24_both variant {v}: 576 modes per field, J = 1, both estimators
coefficients.alpha_diff = 1.0
coefficients.gamma_diff = 0.1
coefficients.beta_couple = 3.0
region.kind = internal_rectangle
region.rect = 0.2, 0.8, 0.2, 0.8
sensor.1.kind = pointwise
sensor.1.location = {_fmt(s1)}
sensor.2.kind = pointwise
sensor.2.location = {_fmt(s2)}
observer.target_margin = 1.0
observer.estimators = both
simulation.n_modes = 24
simulation.dt = 0.01
simulation.T = 5.0
simulation.x0_seed = {x0_seed}
"""
    return Op(v, "run", text)


def run_n8_collar(v: int) -> Op:
    rng = random.Random(f"run_n8_collar/{v}")
    cx, cy = _pointwise(rng, 0.2, 0.8)
    zone = (cx - 0.15, cx + 0.15, cy - 0.15, cy + 0.15)
    s2 = _pointwise(rng, 0.05, 0.95)
    x0_seed = rng.randrange(2**31)
    text = f"""# run_n8_collar variant {v}: boundary segment with collar, zone + pointwise sensor
coefficients.alpha_diff = 1.0
coefficients.gamma_diff = 0.1
coefficients.beta_couple = 3.0
region.kind = boundary_segment
region.edge = bottom
region.from = 0.25
region.to = 0.75
region.collar_radius = 0.1
sensor.1.kind = zone
sensor.1.rect = {_fmt(zone)}
sensor.1.weight = uniform
sensor.2.kind = pointwise
sensor.2.location = {_fmt(s2)}
observer.target_margin = 1.0
observer.estimators = both
simulation.n_modes = 8
simulation.dt = 0.01
simulation.T = 5.0
simulation.x0_seed = {x0_seed}
output.plot = true
"""
    return Op(v, "run", text)


# Half-widths of the swept zone sensor.  i * 0.1 / 1.0 and j * 0.13 / 1.3 are
# not integers for i, j <= 8, so the zone row vanishes only through its
# centre and the closed-form predicate must agree with the rank test.
SWEEP_ZONE_HALF_WIDTHS = (0.1, 0.13)
SWEEP_GRID = 33


def sweep_n8_grid33(v: int) -> Op:
    """Even variants sweep a pointwise sensor, odd variants a zone sensor.

    The sweep overwrites the sensor's position at every lattice point, so the
    drawn position does not change the output; the reference is keyed by the
    sensor kind alone.
    """
    rng = random.Random(f"sweep_n8_grid33/{v}")
    h1, h2 = SWEEP_ZONE_HALF_WIDTHS
    if v % 2 == 0:
        sensor = f"sensor.1.kind = pointwise\nsensor.1.location = {_fmt(_pointwise(rng, 0.05, 0.95))}\n"
    else:
        cx, cy = rng.uniform(h1, 1.0 - h1), rng.uniform(h2, 1.3 - h2)
        sensor = (f"sensor.1.kind = zone\nsensor.1.rect = {_fmt((cx - h1, cx + h1, cy - h2, cy + h2))}\n"
                  "sensor.1.weight = uniform\n")
    text = f"""# sweep_n8_grid33 variant {v}: one varied sensor on the 1 x 1.3 domain
domain.alpha1 = 0.0
domain.beta1 = 1.0
domain.alpha2 = 0.0
domain.beta2 = 1.3
coefficients.alpha_diff = 1.0
coefficients.gamma_diff = 0.1
coefficients.beta_couple = 3.0
{sensor}observer.gramian_horizon = 2.0
simulation.n_modes = 8
"""
    return Op(v, "sweep", text, ("--grid", str(SWEEP_GRID)))


WORKLOADS = {
    "run_n24_both": run_n24_both,
    "run_n8_collar": run_n8_collar,
    "sweep_n8_grid33": sweep_n8_grid33,
}


def reference_key(op: Op) -> str:
    if op.kind == "sweep":
        return "pointwise" if op.variant % 2 == 0 else "zone"
    return str(op.variant)


def ops_for_seed(workload: str, seed: int):
    """Endless op sequence of one run: variant (seed + k) mod N_VARIANTS."""
    make = WORKLOADS[workload]
    k = 0
    while True:
        yield make((seed + k) % N_VARIANTS)
        k += 1
