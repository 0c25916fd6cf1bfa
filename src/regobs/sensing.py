"""Sensor models, modal output operator, strategic-sensor rank tests,
observability Gramian, and the closed-form non-strategicness predicates.

A zone sensor (D, f) contributes one output row <phi_m, f>_{L2(D)}; a
pointwise sensor at b contributes phi_m(b).  Strategicness of a sensor suite
is decided group by group on the eigenvalue clusters of the relevant diagonal
block: every group block G_n must have full rank equal to the group
multiplicity and the sensor count must cover the largest multiplicity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.interpolate import RegularGridInterpolator
from scipy.linalg import expm

from .geometry import Domain, Rect, _sine_product_integral, gauss_nodes
from .spectral import ModalModel, ModeIndex, ModeSet, eval_matrix

ZONE_WEIGHTS = ("uniform", "separable_sine", "tabulated")


@dataclass(frozen=True)
class ZoneSensor:
    """Zone sensor: support rectangle plus a weight function on it.

    weight "uniform" is f == 1 on the support; "separable_sine" is the
    fundamental sine bump sin(pi (x - lo1)/w1) sin(pi (y - lo2)/w2);
    "tabulated" interpolates `samples` given on a uniform grid over the
    support (endpoints included), bilinearly.
    """

    rect: Rect
    weight: str = "uniform"
    samples: tuple[tuple[float, ...], ...] | None = None

    def __post_init__(self):
        if self.weight not in ZONE_WEIGHTS:
            raise ValueError(f"unknown zone weight {self.weight!r}")
        if self.weight == "tabulated":
            if self.samples is None:
                raise ValueError("tabulated weight requires samples")
            arr = np.asarray(self.samples, dtype=float)
            if arr.ndim != 2 or arr.shape[0] < 2 or arr.shape[1] < 2:
                raise ValueError("tabulated samples must be a 2-d grid")
        elif self.samples is not None:
            raise ValueError("samples are only valid with the tabulated weight")


@dataclass(frozen=True)
class PointwiseSensor:
    """Internal pointwise sensor at location b = (b1, b2)."""

    location: tuple[float, float]


SensorSpec = ZoneSensor | PointwiseSensor


def _check_sensor(sensor: SensorSpec, domain: Domain) -> None:
    if isinstance(sensor, ZoneSensor):
        if not sensor.rect.inside(domain):
            raise ValueError("zone sensor support outside domain")
    else:
        if not domain.contains(sensor.location, closed=False):
            raise ValueError("pointwise sensor location outside open domain")


def _sine_integral(k: int, alpha: float, length: float, lo: float, hi: float) -> float:
    # int_lo^hi sin(k pi (x - alpha)/L) dx
    c = k * math.pi / length
    return (math.cos(c * (lo - alpha)) - math.cos(c * (hi - alpha))) / c


def _zone_row(sensor: ZoneSensor, domain: Domain, modes: ModeSet, n_quad: int) -> np.ndarray:
    if sensor.weight == "tabulated":
        # tensor Gauss-Legendre quadrature against the interpolated weight
        return zone_row_quadrature(sensor, domain, modes, n_quad)
    rect = sensor.rect

    def axis_integral(k, alpha, length, lo, hi):
        # int_lo^hi sin(k pi (x - alpha)/L) f(x) dx, f the weight's factor on this axis
        if sensor.weight == "uniform":
            return _sine_integral(k, alpha, length, lo, hi)
        a, w = k * math.pi / length, hi - lo
        return _sine_product_integral(a, -a * alpha, math.pi / w, -math.pi * lo / w, lo, hi)

    i1 = {i: axis_integral(i, domain.alpha1, domain.length1, rect.lo1, rect.hi1) for i in {m.i for m in modes}}
    i2 = {j: axis_integral(j, domain.alpha2, domain.length2, rect.lo2, rect.hi2) for j in {m.j for m in modes}}
    norm = 2.0 / math.sqrt(domain.length1 * domain.length2)
    return np.array([norm * i1[m.i] * i2[m.j] for m in modes])


def zone_row_quadrature(sensor: ZoneSensor, domain: Domain, modes: ModeSet, n_quad: int = 32) -> np.ndarray:
    """Output row of a zone sensor by tensor quadrature over its support."""
    rect = sensor.rect
    xs, wx = gauss_nodes(rect.lo1, rect.hi1, n_quad)
    ys, wy = gauss_nodes(rect.lo2, rect.hi2, n_quad)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    weights = np.outer(wx, wy).ravel()
    fvals = _weight_values(sensor, pts)
    phi = eval_matrix(domain, modes, pts)
    return phi.T @ (weights * fvals)


def _weight_values(sensor: ZoneSensor, pts: np.ndarray) -> np.ndarray:
    rect = sensor.rect
    if sensor.weight == "uniform":
        return np.ones(pts.shape[0])
    if sensor.weight == "separable_sine":
        w1 = rect.hi1 - rect.lo1
        w2 = rect.hi2 - rect.lo2
        return np.sin(np.pi * (pts[:, 0] - rect.lo1) / w1) * np.sin(np.pi * (pts[:, 1] - rect.lo2) / w2)
    samples = np.asarray(sensor.samples, dtype=float)
    interp = RegularGridInterpolator(
        (np.linspace(rect.lo1, rect.hi1, samples.shape[0]),
         np.linspace(rect.lo2, rect.hi2, samples.shape[1])),
        samples,
        method="linear",
    )
    return interp(pts)


def output_matrix(sensors, domain: Domain, modes: ModeSet, n_quad: int = 32) -> np.ndarray:
    """Modal output operator C (q x n_modes) of a sensor suite.

    Row i is <phi_m, f_i> over the zone support (closed form for the uniform
    and separable-sine weights, quadrature for tabulated) or phi_m(b_i) for a
    pointwise sensor.
    """
    sensors = list(sensors)
    if not sensors:
        raise ValueError("sensor list must be nonempty")
    rows = []
    for sensor in sensors:
        _check_sensor(sensor, domain)
        if isinstance(sensor, PointwiseSensor):
            rows.append(eval_matrix(domain, modes, [sensor.location])[0])
        else:
            rows.append(_zone_row(sensor, domain, modes, n_quad))
    return np.vstack(rows)


def input_matrix(actuators, domain: Domain, modes: ModeSet, n_quad: int = 32) -> np.ndarray:
    """Modal actuator columns (n_modes x p); descriptors mirror sensors."""
    return output_matrix(actuators, domain, modes, n_quad).T


# --- eigenvalue grouping and the strategic rank condition ---------------------


@dataclass(frozen=True)
class ModeGroup:
    """Cluster of modes sharing one eigenvalue of the grouping operator."""

    value: float
    positions: tuple[int, ...]
    modes: tuple[ModeIndex, ...]

    @property
    def multiplicity(self) -> int:
        return len(self.positions)


def group_values(values: np.ndarray, modes: ModeSet, tol_group: float = 1e-9) -> list[ModeGroup]:
    values = np.asarray(values, dtype=float)
    order = sorted(range(len(values)), key=lambda k: (-values[k], k))
    groups: list[list[int]] = []
    for k in order:
        if groups:
            ref = values[groups[-1][0]]
            if abs(values[k] - ref) <= tol_group * max(1.0, abs(ref)):
                groups[-1].append(k)
                continue
        groups.append([k])
    out = []
    for idx in groups:
        idx = sorted(idx)
        out.append(
            ModeGroup(
                value=float(values[idx[0]]),
                positions=tuple(idx),
                modes=tuple(list(modes)[k] for k in idx),
            )
        )
    return out


def group_modes_by_eigenvalue(model: ModalModel, tol_group: float = 1e-9, block: str = "a22") -> list[ModeGroup]:
    """Group modes whose eigenvalues of the chosen diagonal block coincide.

    Groups are ordered by descending eigenvalue, so unstable clusters come
    first; group multiplicity is the cluster size.
    """
    if block == "a22":
        values = np.diag(model.A22)
    elif block == "a11":
        values = np.diag(model.A11)
    elif block == "laplacian":
        values = model.eigenvalues
    else:
        raise ValueError("block must be 'a11', 'a22' or 'laplacian'")
    return group_values(values, model.mode_set, tol_group)


@dataclass(frozen=True)
class GroupRank:
    group: ModeGroup
    rank: int
    singular_values: tuple[float, ...]


@dataclass(frozen=True)
class StrategicReport:
    """Outcome of the strategic-sensor rank test.

    strategic is True iff q covers the largest multiplicity and every group
    block G_n has rank equal to its multiplicity; offending lists the indices
    of groups that fail.
    """

    q: int
    tol_rank: float
    blocks: tuple[GroupRank, ...]
    strategic: bool
    offending: tuple[int, ...]
    max_multiplicity: int

    @property
    def verdict(self) -> str:
        return "Strategic" if self.strategic else "NotStrategic"

    def offending_modes(self) -> tuple[ModeIndex, ...]:
        out: list[ModeIndex] = []
        for k in self.offending:
            out.extend(self.blocks[k].group.modes)
        return tuple(out)


def strategic_rank_test(c: np.ndarray, groups, q: int | None = None, tol_rank: float = 1e-10) -> StrategicReport:
    """Rank test of the group blocks G_n = C[:, group columns].

    Rank counts singular values above tol_rank * sigma_max, where sigma_max is
    the largest singular value of the whole output matrix: block singular
    values are bounded by it, and the shared scale keeps blocks whose entries
    are pure round-off (an exactly blind sensor) at rank 0.
    """
    c = np.atleast_2d(np.asarray(c, dtype=float))
    if q is None:
        q = c.shape[0]
    scale = np.linalg.svd(c, compute_uv=False)[0] if c.size else 0.0
    blocks = []
    offending = []
    for k, group in enumerate(groups):
        sub = c[:, list(group.positions)] if q else np.zeros((0, group.multiplicity))
        if sub.size:
            svals = np.linalg.svd(sub, compute_uv=False)
            rank = int(np.sum(svals > tol_rank * scale)) if scale > 0 else 0
        else:
            svals = np.zeros(0)
            rank = 0
        blocks.append(GroupRank(group=group, rank=rank, singular_values=tuple(float(s) for s in svals)))
        if rank < group.multiplicity:
            offending.append(k)
    max_mult = max(g.multiplicity for g in groups) if groups else 0
    strategic = (q >= max_mult) and not offending
    return StrategicReport(
        q=q,
        tol_rank=tol_rank,
        blocks=tuple(blocks),
        strategic=strategic,
        offending=tuple(offending),
        max_multiplicity=max_mult,
    )


def observability_gramian(m: np.ndarray, obs: np.ndarray, t_horizon: float) -> np.ndarray:
    """Finite-horizon observability Gramian W = int_0^T e^{M's} O'O e^{Ms} ds.

    The truncated system is weakly observable through O iff W is positive
    definite.  For a diagonal M = diag(d) the integral is closed-form,
    W = O'O * K with K_ij = (e^{(d_i+d_j)T} - 1)/(d_i+d_j), and K_ij = T
    where d_i + d_j = 0; otherwise it is exact by Van Loan's block
    exponential, E = exp([[-M', O'O], [0, M]] T) and W = E_22' E_12.
    """
    if t_horizon <= 0:
        raise ValueError("t_horizon must be > 0")
    m = np.atleast_2d(np.asarray(m, dtype=float))
    obs = np.atleast_2d(np.asarray(obs, dtype=float))
    oto = obs.T @ obs
    if not np.any(m - np.diag(np.diag(m))):
        d = np.diag(m)
        d_sum = d[:, None] + d[None, :]
        k = np.full_like(d_sum, float(t_horizon))
        nz = d_sum != 0.0
        k[nz] = np.expm1(d_sum[nz] * t_horizon) / d_sum[nz]
        w = oto * k
    else:
        n = m.shape[0]
        e = expm(np.block([[-m.T, oto], [np.zeros_like(m), m]]) * t_horizon)
        w = e[n:, n:].T @ e[:n, n:]
    return 0.5 * (w + w.T)


# --- closed-form non-strategicness predicates ---------------------------------


class PredicateInapplicableError(ValueError):
    """The symmetry argument does not apply (non-symmetric zone weight)."""


@dataclass(frozen=True)
class PredicateResult:
    triggered: bool
    modes: tuple[ModeIndex, ...]
    axis_denominators: tuple[int | None, int | None]


def _axis_denominator(ratio: float, max_den: int, tol_rat: float) -> int | None:
    """Denominator of the best rational approximation p/q, q <= max_den,
    when it sits within tol_rat of the ratio; None otherwise."""
    frac = Fraction(ratio).limit_denominator(max_den)
    if abs(ratio - float(frac)) <= tol_rat:
        return frac.denominator
    return None


def _vanishing_modes(domain: Domain, modes: ModeSet, x_center: float, y_center: float, tol_rat: float):
    r1 = (x_center - domain.alpha1) / domain.length1
    r2 = (y_center - domain.alpha2) / domain.length2
    q1 = _axis_denominator(r1, modes.max_i, tol_rat)
    q2 = _axis_denominator(r2, modes.max_j, tol_rat)
    hit = tuple(
        m for m in modes
        if (q1 is not None and m.i % q1 == 0) or (q2 is not None and m.j % q2 == 0)
    )
    return PredicateResult(triggered=bool(hit), modes=hit, axis_denominators=(q1, q2))


def nonstrategic_pointwise_predicate(
    sensor: PointwiseSensor, domain: Domain, modes: ModeSet, tol_rat: float = 1e-9
) -> PredicateResult:
    """Modes blind to a pointwise sensor: phi_ij(b) = 0 exactly when
    i (b1 - alpha1)/L1 or j (b2 - alpha2)/L2 is an integer.

    Rational detection uses continued-fraction convergents with denominator
    bounded by the per-axis truncation, within tol_rat.
    """
    _check_sensor(sensor, domain)
    b1, b2 = sensor.location
    return _vanishing_modes(domain, modes, b1, b2, tol_rat)


def nonstrategic_zone_predicate(
    sensor: ZoneSensor, domain: Domain, modes: ModeSet, tol_rat: float = 1e-9
) -> PredicateResult:
    """Modes blind to a zone sensor whose weight is symmetric about the
    support center: the centered sine integral vanishes exactly when the
    center-position ratio makes sin(i pi (xi0 - alpha)/L) zero.

    Raises PredicateInapplicableError for a non-symmetric weight; callers fall
    back to the rank test.
    """
    _check_sensor(sensor, domain)
    if sensor.weight == "tabulated":
        arr = np.asarray(sensor.samples, dtype=float)
        if not (np.allclose(arr, arr[::-1, :]) and np.allclose(arr, arr[:, ::-1])):
            raise PredicateInapplicableError("zone weight is not symmetric about the support center")
    cx, cy = sensor.rect.center
    return _vanishing_modes(domain, modes, cx, cy, tol_rat)
