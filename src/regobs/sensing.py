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
from scipy.linalg import expm

from .geometry import Domain, Rect, _sine_product_integral
from .spectral import ModalModel, ModeIndex, ModeSet

ZONE_WEIGHTS = ("uniform", "separable_sine", "tabulated")
# Default rank tolerance, relative to the largest singular value of C.
TOL_RANK = 1e-10


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


def _axis_integrals(weight: str, ks, alpha: float, length: float, lo: float, hi: float) -> list[float]:
    """int_lo^hi sin(k pi (x - alpha)/L) f(x) dx for each k, f the factor of a
    closed-form zone weight on this axis (1, or the sine bump over [lo, hi])."""
    out = []
    for k in ks:
        if weight == "uniform":
            out.append(_sine_integral(k, alpha, length, lo, hi))
        else:
            a, w = k * math.pi / length, hi - lo
            out.append(_sine_product_integral(a, -a * alpha, math.pi / w, -math.pi * lo / w, lo, hi))
    return out


# (theta - sin theta)/theta^2 = theta sum_n (-theta^2)^n/(2n + 3)!, to round-off for theta < 1
_ODD_SERIES = np.array([(-1) ** n / math.factorial(2 * n + 3) for n in range(9)])


def _hat_integrals(ks, alpha: float, length: float, lo: float, hi: float, n: int) -> np.ndarray:
    """A[k, a] = int_lo^hi sin(k pi (x - alpha)/L) u_a(x) dx for the hat
    functions u_a of n uniform nodes x_a on [lo, hi], whose combination
    sum_a s_a u_a is the linear interpolant of the samples s_a.

    With w = k pi/L, node spacing h and theta = w h, an interior hat gives
    h sinc^2(theta/2) sin(w (x_a - alpha)); the half hats at the ends give half
    of that plus or minus h (theta - sin theta)/theta^2 cos(w (x_a - alpha)).
    Neither form cancels as theta -> 0: sinc is a plain quotient, and the odd
    term is summed as its series below theta = 1.
    """
    w = np.asarray(ks, dtype=float)[:, None] * (math.pi / length)
    h = (hi - lo) / (n - 1)
    phase = w * (np.linspace(lo, hi, n) - alpha)
    theta = w * h
    out = h * (np.sin(theta / 2) / (theta / 2)) ** 2 * np.sin(phase)
    out[:, [0, -1]] *= 0.5
    odd = h * np.where(theta < 1.0, theta * np.polynomial.polynomial.polyval(theta**2, _ODD_SERIES),
                       (theta - np.sin(theta)) / theta**2)[:, 0]
    out[:, 0] += odd * np.cos(phase[:, 0])
    out[:, -1] -= odd * np.cos(phase[:, -1])
    return out


def _weight_samples(sensor: SensorSpec) -> np.ndarray:
    """S of the weight sum_ab S_ab u_a(x) v_b(y): the samples of a tabulated
    weight, [[1]] for a pointwise sensor and the closed-form weights."""
    if isinstance(sensor, ZoneSensor) and sensor.weight == "tabulated":
        return np.asarray(sensor.samples, dtype=float)
    return np.ones((1, 1))


def _axis_factors(sensor: SensorSpec, axis: int, ks, alpha: float, length: float, lo: float, hi: float) -> np.ndarray:
    """A[k, a] = int sin(k pi (x - alpha)/L) u_a(x) dx over the sensor's
    extent [lo, hi] on one axis, for each k in ks: the sine at the point for a
    pointwise sensor (lo == hi), the closed-form integral for the uniform and
    sine-bump weights, the hat integrals of the sample grid for a tabulated one.
    """
    if isinstance(sensor, PointwiseSensor):
        return np.sin(np.pi * (np.asarray(ks, dtype=float) * ((lo - alpha) / length)))[:, None]
    if sensor.weight == "tabulated":
        return _hat_integrals(ks, alpha, length, lo, hi, np.shape(sensor.samples)[axis])
    return np.array(_axis_integrals(sensor.weight, ks, alpha, length, lo, hi))[:, None]


def _sensor_rows(sensor: SensorSpec, domain: Domain, modes: ModeSet, spans1, spans2):
    """Output rows of the sensor placed on each extent pair spans1 x spans2:
    yields, for each (lo1, hi1) in spans1, the (len(spans2), n_modes) rows of
    that extent with each (lo2, hi2).  A pointwise sensor's extent is (b, b).

    Every weight is separable, f = sum_ab S_ab u_a(x) v_b(y), so
    row[m] = (2/sqrt(L1 L2)) sum_ab A1[i_m, a] S_ab A2[j_m, b] with the
    per-axis factors A of _axis_factors.  The second-axis factors are taken
    once; for one-term weights the row is (norm A1) A2, product by product.
    """
    ki, pos_i = np.unique([m.i for m in modes], return_inverse=True)
    kj, pos_j = np.unique([m.j for m in modes], return_inverse=True)
    ki, kj = ki.tolist(), kj.tolist()
    samples = _weight_samples(sensor)
    norm = 2.0 / math.sqrt(domain.length1 * domain.length2)
    a2 = np.stack([_axis_factors(sensor, 1, kj, domain.alpha2, domain.length2, lo, hi)[pos_j]
                   for lo, hi in spans2])
    for lo, hi in spans1:
        left = ((norm * _axis_factors(sensor, 0, ki, domain.alpha1, domain.length1, lo, hi)) @ samples)[pos_i]
        # summed term by term from the first, so a one-term row keeps its signed zeros
        rows = left[:, 0] * a2[..., 0]
        for b in range(1, samples.shape[1]):
            rows += left[:, b] * a2[..., b]
        yield rows


def output_matrix(sensors, domain: Domain, modes: ModeSet) -> np.ndarray:
    """Modal output operator C (q x n_modes) of a sensor suite.

    Row i is <phi_m, f_i> over the zone support, or phi_m(b_i) for a pointwise
    sensor, in closed form for every weight (_sensor_rows).
    """
    sensors = list(sensors)
    if not sensors:
        raise ValueError("sensor list must be nonempty")
    rows = []
    for sensor in sensors:
        _check_sensor(sensor, domain)
        if isinstance(sensor, PointwiseSensor):
            b1, b2 = sensor.location
            spans = [(b1, b1)], [(b2, b2)]
        else:
            r = sensor.rect
            spans = [(r.lo1, r.hi1)], [(r.lo2, r.hi2)]
        rows.append(next(_sensor_rows(sensor, domain, modes, *spans))[0])
    return np.vstack(rows)


def input_matrix(actuators, domain: Domain, modes: ModeSet) -> np.ndarray:
    """Modal actuator columns (n_modes x p); descriptors mirror sensors."""
    return output_matrix(actuators, domain, modes).T


def _lattice_rows(sensor: SensorSpec, domain: Domain, modes: ModeSet, xs, ys):
    """Output rows of the sensor moved to each point of the lattice xs x ys
    (its location, or its support's centre): yields, for each x, the
    (len(ys), n_modes) rows of the points (x, y), equal to output_matrix's.
    """
    h1, h2 = (0.0, 0.0) if isinstance(sensor, PointwiseSensor) else sensor.rect.half_widths
    spans1 = [(x - h1, x + h1) for x in xs]
    spans2 = [(y - h2, y + h2) for y in ys]
    return _sensor_rows(sensor, domain, modes, spans1, spans2)


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


def _stacked_rank_test(stack: np.ndarray, groups, q: int | None = None, tol_rank: float = TOL_RANK):
    """The rank test on a (P, rows, n) stack of output matrices, with one
    batched svd per distinct group multiplicity m over the (P, G_m, rows, m)
    group blocks.

    Returns the (P, len(groups)) ranks, each group's (P, k) singular values,
    the (P, len(groups)) mask of offending groups and the (P,) verdicts.
    """
    p = stack.shape[0]
    if q is None:
        q = stack.shape[1]
    ranks = np.zeros((p, len(groups)), dtype=int)
    svals = [np.zeros((p, 0))] * len(groups)
    if q and stack.shape[1]:
        scale = np.linalg.svd(stack, compute_uv=False)[:, 0]
        by_mult: dict[int, list[int]] = {}
        for k, group in enumerate(groups):
            by_mult.setdefault(group.multiplicity, []).append(k)
        for ks in by_mult.values():
            cols = np.array([groups[k].positions for k in ks])
            s = np.linalg.svd(np.swapaxes(stack[:, :, cols], 1, 2), compute_uv=False)
            ranks[:, ks] = np.where(scale[:, None] > 0, np.sum(s > (tol_rank * scale)[:, None, None], axis=-1), 0)
            for g, k in enumerate(ks):
                svals[k] = s[:, g]
    mult = np.array([group.multiplicity for group in groups], dtype=int)
    offending = ranks < mult
    strategic = (q >= mult.max(initial=0)) & ~offending.any(axis=1)
    return ranks, svals, offending, strategic


def strategic_rank_test(c: np.ndarray, groups, q: int | None = None, tol_rank: float = TOL_RANK) -> StrategicReport:
    """Rank test of the group blocks G_n = C[:, group columns].

    Rank counts singular values above tol_rank * sigma_max, where sigma_max is
    the largest singular value of the whole output matrix: block singular
    values are bounded by it, and the shared scale keeps blocks whose entries
    are pure round-off (an exactly blind sensor) at rank 0.
    """
    c = np.atleast_2d(np.asarray(c, dtype=float))
    groups = list(groups)
    if q is None:
        q = c.shape[0]
    ranks, svals, offending, strategic = _stacked_rank_test(c[None], groups, q, tol_rank)
    blocks = tuple(
        GroupRank(group=group, rank=int(ranks[0, k]), singular_values=tuple(float(s) for s in svals[k][0]))
        for k, group in enumerate(groups)
    )
    return StrategicReport(
        q=q,
        tol_rank=tol_rank,
        blocks=blocks,
        strategic=bool(strategic[0]),
        offending=tuple(int(k) for k in np.flatnonzero(offending[0])),
        max_multiplicity=max((g.multiplicity for g in groups), default=0),
    )


def observability_gramian(m: np.ndarray, obs: np.ndarray, t_horizon: float) -> np.ndarray:
    """Finite-horizon observability Gramian W = int_0^T e^{M's} O'O e^{Ms} ds.

    The truncated system is weakly observable through O iff W is positive
    definite.  For a diagonal M = diag(d) the integral is closed-form,
    W = O'O * K with K_ij = (e^{(d_i+d_j)T} - 1)/(d_i+d_j), and K_ij = T
    where d_i + d_j = 0; otherwise it is exact by Van Loan's block
    exponential, E = exp([[-M', O'O], [0, M]] T) and W = E_22' E_12.
    obs may be a (P, q, n) stack of maps; W then has shape (P, n, n).
    """
    if t_horizon <= 0:
        raise ValueError("t_horizon must be > 0")
    m = np.atleast_2d(np.asarray(m, dtype=float))
    obs = np.atleast_2d(np.asarray(obs, dtype=float))
    oto = np.swapaxes(obs, -1, -2) @ obs
    if not np.any(m - np.diag(np.diag(m))):
        d = np.diag(m)
        d_sum = d[:, None] + d[None, :]
        k = np.full_like(d_sum, float(t_horizon))
        nz = d_sum != 0.0
        k[nz] = np.expm1(d_sum[nz] * t_horizon) / d_sum[nz]
        w = np.multiply(oto, k, out=oto)  # in place: a stack of Gramians is the sweep's largest array
    else:
        n = m.shape[0]
        block = np.zeros((*oto.shape[:-2], 2 * n, 2 * n))
        block[..., :n, :n], block[..., :n, n:], block[..., n:, n:] = -m.T, oto, m
        e = expm(block * t_horizon)
        w = np.swapaxes(e[..., n:, n:], -1, -2) @ e[..., :n, n:]
    w = w + np.swapaxes(w, -1, -2)
    w *= 0.5
    return w


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


def _vanishing_modes(modes: ModeSet, q1: int | None, q2: int | None) -> PredicateResult:
    hit = tuple(
        m for m in modes
        if (q1 is not None and m.i % q1 == 0) or (q2 is not None and m.j % q2 == 0)
    )
    return PredicateResult(triggered=bool(hit), modes=hit, axis_denominators=(q1, q2))


def _centre_denominators(domain: Domain, modes: ModeSet, xs, ys, tol_rat: float):
    """_axis_denominator of each coordinate's ratio along its axis: q1 for
    each x in xs, q2 for each y in ys."""
    q1 = [_axis_denominator((x - domain.alpha1) / domain.length1, modes.max_i, tol_rat) for x in xs]
    q2 = [_axis_denominator((y - domain.alpha2) / domain.length2, modes.max_j, tol_rat) for y in ys]
    return q1, q2


def _require_symmetric(sensor: ZoneSensor) -> None:
    if sensor.weight == "tabulated":
        arr = np.asarray(sensor.samples, dtype=float)
        if not (np.allclose(arr, arr[::-1, :]) and np.allclose(arr, arr[:, ::-1])):
            raise PredicateInapplicableError("zone weight is not symmetric about the support center")


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
    (q1,), (q2,) = _centre_denominators(domain, modes, [b1], [b2], tol_rat)
    return _vanishing_modes(modes, q1, q2)


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
    _require_symmetric(sensor)
    cx, cy = sensor.rect.center
    (q1,), (q2,) = _centre_denominators(domain, modes, [cx], [cy], tol_rat)
    return _vanishing_modes(modes, q1, q2)


def _lattice_triggered(sensor: SensorSpec, domain: Domain, modes: ModeSet, xs, ys, tol_rat: float = 1e-9):
    """Modes the closed-form predicate flags for the sensor moved to each
    point of the lattice xs x ys: for each x, the flagged modes of every
    (x, y), all () where the predicate does not apply.

    The same flags as the predicates, with the denominators found once per
    distinct coordinate instead of once per point.
    """
    if isinstance(sensor, ZoneSensor):
        try:
            _require_symmetric(sensor)
        except PredicateInapplicableError:
            return [[()] * len(ys) for _ in xs]
        # the moved support's centre, computed as Rect.center does
        h1, h2 = sensor.rect.half_widths
        xs = [0.5 * ((x - h1) + (x + h1)) for x in xs]
        ys = [0.5 * ((y - h2) + (y + h2)) for y in ys]
    q1s, q2s = _centre_denominators(domain, modes, xs, ys, tol_rat)
    return [[_vanishing_modes(modes, q1, q2).modes for q2 in q2s] for q1 in q1s]
