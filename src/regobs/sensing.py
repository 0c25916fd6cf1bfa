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
from itertools import islice

import numpy as np

from .geometry import Domain, Rect, _midpoint, _sine_product_integral
from .spectral import ModalModel, ModeIndex, ModeSet

ZONE_WEIGHTS = ("uniform", "separable_sine", "tabulated")
# Rank tolerance, relative to the largest singular value of C.
TOL_RANK = 1e-10
# Eigenvalues within TOL_GROUP (relative, floor 1) of a group's first value
# join that group.
TOL_GROUP = 1e-9
# A coordinate ratio within TOL_RAT of a rational p/q puts a nodal line there.
TOL_RAT = 1e-9
_SWEEP_CHUNK_ENTRIES = 1 << 13  # output-matrix entries a sweep rank-tests at a time


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


def _axis_integrals(weight: str, ks, alpha: float, length: float, lo, hi) -> np.ndarray:
    """Array of int_lo^hi sin(k pi (x - alpha)/L) f(x) dx over ks, f the factor
    of a closed-form zone weight on this axis (1, or the sine bump over [lo, hi]);
    lo and hi may be arrays broadcast against ks."""
    a = np.asarray(ks, dtype=float) * math.pi / length
    if weight == "uniform":
        return (np.cos(a * (lo - alpha)) - np.cos(a * (hi - alpha))) / a
    w = hi - lo
    return _sine_product_integral(a, -a * alpha, math.pi / w, -math.pi * lo / w, lo, hi)


# (theta - sin theta)/theta^2 = theta sum_n (-theta^2)^n/(2n + 3)!, to round-off for theta < 1
_ODD_SERIES = np.array([(-1) ** n / math.factorial(2 * n + 3) for n in range(9)])


def _hat_integrals(ks, alpha: float, length: float, lo, hi, n: int) -> np.ndarray:
    """A[s, k, a] = int_lo^hi sin(k pi (x - alpha)/L) u_a(x) dx for each span
    [lo[s, 0], hi[s, 0]] of the (S, 1) columns lo and hi and the hat functions
    u_a of n uniform nodes x_a on it, whose combination sum_a s_a u_a is the
    linear interpolant of the samples s_a.

    With w = k pi/L, node spacing h and theta = w h, an interior hat gives
    h sinc^2(theta/2) sin(w (x_a - alpha)); the half hats at the ends give half
    of that plus or minus h (theta - sin theta)/theta^2 cos(w (x_a - alpha)).
    Neither form cancels as theta -> 0: sinc is a plain quotient, and the odd
    term is summed as its series below theta = 1.
    """
    w = np.asarray(ks, dtype=float)[:, None] * (math.pi / length)
    h = ((hi - lo) / (n - 1))[..., None]
    phase = w * (np.linspace(lo, hi, n, axis=-1) - alpha)
    theta = w * h
    out = h * (np.sin(theta / 2) / (theta / 2)) ** 2 * np.sin(phase)
    out[..., [0, -1]] *= 0.5
    odd = h[..., 0] * np.where(theta < 1.0, theta * np.polynomial.polynomial.polyval(theta**2, _ODD_SERIES),
                               (theta - np.sin(theta)) / theta**2)[..., 0]
    out[..., 0] += odd * np.cos(phase[..., 0])
    out[..., -1] -= odd * np.cos(phase[..., -1])
    return out


def _weight_samples(sensor: SensorSpec) -> np.ndarray:
    """S of the weight sum_ab S_ab u_a(x) v_b(y): the samples of a tabulated
    weight, [[1]] for a pointwise sensor and the closed-form weights."""
    if isinstance(sensor, ZoneSensor) and sensor.weight == "tabulated":
        return np.asarray(sensor.samples, dtype=float)
    return np.ones((1, 1))


def _axis_factors(sensor: SensorSpec, axis: int, ks, alpha: float, length: float, lo, hi) -> np.ndarray:
    """A[s, k, a] = int sin(k pi (x - alpha)/L) u_a(x) dx over the sensor's
    extent [lo[s], hi[s]] on one axis (lo, hi float arrays), for each span s
    and each k in ks: the sine at the point for a pointwise sensor
    (lo == hi), the closed-form integral for the uniform and sine-bump
    weights, the hat integrals of the sample grid for a tabulated one.  Every
    span goes through the same elementwise expressions, so each A[s] has the
    bits of a one-span call.
    """
    lo, hi = lo[:, None], hi[:, None]
    if isinstance(sensor, PointwiseSensor):
        return np.sin(np.pi * (np.asarray(ks, dtype=float) * ((lo - alpha) / length)))[..., None]
    if sensor.weight == "tabulated":
        return _hat_integrals(ks, alpha, length, lo, hi, np.shape(sensor.samples)[axis])
    return _axis_integrals(sensor.weight, ks, alpha, length, lo, hi)[..., None]


def _sensor_rows(sensor: SensorSpec, domain: Domain, modes: ModeSet, spans1, spans2):
    """Output rows of the sensor placed on each extent pair spans1 x spans2:
    yields, for each (lo1, hi1) in spans1, the (len(spans2), n_modes) rows of
    that extent with each (lo2, hi2).  A pointwise sensor's extent is (b, b).

    Every weight is separable, f = sum_ab S_ab u_a(x) v_b(y), so
    row[m] = (2/sqrt(L1 L2)) sum_ab A1[i_m, a] S_ab A2[j_m, b] with the
    per-axis factors A of _axis_factors, taken for all spans of an axis at
    once; for one-term weights the row is (norm A1) A2, product by product.
    """
    ki, pos_i = np.unique([m.i for m in modes], return_inverse=True)
    kj, pos_j = np.unique([m.j for m in modes], return_inverse=True)
    samples = _weight_samples(sensor)
    norm = 2.0 / math.sqrt(domain.length1 * domain.length2)
    (lo1, hi1), (lo2, hi2) = np.array(spans1, dtype=float).T, np.array(spans2, dtype=float).T
    a2 = _axis_factors(sensor, 1, kj, domain.alpha2, domain.length2, lo2, hi2)[:, pos_j]
    a1 = norm * _axis_factors(sensor, 0, ki, domain.alpha1, domain.length1, lo1, hi1)
    for left in (a1 @ samples)[:, pos_i]:
        # summed term by term from the first, so a one-term row keeps its signed zeros
        rows = left[:, 0] * a2[..., 0]
        for b in range(1, samples.shape[1]):
            rows += left[:, b] * a2[..., b]
        yield rows


def _extent(sensor: SensorSpec):
    """The sensor's extent on each axis, as one-span lists: its support's
    sides, or (b, b) at a pointwise sensor's location b."""
    if isinstance(sensor, PointwiseSensor):
        b1, b2 = sensor.location
        return [(b1, b1)], [(b2, b2)]
    r = sensor.rect
    return [(r.lo1, r.hi1)], [(r.lo2, r.hi2)]


def _lattice_spans(sensor: SensorSpec, xs, ys):
    """The sensor's extents moved to each point of the lattice xs x ys (its
    location, or its support's centre): the spans of each x, of each y."""
    h1, h2 = (0.0, 0.0) if isinstance(sensor, PointwiseSensor) else sensor.rect.half_widths
    return [(x - h1, x + h1) for x in xs], [(y - h2, y + h2) for y in ys]


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
        rows.append(next(_sensor_rows(sensor, domain, modes, *_extent(sensor)))[0])
    return np.vstack(rows)


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


def group_values(values: np.ndarray, modes: ModeSet) -> list[ModeGroup]:
    """Groups of the values in descending order, ties by position: a value
    within TOL_GROUP (relative, floor 1) of the current group's first value
    joins that group, any other starts the next."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(-values, kind="stable")
    groups: list[list[int]] = []
    for k, value in zip(order.tolist(), values[order].tolist()):
        if groups and abs(value - ref) <= TOL_GROUP * max(1.0, abs(ref)):
            groups[-1].append(k)
        else:
            groups.append([k])
            ref = value
    groups = [sorted(idx) for idx in groups]
    return [ModeGroup(float(values[idx[0]]), tuple(idx), tuple(modes.modes[k] for k in idx)) for idx in groups]


def group_modes_by_eigenvalue(model: ModalModel, measured_field: int = 1) -> list[ModeGroup]:
    """Group the modes whose eigenvalues of the unmeasured field's block
    a_ww (ModalModel.diagonals) coincide: the groups of the strategic rank
    test of sensors on field measured_field.

    Groups are ordered by descending eigenvalue, so unstable clusters come
    first; group multiplicity is the cluster size.
    """
    return group_values(model.diagonals(measured_field)[2], model.mode_set)


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


def _singular_values(blocks: np.ndarray) -> np.ndarray:
    """Singular values of a stack of matrices, descending along the last axis.

    A block with one row or one column has a single singular value: |c| for a
    1 x 1 block, else the Euclidean norm along its one long axis, taken after
    dividing by the largest |entry| so that squares of tiny entries cannot
    underflow.  Blocks with at least two rows and two columns go to LAPACK's svd.
    """
    if min(blocks.shape[-2:]) != 1:
        return np.linalg.svd(blocks, compute_uv=False)
    vec = blocks.reshape(blocks.shape[:-2] + (-1,))
    if vec.shape[-1] == 1:
        return np.abs(vec)
    peak = np.abs(vec).max(axis=-1, initial=0.0)
    unit = vec / np.where(peak > 0, peak, 1.0)[..., None]
    return (peak * np.sqrt(np.sum(unit * unit, axis=-1)))[..., None]


def _group_layout(groups):
    """The groups by multiplicity, as _stacked_rank_test takes them: for each
    distinct multiplicity m, the index array ks of the G_m groups of that size
    and their (G_m, m) column positions; and every group's multiplicity.  A
    sweep builds it once for all its stacks."""
    by_mult: dict[int, list[int]] = {}
    for k, group in enumerate(groups):
        by_mult.setdefault(group.multiplicity, []).append(k)
    return ([(np.array(ks), np.array([groups[k].positions for k in ks])) for ks in by_mult.values()],
            np.array([group.multiplicity for group in groups], dtype=int))


def _stacked_rank_test(stack: np.ndarray, layout):
    """The rank test on a (P, rows, n) stack of output matrices against the
    groups of layout = _group_layout(groups), with the singular values of the
    (P, G_m, rows, m) group blocks taken together for each distinct group
    multiplicity m (_singular_values): a vector block (one row, or m = 1) has
    the scaled Euclidean norm as its only singular value, every other block
    one batched svd.

    Returns the (P, len(groups)) ranks, the (P, G_m, k) singular values of each
    multiplicity in layout (none without rows), the offending mask and verdicts.
    """
    by_mult, mult = layout
    p, q = stack.shape[:2]
    ranks = np.zeros((mult.size, p), dtype=int)  # group-major: each group's ranks are one row
    svals = []
    if q:
        scale = _singular_values(stack)[:, 0]
        threshold = np.where(scale > 0, TOL_RANK * scale, np.inf)[:, None, None]  # inf: rank 0
        for ks, cols in by_mult:
            s = _singular_values(np.swapaxes(stack[:, :, cols], 1, 2))
            above = s > threshold
            ranks[ks] = (above[..., 0] if above.shape[-1] == 1 else np.sum(above, axis=-1)).T
            svals.append(s)
    offending = ranks.T < mult
    strategic = (q >= mult.max(initial=0)) & ~offending.any(axis=1)
    return ranks.T, svals, offending, strategic


def strategic_rank_test(c: np.ndarray, groups) -> StrategicReport:
    """Rank test of the group blocks G_n = C[:, group columns] of the q x n
    output matrix C.

    Rank counts singular values above TOL_RANK * sigma_max, where sigma_max is
    the largest singular value of the whole output matrix: block singular
    values are bounded by it, and the shared scale keeps blocks whose entries
    are pure round-off (an exactly blind sensor) at rank 0.
    """
    c = np.atleast_2d(np.asarray(c, dtype=float))
    groups = list(groups)
    layout = _group_layout(groups)
    ranks, svals, offending, strategic = _stacked_rank_test(c[None], layout)
    group_svals = {k: tuple(row) for (ks, _), s in zip(layout[0], svals)
                   for k, row in zip(ks.tolist(), s[0].tolist())}
    blocks = tuple(
        GroupRank(group=group, rank=int(ranks[0, k]), singular_values=group_svals.get(k, ()))
        for k, group in enumerate(groups)
    )
    return StrategicReport(
        q=c.shape[0],
        tol_rank=TOL_RANK,
        blocks=blocks,
        strategic=bool(strategic[0]),
        offending=tuple(int(k) for k in np.flatnonzero(offending[0])),
        max_multiplicity=max((g.multiplicity for g in groups), default=0),
    )


def _horizon_kernel(d: np.ndarray, t_horizon: float) -> np.ndarray:
    """K_ij = (e^{(d_i+d_j)T} - 1)/(d_i+d_j), and T where d_i + d_j = 0: the
    exactly symmetric kernel of the Gramian of M = diag(d) over [0, T].  An
    entry too large for a double is inf; K_ij grows with d_i + d_j, so an
    infinite K_ij makes K_ii or K_jj infinite too."""
    d_sum = d[:, None] + d[None, :]
    k = np.full_like(d_sum, float(t_horizon))
    nz = d_sum != 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        k[nz] = np.expm1(d_sum[nz] * t_horizon) / d_sum[nz]
    return k


def observability_gramian(d: np.ndarray, obs: np.ndarray, t_horizon: float) -> np.ndarray:
    """Finite-horizon observability Gramian W = int_0^T e^{Ms} O'O e^{Ms} ds
    of the diagonal M = diag(d), given as the vector d.

    The truncated system is weakly observable through O iff W is positive
    definite.  The integral is closed-form and exactly symmetric,
    W = O'O * K with K = _horizon_kernel(d, T).  obs may be a (P, q, n) stack
    of maps; W then has shape (P, n, n).  Raises ValueError when d is not a
    vector, and when W is not finite (a horizon too long for the growth
    rates d).
    """
    if not t_horizon > 0:
        raise ValueError(f"t_horizon must be > 0, got {t_horizon!r}")
    d = np.asarray(d, dtype=float)
    if d.ndim != 1:
        raise ValueError(f"observability_gramian takes the diagonal of M as a vector, got shape {d.shape}")
    obs = np.atleast_2d(np.asarray(obs, dtype=float))
    oto = np.swapaxes(obs, -1, -2) @ obs
    # in place: O'O and K are exactly symmetric, so their product is too; an
    # overflow in either leaves inf or nan in W, which the check below rejects
    with np.errstate(over="ignore", invalid="ignore"):
        w = np.multiply(oto, _horizon_kernel(d, t_horizon), out=oto)
    if not np.isfinite(w).all():
        raise ValueError(f"observability Gramian overflows at t_horizon = {t_horizon!r}")
    return w


def _kernel_rank(k: np.ndarray) -> int:
    """Numerical rank r of the unit-diagonal correlation C = S^-1 K S^-1,
    S = diag(sqrt(K_ii)), of a horizon kernel K (_horizon_kernel), counted as
    the eigenvalues of C above eps * lambda_max(C).

    W = O'O * K = sum_s D_s C D_s with D_s = diag(o_s sqrt(K_ii)) for the rows
    o_s of O.  With C_r the rank-r part of C, sum_s D_s C_r D_s has rank at
    most q r and lies within n eps sum_s max_i o_si^2 K_ii of W.  So when
    q r < n, W is that close to singular: its smallest eigenvalue is 0 to
    within that bound, the scale of eigvalsh's own round-off on W.
    """
    s = np.sqrt(np.diag(k))
    lam = np.linalg.eigvalsh(k / s[:, None] / s[None, :])
    return int(np.sum(lam > np.finfo(float).eps * lam[-1]))


# --- closed-form non-strategicness predicates ---------------------------------


class PredicateInapplicableError(ValueError):
    """The symmetry argument does not apply (non-symmetric zone weight)."""


@dataclass(frozen=True)
class PredicateResult:
    triggered: bool
    modes: tuple[ModeIndex, ...]
    axis_denominators: tuple[int | None, int | None]


def _vanishing_modes(modes: ModeSet, q1: int | None, q2: int | None) -> tuple[ModeIndex, ...]:
    return tuple(m for m in modes if (q1 is not None and m.i % q1 == 0) or (q2 is not None and m.j % q2 == 0))


def _axis_denominators(ratios, max_den: int) -> list[int | None]:
    """Denominator of the fraction p/q, q <= max_den, within TOL_RAT of each
    ratio r, or None: the smallest q with |r - rint(r q)/q| <= TOL_RAT, one
    array test over all ratios and q.  Fractions with denominators at most
    max_den lie 1/max_den^2 or more apart, far above 2 TOL_RAT, so at most one
    hits: Fraction.limit_denominator's best approximation, whose lowest-terms
    denominator is the smallest q that hits and whose p/q is the same IEEE
    quotient for every multiple of it."""
    r = np.asarray(ratios, dtype=float)[:, None]
    q = np.arange(1, max_den + 1, dtype=float)
    hit = np.abs(r - np.rint(r * q) / q) <= TOL_RAT
    return [int(k) + 1 if h else None for k, h in zip(hit.argmax(axis=1), hit.any(axis=1))]


def _nodal_rule(sensor: SensorSpec, domain: Domain, modes: ModeSet, spans1, spans2):
    """The closed-form predicate for the sensor on each extent pair of
    spans1 x spans2 (_extent, _lattice_spans): the denominators q1 and q2 of
    the centres of the spans along their axes (_axis_denominators), and
    flagged[q1][q2], the modes blind there, i a multiple of q1 or j of q2,
    once per distinct pair.  A pointwise sensor's span (b, b) has the centre
    b itself, bit for bit.

    Raises PredicateInapplicableError for a tabulated weight that is not
    exactly symmetric about the support centre: the flags rest on rows that
    vanish exactly, and a weight asymmetric by any amount leaves them nonzero.
    """
    if isinstance(sensor, ZoneSensor) and sensor.weight == "tabulated":
        arr = np.asarray(sensor.samples, dtype=float)
        if not (np.array_equal(arr, arr[::-1, :]) and np.array_equal(arr, arr[:, ::-1])):
            raise PredicateInapplicableError("zone weight is not symmetric about the support center")
    (lo1, hi1), (lo2, hi2) = np.array(spans1, dtype=float).T, np.array(spans2, dtype=float).T
    q1s = _axis_denominators((_midpoint(lo1, hi1) - domain.alpha1) / domain.length1, modes.max_i)
    q2s = _axis_denominators((_midpoint(lo2, hi2) - domain.alpha2) / domain.length2, modes.max_j)
    flagged = {q1: {q2: _vanishing_modes(modes, q1, q2) for q2 in set(q2s)} for q1 in set(q1s)}
    return q1s, q2s, flagged


def _predicate(sensor: SensorSpec, domain: Domain, modes: ModeSet) -> PredicateResult:
    _check_sensor(sensor, domain)
    (q1,), (q2,), flagged = _nodal_rule(sensor, domain, modes, *_extent(sensor))
    hit = flagged[q1][q2]
    return PredicateResult(triggered=bool(hit), modes=hit, axis_denominators=(q1, q2))


def nonstrategic_pointwise_predicate(sensor: PointwiseSensor, domain: Domain, modes: ModeSet) -> PredicateResult:
    """Modes blind to a pointwise sensor: phi_ij(b) = 0 exactly when
    i (b1 - alpha1)/L1 or j (b2 - alpha2)/L2 is an integer.

    Rational detection finds the fraction within TOL_RAT of each ratio whose
    denominator is bounded by the per-axis truncation (_axis_denominators).
    """
    return _predicate(sensor, domain, modes)


def nonstrategic_zone_predicate(sensor: ZoneSensor, domain: Domain, modes: ModeSet) -> PredicateResult:
    """Modes blind to a zone sensor whose weight is symmetric about the
    support center: the centered sine integral vanishes exactly when the
    center-position ratio makes sin(i pi (xi0 - alpha)/L) zero.

    Raises PredicateInapplicableError for a non-symmetric weight; callers fall
    back to the rank test.
    """
    return _predicate(sensor, domain, modes)


def _lattice_triggered(sensor: SensorSpec, domain: Domain, modes: ModeSet, xs, ys):
    """Modes the closed-form predicate flags for the sensor moved to each
    point of the lattice xs x ys: for each x, the flagged modes of every
    (x, y), all () where the predicate does not apply.

    The predicates' own rule on the lattice's spans, with each row of flags
    built once per distinct q1.
    """
    try:
        q1s, q2s, flagged = _nodal_rule(sensor, domain, modes, *_lattice_spans(sensor, xs, ys))
    except PredicateInapplicableError:
        return [[()] * len(ys) for _ in xs]
    rows = {q1: [flags[q2] for q2 in q2s] for q1, flags in flagged.items()}
    return [rows[q1].copy() for q1 in q1s]


def _lattice_sweep(varied: SensorSpec, fixed: np.ndarray, groups, d: np.ndarray, t_horizon: float,
                   domain: Domain, modes: ModeSet, xs, ys):
    """The sensor `varied` moved to each point of the lattice xs x ys beside
    the fixed output rows `fixed` ((q - 1, n), none for q = 1): the strategic
    verdicts against `groups` and the smallest eigenvalues of the
    observability Gramians over [0, t_horizon] of diag(d), both
    (len(xs), len(ys)) arrays, and the closed-form predicate flags, a list
    of rows of flagged modes (_lattice_triggered).

    The positions are rank-tested and checked for Gramian overflow in chunks
    of whole lattice rows (fixed x), as many rows as keep a chunk's output
    matrices within _SWEEP_CHUNK_ENTRIES entries and at least one.  The
    horizon kernel K is built once to count the numerical rank r of its
    correlation (_kernel_rank) and to check overflow.  When q sensors times r
    fall short of the n modes, every Gramian is singular to within
    n eps sum_s max_i c_si^2 K_ii, and the eigenvalue is written as 0.0 with
    no eigensolve.  Otherwise each lattice row's Gramians come from
    observability_gramian, which builds K again for that row, and are
    eigensolved together; a negative eigvalsh value, round-off of a positive
    semidefinite W, is written as 0.0.  Raises OverflowError when a Gramian
    does not fit in a double.
    """
    q, n = len(fixed) + 1, len(modes)
    layout = _group_layout(groups)
    k = _horizon_kernel(d, t_horizon)
    # q r < n: every Gramian is numerically singular; a K that is not finite
    # fails the overflow check of the first chunk instead
    singular = np.isfinite(k).all() and q * _kernel_rank(k) < n
    strategic = np.zeros((len(xs), len(ys)), dtype=bool)
    min_eig = np.zeros((len(xs), len(ys)))
    lattice = _sensor_rows(varied, domain, modes, *_lattice_spans(varied, xs, ys))
    chunk = max(1, _SWEEP_CHUNK_ENTRIES // (len(ys) * q * n))
    for start in range(0, len(xs), chunk):
        varied_rows = np.stack(list(islice(lattice, chunk))).reshape(-1, 1, n)
        span = slice(start, start + len(varied_rows) // len(ys))
        c = np.concatenate([varied_rows, np.broadcast_to(fixed, (len(varied_rows), q - 1, n))], axis=1)
        strategic[span] = _stacked_rank_test(c, layout)[3].reshape(-1, len(ys))
        with np.errstate(over="ignore", invalid="ignore"):
            # |W_ij| <= sqrt(W_ii W_jj), so W overflows where its diagonal does
            if not np.isfinite(np.sum(c * c, axis=1) * np.diag(k)).all():
                raise OverflowError(f"observability Gramian overflows at t_horizon = {t_horizon!r}")
        if not singular:
            for row_c, row_eig in zip(c.reshape(-1, len(ys), q, n), min_eig[span]):
                w = observability_gramian(d, row_c, t_horizon)
                # W is positive semidefinite: a negative eigvalsh value is round-off,
                # and 0 is never farther from the true eigenvalue than it is
                np.maximum(np.linalg.eigvalsh(w)[:, 0], 0.0, out=row_eig)
    return strategic, min_eig, _lattice_triggered(varied, domain, modes, xs, ys)
