"""Dirichlet sine eigenbasis, modal assembly of the coupled exchange system,
and exact propagation of the resulting linear time-invariant dynamics.

The spatial operator is the Laplacian on a rectangle with homogeneous
Dirichlet conditions.  Both fields of the exchange system are expanded in the
same product-sine basis, so every block operator is diagonal over one shared
mode ordering and is held as the vector of its diagonal.  Propagation is in
closed form throughout: per-mode 2 x 2 exponentials for the plant
(ModePairs), scalar exponentials (exp_samples) and a few coupled rows
(propagate_few_rows) for the estimation error.  Only the last, for two rows
or more, takes a matrix exponential.  Each evaluates any range of sample
rows with the same arithmetic, so a simulation can make its samples one
block of rows at a time (few_rows_blocks carries the coupled rows' state
from one block to the next).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .geometry import Domain


class ModeIndex(NamedTuple):
    i: int
    j: int


@dataclass(frozen=True)
class ModeSet:
    """Ordered, duplicate-free collection of mode indices.

    The canonical construction is ``ModeSet.square(n)``: row-major (i, j)
    ordering with 1 <= i, j <= n, which fixes the column ordering of every
    modal matrix in the toolkit.
    """

    modes: tuple[ModeIndex, ...]

    def __post_init__(self):
        if not self.modes:
            raise ValueError("mode set must be nonempty")
        seen = set()
        for m in self.modes:
            if m.i < 1 or m.j < 1:
                raise ValueError(f"mode indices must be >= 1, got {m}")
            if m in seen:
                raise ValueError(f"duplicate mode {m}")
            seen.add(m)

    @classmethod
    def square(cls, n: int) -> "ModeSet":
        if n < 1:
            raise ValueError("truncation bound must be >= 1")
        return cls(tuple(ModeIndex(i, j) for i in range(1, n + 1) for j in range(1, n + 1)))

    def __len__(self) -> int:
        return len(self.modes)

    def __iter__(self):
        return iter(self.modes)

    def position(self, mode: ModeIndex) -> int:
        return self.modes.index(ModeIndex(*mode))

    @cached_property
    def max_i(self) -> int:
        return max(m.i for m in self.modes)

    @cached_property
    def max_j(self) -> int:
        return max(m.j for m in self.modes)


def eigenvalue(mode: ModeIndex, domain: Domain) -> float:
    """Laplacian eigenvalue -pi^2 (i^2/L1^2 + j^2/L2^2) of the product-sine mode."""
    i, j = mode
    if i < 1 or j < 1:
        raise ValueError("mode indices must be >= 1")
    return -((i / domain.length1) ** 2 + (j / domain.length2) ** 2) * math.pi**2


def eigenvalues(modes: ModeSet, domain: Domain) -> np.ndarray:
    return np.array([eigenvalue(m, domain) for m in modes], dtype=float)


def eval_matrix(domain: Domain, modes: ModeSet, points: np.ndarray) -> np.ndarray:
    """Evaluation matrix Phi with Phi[k, m] = phi_m(points[k]), vectorized.

    points: array of shape (K, 2) inside the closed rectangle; a point
    outside it, or with a NaN coordinate, raises ValueError.  Each axis
    takes one table of sines, sin(pi x_k i) for i = 1..max_i, which the modes
    gather by index: the same operations as the per-mode outer products, so
    the same bits, with max_i + max_j sines per point instead of 2 n_modes.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != 2:
        raise ValueError("points must have shape (K, 2)")
    xs = (pts[:, 0] - domain.alpha1) / domain.length1
    ys = (pts[:, 1] - domain.alpha2) / domain.length2
    # written so that a NaN coordinate, which fails every comparison, fails it
    if not (xs.min() >= -1e-12 and xs.max() <= 1 + 1e-12 and ys.min() >= -1e-12 and ys.max() <= 1 + 1e-12):
        raise ValueError("points must lie in the closed domain and not be NaN")
    ii = np.array([m.i - 1 for m in modes])
    jj = np.array([m.j - 1 for m in modes])
    sin_x = np.sin(np.pi * np.outer(xs, np.arange(1.0, modes.max_i + 1)))
    sin_y = np.sin(np.pi * np.outer(ys, np.arange(1.0, modes.max_j + 1)))
    c = 2.0 / math.sqrt(domain.length1 * domain.length2)
    return c * sin_x[:, ii] * sin_y[:, jj]


@dataclass(frozen=True)
class Coefficients:
    """Physical coefficients of the two-field exchange system.

    alpha_diff, gamma_diff: diffusion coefficients of field 1 and field 2;
    beta_couple: symmetric exchange coupling.
    """

    alpha_diff: float = 1.0
    gamma_diff: float = 0.1
    beta_couple: float = 1.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.alpha_diff, self.gamma_diff, self.beta_couple))):
            raise ValueError("coefficients must be finite")
        if self.alpha_diff <= 0 or self.gamma_diff <= 0:
            raise ValueError("diffusion coefficients must be positive")


@dataclass(eq=False)
class ModalModel:
    """Truncated two-field system in modal coordinates.

    Every block of the coupled dynamics d/dt [x1; x2] is diagonal, and the
    model holds each as the length-n vector of its diagonal:

        [diag(a11) diag(a12)]   with a11 = alpha*lam + beta, a22 = gamma*lam + beta
        [diag(a12) diag(a22)]        a12 = -beta, the coupling in both equations

    The system is autonomous: a known input would leave the estimation error,
    and so every reported number, unchanged.
    """

    domain: Domain
    coefficients: Coefficients
    mode_set: ModeSet
    eigenvalues: np.ndarray
    a11: np.ndarray
    a12: np.ndarray
    a22: np.ndarray

    @property
    def n_modes(self) -> int:
        return len(self.mode_set)

    @cached_property
    def mode_pairs(self) -> "ModePairs":
        """Closed-form eigendecomposition of the stacked 2n x 2n dynamics
        [[diag(a11), diag(a12)], [diag(a12), diag(a22)]]: one symmetric 2 x 2
        block per mode, made of the diagonals."""
        return ModePairs.of_blocks(self.a11, self.a12, self.a22)

    def diagonals(self, measured_field: int = 1):
        """Diagonals (a_mm, a_mw, a_ww) of the measured field's own block, of
        the coupling and of the unmeasured field's block."""
        if measured_field == 1:
            return self.a11, self.a12, self.a22
        if measured_field == 2:
            return self.a22, self.a12, self.a11
        raise ValueError("measured_field must be 1 or 2")


def assemble_exchange_model(coefficients: Coefficients, domain: Domain, modes: ModeSet) -> ModalModel:
    """Assemble the modal exchange model on the given mode set.

    Finite coefficients can still overflow a diagonal or a rate of the 2 x 2
    mode pairs, and a narrow domain the eigenvalues themselves: any of these
    non-finite raises ValueError.  Each is monotone or convex in the
    eigenvalue, so on a square mode set the modes (1, 1) and (n, n) bound
    them all.
    """
    beta = coefficients.beta_couple
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            lam = eigenvalues(modes, domain)
        except OverflowError:
            raise ValueError("the Laplacian eigenvalues overflow on this domain and mode set") from None
        model = ModalModel(
            domain=domain,
            coefficients=coefficients,
            mode_set=modes,
            eigenvalues=lam,
            a11=coefficients.alpha_diff * lam + beta,
            a12=np.full(len(modes), -beta),
            a22=coefficients.gamma_diff * lam + beta,
        )
        # a non-finite diagonal makes its pair's rates non-finite as well
        finite = all(np.isfinite(r).all() for r in _pair_rates(model.a11, model.a12, model.a22))
    if not finite:
        raise ValueError("the model's diagonals or mode-pair rates overflow on this domain and mode set")
    return model


# exp(x) rounds to +0.0 for every x below log(2^-1075) = -745.13
EXP_ZERO_BELOW = -746.0


def exp_samples(rates: np.ndarray, z0: np.ndarray, dt: float, steps: int, start: int = 0) -> np.ndarray:
    """Samples at t_k = k dt, k = start..steps, of the decoupled scalar
    dynamics z' = diag(rates) z, z(0) = z0; shape (steps + 1 - start, len(rates)).

    On the columns where z0 is nonzero this is the broadcast exp(rates t_k) z0,
    bit for bit, signed zeros included; a column where z0 is 0 stays +0.0,
    also where its exponential would overflow.  The exponential is evaluated
    only on the nonzero columns and only where rates t_k >= EXP_ZERO_BELOW:
    below it exp returns +0.0 anyway, at ten to twenty times the cost of a
    normal argument, so the product is written as 0.0 z0 directly.  Every
    operation is elementwise in t_k = dt k, so a row is the same whichever
    range it is sampled in."""
    live = np.flatnonzero(z0)
    z = np.outer(dt * np.arange(start, steps + 1), rates[live])
    dead = z < EXP_ZERO_BELOW
    np.exp(z, out=z, where=~dead)
    np.copyto(z, 0.0, where=dead)
    z *= z0[live]
    if live.size == rates.shape[0]:
        return z
    full = np.zeros((z.shape[0], rates.shape[0]))
    full[:, live] = z
    return full


def row_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a (T, K) and b (K,) or (K, J), each row of a multiplied in a
    BLAS call of its own.  A product of many rows at once rounds a row
    differently depending on how many rows share the call and where the row
    sits in it, so this is the form that gives a row the same bits in any
    block of rows.  a is laid out in C order first: numpy takes its own loop,
    which sums in another order, for rows that are not contiguous."""
    a = np.ascontiguousarray(a)
    return np.matmul(a.reshape(a.shape[0], 1, a.shape[1]), b)[:, 0]


def _pair_rates(a: np.ndarray, b: np.ndarray, d: np.ndarray):
    """Eigenvalues (larger, smaller) of the symmetric 2 x 2 blocks
    [[a_i, b_i], [b_i, d_i]]: mean +- hypot(half, b), mean = (a + d)/2,
    half = (a - d)/2."""
    mean, r = 0.5 * (a + d), np.hypot(0.5 * (a - d), b)
    return mean + r, mean - r


@dataclass(frozen=True, eq=False)
class ModePairs:
    """Closed-form eigendecomposition of a 2n x 2n matrix whose nonzeros are
    n symmetric 2 x 2 blocks [[a_i, b_i], [b_i, d_i]] on the coordinate pairs
    (i, n + i), such as the stacked exchange matrix
    [[diag(a11), diag(a12)], [diag(a12), diag(a22)]] (ModalModel.mode_pairs).

    The orthogonal eigenbasis has column i = (cos_i, sin_i) and column n + i =
    (-sin_i, cos_i) on pair i; rates holds the eigenvalues in that column
    order, rates[i] >= rates[n + i].
    """

    rates: np.ndarray
    cos: np.ndarray
    sin: np.ndarray

    @classmethod
    def of_blocks(cls, a: np.ndarray, b: np.ndarray, d: np.ndarray) -> "ModePairs":
        """Pairs of the blocks [[a_i, b_i], [b_i, d_i]], given as three length-n arrays."""
        # the rotation by theta, tan(2 theta) = b / half, diagonalizes the pair
        theta = 0.5 * np.arctan2(b, 0.5 * (a - d))
        return cls(rates=np.concatenate(_pair_rates(a, b, d)), cos=np.cos(theta), sin=np.sin(theta))

    @property
    def n(self) -> int:
        return self.cos.shape[0]

    def to_eigen(self, x: np.ndarray) -> np.ndarray:
        """Eigen coordinates V^T x of stacked states x (..., 2n)."""
        x1, x2 = x[..., :self.n], x[..., self.n:]
        return np.concatenate([self.cos * x1 + self.sin * x2, self.cos * x2 - self.sin * x1], axis=-1)

    def from_eigen(self, z: np.ndarray) -> np.ndarray:
        """Stacked states V z of eigen coordinates z (..., 2n)."""
        zp, zm = z[..., :self.n], z[..., self.n:]
        # written in place with one half-size temporary: a run's sample arrays
        # are its largest, and each fresh one costs a page fault per 4 KiB
        x = np.empty(z.shape)
        x1, x2 = x[..., :self.n], x[..., self.n:]
        tmp = np.multiply(self.sin, zm)
        np.subtract(np.multiply(self.cos, zp, out=x1), tmp, out=x1)
        np.multiply(self.cos, zm, out=tmp)
        np.add(np.multiply(self.sin, zp, out=x2), tmp, out=x2)
        return x

    def samples(self, x0: np.ndarray, dt: float, steps: int, start: int = 0) -> np.ndarray:
        """Exact samples k = start..steps (steps + 1 - start, 2n) of x' = M x;
        sample 0 is x0 itself."""
        x = self.from_eigen(exp_samples(self.rates, self.to_eigen(x0), dt, steps, start))
        if start == 0:
            x[0] = x0
        return x


NEAR_SPECTRUM = 1e-2


def propagate_few_rows(rates: np.ndarray, rows, f_rows: np.ndarray, z0: np.ndarray,
                       dt: float, steps: int) -> np.ndarray:
    """Exact samples (steps + 1, N) of z' = F z, where F equals diag(rates)
    outside the few rows `rows` and f_rows (J x N) holds those J rows: the
    one block of few_rows_blocks that holds every sample."""
    return next(few_rows_blocks(rates, rows, f_rows, z0, dt, [(0, steps + 1)]))


def few_rows_blocks(rates: np.ndarray, rows, f_rows: np.ndarray, z0: np.ndarray, dt: float, bounds):
    """Exact samples of z' = F z, as propagate_few_rows, one block of rows at
    a time: for each (start, stop) of bounds, ranges that follow each other
    from 0, the samples k = start..stop - 1, shape (stop - start, N).

    The other coordinates S decay as scalars, z_S(t_k) = exp(d_S t_k) z_S(0).
    They drive the J coordinates R through the step recursion

        z_R(k + 1) = E z_R(k) + Gamma z_S(k),   E = exp(F_RR dt),
        Gamma[:, s] = int_0^dt exp(F_RR (dt - tau)) F_RS[:, s] exp(d_s tau) dtau,

    which carries z_R from one block to the next.  The drive Gamma z_S(k)
    is formed row by row (row_products), so a sample has the same bits
    however the rows are split into blocks.  Only E and Gamma depend on J.
    A run with at most one unstable row needs no matrix function
    (_one_row_step); J >= 2 rows take _few_rows_step.
    """
    rows = np.asarray(rows, dtype=int)
    j = rows.size
    if j:
        others = np.setdiff1d(np.arange(rates.shape[0]), rows)
        f_rr, f_rs, d_s = f_rows[:, rows], f_rows[:, others], rates[others]
        if j == 1:
            step, gamma = _one_row_step(f_rr, f_rs[0], d_s, dt)
        else:
            step, gamma = _few_rows_step(f_rr, f_rs, d_s, dt)
        z_r = z0[rows]
    for start, stop in bounds:
        z = exp_samples(rates, z0, dt, stop - 1, start)
        if j:
            drive = row_products(np.take(z, others, axis=1), gamma)
            if start:
                z_r = step @ z_r + last_drive
            block = _row_recursion(step, z_r, drive)
            z[:, rows] = block
            z_r, last_drive = block[-1], drive[-1]
        yield z


def _row_recursion(step: np.ndarray, z_r: np.ndarray, drive: np.ndarray) -> np.ndarray:
    """Rows z(0) = z_r and z(k + 1) = step @ z(k) + drive[k] of the J-row
    recursion, one per row of drive (the last drive row is not used).  One
    row runs on Python floats: (0.0 + s z) + d has the bits of the numpy
    step, whose product starts from a +0.0 accumulator, at a tenth of its
    cost."""
    if step.shape == (1, 1):
        s, z = float(step[0, 0]), float(z_r[0])
        out = [z]
        for d in drive[:-1, 0].tolist():
            z = (0.0 + s * z) + d
            out.append(z)
        return np.array(out)[:, None]
    out = np.empty(drive.shape)
    out[0] = z_r
    for k in range(drive.shape[0] - 1):
        out[k + 1] = step @ out[k] + drive[k]
    return out


def _one_row_step(f_rr: np.ndarray, f_s: np.ndarray, d_s: np.ndarray, dt: float):
    """E (1 x 1) and Gamma (N - 1, 1) of propagate_few_rows for one row,
    F_RR = [[lam]], in closed form: E = exp(lam dt) and

        Gamma_s = f_s dt exp(max(lam, d_s) dt) phi1(-|lam - d_s| dt),

    with phi1(x) = expm1(x) / x and phi1(0) = 1.  This is f_s times the
    divided difference (exp(lam dt) - exp(d_s dt)) / (lam - d_s), which phi1
    evaluates without cancellation (Higham, "Functions of Matrices", 2008), so
    one formula serves columns near and far from lam.  As 0 < phi1 <= 1 on
    x <= 0, it never forms inf * 0, which exp(d_s dt) phi1((lam - d_s) dt)
    does once (lam - d_s) dt passes about 710.
    """
    lam = f_rr[0, 0]
    gap = -np.abs(lam - d_s) * dt
    phi1 = np.ones_like(gap)
    moving = gap != 0
    phi1[moving] = np.expm1(gap[moving]) / gap[moving]
    gamma = f_s * dt * np.exp(np.maximum(lam, d_s) * dt) * phi1
    return np.exp(f_rr * dt), gamma[:, None]


def _few_rows_step(f_rr: np.ndarray, f_rs: np.ndarray, d_s: np.ndarray, dt: float):
    """E and Gamma (N - J, J) of propagate_few_rows for J >= 2 rows.

    Column s of Gamma is (E - exp(d_s dt)) (F_RR - d_s)^-1 F_RS[:, s] when
    sigma_min(F_RR - d_s) dt >= NEAR_SPECTRUM, where the difference loses at
    most two of the digits that the exponentials carry.  Nearer to the
    spectrum of F_RR it cancels, and the column is read off the (J + 1)-order
    block exponential exp([[F_RR, F_RS[:, s]], [0, d_s]] dt) instead (Van
    Loan, "Computing integrals involving the matrix exponential", IEEE TAC
    1978), which stays exact when d_s is an eigenvalue of F_RR.  The block
    exponential would be exact for every column, but scaling and squaring it
    for the fast stable modes, where |d_s| dt is large, costs far more than
    the resolvent.
    """
    # imported on use: loading scipy.linalg is most of the CLI's start-up
    from scipy.linalg import expm

    j = f_rr.shape[0]
    step = expm(f_rr * dt)
    shifted = f_rr - d_s[:, None, None] * np.eye(j)
    far = np.linalg.svd(shifted, compute_uv=False)[:, -1] * dt >= NEAR_SPECTRUM
    gamma = np.empty((d_s.size, j))
    x = np.linalg.solve(shifted[far], f_rs.T[far][..., None])[..., 0]
    gamma[far] = x @ step.T - np.exp(d_s[far] * dt)[:, None] * x
    near = np.flatnonzero(~far)
    # The row appended below each block keeps it from being triangular:
    # scipy's expm squares a triangular input with a plain divided difference
    # of its diagonal exponentials, which cancels where d_s nearly equals an
    # eigenvalue of F_RR, the case these columns are for.  The row feeds
    # nothing back, so the leading (J + 1) block is the Van Loan exponential.
    blocks = np.zeros((near.size, j + 2, j + 2))
    blocks[:, :j, :j] = f_rr * dt
    blocks[:, :j, j] = f_rs.T[near] * dt
    blocks[:, j, j] = d_s[near] * dt
    blocks[:, j + 1, 0] = 1.0
    gamma[near] = expm(blocks)[:, :j, j]
    return step, gamma
