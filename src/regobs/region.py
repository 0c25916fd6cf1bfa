"""Target-region geometry, region-restricted error norms, and exponential
decay-rate fitting.

Every Dirichlet mode vanishes on the boundary, so a boundary segment Gamma
has no norm of its own here: a run measures the error on its internal
collar (build_collar), the proxy of Zerrik, Badraoui and El Jai (1999), and
a segment passed where a region is expected is a TypeError.  A collar is
the nodes of a tensor rule over its bounding box that lie within its radius
of the segment (geometry.segment_distance), with their weights; it holds no
other membership test.

The exact fractional trace norm is out of scope; the default metric is the
L2 norm of the restricted field, read off the region's Gram matrix, with a
modal Sobolev surrogate (weights sqrt(1 + |lambda_m|) on indicator-projected
coefficients) as an option.  On a fixed truncation all these norms are
equivalent, so decay-rate and convergence statements do not depend on the
choice.

The Gram matrix of an internal rectangle is the Kronecker product of two 1-D
sine Grams, so a run applies it in that form (SeparableGram, from
region_operator): G e costs two small matrix products per sample and no n x n
matrix is built.  Collars keep the dense quadrature Gram, and region_gram
stays the dense form of every region, the oracle of the separable one.  A
run takes the norm of every sample at once (gram_norm_series);
gamma_error_norm is the public norm of one estimate's error.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import EDGES, Domain, Rect, _sine_product_integral, edge_segment, gauss_nodes, segment_distance
from .spectral import ModeSet, eigenvalues, eval_matrix, row_products

NORM_WEIGHTS = ("l2", "sobolev_half")
VALUE_FLOOR = 1e-30


@dataclass(frozen=True)
class BoundarySegment:
    """Segment of one domain edge, parametrized by the in-edge coordinate."""

    edge: str
    lo: float
    hi: float
    n_quad: int = 64

    def __post_init__(self):
        if self.edge not in EDGES:
            raise ValueError(f"unknown edge {self.edge!r}")
        if not self.hi > self.lo:
            raise ValueError("segment requires to > from")
        if self.n_quad < 1:
            raise ValueError("n_quad must be >= 1")


@dataclass(frozen=True)
class InternalRectangle:
    rect: Rect
    n_quad: int = 64

    def __post_init__(self):
        if self.n_quad < 1:
            raise ValueError("n_quad must be >= 1")


RegionSpec = BoundarySegment | InternalRectangle


@dataclass(frozen=True)
class CollarRegion:
    """Internal collar of a boundary segment: points of the domain within
    distance `radius` of the segment, held as the quadrature nodes and
    weights that build_collar keeps."""

    gamma: BoundarySegment
    radius: float
    domain: Domain
    points: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)


def region_quadrature(region, domain: Domain):
    """Quadrature nodes (K, 2) and weights (K,) of a region.

    InternalRectangle: tensor nodes; CollarRegion: its precomputed filtered
    tensor rule.
    """
    if isinstance(region, CollarRegion):
        return region.points, region.weights
    if isinstance(region, InternalRectangle):
        rect = region.rect
        if not rect.inside(domain):
            raise ValueError("internal rectangle outside domain")
        xs, wx = gauss_nodes(rect.lo1, rect.hi1, region.n_quad)
        ys, wy = gauss_nodes(rect.lo2, rect.hi2, region.n_quad)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        return np.column_stack([gx.ravel(), gy.ravel()]), np.outer(wx, wy).ravel()
    raise TypeError(f"unsupported region {type(region).__name__}: every Dirichlet mode vanishes on a "
                    "boundary segment, so measure it on its collar, build_collar(segment, radius, domain)")


def build_collar(gamma: BoundarySegment, radius: float, domain: Domain) -> CollarRegion:
    """Collar of a boundary segment, on gamma.n_quad tensor nodes per axis of
    its bounding box; radius may exceed the domain size, in which case the
    collar degenerates to (a superset of) the whole domain."""
    if not radius > 0:
        raise ValueError(f"collar radius must be > 0, got {radius!r}")
    a, b = edge_segment(domain, gamma.edge, gamma.lo, gamma.hi)
    lo1 = max(domain.alpha1, min(a[0], b[0]) - radius)
    hi1 = min(domain.beta1, max(a[0], b[0]) + radius)
    lo2 = max(domain.alpha2, min(a[1], b[1]) - radius)
    hi2 = min(domain.beta2, max(a[1], b[1]) + radius)
    xs, wx = gauss_nodes(lo1, hi1, gamma.n_quad)
    ys, wy = gauss_nodes(lo2, hi2, gamma.n_quad)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    w = np.outer(wx, wy).ravel()
    member = segment_distance(pts, a, b) < radius
    return CollarRegion(gamma=gamma, radius=radius, domain=domain,
                        points=pts[member], weights=w[member])


def _sine_gram_1d(n: int, alpha: float, length: float, lo: float, hi: float) -> np.ndarray:
    # I[i-1, k-1] = int_lo^hi sin(i pi (x - alpha)/L) sin(k pi (x - alpha)/L) dx
    a = (np.arange(1, n + 1) * math.pi / length)[:, None]
    return _sine_product_integral(a, -a * alpha, a.T, -a.T * alpha, lo, hi)


@dataclass(frozen=True, eq=False)
class SeparableGram:
    """Gram matrix of an internal rectangle in separable form,

        G[m, m'] = scale I1[i_m - 1, i_m' - 1] I2[j_m - 1, j_m' - 1],

    held as the 1-D sine Grams i1 (max_i x max_i) and i2 (max_j x max_j) and
    scale = 4/(L1 L2).  Mode m sits in cell cells[m] = (i_m - 1) max_j + j_m - 1
    of the row-major (max_i, max_j) grid; no mode order is assumed.
    """

    i1: np.ndarray
    i2: np.ndarray
    scale: float
    cells: np.ndarray

    @property
    def _is_grid(self) -> bool:
        # the modes fill the grid in row-major order, as ModeSet.square does
        return self.cells.size == self.i1.shape[0] * self.i2.shape[0] and \
            bool((self.cells == np.arange(self.cells.size)).all())

    def project(self, err: np.ndarray) -> np.ndarray:
        """Rows e G of err (T, n): scale I1^T E I2 for each row's grid E, two
        matrix products per row."""
        t, (ni, nj), is_grid = err.shape[0], (self.i1.shape[0], self.i2.shape[0]), self._is_grid
        if is_grid:
            grid = err.reshape(t, ni, nj)
        else:
            grid = np.zeros((t, ni * nj))
            grid[:, self.cells] = err
            grid = grid.reshape(t, ni, nj)
        out = np.matmul(np.matmul(self.scale * self.i1.T, grid), self.i2).reshape(t, ni * nj)
        return out if is_grid else out[:, self.cells]


def _rectangle_gram(region: InternalRectangle, domain: Domain, modes: ModeSet) -> SeparableGram:
    rect = region.rect
    if not rect.inside(domain):
        raise ValueError("internal rectangle outside domain")
    max_j = modes.max_j
    i1 = _sine_gram_1d(modes.max_i, domain.alpha1, domain.length1, rect.lo1, rect.hi1)
    i2 = _sine_gram_1d(max_j, domain.alpha2, domain.length2, rect.lo2, rect.hi2)
    cells = np.array([(m.i - 1) * max_j + m.j - 1 for m in modes])
    return SeparableGram(i1=i1, i2=i2, scale=4.0 / (domain.length1 * domain.length2), cells=cells)


def region_gram(region, domain: Domain, modes: ModeSet) -> np.ndarray:
    """Gram matrix G[m, m'] = int_region phi_m phi_m': exact and separable,
    (4/(L1 L2)) I1[i, i'] I2[j, j'], for an InternalRectangle; the region
    quadrature for a collar."""
    if isinstance(region, InternalRectangle):
        sep = _rectangle_gram(region, domain, modes)
        ii = np.array([m.i - 1 for m in modes])
        jj = np.array([m.j - 1 for m in modes])
        return sep.scale * sep.i1[np.ix_(ii, ii)] * sep.i2[np.ix_(jj, jj)]
    pts, w = region_quadrature(region, domain)
    phi = eval_matrix(domain, modes, pts) if pts.shape[0] else np.zeros((0, len(modes)))
    return phi.T @ (w[:, None] * phi)


def region_operator(region, domain: Domain, modes: ModeSet):
    """The region's Gram matrix in the form gram_norm_series applies fastest:
    a SeparableGram for an InternalRectangle, region_gram otherwise."""
    if isinstance(region, InternalRectangle):
        return _rectangle_gram(region, domain, modes)
    return region_gram(region, domain, modes)


def gram_norm_series(err_coeffs: np.ndarray, gram, domain: Domain, modes: ModeSet,
                     weight: str = "l2") -> np.ndarray:
    """Region-restricted norm of each row e of err_coeffs (T, n_modes):
    sqrt(e'Ge) for l2, sqrt(sum sob (Ge)^2) for sobolev_half, where G is the
    region's Gram matrix, dense (region_gram) or separable (region_operator).
    Every product is taken row by row (SeparableGram.project,
    spectral.row_products), so a row's norm has the same bits whatever
    other rows share the call."""
    if weight not in NORM_WEIGHTS:
        raise ValueError(f"unknown norm weight {weight!r}; expected one of {NORM_WEIGHTS}")
    # a copy, flushed in place: subnormal coefficients (decayed fast modes)
    # change no norm above 1e-300 but make the matrix products several times
    # slower
    err = np.array(err_coeffs, dtype=float, ndmin=2)
    tiny = np.finfo(float).tiny
    np.copyto(err, 0.0, where=(err > -tiny) & (err < tiny))
    projected = gram.project(err) if isinstance(gram, SeparableGram) else row_products(err, gram)
    if weight == "l2":
        projected *= err
        return np.sqrt(np.maximum(np.sum(projected, axis=1), 0.0))
    return np.sqrt(np.maximum(row_products(projected**2, _sobolev_weights(modes, domain)), 0.0))


@functools.lru_cache(maxsize=8)
def _sobolev_weights(modes: ModeSet, domain: Domain) -> np.ndarray:
    """sqrt(1 + |lambda_m|) per mode, read-only: a run takes the norm of
    every block of samples, and the eigenvalues cost a Python loop over the
    modes."""
    sob = np.sqrt(1.0 + np.abs(eigenvalues(modes, domain)))
    sob.flags.writeable = False
    return sob


def gamma_error_norm(x: np.ndarray, x_hat: np.ndarray, domain: Domain, modes: ModeSet, region, weight: str = "l2") -> float:
    """Region-restricted norm of the estimation error x_hat - x."""
    err = np.asarray(x_hat, dtype=float) - np.asarray(x, dtype=float)
    return float(gram_norm_series(err[None, :], region_operator(region, domain, modes), domain, modes, weight)[0])


@dataclass(frozen=True)
class DecayFit:
    """Log-linear fit value(t) ~ m_fit * exp(-alpha_fit * t) on a window."""

    m_fit: float
    alpha_fit: float
    t_lo: float
    t_hi: float
    residual: float
    n_floored: int


def fit_decay(times, values, window=None) -> DecayFit:
    """Least-squares line on (t, log value); alpha_fit = -slope.

    Non-positive values are floored at 1e-30 and counted in n_floored; fewer
    than 3 points in the window is a fit error.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape:
        raise ValueError("times and values must have matching shape")
    if window is not None:
        t_lo, t_hi = window
        mask = (t >= t_lo) & (t <= t_hi)
        t, v = t[mask], v[mask]
    if t.size < 3:
        raise ValueError("decay fit needs at least 3 samples in the window")
    n_floored = int(np.sum(v < VALUE_FLOOR))
    v = np.maximum(v, VALUE_FLOOR)
    logv = np.log(v)
    slope, intercept = np.polyfit(t, logv, 1)
    resid = float(np.sqrt(np.mean((logv - (slope * t + intercept)) ** 2)))
    return DecayFit(
        m_fit=float(np.exp(intercept)),
        alpha_fit=float(-slope),
        t_lo=float(t[0]),
        t_hi=float(t[-1]),
        residual=resid,
        n_floored=n_floored,
    )
