"""Rectangular-domain geometry, the Gauss-Legendre interval rule and the
sine-product integrals shared by the basis, sensor and region code."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

EDGES = ("bottom", "top", "left", "right")


@dataclass(frozen=True)
class Domain:
    """Open rectangle (alpha1, beta1) x (alpha2, beta2)."""

    alpha1: float = 0.0
    beta1: float = 1.0
    alpha2: float = 0.0
    beta2: float = 1.0

    def __post_init__(self):
        if not (self.beta1 > self.alpha1 and self.beta2 > self.alpha2):
            raise ValueError("domain requires beta1 > alpha1 and beta2 > alpha2")

    @property
    def length1(self) -> float:
        return self.beta1 - self.alpha1

    @property
    def length2(self) -> float:
        return self.beta2 - self.alpha2

    def contains(self, point, closed: bool = True) -> bool:
        x, y = point
        if closed:
            return (self.alpha1 <= x <= self.beta1) and (self.alpha2 <= y <= self.beta2)
        return (self.alpha1 < x < self.beta1) and (self.alpha2 < y < self.beta2)


@dataclass(frozen=True)
class Rect:
    """Axis-aligned rectangle [lo1, hi1] x [lo2, hi2]."""

    lo1: float
    hi1: float
    lo2: float
    hi2: float

    def __post_init__(self):
        if not (self.hi1 > self.lo1 and self.hi2 > self.lo2):
            raise ValueError("rect requires hi > lo on both axes")

    @property
    def half_widths(self) -> tuple[float, float]:
        return (0.5 * (self.hi1 - self.lo1), 0.5 * (self.hi2 - self.lo2))

    def inside(self, domain: Domain) -> bool:
        """True when the closed rectangle sits inside the closed domain."""
        return (
            domain.alpha1 <= self.lo1
            and self.hi1 <= domain.beta1
            and domain.alpha2 <= self.lo2
            and self.hi2 <= domain.beta2
        )


def _midpoint(lo, hi):
    """Centre 0.5 (lo + hi) of the span [lo, hi], elementwise on arrays."""
    return 0.5 * (lo + hi)


def edge_segment(domain: Domain, edge: str, lo: float, hi: float):
    """Endpoints of the segment [lo, hi] of the named edge of the domain.

    The edge name and lo < hi are a BoundarySegment's, checked when it was
    built; only the extent against the domain is checked here."""
    if edge in ("bottom", "top"):
        if lo < domain.alpha1 or hi > domain.beta1:
            raise ValueError("segment endpoints outside edge extent")
        y = domain.alpha2 if edge == "bottom" else domain.beta2
        return (lo, y), (hi, y)
    if lo < domain.alpha2 or hi > domain.beta2:
        raise ValueError("segment endpoints outside edge extent")
    x = domain.alpha1 if edge == "left" else domain.beta1
    return (x, lo), (x, hi)


def segment_distance(points, a, b):
    """Distance from a point, or from each row of a (K, 2) array, to the segment
    [a, b] of nonzero length (edge segments satisfy hi > lo)."""
    px, py = np.asarray(points, dtype=float).T
    ax, ay = a
    bx, by = b
    dx, dy = bx - ax, by - ay
    t = np.clip(((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy), 0.0, 1.0)
    return np.hypot(px - (ax + t * dx), py - (ay + t * dy))


@lru_cache(maxsize=None)
def _legendre_rule(n: int):
    # read-only, since every caller shares the cached arrays
    x, w = leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_nodes(lo: float, hi: float, n: int):
    """Nodes and weights of the n-point Gauss-Legendre rule on [lo, hi].

    The rule on [-1, 1] is built once per n; the scaled arrays are new."""
    x, w = _legendre_rule(n)
    return 0.5 * (hi - lo) * x + 0.5 * (hi + lo), 0.5 * (hi - lo) * w


def _cos_integral(k, e, lo: float, hi: float) -> np.ndarray:
    # int_lo^hi cos(k x + e) dx elementwise, with the k -> 0 limit handled exactly
    small = np.abs(k) < 1e-14
    k = np.where(small, 1.0, k)
    return np.where(small, (hi - lo) * np.cos(e), (np.sin(k * hi + e) - np.sin(k * lo + e)) / k)


def _sine_product_integral(a, b, c, d, lo: float, hi: float) -> np.ndarray:
    # int_lo^hi sin(a x + b) sin(c x + d) dx elementwise, via product-to-sum
    return 0.5 * (_cos_integral(a - c, b - d, lo, hi) - _cos_integral(a + c, b + d, lo, hi))
