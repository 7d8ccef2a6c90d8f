"""Sampling regions and tensor Gauss-Legendre quadrature helpers."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .util import SpecError


@dataclass(frozen=True)
class Box:
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=np.float64))
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=np.float64))
        if self.lo.shape != self.hi.shape or not np.all((self.lo < self.hi) & np.isfinite(self.hi - self.lo)):
            raise ValueError("invalid box bounds")

    @property
    def dim(self) -> int:
        return len(self.lo)

    def volume(self) -> float:
        return float(np.prod(self.hi - self.lo))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=(size, self.dim))

    def diameter(self) -> float:
        return float(np.linalg.norm(self.hi - self.lo))

    def bbox(self) -> "Box":
        return self


@dataclass(frozen=True)
class Disk:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=np.float64))
        if not 0 < self.radius < np.inf:
            raise ValueError("radius must be positive and finite")

    @property
    def dim(self) -> int:
        return 2

    def volume(self) -> float:
        return float(np.pi * self.radius**2)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        r = self.radius * np.sqrt(rng.uniform(size=size))
        t = rng.uniform(0, 2 * np.pi, size=size)
        return self.center + np.stack([r * np.cos(t), r * np.sin(t)], axis=1)

    def diameter(self) -> float:
        return 2.0 * self.radius

    def bbox(self) -> Box:
        return Box(self.center - self.radius, self.center + self.radius)


@dataclass(frozen=True)
class Annulus:
    center: np.ndarray
    r_in: float
    r_out: float

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=np.float64))
        if not (0 <= self.r_in < self.r_out < np.inf):
            raise ValueError("need 0 <= r_in < r_out < inf")

    @property
    def dim(self) -> int:
        return 2

    def volume(self) -> float:
        return float(np.pi * (self.r_out**2 - self.r_in**2))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.uniform(size=size)
        r = np.sqrt(self.r_in**2 + u * (self.r_out**2 - self.r_in**2))
        t = rng.uniform(0, 2 * np.pi, size=size)
        return self.center + np.stack([r * np.cos(t), r * np.sin(t)], axis=1)

    def diameter(self) -> float:
        return 2.0 * self.r_out

    def bbox(self) -> Box:
        return Box(self.center - self.r_out, self.center + self.r_out)


def parse_region(text: str):
    """Parse the CLI region DSL: 'annulus:r0,r1', 'disk:r', 'box:x0,x1,y0,y1'; SpecError for any other text."""
    if isinstance(text, str):
        kind, _, rest = text.partition(":")
        try:
            vals = [float(v) for v in rest.split(",")] if rest else []
            if kind == "annulus" and len(vals) == 2:
                return Annulus(np.zeros(2), vals[0], vals[1])
            if kind == "disk" and len(vals) == 1:
                return Disk(np.zeros(2), vals[0])
            if kind == "box" and len(vals) == 4:
                return Box([vals[0], vals[2]], [vals[1], vals[3]])
        except ValueError as exc:
            raise SpecError(f"bad region spec {text!r}: {exc}") from exc
    raise SpecError(f"bad region spec {text!r}")


# ---------------------------------------------------------------------------
# quadrature


@functools.lru_cache(maxsize=64)
def legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """``leggauss(order)``, nodes and weights on [-1, 1], computed once per order.

    The arrays are read-only: the cache shares them with every caller.
    """
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def gl_nodes(a: float, b: float, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [a, b] (new arrays; the rule itself is cached)."""
    x, w = legendre_rule(order)
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return mid + half * x, half * w


def box_quadrature(box: Box, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Tensor Gauss-Legendre rule over a box; returns points (m, dim) and weights."""
    axes = [gl_nodes(lo, hi, order) for lo, hi in zip(box.lo, box.hi)]
    grids = np.meshgrid(*[a[0] for a in axes], indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    w = axes[0][1]
    for a in axes[1:]:
        w = np.multiply.outer(w, a[1])
    return pts, w.ravel()


def region_quadrature(region, order: int) -> tuple[np.ndarray, np.ndarray]:
    """The tensor rule of a region at one order: polar on an annulus (2 * order angles), else on its box."""
    if isinstance(region, Annulus):
        return annulus_quadrature(region, order, 2 * order)
    return box_quadrature(region, order)


def annulus_quadrature(ann: Annulus, order_r: int, order_t: int) -> tuple[np.ndarray, np.ndarray]:
    """Polar tensor rule over an annulus (weights include the r factor)."""
    r, wr = gl_nodes(ann.r_in, ann.r_out, order_r)
    t, wt = gl_nodes(0.0, 2 * np.pi, order_t)
    R, T = np.meshgrid(r, t, indexing="ij")
    pts = ann.center + np.stack([(R * np.cos(T)).ravel(), (R * np.sin(T)).ravel()], axis=1)
    W = np.multiply.outer(wr * r, wt).ravel()
    return pts, W
