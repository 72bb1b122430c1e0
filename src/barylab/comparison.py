"""Curvature comparison primitives.

Trigonometric comparison functions for the constant-curvature model planes,
comparison angles, the quadruple and angle-monotonicity probes, and the
tangent-cone metric built on each space's closed-form log map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateTriangle,
    InvalidTriangle,
    PerimeterTooLarge,
)

# tolerance past [-1, 1] of a comparison cosine before the sides are rejected
COS_REJECT_TOL = 1e-6


def model_diameter(kappa: float) -> float:
    """Diameter of the model plane with curvature ``kappa`` (inf for kappa <= 0)."""
    if kappa > 0:
        return math.pi / math.sqrt(kappa)
    return math.inf


def s_kappa(kappa: float, r):
    """Generalized sine: sin(r sqrt(k))/sqrt(k), sinh for k < 0, r at k = 0."""
    r = np.asarray(r, dtype=float)
    if kappa > 0:
        sq = math.sqrt(kappa)
        out = np.sin(r * sq) / sq
    elif kappa < 0:
        sq = math.sqrt(-kappa)
        out = np.sinh(r * sq) / sq
    else:
        out = r.copy()
    return float(out) if out.ndim == 0 else out


def c_kappa(kappa: float, r):
    """Generalized cosine: derivative of s_kappa; identically 1 at kappa = 0."""
    r = np.asarray(r, dtype=float)
    if kappa > 0:
        out = np.cos(r * math.sqrt(kappa))
    elif kappa < 0:
        out = np.cosh(r * math.sqrt(-kappa))
    else:
        out = np.ones_like(r)
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class TriangleSides:
    """Geodesic side lengths of a triangle, seen from the vertex p.

    ``d_px`` and ``d_py`` are the sides adjacent to p, ``d_xy`` the opposite
    one; each may be an array, for a batch of triangles whose sides
    broadcast together.  Sides must be finite and nonnegative; the triangle
    inequality is enforced at angle computation time through the cosine
    clamp, not at construction.
    """

    d_px: float
    d_py: float
    d_xy: float

    def __post_init__(self):
        for side in (self.d_px, self.d_py, self.d_xy):
            if not np.all(np.isfinite(side)):
                raise InvalidTriangle(f"non-finite side length in {self}")
            if np.any(np.asarray(side) < 0):
                raise InvalidTriangle(f"negative side length in {self}")

    @property
    def perimeter(self):
        return self.d_px + self.d_py + self.d_xy


def _s_over_r(kappa: float, r: np.ndarray) -> np.ndarray:
    """s_kappa(r) / r, with its limit 1 at r = 0 (so 1 at kappa = 0), NaN where sinh overflows."""
    t = r * math.sqrt(abs(kappa))
    safe = np.where(t == 0.0, 1.0, t)
    out = np.where(t == 0.0, 1.0, (np.sin if kappa > 0 else np.sinh)(safe) / safe)
    return np.where(np.isinf(out), np.nan, out)


def comparison_angle(kappa: float, sides: TriangleSides):
    """Angle at the p-vertex of the comparison triangle in the kappa-plane.

    Returns values in [0, pi], one per triangle of ``sides``: a float for
    scalar sides, as ``s_kappa`` does.  One half-angle form serves every kappa:
    sin^2(gamma/2) = s(u/2) s(v/2) / (s(a) s(b)), a = d_px, b = d_py,
    u = d_xy - a + b <= 2b and v = d_xy + a - b <= 2a.
    """
    a, b, c = (np.asarray(side, dtype=float) for side in (sides.d_px, sides.d_py, sides.d_xy))
    if np.any(a == 0.0) or np.any(b == 0.0):
        raise DegenerateTriangle("comparison angle needs d_px > 0 and d_py > 0")
    # long sides overflow the perimeter and sinh: the cosine is NaN, rejected below
    with np.errstate(over="ignore", invalid="ignore"):
        if kappa > 0 and np.max(sides.perimeter) >= 2.0 * model_diameter(kappa):
            raise PerimeterTooLarge(
                f"perimeter {np.max(sides.perimeter):.6g} >= 2 D_kappa "
                f"{2.0 * model_diameter(kappa):.6g}"
            )
        # the product of s(u/2)/s(b) and s(v/2)/s(a), each in [0, 1] on a triangle and
        # each taken as (u/b) (s(u/2)/(u/2)) / (s(b)/b) / 2: no product of tiny sides
        # underflows, no halving of one underflows, and nothing cancels
        u, v = c - (a - b), c + (a - b)
        sin_sq = (u / b * _s_over_r(kappa, u / 2) / _s_over_r(kappa, b) / 2) * (
            v / a * _s_over_r(kappa, v / 2) / _s_over_r(kappa, a) / 2
        )
        cos_val = np.asarray(1.0 - 2.0 * sin_sq)
    ok = np.abs(cos_val) <= 1.0 + COS_REJECT_TOL  # False for a NaN cosine too
    if not np.all(ok):
        raise InvalidTriangle(
            f"comparison cosine {float(cos_val[~ok][0])!r} exceeds [-1, 1] beyond "
            "tolerance or is not finite; side lengths are not realizable in the "
            "model plane"
        )
    angle = 2.0 * np.arcsin(np.sqrt(np.clip(sin_sq, 0.0, 1.0)))
    return float(angle) if angle.ndim == 0 else angle


def comparison_angle_at(space, kappa: float, p, x, y) -> float:
    """Comparison angle at p for the triangle {p, x, y} of a concrete space."""
    d = np.sqrt(space.sqdist_batch(space.stack([p, x]), space.stack([x, y])))
    return comparison_angle(kappa, TriangleSides(d[0, 0], d[0, 1], d[1, 1]))


def quadruple_defect(space, p, x, y, z, kappa: float) -> float:
    """2 pi minus the three comparison angles at p of the quadruple (p; x, y, z).

    Nonnegative output certifies this instance of the quadruple condition for
    curvature bounded below by kappa.  The six distinct sides come from one
    4 x 4 distance call, the three angles from one angle call.
    """
    points = space.stack([p, x, y, z])
    d = np.sqrt(space.sqdist_batch(points, points))
    sides = TriangleSides(d[0, [1, 1, 2]], d[0, [2, 3, 3]], d[[1, 1, 2], [2, 3, 3]])
    return 2.0 * math.pi - float(comparison_angle(kappa, sides).sum())


@dataclass(frozen=True)
class MonotonicityReport:
    """Grid of comparison angles and the worst monotonicity violation found."""

    grid: tuple
    angles: np.ndarray  # shape (len(grid), len(grid)); [i, j] = angle(s_i, t_j)
    max_violation: float


def angle_monotonicity_probe(space, p, x, y, kappa: float, grid) -> MonotonicityReport:
    """Probe (s, t) -> comparison angle at p between geodesic points toward x, y.

    On a space with curvature >= kappa the map is non-increasing in each
    variable; the report's ``max_violation`` is the largest observed increase
    along either grid axis (0 when monotone).  The distances to the geodesic
    points are computed, not taken as s d(p, x): the product moves the
    violations by more than the rounding of the probe.
    """
    grid = tuple(float(g) for g in grid)
    if not grid or any(g <= 0 or g > 1 for g in grid):
        raise ValueError("grid values must lie in (0, 1]")
    if list(grid) != sorted(grid):
        raise ValueError("grid must be sorted ascending")
    u, v = space.log_batch(p, space.stack([x, y]))[0]
    px, py = space.exp(p, np.multiply.outer(grid, u)), space.exp(p, np.multiply.outer(grid, v))
    d_p = np.sqrt(space.sqdist_batch(p, np.concatenate((px, py))))
    d_xy = np.sqrt(space.sqdist_batch(px, py))
    sides = TriangleSides(d_p[: len(grid), None], d_p[None, len(grid):], d_xy)
    angles = comparison_angle(kappa, sides)
    violation = 0.0
    if len(grid) > 1:
        violation = max(
            float(np.max(np.diff(angles, axis=0), initial=0.0)),
            float(np.max(np.diff(angles, axis=1), initial=0.0)),
        )
    return MonotonicityReport(grid=grid, angles=angles, max_violation=max(violation, 0.0))


def tangent_inner(space, p, x, y) -> float:
    """Cone inner product <log_p(x), log_p(y)>_p from the space's log map."""
    return space.tangent_inner(p, space.log(p, x), space.log(p, y))


def cone_distance(space, p, x, y) -> float:
    """Cone-metric distance ||log_p(x) - log_p(y)||_p via polarization, from
    one batched log call."""
    logs, _ = space.log_batch(p, space.stack([x, y]))
    uu, vv, uv = space.tangent_inner(p, logs[[0, 1, 0]], logs[[0, 1, 1]])
    return math.sqrt(max(uu + vv - 2.0 * uv, 0.0))
