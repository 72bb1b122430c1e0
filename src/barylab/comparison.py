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

# Cosine arguments may exceed [-1, 1] by float noise near degenerate
# triangles; anything past the reject threshold is a genuine violation.
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


def _clamped_arccos(value: np.ndarray) -> np.ndarray:
    ok = np.abs(value) <= 1.0 + COS_REJECT_TOL  # False for a NaN cosine too
    if not np.all(ok):
        raise InvalidTriangle(
            f"comparison cosine {float(value[~ok][0])!r} exceeds [-1, 1] beyond "
            "tolerance or is not finite; side lengths are not realizable in the "
            "model plane"
        )
    return np.arccos(np.clip(value, -1.0, 1.0))


def comparison_angle(kappa: float, sides: TriangleSides):
    """Angle at the p-vertex of the comparison triangle in the kappa-plane.

    Returns values in [0, pi], one per triangle of ``sides``: a float for
    scalar sides, as ``s_kappa`` does.  The kappa = 0 branch is selected by
    exact comparison; callers wanting the limit pass a small nonzero kappa.
    """
    a, b, c = (np.asarray(side, dtype=float) for side in (sides.d_px, sides.d_py, sides.d_xy))
    if np.any(a == 0.0) or np.any(b == 0.0):
        raise DegenerateTriangle("comparison angle needs d_px > 0 and d_py > 0")
    if kappa > 0 and np.max(sides.perimeter) >= 2.0 * model_diameter(kappa):
        raise PerimeterTooLarge(
            f"perimeter {np.max(sides.perimeter):.6g} >= 2 D_kappa "
            f"{2.0 * model_diameter(kappa):.6g}"
        )
    if kappa == 0:
        cos_val = (a * a + b * b - c * c) / (2.0 * a * b)
    else:
        # long sides overflow cosh and sinh to a non-finite cosine, rejected below
        with np.errstate(over="ignore", invalid="ignore"):
            cos_val = (c_kappa(kappa, c) - c_kappa(kappa, a) * c_kappa(kappa, b)) / (
                kappa * s_kappa(kappa, a) * s_kappa(kappa, b)
            )
    angle = _clamped_arccos(np.asarray(cos_val))
    return float(angle) if angle.ndim == 0 else angle


def _distances(space, p, points) -> np.ndarray:
    """Distances from ``p`` to each of ``points``, in one ``sqdist_batch`` call."""
    return np.sqrt(space.sqdist_batch(p, space.stack(points)))


def comparison_angle_at(space, kappa: float, p, x, y) -> float:
    """Comparison angle at p for the triangle {p, x, y} of a concrete space."""
    d_px, d_py = _distances(space, p, [x, y])
    return comparison_angle(kappa, TriangleSides(d_px, d_py, space.distance(x, y)))


def quadruple_defect(space, p, x, y, z, kappa: float) -> float:
    """2 pi minus the three comparison angles at p of the quadruple (p; x, y, z).

    Nonnegative output certifies this instance of the quadruple condition for
    curvature bounded below by kappa.  The six distinct sides come from three
    batched distance calls, the three angles from one angle call.
    """
    d_p = _distances(space, p, [x, y, z])
    d_xy, d_xz = _distances(space, x, [y, z])
    d_yz = space.distance(y, z)
    sides = TriangleSides(d_p[[0, 0, 1]], d_p[[1, 2, 2]], np.array([d_xy, d_xz, d_yz]))
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
    px = [space.exp(p, s * u) for s in grid]
    py = [space.exp(p, t * v) for t in grid]
    d_xy = np.stack([_distances(space, xi, py) for xi in px])
    sides = TriangleSides(
        _distances(space, p, px)[:, None], _distances(space, p, py)[None, :], d_xy
    )
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
