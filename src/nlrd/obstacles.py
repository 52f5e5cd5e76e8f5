"""Compact obstacle geometry on the lattice.

Set membership is decided at cell centers, so the discrete problem is an
exact instance of the continuum framework with piecewise-constant
geometry. Convexity of a mask is computed, for every family, as
idempotence under the convex hull of its cell centers (a convex set
contains the hull of any of its points, so the two masks agree exactly
for a lattice-convex mask).

Families: ``none``, ``ball``, ``ellipse``, ``polygon`` (convex), the
``annulus`` counterexample, and ``deformed`` (Hoelder deformations K_eps
of a disk, one per ``epsilon`` in [0, 1]). :func:`build_obstacle` is the
one way to make any of them: the robustness sweep builds each K_eps as
the ``deformed`` family at that ``epsilon``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .convolve import convolve
from .errors import PreconditionError
from .grid import Field, Grid, ball_mask
from .kernels import Kernel

__all__ = [
    "FAMILY_KEYS",
    "Obstacle",
    "build_obstacle",
    "jmass",
    "convex_hull_mask",
]

# family -> the [obstacle] keys its shape reads
FAMILY_KEYS = {
    "none": (),
    "ball": ("center", "radius"),
    "ellipse": ("center", "a", "b"),
    "polygon": ("vertices",),
    "annulus": ("r1", "r2"),
    "deformed": ("radius", "epsilon", "psi_k", "psi_amp"),
}


@dataclass(frozen=True)
class Obstacle:
    grid: Grid
    mask_K: np.ndarray
    family: str
    params: dict
    # lattice-convex: the mask equals the cells of the convex hull of its
    # cell centers (the empty mask is convex); tested for every family
    convex: bool = dc_field(init=False)

    def __post_init__(self):
        m = np.array(self.mask_K, dtype=bool, copy=True)
        m.setflags(write=False)
        object.__setattr__(self, "mask_K", m)
        object.__setattr__(self, "convex", bool(np.array_equal(m, convex_hull_mask(self.grid, m))))

    @property
    def domain_mask(self) -> np.ndarray:
        return ~self.mask_K


def _boundary_distance(grid: Grid, mask: np.ndarray) -> float:
    """Distance from the nearest masked cell center to the box boundary."""
    if not np.any(mask):
        return math.inf
    meshes = grid.meshes()
    best = math.inf
    for a in range(grid.dim):
        x = meshes[a][mask]
        best = min(best, float(np.min(x - grid.lo[a])), float(np.min(grid.hi[a] - x)))
    return best


def _check_margin(grid: Grid, mask: np.ndarray, margin: float, what: str) -> None:
    d = _boundary_distance(grid, mask)
    if d < margin:
        raise PreconditionError(
            f"{what} comes within {d:.6g} of the box boundary (margin {margin:.6g})"
        )


# ---------------------------------------------------------------------------
# convex hull of cell centers (2-D monotone chain) and hull membership


def _hull(points: np.ndarray) -> np.ndarray:
    pts = points[np.lexsort((points[:, 1], points[:, 0]))]
    if len(pts) <= 2:
        return pts

    def cross2(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def half(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross2(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(pts[::-1])
    return np.array(lower[:-1] + upper[:-1])


def convex_hull_mask(grid: Grid, mask: np.ndarray) -> np.ndarray:
    """Cells whose centers lie in the convex hull of the masked centers
    (edge tests at 1e-9)."""
    if not np.any(mask):
        return mask.copy()
    if grid.dim == 1:
        idx = np.flatnonzero(mask)
        out = np.zeros_like(mask)
        out[idx.min() : idx.max() + 1] = True
        return out
    meshes = grid.meshes()
    pts = np.stack([m[mask] for m in meshes], axis=1)
    hull = _hull(pts)
    if len(hull) <= 2:
        return mask.copy()
    xs = np.stack([m.ravel() for m in meshes], axis=1)
    inside = np.ones(xs.shape[0], dtype=bool)
    for i in range(len(hull)):
        a = hull[i]
        b = hull[(i + 1) % len(hull)]
        e = b - a
        cross = e[0] * (xs[:, 1] - a[1]) - e[1] * (xs[:, 0] - a[0])
        inside &= cross >= -1e-9
    return inside.reshape(grid.shape)


# ---------------------------------------------------------------------------
# shape indicator functions


def _shape_mask(family: str, params: dict, grid: Grid) -> np.ndarray:
    if family == "none":
        return np.zeros(grid.shape, dtype=bool)
    if family == "ball":
        return ball_mask(grid, params.get("center", np.zeros(grid.dim)),
                         float(params["radius"]))
    if grid.dim == 1:
        raise PreconditionError(f"family {family!r} needs dim 2")
    X, Y = grid.meshes()
    if family == "ellipse":
        c = np.atleast_1d(params.get("center", (0.0, 0.0)))
        if c.size != 2:
            raise PreconditionError(f"ellipse center has {c.size} coordinates on a 2-D grid")
        a, b = float(params["a"]), float(params["b"])
        return ((X - c[0]) / a) ** 2 + ((Y - c[1]) / b) ** 2 <= 1.0
    if family == "polygon":
        verts = np.asarray(params["vertices"], dtype=np.float64)
        if len(verts) < 3:
            raise PreconditionError("polygon needs at least 3 vertices")
        # orient counter-clockwise and insist on convexity
        area = 0.0
        for i in range(len(verts)):
            x1, y1 = verts[i]
            x2, y2 = verts[(i + 1) % len(verts)]
            area += x1 * y2 - x2 * y1
        if area < 0:
            verts = verts[::-1]
        inside = np.ones(grid.shape, dtype=bool)
        for i in range(len(verts)):
            a0 = verts[i]
            b0 = verts[(i + 1) % len(verts)]
            e = b0 - a0
            nxt = verts[(i + 2) % len(verts)]
            if e[0] * (nxt[1] - a0[1]) - e[1] * (nxt[0] - a0[0]) < 0:
                raise PreconditionError("polygon vertices are not convex")
            inside &= e[0] * (Y - a0[1]) - e[1] * (X - a0[0]) >= 0.0
        return inside
    rr = np.hypot(X, Y)
    if family == "annulus":
        r1, r2 = float(params["r1"]), float(params["r2"])
        if not (0.0 < r1 < r2):
            raise PreconditionError("annulus needs 0 < r1 < r2")
        return (rr >= r1) & (rr <= r2)
    # deformed: the bump psi = psi_amp * max(0, 1 + cos(psi_k phi)) is >= 0
    # exactly when psi_amp >= 0, and then K_0 subset K_eps for eps in [0, 1]
    amp, eps = float(params["psi_amp"]), float(params["epsilon"])
    if not amp >= 0.0:
        raise PreconditionError(
            f"psi amplitude {amp} takes negative values; K would not contain K_eps")
    if not 0.0 <= eps <= 1.0:
        raise PreconditionError(f"epsilon must lie in [0, 1], got {eps}")
    phi = np.arctan2(Y, X)
    psi = amp * np.clip(1.0 + np.cos(int(params["psi_k"]) * phi), 0.0, None)
    return rr <= float(params["radius"]) + eps * psi


def build_obstacle(family: str, params: dict, grid: Grid, margin: float = 1.5) -> Obstacle:
    """Mask a shape at cell centers (:class:`Obstacle` tests its
    convexity). Only the keys that
    ``FAMILY_KEYS[family]`` lists are read from ``params`` and kept; each
    is required, except ``center``, which defaults to the origin."""
    if family not in FAMILY_KEYS:
        raise PreconditionError(f"unknown obstacle family {family!r}")
    missing = [key for key in FAMILY_KEYS[family] if key != "center" and key not in params]
    if missing:
        raise PreconditionError(
            f"obstacle family {family!r} is missing the key(s) {', '.join(missing)}"
        )
    params = {key: params[key] for key in FAMILY_KEYS[family] if key in params}
    mask = _shape_mask(family, params, grid)
    if family != "none" and not np.any(mask):
        raise PreconditionError(f"obstacle {family!r} contains no cell centers")
    _check_margin(grid, mask, margin, f"obstacle {family!r}")
    return Obstacle(grid=grid, mask_K=mask, family=family, params=params)


def jmass(k: Kernel, K: Obstacle) -> Field:
    """Mass map J(x) = 1 - int_K J(x - y) dy, the kernel mass visible from x.

    Computed through the complement so the value is exact for every cell,
    including those near the box edge (the far part of the domain carries
    the missing mass). Values are certified to lie in [0, 1] within 1e-12.
    """
    kk = convolve(K.mask_K.astype(np.float64), k, "direct")
    vals = 1.0 - kk
    lo, hi = float(np.min(vals)), float(np.max(vals))
    if lo < -1e-12 or hi > 1.0 + 1e-12:
        raise PreconditionError(f"mass map escaped [0,1]: [{lo:.3e}, {hi:.3e}]")
    vals = np.clip(vals, 0.0, 1.0)
    return Field(K.grid, vals, K.domain_mask)
