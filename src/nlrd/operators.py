"""The discrete nonlocal operators.

``apply_L`` realizes Lu(x) = sum_y J(x-y) (u(y) - u(x)) h^dim over the
masked domain as (J * u m)(x) - (J * m)(x) u(x), so constants are
annihilated exactly and the comparison structure (monotonicity in
off-diagonal values) holds cell by cell.

The condition "u -> 1 at infinity" is realized by a clamp band of width
>= R_J along the box boundary where fields are held at the far-field
value 1 and residuals are not evaluated; every interior cell then sees its
full kernel mass inside the box, making the truncated operator exact
there.

One explicit step, :meth:`Problem.step`, updates the cells of a
:class:`Frame`: the full box, ``Problem.frame``, or a mirror fold of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .convolve import _conv_inner, convolve
from .errors import PreconditionError
from .grid import Field, ball_mask
from .kernels import Kernel
from .nonlinearity import Bistable
from .obstacles import Obstacle

__all__ = ["Frame", "Problem", "apply_L", "residual", "ball_mask"]


@dataclass(frozen=True)
class Frame:
    """The cells :meth:`Problem.step` updates, and what it reads there: the
    domain and clamp masks, the diagonal mass ``jself``, the ``window`` of
    cells whose rate it computes, and ``convolve(x, path)``, which gives
    J * x on that window for x given on the frame's cells. Every frame cell
    outside the window is in the clamp band, so its rate is 0 and the
    clamp sets its next value. ``Problem.frame`` is the full box, whose
    window is the inner window, the cells at least ``kernel.reach`` from
    every box edge; a mirror fold of the box is a frame whose window is all
    its cells (see ``solver.evolve``)."""

    domain_mask: np.ndarray
    clamp_mask: np.ndarray
    jself: np.ndarray
    window: tuple
    convolve: Callable

    def clamp(self, values: np.ndarray) -> np.ndarray:
        values[self.clamp_mask] = 1.0
        values[~self.domain_mask] = 0.0
        return values


@dataclass
class Problem:
    """Kernel + obstacle + bistable nonlinearity + far-field clamp at 1."""

    kernel: Kernel
    obstacle: Obstacle
    f: Bistable
    clamp_width: float | None = None
    conv_path: str = "fast"

    def __post_init__(self):
        grid = self.obstacle.grid
        if abs(self.kernel.h - grid.h) > 1e-15 or self.kernel.dim != grid.dim:
            raise PreconditionError("kernel lattice does not match the grid")
        if self.clamp_width is None:
            self.clamp_width = self.kernel.radius
        if self.clamp_width < self.kernel.radius:
            raise PreconditionError(
                f"clamp band width {self.clamp_width} below kernel radius "
                f"{self.kernel.radius}"
            )
        meshes = grid.meshes()
        near_edge = np.zeros(grid.shape, dtype=bool)
        for a in range(grid.dim):
            near_edge |= (meshes[a] - grid.lo[a]) < self.clamp_width
            near_edge |= (grid.hi[a] - meshes[a]) < self.clamp_width
        self.grid = grid
        self.domain_mask = self.obstacle.domain_mask
        self.clamp_mask = near_edge & self.domain_mask
        self.interior_mask = self.domain_mask & ~near_edge
        if np.any(self.obstacle.mask_K & near_edge):
            raise PreconditionError("obstacle intersects the clamp band")
        if not np.any(self.interior_mask):
            raise PreconditionError("clamp band leaves no interior cells")
        # diagonal mass seen from each cell, restricted to the box
        self.jself = convolve(self.domain_mask.astype(np.float64), self.kernel, "direct")
        # the inner window: a cell i < reach from an edge has its centre
        # (i + 1/2) h < reach h <= radius <= clamp_width from it, in the band
        k, m = self.kernel, self.kernel.reach
        window = tuple(slice(m, n - m) for n in grid.shape)

        def conv(x: np.ndarray, path: str) -> np.ndarray:
            # the direct path reads x in place; its bits equal
            # convolve(x, k, path) on the window
            if path == "direct":
                return _conv_inner(x, k)
            return convolve(x, k, path)[window]

        self.frame = Frame(self.domain_mask, self.clamp_mask, self.jself, window, conv)

    def hostile_datum(self) -> Field:
        """0 in the interior, 1 on the clamp band."""
        vals = np.zeros(self.grid.shape)
        vals[self.clamp_mask] = 1.0
        return Field(self.grid, vals, self.domain_mask)

    def constant_datum(self, value: float) -> Field:
        vals = np.full(self.grid.shape, float(value))
        vals[self.clamp_mask] = 1.0
        return Field(self.grid, vals, self.domain_mask)

    def step(self, u: np.ndarray, dt: float, path: str | None = None,
             frame: Frame | None = None):
        """The explicit step ``(clamp(clip(u + dt rate, 0, 1)), rate)``, with
        ``rate = J * u - jself u + f(u)`` on the raw array, unmasked
        (:func:`residual` is the masked form), on the cells of ``frame``,
        by default ``self.frame``, the full box. The rate is computed on the
        frame's window and is 0 outside it, on every path: those cells are
        all in the clamp band, so the next state is the frame's whole update
        to the bit, and so is the rate on every ``interior_mask`` cell.
        ``u`` is not modified."""
        fr, path = frame or self.frame, path or self.conv_path
        win, rate = fr.window, np.zeros(u.shape)
        x = u[win]
        rate[win] = fr.convolve(u, path) - fr.jself[win] * x + self.f.f(x)
        return fr.clamp(np.clip(u + dt * rate, 0.0, 1.0)), rate

    def check_clamped(self, u: Field) -> None:
        if u.grid != self.grid or not np.array_equal(u.mask, self.domain_mask):
            raise PreconditionError("field does not live on this problem's domain")
        if not np.all(u.values[self.clamp_mask] == 1.0):
            raise PreconditionError("clamp band does not hold the far-field value")


def apply_L(p: Problem, u: Field, path: str | None = None) -> Field:
    """Lu on the masked domain (meaningful off the clamp band).

    Defined for any masked field; the far-field clamp precondition is
    enforced where it matters, in :func:`residual` and the solvers.
    """
    if u.grid != p.grid or not np.array_equal(u.mask, p.domain_mask):
        raise PreconditionError("field does not live on this problem's domain")
    path = path or p.conv_path
    conv = convolve(u.values, p.kernel, path)
    vals = conv - p.jself * u.values
    vals[~p.domain_mask] = 0.0
    return Field(p.grid, vals, p.domain_mask)


def residual(p: Problem, u: Field, path: str | None = None):
    """r = Lu + f(u) on interior (non-clamp) domain cells, plus its sup.

    Requires the clamp band to hold the far-field value exactly.
    """
    p.check_clamped(u)
    Lu = apply_L(p, u, path)
    vals = Lu.values + p.f.f(u.values)
    vals[~p.interior_mask] = 0.0
    r = Field(p.grid, vals, p.interior_mask)
    sup = float(np.max(np.abs(vals[p.interior_mask]))) if np.any(p.interior_mask) else 0.0
    return r, sup
