"""Uniform cell-centered grids, masked fields, and discrete seminorms.

A :class:`Grid` is a uniform Cartesian lattice over a box in one or two
dimensions; samples live at cell centers ``lo + (i + 1/2) h``. A
:class:`Field` pairs samples with a boolean domain mask (``True`` = the
cell belongs to the computational domain). Masked-out cells always store
``0.0`` and no operation reads them.

Fields are immutable after construction: the backing arrays are marked
read-only and every operation returns a new ``Field``.

The discrete Hoelder seminorm is exact. :func:`holder_quotient` sweeps
the lattice offsets of a half-plane in increasing length, one vectorised
pass per offset, and stops once the oscillation of the field over the
remaining distances cannot beat the running maximum. On a field that is
mirror-symmetric along an axis it sweeps only the quarter plane, which
has the same maximum, and on one symmetric along both axes it takes each
offset's maximum over half of its window. A :class:`HolderTable` keeps
each offset's maximum, so the sweeps of several exponents over one field
pass each offset once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError

__all__ = [
    "Grid",
    "Field",
    "HolderEstimate",
    "HolderTable",
    "make_grid",
    "ball_mask",
    "shift_windows",
    "holder_quotient",
    "field_to_csv",
]


@dataclass(frozen=True)
class Grid:
    """Uniform lattice: per-axis extents, spacing ``h`` and cell counts."""

    lo: tuple
    hi: tuple
    h: float
    counts: tuple

    @property
    def dim(self) -> int:
        return len(self.counts)

    @property
    def shape(self) -> tuple:
        return self.counts

    def axis_centers(self, a: int) -> np.ndarray:
        n = self.counts[a]
        return self.lo[a] + (np.arange(n) + 0.5) * self.h

    def meshes(self):
        """Coordinate arrays broadcast to ``self.shape`` (C-order, axis 0 = x0)."""
        axes = [self.axis_centers(a) for a in range(self.dim)]
        return tuple(np.meshgrid(*axes, indexing="ij"))


MAX_CELLS = 1 << 22
"""Largest cell count :func:`make_grid` accepts: 2048² = 4 194 304.

This is 18 times the largest grid any shipped config or test uses (480²).
One float64 field of this size takes 32 MiB, and a run holds tens of
field-sized arrays (padded FFT boxes, masks, Hölder windows), so a larger
grid would exhaust a desk machine's memory or its patience; it is
rejected before anything is allocated."""


def make_grid(lo, hi, h: float) -> Grid:
    """Build a grid, rejecting extents that are not integral multiples of ``h``
    and grids of more than :data:`MAX_CELLS` cells.

    Reconstruction guard: ``|lo + counts*h - hi| < 1e-12 * h`` per axis.
    """
    lo = tuple(float(v) for v in np.atleast_1d(lo))
    hi = tuple(float(v) for v in np.atleast_1d(hi))
    if len(lo) != len(hi):
        raise PreconditionError("grid extents have mismatched dimensions")
    if len(lo) not in (1, 2):
        raise PreconditionError(f"dim must be 1 or 2, got {len(lo)}")
    if not (h > 0):
        raise PreconditionError(f"grid spacing must be positive, got {h}")
    counts = []
    for a, (l, u) in enumerate(zip(lo, hi)):
        if not u > l:
            raise PreconditionError(f"axis {a}: hi must exceed lo")
        n = int(round((u - l) / h))
        if n < 1 or abs(l + n * h - u) >= 1e-12 * h:
            raise PreconditionError(
                f"axis {a}: extent [{l}, {u}] is not an integral multiple of h={h}"
            )
        counts.append(n)
    if math.prod(counts) > MAX_CELLS:
        raise PreconditionError(
            f"grid of {' x '.join(map(str, counts))} cells exceeds MAX_CELLS = {MAX_CELLS}"
        )
    return Grid(lo=lo, hi=hi, h=float(h), counts=tuple(counts))


def ball_mask(grid: Grid, center, radius: float) -> np.ndarray:
    """Cells with center in the closed Euclidean ball."""
    c = np.atleast_1d(np.asarray(center, dtype=np.float64))
    if c.size != grid.dim:
        raise PreconditionError("ball center dimension does not match the grid")
    d2 = sum((m - c[a]) ** 2 for a, m in enumerate(grid.meshes()))
    return d2 <= radius * radius


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Field:
    """Real samples on a grid plus a domain mask; masked-out cells hold 0."""

    grid: Grid
    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64, copy=True)
        m = np.array(self.mask, dtype=bool, copy=True)
        if v.shape != self.grid.shape or m.shape != self.grid.shape:
            raise PreconditionError("field arrays do not match the grid shape")
        v[~m] = 0.0
        object.__setattr__(self, "values", _freeze(v))
        object.__setattr__(self, "mask", _freeze(m))

    def masked_in(self) -> np.ndarray:
        return self.values[self.mask]


@dataclass(frozen=True)
class HolderEstimate:
    """Discrete Hoelder quotient. ``exact`` is always True: the offset sweep
    bounds every pair it skips. ``pairs_used`` counts the masked-in pairs
    examined before the sweep stopped."""

    value: float
    exact: bool
    pairs_used: int


def shift_windows(d, shape: tuple) -> tuple:
    """Index windows ``(here, there)`` of an array of ``shape`` such that
    ``arr[there]`` is ``arr[here]`` moved by the lattice offset ``d``: the
    same entry of the two windows sits at cells ``x`` and ``x + d``. An
    axis with ``|d_i| >= n_i`` gives empty windows."""
    here, there = [], []
    for di, n in zip(d, shape):
        di = int(di)
        span = max(n - abs(di), 0)
        here.append(slice(max(-di, 0), max(-di, 0) + span))
        there.append(slice(max(di, 0), max(di, 0) + span))
    return tuple(here), tuple(there)


def _half_plane_offsets(shape: tuple, quarter: bool = False) -> np.ndarray:
    """Nonzero lattice offsets whose first nonzero entry is positive: one
    representative of each pair {d, -d}, as rows of an (m, dim) array in
    row-major order; with ``quarter``, only those whose last entry is
    ``>= 0``."""
    axes = [np.arange(1 - n, n) for n in shape]
    axes[0] = np.arange(shape[0])
    if quarter:
        axes[-1] = np.arange(shape[-1])
    offs = np.stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")], axis=1)
    keep = offs[:, 0] > 0
    if len(shape) == 2:
        keep |= (offs[:, 0] == 0) & (offs[:, 1] > 0)
    return offs[keep]


class HolderTable:
    """One field's offset maxima, shared by the Hoelder sweeps of every alpha.

    For a lattice offset d, ``max_x |u(x + d) - u(x)|`` over the masked-in
    pairs, and the number of those pairs, do not depend on alpha. The table
    computes them the first time any sweep over ``u`` reaches d and hands
    them to every later sweep. Create one per field and pass it to each
    :func:`holder_quotient` call on that field.
    """

    def __init__(self, u: Field):
        vals = u.masked_in()
        if vals.size < 2:
            raise PreconditionError("holder_quotient needs at least 2 masked-in cells")
        if not np.all(np.isfinite(vals)):
            raise PreconditionError("holder_quotient needs finite masked-in values")
        self.field = u
        self.osc = float(np.max(vals) - np.min(vals))
        self._w = np.where(u.mask, u.values, np.nan)
        # equal_nan: the masked-out cells hold NaN, which never equals itself
        mirrors = [u.grid.dim == 2
                   and np.array_equal(self._w, np.flip(self._w, a), equal_nan=True)
                   for a in (0, 1)]
        self.point_symmetric = all(mirrors)
        self.offsets = _half_plane_offsets(u.grid.shape, quarter=any(mirrors))
        self.lengths = np.sqrt(np.sum((self.offsets * u.grid.h) ** 2, axis=1))
        self._maxima: dict = {}

    def offset_max(self, k: int) -> tuple:
        """``(max |u(x + d) - u(x)|, masked-in pairs)`` for ``d =
        offsets[k]``; the maximum is NaN when no masked-in pair has it.
        On a point-symmetric field the maximum is taken over the first
        half of the window's rows, and the pairs are counted on all of it."""
        hit = self._maxima.get(k)
        if hit is None:
            u = self.field
            here, there = shift_windows(self.offsets[k], u.grid.shape)
            ahead, behind = self._w[there], self._w[here]
            if self.point_symmetric:  # the window equals its 180-degree rotation
                rows = (ahead.shape[0] + 1) // 2
                ahead, behind = ahead[:rows], behind[:rows]
            diff = np.fmax.reduce(np.abs(ahead - behind), axis=None)
            hit = (diff, int(np.count_nonzero(u.mask[here] & u.mask[there])))
            self._maxima[k] = hit
        return hit


def holder_quotient(u: Field, alpha: float, table: HolderTable | None = None) -> HolderEstimate:
    """Discrete C^{0,alpha} seminorm: max |u(x)-u(y)| / |x-y|^alpha over
    masked-in pairs, computed exactly.

    The lattice offsets d of a half-plane are swept in increasing distance
    ``|d| = sqrt((d0 h)^2 + (d1 h)^2)``. Each offset takes one vectorised
    pass over every pair ``(x, x + d)``; masked-out cells hold NaN and
    ``np.fmax`` skips them. With ``osc = max u - min u`` over the mask, no
    pair at distance ``>= |d|`` can exceed ``osc / |d|^alpha``, so the
    sweep stops at the first offset where that bound is ``<=`` the running
    maximum. Rounding is monotone, so the cut holds in floating point too.

    In 2-D, when the field and its mask are mirror-symmetric to the bit
    along either axis, only the offsets with ``d1 >= 0`` are swept. The
    mirror maps the pairs of offset ``(d0, d1)`` one to one onto those of
    ``(d0, -d1)`` (for the axis-0 mirror, onto those of ``(-d0, d1)``,
    which are the same pairs reversed) with the same ``|u(x) - u(y)|`` and
    the same distance, so the two offsets have the same maximum and the
    value is unchanged to the bit. ``pairs_used`` counts the swept pairs.

    When the field and its mask are mirror-symmetric to the bit along
    both axes, they equal their own 180-degree rotation, which maps the
    pair ``(x, x + d)`` to the pair ``(x', x' + d)`` with ``x' + d`` the
    image of ``x``. So each offset's window of ``|u(x + d) - u(x)|`` equals
    its own rotation, bit for bit (``|a - b|`` and ``|b - a|`` round
    alike), and its maximum is taken over the first ``ceil(rows / 2)``
    rows of the window only. ``pairs_used`` still counts the whole window.

    ``table``, a :class:`HolderTable` of ``u``, carries the per-offset
    maxima from one alpha's sweep to the next. Division by the positive
    ``|d|^alpha`` is monotone in floating point, and each alpha keeps its
    own order and cut, so the value and ``pairs_used`` are those of a
    sweep without the table, to the bit.
    """
    if not (0.0 < alpha <= 1.0):
        raise PreconditionError(f"alpha must lie in (0, 1], got {alpha}")
    if table is None:
        table = HolderTable(u)
    elif table.field is not u:
        raise PreconditionError("the Hoelder table belongs to another field")
    den = table.lengths ** alpha
    order = np.argsort(den, kind="stable")
    best = 0.0
    used = 0
    for k in order:
        if table.osc / den[k] <= best:
            break
        diff, pairs = table.offset_max(k)
        if diff == diff:  # NaN when no masked-in pair has this offset
            best = max(best, float(diff / den[k]))
            used += pairs
    return HolderEstimate(best, True, used)


def field_to_csv(f: Field, path) -> None:
    """Write ``x0[,x1],value,mask`` rows, 17 significant digits, C-order.

    Each axis coordinate is formatted once. A row (the last axis) is one
    ``%`` template, the row's coordinates and mask flags around a ``%s``
    per value, filled with the row's formatted values; a row whose values
    equal their own reverse bit for bit formats only its first half and
    mirrors the strings. The writer holds no full-box copy beyond the field
    itself.
    """
    grid = f.grid
    axes = [[f"{c:.17g}," for c in grid.axis_centers(a).tolist()] for a in range(grid.dim)]
    prefixes = axes[0] if grid.dim == 2 else [""]
    # each column's text with the value left open, for mask flag 0 and 1
    cells = [np.array([f"{x1}%s,{flag}" for x1 in axes[-1]]) for flag in ("0\n", "1\n")]
    n = len(axes[-1])
    rows = zip(prefixes, f.values.reshape(len(prefixes), n), f.mask.reshape(len(prefixes), n))
    with open(path, "w") as fh:
        fh.write(",".join([f"x{a}" for a in range(grid.dim)] + ["value", "mask"]) + "\n")
        for x0, vals, mask in rows:
            template = x0 + x0.join(np.where(mask, cells[1], cells[0]).tolist())
            bits = vals.view(np.uint64)
            if np.array_equal(bits, bits[::-1]):
                half = [f"{v:.17g}" for v in vals[: (n + 1) // 2].tolist()]
                strs = half + half[: n // 2][::-1]
            else:
                strs = [f"{v:.17g}" for v in vals.tolist()]
            fh.write(template % tuple(strs))
