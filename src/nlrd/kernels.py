"""Discrete dispersal kernels and their derived constants.

Kernels are sampled pointwise at lattice offsets (which keeps radial
symmetry exact on the lattice) and then renormalized to unit discrete
mass. Three closed-form radial profiles are provided — ``tophat``,
``quartic`` (a W^{1,1} bump) and ``ring`` (positive only on an annulus,
exercising the r1 > 0 case).

Derived constants:

* ``w11``       — the L1 norm of the kernel gradient (closed form for the
                  quartic). Unavailable for discontinuous profiles.
* ``nikolskii`` — shift-quotient seminorm sup_s ||J(.+s) - J||_1 / |s|^a,
                  probed at lattice shifts within the support radius and at
                  one plateau shift of twice the radius.
* ``delta0``    — gamma / w11, the admissible cone slope for compactly
                  supported sub-solutions.
* ``d0``        — radius above which the indicator test function has
                  negative energy: smallest R with
                  (1/2)(1 - (1 - R_J/R)^dim) < int_0^1 f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field
from functools import cached_property

import numpy as np

from .errors import PreconditionError
from .grid import MAX_CELLS, Grid, shift_windows
from .nonlinearity import Bistable
from .reduction import _bisect, pairwise_sum

__all__ = [
    "KernelProfile",
    "Kernel",
    "KernelConstants",
    "build_kernel",
    "marginal_j1",
    "kernel_constants",
]


@dataclass(frozen=True)
class KernelProfile:
    """Closed-form radial profile descriptor."""

    kind: str  # tophat | quartic | ring | marginal
    radius: float
    inner_radius: float = 0.0

    def density(self, r: np.ndarray, dim: int) -> np.ndarray:
        """Continuum-normalized radial density (unit mass in R^dim)."""
        r = np.asarray(r, dtype=np.float64)
        R = self.radius
        if self.kind == "tophat":
            c = 1.0 / (math.pi * R * R) if dim == 2 else 1.0 / (2.0 * R)
            return np.where(r <= R, c, 0.0)
        if self.kind == "quartic":
            c = 3.0 / (math.pi * R * R) if dim == 2 else 15.0 / (16.0 * R)
            shape = np.clip(1.0 - (r / R) ** 2, 0.0, None) ** 2
            return c * np.where(r <= R, shape, 0.0)
        if self.kind == "ring":
            r1 = self.inner_radius
            if dim == 2:
                c = 1.0 / (math.pi * (R * R - r1 * r1))
            else:
                c = 1.0 / (2.0 * (R - r1))
            return np.where((r >= r1) & (r <= R), c, 0.0)
        raise PreconditionError(f"profile kind {self.kind!r} cannot be sampled")

    def grad_l1(self, dim: int):
        """Continuum int |grad J|, when the profile is W^{1,1}."""
        if self.kind == "quartic":
            R = self.radius
            return 16.0 / (5.0 * R) if dim == 2 else 15.0 / (8.0 * R)
        return None

    @property
    def annulus(self) -> tuple:
        """Radii (r1, r2) with J > 0 on the annulus r1 < |x| < r2."""
        if self.kind == "ring":
            return (self.inner_radius, self.radius)
        return (0.0, self.radius)


@dataclass(frozen=True)
class Kernel:
    """Unit-mass kernel table over lattice offsets within the support box."""

    h: float
    dim: int
    radius: float
    weights: np.ndarray  # shape (2m+1,)*dim, centered
    reach: int  # m = floor(radius / h)
    profile: KernelProfile
    _fft_cache: dict = dc_field(default_factory=dict, compare=False, repr=False)

    def __post_init__(self):
        w = np.array(self.weights, dtype=np.float64, copy=True)
        # the direct convolution folds mirrored taps: J(-z) = J(z) bit for bit
        bits = w.view(np.uint64)
        for a in range(w.ndim):
            if not np.array_equal(bits, np.flip(bits, axis=a)):
                raise PreconditionError(f"kernel table is not even along axis {a}")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def r1(self) -> float:
        """Inner radius of the profile's annulus (0 but for the ring)."""
        return self.profile.annulus[0]

    @property
    def r2(self) -> float:
        """Outer radius of the profile's annulus."""
        return self.profile.annulus[1]

    @property
    def center_weight(self) -> float:
        idx = (self.reach,) * self.dim
        return float(self.weights[idx])

    @cached_property
    def taps(self) -> tuple:
        """Nonzero ``(offset, weight)`` pairs in row-major table order."""
        m = self.reach
        return tuple(
            (tuple(i - m for i in u), float(self.weights[u]))
            for u in np.ndindex(self.weights.shape)
            if self.weights[u] != 0.0
        )

    @cached_property
    def quarter_taps(self) -> tuple:
        """The taps with every offset component >= 0, in row-major order.

        The table is even along each axis, so these and their mirror
        images are all the taps."""
        return tuple((d, c) for d, c in self.taps if min(d) >= 0)

    def offsets(self):
        """Integer offset grids matching the weight table."""
        rng = np.arange(-self.reach, self.reach + 1)
        return tuple(np.meshgrid(*[rng] * self.dim, indexing="ij"))


def build_kernel(profile: KernelProfile, grid: Grid) -> Kernel:
    """Sample a radial profile at offset centers and renormalize.

    Rejections: support under 2h, a table of more than ``grid.MAX_CELLS``
    cells (before it is allocated), negative profile values, ring annulus
    thinner than 2h (the lattice cannot certify annulus positivity below
    that).
    """
    h, dim = grid.h, grid.dim
    R = float(profile.radius)
    if R < 2.0 * h:
        raise PreconditionError(f"kernel radius {R} must be at least 2h = {2*h}")
    if profile.kind == "ring":
        if not (0.0 <= profile.inner_radius < R):
            raise PreconditionError("ring needs 0 <= inner_radius < radius")
        if R - profile.inner_radius < 2.0 * h:
            raise PreconditionError(
                "ring annulus thinner than 2h; positivity not resolvable on the lattice"
            )
    m = int(math.floor(R / h + 1e-12))
    if (2 * m + 1) ** dim > MAX_CELLS:
        raise PreconditionError(
            f"kernel radius {R} at h = {h} needs a table above MAX_CELLS = {MAX_CELLS} cells"
        )
    rng = np.arange(-m, m + 1, dtype=np.float64)
    if dim == 1:
        r = np.abs(rng) * h
    else:
        oi, oj = np.meshgrid(rng, rng, indexing="ij")
        r = np.hypot(oi, oj) * h  # hypot is symmetric: exact lattice symmetry
    w = profile.density(r, dim)
    if np.any(w < 0.0):
        bad = r.ravel()[int(np.argmin(w))]
        raise PreconditionError(f"profile negative at radius {bad:.6g}")
    total = pairwise_sum(w) * h**dim
    if total <= 0.0:
        raise PreconditionError("profile has no mass on the lattice")
    w = w / total
    r1, r2 = profile.annulus
    # strictly positive weights strictly inside the annulus
    inside = (r > r1) & (r < r2)
    if np.any(w[inside] <= 0.0):
        raise PreconditionError("kernel not positive on its annulus")
    return Kernel(h=h, dim=dim, radius=R, weights=w, reach=m, profile=profile)


def marginal_j1(k: Kernel) -> Kernel:
    """1-D marginal J1(x) = sum over transverse offsets, times h^(dim-1).

    Mass is preserved exactly by the summation order; the result is even.
    For a 1-D input the kernel is returned unchanged (with a note via the
    profile kind).
    """
    if k.dim == 1:
        return k
    w1 = np.array([pairwise_sum(k.weights[i, :]) * k.h for i in range(k.weights.shape[0])])
    prof = KernelProfile(kind="marginal", radius=k.radius)
    return Kernel(h=k.h, dim=1, radius=k.radius, weights=w1, reach=k.reach, profile=prof)


@dataclass(frozen=True)
class KernelConstants:
    """Derived constants tied to one (kernel, nonlinearity) pair."""

    w11: float | None
    nikolskii: dict
    delta0: float | None
    d0: float


def _shifted_l1(k: Kernel, shift: tuple) -> float:
    """||J(. + s) - J||_1 for an integer lattice shift s (cells)."""
    shift = tuple(int(c) for c in shift)
    big = np.pad(k.weights, max(abs(c) for c in shift))
    moved = np.zeros_like(big)
    here, there = shift_windows(shift, big.shape)
    moved[there] = big[here]
    return pairwise_sum(np.abs(moved - big)) * k.h**k.dim


def _d0_bisection(radius: float, dim: int, int_f: float) -> float:
    """Smallest R with (1/2)(1 - (1 - R_J/R)^dim) < int_0^1 f, and R > R_J,
    bracketed to 1e-6.

    The left side decreases from 1/2 (at R = R_J) to 0, so when
    int_f < 1/2 there is a unique threshold; for very strong f the formal
    threshold would fall at or below R_J and the returned value is clamped
    to R_J (the energy inequality then holds for every admissible R)."""

    def holds(R: float) -> bool:
        return 0.5 * (1.0 - (1.0 - radius / R) ** dim) < int_f

    if holds(radius * (1.0 + 1e-9)):
        return radius
    hi = max(4.0 * radius, 1.0)
    while not holds(hi):
        hi *= 2.0
        if hi > 1e12:
            raise PreconditionError("d0 search diverged; int_0^1 f too small")
    return _bisect(holds, radius, hi, 1e-6)


def kernel_constants(k: Kernel, f: Bistable, alphas) -> KernelConstants:
    """Constants used by the ball constructions; see the module docstring.

    The Nikol'skii seminorm for a compactly supported kernel is attained at
    bounded shifts, so probing lattice shifts with |s| <= R_J plus one
    plateau probe at 2 R_J along an axis is exhaustive for alpha <= 1.
    With no ``alphas`` the Nikol'skii table is empty and no shift is probed.
    """
    w11 = k.profile.grad_l1(k.dim)
    delta0 = (f.gamma / w11) if w11 is not None else None

    alphas = list(alphas)
    for alpha in alphas:
        if not (0.0 < alpha <= 1.0):
            raise PreconditionError(f"alpha must lie in (0, 1], got {alpha}")
    m = k.reach
    shifts = []
    if k.dim == 1:
        for i in range(1, m + 1):
            shifts.append((i,))
        shifts.append((2 * m,))
    else:
        for i in range(-m, m + 1):
            for j in range(-m, m + 1):
                if (i, j) == (0, 0):
                    continue
                if math.hypot(i, j) * k.h <= k.radius + 1e-12:
                    shifts.append((i, j))
        shifts.append((2 * m, 0))
    # (||J(. + s) - J||_1, |s|) per shift, computed once for every alpha
    probes = [(_shifted_l1(k, s), math.hypot(*s) * k.h if len(s) == 2 else abs(s[0]) * k.h)
              for s in shifts] if alphas else []
    nik: dict = {}
    for alpha in alphas:
        best = 0.0
        for l1, mag in probes:
            best = max(best, l1 / mag**alpha)
        nik[float(alpha)] = best

    d0 = _d0_bisection(k.radius, k.dim, f.int_f)
    return KernelConstants(w11=w11, nikolskii=nik, delta0=delta0, d0=d0)
