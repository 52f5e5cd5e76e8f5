"""Constructive schemes: parabolic relaxation, the monotone resolvent
iteration for maximal ball solutions, the energy functional, 1-D front
profiles, and compactly supported sub-solutions.

Scheme notes
------------
* ``evolve`` is explicit Euler with clipping to [0, 1]: :meth:`Problem.step`,
  the one copy of the update, which the comparison suite also calls. Under
  the step bound dt <= 0.9 / (max J_box + max |f'|) the update map is
  monotone in every cell value, so discrete comparison is preserved exactly;
  clipping is a no-op for order-respecting data and only guards float drift.
* ``maximal_solution`` iterates v_{n+1} = (J * (v_n 1_B) + k v_n + f(v_n))
  / (k + 1) from v_0 = 1, one resolvent sweep per step. With
  k = ceil(4 max |f'|) / 4 >= -min f' on [0, 1], s -> k s + f(s) increases,
  so the map preserves order and the iterates decrease to the maximal
  solution. They run to the rounding floor, and the limit is gated by the
  ball-equation residual (<= 1e-9).
* The ball's mask, the even kernel, v_0 = 1 and the pointwise f are
  mirror-symmetric along each axis on which the mask's bounding box equals
  its own mirror image, so every iterate is too. ``maximal_solution``
  therefore crops to that box and folds it along those axes (cell -1-j
  equals cell j for an even box length, cell -j equals cell j about the
  middle cell for an odd one), and its steps convolve the kept cells
  with a band of reach-many mirrored cells below each folded axis. The
  ``direct`` path sums mirrored taps in pairs, so its full-box iterates
  are symmetric to the bit and the folded run returns the same bits. On
  the other paths a step (``_descend``) convolves the deficit 1_B - v
  through the fold, which is pure geometry, and subtracts it from J * 1_B,
  taken once on the direct path: FFT roundoff scales with the 2-norm of
  the input, and the deficit is small away from the rim, so cells whose
  exact value rounds to 1 come out as 1. The limit is unfolded
  and its ball-equation residual is gated with one full-box convolution,
  so the certificate does not rest on the fold.
* ``evolve`` folds the whole box by the same rule (see
  :class:`_MirrorFold`): along each axis on which the domain, ``jself``,
  the clamp band and u_0 are mirror-symmetric to the bit, the even kernel
  and the cellwise update keep every iterate symmetric, and
  :meth:`Problem.step` runs on the kept cells through the fold's frame,
  whose window is all of them: the same step as on the full box's frame.
  The plain folded convolution is used on every path (no deficit form).
  On ``direct`` the run is the full-box run to the bit. The returned
  iterate is unfolded, and ``converged`` and ``residual_sup`` come from
  one full-box residual convolution of it, so the certificate does not
  rest on the fold.
* ``front_profile`` relaxes the clamped truncated-line problem at the step
  tau = 0.99/(1 - J_1(0) h + max |f'|), 0.99 times the largest step at
  which the damped sweep is order preserving. The sweep therefore keeps
  the step datum's monotonicity in x and converges to the stationary
  profile of the clamped line; the translation is fixed afterwards by
  anchoring the coordinate origin at the cell where the profile crosses
  theta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .convolve import convolve, fft_buffers
from .errors import NumericalFailure, PreconditionError
from .grid import Field, Grid, make_grid, shift_windows
from .kernels import Kernel, KernelConstants
from .nonlinearity import Bistable, ExtendedNonlinearity, even_potential
from .operators import Frame, Problem, ball_mask, residual
from .reduction import pairwise_sum

__all__ = [
    "EvolveResult",
    "FrontProfile",
    "MaximalSolution",
    "SubSolution",
    "EnergyResult",
    "evolve",
    "resolvent_solve",
    "maximal_solution",
    "energy",
    "front_profile",
    "build_subsolution",
    "cone_slope",
    "ball_grid",
    "DECREASE_FLOOR",
]


# ---------------------------------------------------------------------------
# mirror folds


def _along(axis: int, s: slice) -> tuple:
    return (slice(None),) * axis + (s,)


class _MirrorFold:
    """The bounding box of ``mask``, folded along every axis on which the
    box is its own mirror image bit for bit, and so is each of ``fields``
    restricted to the mask. The box of a ball is cropped to the ball; the
    domain of an obstacle problem reaches the box edges, so its box is the
    whole box.

    On an axis of box length n, box cell i mirrors to n-1-i: the
    half-sample mirror (cell -1-j equals cell j about the box middle) for
    even n, the whole-sample one (cell -j equals cell j about the middle
    cell) for odd n. A folded axis keeps cells n//2 .. n-1. The kernel is
    even, so :meth:`convolve` gives J * x on the kept cells once it reads,
    below each folded axis, a band of reach-many mirrored cells; the band
    reads zeros where it reaches past the mirror axis.
    """

    def __init__(self, mask: np.ndarray, k: Kernel, *fields: np.ndarray):
        if not mask.any():
            raise PreconditionError("the mask to fold holds no grid cell")
        self.box = tuple(slice(int(i.min()), int(i.max()) + 1) for i in np.nonzero(mask))
        crop = mask[self.box]
        views = [crop] + [np.where(crop, np.asarray(x)[self.box], 0.0) for x in fields]
        self.axes = [a for a in range(mask.ndim)
                     if all(np.array_equal(x, np.flip(x, a)) for x in views)]
        self.keep = tuple(slice(n // 2 if a in self.axes else 0, n)
                          for a, n in enumerate(crop.shape))
        self.mask = crop[self.keep]
        self.k = k
        m = k.reach
        # the convolution input: kept cells at offset m on each folded axis
        self.inner = tuple(slice(m if a in self.axes else 0, None) for a in range(mask.ndim))
        self.ext = np.zeros(tuple(n + m if a in self.axes else n
                                  for a, n in enumerate(self.mask.shape)))
        self.out = np.empty(self.ext.shape)

    def fold(self, full: np.ndarray) -> np.ndarray:
        """A copy of the kept cells of ``full``, in its dtype."""
        return np.asarray(full)[self.box][self.keep].copy()

    def unfold(self, folded: np.ndarray, out: np.ndarray) -> None:
        """Write the box of ``out`` from its kept cells ``folded``."""
        box = out[self.box]
        box[self.keep] = folded
        for a in self.axes:
            n = box.shape[a]
            half = n // 2
            box[_along(a, slice(0, half))] = np.flip(box[_along(a, slice(n - half, n))], a)

    def convolve(self, x: np.ndarray, path: str) -> np.ndarray:
        """J * x on the kept cells, for x given on them; the returned view
        is overwritten by the next call."""
        ext, inner, m = self.ext, self.inner, self.k.reach
        ext[inner] = x
        # axis by axis: a later band copies the earlier bands' cells too,
        # which fills the corners
        for a in self.axes:
            n = self.box[a].stop - self.box[a].start
            src, span = m + n % 2, min(m, n // 2)
            ext[_along(a, slice(m - span, m))] = np.flip(ext[_along(a, slice(src, src + span))], a)
        return convolve(ext, self.k, path, out=self.out)[inner]


# ---------------------------------------------------------------------------
# parabolic relaxation on the obstacle domain


@dataclass
class EvolveResult:
    u: Field
    steps: int
    converged: bool
    residual_sup: float
    dt: float
    log_rows: list


def max_step(p: Problem) -> float:
    """Comparison-preserving explicit-Euler bound 0.9/(max J + max |f'|)."""
    max_j = float(np.max(p.jself[p.domain_mask]))
    return 0.9 / (max_j + p.f.max_abs_fprime)


def evolve(
    p: Problem,
    u0: Field,
    dt: float | None = None,
    max_steps: int = 200_000,
    residual_tol: float = 1e-8,
    log_every: int = 0,
) -> EvolveResult:
    """March u' = Lu + f(u) to a stationary point.

    Stops at the first iterate whose interior residual sup falls below
    ``residual_tol`` (a fixed point therefore stops at step 0), or returns
    the ``max_steps`` iterate flagged unconverged.

    The steps run on the box folded along each axis on which the domain,
    ``jself``, the clamp band and ``u0`` are mirror-symmetric to the bit
    (see :class:`_MirrorFold`; the whole box when none is): the kernel and
    the pointwise update are even, so every iterate is symmetric too. The
    returned iterate is unfolded, and ``converged`` and ``residual_sup``
    come from its residual on the full box, one more convolution, so they
    do not rest on the fold.
    """
    p.check_clamped(u0)
    bound = max_step(p)
    if dt is None:
        dt = bound
    elif dt > bound * (1.0 + 1e-12):
        raise PreconditionError(f"dt = {dt} above the comparison bound {bound:.6g}")
    if np.any(u0.values[p.domain_mask] < 0.0) or np.any(u0.values[p.domain_mask] > 1.0):
        raise PreconditionError("initial datum must take values in [0, 1]")
    fold = _MirrorFold(p.domain_mask, p.kernel, p.jself, p.clamp_mask, u0.values)
    frame = Frame(fold.mask, fold.fold(p.clamp_mask), fold.fold(p.jself),
                  (slice(None),) * p.grid.dim, fold.convolve)
    dom, inter = frame.domain_mask, fold.fold(p.interior_mask)
    u = fold.fold(u0.values)
    log_rows: list = []
    steps = 0
    with fft_buffers(p.kernel):
        while True:
            nxt, r = p.step(u, dt, frame=frame)
            sup = float(np.max(np.abs(r[inter])))
            if not math.isfinite(sup):
                raise NumericalFailure(f"non-finite residual at step {steps}")
            stop = sup <= residual_tol or steps >= max_steps
            if stop or (log_every and steps % log_every == 0):
                ud = u[dom]
                log_rows.append((steps, sup, float(np.min(ud)), float(np.max(ud))))
            if stop:
                break
            u = nxt
            steps += 1
    values = np.zeros(p.grid.shape)
    fold.unfold(u, values)
    u = Field(p.grid, values, p.domain_mask)
    _, sup = residual(p, u)
    return EvolveResult(u, steps, sup <= residual_tol, sup, dt, log_rows)


# ---------------------------------------------------------------------------
# ball problems


def ball_grid(center, radius: float, h: float, pad: float = 0.0) -> Grid:
    """Tight box around a ball, aligned so cell centers sit at
    center + (i + 1/2 - n) h; translated balls then share one lattice."""
    c = np.atleast_1d(np.asarray(center, dtype=np.float64))
    n = int(math.ceil((radius + pad) / h - 1e-12))
    lo = [ci - n * h for ci in c]
    hi = [ci + n * h for ci in c]
    return make_grid(lo, hi, h)


def resolvent_solve(
    k: Kernel,
    bmask: np.ndarray,
    kshift: float,
    rhs: np.ndarray,
    w0: np.ndarray | None = None,
    tol: float = 1e-13,
    path: str = "fast",
) -> np.ndarray:
    """Solve L_B[w] - (kshift+1) w = rhs by the contraction
    w <- (L_B[w] - rhs) / (kshift+1); factor <= 1/(kshift+1) since the
    operator's row sums are at most 1.

    Sweeps run until the first increment sup |w_new - w| <= ``tol``, at
    least one sweep and at most 100 000. The returned w_new has linear
    residual L_B[w_new - w] (up to roundoff), so its sup is at most that
    last increment: ``tol`` bounds the linear residual of the result with
    no convolution beyond the sweeps themselves. The sweeps run on the
    ball's box, folded along each axis on which the ball, ``rhs`` and
    ``w0`` are mirror-symmetric.
    """
    if kshift <= 0.0:
        raise PreconditionError("resolvent shift must be positive for contraction")
    w0 = np.zeros(bmask.shape) if w0 is None else w0
    fold = _MirrorFold(bmask, k, rhs, w0)
    rhs, w = fold.fold(rhs), fold.fold(w0)
    outside = ~fold.mask
    w[outside] = 0.0
    # one sweep is (J * w - rhs) / (kshift + 1), zeroed off the ball (w is
    # zero there already), in place on two work arrays swapped after each
    tmp, new = np.empty(w.shape), np.empty(w.shape)
    with fft_buffers(k):
        for _ in range(100_000):
            np.subtract(fold.convolve(w, path), rhs, out=new)
            new /= kshift + 1.0
            new[outside] = 0.0
            inc = float(np.max(np.abs(np.subtract(new, w, out=tmp), out=tmp)))
            w, new = new, w
            if inc <= tol:
                out = np.zeros(bmask.shape)
                fold.unfold(w, out)
                return out
    raise NumericalFailure("resolvent contraction did not converge")


@dataclass
class MaximalSolution:
    center: tuple
    radius: float
    field: Field
    iterations: int
    final_increment: float
    kshift: float
    f: Bistable
    kernel: Kernel
    history: list = dc_field(default_factory=list)  # (iter, decrease, worst rise)

    @property
    def values(self) -> np.ndarray:
        return self.field.values

    @property
    def bmask(self) -> np.ndarray:
        return self.field.mask


# four ulps of 1: the first decrease at most this stops the monotone scheme
# (see maximal_solution), and it bounds the reported final decrease
DECREASE_FLOOR = float(4.0 * np.finfo(float).eps)


def _descend(fold: _MirrorFold, fz: ExtendedNonlinearity, kshift: float, path: str) -> tuple:
    """The loop of :func:`maximal_solution` on ``fold``'s kept cells: returns
    the last iterate and the (iteration, decrease, worst rise) rows.

    Off the ``direct`` path a step takes J * v as J * 1_B - J * (1_B - v),
    with J * 1_B convolved once on ``direct``: the FFT's roundoff scales
    with the 2-norm of its input, and the deficit 1_B - v of an iterate is
    small away from the rim, so deep cells, whose exact value rounds to 1,
    come out as 1 rather than a few ulps below it."""
    if kshift < fz.base.max_abs_fprime:
        raise PreconditionError(
            f"resolvent shift too small: k = {kshift} < -min f' = {fz.base.max_abs_fprime:.6g}"
        )
    bmask = fold.mask
    outside = ~bmask
    v = np.where(bmask, 1.0, 0.0)
    new = np.empty(v.shape)
    diff = np.empty(v.shape)
    ones = None if path == "direct" else fold.convolve(bmask, "direct").copy()
    history: list = []
    with fft_buffers(fold.k):
        while len(history) < 20_000:
            if ones is None:
                conv = fold.convolve(v, path)
            else:  # diff holds the deficit until it is overwritten below
                conv = fold.convolve(np.subtract(bmask, v, out=diff), path)
                np.subtract(ones, conv, out=conv)
            # T(v) = (J * v + (k v + f(v))) / (k + 1), zeroed off the ball
            np.multiply(v, kshift, out=new)
            new += fz.f(v)
            new += conv
            new /= kshift + 1.0
            new[outside] = 0.0
            # 1 is a super-solution, so exact iterates stay <= 1; trimming the
            # odd ulp of convolution roundoff keeps the invariant checkable
            np.minimum(new, 1.0, out=new)
            np.subtract(new, v, out=diff)
            # diff is +0.0 off the ball, so a nonzero extreme over the box is
            # the ball's; only a zero needs the (slower) masked reduction
            rise = float(np.max(diff)) or float(np.max(diff, where=bmask, initial=-math.inf))
            if rise > 1e-12:
                raise NumericalFailure(f"monotonicity violated by {rise:.3e}")
            # max(v - new) over the ball; 0.0 - keeps a zero decrease at +0.0
            dec = 0.0 - (float(np.min(diff))
                         or float(np.min(diff, where=bmask, initial=math.inf)))
            v, new = new, v
            history.append((len(history) + 1, dec, rise))
            if dec <= DECREASE_FLOOR:
                return v, history
    raise NumericalFailure("monotone scheme did not reach its rounding floor")


def maximal_solution(
    k: Kernel,
    f: Bistable,
    center,
    radius: float,
    d0: float,
    grid: Grid | None = None,
    path: str = "fast",
) -> MaximalSolution:
    """Monotone iteration from v_0 = 1 on the closed ball.

    Requires R >= d0 (existence threshold from ``kernel_constants``). ``f``
    is evaluated through its zero-left extension, under which every
    iterate stays nonnegative. Each step is one sweep of
    T(v) = (J * (v 1_B) + k v + f(v)) / (k + 1) on the ball, one resolvent
    sweep warm-started at v. The shift k is max |f'| = -min f' on [0, 1],
    the least under which T preserves order (a smaller one is refused),
    rounded up to a multiple of 1/4 so that k and k + 1 are exact (0.75 on
    the reference well). T(1) <= 1 and the fixed points of T solve the
    ball equation, so the orbit of 1 decreases to the maximal solution; it
    is checked to be non-increasing to 1e-12 at every step.

    The loop runs to the rounding floor: it stops at the first decrease of
    at most four ulps of 1, ``DECREASE_FLOOR`` = 4 eps = 8.88e-16, within
    20 000 steps, and reports that decrease as ``final_increment``. The
    orbit never reaches an exact fixed point, because each step rounds
    J * v, k v + f(v) and the division, so near the limit some cells move
    by a few ulps at every step (on the R = 15 disk, each of a thousand
    further steps rises by 3.3e-16 and falls by 3.3e-16 to 8.9e-16); a
    smaller stop could wait on that rounding for ever. At this one the
    field is within 1e-14 of where those thousand steps take it. The final
    field solves the ball equation to 1e-9 and exceeds theta somewhere,
    else the run is reported as collapsed.

    The loop runs on the ball's box folded along its mirror axes, on the
    deficit 1 - v off the ``direct`` path (see the scheme notes and
    :func:`_descend`); on ``direct`` it returns the full-box run's bits.
    The ball-equation residual is gated on the unfolded field with one
    full-box convolution, independently of the fold.
    """
    ncoords = np.atleast_1d(center).size
    if ncoords != k.dim:
        raise PreconditionError(
            f"ball center has {ncoords} coordinates for a {k.dim}-D kernel"
        )
    if radius < d0:
        raise PreconditionError(f"R = {radius} below existence threshold d0 = {d0:.6g}")
    if radius < k.radius:
        raise PreconditionError("ball smaller than the kernel support")
    grid = grid or ball_grid(center, radius, k.h)
    full = ball_mask(grid, center, radius)
    fold = _MirrorFold(full, k)
    # -min f' on [0, 1] rounded up to a quarter, exact with k + 1 in binary
    kshift = math.ceil(4.0 * f.max_abs_fprime) / 4.0
    fz = ExtendedNonlinearity(f)
    v, history = _descend(fold, fz, kshift, path)
    values = np.zeros(grid.shape)
    fold.unfold(v, values)
    del fold, v  # drop the folded work arrays before the full-box gate
    res = convolve(values, k, path)
    res -= values
    res += fz.f(values)
    res_sup = float(np.max(np.abs(res[full])))
    if res_sup > 1e-9:
        raise NumericalFailure(f"ball-equation residual {res_sup:.3e} > 1e-9")
    vmax = float(np.max(values[full]))
    vmin = float(np.min(values[full]))
    # v < 1 holds strictly in exact arithmetic, but 1 - v decays like
    # exp(-kappa dist) from the ball boundary and saturates to 0.0 in
    # float64 deep inside large balls; only overshoot is an error
    if not (0.0 < vmin and vmax <= 1.0):
        raise NumericalFailure(f"solution escaped (0, 1]: [{vmin:.3e}, {vmax:.17g}]")
    theta = f.theta
    if vmax <= theta:
        raise NumericalFailure(
            f"collapsed to trivial branch: max v = {vmax:.6f} <= theta = {theta}"
        )
    return MaximalSolution(
        center=tuple(np.atleast_1d(center).astype(float)),
        radius=float(radius),
        field=Field(grid, values, full),
        iterations=len(history),
        final_increment=history[-1][1],
        kshift=kshift,
        f=f,
        kernel=k,
        history=history,
    )


# ---------------------------------------------------------------------------
# energy functional on a ball


@dataclass
class EnergyResult:
    value: float       # quadratic-difference form
    cross_form: float  # correlation form
    pair_term: float
    mass_term: float
    potential_term: float


def energy(k: Kernel, f: Bistable, center, radius: float, u: Field) -> EnergyResult:
    """E(u) over the ball, computed by two independent summation routes.

    Route 1 sums J(x-y)(u(y)-u(x))^2 pair by pair over the offset table
    plus the boundary-leak mass term; route 2 uses the correlation form
    -1/2 <u, L_B u> + 1/2 <u, u> - sum F(u). The two must agree to
    1e-9 relative, which cross-checks the convolution machinery inside a
    genuinely different reduction order. The potential is the
    antiderivative of the odd extension of ``f``, which is even in u
    (:func:`even_potential`).
    """
    grid = u.grid
    bmask = ball_mask(grid, center, radius)
    if not np.array_equal(bmask, u.mask):
        raise PreconditionError("field mask is not the requested ball")
    hd = grid.h**grid.dim
    vals = u.values

    pair_sums = []
    bm = bmask.astype(np.float64)
    for d, c in k.taps:
        here, there = shift_windows(d, grid.shape)
        both = bmask[there] & bmask[here]
        diff2 = (vals[there] - vals[here]) ** 2
        pair_sums.append(c * pairwise_sum(diff2 * both))
    pair_term = 0.25 * hd * hd * pairwise_sum(np.asarray(pair_sums))

    mass_in_ball = convolve(bm, k, "fast")
    cvals = np.where(bmask, 1.0 - mass_in_ball, 0.0)
    mass_term = 0.5 * hd * pairwise_sum(cvals * vals * vals)
    Fvals = np.where(bmask, even_potential(f, vals), 0.0)
    potential_term = hd * pairwise_sum(Fvals)
    form1 = pair_term + mass_term - potential_term

    Lu = convolve(vals * bm, k, "fast")
    form2 = (
        -0.5 * hd * pairwise_sum(np.where(bmask, vals * Lu, 0.0))
        + 0.5 * hd * pairwise_sum(np.where(bmask, vals * vals, 0.0))
        - potential_term
    )
    if abs(form1 - form2) > 1e-9 * (1.0 + abs(form1)):
        raise NumericalFailure(
            f"energy forms disagree: {form1!r} vs {form2!r}"
        )
    return EnergyResult(form1, form2, pair_term, mass_term, potential_term)


# ---------------------------------------------------------------------------
# 1-D front profiles


@dataclass
class FrontProfile:
    """Clamped-line stationary profile with the theta crossing at x = 0."""

    grid: Grid
    values: np.ndarray
    pin_index: int
    residual_sup: float      # over cells at least 2 R_J from the ends
    source_kernel: Kernel    # the 1-D kernel it solves against

    def coords(self) -> np.ndarray:
        return self.grid.axis_centers(0)

    def __call__(self, t):
        t = np.asarray(t, dtype=np.float64)
        out = np.interp(t, self.coords(), self.values, left=0.0, right=1.0)
        return out if out.ndim else float(out)


def _front_rate(phi: np.ndarray, j1: Kernel, f: Bistable) -> np.ndarray:
    """J_1 * phi - phi + f(phi) on the direct path: the front sweep's rate
    and the clamped-line residual."""
    return convolve(phi, j1, "direct") - phi + f.f(phi)


def _front_step(j1: Kernel, f: Bistable) -> float:
    """0.99 times the largest order-preserving step of the front sweep,
    1/(1 - J_1(0) h + max |f'|)."""
    return 0.99 / (1.0 - j1.center_weight * j1.h + f.max_abs_fprime)


def front_profile(
    j1: Kernel,
    f: Bistable,
    line_length: float | None = None,
    tol: float = 1e-12,
) -> FrontProfile:
    """Damped fixed-point iteration for the clamped-line front.

    phi <- phi + tau (J_1 * phi - phi + f(phi)) from a step datum, with the
    end bands clamped to the stable states, on the direct convolution path.
    The step is tau = 0.99/(1 - J_1(0) h + max |f'|). In the update of a
    cell, every other cell enters with the weight tau J_1(z) h >= 0, and,
    for profiles with values in [0, 1], the cell itself with
    1 + tau (J_1(0) h - 1 + f'(s)) for some s in [0, 1], which is at
    least 1 - 0.99 because f' >= -max |f'| there. So one sweep maps an
    ordered pair of profiles to an ordered pair, and the factor 0.99
    leaves that diagonal a margin of a hundredth against rounding. The
    sweep also commutes with a one-cell translation away from the clamped
    bands, and the step datum is nondecreasing, so every iterate is
    nondecreasing in x. The returned profile is checked for that, cell by
    cell, to -1e-12.

    The datum is 0 on the first ``s = min(n // 2, ceil(4 band / sqrt(a)))``
    cells and 1 after them, with ``band = round(R_J / h)`` cells and the
    amplitude ``a`` of f. The integral of f over [0, 1] is positive, so 1
    invades: the layer drifts left and comes to rest against the left
    clamp, a few cells past it. Starting it ``4 / sqrt(a)`` clamp widths
    in (the layer widens as ``a`` falls) rather than mid-line skips the
    long drift, and it still arrives at its resting place from the right.
    The iterates near the stop therefore still rise, so the stopped
    profile lies on the sub-solution side up to rounding, which the
    plane-wave sub-solutions built from it need. A start at the clamp, or
    a fixed two or four R_J from it, can settle from the other side for a
    small amplitude. The ``n // 2`` cap keeps the centred step for very
    flat wells (``a <= 0.0016`` on the shortest line, 200 R_J).

    The iteration stops once the increment falls to ``tol``, within
    400 000 sweeps, and the residual at least 2 R_J from the ends must be
    at most 1e-8. The coordinate origin is finally anchored at the theta
    crossing, which removes the translation degree of freedom without
    touching the samples.
    """
    if j1.dim != 1:
        raise PreconditionError("front_profile needs a 1-D kernel (use marginal_j1)")
    h = j1.h
    RJ = j1.radius
    L = float(line_length) if line_length is not None else 200.0 * RJ
    if L < 200.0 * RJ - 1e-12:
        raise PreconditionError(f"truncated line must be at least 200 R_J = {200*RJ}")
    n = int(round(L / h))
    make_grid([-0.5 * n * h], [0.5 * n * h], h)  # rejects an oversized line up front

    tau = _front_step(j1, f)
    band = max(int(round(RJ / h)), 1)
    interior = np.zeros(n, dtype=bool)
    interior[band:-band] = True

    start = min(n // 2, math.ceil(4.0 * band / math.sqrt(f.amplitude)))
    phi = np.ones(n)
    phi[:start] = 0.0  # the clamped bands hold 0 and 1

    sweeps = 0
    while True:
        r = _front_rate(phi, j1, f)
        inc = tau * float(np.max(np.abs(r[interior])))
        if not math.isfinite(inc):
            raise NumericalFailure(f"front iteration lost finiteness at sweep {sweeps}")
        if inc <= tol:
            break
        if sweeps >= 400_000:
            raise NumericalFailure(
                f"front residual plateau: increment {inc:.3e} after {sweeps} sweeps"
            )
        phi = np.where(interior, phi + tau * r, phi)
        sweeps += 1

    diffs = np.diff(phi)
    if float(np.min(diffs)) <= -1e-12:
        raise NumericalFailure("profile not monotone; refine grid")

    wide = np.zeros(n, dtype=bool)
    wide[2 * band : -2 * band] = True
    r = _front_rate(phi, j1, f)
    res_sup = float(np.max(np.abs(r[wide])))
    if res_sup > 1e-8:
        raise NumericalFailure(f"front residual {res_sup:.3e} > 1e-08")

    pin = int(np.searchsorted(phi, f.theta))
    pin = min(max(pin, 0), n - 1)
    anchored = make_grid([-(pin + 0.5) * h], [(n - pin - 0.5) * h], h)
    return FrontProfile(
        grid=anchored,
        values=phi,
        pin_index=pin,
        residual_sup=res_sup,
        source_kernel=j1,
    )


# ---------------------------------------------------------------------------
# compactly supported sub-solutions


@dataclass
class SubSolution:
    """A compactly supported sub-solution w around the maximal ball solution
    ``base``: ``verify_min`` is the measured minimum of
    L_{B_{R+delta}}[w] - w + f(w) over every box cell, which the caller
    gates, and ``shell_cells`` counts the cells off the ball where w > 0
    (0 when the lattice does not resolve the cone, and then w = v 1_B)."""

    base: MaximalSolution
    delta: float
    field: Field
    verify_min: float
    shell_cells: int


def cone_slope(delta: float | None, kc: KernelConstants) -> float:
    """The sub-solution cone slope: ``delta`` checked to lie in
    (0, delta0], where delta0 = gamma / w11 needs a W^{1,1} kernel
    profile; None takes delta0 / 2."""
    if kc.delta0 is None:
        raise PreconditionError(
            "delta0 undefined: kernel profile is not W^{1,1} (use the quartic bump)"
        )
    if delta is None:
        return kc.delta0 / 2.0
    if not (0.0 < delta <= kc.delta0):
        raise PreconditionError(f"delta = {delta} outside (0, delta0 = {kc.delta0:.6g}]")
    return delta


def build_subsolution(
    v: MaximalSolution,
    delta: float | None,
    kc: KernelConstants,
    grid: Grid | None = None,
    path: str = "fast",
) -> SubSolution:
    """w = v on the ball B = B_R and, off it, the lattice sup-envelope
    w(x) = max over ball cells y of (v(y) - |x - y| / delta)^+, which is
    zero past B_{R+delta}. As v <= 1, only lattice offsets s with
    |s| h < delta contribute, each as one shifted maximum over the box.
    ``delta`` passes :func:`cone_slope` (None takes delta0 / 2).

    Returns the minimum of L_{B_{R+delta}}[w] - w + f(w) over every box
    cell as measured; the rows that report it gate it at 1e-12. Where the
    lattice does not resolve the cone (h / delta above the values of v near
    the rim), ``shell_cells`` is 0 and w = v 1_B.
    """
    delta = cone_slope(delta, kc)
    k = v.kernel
    h = k.h
    R = v.radius
    if grid is None:
        grid = ball_grid(v.center, R + delta + k.radius, h, pad=2 * h)
    # both grids are h-lattices with box corners on multiples of h; the
    # integer cell offset lets ball values be copied over exactly
    off = [(grid.lo[a] - v.field.grid.lo[a]) / h for a in range(grid.dim)]
    ioff = [int(round(o)) for o in off]
    if any(abs(o - i) > 1e-9 for o, i in zip(off, ioff)):
        raise PreconditionError("target grid is not lattice-aligned with the ball grid")

    vb = np.zeros(grid.shape)
    src_grid = v.field.grid
    # copy v on the overlap of the two index boxes
    src_slices, dst_slices = [], []
    for a in range(grid.dim):
        s0 = max(0, ioff[a])
        d0 = max(0, -ioff[a])
        span = min(src_grid.counts[a] - s0, grid.counts[a] - d0)
        src_slices.append(slice(s0, s0 + span))
        dst_slices.append(slice(d0, d0 + span))
    vb[tuple(dst_slices)] = v.values[tuple(src_slices)]
    inside = ball_mask(grid, v.center, R)
    vb[~inside] = 0.0

    cone = np.zeros(grid.shape)
    reach = int(delta / h)
    for s in np.ndindex(*(2 * reach + 1,) * grid.dim):
        s = [si - reach for si in s]
        drop = math.sqrt(sum(si * si for si in s)) * h
        if 0.0 < drop < delta:
            here, there = shift_windows(s, grid.shape)
            np.maximum(cone[there], vb[here] - drop / delta, out=cone[there])
    w = np.where(inside, vb, cone)

    big = ball_mask(grid, v.center, R + delta)
    Lw = convolve(w * big, k, path)
    certificate = Lw - w + v.f.f(w)
    return SubSolution(
        base=v,
        delta=float(delta),
        field=Field(grid, w, np.ones(grid.shape, dtype=bool)),
        verify_min=float(np.min(certificate)),
        shell_cells=int(np.count_nonzero(cone[~inside])),
    )
