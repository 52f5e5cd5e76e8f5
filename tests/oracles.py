"""Independent oracles used to freeze expected values in the tests.

Everything here is deliberately written against the mathematical
definitions (plain loops, elementary quadrature, dense linear algebra),
not against the package's own fast paths, so each check compares two
genuinely different routes to the same number.
"""

from __future__ import annotations

import math

import numpy as np


def simpson(fn, a: float, b: float, n: int = 4000) -> float:
    """Composite Simpson quadrature (n even)."""
    if n % 2:
        n += 1
    xs = np.linspace(a, b, n + 1)
    ys = np.asarray(fn(xs), dtype=np.float64)
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return float((b - a) / n / 3.0 * np.dot(w, ys))


def radial_integral_2d(fn, r_hi: float, n: int = 4000) -> float:
    """integral over R^2 of a radial function: int_0^R fn(r) 2 pi r dr."""
    return simpson(lambda r: fn(r) * 2.0 * math.pi * r, 0.0, r_hi, n)


def kernel_mass(kernel) -> float:
    """sum J h^N over the weight table, by ``math.fsum`` (correctly rounded)."""
    return math.fsum(kernel.weights.ravel()) * kernel.h**kernel.dim


def conv_at(arr: np.ndarray, kernel, idx) -> float:
    """(J * arr)(idx) by a plain Python accumulation over the offset table."""
    m = kernel.reach
    w = kernel.weights
    total = 0.0
    if arr.ndim == 1:
        (i0,) = idx
        for u in range(2 * m + 1):
            j = i0 + (u - m)
            if 0 <= j < arr.shape[0]:
                total += w[u] * arr[j]
        return total * kernel.h
    i0, j0 = idx
    for u in range(2 * m + 1):
        for v in range(2 * m + 1):
            ii, jj = i0 + (u - m), j0 + (v - m)
            if 0 <= ii < arr.shape[0] and 0 <= jj < arr.shape[1]:
                total += w[u, v] * arr[ii, jj]
    return total * kernel.h**2


def sup_envelope(vb: np.ndarray, inside: np.ndarray, h: float, delta: float) -> np.ndarray:
    """The cone envelope of a ball field by brute force: ``vb`` on the ball
    cells ``inside`` and, at every other cell x, the maximum over every ball
    cell y of (v(y) - |x - y| / delta)^+, where |x - y| is h times the
    length of the index offset y - x."""
    ball = np.argwhere(inside)
    vals = vb[inside]
    out = np.array(vb, dtype=np.float64)
    for x in np.argwhere(~inside):
        n = np.sum((ball - x) ** 2, axis=1).astype(np.float64)
        out[tuple(x)] = max(0.0, float(np.max(vals - np.sqrt(n) * h / delta)))
    return out


def parabolic_front(j1, f, line_length: float, tol: float = 1e-11, dt=None,
                    max_steps: int = 400_000):
    """Independent explicit-Euler march of the clamped 1-D problem.

    Returns (coords, values). Written with a hand-rolled convolution loop
    so it shares nothing with the package solver except numpy."""
    h = j1.h
    n = int(round(line_length / h))
    m = j1.reach
    w = np.asarray(j1.weights)
    band = max(int(round(j1.radius / h)), 1)
    xs = (np.arange(n) + 0.5) * h - 0.5 * n * h
    u = np.where(xs < 0.0, 0.0, 1.0)
    u[:band] = 0.0
    u[-band:] = 1.0
    if dt is None:
        fp = np.abs(f.fprime(np.linspace(0, 1, 2001)))
        dt = 0.45 / (1.0 + float(np.max(fp)))
    inter = np.zeros(n, dtype=bool)
    inter[band:-band] = True
    for _ in range(max_steps):
        conv = np.zeros(n)
        for uoff in range(2 * m + 1):
            d = uoff - m
            c = w[uoff]
            if c == 0.0:
                continue
            lo_s, hi_s = max(0, d), n + min(0, d)
            conv[max(0, -d): n + min(0, -d)] += c * u[lo_s:hi_s]
        conv *= h
        r = conv - u + f.f(u)
        if float(np.max(np.abs(r[inter]))) <= tol:
            return xs, u
        u = np.where(inter, u + dt * r, u)
    raise RuntimeError("front oracle did not converge")


def front_from_centred_step(j1, f, tol: float = 1e-12, max_sweeps: int = 400_000) -> tuple:
    """The damped front sweep phi <- phi + tau (J_1 * phi - phi + f(phi))
    on the 200 R_J line, started from the centred step (0 on the left
    half, 1 on the right), with ``np.convolve`` for J_1 * phi. Returns
    (values, sweeps) once the interior increment is at most ``tol``."""
    h = j1.h
    n = int(round(200.0 * j1.radius / h))
    band = max(int(round(j1.radius / h)), 1)
    w = np.asarray(j1.weights) * h
    tau = 0.99 / (1.0 - w[j1.reach] + max_abs_fprime_scan(f))
    u = np.zeros(n)
    u[n // 2:] = 1.0
    for sweep in range(max_sweeps):
        r = np.convolve(u, w, mode="same") - u + f.f(u)
        step = tau * r[band:-band]
        if float(np.max(np.abs(step))) <= tol:
            return u, sweep
        u[band:-band] += step
    raise RuntimeError("centred-step front did not converge")


def d0_threshold(radius: float, dim: int, int_f: float) -> float:
    """Independent bisection for the energy-sign threshold radius."""

    def lhs(R):
        return 0.5 * (1.0 - (1.0 - radius / R) ** dim)

    lo, hi = radius * (1 + 1e-12), radius * 1e9
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if lhs(mid) >= int_f:
            lo = mid
        else:
            hi = mid
    return hi


def shifted_l1_tophat_axis(kernel, cells: int) -> float:
    """||J(. + s) - J||_1 for an axis shift of `cells` cells, plain loops."""
    w = kernel.weights
    pad = cells
    big = np.zeros((w.shape[0] + 2 * pad, w.shape[1] + 2 * pad))
    big[pad:-pad, pad:-pad] = w
    moved = np.zeros_like(big)
    moved[cells:, :] = big[:-cells, :]
    return float(np.sum(np.abs(moved - big))) * kernel.h**2


def central_diff_grad_l1(kernel) -> float:
    """sum |grad J| h^dim with central differences on the zero-padded table."""
    big = np.pad(kernel.weights, 1)
    inner = (slice(1, -1),) * kernel.dim
    grads = [(np.roll(big, -1, axis=a) - np.roll(big, 1, axis=a))[inner] / (2.0 * kernel.h)
             for a in range(kernel.dim)]
    return float(np.sum(np.sqrt(sum(g * g for g in grads)))) * kernel.h**kernel.dim


def dilate_box(mask: np.ndarray, deltas: np.ndarray, domain: np.ndarray) -> np.ndarray:
    """Cells of ``domain`` one offset away from a cell of ``mask``, each
    offset applied to the whole box."""
    out = np.zeros_like(mask)
    for d in deltas:
        src = tuple(slice(max(-int(di), 0), n - max(int(di), 0)) for di, n in zip(d, mask.shape))
        dst = tuple(slice(max(int(di), 0), n - max(-int(di), 0)) for di, n in zip(d, mask.shape))
        out[dst] |= mask[src]
    return out & domain


def holder_quotient_pairs(u, alpha: float) -> float:
    """max |u(x)-u(y)| / |x-y|^alpha over all masked-in pairs, one source
    cell at a time, with the distance sqrt((di h)^2 + (dj h)^2)."""
    idx = np.argwhere(u.mask).T.copy()
    vals = u.values[u.mask]
    h = u.grid.h
    best = 0.0
    for p in range(vals.size - 1):
        d2 = sum(((ax[p + 1:] - ax[p]) * h) ** 2 for ax in idx)
        q = np.abs(vals[p + 1:] - vals[p]) / np.sqrt(d2) ** alpha
        best = max(best, float(np.max(q)))
    return best


def holder_quotient_offsets(u, alpha: float) -> float:
    """max |u(x)-u(y)| / |x-y|^alpha over all masked-in pairs, one lattice
    offset at a time: for every offset d of the half-space (first nonzero
    component positive), the max of |u(x + d) - u(x)| over the window where
    both cells are masked in, by plain slicing, divided by that offset's own
    sqrt((d0 h)^2 + (d1 h)^2) ** alpha. No offset is cut or pruned."""
    shape = u.values.shape
    grids = np.meshgrid(*[np.arange(-(n - 1), n) for n in shape], indexing="ij")
    offs = np.stack([g.ravel() for g in grids], axis=1)
    first = offs[np.arange(len(offs)), np.argmax(offs != 0, axis=1)]  # 0 for d = 0
    offs = offs[first > 0]
    h = u.grid.h
    den = np.sqrt(sum((offs[:, a] * h) ** 2 for a in range(offs.shape[1]))) ** alpha
    best = 0.0
    for d, c in zip(offs, den):
        src = tuple(slice(max(-int(di), 0), n - max(int(di), 0)) for di, n in zip(d, shape))
        dst = tuple(slice(max(int(di), 0), n - max(-int(di), 0)) for di, n in zip(d, shape))
        both = u.mask[src] & u.mask[dst]
        if np.any(both):
            best = max(best, float(np.max(np.abs(u.values[dst] - u.values[src])[both])) / c)
    return best


def row_verdict(row) -> str:
    """The verdict of a check row, recomputed from the row's own cells.

    ``row`` lists the cells of a ``checks.csv`` row as ``csv.reader``
    parses them (name, measured, relation, bound, tolerance, verdict,
    note). "info" when the row has no relation; else "pass" or "fail" by
    the relation: ``<=`` on measured <= bound + tolerance, ``>=`` on
    measured >= bound - tolerance, ``|-|<=`` on |measured - bound| <=
    tolerance, and ``==``, ``<``, ``>`` on measured against bound alone. An
    empty tolerance is 0, and a measured cell that is no number fails."""
    _, measured, relation, bound, tol, _, _ = row
    if not relation:
        return "info"
    try:
        m = float(measured)
    except ValueError:
        return "fail"
    b, t = float(bound), float(tol) if tol else 0.0
    holds = {"<=": m <= b + t, ">=": m >= b - t, "|-|<=": abs(m - b) <= t,
             "==": m == b, "<": m < b, ">": m > b}[relation]
    return "pass" if holds else "fail"


def energy_pairs_1d(kernel, F, bmask: np.ndarray, vals: np.ndarray) -> tuple:
    """The three terms of the 1-D ball energy by plain loops over cell
    pairs: 1/4 sum J(x-y)(u(y)-u(x))^2 h^2, 1/2 sum c(x) u(x)^2 h with
    c(x) = 1 - sum_{y in B} J(x-y) h, and sum F(u(x)) h, over x, y in B,
    for the potential ``F``."""
    m = kernel.reach
    w = kernel.weights
    h = kernel.h
    cells = [int(i) for i in np.flatnonzero(bmask)]
    pair = mass = potential = 0.0
    for x in cells:
        seen = 0.0
        for y in cells:
            if abs(y - x) <= m:
                jw = float(w[y - x + m])
                pair += jw * (float(vals[y]) - float(vals[x])) ** 2
                seen += jw * h
        mass += (1.0 - seen) * float(vals[x]) ** 2
        potential += float(F(vals[x]))
    return 0.25 * h * h * pair, 0.5 * h * mass, h * potential


def conv_box(arr: np.ndarray, kernel) -> np.ndarray:
    """J * arr on the array's box (zero outside), one shifted slice per
    kernel offset; the vectorised sibling of :func:`conv_at`."""
    m = kernel.reach
    out = np.zeros(arr.shape)
    for u in np.ndindex(kernel.weights.shape):
        c = kernel.weights[u]
        if c == 0.0:
            continue
        d = [ui - m for ui in u]
        # stops clamped at 0: an offset longer than the axis reaches no cell
        dst = tuple(slice(max(0, -di), max(0, n - max(0, di)))
                    for di, n in zip(d, arr.shape))
        src = tuple(slice(max(0, di), max(0, n - max(0, -di)))
                    for di, n in zip(d, arr.shape))
        out[dst] += c * arr[src]
    return out * kernel.h**arr.ndim


def conv_fold_at(arr: np.ndarray, kernel, idx) -> float:
    """(J * arr)(idx) in the reflection-folded order, by plain loops.

    Over the table offsets d with every component >= 0, in row-major
    order, add w(d) times the sum of arr (zero outside the box) at the
    mirror images idx + (+-d0, +-d1): the two row images of each column
    image are added first, then the column images, + before -. A zero
    component has one image."""
    m = kernel.reach
    w = kernel.weights

    def val(y):
        inside = all(0 <= yi < n for yi, n in zip(y, arr.shape))
        return float(arr[y]) if inside else 0.0

    def images(di):
        return (di, -di) if di else (0,)

    total = 0.0
    for u in np.ndindex(w.shape):
        d = [ui - m for ui in u]
        if min(d) < 0 or w[u] == 0.0:
            continue
        cols = []
        for sb in images(d[-1]):
            if arr.ndim == 1:
                cols.append(val((idx[0] + sb,)))
                continue
            rows = [val((idx[0] + sa, idx[1] + sb)) for sa in images(d[0])]
            cols.append(rows[0] + rows[1] if len(rows) == 2 else rows[0])
        s = cols[0] + cols[1] if len(cols) == 2 else cols[0]
        total += float(w[u]) * s
    return total * kernel.h**arr.ndim


def conv_fold_box(arr: np.ndarray, kernel) -> np.ndarray:
    """:func:`conv_fold_at` at every cell of the array's box."""
    out = np.zeros(arr.shape)
    for idx in np.ndindex(arr.shape):
        out[idx] = conv_fold_at(arr, kernel, idx)
    return out


def conv_fft_oneshot(arr: np.ndarray, kernel, s: tuple) -> np.ndarray:
    """J * arr by one ``rfftn``/``irfftn`` pair on the zero-padded box of
    shape ``s`` (at least the array's shape plus the reach)."""
    m = kernel.reach
    axes = tuple(range(arr.ndim))
    flipped = kernel.weights[(slice(None, None, -1),) * arr.ndim]
    spec = np.fft.rfftn(flipped, s=s, axes=axes)
    full = np.fft.irfftn(np.fft.rfftn(arr, s=s, axes=axes) * spec, s=s, axes=axes)
    return full[tuple(slice(m, m + n) for n in arr.shape)] * kernel.h**arr.ndim


def max_abs_fprime_scan(f) -> float:
    """max |f'| over [0, 1] by a 4001-point scan, endpoints included."""
    return float(np.max(np.abs(f.fprime(np.linspace(0.0, 1.0, 4001)))))


def maximal_solution_tight(kernel, f, bmask: np.ndarray, max_outer: int = 20_000):
    """The monotone resolvent scheme with every inner solve tight, run to
    its rounding floor.

    Each outer step sweeps w <- (L_B w - rhs)/(k+1) until the increment is
    <= 1e-13, then gates the linear residual of the result at 1e-11 with
    one more convolution; the outer loop stops at the first decrease of at
    most four ulps of 1, where the iterates only move by rounding, and a
    last convolution gates the ball residual at 1e-9. Returns (values,
    number of convolutions)."""
    kshift = math.ceil(4.0 * max_abs_fprime_scan(f)) / 4.0
    denom = kshift + 1.0
    floor = 4.0 * np.finfo(float).eps
    convs = 0

    def L(x):
        nonlocal convs
        convs += 1
        return conv_box(np.where(bmask, x, 0.0), kernel)

    v = np.where(bmask, 1.0, 0.0)
    for _ in range(max_outer):
        rhs = np.where(bmask, -kshift * v - f.f(v), 0.0)
        w = v.copy()
        while True:
            new = np.where(bmask, (L(w) - rhs) / denom, 0.0)
            inc = float(np.max(np.abs(new - w)))
            w = new
            if inc <= 1e-13:
                break
        lin = float(np.max(np.abs((L(w) - denom * w - rhs)[bmask])))
        if lin > 1e-11:
            raise RuntimeError(f"tight resolvent residual {lin:.3e} > 1e-11")
        w = np.minimum(w, 1.0)
        dec = float(np.max((v - w)[bmask]))
        v = w
        if dec <= floor:
            break
    else:
        raise RuntimeError("tight monotone scheme did not reach its rounding floor")
    res = float(np.max(np.abs((L(v) - v + f.f(v))[bmask])))
    if res > 1e-9:
        raise RuntimeError(f"tight ball residual {res:.3e} > 1e-9")
    return v, convs


def maximal_solution_fullbox(kernel, f, bmask: np.ndarray, path: str = "fast"):
    """The package's monotone scheme, unfolded: every step runs on the
    whole box of ``bmask``.

    The same operations in the same order as ``maximal_solution`` before it
    folded the box along the ball's mirror axes: each step is one sweep
    v <- (J * (v 1_B) + (k v + f(v)))/(k+1) on the ball, trimmed at 1, and
    the loop stops at the first decrease of at most four ulps of 1; a last
    convolution gates the ball residual at 1e-9. Returns (values, history)
    with the package's history rows (iteration, decrease, worst rise)."""
    from nlrd.convolve import convolve

    kshift = math.ceil(4.0 * max_abs_fprime_scan(f)) / 4.0
    denom = kshift + 1.0
    floor = 4.0 * np.finfo(float).eps
    v = np.where(bmask, 1.0, 0.0)
    history = []
    while len(history) < 20_000:
        new = np.where(bmask, (convolve(v * bmask, kernel, path) + (kshift * v + f.f(v))) / denom,
                       0.0)
        np.minimum(new, 1.0, out=new)
        rise = float(np.max((new - v)[bmask]))
        if rise > 1e-12:
            raise RuntimeError(f"full-box monotonicity violated by {rise:.3e}")
        dec = float(np.max((v - new)[bmask]))
        v = new
        history.append((len(history) + 1, dec, rise))
        if dec <= floor:
            break
    else:
        raise RuntimeError("full-box monotone scheme did not reach its rounding floor")
    res = convolve(v * bmask, kernel, path) - v + f.f(v)
    if float(np.max(np.abs(res[bmask]))) > 1e-9:
        raise RuntimeError("full-box ball residual above 1e-9")
    return np.where(bmask, v, 0.0), history


def field_csv_rows(f, path) -> None:
    """Reference field CSV writer: one formatted row per cell, C-order."""
    meshes = [m.ravel() for m in f.grid.meshes()]
    heads = [f"x{a}" for a in range(f.grid.dim)]
    vals = f.values.ravel()
    mask = f.mask.ravel().astype(int)
    with open(path, "w") as fh:
        fh.write(",".join(heads + ["value", "mask"]) + "\n")
        for r in range(vals.size):
            cols = [f"{m[r]:.17g}" for m in meshes]
            fh.write(",".join(cols + [f"{vals[r]:.17g}", str(mask[r])]) + "\n")


def evolve_fullbox(p, u0, dt=None, max_steps: int = 200_000, residual_tol: float = 1e-8,
                   log_every: int = 0):
    """The package's ``evolve`` before it folded the box: every explicit
    step is ``Problem.step`` on the whole box, and the stop test reads the
    full-box residual of the iterate it returns. Returns (values, steps,
    converged, residual_sup, log_rows) with the package's log rows
    (step, residual sup, min u, max u)."""
    from nlrd.convolve import fft_buffers
    from nlrd.solver import max_step

    dt = max_step(p) if dt is None else dt
    u = u0.values.copy()
    dom, inter = p.domain_mask, p.interior_mask
    log_rows = []
    steps = 0
    with fft_buffers(p.kernel):
        while True:
            nxt, r = p.step(u, dt)
            sup = float(np.max(np.abs(r[inter])))
            row = (steps, sup, float(np.min(u[dom])), float(np.max(u[dom])))
            if log_every and steps % log_every == 0:
                log_rows.append(row)
            if sup <= residual_tol or steps >= max_steps:
                if not log_rows or log_rows[-1][0] != steps:
                    log_rows.append(row)
                return u, steps, sup <= residual_tol, sup, log_rows
            u = nxt
            steps += 1


def annulus_counterexample(p) -> np.ndarray:
    """The 0/1 state around the annulus obstacle of ``p`` by its outer
    radius: 1 at cell centres past ``r2``, 0 on the rest (the hole and K)."""
    rr = np.hypot(*p.grid.meshes())
    return np.where(rr > float(p.obstacle.params["r2"]), 1.0, 0.0)


def make_field(grid, fn, mask=None):
    """Sample ``fn`` at cell centers under an optional domain mask.

    ``fn`` and ``mask`` receive the broadcast coordinate arrays (one per
    axis); ``mask`` may also be a boolean array. A non-finite sample at a
    masked-in cell is rejected with the offending coordinate."""
    from nlrd import Field, PreconditionError

    meshes = grid.meshes()
    vals = np.broadcast_to(np.asarray(fn(*meshes), dtype=np.float64), grid.shape).copy()
    if mask is None:
        m = np.ones(grid.shape, dtype=bool)
    elif callable(mask):
        m = np.broadcast_to(np.asarray(mask(*meshes), dtype=bool), grid.shape).copy()
    else:
        m = np.asarray(mask, dtype=bool).copy()
    bad = m & ~np.isfinite(vals)
    if np.any(bad):
        idx = tuple(np.argwhere(bad)[0])
        center = tuple(float(mesh[idx]) for mesh in meshes)
        raise PreconditionError(f"non-finite sample at cell center {center}")
    return Field(grid, vals, m)


def evolve_ball(k, f, center, radius: float, grid=None, residual_tol: float = 1e-9):
    """Parabolic route to the ball equation: u' = L_B u - u + f(u) from 1.

    From the constant super-solution 1 the iterates decrease monotonically
    to the maximal solution; this is the independent oracle for
    ``maximal_solution``. Explicit steps of dt = 0.9/(1 + max |f'|) on the
    FFT path, on the full box, run until the residual sup is <=
    ``residual_tol``, or for at most 500 000 steps, the last iterate then
    flagged unconverged. The iterates overshoot 1 by roundoff, where ``f``
    takes its linear right tail (the zero-left extension). Returns (field,
    steps, converged, residual sup)."""
    from nlrd import ExtendedNonlinearity, Field, NumericalFailure
    from nlrd.convolve import convolve, fft_buffers
    from nlrd.operators import ball_mask
    from nlrd.solver import ball_grid

    grid = grid or ball_grid(center, radius, k.h)
    bmask = ball_mask(grid, center, radius)
    dt = 0.9 / (1.0 + f.max_abs_fprime)
    fz = ExtendedNonlinearity(f)
    u = np.where(bmask, 1.0, 0.0)
    steps = 0
    with fft_buffers(k):
        while True:
            conv = convolve(u * bmask, k, "fast")
            r = np.where(bmask, conv - u + fz.f(u), 0.0)
            sup = float(np.max(np.abs(r[bmask])))
            if not math.isfinite(sup):
                raise NumericalFailure(f"non-finite ball residual at step {steps}")
            if sup <= residual_tol or steps >= 500_000:
                field = Field(grid, np.where(bmask, u, 0.0), bmask)
                return field, steps, sup <= residual_tol, sup
            u = u + dt * r
            steps += 1
