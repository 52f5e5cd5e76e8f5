"""Experiments that turn the qualitative statements into assertable checks.

Each experiment returns a :class:`Report`: a list of named checks, one row
each: ``name, measured, relation, bound, tol, passed, note``.
:meth:`Report.add` decides ``passed`` from the row alone. ``<=`` passes on
``measured <= bound + tol``, ``>=`` on ``measured >= bound - tol``,
``|-|<=`` on ``|measured - bound| <= tol``; ``==``, ``<`` and ``>`` compare
with ``bound`` alone. ``bound`` is the ideal value, ``tol`` the allowance
(missing: 0). A string ``measured`` is read with ``float()``, so ``"-inf"``
compares and a word such as ``"unreached"`` fails; a non-finite float is
stored as that string. ``passed = None`` marks a row recorded but not
asserted (it keeps its relation), an informational measurement, or a check
whose hypotheses cannot be met, skipped (never passed) with the reason in
its note.

Reports serialize to JSON (stable key order) and a CSV of checks with the
columns ``name,measured,relation,bound,tolerance,verdict,note``, written by
the stdlib ``csv`` writer. Wall time is kept on the object but excluded
from the canonical artifact so that re-runs are byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, field as dc_field

import numpy as np

from .convolve import _conv_inner
from .errors import NumericalFailure, PreconditionError
from .grid import Field, Grid, HolderTable, holder_quotient, shift_windows
from .kernels import Kernel, KernelConstants, marginal_j1
from .nonlinearity import Bistable
from .obstacles import build_obstacle, jmass
from .operators import Problem, ball_mask, residual
from .reduction import _bisect
from .solver import (
    FrontProfile,
    build_subsolution,
    cone_slope,
    evolve,
    maximal_solution,
    max_step,
)

__all__ = [
    "Check",
    "Report",
    "sliding_radius",
    "counterexample_field",
    "counterexample_check",
    "bounds_suite",
    "liouville_experiment",
    "comparison_suite",
    "robustness_experiment",
    "holder_slack",
    "PASS_LEVEL",
    "PROGRESS_HEADER",
]

# certification level for "u = 1": the Liouville pass criterion
PASS_LEVEL = 1e-6
# plane-wave profiles are capped strictly below the pass level so the
# finite-precision plateau of phi near 1 cannot block sliding
CAP_LEVEL = 1.0 - 2e-6
# columns of an evolution's progress rows (``EvolveResult.log_rows``)
PROGRESS_HEADER = ("step", "residual_sup", "min_u", "max_u")

# each relation of a check row, as a test of (measured, bound, tol)
RELATIONS = {
    "<=": lambda m, b, t: m <= b + t,
    ">=": lambda m, b, t: m >= b - t,
    "|-|<=": lambda m, b, t: abs(m - b) <= t,
    "==": lambda m, b, t: m == b,
    "<": lambda m, b, t: m < b,
    ">": lambda m, b, t: m > b,
}


def _stored(x):
    """``x``, or its string ("-inf", "inf", "nan") if it is a non-finite float."""
    return str(x) if isinstance(x, float) and not math.isfinite(x) else x


@dataclass
class Check:
    name: str
    passed: bool | None  # None: not asserted, informational or skipped (see note)
    measured: float | str | None = None
    relation: str | None = None
    bound: float | str | None = None
    tol: float | None = None
    note: str = ""

    def holds(self) -> bool:
        """Whether ``measured relation bound`` holds within ``tol``; a
        ``measured`` that ``float()`` does not parse fails."""
        try:
            m = float(self.measured)
        except (TypeError, ValueError):
            return False
        return RELATIONS[self.relation](m, float(self.bound), self.tol or 0.0)

    def row(self):
        def fmt(x):
            if x is None:
                return ""
            if isinstance(x, str):
                return x
            return f"{x:.17g}"

        verdict = {True: "pass", False: "fail", None: "info"}[self.passed]
        return [self.name, fmt(self.measured), fmt(self.relation), fmt(self.bound),
                fmt(self.tol), verdict, self.note]


@dataclass
class Report:
    experiment: str
    config: dict = dc_field(default_factory=dict)  # the CLI stores the resolved config
    checks: list = dc_field(default_factory=list)
    meta: dict = dc_field(default_factory=dict)
    wall_time: float = 0.0
    # artifacts beside the report, kept out of its JSON, each by file stem:
    # fields (written by ``field_to_csv``) and tables ``(header, rows)``
    fields: dict = dc_field(default_factory=dict)
    tables: dict = dc_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(c.passed is not False for c in self.checks)

    def add(self, name: str, measured=None, relation: str | None = None, bound=None,
            tol: float | None = None, note: str = "", asserted: bool = True) -> Check:
        """Record a check. Its verdict is :meth:`Check.holds` when it has a
        ``relation`` and is ``asserted``, else ``None``."""
        c = Check(name, None, _stored(measured), relation, _stored(bound), tol, note)
        if relation is not None and asserted:
            c.passed = c.holds()
        self.checks.append(c)
        return c

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "experiment": self.experiment,
            "passed": self.passed,
            "config": self.config,
            "checks": [asdict(c) for c in self.checks],
            "meta": self.meta,
        }
        if include_timing:
            out["wall_time_s"] = self.wall_time
        return out

    def write_json(self, path, include_timing: bool = False) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(include_timing), fh, indent=1)
            fh.write("\n")

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh, lineterminator="\n")
            out.writerow(["name", "measured", "relation", "bound", "tolerance", "verdict",
                          "note"])
            out.writerows(c.row() for c in self.checks)


# ---------------------------------------------------------------------------
# sliding plane waves


def _fits_below(phi: FrontProfile, coord: np.ndarray, u: np.ndarray):
    """Predicate of a shift r: the capped profile phi(coord - r) lies below
    u + 1e-10 at every cell."""
    return lambda r: bool(np.all(np.minimum(phi(coord - r), CAP_LEVEL) <= u + 1e-10))


def sliding_radius(u: Field, e, phi: FrontProfile) -> float:
    """r* = inf { r : phi(x.e - r) <= u + 1e-10 on the masked domain }.

    Bisection to h/4. Returns ``-inf`` when even a profile pushed past the
    whole box still fits (the finite-box signature of r* = -infinity). The
    profile is capped at ``CAP_LEVEL``, just below the certification
    level, so its plateau at 1 compares against converged fields.
    """
    if float(np.min(np.diff(phi.values))) <= -1e-12:
        raise PreconditionError("sliding requires a monotone profile")
    e = np.asarray(e, dtype=np.float64)
    if abs(np.linalg.norm(e) - 1.0) > 1e-12:
        raise PreconditionError("sliding direction must be a unit vector")
    meshes = u.grid.meshes()
    dot = sum(e[a] * meshes[a] for a in range(u.grid.dim))[u.mask]
    fits = _fits_below(phi, dot, u.values[u.mask])
    L_box = float(np.max(np.abs(dot))) + u.grid.h
    if fits(-L_box):
        return -math.inf
    hi = float(np.max(dot)) + u.grid.h
    while not fits(hi):
        hi = 2.0 * hi + 1.0
        if hi > 1e9:
            raise NumericalFailure("no translate of the profile fits below u")
    return _bisect(fits, -L_box, hi, u.grid.h / 4.0)


# ---------------------------------------------------------------------------
# counterexample on the annulus


def counterexample_field(p: Problem) -> Field:
    """The 0/1 stationary state: 1 on the domain cells that a chain of
    kernel taps (offsets with J > 0) reaches from the clamp band through
    the domain, 0 on the rest. No tap links a reached cell to an unreached
    one, and f(0) = f(1) = 0, so the field is stationary to the bit on
    ``direct``. Raises :class:`PreconditionError` when every domain cell
    is reached: then no such state exists."""
    reached, _ = _bfs(p.domain_mask, p.clamp_mask, _support_offsets(p.kernel))
    if np.array_equal(reached, p.domain_mask):
        raise PreconditionError(
            "the kernel's taps reach every domain cell from the clamp band: "
            "no 0/1 stationary state")
    return Field(p.grid, reached.astype(np.float64), p.domain_mask)


def counterexample_check(p: Problem) -> Report:
    """Exactness of the non-simply-connected counterexample.

    The hypothesis is computed, not assumed of a family: some domain cell
    is out of the kernel's reach from the clamp band (see
    :func:`counterexample_field`, which raises otherwise), so the cells
    it cuts off and the exterior never exchange mass. The count of those
    cells is ``meta["unreached_cells"]``.
    """
    u = counterexample_field(p)
    rep = Report("counterexample")
    _, sup = residual(p, u)
    rep.add("residual_sup", sup, "<=", 0.0, 1e-12)
    spread = float(np.max(u.values[p.domain_mask]) - np.min(u.values[p.domain_mask]))
    rep.add("nonconstant_range", spread, "==", 1.0, 0.0, note="max u - min u over the domain")
    step = evolve(p, u, max_steps=1, residual_tol=-1.0, log_every=0)
    drift = float(np.max(np.abs(step.u.values - u.values)))
    rep.add("evolve_fixed_point_drift", drift, "<=", 0.0, 1e-12)
    rep.meta["kernel_radius"] = p.kernel.radius
    rep.meta["unreached_cells"] = int(np.count_nonzero(p.domain_mask & (u.values == 0.0)))
    return rep


# ---------------------------------------------------------------------------
# regularity / lower-bound checks on a computed field


def holder_slack(h: float, alpha: float, nik: float) -> float:
    """Discretization allowance for the Hoelder transfer bound, O(h^{1-a})
    in style; reported explicitly in every check that uses it."""
    return 2.0 * nik * h ** (1.0 - alpha)


def bounds_suite(
    u: Field,
    p: Problem,
    phi: FrontProfile,
    kc: KernelConstants,
    alphas=(0.5, 1.0),
    probe_deltas=(0.1, 0.01),
) -> Report:
    """Post-hoc checks on a stationary field: the Hoelder transfer bound,
    the radial plane-wave minorant, the convex mass-map bound, and the
    derived uniform lower bounds at probe radii."""
    rep = Report("bounds")
    jm = jmass(p.kernel, p.obstacle)
    min_j = float(np.min(jm.values[jm.mask]))
    maxfp = p.f.max_fprime
    h = p.grid.h

    # the transfer bound's hypotheses, each named in the note when it fails
    failed = [why for why, bad in (
        ("K is not convex", np.any(p.obstacle.mask_K) and not p.obstacle.convex),
        (f"inf J - max f' = {min_j - maxfp:.4g} is not positive", not min_j - maxfp > 0.0),
    ) if bad]
    assertable = not failed
    table = None  # one Hoelder offset sweep for every alpha
    for alpha in alphas:
        nik = kc.nikolskii.get(float(alpha))
        if nik is None or not math.isfinite(nik):
            rep.add(f"holder_alpha_{alpha}", note="skipped: no Nikolskii constant")
            continue
        if table is None:
            table = HolderTable(u)
        est = holder_quotient(u, alpha, table)
        note = (f"quotient {est.value:.6g} (exact)" if assertable else
                "informational: " + " and ".join(failed))
        if alpha == 1.0:
            note += "; the slack 2 nik h^(1 - alpha) = 2 nik does not shrink with h"
        rep.add(f"holder_alpha_{alpha}", (min_j - maxfp) * est.value, "<=", 2.0 * nik,
                holder_slack(h, alpha, nik), note=note, asserted=assertable)
    del table  # as large as the field's offsets: gone before the radial checks

    # smallest r0 with phi(|x| - r0) <= u everywhere (bisection over the grid)
    meshes = u.grid.meshes()
    rr = np.sqrt(sum(m * m for m in meshes))[u.mask]
    uvals = u.values[u.mask]
    fits = _fits_below(phi, rr, uvals)

    box_radius = max(max(abs(v) for v in u.grid.lo), max(abs(v) for v in u.grid.hi))
    r0 = None
    if not fits(box_radius):
        note = "no radial translate fits below u"
    else:
        lo = -box_radius - 1.0
        r0 = lo if fits(lo) else _bisect(fits, lo, box_radius, h)
        note = f"bisection resolution h = {h:.6g}" + (
            "; fits at the bisection's lower end -box_radius - 1: no bisection ran"
            if r0 == lo else "")
    rep.add("radial_lower_bound_r0", "unbounded" if r0 is None else r0, "<=", box_radius,
            note=note)

    if p.obstacle.convex and np.any(p.obstacle.mask_K):
        rep.add("convex_mass_bound", min_j, ">=", 0.5, 0.8 * h)
    else:
        rep.add("convex_mass_bound", min_j, note="skipped: obstacle not convex or empty")

    # uniform lower bound at probe radii implied by the radial minorant
    if r0 is not None:
        coords = phi.grid.axis_centers(0)
        for delta in probe_deltas:
            lvl = 1.0 - delta
            idx = np.searchsorted(phi.values, lvl)
            if idx >= coords.size:
                rep.add(f"uniform_bound_delta_{delta}",
                        note="skipped: profile never reaches the level")
                continue
            r_delta = r0 + float(coords[idx])
            far = rr >= r_delta
            if r_delta > box_radius - h or not np.any(far):
                rep.add(f"uniform_bound_delta_{delta}", r_delta,
                        note="skipped: probe radius outside the box")
                continue
            m = float(np.min(uvals[far]))
            everywhere = "; R_delta < 0 makes this the global min u" if r_delta < 0.0 else ""
            rep.add(f"uniform_bound_delta_{delta}", m, ">=", 1.0, delta,
                    note=f"R_delta = {r_delta:.4f}{everywhere}")
    return rep


# ---------------------------------------------------------------------------
# the Liouville experiment


def liouville_experiment(
    p: Problem,
    phi: FrontProfile,
    kc: KernelConstants,
    mode: str = "standard",
    residual_tol: float = 1e-8,
    max_steps: int = 200_000,
    alphas=(0.5, 1.0),
    sweep_opts: dict | None = None,
    log_every: int = 1000,
    dt: float | None = None,
    probe_deltas=(0.1, 0.01),
) -> Report:
    """Evolve from the hostile datum and certify min u >= 1 - 1e-6, then
    run :func:`bounds_suite` at ``alphas`` and ``probe_deltas``.

    Every obstacle runs this one path from the least admissible datum.
    Convex obstacles are expected to pass; around the annulus the orbit
    comes to rest at the 0/1 state of :func:`counterexample_field`, so the
    criterion fails by design on the non-simply-connected obstacle. Mode
    ``sweep`` needs a 2-D grid, a kernel with a cone slope ``kc.delta0`` (a
    W^{1,1} profile) and ``sweep_opts`` with ``epsilon`` and ``angles``,
    and takes an optional ``ball_radius``; both needs are checked before
    the evolution runs.
    """
    if mode == "sweep" and p.grid.dim != 2:
        raise PreconditionError(f"sweep mode needs a 2-D grid, got {p.grid.dim}-D")
    if mode == "sweep":
        cone_slope(None, kc)
    rep = Report("liouville")
    res = evolve(p, p.hostile_datum(), dt=dt, residual_tol=residual_tol,
                 max_steps=max_steps, log_every=log_every)
    rep.meta["steps"] = res.steps
    rep.meta["dt"] = res.dt
    rep.tables["progress"] = (PROGRESS_HEADER, res.log_rows)
    rep.add("converged", res.residual_sup, "<=", residual_tol,
            note="" if res.converged else "inconclusive: evolution budget exhausted")
    if not res.converged:
        return rep
    u = res.u
    rep.add("liouville_min_u", float(np.min(u.values[p.domain_mask])), ">=", 1.0, PASS_LEVEL)

    for c in bounds_suite(u, p, phi, kc, alphas=alphas, probe_deltas=probe_deltas).checks:
        rep.checks.append(c)

    for a, e in enumerate(np.eye(p.grid.dim)):
        rep.add(f"sliding_radius_e{a}", sliding_radius(u, e, phi), "==", -math.inf,
                note="plane wave slides past the whole box" if p.obstacle.convex
                else "informational: finite blocking expected off convexity",
                asserted=p.obstacle.convex)

    if mode == "sweep":
        _sweep_replay(rep, p, u, kc, sweep_opts)
    rep.fields["field"] = u
    return rep


def _sweep_replay(rep: Report, p: Problem, u: Field, kc: KernelConstants, opts: dict) -> None:
    """Replay the four-step covering argument with exact sub-solution fields.

    Step 1 finds a ball where u is close to 1; Step 2 plants the compactly
    supported sub-solution there and checks w <= u; Step 3 sweeps it around
    the annulus through exact lattice rotations plus sampled intermediate
    angles (radial interpolant); Step 4 translates it outward along the ray.
    """
    eps = opts["epsilon"]
    R = float(opts.get("ball_radius", max(kc.d0, p.kernel.radius) + 0.25))
    if R < kc.d0:
        raise PreconditionError(f"sweep ball radius {R} below d0 = {kc.d0:.4g}")
    h = p.grid.h
    box = min(min(abs(v) for v in p.grid.lo), min(abs(v) for v in p.grid.hi))
    # center on the positive x0 axis, snapped to the lattice
    cx = math.floor((box - p.clamp_width - R - 1.0 - 2 * h) / h) * h
    if cx <= 0:
        raise PreconditionError("box too small to host the sweep ball")
    center = np.zeros(p.grid.dim)
    center[0] = cx
    big = ball_mask(p.grid, center, R + 1.0)
    if not np.all(p.domain_mask[big]):
        raise PreconditionError("sweep ball intersects the obstacle")
    min_big = float(np.min(u.values[big]))
    rep.add("sweep_step1_ball_level", min_big, ">=", 1.0, eps,
            note=f"ball B_{R + 1:.3g} at |x*| = {cx:.3g}")

    v = maximal_solution(p.kernel, p.f, center, R, kc.d0, path=p.conv_path)
    w = build_subsolution(v, None, kc, grid=p.grid, path=p.conv_path)
    rep.add("sweep_step2_certificate", w.verify_min, ">=", 0.0, 1e-12,
            note=f"sub-solution inequality margin, {w.shell_cells} positive shell cells")
    gap = float(np.max(w.field.values - u.values))
    rep.add("sweep_step2_below_u", gap, "<=", 0.0, 1e-12)

    # Step 3: exact hyperoctahedral rotations about the origin
    wv = w.field.values
    sym = p.grid.counts[0] == p.grid.counts[1] and all(
        abs(p.grid.lo[a] + p.grid.hi[a]) < 1e-12 for a in range(2)
    )
    worst_rot = 0.0
    if sym:
        mats = [np.rot90(wv, kk) for kk in range(4)]
        mats += [m.T for m in mats]
        for mm in mats:
            worst_rot = max(
                worst_rot, float(np.max(np.where(p.domain_mask, mm - u.values, -1.0)))
            )
        rep.add("sweep_step3_exact_rotations", worst_rot, "<=", 0.0, 1e-12,
                note="8 lattice rotations/reflections")
    else:
        rep.add("sweep_step3_exact_rotations", note="skipped: box not origin-symmetric")

    # Step 3 continued: sampled intermediate angles via the radial profile
    n_angles = opts["angles"]
    worst = _rotation_sweep(p, w.field, center, u.values, n_angles)
    rep.add("sweep_step3_sampled_angles", worst, "<=", 0.0, 1e-12,
            note=f"{n_angles} sampled rotations (radial interpolant), not certified")

    # Step 4: outward lattice translations along +e0
    worst_tr = 0.0
    sigma_max = 0
    sig = 1
    while True:
        shift = sig
        reach = cx + R + w.delta + shift * h
        if reach > box - p.clamp_width - h:
            break
        moved = np.zeros_like(wv)
        here, there = shift_windows((shift, 0), wv.shape)
        moved[there] = wv[here]
        worst_tr = max(worst_tr, float(np.max(moved - u.values)))
        sigma_max = sig
        sig += max(1, int(round(0.25 / h)))
    rep.add("sweep_step4_translations", worst_tr, "<=", 0.0, 1e-12,
            note=f"lattice shifts up to sigma = {sigma_max} cells")
    covered = cx + sigma_max * h + 1.0
    rep.add("sweep_covered_radius", covered,
            note=f"u >= 1 - {eps} certified on the swept annuli out to this radius")


def _rotation_sweep(p: Problem, w: Field, center, u: np.ndarray, n: int) -> float:
    """max over the domain of w_tau - u, and over ``n`` equally spaced
    angles tau, where w_tau is the radial interpolant of ``w`` about
    ``center`` with that center rotated by tau about the origin; negative
    when every w_tau lies strictly below u."""
    radius = float(np.hypot(*center))
    prof_r, prof_v = _radial_profile(w, center)
    meshes = p.grid.meshes()
    worst = -math.inf
    for t in range(n):
        tau = 2.0 * math.pi * t / n
        ct = (radius * math.cos(tau), radius * math.sin(tau))
        dist = np.hypot(meshes[0] - ct[0], meshes[1] - ct[1])
        wt = np.interp(dist, prof_r, prof_v, right=0.0)
        worst = max(worst, float(np.max(np.where(p.domain_mask, wt - u, -1.0))))
    return worst


def _radial_profile(f: Field, center) -> tuple:
    """Monotone-binned radial table of a field about a center (h/2 bins)."""
    grid = f.grid
    meshes = grid.meshes()
    c = np.atleast_1d(center)
    dist = np.sqrt(sum((m - c[a]) ** 2 for a, m in enumerate(meshes))).ravel()
    vals = f.values.ravel()
    nbins = int(np.ceil(dist.max() / (grid.h / 2))) + 1
    idx = np.minimum((dist / (grid.h / 2)).astype(int), nbins - 1)
    sums = np.bincount(idx, weights=vals, minlength=nbins)
    cnts = np.bincount(idx, minlength=nbins)
    have = cnts > 0
    rs = (np.arange(nbins) + 0.5) * (grid.h / 2)
    return rs[have], sums[have] / cnts[have]


# ---------------------------------------------------------------------------
# comparison / strong suites


def _smooth_random(p: Problem, rng) -> np.ndarray:
    """Uniform noise averaged by J on the inner window, 1 outside it: those
    cells are in the clamp band, which the clamp overwrites."""
    raw = rng.uniform(0.0, 1.0, p.grid.shape)
    win = p.frame.window
    smooth = p.frame.convolve(raw * p.domain_mask, "direct")
    jj = p.jself[win]
    out = np.ones(p.grid.shape)
    out[win] = np.clip(smooth / np.where(jj > 0, jj, 1.0), 0.0, 1.0)
    return out


def plane_wave(p: Problem, phi: FrontProfile, axis: int, r_cells: int) -> Field:
    """phi(x.e_axis - r) with r = (r_cells + 1/2) h: the argument then lands
    exactly on the profile lattice, so the field is an exact table lookup
    (and an exact discrete sub-solution off the obstacle, by the marginal
    identity)."""
    src = phi.source_kernel
    own = marginal_j1(p.kernel)
    if own.reach != src.reach or not np.allclose(
        own.weights, src.weights, rtol=0.0, atol=1e-15
    ):
        raise PreconditionError(
            "profile was solved against a different kernel's marginal"
        )
    grid = p.grid
    h = grid.h
    meshes = grid.meshes()
    r = (r_cells + 0.5) * h
    t = meshes[axis] - r
    coords = phi.grid.axis_centers(0)
    fi = (t - coords[0]) / h
    idx = np.rint(fi).astype(np.int64)
    if float(np.max(np.abs(fi - idx))) > 1e-9:
        raise PreconditionError("plane-wave shift is not lattice-aligned")
    vals = np.empty(grid.shape)
    inside = (idx >= 0) & (idx < coords.size)
    vals[inside] = phi.values[np.clip(idx, 0, coords.size - 1)][inside]
    vals[~inside] = np.where(idx[~inside] < 0, 0.0, 1.0)
    return Field(grid, vals, p.domain_mask)


def comparison_suite(
    p: Problem,
    trials: int,
    seed: int,
    phi: FrontProfile | None = None,
) -> Report:
    """Weak and strong principles as exact discrete assertions.

    (a) weak: ordered random pairs stay ordered under evolution (the
        engine of every comparison argument), plus exact plane-wave
        sub-solutions rising under one explicit step;
    (b) strong: at a planted contact cell the operator detects any strict
        annulus perturbation exactly, and equality propagates through the
        annulus chain that covers the domain.

    The sweeping principle is replayed by ``liouville_experiment`` in mode
    ``sweep``.
    """
    rng = np.random.default_rng(seed)
    rep = Report("comparison")
    rep.meta["seed"] = seed
    dt = max_step(p)
    n_weak = max(trials // 2, 1)

    worst = 0.0
    for _ in range(n_weak):
        a = _smooth_random(p, rng)
        b = a + rng.uniform(0.0, 1.0) * (1.0 - a)
        a = p.frame.clamp(a.copy())
        b = p.frame.clamp(b.copy())
        for _step in range(12):
            a, _ = p.step(a, dt, "direct")
            b, _ = p.step(b, dt, "direct")
            worst = max(worst, float(np.max((a - b)[p.domain_mask])))
    rep.add("weak_ordering_trials", worst, "<=", 0.0, 1e-12,
            note=f"{n_weak} ordered pairs, 12 steps each")

    if phi is not None:
        worst_sub = math.inf
        worst_rise = 0.0
        n_pw = max(trials // 10, 4)
        empty = Problem(
            p.kernel,
            build_obstacle("none", {}, p.grid),
            p.f,
            clamp_width=p.clamp_width,
            conv_path="direct",
        )
        span = min(p.grid.counts) // 3
        for _ in range(n_pw):
            axis = int(rng.integers(0, p.grid.dim))
            r_cells = int(rng.integers(-span, span))
            w = plane_wave(empty, phi, axis, r_cells)
            w1, r = empty.step(w.values, dt)
            worst_sub = min(worst_sub, float(np.min(r[empty.interior_mask])))
            worst_rise = max(
                worst_rise, float(np.max((w.values - w1)[empty.interior_mask]))
            )
        rep.add("weak_plane_wave_subsolution", worst_sub, ">=", 0.0, 1e-12,
                note=f"{n_pw} exact lattice plane waves; min residual")
        rep.add("weak_plane_wave_rises", worst_rise, "<=", 0.0, 1e-12)

    # (b) strong principle: contact-cell implication, exact
    interior_idx = np.argwhere(p.interior_mask)
    ann_offsets = _annulus_offsets(p.kernel)
    m = p.kernel.reach
    worst_zero = 0.0
    worst_detect = 0.0
    n_strong = trials
    meshes = p.grid.meshes()
    for _ in range(n_strong):
        xbar = interior_idx[int(rng.integers(0, interior_idx.shape[0]))]
        w = -rng.uniform(0.0, 1.0, p.grid.shape)
        w[~p.domain_mask] = 0.0
        d2 = sum((meshes[a] - (p.grid.lo[a] + (xbar[a] + 0.5) * p.grid.h)) ** 2
                 for a in range(p.grid.dim))
        w[d2 <= p.kernel.r2**2] = 0.0
        # L w (xbar) is the tap loop on the (2m+1)^dim block around xbar: an
        # interior cell lies at least the reach m from every edge, and the
        # loop is translation-equivariant to the bit
        block = tuple(slice(i - m, i + m + 1) for i in xbar)
        lw = _conv_inner(w[block], p.kernel).item()
        worst_zero = max(worst_zero, abs(lw))
        # perturb one annulus cell; the operator must see exactly that term
        dn = ann_offsets[int(rng.integers(0, ann_offsets.shape[0]))]
        y0 = xbar + dn
        if not (np.all(y0 >= 0) and np.all(y0 < p.grid.shape) and p.domain_mask[tuple(y0)]):
            continue
        eps_w = float(rng.uniform(0.25, 1.0))
        w2 = w.copy()
        w2[tuple(y0)] = -eps_w
        lw2 = _conv_inner(w2[block], p.kernel).item()
        expected = -eps_w * float(p.kernel.weights[tuple(dn + m)]) * p.grid.h**p.grid.dim
        worst_detect = max(worst_detect, abs(lw2 - expected))
    rep.add("strong_contact_zero", worst_zero, "==", 0.0, 0.0,
            note=f"{n_strong} planted contact balls: L w (xbar) vanishes exactly")
    rep.add("strong_annulus_detection", worst_detect, "<=", 0.0, 1e-15,
            note="a single annulus perturbation is seen with its exact weight")

    # chain propagation: annulus steps cover the connected component
    cap = 4 * max(p.grid.counts) - 1
    steps = _chain_steps(p, cap)
    rep.add("strong_chain_covers", "unreached" if steps is None else steps, "<=", cap,
            note="annulus-dilation BFS reaches the whole component")
    return rep


def _annulus_offsets(k: Kernel) -> np.ndarray:
    """Offsets z with J(z) > 0 on the open annulus r1 < |z| < r2 of
    ``KernelProfile.annulus``, one row per offset, in table order."""
    offs = k.offsets()
    omag = (np.hypot(offs[0], offs[1]) if k.dim == 2 else np.abs(offs[0])) * k.h
    ann = (k.weights > 0) & (omag > k.r1) & (omag < k.r2)
    return np.argwhere(ann) - k.reach


def _support_offsets(k: Kernel) -> np.ndarray:
    """Offsets z != 0 with J(z) > 0, one row per offset, in table order."""
    full = k.weights > 0
    full[(k.reach,) * k.dim] = False
    return np.argwhere(full) - k.reach


def _chain_steps(p: Problem, cap: int) -> int | None:
    """Annulus dilations needed to cover the component of the domain that
    holds a deep interior cell (full-support adjacency); None if ``cap``
    of them do not cover it."""
    # the first interior cell in row-major order, without listing them all
    start = np.unravel_index(np.argmax(p.interior_mask), p.interior_mask.shape)
    offsets = _support_offsets(p.kernel)
    annulus = _annulus_offsets(p.kernel)
    comp, steps = _bfs(p.domain_mask, start, offsets)
    # the annulus offsets are full-support offsets, so ``reached`` never
    # leaves ``comp``: it covers it exactly when the two are equal. When
    # the two offset sets are equal (tophat, quartic) the full-support BFS
    # is the annulus BFS, and the row checks its count against ``cap``
    if not np.array_equal(annulus, offsets):
        reached, steps = _bfs(p.domain_mask, start, annulus, cap)
        if not np.array_equal(reached, comp):
            return None
    return steps


def _bfs(domain: np.ndarray, start, deltas: np.ndarray, max_steps=None) -> tuple:
    """Frontier BFS from ``start``, a cell index or a boolean mask of
    cells, inside ``domain`` by the offsets ``deltas``, for at most
    ``max_steps`` steps (None: until no cell is new). Returns the reached
    cells and the number of steps that reached a new cell."""
    reached = np.zeros_like(domain)
    reached[start] = True
    frontier = reached.copy()
    steps = 0
    while max_steps is None or steps < max_steps:
        frontier = _dilate(frontier, deltas, domain) & ~reached
        if not np.any(frontier):
            break
        reached |= frontier
        steps += 1
    return reached, steps


def _dilate(mask: np.ndarray, deltas: np.ndarray, domain: np.ndarray) -> np.ndarray:
    """Cells of ``domain`` that a cell of ``mask`` reaches by one offset.
    Only the bounding box of ``mask``, grown by the largest offset, can be
    reached, so the shifts run inside that window."""
    grow = np.max(np.abs(deltas), axis=0)
    window = []
    for a, g in enumerate(grow):
        hit = np.flatnonzero(np.any(mask, axis=tuple(b for b in range(mask.ndim) if b != a)))
        window.append(slice(max(hit[0] - g, 0), hit[-1] + g + 1))
    window = tuple(window)
    sub = mask[window]
    reach = np.zeros_like(sub)
    for d in deltas:
        here, there = shift_windows(d, sub.shape)
        reach[there] |= sub[here]
    out = np.zeros_like(mask)
    out[window] = reach & domain[window]
    return out


# ---------------------------------------------------------------------------
# robustness under Hoelder deformations


def robustness_experiment(
    section: dict,
    grid: Grid,
    kernel: Kernel,
    f: Bistable,
    kc: KernelConstants,
    eps_grid=(1.0, 0.5, 0.2, 0.1, 0.05),
    alphas=(0.5, 1.0),
    pass_eps: float = 0.1,
    residual_tol: float = 1e-8,
    max_steps: int = 200_000,
    clamp_width: float | None = None,
    dt: float | None = None,
    conv_path: str = "fast",
    log_every: int = 1000,
) -> Report:
    """Deformed-obstacle sweep: solve on R^N minus K_eps for a decreasing
    eps grid, certify the Liouville level for eps <= pass_eps, and check
    every Hoelder quotient against the eps-independent constant
    A = 2 [J] / (inf_eps inf J_eps - max f').

    ``section`` is the ``[obstacle]`` section: every K_eps, the base K_0
    included, is ``build_obstacle("deformed", ...)`` on its ``radius``,
    ``psi_k`` and ``psi_amp`` at ``epsilon = eps``, and keeps its
    ``margin`` from the box boundary. Each problem takes ``clamp_width``
    and ``conv_path`` as :class:`Problem` does. Each evolution steps at
    ``dt`` (``None``: that problem's comparison bound) and logs its
    progress every ``log_every`` steps under the stem
    ``progress_eps_<eps>``."""
    eps_sorted = sorted(float(e) for e in eps_grid)
    if not any(e <= pass_eps + 1e-12 for e in eps_sorted):
        raise PreconditionError(
            f"no epsilon in the grid is <= pass_eps = {pass_eps}; nothing to certify"
        )
    rep = Report("robustness")
    obstacles = {e: build_obstacle("deformed", {**section, "epsilon": e}, grid,
                                   section["margin"]) for e in [0.0] + eps_sorted}

    prev = obstacles[0.0].mask_K
    nested = True
    for e in eps_sorted:
        nested &= bool(np.all(prev <= obstacles[e].mask_K))
        prev = obstacles[e].mask_K
    rep.add("mask_inclusion_chain", float(nested), "==", 1.0, 0.0,
            note="K subset K_eps1 subset K_eps2 as cell masks")

    maxfp = f.max_fprime
    min_j_all = math.inf
    for e in eps_sorted:
        jm = jmass(kernel, obstacles[e])
        min_j_all = min(min_j_all, float(np.min(jm.values[jm.mask])))
    if maxfp >= min_j_all:
        raise PreconditionError(
            f"flatness hypothesis fails: max f' = {maxfp:.4g} >= inf J = {min_j_all:.4g}"
        )
    rep.add("flatness_hypothesis", maxfp, "<", min_j_all,
            note="max f' below the uniform mass-map infimum")
    rep.add("mass_map_uniform_inf", min_j_all, ">", 0.0,
            note="inf over the eps grid of inf_x J_eps(x)")
    rep.meta["min_j_all_eps"] = min_j_all

    A = {a: 2.0 * kc.nikolskii[float(a)] / (min_j_all - maxfp) for a in alphas}
    empirical = None
    for e in sorted(eps_sorted, reverse=True):
        p = Problem(kernel, obstacles[e], f, clamp_width=clamp_width, conv_path=conv_path)
        res = evolve(p, p.hostile_datum(), dt=dt, residual_tol=residual_tol,
                     max_steps=max_steps, log_every=log_every)
        rep.fields[f"field_eps_{e}"] = res.u
        rep.tables[f"progress_eps_{e}"] = (PROGRESS_HEADER, res.log_rows)
        required = e <= pass_eps + 1e-12
        if not res.converged:
            rep.add(f"eps_{e}_converged", res.residual_sup, "<=", residual_tol,
                    note="inconclusive: budget exhausted", asserted=required)
            continue
        row = rep.add(f"eps_{e}_min_u", float(np.min(res.u.values[p.domain_mask])), ">=",
                        1.0, PASS_LEVEL, asserted=required,
                        note="" if required else "recorded only: certification covers small eps")
        if row.holds() and (empirical is None or e > empirical):
            empirical = e
        table = HolderTable(res.u)  # one Hoelder offset sweep for every alpha
        for a in alphas:
            rep.add(f"eps_{e}_holder_alpha_{a}", holder_quotient(res.u, a, table).value, "<=",
                    A[a], holder_slack(grid.h, a, kc.nikolskii[float(a)]),
                    note=f"A = {A[a]:.6g} uniform in eps")
        del table  # gone before the next evolve
    # every eps in the grid is >= 0, so the row passes once one eps certifies
    rep.add("empirical_eps0", "none" if empirical is None else empirical, ">=", 0.0,
            note="largest deformation in the grid that still certifies u = 1")
    return rep
