"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints one pass/fail line (visible with ``pytest -s``). The
criteria with wall-clock budgets assert them.
"""

import math
import time

import numpy as np
import pytest

from nlrd import (
    Field,
    KernelProfile,
    Problem,
    apply_L,
    build_kernel,
    build_obstacle,
    build_subsolution,
    energy,
    evolve,
    kernel_constants,
    make_bistable,
    make_grid,
    marginal_j1,
    maximal_solution,
)
from nlrd.cli import main as cli_main
from nlrd.convolve import convolve
from nlrd.operators import ball_mask
from nlrd.solver import ball_grid, front_profile
from nlrd.verify import (
    bounds_suite,
    comparison_suite,
    counterexample_check,
    liouville_experiment,
    robustness_experiment,
)

H = 1 / 16


def _line(num, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {name}: {verdict} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


# ---------------------------------------------------------------------------
# shared expensive artifacts


@pytest.fixture(scope="module")
def liouville_runs(ref_f, phi_ref, kc_ref):
    """Converged hostile-datum runs for the three convex geometries, h and h/2."""
    shapes = {
        "disk": ("ball", {"radius": 1.0}),
        "ellipse": ("ellipse", {"a": 2.0, "b": 0.8}),
        "square": ("polygon", {"vertices": [(-1, -1), (1, -1), (1, 1), (-1, 1)]}),
    }
    out = {}
    for name, (fam, par) in shapes.items():
        for h in (H, H / 2):
            g = make_grid([-8, -8], [8, 8], h)
            k = build_kernel(KernelProfile("quartic", 0.5), g)
            K = build_obstacle(fam, par, g, margin=1.5)
            p = Problem(k, K, ref_f)
            t0 = time.monotonic()
            res = evolve(p, p.hostile_datum(), residual_tol=1e-8)
            wall = time.monotonic() - t0
            out[(name, h)] = (p, res, wall)
    return out


@pytest.fixture(scope="module")
def strong_problem(strong_f):
    g = make_grid([-10.5, -10.5], [10.5, 10.5], H)
    k = build_kernel(KernelProfile("quartic", 0.5), g)
    K = build_obstacle("ball", {"radius": 1.0}, g, margin=1.5)
    return Problem(k, K, strong_f)


def test_criterion_01_counterexample(annulus_problem):
    t0 = time.monotonic()
    rep = counterexample_check(annulus_problem)
    wall = time.monotonic() - t0
    by = {c.name: c for c in rep.checks}
    ok = (
        rep.passed
        and by["residual_sup"].measured <= 1e-12
        and by["evolve_fixed_point_drift"].measured <= 1e-12
        and wall < 5.0
    )
    _line(1, "counterexample exactness", ok,
          f"sup residual {by['residual_sup'].measured:.2e}, "
          f"drift {by['evolve_fixed_point_drift'].measured:.2e}, {wall:.2f}s")


def test_criterion_02_liouville_convex(liouville_runs):
    details = []
    ok = True
    for name in ("disk", "ellipse", "square"):
        p, res, wall = liouville_runs[(name, H)]
        min_u = float(np.min(res.u.values[p.domain_mask]))
        p2, res2, wall2 = liouville_runs[(name, H / 2)]
        min_u2 = float(np.min(res2.u.values[p2.domain_mask]))
        ok &= res.converged and res2.converged
        ok &= min_u >= 1.0 - 1e-6
        ok &= wall < 300.0 and wall2 < 300.0
        ok &= abs(min_u - min_u2) <= 1e-6
        details.append(f"{name}: min u {min_u:.9f} (h/2 drift {abs(min_u - min_u2):.1e}, "
                       f"{wall:.0f}s/{wall2:.0f}s)")
    _line(2, "Liouville on convex obstacles", ok, "; ".join(details))


def test_criterion_03_operator_paths(ref_f):
    rng = np.random.default_rng(0)
    t0 = time.monotonic()
    worst = 0.0
    g = make_grid([-4, -4], [4, 4], H)
    obstacles = {
        "none": build_obstacle("none", {}, g),
        "disk": build_obstacle("ball", {"radius": 1.0}, g, margin=1.5),
    }
    count = 0
    for kind, inner in (("tophat", 0.0), ("quartic", 0.0), ("ring", 0.25)):
        k = build_kernel(KernelProfile(kind, 0.5, inner), g)
        for K in obstacles.values():
            p = Problem(k, K, ref_f)
            for _ in range(17):
                u = Field(g, rng.uniform(0, 1, g.shape), p.domain_mask)
                a = apply_L(p, u, "direct").values
                b = apply_L(p, u, "fast").values
                worst = max(worst, float(np.max(np.abs(a - b))))
                count += 1
    wall = time.monotonic() - t0
    ok = worst <= 1e-10 and wall < 30.0 and count >= 100
    _line(3, "operator path equivalence", ok,
          f"{count} fields, sup gap {worst:.2e}, {wall:.1f}s")


def test_criterion_04_monotone_scheme(ref_f):
    import oracles

    details = []
    ok = True
    # 1-D, R = 20
    g1 = make_grid([-21], [21], H)
    k1 = build_kernel(KernelProfile("quartic", 0.5), g1)
    kc1 = kernel_constants(k1, ref_f, [1.0])
    # 2-D, R = 15 at h = 1/8 (the scheme is h-independent; criterion pins R)
    g2 = ball_grid([0.0, 0.0], 15.0, 1 / 8)
    k2 = build_kernel(KernelProfile("quartic", 0.5), make_grid([-4, -4], [4, 4], 1 / 8))
    kc2 = kernel_constants(k2, ref_f, [1.0])
    for label, (k, kc, center, R, grid) in {
        "1-D R=20": (k1, kc1, [0.0], 20.0, g1),
        "2-D R=15": (k2, kc2, [0.0, 0.0], 15.0, g2),
    }.items():
        v = maximal_solution(k, ref_f, center, R, kc.d0, grid=grid)
        worst_rise = max(r for _, _, r in v.history)
        bm = v.bmask
        res = convolve(v.values * bm, k, "fast") - v.values + ref_f.f(v.values)
        res_sup = float(np.max(np.abs(res[bm])))
        vmax = float(np.max(v.values[bm]))
        ev, _, conv_ok, _ = oracles.evolve_ball(k, ref_f, center, R, grid=grid,
                                                residual_tol=1e-10)
        agree = float(np.max(np.abs(ev.values - v.values)))
        ok &= worst_rise <= 1e-12 and res_sup <= 1e-9 and vmax > ref_f.theta
        ok &= conv_ok and agree <= 1e-6
        details.append(f"{label}: rise {worst_rise:.1e}, residual {res_sup:.1e}, "
                       f"max v {vmax:.3f}, route gap {agree:.1e}")
    _line(4, "monotone scheme", ok, "; ".join(details))


def test_criterion_05_maximal_structure(ref_f, strong_f):
    ok = True
    details = []
    h2 = 1 / 8
    kk = build_kernel(KernelProfile("quartic", 0.5), make_grid([-4, -4], [4, 4], h2))
    kcs = kernel_constants(kk, strong_f, [1.0])

    # (i) nested balls, common lattice, same and different centers
    gn = make_grid([-6.5, -6.5], [6.5, 6.5], h2)
    v4 = maximal_solution(kk, strong_f, [0.0, 0.0], 4.0, kcs.d0, grid=gn)
    v6 = maximal_solution(kk, strong_f, [0.0, 0.0], 6.0, kcs.d0, grid=gn)
    gap_same = float(np.max((v4.values - v6.values)[v4.bmask]))
    voff = maximal_solution(kk, strong_f, [1.0, 0.0], 4.0, kcs.d0, grid=gn)
    gap_off = float(np.max((voff.values - v6.values)[voff.bmask]))
    ok &= gap_same <= 1e-10 and gap_off <= 1e-10
    details.append(f"nesting gaps {gap_same:.1e}/{gap_off:.1e}")

    # (i) again at the reference well: B_15 inside B_20
    kref = build_kernel(KernelProfile("quartic", 0.5), make_grid([-4, -4], [4, 4], h2))
    kc_ref2 = kernel_constants(kref, ref_f, [1.0])
    gref = make_grid([-20.125, -20.125], [20.125, 20.125], h2)
    v15 = maximal_solution(kref, ref_f, [0.0, 0.0], 15.0, kc_ref2.d0, grid=gref)
    v20 = maximal_solution(kref, ref_f, [0.0, 0.0], 20.0, kc_ref2.d0, grid=gref)
    gap_ref = float(np.max((v15.values - v20.values)[v15.bmask]))
    ok &= gap_ref <= 1e-10
    details.append(f"reference 15-in-20 gap {gap_ref:.1e}")

    # (ii) translation identity, exact on matching lattices
    gt = make_grid([-12, -12], [12, 12], h2)
    t0 = maximal_solution(kk, strong_f, [0.0, 0.0], 4.0, kcs.d0, grid=gt, path="direct")
    shift = (16, -8)
    t1 = maximal_solution(kk, strong_f, [shift[0] * h2, shift[1] * h2], 4.0, kcs.d0,
                          grid=gt, path="direct")
    rolled = np.roll(np.roll(t0.values, shift[0], axis=0), shift[1], axis=1)
    exact = np.array_equal(rolled[t1.bmask], t1.values[t1.bmask])
    ok &= exact
    details.append(f"translation exact: {exact}")

    # (iii) min-max: 1-D at R = d0 scale, 2-D at the reduced radius
    g1 = make_grid([-31], [31], H)
    k1 = build_kernel(KernelProfile("quartic", 0.5), g1)
    kc1 = kernel_constants(k1, ref_f, [1.0])
    R = 7.6
    v2R = maximal_solution(k1, ref_f, [0.0], 2 * R, kc1.d0, grid=g1)
    v4R = maximal_solution(k1, ref_f, [0.0], 4 * R, kc1.d0, grid=g1)
    small = ball_mask(g1, [0.0], R)
    minmax_1d = float(np.min(v4R.values[small])) - float(np.max(v2R.values[small]))
    Rs = 3.75
    g2 = make_grid([-15.5, -15.5], [15.5, 15.5], h2)
    w2 = maximal_solution(kk, strong_f, [0.0, 0.0], 2 * Rs, kcs.d0, grid=g2)
    w4 = maximal_solution(kk, strong_f, [0.0, 0.0], 4 * Rs, kcs.d0, grid=g2)
    small2 = ball_mask(g2, [0.0, 0.0], Rs)
    minmax_2d = float(np.min(w4.values[small2])) - float(np.max(w2.values[small2]))
    ok &= minmax_1d >= -1e-10 and minmax_2d >= -1e-10
    details.append(f"min-max margins {minmax_1d:.1e}/{minmax_2d:.1e}")

    # growth of the center value and the large-R limit
    g1b = make_grid([-21], [21], H)
    mid = g1b.counts[0] // 2
    vals = []
    for RR in (8.0, 10.0, 15.0, 20.0):
        vv = maximal_solution(k1, ref_f, [0.0], RR, kc1.d0, grid=g1b)
        vals.append(vv.values[mid])
    grow_1d = all(b >= a for a, b in zip(vals, vals[1:])) and (1.0 - vals[-1] <= 0.05)
    vals2 = []
    for RR in (15.0, 20.0):
        gg = ball_grid([0.0, 0.0], RR, h2)
        vv = maximal_solution(kk, ref_f, [0.0, 0.0], RR,
                              kernel_constants(kk, ref_f, [1.0]).d0, grid=gg)
        cc = (gg.counts[0] // 2, gg.counts[1] // 2)
        vals2.append(vv.values[cc])
    grow_2d = vals2[1] >= vals2[0] and (1.0 - vals2[-1] <= 0.05)
    ok &= grow_1d and grow_2d
    details.append(
        f"1 - v(0): 1-D {[f'{1 - v:.1e}' for v in vals]}, 2-D {[f'{1 - v:.1e}' for v in vals2]}"
    )
    _line(5, "maximal-solution structure", ok, "; ".join(details))


def test_criterion_06_energy_negativity(ref_f):
    h = 1 / 8
    R = 20.0
    g = ball_grid([0.0, 0.0], R, h)
    k = build_kernel(KernelProfile("quartic", 0.5), g)
    kc = kernel_constants(k, ref_f, [1.0])
    ok = abs(kc.d0 - 14.75) < 0.01
    bm = ball_mask(g, [0.0, 0.0], R)
    ind = Field(g, np.where(bm, 1.0, 0.0), bm)
    E1 = energy(k, ref_f, [0.0, 0.0], R, ind)
    closed_bound = 0.5 * math.pi * (R**2 - (R - 0.5) ** 2) - R**2 * math.pi / 30.0
    v = maximal_solution(k, ref_f, [0.0, 0.0], R, kc.d0, grid=g)
    Ev = energy(k, ref_f, [0.0, 0.0], R, v.field)
    rel_gap = max(
        abs(E1.value - E1.cross_form) / (1.0 + abs(E1.value)),
        abs(Ev.value - Ev.cross_form) / (1.0 + abs(Ev.value)),
    )
    ok &= E1.value < 0.0 and E1.value <= closed_bound
    ok &= Ev.value <= E1.value
    ok &= rel_gap <= 1e-9
    _line(6, "energy negativity", ok,
          f"d0 {kc.d0:.4f}, E(1) {E1.value:.3f} <= bound {closed_bound:.3f}, "
          f"E(v) {Ev.value:.3f}, forms gap {rel_gap:.1e}")


def test_criterion_07_subsolution_certificate(ref_f):
    t0 = time.monotonic()
    h = H
    R = 15.0
    g = ball_grid([0.0, 0.0], R + 0.6, h)
    k = build_kernel(KernelProfile("quartic", 0.5), g)
    kc = kernel_constants(k, ref_f, [1.0])
    assert abs(kc.delta0 - 0.115) < 1e-3
    v = maximal_solution(k, ref_f, [0.0, 0.0], R, kc.d0, grid=g)
    w = build_subsolution(v, kc.delta0 / 2.0, kc)
    wall = time.monotonic() - t0
    ok = w.verify_min >= -1e-12 and wall < 60.0
    _line(7, "sub-solution certificate", ok,
          f"min {w.verify_min:.3e} >= -1e-12, delta {w.delta:.4f}, "
          f"{w.shell_cells} positive shell cells, {wall:.0f}s")


def test_criterion_08_suites(strong_problem, strong_f):
    p = strong_problem
    phi = front_profile(marginal_j1(p.kernel), strong_f, tol=1e-13)
    rep = comparison_suite(p, trials=100, seed=0, phi=phi)
    by = {c.name: c for c in rep.checks}
    ok = rep.passed
    # the sweeping rows come from the covering replay, on the geometry of
    # configs/sweep_covering.ini: this box is too small to host its ball
    gs = make_grid([-12, -12], [12, 12], 1 / 8)
    ks = build_kernel(KernelProfile("quartic", 0.5), gs)
    ps = Problem(ks, build_obstacle("ball", {"radius": 1.0}, gs, margin=1.5), strong_f)
    sweep = liouville_experiment(
        ps, front_profile(marginal_j1(ks), strong_f, tol=1e-13),
        kernel_constants(ks, strong_f, [1.0]), mode="sweep",
        sweep_opts={"epsilon": 0.25, "ball_radius": 4.0, "angles": 100},
    )
    sw = {c.name: c for c in sweep.checks}
    below, rot = sw["sweep_step2_below_u"], sw["sweep_step3_sampled_angles"]
    ok &= sweep.passed and below.passed is True and rot.passed is True
    ok &= below.tol == 1e-12 and rot.tol == 1e-12
    ok &= rot.note.startswith("100 sampled rotations")
    detail = (
        f"weak {by['weak_ordering_trials'].measured:.1e}, "
        f"contact {by['strong_contact_zero'].measured:.1e}, "
        f"chain {by['strong_chain_covers'].measured} steps, "
        f"sweep below {below.measured:.1e}, sweep rot {rot.measured:.1e}"
    )
    _line(8, "comparison/strong/sweeping suites", ok, detail)


def test_criterion_09_front_profile(kq8, ref_f):
    import oracles

    j1 = marginal_j1(kq8)
    phi = front_profile(j1, ref_f, tol=1e-13)
    mono = float(np.min(np.diff(phi.values)))
    ends = max(abs(phi.values[0] - 0.0), abs(phi.values[-1] - 1.0))
    xs, u = oracles.parabolic_front(j1, ref_f, 200.0 * j1.radius, tol=1e-11)
    pin_oracle = int(np.searchsorted(u, ref_f.theta))
    shift = pin_oracle - phi.pin_index
    a = phi.values[: u.size - shift] if shift >= 0 else phi.values[-shift:]
    b = u[shift:] if shift >= 0 else u[: u.size + shift]
    n = min(a.size, b.size)
    gap = float(np.max(np.abs(a[:n] - b[:n])))
    ok = mono > -1e-12 and phi.residual_sup <= 1e-8 and ends <= 1e-3 and gap <= 1e-4
    _line(9, "front profile", ok,
          f"monotone margin {mono:.1e}, residual {phi.residual_sup:.1e}, "
          f"ends {ends:.1e}, oracle gap {gap:.1e}")


def test_criterion_10_holder_bounds(liouville_runs, phi_ref, kc_ref):
    ok = True
    details = []
    for name in ("disk", "ellipse", "square"):
        p, res, _ = liouville_runs[(name, H)]
        rep = bounds_suite(res.u, p, phi_ref, kc_ref, alphas=(0.5, 1.0))
        by = {c.name: c for c in rep.checks}
        for alpha in (0.5, 1.0):
            c = by[f"holder_alpha_{alpha}"]
            ok &= c.passed is True
        c = by["holder_alpha_1.0"]
        details.append(f"{name}: lhs {c.measured:.2e} <= {c.bound:.2f} + {c.tol:.2f}")
    _line(10, "Hoelder transfer bound", ok, "; ".join(details))


def test_criterion_11_robustness(kq8, grid8):
    import oracles

    # the eps = 1 deformation carves notches where the mass map drops to
    # ~0.24, so the flatness hypothesis demands a flatter well than the
    # reference cubic: amplitude 0.5 gives max f' = 0.132 with margin
    f_rob = make_bistable(0.3, 0.5)
    kc_rob = kernel_constants(kq8, f_rob, [0.5, 1.0])
    disk = {"radius": 1.0, "psi_k": 6, "psi_amp": 1.0, "margin": 1.5}
    rep = robustness_experiment(
        disk, grid8, kq8, f_rob, kc_rob,
        eps_grid=(1.0, 0.5, 0.2, 0.1, 0.05), alphas=(0.5, 1.0),
        pass_eps=0.1,
    )
    by = {c.name: c for c in rep.checks}
    ok = rep.passed
    ok &= by["flatness_hypothesis"].passed is True
    for eps in (0.1, 0.05):
        ok &= by[f"eps_{eps}_min_u"].passed is True
    holder_ok = all(
        c.passed in (True, None) for c in rep.checks if "holder" in c.name
    )
    holder_all = [c for c in rep.checks if "holder" in c.name]
    ok &= holder_ok and all(oracles.row_verdict(c.row()) == "pass" for c in holder_all)
    _line(11, "robustness sweep", ok,
          f"eps0 {by['empirical_eps0'].measured}, min J {rep.meta['min_j_all_eps']:.3f}, "
          f"{len(holder_all)} quotient checks")


def test_criterion_12_determinism(tmp_path):
    ini = """
[grid]
lo = -5,-5
hi = 5,5
h = 0.125

[kernel]
profile = quartic
radius = 0.5

[obstacle]
family = ball
radius = 1.0

[experiment]
alphas = 1.0
"""
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(ini)
    outs = []
    for i in range(3):
        out = tmp_path / f"run{i}"
        code = cli_main([
            "--config", str(cfg), "--out", str(out),
            "--seed", "0", "experiment", "liouville",
        ])
        assert code == 0
        outs.append(out)
    ok = True
    for name in ("liouville.report.json", "liouville.checks.csv", "field.csv",
                 "progress.csv"):
        blobs = [(o / name).read_bytes() for o in outs]
        ok &= blobs[0] == blobs[1] == blobs[2]
    _line(12, "determinism", ok, "3 runs: byte-identical artifacts")
