import math
from pathlib import Path

import numpy as np
import pytest

import oracles
from nlrd import (
    ExtendedNonlinearity,
    Field,
    KernelProfile,
    NumericalFailure,
    PreconditionError,
    Problem,
    build_kernel,
    build_obstacle,
    build_subsolution,
    energy,
    even_potential,
    evolve,
    front_profile,
    kernel_constants,
    make_bistable,
    make_grid,
    marginal_j1,
    maximal_solution,
    resolvent_solve,
)
from nlrd.config import build_pieces, load_config
from nlrd.convolve import convolve
from nlrd.operators import ball_mask
import nlrd.solver as solver_mod
from nlrd.solver import _descend, _front_rate, _front_step, _MirrorFold, ball_grid
from nlrd.verify import counterexample_field


# ---------------------------------------------------------------------------
# evolve


def test_evolve_fixed_point_at_step_zero(ref_f):
    g = make_grid([-4, -4], [4, 4], 1 / 16)
    k = build_kernel(KernelProfile("quartic", 0.5), g)
    for K in (build_obstacle("none", {}, g),
              build_obstacle("ball", {"radius": 1.0}, g, margin=1.5)):
        p = Problem(k, K, ref_f, conv_path="direct")
        res = evolve(p, p.constant_datum(1.0))
        assert res.converged and res.steps == 0
        assert res.residual_sup == 0.0


def test_evolve_rejects_large_dt(disk_problem):
    with pytest.raises(PreconditionError, match="dt"):
        evolve(disk_problem, disk_problem.hostile_datum(), dt=1.0)


def test_evolve_counterexample_stationary(annulus_problem):
    p = annulus_problem
    u = counterexample_field(p)
    res = evolve(p, u, max_steps=5)
    assert res.steps == 0 and res.converged
    spread = float(np.max(res.u.values[p.domain_mask]) - np.min(res.u.values[p.domain_mask]))
    assert spread == 1.0


@pytest.mark.parametrize("path", ["direct", "fast"])
def test_evolve_preserves_ordering_small(path):
    g = make_grid([-2, -2], [2, 2], 1 / 8)
    k = build_kernel(KernelProfile("tophat", 0.5), g)
    f = make_bistable(0.3, 1.0)
    p = Problem(k, build_obstacle("none", {}, g), f, conv_path=path)
    rng = np.random.default_rng(17)
    from nlrd.solver import max_step

    # the full-box step computes the rate on the cells at least the reach
    # from every edge and 0 on the clamp band outside them
    win = (slice(k.reach, -k.reach),) * 2

    def longhand(u):
        r = np.zeros(u.shape)
        r[win] = (convolve(u, k, path) - p.jself * u + f.f(u))[win]
        return p.frame.clamp(np.clip(u + dt * r, 0.0, 1.0)), r

    dt = max_step(p)
    for _ in range(5):
        a = p.frame.clamp(rng.uniform(0, 1, g.shape))
        b = p.frame.clamp(a + rng.uniform(0, 1) * (1.0 - a))
        for _step in range(25):
            for u in (a, b):
                before = u.copy()
                got, want = p.step(u, dt), longhand(u)
                assert got[0].tobytes() == want[0].tobytes()
                assert got[1].tobytes() == want[1].tobytes()
                # the default frame is the full box's
                framed = p.step(u, dt, frame=p.frame)
                assert [x.tobytes() for x in framed] == [x.tobytes() for x in got]
                assert u.tobytes() == before.tobytes()
                # the clamp overwrites the band, so the rate there is moot
                full = convolve(u, k, path) - p.jself * u + f.f(u)
                clamped = p.frame.clamp(np.clip(u + dt * full, 0.0, 1.0))
                assert clamped.tobytes() == got[0].tobytes()
            a, b = longhand(a)[0], longhand(b)[0]
            assert float(np.max((a - b)[p.domain_mask])) <= 1e-12

    u0 = p.frame.clamp(rng.uniform(0, 1, g.shape))
    res = evolve(p, Field(g, u0, p.domain_mask), dt=dt, max_steps=5, residual_tol=-1)
    want = u0
    for _step in range(5):
        want = longhand(want)[0]
    assert res.steps == 5 and res.u.values.tobytes() == want.tobytes()


def _evolve_case(name, path, f):
    """(problem, folded axes) for the folded-evolve tests: 64² and 65²
    boxes (half- and whole-sample mirrors), an ellipse centred on one axis
    only, and an off-centre one."""
    h = 1 / 8
    g, odd = make_grid([-4, -4], [4, 4], h), make_grid([-4 - h / 2] * 2, [4 + h / 2] * 2, h)
    family, params, g, axes = {
        "disk_even": ("ball", {"radius": 1.0}, g, [0, 1]),
        "disk_odd": ("ball", {"radius": 1.0}, odd, [0, 1]),
        "ellipse_axis0": ("ellipse", {"center": (0.0, 0.5), "a": 1.0, "b": 0.6}, g, [0]),
        "ellipse_off_centre": ("ellipse", {"center": (0.3, 0.5), "a": 1.0, "b": 0.6}, g, []),
    }[name]
    k = build_kernel(KernelProfile("quartic", 0.5), g)
    return Problem(k, build_obstacle(family, params, g), f, conv_path=path), axes


def _evolve_fold(p, u0):
    return _MirrorFold(p.domain_mask, p.kernel, p.jself, p.clamp_mask, u0.values)


@pytest.mark.parametrize("path", ["direct", "fast"])
@pytest.mark.parametrize("name", ["disk_even", "disk_odd", "ellipse_axis0",
                                  "ellipse_off_centre"])
def test_evolve_matches_full_box_oracle(name, path, ref_f):
    p, axes = _evolve_case(name, path, ref_f)
    u0 = p.hostile_datum()
    assert _evolve_fold(p, u0).axes == axes
    res = evolve(p, u0, log_every=25)
    values, steps, converged, sup, rows = oracles.evolve_fullbox(p, u0, log_every=25)
    assert res.steps == steps and res.converged and converged
    assert [r[0] for r in res.log_rows] == [r[0] for r in rows]
    if path == "direct" or not axes:
        # direct sums mirrored taps in pairs, so the full-box iterates are
        # symmetric to the bit; an unfolded run is the full-box run
        assert res.u.values.tobytes() == values.tobytes()
        assert res.log_rows == rows and res.residual_sup == sup
    else:
        assert float(np.max(np.abs(res.u.values - values))) <= 1e-12
        assert max(abs(a - b) for r, s in zip(res.log_rows, rows) for a, b in zip(r, s)) <= 1e-12
        assert abs(res.residual_sup - sup) <= 1e-12


def test_evolve_counterexample_stays_fixed_when_folded(annulus_problem):
    p = annulus_problem
    u = counterexample_field(p)
    assert _evolve_fold(p, u).axes == [0, 1]
    res = evolve(p, u, max_steps=1, residual_tol=-1.0)
    assert res.steps == 1 and not res.converged
    assert float(np.max(np.abs(res.u.values - u.values))) <= 1e-12


def test_evolve_gate_does_not_rest_on_the_fold(disk_problem, phi_ref, kc_ref, monkeypatch):
    # a fold that reports J * u = 0: from the hostile datum its rate is 0
    # on every interior cell, so the folded run stops at step 0; the
    # full-box gate sees the true residual at the clamp band's edge
    from nlrd.verify import liouville_experiment

    p = disk_problem
    assert _evolve_fold(p, p.hostile_datum()).axes == [0, 1]
    monkeypatch.setattr(_MirrorFold, "convolve", lambda self, x, path: np.zeros(x.shape))
    res = evolve(p, p.hostile_datum(), residual_tol=1e-8)
    assert res.steps == 0 and not res.converged and res.residual_sup > 1e-2
    rep = liouville_experiment(p, phi_ref, kc_ref, residual_tol=1e-8)
    assert [(c.name, c.passed) for c in rep.checks] == [("converged", False)]


# ---------------------------------------------------------------------------
# resolvent and the monotone scheme


@pytest.fixture(scope="module")
def ball1d(ref_f):
    g = make_grid([-21], [21], 1 / 16)
    k = build_kernel(KernelProfile("quartic", 0.5), g)
    return g, k


def test_resolvent_constructed_solution(ball1d):
    g, k = ball1d
    bm = ball_mask(g, [0.0], 10.0)
    ones = np.where(bm, 1.0, 0.0)
    kshift = 2.0
    rhs = np.where(bm, convolve(ones, k, "fast") - (kshift + 1.0), 0.0)
    w = resolvent_solve(k, bm, kshift, rhs)
    assert float(np.max(np.abs(w[bm] - 1.0))) < 1e-11


def test_resolvent_zero_rhs(ball1d):
    g, k = ball1d
    bm = ball_mask(g, [0.0], 10.0)
    w = resolvent_solve(k, bm, 2.0, np.zeros(g.shape))
    assert float(np.max(np.abs(w))) == 0.0


@pytest.mark.parametrize("opts,bound", [({}, 1e-11), ({"tol": 1e-4}, 1e-4)],
                         ids=["default", "loose"])
def test_resolvent_linear_residual_random(ball1d, opts, bound):
    g, k = ball1d
    bm = ball_mask(g, [0.0], 10.0)
    rng = np.random.default_rng(23)
    rhs = np.where(bm, rng.uniform(-1, 1, g.shape), 0.0)
    kshift = 2.0
    w = resolvent_solve(k, bm, kshift, rhs, **opts)
    lin = convolve(np.where(bm, w, 0.0), k, "fast") - (kshift + 1) * w - rhs
    assert float(np.max(np.abs(lin[bm]))) <= bound


@pytest.fixture(scope="module")
def maximal_1d(ball1d, ref_f):
    g, k = ball1d
    kc = kernel_constants(k, ref_f, [1.0])
    v = maximal_solution(k, ref_f, [0.0], 20.0, kc.d0, grid=g)
    return g, k, kc, v


def test_maximal_solution_1d_center_value(maximal_1d):
    g, _, _, v = maximal_1d
    mid = g.counts[0] // 2
    assert v.values[mid] >= 0.9
    assert float(np.max(v.values[v.bmask])) > 0.3  # above theta
    assert all(rise <= 1e-12 for _, _, rise in v.history)
    assert all(b[1] <= a[1] + 1e-12 for a, b in zip(v.history, v.history[1:]))


def test_maximal_agrees_with_parabolic_route(maximal_1d, ref_f):
    g, k, kc, v = maximal_1d
    ev, steps, conv, _ = oracles.evolve_ball(k, ref_f, [0.0], 20.0, grid=g,
                                             residual_tol=1e-10)
    assert conv
    assert float(np.max(np.abs(ev.values - v.values))) <= 1e-6


def test_maximal_nested_balls_1d(maximal_1d, ref_f):
    g, k, kc, v20 = maximal_1d
    v15 = maximal_solution(k, ref_f, [0.0], 15.0, kc.d0, grid=g)
    v20t = maximal_solution(k, ref_f, [0.0], 20.0, kc.d0, grid=g)
    inside = v15.bmask
    assert float(np.max((v15.values - v20t.values)[inside])) <= 1e-10


def test_maximal_rejects_small_radius(ball1d, ref_f):
    g, k = ball1d
    kc = kernel_constants(k, ref_f, [1.0])
    with pytest.raises(PreconditionError, match="d0"):
        maximal_solution(k, ref_f, [0.0], 5.0, kc.d0, grid=g)


def test_maximal_collapses_below_existence_radius():
    # a nearly balanced well on a ball barely wider than the kernel: no
    # nontrivial solution exists, and forcing a small d0 lets the scheme
    # run there; it must detect the collapse rather than return junk
    f45 = make_bistable(0.45, 1.0)
    g = make_grid([-3], [3], 1 / 16)
    k = build_kernel(KernelProfile("quartic", 0.5), g)
    with pytest.raises(NumericalFailure, match="collapsed"):
        maximal_solution(k, f45, [0.0], 0.7, d0=0.7, grid=g)


@pytest.mark.parametrize("dim", [1, 2], ids=["1d_R20", "2d_R4"])
def test_maximal_matches_tight_reference(dim, ball1d, ref_f, strong_f, monkeypatch):
    import nlrd.solver

    if dim == 1:
        g, k = ball1d
        f, center, R = ref_f, [0.0], 20.0
    else:
        h = 1 / 8
        k = build_kernel(KernelProfile("quartic", 0.5), make_grid([-4, -4], [4, 4], h))
        f, center, R = strong_f, [0.0, 0.0], 4.0
        g = ball_grid(center, R, h)
    kc = kernel_constants(k, f, [1.0])
    calls = []
    real = nlrd.solver.convolve

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(nlrd.solver, "convolve", counting)
    v = maximal_solution(k, f, center, R, kc.d0, grid=g)
    ref, ref_convs = oracles.maximal_solution_tight(k, f, v.bmask)
    assert float(np.max(np.abs(v.values - ref))) <= 1e-10
    assert all(rise <= 1e-12 for _, _, rise in v.history)
    # the first step moves the field, so the loop cannot stop on a spurious
    # zero decrease
    assert v.history[0][1] > 0.0
    assert len(calls) < ref_convs


def test_maximal_translation_identity(strong_f):
    f = strong_f
    h = 1 / 8
    k = build_kernel(KernelProfile("quartic", 0.5), make_grid([-6, -6], [6, 6], h))
    kc = kernel_constants(k, strong_f, [1.0])
    R = 4.0
    g = make_grid([-12, -12], [12, 12], h)
    v0 = maximal_solution(k, f, [0.0, 0.0], R, kc.d0, grid=g, path="direct")
    shift = (16, -8)  # lattice shift in cells
    c1 = (shift[0] * h, shift[1] * h)
    v1 = maximal_solution(k, f, c1, R, kc.d0, grid=g, path="direct")
    rolled = np.roll(np.roll(v0.values, shift[0], axis=0), shift[1], axis=1)
    assert np.array_equal(np.roll(np.roll(v0.bmask, shift[0], axis=0), shift[1], axis=1),
                          v1.bmask)
    assert np.array_equal(rolled[v1.bmask], v1.values[v1.bmask])


@pytest.mark.parametrize("theta, amplitude", [(0.3, 1.0), (0.25, 1.0), (0.2, 2.0),
                                               (0.1, 0.5), (0.4, 3.0)])
def test_maximal_resolvent_shift_is_dyadic_at_threshold(theta, amplitude, ball1d):
    # the shift is -min f' = max |f'| rounded up to a quarter; for
    # (0.25, 1) the threshold 0.75 is a quarter, so the shift equals it
    g, k = ball1d
    f = make_bistable(theta, amplitude)
    kc = kernel_constants(k, f, [1.0])
    v = maximal_solution(k, f, [0.0], 10.0, kc.d0, grid=g)
    threshold = oracles.max_abs_fprime_scan(f)
    assert 4.0 * v.kshift == math.floor(4.0 * v.kshift)
    assert threshold <= v.kshift < threshold + 0.25


def test_descend_rejects_a_shift_below_the_threshold(ball1d, ref_f):
    # k = 0.5 < -min f' = 0.7: a step no longer preserves order. From 1 the
    # orbit rises by a few ulps only, below the rise gate, so the shift is
    # refused before the first step
    _, k = ball1d
    full = ball_mask(ball_grid([0.0], 8.0, k.h), [0.0], 8.0)
    fz = ExtendedNonlinearity(ref_f)
    with pytest.raises(PreconditionError, match="resolvent shift too small"):
        _descend(_MirrorFold(full, k), fz, 0.5, "fast")


def test_maximal_rejects_ball_off_grid(ball1d, ref_f):
    g, k = ball1d
    kc = kernel_constants(k, ref_f, [1.0])
    with pytest.raises(PreconditionError, match="no grid cell"):
        maximal_solution(k, ref_f, [100.0], 20.0, kc.d0, grid=g)


def _fold_case(name):
    """(kernel, mask, folded axes) for the mirror-fold tests."""
    h = 1 / 8
    k2 = build_kernel(KernelProfile("quartic", 0.5), make_grid([-4, -4], [4, 4], h))
    k1 = build_kernel(KernelProfile("quartic", 0.5), make_grid([-4], [4], h))
    g1 = make_grid([-6], [6], h)
    g2 = make_grid([-6, -6], [6, 6], h)
    if name == "1d_even":
        return k1, ball_mask(g1, [1.0], 2.0), [0]
    if name == "1d_odd":
        return k1, ball_mask(g1, [h / 2], 2.0), [0]
    if name == "2d_even":
        return k2, ball_mask(g2, [1.0, -0.5], 2.0), [0, 1]
    if name == "2d_odd":
        return k2, ball_mask(g2, [h / 2, h / 2], 2.0), [0, 1]
    if name == "2d_odd_even":
        return k2, ball_mask(g2, [h / 2, 0.0], 2.0), [0, 1]
    if name == "2d_one_axis":
        # a disk cut by a column off its middle: mirror-symmetric in axis 0 only
        m = ball_mask(g2, [0.0, 0.0], 2.0)
        m[:, g2.counts[1] // 2 + 8:] = False
        return k2, m, [0]
    if name == "2d_asymmetric":
        m = ball_mask(g2, [0.0, 0.0], 2.0)
        m[g2.counts[0] // 2 + 3, g2.counts[1] // 2 + 5] = False
        return k2, m, []
    if name == "2d_kernel_radius":
        # the box is 2 m wide: the band spans the whole kept half
        return k2, ball_mask(g2, [0.0, 0.0], k2.radius), [0, 1]
    # three cells across, narrower than the band: it reads zeros past the half
    m = np.zeros(g2.shape, dtype=bool)
    m[40, 39:42] = m[39:42, 40] = True
    return k2, m, [0, 1]


FOLD_CASES = ["1d_even", "1d_odd", "2d_even", "2d_odd", "2d_odd_even", "2d_one_axis",
              "2d_asymmetric", "2d_kernel_radius", "2d_past_half"]


@pytest.mark.parametrize("form", ["plain", "deficit"])
@pytest.mark.parametrize("path", ["direct", "fast"])
@pytest.mark.parametrize("name", FOLD_CASES)
def test_mirror_fold_convolution_matches_full_box(name, path, form):
    k, mask, axes = _fold_case(name)
    fold = _MirrorFold(mask, k)
    assert fold.axes == axes
    rng = np.random.default_rng(7)
    sub = rng.uniform(0.0, 1.0, mask[fold.box].shape)
    for a in axes:
        sub = sub + np.flip(sub, a)  # exactly mirror-symmetric: + commutes
    full = np.zeros(mask.shape)
    full[fold.box] = np.where(mask[fold.box], sub, 0.0)
    kept = fold.fold(full)
    back = np.full(mask.shape, np.nan)
    back[~mask] = 0.0
    fold.unfold(kept, back)
    assert back.tobytes() == full.tobytes()
    if form == "plain":
        got = fold.convolve(kept, path)
    else:
        # J * 1_B - J * (1_B - x) through the same fold, as _descend takes it
        ones = fold.convolve(fold.mask, "direct").copy()
        got = ones - fold.convolve(fold.mask - kept, path)
    want = convolve(full, k, path)[fold.box][fold.keep]
    if path == "direct" and form == "plain":
        assert got.tobytes() == want.tobytes()
    else:
        assert float(np.max(np.abs(got - want))) <= 1e-12
    # a field that breaks the mirror keeps its axes unfolded
    if axes:
        skew = np.where(mask, rng.uniform(0.0, 1.0, mask.shape), 0.0)
        assert _MirrorFold(mask, k, skew).axes == []


@pytest.mark.parametrize("path", ["direct", "fast"])
@pytest.mark.parametrize("case", ["2d_corner", "2d_shared_box", "2d_cell_centre", "1d_R20"])
def test_maximal_matches_full_box_oracle(case, path, ball1d, ref_f, strong_f):
    if case == "1d_R20":
        g, k = ball1d
        f, center, R = ref_f, [0.0], 20.0
    else:
        h = 1 / 8
        k = build_kernel(KernelProfile("quartic", 0.5), make_grid([-4, -4], [4, 4], h))
        f, R = strong_f, 4.0
        center = {"2d_corner": [0.0, 0.0], "2d_shared_box": [2.0, -1.0],
                  "2d_cell_centre": [h / 2, h / 2]}[case]
        g = ball_grid(center, R, h) if case == "2d_corner" else make_grid(
            [-12, -12], [12, 12], h)
    kc = kernel_constants(k, f, [1.0])
    v = maximal_solution(k, f, center, R, kc.d0, grid=g, path=path)
    assert _MirrorFold(v.bmask, k).axes == list(range(k.dim))
    ref, history = oracles.maximal_solution_fullbox(k, f, v.bmask, path=path)
    if path == "direct":
        assert v.values.tobytes() == ref.tobytes()
        assert v.history == history
    else:
        assert float(np.max(np.abs(v.values - ref))) <= 1e-12


def _maximal_case(case, ball1d, ref_f, strong_f):
    """(kernel, f, center, R, grid) of a 1-D ball and a 2-D disk folded on both axes."""
    if case == "1d_R20":
        g, k = ball1d
        return k, ref_f, [0.0], 20.0, g
    h = 1 / 8
    k = build_kernel(KernelProfile("quartic", 0.5), make_grid([-4, -4], [4, 4], h))
    return k, strong_f, [0.0, 0.0], 4.0, ball_grid([0.0, 0.0], 4.0, h)


def _continue_descent(v, path: str, steps: int, start=None) -> np.ndarray:
    """``steps`` steps of the package's map from ``start``, by default the
    returned field, on the plain fold of its box: v <- min((J * v + (k v +
    f(v))) / (k + 1), 1) on the ball, with J * v taken off ``direct`` as
    J * 1_B - J * (1_B - v), J * 1_B on ``direct``."""
    fold = _MirrorFold(v.bmask, v.kernel)
    fz = ExtendedNonlinearity(v.f)
    bm = fold.mask
    w = fold.fold(v.values if start is None else start)
    ones = fold.convolve(bm, "direct").copy()
    for _ in range(steps):
        conv = fold.convolve(w, path) if path == "direct" else ones - fold.convolve(bm - w, path)
        w = np.where(bm, (conv + (v.kshift * w + fz.f(w))) / (v.kshift + 1.0), 0.0)
        w = np.minimum(w, 1.0)
    out = np.zeros(v.values.shape)
    fold.unfold(w, out)
    return out


@pytest.mark.parametrize("path", ["direct", "fast"])
@pytest.mark.parametrize("case", ["1d_R20", "2d_corner"])
def test_maximal_lands_on_the_limit(case, path, ball1d, ref_f, strong_f):
    # the loop runs to the rounding floor, four ulps of 1: a thousand more
    # steps move the field by no more than rounding
    k, f, center, R, g = _maximal_case(case, ball1d, ref_f, strong_f)
    v = maximal_solution(k, f, center, R, kernel_constants(k, f, [1.0]).d0, grid=g, path=path)
    assert v.final_increment <= 4.0 * np.finfo(float).eps
    assert all(dec > 4.0 * np.finfo(float).eps for _, dec, _ in v.history[:-1])
    assert float(np.max(np.abs(_continue_descent(v, path, 1000) - v.values))) <= 1e-14


@pytest.mark.parametrize("path", ["direct", "fast"])
@pytest.mark.parametrize("case", ["1d_R20", "2d_corner"])
def test_descend_steps_match_the_longhand_map(case, path, ball1d, ref_f, strong_f):
    # every step from v_0 = 1, bit for bit: on fast J * v is the deficit
    # form through the plain fold, on direct the plain folded convolution
    k, f, center, R, g = _maximal_case(case, ball1d, ref_f, strong_f)
    v = maximal_solution(k, f, center, R, kernel_constants(k, f, [1.0]).d0, grid=g, path=path)
    start = np.where(v.bmask, 1.0, 0.0)
    assert _continue_descent(v, path, v.iterations, start).tobytes() == v.values.tobytes()


@pytest.mark.parametrize("path", ["direct", "fast"])
@pytest.mark.parametrize("case", ["1d_R20", "2d_corner"])
def test_maximal_makes_one_convolution_per_step(case, path, ball1d, ref_f, strong_f,
                                                 monkeypatch):
    k, f, center, R, g = _maximal_case(case, ball1d, ref_f, strong_f)
    calls = []
    real = solver_mod.convolve

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "convolve", counting)
    v = maximal_solution(k, f, center, R, kernel_constants(k, f, [1.0]).d0, grid=g, path=path)
    # besides one per step: J * 1_B for the deficit form off direct (none
    # on direct), and the full-box residual gate
    assert len(calls) == v.iterations + (1 if path == "direct" else 2)


def test_maximal_fast_path_keeps_saturated_cells(ball1d, ref_f):
    # on fast the sweeps convolve the deficit 1 - w, whose FFT roundoff
    # stays far below an ulp of 1 deep inside the ball: every cell where
    # the direct path gives exactly 1 gives 1 on fast too
    g, k = ball1d
    kc = kernel_constants(k, ref_f, [1.0])
    for R in (8.0, 10.0):
        fast = maximal_solution(k, ref_f, [0.0], R, kc.d0, grid=g)
        direct = maximal_solution(k, ref_f, [0.0], R, kc.d0, grid=g, path="direct")
        deep = direct.values == 1.0
        assert np.count_nonzero(deep) >= 40
        assert np.all(fast.values[deep] == 1.0)


def test_lemma_64iii_minmax_1d(ball1d, ref_f):
    _, k = ball1d
    kc = kernel_constants(k, ref_f, [1.0])
    R = 7.6  # just above the 1-D threshold d0 = 7.5
    g = make_grid([-31], [31], 1 / 16)
    v2 = maximal_solution(k, ref_f, [0.0], 2 * R, kc.d0, grid=g)
    v4 = maximal_solution(k, ref_f, [0.0], 4 * R, kc.d0, grid=g)
    small = ball_mask(g, [0.0], R)
    assert float(np.min(v4.values[small])) >= float(np.max(v2.values[small])) - 1e-10


def test_lemma_65_growth_1d(ball1d, ref_f):
    g, k = ball1d
    kc = kernel_constants(k, ref_f, [1.0])
    mid = g.counts[0] // 2
    centers = []
    for R in (8.0, 10.0, 15.0, 20.0):
        v = maximal_solution(k, ref_f, [0.0], R, kc.d0, grid=g)
        centers.append(v.values[mid])
    assert all(b >= a for a, b in zip(centers, centers[1:]))
    assert 1.0 - centers[-1] <= 0.05


# ---------------------------------------------------------------------------
# energy


def test_energy_zero_field(ball1d, ref_f):
    g, k = ball1d
    bm = ball_mask(g, [0.0], 10.0)
    zero = Field(g, np.zeros(g.shape), bm)
    E = energy(k, ref_f, [0.0], 10.0, zero)
    assert E.value == 0.0


def test_energy_random_field_against_pair_oracle(ball1d, ref_f):
    g, k = ball1d
    bm = ball_mask(g, [0.0], 10.0)
    rng = np.random.default_rng(7)
    u = Field(g, np.where(bm, rng.uniform(-0.5, 1.5, g.shape), 0.0), bm)
    E = energy(k, ref_f, [0.0], 10.0, u)
    pair, mass, potential = oracles.energy_pairs_1d(
        k, lambda t: even_potential(ref_f, t), bm, u.values)
    assert E.pair_term > 0.0
    for got, ref in ((E.pair_term, pair), (E.mass_term, mass),
                     (E.potential_term, potential)):
        assert abs(got - ref) <= 1e-12 * (1.0 + abs(ref))
    assert abs(E.value - (pair + mass - potential)) <= 1e-12 * (1.0 + abs(E.value))


def test_energy_indicator_bound_2d(ref_f):
    h = 1 / 8
    R = 20.0
    g = ball_grid([0.0, 0.0], R, h)
    k = build_kernel(KernelProfile("quartic", 0.5), g)
    bm = ball_mask(g, [0.0, 0.0], R)
    ind = Field(g, np.where(bm, 1.0, 0.0), bm)
    E1 = energy(k, ref_f, [0.0, 0.0], R, ind)
    bound = 0.5 * math.pi * (R**2 - (R - 0.5) ** 2) - R**2 * math.pi / 30.0
    assert bound < 0.0
    assert E1.value <= bound
    assert abs(E1.value - E1.cross_form) <= 1e-9 * (1.0 + abs(E1.value))
    kc = kernel_constants(k, ref_f, [1.0])
    v = maximal_solution(k, ref_f, [0.0, 0.0], R, kc.d0, grid=g)
    Ev = energy(k, ref_f, [0.0, 0.0], R, v.field)
    assert Ev.value <= E1.value < 0.0


# ---------------------------------------------------------------------------
# fronts


def test_front_profile_reference(phi_ref, ref_f):
    phi = phi_ref
    assert float(np.min(np.diff(phi.values))) > -1e-12
    assert phi.residual_sup <= 1e-8
    assert abs(phi.values[0]) <= 1e-3
    assert abs(1.0 - phi.values[-1]) <= 1e-3
    # theta crossing anchored at the origin up to one cell of slope
    local_slope = float(np.max(np.diff(phi.values)))
    assert abs(phi(0.0) - ref_f.theta) <= local_slope + 1e-12


def test_front_against_independent_parabolic_oracle(kq8, ref_f):
    j1 = marginal_j1(kq8)
    phi = front_profile(j1, ref_f)
    xs, u = oracles.parabolic_front(j1, ref_f, 200.0 * j1.radius, tol=1e-11)
    # align the theta crossings (integer cells) and compare the shapes
    pin_oracle = int(np.searchsorted(u, ref_f.theta))
    shift = pin_oracle - phi.pin_index
    a = phi.values[: u.size - shift] if shift >= 0 else phi.values[-shift:]
    b = u[shift:] if shift >= 0 else u[: u.size + shift]
    n = min(a.size, b.size)
    gap = float(np.max(np.abs(a[:n] - b[:n])))
    assert gap <= 1e-4


def test_front_residual_is_onesided_subsolution(kq8, ref_f):
    j1 = marginal_j1(kq8)
    phi = front_profile(j1, ref_f, tol=1e-13)
    r = convolve(phi.values, j1, "direct") - phi.values + ref_f.f(phi.values)
    band = max(int(round(j1.radius / j1.h)), 1)
    assert float(np.min(r[:-band])) >= -1e-10  # sub-solution off the far end


def test_front_even_kernel_reflection_invariance(kq8, ref_f):
    j1 = marginal_j1(kq8)
    assert np.array_equal(j1.weights, j1.weights[::-1])
    phi1 = front_profile(j1, ref_f)
    phi2 = front_profile(j1, ref_f)
    assert np.array_equal(phi1.values, phi2.values)
    # the direct path sums mirrored taps in pairs, so the rate of the
    # reflected front is the reflected rate, bit for bit
    rate = _front_rate(phi1.values, j1, ref_f)
    mirrored = _front_rate(phi1.values[::-1], j1, ref_f)
    assert mirrored.view(np.uint64).tolist() == rate[::-1].view(np.uint64).tolist()


def test_front_rejects_short_line(kq8, ref_f):
    j1 = marginal_j1(kq8)
    with pytest.raises(PreconditionError, match="200"):
        front_profile(j1, ref_f, line_length=10.0)


def test_front_step_preserves_order(kq8, ref_f):
    j1 = marginal_j1(kq8)
    tau = _front_step(j1, ref_f)
    assert tau == 0.99 / (1.0 - j1.center_weight * j1.h + ref_f.max_abs_fprime)

    def sweep(v, step):
        return v + step * _front_rate(v, j1, ref_f)

    # an ordered pair in [0, 1]: equal on half the cells and on saturated
    # ends at 0 and 1, at least 1e-3 apart on the rest
    rng = np.random.default_rng(11)
    n = 400
    phi = rng.uniform(0.0, 0.9, n)
    psi = np.where(rng.random(n) < 0.5, phi, phi + rng.uniform(1e-3, 0.1, n))
    phi[:20] = psi[:20] = 0.0
    phi[-20:] = psi[-20:] = 1.0
    assert np.all(sweep(phi, tau) <= sweep(psi, tau))

    # one cell below a saturated line: at the certified step it stays
    # below, at 1.5 times the order-preserving bound it overtakes the line
    line = np.ones(n)
    dip = line.copy()
    dip[n // 2] = 1.0 - 1e-3
    assert np.all(sweep(dip, tau) <= sweep(line, tau))
    over = sweep(dip, 1.5 * tau / 0.99) - sweep(line, 1.5 * tau / 0.99)
    assert over[n // 2] > 0.0


def test_liouville_disk_front_sweeps(monkeypatch):
    cfg = load_config(str(Path(__file__).parents[1] / "configs" / "liouville_disk.ini"))
    _, kernel, f = build_pieces(cfg)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return convolve(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "convolve", counting)
    phi = front_profile(marginal_j1(kernel), f, line_length=cfg["front"]["line_length"],
                        tol=cfg["front"]["tol"])
    # one convolution per sweep, plus the stopping sweep and the residual
    assert len(calls) <= 300
    assert phi.pin_index == 8


@pytest.mark.parametrize("theta,amplitude", [
    (theta, amplitude) for theta in (0.05, 0.3, 0.45) for amplitude in (0.1, 1.0, 3.0)
] + [(0.3, 0.01)])
def test_front_start_near_clamp_matches_centred_step(kq8, theta, amplitude, monkeypatch):
    # (0.3, 0.01): a start fixed at 4 R_J from the clamp settles on the
    # super-solution side there; the start of 4/sqrt(a) clamp widths does not
    j1 = marginal_j1(kq8)
    f = make_bistable(theta, amplitude)
    ref, ref_sweeps = oracles.front_from_centred_step(j1, f)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return convolve(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "convolve", counting)
    phi = front_profile(j1, f)
    assert phi.pin_index == int(np.searchsorted(ref, theta))
    assert float(np.max(np.abs(phi.values - ref))) <= 1e-11
    band = max(int(round(j1.radius / j1.h)), 1)
    r = convolve(phi.values, j1, "direct") - phi.values + f.f(phi.values)
    assert float(np.min(r[:-band])) >= -1e-14  # sub-solution off the far end
    assert len(calls) - 2 < ref_sweeps


# ---------------------------------------------------------------------------
# sub-solutions


@pytest.fixture(scope="module")
def subsolution_2d(ref_f):
    h = 1 / 8
    R = 20.0
    g = ball_grid([0.0, 0.0], R + 0.5, h, pad=0.25)
    k = build_kernel(KernelProfile("quartic", 0.5), g)
    kc = kernel_constants(k, ref_f, [1.0])
    v = maximal_solution(k, ref_f, [0.0, 0.0], R, kc.d0, grid=g)
    w = build_subsolution(v, kc.delta0 / 2.0, kc, grid=g)
    return g, k, kc, v, w


def test_subsolution_matches_v_inside(subsolution_2d):
    g, k, kc, v, w = subsolution_2d
    assert np.array_equal(w.field.values[v.bmask], v.values[v.bmask])


def test_subsolution_vanishes_past_cone(subsolution_2d):
    g, k, kc, v, w = subsolution_2d
    X, Y = g.meshes()
    far = np.hypot(X, Y) > v.radius + w.delta
    assert float(np.max(np.abs(w.field.values[far]))) == 0.0


def test_subsolution_certificate(subsolution_2d, ref_f):
    g, k, kc, v, w = subsolution_2d
    assert w.verify_min >= -1e-12
    # independent pointwise oracle at every cell that the cone or the
    # kernel reaches past the ball
    big = ball_mask(g, [0.0, 0.0], v.radius + w.delta)
    wv = w.field.values * big
    r = np.hypot(*g.meshes())
    cells = np.argwhere((r > v.radius) & (r <= v.radius + w.delta + k.radius))
    assert len(cells) > 4000
    for idx in map(tuple, cells):
        lhs = oracles.conv_at(wv, k, idx) - w.field.values[idx] + float(
            ref_f.f(w.field.values[idx])
        )
        assert lhs >= -1e-12


@pytest.fixture(scope="module")
def resolved_cone_ball(strong_f):
    # the steep well at h = 1/64: delta0 = 0.0293 spans more than a cell,
    # so the cone reaches past the discrete ball
    h = 1 / 64
    R = 4.0
    g = ball_grid([0.0, 0.0], R + 0.6, h)
    k = build_kernel(KernelProfile("quartic", 0.5), g)
    kc = kernel_constants(k, strong_f, [1.0])
    return kc, maximal_solution(k, strong_f, [0.0, 0.0], R, kc.d0, grid=g)


def test_subsolution_resolved_cone_certificate(resolved_cone_ball):
    kc, v = resolved_cone_ball
    w = build_subsolution(v, kc.delta0, kc, path="fast")
    assert w.shell_cells > 0
    assert w.verify_min >= -1e-12


@pytest.mark.parametrize("dim", [1, 2])
def test_subsolution_is_the_brute_force_envelope(dim, strong_f, resolved_cone_ball):
    if dim == 1:
        g = ball_grid([0.0], 4.6, 1 / 256)
        k = build_kernel(KernelProfile("quartic", 0.5), g)
        kc = kernel_constants(k, strong_f, [1.0])
        v = maximal_solution(k, strong_f, [0.0], 4.0, kc.d0, grid=g)
        box = (slice(None),)
    else:
        # a 48 x 48 window across the rim on the positive x0 axis
        kc, v = resolved_cone_ball
        g = v.field.grid
        i0 = int(round((v.radius - g.lo[0]) / g.h))
        box = (slice(i0 - 24, i0 + 24), slice(g.counts[1] // 2 - 24, g.counts[1] // 2 + 24))
    lo = [g.lo[a] + (b.start or 0) * g.h for a, b in enumerate(box)]
    vb = v.values[box]
    window = make_grid(lo, [l + n * g.h for l, n in zip(lo, vb.shape)], g.h)
    inside = ball_mask(window, v.center, v.radius)
    assert np.any(inside) and not np.all(inside)
    w = build_subsolution(v, kc.delta0, kc, grid=window)
    assert w.shell_cells > 0
    ref = oracles.sup_envelope(np.where(inside, vb, 0.0), inside, g.h, w.delta)
    assert np.array_equal(w.field.values, ref)


def test_subsolution_delta_validation(subsolution_2d):
    g, k, kc, v, _ = subsolution_2d
    with pytest.raises(PreconditionError, match="delta"):
        build_subsolution(v, kc.delta0 * 1.5, kc, grid=g)


def test_subsolution_needs_w11_kernel(ref_f):
    g = make_grid([-21], [21], 1 / 16)
    k = build_kernel(KernelProfile("tophat", 0.5), g)
    kc = kernel_constants(k, ref_f, [1.0])
    v = maximal_solution(k, ref_f, [0.0], 20.0, 7.51, grid=g)
    with pytest.raises(PreconditionError, match="W\\^\\{1,1\\}|delta0"):
        build_subsolution(v, 0.05, kc, grid=g)
