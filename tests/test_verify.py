import csv
import json
import math
from pathlib import Path

import numpy as np
import pytest

import oracles
from nlrd import (
    Field,
    KernelProfile,
    Obstacle,
    PreconditionError,
    Problem,
    build_kernel,
    build_obstacle,
    kernel_constants,
    make_bistable,
    make_grid,
    marginal_j1,
)
import nlrd.verify as verify_mod
from nlrd.config import build_problem, load_config
from nlrd.solver import evolve, front_profile
from nlrd.verify import (
    Report,
    bounds_suite,
    comparison_suite,
    counterexample_check,
    counterexample_field,
    liouville_experiment,
    robustness_experiment,
    sliding_radius,
)

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


# ---------------------------------------------------------------------------
# sliding


def test_sliding_constant_one_slides_past(disk_problem, phi_ref):
    p = disk_problem
    u = p.constant_datum(1.0)
    r = sliding_radius(u, (1.0, 0.0), phi_ref)
    assert r == -math.inf


def test_sliding_blocked_by_annulus_hole(annulus_problem, phi_ref):
    p = annulus_problem
    u = counterexample_field(p)
    r = sliding_radius(u, (1.0, 0.0), phi_ref)
    assert math.isfinite(r)
    # independent oracle: the returned radius fits, one step tighter fails
    meshes = p.grid.meshes()
    dot = meshes[0][p.domain_mask]
    uv = u.values[p.domain_mask]

    def fits(rr):
        vals = np.minimum(phi_ref(dot - rr), 1.0 - 2e-6)
        return bool(np.all(vals <= uv + 1e-10))

    assert fits(r)
    assert not fits(r - p.grid.h)


def test_sliding_monotone_in_u(annulus_problem, phi_ref):
    p = annulus_problem
    u = counterexample_field(p)
    v = Field(u.grid, np.clip(u.values + 0.25 * p.domain_mask, 0.0, 1.0), u.mask)
    r_u = sliding_radius(u, (1.0, 0.0), phi_ref)
    r_v = sliding_radius(v, (1.0, 0.0), phi_ref)
    assert r_u >= r_v


def test_sliding_rejects_bad_direction(disk_problem, phi_ref):
    with pytest.raises(PreconditionError):
        sliding_radius(disk_problem.constant_datum(1.0), (1.0, 1.0), phi_ref)


# ---------------------------------------------------------------------------
# counterexample


def test_counterexample_report_passes(annulus_problem):
    rep = counterexample_check(annulus_problem)
    assert rep.passed
    by_name = {c.name: c for c in rep.checks}
    assert by_name["residual_sup"].measured <= 1e-12
    assert by_name["nonconstant_range"].measured == 1.0


def test_counterexample_smaller_kernel_still_exact(grid4, ref_f):
    k = build_kernel(KernelProfile("tophat", 0.4), grid4)
    K = build_obstacle("annulus", {"r1": 1.0, "r2": 2.0}, grid4, margin=1.5)
    rep = counterexample_check(Problem(k, K, ref_f))
    assert rep.passed


def test_counterexample_rejects_wide_kernel(ref_f):
    # a kernel whose taps bridge the annulus reaches the hole from the
    # clamp band: no cell is cut off, so there is no 0/1 state
    g = make_grid([-4, -4], [4, 4], 1 / 16)
    k = build_kernel(KernelProfile("tophat", 1.2), g)
    K = build_obstacle("annulus", {"r1": 1.0, "r2": 2.0}, g, margin=1.5)
    with pytest.raises(PreconditionError, match="reach every domain cell"):
        counterexample_check(Problem(k, K, ref_f))


@pytest.mark.parametrize("radius", [0.4, 0.5, 0.6])
@pytest.mark.parametrize("path", ["direct", "fast"])
def test_counterexample_field_is_the_annulus_state(radius, path):
    # on configs/counterexample.ini (tophat 0.5), and at tophat 0.4 and 0.6,
    # the computed field equals the 0/1 state read off the outer radius
    cfg = load_config(str(CONFIGS / "counterexample.ini"))
    cfg["kernel"]["radius"] = radius
    p = build_problem(cfg, path)
    expected = oracles.annulus_counterexample(p)
    assert np.array_equal(counterexample_field(p).values, expected)
    rep = counterexample_check(p)
    assert rep.passed
    assert rep.meta["unreached_cells"] == np.count_nonzero(p.domain_mask & (expected == 0.0))
    if path == "direct":
        assert {c.name: c for c in rep.checks}["residual_sup"].measured == 0.0


def _ring(grid, center, r1, r2):
    rr = np.hypot(*(m - c for m, c in zip(grid.meshes(), center)))
    return (rr >= r1) & (rr <= r2)


def test_counterexample_field_follows_the_computed_reach(ref_f):
    # two rings cut off two holes; a slit through a ring joins its hole to
    # the exterior, and the field keeps 0 on the holes still cut off
    g = make_grid([-6, -3], [6, 3], 1 / 16)
    k = build_kernel(KernelProfile("tophat", 0.5), g)
    X, Y = g.meshes()
    rings = _ring(g, (-2.5, 0.0), 0.75, 1.5) | _ring(g, (2.5, 0.0), 0.75, 1.5)
    left, right = np.hypot(X + 2.5, Y) < 0.75, np.hypot(X - 2.5, Y) < 0.75
    for slit_x, holes in ((math.inf, left | right), (2.5, left), (-math.inf, None)):
        K = rings & ~((np.abs(Y) < g.h) & (X > slit_x))
        p = Problem(k, Obstacle(g, K, "rings", {}, False), ref_f, conv_path="direct")
        if holes is None:
            with pytest.raises(PreconditionError, match="reach every domain cell"):
                counterexample_check(p)
            continue
        assert np.array_equal(counterexample_field(p).values,
                              np.where(holes | K, 0.0, 1.0))
        rep = counterexample_check(p)
        assert rep.passed and rep.meta["unreached_cells"] == np.count_nonzero(holes)
        assert {c.name: c for c in rep.checks}["residual_sup"].measured == 0.0


# ---------------------------------------------------------------------------
# bounds suite on the converged disk field


def test_bounds_suite_on_converged_disk(disk_solution, disk_problem, phi_ref, kc_ref):
    rep = bounds_suite(disk_solution.u, disk_problem, phi_ref, kc_ref)
    assert rep.passed
    names = {c.name: c for c in rep.checks}
    for alpha in (0.5, 1.0):
        c = names[f"holder_alpha_{alpha}"]
        assert c.passed is True
        assert oracles.row_verdict(c.row()) == "pass"
    assert names["convex_mass_bound"].passed is True
    assert names["radial_lower_bound_r0"].passed is True
    assert names["uniform_bound_delta_0.1"].passed is True


def _radial_front_field(p, phi):
    """phi(|x| - 3) on the domain: a radial front whose minorant bisects to r0 near 3."""
    rr = np.hypot(*p.grid.meshes())
    return Field(p.grid, np.where(p.domain_mask, phi(rr - 3.0), 0.0), p.domain_mask)


def test_radial_r0_note_says_when_no_bisection_ran(disk_solution, disk_problem, phi_ref,
                                                   kc_ref):
    p = disk_problem
    box_radius = 8.0
    # the converged field is 1 to 1e-8: the minorant fits at the lower end
    rep = bounds_suite(disk_solution.u, p, phi_ref, kc_ref, alphas=())
    c = {c.name: c for c in rep.checks}["radial_lower_bound_r0"]
    assert c.passed is True and c.measured == -box_radius - 1.0
    assert "lower end" in c.note
    rep = bounds_suite(_radial_front_field(p, phi_ref), p, phi_ref, kc_ref, alphas=())
    c = {c.name: c for c in rep.checks}["radial_lower_bound_r0"]
    assert abs(c.measured - 3.0) <= 2 * p.grid.h and "lower end" not in c.note


def test_uniform_bound_note_says_when_it_is_the_global_min(disk_solution, disk_problem,
                                                           phi_ref, kc_ref):
    p = disk_problem
    u = disk_solution.u
    rep = bounds_suite(u, p, phi_ref, kc_ref, alphas=())
    for delta in (0.1, 0.01):
        c = {c.name: c for c in rep.checks}[f"uniform_bound_delta_{delta}"]
        assert c.passed is True and c.measured == float(np.min(u.values[u.mask]))
        assert "R_delta = -" in c.note and "global min u" in c.note
    rep = bounds_suite(_radial_front_field(p, phi_ref), p, phi_ref, kc_ref, alphas=(),
                       probe_deltas=(0.1,))
    c = {c.name: c for c in rep.checks}["uniform_bound_delta_0.1"]
    assert c.note.startswith("R_delta = ") and float(c.note.split()[2]) > 0.0
    assert "global min" not in c.note


def test_bounds_suite_informational_on_annulus(annulus_problem, phi_ref, ref_f):
    p = annulus_problem
    kc = kernel_constants(p.kernel, ref_f, [1.0])
    u = counterexample_field(p)
    rep = bounds_suite(u, p, phi_ref, kc, alphas=(1.0,))
    names = {c.name: c for c in rep.checks}
    assert names["holder_alpha_1.0"].passed is None  # informational off convexity
    assert names["convex_mass_bound"].passed is None
    # the jump sits across the annulus, one unit apart: quotient about 1
    assert names["holder_alpha_1.0"].measured is not None
    # inf J - max f' is positive here: the note blames convexity alone
    assert names["convex_mass_bound"].measured - ref_f.max_fprime > 0.0
    assert names["holder_alpha_1.0"].note.split(";")[0] == "informational: K is not convex"


def test_bounds_suite_names_a_non_positive_margin(disk_problem, phi_ref, strong_f):
    # on the convex disk the steep well's max f' exceeds inf J: only the
    # margin hypothesis fails, and the note names it with its value
    p = Problem(disk_problem.kernel, disk_problem.obstacle, strong_f)
    kc = kernel_constants(p.kernel, strong_f, [1.0])
    rep = bounds_suite(p.constant_datum(1.0), p, phi_ref, kc, alphas=(1.0,))
    names = {c.name: c for c in rep.checks}
    margin = names["convex_mass_bound"].measured - strong_f.max_fprime
    assert margin <= 0.0
    c = names["holder_alpha_1.0"]
    assert c.passed is None
    assert c.note.split(";")[0] == f"informational: inf J - max f' = {margin:.4g} is not positive"


def test_holder_midrun_field_recorded_not_asserted(disk_problem, phi_ref, kc_ref):
    # a mid-run field is out of contract for the transfer bound; the suite
    # still runs on it, so make sure the stationary-field requirement is on
    # the caller (this measures and records only)
    p = disk_problem
    res = evolve(p, p.hostile_datum(), max_steps=30, residual_tol=1e-30)
    assert not res.converged
    rep = bounds_suite(res.u, p, phi_ref, kc_ref, alphas=(0.5,))
    c = {c.name: c for c in rep.checks}["holder_alpha_0.5"]
    assert c.measured is not None


# ---------------------------------------------------------------------------
# liouville experiment


def test_liouville_disk_report(disk_problem, phi_ref, kc_ref):
    rep = liouville_experiment(disk_problem, phi_ref, kc_ref)
    assert rep.passed
    names = {c.name: c for c in rep.checks}
    assert names["liouville_min_u"].passed is True
    assert names["liouville_min_u"].measured >= 1.0 - 1e-6
    assert names["sliding_radius_e0"].passed is True
    assert rep.meta["steps"] > 0


def test_liouville_annulus_fails_by_design(annulus_problem, phi_ref, ref_f):
    p = annulus_problem
    kc = kernel_constants(p.kernel, ref_f, [0.5, 1.0])
    rep = liouville_experiment(p, phi_ref, kc)
    assert not rep.passed
    names = {c.name: c for c in rep.checks}
    assert names["liouville_min_u"].passed is False
    assert names["liouville_min_u"].measured == 0.0


def test_annulus_orbit_comes_to_rest_at_the_counterexample(annulus_problem):
    # the orbit of the least datum, unseeded, ends at the 0/1 state: exactly
    # 0 on every cell cut off from the clamp band, on the direct path
    a = annulus_problem
    p = Problem(a.kernel, a.obstacle, a.f, conv_path="direct")
    res = evolve(p, p.hostile_datum())
    assert res.converged
    u = counterexample_field(p).values
    assert float(np.max(np.abs(res.u.values - u))) <= 1e-8
    unreached = p.domain_mask & (u == 0.0)
    assert np.count_nonzero(unreached) > 0
    assert np.all(res.u.values[unreached] == 0.0)


def test_liouville_sweep_mode_replays_covering_argument(strong_f):
    # steep well: d0 ~ 3.7 keeps the covering balls at desk scale
    h = 1 / 8
    g = make_grid([-12, -12], [12, 12], h)
    k = build_kernel(KernelProfile("quartic", 0.5), g)
    kc = kernel_constants(k, strong_f, [1.0])
    K = build_obstacle("ball", {"radius": 1.0}, g, margin=1.5)
    p = Problem(k, K, strong_f)
    phi = front_profile(marginal_j1(k), strong_f, tol=1e-13)
    rep = liouville_experiment(
        p, phi, kc, mode="sweep",
        sweep_opts={"epsilon": 0.25, "ball_radius": 4.0, "angles": 16},
    )
    assert rep.passed
    names = {c.name: c for c in rep.checks}
    assert names["sweep_step1_ball_level"].passed is True
    assert names["sweep_step2_below_u"].passed is True
    assert names["sweep_step3_exact_rotations"].passed is True
    assert names["sweep_step3_sampled_angles"].passed is True
    assert names["sweep_step3_sampled_angles"].note.endswith("sampled rotations (radial "
                                                             "interpolant), not certified")
    # the true margin: every sampled rotation lies strictly below u
    assert names["sweep_step3_sampled_angles"].measured < 0.0
    assert names["sweep_step4_translations"].passed is True
    assert names["sweep_covered_radius"].measured > 6.0


# ---------------------------------------------------------------------------
# comparison suite


@pytest.fixture(scope="module")
def small_problem(ref_f):
    # quartic kernel: the shared front profile is its marginal's solution
    g = make_grid([-3, -3], [3, 3], 1 / 16)
    k = build_kernel(KernelProfile("quartic", 0.5), g)
    return Problem(k, build_obstacle("ball", {"radius": 0.5}, g, margin=1.5), ref_f)


def test_comparison_suite_small(small_problem, phi_ref):
    rep = comparison_suite(small_problem, trials=20, seed=4, phi=phi_ref)
    assert rep.passed
    names = {c.name: c for c in rep.checks}
    assert names["weak_ordering_trials"].measured <= 1e-12
    assert names["strong_contact_zero"].measured == 0.0
    assert names["strong_annulus_detection"].passed is True
    assert names["strong_chain_covers"].passed is True
    assert names["weak_plane_wave_subsolution"].passed is True


def test_comparison_steps_convolve_unpadded(small_problem, phi_ref, monkeypatch):
    # the weak and plane-wave steps convolve the inner window of the field
    # in place; the one padded 2-D direct convolution left is the jself of
    # the obstacle-free problem the plane waves step on
    import nlrd.convolve as conv_mod
    import nlrd.operators as ops_mod

    padded, inner = [], []
    pad, window = conv_mod._conv_direct, conv_mod._conv_inner
    monkeypatch.setattr(conv_mod, "_conv_direct",
                        lambda arr, k: padded.append(arr.ndim) or pad(arr, k))
    monkeypatch.setattr(ops_mod, "_conv_inner",
                        lambda x, k: inner.append(x.ndim) or window(x, k))
    for trials in (8, 20):
        padded.clear()
        inner.clear()
        assert comparison_suite(small_problem, trials=trials, seed=4, phi=phi_ref).passed
        assert padded == [2]
        # per weak pair one smoothing and 2 x 12 steps; one per plane wave
        assert inner == [2] * (trials // 2 * 25 + max(trials // 10, 4))


def test_chain_window_dilation_matches_whole_box(disk_problem):
    # the liouville_disk.ini domain: every BFS step dilates its frontier to
    # the same cells as a whole-box dilation, and the chain takes 45 steps
    p = disk_problem
    offsets = verify_mod._annulus_offsets(p.kernel)
    reached = np.zeros_like(p.domain_mask)
    reached[tuple(np.argwhere(p.interior_mask)[0])] = True
    frontier = reached.copy()
    steps = 0
    while np.any(frontier):
        grown = verify_mod._dilate(frontier, offsets, p.domain_mask)
        assert np.array_equal(grown, oracles.dilate_box(frontier, offsets, p.domain_mask))
        frontier = grown & ~reached
        reached |= frontier
        steps += np.any(frontier)
    assert steps == verify_mod._chain_steps(p, 4 * max(p.grid.counts) - 1) == 45


def test_comparison_suite_ring_kernel_chain(ref_f):
    # r1 > 0: propagation through a detached annulus still covers the domain
    g = make_grid([-2, -2], [2, 2], 1 / 16)
    k = build_kernel(KernelProfile("ring", 0.5, 0.25), g)
    p = Problem(k, build_obstacle("none", {}, g), ref_f)
    rep = comparison_suite(p, trials=10, seed=1)
    assert {c.name: c for c in rep.checks}["strong_chain_covers"].passed is True


def test_tophat_annulus_is_open(ref_f, monkeypatch):
    # tophat: J > 0 on the closed disk, so the four taps at exactly
    # |z| = R_J = 8h carry weight, but they lie off the open annulus
    # 0 < |z| < R_J that both strong-principle checks use
    g = make_grid([-2, -2], [2, 2], 1 / 16)
    k = build_kernel(KernelProfile("tophat", 0.5), g)
    m = k.reach
    rim = {(8, 0), (-8, 0), (0, 8), (0, -8)}
    assert all(k.weights[i + m, j + m] > 0.0 for i, j in rim)
    positive = {(i - m, j - m) for i, j in np.argwhere(k.weights > 0.0)}
    want = positive - rim - {(0, 0)}
    got = verify_mod._annulus_offsets(k)
    assert [tuple(z) for z in got] == sorted(want)

    calls = []
    helper = verify_mod._annulus_offsets
    monkeypatch.setattr(verify_mod, "_annulus_offsets",
                        lambda kern: calls.append(kern) or helper(kern))
    p = Problem(k, build_obstacle("none", {}, g), ref_f)
    rep = comparison_suite(p, trials=2, seed=0)
    assert len(calls) == 2  # the contact trials and the chain
    by = {c.name: c for c in rep.checks}
    assert by["strong_annulus_detection"].passed and by["strong_chain_covers"].passed


# ---------------------------------------------------------------------------
# robustness


# the [obstacle] keys the robustness sweep reads, at their config defaults
DISK = {"radius": 1.0, "psi_k": 6, "psi_amp": 1.0, "margin": 1.5}


def test_robustness_quick(ref_f, kq8, grid8, kc_ref):
    rep = robustness_experiment(
        DISK, grid8, kq8, ref_f, kc_ref,
        eps_grid=(0.2, 0.05), alphas=(1.0,), pass_eps=0.1,
    )
    assert rep.passed
    names = {c.name: c for c in rep.checks}
    assert names["flatness_hypothesis"].passed is True
    assert names["mask_inclusion_chain"].passed is True
    assert names["eps_0.05_min_u"].passed is True
    assert names["eps_0.2_min_u"].passed is None  # recorded, not asserted
    assert names["empirical_eps0"].measured == 0.2


def test_robustness_flatness_rejection(grid8):
    # steep nonlinearity: max f' above the uniform mass-map infimum
    steep = make_bistable(0.25, 2.2)
    k = build_kernel(KernelProfile("quartic", 0.5), grid8)
    kc = kernel_constants(k, steep, [1.0])
    with pytest.raises(PreconditionError, match="flatness"):
        robustness_experiment(DISK, grid8, k, steep, kc, eps_grid=(0.1,), alphas=(1.0,))


# ---------------------------------------------------------------------------
# report plumbing


def test_report_serialization_deterministic(tmp_path, annulus_problem):
    rep = counterexample_check(annulus_problem)
    rep.config = {"a": {"b": "1"}}
    p1, p2 = tmp_path / "r1.json", tmp_path / "r2.json"
    rep.write_json(p1)
    rep.write_json(p2)
    assert p1.read_bytes() == p2.read_bytes()
    data = json.loads(p1.read_text())
    assert data["experiment"] == "counterexample"
    assert data["passed"] is True
    assert "wall_time_s" not in data
    c1, c2 = tmp_path / "c1.csv", tmp_path / "c2.csv"
    rep.write_csv(c1)
    rep.write_csv(c2)
    assert c1.read_bytes() == c2.read_bytes()


def test_report_skips_are_not_passes():
    rep = Report("demo", {}, [])
    rep.add("a", 1.0, "<=", 1.0)
    rep.add("b", note="skipped: hypothesis unavailable")
    assert rep.passed
    rep.add("c", 2.0, "<=", 1.0)
    assert not rep.passed


@pytest.mark.parametrize("relation,measured,bound,tol,passed", [
    # exactly at the limit bound + tol, bound - tol or bound
    ("<=", 1.5, 1.0, 0.5, True),
    ("<=", np.nextafter(1.5, 2.0), 1.0, 0.5, False),
    (">=", 0.5, 1.0, 0.5, True),
    (">=", np.nextafter(0.5, 0.0), 1.0, 0.5, False),
    ("|-|<=", 0.5, 1.0, 0.5, True),
    ("|-|<=", 1.5, 1.0, 0.5, True),
    ("|-|<=", np.nextafter(1.5, 2.0), 1.0, 0.5, False),
    ("<", 1.0, 1.0, 0.5, False),
    (">", 1.0, 1.0, 0.5, False),
    ("<", np.nextafter(1.0, 0.0), 1.0, None, True),
    (">", np.nextafter(1.0, 2.0), 1.0, None, True),
    ("==", 1.0, 1.0, None, True),
    ("==", 1.25, 1.0, 0.5, False),  # == ignores the tolerance
    ("<=", 1.0, 1.0, None, True),  # a missing tolerance is 0
    ("<=", np.nextafter(1.0, 2.0), 1.0, None, False),
    ("==", "-inf", -math.inf, None, True),
    ("==", -math.inf, "-inf", None, True),
    ("==", 3.0, -math.inf, None, False),
    ("<=", "unreached", 1.0, 0.5, False),
    (">=", "none", 0.0, None, False),
    ("<=", "unbounded", 8.0, None, False),
    ("<=", math.nan, 1.0, 0.5, False),
])
def test_check_verdict_follows_from_its_row(relation, measured, bound, tol, passed):
    rep = Report("demo")
    c = rep.add("x", measured, relation, bound, tol)
    assert c.passed is passed
    assert oracles.row_verdict(c.row()) == ("pass" if passed else "fail")
    assert rep.add("y", measured, relation, bound, tol, asserted=False).passed is None
    assert rep.passed is passed


def test_check_row_stores_no_nonfinite_number(tmp_path):
    rep = Report("demo")
    rep.add("slides", -math.inf, "==", -math.inf, note="a, b")
    c = rep.checks[0]
    assert c.passed is True and c.measured == "-inf" and c.bound == "-inf"
    rep.write_json(tmp_path / "r.json")
    text = (tmp_path / "r.json").read_text()
    assert "Infinity" not in text and "NaN" not in text
    rep.write_csv(tmp_path / "c.csv")
    with open(tmp_path / "c.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows == [["name", "measured", "relation", "bound", "tolerance", "verdict", "note"],
                    ["slides", "-inf", "==", "-inf", "", "pass", "a, b"]]
