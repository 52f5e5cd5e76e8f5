import math
from pathlib import Path

import numpy as np
import pytest

import oracles
from nlrd import (
    KernelProfile,
    PreconditionError,
    build_kernel,
    build_obstacle,
    jmass,
    make_grid,
)
from nlrd.config import build_grid, build_obstacle_cfg, load_config
from nlrd.obstacles import FAMILY_KEYS, convex_hull_mask

CONFIGS = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture(scope="module")
def g8():
    return make_grid([-8, -8], [8, 8], 1 / 16)


@pytest.fixture(scope="module")
def g4():
    return make_grid([-4, -4], [4, 4], 1 / 16)


def test_disk_cell_count_matches_area(g8):
    K = build_obstacle("ball", {"radius": 1.0}, g8, margin=1.5)
    assert K.convex
    h = g8.h
    assert abs(np.count_nonzero(K.mask_K) * h * h - math.pi) <= 4 * h


def test_annulus_nonconvex_with_hole(g4):
    K = build_obstacle("annulus", {"r1": 1.0, "r2": 2.0}, g4, margin=1.5)
    assert not K.convex
    X, Y = g4.meshes()
    rr = np.hypot(X, Y)
    assert np.all(K.domain_mask[rr < 0.9])
    assert np.all(K.domain_mask[rr > 2.1])
    assert not np.any(K.domain_mask & K.mask_K)


def test_empty_obstacle_full_domain(g4):
    K = build_obstacle("none", {}, g4)
    assert not np.any(K.mask_K)
    assert np.all(K.domain_mask)


@pytest.mark.parametrize("family", sorted(FAMILY_KEYS))
def test_family_reads_only_its_keys(tmp_path, family):
    # every [obstacle] key is present, defaults filled; only the family's own count
    path = tmp_path / "cfg.ini"
    path.write_text(f"[grid]\nlo = -4,-4\nhi = 4,4\nh = 0.125\n[obstacle]\nfamily = {family}\n")
    cfg = load_config(str(path))
    grid = build_grid(cfg)
    o = cfg["obstacle"]
    K = build_obstacle_cfg(cfg, grid)
    own = build_obstacle(family, {key: o[key] for key in FAMILY_KEYS[family]}, grid,
                         margin=o["margin"])
    assert np.array_equal(K.mask_K, own.mask_K)
    assert tuple(K.params) == FAMILY_KEYS[family]
    assert family == "none" or np.count_nonzero(K.mask_K) > 0


def test_readme_family_table_matches_family_keys():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("### Obstacle families", 1)[1].split("\n## ", 1)[0]
    documented = {}
    for row in table.splitlines():
        if row.startswith("| `"):
            family, keys = (cell.strip() for cell in row.split("|")[1:3])
            documented[family.strip("`")] = tuple(
                k.strip().strip("`") for k in keys.split(",") if k.strip() != "—")
    assert documented == FAMILY_KEYS


def test_unknown_family_rejected(g4):
    with pytest.raises(PreconditionError, match="unknown obstacle family"):
        build_obstacle("torus", {"radius": 1.0}, g4)


@pytest.mark.parametrize("family,params,missing", [
    ("annulus", {"r1": 1.0, "radius": 2.0}, "r2"),  # radius is the ball key
    ("ball", {"centre": (0.0, 0.0)}, "radius"),
    ("ellipse", {"a": 2.0}, "b"),
    ("deformed", {"radius": 1.0, "epsilon": 0.1, "psi_k": 6}, "psi_amp"),
    ("annulus", {}, "r1, r2"),
])
def test_missing_family_key_names_family_and_key(g8, family, params, missing):
    with pytest.raises(PreconditionError, match=f"{family!r} is missing the key\\(s\\) {missing}$"):
        build_obstacle(family, params, g8)


def test_convex_families_are_hull_fixed_points(g8):
    for fam, par in (
        ("ball", {"radius": 1.0}),
        ("ellipse", {"a": 2.0, "b": 0.8}),
        ("polygon", {"vertices": [(-1, -1), (1, -1), (1, 1), (-1, 1)]}),
    ):
        K = build_obstacle(fam, par, g8, margin=1.5)
        assert np.array_equal(K.mask_K, convex_hull_mask(g8, K.mask_K))


def test_annulus_fails_hull_test(g4):
    K = build_obstacle("annulus", {"r1": 1.0, "r2": 2.0}, g4, margin=1.5)
    hull = convex_hull_mask(g4, K.mask_K)
    assert not np.array_equal(K.mask_K, hull)  # the hull fills the hole


def test_nonconvex_polygon_rejected(g8):
    with pytest.raises(PreconditionError, match="convex"):
        build_obstacle(
            "polygon",
            {"vertices": [(-1, -1), (1, -1), (0.0, 0.0), (1, 1), (-1, 1)]},
            g8,
            margin=1.5,
        )


def test_margin_rejection(g4):
    with pytest.raises(PreconditionError, match="margin"):
        build_obstacle("ball", {"radius": 3.2}, g4, margin=1.5)


DISK = {"radius": 1.0, "psi_k": 6, "psi_amp": 1.0}  # the [obstacle] defaults


def _deformed(eps, grid, section=DISK):
    return build_obstacle("deformed", {**section, "epsilon": eps}, grid)


@pytest.mark.parametrize("radius", [0.7, 1.0, 1.3, 2.0])
@pytest.mark.parametrize("grid", ["g4", "g8", "robustness"])
def test_deformed_at_zero_epsilon_is_the_ball(request, grid, radius):
    # K_0 of the robustness sweep is the deformed family at eps = 0: the
    # same cells as the disk, and certified convex like it
    g = (build_grid(load_config(str(CONFIGS / "robustness.ini"))) if grid == "robustness"
         else request.getfixturevalue(grid))
    K0 = _deformed(0.0, g, {**DISK, "radius": radius})
    ball = build_obstacle("ball", {"radius": radius}, g)
    assert K0.convex
    assert np.array_equal(K0.mask_K, ball.mask_K)


def test_deformation_family_limits_and_inclusion(g8):
    K0 = _deformed(0.0, g8)
    base = build_obstacle("ball", {"radius": 1.0}, g8, margin=1.5)
    assert np.array_equal(K0.mask_K, base.mask_K)
    K1 = _deformed(0.05, g8)
    K2 = _deformed(0.1, g8)
    outer = build_obstacle("ball", {"radius": 1.1}, g8, margin=1.5)
    assert np.all(base.mask_K <= K1.mask_K)
    assert np.all(K1.mask_K <= K2.mask_K)
    assert np.all(K1.mask_K <= outer.mask_K)
    # the robustness sweep's chain K_0 subset K_eps1 subset ... on its own
    # grid and default eps grid, which no report row checks
    cfg = load_config(str(CONFIGS / "robustness.ini"))
    g = build_grid(cfg)
    masks = [_deformed(e, g).mask_K for e in [0.0] + sorted(cfg["experiment"]["epsilons"])]
    assert all(np.all(a <= b) for a, b in zip(masks, masks[1:]))
    assert all(np.any(b & ~a) for a, b in zip(masks, masks[1:]))


@pytest.mark.parametrize("family,params,convex", [
    ("none", {}, True),
    ("ball", {"radius": 1.0}, True),
    ("annulus", {"r1": 1.0, "r2": 2.0}, False),
    ("deformed", {**DISK, "epsilon": 0.05}, True),
    ("deformed", {**DISK, "epsilon": 0.1}, False),
    ("deformed", {**DISK, "epsilon": 1.0}, False),
])
def test_convexity_is_computed_from_the_mask(family, params, convex):
    # on the robustness grid the eps = 0.05 notches stay lattice-convex
    g = build_grid(load_config(str(CONFIGS / "robustness.ini")))
    K = build_obstacle(family, params, g)
    assert K.convex is convex
    assert K.convex == np.array_equal(K.mask_K, convex_hull_mask(g, K.mask_K))


def test_deformation_hausdorff_monotone(g8):
    base = _deformed(0.0, g8).mask_K
    meshes = g8.meshes()
    pts_base = np.stack([m[base] for m in meshes], axis=1)

    def hausdorff(eps):
        mask = _deformed(eps, g8).mask_K & ~base
        if not np.any(mask):
            return 0.0
        pts = np.stack([m[mask] for m in meshes], axis=1)
        d = 0.0
        for p in pts:
            d = max(d, float(np.min(np.sum((pts_base - p) ** 2, axis=1))))
        return math.sqrt(d)

    ds = [hausdorff(e) for e in (0.05, 0.2, 0.5)]
    assert ds[0] <= ds[1] <= ds[2]
    assert ds[0] <= 0.05 * 2 + 2 * g8.h  # shrinks with eps


def test_psi_negative_rejected(g8):
    with pytest.raises(PreconditionError, match="negative"):
        _deformed(0.1, g8, {**DISK, "psi_amp": -1.0})


@pytest.mark.parametrize("eps", [-0.5, 1.2])
def test_deformed_epsilon_outside_unit_interval_rejected(g8, eps):
    with pytest.raises(PreconditionError, match=r"epsilon must lie in \[0, 1\]"):
        _deformed(eps, g8)


def test_jmass_empty_and_far(g4):
    k = build_kernel(KernelProfile("quartic", 0.5), g4)
    K = build_obstacle("none", {}, g4)
    jm = jmass(k, K)
    assert float(np.max(np.abs(jm.values - 1.0))) < 1e-12


def test_jmass_convex_disk_bound(g8, kq8):
    K = build_obstacle("ball", {"radius": 1.0}, g8, margin=1.5)
    jm = jmass(kq8, K)
    min_j = float(np.min(jm.values[jm.mask]))
    assert min_j >= 0.5 - 0.05
    # cells farther than the kernel radius from K see the full mass
    X, Y = g8.meshes()
    far = jm.mask & (np.hypot(X, Y) > 1.0 + 0.5 + g8.h)
    assert float(np.min(jm.values[far])) > 1.0 - 1e-12
    # spot-check the complement formula against a direct sum
    idx = (g8.counts[0] // 2 + 18, g8.counts[1] // 2)  # near the boundary
    direct = 1.0 - oracles.conv_at(K.mask_K.astype(float), kq8, idx)
    assert abs(jm.values[idx] - direct) < 1e-13


def test_jmass_values_within_unit_interval(g4):
    k = build_kernel(KernelProfile("tophat", 0.5), g4)
    K = build_obstacle("annulus", {"r1": 1.0, "r2": 2.0}, g4, margin=1.5)
    jm = jmass(k, K)
    assert float(np.min(jm.values[jm.mask])) >= 0.0
    assert float(np.max(jm.values)) <= 1.0
