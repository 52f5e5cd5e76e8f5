import math

import numpy as np
import pytest

import nlrd.grid as grid_mod
from nlrd import (
    Field,
    HolderTable,
    PreconditionError,
    field_to_csv,
    holder_quotient,
    make_grid,
)
from nlrd.grid import MAX_CELLS, shift_windows
from nlrd.reduction import pairwise_sum
from oracles import make_field


def test_grid_counts_and_centers():
    g = make_grid([0.0], [1.0], 0.25)
    assert g.counts == (4,)
    assert np.allclose(g.axis_centers(0), [0.125, 0.375, 0.625, 0.875], atol=0, rtol=0)


def test_grid_rejects_non_integral_extent():
    with pytest.raises(PreconditionError):
        make_grid([0.0], [1.0], 0.3)


def test_grid_cell_cap():
    h = 0.5
    g = make_grid([0.0], [MAX_CELLS * h], h)
    assert math.prod(g.counts) == MAX_CELLS
    with pytest.raises(PreconditionError, match="exceeds MAX_CELLS"):
        make_grid([0.0], [(MAX_CELLS + 1) * h], h)
    with pytest.raises(PreconditionError, match="8388608 x 8388608 cells"):
        make_grid([-4, -4], [4, 4], 2.0**-20)


def test_make_field_constant_full_box():
    g = make_grid([-1, -1], [1, 1], 0.25)
    f = make_field(g, lambda x, y: np.ones_like(x))
    assert np.all(f.values == 1.0)
    assert np.all(f.mask)


def test_make_field_midpoint_sampling():
    g = make_grid([0.0], [1.0], 0.25)
    f = make_field(g, lambda x: x)
    assert list(f.values) == [0.125, 0.375, 0.625, 0.875]


def test_make_field_counterexample_layout():
    # piecewise 0/1 data around the annulus obstacle: 0 in the hole,
    # 1 outside the outer radius, obstacle cells masked out
    g = make_grid([-4, -4], [4, 4], 1 / 16)
    f = make_field(
        g,
        lambda x, y: np.where(np.hypot(x, y) > 2.0, 1.0, 0.0),
        mask=lambda x, y: ~((np.hypot(x, y) >= 1.0) & (np.hypot(x, y) <= 2.0)),
    )
    xs = g.axis_centers(0)
    i0 = np.argmin(np.abs(xs))  # cell near the origin: inside the hole
    assert f.values[i0, i0] == 0.0 and f.mask[i0, i0]
    i3 = np.argmin(np.abs(xs - 3.0))
    assert f.values[i3, i0] == 1.0 and f.mask[i3, i0]
    i15 = np.argmin(np.abs(xs - 1.5))
    assert not f.mask[i15, i0]
    assert f.values[i15, i0] == 0.0  # masked-out storage value


def test_make_field_rejects_nonfinite_with_coordinate():
    g = make_grid([0.0], [1.0], 0.25)
    with pytest.raises(PreconditionError, match="0.375"):
        make_field(g, lambda x: np.where(np.isclose(x, 0.375), np.inf, 1.0))


def test_field_zeroes_masked_out_and_is_readonly():
    g = make_grid([0.0], [1.0], 0.25)
    f = Field(g, np.full(4, 7.0), np.array([True, False, True, True]))
    assert f.values[1] == 0.0
    with pytest.raises(ValueError):
        f.values[0] = 3.0


def test_holder_quotient_constant_zero():
    g = make_grid([-1, -1], [1, 1], 0.25)
    f = make_field(g, lambda x, y: np.full_like(x, 0.3))
    assert holder_quotient(f, 0.5).value == 0.0


def test_holder_quotient_linear_1d():
    g = make_grid([0.0], [1.0], 1 / 16)
    f = make_field(g, lambda x: x)
    est = holder_quotient(f, 1.0)
    assert est.exact
    assert abs(est.value - 1.0) <= 1e-12


def test_holder_quotient_alpha_range():
    g = make_grid([0.0], [1.0], 0.25)
    f = make_field(g, lambda x: x)
    with pytest.raises(PreconditionError):
        holder_quotient(f, 1.5)


def test_holder_quotient_deterministic():
    rng = np.random.default_rng(3)
    g = make_grid([-1, -1], [1, 1], 1 / 32)
    f = Field(g, rng.uniform(0, 1, g.shape), np.ones(g.shape, dtype=bool))
    a = holder_quotient(f, 0.5)
    b = holder_quotient(f, 0.5)
    assert a.value == b.value and a.pairs_used == b.pairs_used


def _hole(x, y):
    return np.hypot(x, y) > 0.7


def _holder_case(name, request):
    rng = np.random.default_rng(19)
    g1 = make_grid([0.0], [4.0], 1 / 16)
    g2 = make_grid([-2, -2], [2, 2], 1 / 16)
    if name == "1d_rough":
        return make_field(g1, lambda x: rng.uniform(0, 1, x.shape))
    if name == "1d_smooth":
        return make_field(g1, np.sin)
    if name == "2d_rough_hole":
        return make_field(g2, lambda x, y: rng.uniform(0, 1, x.shape), mask=_hole)
    if name == "2d_smooth_hole":
        return make_field(g2, lambda x, y: np.tanh(3 * x) + 0.3 * y * y, mask=_hole)
    # the mid-run disk field of test_holder_midrun_field_recorded_not_asserted:
    # 64724 masked-in cells, about 2.1e9 pairs: too many for the per-pair
    # oracle, so only the offset-major one runs on it
    from nlrd.solver import evolve

    p = request.getfixturevalue("disk_problem")
    return evolve(p, p.hostile_datum(), max_steps=30, residual_tol=1e-30).u


@pytest.mark.parametrize("name,alpha", [
    (name, alpha)
    for name in ("1d_rough", "1d_smooth", "2d_rough_hole", "2d_smooth_hole")
    for alpha in (0.5, 1.0)
] + [("midrun_disk", 0.5)])
def test_holder_quotient_matches_all_pairs(name, alpha, request):
    import oracles

    f = _holder_case(name, request)
    est = holder_quotient(f, alpha)
    assert est.exact
    assert est.value == oracles.holder_quotient_offsets(f, alpha)
    if name != "midrun_disk":
        assert est.value == oracles.holder_quotient_pairs(f, alpha)


@pytest.mark.parametrize("alpha", [0.5, 1.0])
@pytest.mark.parametrize("axis", [0, 1])
def test_holder_quotient_mirror_pruning_is_exact(axis, alpha):
    import oracles

    # mirror-symmetric to the bit along ``axis`` only, around a hole of
    # masked-out cells, which the sweep stores as NaN: the symmetry test
    # has to treat NaN as equal to NaN, or it never prunes
    g = make_grid([-2, -2], [2, 2], 1 / 16)
    fns = [lambda x, y: 0.3 * x * x + np.sin(2 * y), lambda x, y: np.tanh(3 * x) + 0.3 * y * y]
    f = make_field(g, fns[axis], mask=_hole)
    assert np.array_equal(f.values, np.flip(f.values, axis))
    assert not np.array_equal(f.values, np.flip(f.values, 1 - axis))
    est = holder_quotient(f, alpha)
    assert est.value == oracles.holder_quotient_pairs(f, alpha)
    # one cell one ulp up breaks the mirror: the whole half-plane is swept
    vals = f.values.copy()
    cell = tuple(np.argwhere(f.mask)[5])
    vals[cell] = np.nextafter(vals[cell], 2.0)
    skew = Field(f.grid, vals, f.mask)
    full = holder_quotient(skew, alpha)
    assert full.value == oracles.holder_quotient_pairs(skew, alpha)
    assert full.pairs_used > 1.5 * est.pairs_used


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_holder_half_window_on_point_symmetric_field(alpha):
    import oracles

    # mirror-symmetric to the bit along both axes around a hole: each
    # offset's maximum is taken over half of its window
    g = make_grid([-2, -2], [2, 2], 1 / 16)
    f = make_field(g, lambda x, y: np.tanh(3 * x * x) + 0.3 * y * y - 0.1 * x * x * y * y,
                   mask=_hole)
    half = HolderTable(f)
    assert half.point_symmetric
    full = HolderTable(f)
    full.point_symmetric = False
    assert np.array_equal(half.offsets, full.offsets)
    for k in range(len(half.offsets)):
        (a, pa), (b, pb) = half.offset_max(k), full.offset_max(k)
        assert pa == pb
        assert a.tobytes() == b.tobytes()
    est = holder_quotient(f, alpha, half)
    assert est.value == oracles.holder_quotient_pairs(f, alpha)
    assert est.pairs_used == holder_quotient(f, alpha, full).pairs_used

    # symmetric along one mirror only: full windows
    one = make_field(g, lambda x, y: 0.3 * x * x + np.sin(2 * y), mask=_hole)
    table = HolderTable(one)
    assert not table.point_symmetric
    assert bool(np.all(table.offsets[:, 1] >= 0))
    assert holder_quotient(one, alpha, table).value == oracles.holder_quotient_pairs(one, alpha)


@pytest.mark.parametrize("alphas", [(0.5, 1.0), (1.0, 0.5)])
@pytest.mark.parametrize("symmetric", [True, False])
def test_holder_table_matches_independent_sweeps(symmetric, alphas, monkeypatch):
    g = make_grid([-2, -2], [2, 2], 1 / 16)
    if symmetric:  # bit-symmetric along axis 0: the quarter plane is swept
        fn = lambda x, y: 0.3 * x * x + np.sin(2 * y)
    else:
        fn = lambda x, y: np.tanh(3 * x) + 0.5 * np.sin(2 * y + 0.3)
    f = make_field(g, fn, mask=_hole)
    windows = []

    def counting(d, shape):
        windows.append(1)
        return shift_windows(d, shape)

    monkeypatch.setattr(grid_mod, "shift_windows", counting)
    alone, passes = [], []
    for a in alphas:
        alone.append(holder_quotient(f, a))
        passes.append(len(windows))
        windows.clear()
    table = HolderTable(f)
    assert bool(np.all(table.offsets[:, 1] >= 0)) == symmetric
    shared = [holder_quotient(f, a, table) for a in alphas]
    for est, ref in zip(shared, alone):
        assert est.value == ref.value
        assert est.pairs_used == ref.pairs_used
    # each offset is passed over once, for whichever exponent reaches it first
    assert max(passes) <= len(windows) < sum(passes)


def test_holder_table_rejects_another_field():
    g = make_grid([-1, -1], [1, 1], 0.25)
    f = make_field(g, lambda x, y: x + y)
    table = HolderTable(f)
    with pytest.raises(PreconditionError, match="another field"):
        holder_quotient(Field(f.grid, f.values * 2.0, f.mask), 0.5, table)


@pytest.mark.parametrize("shape,d", [
    ((7,), (0,)), ((7,), (3,)), ((7,), (-2,)), ((7,), (7,)), ((7,), (-9,)),
    ((5, 6), (0, 0)), ((5, 6), (2, -3)), ((5, 6), (-4, 1)), ((5, 6), (0, 5)),
    ((5, 6), (5, 0)), ((5, 6), (-1, -6)), ((5, 6), (8, -8)),
])
def test_shift_windows_against_cell_loop(shape, d):
    arr = np.arange(np.prod(shape), dtype=np.float64).reshape(shape)
    here, there = shift_windows(d, shape)
    moved = np.full(shape, -1.0)
    moved[there] = arr[here]
    ref = np.full(shape, -1.0)
    for x in np.ndindex(shape):
        y = tuple(xi + di for xi, di in zip(x, d))
        if all(0 <= yi < n for yi, n in zip(y, shape)):
            ref[y] = arr[x]
    assert np.array_equal(moved, ref)
    assert arr[here].shape == arr[there].shape
    if any(abs(di) >= n for di, n in zip(d, shape)):
        assert arr[here].size == 0


def test_pairwise_sum_deterministic_and_correct():
    rng = np.random.default_rng(11)
    x = rng.uniform(-1, 1, 10001)
    s1 = pairwise_sum(x)
    s2 = pairwise_sum(x.copy())
    assert s1 == s2
    assert abs(s1 - float(np.sum(x))) < 1e-9


def test_field_csv_format(tmp_path):
    g = make_grid([0.0, 0.0], [0.5, 0.5], 0.25)
    f = make_field(g, lambda x, y: x + 10 * y, mask=lambda x, y: x < 0.3)
    path = tmp_path / "f.csv"
    field_to_csv(f, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "x0,x1,value,mask"
    assert len(lines) == 1 + math.prod(g.counts)
    # lexicographic cell order, 17 significant digits survive round-trip
    first = lines[1].split(",")
    assert float(first[0]) == 0.125 and float(first[1]) == 0.125
    assert float(first[2]) == 0.125 + 10 * 0.125
    rows = [ln.split(",") for ln in lines[1:]]
    masked_out = [r for r in rows if r[3] == "0"]
    assert all(float(r[2]) == 0.0 for r in masked_out)


@pytest.mark.parametrize("dim", [1, 2])
def test_field_csv_matches_row_writer(tmp_path, dim):
    import oracles

    # 2-D: 6400 cells in 80 rows of the writer
    g = make_grid([-5.0] * dim, [5.0] * dim, 0.125)
    rng = np.random.default_rng(5)
    mask = rng.uniform(size=g.shape) < 0.7
    f = Field(g, np.where(mask, rng.normal(size=g.shape) / 3.0, 0.0), mask)
    fast, ref = tmp_path / "fast.csv", tmp_path / "ref.csv"
    field_to_csv(f, fast)
    oracles.field_csv_rows(f, ref)
    assert fast.read_bytes() == ref.read_bytes()


def _csv_case(name):
    if name == "non_square":
        # 40 x 12 cells on different extents: swapped axes would show
        g = make_grid([-2.0, -1.0], [3.0, 0.5], 0.125)
        rng = np.random.default_rng(6)
        mask = rng.uniform(size=g.shape) < 0.6
        return Field(g, rng.normal(size=g.shape), mask)
    if name in ("specials_2d", "specials_1d"):
        dim = 2 if name == "specials_2d" else 1
        g = make_grid([-1.0] * dim, [1.0] * dim, 0.25)
        special = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.0, -1e300, 0.1]
        vals = np.resize(np.array(special), math.prod(g.counts)).reshape(g.shape)
        return Field(g, vals, np.ones(g.shape, dtype=bool))
    if name.startswith("mirrored"):
        # rows equal to their own reverse bit for bit (the writer formats
        # half of each), rows equal to it only by value (0.0 against -0.0)
        # and rows that are not; the mask is not symmetric
        dim = 1 if name == "mirrored_1d" else 2
        half = 1.125 if name == "mirrored_odd" else 1.0  # 9 or 8 cells a row
        g = make_grid([-1.0] * (dim - 1) + [-half], [1.0] * (dim - 1) + [half], 0.25)
        rng = np.random.default_rng(8)
        vals = rng.normal(size=g.shape)
        vals += np.flip(vals, -1)
        vals[..., [1, -2]] = -0.0
        if dim == 1:
            vals[[2, -3]] = math.nan
        else:
            vals[::3, [2, -3]] = math.nan
            vals[1, 0], vals[1, -1] = 0.0, -0.0
            vals[2, 0] += 1.0
        return Field(g, vals, rng.uniform(size=g.shape) < 0.6)
    g = make_grid([-1.0, -0.5], [1.0, 0.5], 0.125)
    vals = np.random.default_rng(7).normal(size=g.shape)
    return Field(g, vals, np.full(g.shape, name == "all_in"))


@pytest.mark.parametrize("name", ["non_square", "specials_2d", "specials_1d",
                                  "all_in", "all_out", "mirrored_even", "mirrored_odd",
                                  "mirrored_1d"])
def test_field_csv_matches_row_writer_edge_cases(tmp_path, name):
    import oracles

    f = _csv_case(name)
    fast, ref = tmp_path / "fast.csv", tmp_path / "ref.csv"
    field_to_csv(f, fast)
    oracles.field_csv_rows(f, ref)
    assert fast.read_bytes() == ref.read_bytes()
