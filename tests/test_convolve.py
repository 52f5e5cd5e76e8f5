"""Bit-level checks of the convolution paths.

The direct path folds mirrored taps: over the quarter taps of the table
(offsets >= 0, row-major order) each cell adds the weight times the sum
of its mirror images, row images first. The exact assertions of the
comparison suite and the exact translation identity of the ball
construction rely on that fixed per-cell order, so these tests pin it
bit for bit against the plain-loop fold oracles, bound its distance from
the row-major shifted-slice oracle by the forward error of the two sums,
and check its exact properties directly. The fast path runs one axis at
a time through reused buffers; its bits are pinned to a one-shot
``rfftn``/``irfftn`` pair.
"""

import contextlib
import tracemalloc

import numpy as np
import pytest

import oracles
from nlrd import Kernel, KernelProfile, build_kernel, make_grid
from nlrd import convolve as convolve_mod
from nlrd.convolve import _conv_inner, convolve, fft_buffers, next_fast_len


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def _cell(arr, k, idx):
    """J * arr at the cell ``idx``, at least the reach m from every edge:
    the window loop on the (2m+1)^dim block around it, as the strong
    comparison suite reads L w at a planted cell."""
    m = k.reach
    return _conv_inner(arr[tuple(slice(i - m, i + m + 1) for i in idx)], k).item()


def _padded_cell(arr, k, idx):
    """J * arr at any cell of its box: :func:`_cell` on the box zero-padded
    by the reach."""
    return _cell(np.pad(arr, k.reach), k, tuple(i + k.reach for i in idx))


def _kernel(profile, dim):
    lo, hi = [-4.0] * dim, [4.0] * dim
    return build_kernel(profile, make_grid(lo, hi, 1 / 16))


PROFILES = {
    "quartic": KernelProfile("quartic", 0.5),
    "ring": KernelProfile("ring", 0.5, inner_radius=0.25),
    "tophat": KernelProfile("tophat", 0.5),
}


def _field(shape, seed):
    """Negative values over 40 binades, exact zeros and a zeroed hole.

    Uniform draws on [-1, 1) are multiples of 2^-52, so a sum of a few
    is exact and every summation order gives the same bits; the spread
    of exponents makes the order show."""
    rng = np.random.default_rng(seed)
    arr = rng.uniform(-1.0, 1.0, shape) * 2.0 ** rng.integers(-20, 20, shape)
    arr[rng.uniform(size=shape) < 0.1] = 0.0
    centre = tuple(n // 3 for n in shape)
    dist2 = sum((ix - c) ** 2 for ix, c in zip(np.indices(shape), centre))
    arr[dist2 <= (min(shape) // 4) ** 2] = 0.0
    return arr


SHAPES = {1: [(5,), (17,), (80,)], 2: [(5, 7), (9, 30), (40, 33)]}


def _gamma(n):
    """gamma_n = n u / (1 - n u), u the unit roundoff of float64."""
    nu = n * np.finfo(np.float64).eps / 2
    return nu / (1 - nu)


@pytest.mark.parametrize("name", sorted(PROFILES))
@pytest.mark.parametrize("dim", [1, 2])
def test_direct_path_matches_shifted_slice_oracle(name, dim):
    k = _kernel(PROFILES[name], dim)
    if name == "ring":
        assert np.count_nonzero(k.weights == 0.0) > 1  # zeros inside the support
    assert min(SHAPES[dim][0]) < 2 * k.reach + 1
    # each of the two sums is within gamma_n (|J| * |arr|) of the exact
    # value, n the number of taps; h^dim is a power of two, so the final
    # scaling is exact, and the computed |J| * |arr| is at most gamma_n low
    g = _gamma(len(k.taps))
    assert np.log2(k.h**dim).is_integer()
    for seed, shape in enumerate(SHAPES[dim]):
        arr = _field(shape, seed)
        got = convolve(arr, k, "direct")
        assert np.array_equal(_bits(got), _bits(oracles.conv_fold_box(arr, k)))
        bound = 2 * g * oracles.conv_box(np.abs(arr), k) / (1 - g)
        assert np.all(np.abs(got - oracles.conv_box(arr, k)) <= bound)


@pytest.mark.parametrize("name", sorted(PROFILES))
@pytest.mark.parametrize("dim", [1, 2])
def test_single_cell_matches_direct_path(name, dim):
    k = _kernel(PROFILES[name], dim)
    for seed, shape in enumerate(SHAPES[dim]):
        arr = _field(shape, seed + 7)
        full = convolve(arr, k, "direct")
        last = tuple(n - 1 for n in shape)
        mid = tuple(n // 2 for n in shape)
        edge = (0,) + mid[1:]
        cells = {(0,) * dim, last, mid, edge, tuple(n - 2 for n in shape)}
        for idx in cells:
            one = _padded_cell(arr, k, idx)
            assert _bits(one) == _bits(full[idx]), (shape, idx)
            assert _bits(one) == _bits(oracles.conv_fold_at(arr, k, idx))


@pytest.mark.parametrize("name", sorted(PROFILES))
@pytest.mark.parametrize("dim", [1, 2])
def test_direct_path_is_translation_equivariant(name, dim):
    k = _kernel(PROFILES[name], dim)
    m = k.reach
    field = _field((20, 23)[:dim], 11)
    grown = tuple(n + 2 * m for n in field.shape)  # the support of J * field
    big = (50, 52)[:dim]
    views = []
    for at in [(8, 8), (14, 11)]:
        arr = np.zeros(big)
        arr[tuple(slice(a, a + n) for a, n in zip(at, field.shape))] = field
        out = convolve(arr, k, "direct")
        win = tuple(slice(a - m, a - m + n) for a, n in zip(at, grown))
        views.append(out[win].copy())
        out[win] = 0.0
        assert not np.any(out)  # nothing off the support
    assert np.array_equal(_bits(views[0]), _bits(views[1]))
    # cut to the field's own box, zeros outside it are read as out-of-box
    alone = convolve(field, k, "direct")
    inner = tuple(slice(m, m + n) for n in field.shape)
    assert np.array_equal(_bits(views[0][inner]), _bits(alone))


@pytest.mark.parametrize("name", sorted(PROFILES))
@pytest.mark.parametrize("dim", [1, 2])
def test_direct_path_is_monotone(name, dim):
    k = _kernel(PROFILES[name], dim)
    rng = np.random.default_rng(12)
    for seed, shape in enumerate(SHAPES[dim]):
        arr = _field(shape, seed + 3)
        up = np.where(rng.uniform(size=shape) < 0.3, np.nextafter(arr, np.inf), arr)
        assert np.any(up > arr)
        assert np.all(convolve(up, k, "direct") >= convolve(arr, k, "direct"))


@pytest.mark.parametrize("name", sorted(PROFILES))
@pytest.mark.parametrize("dim", [1, 2])
def test_lone_cell_gives_weight_times_value(name, dim):
    k = _kernel(PROFILES[name], dim)
    m = k.reach
    eps = 3e-7
    shape = (30, 27)[:dim]
    at = (11, 9)[:dim]
    arr = np.zeros(shape)
    arr[at] = -eps
    want = np.zeros(shape)
    w = k.weights
    want[tuple(slice(a - m, a + m + 1) for a in at)] = np.where(
        w != 0.0, (w * -eps) * k.h**dim, 0.0)
    got = convolve(arr, k, "direct")
    assert np.array_equal(_bits(got), _bits(want))
    assert all(_bits(_padded_cell(arr, k, idx)) == _bits(want[idx])
               for idx in [at, (0,) * dim, tuple(a + 3 for a in at)])


def _reach1_kernel(dim):
    """An even table of reach 1, below what ``build_kernel`` accepts (2h)."""
    w = np.array([0.3, 1.7, 0.3])
    if dim == 2:
        w = np.outer(w, [0.6, 1.1, 0.6])
    return Kernel(h=0.25, dim=dim, radius=0.25, weights=w, reach=1,
                  profile=KernelProfile("tophat", 0.25))


@pytest.mark.parametrize("reach", [1, 8])
@pytest.mark.parametrize("dim", [1, 2])
def test_inner_window_matches_padded_direct_path(reach, dim):
    k = _reach1_kernel(dim) if reach == 1 else _kernel(PROFILES["quartic"], dim)
    assert k.reach == reach
    n = 2 * reach + 1  # the smallest box with a window: one cell
    shapes = {1: [(n,), (n + 1,), (n + 8,), (n + 9,)],
              2: [(n, n), (n + 1, n), (n, n + 9), (n + 8, n + 1)]}[dim]
    for seed, shape in enumerate(shapes):
        arr = _field(shape, seed)
        arr[np.random.default_rng(seed).uniform(size=shape) < 0.1] = -0.0
        arr.flat[0], arr.flat[-1] = -0.75, -0.0
        win = tuple(slice(reach, s - reach) for s in shape)
        got = _conv_inner(arr, k)
        full = convolve(arr, k, "direct")
        assert got.shape == tuple(s - 2 * reach for s in shape)
        assert np.array_equal(_bits(got), _bits(full[win]))
        last = tuple(s - reach - 1 for s in shape)  # the window's last cell
        for at in {(reach,) * dim, last, tuple((reach + b) // 2 for b in last)}:
            cell = tuple(a - reach for a in at)
            assert _bits(_cell(arr, k, at)) == _bits(got[cell]), (shape, at)


# the window loop's work arrays start on 64-byte lines, and its bits do
# not depend on where any array lands

BOX = (256, 256)  # the box of configs/liouville_disk.ini (h = 1/16)


def _spy_aligned(monkeypatch, fill=None):
    """Record the arrays ``_conv_inner`` takes from ``_line_aligned``;
    with ``fill`` each one is handed over filled with that value."""
    taken, real = [], convolve_mod._line_aligned

    def spy(n):
        arr = real(n)
        if fill is not None:
            arr.fill(fill)
        taken.append(arr)
        return arr

    monkeypatch.setattr(convolve_mod, "_line_aligned", spy)
    return taken


def _on_line(arr):
    return arr.ctypes.data % 64 == 0


@pytest.mark.parametrize("dim", [1, 2])
def test_window_loop_takes_its_work_arrays_on_lines(monkeypatch, dim):
    k = _kernel(PROFILES["quartic"], dim)
    m = k.reach
    shape = BOX[:dim]
    arr = _field(shape, 21)
    want = _conv_inner(arr, k)
    # NaN-filled work arrays: the loop writes every cell it reads
    taken = _spy_aligned(monkeypatch, fill=np.nan)
    got = _conv_inner(arr, k)
    assert got.tobytes() == want.tobytes()
    row = shape[1] if dim == 2 else 0
    size = arr.size - 2 * m * (row + 1)
    out = (shape[0] - 2 * m) * row if row else size
    assert [a.size for a in taken] == [out, size, size + 2 * m]  # out, tmp, strip
    assert all(_on_line(a) for a in taken)
    assert not any(np.shares_memory(got, a) for a in taken)


def test_line_aligned_arrays(monkeypatch):
    taken = _spy_aligned(monkeypatch)
    _conv_inner(_field(BOX, 22), _kernel(PROFILES["quartic"], 2))
    monkeypatch.undo()
    for n in [*range(1, 301), *(a.size for a in taken)]:
        # all 100 kept alive, so that each lands at a new address
        arrs = [convolve_mod._line_aligned(n) for _ in range(100)]
        for arr in arrs:
            assert arr.shape == (n,) and arr.dtype == np.float64
            assert arr.flags.c_contiguous and arr.flags.writeable
            assert _on_line(arr), (n, arr.ctypes.data % 64)


def _at_offset(field, cells):
    """A copy of ``field`` whose data starts ``cells`` float64 cells past a
    64-byte line, as a slice of a larger buffer."""
    buf = convolve_mod._line_aligned(field.size + 7)
    x = buf[cells : cells + field.size].reshape(field.shape)
    x[...] = field
    assert x.ctypes.data % 64 == 8 * cells and x.flags.c_contiguous
    return x


@pytest.mark.parametrize("reach", [1, 8])
@pytest.mark.parametrize("dim", [1, 2])
def test_window_loop_bits_do_not_depend_on_layout(reach, dim):
    k = _reach1_kernel(dim) if reach == 1 else _kernel(PROFILES["quartic"], dim)
    assert k.reach == reach
    shape = ((4 * reach + 9,), (4 * reach + 5, 4 * reach + 9))[dim - 1]
    field = _field(shape, 30 + reach)
    field[np.random.default_rng(reach).uniform(size=shape) < 0.1] = -0.0
    # a block of -0.0 wider than the support: its window cells sum -0.0
    # terms only, and read +0.0 from the +0.0 start of the accumulator
    field[tuple(slice(0, 2 * reach + 2) for _ in shape)] = -0.0
    win = tuple(slice(reach, n - reach) for n in shape)
    padded = convolve(field, k, "direct")[win].tobytes()
    on_line = _conv_inner(_at_offset(field, 0), k)
    assert on_line.tobytes() == padded
    assert on_line.flat[0] == 0.0 and not np.signbit(on_line.flat[0])
    last = tuple(n - reach - 1 for n in shape)
    cells = {(reach,) * dim, last, tuple((reach + b) // 2 for b in last)}
    for off in range(8):
        x = _at_offset(field, off)
        got = _conv_inner(x, k)
        assert got.tobytes() == padded, off
        assert got.tobytes() == on_line.tobytes(), off
        for at in cells:
            one = _cell(x, k, at)
            assert np.float64(one).tobytes() == got[tuple(a - reach for a in at)].tobytes()


def test_window_loop_holds_no_work_buffer():
    k = _kernel(PROFILES["quartic"], 2)
    arr = _field(BOX, 23)
    _conv_inner(arr, k)  # the kernel's cached taps are built here
    tracemalloc.start()
    try:
        got = _conv_inner(arr, k)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert got.shape == tuple(n - 2 * k.reach for n in BOX)
    assert held <= got.nbytes + 4096, (held, got.nbytes)


# fast path: buffered 1-D transforms against one-shot rfftn/irfftn

# (359,) pads to 375 = 3 * 5^3, an odd length; (5,) and (5, 7) are
# smaller than the kernel
FFT_SHAPES = {1: [(5,), (80,), (359,)], 2: [(5, 7), (40, 33), (359, 20)]}


def _oneshot(arr, k):
    s = tuple(next_fast_len(n + k.reach) for n in arr.shape)
    return oracles.conv_fft_oneshot(arr, k, s)


@pytest.mark.parametrize("dim", [1, 2])
def test_fast_path_matches_oneshot_fft(dim):
    k = _kernel(PROFILES["quartic"], dim)
    assert next_fast_len(359 + k.reach) == 375
    fields = [_field(shape, seed) for seed, shape in enumerate(FFT_SHAPES[dim])]
    wants = [_oneshot(arr, k) for arr in fields]
    for arr, want in zip(fields, wants):
        assert np.array_equal(_bits(convolve(arr, k, "fast")), _bits(want))
    with fft_buffers(k):
        # two passes over every shape, so each padded shape's buffers are
        # reused after the other shapes have run through the same kernel
        for _ in range(2):
            for arr, want in zip(fields, wants):
                assert np.array_equal(_bits(convolve(arr, k, "fast")), _bits(want))
    assert all(key[0] == "rfft" for key in k._fft_cache)


# the fast path pads each axis to L = next_fast_len(n + reach) only; for
# reach 8, L < 2 * reach + 1 crops the kernel on (5,) and (5, 7), and
# n + reach is already 5-smooth, so L leaves no slack past it, on (16,),
# (72,), (16, 40) and (72, 7); (81,) and (33, 72) round up
WRAP_SHAPES = {1: [(5,), (16,), (72,), (81,)], 2: [(5, 7), (16, 40), (72, 7), (33, 72)]}


@pytest.mark.parametrize("name", ["quartic", "ring"])
@pytest.mark.parametrize("dim", [1, 2])
def test_fast_path_does_not_wrap(name, dim):
    k = _kernel(PROFILES[name], dim)
    m = k.reach
    assert any(next_fast_len(n + m) < 2 * m + 1 for shape in WRAP_SHAPES[dim] for n in shape)
    assert any(next_fast_len(n + m) == n + m for shape in WRAP_SHAPES[dim] for n in shape)
    for seed, shape in enumerate(WRAP_SHAPES[dim]):
        arr = _field(shape, 40 + seed)
        # heavy values on every edge row and column: any tap that wraps
        # around the padded box lands them on the far side of the output
        for a, n in enumerate(shape):
            for i in (0, n - 1):
                arr[(slice(None),) * a + (i,)] = 100.0 * (1 + a + i % 2)
        fast, direct = convolve(arr, k, "fast"), convolve(arr, k, "direct")
        assert np.max(np.abs(fast - direct)) <= 1e-10, shape


@pytest.mark.parametrize("path", ["direct", "fast", "both"])
@pytest.mark.parametrize("dim", [1, 2])
def test_out_argument_returns_out(path, dim):
    k = _kernel(PROFILES["quartic"], dim)
    arr = _field(FFT_SHAPES[dim][1], 3)
    fresh = convolve(arr, k, path)
    for ctx in (contextlib.nullcontext(), fft_buffers(k)):
        with ctx:
            out = np.full(arr.shape, np.nan)
            got = convolve(arr, k, path, out=out)
            assert got is out
            assert np.array_equal(_bits(out), _bits(fresh))


@pytest.mark.parametrize("dim", [1, 2])
def test_buffered_results_are_not_overwritten(dim):
    k = _kernel(PROFILES["quartic"], dim)
    a, b = (_field(FFT_SHAPES[dim][2], seed) for seed in (4, 5))
    with fft_buffers(k):
        with fft_buffers(k):  # nested blocks share the outer block's buffers
            ra = convolve(a, k, "fast")
        keep = ra.copy()
        rb = convolve(b, k, "fast")
        assert not np.shares_memory(ra, rb)
        assert np.array_equal(_bits(ra), _bits(keep))
        assert np.array_equal(_bits(rb), _bits(_oneshot(b, k)))
        assert "buffers" in k._fft_cache
    assert all(key[0] == "rfft" for key in k._fft_cache)


def test_buffered_fast_path_allocates_no_box():
    k = _kernel(PROFILES["quartic"], 2)
    arr = _field((480, 480), 6)
    out = np.empty(arr.shape)
    padded = [next_fast_len(n + k.reach) for n in arr.shape]
    box_bytes = 8 * padded[0] * padded[1]
    with fft_buffers(k):
        convolve(arr, k, "fast", out=out)  # spectrum and buffers built here
        tracemalloc.start()
        try:
            for _ in range(10):
                convolve(arr, k, "fast", out=out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak < box_bytes / 8, (peak, box_bytes)
