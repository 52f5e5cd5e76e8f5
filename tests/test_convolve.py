"""Bit-level checks of the direct convolution path.

The direct path sums each cell's taps in row-major table order. The
exact assertions of the comparison suite and the exact translation
identity of the ball construction rely on that order, so these tests pin
it bit for bit against the plain shifted-slice oracles.
"""

import numpy as np
import pytest

import oracles
from nlrd import KernelProfile, build_kernel, make_grid
from nlrd.convolve import convolve, convolve_at


def _bits(x):
    return np.asarray(x, dtype=np.float64).view(np.uint64)


def _kernel(profile, dim):
    lo, hi = [-4.0] * dim, [4.0] * dim
    return build_kernel(profile, make_grid(lo, hi, 1 / 16))


PROFILES = {
    "quartic": KernelProfile("quartic", 0.5),
    "ring": KernelProfile("ring", 0.5, inner_radius=0.25),
}


def _field(shape, seed):
    """Negative values, exact zeros and a zeroed hole."""
    rng = np.random.default_rng(seed)
    arr = rng.uniform(-1.0, 1.0, shape)
    arr[rng.uniform(size=shape) < 0.1] = 0.0
    centre = tuple(n // 3 for n in shape)
    dist2 = sum((ix - c) ** 2 for ix, c in zip(np.indices(shape), centre))
    arr[dist2 <= (min(shape) // 4) ** 2] = 0.0
    return arr


SHAPES = {1: [(5,), (17,), (80,)], 2: [(5, 7), (9, 30), (40, 33)]}


@pytest.mark.parametrize("name", sorted(PROFILES))
@pytest.mark.parametrize("dim", [1, 2])
def test_direct_path_matches_shifted_slice_oracle(name, dim):
    k = _kernel(PROFILES[name], dim)
    if name == "ring":
        assert np.count_nonzero(k.weights == 0.0) > 1  # zeros inside the support
    assert min(SHAPES[dim][0]) < 2 * k.reach + 1
    for seed, shape in enumerate(SHAPES[dim]):
        arr = _field(shape, seed)
        got = convolve(arr, k, "direct")
        want = oracles.conv_box(arr, k)
        assert np.array_equal(got, want)
        assert np.array_equal(_bits(got), _bits(want))


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
            one = convolve_at(arr, k, idx)
            assert _bits(one) == _bits(full[idx]), (shape, idx)
            assert one == oracles.conv_at(arr, k, idx)
