import numpy as np
import pytest

from nlrd import (
    Field,
    KernelProfile,
    PreconditionError,
    Problem,
    apply_L,
    build_kernel,
    build_obstacle,
    make_grid,
    residual,
)


@pytest.fixture(scope="module")
def empty_problem(ref_f):
    g = make_grid([-4, -4], [4, 4], 1 / 16)
    k = build_kernel(KernelProfile("quartic", 0.5), g)
    K = build_obstacle("none", {}, g)
    return Problem(k, K, ref_f, conv_path="direct")


def test_constants_annihilated_exactly(empty_problem):
    p = empty_problem
    ones = Field(p.grid, np.ones(p.grid.shape), p.domain_mask)
    Lu = apply_L(p, ones, "direct")
    assert float(np.max(np.abs(Lu.values))) == 0.0


def test_counterexample_field_in_kernel(annulus_problem):
    p = annulus_problem
    from nlrd.verify import counterexample_field

    u = counterexample_field(p)
    Lu = apply_L(p, u, "direct")
    assert float(np.max(np.abs(Lu.values[p.domain_mask]))) == 0.0
    r, sup = residual(p, u, "direct")
    assert sup == 0.0


def test_single_spike_by_hand(empty_problem):
    p = empty_problem
    k = p.kernel
    h = p.grid.h
    c = (p.grid.counts[0] // 2, p.grid.counts[1] // 2)
    vals = np.zeros(p.grid.shape)
    vals[c] = 1.0
    u = Field(p.grid, vals, p.domain_mask)
    Lu = apply_L(p, u, "direct").values
    # off the spike: J(y - x0) h^2; at the spike: -(1 - J(0) h^2)
    for d in ((1, 0), (0, 3), (-5, 2)):
        y = (c[0] + d[0], c[1] + d[1])
        w = k.weights[d[0] + k.reach, d[1] + k.reach]
        assert Lu[y] == pytest.approx(w * h * h, abs=1e-18)
    assert Lu[c] == pytest.approx(-(1.0 - k.center_weight * h * h), abs=1e-14)


def test_residual_trivial_zeros(empty_problem, ref_f):
    p = empty_problem
    ones = p.constant_datum(1.0)
    _, sup = residual(p, ones, "direct")
    assert sup == 0.0
    # u = theta is masked by the clamp band, so test on the ball equation:
    # f(theta) = 0 exactly in the factored form
    assert float(ref_f.f(ref_f.theta)) == 0.0


def test_residual_requires_clamped_field(empty_problem):
    p = empty_problem
    bad = Field(p.grid, np.zeros(p.grid.shape), p.domain_mask)
    with pytest.raises(PreconditionError, match="clamp"):
        residual(p, bad)


def test_path_equivalence_random_fields(empty_problem):
    p = empty_problem
    rng = np.random.default_rng(0)
    for _ in range(10):
        u = Field(p.grid, rng.uniform(0, 1, p.grid.shape), p.domain_mask)
        a = apply_L(p, u, "direct").values
        b = apply_L(p, u, "fast").values
        assert float(np.max(np.abs(a - b))) <= 1e-10


def test_both_path_cross_checks(empty_problem):
    p = empty_problem
    rng = np.random.default_rng(1)
    u = Field(p.grid, rng.uniform(0, 1, p.grid.shape), p.domain_mask)
    out = apply_L(p, u, "both")
    assert np.array_equal(out.values, apply_L(p, u, "direct").values)


def test_translation_equivariance_exact(empty_problem):
    p = empty_problem
    rng = np.random.default_rng(2)
    vals = rng.uniform(0, 1, p.grid.shape)
    u = Field(p.grid, vals, p.domain_mask)
    shifted = np.zeros_like(vals)
    shifted[1:, :] = vals[:-1, :]
    us = Field(p.grid, shifted, p.domain_mask)
    Lu = apply_L(p, u, "direct").values
    Lus = apply_L(p, us, "direct").values
    # interior rows shift bit-identically (direct path, fixed order)
    assert np.array_equal(Lus[1 + 8 : -8, 8:-8], Lu[8:-8, 8:-8][: -0 or None][:-1, :])


def test_offdiagonal_monotonicity(empty_problem):
    p = empty_problem
    rng = np.random.default_rng(3)
    for _ in range(20):
        u = rng.uniform(0, 1, p.grid.shape)
        v = u + rng.uniform(0, 1) * (1.0 - u)
        c = tuple(rng.integers(16, np.array(p.grid.shape) - 16))
        v[c] = u[c]  # contact point
        Lu = apply_L(p, Field(p.grid, u, p.domain_mask), "direct").values
        Lv = apply_L(p, Field(p.grid, v, p.domain_mask), "direct").values
        assert Lu[c] <= Lv[c] + 1e-15


def test_next_fast_len_properties():
    from nlrd.convolve import next_fast_len

    def smooth5(m):
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        return m == 1

    for n in list(range(1, 600)) + [1021, 4099, 65537]:
        m = next_fast_len(n)
        assert m >= n
        assert smooth5(m)
        assert m <= 1 << (n - 1).bit_length() if n > 1 else True


def test_problem_validations(grid4, ref_f):
    k = build_kernel(KernelProfile("quartic", 0.5), grid4)
    K = build_obstacle("none", {}, grid4)
    with pytest.raises(PreconditionError, match="clamp"):
        Problem(k, K, ref_f, clamp_width=0.25)
    Kbig = build_obstacle("ball", {"radius": 3.8}, grid4, margin=0.0)
    with pytest.raises(PreconditionError, match="clamp"):
        Problem(k, Kbig, ref_f)
