import dataclasses
import math

import numpy as np
import pytest

import oracles
from nlrd import (
    KernelProfile,
    PreconditionError,
    build_kernel,
    kernel_constants,
    make_grid,
    marginal_j1,
)


@pytest.fixture(scope="module")
def grid2():
    return make_grid([-4, -4], [4, 4], 1 / 16)


def test_tophat_unit_mass_and_annulus(grid2):
    k = build_kernel(KernelProfile("tophat", 0.5), grid2)
    assert abs(oracles.kernel_mass(k) - 1.0) < 1e-12
    assert k.r1 == 0.0 and k.r2 == 0.5
    # continuum density: the closed-form normalizer integrates to one
    prof = KernelProfile("tophat", 0.5)
    mass = oracles.radial_integral_2d(lambda r: prof.density(r, 2), 0.5)
    assert abs(mass - 1.0) < 1e-10


def test_quartic_normalizer_against_quadrature(grid2):
    prof = KernelProfile("quartic", 0.5)
    # int_0^R (1 - r^2/R^2)^2 2 pi r dr = pi R^2 / 3, so the normalizer is
    # 3 / (pi R^2); the sampled kernel then carries unit discrete mass
    mass = oracles.radial_integral_2d(lambda r: prof.density(r, 2), 0.5)
    assert abs(mass - 1.0) < 1e-10
    assert abs(prof.density(np.array(0.0), 2) - 3.0 / (math.pi * 0.25)) < 1e-14
    k = build_kernel(prof, grid2)
    assert abs(oracles.kernel_mass(k) - 1.0) < 1e-12


def test_ring_kernel_positive_annulus(grid2):
    k = build_kernel(KernelProfile("ring", 0.5, 0.25), grid2)
    assert abs(oracles.kernel_mass(k) - 1.0) < 1e-12
    assert (k.r1, k.r2) == (0.25, 0.5)
    oi, oj = k.offsets()
    r = np.hypot(oi, oj) * k.h
    inside = (r > 0.25) & (r < 0.5)
    assert np.all(k.weights[inside] > 0)
    assert np.all(k.weights[r < 0.25 - 1e-12] == 0.0)


def test_exact_lattice_symmetry(grid2):
    for kind in ("tophat", "quartic", "ring"):
        prof = KernelProfile(kind, 0.5, 0.25 if kind == "ring" else 0.0)
        w = build_kernel(prof, grid2).weights
        assert np.array_equal(w, w[::-1, :])
        assert np.array_equal(w, w[:, ::-1])
        assert np.array_equal(w, w.T)


def test_rejections(grid2):
    with pytest.raises(PreconditionError):
        build_kernel(KernelProfile("tophat", 0.05), grid2)  # support under 2h
    with pytest.raises(PreconditionError):
        build_kernel(KernelProfile("ring", 0.5, 0.45), grid2)  # annulus under 2h


def test_uneven_table_rejected(grid2):
    # the direct convolution folds mirrored taps, so J(-z) = J(z) bit for bit
    k = build_kernel(KernelProfile("quartic", 0.5), grid2)
    m = k.reach
    for at, axis in [((m + 1, m), 0), ((m, m - 2), 1), ((m + 3, m + 1), 0)]:
        w = k.weights.copy()
        w[at] = np.nextafter(w[at], np.inf)  # one ulp off its mirror
        with pytest.raises(PreconditionError, match=f"not even along axis {axis}"):
            dataclasses.replace(k, weights=w)
    j = marginal_j1(k)
    w = j.weights.copy()
    w[m + 2] *= 2.0
    with pytest.raises(PreconditionError, match="not even along axis 0"):
        dataclasses.replace(j, weights=w)


def test_marginal_tophat_closed_form():
    # J1(x) = (8/pi) sqrt(1/4 - x^2): the discrete marginal converges at
    # first order, so the sup error must roughly halve from h to h/2
    errs = {}
    for h in (1 / 16, 1 / 32):
        g = make_grid([-4, -4], [4, 4], h)
        k = build_kernel(KernelProfile("tophat", 0.5), g)
        j1 = marginal_j1(k)
        assert j1.dim == 1
        assert abs(oracles.kernel_mass(j1) - 1.0) < 1e-12
        assert np.array_equal(j1.weights, j1.weights[::-1])
        xs = np.arange(-j1.reach, j1.reach + 1) * j1.h
        exact = (8.0 / math.pi) * np.sqrt(np.clip(0.25 - xs**2, 0.0, None))
        inside = np.abs(xs) <= 0.45  # away from the rim where the error peaks
        errs[h] = float(np.max(np.abs(j1.weights[inside] - exact[inside])))
        assert errs[h] < 3.0 * h
    assert errs[1 / 32] < 0.75 * errs[1 / 16]


def test_marginal_dim1_identity():
    g = make_grid([-4], [4], 1 / 16)
    k = build_kernel(KernelProfile("quartic", 0.5), g)
    assert marginal_j1(k) is k


def test_kernel_constants_quartic(grid2, ref_f):
    k = build_kernel(KernelProfile("quartic", 0.5), grid2)
    kc = kernel_constants(k, ref_f, [0.5, 1.0])
    # closed-form gradient mass 16/(5 R) = 6.4 against radial quadrature
    prof = KernelProfile("quartic", 0.5)
    c0 = 3.0 / (math.pi * 0.25)

    def grad_mag(r):
        return c0 * 4.0 * r / 0.25 * np.clip(1.0 - r * r / 0.25, 0.0, None)

    quad = oracles.radial_integral_2d(grad_mag, 0.5)
    assert abs(quad - 6.4) < 1e-8
    assert kc.w11 == 6.4
    assert abs(oracles.central_diff_grad_l1(k) - kc.w11) / kc.w11 < 0.05
    # delta0 is stored as the defining quotient
    assert kc.delta0 == ref_f.gamma / kc.w11
    assert abs(kc.delta0 - 0.1151) < 5e-4
    assert all(v > 0 for v in kc.nikolskii.values())


def test_kernel_constants_tophat_marker(grid2, ref_f):
    k = build_kernel(KernelProfile("tophat", 0.5), grid2)
    kc = kernel_constants(k, ref_f, [1.0])
    assert kc.w11 is None and kc.delta0 is None


def test_nikolskii_tophat_smallest_shift(grid2, ref_f):
    k = build_kernel(KernelProfile("tophat", 0.5), grid2)
    kc = kernel_constants(k, ref_f, [1.0])
    probe = oracles.shifted_l1_tophat_axis(k, 1) / k.h
    assert kc.nikolskii[1.0] == pytest.approx(probe, rel=1e-12)


def test_d0_bisection_against_oracle(grid2, ref_f):
    k = build_kernel(KernelProfile("quartic", 0.5), grid2)
    kc = kernel_constants(k, ref_f, [1.0])
    oracle = oracles.d0_threshold(0.5, 2, 1 / 30)
    assert abs(kc.d0 - oracle) < 2e-6
    # closed form: (1 - R_J/R)^2 = 14/15
    closed = 0.5 / (1.0 - math.sqrt(14.0 / 15.0))
    assert abs(kc.d0 - closed) < 2e-6
    assert abs(kc.d0 - 14.75) < 0.01
    # the energy inequality is strict just above d0 and fails just below

    def excess(R):
        return 0.5 * (1.0 - (1.0 - 0.5 / R) ** 2) - 1 / 30

    assert excess(kc.d0 + 1e-6) < 0.0
    assert excess(max(0.5, kc.d0 - 1e-6)) > 0.0


def test_d0_one_dimensional(ref_f):
    g = make_grid([-4], [4], 1 / 16)
    k = build_kernel(KernelProfile("quartic", 0.5), g)
    kc = kernel_constants(k, ref_f, [1.0])
    # (1/2)(R_J / R) = int f gives R = R_J / (2 int f) = 7.5 exactly
    assert abs(kc.d0 - 7.5) < 2e-6


def test_marginal_preserves_mass_for_all_profiles(grid2):
    for kind, inner in (("tophat", 0.0), ("quartic", 0.0), ("ring", 0.25)):
        k = build_kernel(KernelProfile(kind, 0.5, inner), grid2)
        j1 = marginal_j1(k)
        assert abs(oracles.kernel_mass(j1) - 1.0) < 1e-12
