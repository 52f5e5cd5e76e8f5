import numpy as np
import pytest

import oracles
from nlrd import (
    Bistable,
    ExtendedNonlinearity,
    PreconditionError,
    even_potential,
    make_bistable,
)


def test_reference_cubic_constants(ref_f):
    # critical point of f' at s = (1+theta)/3 = 13/30
    assert abs(ref_f.max_fprime - 79 / 300) < 1e-15
    assert abs(float(ref_f.fprime(13 / 30)) - 79 / 300) < 1e-12
    assert float(ref_f.fprime(0.0)) == pytest.approx(-0.3, abs=1e-15)
    assert float(ref_f.fprime(1.0)) == pytest.approx(-0.7, abs=1e-15)
    assert ref_f.max_fprime < 0.5  # flat enough for the measurable-solution pathway
    assert ref_f.max_abs_fprime == 0.7  # -min f' = |f'(1)| = 1 - theta
    # integral against an independent Simpson oracle
    quad = oracles.simpson(ref_f.f, 0.0, 1.0)
    assert abs(ref_f.int_f - 1 / 30) < 1e-15
    assert abs(quad - 1 / 30) < 1e-12


def test_scan_oracle_agrees_with_closed_form_maxfp(ref_f):
    s = np.linspace(0, 1, 200001)
    scan = float(np.max(ref_f.fprime(s)))
    assert abs(scan - 79 / 300) < 1e-9


def test_max_abs_fprime_matches_scan_oracle():
    # the closed form max(|f'(0)|, |f'(1)|) against the 4001-point |f'| scan
    # it replaces, bit for bit, over a sweep of valid (theta, amplitude)
    pairs = 0
    for theta in np.linspace(0.01, 0.49, 49):
        a_max = 3.0 / (1.0 - theta + theta * theta)  # max f' < 1
        for amplitude in np.linspace(0.05, 0.999 * a_max, 40):
            f = make_bistable(theta, amplitude)
            assert f.max_abs_fprime == oracles.max_abs_fprime_scan(f), (theta, amplitude)
            pairs += 1
    assert pairs == 49 * 40


def test_theta_above_half_rejected_by_integral_clause():
    with pytest.raises(PreconditionError, match="int_0\\^1 f"):
        make_bistable(0.6, 1.0)


def test_direct_construction_is_validated():
    # every Bistable that exists is valid: the constructor itself rejects
    with pytest.raises(PreconditionError, match="int_0\\^1 f"):
        Bistable(0.6, 1.0)
    with pytest.raises(PreconditionError, match="amplitude"):
        Bistable(0.3, 0.0)


def test_bad_amplitude_and_theta():
    with pytest.raises(PreconditionError):
        make_bistable(0.3, -1.0)
    with pytest.raises(PreconditionError):
        make_bistable(1.2, 1.0)


def test_fprime_below_one_clause():
    # amplitude pushing max f' to 1 violates the slope bound
    with pytest.raises(PreconditionError, match="f' < 1"):
        make_bistable(0.3, 3.0 / 0.79 + 0.01)


def test_stiffness_gamma_is_exact_complement(ref_f):
    assert ref_f.gamma == 1.0 - ref_f.max_fprime
    assert abs(ref_f.gamma - 221 / 300) < 1e-15


def test_stiffness_scaled_amplitude():
    theta = 0.3
    a = 0.49 * 3.0 / (1.0 - theta + theta * theta)
    f = make_bistable(theta, a)
    assert abs(f.max_fprime - 0.49) < 1e-15
    assert abs(f.gamma - 0.51) < 1e-15


def test_antiderivative_at_one(ref_f):
    assert abs(float(ref_f.antiderivative(1.0)) - 1 / 30) < 1e-15
    quad = oracles.simpson(ref_f.f, 0.0, 1.0)
    assert abs(float(ref_f.antiderivative(1.0)) - quad) < 1e-12


@pytest.mark.parametrize("mode", ["odd", "zero-left"])
def test_extension_is_identity_on_unit_interval(ref_f, mode):
    # the odd extension enters only through its antiderivative, the even
    # potential, and the zero-left one only through f
    s = np.linspace(0.0, 1.0, 1001)
    if mode == "odd":
        got, base = even_potential(ref_f, s), ref_f.antiderivative(s)
    else:
        got, base = ExtendedNonlinearity(ref_f).f(s), ref_f.f(s)
    assert float(np.max(np.abs(got - base))) == 0.0


def test_extension_tails(ref_f):
    zl = ExtendedNonlinearity(ref_f)
    assert float(zl.f(-5.0)) == 0.0
    assert float(zl.f(1.5)) == pytest.approx(float(ref_f.fprime(1.0)) * 0.5, abs=1e-14)
    # past 1 the potential is int_0^1 f + f'(1)(|t| - 1)^2 / 2, on either side
    tail = 1 / 30 + 0.5 * float(ref_f.fprime(1.0)) * 0.25
    for t in (1.5, -1.5):
        assert even_potential(ref_f, t) == pytest.approx(tail, abs=1e-15)


def test_odd_extension_even_antiderivative(ref_f):
    t = np.linspace(-2.0, 2.0, 401)
    assert np.max(np.abs(even_potential(ref_f, t) - even_potential(ref_f, np.abs(t)))) == 0.0


def test_g_strictly_increasing(ref_f):
    s = np.linspace(0.0, 1.0 - 1e-3, 1000)
    delta = 1e-3
    g0 = s - ref_f.f(s)
    g1 = (s + delta) - ref_f.f(s + delta)
    assert np.all(g1 > g0)


def test_in_range_shortcut_matches_general_path(ref_f):
    ext = ExtendedNonlinearity(ref_f)
    rng = np.random.default_rng(11)
    s = np.concatenate([[0.0, -0.0, ref_f.theta, 1.0], rng.uniform(0.0, 1.0, 500)])
    fast = ext.f(s)
    # one out-of-range entry sends the whole array down the general path
    general = ext.f(np.append(s, 1.5))
    assert fast.view(np.uint64).tolist() == general[:-1].view(np.uint64).tolist()
    assert fast.view(np.uint64).tolist() == ref_f.f(s).view(np.uint64).tolist()
    # and that entry still gets the tail value, on either side
    assert general[-1] == float(ref_f.fprime(1.0)) * 0.5
    low = ext.f(np.append(s, -0.5))
    assert low[-1] == ext.f(-0.5) and low[-1] == 0.0
    # 0-d inputs keep returning a Python float
    for x in (0.5, np.float64(0.5), np.array(1.0), -0.5, 1.5):
        assert type(ext.f(x)) is float
    assert ext.f(0.5) == float(ref_f.f(0.5))
    # NaN is not in [0, 1]: it takes the general path and stays NaN
    assert np.isnan(ext.f(np.array([0.5, np.nan]))[1])
