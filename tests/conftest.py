"""Shared fixtures: the reference configuration and its expensive artifacts.

Session-scoped so the converged fields and ball solutions are computed
once and reused by the unit tests and the acceptance suite.
"""

from __future__ import annotations

import pytest

from nlrd import (
    KernelProfile,
    Problem,
    build_kernel,
    build_obstacle,
    kernel_constants,
    make_bistable,
    make_grid,
    marginal_j1,
)
from nlrd.solver import evolve, front_profile


@pytest.fixture(scope="session")
def ref_f():
    return make_bistable(0.3, 1.0)


@pytest.fixture(scope="session")
def grid8():
    return make_grid([-8, -8], [8, 8], 1 / 16)


@pytest.fixture(scope="session")
def grid4():
    return make_grid([-4, -4], [4, 4], 1 / 16)


@pytest.fixture(scope="session")
def kq8(grid8):
    return build_kernel(KernelProfile("quartic", 0.5), grid8)


@pytest.fixture(scope="session")
def kt4(grid4):
    return build_kernel(KernelProfile("tophat", 0.5), grid4)


@pytest.fixture(scope="session")
def kc_ref(kq8, ref_f):
    return kernel_constants(kq8, ref_f, [0.5, 1.0])


@pytest.fixture(scope="session")
def phi_ref(kq8, ref_f):
    # tight increment tolerance: downstream exactness checks need the
    # plane-wave residual at the 1e-12 scale
    return front_profile(marginal_j1(kq8), ref_f, tol=1e-13)


@pytest.fixture(scope="session")
def disk_problem(kq8, grid8, ref_f):
    K = build_obstacle("ball", {"radius": 1.0}, grid8, margin=1.5)
    return Problem(kq8, K, ref_f)


@pytest.fixture(scope="session")
def disk_solution(disk_problem):
    res = evolve(disk_problem, disk_problem.hostile_datum(), residual_tol=1e-8)
    assert res.converged
    return res


@pytest.fixture(scope="session")
def annulus_problem(kt4, grid4, ref_f):
    K = build_obstacle("annulus", {"r1": 1.0, "r2": 2.0}, grid4, margin=1.5)
    return Problem(kt4, K, ref_f)


@pytest.fixture(scope="session")
def strong_f():
    # steeper well: larger int f shrinks the existence radius d0 to ~3.7,
    # which lets the ball constructions run at desk scale in two dimensions
    return make_bistable(0.25, 3.0)
