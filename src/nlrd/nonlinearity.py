"""Bistable nonlinearities and their extensions beyond [0, 1].

The nonlinearity is the cubic ``f(s) = a s (s - theta) (1 - s)``, which
satisfies all the structural requirements for ``theta < 1/2`` and has
closed forms for every derived constant.

A :class:`Bistable` validates itself on construction, by dense scan (1e4
points, tolerance 1e-10) plus closed-form critical points; every rejection
names the violated clause. It is the one nonlinearity type passed between
modules: solutions stay in [0, 1], where every extension agrees with it.
Off [0, 1] the resolvent and parabolic ball solvers evaluate the zero-left
:class:`ExtendedNonlinearity`, and the energy takes the even potential
:func:`even_potential`, the antiderivative of the odd extension.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError

__all__ = [
    "Bistable",
    "ExtendedNonlinearity",
    "make_bistable",
    "even_potential",
]

_SCAN_POINTS = 10_000
_SCAN_TOL = 1e-10


@dataclass(frozen=True)
class Bistable:
    """Bistable cubic with zeros at 0, theta, 1; validated on construction."""

    theta: float
    amplitude: float

    def __post_init__(self):
        _validate_bistable(self)

    def f(self, s):
        s = np.asarray(s, dtype=np.float64)
        a, th = self.amplitude, self.theta
        # factored form: zeros at 0, theta, 1 are exact in floats
        return a * s * (s - th) * (1.0 - s)

    def fprime(self, s):
        s = np.asarray(s, dtype=np.float64)
        a, th = self.amplitude, self.theta
        return a * (-3.0 * s**2 + 2.0 * (1.0 + th) * s - th)

    def antiderivative(self, t):
        """F(t) = int_0^t f, valid on [0, 1]."""
        t = np.asarray(t, dtype=np.float64)
        a, th = self.amplitude, self.theta
        return a * (-(t**4) / 4.0 + (1.0 + th) * t**3 / 3.0 - th * t**2 / 2.0)

    @property
    def int_f(self) -> float:
        """int_0^1 f."""
        return self.amplitude * (1.0 - 2.0 * self.theta) / 12.0

    @property
    def max_fprime(self) -> float:
        """max f' on [0, 1], at the critical point s = (1 + theta)/3."""
        th = self.theta
        return self.amplitude * (1.0 - th + th * th) / 3.0

    @property
    def max_abs_fprime(self) -> float:
        """max |f'| on [0, 1], which is -min f' there: f' is concave, so its
        minimum sits at an endpoint, and max f' <= a/3 < a (1 - theta)."""
        return max(abs(float(self.fprime(0.0))), abs(float(self.fprime(1.0))))

    @property
    def gamma(self) -> float:
        """min (s - f(s))' on [0, 1], that is 1 - max f'."""
        return 1.0 - self.max_fprime


def _validate_bistable(b: Bistable) -> None:
    """Reject with the violated clause; theta >= 1/2 surfaces as a
    non-positive integral, matching the structural reason it fails."""
    th = b.theta
    if not (0.0 < th < 1.0):
        raise PreconditionError(f"theta must lie in (0, 1), got {th}")
    if not (b.amplitude > 0.0):
        raise PreconditionError(f"amplitude must be positive, got {b.amplitude}")
    s = np.linspace(0.0, 1.0, _SCAN_POINTS)

    def reject(clause: str, detail: str = ""):
        raise PreconditionError(f"bistable structure violated: {clause}{detail}")

    for point, label in ((0.0, "f(0) = 0"), (th, "f(theta) = 0"), (1.0, "f(1) = 0")):
        if abs(float(b.f(point))) > _SCAN_TOL:
            reject(label, f" fails: f({point}) = {float(b.f(point)):.3e}")
    inner = s[(s > _SCAN_TOL) & (s < th - _SCAN_TOL)]
    if inner.size and float(np.max(b.f(inner))) >= 0.0:
        reject("f < 0 on (0, theta)")
    outer = s[(s > th + _SCAN_TOL) & (s < 1.0 - _SCAN_TOL)]
    if outer.size and float(np.min(b.f(outer))) <= 0.0:
        reject("f > 0 on (theta, 1)")
    if b.int_f <= 0.0:
        reject("int_0^1 f > 0", f" fails: integral = {b.int_f:.3e}")
    if float(b.fprime(0.0)) >= 0.0:
        reject("f'(0) < 0")
    if float(b.fprime(th)) <= 0.0:
        reject("f'(theta) > 0")
    if float(b.fprime(1.0)) >= 0.0:
        reject("f'(1) < 0")
    if b.max_fprime >= 1.0:
        reject("f' < 1 on [0, 1]", f" fails: max f' = {b.max_fprime:.6g}")


def make_bistable(theta: float, amplitude: float = 1.0) -> Bistable:
    """The cubic ``a s (s - theta)(1 - s)``, validated by :class:`Bistable`."""
    return Bistable(theta=float(theta), amplitude=float(amplitude))


@dataclass(frozen=True)
class ExtendedNonlinearity:
    """Zero-left extension of a bistable f to the whole line: 0 to the left
    of 0, f'(1)(s-1) to the right of 1, and the base itself on [0, 1]."""

    base: Bistable

    def f(self, s):
        s = np.asarray(s, dtype=np.float64)
        base = self.base
        if s.ndim and s.size and 0.0 <= s.min() and s.max() <= 1.0:
            # the general path below reduces to base.f(s) here; NaN fails the test
            return np.asarray(base.f(s), dtype=np.float64)
        mid = base.f(np.clip(s, 0.0, 1.0))
        hi = float(base.fprime(1.0)) * (s - 1.0)
        out = np.where(s > 1.0, hi, mid)
        out = np.where(s < 0.0, np.zeros_like(s), out)
        return out if out.ndim else float(out)


def even_potential(b: Bistable, t):
    """F(|t|) with F = int_0 f on [0, 1] and the quadratic tail
    int_0^1 f + f'(1)(|t| - 1)^2 / 2 past 1: the antiderivative of the odd
    extension of f, which is even in t."""
    t = np.asarray(t, dtype=np.float64)
    a = np.abs(t)
    mid = b.antiderivative(np.clip(a, 0.0, 1.0))
    hi = b.int_f + 0.5 * float(b.fprime(1.0)) * (a - 1.0) ** 2
    out = np.where(a > 1.0, hi, mid)
    return out if out.ndim else float(out)
