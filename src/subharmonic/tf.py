"""Rational transfer functions in time-constant form.

A transfer function is stored as

    T(s) = scale * prod(1 + s/wz) * prod(1 + b1*s + b2*s^2)
           ------------------------------------------------
           s**integrators * prod(1 + s/wp) * prod(1 + a1*s + a2*s^2)

with all corner frequencies strictly positive.  This is the natural shape
for loop gains of converter control schemes, where each factor carries an
explicit corner frequency, and it keeps the DC gain (``scale``) separate
from the pole/zero structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["RationalTF"]


def _as_tuple(values):
    return tuple(float(v) for v in values)


@dataclass(frozen=True)
class RationalTF:
    """Immutable rational transfer function.

    Parameters
    ----------
    scale : float
        Multiplicative gain of the factored form.
    zeros, poles : sequence of float
        First-order corner frequencies (rad/s), each factor ``1 + s/w``.
        All must be strictly positive; a pole at the origin is expressed
        through ``integrators`` instead.
    integrators : int
        Number of poles at s = 0, a whole number.
    quad_zeros, quad_poles : sequence of (b1, b2) pairs
        Second-order factors ``1 + b1*s + b2*s^2`` with ``b2 > 0``.

    Every value must be finite; anything else raises DomainError.
    """

    scale: float
    zeros: tuple = ()
    poles: tuple = ()
    integrators: int = 0
    quad_zeros: tuple = ()
    quad_poles: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "zeros", _as_tuple(self.zeros))
        object.__setattr__(self, "poles", _as_tuple(self.poles))
        object.__setattr__(
            self, "quad_zeros", tuple((float(a), float(b)) for a, b in self.quad_zeros)
        )
        object.__setattr__(
            self, "quad_poles", tuple((float(a), float(b)) for a, b in self.quad_poles)
        )
        if not float(self.integrators).is_integer():
            raise DomainError("integrator count must be a whole number")
        object.__setattr__(self, "integrators", int(self.integrators))
        object.__setattr__(self, "scale", float(self.scale))
        if not math.isfinite(self.scale):
            raise DomainError("scale must be finite")
        if self.integrators < 0:
            raise DomainError("integrator count must be nonnegative")
        for w in self.zeros + self.poles:
            if not 0.0 < w < math.inf:
                raise DomainError("corner frequencies must be positive and finite")
        for b1, b2 in self.quad_zeros + self.quad_poles:
            if not math.isfinite(b1):
                raise DomainError("quadratic factors need a finite s coefficient")
            if not 0.0 < b2 < math.inf:
                raise DomainError(
                    "quadratic factors need a positive, finite s^2 coefficient")
        if self.num_order > self.den_order:
            raise DomainError("numerator order must not exceed denominator order")

    # ---- structural queries -------------------------------------------

    @property
    def num_order(self) -> int:
        return len(self.zeros) + 2 * len(self.quad_zeros)

    @property
    def den_order(self) -> int:
        return self.integrators + len(self.poles) + 2 * len(self.quad_poles)

    @property
    def relative_degree(self) -> int:
        return self.den_order - self.num_order

    def at_infinity(self) -> float:
        """Limit of T(s) as |s| -> inf (0 when strictly proper)."""
        if self.relative_degree > 0:
            return 0.0
        num = self.scale
        for w in self.zeros:
            num /= w
        for _, b2 in self.quad_zeros:
            num *= b2
        den = 1.0
        for w in self.poles:
            den /= w
        for _, b2 in self.quad_poles:
            den *= b2
        return num / den

    # ---- polynomial form ----------------------------------------------

    def num_coeffs(self) -> np.ndarray:
        """Numerator coefficients, ascending powers of s."""
        c = np.array([self.scale])
        for w in self.zeros:
            c = np.polynomial.polynomial.polymul(c, [1.0, 1.0 / w])
        for b1, b2 in self.quad_zeros:
            c = np.polynomial.polynomial.polymul(c, [1.0, b1, b2])
        return np.asarray(c, dtype=float)

    def den_coeffs(self) -> np.ndarray:
        """Denominator coefficients, ascending powers of s (integrators included)."""
        c = np.array([1.0])
        for w in self.poles:
            c = np.polynomial.polynomial.polymul(c, [1.0, 1.0 / w])
        for b1, b2 in self.quad_poles:
            c = np.polynomial.polynomial.polymul(c, [1.0, b1, b2])
        if self.integrators:
            c = np.concatenate([np.zeros(self.integrators), c])
        return np.asarray(c, dtype=float)

    # ---- evaluation ----------------------------------------------------

    def __call__(self, s):
        """Evaluate T at complex frequency ``s`` (scalar or array).

        A scalar s gives the np.complex128 with the bits of ``T([s])[0]``.
        """
        s = np.asarray(s, dtype=complex)
        if not self.den_order:  # a static gain; no zeros either
            return np.full(s.shape, self.scale, dtype=complex)[()]
        z = np.atleast_1d(s)
        # numpy divides by a real w as by w + 0j, which multiplies by 1/w,
        # so s * (1/w) has the bits of s / w at a fifth of the cost.  The
        # products run left to right, num from scale and den from its
        # first factor, so T keeps the bits of the plain product form
        # scale * prod(num factors) / (prod(den factors) * s**m).
        num = self.scale
        for f in self._factors(z, self.zeros, self.quad_zeros):
            num = num * f
        den = None
        for f in self._factors(z, self.poles, self.quad_poles):
            den = f if den is None else den * f
        m = self.integrators
        if m:
            z_m = z if m == 1 else z**m  # z has the bits of z**1
            den = z_m if den is None else den * z_m
        out = num / den
        return out if s.ndim else out[0]

    @staticmethod
    def _factors(s, corners, quads):
        # the add runs in place, which gives its bits; the products stay
        # out of place, as numpy's in-place complex multiply of a
        # one-element array can differ from the product in the last bit
        for w in corners:
            f = s * (1.0 / w)
            f += 1.0
            yield f
        for b1, b2 in quads:
            yield 1.0 + b1 * s + b2 * s * s

    # ---- composition ---------------------------------------------------

    def scaled(self, factor: float) -> "RationalTF":
        return RationalTF(
            self.scale * factor,
            self.zeros,
            self.poles,
            self.integrators,
            self.quad_zeros,
            self.quad_poles,
        )
