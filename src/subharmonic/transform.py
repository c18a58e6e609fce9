"""Core kernel functions and the F-transform.

The stability functional evaluated here maps a loop gain T(s) to the scalar

    F[T] = 2 Re[ sum_{k>=1} (1 - e^{j2k*pi*D}) T(jk*w_s) - T(j(k-1/2)w_s) ]

whose value 1 marks the subharmonic (period-doubling) boundary of a
trailing-edge PWM loop with duty cycle D and switching frequency w_s.
Closed forms for the common loop-gain shapes are expressed through the
kernel alpha(D, p) and its small-p expansion coefficients alpha0, alpha1
and the correction term c(D, p).  ``f_transform_series`` sums the series
directly and serves as the independent oracle for every closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, NoConvergence, UnsupportedStructure
from .tf import RationalTF

__all__ = [
    "DutyCycle",
    "NormalizedFreq",
    "TableCase",
    "alpha",
    "alpha0",
    "alpha1",
    "correction_c",
    "f_transform_case",
    "f_transform_series",
    "f_transform_rational",
]


class DutyCycle(float):
    """Duty ratio constrained to [0, 1]."""

    def __new__(cls, value):
        v = float(value)
        if not math.isfinite(v) or not 0.0 <= v <= 1.0:
            raise DomainError(f"duty cycle must lie in [0, 1], got {value!r}")
        return super().__new__(cls, v)


class NormalizedFreq(float):
    """Angular frequency divided by the switching frequency (p or z)."""

    def __new__(cls, value):
        v = float(value)
        if not math.isfinite(v) or v < 0.0:
            raise DomainError(f"normalized frequency must be >= 0, got {value!r}")
        return super().__new__(cls, v)


def _check_duty(D):
    D = np.asarray(D, dtype=float)
    if not np.all(np.isfinite(D)) or np.any(D < 0.0) or np.any(D > 1.0):
        raise DomainError("duty cycle must be finite and within [0, 1]")
    return D


def _check_p(p):
    p = np.asarray(p, dtype=float)
    if not np.all(np.isfinite(p)) or np.any(p < 0.0):
        raise DomainError("normalized frequency must be finite and >= 0")
    return p


def _maybe_scalar(a):
    a = np.asarray(a)
    return float(a) if a.ndim == 0 else a


# Even Taylor coefficients of x*csch(x) = sum c_{2n} x^{2n}.
_CSCH_EVEN = (1.0, -1.0 / 6.0, 7.0 / 360.0, -31.0 / 15120.0, 127.0 / 604800.0)

# Below this the two csch terms cancel catastrophically; switch to Taylor.
_P_SMALL = 1e-3
# correction_c also cancels alpha0 and alpha1 p against them, leaving a
# p**2-sized remainder, so its direct form stays accurate only further out
_C_SMALL = 1e-2
_TAYLOR_ORDER = 7


def _alpha_series_coeff(k: int, D: np.ndarray) -> np.ndarray:
    """Coefficient of p**k in the expansion of alpha(D, p) about p = 0.

    Derived from alpha = (1/p)[2pi p csch(2pi p)] - (1/p) e^{beta p} [pi p csch(pi p)]
    with beta = pi(1 - 2D), using the even series of x csch x.  Exact
    rational/pi arithmetic, no fitting involved.
    """
    beta = np.pi * (1.0 - 2.0 * D)
    out = np.zeros_like(beta)
    if k % 2 == 1:
        n = (k + 1) // 2
        if n < len(_CSCH_EVEN):
            out = out + _CSCH_EVEN[n] * (2.0 * np.pi) ** (k + 1)
    for n in range(0, min(len(_CSCH_EVEN) - 1, (k + 1) // 2) + 1):
        m = k + 1 - 2 * n
        out = out - _CSCH_EVEN[n] * np.pi ** (2 * n) * beta**m / math.factorial(m)
    return out


def _alpha_taylor(D, p, k_start=0):
    total = np.zeros(np.broadcast(D, p).shape)
    for k in range(k_start, _TAYLOR_ORDER + 1):
        total = total + _alpha_series_coeff(k, D) * p**k
    return total


def _alpha_direct(D, p):
    # 2pi csch(2pi p) = 4pi e^{-2pi p} / (1 - e^{-4pi p})
    # pi e^{pi p(1-2D)} csch(pi p) = 2pi e^{-2pi p D} / (1 - e^{-2pi p})
    den1 = -np.expm1(-4.0 * np.pi * p)
    den2 = -np.expm1(-2.0 * np.pi * p)
    first = 4.0 * np.pi * np.exp(-2.0 * np.pi * p) / den1
    second = 2.0 * np.pi * np.exp(-2.0 * np.pi * p * D) / den2
    return first - second


def alpha(D, p):
    """Kernel alpha(D, p) = 2pi csch(2pi p) - pi e^{pi p(1-2D)} csch(pi p).

    Continuous at p = 0 with alpha(D, 0) = alpha0(D); the removable
    singularity is handled by an exact Taylor expansion below p = 1e-3.
    Broadcasts over array inputs.
    """
    D = _check_duty(D)
    p = _check_p(p)
    small = p < _P_SMALL
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        direct = _alpha_direct(D, p)
    out = np.where(small, _alpha_taylor(D, p), direct)
    return _maybe_scalar(out)


def alpha0(D):
    """alpha(D, 0) = pi(2D - 1)."""
    D = _check_duty(D)
    return _maybe_scalar(np.pi * (2.0 * D - 1.0))


def alpha1(D):
    """First-order kernel coefficient pi^2 (2D^2 - 2D + 1)."""
    D = _check_duty(D)
    return _maybe_scalar(np.pi**2 * (2.0 * D * D - 2.0 * D + 1.0))


def correction_c(D, p):
    """Correction term c(D, p) = alpha - alpha0 + alpha1*p.

    The remainder of the kernel beyond its two leading Taylor terms; it
    starts at order p^2 and is negligible for p < 0.1.  Computed from the
    Taylor tail below p = 1e-2 to avoid cancellation.
    """
    D = _check_duty(D)
    p = _check_p(p)
    small = p < _C_SMALL
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        direct = (
            _alpha_direct(D, p)
            - np.pi * (2.0 * D - 1.0)
            + np.pi**2 * (2.0 * D * D - 2.0 * D + 1.0) * p
        )
    out = np.where(small, _alpha_taylor(D, p, k_start=2), direct)
    return _maybe_scalar(out)


# ---------------------------------------------------------------------------
# Catalog of closed-form F-transforms for the common loop-gain shapes.

_CASES = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9")
_NEEDS_P = frozenset({"C1", "C3", "C4", "C5", "C8", "C9"})
_NEEDS_Z = frozenset({"C4", "C7", "C8", "C9"})


@dataclass(frozen=True)
class TableCase:
    """One catalog entry: case id plus its normalized pole/zero frequencies.

    p is required exactly for C1, C3, C4, C5, C8, C9 and z exactly for
    C4, C7, C8, C9; supplying either where unused is rejected.
    """

    case_id: str
    p: Optional[float] = None
    z: Optional[float] = None

    def __post_init__(self):
        if self.case_id not in _CASES:
            raise DomainError(f"unknown case id {self.case_id!r}")
        if (self.p is not None) != (self.case_id in _NEEDS_P):
            need = "requires" if self.case_id in _NEEDS_P else "does not take"
            raise DomainError(f"{self.case_id} {need} a pole frequency p")
        if (self.z is not None) != (self.case_id in _NEEDS_Z):
            need = "requires" if self.case_id in _NEEDS_Z else "does not take"
            raise DomainError(f"{self.case_id} {need} a zero frequency z")
        if self.p is not None:
            object.__setattr__(self, "p", float(NormalizedFreq(self.p)))
        if self.z is not None:
            object.__setattr__(self, "z", float(NormalizedFreq(self.z)))


def f_transform_case(case: TableCase, D, omega_s: float):
    """Closed-form F-transform of the catalog shape ``case``.

    omega_s is the switching angular frequency in rad/s; cases with an
    integrator carry explicit 1/omega_s powers, the rest are dimensionless.
    """
    if not omega_s > 0.0:
        raise DomainError("omega_s must be positive")
    D = _check_duty(D)
    p, z = case.p, case.z
    if case.case_id in _NEEDS_Z and z == 0.0:
        raise DomainError(f"{case.case_id} divides by z; z must be nonzero")
    cid = case.case_id
    if cid == "C1":
        return _maybe_scalar(alpha(D, p) / omega_s)
    if cid == "C2":
        return _maybe_scalar(alpha0(D) / omega_s)
    if cid == "C3":
        return _maybe_scalar(p * alpha(D, p))
    if cid == "C4":
        return _maybe_scalar(-p / z + p * (1.0 - p / z) * alpha(D, p))
    if cid == "C5":
        return _maybe_scalar((alpha0(D) - alpha(D, p)) / omega_s)
    if cid == "C6":
        return _maybe_scalar(alpha1(D) / omega_s**2)
    if cid == "C7":
        return _maybe_scalar((alpha0(D) / z + alpha1(D)) / omega_s**2)
    if cid == "C8":
        return _maybe_scalar((alpha0(D) + (p / z - 1.0) * alpha(D, p)) / omega_s)
    # C9; the 1/p factor is removable, the whole expression -> 0 as p -> 0
    if p == 0.0:
        return _maybe_scalar(np.zeros(np.shape(D)))
    c = correction_c(D, p)
    return _maybe_scalar((p / z * alpha1(D) + (1.0 / p - 1.0 / z) * c) / omega_s**2)


# ---------------------------------------------------------------------------
# Series oracle.


def _smooth_window(x: np.ndarray) -> np.ndarray:
    # flat to 0.9, then a C^3 taper to zero at 1; smoothness makes the
    # truncation error of oscillatory tails drop faster than any power of K
    u = np.clip((x - 0.9) / 0.1, 0.0, 1.0)
    s = u**4 * (35.0 - 84.0 * u + 70.0 * u * u - 20.0 * u**3)
    return 1.0 - s


def _windowed_sum(terms: np.ndarray, n: int) -> float:
    # terms are ordered by k, so weights are exactly 1 up to k = 0.9 n;
    # only the taper slice needs the window polynomial
    flat = min(int(0.9 * n), n)
    head = float(terms[:flat].sum())
    k_tail = np.arange(flat + 1, n + 1, dtype=float)
    w = _smooth_window(k_tail / n)
    return head + float((w * terms[flat:n]).sum())


def _raw_terms(evalT, D: float, omega_s: float, K: int) -> np.ndarray:
    k = np.arange(1, K + 1, dtype=float)
    full = evalT(1j * k * omega_s)
    half = evalT(1j * (k - 0.5) * omega_s)
    phase = np.exp(2j * np.pi * D * k)
    return 2.0 * ((1.0 - phase) * full - half).real


def _constant_part(T, omega_s: float) -> float:
    """High-frequency limit T(j inf), split off before summing the series."""
    if isinstance(T, RationalTF):
        return T.at_infinity()
    # black-box evaluator: probe at 1e9 to 1.6e10 switching frequencies,
    # far past the summed band and any corner a loop gain has
    probes = np.array([1.0e9, 4.0e9, 1.6e10]) * (omega_s / (2.0 * np.pi))
    vals = np.asarray(T(1j * probes), dtype=complex)
    mags = np.abs(vals)
    if mags[-1] <= 0.5 * max(mags[0], 1e-300):
        return 0.0  # still decaying: strictly proper
    if abs(vals[-1] - vals[-2]) <= 1e-6 * (1.0 + abs(vals[-1])):
        return float(vals[-1].real)
    raise NoConvergence(
        "evaluator neither decays nor settles at high frequency; "
        "cannot split off the constant part"
    )


def f_transform_series(T, D, omega_s: float, K: int = 10_000):
    """Direct truncated summation of the F-transform series (the oracle).

    T may be a RationalTF or any callable mapping complex s to T(s).
    A relative-degree-0 part is handled by the exact split
    F[T] = -T(inf) + F[T - T(inf)] since the constant's own series does
    not converge term-by-term.  The strictly proper remainder is summed
    with a smoothly tapered window; Richardson extrapolation over the
    last two halvings of K removes the residual 1/K and 1/K^2 terms of
    the monotone tails, leaving errors well below 1e-6 at K = 10^4.
    """
    if K < 1:
        raise DomainError("K must be >= 1")
    if not omega_s > 0.0:
        raise DomainError("omega_s must be positive")
    D = float(_check_duty(np.asarray(D, dtype=float)))

    t_inf = _constant_part(T, omega_s)
    if isinstance(T, RationalTF):
        evalT = lambda s: T(s) - t_inf
    elif t_inf != 0.0:
        evalT = lambda s: np.asarray(T(s), dtype=complex) - t_inf
    else:
        evalT = lambda s: np.asarray(T(s), dtype=complex)

    terms = _raw_terms(evalT, D, omega_s, K)

    def windowed(n: int) -> float:
        return _windowed_sum(terms, n)

    s1 = windowed(K)
    if K < 16:
        return -t_inf + s1
    s2 = windowed(K // 2)
    if abs(s1 - s2) > 1e-2 * (1.0 + abs(s1)):
        raise NoConvergence(
            "partial sums still moving at K; series not converged "
            "(check the constant split / relative degree of T)"
        )
    if K < 64:
        return -t_inf + 2.0 * s1 - s2
    s4 = windowed(K // 4)
    return -t_inf + (8.0 * s1 - 6.0 * s2 + s4) / 3.0


# ---------------------------------------------------------------------------
# Closed-form F-transform of an arbitrary rational loop gain.


def _real_corner_pairs(quads):
    """Split quadratic factors 1 + b1 s + b2 s^2 into real corner frequencies."""
    corners = []
    for b1, b2 in quads:
        disc = b1 * b1 - 4.0 * b2
        if disc < 0.0:
            raise UnsupportedStructure(
                "complex pole pair; use f_transform_series instead"
            )
        rt = math.sqrt(disc)
        for root in ((-b1 + rt) / (2.0 * b2), (-b1 - rt) / (2.0 * b2)):
            if not root < 0.0:
                raise UnsupportedStructure("right-half-plane or origin pole factor")
            corners.append(-root)
    return corners


def f_transform_rational(T: RationalTF, D, omega_s: float):
    """F-transform of T via partial fractions over the catalog entries.

    Requires simple real poles and at most a double integrator; anything
    else raises UnsupportedStructure so the caller can fall back to
    f_transform_series.
    """
    if not isinstance(T, RationalTF):
        raise UnsupportedStructure("closed-form path needs a RationalTF")
    if not omega_s > 0.0:
        raise DomainError("omega_s must be positive")
    D = _check_duty(D)
    m = T.integrators
    if m > 2:
        raise UnsupportedStructure("more than a double integrator")

    corners = list(T.poles) + _real_corner_pairs(T.quad_poles)
    corners.sort()
    for a, b in zip(corners, corners[1:]):
        if b - a <= 1e-9 * b:
            raise UnsupportedStructure(
                "repeated (or nearly repeated) pole; residues ill-conditioned"
            )

    num = T.num_coeffs()
    den_tilde = np.array([1.0])
    for w in corners:
        den_tilde = np.polynomial.polynomial.polymul(den_tilde, [1.0, 1.0 / w])
    dden = np.polynomial.polynomial.polyder(den_tilde) if len(den_tilde) > 1 else None

    polyval = np.polynomial.polynomial.polyval
    total = np.zeros(np.shape(D))

    t_inf = T.at_infinity()
    total = total - t_inf  # F[const] = -const

    for w in corners:
        s_i = -w
        r_i = polyval(s_i, num) / (s_i**m * polyval(s_i, dden))
        total = total + r_i * alpha(D, w / omega_s) / omega_s

    if m >= 1:
        n0 = polyval(0.0, num)
        if m == 1:
            a1 = n0
        else:
            total = total + n0 * alpha1(D) / omega_s**2
            n1 = num[1] if len(num) > 1 else 0.0
            d1 = den_tilde[1] if len(den_tilde) > 1 else 0.0
            a1 = n1 - n0 * d1
        total = total + a1 * alpha0(D) / omega_s

    return _maybe_scalar(total)
