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
from functools import lru_cache
from typing import Optional

import numpy as np

from .errors import DomainError, NoConvergence, UnsupportedStructure
from .tf import RationalTF

__all__ = [
    "TableCase",
    "alpha",
    "alpha0",
    "alpha1",
    "correction_c",
    "f_transform_case",
    "f_transform_series",
    "f_transform_rational",
]


def _check_duty(D):
    D = np.asarray(D, dtype=float)
    # every comparison with NaN is false, so the range test rejects it too
    if not (0.0 <= float(D) <= 1.0 if D.ndim == 0
            else np.all((D >= 0.0) & (D <= 1.0))):
        raise DomainError("duty cycle must be finite and within [0, 1]")
    return D


def _check_p(p):
    p = np.asarray(p, dtype=float)
    if not (0.0 <= float(p) < math.inf if p.ndim == 0
            else np.all((p >= 0.0) & (p < math.inf))):
        raise DomainError("normalized frequency must be finite and >= 0")
    return p


def _check_omega_s(omega_s):
    if not 0.0 < omega_s < math.inf:
        raise DomainError("omega_s must be positive and finite")


def _maybe_scalar(a):
    a = np.asarray(a)
    return float(a) if a.ndim == 0 else a


# Even Taylor coefficients of x*csch(x) = sum c_{2n} x^{2n}.
_CSCH_EVEN = (1.0, -1.0 / 6.0, 7.0 / 360.0, -31.0 / 15120.0, 127.0 / 604800.0)

# Below this alpha and correction_c sum their Taylor series.  The two csch
# terms of the direct form cancel as p falls: against 40-digit references
# it errs by up to 2.5e-13 in alpha for p in [1e-3, 2e-3] and 3.1e-14 for
# p in [1e-2, 2e-2], while the order-7 series stays within 2.9e-15 below
# 1e-2.  correction_c also cancels alpha0 and alpha1 p against them,
# leaving a p**2-sized remainder, so it needs the series at least as far.
_P_SMALL = 1e-2
_TAYLOR_ORDER = 7


def _alpha_series_coeff(k: int):
    """Coefficient of p**k in the expansion of alpha(D, p) about p = 0.

    Derived from alpha = (1/p)[2pi p csch(2pi p)] - (1/p) e^{beta p} [pi p csch(pi p)]
    with beta = pi(1 - 2D), using the even series of x csch x.  Exact
    rational/pi arithmetic, no fitting involved.  Returned as a constant
    and the terms (c, m, m!) of constant - sum c beta**m / m!.
    """
    const = _CSCH_EVEN[(k + 1) // 2] * (2.0 * np.pi) ** (k + 1) if k % 2 else 0.0
    terms = []
    for n in range(0, min(len(_CSCH_EVEN) - 1, (k + 1) // 2) + 1):
        m = k + 1 - 2 * n
        terms.append((_CSCH_EVEN[n] * np.pi ** (2 * n), m, math.factorial(m)))
    return const, tuple(terms)


_SERIES = tuple(_alpha_series_coeff(k) for k in range(_TAYLOR_ORDER + 1))


def _alpha_taylor(D, p, k_start=0):
    # D and p are arrays, 0-d for one point, so ** runs numpy's loop for
    # one point as for many (a numpy scalar's ** is the C library pow)
    beta = np.asarray(np.pi * (1.0 - 2.0 * D))
    beta_pow = [beta**m for m in range(_TAYLOR_ORDER + 2)]
    total = 0.0
    for k in range(k_start, _TAYLOR_ORDER + 1):
        coeff, terms = _SERIES[k]
        for c, m, fact in terms:
            coeff = coeff - c * beta_pow[m] / fact
        total = total + coeff * p**k
    return total


def _alpha_direct(D, p):
    # 2pi csch(2pi p) = 4pi e^{-2pi p} / (1 - e^{-4pi p})
    # pi e^{pi p(1-2D)} csch(pi p) = 2pi e^{-2pi p D} / (1 - e^{-2pi p})
    den1 = -np.expm1(-4.0 * np.pi * p)
    den2 = -np.expm1(-2.0 * np.pi * p)
    first = 4.0 * np.pi * np.exp(-2.0 * np.pi * p) / den1
    second = 2.0 * np.pi * np.exp(-2.0 * np.pi * p * D) / den2
    return first - second


def _correction_direct(D, p):
    return (_alpha_direct(D, p) - np.pi * (2.0 * D - 1.0)
            + np.pi**2 * (2.0 * D * D - 2.0 * D + 1.0) * p)


def _kernel(direct, D, p, k_start):
    """direct(D, p) where p >= _P_SMALL and the Taylor sum from order
    k_start below, over the broadcast of the checked D and p.

    A single point runs the same elementwise operations as an array, on
    scalars, and gives the same bits.
    """
    D, p = _check_duty(D), _check_p(p)
    if D.ndim == p.ndim == 0:
        if float(p) < _P_SMALL:
            return float(_alpha_taylor(D, p, k_start))
        return float(direct(float(D), float(p)))
    D, p = np.broadcast_arrays(D, p)
    small = p < _P_SMALL
    out = np.empty(p.shape)
    with np.errstate(invalid="ignore", over="ignore"):
        out[~small] = direct(D[~small], p[~small])
    if small.any():
        out[small] = _alpha_taylor(D[small], p[small], k_start)
    return out


def alpha(D, p):
    """Kernel alpha(D, p) = 2pi csch(2pi p) - pi e^{pi p(1-2D)} csch(pi p).

    Continuous at p = 0 with alpha(D, 0) = alpha0(D); the removable
    singularity is handled by an exact Taylor expansion below p = 1e-2.
    Broadcasts over array inputs.
    """
    return _kernel(_alpha_direct, D, p, 0)


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
    Taylor tail below p = 1e-2, where ``alpha`` switches too, to avoid
    cancellation.
    """
    return _kernel(_correction_direct, D, p, 2)


# ---------------------------------------------------------------------------
# Catalog of closed-form F-transforms for the common loop-gain shapes.

def _c9(D, p, z, omega_s):
    # the 1/p factor is removable, the whole expression -> 0 as p -> 0
    if p == 0.0:
        return np.zeros(np.shape(D))
    c = correction_c(D, p)
    return (p / z * alpha1(D) + (1.0 / p - 1.0 / z) * c) / omega_s**2


# case id -> (takes p, takes z, F(D, p, z, omega_s))
_CATALOG = {
    "C1": (True, False, lambda D, p, z, omega_s: alpha(D, p) / omega_s),
    "C2": (False, False, lambda D, p, z, omega_s: alpha0(D) / omega_s),
    "C3": (True, False, lambda D, p, z, omega_s: p * alpha(D, p)),
    "C4": (True, True, lambda D, p, z, omega_s:
           -p / z + p * (1.0 - p / z) * alpha(D, p)),
    "C5": (True, False, lambda D, p, z, omega_s: (alpha0(D) - alpha(D, p)) / omega_s),
    "C6": (False, False, lambda D, p, z, omega_s: alpha1(D) / omega_s**2),
    "C7": (False, True, lambda D, p, z, omega_s:
           (alpha0(D) / z + alpha1(D)) / omega_s**2),
    "C8": (True, True, lambda D, p, z, omega_s:
           (alpha0(D) + (p / z - 1.0) * alpha(D, p)) / omega_s),
    "C9": (True, True, _c9),
}


@dataclass(frozen=True)
class TableCase:
    """One catalog entry: case id plus its normalized pole/zero frequencies.

    The catalog table says which cases take p and z; a missing one, or one
    supplied where unused, is rejected, and a given one must be >= 0 and finite.
    """

    case_id: str
    p: Optional[float] = None
    z: Optional[float] = None

    def __post_init__(self):
        cid = self.case_id
        if cid not in _CATALOG:
            raise DomainError(f"unknown case id {cid!r}")
        for name, kind, takes in zip("pz", ("pole", "zero"), _CATALOG[cid][:2]):
            if (getattr(self, name) is not None) != takes:
                need = "requires" if takes else "does not take"
                raise DomainError(f"{cid} {need} a {kind} frequency {name}")
        for name in "pz":
            if getattr(self, name) is not None:
                object.__setattr__(self, name, float(_check_p(getattr(self, name))))


def f_transform_case(case: TableCase, D, omega_s: float):
    """Closed-form F-transform of the catalog shape ``case``.

    omega_s is the switching angular frequency in rad/s; cases with an
    integrator carry explicit 1/omega_s powers, the rest are dimensionless.
    """
    _check_omega_s(omega_s)
    D = _check_duty(D)
    if case.z == 0.0:
        raise DomainError(f"{case.case_id} divides by z; z must be nonzero")
    return _maybe_scalar(_CATALOG[case.case_id][2](D, case.p, case.z, omega_s))


# ---------------------------------------------------------------------------
# Series oracle.


def _smooth_window(x: np.ndarray) -> np.ndarray:
    # flat to 0.9, then a C^3 taper to zero at 1; smoothness makes the
    # truncation error of oscillatory tails drop faster than any power of K
    u = np.clip((x - 0.9) / 0.1, 0.0, 1.0)
    s = u**4 * (35.0 - 84.0 * u + 70.0 * u * u - 20.0 * u**3)
    return 1.0 - s


# The oracle is called over and over with one (D, K), e.g. a catalog
# check sweeping p at fixed D, and with one (omega_s, K): the phase
# factors, the taper weights and the harmonic grids depend on nothing
# else, so small caches keep them (read-only; at K = 1e4 a phase entry is
# 160,000 bytes and a grid entry 320 KB of complex points, so the three
# grid entries hold at most 960 KB).

# Harmonics per block of the sum: whole-K complex temporaries (160 KB at
# K = 1e4) make the allocator map and fault in fresh pages on every call.
_BLOCK = 4096


@lru_cache(maxsize=16)
def _taper(n: int):
    """(flat, weights): the terms k <= flat = 0.9 n have weight exactly 1."""
    flat = min(int(0.9 * n), n)
    w = _smooth_window(np.arange(flat + 1, n + 1, dtype=float) / n)
    w.setflags(write=False)
    return flat, w


@lru_cache(maxsize=8)
def _phase(D: float, K: int):
    """The factors 1 - e^{j 2 pi D k} for k = 1..K."""
    k = np.arange(1, K + 1, dtype=float)
    one_minus = 1.0 - np.exp(2j * np.pi * D * k)
    one_minus.setflags(write=False)
    return one_minus


@lru_cache(maxsize=3)
def _grid(omega_s: float, K: int):
    """One array per block of _BLOCK harmonics k <= K: the full points
    1j * (k * omega_s), then the half points 1j * ((k - 0.5) * omega_s)."""
    blocks = []
    for lo in range(0, K, _BLOCK):
        k = np.arange(lo + 1, min(lo + _BLOCK, K) + 1, dtype=float)
        points = np.concatenate([1j * (k * omega_s), 1j * ((k - 0.5) * omega_s)])
        points.setflags(write=False)
        blocks.append(points)
    return tuple(blocks)


def _windowed_sum(terms: np.ndarray, n: int) -> float:
    flat, w = _taper(n)
    return float(terms[:flat].sum()) + float((w * terms[flat:n]).sum())


def _raw_terms(evalT, D: float, omega_s: float, K: int) -> np.ndarray:
    one_minus = _phase(D, K)
    terms = np.empty(K)
    # one evaluation per block, at its full and half points together
    for lo, points in zip(range(0, K, _BLOCK), _grid(omega_s, K)):
        n = len(points) // 2
        v = evalT(points)
        part = slice(lo, lo + n)
        t = one_minus[part] * v[:n]
        t -= v[n:]
        np.multiply(t.real, 2.0, out=terms[part])
    return terms


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
        "evaluator neither decays nor levels off at high frequency; "
        "cannot split off the constant part"
    )


def f_transform_series(T, D, omega_s: float, K: int = 10_000):
    """Direct truncated summation of the F-transform series (the oracle).

    T may be a RationalTF or any callable mapping complex s to T(s).  D
    may be an array: each element is summed alone, with the bits of its
    own scalar call, and a scalar D gives a float.  A relative-degree-0
    part is handled by the exact split F[T] = -T(inf) + F[T - T(inf)]
    since the constant's own series does not converge term-by-term.  The
    strictly proper remainder is summed with a smoothly tapered window;
    Richardson extrapolation over the last two halvings of K removes the
    residual 1/K and 1/K^2 terms of the monotone tails, leaving errors
    well below 1e-6 at K = 10^4.

    The K harmonics are taken in blocks of 4,096, and T is called once
    per block with one array: the block's full points j k omega_s, then
    its half points j (k - 1/2) omega_s.  So a callable T must act
    elementwise.  K must be an integer >= 1; a sum that is not finite
    raises NoConvergence.

    Accuracy envelope at the default K = 10^4, against the partial-fraction
    route: with real corners at or below 5 omega_s and 0.1 <= D <= 0.9 the
    relative error stays within 1e-7 (5.3e-9 worst over 600 random shapes
    of up to three poles, two zeros and one integrator).  Small duty needs
    more terms: for 0.02 <= D <= 0.1 the worst miss is 6.4e-7 with every
    corner at or below 5 omega_s (poles 3.4, 4.825, zeros 1.435, 0.052
    omega_s, D = 0.0233) and 8.9e-6 with corners up to 15 omega_s.  Poles
    (11.81, 12.36, 13.50) omega_s, zeros (4.56, 2.56) omega_s and
    D = 0.0583 miss by 6.1e-7 at K = 10^4 and by 2.9e-11 at K = 10^5.
    Above D = 0.9 the envelope is undocumented, and near either duty bound
    the sum can miss without raising: for T = 1/(1 + s/3), omega_s = 6.28
    and K = 10^4 it misses by 25 % at D = 0.999 and by 52 % at D = 1e-9.
    """
    if isinstance(K, bool) or not isinstance(K, (int, np.integer)) or K < 1:
        raise DomainError("K must be an integer >= 1")
    K = int(K)
    _check_omega_s(omega_s)
    D = _check_duty(D)

    t_inf = _constant_part(T, omega_s)
    if isinstance(T, RationalTF):
        evalT = T if t_inf == 0.0 else lambda s: T(s) - t_inf
    elif t_inf != 0.0:
        evalT = lambda s: np.asarray(T(s), dtype=complex) - t_inf
    else:
        evalT = lambda s: np.asarray(T(s), dtype=complex)

    if D.ndim == 0:
        return _series_sum(evalT, t_inf, float(D), omega_s, K)
    # one scalar sum per duty, each with the bits of its own call
    return np.array([_series_sum(evalT, t_inf, d, omega_s, K)
                     for d in D.ravel().tolist()]).reshape(D.shape)


def _series_sum(evalT, t_inf: float, D: float, omega_s: float, K: int) -> float:
    """The F-transform -t_inf + F[evalT] at one duty D; see f_transform_series."""
    terms = _raw_terms(evalT, D, omega_s, K)

    def windowed(n: int) -> float:
        return _windowed_sum(terms, n)

    s1 = windowed(K)
    if not math.isfinite(s1):
        raise NoConvergence("series sum is not finite")
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
    _check_omega_s(omega_s)
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
    den_tilde = RationalTF(1.0, poles=corners).den_coeffs()
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
