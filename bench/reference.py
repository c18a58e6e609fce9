"""Independent 40-digit reference for the closed forms and the F-transform.

Written from the formulas alone, without importing ``subharmonic``:

    F[T] = 2 Re sum_{k>=1} [(1 - e^{j2k pi D}) T(jk w_s) - T(j(k - 1/2) w_s)]

    alpha(D, p)  = 2 pi csch(2 pi p) - pi e^{pi p (1 - 2D)} csch(pi p)
    alpha0(D)    = pi (2D - 1)              (alpha at p = 0)
    alpha1(D)    = pi^2 (2D^2 - 2D + 1)
    c(D, p)      = alpha - alpha0 + alpha1 p

The kernel identities F[1/(s + a)] = alpha(D, a/w_s)/w_s, F[1/s] =
alpha0/w_s, F[1/s^2] = alpha1/w_s^2 and F[const] = -const turn every
catalog shape into a partial-fraction sum; ``series_direct`` sums the
series itself and validates those identities (``python3 reference.py``).
Every input is a float and is taken exactly; results are mpmath numbers.
"""

from __future__ import annotations

import sys
from fractions import Fraction

import mpmath as mp

DPS = 40
mp.mp.dps = DPS

CASES = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9")
NEEDS_P = frozenset({"C1", "C3", "C4", "C5", "C8", "C9"})
NEEDS_Z = frozenset({"C4", "C7", "C8", "C9"})


def _extra_digits(p):
    # alpha subtracts two terms of size 1/p: keep 40 digits after the cancellation
    if p == 0 or p >= 1:
        return 10
    return 10 + int(2 * -mp.log10(p))


def alpha0(D):
    return mp.pi * (2 * mp.mpf(D) - 1)


def alpha1(D):
    D = mp.mpf(D)
    return mp.pi**2 * (2 * D * D - 2 * D + 1)


def alpha(D, p):
    D, p = mp.mpf(D), mp.mpf(p)
    if p == 0:
        return alpha0(D)
    with mp.workdps(DPS + _extra_digits(p)):
        val = (2 * mp.pi * mp.csch(2 * mp.pi * p)
               - mp.pi * mp.exp(mp.pi * p * (1 - 2 * D)) * mp.csch(mp.pi * p))
    return +val


def correction_c(D, p):
    D, p = mp.mpf(D), mp.mpf(p)
    with mp.workdps(DPS + _extra_digits(p)):
        val = alpha(D, p) - alpha0(D) + alpha1(D) * p
    return +val


def _partial(D, w_s, const=0, inv_s2=0, inv_s=0, poles=()):
    """F of const + inv_s2/s^2 + inv_s/s + sum r/(s + a) for (r, a) in poles."""
    D, w_s = mp.mpf(D), mp.mpf(w_s)
    total = -mp.mpf(const) + inv_s2 * alpha1(D) / w_s**2 + inv_s * alpha0(D) / w_s
    for r, a in poles:
        total += r * alpha(D, a / w_s) / w_s
    return total


def catalog(case_id, D, w_s, p=None, z=None):
    """Closed-form F-transform of catalog shape ``case_id``.

    The shapes, with w_p = p w_s and w_z = z w_s:
    C1 1/(s + w_p), C2 1/s, C3 1/(1 + s/w_p), C4 (1 + s/w_z)/(1 + s/w_p),
    C5 1/(s(1 + s/w_p)), C6 1/s^2, C7 (1 + s/w_z)/s^2,
    C8 (1 + s/w_z)/(s(1 + s/w_p)), C9 (1 + s/w_z)/(s^2(1 + s/w_p)).
    """
    w_s = mp.mpf(w_s)
    wp = mp.mpf(p) * w_s if p is not None else None
    wz = mp.mpf(z) * w_s if z is not None else None
    if case_id == "C1":
        return _partial(D, w_s, poles=[(1, wp)])
    if case_id == "C2":
        return _partial(D, w_s, inv_s=1)
    if case_id == "C3":
        return _partial(D, w_s, poles=[(wp, wp)])
    if case_id == "C4":
        return _partial(D, w_s, const=wp / wz, poles=[(wp * (1 - wp / wz), wp)])
    if case_id == "C5":
        return _partial(D, w_s, inv_s=1, poles=[(-1, wp)])
    if case_id == "C6":
        return _partial(D, w_s, inv_s2=1)
    if case_id == "C7":
        return _partial(D, w_s, inv_s2=1, inv_s=1 / wz)
    if case_id == "C8":
        return _partial(D, w_s, inv_s=1, poles=[(wp / wz - 1, wp)])
    if case_id == "C9":
        if wp == 0:
            return mp.mpf(0)
        r = (1 - wp / wz) / wp
        with mp.workdps(DPS + _extra_digits(p)):
            val = _partial(D, w_s, inv_s2=1, inv_s=-r, poles=[(r, wp)])
        return +val
    raise ValueError(f"unknown case {case_id!r}")


def shape(case_id, w_s, p=None, z=None):
    """The catalog shape as (T - T(inf), T(inf)), T - T(inf) an mpmath function.

    Only C4 has a nonzero T(inf) = w_p/w_z; its remainder is written out,
    (1 - w_p/w_z)/(1 + s/w_p), because subtracting the constant from T in
    floating point loses every digit at the large s the tail sum samples.
    """
    w_s = mp.mpf(w_s)
    wp = mp.mpf(p) * w_s if p is not None else None
    wz = mp.mpf(z) * w_s if z is not None else None
    if case_id == "C4":
        return (lambda s: (1 - wp / wz) / (1 + s / wp)), wp / wz
    fns = {
        "C1": lambda s: 1 / (s + wp),
        "C2": lambda s: 1 / s,
        "C3": lambda s: 1 / (1 + s / wp),
        "C5": lambda s: 1 / (s * (1 + s / wp)),
        "C6": lambda s: 1 / s**2,
        "C7": lambda s: (1 + s / wz) / s**2,
        "C8": lambda s: (1 + s / wz) / (s * (1 + s / wp)),
        "C9": lambda s: (1 + s / wz) / (s**2 * (1 + s / wp)),
    }
    return fns[case_id], mp.mpf(0)


def series_direct(T_rem, t_inf, D, w_s):
    """Sum the F-series directly at a rational duty D (a Fraction).

    T_rem is T - T(inf); the constant is split off exactly, F[const] =
    -const.  With D = a/q the phase e^{j2k pi D} repeats every q terms, so
    the terms are grouped into blocks of q; each block sum is smooth in the
    block index and decays like 1/m^2, and the Euler-Maclaurin tail of
    mpmath's nsum reaches full precision on it.
    """
    frac = Fraction(D)
    q = frac.denominator
    D_mp = mp.mpf(frac.numerator) / q
    w_s = mp.mpf(w_s)
    phases = [mp.expjpi(2 * k * D_mp) for k in range(1, q + 1)]

    def term(k, phase):
        full = T_rem(1j * k * w_s)
        half = T_rem(1j * (k - mp.mpf(1) / 2) * w_s)
        return 2 * mp.re((1 - phase) * full - half)

    def block(m):
        base = q * m
        return mp.fsum(term(base + r, phases[r - 1]) for r in range(1, q + 1))

    return -t_inf + mp.nsum(block, [0, mp.inf], method="euler-maclaurin")


# ---------------------------------------------------------------------------
# Control schemes: stability number L, operating duty, critical values.
# ``prm`` holds the converter constants by their config names (v_s, v_r,
# V_l, V_h, f_s, L, R, C, R_c) and ``sch`` the scheme name and gains.


def _m(prm, key, default=0.0):
    v = prm.get(key)
    return mp.mpf(default if v is None else v)


def lvalue(prm, sch, D, p=None):
    """Closed-form stability number L of a scheme at duty D.

    cmc   (v_s/L)(D - 1/2) T / V_m, or 2D when V_m = 0
    pvmc, cfpvr  (v_s k_p rho T^2 / 4 V_m L C)[(2 R_c C/T)(2D - 1) + 2D^2 - 2D + 1]
    rlp   v_s k_p p alpha(D, p) / V_m with p = R/(L w_s)
    acmc  K (alpha0 - alpha(D, p)), K = v_s R_s K_c / (V_m z_c L w_s)
    vmc3  K (alpha0 - alpha(D, p)), K = v_s K_c rho / (V_m kappa_z w_s)
    p overrides the normalized compensator pole of acmc and vmc3.
    """
    name = sch["scheme"]
    D = mp.mpf(D)
    v_s, L, R, f_s = (_m(prm, k) for k in ("v_s", "L", "R", "f_s"))
    V_m = _m(prm, "V_h") - _m(prm, "V_l")
    T = 1 / f_s
    w_s = 2 * mp.pi * f_s
    R_c = _m(prm, "R_c")
    rho = R / (R + R_c)
    if name == "cmc":
        if V_m == 0:
            return 2 * D
        return v_s / L * (D - mp.mpf(1) / 2) * T / V_m
    if name in ("pvmc", "cfpvr"):
        C = _m(prm, "C")
        lead = v_s * _m(sch, "k_p") * rho * T**2 / (4 * V_m * L * C)
        return lead * ((2 * R_c * C / T) * (2 * D - 1) + 2 * D * D - 2 * D + 1)
    if name == "rlp":
        pp = R / (L * w_s)
        return v_s * _m(sch, "k_p") * pp * alpha(D, pp) / V_m
    pp = _m(sch, "omega_p") / w_s if p is None else mp.mpf(p)
    return gain(prm, sch) * (alpha0(D) - alpha(D, pp))


def gain(prm, sch):
    """Combined dimensionless gain K of acmc and vmc3."""
    v_s, L, R, f_s = (_m(prm, k) for k in ("v_s", "L", "R", "f_s"))
    V_m = _m(prm, "V_h") - _m(prm, "V_l")
    w_s = 2 * mp.pi * f_s
    if sch["scheme"] == "acmc":
        return v_s * _m(sch, "R_s") * _m(sch, "K_c") / (V_m * _m(sch, "z_c") * L * w_s)
    rho = R / (R + _m(prm, "R_c"))
    return v_s * _m(sch, "K_c") * rho / (V_m * _m(sch, "kappa_z") * w_s)


def _rl_peak(prm, d):
    v_s, L, R, f_s = (_m(prm, k) for k in ("v_s", "L", "R", "f_s"))
    tau_f = R / (L * f_s)  # T / tau
    return v_s / R * mp.expm1(-d * tau_f) / mp.expm1(-tau_f)


def duty(prm, sch):
    """Operating duty from the regulation target of each scheme.

    v_o = D v_s regulated to v_r (pvmc, vmc3) or k_p v_o to v_r (cfpvr);
    i_L = D v_s / R regulated to v_r / R_s (acmc) or to v_r (cmc); the rl
    loop solves its modulator equation k_p (v_r - R i_peak(d)) = V_l + V_m d
    with the exact periodic peak current.
    """
    name = sch["scheme"]
    v_s, v_r, R = _m(prm, "v_s"), _m(prm, "v_r"), _m(prm, "R")
    if name in ("pvmc", "vmc3"):
        return v_r / v_s
    if name == "cfpvr":
        return v_r / (_m(sch, "k_p") * v_s)
    if name == "acmc":
        return v_r * R / (_m(sch, "R_s") * v_s)
    if name == "cmc":
        return v_r * R / v_s
    k_p, V_l = _m(sch, "k_p"), _m(prm, "V_l")
    V_m = _m(prm, "V_h") - V_l

    def g(d):
        return k_p * (v_r - R * _rl_peak(prm, d)) - V_l - V_m * d

    return mp.findroot(g, (mp.mpf(0), mp.mpf(1)), solver="anderson")


def rlp_critical_kp(prm):
    """Critical gain of the rl loop at the duty where the linear ripple
    peak v_s d + v_s d (1 - d) T R / 2L reaches v_r: (k_p, d)."""
    v_s, v_r, L, R, f_s = (_m(prm, k) for k in ("v_s", "v_r", "L", "R", "f_s"))
    V_m = _m(prm, "V_h") - _m(prm, "V_l")
    a = v_s * R / (2 * L * f_s)
    b = v_s + a
    d = (b - mp.sqrt(b * b - 4 * a * v_r)) / (2 * a)
    pp = R / (L * 2 * mp.pi * f_s)
    return V_m / (v_s * pp * alpha(d, pp)), d


def window_estimate(K, D):
    """(1/(K alpha1), 1/2 + (2D - 1 + 2e^{-pi D} - 1/(K pi)) / (4 pi D e^{-pi D}))."""
    K, D = mp.mpf(K), mp.mpf(D)
    e = mp.exp(-mp.pi * D)
    return (1 / (K * alpha1(D)),
            mp.mpf(1) / 2 + (2 * D - 1 + 2 * e - 1 / (K * mp.pi)) / (4 * mp.pi * D * e))


# ---------------------------------------------------------------------------
# Self-validation: the closed forms against direct summation of the series.

VALIDATION_POINTS = ((Fraction(3, 10), 0.5, 0.8), (Fraction(1, 4), 0.05, 0.8),
                     (Fraction(7, 10), 2.0, 1.5))


def validate(points=VALIDATION_POINTS, tol=mp.mpf(10) ** -30):
    """Largest deviation, catalog closed form vs direct sum, over the points."""
    worst = mp.mpf(0)
    w_s = 2 * mp.pi
    for D, p, z in points:
        for cid in CASES:
            kw = {}
            if cid in NEEDS_P:
                kw["p"] = p
            if cid in NEEDS_Z:
                kw["z"] = z
            T, t_inf = shape(cid, w_s, **kw)
            closed = catalog(cid, mp.mpf(D.numerator) / D.denominator, w_s, **kw)
            direct = series_direct(T, t_inf, D, w_s)
            worst = max(worst, abs(closed - direct))
    return worst, worst <= tol


if __name__ == "__main__":
    worst, ok = validate()
    print(f"reference: catalog vs direct series, worst deviation {mp.nstr(worst, 3)}")
    sys.exit(0 if ok else 1)
