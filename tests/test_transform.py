"""Kernel functions and the series evaluation of the ripple functional."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from subharmonic import (
    DomainError,
    NoConvergence,
    RationalTF,
    TableCase,
    alpha,
    alpha0,
    alpha1,
    correction_c,
    f_transform_case,
    f_transform_rational,
    f_transform_series,
)
from subharmonic.transform import _grid, _phase, _raw_terms

WS = 2.0 * np.pi
D_GRID = np.arange(0.05, 0.951, 0.05)
P_GRID = np.logspace(np.log10(0.01), np.log10(3.0), 20)


# ---------------------------------------------------------------- kernels


@pytest.mark.parametrize("D", D_GRID)
def test_alpha0_alpha1_closed_forms(D):
    assert alpha0(D) == pytest.approx(np.pi * (2.0 * D - 1.0), rel=1e-15)
    assert alpha1(D) == pytest.approx(
        np.pi**2 * (2.0 * D * D - 2.0 * D + 1.0), rel=1e-15)


@pytest.mark.parametrize("D", D_GRID)
def test_alpha0_antisymmetric_alpha1_symmetric(D):
    assert alpha0(D) == pytest.approx(-alpha0(1.0 - D), abs=1e-14)
    assert alpha1(D) == pytest.approx(alpha1(1.0 - D), rel=1e-14)


@pytest.mark.parametrize("D", D_GRID)
def test_correction_vanishes_at_p_zero(D):
    assert correction_c(D, 0.0) == 0.0


def _correction_c_mp(D, p):
    """c = alpha - alpha0 + alpha1 p straight from the csch form, 40 digits."""
    with mpmath.workdps(40):
        D, p = mpmath.mpf(D), mpmath.mpf(p)
        pi = mpmath.pi
        a = (2 * pi * mpmath.csch(2 * pi * p)
             - pi * mpmath.exp(pi * p * (1 - 2 * D)) * mpmath.csch(pi * p))
        return a - pi * (2 * D - 1) + pi**2 * (2 * D * D - 2 * D + 1) * p


@pytest.mark.parametrize("D", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_correction_c_matches_mpmath(D):
    # both sides of the Taylor switch, and p = 1e-3 to 1.5e-3, where the
    # direct form still cancels most of its digits
    ps = np.concatenate([np.logspace(-5, -1, 81),
                         [1e-3, 1.5e-3, np.nextafter(1e-2, 0.0), 1e-2]])
    for p in ps:
        ref = _correction_c_mp(D, p)
        err = abs((mpmath.mpf(correction_c(D, p)) - ref) / ref)
        assert err <= 1e-9, (p, float(err))


def _alpha_mp(D, p):
    # mpf arguments, evaluated at the caller's working precision
    pi = mpmath.pi
    return (2 * pi * mpmath.csch(2 * pi * p)
            - pi * mpmath.exp(pi * p * (1 - 2 * D)) * mpmath.csch(pi * p))


def _case_mp(cid, D, p, z, ws):
    """Catalog entry straight from its defining formula, mpf arguments."""
    pi = mpmath.pi
    a0 = pi * (2 * D - 1)
    a1 = pi**2 * (2 * D * D - 2 * D + 1)
    a = _alpha_mp(D, p) if p is not None else None
    return {
        "C1": lambda: a / ws,
        "C2": lambda: a0 / ws,
        "C3": lambda: p * a,
        "C4": lambda: -p / z + p * (1 - p / z) * a,
        "C5": lambda: (a0 - a) / ws,
        "C6": lambda: a1 / ws**2,
        "C7": lambda: (a0 / z + a1) / ws**2,
        "C8": lambda: (a0 + (p / z - 1) * a) / ws,
        "C9": lambda: (p / z * a1 + (1 / p - 1 / z) * (a - a0 + a1 * p)) / ws**2,
    }[cid]()


# D over the closed interval; p from 1e-8 to 50, plus both sides of the
# Taylor switches of alpha (1e-3) and correction_c (1e-2)
MP_D = np.linspace(0.0, 1.0, 11)
MP_P = np.concatenate([np.logspace(-8, np.log10(50.0), 31),
                       [np.nextafter(1e-3, 0.0), 1e-3,
                        np.nextafter(1e-2, 0.0), 1e-2]])
# integrator count: the case's value scales as omega_s ** -m
CASE_POWER = {"C1": 1, "C2": 1, "C3": 0, "C4": 0, "C5": 1, "C6": 2,
              "C7": 2, "C8": 1, "C9": 2}
NEEDS_P = ("C1", "C3", "C4", "C5", "C8", "C9")
NEEDS_Z = ("C4", "C7", "C8", "C9")


def test_alpha_matches_mpmath():
    # absolute error, since alpha is O(1) where it is not exponentially
    # small; measured worst 1.9e-13, at p = 1e-3 on the direct side
    with mpmath.workdps(40):
        for D in MP_D:
            for p in MP_P:
                ref = _alpha_mp(mpmath.mpf(D), mpmath.mpf(p))
                err = abs(mpmath.mpf(alpha(D, p)) - ref)
                assert err <= 1e-12 * max(abs(ref), 1), (D, p, float(err))


def test_alpha_matches_mpmath_around_taylor_switch():
    # the direct form cancels for small p; both sides of the switch to
    # the series must hold near the series' own accuracy (measured worst
    # 2.2e-14, against 1.8e-13 with the switch at p = 1e-3)
    with mpmath.workdps(40):
        for D in MP_D:
            for p in np.logspace(-3.0, np.log10(2e-2), 41):
                ref = _alpha_mp(mpmath.mpf(D), mpmath.mpf(p))
                err = abs(mpmath.mpf(alpha(D, p)) - ref)
                assert err <= 5e-14, (D, p, float(err))


@pytest.mark.parametrize("cid", sorted(CASE_POWER))
def test_catalog_matches_mpmath(cid):
    # error relative to the value, or to the case's own scale
    # omega_s ** -m where the value passes through zero; measured worst
    # 1.9e-13, except C9 (through correction_c's direct side just above
    # p = 1e-2): 2.6e-12
    ws = 2.0 * np.pi * 1e5
    tol = 1e-11 if cid == "C9" else 1e-12
    with mpmath.workdps(40):
        for z in ((0.8, 3.0) if cid in NEEDS_Z else (None,)):
            for p in (MP_P if cid in NEEDS_P else (None,)):
                kw = {"p": p, "z": z}
                case = TableCase(cid, **{k: v for k, v in kw.items()
                                         if v is not None})
                mp = {k: None if v is None else mpmath.mpf(v)
                      for k, v in kw.items()}
                for D in MP_D:
                    ref = _case_mp(cid, mpmath.mpf(D), mp["p"], mp["z"],
                                   mpmath.mpf(ws))
                    got = f_transform_case(case, D, ws)
                    scale = max(abs(ref), mpmath.mpf(ws) ** -CASE_POWER[cid])
                    err = abs(mpmath.mpf(got) - ref) / scale
                    assert err <= tol, (D, p, z, float(err))


def test_kernel_anchor_values():
    # frozen reference evaluations
    assert alpha(0.3, 0.5) == pytest.approx(-2.014834812780643, rel=1e-13)
    assert alpha(0.6335, 1.0 / WS) == pytest.approx(
        0.0710883831137803, rel=1e-12)
    assert alpha(0.75, 2.0) == pytest.approx(
        -0.0004632285548495999, rel=1e-10)
    assert alpha0(0.75) == pytest.approx(0.5 * np.pi, rel=1e-15)
    assert alpha0(0.7) - alpha(0.7, 0.4) == pytest.approx(
        1.4091093975087292, rel=1e-13)
    assert correction_c(0.6, 0.5) == pytest.approx(
        1.484735596831034, rel=1e-13)


@pytest.mark.parametrize("D", np.arange(0.1, 0.91, 0.1))
def test_alpha_continuous_across_taylor_handoff(D):
    # the small-p Taylor branch switches at p = 1e-2; both sides must agree
    eps = 1e-15
    lo = alpha(D, 1e-2 * (1.0 - eps))
    hi = alpha(D, 1e-2 * (1.0 + eps))
    assert abs(lo - hi) < 1e-11


@pytest.mark.parametrize("D", np.arange(0.1, 0.91, 0.2))
def test_correction_monotone_for_large_p(D):
    p = np.linspace(1.0, 10.0, 40)
    c = correction_c(D, p)
    assert np.all(np.diff(c) > 0.0)


def test_alpha_vectorizes():
    out = alpha(0.4, P_GRID)
    assert out.shape == P_GRID.shape
    scalar = alpha(0.4, float(P_GRID[7]))
    assert out[7] == pytest.approx(scalar, rel=1e-15)


@pytest.mark.parametrize("kernel", [alpha, correction_c])
def test_array_call_gives_the_bits_of_scalar_calls(kernel):
    # both branches and the switch between them, p = 1e-2 included
    p = np.sort(np.append(np.linspace(0.0, 3.0, 5001), 1e-2))
    for D in (0.0, 0.3, 0.5, 0.77, 1.0):
        loop = [kernel(D, float(x)) for x in p]
        assert np.array_equal(kernel(D, p), loop)
    D = np.linspace(0.0, 1.0, 999)
    for pv in (0.0, 1e-4, 5e-3, 1e-2, 0.3, 2.9):
        loop = [kernel(float(x), pv) for x in D]
        assert np.array_equal(kernel(D, pv), loop)
    # a 2-D broadcast, as the contour surface takes it
    Dg, pg = D[::50, None], p[None, ::250]
    loop = [[kernel(float(d), float(x)) for x in pg[0]] for d in Dg[:, 0]]
    assert np.array_equal(kernel(Dg, pg), loop)


SCALAR_TYPES = [float, np.float64, np.asarray]


@pytest.mark.parametrize("as_type", SCALAR_TYPES, ids=["float", "float64", "0-d"])
@pytest.mark.parametrize("bad_D", [-0.5, 1.5, np.nan, np.inf, -np.inf])
def test_kernels_reject_a_bad_duty_of_any_scalar_type(as_type, bad_D):
    D = as_type(bad_D)
    for call in (lambda: alpha(D, 0.3), lambda: alpha(D, 1e-3),
                 lambda: correction_c(D, 0.3), lambda: alpha0(D),
                 lambda: alpha1(D)):
        with pytest.raises(DomainError, match="duty cycle"):
            call()


@pytest.mark.parametrize("as_type", SCALAR_TYPES, ids=["float", "float64", "0-d"])
@pytest.mark.parametrize("bad_p", [-1e-3, -2.0, np.nan, np.inf])
def test_kernels_reject_a_bad_pole_ratio_of_any_scalar_type(as_type, bad_p):
    p = as_type(bad_p)
    for kernel in (alpha, correction_c):
        with pytest.raises(DomainError, match="normalized frequency"):
            kernel(0.4, p)
        with pytest.raises(DomainError, match="normalized frequency"):
            kernel(0.4, np.array([0.2, float(p)]))


# ------------------------------------------------- catalog internal algebra


def test_case_identity_pole_over_integrator():
    # alpha1*p - c == alpha0 - alpha, the two routes to the same entry;
    # relative to the operand size, since the difference nearly cancels
    for D in D_GRID:
        lhs = alpha1(D) * P_GRID - correction_c(D, P_GRID)
        rhs = alpha0(D) - alpha(D, P_GRID)
        scale = np.maximum(np.abs(alpha1(D)) * P_GRID, np.abs(rhs))
        scale = np.maximum(scale, 1e-30)
        assert np.max(np.abs(lhs - rhs) / scale) < 1e-12


def test_pole_case_reduces_to_integrator_case():
    # C1 -> C2 as the pole frequency goes to zero
    for D in (0.15, 0.4, 0.75):
        c1 = f_transform_case(TableCase("C1", p=1e-8), D, WS)
        c2 = f_transform_case(TableCase("C2"), D, WS)
        assert abs(c1 - c2) < 1e-7


def test_integrator_pole_case_reduces_to_double_integrator():
    # C5/p -> ws * C6 as p -> 0
    for D in (0.15, 0.4, 0.75):
        p = 1e-6
        c5 = f_transform_case(TableCase("C5", p=p), D, WS)
        c6 = f_transform_case(TableCase("C6"), D, WS)
        assert c5 / p == pytest.approx(WS * c6, rel=1e-4)


def test_zero_pole_integrator_case_reduces_to_zero_double_integrator():
    # C8/(p*ws) -> C7 as p -> 0
    z = 0.8
    for D in (0.15, 0.4, 0.75):
        p = 1e-6
        c8 = f_transform_case(TableCase("C8", p=p, z=z), D, WS)
        c7 = f_transform_case(TableCase("C7", z=z), D, WS)
        assert c8 / (p * WS) == pytest.approx(c7, rel=1e-4)


def test_zero_double_integrator_reduces_as_zero_recedes():
    # C7 -> C6 as z -> inf
    for D in (0.15, 0.4, 0.75):
        c7 = f_transform_case(TableCase("C7", z=1e9), D, WS)
        c6 = f_transform_case(TableCase("C6"), D, WS)
        assert c7 == pytest.approx(c6, rel=1e-8)


def test_lead_lag_case_built_from_pole_case_and_constant():
    # T = (1+s/wz)/(1+s/wp) splits as p/z * 1 + (1-p/z) * wp/(s+wp),
    # and the functional maps a constant to its negative
    z = 0.8
    for D in (0.2, 0.5, 0.8):
        for p in (0.05, 0.4, 2.0):
            c4 = f_transform_case(TableCase("C4", p=p, z=z), D, WS)
            c1 = f_transform_case(TableCase("C1", p=p), D, WS)
            built = (p / z) * (-1.0) + (1.0 - p / z) * (p * WS) * c1
            assert c4 == pytest.approx(built, rel=1e-12, abs=1e-14)


def test_degenerate_pole_limit_of_zero_pole_double_integrator():
    # the 1/p factor in C9 is removable; the value must go to 0 with p
    vals = [f_transform_case(TableCase("C9", p=p, z=0.8), 0.35, WS)
            for p in (1e-2, 1e-4, 0.0)]
    assert abs(vals[1]) < abs(vals[0])
    assert vals[2] == 0.0


@pytest.mark.parametrize("cid,kw", [
    ("C1", {}),                      # missing p
    ("C2", {"p": 0.3}),              # stray p
    ("C7", {"z": 0.8, "p": 0.3}),    # stray p
    ("C4", {"p": 0.3}),              # missing z
    ("C0", {}),                      # no such entry
])
def test_case_argument_validation(cid, kw):
    with pytest.raises(DomainError):
        TableCase(cid, **kw)


# the frequencies each catalog case takes, restated from the paper's table
CASE_TAKES = {"C1": "p", "C2": "", "C3": "p", "C4": "pz", "C5": "p",
              "C6": "", "C7": "z", "C8": "pz", "C9": "pz"}
KIND = {"p": "pole", "z": "zero"}


def _case_kwargs(cid):
    return {name: 0.5 for name in CASE_TAKES[cid]}


@pytest.mark.parametrize("cid", sorted(CASE_TAKES))
def test_each_case_takes_exactly_its_frequencies(cid):
    assert TableCase(cid, **_case_kwargs(cid)).case_id == cid
    for name, kind in KIND.items():
        kw = _case_kwargs(cid)
        if name in kw:
            del kw[name]
            need = "requires"
        else:
            kw[name] = 0.5
            need = "does not take"
        with pytest.raises(DomainError,
                           match=f"{cid} {need} a {kind} frequency {name}"):
            TableCase(cid, **kw)


@pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
@pytest.mark.parametrize("cid", [c for c in sorted(CASE_TAKES) if CASE_TAKES[c]])
def test_each_case_rejects_a_bad_frequency(cid, bad):
    for name in CASE_TAKES[cid]:
        kw = _case_kwargs(cid)
        kw[name] = bad
        with pytest.raises(DomainError, match="normalized frequency"):
            TableCase(cid, **kw)


def test_unknown_case_id_is_rejected():
    with pytest.raises(DomainError, match="unknown case id 'C10'"):
        TableCase("C10", p=0.5)


def test_duty_range_is_validated():
    # the closed interval [0, 1] is allowed; beyond it is not
    assert np.isfinite(f_transform_case(TableCase("C2"), 0.0, WS))
    with pytest.raises(DomainError):
        f_transform_case(TableCase("C2"), -0.1, WS)
    with pytest.raises(DomainError):
        f_transform_case(TableCase("C2"), 1.5, WS)
    with pytest.raises(DomainError):
        f_transform_case(TableCase("C2"), 0.4, -WS)


_ROUTES = {
    "series": lambda omega_s: f_transform_series(
        RationalTF(1.0, poles=[0.5 * WS]), 0.4, omega_s),
    "case": lambda omega_s: f_transform_case(TableCase("C2"), 0.4, omega_s),
    "rational": lambda omega_s: f_transform_rational(
        RationalTF(1.0, poles=[0.5 * WS]), 0.4, omega_s),
}


@pytest.mark.parametrize("omega_s", [0.0, -WS, math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("route", sorted(_ROUTES))
def test_every_route_rejects_a_switching_rate_not_positive_and_finite(route, omega_s):
    assert math.isfinite(_ROUTES[route](WS))
    with pytest.raises(DomainError, match="omega_s must be positive"):
        _ROUTES[route](omega_s)


# ------------------------------------------------------------ series route


@pytest.mark.parametrize("K", [0, -3, 1e4, 2.5, True, "10000", None])
def test_series_rejects_a_term_count_that_is_not_an_integer_of_at_least_one(K):
    with pytest.raises(DomainError, match="K must be"):
        f_transform_series(RationalTF(1.0, poles=[0.5 * WS]), 0.4, WS, K=K)


def test_series_takes_numpy_integer_term_counts():
    T = RationalTF(1.0, poles=[0.5 * WS])
    want = f_transform_series(T, 0.4, WS, K=10_000)
    for K in (np.int64(10_000), np.int32(10_000), np.uint16(10_000)):
        assert f_transform_series(T, 0.4, WS, K=K) == want


@pytest.mark.parametrize("D", [np.array(0.3), [0.3, 0.4], [[0.3, 0.4], [0.55, 0.9]]],
                         ids=["0-d", "(2,)", "(2, 2)"])
def test_series_broadcasts_an_array_duty_with_the_bits_of_scalar_calls(D):
    T = RationalTF(1.0, poles=[3.0])
    got = f_transform_series(T, D, 6.28)
    D = np.asarray(D)
    want = np.array([f_transform_series(T, float(d), 6.28)
                     for d in D.ravel()]).reshape(D.shape)
    assert type(got) is float if D.ndim == 0 else got.shape == D.shape
    assert np.array_equal(np.asarray(got).view(np.uint64), want.view(np.uint64))
    np.testing.assert_allclose(got, f_transform_rational(T, D, 6.28), rtol=1e-7)


def test_series_at_a_scalar_duty_is_a_float_with_pinned_bits():
    got = f_transform_series(RationalTF(1.0, poles=[3.0]), 0.3, 6.28)
    assert type(got) is float and got.hex() == "-0x1.f805f2e1460e5p-1"


@pytest.mark.parametrize("K", [10, 10_000])
def test_series_refuses_a_sum_that_is_not_finite(K):
    # the first harmonics are nan, the tail decays like 1/s
    T = lambda s: np.where(np.abs(s) < 2 * WS, np.nan, 1 / s)
    with pytest.raises(NoConvergence, match="not finite"):
        f_transform_series(T, 0.4, WS, K=K)


@pytest.mark.parametrize("K", [10, 4096, 10_000, 12_345])
def test_series_evaluates_each_block_once_at_its_full_then_half_points(K):
    seen = []

    def T(s):
        seen.append(np.array(s, copy=True))
        return 1.0 / (1.0 + s)

    _raw_terms(T, 0.37, WS, K)
    assert len(seen) == math.ceil(K / 4096)
    for lo, points in zip(range(0, K, 4096), seen):
        k = np.arange(lo + 1, min(lo + 4096, K) + 1, dtype=float)
        want = np.concatenate([1j * (k * WS), 1j * ((k - 0.5) * WS)])
        assert points.dtype == want.dtype and points.shape == want.shape
        assert np.array_equal(points.view(np.uint64), want.view(np.uint64))


def test_series_matches_kernel_on_single_pole_grid():
    # 1/(s+wp) against alpha/ws over the full (D, p) grid
    worst = 0.0
    for D in D_GRID:
        for p in P_GRID:
            wp = p * WS
            T = RationalTF(1.0 / wp, poles=[wp])
            ser = f_transform_series(T, D, WS, K=10_000)
            worst = max(worst, abs(ser - alpha(D, p) / WS))
    assert worst <= 1e-6


def test_series_is_linear():
    wp1, wp2 = 0.35 * WS, 1.4 * WS
    T1 = RationalTF(1.0, poles=[wp1], integrators=1)
    T2 = RationalTF(1.0, poles=[wp2])
    a, b = 2.25, -0.75
    combo = lambda s: a * T1(s) + b * T2(s)
    for D in (0.2, 0.45, 0.8):
        lhs = f_transform_series(combo, D, WS, K=10_000)
        rhs = (a * f_transform_series(T1, D, WS, K=10_000)
               + b * f_transform_series(T2, D, WS, K=10_000))
        assert lhs == pytest.approx(rhs, rel=1e-10)


@pytest.mark.parametrize("K", [10, 4096, 10_000, 12_345])
def test_blocked_series_terms_match_one_whole_evaluation(K):
    # the oracle evaluates its terms in blocks; the terms are elementwise,
    # so every one must equal the whole-array evaluation to the bit
    T = RationalTF(2.0, zeros=[0.3 * WS], poles=[0.8 * WS, 2.5 * WS],
                   integrators=1)
    D = 0.37
    k = np.arange(1, K + 1, dtype=float)
    whole = 2.0 * ((1.0 - np.exp(2j * np.pi * D * k)) * T(1j * k * WS)
                   - T(1j * (k - 0.5) * WS)).real
    np.testing.assert_array_equal(_raw_terms(T, D, WS, K), whole)


def _whole_terms(T, D, omega_s, K):
    k = np.arange(1, K + 1, dtype=float)
    return 2.0 * ((1.0 - np.exp(2j * np.pi * D * k)) * T(1j * k * omega_s)
                  - T(1j * (k - 0.5) * omega_s)).real


def test_cached_grids_and_phases_are_read_only():
    for arr in (*_grid(WS, 5000), _phase(0.37, 5000)):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_alternating_switching_rates_give_the_terms_of_a_fresh_evaluation():
    # the harmonic grids are cached per (omega_s, K); switching back and
    # forth must never hand one rate's grid to the other
    T = RationalTF(2.0, zeros=[0.3 * WS], poles=[0.8 * WS, 2.5 * WS],
                   integrators=1)
    D, K = 0.37, 9_000
    for omega_s in (WS, 3.3 * WS, WS, 3.3 * WS, 2e5 * WS, WS):
        np.testing.assert_array_equal(_raw_terms(T, D, omega_s, K),
                                      _whole_terms(T, D, omega_s, K))


def test_series_at_more_terms_outside_its_default_envelope():
    # real poles near 12 omega_s at small duty lie outside the envelope
    # the default K = 1e4 holds to 1e-7 (6.1e-7 here); K = 1e5 recovers it
    T = RationalTF(1.0, zeros=[4.56 * WS, 2.56 * WS],
                   poles=[11.81 * WS, 12.36 * WS, 13.50 * WS])
    D = 0.0583
    exact = f_transform_rational(T, D, WS)
    ser = f_transform_series(T, D, WS, K=100_000)
    assert abs(ser - exact) <= 1e-9 * max(1.0, abs(exact))


def test_series_maps_unity_to_minus_one():
    assert f_transform_series(RationalTF(1.0), 0.3, WS) == -1.0
    boxed = lambda s: np.ones_like(np.asarray(s, dtype=complex))
    assert f_transform_series(boxed, 0.3, WS) == -1.0


@pytest.mark.parametrize("f_s", [50e3, 1e6])
def test_callable_series_matches_rational_at_converter_rates(f_s):
    # the constant split of a plain callable must judge its high-frequency
    # limit relative to the switching rate, not at fixed frequencies
    w_s, D, z = 2.0 * np.pi * f_s, 0.3, 0.8
    for p in P_GRID:
        wp, wz = p * w_s, z * w_s
        shapes = [
            (RationalTF(1.0 / wp, poles=[wp]),
             lambda s: (1.0 / wp) / (1.0 + s / wp)),
            (RationalTF(1.0, poles=[wp]), lambda s: 1.0 / (1.0 + s / wp)),
            (RationalTF(1.0, zeros=[wz], poles=[wp]),
             lambda s: (1.0 + s / wz) / (1.0 + s / wp)),
        ]
        for tf, fn in shapes:
            want = f_transform_series(tf, D, w_s)
            assert f_transform_series(fn, D, w_s) == pytest.approx(want, rel=1e-9)


def test_rational_route_agrees_with_catalog():
    z = 0.8
    shapes = {
        "C1": lambda wp, wz: RationalTF(1.0 / wp, poles=[wp]),
        "C3": lambda wp, wz: RationalTF(1.0, poles=[wp]),
        "C4": lambda wp, wz: RationalTF(1.0, zeros=[wz], poles=[wp]),
        "C5": lambda wp, wz: RationalTF(1.0, poles=[wp], integrators=1),
        "C8": lambda wp, wz: RationalTF(1.0, zeros=[wz], poles=[wp],
                                        integrators=1),
        "C9": lambda wp, wz: RationalTF(1.0, zeros=[wz], poles=[wp],
                                        integrators=2),
    }
    for cid, make in shapes.items():
        for D in (0.15, 0.5, 0.85):
            for p in (0.03, 0.4, 2.0):
                kw = {"p": p}
                if cid in ("C4", "C8", "C9"):
                    kw["z"] = z
                want = f_transform_case(TableCase(cid, **kw), D, WS)
                got = f_transform_rational(make(p * WS, z * WS), D, WS)
                assert got == pytest.approx(want, rel=1e-11, abs=1e-13)


_CORNERS = st.floats(0.05, 5.0)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(poles=st.lists(_CORNERS, min_size=1, max_size=3),
       zeros=st.lists(_CORNERS, max_size=2),
       integrators=st.integers(0, 1),
       D=st.floats(0.1, 0.9))
def test_series_matches_rational_route_on_random_shapes(poles, zeros,
                                                        integrators, D):
    # the oracle summed term by term against the partial-fraction route,
    # on shapes with distinct real poles, corners in units of omega_s
    poles = sorted(poles)
    assume(all(b > 1.01 * a for a, b in zip(poles, poles[1:])))
    assume(len(zeros) <= len(poles))
    T = RationalTF(1.0, zeros=[z * WS for z in zeros],
                   poles=[p * WS for p in poles], integrators=integrators)
    exact = f_transform_rational(T, D, WS)
    ser = f_transform_series(T, D, WS, K=10_000)
    assert abs(ser - exact) <= 1e-7 * max(1.0, abs(exact))


def test_rational_route_rejects_near_repeated_poles():
    from subharmonic import UnsupportedStructure
    T = RationalTF(1.0, poles=[1.0, 1.0 + 1e-12], integrators=1)
    with pytest.raises(UnsupportedStructure):
        f_transform_rational(T, 0.4, WS)


# two real corners given as one quadratic factor 1 + (1/a + 1/b) s + s^2/(a b)
QUAD_A, QUAD_B = 3e4, 2.5e5
WS_100K = 2.0 * np.pi * 1e5


@pytest.mark.parametrize("m", [0, 1, 2])
def test_real_quadratic_factor_matches_its_two_poles(m):
    quad = RationalTF(2e5, integrators=m,
                      quad_poles=[(1.0 / QUAD_A + 1.0 / QUAD_B,
                                   1.0 / (QUAD_A * QUAD_B))])
    split = RationalTF(2e5, poles=[QUAD_A, QUAD_B], integrators=m)
    for D in (0.2, 0.5, 0.8):
        got = f_transform_rational(quad, D, WS_100K)
        assert got == pytest.approx(f_transform_rational(split, D, WS_100K),
                                    rel=1e-12)
        assert got == pytest.approx(f_transform_series(quad, D, WS_100K),
                                    rel=1e-7)


def test_complex_quadratic_pole_pair_is_unsupported():
    from subharmonic import UnsupportedStructure
    T = RationalTF(1.0, quad_poles=[(1e-5, 1e-9)], integrators=1)
    with pytest.raises(UnsupportedStructure, match="complex pole pair"):
        f_transform_rational(T, 0.4, WS_100K)
