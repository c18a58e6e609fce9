"""Kernel functions and the series evaluation of the ripple functional."""

import mpmath
import numpy as np
import pytest

from subharmonic import (
    DomainError,
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
    # the small-p branch switches at p = 1e-3; both sides must agree
    eps = 1e-15
    lo = alpha(D, 1e-3 * (1.0 - eps))
    hi = alpha(D, 1e-3 * (1.0 + eps))
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


def test_duty_range_is_validated():
    # the closed interval [0, 1] is allowed; beyond it is not
    assert np.isfinite(f_transform_case(TableCase("C2"), 0.0, WS))
    with pytest.raises(DomainError):
        f_transform_case(TableCase("C2"), -0.1, WS)
    with pytest.raises(DomainError):
        f_transform_case(TableCase("C2"), 1.5, WS)
    with pytest.raises(DomainError):
        f_transform_case(TableCase("C2"), 0.4, -WS)


# ------------------------------------------------------------ series route


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


def test_rational_route_rejects_near_repeated_poles():
    from subharmonic import UnsupportedStructure
    T = RationalTF(1.0, poles=[1.0, 1.0 + 1e-12], integrators=1)
    with pytest.raises(UnsupportedStructure):
        f_transform_rational(T, 0.4, WS)
