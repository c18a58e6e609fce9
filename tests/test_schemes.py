"""Control-scheme loop gains, closed-form stability values, and solvers."""

import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from subharmonic import (
    ACMC,
    CFPVR,
    CMC,
    PVMC,
    RLP,
    VMC3,
    BuckParams,
    ControlScheme,
    DomainError,
    NoRoot,
    UnsupportedStructure,
    acmc_gain,
    acmc_min_ramp,
    acmc_window_estimate,
    closed_form_lvalue,
    contour_data,
    critical_acmc,
    critical_cmc,
    critical_pvmc,
    critical_pvmc_noesr,
    critical_pvmc_smallR,
    critical_rlp,
    critical_vmc3,
    duty_ratio,
    loop_gain_hf,
    load_config,
    lplot,
    rlp_critical_kp,
    rlp_steady_duty,
    solve_critical,
    v2_large_c_bound,
    v2_min_ramp,
    v2_no_ramp_feasible,
    v2_no_ramp_feasible_alt,
    v2_no_ramp_threshold,
    vmc3_gain,
)
from subharmonic import schemes
from subharmonic.schemes import grid_crossings
from conftest import config_path
from subharmonic.transform import (
    alpha,
    alpha0,
    f_transform_rational,
    f_transform_series,
)


# ------------------------------------------------------------- fixed points


def test_rl_proportional_critical_gain(ex1):
    kp, duty = rlp_critical_kp(ex1)
    assert kp == pytest.approx(8.537926282811904, rel=1e-12)
    assert duty == pytest.approx(0.6339745962155613, rel=1e-12)
    # the solver front end reaches the same number
    res = solve_critical(ex1, RLP(k_p=8.0), "k_p")
    assert res.critical_value == pytest.approx(kp, rel=1e-12)


def test_rl_critical_gain_is_the_exact_root(ex1):
    # L is linear in k_p, so the critical gain puts L on 1 to the last bits
    kp, duty = rlp_critical_kp(ex1)
    assert abs(RLP(k_p=kp).lvalue(ex1, duty) - 1.0) <= 4 * math.ulp(1.0)


def test_rl_critical_gain_needs_a_positive_lvalue(ex1):
    # at v_r = 5 the steady duty is 0.3820, where alpha(d, p) < 0
    with pytest.raises(NoRoot, match="no positive critical gain at steady "
                                     "duty 0.3820"):
        rlp_critical_kp(dataclasses.replace(ex1, v_r=5.0))


def test_rl_steady_duty_from_modulator_balance(ex1):
    assert rlp_steady_duty(ex1, 8.0) == pytest.approx(
        0.6331580850514374, rel=1e-13)
    assert rlp_steady_duty(ex1, 9.0) == pytest.approx(
        0.634191965881843, rel=1e-13)


def test_rl_proportional_lvalues_straddle_threshold(ex1):
    assert critical_rlp(ex1, 8.0).lvalue == pytest.approx(
        0.8821556245481573, rel=1e-12)
    assert critical_rlp(ex1, 9.0).lvalue == pytest.approx(
        1.0705359574176956, rel=1e-12)
    assert critical_rlp(ex1, 8.0).stable
    assert not critical_rlp(ex1, 9.0).stable


def test_average_current_gain_and_window(ex2, sch2):
    K = acmc_gain(ex2, sch2)
    D = duty_ratio(ex2, sch2)
    assert K == pytest.approx(1.29118180803866, rel=1e-12)
    assert D == pytest.approx(0.5 / 1.4, rel=1e-14)
    curve = lplot(ex2, sch2, "p", np.linspace(0.05, 0.95, 181))
    assert curve.crossings == pytest.approx(
        (0.18180059686303138, 0.4584932729601859), rel=1e-10)
    lo, hi = acmc_window_estimate(K, D)
    assert lo == pytest.approx(0.14509854657928334, rel=1e-12)
    assert hi == pytest.approx(0.5814395107986693, rel=1e-12)
    assert acmc_min_ramp(ex2, sch2, D) == pytest.approx(
        59909.179746814465, rel=1e-12)
    res = critical_acmc(ex2, sch2, D)
    assert res.lvalue == pytest.approx(1.1981835949362893, rel=1e-12)
    assert res.critical_value == pytest.approx(11.684352931525838, rel=1e-12)


def test_type_three_voltage_mode_anchors(ex3, sch3):
    assert vmc3_gain(ex3, sch3) == pytest.approx(
        0.8696453142860525, rel=1e-12)
    assert duty_ratio(ex3, sch3) == pytest.approx(0.20625, rel=1e-13)
    res = critical_vmc3(ex3, sch3, 0.2)
    assert res.critical_value == pytest.approx(17.12447578559703, rel=1e-12)
    # solver front end, duty pinned and coupled variants
    assert solve_critical(ex3, sch3, "v_s", duty=0.2).critical_value == \
        pytest.approx(17.12447578559703, rel=1e-12)
    assert solve_critical(ex3, sch3, "v_s").critical_value == \
        pytest.approx(16.830080640955387, rel=1e-12)


def test_type_three_pole_sweep_crossings(ex3, sch3):
    curve = lplot(ex3, sch3, "p", np.linspace(0.05, 0.95, 181), duty=0.2)
    assert curve.crossings == pytest.approx(
        (0.2360166390240192, 0.45813103348016726), rel=1e-10)
    lo, hi = acmc_window_estimate(vmc3_gain(ex3, sch3), 0.2)
    assert lo == pytest.approx(0.1713362197240398, rel=1e-12)
    assert hi == pytest.approx(0.5752934004648771, rel=1e-12)


def test_no_finite_critical_voltage_above_window(ex3):
    sch = VMC3(K_c=7.78e4, kappa_z=0.5, omega_p=3.0 * ex3.omega_s)
    with pytest.raises(DomainError):
        critical_vmc3(ex3, sch, 0.3)


def test_flat_ramp_current_mode_crossing(cmc_zero_ramp):
    curve = lplot(cmc_zero_ramp, CMC(), "D", np.linspace(0.05, 0.95, 181))
    assert len(curve.crossings) == 1
    assert abs(curve.crossings[0] - 0.5) <= 1e-6
    assert solve_critical(cmc_zero_ramp, CMC(), "D").critical_value == \
        pytest.approx(0.5, abs=1e-9)


def test_ramp_free_current_mode_value_is_twice_duty(cmc_zero_ramp):
    D = np.linspace(0.1, 0.9, 9)
    lv = np.array([closed_form_lvalue(cmc_zero_ramp, CMC(), d) for d in D])
    np.testing.assert_allclose(lv, 2.0 * D, rtol=1e-13)


def test_current_mode_ramp_requirement_vanishes_at_half():
    params = BuckParams(v_s=10.0, v_r=3.0, V_l=0.0, V_h=1.0,
                        f_s=1e5, L=1e-4, R=1.0, C=100e-6)
    assert critical_cmc(params, 0.5) == 0.0
    # deeper duty needs more ramp
    ms = [critical_cmc(params, d) for d in (0.55, 0.65, 0.8)]
    assert ms[0] < ms[1] < ms[2]
    assert critical_cmc(params, 0.3) < 0.0


# ------------------------------------------------------- oracle consistency


ORACLE_CASES = [
    ("cmc", None),
    ("pvmc", None),
    ("cfpvr", None),
    ("rlp", None),
    ("acmc", None),
    ("vmc3", None),
]


@pytest.mark.parametrize("tag,_", ORACLE_CASES)
def test_closed_forms_match_series_on_grid(tag, _, ex1, ex2, sch2, ex3, sch3):
    """10 x 10 (duty, parameter) grid per scheme, absolute 1e-6."""
    D_grid = np.linspace(0.1, 0.9, 10)
    worst = 0.0
    for D in D_grid:
        for t in np.linspace(0.0, 1.0, 10):
            if tag == "cmc":
                params = dataclasses.replace(ex2, v_s=5.0 + 15.0 * t)
                scheme = CMC()
            elif tag == "pvmc":
                params, scheme = ex3, PVMC(k_p=0.5 + 4.5 * t)
            elif tag == "cfpvr":
                params, scheme = ex3, CFPVR(k_p=0.5 + 4.5 * t)
            elif tag == "rlp":
                params, scheme = ex1, RLP(k_p=1.0 + 11.0 * t)
            elif tag == "acmc":
                params = ex2
                scheme = dataclasses.replace(
                    sch2, omega_p=(0.05 + 0.85 * t) * ex2.omega_s)
            else:
                params = ex3
                scheme = dataclasses.replace(
                    sch3, omega_p=(0.05 + 0.85 * t) * ex3.omega_s)
            closed = closed_form_lvalue(params, scheme, D)
            series = f_transform_series(
                loop_gain_hf(params, scheme), D, params.omega_s)
            worst = max(worst, abs(closed - series))
    assert worst <= 1e-6


# --------------------------------------------------------- ramp identities


def test_min_ramp_equals_rearranged_ripple_value(ex2):
    # the explicit ramp bound and V_m * lvalue * f_s must coincide
    worst = 0.0
    for D in np.linspace(0.02, 0.98, 50):
        direct = v2_min_ramp(ex2, 3.0, D)
        from_l = ex2.V_m * critical_pvmc(ex2, 3.0, D).lvalue * ex2.f_s
        worst = max(worst, abs(direct - from_l) / max(1.0, abs(direct)))
    assert worst <= 1e-10


def test_no_ramp_boundary_anchor():
    assert v2_no_ramp_threshold(0.3) == pytest.approx(0.725, rel=1e-12)
    with pytest.raises(DomainError):
        v2_no_ramp_threshold(0.5)


@pytest.mark.parametrize("ratio", [0.3, 0.725, 1.2, 3.0])
def test_no_ramp_feasibility_forms_agree(ex3, ratio):
    # both algebraic arrangements of the feasibility test, 50-point grid
    C = ex3.require_C()
    params = dataclasses.replace(ex3, R_c=ratio * ex3.T / C)
    for D in np.linspace(0.01, 0.98, 50):
        assert v2_no_ramp_feasible(params, D) == \
            v2_no_ramp_feasible_alt(params, D)


@pytest.mark.parametrize("ratio", [0.3, 10.0, 1000.0])
def test_no_ramp_never_feasible_at_deep_duty(ex3, ratio):
    C = ex3.require_C()
    params = dataclasses.replace(ex3, R_c=ratio * ex3.T / C)
    for D in np.linspace(0.5, 0.98, 25):
        assert not v2_no_ramp_feasible(params, D)


def test_ripple_regulation_equals_plain_form_without_esr(ex3):
    params = dataclasses.replace(ex3, R_c=0.0)
    for D in np.linspace(0.05, 0.95, 19):
        for kp in (0.5, 2.0, 7.0):
            a = critical_pvmc(params, kp, D).lvalue
            b = critical_pvmc_noesr(params, kp, D).lvalue
            assert a == b


def test_small_load_critical_voltage_scales_with_resistance(ex3):
    params = dataclasses.replace(ex3, R_c=0.0)
    # halve R but double C so the load pole p = 1/(R C ws) stays put;
    # the remaining explicit 1/R factor then doubles the critical voltage
    half = dataclasses.replace(params, R=0.5 * params.R,
                               C=2.0 * params.require_C())
    v1 = critical_pvmc_smallR(params, 2.0, 0.35)
    v2 = critical_pvmc_smallR(half, 2.0, 0.35)
    assert v2 == pytest.approx(2.0 * v1, rel=1e-12)


def test_large_capacitor_ramp_bound_anchor(ex2):
    assert v2_large_c_bound(ex2, 0.7) == pytest.approx(
        1214.7505422993488, rel=1e-12)
    assert v2_min_ramp(ex2, 3.0, 0.7) == pytest.approx(
        10389.313848612852, rel=1e-12)


# ------------------------------------------------------ window estimate fit


def test_window_estimate_brackets_exact_crossings():
    """The estimate opens early everywhere; it closes within 0.1 of the
    exact upper crossing while the duty stays moderate (the approximation
    loses the upper endpoint beyond that).
    """
    p_scan = np.geomspace(1e-3, 60.0, 800)
    n_windows = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for D in np.linspace(0.2, 0.7, 21):
            gap = alpha0(D) - alpha(D, p_scan)
            for K in np.linspace(0.8, 1.5, 15):
                vals = K * gap - 1.0
                idx = np.nonzero(np.sign(vals[:-1]) != np.sign(vals[1:]))[0]
                if len(idx) != 2:
                    continue
                f = lambda p: K * (alpha0(D) - alpha(D, p)) - 1.0
                exact_lo = brentq(f, p_scan[idx[0]], p_scan[idx[0] + 1],
                                  xtol=1e-14)
                exact_hi = brentq(f, p_scan[idx[1]], p_scan[idx[1] + 1],
                                  xtol=1e-14)
                est_lo, est_hi = acmc_window_estimate(K, D)
                n_windows += 1
                assert est_lo <= exact_lo + 1e-9
                if D <= 0.55:
                    assert est_hi >= exact_hi - 0.1
    assert n_windows > 150


def test_window_estimate_warns_outside_validity():
    with pytest.warns(UserWarning):
        acmc_window_estimate(1.0, 0.05)
    with pytest.warns(UserWarning):
        acmc_window_estimate(0.2, 0.4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        acmc_window_estimate(1.0, 0.4)  # nominal range, no warning


# ------------------------------------------------------------- monotonicity


@pytest.mark.parametrize("which", ["cmc", "acmc", "vmc3"])
def test_larger_ramp_never_destabilizes(which, ex2, sch2, ex3, sch3):
    for D in np.linspace(0.1, 0.9, 9):
        stables = []
        for m in (1.0, 2.0, 4.0, 8.0):
            if which == "cmc":
                params = dataclasses.replace(
                    ex2, V_l=0.0, V_h=m * ex2.V_m)
                scheme = CMC()
            elif which == "acmc":
                params = dataclasses.replace(
                    ex2, V_l=0.0, V_h=m * ex2.V_m)
                scheme = sch2
            else:
                params = dataclasses.replace(
                    ex3, V_l=0.0, V_h=m * ex3.V_m)
                scheme = sch3
            stables.append(closed_form_lvalue(params, scheme, D) < 1.0)
        flags = np.array(stables, dtype=int)
        assert np.all(np.diff(flags) >= 0)


def test_halving_compensator_gain_doubles_critical_voltage(ex3, sch3):
    soft = dataclasses.replace(sch3, K_c=0.5 * sch3.K_c)
    v1 = critical_vmc3(ex3, sch3, 0.2).critical_value
    v2 = critical_vmc3(ex3, soft, 0.2).critical_value
    assert v2 == pytest.approx(2.0 * v1, rel=1e-12)
    prop = dataclasses.replace(sch3, kappa_z=2.0 * sch3.kappa_z)
    v3 = critical_vmc3(ex3, prop, 0.2).critical_value
    assert v3 == pytest.approx(2.0 * v1, rel=1e-12)


# ------------------------------------------------------------ surface sweep


def test_gap_surface_anchor_and_ceiling():
    assert contour_data([0.7], [0.4])[0, 0] == pytest.approx(
        1.4091093975087292, rel=1e-12)
    surface = contour_data(np.linspace(0.01, 0.999, 120),
                           np.geomspace(0.01, 50.0, 120))
    assert surface.max() < np.pi
    assert surface.max() == pytest.approx(np.pi, abs=0.02)


def test_loop_gain_shapes(ex1, ex2, sch2, ex3, sch3):
    # every scheme exposes a factored rational loop gain
    assert loop_gain_hf(ex1, RLP(k_p=8.0)).den_order >= 1
    T = loop_gain_hf(ex2, sch2)
    assert T.integrators >= 1
    T3 = loop_gain_hf(ex3, sch3)
    assert T3.relative_degree >= 1


# ------------------------------------------- sweeps and duty-coupled solves


POLELESS = [CMC(), PVMC(k_p=2.0), CFPVR(k_p=1.0), RLP(k_p=8.0)]


@pytest.mark.parametrize("variable", ["p", "omega_p"])
@pytest.mark.parametrize("scheme", POLELESS, ids=lambda s: type(s).__name__)
def test_pole_sweep_needs_a_compensator_pole(scheme, variable, ex2):
    with pytest.raises(DomainError, match="omega_p"):
        lplot(ex2, scheme, variable, np.linspace(0.1, 0.9, 9))


def test_pole_ratio_sweep_rejects_a_nonpositive_ratio(ex2, sch2):
    for grid in ([0.0, 0.5], [-0.2, 0.5], [0.5, 0.2, -0.1]):
        with pytest.raises(DomainError, match="omega_p must be positive"):
            lplot(ex2, sch2, "p", grid)


# pole ratios either side of the Taylor switch at p = 1e-2, and on it
P_STRADDLE = np.unique(np.concatenate([np.geomspace(1e-4, 2.0, 61), [1e-2]]))
D_FULL = np.linspace(0.0, 1.0, 201)


@pytest.fixture
def closed_form_cases(ex1, ex2, sch2, ex3, sch3, cmc_zero_ramp):
    """(params, scheme) for all six schemes, the flat-ramp CMC, and the
    pole schemes again with a pole ratio inside the Taylor branch."""
    return [
        (ex2, CMC()), (cmc_zero_ramp, CMC()), (ex2, PVMC(k_p=15.0)),
        (ex2, CFPVR(k_p=12.0)), (ex1, RLP(k_p=8.0)), (ex2, sch2), (ex3, sch3),
        (ex2, dataclasses.replace(sch2, omega_p=4e-4 * ex2.omega_s)),
        (ex3, dataclasses.replace(sch3, omega_p=1e-2 * ex3.omega_s)),
    ]


def test_lplot_over_duty_equals_a_point_loop(closed_form_cases):
    for params, scheme in closed_form_cases:
        curve = lplot(params, scheme, "D", D_FULL)
        loop = [closed_form_lvalue(params, scheme, float(d)) for d in D_FULL]
        assert np.array_equal(curve.lvalues, loop), scheme


@pytest.mark.parametrize("duty", [None, 0.2])
def test_lplot_over_pole_ratio_equals_a_point_loop(duty, ex2, sch2, ex3, sch3):
    for params, scheme in ((ex2, sch2), (ex3, sch3)):
        for grid in (P_STRADDLE, P_STRADDLE[::-1]):
            curve = lplot(params, scheme, "p", grid, duty=duty)
            D = duty if duty is not None else duty_ratio(params, scheme)
            loop = [closed_form_lvalue(params, scheme, D, float(x)) for x in grid]
            assert np.array_equal(curve.lvalues, loop), scheme


def test_contour_equals_a_point_loop():
    D = np.linspace(0.0, 1.0, 41)
    p = np.unique(np.concatenate([[0.0, 1e-2], np.geomspace(1e-4, 3.0, 40)]))
    loop = [[alpha0(float(d)) - alpha(float(d), float(x)) for x in p] for d in D]
    assert np.array_equal(contour_data(D, p), loop)


BAD_DUTIES = [-0.5, 1.5, np.nan, np.inf]


@pytest.mark.parametrize("as_type", [float, np.float64, np.asarray],
                         ids=["float", "float64", "0-d"])
def test_every_scheme_rejects_a_bad_duty(as_type, closed_form_cases):
    for params, scheme in closed_form_cases:
        for bad in BAD_DUTIES:
            with pytest.raises(DomainError, match="duty cycle must be finite"):
                closed_form_lvalue(params, scheme, as_type(bad))
            with pytest.raises(DomainError, match="duty cycle must be finite"):
                scheme.lvalue(params, as_type(bad))
        with pytest.raises(DomainError, match="duty cycle must be finite"):
            lplot(params, scheme, "D", [0.5, 1.5])


def test_closed_forms_give_floats_for_scalars(closed_form_cases, ex2, sch2):
    for params, scheme in closed_form_cases:
        for D in (0.3, np.float64(0.3), np.asarray(0.3)):
            assert type(closed_form_lvalue(params, scheme, D)) is float
            assert type(scheme.lvalue(params, D)) is float
    assert type(closed_form_lvalue(ex2, sch2, 0.3, np.asarray(0.2))) is float


def _crossings_by_loop(grid, lvalues, refine=None):
    """The pairwise scan grid_crossings does with array operations."""
    resid = np.asarray(lvalues, dtype=float) - 1.0
    out = []
    for i in range(len(grid) - 1):
        a, b = resid[i], resid[i + 1]
        if not (np.isfinite(a) and np.isfinite(b)):
            continue
        if a == 0.0:
            out.append(float(grid[i]))
        elif a * b < 0.0:
            if refine is None:
                t = a / (a - b)
                out.append(float(grid[i] + t * (grid[i + 1] - grid[i])))
            else:
                lo, hi = sorted((grid[i], grid[i + 1]))
                out.append(float(refine(lo, hi)))
    if len(grid) and np.isfinite(resid[-1]) and resid[-1] == 0.0:
        out.append(float(grid[-1]))
    return out


@pytest.mark.parametrize("seed", range(6))
def test_grid_crossings_match_the_pairwise_scan(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 60))
    grid = np.sort(rng.uniform(-3.0, 3.0, n))[:: 1 if seed % 2 else -1]
    lv = 1.0 + rng.normal(size=n)
    pick = rng.uniform(size=n)
    lv[pick < 0.15] = 1.0
    lv[(pick > 0.85) & (pick < 0.9)] = np.nan
    lv[pick > 0.95] = np.inf
    for refine in (None, lambda lo, hi: 0.25 * lo + 0.75 * hi):
        assert grid_crossings(grid, lv, refine) == \
            _crossings_by_loop(grid, lv, refine)


def test_pole_sweep_in_ratio_or_frequency_agrees(ex2, sch2):
    grid = np.linspace(0.05, 0.95, 19)
    by_ratio = lplot(ex2, sch2, "p", grid)
    by_freq = lplot(ex2, sch2, "omega_p", grid * ex2.omega_s)
    np.testing.assert_allclose(by_freq.lvalues, by_ratio.lvalues, rtol=1e-12)
    np.testing.assert_allclose(np.array(by_freq.crossings) / ex2.omega_s,
                               by_ratio.crossings, rtol=1e-8)


# a 12 V to 3.3 V plant; every (scheme, variable) pair below moves the
# nominal duty with the variable
PLANT_12V = BuckParams(v_s=12.0, v_r=3.3, V_l=0.0, V_h=1.0, f_s=300e3,
                       L=1e-6, R=0.5, C=200e-6, R_c=5e-3)
W_12V = PLANT_12V.omega_s
COUPLED = [
    (CMC(), "v_s"),
    (PVMC(k_p=5.0), "v_s"),
    (CFPVR(k_p=1.0), "v_s"),
    (CFPVR(k_p=1.0), "k_p"),
    (ACMC(R_s=0.5, K_c=1e3, z_c=5e3, omega_p=0.3 * W_12V), "v_s"),
    (VMC3(K_c=7.78e4, kappa_z=0.5, omega_p=0.3 * W_12V), "v_s"),
]


@pytest.mark.parametrize("scheme,variable", COUPLED,
                         ids=lambda x: x if isinstance(x, str)
                         else type(x).__name__)
def test_unpinned_solve_lands_on_its_own_duty(scheme, variable):
    """With no duty pinned, L = 1 at the critical value and the duty that
    value itself implies."""
    x = solve_critical(PLANT_12V, scheme, variable).critical_value
    params, sch = PLANT_12V, scheme
    if variable == "v_s":
        params = dataclasses.replace(params, v_s=x)
    else:
        sch = dataclasses.replace(sch, k_p=x)
    assert closed_form_lvalue(params, sch, duty_ratio(params, sch)) == \
        pytest.approx(1.0, abs=1e-9)


# --------------------------------------------- every pinned critical route

# a 12 V to 3.3 V plant at 100 kHz with a 1 V ramp
PLANT_100K = BuckParams(v_s=12.0, v_r=3.3, V_l=0.0, V_h=1.0, f_s=100e3,
                        L=10e-6, R=1.0, C=100e-6, R_c=0.05)


def _lvalue_at_critical(params, scheme, variable, value, D):
    """L with the solved value put in place: v_s or the ramp on the plant
    (m_a through V_h = V_l + m_a T), k_p on the scheme, or D itself."""
    if variable == "v_s":
        params = dataclasses.replace(params, v_s=value)
    elif variable == "m_a":
        params = dataclasses.replace(params, V_h=params.V_l + value * params.T)
    elif variable == "k_p":
        scheme = dataclasses.replace(scheme, k_p=value)
    else:
        D = value
    return closed_form_lvalue(params, scheme, D)


def _lplot_config(name):
    cfg = load_config(config_path(name))
    return cfg.params, cfg.scheme, duty_ratio(cfg.params, cfg.scheme)


def _pinned_routes():
    cmc_plant = dataclasses.replace(PLANT_100K, V_h=0.3)
    ex2, acmc, d2 = _lplot_config("ex2_lplot.cfg")
    ex4, vmc3, d4 = _lplot_config("ex4_lplot.cfg")
    # closed forms to 8 ulp of 1, the base-class scan over D to 1e-8
    for variable in ("k_p", "v_s", "m_a", "D"):
        tol = 1e-8 if variable == "D" else 8 * math.ulp(1.0)
        yield PLANT_100K, PVMC(k_p=4.0), variable, 0.6, tol
        if variable != "D":
            yield PLANT_100K, CFPVR(k_p=0.5), variable, 0.6, tol
    for variable in ("m_a", "v_s", "D"):
        yield cmc_plant, CMC(), variable, 0.6, 8 * math.ulp(1.0)
    for variable in ("v_s", "m_a"):
        yield ex2, acmc, variable, d2, 8 * math.ulp(1.0)
        yield ex4, vmc3, variable, d4, 8 * math.ulp(1.0)
    yield ex4, vmc3, "D", d4, 1e-8


@pytest.mark.parametrize(
    "params,scheme,variable,D,tol", list(_pinned_routes()),
    ids=lambda x: x if isinstance(x, str) else (
        type(x).__name__ if isinstance(x, ControlScheme) else ""))
def test_each_pinned_critical_value_puts_l_at_one(params, scheme, variable,
                                                  D, tol):
    value = scheme.critical(params, variable, D)
    got = _lvalue_at_critical(params, scheme, variable, value, D)
    assert abs(got - 1.0) <= tol


def test_pinned_critical_routes_that_have_no_answer(ex1):
    # CFPVR's divider and ACMC's compensator keep L below 1 at every duty
    with pytest.raises(NoRoot):
        CFPVR(k_p=0.5).critical(PLANT_100K, "D", 0.6)
    ex2, acmc, d2 = _lplot_config("ex2_lplot.cfg")
    with pytest.raises(NoRoot):
        acmc.critical(ex2, "D", d2)
    with pytest.raises(DomainError, match="the RL loop solves for k_p only"):
        RLP(k_p=8.0).critical(ex1, "v_s", 0.6)


# -------------------------------------- the premise of the base-class solves


def _six_schemes():
    cmc_plant = dataclasses.replace(PLANT_100K, V_h=0.3)
    ex2, acmc, _ = _lplot_config("ex2_lplot.cfg")
    ex4, vmc3, _ = _lplot_config("ex4_lplot.cfg")
    yield cmc_plant, CMC()
    yield PLANT_100K, PVMC(k_p=4.0)
    yield PLANT_100K, CFPVR(k_p=0.5)
    yield PLANT_100K, RLP(k_p=8.0)
    yield ex2, acmc
    yield ex4, vmc3


@pytest.mark.parametrize("lam", [0.5, 3.0, 7.3])
@pytest.mark.parametrize("D", [0.3, 0.6])
@pytest.mark.parametrize("params,scheme", list(_six_schemes()),
                         ids=lambda x: type(x).__name__)
def test_l_is_proportional_to_vs_and_kp_and_inverse_in_vm(params, scheme,
                                                          D, lam):
    # the base class's critical v_s, k_p and m_a are divisions by L
    lv = scheme.lvalue(params, D)
    scaled = [(dataclasses.replace(params, v_s=lam * params.v_s), scheme, lam),
              (dataclasses.replace(params, V_h=params.V_l + lam * params.V_m),
               scheme, 1.0 / lam)]
    if hasattr(scheme, "k_p"):
        scaled.append(
            (params, dataclasses.replace(scheme, k_p=lam * scheme.k_p), lam))
    for pr, sch, factor in scaled:
        want = factor * lv
        assert abs(sch.lvalue(pr, D) - want) <= 4 * math.ulp(want)


def _one_model_cases():
    ex1 = load_config(config_path("ex1_critical.cfg"))
    ex2, acmc, _ = _lplot_config("ex2_lplot.cfg")
    ex4, vmc3, _ = _lplot_config("ex4_lplot.cfg")
    for R_c in (0.05, 0.0):
        plant = dataclasses.replace(PLANT_100K, R_c=R_c)
        yield plant, PVMC(k_p=4.0)
        yield plant, CFPVR(k_p=0.5)
        yield plant, CMC()
    yield ex1.params, ex1.scheme
    yield ex2, acmc
    yield ex4, vmc3
    yield dataclasses.replace(ex4, R_c=0.0), vmc3


@pytest.mark.parametrize("params,scheme", list(_one_model_cases()),
                         ids=lambda x: type(x).__name__)
def test_closed_form_is_the_f_transform_of_the_scheme_loop_gain(params,
                                                                scheme):
    # one model per scheme: lvalue and the loop gain the series oracle sums
    # are the same T, with or without ESR
    T = loop_gain_hf(params, scheme)
    for D in np.linspace(0.05, 0.95, 19):
        F = f_transform_rational(T, D, params.omega_s)
        assert abs(scheme.lvalue(params, D) - F) <= 1e-13 * max(1.0, abs(F))


def _ramp_schemes():
    ex2, acmc, _ = _lplot_config("ex2_lplot.cfg")
    ex4, vmc3, _ = _lplot_config("ex4_lplot.cfg")
    yield PLANT_100K, CMC()
    yield PLANT_100K, PVMC(k_p=4.0)
    yield PLANT_100K, CFPVR(k_p=0.5)
    yield ex2, acmc
    yield ex4, vmc3


@pytest.mark.parametrize("D", [0.3, 0.6])
@pytest.mark.parametrize("params,scheme", list(_ramp_schemes()),
                         ids=lambda x: type(x).__name__)
def test_critical_ramp_slope_is_one_number_at_every_ramp(params, scheme, D):
    # V_m L does not move with V_m, so the boundary slope is the same at
    # every ramp, a zero ramp included, where L itself is undefined
    flat = scheme.critical(dataclasses.replace(params, V_h=params.V_l), "m_a", D)
    for V_m in (1.0, 1.5):
        ramp = dataclasses.replace(params, V_h=params.V_l + V_m)
        assert abs(scheme.critical(ramp, "m_a", D) - flat) <= 4 * math.ulp(flat)


def test_critical_ramp_slope_is_signed_where_l_is_negative():
    # L < 0 means the loop is stable without a ramp: the boundary slope is
    # then not positive, as critical_cmc and v2_min_ramp report it
    ex2, acmc, _ = _lplot_config("ex2_lplot.cfg")
    ex4, vmc3, _ = _lplot_config("ex4_lplot.cfg")
    cases = [
        (PLANT_100K, CMC()),
        (dataclasses.replace(PLANT_100K, R_c=0.5), PVMC(k_p=4.0)),
        (dataclasses.replace(PLANT_100K, R_c=0.5), CFPVR(k_p=0.5)),
        (ex2, dataclasses.replace(acmc, omega_p=3.0 * ex2.omega_s)),
        (ex4, dataclasses.replace(vmc3, omega_p=3.0 * ex4.omega_s)),
    ]
    for params, scheme in cases:
        assert scheme.lvalue(params, 0.3) < 0.0
        assert scheme.critical(params, "m_a", 0.3) <= 0.0
    assert cases[-1][1].critical(ex4, "m_a", 0.3) == pytest.approx(
        -483165.76636830287, rel=1e-12)


def test_critical_values_evaluate_l_once(monkeypatch, ex2, sch2, ex3, sch3):
    # L at the duty is evaluated once, for the reported L and the critical
    # v_s alike; counted through alpha, as schemes calls it
    calls = []
    alpha = schemes.alpha
    monkeypatch.setattr(schemes, "alpha",
                        lambda *args: calls.append(args) or alpha(*args))
    runs = [
        lambda: solve_critical(ex2, sch2, "v_s", 0.3),
        lambda: critical_acmc(ex2, sch2, 0.3),
        lambda: solve_critical(ex3, sch3, "v_s", 0.3),
        lambda: critical_vmc3(ex3, sch3, 0.3),
    ]
    for run in runs:
        calls.clear()
        assert run().critical_value > 0.0
        assert len(calls) == 1


@pytest.mark.parametrize("variable", ["omega_p", "K_c"])
def test_l_is_not_divided_for_other_fields(sch3, ex3, variable):
    with pytest.raises(DomainError, match=f"VMC3 has no {variable} to solve for"):
        sch3.critical(ex3, variable, 0.2)


def test_compensator_zero_near_the_switching_frequency_warns(ex2, sch2):
    D = duty_ratio(ex2, sch2)
    wide = dataclasses.replace(sch2, z_c=ex2.omega_s / 2.0)
    with pytest.warns(UserWarning, match="compensator zero z_c"):
        wide.lvalue(ex2, D)
    with pytest.warns(UserWarning, match="compensator zero z_c"):
        wide.critical(ex2, "v_s", D)
    with pytest.warns(UserWarning, match="compensator zero z_c"):
        loop_gain_hf(ex2, wide)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sch2.lvalue(ex2, D)
        sch2.critical(ex2, "v_s", D)
        loop_gain_hf(ex2, sch2)


def test_compensator_zero_warning_names_the_caller(ex2, sch2):
    # each public call attributes the warning to its own caller's line, so
    # the default filter shows it once per calling line, not once in all
    D = duty_ratio(ex2, sch2)
    wide = dataclasses.replace(sch2, z_c=ex2.omega_s)
    calls = [
        lambda: closed_form_lvalue(ex2, wide, D),
        lambda: solve_critical(ex2, wide, "v_s", duty=D),
        lambda: lplot(ex2, wide, "D", np.linspace(0.1, 0.9, 9)),
        lambda: wide.critical(ex2, "m_a", D),
        lambda: acmc_min_ramp(ex2, wide, D),
        lambda: loop_gain_hf(ex2, wide),
    ]
    for call in calls:
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            call()
        assert seen
        assert {w.filename for w in seen} == {__file__}


# ------------------------------------------------- derived from the wiring


@dataclasses.dataclass(frozen=True)
class _BothSensed(ControlScheme):
    """A loop summing i_L and v_o, which the reduction does not handle."""

    k_p: float

    def wiring(self, params):
        return schemes.Wiring(i_gain=1.0, v_gain=1.0, gain=self.k_p)


def test_a_loop_sensing_current_and_voltage_is_unsupported():
    scheme = _BothSensed(k_p=2.0)
    with pytest.raises(UnsupportedStructure, match="exactly one of i_L and v_o"):
        loop_gain_hf(PLANT_100K, scheme)
    with pytest.raises(UnsupportedStructure, match="exactly one of i_L and v_o"):
        duty_ratio(PLANT_100K, scheme)


# ---------------------------------------------------------------- inputs


def _fields():
    for record in [PLANT_100K] + [scheme for _, scheme in _six_schemes()]:
        for f in dataclasses.fields(record):
            yield pytest.param(record, f.name,
                               id=f"{type(record).__name__}-{f.name}")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("record,field", list(_fields()))
def test_non_finite_fields_are_rejected(record, field, value):
    # a nan or infinite voltage, frequency, element or gain has no verdict
    # (V_h = inf would give L = 0, read as stable)
    with pytest.raises(DomainError, match=f"{field} must be"):
        dataclasses.replace(record, **{field: value})
