"""End-to-end acceptance gate.

Each test prints one "[criterion N] PASS" or "[criterion N] FAIL" line and
then asserts every sub-check, so a red run still reports the verdict per
criterion.  Tolerances are pinned; do not loosen them here.
"""

import dataclasses
import time

import numpy as np
import pytest

from subharmonic import (
    CMC,
    RLP,
    RationalTF,
    TableCase,
    acmc_window_estimate,
    alpha,
    alpha0,
    alpha1,
    correction_c,
    critical_pvmc,
    critical_pvmc_noesr,
    critical_vmc3,
    f_transform_case,
    f_transform_series,
    lplot,
    poincare_jacobian,
    pole_trajectory,
    poles,
    simulate,
    solve_critical,
    steady_state,
    v2_min_ramp,
    v2_no_ramp_feasible,
    v2_no_ramp_threshold,
    vmc3_gain,
)
from subharmonic.simulation import CycleEngine, build_closed_loop, cycle_jacobian

WS = 2.0 * np.pi
D_GRID = np.arange(0.05, 0.951, 0.05)
P_GRID = np.logspace(np.log10(0.01), np.log10(3.0), 20)
ZFIX = 0.8


def _finish(n, checks):
    bad = [f"{name} ({detail})" for name, ok, detail in checks if not ok]
    print(f"[criterion {n}] {'FAIL' if bad else 'PASS'}")
    assert not bad, "; ".join(bad)


def _tf_for_case(cid, p, z):
    wp, wz = p * WS, z * WS
    shapes = {
        "C1": lambda: RationalTF(1.0 / wp, poles=[wp]),
        "C2": lambda: RationalTF(1.0, integrators=1),
        "C3": lambda: RationalTF(1.0, poles=[wp]),
        "C4": lambda: RationalTF(1.0, zeros=[wz], poles=[wp]),
        "C5": lambda: RationalTF(1.0, poles=[wp], integrators=1),
        "C6": lambda: RationalTF(1.0, integrators=2),
        "C7": lambda: RationalTF(1.0, zeros=[wz], integrators=2),
        "C8": lambda: RationalTF(1.0, zeros=[wz], poles=[wp], integrators=1),
        "C9": lambda: RationalTF(1.0, zeros=[wz], poles=[wp], integrators=2),
    }
    return shapes[cid]()


def test_criterion_1_catalog_against_series_oracle():
    t0 = time.perf_counter()
    checks = []
    for cid in ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9"):
        worst = 0.0
        for D in D_GRID:
            for p in P_GRID:
                kw = {}
                if cid in ("C1", "C3", "C4", "C5", "C8", "C9"):
                    kw["p"] = p
                if cid in ("C4", "C7", "C8", "C9"):
                    kw["z"] = ZFIX
                closed = f_transform_case(TableCase(cid, **kw), D, WS)
                ser = f_transform_series(_tf_for_case(cid, p, ZFIX), D, WS,
                                         K=10_000)
                worst = max(worst, abs(ser - closed))
                if cid in ("C2", "C6", "C7"):
                    break
        checks.append((cid, worst <= 1e-6, f"worst {worst:.3e}"))
    elapsed = time.perf_counter() - t0
    checks.append(("runtime", elapsed < 5.0, f"{elapsed:.2f} s"))
    _finish(1, checks)


def test_criterion_2_proportional_current_loop(ex1):
    checks = []
    kp = solve_critical(ex1, RLP(k_p=8.0), "k_p").critical_value
    checks.append(("closed-form critical gain", abs(kp - 8.52) <= 0.02,
                   f"k_p {kp:.6f}"))
    traj = pole_trajectory(ex1, RLP(k_p=8.0), "k_p",
                           np.linspace(8.0, 9.0, 11))
    cs = [c.value for c in traj.crossings]
    checks.append(("one multiplier crossing", len(cs) == 1, f"{cs}"))
    got = cs[0] if cs else float("nan")
    checks.append(("crossing bracket", 8.55 <= got <= 8.75,
                   f"k_p {got:.6f}"))
    low = simulate(ex1, RLP(k_p=8.0), cycles=4160).classification
    high = simulate(ex1, RLP(k_p=9.0), cycles=2112).classification
    checks.append(("below threshold settles", low == "period-1", low))
    checks.append(("above threshold doubles", high == "period-2", high))
    _finish(2, checks)


def _classify_kicked(params, scheme, cycles=3200, kick=1e-3):
    # nudge the settled orbit along the most negative multiplier's
    # eigenvector so a weakly unstable orbit reveals itself quickly
    engine = CycleEngine(build_closed_loop(params, scheme))
    x, _ = steady_state(params, scheme)
    J = cycle_jacobian(engine, x)
    w, v = np.linalg.eig(J)
    vec = np.real(v[:, int(np.argmin(w.real))])
    vec /= np.max(np.abs(vec))
    x0 = x + kick * (1.0 + np.max(np.abs(x))) * vec
    return simulate(params, scheme, cycles=cycles, x_init=x0).classification


def _find_flip(classify, lo, hi, f_lo, tol=2e-3):
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if classify(mid) == f_lo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_3_averaged_current_window(ex2, sch2):
    checks = []
    at = lambda frac: dataclasses.replace(sch2, omega_p=frac * ex2.omega_s)
    cls = lambda frac: _classify_kicked(ex2, at(frac))

    checks.append(("bracket 0.16 settles", cls(0.16) == "period-1", ""))
    checks.append(("bracket 0.20 doubles", cls(0.20) == "period-2", ""))
    checks.append(("bracket 0.48 doubles", cls(0.48) == "period-2", ""))
    checks.append(("bracket 0.52 settles", cls(0.52) == "period-1", ""))
    sim_lo = _find_flip(cls, 0.16, 0.20, "period-1")
    sim_hi = _find_flip(cls, 0.48, 0.52, "period-2")
    checks.append(("simulated lower endpoint", abs(sim_lo - 0.18) <= 0.02,
                   f"{sim_lo:.4f}"))
    checks.append(("simulated upper endpoint", abs(sim_hi - 0.49) <= 0.02,
                   f"{sim_hi:.4f}"))

    traj = pole_trajectory(ex2, sch2, "p", np.linspace(0.10, 0.90, 17))
    cs = [c.value for c in traj.crossings]
    ok = (len(cs) == 2 and abs(cs[0] - 0.18) <= 0.02
          and abs(cs[1] - 0.49) <= 0.02)
    checks.append(("multiplier window endpoints", ok,
                   ", ".join(f"{c:.4f}" for c in cs)))

    curve = lplot(ex2, sch2, "p", np.linspace(0.05, 0.95, 181))
    ok = (len(curve.crossings) == 2
          and abs(curve.crossings[0] - sim_lo) <= 0.05
          and abs(curve.crossings[1] - sim_hi) <= 0.05)
    checks.append(("L curve tracks simulation", ok,
                   ", ".join(f"{c:.4f}" for c in curve.crossings)))
    _finish(3, checks)


def test_criterion_4_type3_voltage_loop(ex3, sch3):
    checks = []
    vs = critical_vmc3(ex3, sch3, 0.2).critical_value
    checks.append(("critical source voltage", abs(vs - 17.1) <= 0.2,
                   f"v_s {vs:.4f}"))
    cls = simulate(ex3, sch3, cycles=2112).classification
    checks.append(("nominal input doubles", cls == "period-2", cls))
    m = poles(ex3, sch3).most_negative_real()
    checks.append(("multiplier at the edge", m <= -1.0 + 0.02, f"{m:.5f}"))
    _finish(4, checks)


def test_criterion_5_type3_instability_window(ex3, sch3):
    checks = []
    curve = lplot(ex3, sch3, "p", np.linspace(0.05, 0.95, 181), duty=0.2)
    cs = curve.crossings
    ok = (len(cs) == 2 and abs(cs[0] - 0.23) <= 0.02
          and abs(cs[1] - 0.47) <= 0.02)
    checks.append(("closed-form window", ok,
                   ", ".join(f"{c:.4f}" for c in cs)))

    est_lo, est_hi = acmc_window_estimate(vmc3_gain(ex3, sch3), 0.2)
    ok = abs(est_lo - 0.17) <= 0.02 and abs(est_hi - 0.58) <= 0.02
    checks.append(("closed-form estimate", ok,
                   f"{est_lo:.4f}, {est_hi:.4f}"))

    traj = pole_trajectory(ex3, sch3, "p", np.linspace(0.10, 0.60, 26))
    tracks = traj.tracks()
    for target in (0.9485, 0.8853, 0.51):
        hits = [j for j in range(tracks.shape[1])
                if np.all(np.abs(tracks[:, j].real - target) <= 0.02)
                and np.all(np.abs(tracks[:, j].imag) < 1e-6)]
        checks.append((f"steady multiplier near {target}", len(hits) == 1,
                       f"{len(hits)} tracks"))
    cs = [c.value for c in traj.crossings]
    ok = (len(cs) == 2 and abs(cs[0] - 0.23) <= 0.02
          and abs(cs[1] - 0.50) <= 0.02)
    checks.append(("multiplier window endpoints", ok,
                   ", ".join(f"{c:.4f}" for c in cs)))
    _finish(5, checks)


def test_criterion_6_ramp_bound_identities(ex2, ex3):
    checks = []
    worst = 0.0
    for D in np.linspace(0.02, 0.98, 50):
        direct = v2_min_ramp(ex2, 3.0, D)
        from_l = ex2.V_m * critical_pvmc(ex2, 3.0, D).lvalue * ex2.f_s
        worst = max(worst, abs(direct - from_l) / max(1.0, abs(direct)))
    checks.append(("ramp bound equals rearranged L", worst <= 1e-10,
                   f"worst {worst:.3e}"))
    thr = v2_no_ramp_threshold(0.3)
    checks.append(("boundary value at 0.3", abs(thr - 0.725) <= 1e-12 * 0.725,
                   f"{thr:.15f}"))
    bad = []
    for ratio in (0.3, 1.0, 5.0):
        params = dataclasses.replace(ex3, R_c=ratio * ex3.T / ex3.require_C())
        bad += [D for D in np.linspace(0.5, 0.98, 25)
                if v2_no_ramp_feasible(params, D)]
    checks.append(("never rampless above half duty", not bad, f"{bad[:3]}"))
    _finish(6, checks)


def test_criterion_7_flat_ramp_half_duty(cmc_zero_ramp):
    curve = lplot(cmc_zero_ramp, CMC(), "D", np.linspace(0.05, 0.95, 181))
    cs = curve.crossings
    ok = len(cs) == 1 and abs(cs[0] - 0.5) <= 1e-6
    _finish(7, [("boundary crossing at half duty", ok,
                 ", ".join(f"{c:.10f}" for c in cs))])


def test_criterion_8_module_invariants(ex1, ex2, sch2, ex3):
    checks = []

    # kernel identities
    w1 = max(abs(alpha0(D) + alpha0(1.0 - D)) for D in D_GRID)
    w2 = max(abs(alpha1(D) - alpha1(1.0 - D)) for D in D_GRID)
    w3 = max(abs(correction_c(D, 0.0)) for D in D_GRID)
    ok = w1 <= 1e-14 and w2 <= 1e-14 * np.pi ** 2 and w3 == 0.0
    checks.append(("kernel symmetries", ok, f"{w1:.1e} {w2:.1e} {w3:.1e}"))
    worst = 0.0
    for D in D_GRID[::4]:
        for p in P_GRID[::5]:
            lhs = alpha1(D) * p - correction_c(D, p)
            rhs = alpha0(D) - alpha(D, p)
            scale = max(abs(alpha1(D) * p), abs(rhs), 1e-30)
            worst = max(worst, abs(lhs - rhs) / scale)
    checks.append(("integrator-pole identity", worst <= 1e-12,
                   f"worst {worst:.3e}"))
    one = f_transform_series(RationalTF(1.0), 0.3, WS)
    checks.append(("unity maps to -1", one == -1.0, f"{one!r}"))

    # linearity of the series route
    T1 = RationalTF(1.0, poles=[2.0])
    T2 = RationalTF(0.5, zeros=[3.0], poles=[5.0, 7.0])
    combo = lambda s: 2.0 * T1(s) - 0.25 * T2(s)
    lhs = f_transform_series(combo, 0.4, WS, K=10_000)
    rhs = (2.0 * f_transform_series(T1, 0.4, WS, K=10_000)
           - 0.25 * f_transform_series(T2, 0.4, WS, K=10_000))
    rel = abs(lhs - rhs) / max(abs(lhs), 1e-30)
    checks.append(("series linearity", rel <= 1e-10, f"{rel:.3e}"))

    # esr-free reduction is exact
    flat = dataclasses.replace(ex2, R_c=0.0)
    same = all(critical_pvmc(flat, 2.0, D).lvalue
               == critical_pvmc_noesr(flat, 2.0, D).lvalue
               for D in (0.2, 0.5, 0.8))
    checks.append(("zero-esr reduction exact", same, ""))

    # strobe is grid independent
    a = simulate(ex1, RLP(k_p=8.0), cycles=256, window=32, grid=64)
    b = simulate(ex1, RLP(k_p=8.0), cycles=256, window=32, grid=128)
    scale = 1.0 + np.max(np.abs(a.strobe))
    dev = np.max(np.abs(a.strobe - b.strobe)) / scale
    checks.append(("strobe grid independence", dev < 1e-10, f"{dev:.3e}"))

    # settled duty is constant
    tr = simulate(ex1, RLP(k_p=5.0), cycles=512)
    var = float(np.var(tr.duties[-64:]))
    checks.append(("settled duty variance", var < 1e-12, f"{var:.3e}"))

    # jacobian is finite-difference-step insensitive
    for label, params, scheme in (
        ("current loop", ex1, RLP(k_p=8.0)),
        ("averaged loop", ex2,
         dataclasses.replace(sch2, omega_p=0.81 * ex2.omega_s)),
    ):
        orbit = steady_state(params, scheme)
        J1 = poincare_jacobian(params, scheme, orbit, rel=1e-6)
        J2 = poincare_jacobian(params, scheme, orbit, rel=5e-7)
        floor = 1e-9 * max(np.max(np.abs(J1)), 1.0)
        denom = np.maximum(np.maximum(np.abs(J1), np.abs(J2)), floor)
        dev = float(np.max(np.abs(J1 - J2) / denom))
        checks.append((f"jacobian step study, {label}", dev <= 1e-4,
                       f"{dev:.3e}"))

    # spectrum and long-run behavior tell the same story
    eig9 = poles(ex1, RLP(k_p=9.0)).most_negative_real()
    cls9 = simulate(ex1, RLP(k_p=9.0), cycles=2112).classification
    checks.append(("unstable multiplier doubles",
                   eig9 < -1.0 and cls9 == "period-2",
                   f"{eig9:.5f} {cls9}"))
    sch81 = dataclasses.replace(sch2, omega_p=0.81 * ex2.omega_s)
    ps81 = poles(ex2, sch81)
    cls81 = simulate(ex2, sch81, cycles=2112).classification
    checks.append(("contractive multipliers settle",
                   ps81.spectral_radius < 1.0 and cls81 == "period-1",
                   f"{ps81.spectral_radius:.5f} {cls81}"))
    _finish(8, checks)
