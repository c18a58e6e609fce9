"""Cycle-map eigenvalues, pole trajectories, and threshold bisection."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm

import subharmonic.sampled as sampled
from subharmonic import (
    ACMC,
    RLP,
    CycleEngine,
    DegenerateOrbit,
    DomainError,
    build_closed_loop,
    cycle_jacobian,
    lplot,
    poincare_jacobian,
    pole_trajectory,
    poles,
    simulate,
    steady_state,
)
from subharmonic.config import load_config
from subharmonic.schemes import sweep_point

from conftest import config_names, config_path, rescaled


def _sch2_at(sch2, ex2, ratio):
    return dataclasses.replace(sch2, omega_p=ratio * ex2.omega_s)


# ------------------------------------------------------------- eigenvalues


def test_single_state_multiplier_brackets_minus_one(ex1):
    lo = poles(ex1, RLP(k_p=8.0))
    hi = poles(ex1, RLP(k_p=9.0))
    assert len(lo.eigenvalues) == 1
    assert lo.eigenvalues[0].real == pytest.approx(-0.99254861910836, abs=1e-8)
    assert abs(lo.eigenvalues[0].imag) < 1e-12
    assert lo.spectral_radius < 1.0
    assert hi.eigenvalues[0].real < -1.0
    assert hi.spectral_radius > 1.0


def test_eigenvalue_count_matches_state_dimension(ex2, sch2, ex3, sch3):
    ps = poles(ex2, _sch2_at(sch2, ex2, 0.81))
    assert len(ps.eigenvalues) == build_closed_loop(ex2, sch2).dim
    assert ps.spectral_radius < 1.0
    ps3 = poles(ex3, sch3)
    assert len(ps3.eigenvalues) == build_closed_loop(ex3, sch3).dim


def test_marginal_spectrum_anchor(ex3, sch3):
    # one multiplier sits just inside -1, the rest well inside the disk
    ps = poles(ex3, sch3)
    eig = np.asarray(ps.eigenvalues)
    re = np.sort(eig.real)
    assert re[0] == pytest.approx(-0.9995913242189292, abs=1e-6)
    assert ps.most_negative_real() == pytest.approx(-0.99959132, abs=1e-6)
    np.testing.assert_allclose(
        re[1:],
        sorted([-0.05013846283272728, 0.5099713795332764,
                0.8852019315733263, 0.9484928340088808]),
        atol=1e-6)
    assert np.max(np.abs(eig.imag)) < 1e-9


def test_saturated_orbit_is_rejected(ex1):
    # duty pinned at zero: the smooth cycle map has no Jacobian there
    with pytest.raises(DegenerateOrbit):
        poincare_jacobian(ex1, RLP(k_p=8.0), (np.array([20.0]), 0.0))


# ------------------------------------------------- finite-difference quality


SCENARIOS = [
    ("rl_gain_8", "ex1", ("rlp", 8.0)),
    ("rl_gain_9", "ex1", ("rlp", 9.0)),
    ("avg_current_049", "ex2", ("acmc", 0.49)),
    ("avg_current_081", "ex2", ("acmc", 0.81)),
    ("type3_half", "ex3", ("vmc3", 0.5)),
    ("type3_020", "ex3", ("vmc3", 0.2)),
    ("type3_024", "ex3", ("vmc3", 0.24)),
    ("type3_060", "ex3", ("vmc3", 0.6)),
]


def _scenario(name, ex1, ex2, sch2, ex3, sch4_at):
    _, params_key, (kind, arg) = next(s for s in SCENARIOS if s[0] == name)
    if kind == "rlp":
        return ex1, RLP(k_p=arg)
    if kind == "acmc":
        return ex2, _sch2_at(sch2, ex2, arg)
    return ex3, sch4_at(arg)


@pytest.mark.parametrize("name", [s[0] for s in SCENARIOS])
def test_jacobian_insensitive_to_step_size(name, ex1, ex2, sch2, ex3, sch4_at):
    params, scheme = _scenario(name, ex1, ex2, sch2, ex3, sch4_at)
    orbit = steady_state(params, scheme)
    J1 = poincare_jacobian(params, scheme, orbit, rel=1e-6)
    J2 = poincare_jacobian(params, scheme, orbit, rel=5e-7)
    floor = 1e-9 * max(np.max(np.abs(J1)), 1.0)
    denom = np.maximum(np.maximum(np.abs(J1), np.abs(J2)), floor)
    assert np.max(np.abs(J1 - J2) / denom) <= 1e-4


CLASSIFY = {
    "rl_gain_8": ("period-1", 4160),
    "rl_gain_9": ("period-2", 2112),
    "avg_current_049": ("period-2", 2112),
    "avg_current_081": ("period-1", 2112),
    "type3_half": ("period-2", 2112),     # threshold sits 0.02 % away
    "type3_020": ("period-1", 2112),
    "type3_024": ("period-2", 2112),
    "type3_060": ("period-1", 2112),
}


@pytest.mark.parametrize("name", [s[0] for s in SCENARIOS])
def test_classification_agrees_with_spectrum(name, ex1, ex2, sch2, ex3,
                                             sch4_at):
    """Inside the unit disk means a settled single-period run and a real
    multiplier below -1 means period doubling, except within a sliver of
    the threshold where the two detectors may legitimately split."""
    params, scheme = _scenario(name, ex1, ex2, sch2, ex3, sch4_at)
    expect, cycles = CLASSIFY[name]
    tr = simulate(params, scheme, cycles=cycles)
    assert tr.classification == expect
    ps = poles(params, scheme)
    if name == "type3_half":
        # source voltage 16.0 vs measured flip at 16.0037: inside the
        # inconclusive sliver, so only the soft form is required
        assert ps.most_negative_real() <= -1.0 + 0.02
        return
    if expect == "period-1":
        assert ps.spectral_radius < 1.0
    else:
        assert ps.most_negative_real() < -1.0


# ------------------------------------------------------------ exact Jacobian


def _engine_at_orbit(params, scheme):
    eng = CycleEngine(build_closed_loop(params, scheme))
    x, _ = steady_state(params, scheme, engine=eng)
    return eng, x


@pytest.mark.parametrize("name", [s[0] for s in SCENARIOS])
def test_exact_jacobian_determinant_identity(name, ex1, ex2, sch2, ex3,
                                             sch4_at):
    """The stage flows contribute exp(tr(A) t) to det J and the saltation
    its rank-one factor: det J = exp(tr(A) T) (c (A x* + b_off) - m_a)
    / (c (A x* + b_on) - m_a), with x* the state at the crossing, here
    propagated by scipy's expm rather than the engine's series."""
    params, scheme = _scenario(name, ex1, ex2, sch2, ex3, sch4_at)
    eng, x = _engine_at_orbit(params, scheme)
    _, duty, J = eng.step_jacobian(x)
    loop, n = eng.loop, eng.n
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = loop.A
    M[:n, n] = loop.b_on
    x_star = (expm(M * duty * params.T) @ np.append(x, 1.0))[:n]
    c, m_a = loop.y_row, params.ramp_slope
    det = (math.exp(np.trace(loop.A) * params.T)
           * (c @ (loop.A @ x_star + loop.b_off) - m_a)
           / (c @ (loop.A @ x_star + loop.b_on) - m_a))
    assert abs(np.linalg.det(J) - det) <= 1e-12 * abs(det)


@pytest.mark.parametrize("name", [s[0] for s in SCENARIOS])
def test_exact_jacobian_matches_a_40_digit_saltation_product(
        name, ex1, ex2, sch2, ex3, sch4_at):
    # J = e^{A(T - t*)} [e^{A t*} - jump c e^{A t*} / rate] with every
    # exponential taken by mpmath at 40 digits, on the engine's own
    # crossing: jump = b_on - b_off and rate = c (A x* + b_on) - m_a
    params, scheme = _scenario(name, ex1, ex2, sch2, ex3, sch4_at)
    eng, x = _engine_at_orbit(params, scheme)
    _, _, J = eng.step_jacobian(x)
    _, _, _, (i, u) = eng._cycle(x)
    loop, n = eng.loop, eng.n
    M = np.zeros((n + 1, n + 1))
    M[:n, :n] = loop.A
    M[:n, n] = loop.b_on
    with mpmath.workdps(40):
        T = mpmath.mpf(params.T)
        t_star = (i - 1 + mpmath.mpf(u)) * T / eng.grid
        A = mpmath.matrix(loop.A.tolist())
        c = mpmath.matrix([loop.y_row.tolist()])
        b_on = mpmath.matrix(loop.b_on.tolist())
        jump = mpmath.matrix((loop.b_on - loop.b_off).tolist())
        x_aug = mpmath.expm(mpmath.matrix(M.tolist()) * t_star) * mpmath.matrix(
            x.tolist() + [1.0])
        x_star = mpmath.matrix(x_aug.tolist()[:n])
        rate = (c * (A * x_star + b_on))[0] - mpmath.mpf(params.V_m) / T
        on = mpmath.expm(A * t_star)
        ref = mpmath.expm(A * (T - t_star)) * (on - jump * (c * on) / rate)
        ref = np.array(ref.tolist(), dtype=float)
    assert np.max(np.abs(J - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("name", [s[0] for s in SCENARIOS])
def test_exact_jacobian_matches_central_differences(name, ex1, ex2, sch2,
                                                    ex3, sch4_at):
    # the difference quotient converges as rel**2: about 2e-7 at 1e-7
    params, scheme = _scenario(name, ex1, ex2, sch2, ex3, sch4_at)
    eng, x = _engine_at_orbit(params, scheme)
    _, _, J = eng.step_jacobian(x)
    J_fd = cycle_jacobian(eng, x, rel=1e-7)
    assert np.max(np.abs(J - J_fd)) <= 1e-6 * np.max(np.abs(J))


@pytest.mark.parametrize("name", [s[0] for s in SCENARIOS])
def test_orbit_does_not_depend_on_the_initial_guess(name, ex1, ex2, sch2,
                                                    ex3, sch4_at):
    params, scheme = _scenario(name, ex1, ex2, sch2, ex3, sch4_at)
    x, duty = steady_state(params, scheme)
    far = x + 100.0 * (1.0 + np.abs(x))
    x_far, duty_far = steady_state(params, scheme, x_init=far)
    np.testing.assert_array_equal(x_far, x)
    assert duty_far == duty


@pytest.mark.parametrize("name", [s[0] for s in SCENARIOS])
def test_poles_rejects_saturated_orbit(name, ex1, ex2, sch2, ex3, sch4_at,
                                       monkeypatch):
    # steady_state never returns a saturated orbit, so hand poles one: the
    # orbit state shifted along the output row until y starts below the ramp
    params, scheme = _scenario(name, ex1, ex2, sch2, ex3, sch4_at)
    eng, x = _engine_at_orbit(params, scheme)
    c = eng.loop.y_row
    y0 = c @ x + eng.loop.y_const
    x_sat = x - (y0 - params.V_l + 1.0) * c / (c @ c)
    _, duty, J = eng.step_jacobian(x_sat)
    assert duty == 0.0 and J is None
    monkeypatch.setattr(sampled, "steady_state",
                        lambda *args, **kwargs: (x_sat, duty))
    with pytest.raises(DegenerateOrbit):
        poles(params, scheme)


# ------------------------------------------------------------ trajectories


def test_gain_sweep_crossing(ex1):
    traj = pole_trajectory(ex1, RLP(k_p=8.0), "k_p", np.linspace(8, 9, 11))
    assert len(traj.crossings) == 1
    ev = traj.crossings[0]
    assert ev.value == pytest.approx(8.6257110595703104, abs=1e-4)
    assert ev.direction == "exit"
    assert abs(ev.eigenvalue.real + 1.0) < 1e-4
    assert [e.value for e in traj.errors] == []


def test_pole_ratio_sweep_finds_window(ex2, sch2):
    traj = pole_trajectory(ex2, sch2, "p", np.linspace(0.10, 0.90, 17))
    assert [c.direction for c in traj.crossings] == ["exit", "enter"]
    assert traj.crossings[0].value == pytest.approx(0.174489, abs=1e-4)
    assert traj.crossings[1].value == pytest.approx(0.495541, abs=1e-4)


def test_window_sweep_with_three_parked_multipliers(ex3, sch4_at):
    traj = pole_trajectory(ex3, sch4_at(0.3), "p",
                           np.linspace(0.10, 0.60, 26))
    assert [c.direction for c in traj.crossings] == ["exit", "enter"]
    assert traj.crossings[0].value == pytest.approx(0.225642, abs=1e-4)
    assert traj.crossings[1].value == pytest.approx(0.499736, abs=1e-4)
    tracks = traj.tracks()
    assert tracks.shape == (26, 5)
    for center in (0.9485, 0.8853, 0.51):
        hit = [j for j in range(5)
               if np.all(np.abs(tracks[:, j] - center) <= 0.02)]
        assert len(hit) == 1


def test_empty_grid_gives_empty_trajectory(ex1):
    traj = pole_trajectory(ex1, RLP(k_p=8.0), "k_p", [])
    assert len(traj.values) == 0
    assert traj.pole_sets == ()
    assert traj.crossings == ()


def test_failed_points_are_recorded_not_fatal(ex1):
    # v_s below the reference leaves the switch pinned on at that point
    traj = pole_trajectory(ex1, RLP(k_p=8.0), "v_s", [6.0, 9.0, 10.0])
    assert len(traj.errors) == 1
    assert traj.errors[0][0] == 6.0
    assert traj.pole_sets[0] is None
    assert traj.pole_sets[1] is not None
    assert np.isnan(traj.tracks()[0, 0])


def _as_set(ps):
    return sorted(ps.eigenvalues, key=lambda z: (z.real, z.imag))


@pytest.mark.parametrize("case", ["pinned", "stiff"])
def test_failed_points_stay_per_point_in_a_batched_sweep(ex1, ex2, sch2, case):
    # v_s = 6 pins ex1's switch on; p = 100 puts ex2's compensator pole at
    # ‖A dt‖₁ = 9.8 > 8, too stiff for the series, so that point's loop is
    # left out of the batched build: each fails with the message poles()
    # raises alone, and every other point has the eigenvalues poles() gives,
    # to the bit
    if case == "pinned":
        params, scheme, variable = ex1, RLP(k_p=8.0), "v_s"
        values, bad = [6.0, 9.0, 10.0, 11.0], 6.0
    else:
        params, scheme, variable = ex2, sch2, "p"
        values, bad = [0.3, 100.0, 0.5], 100.0
    traj = pole_trajectory(params, scheme, variable, values)
    at = sweep_point(params, scheme, variable)
    failed = []
    for k, v in enumerate(values):
        p, s, _ = at(v)
        try:
            alone = poles(p, s)
        except sampled._FAILURES as exc:
            failed.append((v, f"{type(exc).__name__}: {exc}"))
            assert traj.pole_sets[k] is None
            continue
        assert _as_set(traj.pole_sets[k]) == _as_set(alone)
    assert [v for v, _ in failed] == [bad]
    if case == "stiff":
        assert failed[0][1].startswith("NumericalFailure: stage dynamics too stiff")
    assert list(traj.errors) == failed


@pytest.mark.parametrize("name", config_names("*_poles.cfg"))
def test_multipliers_do_not_depend_on_the_voltage_scale(name):
    # every voltage times k scales the states by k and leaves the cycle map's
    # multipliers alone; the engine must judge stiffness on A, not on b.
    # Time stretched k-fold leaves them alone too.
    cfg = load_config(config_path(name))
    base = cfg.sweep.grid()

    def run(volts, time=1.0):
        params, scheme = rescaled(cfg.params, cfg.scheme, volts, time)
        grid = volts * base if cfg.sweep.variable == "v_s" else base
        traj = pole_trajectory(params, scheme, cfg.sweep.variable, grid)
        assert traj.errors == ()
        return traj.tracks()

    ref = run(1.0)
    for k in (1e-9, 1e-6, 1e3, 1e6, 1e8, 1e9):
        assert np.max(np.abs(run(k) - ref)) <= 1e-12
    for k in (1e-6, 1e6):
        assert np.max(np.abs(run(1.0, time=k) - ref)) <= 1e-12


def test_too_coarse_engine_grid_is_rejected_once(ex1):
    with pytest.raises(DomainError, match="grid must be at least 4"):
        pole_trajectory(ex1, RLP(k_p=8.0), "k_p", [8.0, 8.5], grid=3)


@pytest.mark.parametrize("values", [[], [8.0, 8.5]])
def test_too_coarse_engine_grid_is_rejected_before_any_orbit_solve(
        ex1, values, monkeypatch):
    def no_solve(*args, **kwargs):
        raise AssertionError("an orbit was solved")

    monkeypatch.setattr(sampled, "steady_state", no_solve)
    with pytest.raises(DomainError, match="grid must be at least 4"):
        pole_trajectory(ex1, RLP(k_p=8.0), "k_p", values, grid=3)


def _pinned_sweep(which, ex1, ex2, sch2, ex3, sch4_at):
    """(params, scheme, variable, grid) of the sweeps pinned above."""
    if which == "gain":
        return ex1, RLP(k_p=8.0), "k_p", np.linspace(8, 9, 11)
    if which == "avg_current":
        return ex2, sch2, "p", np.linspace(0.10, 0.90, 17)
    return ex3, sch4_at(0.3), "p", np.linspace(0.10, 0.60, 26)


PINNED = ["gain", "avg_current", "type3"]


@pytest.mark.parametrize("which", PINNED)
def test_sweep_points_do_not_depend_on_history(which, ex1, ex2, sch2, ex3,
                                               sch4_at):
    # every point, in either sweep direction, has the eigenvalues poles()
    # gives at that value alone, to the bit
    params, scheme, variable, grid = _pinned_sweep(which, ex1, ex2, sch2,
                                                   ex3, sch4_at)
    forward = pole_trajectory(params, scheme, variable, grid)
    backward = pole_trajectory(params, scheme, variable, grid[::-1])
    at = sweep_point(params, scheme, variable)

    def as_set(ps):
        return sorted(ps.eigenvalues, key=lambda z: (z.real, z.imag))

    for k, v in enumerate(grid):
        p, s, _ = at(v)
        alone = as_set(poles(p, s))
        assert as_set(forward.pole_sets[k]) == alone
        assert as_set(backward.pole_sets[-1 - k]) == alone


@pytest.mark.parametrize("which", PINNED)
def test_crossing_eigenvalue_sits_at_minus_one(which, ex1, ex2, sch2, ex3,
                                               sch4_at):
    params, scheme, variable, grid = _pinned_sweep(which, ex1, ex2, sch2,
                                                   ex3, sch4_at)
    traj = pole_trajectory(params, scheme, variable, grid)
    assert len(traj.crossings) == (1 if which == "gain" else 2)
    for c in traj.crossings:
        assert abs(c.eigenvalue + 1.0) <= 1e-9


@pytest.mark.parametrize("name", ["ex1_poles.cfg", "ex2_poles.cfg",
                                  "ex3_poles.cfg", "ex4_poles.cfg"])
def test_det_i_plus_j_sign_counts_real_multipliers_below_minus_one(name):
    # the crossing refinement brackets det(I + J) in place of the tracked
    # eigenvalue: a conjugate pair adds |1 + z|^2 > 0, so the sign of
    # det(I + J) is the product of sign(1 + z) over the real multipliers
    cfg = load_config(config_path(name))
    at = sweep_point(cfg.params, cfg.scheme, cfg.sweep.variable)
    for v in cfg.sweep.grid():
        p, s, _ = at(v)
        eng, _ = _engine_at_orbit(p, s)
        J = eng.orbit[1]
        eigs = np.linalg.eigvals(J)
        reals = eigs[np.imag(eigs) == 0.0].real
        assert (np.sign(np.linalg.det(np.eye(len(J)) + J))
                == np.prod(np.sign(1.0 + reals))), v


@pytest.mark.parametrize("nudge", [-1e-15, 0.0, 1e-15, 3e-15])
def test_pair_split_keeps_canonical_order(nudge):
    # a conjugate pair splitting into two reals ties both assignments
    # exactly, so the rounding of the pair must not pick the column order
    prev = (complex(-0.570, 0.221 + nudge), complex(-0.570, -0.221))
    reals = (-0.809 + 0j, -0.407 + 0j)
    assert sampled._match(prev, reals) == reals


def test_trajectory_is_deterministic(ex2, sch2):
    grid = np.linspace(0.15, 0.55, 9)
    a = pole_trajectory(ex2, sch2, "p", grid)
    b = pole_trajectory(ex2, sch2, "p", grid)
    assert [c.value for c in a.crossings] == [c.value for c in b.crossings]
    np.testing.assert_array_equal(a.tracks(), b.tracks())


# --------------------------------------------- agreement with closed forms


def test_threshold_matches_closed_form_gain_sweep(ex1):
    traj = pole_trajectory(ex1, RLP(k_p=8.0), "k_p", np.linspace(8, 9, 11))
    curve = lplot(ex1, RLP(k_p=8.0), "k_p", np.linspace(8, 9, 41))
    exact = traj.crossings[0].value
    assert abs(exact - curve.crossings[0]) / exact <= 0.07


def test_threshold_matches_closed_form_voltage_sweep(ex3, sch3):
    from subharmonic import solve_critical
    traj = pole_trajectory(ex3, sch3, "v_s", np.linspace(15.6, 16.4, 5))
    assert len(traj.crossings) == 1
    exact = traj.crossings[0].value
    assert exact == pytest.approx(16.0037, abs=5e-3)
    closed = solve_critical(ex3, sch3, "v_s").critical_value
    assert abs(closed - exact) / exact <= 0.07


@pytest.mark.parametrize("which", ["avg_current", "type3"])
def test_window_endpoints_match_closed_form_ratio_sweeps(which, ex2, sch2,
                                                         ex3, sch4_at):
    # the swept variable is already a fraction of the switching rate,
    # so the gap is measured directly in that fraction
    if which == "avg_current":
        traj = pole_trajectory(ex2, sch2, "p", np.linspace(0.10, 0.90, 17))
        curve = lplot(ex2, sch2, "p", np.linspace(0.05, 0.95, 181))
    else:
        traj = pole_trajectory(ex3, sch4_at(0.3), "p",
                               np.linspace(0.10, 0.60, 26))
        curve = lplot(ex3, sch4_at(0.3), "p", np.linspace(0.05, 0.95, 181),
                      duty=0.2)
    exact = [c.value for c in traj.crossings]
    assert len(exact) == 2
    assert abs(curve.crossings[0] - exact[0]) <= 0.07
    assert abs(curve.crossings[1] - exact[1]) <= 0.07


@pytest.mark.parametrize("variable", ["p", "omega_p", "D"])
def test_sweep_variable_the_loop_lacks_is_rejected(ex1, variable):
    # the RL loop has no compensator pole, and the switched loop sets its
    # own duty: one DomainError, not a failed point per value
    from subharmonic import DomainError
    with pytest.raises(DomainError):
        pole_trajectory(ex1, RLP(k_p=8.0), variable, [0.2, 0.3])
