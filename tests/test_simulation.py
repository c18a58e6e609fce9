"""Exact switched-cycle simulation: propagation, classification, orbits."""

import dataclasses
import math
import re

import mpmath
import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

import subharmonic.simulation as simulation
from subharmonic import (
    ACMC,
    CFPVR,
    CMC,
    PVMC,
    RLP,
    VMC3,
    BuckParams,
    CycleEngine,
    Divergence,
    DomainError,
    NoConvergence,
    NumericalFailure,
    UnsupportedStructure,
    build_closed_loop,
    cycle_jacobian,
    loop_gain_hf,
    poles,
    ripple_check,
    rlp_steady_duty,
    simulate,
    steady_state,
    step_cycle,
)
from subharmonic.config import load_config
from subharmonic.schemes import sweep_point
from subharmonic.simulation import _propagator_stacks, _taylor_terms

from conftest import config_names, config_path, rescaled
from test_sampled import SCENARIOS, _scenario


# ----------------------------------------------------------- construction


def test_state_layout_per_scheme(ex1, ex2, sch2, ex3, sch3, rlp8):
    assert build_closed_loop(ex1, rlp8).dim == 1
    assert build_closed_loop(ex1, rlp8).labels == ("i_L",)
    cmc_loop = build_closed_loop(ex2, CMC())
    assert cmc_loop.dim == 2
    assert cmc_loop.labels == ("i_L", "v_C")
    acmc_loop = build_closed_loop(ex2, sch2)
    assert acmc_loop.dim == 4
    vmc_loop = build_closed_loop(ex3, sch3)
    assert vmc_loop.dim == 5
    assert vmc_loop.labels[:2] == ("i_L", "v_C")


def test_repeated_compensator_poles_rejected(ex3):
    # esr corner 1/(R_c C) collides with the compensator pole
    wp = 1.0 / (ex3.R_c * ex3.require_C())
    sch = VMC3(K_c=7.78e4, kappa_z=0.5, omega_p=wp)
    with pytest.raises(UnsupportedStructure):
        build_closed_loop(ex3, sch)


@pytest.mark.parametrize("time", [1e-6, 1.0, 1e6])
@pytest.mark.parametrize("ratio,builds", [(1.0 + 1e-7, True),
                                          (1.0 + 3e-9, True),
                                          (1.0 + 1e-10, False)])
def test_near_coincident_poles_are_judged_in_any_time_unit(ex3, ratio,
                                                           builds, time):
    # the compensator pole a ratio off the esr corner 1/(R_c C): a gap is
    # judged against its own pair, so stretching time moves no verdict
    wp = ratio / (ex3.R_c * ex3.require_C())
    params, sch = rescaled(ex3, VMC3(K_c=7.78e4, kappa_z=0.5, omega_p=wp),
                           time=time)
    if builds:
        assert build_closed_loop(params, sch).dim == 5
    else:
        with pytest.raises(UnsupportedStructure):
            build_closed_loop(params, sch)


def test_double_integrator_is_rejected():
    with pytest.raises(UnsupportedStructure, match="repeated"):
        simulation._modal_parts(1.0, (), (), 2)


def _assembly_cases():
    for name in config_names("*.cfg"):
        cfg = load_config(config_path(name))
        if cfg.params.V_m > 0.0:
            yield pytest.param(cfg.params, cfg.scheme, id=name)
    plant = BuckParams(v_s=12.0, v_r=3.3, V_l=0.0, V_h=1.0, f_s=100e3,
                       L=10e-6, R=1.0, C=100e-6)
    for R_c in (0.05, 0.0):
        for scheme in (CMC(), PVMC(k_p=4.0), CFPVR(k_p=0.5)):
            yield pytest.param(dataclasses.replace(plant, R_c=R_c), scheme,
                               id=f"{type(scheme).__name__}_Rc{R_c}")


@pytest.mark.parametrize("params,scheme", list(_assembly_cases()))
def test_assembled_loop_tends_to_the_scheme_loop_gain(params, scheme):
    # loop_gain_hf and the simulator both read the wiring, so the assembly
    # answers for itself: the loop from a duty step, -y (sI - A)^-1
    # (b_on - b_off) / V_m, must meet T(s) as s -> j inf, its gap falling
    # about tenfold per decade (the RL loop is exact)
    loop = build_closed_loop(params, scheme)
    T = loop_gain_hf(params, scheme)
    for k, bound in ((100.5, 3e-4), (1000.5, 3e-5)):
        s = 1j * k * params.omega_s
        x = np.linalg.solve(s * np.eye(loop.dim) - loop.A, loop.b_on - loop.b_off)
        assembled = -(loop.y_row @ x) / params.V_m
        assert abs(assembled - T(s)) <= bound * abs(T(s)), k


# ----------------------------------------------------- single-cycle stepping


SIM_CONFIGS = config_names("*_sim*.cfg")


def test_first_order_cycle_against_closed_form(ex1, rlp8):
    """With one RL state the two-stage response has a pencil-and-paper
    solution; the engine must land on it to near machine accuracy."""
    loop = build_closed_loop(ex1, rlp8)
    x0 = np.array([5.0])
    x1, duty = step_cycle(x0, loop)
    assert 0.0 < duty < 1.0
    tau = ex1.L / ex1.R
    on = duty * ex1.T
    x_on = x0[0] * math.exp(-on / tau) + (ex1.v_s / ex1.R) * (
        1.0 - math.exp(-on / tau))
    want = x_on * math.exp(-(ex1.T - on) / tau)
    assert x1[0] == pytest.approx(want, rel=1e-12)


def test_step_is_deterministic_and_engine_reusable(ex1, rlp8):
    loop = build_closed_loop(ex1, rlp8)
    eng = CycleEngine(loop)
    a = step_cycle(np.array([5.0]), loop)
    b = eng.step(np.array([5.0]))
    c = eng.step(np.array([5.0]))
    assert a[0][0] == b[0][0] == c[0][0]
    assert a[1] == b[1] == c[1]


def test_saturated_cycle_keeps_switch_on(ex1, rlp8):
    # far below the regulation point the controller never lets go
    loop = build_closed_loop(ex1, rlp8)
    x1, duty = step_cycle(np.array([0.0]), loop)
    assert duty == 1.0
    tau = ex1.L / ex1.R
    want = (ex1.v_s / ex1.R) * (1.0 - math.exp(-ex1.T / tau))
    assert x1[0] == pytest.approx(want, rel=1e-12)


def _stage_stacks(loop, grid=64):
    """Each stage's Taylor stack M^l / l!, from ``_taylor_terms`` on the
    loop's own M dt, as the engine's build takes them."""
    m = loop.dim + 1
    Ms = np.zeros((2, m, m))
    Ms[:, :-1, :-1] = loop.A
    Ms[:, :-1, -1] = loop.b_on, loop.b_off
    Ms *= loop.params.T / grid
    terms, lengths = _taylor_terms(Ms)
    return [t[:k] for t, k in zip(terms, lengths.tolist())]


def _partial(stack, u):
    # the stage propagator over fraction u of a cell
    return np.tensordot(u ** np.arange(len(stack)), stack, 1)


def _assert_one_propagation(eng, states):
    # step, step_jacobian and step_dense run the same cycle, so they must
    # agree to the bit, and the dense samples start at the input itself;
    # x(T) from the cycle maps C and W is the product of the stage
    # propagators through the switching instant, to rounding, and J the
    # product with the saltation matrix there
    loop, n = eng.loop, eng.n
    P_on, P_off = _stage_stacks(loop, eng.grid)
    crossings = 0
    for x in states:
        x_T, duty = eng.step(x)
        x_j, duty_j, J = eng.step_jacobian(x)
        x_d, duty_d, xs, _, _ = eng.step_dense(x)
        assert np.array_equal(x_j, x_T) and duty_j == duty, x
        assert np.array_equal(x_d, x_T) and duty_d == duty, x
        assert np.array_equal(xs[0], x), x
        _, _, x_aug, cell = eng._cycle(x)
        if cell is None:
            continue
        i, u = cell
        S_on, S_off = _partial(P_on, u), _partial(P_off, 1.0 - u)
        want = eng.Phi_off[eng.grid - i] @ S_off @ S_on @ eng.Phi_on[i - 1] @ x_aug
        assert np.max(np.abs(x_T - want[:-1])) <= 1e-13 * np.max(np.abs(want)), x
        on = (S_on @ eng.Phi_on[i - 1])[:n]
        rate = eng.dt * (loop.y_row @ (loop.A @ (on @ x_aug) + loop.b_on)) - eng.h_slope_dt
        jump = eng.dt * (loop.b_on - loop.b_off)
        saltated = on[:, :n] - np.outer(jump / rate, loop.y_row @ on[:, :n])
        J_want = (eng.Phi_off[eng.grid - i] @ S_off)[:n, :n] @ saltated
        assert np.max(np.abs(J - J_want)) <= 1e-13 * np.max(np.abs(J_want)), x
        crossings += 1
    assert crossings > 0


@pytest.mark.parametrize("name", SIM_CONFIGS)
def test_steps_share_one_propagation_on_config_runs(name):
    cfg = load_config(config_path(name))
    eng = CycleEngine(build_closed_loop(cfg.params, cfg.scheme))
    tr = simulate(cfg.params, cfg.scheme, cycles=cfg.cycles)
    _assert_one_propagation(eng, tr.strobe[-40:])


@pytest.mark.parametrize("name", [s[0] for s in SCENARIOS])
def test_steps_share_one_propagation_at_orbits(name, ex1, ex2, sch2, ex3,
                                               sch4_at):
    params, scheme = _scenario(name, ex1, ex2, sch2, ex3, sch4_at)
    eng = CycleEngine(build_closed_loop(params, scheme))
    x, _ = steady_state(params, scheme)
    _assert_one_propagation(eng, [x])


@pytest.mark.parametrize("name", [s[0] for s in SCENARIOS])
def test_batched_grids_match_one_product_at_a_time(name, ex1, ex2, sch2, ex3,
                                                   sch4_at):
    # the two stages' grids are stepped as one stack; each must equal the
    # chain E @ Phi[j] taken one product at a time
    params, scheme = _scenario(name, ex1, ex2, sch2, ex3, sch4_at)
    eng = CycleEngine(build_closed_loop(params, scheme))
    m = eng.n + 1
    for grids, stack in zip((eng.Phi_on, eng.Phi_off), _stage_stacks(eng.loop)):
        E = stack.sum(axis=0)
        chain = [np.eye(m)]
        for _ in range(eng.grid):
            chain.append(E @ chain[-1])
        assert np.array_equal(grids, np.array(chain)), name


POLES_CONFIGS = config_names("*_poles.cfg")
ENGINE_ARRAYS = ("Phi_on", "Phi_off", "C", "W", "yPhi_on", "yP_on")


def _assert_batch_matches_single_builds(loops):
    # one engine per loop from a single batched stack build, each equal to
    # the engine built from its loop alone, to the bit; so is each stage's
    # Taylor stack, the on stage's as the batch returns it
    stacks = _propagator_stacks(loops, 64)
    for loop, st in zip(loops, stacks):
        batched, alone = CycleEngine(loop, _stacks=st), CycleEngine(loop)
        for attr in ENGINE_ARRAYS:
            assert np.array_equal(getattr(batched, attr),
                                  getattr(alone, attr)), attr
        assert np.array_equal(st[0], _stage_stacks(loop)[0])
    return stacks


@pytest.mark.parametrize("name", POLES_CONFIGS)
def test_batched_build_matches_single_builds_on_pole_sweeps(name):
    cfg = load_config(config_path(name))
    at = sweep_point(cfg.params, cfg.scheme, cfg.sweep.variable)
    _assert_batch_matches_single_builds(
        [build_closed_loop(*at(v)[:2]) for v in cfg.sweep.grid()])


def test_batched_build_matches_single_builds_on_scenarios(ex1, ex2, sch2, ex3,
                                                          sch4_at):
    # a batch holds loops of one dimension: the RL, averaged-current and
    # type-III scenarios form one batch each
    by_dim = {}
    for name, _, _ in SCENARIOS:
        loop = build_closed_loop(*_scenario(name, ex1, ex2, sch2, ex3, sch4_at))
        by_dim.setdefault(loop.dim, []).append(loop)
    assert sorted(len(b) for b in by_dim.values()) == [2, 2, 4]
    for loops in by_dim.values():
        _assert_batch_matches_single_builds(loops)


def test_batched_stacks_stop_at_their_own_length(ex2, sch2):
    # the two averaged-current loops need 13/12 and 14/14 Taylor terms: one
    # chain runs to 14, each stage keeps only its own prefix, and W spans
    # the longer of a loop's two stacks
    loops = [build_closed_loop(ex2, dataclasses.replace(
        sch2, omega_p=ratio * ex2.omega_s)) for ratio in (0.49, 0.81)]
    stacks = _assert_batch_matches_single_builds(loops)
    assert [(len(on), len(_stage_stacks(loop)[1]), W.shape[-1])
            for loop, (on, _, _, W) in zip(loops, stacks)] == [(13, 12, 13),
                                                               (14, 14, 14)]


def test_too_stiff_engine_names_the_norm_and_the_grid_that_passes(ex2, sch2):
    # a compensator pole at 100 omega_s puts ‖A dt‖₁ at 9.8 on the default
    # grid of 64; the b column, in volts, plays no part
    loop = build_closed_loop(ex2, dataclasses.replace(
        sch2, omega_p=100.0 * ex2.omega_s))
    with pytest.raises(NumericalFailure) as exc:
        CycleEngine(loop)
    msg = str(exc.value)
    assert msg.startswith("stage dynamics too stiff")
    assert "‖A dt‖₁ = 9.82 > 8" in msg
    need = int(re.search(r"a grid of (\d+) would pass", msg).group(1))
    assert need == 79
    CycleEngine(loop, need)
    with pytest.raises(NumericalFailure):
        CycleEngine(loop, need - 1)


@pytest.mark.parametrize("name", config_names("*.cfg"))
def test_taylor_stack_drops_only_a_negligible_tail(name):
    # each stage's stack ends where theta_M theta_A^(j-1) / j! < 1e-22, a
    # bound on the 1-norm of M^j / j!: the terms it leaves out sum below
    # 1e-22 and the stack sums to scipy's expm
    cfg = load_config(config_path(name))
    loop = build_closed_loop(cfg.params, cfg.scheme)
    for stack in _stage_stacks(loop):
        M = stack[1]
        term, tail = stack[-1], np.zeros_like(M)
        for j in range(len(stack), len(stack) + 30):
            term = term @ M / j
            tail += term
        assert np.linalg.norm(tail, 1) < 1e-22, name
        E = stack.sum(axis=0)
        assert np.max(np.abs(E - scipy_expm(M))) <= 1e-14, name


def _assert_crossing_bits(eng, states):
    # the engine's u is within 2e-15 cell units of the root of its own
    # crossing polynomial, found in 40-digit arithmetic from the same
    # float coefficients
    crossings = 0
    for x in states:
        _, _, x_aug, cell = eng._cycle(x)
        if cell is None:
            continue
        i, u = cell
        with mpmath.workdps(40):
            coeffs = [mpmath.mpf(c) for c in
                      (eng.yP_on @ (eng.Phi_on[i - 1] @ x_aug))[::-1]]
            h0 = mpmath.mpf(eng.h_grid[i - 1])
            slope = mpmath.mpf(eng.h_slope_dt)
            root = mpmath.findroot(
                lambda v: mpmath.polyval(coeffs, v) - h0 - slope * v,
                mpmath.mpf(u))
            assert abs(root - u) <= 2e-15, x
        crossings += 1
    assert crossings > 0


@pytest.mark.parametrize("name", SIM_CONFIGS)
def test_crossing_bits_on_config_runs(name):
    cfg = load_config(config_path(name))
    eng = CycleEngine(build_closed_loop(cfg.params, cfg.scheme))
    tr = simulate(cfg.params, cfg.scheme, cycles=cfg.cycles)
    _assert_crossing_bits(eng, tr.strobe[-40:])


@pytest.mark.parametrize("name", [s[0] for s in SCENARIOS])
def test_crossing_bits_at_orbits(name, ex1, ex2, sch2, ex3, sch4_at):
    params, scheme = _scenario(name, ex1, ex2, sch2, ex3, sch4_at)
    eng = CycleEngine(build_closed_loop(params, scheme))
    x, _ = steady_state(params, scheme)
    _assert_crossing_bits(eng, [x])


@pytest.mark.parametrize("name", SIM_CONFIGS)
def test_step_depends_only_on_its_own_state(name):
    # no cycle starts from what an earlier one found: each state steps to
    # the same bits on a fresh engine, in either order and after an
    # unrelated state, which the copied strobe of simulate relies on
    cfg = load_config(config_path(name))
    loop = build_closed_loop(cfg.params, cfg.scheme)
    eng = CycleEngine(loop)
    tr = simulate(cfg.params, cfg.scheme, cycles=cfg.cycles)
    states = tr.strobe[-40:]
    forward = [eng.step(x) for x in states]
    backward = [eng.step(x) for x in states[::-1]][::-1]
    for x, a, b in zip(states, forward, backward):
        eng.step(tr.strobe[0])
        for x_T, duty in (b, eng.step(x), CycleEngine(loop).step(x)):
            assert np.array_equal(x_T, a[0]) and duty == a[1], x


# ----------------------------------------------------------- full runs


def test_grid_refinement_leaves_strobe_unchanged(ex1, rlp8):
    # propagation is matrix-exponential exact; only the crossing solve
    # sees the grid, so halving the cell size must not move the strobe
    a = simulate(ex1, rlp8, cycles=256, window=32, grid=64)
    b = simulate(ex1, rlp8, cycles=256, window=32, grid=128)
    scale = np.max(np.abs(a.strobe)) + 1.0
    assert np.max(np.abs(a.strobe - b.strobe)) / scale < 1e-10


def test_grid_refinement_higher_order_plant(ex3, sch3):
    a = simulate(ex3, sch3, cycles=192, window=32, grid=64)
    b = simulate(ex3, sch3, cycles=192, window=32, grid=128)
    scale = np.max(np.abs(a.strobe)) + 1.0
    assert np.max(np.abs(a.strobe - b.strobe)) / scale < 1e-10


def test_settled_run_is_single_period(ex1):
    tr = simulate(ex1, RLP(k_p=8.0), cycles=4160)
    assert tr.classification == "period-1"
    w = tr.strobe[-tr.window:]
    scale = 1.0 + np.max(np.abs(w))
    assert np.max(np.abs(np.diff(w, axis=0))) <= 1e-8 * scale
    # interior operation, steady duty
    assert np.var(tr.duties[-tr.window:]) < 1e-12


def test_unstable_gain_doubles_the_period(ex1):
    tr = simulate(ex1, RLP(k_p=9.0), cycles=2112)
    assert tr.classification == "period-2"
    w = tr.strobe[-tr.window:]
    scale = 1.0 + np.max(np.abs(w))
    # the two-cycle return closes while the one-cycle return does not
    assert np.max(np.abs(w[2:] - w[:-2])) <= 1e-8 * scale
    assert np.max(np.abs(w[1:] - w[:-1])) > 1e-8 * scale


@pytest.mark.parametrize("ratio,expect", [
    (0.2, "period-1"),
    (0.24, "period-2"),
    (0.6, "period-1"),
])
def test_pole_placement_window_classifications(ex3, sch4_at, ratio, expect):
    tr = simulate(ex3, sch4_at(ratio), cycles=2112)
    assert tr.classification == expect


# the paper's verdict for each *_sim config, at its own voltages
SIM_VERDICTS = {
    "ex1_sim_kp8.cfg": "period-1",
    "ex1_sim_kp9.cfg": "period-2",
    "ex2_sim_049.cfg": "period-2",
    "ex2_sim_081.cfg": "period-1",
    "ex3_sim.cfg": "period-2",
    "ex4_sim_020.cfg": "period-1",
    "ex4_sim_024.cfg": "period-2",
    "ex4_sim_060.cfg": "period-1",
}


@pytest.mark.parametrize("factor", [1e-9, 1e-12, 1e6, 1e9] + [
    pytest.param((1.0, k), id=f"time{k:g}") for k in (1e-6, 1e6)])
@pytest.mark.parametrize("name", SIM_CONFIGS)
def test_classification_ignores_the_voltage_scale(name, factor):
    # the loop is linear in the voltages, so scaling all four scales every
    # state and keeps the period: a swing on tiny states is still a swing,
    # and the default divergence bound scales with the states.  A factor
    # (volts, time) stretches time instead, which keeps the period too.
    cfg = load_config(config_path(name))
    volts, time = factor if isinstance(factor, tuple) else (factor, 1.0)
    params, scheme = rescaled(cfg.params, cfg.scheme, volts, time)
    tr = simulate(params, scheme, cycles=cfg.cycles)
    assert tr.classification == SIM_VERDICTS[name]


def test_persistent_saturation_reported_as_other(cmc_zero_ramp):
    # deep duty with a flat ramp never settles into a periodic latch
    params = dataclasses.replace(cmc_zero_ramp, v_r=7.0)
    tr = simulate(params, CMC(), cycles=640)
    assert tr.classification == "other"


def test_divergence_carries_partial_trace(ex1, rlp8):
    with pytest.raises(Divergence) as info:
        simulate(ex1, rlp8, cycles=128, divergence_bound=1e-3)
    tr = info.value.trace
    assert tr.classification == "diverged"
    assert 1 <= len(tr.duties) < 128


def _poison_sixth_step(monkeypatch, bad):
    # the sixth step (cycle 5, counting from 0) returns the state bad
    step = CycleEngine.step
    calls = []

    def poisoned(self, x):
        calls.append(x)
        x_T, duty = step(self, x)
        return (np.full_like(x_T, bad) if len(calls) == 6 else x_T), duty

    monkeypatch.setattr(CycleEngine, "step", poisoned)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_divergence_on_non_finite_state(ex1, rlp8, monkeypatch, bad):
    # a NaN or infinite state fails the bound test at once, as it fails
    # np.abs(x).max() <= bound: the partial trace holds the initial state,
    # five finite states and the poisoned one
    assert not np.abs(np.full(1, bad)).max() <= 1e6
    _poison_sixth_step(monkeypatch, bad)
    with pytest.raises(Divergence, match="at cycle 6") as info:
        simulate(ex1, rlp8, cycles=128)
    tr = info.value.trace
    assert tr.classification == "diverged"
    assert tr.strobe.shape[0] == 7 and len(tr.duties) == 6
    assert np.all(np.isfinite(tr.strobe[:6]))
    np.testing.assert_array_equal(tr.strobe[6], bad)


@pytest.mark.parametrize("sign", [1.0, -1.0])
@pytest.mark.parametrize("over", [False, True])
def test_divergence_bound_is_inclusive(ex1, rlp8, monkeypatch, sign, over):
    # a state of magnitude exactly the bound passes, and one ulp over it
    # raises at that cycle; the RL loop pulls a passing state back
    bound = 1e3
    bad = sign * (np.nextafter(bound, np.inf) if over else bound)
    assert (np.abs(np.full(1, bad)).max() <= bound) != over
    _poison_sixth_step(monkeypatch, bad)
    if over:
        with pytest.raises(Divergence, match="at cycle 6"):
            simulate(ex1, rlp8, cycles=128, divergence_bound=bound)
    else:
        tr = simulate(ex1, rlp8, cycles=128, divergence_bound=bound)
        assert tr.strobe[6, 0] == bad


def _plain_step_loop(eng, x, cycles):
    # the reference: every cycle stepped, none copied
    strobe, duties = [x], []
    for _ in range(cycles):
        x, duty = eng.step(x)
        strobe.append(x)
        duties.append(duty)
    return np.array(strobe), np.array(duties)


def _plain_repeat(strobe):
    # the first (j, k - j) with x_k equal to an earlier x_j bit for bit;
    # None if no state repeats
    seen = {}
    for k, row in enumerate(strobe):
        j = seen.setdefault(row.tobytes(), k)
        if j < k:
            return j, k - j
    return None


@pytest.mark.parametrize("name,repeats", [
    ("ex1_sim_kp9", True),
    ("ex2_sim_081", True),
    ("ex3_sim", True),
    ("ex4_sim_024", False),
    ("ex4_sim_060", True),
])
def test_copied_strobe_equals_a_plain_step_loop(name, repeats):
    # the strobe re-enters an earlier state bit for bit on all configs but
    # ex4_sim_024, and the copy from there on, dense tail included, must
    # be what stepping gives; ex4_sim_060's period outlasts the tail
    cfg = load_config(config_path(f"{name}.cfg"))
    eng = CycleEngine(build_closed_loop(cfg.params, cfg.scheme))
    tr = simulate(cfg.params, cfg.scheme, cycles=cfg.cycles, dense_cycles=64)
    strobe, duties = _plain_step_loop(eng, tr.strobe[0], cfg.cycles)
    assert np.array_equal(tr.strobe, strobe)
    assert np.array_equal(tr.duties, duties)
    assert (len({row.tobytes() for row in strobe}) < len(strobe)) == repeats
    dense_from = cfg.cycles - 64
    assert tr.repeat == _plain_repeat(strobe)
    assert (tr.repeat is not None) == repeats
    xs, ys, vds = zip(*(eng.step_dense(x)[2:] for x in strobe[dense_from:-1]))
    t = [k * eng.T + np.arange(eng.grid) * eng.dt
         for k in range(dense_from, cfg.cycles)]
    for got, want in ((tr.dense.t, t), (tr.dense.x, xs), (tr.dense.y, ys),
                      (tr.dense.v_d, vds)):
        assert np.array_equal(got, np.concatenate(want))


@pytest.mark.parametrize("name,cycles", [(name, None) for name in SIM_CONFIGS]
                         + [("ex1_sim_kp9.cfg", 200)])
def test_repeat_does_not_depend_on_the_dense_tail(name, cycles):
    # a repeat that begins inside the tail (ex1_sim_kp9 at 200 cycles:
    # (176, 4)) is found as it is without one
    cfg = load_config(config_path(name))
    cycles = cycles or cfg.cycles
    plain = simulate(cfg.params, cfg.scheme, cycles=cycles)
    tail = simulate(cfg.params, cfg.scheme, cycles=cycles, dense_cycles=64)
    assert tail.repeat == plain.repeat
    assert np.array_equal(tail.strobe, plain.strobe)
    assert plain.dense is None and tail.dense.x.shape[0] == 64 * 64
    if cycles == 200:
        assert plain.repeat == (176, 4)


def test_dense_flag_is_gone(ex1, rlp8):
    with pytest.raises(TypeError):
        simulate(ex1, rlp8, cycles=128, dense=True)


def _count_calls(monkeypatch, *names):
    calls = dict.fromkeys(names, 0)
    for name in names:
        method = getattr(CycleEngine, name)

        def counted(self, x, method=method, name=name):
            calls[name] += 1
            return method(self, x)

        monkeypatch.setattr(CycleEngine, name, counted)
    return calls


def test_repeat_skips_the_remaining_steps(monkeypatch):
    cfg = load_config(config_path("ex1_sim_kp9.cfg"))
    calls = _count_calls(monkeypatch, "step")
    tr = simulate(cfg.params, cfg.scheme, cycles=cfg.cycles)
    assert tr.classification == "period-2"
    assert calls["step"] < cfg.cycles // 4


@pytest.mark.parametrize("dense_cycles", [0, 8, 64, 5000])
def test_dense_tail_is_stepped_in_full(monkeypatch, dense_cycles):
    # the strobe repeats with period 4 from cycle 176, so the run stops
    # stepping at cycle 180 and each distinct start of the tail is
    # stepped densely once: min(n_dense, 4) of them when the tail lies
    # in the repeat, all 180 when dense_cycles above cycles densifies
    # the whole run
    cfg = load_config(config_path("ex1_sim_kp9.cfg"))
    calls = _count_calls(monkeypatch, "step", "step_dense")
    tr = simulate(cfg.params, cfg.scheme, cycles=cfg.cycles,
                  dense_cycles=dense_cycles)
    n_dense = min(dense_cycles, cfg.cycles)
    assert tr.repeat == (176, 4)
    assert calls["step"] == 180
    if n_dense < cfg.cycles:
        assert calls["step_dense"] == min(n_dense, 4)
    else:
        assert calls["step_dense"] == 180
    if n_dense:
        assert tr.dense.x.shape[0] == n_dense * 64
    else:
        assert tr.dense is None


def test_negative_dense_cycles_rejected(ex1, rlp8):
    with pytest.raises(DomainError, match="dense_cycles"):
        simulate(ex1, rlp8, cycles=128, dense_cycles=-5)


@pytest.mark.parametrize("bound", [0.0, -1.0, math.nan])
def test_non_positive_divergence_bound_rejected(ex1, rlp8, bound):
    # a caller's error, not a divergence reported at cycle 1
    with pytest.raises(DomainError, match="divergence_bound"):
        simulate(ex1, rlp8, cycles=128, divergence_bound=bound)


def test_dense_trace_structure(ex3, sch4_at):
    tr = simulate(ex3, sch4_at(0.6), cycles=192, window=32, dense_cycles=8)
    d = tr.dense
    assert d is not None
    assert np.all(np.diff(d.t) > 0.0)
    assert set(np.round(np.unique(d.v_d), 12)) <= {0.0, ex3.v_s}
    assert d.h.min() >= ex3.V_l - 1e-12
    assert d.h.max() <= ex3.V_h + 1e-12
    assert d.x.shape[1] == len(tr.labels)


# ----------------------------------------------------------- fixed points


def test_fixed_point_matches_scalar_balance(ex1, rlp8):
    # the one-state loop has an independent duty equation to check against
    x, duty = steady_state(ex1, rlp8)
    assert duty == pytest.approx(rlp_steady_duty(ex1, 8.0), abs=5e-14)
    x1, d1 = step_cycle(x, build_closed_loop(ex1, rlp8))
    assert x1[0] == pytest.approx(x[0], rel=1e-11)
    assert x[0] == pytest.approx(5.1420529, abs=1e-6)


def test_weakly_unstable_interior_orbit_is_still_found(ex1):
    # at k_p = 9 the period-1 orbit exists but repels; the solver must
    # land on it rather than the flanking saturated artifacts
    x, duty = steady_state(ex1, RLP(k_p=9.0))
    assert 0.0 < duty < 1.0
    loop = build_closed_loop(ex1, RLP(k_p=9.0))
    x1, _ = step_cycle(x, loop)
    assert x1[0] == pytest.approx(x[0], rel=1e-10)
    eng = CycleEngine(loop)
    J = cycle_jacobian(eng, x)
    assert J[0, 0] < -1.0


@pytest.mark.parametrize("name", POLES_CONFIGS)
def test_orbit_confirmation_does_not_depend_on_the_voltage_scale(
        name, monkeypatch):
    # hand steady_state the true orbit off by 1e-6: whether one Newton step
    # and the residual test accept it must not change when every voltage,
    # and so every state, is scaled down
    cfg = load_config(config_path(name))
    x, d = steady_state(cfg.params, cfg.scheme)

    def confirm(k):
        params, _ = rescaled(cfg.params, cfg.scheme, k)
        monkeypatch.setattr(simulation, "_orbit_duties",
                            lambda eng: [(k * x * (1.0 + 1e-6), d)])
        try:
            return steady_state(params, cfg.scheme)[0] / k
        except NoConvergence:
            return None

    ref = confirm(1.0)
    for k in (1e-6, 1e-9, 1e-12):
        got = confirm(k)
        assert (got is None) == (ref is None), k
        if ref is not None:
            assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref)), k


def _pinned_points(ex1, ex2, sch2, ex3, sch4_at):
    # every *_poles grid point, every *_sim config and every scenario: all
    # RLP, ACMC or VMC3, the loops whose averaged balance pins the duty
    for name in POLES_CONFIGS:
        cfg = load_config(config_path(name))
        at = sweep_point(cfg.params, cfg.scheme, cfg.sweep.variable)
        for v in cfg.sweep.grid():
            yield f"{name} {v!r}", at(v)[:2]
    for name in SIM_CONFIGS:
        cfg = load_config(config_path(name))
        yield name, (cfg.params, cfg.scheme)
    for name, _, _ in SCENARIOS:
        yield name, _scenario(name, ex1, ex2, sch2, ex3, sch4_at)


def test_pinned_duty_orbit_is_the_scanned_one(ex1, ex2, sch2, ex3, sch4_at,
                                             monkeypatch):
    count = 0
    for label, (params, scheme) in _pinned_points(ex1, ex2, sch2, ex3, sch4_at):
        assert isinstance(scheme, (RLP, ACMC, VMC3)), label
        eng = CycleEngine(build_closed_loop(params, scheme))
        assert len(simulation._scanned_duties(eng)) == 1, label
        x, d, J = simulation._orbit(eng)
        with monkeypatch.context() as m:
            m.setattr(simulation, "_orbit_duties", simulation._scanned_duties)
            x_s, d_s, J_s = simulation._orbit(eng)
        assert np.max(np.abs(x - x_s)) <= 1e-12 * np.max(np.abs(x_s)), label
        assert abs(d - d_s) <= 1e-12 * d_s, label
        assert np.max(np.abs(J - J_s)) <= 1e-10 * np.max(np.abs(J_s)), label
        count += 1
    points = sum(len(load_config(config_path(name)).sweep.grid())
                 for name in POLES_CONFIGS)
    assert count == points + len(SIM_CONFIGS) + len(SCENARIOS) == 71


@pytest.mark.parametrize("error", [-1e-6, 1e-6])
@pytest.mark.parametrize("name", [s[0] for s in SCENARIOS])
def test_a_wrong_pinned_duty_is_rejected_not_trusted(name, error, ex1, ex2,
                                                     sch2, ex3, sch4_at,
                                                     monkeypatch):
    params, scheme = _scenario(name, ex1, ex2, sch2, ex3, sch4_at)
    d = scheme._orbit_duty(params)
    assert abs(steady_state(params, scheme)[1] - d) <= 1e-13
    monkeypatch.setattr(type(scheme), "_orbit_duty",
                        lambda self, params: d + error)
    with pytest.raises(NoConvergence, match="pins the duty at"):
        steady_state(params, scheme)


def test_unpinned_orbit_keeps_the_scan_and_its_bits():
    # CMC has no integrator: its duty (0.28971) is not the nominal 0.3, so
    # the orbit still comes from the det M scan, with the bits it had
    # before the pinned route existed
    cfg = load_config(config_path("cmc_critical.cfg"))
    assert cfg.scheme._orbit_duty(cfg.params) is None
    eng = CycleEngine(build_closed_loop(cfg.params, cfg.scheme))
    found, scanned = simulation._orbit_duties(eng), simulation._scanned_duties(eng)
    assert [(x.tobytes(), d) for x, d in found] == [(x.tobytes(), d)
                                                    for x, d in scanned]
    x, d, J = simulation._orbit(eng)
    assert [v.hex() for v in x] == ["0x1.65a7ea6c89aafp+1", "0x1.72bbbd83efa7ap+1"]
    assert d.hex() == "0x1.28a98faa234bfp-2"
    assert [v.hex() for v in J.ravel()] == [
        "-0x1.a25271bcba254p-2", "-0x1.c1d37769b5ea5p-5",
        "-0x1.6e083080b7480p-10", "0x1.ce4b019b0a174p-1"]
    assert [(z.real.hex(), z.imag) for z in poles(cfg.params, cfg.scheme).eigenvalues] == [
        ("0x1.ce52ab3d5a0b2p-1", 0.0), ("-0x1.a261c5015a0d0p-2", 0.0)]


@pytest.mark.parametrize("x_init", ["bogus", [1.0, 2.0, 3.0]])
@pytest.mark.parametrize("name", ["rl_gain_8", "avg_current_049", "type3_half"])
def test_bad_initial_state_is_rejected_before_the_pinned_solve(
        name, x_init, ex1, ex2, sch2, ex3, sch4_at, monkeypatch):
    params, scheme = _scenario(name, ex1, ex2, sch2, ex3, sch4_at)

    def no_work(eng):
        raise AssertionError("candidates built before x_init was checked")

    monkeypatch.setattr(simulation, "_orbit_duties", no_work)
    with pytest.raises(DomainError, match="x_init"):
        steady_state(params, scheme, x_init=x_init)


@pytest.mark.parametrize("name", [s[0] for s in SCENARIOS])
def test_one_candidate_needs_no_auto_state(name, ex1, ex2, sch2, ex3, sch4_at,
                                           monkeypatch):
    params, scheme = _scenario(name, ex1, ex2, sch2, ex3, sch4_at)
    want = steady_state(params, scheme)
    built = simulation._initial_state

    def no_auto(params, scheme, x_init, n):
        assert not isinstance(x_init, str), "auto state built for one candidate"
        return built(params, scheme, x_init, n)

    monkeypatch.setattr(simulation, "_initial_state", no_auto)
    x, d = steady_state(params, scheme)
    assert np.array_equal(x, want[0]) and d == want[1]


def test_five_state_fixed_point(ex3, sch3):
    x, duty = steady_state(ex3, sch3)
    assert 0.0 < duty < 1.0
    x1, _ = step_cycle(x, build_closed_loop(ex3, sch3))
    scale = 1.0 + np.max(np.abs(x))
    assert np.max(np.abs(x1 - x)) <= 1e-9 * scale


# ----------------------------------------------------------- ripple check


def test_ripple_prediction_matches_simulation(ex3):
    params = dataclasses.replace(ex3, R_c=0.0)
    sch = VMC3(K_c=7.78e4, kappa_z=0.5, omega_p=0.2 * ex3.omega_s)
    tr = simulate(params, sch, cycles=2112, dense_cycles=4)
    assert tr.classification == "period-1"
    loop = build_closed_loop(params, sch)
    vo = tr.dense.x @ loop.vo_row
    measured = vo.max() - vo.min()
    duty = float(np.mean(tr.duties[-8:]))
    predicted = ripple_check(params, duty)
    assert measured == pytest.approx(predicted, rel=5e-3)


@pytest.mark.parametrize("x_init", ["bogus", [1.0, 2.0]])
@pytest.mark.parametrize("run", [simulate, steady_state, poles])
def test_bad_initial_state_rejected(ex1, rlp8, run, x_init):
    with pytest.raises(DomainError, match="x_init"):
        run(ex1, rlp8, x_init=x_init)


def test_ripple_check_needs_plain_capacitor(ex3):
    with pytest.raises(DomainError):
        ripple_check(ex3, 0.3)     # nonzero esr not covered
    with pytest.raises(DomainError):
        ripple_check(dataclasses.replace(ex3, R_c=0.0), 1.2)
