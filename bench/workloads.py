"""The four workloads: their operations, inputs and checks.

A workload is a fixed list of operations, one round; a run repeats whole
rounds.  Every operation is one answer a user asks for (one CLI command,
one L curve, one critical solve, one series value, one simulation, one
multiplier set).  ``run`` is the timed call; ``check`` judges the first
round's answer against a computation the program did not make (the
mpmath reference, the numpy replay of the switched converter, or a
property from the paper); later rounds must reproduce the first round's
answer byte for byte.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List

import numpy as np

import subharmonic
import subharmonic.cli
from subharmonic import RationalTF, TableCase, build_closed_loop, load_config, steady_state
# timed calls go through the module attributes, so a traced run sees them
from subharmonic import sampled, schemes, simulation, transform

import switched

WORKLOADS = ("closed_form", "oracle", "simulate", "multipliers")

# acceptance criterion 1: the catalog grid and its pinned tolerance
D_GRID = np.arange(0.05, 0.951, 0.05)
P_GRID = np.logspace(np.log10(0.01), np.log10(3.0), 20)
Z_FIX = 0.8
SERIES_TERMS = 10_000
TOL_SERIES = 1e-6

# closed forms against the 40-digit reference
TOL_L = 1e-10          # |L - L_ref| <= TOL_L max(1, |L_ref|)
TOL_ONE = 1e-10        # |L_ref(critical value) - 1|
TOL_CONST = 1e-12      # gains, duties and window estimates, relative

# switched checks
TOL_REPLAY = 1e-9      # strobe cycle replayed with the benchmark's expm
TOL_PERIOD = 1e-8      # x_{n+m} = x_n over the classification window
TOL_DET = 5e-4         # prod(multipliers) against the return-map determinant
TOL_MINUS_ONE = 1e-4   # multiplier at a reported -1 crossing
EDGE = 0.02            # criterion 4: an edge multiplier is <= -1 + EDGE

# the paper's verdicts (acceptance criteria 2-5 and 8)
SIM_VERDICT = {
    "ex1_sim_kp8": "period-1",
    "ex1_sim_kp9": "period-2",
    "ex2_sim_049": "period-2",
    "ex2_sim_081": "period-1",
    "ex3_sim": "period-2",
    "ex4_sim_020": "period-1",
    "ex4_sim_024": "period-2",
    "ex4_sim_060": "period-1",
}
# -1 crossings of the multiplier sweeps: (direction, lowest, highest)
POLE_WINDOWS = {
    "ex1_poles": [("exit", 8.55, 8.75)],
    "ex2_poles": [("exit", 0.16, 0.20), ("enter", 0.47, 0.51)],
    "ex3_poles": [],
    "ex4_poles": [("exit", 0.21, 0.25), ("enter", 0.48, 0.52)],
}
# seeded operating points: the pole ratio p = omega_p / omega_s is drawn
# well inside a band whose verdict the scan of the family settles
SEEDED_BANDS = {
    "ex2": {"period-2": (0.25, 0.40), "period-1": (0.65, 0.90)},
    "ex4": {"period-2": (0.30, 0.42), "period-1": (0.65, 0.90)},
}
# the failing class: every catalog shape as a plain callable at these
# switching frequencies, D = 0.3, z = 0.8, over the criterion-1 p grid
CALLABLE_FREQS = (50e3, 100e3, 300e3, 1e6)
CALLABLE_D = 0.3

# the catalog, as reference.py has it (kept apart so set-up never imports mpmath)
CASES = ("C1", "C2", "C3", "C4", "C5", "C6", "C7", "C8", "C9")
NEEDS_P = frozenset({"C1", "C3", "C4", "C5", "C8", "C9"})
NEEDS_Z = frozenset({"C4", "C7", "C8", "C9"})
# power of 1/w_s carried by each catalog F-transform
OMEGA_POWER = {"C1": 1, "C2": 1, "C3": 0, "C4": 0, "C5": 1,
               "C6": 2, "C7": 2, "C8": 1, "C9": 2}


def _ref():
    import reference  # mpmath: imported for the checks only, after the timed phase

    return reference


# ---------------------------------------------------------------------------
# Operations.


@dataclass
class CliResult:
    rc: int
    stdout: str
    files: dict = field(default_factory=dict)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], List[str]]
    outputs: tuple = ()          # files a CLI command writes
    expect_fail: bool = False    # member of the failing class


def cli_op(name, argv, outputs, check):
    def run():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = subharmonic.cli.main(argv)
        return CliResult(rc, buf.getvalue())

    def checked(res):
        if res.rc != 0:
            return [f"exit code {res.rc}"]
        return check(res)

    return Op(name, run, checked, tuple(outputs))


def collect(op, res):
    """Read a CLI command's files into its result (outside the timed phase)."""
    if isinstance(res, CliResult):
        for path in op.outputs:
            res.files[path] = Path(path).read_bytes() if Path(path).exists() else b""
    return res


def digest(res) -> str:
    h = hashlib.sha256()
    if isinstance(res, CliResult):
        h.update(f"{res.rc}\n{res.stdout}".encode())
        for path in sorted(res.files):
            h.update(res.files[path])
        return h.hexdigest()

    def feed(obj):
        if isinstance(obj, np.ndarray):
            h.update(np.ascontiguousarray(obj).tobytes())
        elif dataclasses.is_dataclass(obj):
            for f in dataclasses.fields(obj):
                feed(getattr(obj, f.name))
        elif isinstance(obj, (tuple, list)):
            for o in obj:
                feed(o)
        else:
            h.update(repr(obj).encode())

    feed(res)
    return h.hexdigest()


def _csv(data: bytes):
    lines = data.decode().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def _crossings(stdout, var):
    pat = re.compile(rf"^crossing at {re.escape(var)} = (\S+)$", re.M)
    return [float(x) for x in pat.findall(stdout)]


def _prm(params):
    return dataclasses.asdict(params)


def _sch(scheme):
    return dict(dataclasses.asdict(scheme), scheme=type(scheme).__name__.lower())


def _rel(a, b):
    return abs(float(a) - float(b)) / max(1.0, abs(float(b)))


# ---------------------------------------------------------------------------
# Reference checks of closed-form answers.


class LRef:
    """L of one scheme as a function of one swept variable, from the reference."""

    def __init__(self, params, scheme, variable, duty=None):
        self.prm, self.sch, self.var = _prm(params), _sch(scheme), variable
        self.duty = duty

    def __call__(self, x):
        r = _ref()
        prm, sch, D, p = dict(self.prm), dict(self.sch), self.duty, None
        if self.var == "D":
            D = x
        elif self.var == "p":
            p = x
        elif self.var == "v_s":
            prm["v_s"] = x
        elif self.var == "k_p":
            sch["k_p"] = x
        elif self.var == "V_m":
            prm["V_h"] = prm["V_l"] + x
        if D is None:
            D = r.duty(prm, sch)
        return r.lvalue(prm, sch, D, p)


def check_curve(lref, grid, lvalues, problems, label):
    worst = 0.0
    for x, lv in zip(grid, lvalues):
        ref = lref(float(x))
        err = abs(float(lv) - float(ref)) / max(1.0, abs(float(ref)))
        worst = max(worst, err)
    if worst > TOL_L:
        problems.append(f"{label}: L off the reference by {worst:.3e}")


def check_crossing(lref, x, problems, label):
    """x is a bisected root (rtol 1e-9, xtol 2e-12): L_ref - 1 changes sign within it."""
    delta = 2e-9 * abs(x) + 4e-12
    lo, hi = float(lref(x - delta)) - 1.0, float(lref(x + delta)) - 1.0
    if lo * hi > 0.0 and abs(float(lref(x)) - 1.0) > TOL_ONE:
        problems.append(f"{label}: L_ref({x!r}) - 1 keeps its sign within +-{delta:.1e}")


def check_one(lref, x, problems, label):
    err = abs(float(lref(x)) - 1.0)
    if err > TOL_ONE:
        problems.append(f"{label}: L_ref at the critical value is 1 {err:+.3e}")


# ---------------------------------------------------------------------------
# Workloads.  Each build_* function returns the round's operations;
# ``rng`` draws the seeded part of the inputs.


def _cfg(configs, name):
    return load_config(str(configs / f"{name}.cfg"))


def _out(out_dir, name):
    return str(out_dir / f"{name}.csv")


def build_closed_form(configs, out_dir, rng):
    ops = []

    def cli(cmd, name, check):
        out = _out(out_dir, f"{cmd}_{name}")
        argv = [cmd, "--config", str(configs / f"{name}.cfg"), "--out", out]
        ops.append(cli_op(f"cli.{cmd}.{name}", argv, [out], check))

    for name in ("cmc_critical", "ex1_critical", "ex3_critical"):
        cfg = _cfg(configs, name)
        cli("critical", name, _critical_check(cfg, _out(out_dir, f"critical_{name}")))

    for name in ("cmc_lplot", "ex2_lplot", "ex4_lplot"):
        cfg = _cfg(configs, name)
        cli("lplot", name, _lplot_check(cfg, _out(out_dir, f"lplot_{name}")))

    for name in ("ex2_window", "ex4_window"):
        cfg = _cfg(configs, name)
        cli("window", name, _window_check(cfg, _out(out_dir, f"window_{name}")))

    cli("contour", "contour", _contour_check(_out(out_dir, "contour_contour")))

    # library sweeps and solves without a config: V^2 and proportional
    # voltage loops on the example-2 plant, p grids below the 1e-3 switch
    plant2 = _cfg(configs, "ex2_lplot")
    plant4 = _cfg(configs, "ex4_lplot")
    for cls in (subharmonic.PVMC, subharmonic.CFPVR):
        tag = cls.__name__.lower()
        params = plant2.params
        k_hi = float(rng.uniform(10.0, 20.0))
        k_lo = float(rng.uniform(1.0, 4.0))
        d_fix = float(rng.uniform(0.3, 0.7))
        ops.append(_lplot_op(f"lib.lplot.{tag}.D", params, cls(k_p=k_hi), "D",
                             np.linspace(0.02, 0.98, 193), None))
        ops.append(_lplot_op(f"lib.lplot.{tag}.k_p", params, cls(k_p=k_lo), "k_p",
                             np.geomspace(1.0, 100.0, 161), d_fix))
        for what in ("v_s", "k_p", "m_a"):
            ops.append(_solve_op(f"lib.solve.{tag}.{what}", params, cls(k_p=k_lo),
                                 what, d_fix))
    for tag, cfg, d_band in (("acmc", plant2, (0.30, 0.42)), ("vmc3", plant4, (0.15, 0.25))):
        params, scheme = cfg.params, cfg.scheme
        d_fix = float(rng.uniform(*d_band))
        p_small = float(np.exp(rng.uniform(np.log(1e-4), np.log(9e-4))))
        ops.append(_lplot_op(f"lib.lplot.{tag}.p", params, scheme, "p",
                             np.geomspace(1e-4, 2.0, 241), d_fix))
        small = dataclasses.replace(scheme, omega_p=p_small * params.omega_s)
        ops.append(_lplot_op(f"lib.lplot.{tag}.D_small_p", params, small, "D",
                             np.linspace(0.02, 0.98, 97), None))
        for what in ("v_s", "m_a"):
            ops.append(_solve_op(f"lib.solve.{tag}.{what}", params, scheme, what, d_fix))
    return ops


def _critical_check(cfg, out, tol_l=TOL_L):
    def check(res):
        r = _ref()
        problems = []
        header, rows = _csv(res.files[out])
        row = dict(zip(header, rows[0]))
        prm, sch = _prm(cfg.params), _sch(cfg.scheme)
        D = float(row["duty"])
        d_ref = cfg.duty if cfg.duty is not None else r.duty(prm, sch)
        if _rel(D, d_ref) > TOL_CONST:
            problems.append(f"duty {D!r} vs reference {float(d_ref)!r}")
        lref = LRef(cfg.params, cfg.scheme, "D")
        lv = float(row["lvalue"])
        ref = lref(D)
        if abs(lv - float(ref)) > tol_l * max(1.0, abs(float(ref))):
            problems.append(f"L {lv!r} vs reference {float(ref)!r}")
        if row["stable"] != ("1" if lv < 1.0 else "0"):
            problems.append(f"stable flag {row['stable']} with L {lv!r}")
        crit = float(row["critical_value"])
        what = cfg.solve_for
        if what == "D":
            check_one(lref, crit, problems, "critical D")
        elif what == "k_p":
            _, d_ref = r.rlp_critical_kp(prm)
            check_one(LRef(cfg.params, cfg.scheme, "k_p", d_ref), crit, problems,
                      "critical k_p")
        elif what == "v_s":
            check_one(LRef(cfg.params, cfg.scheme, "v_s", cfg.duty), crit, problems,
                      "critical v_s")
        return problems

    return check


def _lplot_check(cfg, out, series=False):
    def check(res):
        problems = []
        header, rows = _csv(res.files[out])
        var = header[0]
        grid = np.array([float(r_[0]) for r_ in rows])
        lv = np.array([float(r_[1]) for r_ in rows])
        lref = LRef(cfg.params, cfg.scheme, var, cfg.duty)
        if not np.array_equal(grid, cfg.sweep.grid()):
            problems.append("written grid differs from the config's sweep")
        crossings = _crossings(res.stdout, var)
        if series:
            refs = np.array([float(lref(float(x))) for x in grid])
            worst = float(np.max(np.abs(lv - refs)))
            if worst > TOL_SERIES:
                problems.append(f"series L off the reference by {worst:.3e}")
            # the series route interpolates linearly between grid points
            expect = []
            g = refs - 1.0
            for i in range(len(grid) - 1):
                if g[i] * g[i + 1] < 0.0:
                    t = g[i] / (g[i] - g[i + 1])
                    expect.append(grid[i] + t * (grid[i + 1] - grid[i]))
            step = float(np.max(np.abs(np.diff(grid))))
            if len(expect) != len(crossings) or any(
                    abs(a - b) > 1e-5 * step for a, b in zip(crossings, expect)):
                problems.append(f"crossings {crossings} vs interpolated reference {expect}")
            return problems
        check_curve(lref, grid, lv, problems, "lplot")
        if not crossings:
            problems.append("no crossing reported")
        for x in crossings:
            check_crossing(lref, x, problems, f"crossing {x!r}")
        return problems

    return check


def _window_check(cfg, out):
    def check(res):
        r = _ref()
        problems = []
        header, rows = _csv(res.files[out])
        row = {k: float(v) for k, v in zip(header, rows[0])}
        prm, sch = _prm(cfg.params), _sch(cfg.scheme)
        K_ref = r.gain(prm, sch)
        D_ref = cfg.duty if cfg.duty is not None else r.duty(prm, sch)
        lo_ref, hi_ref = r.window_estimate(row["K"], row["D"])
        for key, ref in (("K", K_ref), ("D", D_ref), ("est_lo", lo_ref), ("est_hi", hi_ref)):
            if _rel(row[key], ref) > TOL_CONST:
                problems.append(f"{key} {row[key]!r} vs reference {float(ref)!r}")
        lref = LRef(cfg.params, cfg.scheme, "p", row["D"])
        for key in ("closed_lo", "closed_hi"):
            check_crossing(lref, row[key], problems, key)
        return problems

    return check


def _contour_check(out):
    def check(res):
        r = _ref()
        header, rows = _csv(res.files[out])
        worst = 0.0
        for d, p, gap in rows:
            ref = r.alpha0(float(d)) - r.alpha(float(d), float(p))
            worst = max(worst, abs(float(gap) - float(ref)) / max(1.0, abs(float(ref))))
        return [] if worst <= TOL_L else [f"gap off the reference by {worst:.3e}"]

    return check


def _lplot_op(name, params, scheme, var, grid, duty):
    def run():
        return schemes.lplot(params, scheme, var, grid, duty=duty)

    def check(curve):
        problems = []
        lref = LRef(params, scheme, var, duty)
        check_curve(lref, curve.grid, curve.lvalues, problems, "lplot")
        for x in curve.crossings:
            check_crossing(lref, x, problems, f"crossing {x!r}")
        return problems

    return Op(name, run, check)


def _solve_op(name, params, scheme, what, duty):
    def run():
        return schemes.solve_critical(params, scheme, what, duty=duty)

    def check(res):
        problems = []
        ref = LRef(params, scheme, "D")(duty)
        if abs(res.lvalue - float(ref)) > TOL_L * max(1.0, abs(float(ref))):
            problems.append(f"L {res.lvalue!r} vs reference {float(ref)!r}")
        var = "V_m" if what == "m_a" else what
        x = res.critical_value * params.T if what == "m_a" else res.critical_value
        check_one(LRef(params, scheme, var, duty), x, problems, f"critical {what}")
        return problems

    return Op(name, run, check)


# -- oracle -------------------------------------------------------------------


def _shape_tf(cid, w_s, p, z):
    wp = p * w_s if p is not None else None
    wz = z * w_s if z is not None else None
    return {
        "C1": lambda: RationalTF(1.0 / wp, poles=[wp]),
        "C2": lambda: RationalTF(1.0, integrators=1),
        "C3": lambda: RationalTF(1.0, poles=[wp]),
        "C4": lambda: RationalTF(1.0, zeros=[wz], poles=[wp]),
        "C5": lambda: RationalTF(1.0, poles=[wp], integrators=1),
        "C6": lambda: RationalTF(1.0, integrators=2),
        "C7": lambda: RationalTF(1.0, zeros=[wz], integrators=2),
        "C8": lambda: RationalTF(1.0, zeros=[wz], poles=[wp], integrators=1),
        "C9": lambda: RationalTF(1.0, zeros=[wz], poles=[wp], integrators=2),
    }[cid]()


def _shape_callable(cid, w_s, p, z):
    wp = p * w_s if p is not None else None
    wz = z * w_s if z is not None else None
    return {
        "C1": lambda s: (1.0 / wp) / (1.0 + s / wp),
        "C2": lambda s: 1.0 / s,
        "C3": lambda s: 1.0 / (1.0 + s / wp),
        "C4": lambda s: (1.0 + s / wz) / (1.0 + s / wp),
        "C5": lambda s: 1.0 / (s * (1.0 + s / wp)),
        "C6": lambda s: 1.0 / (s * s),
        "C7": lambda s: (1.0 + s / wz) / (s * s),
        "C8": lambda s: (1.0 + s / wz) / (s * (1.0 + s / wp)),
        "C9": lambda s: (1.0 + s / wz) / (s * s * (1.0 + s / wp)),
    }[cid]


def _callable_op(name, cid, w_s, p, z):
    """The series of a catalog shape passed as a plain callable (the failing class)."""
    T, D = _shape_callable(cid, w_s, p, z), CALLABLE_D

    def run():
        return transform.f_transform_series(T, D, w_s, K=SERIES_TERMS)

    def check(val):
        ref = _ref().catalog(cid, D, w_s, p=p, z=z)
        # F scales as w_s^-k: compare at the w_s = 2 pi of criterion 1
        err = abs(val - float(ref)) * (w_s / (2.0 * math.pi)) ** OMEGA_POWER[cid]
        return [] if err <= TOL_SERIES else [f"series off the reference by {err:.3e}"]

    return Op(name, run, check, expect_fail=True)


def _catalog_op(name, cid, D, p, z):
    """One catalog entry both ways, as criterion 1 asks: (series, closed form)."""
    w_s = 2.0 * math.pi
    T, case = _shape_tf(cid, w_s, p, z), TableCase(cid, p=p, z=z)

    def run():
        return (transform.f_transform_series(T, D, w_s, K=SERIES_TERMS),
                transform.f_transform_case(case, D, w_s))

    def check(vals):
        ref = float(_ref().catalog(cid, D, w_s, p=p, z=z))
        series, closed = vals
        problems = []
        if abs(series - ref) > TOL_SERIES:
            problems.append(f"series off the reference by {abs(series - ref):.3e}")
        if abs(closed - ref) > TOL_L * max(1.0, abs(ref)):
            problems.append(f"closed form off the reference by {abs(closed - ref):.3e}")
        return problems

    return Op(name, run, check)


def _catalog_points(cid):
    ps = P_GRID if cid in NEEDS_P else [None]
    for p in ps:
        yield (float(p) if p is not None else None), (Z_FIX if cid in NEEDS_Z else None)


def build_oracle(configs, out_dir, rng):
    ops = []
    for cid in CASES:
        for D in D_GRID:
            for p, z in _catalog_points(cid):
                ops.append(_catalog_op(f"catalog.{cid}.D{D:.2f}.p{p}", cid, float(D), p, z))
    for k in range(45):
        cid = CASES[k % 9]
        D = float(rng.uniform(0.05, 0.95))
        p = float(np.exp(rng.uniform(np.log(0.01), np.log(3.0)))) if cid in NEEDS_P else None
        z = float(rng.uniform(0.5, 1.5)) if cid in NEEDS_Z else None
        ops.append(_catalog_op(f"catalog.seeded.{k}.{cid}", cid, D, p, z))

    for path in sorted(configs.glob("*.cfg")):
        name = path.stem
        cfg = load_config(str(path))
        if name.startswith("exit") or cfg.params.V_m == 0.0:
            continue  # error-exit configs; a flat ramp has no loop gain
        ops.append(_hf_op(name, cfg))

    for cmd, name in (("critical", "ex1_critical"), ("critical", "ex3_critical"),
                      ("lplot", "ex2_lplot"), ("lplot", "ex4_lplot")):
        cfg = _cfg(configs, name)
        out = _out(out_dir, f"{cmd}_{name}_terms")
        argv = [cmd, "--config", str(configs / f"{name}.cfg"), "--out", out,
                "--terms", str(SERIES_TERMS)]
        check = (_critical_check(cfg, out, tol_l=TOL_SERIES) if cmd == "critical"
                 else _lplot_check(cfg, out, series=True))
        ops.append(cli_op(f"cli.{cmd}.{name}.terms", argv, [out], check))

    for f_s in CALLABLE_FREQS:
        w = 2.0 * math.pi * f_s
        for cid in CASES:
            for p, z in _catalog_points(cid):
                ops.append(_callable_op(f"callable.{f_s:g}.{cid}.p{p}", cid, w, p, z))
    return ops


def _hf_op(name, cfg):
    def run():
        T = schemes.loop_gain_hf(cfg.params, cfg.scheme)
        D = cfg.duty if cfg.duty is not None else schemes.duty_ratio(cfg.params, cfg.scheme)
        return transform.f_transform_series(T, D, cfg.params.omega_s, K=SERIES_TERMS)

    def check(val):
        r = _ref()
        prm, sch = _prm(cfg.params), _sch(cfg.scheme)
        D = cfg.duty if cfg.duty is not None else r.duty(prm, sch)
        err = abs(val - float(r.lvalue(prm, sch, D)))
        return [] if err <= TOL_SERIES else [f"series L off the reference by {err:.3e}"]

    return Op(f"series.loop_gain_hf.{name}", run, check)


# -- simulate -----------------------------------------------------------------


def _loop_of(params, scheme):
    cl = build_closed_loop(params, scheme)
    return switched.Loop(cl.A, cl.b_on, cl.b_off, cl.y_row, cl.y_const,
                         params.V_l, params.V_m, params.T)


def check_trace(params, scheme, strobe, duties, classification, verdict, label):
    problems = []
    if classification != verdict:
        problems.append(f"{label}: {classification}, the paper says {verdict}")
    loop = _loop_of(params, scheme)
    n = len(duties)
    for k in list(range(8)) + list(range(n - 8, n)):
        state_err, switch_err = switched.cycle_residual(loop, strobe[k], duties[k], strobe[k + 1])
        if max(state_err, switch_err) > TOL_REPLAY:
            problems.append(f"{label}: cycle {k} replays with errors "
                            f"{state_err:.2e}, {switch_err:.2e}")
            break
    one, two = switched.tail_period(strobe, 1), switched.tail_period(strobe, 2)
    if verdict == "period-1" and one > TOL_PERIOD:
        problems.append(f"{label}: strobe tail not period-1 ({one:.2e})")
    if verdict == "period-2" and not (two <= TOL_PERIOD < one):
        problems.append(f"{label}: strobe tail not period-2 ({one:.2e}, {two:.2e})")
    return problems


def _seeded_family(configs, family, verdict, rng):
    base = _cfg(configs, "ex2_sim_049" if family == "ex2" else "ex4_sim_020")
    p = float(rng.uniform(*SEEDED_BANDS[family][verdict]))
    scheme = dataclasses.replace(base.scheme, omega_p=p * base.params.omega_s)
    return base.params, scheme, p


def build_simulate(configs, out_dir, rng):
    ops = []
    for name, verdict in SIM_VERDICT.items():
        cfg = _cfg(configs, name)
        out = _out(out_dir, f"simulate_{name}")
        dense = _out(out_dir, f"simulate_{name}_dense")
        argv = ["simulate", "--config", str(configs / f"{name}.cfg"), "--out", out]
        ops.append(cli_op(f"cli.simulate.{name}", argv, [out, dense],
                          _simulate_check(cfg, name, verdict, out, dense)))
    for family, verdict in (("ex2", "period-2"), ("ex4", "period-1")):
        params, scheme, p = _seeded_family(configs, family, verdict, rng)

        def run(params=params, scheme=scheme):
            return simulation.simulate(params, scheme, cycles=2112)

        def check(tr, params=params, scheme=scheme, verdict=verdict, label=f"{family} p={p!r}"):
            return check_trace(params, scheme, tr.strobe, tr.duties, tr.classification,
                               verdict, label)

        ops.append(Op(f"lib.simulate.{family}.{verdict}", run, check))
    return ops


def _simulate_check(cfg, name, verdict, out, dense):
    def check(res):
        header, rows = _csv(res.files[out])
        cycles = cfg.cycles
        if len(rows) != cycles + 1:
            return [f"{len(rows)} strobe rows for {cycles} cycles"]
        strobe = np.array([[float(v) for v in row[2:]] for row in rows])
        duties = np.array([float(row[1]) for row in rows[1:]])
        classification = res.stdout.strip().splitlines()[-1]
        problems = check_trace(cfg.params, cfg.scheme, strobe, duties, classification,
                               verdict, name)
        _, dense_rows = _csv(res.files[dense])
        if len(dense_rows) != 64 * 64:
            problems.append(f"{len(dense_rows)} dense rows, expected {64 * 64}")
        return problems

    return check


# -- multipliers --------------------------------------------------------------


def check_multipliers(params, scheme, eigs, label):
    """prod(eigs) equals the return-map determinant at the benchmark's own orbit."""
    loop = _loop_of(params, scheme)
    x_guess, d_guess = steady_state(params, scheme)
    try:
        _, _, x_star = switched.orbit(loop, x_guess, d_guess)
    except (ValueError, np.linalg.LinAlgError) as exc:
        return [f"{label}: {exc}"]
    det = switched.return_map_det(loop, x_star)
    prod = complex(np.prod(np.asarray(eigs, dtype=complex)))
    if abs(prod - det) > TOL_DET * abs(det):
        return [f"{label}: product of multipliers {prod:.10g} vs det {det:.10g}"]
    return []


def _verdict_problems(eigs, verdict, label):
    eigs = np.asarray(eigs, dtype=complex)
    real = eigs[np.abs(eigs.imag) <= 1e-6 * (1.0 + np.abs(eigs))].real
    worst = float(real.min()) if real.size else math.inf
    radius = float(np.max(np.abs(eigs)))
    if verdict == "period-1" and not radius < 1.0:
        return [f"{label}: spectral radius {radius:.6f} on a period-1 orbit"]
    if verdict == "period-2" and not worst <= -1.0 + EDGE:
        return [f"{label}: most negative multiplier {worst:.6f} on a period-2 orbit"]
    return []


def _apply(params, scheme, var, value):
    if var == "v_s":
        return dataclasses.replace(params, v_s=value), scheme
    if var == "k_p":
        return params, dataclasses.replace(scheme, k_p=value)
    if var == "p":
        return params, dataclasses.replace(scheme, omega_p=value * params.omega_s)
    raise ValueError(var)


def build_multipliers(configs, out_dir, rng):
    ops = []
    for name, windows in POLE_WINDOWS.items():
        cfg = _cfg(configs, name)
        out = _out(out_dir, f"poles_{name}")
        argv = ["poles", "--config", str(configs / f"{name}.cfg"), "--out", out]
        ops.append(cli_op(f"cli.poles.{name}", argv, [out],
                          _poles_check(cfg, name, windows, out)))
    points = [(name, _cfg(configs, name), verdict) for name, verdict in SIM_VERDICT.items()]
    for family, verdict in (("ex4", "period-2"), ("ex2", "period-1")):
        params, scheme, p = _seeded_family(configs, family, verdict, rng)
        cfg = dataclasses.replace(_cfg(configs, "ex2_sim_049" if family == "ex2"
                                       else "ex4_sim_020"), params=params, scheme=scheme)
        points.append((f"{family}.p{p:.6f}", cfg, verdict))
    for name, cfg, verdict in points:
        def run(cfg=cfg):
            return sampled.poles(cfg.params, cfg.scheme)

        def check(ps, cfg=cfg, verdict=verdict, label=name):
            return (check_multipliers(cfg.params, cfg.scheme, ps.eigenvalues, label)
                    + _verdict_problems(ps.eigenvalues, verdict, label))

        ops.append(Op(f"lib.poles.{name}", run, check))
    return ops


_CROSS = re.compile(r"^crossing: (exit|enter) at (\S+) = (\S+) \(eigenvalue (\S+)\)$", re.M)


def _poles_check(cfg, name, windows, out):
    def check(res):
        problems = []
        header, rows = _csv(res.files[out])
        var = header[0]
        dim = (len(header) - 2) // 2
        for row in rows:
            if row[-1]:
                problems.append(f"{name}: point {row[0]} failed: {row[-1]}")
                continue
            eigs = [complex(float(row[1 + 2 * i]), float(row[2 + 2 * i])) for i in range(dim)]
            params, scheme = _apply(cfg.params, cfg.scheme, var, float(row[0]))
            problems += check_multipliers(params, scheme, eigs, f"{name} {var}={row[0]}")
            if name == "ex3_poles":
                problems += _verdict_problems(eigs, "period-2", f"{name} {var}={row[0]}")
        found = _CROSS.findall(res.stdout)
        if len(found) != len(windows):
            problems.append(f"{name}: {len(found)} crossings, the paper has {len(windows)}")
        for (direction, _, value, eig), (want, lo, hi) in zip(found, windows):
            if direction != want or not lo <= float(value) <= hi:
                problems.append(f"{name}: {direction} at {value} outside [{lo}, {hi}]")
            if abs(float(eig) + 1.0) > TOL_MINUS_ONE:
                problems.append(f"{name}: multiplier {eig} at the crossing is not -1")
        return problems

    return check


_BUILD = {
    "closed_form": build_closed_form,
    "oracle": build_oracle,
    "simulate": build_simulate,
    "multipliers": build_multipliers,
}


def build(workload, seed, configs: Path, out_dir: Path) -> List[Op]:
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _BUILD[workload](configs, out_dir, rng)
