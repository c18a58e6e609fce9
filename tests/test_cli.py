"""Command-line front end, run end-to-end as a subprocess."""

import csv
import dataclasses
import math
import os
import re
import stat
import subprocess
import sys

import numpy as np
import pytest

from subharmonic import (
    ConfigError,
    CycleEngine,
    cli,
    errors,
    pole_trajectory,
    simulate,
)
from subharmonic.config import load_config, parse_sweep
from subharmonic.schemes import contour_data

from conftest import config_path

# the checkout's own package directory, absolute so that it still resolves
# when a test runs the child from another working directory
SRC_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir,
                                       "src"))


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_DIR, env.get("PYTHONPATH")) if p)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "subharmonic.cli", *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=300,
    )


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def stdout_value(out, key):
    m = re.search(rf"^{re.escape(key)} = (\S+)", out, re.M)
    assert m, f"{key!r} not reported in:\n{out}"
    return float(m.group(1))


# ----------------------------------------------------------------- solves


def test_critical_solve_gain(tmp_path):
    out = tmp_path / "crit.csv"
    r = run_cli("critical", "--config", config_path("ex1_critical.cfg"),
                "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert stdout_value(r.stdout, "critical k_p") == pytest.approx(
        8.537926282811904, rel=1e-12)
    assert "verdict = stable" in r.stdout
    header, rows = read_csv(out)
    assert header == ["lvalue", "duty", "stable", "solve_for",
                      "critical_value"]
    assert float(rows[0][0]) == pytest.approx(0.8821556245481573, rel=1e-12)
    assert rows[0][2] == "1"


def test_critical_solve_source_voltage(tmp_path):
    r = run_cli("critical", "--config", config_path("ex3_critical.cfg"),
                "--out", str(tmp_path / "c.csv"))
    assert r.returncode == 0, r.stderr
    assert stdout_value(r.stdout, "critical v_s") == pytest.approx(
        17.12447578559703, rel=1e-10)


def test_critical_rl_ramp_without_a_pinned_duty_is_refused(tmp_path):
    # the RL loop's duty moves with the ramp: no m_a answer at its own duty
    out = tmp_path / "c.csv"
    r = run_cli("critical", "--config", config_path("ex1_critical.cfg"),
                "--solve-for", "m_a", "--out", str(out))
    assert r.returncode == 3
    assert "pin a duty for m_a" in r.stderr
    assert not out.exists()


def test_critical_solve_duty_flat_ramp(tmp_path):
    r = run_cli("critical", "--config", config_path("cmc_critical.cfg"),
                "--out", str(tmp_path / "c.csv"))
    assert r.returncode == 0, r.stderr
    assert stdout_value(r.stdout, "critical D") == pytest.approx(
        0.5, abs=1e-9)


# ----------------------------------------------------------------- curves


def test_flat_ramp_duty_sweep_crossing(tmp_path):
    out = tmp_path / "l.csv"
    r = run_cli("lplot", "--config", config_path("cmc_lplot.cfg"),
                "--out", str(out))
    assert r.returncode == 0, r.stderr
    m = re.search(r"crossing at D = (\S+)", r.stdout)
    assert m and abs(float(m.group(1)) - 0.5) <= 1e-6
    header, rows = read_csv(out)
    assert header == ["D", "lvalue"]
    assert len(rows) == 181


def test_pole_ratio_sweep_endpoints(tmp_path):
    r = run_cli("lplot", "--config", config_path("ex4_lplot.cfg"),
                "--out", str(tmp_path / "l.csv"))
    assert r.returncode == 0, r.stderr
    got = [float(x) for x in re.findall(r"crossing at p = (\S+)", r.stdout)]
    assert got == pytest.approx(
        [0.2360166390240192, 0.45813103348016726], rel=1e-9)


def test_series_term_count_flag(tmp_path):
    # a truncated evaluation lane still finds the same neighborhood
    r = run_cli("lplot", "--config", config_path("ex4_lplot.cfg"),
                "--terms", "4000", "--sweep", "p:0.2:0.5:31",
                "--out", str(tmp_path / "l.csv"))
    assert r.returncode == 0, r.stderr
    got = [float(x) for x in re.findall(r"crossing at p = (\S+)", r.stdout)]
    assert len(got) == 2
    assert got[0] == pytest.approx(0.236, abs=5e-3)
    assert got[1] == pytest.approx(0.458, abs=5e-3)


def test_gap_surface_summary(tmp_path):
    out = tmp_path / "c.csv"
    r = run_cli("contour", "--config", config_path("contour.cfg"),
                "--out", str(out))
    assert r.returncode == 0, r.stderr
    m = re.search(r"max gap = (\S+)", r.stdout)
    assert m and float(m.group(1)) == pytest.approx(3.14159, abs=0.02)
    header, rows = read_csv(out)
    assert header == ["D", "p", "gap"]
    assert len(rows) == 100 * 100


def test_contour_csv_is_the_surface_cell_for_cell(tmp_path):
    # text against text: a parsed float would let "-0" pass for "0"
    cfg = load_config(config_path("contour.cfg"))
    out = tmp_path / "c.csv"
    assert cli.main(["contour", "--config", config_path("contour.cfg"),
                     "--out", str(out)]) == 0
    D_grid, p_grid = cfg.sweep_d.grid(), cfg.sweep_p.grid()
    gap = contour_data(D_grid, p_grid)
    want = ["D,p,gap"] + [
        f"{cli._fmt(D)},{cli._fmt(p)},{cli._fmt(gap[i, j])}"
        for i, D in enumerate(D_grid) for j, p in enumerate(p_grid)]
    assert out.read_text().split("\n") == want + [""]


def test_window_report(tmp_path):
    out = tmp_path / "w.csv"
    r = run_cli("window", "--config", config_path("ex4_window.cfg"),
                "--out", str(out))
    assert r.returncode == 0, r.stderr
    header, rows = read_csv(out)
    assert header == ["K", "D", "est_lo", "est_hi", "closed_lo", "closed_hi"]
    vals = [float(v) for v in rows[0]]
    assert vals[2] == pytest.approx(0.1713362197240398, rel=1e-9)
    assert vals[3] == pytest.approx(0.5752934004648771, rel=1e-9)
    assert vals[4] == pytest.approx(0.236, abs=1e-3)
    assert vals[5] == pytest.approx(0.458, abs=1e-3)


# ------------------------------------------------------------- simulation


def test_simulate_writes_strobe_and_dense(tmp_path):
    out = tmp_path / "s.csv"
    r = run_cli("simulate", "--config", config_path("ex4_sim_060.cfg"),
                "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert r.stdout.rstrip().endswith("period-1")
    header, rows = read_csv(out)
    assert header[:2] == ["cycle", "duty"]
    assert header[2:] == ["i_L", "v_C", "z1", "z2", "z3"]
    assert len(rows) == 2113          # cycle 0 plus one row per cycle
    dense = tmp_path / "s_dense.csv"
    dheader, drows = read_csv(dense)
    assert dheader[0] == "t"
    assert dheader[-3:] == ["y", "h", "v_d"]
    assert len(drows) > 1000


def test_simulate_csv_round_trips_the_trace(tmp_path):
    # every numeric cell parses back to the exact float of the run
    cfg = load_config(config_path("ex2_sim_049.cfg"))
    out = tmp_path / "s.csv"
    r = run_cli("simulate", "--config", config_path("ex2_sim_049.cfg"),
                "--cycles", "80", "--out", str(out))
    assert r.returncode == 0, r.stderr
    tr = simulate(cfg.params, cfg.scheme, cycles=80, dense_cycles=64,
                  divergence_bound=cfg.divergence_bound)
    header, rows = read_csv(out)
    assert header == ["cycle", "duty", "i_L", "v_C", "z1", "z2"]
    assert len(rows) == 81 and rows[0][1] == "nan"
    assert [int(row[0]) for row in rows] == list(range(81))
    assert [float(row[1]) for row in rows[1:]] == tr.duties.tolist()
    assert [[float(c) for c in row[2:]] for row in rows] == tr.strobe.tolist()
    d = tr.dense
    dheader, drows = read_csv(tmp_path / "s_dense.csv")
    assert dheader == ["t", "i_L", "v_C", "z1", "z2", "y", "h", "v_d"]
    want = np.column_stack((d.t, d.x, d.y, d.h, d.v_d))
    assert [[float(c) for c in row] for row in drows] == want.tolist()


def test_simulate_detects_subharmonic(tmp_path):
    r = run_cli("simulate", "--config", config_path("ex2_sim_049.cfg"),
                "--out", str(tmp_path / "s.csv"))
    assert r.returncode == 0, r.stderr
    assert r.stdout.rstrip().endswith("period-2")


def test_divergence_exit_code_with_partial_trace(tmp_path):
    out = tmp_path / "s.csv"
    r = run_cli("simulate", "--config", config_path("exit4_divergence.cfg"),
                "--out", str(out))
    assert r.returncode == 4
    assert "divergence" in r.stderr
    assert "diverged" in r.stdout
    header, rows = read_csv(out)
    assert len(rows) >= 1


# ------------------------------------------------------------------ poles


def test_pole_sweep_csv_and_crossings(tmp_path):
    out = tmp_path / "p.csv"
    r = run_cli("poles", "--config", config_path("ex1_poles.cfg"),
                "--out", str(out))
    assert r.returncode == 0, r.stderr
    m = re.search(r"crossing: exit at k_p = (\S+)", r.stdout)
    assert m and float(m.group(1)) == pytest.approx(8.62571, abs=1e-3)
    header, rows = read_csv(out)
    assert header == ["k_p", "re_1", "im_1", "error"]
    assert len(rows) == 11
    assert float(rows[0][1]) == pytest.approx(-0.992548619, abs=1e-7)


def test_pole_sweep_downward_reports_the_crossing_as_an_exit(tmp_path):
    # the eigenvalue leaves the unit disk as k_p increases, whichever way
    # the grid runs
    r = run_cli("poles", "--config", config_path("ex1_poles.cfg"),
                "--sweep", "k_p:9.0:8.0:11", "--out", str(tmp_path / "p.csv"))
    assert r.returncode == 0, r.stderr
    assert "crossing: exit at k_p = 8.6257125814246258" in r.stdout


def test_pole_single_point_spectrum(tmp_path):
    out = tmp_path / "p.csv"
    r = run_cli("poles", "--config", config_path("ex3_poles.cfg"),
                "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert "no -1 crossings" in r.stdout
    header, rows = read_csv(out)
    assert header[0] == "v_s"
    res = sorted(float(rows[0][2 * i + 1]) for i in range(5))
    assert res[0] == pytest.approx(-0.99959132, abs=1e-6)


def test_poles_sweep_away_from_an_unbuildable_config_point(tmp_path):
    # omega_p = 1/(R_c C) puts the config's own compensator pole on the ESR
    # pole, which the loop cannot be built with; every swept p can be
    text = open(config_path("ex3_poles.cfg")).read()
    cfg = tmp_path / "coincident.cfg"
    cfg.write_text(re.sub(r"(?m)^omega_p = .*$", "omega_p = 202020.202020202",
                          text.replace("sweep = v_s:16.0:16.0:1",
                                       "sweep = p:0.3:0.6:4")))
    out = tmp_path / "p.csv"
    r = run_cli("poles", "--config", str(cfg), "--out", str(out))
    assert r.returncode == 0, r.stderr
    assert "crossing: enter at p = 0.49971467906233419" in r.stdout
    header, rows = read_csv(out)
    assert len(header) == 1 + 2 * 5 + 1
    assert len(rows) == 4 and all(row[-1] == "" for row in rows)


def test_stable_only_sweep_reports_no_crossings(tmp_path):
    r = run_cli("poles", "--config", config_path("ex2_poles.cfg"),
                "--sweep", "p:0.55:0.85:4", "--out", str(tmp_path / "p.csv"))
    assert r.returncode == 0, r.stderr
    assert "no -1 crossings" in r.stdout


def test_crossing_refinement_failure_is_reported(tmp_path, capsys,
                                                 monkeypatch):
    # a failed refinement is recorded between two grid points, where no
    # CSV row shows it
    real = cli.pole_trajectory

    def failed_refinement(*args, **kwargs):
        traj = real(*args, **kwargs)
        return dataclasses.replace(traj, crossings=(), errors=(
            (8.65, "crossing refinement failed: brentq: f has one sign"),))

    monkeypatch.setattr(cli, "pole_trajectory", failed_refinement)
    out = tmp_path / "p.csv"
    code = cli.main(["poles", "--config", config_path("ex1_poles.cfg"),
                     "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    m = re.search(r"^error at k_p = (\S+): crossing refinement failed: "
                  r"brentq: f has one sign$", stdout, re.M)
    assert m and float(m.group(1)) == 8.65
    assert "no -1 crossings" not in stdout
    _, rows = read_csv(out)
    assert len(rows) == 11 and all(row[-1] == "" for row in rows)


@pytest.mark.parametrize("name,sweep,failed,mark", [
    ("ex1_poles.cfg", "v_s:6:11:6", 2, "NoConvergence"),  # no orbit below 8
    ("ex2_poles.cfg", "p:0.3:100:3:log", 1, "‖A dt‖₁"),   # p = 100 is stiff
])
def test_poles_csv_is_the_per_cell_text_of_the_trajectory(
        tmp_path, name, sweep, failed, mark):
    # a failed point writes nan cells and its error text, the rest their
    # eigenvalues
    cfg = load_config(config_path(name))
    spec = parse_sweep(sweep)
    grid = spec.grid()
    traj = pole_trajectory(cfg.params, cfg.scheme, spec.variable, grid)
    errors = dict(traj.errors)
    dim = max(len(ps.eigenvalues) for ps in traj.pole_sets if ps is not None)
    lines = [[spec.variable] + [f"{part}_{i}" for i in range(1, dim + 1)
                                for part in ("re", "im")] + ["error"]]
    for v, ps in zip(grid.tolist(), traj.pole_sets):
        if ps is None:
            cells = ["nan"] * (2 * dim) + [cli._csv_str(errors[v])]
        else:
            cells = [cli._fmt(x) for z in ps.eigenvalues
                     for x in (z.real, z.imag)] + [""]
        lines.append([cli._fmt(v)] + cells)
    assert sum(ps is None for ps in traj.pole_sets) == failed
    out = tmp_path / "p.csv"
    assert cli.main(["poles", "--config", config_path(name), "--sweep", sweep,
                     "--out", str(out)]) == 0
    text = "".join(",".join(cells) + "\n" for cells in lines)
    assert out.read_bytes() == text.encode("utf-8")
    assert mark in text


# ------------------------------------------------------------ config layer


def write_cfg(tmp_path, text):
    p = tmp_path / "case.cfg"
    p.write_text(text)
    return str(p)


BASE = """scheme = rlp
v_s = 10.0
v_r = 7.5
V_l = 0.0
V_h = 1.0
f_s = 1e6
L = 1e-6
R = 1.0
k_p = 8.0
"""


@pytest.mark.parametrize("mutate,hint", [
    (lambda t: t + "mystery = 1\n", "unknown"),
    (lambda t: t.replace("k_p = 8.0\n", ""), "k_p"),
    (lambda t: t + "k_p = 9.0\n", "duplicate"),
    (lambda t: t.replace("R = 1.0", "R 1.0"), "key = value"),
    (lambda t: t.replace("v_s = 10.0", "v_s = ten"), "v_s"),
    (lambda t: t + "duty = 1.5\n", "duty"),
    (lambda t: t + "cycles = 1\n", "cycles"),
    (lambda t: t + "sweep = q:0:1:5\n", "sweep"),
    (lambda t: t.replace("scheme = rlp", "scheme = boost"), "scheme"),
])
def test_config_rejection(tmp_path, mutate, hint):
    cfg = write_cfg(tmp_path, mutate(BASE))
    r = run_cli("critical", "--config", cfg,
                "--out", str(tmp_path / "o.csv"))
    assert r.returncode == 2
    assert "config error" in r.stderr
    assert hint.lower() in r.stderr.lower()


LC_PLANT = """v_s = 10.0
v_r = 3.0
V_l = 0.0
V_h = 1.0
f_s = 1e5
L = 1e-4
R = 1.0
C = 100e-6
"""


@pytest.mark.parametrize("scheme", ["scheme = cmc\n",
                                    "scheme = cfpvr\nk_p = 1.0\n"])
def test_series_pole_sweep_needs_a_compensator_pole(tmp_path, scheme):
    cfg = write_cfg(tmp_path, scheme + LC_PLANT)
    out = tmp_path / "l.csv"
    r = run_cli("lplot", "--config", cfg, "--terms", "200",
                "--sweep", "p:0.1:0.5:5", "--out", str(out))
    assert r.returncode == 3
    assert r.stderr.count("DomainError") == 1
    assert not out.exists()


def test_series_lplot_failing_at_every_point_exits_3(tmp_path, capsys):
    # a flat ramp puts every point of the series route outside its domain
    out = tmp_path / "l.csv"
    code = cli.main(["lplot", "--config", config_path("cmc_lplot.cfg"),
                     "--terms", "10000", "--out", str(out)])
    assert code == 3
    err = capsys.readouterr().err
    assert err == ("error: DomainError: zero ramp amplitude: "
                   "V_m must be positive here\n")
    assert not out.exists()


@pytest.mark.parametrize("terms", [[], ["--terms", "10000"]])
def test_duty_sweep_with_a_pinned_duty_exits_3(tmp_path, capsys, terms):
    # ex4_lplot.cfg pins a duty, which a sweep over D cannot honour
    out = tmp_path / "l.csv"
    code = cli.main(["lplot", "--config", config_path("ex4_lplot.cfg"),
                     "--sweep", "D:0.1:0.9:9", *terms, "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err == (
        "error: DomainError: a duty sweep takes no pinned duty\n")
    assert not out.exists()


@pytest.mark.parametrize("terms", [[], ["--terms", "10000"]])
def test_voltage_sweep_reads_saturated_points_as_nan(tmp_path, capsys, terms):
    # the RL loop saturates below v_s of about 8: those rows read nan on
    # both routes and the crossing past them is reported; a sweep that
    # saturates at every point exits 3
    out = tmp_path / "l.csv"
    argv = ["lplot", "--config", config_path("ex1_critical.cfg"), *terms,
            "--out", str(out), "--sweep"]
    assert cli.main(argv + ["v_s:1:40:40"]) == 0
    stdout = capsys.readouterr().out
    _, rows = read_csv(out)
    assert rows[0][1] == "nan" and rows[-1][1] != "nan"
    m = re.search(r"crossing at v_s = (\S+)", stdout)
    if terms:
        assert float(m.group(1)) == pytest.approx(9.9795450149478544, abs=1e-3)
    else:
        assert m.group(1) == "9.9795450149478544"
    out.unlink()
    assert cli.main(argv + ["v_s:1:7:10"]) == 3
    assert capsys.readouterr().err == (
        "error: DomainError: operating duty 1 falls outside (0, 1)\n")
    assert not out.exists()


def test_scheme_conditional_keys(tmp_path):
    # a proportional-gain key has no meaning for the averaged-current loop
    cfg = write_cfg(tmp_path, BASE.replace("scheme = rlp", "scheme = acmc"))
    r = run_cli("critical", "--config", cfg,
                "--out", str(tmp_path / "o.csv"))
    assert r.returncode == 2
    assert "k_p" in r.stderr


@pytest.mark.parametrize("command,cfg,flag,message", [
    ("simulate", "ex2_sim_049.cfg", ("--cycles", "1"), "cycles must be at least 2"),
    ("critical", "ex1_critical.cfg", ("--terms", "-1"), "terms must be non-negative"),
])
def test_flag_range_rejection(tmp_path, capsys, command, cfg, flag, message):
    out = tmp_path / "o.csv"
    code = cli.main([command, "--config", config_path(cfg),
                     "--out", str(out), *flag])
    assert code == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("command,cfg,flag", [
    ("contour", "contour.cfg", ("--terms", "5")),
    ("critical", "ex1_critical.cfg", ("--cycles", "80")),
    ("poles", "ex1_poles.cfg", ("--solve-for", "k_p")),
])
def test_flag_the_command_does_not_read_is_rejected(tmp_path, capsys, command,
                                                    cfg, flag):
    out = tmp_path / "o.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main([command, "--config", config_path(cfg), "--out", str(out), *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("field,value,message", [
    ("duty", 1.5, "duty must lie strictly inside (0, 1)"),
    ("cycles", 1, "cycles must be at least 2"),
    ("terms", -1, "terms must be non-negative"),
    ("divergence_bound", 0.0, "divergence_bound must be positive"),
])
def test_replaced_option_is_validated(field, value, message):
    # a flag override goes through the same checks as a config key
    cfg = load_config(config_path("ex1_critical.cfg"))
    with pytest.raises(ConfigError) as exc:
        dataclasses.replace(cfg, **{field: value})
    assert str(exc.value) == message


def test_no_root_exit_code(tmp_path):
    r = run_cli("critical", "--config", config_path("exit3_noroot.cfg"),
                "--out", str(tmp_path / "o.csv"))
    assert r.returncode == 3
    assert "error" in r.stderr


@pytest.mark.parametrize("name, code, prefix", [
    ("ConfigError", 2, "config error: "),
    ("Divergence", 4, "error: divergence: "),
] + [(n, 3, f"error: {n}: ") for n in errors.__all__
     if n not in ("ConfigError", "Divergence")])
def test_exit_code_follows_the_error_class(tmp_path, capsys, monkeypatch,
                                           name, code, prefix):
    def fail(cfg):
        raise getattr(errors, name)("planted")

    monkeypatch.setitem(cli._COMMANDS, "critical", fail)
    argv = ["critical", "--config", config_path("ex1_critical.cfg"),
            "--out", str(tmp_path / "o.csv")]
    assert cli.main(argv) == code
    assert capsys.readouterr().err == f"{prefix}planted\n"


def test_default_output_name(tmp_path):
    r = run_cli("critical", "--config", config_path("cmc_critical.cfg"),
                cwd=str(tmp_path))
    assert r.returncode == 0, r.stderr
    assert (tmp_path / "critical.csv").exists()


# ----------------------------------------------------------- output format


def test_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        r = run_cli("lplot", "--config", config_path("ex2_lplot.cfg"),
                    "--out", str(out))
        assert r.returncode == 0, r.stderr
    assert a.read_bytes() == b.read_bytes()


def test_in_process_reruns_share_one_parser(tmp_path, capsys):
    # main reuses the process's parser: a second run of one config must
    # write the same bytes and print the same report as the first
    out = tmp_path / "s.csv"
    argv = ["simulate", "--config", config_path("ex1_sim_kp9.cfg"),
            "--out", str(out)]
    runs = []
    for _ in range(2):
        assert cli.main(argv) == 0
        runs.append((out.read_bytes(),
                     (tmp_path / "s_dense.csv").read_bytes(),
                     capsys.readouterr().out))
    assert runs[0] == runs[1]
    assert runs[0][2].rstrip().endswith("period-2")


def test_reals_round_trip_through_csv(tmp_path):
    out = tmp_path / "l.csv"
    run_cli("lplot", "--config", config_path("ex4_lplot.cfg"),
            "--out", str(out))
    _, rows = read_csv(out)
    for cell in (rows[3][1], rows[97][1]):
        assert f"{float(cell):.17g}" == cell


# values whose text is easy to get wrong: signed zero, subnormals, the
# edges of the exponent form, an integer past 2**53, and non-finite ones
HARD_VALUES = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
               1e16, 1e17, 2.0**53 + 2, 1e-5, 1.2345678901234567e-7,
               6.02214076e23, 1e308, 1 / 3, -2.5, 0.1]


def test_fmt_is_the_round_trip_text():
    for x in HARD_VALUES:
        assert cli._fmt(x) == f"{x:.17g}"
    assert [cli._fmt(x) for x in (-0.0, 1e16, 1e17, 2.0**53 + 2)] == [
        "-0", "10000000000000000", "1e+17", "9007199254740994"]


def _per_cell_lines(*columns):
    """The reference writer: one ``_fmt`` per float cell, text as it is."""
    lines = []
    for i in range(len(columns[0])):
        cells = []
        for c in columns:
            if c.dtype == object:
                cells.append(c[i])
            else:
                cells += [cli._fmt(x) for x in np.atleast_1d(c[i])]
        lines.append(",".join(cells) + "\n")
    return "".join(lines)


@pytest.mark.parametrize("n", [0, 1, 255, 256, 257, 600])
def test_block_writer_matches_a_per_cell_join(n):
    rng = np.random.default_rng(n)
    hard = np.array(HARD_VALUES)
    col = hard[np.arange(n) % len(hard)]
    block = rng.permutation(np.resize(hard, (n, 3)).ravel()).reshape(n, 3)
    # a text column that repeats the text of a few values
    pick = rng.integers(0, 8, n)
    text = cli._text(hard[:8])[pick]
    assert text.dtype == object
    assert text.tolist() == [cli._fmt(x) for x in hard[pick]]
    columns = (col, block, text, rng.standard_normal(n) * 1e3)
    chunks = list(cli._float_rows(*columns))
    assert len(chunks) == -(-n // cli._BLOCK_ROWS)
    assert "".join(chunks) == _per_cell_lines(*columns)


@pytest.mark.parametrize("name,cycles,dense_steps", [
    ("ex1_sim_kp9", None, 4),   # strobe bits repeat with period 4
    ("ex1_sim_kp9", 200, 44),   # from cycle 176, 40 cycles into the tail
    ("ex3_sim", None, 2),
    ("ex4_sim_060", None, 64),  # its period, 654 cycles, outlasts the tail
    ("ex4_sim_024", None, 64),  # never repeats
])
def test_simulate_csv_is_the_per_cell_text_of_the_trace(
        tmp_path, monkeypatch, name, cycles, dense_steps):
    # the CLI steps one period of the dense tail and formats a repeating
    # row once; both files must still be a per-cell join of the trace
    cfg = load_config(config_path(f"{name}.cfg"))
    cycles = cycles or cfg.cycles
    tr = simulate(cfg.params, cfg.scheme, cycles=cycles, dense_cycles=64)
    step_dense, calls = CycleEngine.step_dense, []

    def counted(self, x):
        calls.append(x)
        return step_dense(self, x)

    monkeypatch.setattr(CycleEngine, "step_dense", counted)
    out = tmp_path / "s.csv"
    assert cli.main(["simulate", "--config", config_path(f"{name}.cfg"),
                     "--cycles", str(cycles), "--out", str(out)]) == 0
    assert len(calls) == dense_steps
    cycle = np.arange(cycles + 1, dtype=float)
    duties = np.concatenate(([np.nan], tr.duties))
    assert out.read_text() == (",".join(("cycle", "duty") + tr.labels) + "\n"
                               + _per_cell_lines(cycle, duties, tr.strobe))
    d = tr.dense
    header = ",".join(("t",) + tr.labels + ("y", "h", "v_d")) + "\n"
    assert (tmp_path / "s_dense.csv").read_text() == (
        header + _per_cell_lines(d.t, d.x, d.y, d.h, d.v_d))


def test_csv_mode_follows_the_umask(tmp_path):
    # like open(path, "w"): 0o666 less the umask, not mkstemp's 0o600
    for umask, mode in ((0o022, 0o644), (0o077, 0o600)):
        path = tmp_path / f"u{umask:o}.csv"
        old = os.umask(umask)
        try:
            cli._write_csv(str(path), ("a",), ["1\n"])
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == mode
        assert path.read_text() == "a\n1\n"


def test_line_endings_and_no_temp_litter(tmp_path):
    out = tmp_path / "l.csv"
    run_cli("lplot", "--config", config_path("cmc_lplot.cfg"),
            "--out", str(out))
    blob = out.read_bytes()
    assert b"\r" not in blob
    assert blob.endswith(b"\n")
    leftovers = [p for p in os.listdir(tmp_path)
                 if p.startswith(".subharmonic_")]
    assert leftovers == []


def test_commands_run_without_scipy(tmp_path):
    # the package needs only numpy; a scipy import anywhere fails this run
    runs = [[cmd, "--config", config_path(cfg + ".cfg"),
             "--out", str(tmp_path / f"{cfg}.csv"), *extra]
            for cmd, cfg, extra in [("critical", "cmc_critical", []),
                                    ("window", "ex2_window", []),
                                    ("simulate", "ex3_sim", ["--cycles", "80"]),
                                    ("poles", "ex2_poles", [])]]
    code = (
        "import sys; sys.modules['scipy'] = None\n"
        "from subharmonic.cli import main\n"
        f"for args in {runs!r}:\n"
        "    code = main(args)\n"
        "    if code:\n"
        "        sys.exit(f'{args}: exit {code}')\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    r = subprocess.run([sys.executable, "-c", code], capture_output=True,
                       text=True, env=env, timeout=300)
    assert r.returncode == 0, r.stderr
