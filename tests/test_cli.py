"""Command-line front end, run end-to-end as a subprocess."""

import csv
import os
import re
import subprocess
import sys

import pytest

from conftest import config_path

# the checkout's own package directory, absolute so that it still resolves
# when a test runs the child from another working directory
SRC_DIR = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir,
                                       "src"))


def run_cli(*args, env_extra=None, cwd=None):
    env = dict(os.environ)
    env.pop("SUBHARMONIC_THREADS", None)
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


def test_stable_only_sweep_reports_no_crossings(tmp_path):
    r = run_cli("poles", "--config", config_path("ex2_poles.cfg"),
                "--sweep", "p:0.55:0.85:4", "--out", str(tmp_path / "p.csv"))
    assert r.returncode == 0, r.stderr
    assert "no -1 crossings" in r.stdout


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


def test_scheme_conditional_keys(tmp_path):
    # a proportional-gain key has no meaning for the averaged-current loop
    cfg = write_cfg(tmp_path, BASE.replace("scheme = rlp", "scheme = acmc"))
    r = run_cli("critical", "--config", cfg,
                "--out", str(tmp_path / "o.csv"))
    assert r.returncode == 2
    assert "k_p" in r.stderr


def test_no_root_exit_code(tmp_path):
    r = run_cli("critical", "--config", config_path("exit3_noroot.cfg"),
                "--out", str(tmp_path / "o.csv"))
    assert r.returncode == 3
    assert "error" in r.stderr


def test_bad_thread_env_rejected(tmp_path):
    r = run_cli("critical", "--config", config_path("ex1_critical.cfg"),
                "--out", str(tmp_path / "o.csv"),
                env_extra={"SUBHARMONIC_THREADS": "many"})
    assert r.returncode == 2


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


def test_worker_count_does_not_change_bytes(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out, threads in ((a, "1"), (b, "4")):
        r = run_cli("lplot", "--config", config_path("ex2_lplot.cfg"),
                    "--terms", "1500", "--sweep", "p:0.15:0.55:21",
                    "--out", str(out),
                    env_extra={"SUBHARMONIC_THREADS": threads})
        assert r.returncode == 0, r.stderr
    assert a.read_bytes() == b.read_bytes()


def test_reals_round_trip_through_csv(tmp_path):
    out = tmp_path / "l.csv"
    run_cli("lplot", "--config", config_path("ex4_lplot.cfg"),
            "--out", str(out))
    _, rows = read_csv(out)
    for cell in (rows[3][1], rows[97][1]):
        assert f"{float(cell):.17g}" == cell


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
