"""Benchmark of subharmonic: one workload, one seed, one JSON line.

    python3 bench/run.py --workload closed_form --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its
``src``.  With ``--trace 0`` the last line of stdout carries the
end-to-end metrics (setup_s, peak_rss_mb, verdicts_per_s); with
``--trace 1`` the per-layer metrics of a traced run.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("closed_form", "oracle", "simulate", "multipliers")
SETUP_SAMPLES = 5      # fresh interpreters timed per run, the median is setup_s
TIMEOUT_S = 170.0


class BenchError(Exception):
    pass


def _env():
    env = dict(os.environ)
    env.pop("SUBHARMONIC_THREADS", None)
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = "1"
    return env


def _spawn(args, deadline):
    """Run one worker; returns ((raw, rescaled) set-up seconds, last stdout line, stderr).

    The set-up is rescaled by the host-speed probe taken just before the
    interpreter starts and by the worker just after it is ready.
    """
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    before = probe.probe(5)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker timed out: {' '.join(args)}") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    ready = re.search(r"^READY (\S+) (\S+)$", out, re.M)
    if not ready:
        raise BenchError("worker never reported READY")
    raw = float(ready.group(1)) - t0
    scaled = raw * probe.NOMINAL_S / (0.5 * (before + float(ready.group(2))))
    return (raw, scaled), out.strip().splitlines()[-1], err


def _importtime(deadline):
    """Cumulative import seconds of numpy, scipy and subharmonic, fresh interpreter."""
    code = ("import sys; sys.path.insert(0, 'src'); import numpy; "
            "import scipy.linalg, scipy.optimize; import subharmonic, subharmonic.cli")
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code], cwd=ROOT,
                          env=_env(), capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.perf_counter()))
    if proc.returncode != 0:
        raise BenchError(f"import probe failed: {proc.stderr.strip()[-2000:]}")
    totals = {"numpy": 0.0, "scipy": 0.0, "subharmonic": 0.0}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \| (\s*)(\S+)", line)
        if not m or m.group(2):  # top-level imports only
            continue
        top = m.group(3).split(".")[0]
        if top in totals:
            totals[top] += int(m.group(1)) * 1e-6
    return totals


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.perf_counter() + TIMEOUT_S
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        if not (ROOT / "src" / "subharmonic").is_dir():
            raise BenchError(f"no package source under {ROOT / 'src'}")
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(_spawn(base + ["--setup-only"], deadline)[0])
        setup, line, err = _spawn(base + ["--seconds", str(args.seconds),
                                          "--trace", str(args.trace)], deadline)
        setups.append(setup)
        summary = json.loads(line)
        imports = _importtime(deadline) if args.trace else None
    except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for problem in summary["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    if err.strip():
        sys.stderr.write(err)
    print(f"{args.workload}: {summary['rounds']} rounds of {summary['ops_per_round']} "
          f"operations, {summary['failed_per_round']} failing per round, "
          f"rescaled round seconds {[round(s, 3) for s in summary['round_s']]}; "
          f"raw medians: setup {statistics.median(s[0] for s in setups):.4f} s, "
          f"{summary['raw_verdicts_per_s']:.5g} verdicts/s", file=sys.stderr)
    if args.trace:
        metrics = {
            "setup.import_numpy_s": {"value": imports["numpy"], "unit": "s"},
            "setup.import_scipy_s": {"value": imports["scipy"], "unit": "s"},
            "setup.import_subharmonic_s": {"value": imports["subharmonic"], "unit": "s"},
            **summary["layers"],
        }
    else:
        metrics = {
            "setup_s": {"value": statistics.median(s[1] for s in setups), "unit": "s"},
            "peak_rss_mb": {"value": summary["peak_rss_mb"], "unit": "MB"},
            "verdicts_per_s": {"value": summary["verdicts_per_s"], "unit": "1/s"},
        }
    result = {
        "correct": summary["correct"],
        "attempted": summary["ops_per_round"] * summary["rounds"],
        "failed": summary["failed_per_round"] * summary["rounds"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
