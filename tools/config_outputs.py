"""Run every checked-in config through the CLI and fingerprint the outputs.

    python tools/config_outputs.py OUT_DIR [--against OTHER_DIR]

Each ``configs/*.cfg`` runs in-process through ``subharmonic.cli.main``
with the command its name implies (``critical`` for ``*_critical`` and
``exit3_noroot``, ``simulate`` for ``*_sim*`` and ``exit4_divergence``,
``poles`` for ``*_poles``, ``lplot``, ``window``, ``contour``), writing
its CSVs into OUT_DIR; each ``*_lplot`` and ``*_critical`` config runs a
second time with ``--terms 10000`` (the series route) as
``<config>_terms``.  Stdout (with OUT_DIR masked) and stderr go next to
them as ``<config>.stdout``/``.stderr``, exit codes to ``EXIT_CODES``,
and the sha256 of every file to ``SHA256SUMS``.

The package is imported from the ``src`` directory of the checkout this
file sits in, so a reference is made by running a copy of this file from
the other checkout.  ``--against OTHER_DIR`` then prints, per file,
"identical" or, for a CSV that differs, the largest
|delta| / (1 + max|column|) over its numeric columns, and for any other
file that differs the largest relative change among the numbers on its
changed lines, then its removed ("-") and added ("+") lines; the exit
code is 1 when any file differs.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import hashlib
import io
import math
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CONFIG_DIR = os.path.join(ROOT, "configs")
MASK = "<OUT>"


def command_for(name: str) -> str:
    if name.endswith("_critical") or name == "exit3_noroot":
        return "critical"
    if "_sim" in name or name == "exit4_divergence":
        return "simulate"
    for cmd in ("poles", "lplot", "window", "contour"):
        if name.endswith(cmd):
            return cmd
    raise SystemExit(f"no command known for config {name!r}")


def runs():
    """(output name, command, config file, extra flags) for every run."""
    for cfg in sorted(f for f in os.listdir(CONFIG_DIR) if f.endswith(".cfg")):
        name = cfg[:-4]
        cmd = command_for(name)
        yield name, cmd, cfg, []
        if name.endswith(("_lplot", "_critical")):
            yield f"{name}_terms", cmd, cfg, ["--terms", "10000"]


def run_all(out_dir: str) -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from subharmonic.cli import main

    os.makedirs(out_dir, exist_ok=True)
    out_dir = os.path.abspath(out_dir)
    codes = []
    for name, cmd, cfg, extra in runs():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([cmd, "--config", os.path.join(CONFIG_DIR, cfg),
                         "--out", os.path.join(out_dir, f"{name}.csv"),
                         *extra])
        for ext, buf in (("stdout", out), ("stderr", err)):
            with open(os.path.join(out_dir, f"{name}.{ext}"), "w") as fh:
                fh.write(buf.getvalue().replace(out_dir, MASK))
        codes.append(f"{name} {cmd} {code}\n")
    with open(os.path.join(out_dir, "EXIT_CODES"), "w") as fh:
        fh.writelines(codes)
    sums = []
    for f in sorted(os.listdir(out_dir)):
        if f != "SHA256SUMS":
            with open(os.path.join(out_dir, f), "rb") as fh:
                sums.append(f"{hashlib.sha256(fh.read()).hexdigest()}  {f}\n")
    with open(os.path.join(out_dir, "SHA256SUMS"), "w") as fh:
        fh.writelines(sums)


def _read_sums(path: str) -> dict:
    with open(os.path.join(path, "SHA256SUMS")) as fh:
        return {f: h for h, f in (line.split() for line in fh)}


def _columns(path: str):
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",") for line in fh]
    return header, rows


def csv_distance(new: str, old: str) -> str:
    """Largest |delta| / (1 + max|column|) over the numeric columns."""
    h_new, r_new = _columns(new)
    h_old, r_old = _columns(old)
    if h_new != h_old or len(r_new) != len(r_old):
        return "differs in header or row count"
    worst, where = 0.0, None
    for j, col in enumerate(h_old):
        try:
            a = [float(r[j]) for r in r_new]
            b = [float(r[j]) for r in r_old]
        except ValueError:
            if any(x[j] != y[j] for x, y in zip(r_new, r_old)):
                return f"differs in text column {col!r}"
            continue
        if any(math.isnan(x) != math.isnan(y) for x, y in zip(a, b)):
            return f"differs in the nan pattern of column {col!r}"
        pairs = [(x, y) for x, y in zip(a, b) if not math.isnan(y)]
        scale = 1.0 + max((abs(y) for _, y in pairs), default=0.0)
        d = max((abs(x - y) for x, y in pairs), default=0.0) / scale
        if d > worst:
            worst, where = d, col
    return f"max |delta|/(1+max|col|) = {worst:.3g} (column {where})"


def _lines(path: str) -> list:
    with open(path) as fh:
        return fh.read().splitlines()


def line_changes(new: str, old: str) -> str:
    """The removed and added lines of a text file, one per line."""
    diff = difflib.unified_diff(_lines(old), _lines(new), n=0, lineterm="")
    return "\n".join(f"  {line}" for line in diff
                     if not line.startswith(("---", "+++", "@@")))


# a decimal number that is not part of a word such as "ex2"
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def number_change(new: str, old: str) -> str:
    """Largest |delta| / max(|old|, |new|) over the numbers of the changed
    lines of a text file, paired in order within each changed block."""
    a, b = _lines(old), _lines(new)
    worst = 0.0
    blocks = difflib.SequenceMatcher(None, a, b, autojunk=False).get_opcodes()
    for tag, i1, i2, j1, j2 in blocks:
        if tag == "equal":
            continue
        x = [float(v) for line in a[i1:i2] for v in NUMBER.findall(line)]
        y = [float(v) for line in b[j1:j2] for v in NUMBER.findall(line)]
        if len(x) != len(y):
            return "changed lines differ in their count of numbers"
        for u, v in zip(x, y):
            if u != v:
                worst = max(worst, abs(u - v) / max(abs(u), abs(v)))
    return f"max relative change of a number = {worst:.3g}"


def compare(out_dir: str, other: str) -> int:
    """Print a verdict per file; returns the number of files that differ."""
    new, old = _read_sums(out_dir), _read_sums(other)
    differing = 0
    for f in sorted(set(new) | set(old)):
        if f not in new or f not in old:
            verdict = "only in " + (out_dir if f in new else other)
        elif new[f] == old[f]:
            verdict = "identical"
        elif f.endswith(".csv"):
            verdict = csv_distance(os.path.join(out_dir, f),
                                   os.path.join(other, f))
        else:
            paths = os.path.join(out_dir, f), os.path.join(other, f)
            verdict = (f"differs, {number_change(*paths)}\n"
                       + line_changes(*paths))
        differing += verdict != "identical"
        print(f"{f}: {verdict}")
    return differing


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out_dir", help="directory for the outputs")
    ap.add_argument("--against", metavar="OTHER_DIR",
                    help="compare with an earlier run's directory")
    args = ap.parse_args(argv)
    run_all(args.out_dir)
    if args.against and compare(args.out_dir, args.against):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
