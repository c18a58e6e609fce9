"""Command-line interface: critical-value solves, sweeps, and CSV output.

Commands: critical, lplot, contour, window, simulate, poles.  Every real
number is a ``_fmt`` cell, 17 significant digits, so CSV round-trips the
underlying 64-bit floats.  Tables are formatted a block of rows at a
time, and a value that repeats down a column by construction (contour's
D and p grids, the dense tail's ramp grid and drive) is formatted once,
as is each row of a simulation's repeating period.
Files are written atomically (temp + rename) with the mode the umask
gives a new file, and identical configs produce byte-identical output.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
import tempfile
from typing import Iterable, Optional, Sequence

import numpy as np

from .config import RunConfig, SweepSpec, load_config, parse_sweep
from .errors import ConfigError, Divergence, SubharmonicError
from .sampled import pole_trajectory
from .schemes import (
    acmc_window_estimate,
    closed_form_lvalue,
    contour_data,
    duty_ratio,
    grid_crossings,
    loop_gain_hf,
    lplot,
    solve_critical,
    sweep_point,
)
from .simulation import CycleEngine, build_closed_loop, simulate
from .transform import f_transform_series

__all__ = ["main"]


_CELL = "%.17g"


def _fmt(x) -> str:
    """17-significant-digit decimal, the round-trip form for doubles."""
    return _CELL % float(x)


def _text(values) -> np.ndarray:
    """The ``_fmt`` text of each value, as an object array: a column that
    repeats or tiles it shares the strings, not fixed-width copies."""
    return np.array([_fmt(v) for v in values], dtype=object)


_BLOCK_ROWS = 256


def _float_rows(*columns):
    """CSV text of columns (1-D arrays or 2-D blocks) of ``_fmt`` cells,
    one string per ``_BLOCK_ROWS`` rows.

    A column is floats, integers (written ``%d``, the ``_fmt`` text of a
    whole number below 1e17), or an object array of its cells' text
    (``_text``), which is written as it is.  Each block is formatted by
    one ``%`` operation, so a large table's floats and strings never
    exist all at once.
    """
    cells = ["%s" if c.dtype == object else "%d" if c.dtype.kind == "i"
             else _CELL
             for c in columns
             for _ in range(c.shape[1] if c.ndim == 2 else 1)]
    row = ",".join(cells) + "\n"
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        block = np.column_stack([c[start:start + _BLOCK_ROWS] for c in columns])
        yield row * len(block) % tuple(block.ravel().tolist())


def _repeating_rows(key, columns, first: int, period: int):
    """``_float_rows`` of key followed by columns, whose rows from first
    on repeat with the given period: that period's text of columns is
    formatted once and indexed as an object column for every later row.
    A repeat that does not recur before the last row is formatted as is.
    """
    n = len(key)
    if first + period >= n:
        first = n
    yield from _float_rows(key[:first], *(c[:first] for c in columns))
    unit = "".join(_float_rows(*(c[first:first + period] for c in columns)))
    cells = np.array(unit.splitlines(), dtype=object)
    yield from _float_rows(key[first:], cells[np.arange(n - first) % period])


def _line(cells: Sequence[str]) -> str:
    return ",".join(cells) + "\n"


def _write_csv(path: str, header: Sequence[str], lines: Iterable[str]):
    """Atomic CSV write: the header, then lines that end in LF, in a file
    with the mode that ``open(path, "w")`` would give it."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(prefix=".subharmonic_", dir=directory)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_line(header))
            fh.writelines(lines)
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv_str(text: str) -> str:
    """Sanitize a free-text CSV cell: no separators or line breaks."""
    return text.replace(",", ";").replace("\n", " ").replace("\r", " ")


def _resolve_duty(duty: Optional[float], params, scheme) -> float:
    return duty if duty is not None else duty_ratio(params, scheme)


def _series_lvalue(params, scheme, D: float, terms: int) -> float:
    tf = loop_gain_hf(params, scheme)
    return f_transform_series(tf, D, params.omega_s, K=terms)


def _sweep_or_fail(cfg: RunConfig) -> SweepSpec:
    if cfg.sweep is None:
        raise ConfigError("this command needs a sweep "
                          "(config key 'sweep' or flag --sweep)")
    return cfg.sweep


def _default_out(cfg: RunConfig, command: str) -> str:
    return cfg.out if cfg.out else f"{command}.csv"


# ---------------------------------------------------------------------------
# Commands.


def cmd_critical(cfg: RunConfig) -> int:
    D = _resolve_duty(cfg.duty, cfg.params, cfg.scheme)
    if cfg.terms > 0:
        lvalue = _series_lvalue(cfg.params, cfg.scheme, D, cfg.terms)
    else:
        lvalue = closed_form_lvalue(cfg.params, cfg.scheme, D)
    print(f"L = {_fmt(lvalue)}")
    print(f"duty = {_fmt(D)}")
    print(f"verdict = {'stable' if lvalue < 1.0 else 'unstable'}")
    value = float("nan")
    if cfg.solve_for:
        value = solve_critical(cfg.params, cfg.scheme, cfg.solve_for,
                               duty=cfg.duty).critical_value
        print(f"critical {cfg.solve_for} = {_fmt(value)}")
    out = _default_out(cfg, "critical")
    _write_csv(
        out,
        ("lvalue", "duty", "stable", "solve_for", "critical_value"),
        [_line((_fmt(lvalue), _fmt(D), "1" if lvalue < 1.0 else "0",
                _csv_str(cfg.solve_for or ""), _fmt(value)))],
    )
    return 0


def cmd_lplot(cfg: RunConfig) -> int:
    sweep = _sweep_or_fail(cfg)
    grid = sweep.grid()
    if cfg.terms > 0:
        at = sweep_point(cfg.params, cfg.scheme, sweep.variable)
        lvalues, errors = zip(*(_lvalue_series_at(cfg, at, v) for v in grid))
        lvalues = np.array(lvalues)
        if errors[0] is not None and not np.any(np.isfinite(lvalues)):
            raise errors[0]
        # linear interpolation is enough for a summary on a dense grid
        crossings = grid_crossings(grid, lvalues)
    else:
        curve = lplot(cfg.params, cfg.scheme, sweep.variable, grid,
                      duty=cfg.duty)
        lvalues = curve.lvalues
        crossings = curve.crossings
    out = _default_out(cfg, "lplot")
    _write_csv(out, (sweep.variable, "lvalue"), _float_rows(grid, lvalues))
    finite = np.isfinite(lvalues)
    print(f"lplot: {len(grid)} points over {sweep.variable}, wrote {out}")
    if np.any(finite):
        imax = int(np.nanargmax(np.where(finite, lvalues, -np.inf)))
        print(f"max L = {_fmt(lvalues[imax])} "
              f"at {sweep.variable} = {_fmt(grid[imax])}")
    for c in crossings:
        print(f"crossing at {sweep.variable} = {_fmt(c)}")
    if not crossings:
        print("no L = 1 crossings")
    return 0


def _lvalue_series_at(cfg: RunConfig, at, value: float):
    """(L, None) by the series at one sweep value, or (nan, error) where
    the series is not defined there."""
    params, scheme, D = at(float(value))
    D = _resolve_duty(cfg.duty if D is None else D, params, scheme)
    try:
        return _series_lvalue(params, scheme, D, cfg.terms), None
    except SubharmonicError as exc:
        return float("nan"), exc


def cmd_contour(cfg: RunConfig) -> int:
    sweep_d = cfg.sweep_d or SweepSpec("D", 0.05, 0.95, 46)
    sweep_p = cfg.sweep_p or SweepSpec("p", 0.05, 2.0, 40)
    D_grid = sweep_d.grid()
    p_grid = sweep_p.grid()
    surface = contour_data(D_grid, p_grid)
    out = _default_out(cfg, "contour")

    _write_csv(out, ("D", "p", "gap"),
               _float_rows(np.repeat(_text(D_grid), len(p_grid)),
                           np.tile(_text(p_grid), len(D_grid)),
                           surface.ravel()))
    imax = np.unravel_index(int(np.argmax(surface)), surface.shape)
    print(f"contour: {surface.size} points, wrote {out}")
    print(f"max gap = {_fmt(surface[imax])} at D = {_fmt(D_grid[imax[0]])}, "
          f"p = {_fmt(p_grid[imax[1]])}")
    return 0


def cmd_window(cfg: RunConfig) -> int:
    if not hasattr(cfg.scheme, "gain"):
        raise ConfigError("window needs an acmc or vmc3 scheme")
    K = cfg.scheme.gain(cfg.params)
    D = _resolve_duty(cfg.duty, cfg.params, cfg.scheme)
    est_lo, est_hi = acmc_window_estimate(K, D)
    sweep_p = cfg.sweep_p or SweepSpec("p", 0.02, 0.98, 481)
    curve = lplot(cfg.params, cfg.scheme, "p", sweep_p.grid(), duty=D)
    closed = list(curve.crossings)
    closed_lo = closed[0] if len(closed) >= 1 else float("nan")
    closed_hi = closed[1] if len(closed) >= 2 else float("nan")
    out = _default_out(cfg, "window")
    _write_csv(
        out,
        ("K", "D", "est_lo", "est_hi", "closed_lo", "closed_hi"),
        [_line([_fmt(x) for x in (K, D, est_lo, est_hi, closed_lo, closed_hi)])],
    )
    print(f"window: wrote {out}")
    print(f"K = {_fmt(K)}, duty = {_fmt(D)}")
    print(f"estimated window: [{_fmt(est_lo)}, {_fmt(est_hi)}]")
    print(f"closed-form window: [{_fmt(closed_lo)}, {_fmt(closed_hi)}]")
    return 0


def cmd_simulate(cfg: RunConfig) -> int:
    cycles = cfg.cycles if cfg.cycles is not None else 576
    out = _default_out(cfg, "simulate")
    root, ext = os.path.splitext(out)
    dense_out = f"{root}_dense{ext or '.csv'}"
    loop = build_closed_loop(cfg.params, cfg.scheme)
    eng = CycleEngine(loop)

    def write_strobe(trace):
        header = ("cycle", "duty") + trace.labels
        n = len(trace.strobe)
        j, period = trace.repeat or (n, n)
        duties = np.concatenate(([np.nan], trace.duties))
        # row r > j + period repeats row r - period
        _write_csv(out, header, _repeating_rows(
            np.arange(n), (duties, trace.strobe), j + 1, period))

    try:
        trace = simulate(
            cfg.params,
            cfg.scheme,
            cycles=cycles,
            dense=True,
            divergence_bound=cfg.divergence_bound,
            engine=eng,
        )
    except Divergence as exc:
        if exc.trace is not None:
            write_strobe(exc.trace)
            print(f"simulate: wrote partial strobe trace {out}")
        print("diverged")
        raise
    write_strobe(trace)
    d = trace.dense
    header = ("t",) + trace.labels + ("y", "h", "v_d")
    # dense cycles repeat with the strobe's period; each samples the same
    # ramp grid, and the drive is v_s while the switch is on, else 0
    h = np.tile(_text(eng.h_grid[:eng.grid]), len(d.h) // eng.grid)
    v_d = _text((0.0, loop.params.v_s))[(d.v_d != 0.0).astype(int)]
    period = eng.grid * trace.repeat[1] if trace.repeat else len(d.t)
    _write_csv(dense_out, header,
               _repeating_rows(d.t, (d.x, d.y, h, v_d), 0, period))
    vo = d.x @ loop.vo_row
    print(f"simulate: {cycles} cycles, wrote {out} and {dense_out}")
    print(f"output ripple (last {trace.window} cycles): "
          f"{_fmt(vo.max() - vo.min())}")
    print(trace.classification)
    return 0


def cmd_poles(cfg: RunConfig) -> int:
    sweep = _sweep_or_fail(cfg)
    grid = sweep.grid()
    traj = pole_trajectory(cfg.params, cfg.scheme, sweep.variable, grid)
    dim = build_closed_loop(cfg.params, cfg.scheme).dim
    err_by_value = {}
    for v, msg in traj.errors:
        err_by_value.setdefault(v, msg)
    out = _default_out(cfg, "poles")
    header = [sweep.variable]
    for i in range(1, dim + 1):
        header += [f"re_{i}", f"im_{i}"]
    header.append("error")

    def rows():
        for k, v in enumerate(grid):
            ps = traj.pole_sets[k]
            row = [_fmt(v)]
            if ps is None:
                row += ["nan", "nan"] * dim
                row.append(_csv_str(err_by_value.get(float(v), "failed")))
            else:
                for z in ps.eigenvalues:
                    row += [_fmt(z.real), _fmt(z.imag)]
                row.append("")
            yield _line(row)

    _write_csv(out, header, rows())
    print(f"poles: {len(grid)} points over {sweep.variable}, wrote {out}")
    for c in traj.crossings:
        print(f"crossing: {c.direction} at {sweep.variable} = {_fmt(c.value)} "
              f"(eigenvalue {_fmt(c.eigenvalue.real)})")
    # errors off the grid come from refining a crossing, not from a row
    on_grid = set(grid.tolist())
    off_grid = [(v, msg) for v, msg in traj.errors if v not in on_grid]
    for v, msg in off_grid:
        print(f"error at {sweep.variable} = {_fmt(v)}: {msg}")
    if not traj.crossings and not off_grid:
        print("no -1 crossings")
    n_fail = sum(1 for ps in traj.pole_sets if ps is None)
    if n_fail:
        print(f"{n_fail} point(s) failed; see the error column")
    return 0


# ---------------------------------------------------------------------------
# Entry point.


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="subharmonic",
        description="Subharmonic-oscillation analysis for PWM DC-DC converters",
    )
    flags = {"out": dict(help="output CSV path"),
             "sweep": dict(help="var:start:stop:n[:log]"),
             "solve_for": dict(help="parameter to solve critically"),
             "cycles": dict(type=int, help="simulation cycle count"),
             "terms": dict(type=int, help="series term count (0 = closed forms)")}
    sub = parser.add_subparsers(dest="command", required=True)
    for name, takes, helptext in (
        ("critical", "out solve_for terms",
         "closed-form L value and critical-parameter solve"),
        ("lplot", "out sweep terms",
         "L versus a swept parameter, CSV + crossing summary"),
        ("contour", "out", "alpha0 - alpha surface over (D, p)"),
        ("window", "out", "instability-window estimate for pole-bearing schemes"),
        ("simulate", "out cycles",
         "exact switched simulation, CSV traces + classification"),
        ("poles", "out sweep", "sampled-data pole trajectory along a sweep"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", required=True, help="path to key=value config")
        for flag in takes.split():
            p.add_argument("--" + flag.replace("_", "-"), dest=flag, **flags[flag])
    return parser


_COMMANDS = {
    "critical": cmd_critical,
    "lplot": cmd_lplot,
    "contour": cmd_contour,
    "window": cmd_window,
    "simulate": cmd_simulate,
    "poles": cmd_poles,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        # flags override config keys and pass the same RunConfig checks
        flags = {k: v for k, v in vars(args).items()
                 if k not in ("command", "config") and v not in (None, "")}
        if "sweep" in flags:
            flags["sweep"] = parse_sweep(flags["sweep"])
        cfg = dataclasses.replace(cfg, **flags)
        return _COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Divergence as exc:
        print(f"error: divergence: {exc}", file=sys.stderr)
        return 4
    except SubharmonicError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
