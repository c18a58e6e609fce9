"""Run configuration: flat key = value files and sweep specifications.

One setting per line, ``#`` starts a comment, values in SI units with
scientific notation allowed.  Unknown keys are rejected so a typo fails
loudly instead of silently running defaults.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from typing import Dict, Optional

import numpy as np

from .errors import ConfigError
from .schemes import SCHEMES, SWEEP_VARIABLES, BuckParams, ControlScheme

__all__ = ["SweepSpec", "RunConfig", "parse_sweep", "load_config"]


@dataclass(frozen=True)
class SweepSpec:
    variable: str
    start: float
    stop: float
    count: int
    log: bool = False

    def grid(self) -> np.ndarray:
        if self.log:
            if self.start <= 0.0 or self.stop <= 0.0:
                raise ConfigError("log sweeps need positive endpoints")
            return np.geomspace(self.start, self.stop, self.count)
        return np.linspace(self.start, self.stop, self.count)


def parse_sweep(text: str) -> SweepSpec:
    """Parse ``var:start:stop:n`` with an optional ``:log`` suffix."""
    parts = text.split(":")
    log = False
    if len(parts) == 5:
        if parts[4] != "log":
            raise ConfigError(f"bad sweep scale {parts[4]!r}; only 'log'")
        log = True
        parts = parts[:4]
    if len(parts) != 4:
        raise ConfigError(
            f"bad sweep {text!r}; expected var:start:stop:n[:log]"
        )
    var = parts[0].strip()
    if not var:
        raise ConfigError("sweep variable name is empty")
    if var not in SWEEP_VARIABLES:
        raise ConfigError(
            f"unknown sweep variable {var!r}; one of {', '.join(SWEEP_VARIABLES)}"
        )
    try:
        start, stop = float(parts[1]), float(parts[2])
        count = int(parts[3])
    except ValueError as exc:
        raise ConfigError(f"bad sweep {text!r}: {exc}") from None
    if count < 1:
        raise ConfigError("sweep needs at least one point")
    return SweepSpec(var, start, stop, count, log)


@dataclass(frozen=True)
class RunConfig:
    """Everything a command needs: plant, scheme, and run options."""

    params: BuckParams
    scheme: ControlScheme
    duty: Optional[float] = None
    sweep: Optional[SweepSpec] = None
    sweep_d: Optional[SweepSpec] = None
    sweep_p: Optional[SweepSpec] = None
    cycles: Optional[int] = None
    terms: int = 0
    out: Optional[str] = None
    solve_for: Optional[str] = None
    divergence_bound: Optional[float] = None  # None: simulate's default

    def __post_init__(self):
        if self.duty is not None and not 0.0 < self.duty < 1.0:
            raise ConfigError("duty must lie strictly inside (0, 1)")
        if self.cycles is not None and self.cycles < 2:
            raise ConfigError("cycles must be at least 2")
        if self.terms < 0:
            raise ConfigError("terms must be non-negative")
        if self.divergence_bound is not None and self.divergence_bound <= 0.0:
            raise ConfigError("divergence_bound must be positive")


def _parse_lines(text: str, source: str) -> Dict[str, str]:
    raw: Dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"{source}:{lineno}: expected key = value")
        key, value = body.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"{source}:{lineno}: empty key or value")
        if key in raw:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


def _get_float(raw: Dict[str, str], key: str) -> float:
    try:
        v = float(raw[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: not a number: {raw[key]!r}") from None
    if not math.isfinite(v):
        raise ConfigError(f"key {key!r}: must be finite")
    return v


def _get_int(raw: Dict[str, str], key: str) -> int:
    try:
        return int(raw[key])
    except ValueError:
        raise ConfigError(f"key {key!r}: not an integer: {raw[key]!r}") from None


def _keys(cls):
    return [f.name for f in fields(cls)]


def _build(cls, raw: Dict[str, str], what: str):
    """cls from the keys named like its fields; fields with no default
    are required."""
    vals = {k: _get_float(raw, k) for k in _keys(cls) if k in raw}
    missing = [f.name for f in fields(cls)
               if f.default is MISSING and f.name not in raw]
    if missing:
        raise ConfigError(f"{what} needs key(s): {', '.join(missing)}")
    try:
        return cls(**vals)
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from None


def build_config(raw: Dict[str, str]) -> RunConfig:
    """Validate a raw key/value mapping into a RunConfig."""
    if "scheme" not in raw:
        raise ConfigError("missing required key 'scheme'")
    name = raw["scheme"].lower()
    if name not in SCHEMES:
        raise ConfigError(
            f"unknown scheme {raw['scheme']!r}; "
            f"one of {', '.join(sorted(SCHEMES))}"
        )
    allowed = {*_keys(BuckParams), *_keys(SCHEMES[name]),
               *_keys(RunConfig)} - {"params"}
    unknown = sorted(set(raw) - allowed)
    if unknown:
        raise ConfigError(f"unknown key(s): {', '.join(unknown)}")
    params = _build(BuckParams, raw, "the converter")
    scheme = _build(SCHEMES[name], raw, f"scheme {name!r}")

    options = {k: raw[k] for k in ("out", "solve_for") if k in raw}
    options.update((k, parse_sweep(raw[k]))
                   for k in ("sweep", "sweep_d", "sweep_p") if k in raw)
    options.update((k, _get_float(raw, k))
                   for k in ("duty", "divergence_bound") if k in raw)
    options.update((k, _get_int(raw, k)) for k in ("cycles", "terms") if k in raw)
    return RunConfig(params, scheme, **options)


def load_config(path: str) -> RunConfig:
    """Read and validate a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return build_config(_parse_lines(text, path))
