"""Sampled-data (stroboscopic map) eigenvalue analysis.

The one-cycle map P of the switched converter, linearized about its
period-1 fixed point, decides local stability exactly: all eigenvalues
inside the unit disk means a stable period-1 orbit; a real eigenvalue
leaving through -1 is the period-doubling threshold the closed-form
conditions approximate.  Sweeps track the eigenvalues across a
parameter grid and locate the -1 crossings by bisection.

The Jacobian behind every eigenvalue is exact: the saltation-matrix
derivative from ``CycleEngine.step_jacobian``.  The central-difference
``poincare_jacobian`` is kept as its independent cross-check.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linear_sum_assignment

from .errors import (
    DegenerateOrbit,
    Divergence,
    DomainError,
    NoConvergence,
    NumericalFailure,
    UnsupportedStructure,
)
from .schemes import ACMC, VMC3, BuckParams, ControlScheme
from .simulation import CycleEngine, build_closed_loop, cycle_jacobian, steady_state

__all__ = [
    "PoleSet",
    "CrossingEvent",
    "PoleTrajectory",
    "poincare_jacobian",
    "poles",
    "pole_trajectory",
]


def _canonical(eigs: np.ndarray) -> Tuple[complex, ...]:
    order = sorted(
        range(len(eigs)),
        key=lambda i: (-abs(eigs[i]), -eigs[i].real, -eigs[i].imag),
    )
    return tuple(complex(eigs[i]) for i in order)


@dataclass(frozen=True)
class PoleSet:
    """Eigenvalues of the cycle-map Jacobian at one operating point."""

    eigenvalues: Tuple[complex, ...]

    @property
    def spectral_radius(self) -> float:
        return max(abs(z) for z in self.eigenvalues)

    def most_negative_real(self, imag_tol: float = 1e-6) -> Optional[float]:
        """Smallest real part among (numerically) real eigenvalues."""
        reals = [
            z.real
            for z in self.eigenvalues
            if abs(z.imag) <= imag_tol * (1.0 + abs(z))
        ]
        return min(reals) if reals else None


def poincare_jacobian(
    params: BuckParams,
    scheme: ControlScheme,
    orbit,
    grid: int = 64,
    rel: float = 1e-6,
    engine: Optional[CycleEngine] = None,
) -> np.ndarray:
    """Central-difference Jacobian of the cycle map at a period-1 orbit.

    The cross-check of the exact Jacobian that ``poles`` uses.  orbit is
    the (x, duty) pair from steady_state (a bare state vector is
    accepted).  Every restep, perturbed ones included, must commute at an
    interior crossing; a saturated duty raises DegenerateOrbit since the
    map is not differentiable there.
    """
    if isinstance(orbit, tuple):
        x = np.asarray(orbit[0], dtype=float)
    else:
        x = np.asarray(orbit, dtype=float)
    eng = engine if engine is not None else CycleEngine(
        build_closed_loop(params, scheme), grid
    )
    if x.shape != (eng.n,):
        raise DomainError(f"orbit state must have dimension {eng.n}")
    _, duty = eng.step(x)
    if not 0.0 < duty < 1.0:
        raise DegenerateOrbit(f"orbit duty {duty} is saturated")
    return cycle_jacobian(eng, x, rel, interior=True)


def _orbit_jacobian(eng: CycleEngine, x: np.ndarray) -> np.ndarray:
    """Exact cycle-map Jacobian at an orbit state; saturated duty is degenerate."""
    _, duty, J = eng.step_jacobian(x)
    if J is None:
        raise DegenerateOrbit(f"orbit duty {duty} is saturated")
    return J


def poles(
    params: BuckParams,
    scheme: ControlScheme,
    grid: int = 64,
    x_init="auto",
) -> PoleSet:
    """Cycle-map eigenvalues at the period-1 orbit of an operating point.

    The eigenvalues are those of the exact (saltation-matrix) Jacobian;
    a saturated orbit or a crossing that grazes the ramp raises
    DegenerateOrbit.
    """
    eng = CycleEngine(build_closed_loop(params, scheme), grid)
    x, _ = steady_state(params, scheme, x_init=x_init, engine=eng)
    return PoleSet(_canonical(np.linalg.eigvals(_orbit_jacobian(eng, x))))


@dataclass(frozen=True)
class CrossingEvent:
    """A real eigenvalue passing through -1 during a sweep.

    direction is "exit" when the eigenvalue leaves the unit disk as the
    parameter increases (onset of period doubling), "enter" when it
    comes back inside.
    """

    value: float
    eigenvalue: complex
    direction: str


@dataclass(frozen=True)
class PoleTrajectory:
    variable: str
    values: np.ndarray
    pole_sets: Tuple[Optional[PoleSet], ...]
    crossings: Tuple[CrossingEvent, ...]
    errors: Tuple[Tuple[float, str], ...]

    def tracks(self) -> np.ndarray:
        """Matched eigenvalue array (n_points, dim); nan where a point failed."""
        dim = 0
        for ps in self.pole_sets:
            if ps is not None:
                dim = len(ps.eigenvalues)
                break
        out = np.full((len(self.values), dim), np.nan + 0j, dtype=complex)
        for k, ps in enumerate(self.pole_sets):
            if ps is not None:
                out[k, :] = ps.eigenvalues
        return out


_SWEEPABLE = ("k_p", "v_s", "omega_p", "p", "K_c", "v_r")

_FAILURES = (
    DegenerateOrbit,
    NoConvergence,
    UnsupportedStructure,
    DomainError,
    Divergence,
    NumericalFailure,
)


def _apply_sweep(
    params: BuckParams, scheme: ControlScheme, variable: str, value: float
):
    if variable == "v_s":
        return dataclasses.replace(params, v_s=value), scheme
    if variable == "v_r":
        return dataclasses.replace(params, v_r=value), scheme
    if variable == "k_p":
        if not hasattr(scheme, "k_p"):
            raise DomainError(f"{type(scheme).__name__} has no gain k_p")
        return params, dataclasses.replace(scheme, k_p=value)
    if variable == "K_c":
        if not hasattr(scheme, "K_c"):
            raise DomainError(f"{type(scheme).__name__} has no gain K_c")
        return params, dataclasses.replace(scheme, K_c=value)
    if variable in ("omega_p", "p"):
        if not isinstance(scheme, (ACMC, VMC3)):
            raise DomainError("omega_p sweeps need a pole-bearing compensator")
        wp = value * params.omega_s if variable == "p" else value
        return params, dataclasses.replace(scheme, omega_p=wp)
    raise DomainError(f"unknown sweep variable {variable!r}; "
                      f"one of {_SWEEPABLE}")


def _match(prev: Sequence[complex], eigs: Tuple[complex, ...]) -> Tuple[complex, ...]:
    """Reorder eigs to follow prev continuously (nearest-neighbor matching)."""
    n = len(eigs)
    cost = np.empty((n, n))
    for i, p in enumerate(prev):
        for j, e in enumerate(eigs):
            cost[i, j] = abs(p - e)
    _, cols = linear_sum_assignment(cost)
    return tuple(eigs[j] for j in cols)


def pole_trajectory(
    params: BuckParams,
    scheme: ControlScheme,
    variable: str,
    values: Sequence[float],
    grid: int = 64,
) -> PoleTrajectory:
    """Track cycle-map eigenvalues along a parameter sweep.

    Eigenvalues, of the exact Jacobian at every sweep point and every
    bisection midpoint, are matched point to point for continuity; each
    -1 crossing of a real eigenvalue is refined by bisection to a
    relative tolerance of 1e-6 in the swept parameter.  Failures at
    individual points are recorded and the sweep continues.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise DomainError("sweep values must form a 1-d grid")
    pole_sets: List[Optional[PoleSet]] = []
    errors: List[Tuple[float, str]] = []
    warm = {}

    def eigs_at(value, warm_key=None):
        p, s = _apply_sweep(params, scheme, variable, value)
        eng = CycleEngine(build_closed_loop(p, s), grid)
        x0 = warm.get(warm_key, "auto")
        if x0 is None:
            x0 = "auto"
        cold = isinstance(x0, str)
        try:
            x, _ = steady_state(
                p, s, x_init=x0, warmup=128 if cold else 8, engine=eng
            )
        except _FAILURES:
            if not cold:
                x, _ = steady_state(p, s, engine=eng)  # retry cold
            else:
                raise
        if warm_key is not None:
            warm[warm_key] = x.copy()
        return np.linalg.eigvals(_orbit_jacobian(eng, x))

    prev: Optional[Tuple[complex, ...]] = None
    for v in values:
        try:
            eigs = _canonical(eigs_at(v, warm_key="sweep"))
        except _FAILURES as exc:
            errors.append((float(v), f"{type(exc).__name__}: {exc}"))
            pole_sets.append(None)
            continue
        matched = _match(prev, eigs) if prev is not None else eigs
        pole_sets.append(PoleSet(matched))
        prev = matched

    def s_of(ps: Optional[PoleSet]) -> Optional[float]:
        if ps is None:
            return None
        r = ps.most_negative_real()
        return None if r is None else r + 1.0

    crossings: List[CrossingEvent] = []
    for k in range(len(values) - 1):
        sa, sb = s_of(pole_sets[k]), s_of(pole_sets[k + 1])
        if sa is None or sb is None or sa == 0.0 or sa * sb > 0.0:
            continue
        a, b = float(values[k]), float(values[k + 1])
        warm["bisect"] = None
        ga = sa
        eig_mid = pole_sets[k + 1].most_negative_real()
        try:
            while abs(b - a) > 1e-6 * max(abs(a), abs(b), 1e-300):
                mid = 0.5 * (a + b)
                eigs = _canonical(eigs_at(mid, warm_key="bisect"))
                reals = [z.real for z in eigs
                         if abs(z.imag) <= 1e-6 * (1.0 + abs(z))]
                if not reals:
                    raise NumericalFailure(
                        "real eigenvalue lost while refining a -1 crossing"
                    )
                sm = min(reals) + 1.0
                eig_mid = min(reals)
                if sm == 0.0:
                    a = b = mid
                elif (sm > 0.0) == (ga > 0.0):
                    a, ga = mid, sm
                else:
                    b = mid
        except _FAILURES as exc:
            errors.append(
                (0.5 * (a + b), f"crossing refinement failed: {exc}")
            )
            continue
        direction = "exit" if sa > 0.0 else "enter"
        crossings.append(
            CrossingEvent(0.5 * (a + b), complex(eig_mid), direction)
        )

    return PoleTrajectory(
        variable=variable,
        values=values,
        pole_sets=tuple(pole_sets),
        crossings=tuple(crossings),
        errors=tuple(errors),
    )
