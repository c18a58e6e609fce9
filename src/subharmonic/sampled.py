"""Sampled-data (stroboscopic map) eigenvalue analysis.

The one-cycle map P of the switched converter, linearized about its
period-1 fixed point, decides local stability exactly: all eigenvalues
inside the unit disk means a stable period-1 orbit; a real eigenvalue
leaving through -1 is the period-doubling threshold the closed-form
conditions approximate.  Sweeps track the eigenvalues across a
parameter grid and locate each -1 crossing as a root of det(I + J),
which changes sign exactly where a real eigenvalue passes through -1.

The Jacobian behind every eigenvalue is exact: the saltation-matrix
derivative from ``CycleEngine.step_jacobian``, e^{AT} less a rank-1 term
since both stages share A.  The central-difference ``poincare_jacobian``
is kept as its independent cross-check.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ._roots import brentq
from .errors import (
    DegenerateOrbit,
    Divergence,
    DomainError,
    NoConvergence,
    NumericalFailure,
    UnsupportedStructure,
)
from .schemes import BuckParams, ControlScheme, sweep_point
from .simulation import CycleEngine, build_closed_loop, cycle_jacobian, steady_state
from .simulation import _propagator_stacks

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

    def most_negative_real(self) -> Optional[float]:
        """Smallest real part among (numerically) real eigenvalues: those
        with |Im z| at most 1e-6 (1 + |z|)."""
        reals = [z.real for z in self.eigenvalues
                 if abs(z.imag) <= 1e-6 * (1.0 + abs(z))]
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
    the (x, duty) pair from steady_state.  Every restep, perturbed ones
    included, must commute at an interior crossing; a saturated duty
    raises DegenerateOrbit since the map is not differentiable there.
    """
    x = np.asarray(orbit[0], dtype=float)
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
    """Exact cycle-map Jacobian at an orbit state; saturated duty is degenerate.

    Reuses the Jacobian steady_state left on the engine when x is the
    orbit it returned.
    """
    orbit_x, J = eng.orbit
    if orbit_x is x:
        return J
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

    The eigenvalues are those of the exact (saltation-matrix) Jacobian.
    ``steady_state`` rejects a saturated or grazing orbit as a candidate,
    so an operating point with no other raises NoConvergence.
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


_FAILURES = (
    DegenerateOrbit,
    NoConvergence,
    UnsupportedStructure,
    DomainError,
    Divergence,
    NumericalFailure,
)


@lru_cache(maxsize=None)
def _permutation_table(n: int) -> np.ndarray:
    """All permutations of range(n), one per row, in lexicographic order."""
    return np.array(list(permutations(range(n))), dtype=np.intp)


def linear_sum_assignment(cost: np.ndarray) -> Tuple[int, ...]:
    """Column for each row of the square cost, of least total, by brute force.

    Totals within 1e-9 relative of the least tie, and the first tied
    permutation in lexicographic order wins, so the two reals a conjugate
    pair splits into (equally far from it) keep their canonical order."""
    table = _permutation_table(len(cost))
    totals = cost[np.arange(len(cost)), table].sum(axis=1)
    return tuple(table[np.argmax(totals <= totals.min() * (1.0 + 1e-9))])


def _match(prev: Sequence[complex], eigs: Tuple[complex, ...]) -> Tuple[complex, ...]:
    """Reorder eigs to follow prev continuously (nearest-neighbor matching)."""
    cost = np.abs(np.subtract.outer(np.asarray(prev), np.asarray(eigs)))
    return tuple(eigs[j] for j in linear_sum_assignment(cost))


def pole_trajectory(
    params: BuckParams,
    scheme: ControlScheme,
    variable: str,
    values: Sequence[float],
    grid: int = 64,
) -> PoleTrajectory:
    """Track cycle-map eigenvalues along a parameter sweep.

    Each point solves its own period-1 orbit with ``steady_state`` and
    takes the exact Jacobian J there, so its eigenvalues are those
    ``poles`` gives at that value, whatever the sweep's order; they are
    matched point to point for continuity.  A real eigenvalue crosses -1
    exactly where det(I + J) changes sign, so each -1 crossing seen
    between two grid points is refined by Brent's method on that smooth
    scalar to a relative tolerance of 1e-10 in the swept parameter, and
    its eigenvalue is taken once, at the root.  The grid points' engines
    come from one batched build, each the bits its point builds alone.
    Failures at individual points are recorded and the sweep continues;
    a grid below 4 is rejected once, before any point runs.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1:
        raise DomainError("sweep values must form a 1-d grid")
    if variable == "D":
        raise DomainError("the switched loop sets its own duty; D cannot be swept")
    at = sweep_point(params, scheme, variable)
    pole_sets: List[Optional[PoleSet]] = []
    errors: List[Tuple[float, str]] = []

    # no swept variable changes the loop's dimension; a point whose loop or
    # stages fail is left out of the batch and fails alone in jacobian_at
    loops = {}
    for v in values:
        try:
            loops[v] = build_closed_loop(*at(v)[:2])
        except _FAILURES:
            pass
    engines = {v: CycleEngine(lp, grid, _stacks=st) for (v, lp), st in zip(
        loops.items(), _propagator_stacks(list(loops.values()), grid)) if st}

    # the refinement starts from the bracketing grid points and reports
    # the eigenvalue at a value it has already evaluated: both come from
    # this cache, not from fresh orbit solves
    @lru_cache(maxsize=None)
    def jacobian_at(value):
        eng = engines.get(value)
        if eng is None:
            eng = CycleEngine(build_closed_loop(*at(value)[:2]), grid)
        x, _ = steady_state(eng.loop.params, eng.loop.scheme, engine=eng)
        return _orbit_jacobian(eng, x)

    def det_i_plus_j(value):
        J = jacobian_at(value)
        return np.linalg.det(np.eye(len(J)) + J)

    prev: Optional[Tuple[complex, ...]] = None
    for v in values:
        try:
            eigs = _canonical(np.linalg.eigvals(jacobian_at(v)))
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
        try:
            root = brentq(det_i_plus_j, a, b, rtol=1e-10)
            eigs = np.linalg.eigvals(jacobian_at(root))
        except _FAILURES as exc:
            errors.append(
                (0.5 * (a + b), f"crossing refinement failed: {exc}")
            )
            continue
        eig = min(eigs, key=lambda z: abs(z + 1.0))
        direction = "exit" if sa > 0.0 else "enter"
        crossings.append(CrossingEvent(root, complex(eig), direction))

    return PoleTrajectory(
        variable=variable,
        values=values,
        pole_sets=tuple(pole_sets),
        crossings=tuple(crossings),
        errors=tuple(errors),
    )
