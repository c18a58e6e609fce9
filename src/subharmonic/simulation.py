"""Exact time-domain simulation of the closed-loop switched converter.

Each switching cycle has two affine stages (switch on, switch off) under
trailing-edge PWM: the cycle starts in the on stage and commutes at the
first crossing of the compensator output with the ramp.  Within a stage
the dynamics ẋ = Ax + b is integrated exactly with matrix exponentials;
only the crossing localization is iterative, refined well below 1e-13 of
a period.  The stroboscopic sequence x(nT) is the ground truth used for
subharmonic (period-doubling) detection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import expm
from scipy.optimize import brentq

from .errors import (
    DegenerateOrbit,
    Divergence,
    DomainError,
    MissingParameter,
    NoConvergence,
    NumericalFailure,
    UnsupportedStructure,
)
from .schemes import (
    ACMC,
    CFPVR,
    CMC,
    PVMC,
    RLP,
    VMC3,
    BuckParams,
    ControlScheme,
    duty_ratio,
)

__all__ = [
    "ClosedLoop",
    "CycleEngine",
    "SimTrace",
    "DenseTrace",
    "build_closed_loop",
    "step_cycle",
    "simulate",
    "steady_state",
    "cycle_jacobian",
    "ripple_check",
]


# ---------------------------------------------------------------------------
# Closed-loop state-space assembly.


def _modal_parts(scale, zeros, poles, integrators):
    """Partial-fraction data of scale·Π(1+s/z)/(s^m·Π(1+s/p)).

    Returns (den_roots, residues, feedthrough).  Requires simple real
    denominator roots; the modal states ż_k = q_k z_k + u with output
    Σ r_k z_k + d∞ u reproduce the transfer function exactly.
    """
    den_roots = [0.0] * integrators + [-float(p) for p in poles]
    num_roots = [-float(z) for z in zeros]
    if len(num_roots) > len(den_roots):
        raise DomainError("compensator must be proper")
    lead = float(scale)
    for p in poles:
        lead *= float(p)
    for z in zeros:
        lead /= float(z)
    span = max(1.0, max(abs(q) for q in den_roots))
    qs = sorted(den_roots)
    for a, b in zip(qs, qs[1:]):
        if abs(b - a) <= 1e-9 * span:
            raise UnsupportedStructure(
                "repeated or near-coincident compensator poles are not "
                "supported by the modal realization"
            )
    residues = []
    for k, q in enumerate(den_roots):
        num = lead
        for z in num_roots:
            num *= q - z
        den = 1.0
        for l, q2 in enumerate(den_roots):
            if l != k:
                den *= q - q2
        residues.append(num / den)
    rmax = max(abs(r) for r in residues)
    if rmax == 0.0 or min(abs(r) for r in residues) <= 1e-12 * rmax:
        raise UnsupportedStructure(
            "compensator has an unobservable mode (pole-zero cancellation)"
        )
    dinf = lead if len(num_roots) == len(den_roots) else 0.0
    return den_roots, residues, dinf


@dataclass(frozen=True)
class ClosedLoop:
    """Affine closed-loop model: ẋ = Ax + b (b per stage), y and v_o maps."""

    params: BuckParams
    scheme: ControlScheme
    A: np.ndarray
    b_on: np.ndarray
    b_off: np.ndarray
    y_row: np.ndarray
    y_const: float
    vo_row: np.ndarray
    labels: Tuple[str, ...]

    @property
    def dim(self) -> int:
        return self.A.shape[0]


def build_closed_loop(params: BuckParams, scheme: ControlScheme) -> ClosedLoop:
    """Assemble the per-stage affine systems and output maps for a scheme.

    Stage 1 drives the plant with v_d = v_s, stage 2 with v_d = 0; the
    wiring of the compensator input and of y follows the scheme topology.
    Compensators with internal dynamics are realized in modal (diagonal)
    coordinates, one state per real pole.
    """
    if isinstance(scheme, RLP):
        # single-state RL plant
        A = np.array([[-params.R / params.L]])
        b_on = np.array([params.v_s / params.L])
        b_off = np.zeros(1)
        vo_row = np.array([params.R])
        y_row = -scheme.k_p * vo_row
        y_const = scheme.k_p * params.v_r
        return ClosedLoop(params, scheme, A, b_on, b_off, y_row, y_const,
                          vo_row, ("i_L",))

    C = params.require_C()
    rho = params.rho
    A_p = np.array(
        [
            [-rho * params.R_c / params.L, -rho / params.L],
            [rho / C, -rho / (params.R * C)],
        ]
    )
    b_on_p = np.array([params.v_s / params.L, 0.0])
    vo_p = np.array([rho * params.R_c, rho])
    labels = ["i_L", "v_C"]

    if isinstance(scheme, CMC):
        # v_r doubles as the current command, unit sense gain
        A, b_on, b_off = A_p, b_on_p, np.zeros(2)
        y_row = np.array([-1.0, 0.0])
        y_const = params.v_r
        return ClosedLoop(params, scheme, A, b_on, b_off, y_row, y_const,
                          vo_p, tuple(labels))

    if isinstance(scheme, (PVMC, CFPVR)):
        A, b_on, b_off = A_p, b_on_p, np.zeros(2)
        y_row = -scheme.k_p * vo_p
        y_const = (scheme.k_p if isinstance(scheme, PVMC) else 1.0) * params.v_r
        return ClosedLoop(params, scheme, A, b_on, b_off, y_row, y_const,
                          vo_p, tuple(labels))

    if isinstance(scheme, ACMC):
        sense = np.array([scheme.R_s, 0.0])
        qs, residues, dinf = _modal_parts(
            scheme.K_c, [scheme.z_c], [scheme.omega_p], 1
        )
    elif isinstance(scheme, VMC3):
        sense = vo_p
        sqlc = math.sqrt(params.L * C)
        zeros = [scheme.kappa_z / sqlc, 1.0 / sqlc]
        poles = [scheme.omega_p]
        if params.R_c > 0.0:
            poles.append(1.0 / (params.R_c * C))
        qs, residues, dinf = _modal_parts(scheme.K_c, zeros, poles, 1)
    else:
        raise MissingParameter(f"unknown scheme {scheme!r}")

    nc = len(qs)
    n = 2 + nc
    A = np.zeros((n, n))
    A[:2, :2] = A_p
    # balance the modal coordinates: split each residue evenly between
    # the input and output weights so no single matrix entry carries the
    # whole compensator gain and finite-difference perturbations of the
    # modal states have comparable, moderate effect on y
    gains = [math.sqrt(abs(r)) for r in residues]
    signs = [math.copysign(1.0, r) for r in residues]
    for k, q in enumerate(qs):
        A[2 + k, 2 + k] = q
        A[2 + k, :2] = -gains[k] * sense
    b_on = np.zeros(n)
    b_on[:2] = b_on_p
    b_on[2:] = np.asarray(gains) * params.v_r
    b_off = b_on.copy()
    b_off[0] = 0.0
    y_row = np.zeros(n)
    y_row[2:] = np.asarray(signs) * np.asarray(gains)
    y_row[:2] = -dinf * sense
    y_const = dinf * params.v_r
    vo_row = np.zeros(n)
    vo_row[:2] = vo_p
    labels += [f"z{k + 1}" for k in range(nc)]
    return ClosedLoop(params, scheme, A, b_on, b_off, y_row, y_const,
                      vo_row, tuple(labels))


# ---------------------------------------------------------------------------
# Exact cycle stepping.


def _taylor_terms(M: np.ndarray) -> List[np.ndarray]:
    """Powers M^j / j! with the tail below 1e-22; M must be pre-scaled."""
    theta = np.linalg.norm(M, 1)
    if theta > 8.0:
        raise NumericalFailure(
            "stage dynamics too stiff for the per-interval series; "
            "increase the sampling grid"
        )
    terms = [np.eye(M.shape[0])]
    bound = 1.0
    for j in range(1, 61):
        terms.append(terms[-1] @ M / j)
        bound *= theta / j
        if bound < 1e-22 and j >= 4:
            break
    return terms


class CycleEngine:
    """Precomputed exact propagators for one switching period.

    grid subdivides the period for crossing detection (and dense output);
    every propagation step is a matrix exponential, so grid only affects
    which sign change is seen first, not the accuracy of the states.
    """

    def __init__(self, loop: ClosedLoop, grid: int = 64):
        if grid < 4:
            raise DomainError("grid must be at least 4")
        self.loop = loop
        self.grid = grid
        self.T = loop.params.T
        self.dt = self.T / grid
        n = loop.dim
        self.n = n
        M_on = np.zeros((n + 1, n + 1))
        M_on[:n, :n] = loop.A
        M_on[:n, n] = loop.b_on
        M_off = M_on.copy()
        M_off[:n, n] = loop.b_off

        self.P_on = _taylor_terms(M_on * self.dt)
        self.P_off = _taylor_terms(M_off * self.dt)
        # the same series flattened into rows, so step_jacobian sums the
        # propagator over any fraction of a cell in one product
        self._P_on_rows = np.array(self.P_on).reshape(len(self.P_on), -1)
        self._P_off_rows = np.array(self.P_off).reshape(len(self.P_off), -1)
        E_on = expm(M_on * self.dt)
        E_off = expm(M_off * self.dt)
        self.Phi_on = [np.eye(n + 1)]
        self.Phi_off = [np.eye(n + 1)]
        for _ in range(grid):
            self.Phi_on.append(E_on @ self.Phi_on[-1])
            self.Phi_off.append(E_off @ self.Phi_off[-1])

        self.y_aug = np.append(loop.y_row, loop.y_const)
        # y along the on-stage grid: row i gives y(t_i) as a form on x_aug(0)
        self.yPhi_on = np.array([self.y_aug @ P for P in self.Phi_on])
        self.yP_on = np.array([self.y_aug @ P for P in self.P_on])
        p = loop.params
        self.h_grid = p.V_l + p.V_m * np.arange(grid + 1) / grid
        self.h_slope_dt = p.V_m / grid
        # bisection fallback tolerance in subinterval units: 1e-13 T
        self.u_tol = max(1e-13 * self.T / self.dt, 4e-16)

    def _crossing_in_cell(self, i: int, x_aug: np.ndarray) -> Tuple[float, np.ndarray]:
        """Refine the crossing inside (t_{i-1}, t_i]; returns (u*, x(t_{i-1}))."""
        x_base = self.Phi_on[i - 1] @ x_aug
        coeffs = self.yP_on @ x_base
        h0 = self.h_grid[i - 1]

        def g(u):
            acc = 0.0
            for c in coeffs[::-1]:
                acc = acc * u + c
            return acc - h0 - self.h_slope_dt * u

        g0, g1 = g(0.0), g(1.0)
        if not (g0 > 0.0 >= g1):
            raise NumericalFailure("crossing bracket lost during refinement")
        u = brentq(g, 0.0, 1.0, xtol=self.u_tol, rtol=8.9e-16)
        return u, x_base

    def _switch(self, x_aug: np.ndarray):
        """Locate the commutation of the cycle that starts at x_aug.

        Returns (duty, i, u, x_base): the switch turns off at fraction u
        of cell i, and x_base = x(t_{i-1}).  A saturated cycle gives
        i = None with duty 0.0 (the switch never turns on) or 1.0 (it
        never turns off).
        """
        g = self.yPhi_on @ x_aug - self.h_grid
        if g[0] <= 0.0:
            return 0.0, None, None, None
        below = np.nonzero(g <= 0.0)[0]
        if below.size == 0:
            return 1.0, None, None, None
        i = int(below[0])
        u, x_base = self._crossing_in_cell(i, x_aug)
        return (i - 1 + u) / self.grid, i, u, x_base

    def _cross(self, i: int, u: float, x_base: np.ndarray) -> np.ndarray:
        """x(t_i): the state at the end of cell i, which switches off at u."""
        # on-stage partial step to the crossing
        x_star = np.zeros_like(x_base)
        for P in self.P_on[::-1]:
            x_star = x_star * u + P @ x_base
        # off-stage remainder of the cell
        x_cell = np.zeros_like(x_base)
        w = 1.0 - u
        for P in self.P_off[::-1]:
            x_cell = x_cell * w + P @ x_star
        return x_cell

    def step(self, x: np.ndarray) -> Tuple[np.ndarray, float]:
        """One exact switching period: returns (x(T), duty)."""
        x_aug = np.append(x, 1.0)
        duty, i, u, x_base = self._switch(x_aug)
        if i is None:
            out = (self.Phi_on if duty else self.Phi_off)[self.grid] @ x_aug
        else:
            x_cell = self._cross(i, u, x_base)
            out = self.Phi_off[self.grid - i] @ x_cell
        return out[:-1] / out[-1], duty

    def step_jacobian(
        self, x: np.ndarray
    ) -> Tuple[np.ndarray, float, Optional[np.ndarray]]:
        """One period plus the exact Jacobian of the cycle map at x.

        Returns (x(T), duty, J): duty is the one ``step`` gives and x(T)
        agrees with it to rounding.  J is the saltation-matrix derivative

            J = Phi_off(T - t*) [Phi_on(t*) - outer(jump, c Phi_on(t*)) / rate]

        built on the crossing the step itself finds: c is the output row
        of y, m_a the ramp slope, jump = dt (b_on - b_off), and
        rate = dt (c (A x* + b_on) - m_a) is the rate per cell at which
        y - h falls through zero at t*.  J is None for a saturated cycle
        (duty 0 or 1): nothing switches, so the map is affine there and
        says nothing about the switching orbit.  Raises DegenerateOrbit
        when the crossing grazes the ramp (rate = 0), where the map has
        no derivative.
        """
        x_aug = np.append(x, 1.0)
        duty, i, u, x_base = self._switch(x_aug)
        if i is None:
            out = (self.Phi_on if duty else self.Phi_off)[self.grid] @ x_aug
            return out[:-1] / out[-1], duty, None
        # the stage propagators over the fractions u and 1 - u of cell i
        m = self.n + 1
        S_on = (u ** np.arange(len(self.P_on)) @ self._P_on_rows).reshape(m, m)
        S_off = ((1.0 - u) ** np.arange(len(self.P_off))
                 @ self._P_off_rows).reshape(m, m)
        x_star = S_on @ x_base
        Phi_end = self.Phi_off[self.grid - i] @ S_off
        out = Phi_end @ x_star
        loop, n = self.loop, self.n
        f_on = loop.A @ x_star[:n] + loop.b_on
        rate = self.dt * (loop.y_row @ f_on) - self.h_slope_dt
        scale = self.dt * (np.abs(loop.y_row) @ np.abs(f_on)) + abs(self.h_slope_dt)
        if not rate < -1e-12 * scale:
            raise DegenerateOrbit(
                "the crossing grazes the ramp; the cycle map has no "
                "derivative there"
            )
        Phi_star = (S_on @ self.Phi_on[i - 1])[:n, :n]
        jump = self.dt * (loop.b_on - loop.b_off)
        saltated = Phi_star - np.outer(jump / rate, loop.y_row @ Phi_star)
        J = Phi_end[:n, :n] @ saltated
        return out[:-1] / out[-1], duty, J

    def step_dense(self, x: np.ndarray):
        """One period with grid-resolution sampling of (x, y, h, v_d).

        Returns (x_T, duty, xs, ys, vds) where xs holds x(t_j) for
        j = 0..grid-1 (the cycle's half-open sample set).
        """
        x_aug = np.append(x, 1.0)
        duty, i, u, x_base = self._switch(x_aug)
        xs = np.empty((self.grid, self.n))
        vds = np.empty(self.grid)
        v_s = self.loop.params.v_s
        if i is None:
            Phi = self.Phi_on if duty else self.Phi_off
            for j in range(self.grid):
                xs[j] = (Phi[j] @ x_aug)[:-1]
            vds[:] = v_s if duty else 0.0
            out = Phi[self.grid] @ x_aug
        else:
            x_cell = self._cross(i, u, x_base)
            for j in range(self.grid):
                if j < i:
                    xs[j] = (self.Phi_on[j] @ x_aug)[:-1]
                    vds[j] = v_s
                else:
                    xs[j] = (self.Phi_off[j - i] @ x_cell)[:-1]
                    vds[j] = 0.0
            out = self.Phi_off[self.grid - i] @ x_cell
        ys = xs @ self.loop.y_row + self.loop.y_const
        return out[:-1] / out[-1], duty, xs, ys, vds


def step_cycle(
    x0: Sequence[float],
    loop: ClosedLoop,
    grid: int = 64,
    engine: Optional[CycleEngine] = None,
) -> Tuple[np.ndarray, float]:
    """Propagate one switching period from x0; returns (x1, duty).

    Builds a fresh CycleEngine unless one is supplied; sweeps should
    construct the engine once and call its ``step`` directly.
    """
    x0 = np.asarray(x0, dtype=float)
    if not np.all(np.isfinite(x0)):
        raise DomainError("initial state must be finite")
    eng = engine if engine is not None else CycleEngine(loop, grid)
    if x0.shape != (eng.n,):
        raise DomainError(f"state must have dimension {eng.n}")
    return eng.step(x0)


# ---------------------------------------------------------------------------
# Multi-cycle simulation and classification.


@dataclass(frozen=True)
class DenseTrace:
    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    h: np.ndarray
    v_d: np.ndarray


@dataclass(frozen=True)
class SimTrace:
    """Stroboscopic record of a run plus its periodicity verdict."""

    strobe: np.ndarray
    duties: np.ndarray
    classification: str
    labels: Tuple[str, ...]
    window: int
    dense: Optional[DenseTrace] = None


def _classify(strobe: np.ndarray, duties: np.ndarray, window: int) -> str:
    """Periodicity of the last `window` cycles: period-1/2/4 or other."""
    tail = strobe[-(window + 1):]
    dtail = duties[-window:]
    n_sat = int(np.sum((dtail <= 0.0) | (dtail >= 1.0)))
    if n_sat > window // 2:
        return "other"
    scale = 1.0 + float(np.max(np.abs(tail))) if tail.size else 1.0
    for m in (1, 2, 4):
        if tail.shape[0] <= m:
            break
        resid = float(np.max(np.abs(tail[m:] - tail[:-m])))
        if resid <= 1e-8 * scale:
            return f"period-{m}"
    return "other"


def _auto_init(params: BuckParams, scheme: ControlScheme, n: int) -> np.ndarray:
    try:
        D = duty_ratio(params, scheme)
    except (DomainError, NoConvergence):
        D = 0.5
    x = np.zeros(n)
    x[0] = D * params.v_s / params.R
    if n > 1:
        x[1] = D * params.v_s
    return x


def simulate(
    params: BuckParams,
    scheme: ControlScheme,
    cycles: int = 576,
    x_init="auto",
    window: int = 64,
    grid: int = 64,
    dense: bool = False,
    dense_cycles: Optional[int] = None,
    divergence_bound: float = 1e6,
    engine: Optional[CycleEngine] = None,
) -> SimTrace:
    """Run the switched simulation and classify the settled behavior.

    The classifier looks at the last `window` stroboscopic samples, so
    cycles must exceed the window by a margin covering the transient
    (the default 576 = 512 transient + 64 window).  Divergence carries
    the partial trace in its ``trace`` attribute.
    """
    if window < 4:
        raise DomainError("window must be at least 4")
    if cycles < window + 1:
        raise DomainError("cycles must exceed the classification window")
    eng = engine if engine is not None else CycleEngine(
        build_closed_loop(params, scheme), grid
    )
    if isinstance(x_init, str):
        if x_init != "auto":
            raise DomainError("x_init must be a state vector or 'auto'")
        x = _auto_init(params, scheme, eng.n)
    else:
        x = np.asarray(x_init, dtype=float)
        if x.shape != (eng.n,):
            raise DomainError(f"x_init must have dimension {eng.n}")
    if dense_cycles is None:
        dense_cycles = min(window, cycles)
    dense_from = cycles - dense_cycles if dense else cycles + 1

    strobe = np.empty((cycles + 1, eng.n))
    duties = np.empty(cycles)
    strobe[0] = x
    dts: List[np.ndarray] = []
    dxs: List[np.ndarray] = []
    dys: List[np.ndarray] = []
    dvds: List[np.ndarray] = []
    for nidx in range(cycles):
        if dense and nidx >= dense_from:
            x, duty, xs, ys, vds = eng.step_dense(x)
            t0 = nidx * eng.T
            dts.append(t0 + np.arange(eng.grid) * eng.dt)
            dxs.append(xs)
            dys.append(ys)
            dvds.append(vds)
        else:
            x, duty = eng.step(x)
        strobe[nidx + 1] = x
        duties[nidx] = duty
        if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > divergence_bound:
            partial = SimTrace(
                strobe[: nidx + 2].copy(),
                duties[: nidx + 1].copy(),
                "diverged",
                eng.loop.labels,
                window,
            )
            err = Divergence(
                f"state magnitude exceeded {divergence_bound:g} "
                f"at cycle {nidx + 1}",
                trace=partial,
            )
            raise err
    dense_trace = None
    if dense and dts:
        p = eng.loop.params
        h = np.tile(eng.h_grid[: eng.grid], len(dts))
        dense_trace = DenseTrace(
            t=np.concatenate(dts),
            x=np.vstack(dxs),
            y=np.concatenate(dys),
            h=h,
            v_d=np.concatenate(dvds),
        )
    return SimTrace(
        strobe,
        duties,
        _classify(strobe, duties, min(window, cycles - 1)),
        eng.loop.labels,
        window,
        dense_trace,
    )


# ---------------------------------------------------------------------------
# Periodic orbit (period-1 fixed point) and the cycle-map Jacobian.


def cycle_jacobian(
    engine: CycleEngine, x: np.ndarray, rel: float = 1e-6, *, interior: bool = False
) -> np.ndarray:
    """Central finite-difference Jacobian of the one-cycle map at x.

    The independent cross-check of ``CycleEngine.step_jacobian``; its
    error shrinks as rel**2.  With interior=True every perturbed cycle
    must commute at an interior crossing, else DegenerateOrbit.
    """
    n = engine.n
    J = np.empty((n, n))
    for i in range(n):
        d = rel * (1.0 + abs(x[i]))
        xp = x.copy()
        xp[i] += d
        xm = x.copy()
        xm[i] -= d
        fp, dp = engine.step(xp)
        fm, dm = engine.step(xm)
        if interior and not (0.0 < dp < 1.0 and 0.0 < dm < 1.0):
            raise DegenerateOrbit(
                "perturbed cycle saturates; orbit too close to a duty bound"
            )
        J[:, i] = (fp - fm) / (2.0 * d)
    return J


def steady_state(
    params: BuckParams,
    scheme: ControlScheme,
    x_init="auto",
    warmup: int = 128,
    max_iter: int = 40,
    grid: int = 64,
    engine: Optional[CycleEngine] = None,
) -> Tuple[np.ndarray, float]:
    """Period-1 fixed point of the cycle map and its interior duty.

    A damped Newton iteration solves P(x) = x, first straight from the
    initial guess (which also reaches orbits that are unstable, where
    settling would walk away), then after warm-up settling runs if that
    fails.  Each iterate takes its residual and its exact Jacobian from
    one ``step_jacobian`` call, so both share one crossing solve; only an
    iterate whose cycle saturates (or grazes the ramp) falls back to the
    finite-difference ``cycle_jacobian``.  Saturated-duty fixed points
    are rejected: the target is the switching orbit, not the degenerate
    always-off/always-on fixed points.  Raises NoConvergence when every
    attempt fails.
    """
    eng = engine if engine is not None else CycleEngine(
        build_closed_loop(params, scheme), grid
    )
    if isinstance(x_init, str):
        x0 = _auto_init(params, scheme, eng.n)
    else:
        x0 = np.asarray(x_init, dtype=float).copy()

    def settle(x, n):
        for _ in range(n):
            x, _ = eng.step(x)
            if not np.all(np.isfinite(x)) or np.max(np.abs(x)) > 1e9:
                raise NoConvergence("state diverged while settling")
        return x

    def evaluate(x):
        try:
            return eng.step_jacobian(x)
        except DegenerateOrbit:
            fx, duty = eng.step(x)
            return fx, duty, None

    def newton(x):
        fx, duty, J = evaluate(x)
        for _ in range(max_iter):
            r = fx - x
            scale = 1.0 + float(np.max(np.abs(x)))
            if float(np.max(np.abs(r))) <= 1e-12 * scale:
                if not 0.0 < duty < 1.0:
                    raise NoConvergence(
                        "Newton landed on a saturated-duty fixed point"
                    )
                return x, duty
            if J is None:
                # a saturated cycle is affine with J = Phi(T); an integrating
                # compensator puts an eigenvalue of exactly 1 in it and makes
                # J - I singular, so such an iterate keeps the difference step
                J = cycle_jacobian(eng, x)
            try:
                dx = np.linalg.solve(J - np.eye(eng.n), -r)
            except np.linalg.LinAlgError:
                raise NoConvergence("singular Jacobian in the orbit solve")
            lam = 1.0
            r0 = float(np.max(np.abs(r)))
            for _ in range(16):
                x_new = x + lam * dx
                fx_new, duty_new, J_new = evaluate(x_new)
                if (0.0 < duty_new < 1.0
                        and float(np.max(np.abs(fx_new - x_new))) < r0):
                    break
                lam *= 0.5
            else:
                raise NoConvergence("Newton damping failed to reduce the residual")
            x, fx, duty, J = x_new, fx_new, duty_new, J_new
        raise NoConvergence("orbit Newton did not converge")

    last: Optional[NoConvergence] = None
    x = x0
    for extra in (0, warmup, 2048):
        try:
            if extra:
                x = settle(x, extra)
            return newton(x)
        except NoConvergence as exc:
            last = exc
    raise NoConvergence(f"period-1 orbit solve failed: {last}")


def ripple_check(params: BuckParams, D) -> float:
    """Peak-to-peak output ripple estimate |D^2 - D| T^2 v_s / (8 L C).

    Defined for the zero-ESR power stage.
    """
    if params.R_c != 0.0:
        raise DomainError("the ripple formula assumes R_c = 0")
    C = params.require_C()
    D = float(D)
    if not 0.0 <= D <= 1.0:
        raise DomainError("duty cycle must lie in [0, 1]")
    return abs(D * D - D) * params.T**2 * params.v_s / (8.0 * params.L * C)
