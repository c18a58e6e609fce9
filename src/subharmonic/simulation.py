"""Exact time-domain simulation of the closed-loop switched converter.

Each switching cycle has two affine stages (switch on, switch off) under
trailing-edge PWM: the cycle starts in the on stage and commutes at the
first crossing of the compensator output with the ramp.  Within a stage
the dynamics ẋ = Ax + b is integrated exactly with matrix exponentials;
only the crossing localization is iterative, a Newton solve to rounding
level.  Both stages share A, so a cycle's x(T) is a fixed map of x plus a
polynomial in the crossing fraction, and its Jacobian e^{AT} less a rank-1
term.  ``CycleEngine`` runs a cycle along one path, which the plain,
Jacobian and dense steps share, so all three give the same x(T) to the
bit.  The stroboscopic sequence x(nT) is the ground truth used for
subharmonic (period-doubling) detection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
from .schemes import BuckParams, ControlScheme, duty_ratio

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
    if not den_roots:
        return [], [], lead  # a static gain has no modes
    # each gap against its own pair: no unit of rate enters the test
    qs = sorted(den_roots)
    for a, b in zip(qs, qs[1:]):
        if b - a <= 1e-9 * max(abs(a), abs(b)):
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
    compensator input and y follow the scheme's ``wiring``.  Compensators
    with internal dynamics are realized in modal (diagonal) coordinates,
    one state per real pole.
    """
    w = scheme.wiring(params)
    if w.rl_plant:
        A_p = np.array([[-params.R / params.L]])
        vo_p = np.array([params.R])
        labels = ["i_L"]
    else:
        C = params.require_C()
        rho = params.rho
        A_p = np.array(
            [
                [-rho * params.R_c / params.L, -rho / params.L],
                [rho / C, -rho / (params.R * C)],
            ]
        )
        vo_p = np.array([rho * params.R_c, rho])
        labels = ["i_L", "v_C"]
    m = len(vo_p)
    i_p = np.zeros(m)
    i_p[0] = 1.0
    sense = w.i_gain * i_p + w.v_gain * vo_p
    qs, residues, dinf = _modal_parts(w.gain, w.zeros, w.poles, w.integrators)

    nc = len(qs)
    n = m + nc
    A = np.zeros((n, n))
    A[:m, :m] = A_p
    # balance the modal coordinates: split each residue evenly between
    # the input and output weights so no single matrix entry carries the
    # whole compensator gain and finite-difference perturbations of the
    # modal states have comparable, moderate effect on y
    gains = [math.sqrt(abs(r)) for r in residues]
    signs = [math.copysign(1.0, r) for r in residues]
    for k, q in enumerate(qs):
        A[m + k, m + k] = q
        A[m + k, :m] = -gains[k] * sense
    b_on = np.zeros(n)
    b_on[0] = params.v_s / params.L
    b_on[m:] = np.asarray(gains) * params.v_r
    b_off = b_on.copy()
    b_off[0] = 0.0
    y_row = np.zeros(n)
    y_row[m:] = np.asarray(signs) * np.asarray(gains)
    y_row[:m] = -dinf * sense
    y_const = dinf * params.v_r
    vo_row = np.zeros(n)
    vo_row[:m] = vo_p
    labels += [f"z{k + 1}" for k in range(nc)]
    return ClosedLoop(params, scheme, A, b_on, b_off, y_row, y_const,
                      vo_row, tuple(labels))


# ---------------------------------------------------------------------------
# Exact cycle stepping.


def _taylor_terms(Ms: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Stacks of M^j / j! for pre-scaled stage matrices Ms, in one chain.

    Each M = [[A dt, b dt], [0, 0]] has M^j = [[A^j, A^{j-1} b], [0, 0]] dt^j,
    so term j is at most θ_M θ_A^{j-1} / j! in 1-norm, with θ_M = ‖M‖₁ and
    θ_A = ‖A dt‖₁; stack i stops at the first j >= 4 where that bound is
    below 1e-22.  Returns (terms, lengths), stack i being terms[i, :lengths[i]].
    """
    n = Ms.shape[-1] - 1
    theta_A = np.linalg.norm(Ms[:, :n, :n], 1, axis=(1, 2))
    bound = np.cumprod(np.column_stack((np.linalg.norm(Ms, 1, axis=(1, 2)),
                                        theta_A[:, None] / np.arange(2, 61))),
                       axis=1)
    stop = (bound < 1e-22) & (np.arange(1, 61) >= 4)
    stop[:, -1] = True
    lengths = stop.argmax(axis=1) + 2
    terms = np.empty((len(Ms), lengths.max(initial=1), n + 1, n + 1))
    terms[:, 0] = np.eye(n + 1)
    for j in range(1, terms.shape[1]):
        terms[:, j] = terms[:, j - 1] @ Ms / j
    # each stage sums only its own terms, whichever batch it was built in
    terms[np.arange(terms.shape[1]) >= lengths[:, None]] = 0.0
    return terms, lengths


def expm(terms: np.ndarray) -> np.ndarray:
    """e^M as the sum of a stack of M^j / j! that ``_taylor_terms`` built."""
    return terms.sum(axis=-3)


def _propagator_stacks(loops: Sequence[ClosedLoop], grid: int) -> list:
    """The on stage's Taylor stack, Phi grids and cycle maps for loops of
    one dimension.

    One Taylor chain serves every stage, and one batched product per grid
    step every Phi grid.  Returns per loop (P_on, Phi, C, W), or None if
    the loop has ‖A dt‖₁ > 8 (the b column carries volts, not dynamics).
    P_on[l] = M_on^l / l!.  C[i] = Phi_off[grid - i] @ Phi_on[i] is the
    cycle that switches at t_i.  The stages share A, so one that switches
    at fraction u of cell i ends at C[i, :n] @ x_aug - W[i] @ (1 - u)**l:
    W[i] = Phi_off[grid - i][:n, :n] @ V.T with V[l] the top of
    (P_on[l] - P_off[l])[:, n], the series of G((1 - u) dt) (b_on - b_off).
    """
    if grid < 4:
        raise DomainError("grid must be at least 4")
    m = loops[0].dim + 1 if loops else 1
    Ms = np.zeros((len(loops), 2, m, m))
    for M, loop in zip(Ms, loops):
        M[:, :-1, :-1] = loop.A
        M[:, :-1, -1] = loop.b_on, loop.b_off
        M *= loop.params.T / grid
    stiff = (np.linalg.norm(Ms[..., :-1, :-1], 1, axis=(2, 3)) > 8.0).any(axis=1)
    terms, lengths = _taylor_terms(Ms[~stiff].reshape(-1, m, m))
    E = expm(terms).reshape(-1, 2, m, m)
    # grid step first, so each step writes one contiguous slice
    Phi = np.empty((grid + 1,) + E.shape)
    Phi[0] = np.eye(m)
    for j in range(grid):
        np.matmul(E, Phi[j], out=Phi[j + 1])
    P_on = [t[:k] for t, k in zip(terms[::2], lengths[::2].tolist())]
    C = Phi[::-1, :, 1] @ Phi[:, :, 0]
    V = terms[::2, :, :-1, -1] - terms[1::2, :, :-1, -1]
    W = [Phi[::-1, j, 1, :-1, :-1] @ V[j, :k].T
         for j, k in enumerate(np.maximum(lengths[::2], lengths[1::2]).tolist())]
    built = zip(P_on, np.moveaxis(Phi, 0, 2), np.moveaxis(C, 0, 1), W)
    return [None if s else next(built) for s in stiff.tolist()]


class CycleEngine:
    """Precomputed exact propagators for one switching period.

    grid subdivides the period for crossing detection (and dense output);
    every propagation step is a matrix exponential, so grid only affects
    which sign change is seen first, not the accuracy of the states.
    Whole cells propagate through the stacks Phi_on[j] = e^{M_on j dt}
    and Phi_off[j].  A cycle that switches at fraction u of cell i ends
    at C[i, :n] @ x_aug - W[i] @ (1 - u)**l, the cycle maps of
    ``_propagator_stacks``, and y over that cell is u**l @ yP_on @
    Phi_on[i - 1] @ x_aug; the Jacobian is built from these too.  ``step``,
    ``step_jacobian`` and ``step_dense`` all run that one cycle, so they
    return bit-identical (x(T), duty).  The stacks come from
    ``_propagator_stacks``, for this loop alone or (via _stacks) from one
    batch built for a sweep: the same bits.  An engine holds no orbit;
    ``_orbit`` returns one with its Jacobian.
    """

    def __init__(self, loop: ClosedLoop, grid: int = 64, *, _stacks=None):
        stacks = _stacks or _propagator_stacks([loop], grid)[0]
        if stacks is None:
            theta = np.linalg.norm(loop.A * (loop.params.T / grid), 1)
            raise NumericalFailure(
                f"stage dynamics too stiff for the per-interval series: "
                f"‖A dt‖₁ = {theta:.3g} > 8; a grid of "
                f"{math.ceil(theta * grid / 8.0)} would pass")
        self.loop = loop
        self.grid = grid
        self.T = loop.params.T
        self.dt = self.T / grid
        self.n = loop.dim
        # polynomials in u are u**k against rows, with k built here once
        P_on, Phi, self.C, self.W = stacks
        self._k_on = np.arange(len(P_on))
        self._k_W = np.arange(self.W.shape[-1])
        self.Phi_on, self.Phi_off = Phi

        self.y_aug = np.append(loop.y_row, loop.y_const)
        # y along the on-stage grid: row i gives y(t_i) as a form on x_aug(0)
        self.yPhi_on = self.y_aug @ self.Phi_on
        # y over a fraction u of an on-stage cell: u**k @ yP_on
        self.yP_on = self.y_aug @ P_on
        p = loop.params
        self.h_grid = p.V_l + p.V_m * np.arange(grid + 1) / grid
        self.h_slope_dt = p.V_m / grid
        # the orbit duty's root tolerance in subinterval units, 1e-13 T
        self.u_tol = 1e-13 * self.T / self.dt

    def _crossing_in_cell(self, i: int, x_aug: np.ndarray, gap_lo: float,
                          gap_hi: float) -> float:
        """Refine the crossing inside (t_{i-1}, t_i] to its fraction u*.

        y - h over the cell is a polynomial in u.  One Horner loop on
        Python floats gives its value and slope (numpy scalars would cost
        five times as much for the same bits).  A safeguarded Newton solve
        starts where the line through the grid gaps gap_lo > 0 >= gap_hi
        meets zero, keeps the bracket [lo, hi] by the sign of each value,
        and bisects when a step leaves it; a step onto a bracket end is
        taken.  It returns after a Newton step of at most 1e-9, whose
        quadratic error is far below rounding: about three evaluations.
        It never starts from an earlier cycle's u, so a cycle depends
        only on the bits of its starting state.  A polynomial that has not
        settled in 100 evaluations (one that is NaN, say) raises
        NoConvergence.
        """
        coeffs = (self.yP_on @ (self.Phi_on[i - 1] @ x_aug))[::-1].tolist()
        h0 = float(self.h_grid[i - 1])
        slope = self.h_slope_dt
        lo, hi = 0.0, 1.0
        u = gap_lo / (gap_lo - gap_hi)
        for _ in range(100):
            g = dg = 0.0
            for c in coeffs:
                dg = dg * u + g
                g = g * u + c
            g = g - h0 - slope * u
            lo, hi = (u, hi) if g > 0.0 else (lo, u)
            dg -= slope
            step = g / dg if dg else 2.0  # a flat slope bisects
            if not lo <= u - step <= hi:
                u = 0.5 * (lo + hi)
            elif abs(step) <= 1e-9:
                return u - step
            else:
                u -= step
        raise NoConvergence(f"crossing: no convergence in 100 steps, at {u!r}")

    def _cycle(self, x: np.ndarray):
        """Run the cycle that starts at x once.

        Returns (x(T), duty, x_aug, cell): x_aug is x with the constant 1
        appended, and cell is None for a saturated cycle, else
        (i, u): the switch turns off at fraction u of cell i.  x(T) comes
        from the cycle maps C and W alone.
        """
        x_aug = np.empty(self.n + 1)
        x_aug[:-1] = x
        x_aug[-1] = 1.0
        # the switch turns off in the first cell whose end has y <= h
        gap = self.yPhi_on @ x_aug - self.h_grid
        below = gap <= 0.0
        i = int(below.argmax())
        if i == 0:
            # saturated: y <= h at t = 0, so the switch never turns on,
            # or y > h over the whole grid, so it never turns off
            duty = 0.0 if below[0] else 1.0
            out = (self.Phi_on if duty else self.Phi_off)[self.grid] @ x_aug
            return out[:-1], duty, x_aug, None
        u = self._crossing_in_cell(i, x_aug, float(gap[i - 1]), float(gap[i]))
        x_T = self.C[i, :-1] @ x_aug - self.W[i] @ (1.0 - u) ** self._k_W
        return x_T, (i - 1 + u) / self.grid, x_aug, (i, u)

    def step(self, x: np.ndarray) -> Tuple[np.ndarray, float]:
        """One exact switching period: returns (x(T), duty)."""
        x_T, duty, _, _ = self._cycle(x)
        return x_T, duty

    def step_jacobian(
        self, x: np.ndarray
    ) -> Tuple[np.ndarray, float, Optional[np.ndarray]]:
        """One period plus the exact Jacobian of the cycle map at x.

        Returns (x(T), duty, J): x(T) and duty are identical to what
        ``step`` gives.  J is the saltation-matrix derivative

            J = Phi_off(T - t*) [Phi_on(t*) - outer(jump, c Phi_on(t*)) / rate]

        built on the crossing the step itself finds: c is the output row
        of y, jump = dt (b_on - b_off), and rate is the slope per cell at
        which y - h falls through zero at t*.  The stages share A, so the
        state blocks of the two flows multiply to E = e^{AT} = C[0, :n, :n]
        whatever t*, and J = E - outer(w, v) / rate: w = e^{A(T - t*)} jump
        is the u-derivative of the cycle map and v = c e^{A t*} the
        x-derivative of y at the crossing.  J is None for a saturated
        cycle (duty 0 or 1): nothing switches, so the map is affine there
        and says nothing about the switching orbit.  Raises DegenerateOrbit
        when the crossing grazes the ramp (rate = 0), where the map has no
        derivative.
        """
        x_T, duty, x_aug, cell = self._cycle(x)
        if cell is None:
            return x_T, duty, None
        i, u = cell
        # y over the cell as rows on x_aug, and its u-derivative dy at u
        y_on = self.yP_on @ self.Phi_on[i - 1]
        k = self._k_on[1:]
        dy = (k * u ** (k - 1)) @ y_on[1:]
        rate = dy @ x_aug - self.h_slope_dt
        scale = np.abs(dy) @ np.abs(x_aug) + abs(self.h_slope_dt)
        if not rate < -1e-12 * scale:
            raise DegenerateOrbit(
                "the crossing grazes the ramp; the cycle map has no "
                "derivative there"
            )
        v = (u ** self._k_on @ y_on)[:-1]
        k = self._k_W[1:]
        w = self.W[i][:, 1:] @ (k * (1.0 - u) ** (k - 1))
        return x_T, duty, self.C[0, :-1, :-1] - np.outer(w / rate, v)

    def step_dense(self, x: np.ndarray):
        """One period with grid-resolution sampling of (x, y, h, v_d).

        Returns (x_T, duty, xs, ys, vds) where xs holds x(t_j) for
        j = 0..grid-1 (the cycle's half-open sample set).
        """
        x_T, duty, x_aug, cell = self._cycle(x)
        if cell is None:
            # one stage the whole period: every sample on (no off-stage
            # samples are taken) or every sample off, starting from x_aug
            i, x_cell = (self.grid if duty else 0), x_aug
        else:
            # x(t_i): the on stage's, less the partial cell; W[grid] is V.T
            i, u = cell
            x_cell = self.Phi_on[i] @ x_aug
            x_cell[:-1] -= self.W[self.grid] @ (1.0 - u) ** self._k_W
        xs = np.concatenate((self.Phi_on[:i] @ x_aug,
                             self.Phi_off[:self.grid - i] @ x_cell))[:, :-1]
        vds = np.where(np.arange(self.grid) < i, self.loop.params.v_s, 0.0)
        ys = xs @ self.loop.y_row + self.loop.y_const
        return x_T, duty, xs, ys, vds


def step_cycle(
    x0: Sequence[float], loop: ClosedLoop, grid: int = 64
) -> Tuple[np.ndarray, float]:
    """Propagate one switching period of loop from x0; returns (x1, duty).

    Builds the CycleEngine of loop at this grid for the one step; sweeps
    should construct the engine once and call its ``step`` directly.
    """
    x0 = np.asarray(x0, dtype=float)
    if not np.all(np.isfinite(x0)):
        raise DomainError("initial state must be finite")
    eng = CycleEngine(loop, grid)
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
    """Stroboscopic record of a run plus its periodicity verdict.

    repeat is (j, period) when the strobe re-entered x_j bit for bit at
    cycle j + period: every later row, duty and dense cycle is then a
    copy from period cycles back.  None when no state repeats.
    """

    strobe: np.ndarray
    duties: np.ndarray
    classification: str
    labels: Tuple[str, ...]
    window: int
    dense: Optional[DenseTrace] = None
    repeat: Optional[Tuple[int, int]] = None


def _classify(strobe: np.ndarray, duties: np.ndarray, window: int) -> str:
    """Periodicity of the last `window` cycles: period-1/2/4 or other."""
    tail = strobe[-(window + 1):]
    dtail = duties[-window:]
    n_sat = int(np.sum((dtail <= 0.0) | (dtail >= 1.0)))
    if n_sat > window // 2:
        return "other"
    # relative to the states themselves, so a swing on tiny states counts
    scale = float(np.max(np.abs(tail)))
    for m in (1, 2, 4):
        resid = float(np.max(np.abs(tail[m:] - tail[:-m])))
        if resid <= 1e-8 * scale:
            return f"period-{m}"
    return "other"


def _initial_state(params: BuckParams, scheme: ControlScheme, x_init,
                   n: int) -> np.ndarray:
    """The state vector x_init, checked, or for "auto" the averaged
    operating point (inductor current and capacitor voltage)."""
    if not isinstance(x_init, str):
        x = np.asarray(x_init, dtype=float)
        if x.shape != (n,):
            raise DomainError(f"x_init must have dimension {n}")
        return x
    if x_init != "auto":
        raise DomainError("x_init must be a state vector or 'auto'")
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
    dense_cycles: int = 0,
    divergence_bound: Optional[float] = None,
) -> SimTrace:
    """Run the switched simulation and classify its long-run behavior.

    Every cycle steps one CycleEngine, of params and scheme at the given
    grid, built here.  The classifier looks at the last `window`
    stroboscopic samples, so cycles must exceed the window by a margin
    covering the transient (the default 576 = 512 transient + 64
    window).  The last `dense_cycles` cycles (0: none; a value above
    `cycles` covers the whole run) are also sampled at grid resolution.
    A state with a component beyond divergence_bound (default 1e6 times
    the largest component of the averaged operating point, so the bound
    scales with the voltages) raises Divergence, which carries the
    partial trace in its ``trace`` attribute.

    A cycle is a pure function of the bits of its starting state, so
    once the strobe re-enters an earlier state bit for bit the rest of
    the run repeats with that period (``SimTrace.repeat``) and is copied,
    and each distinct starting state of the dense tail is sampled once.
    """
    if window < 4:
        raise DomainError("window must be at least 4")
    if cycles < window + 1:
        raise DomainError("cycles must exceed the classification window")
    if dense_cycles < 0:
        raise DomainError("dense_cycles must be non-negative")
    eng = CycleEngine(build_closed_loop(params, scheme), grid)
    x = _initial_state(params, scheme, x_init, eng.n)
    if divergence_bound is None:
        auto = x if isinstance(x_init, str) else _initial_state(
            params, scheme, "auto", eng.n)
        divergence_bound = 1e6 * np.abs(auto).max()
    bound = float(divergence_bound)
    if not bound > 0.0:
        raise DomainError("divergence_bound must be positive")

    strobe = np.empty((cycles + 1, eng.n))
    duties = np.empty(cycles)
    strobe[0] = x
    # the cycle index of each state, keyed by its bytes
    seen = {x.tobytes(): 0}
    repeat = None
    for k in range(1, cycles + 1):
        x, duties[k - 1] = eng.step(x)
        strobe[k] = x
        # as np.abs(x).max() <= bound: NaN fails every comparison
        if not all(map(bound.__ge__, map(abs, x.tolist()))):
            partial = SimTrace(strobe[: k + 1].copy(), duties[:k].copy(),
                               "diverged", eng.loop.labels, window)
            raise Divergence(f"state magnitude exceeded {bound:g} "
                             f"at cycle {k}", trace=partial)
        j = seen.setdefault(x.tobytes(), k)
        if j < k:
            # x_k is x_j: states from j on repeat with period k - j
            period = k - j
            repeat = (j, period)
            strobe[k + 1:] = strobe[
                j + np.arange(k + 1 - j, cycles + 1 - j) % period]
            duties[k:] = duties[j + np.arange(k - j, cycles - j) % period]
            break
    dense_trace = None
    first = cycles - min(dense_cycles, cycles)
    if first < cycles:
        # the distinct starting states of the tail, in order, and the
        # index of each tail cycle's start among them
        starts = {}
        per = [starts.setdefault(row.tobytes(), len(starts))
               for row in strobe[first:-1]]
        xs, ys, vds = (np.stack(s)[per] for s in zip(*(
            eng.step_dense(np.frombuffer(key))[2:] for key in starts)))
        dense_trace = DenseTrace(
            t=(np.arange(first, cycles)[:, None] * eng.T
               + np.arange(eng.grid) * eng.dt).ravel(),
            x=xs.reshape(-1, eng.n),
            y=ys.ravel(),
            h=np.tile(eng.h_grid[: eng.grid], cycles - first),
            v_d=vds.ravel(),
        )
    return SimTrace(
        strobe,
        duties,
        _classify(strobe, duties, window),
        eng.loop.labels,
        window,
        dense_trace,
        repeat,
    )


# ---------------------------------------------------------------------------
# Periodic orbit (period-1 fixed point) and the cycle-map Jacobian.


def cycle_jacobian(
    engine: CycleEngine, x: np.ndarray, rel: float = 1e-6, *, interior: bool = False
) -> np.ndarray:
    """Central finite-difference Jacobian of the one-cycle map at x.

    The independent cross-check of ``CycleEngine.step_jacobian``; its
    error shrinks as rel**2.  With interior=True every perturbed cycle
    must commute at an interior crossing, else DegenerateOrbit.  A rel
    that is not positive and finite raises DomainError.
    """
    if not 0.0 < rel < math.inf:
        raise DomainError("rel must be positive and finite")
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


def _closed(eng: CycleEngine, cycle: np.ndarray, y_on, h) -> np.ndarray:
    """M(d) in place of the cycle propagator (one matrix or a stack), its
    last row y_on less h on the constant; see _orbit."""
    n = eng.n
    cycle[..., :n, :] -= np.eye(n, n + 1)
    cycle[..., n, :] = y_on
    cycle[..., n, n] -= h
    return cycle


def _matrix_at(eng: CycleEngine, i: int, u: float, y_on) -> np.ndarray:
    """M(d) at fraction u of cell i; y_on's rows are y P_on[l] Phi_on[i - 1]."""
    cycle = eng.C[i].copy()
    cycle[:eng.n, eng.n] -= eng.W[i] @ (1.0 - u) ** eng._k_W
    return _closed(eng, cycle, u ** eng._k_on @ y_on,
                   eng.h_grid[i - 1] + eng.h_slope_dt * u)


def _null_state(eng: CycleEngine, i: int, u: float, y_on) -> np.ndarray:
    """x of the null vector [x; 1] of M(d) at fraction u of cell i."""
    n = eng.n
    M = _matrix_at(eng, i, u, y_on)
    # the last column carries volts: scale it to the others' size
    sigma = np.abs(M[:, n]).max() / np.abs(M[:, :n]).max() or 1.0
    M[:, n] /= sigma
    z = np.linalg.svd(M)[2][-1]
    return sigma * z[:n] / z[n]


def _scanned_duties(eng: CycleEngine) -> List[Tuple[np.ndarray, float]]:
    """(x, d) at every sign change of det M(d) over the grid, each refined
    by brentq inside its cell; see _orbit."""
    dets = np.linalg.det(_closed(eng, eng.C.copy(), eng.yPhi_on, eng.h_grid))
    found = []
    for i in (np.nonzero((dets[:-1] > 0.0) != (dets[1:] > 0.0))[0] + 1).tolist():
        y_on = eng.yP_on @ eng.Phi_on[i - 1]
        u = brentq(lambda u: np.linalg.det(_matrix_at(eng, i, u, y_on)), 0.0, 1.0,
                   xtol=eng.u_tol, rtol=8.9e-16)
        found.append((_null_state(eng, i, u, y_on), (i - 1 + u) / eng.grid))
    return found


def _orbit_duties(eng: CycleEngine) -> List[Tuple[np.ndarray, float]]:
    """The candidate orbits (x, d) of eng's loop; see _orbit.

    Where the averaged loop pins the orbit's duty (the scheme's
    ``_orbit_duty``: RLP, and the integrator loops ACMC and VMC3) there is
    one candidate, at that duty, and none when it falls outside (0, 1);
    otherwise (CMC, PVMC, CFPVR) the det M scan of ``_scanned_duties``
    gives one per sign change.
    """
    d = eng.loop.scheme._orbit_duty(eng.loop.params)
    if d is None:
        return _scanned_duties(eng)
    if not 0.0 < d < 1.0:
        return []
    # d = (i - 1 + u) / grid, u in [0, 1] as the rounding of d * grid allows
    i = min(int(d * eng.grid), eng.grid - 1) + 1
    y_on = eng.yP_on @ eng.Phi_on[i - 1]
    return [(_null_state(eng, i, d * eng.grid - (i - 1), y_on), d)]


def _orbit(eng: CycleEngine,
           x_init="auto") -> Tuple[np.ndarray, float, np.ndarray]:
    """Period-1 switching orbit of eng's loop: (x, duty, J), J the exact
    cycle-map Jacobian at x.

    Both stages share A, so (x, d) is a switching orbit exactly when
    M(d) [x; 1] = 0: the top n rows of M(d) are those of the cycle
    propagator Phi_off((1-d)T) Phi_on(dT) less [I 0], and its last row is
    y Phi_on(dT) less h(d) on the constant.  This one condition covers
    loops with and without an integrator.  Where the averaged loop pins
    the duty (RLP's exact modulator equation; the averaged balance of
    ACMC and VMC3, which an integrator makes exact) M is taken at that
    duty alone, in the cell and fraction it falls in.  Otherwise (CMC,
    PVMC, CFPVR) det M is scanned over the engine's cycle maps C and each
    sign change is refined by brentq inside its cell, where W carries the
    partial cell.  Either way x is the null vector of M at the duty, its
    volts column scaled to the size of the others.

    One exact Newton step with ``step_jacobian`` polishes x and a second
    call confirms it and gives J: the residual is within 1e-12 max|x|,
    the cycle switches at the candidate's duty (so it is its first
    crossing) and it neither saturates nor grazes the ramp.  Candidates
    that fail are skipped; of those that pass, the one nearest x_init is
    returned.  x_init is checked before any work, and the "auto" state
    is built only to order more than one candidate.  Raises NoConvergence
    when no interior switching orbit exists: for a pinned duty, when the
    cycle rejects the one candidate, since no period-1 orbit of such a
    loop has another duty.
    """
    params, scheme = eng.loop.params, eng.loop.scheme
    x0 = None if isinstance(x_init, str) and x_init == "auto" else (
        _initial_state(params, scheme, x_init, eng.n))
    candidates = _orbit_duties(eng)
    if len(candidates) > 1:
        if x0 is None:
            x0 = _initial_state(params, scheme, "auto", eng.n)
        candidates.sort(key=lambda c: float(np.linalg.norm(c[0] - x0)))
    for x, d in candidates:
        try:
            fx, _, J = eng.step_jacobian(x)
            if J is None:
                continue  # the cycle from x saturates
            x = x + np.linalg.solve(J - np.eye(eng.n), x - fx)
            fx, duty, J = eng.step_jacobian(x)
        except DegenerateOrbit:
            continue  # the cycle grazes the ramp
        if (J is not None and abs(duty - d) <= 1e-9
                and np.abs(fx - x).max() <= 1e-12 * np.abs(x).max()):
            return x, duty, J
    pinned = scheme._orbit_duty(params)
    raise NoConvergence(
        "no interior period-1 switching orbit: "
        + (f"the averaged loop pins the duty at {pinned!r}, and the cycle "
           "confirms no orbit there" if pinned is not None
           else f"the cycle rejects all {len(candidates)} candidate duties"
           if candidates else "det M(d) keeps one sign over the duty grid")
    )


def steady_state(
    params: BuckParams,
    scheme: ControlScheme,
    x_init="auto",
    grid: int = 64,
) -> Tuple[np.ndarray, float]:
    """Period-1 switching orbit of the cycle map and its interior duty.

    The (x, duty) of ``_orbit`` on the engine of params and scheme at the
    given grid.  The same solve returns the exact Jacobian there to
    ``poles`` and ``pole_trajectory``; no engine holds an orbit.  For RLP,
    ACMC and VMC3 the solve starts at the duty the averaged loop pins;
    for CMC, PVMC and CFPVR it scans det M(d) over the duty grid.  Raises
    NoConvergence when no interior switching orbit exists.
    """
    return _orbit(CycleEngine(build_closed_loop(params, scheme), grid),
                  x_init)[:2]


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
