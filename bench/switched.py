"""Independent checks of the switched converter from its closed-loop matrices.

Uses only numpy and its own matrix exponential, never the simulator's
engine.  Each stage is the affine system x' = A x + b (b = b_on while the
switch conducts, b_off after), the switch opens where y = c.x + y0 meets
the ramp h(t) = V_l + m_a t, m_a = V_m / T.

- ``cycle_residual`` replays one strobe interval from its reported duty.
- ``orbit`` solves the period-1 orbit from a guess, by Newton on the
  fixed-point and switching equations together.
- ``return_map_det`` is the determinant of the one-cycle Jacobian,
  exp(tr(A) T) (c.(A x* + b_off) - m_a) / (c.(A x* + b_on) - m_a),
  x* the state at the switching instant (the saltation factor of the
  discontinuous vector field times the two flows' determinants).
"""

from __future__ import annotations

import math

import numpy as np


def expm(M):
    """Matrix exponential: scaling and squaring of a degree-18 Taylor sum."""
    n = M.shape[0]
    norm = float(np.max(np.sum(np.abs(M), axis=0))) if n else 0.0
    s = max(0, math.ceil(math.log2(norm / 0.25))) if norm > 0.25 else 0
    A = M / 2.0**s
    E = np.eye(n)
    term = np.eye(n)
    for j in range(1, 19):
        term = term @ A / j
        E = E + term
    for _ in range(s):
        E = E @ E
    return E


class Loop:
    """The closed-loop matrices a check needs, as plain arrays."""

    def __init__(self, A, b_on, b_off, c, y0, V_l, V_m, T):
        self.A = np.asarray(A, float)
        self.b_on = np.asarray(b_on, float)
        self.b_off = np.asarray(b_off, float)
        self.c = np.asarray(c, float)
        self.y0 = float(y0)
        self.V_l, self.V_m, self.T = float(V_l), float(V_m), float(T)
        self.n = self.A.shape[0]

    def _aug(self, b, t):
        M = np.zeros((self.n + 1, self.n + 1))
        M[: self.n, : self.n] = self.A
        M[: self.n, self.n] = b
        return expm(M * t)

    def on(self, t):
        return self._aug(self.b_on, t)

    def off(self, t):
        return self._aug(self.b_off, t)

    def switching(self, x, d):
        """y - h at the instant d T of a cycle, with x the state there."""
        return float(self.c @ x + self.y0 - self.V_l - self.V_m * d)


def cycle_residual(loop, x0, d, x1):
    """Mismatches of one reported cycle: (state error, switching error), relative.

    A saturated cycle (d = 0 or 1) has no switching instant; its switching
    error is 0.
    """
    x0 = np.append(np.asarray(x0, float), 1.0)
    x_star = loop.on(d * loop.T) @ x0
    x_end = loop.off((1.0 - d) * loop.T) @ x_star
    scale = 1.0 + float(np.max(np.abs(x1)))
    state_err = float(np.max(np.abs(x_end[:-1] - x1))) / scale
    y_scale = 1.0 + abs(loop.V_l) + abs(loop.V_m) + float(np.abs(loop.c) @ np.abs(x_star[:-1]))
    if not 0.0 < d < 1.0:
        return state_err, 0.0
    return state_err, abs(loop.switching(x_star[:-1], d)) / y_scale


def _orbit_residual(loop, x0, d):
    xa = np.append(x0, 1.0)
    on = loop.on(d * loop.T)
    x_star = on @ xa
    x_end = loop.off((1.0 - d) * loop.T) @ x_star
    r = np.append(x_end[:-1] - x0, loop.switching(x_star[:-1], d))
    return r, on, x_star[:-1]


def _stays_on(loop, x0, d, samples=64):
    # the orbit starts on (y > h) and meets the ramp first at d
    xa = np.append(x0, 1.0)
    for k in range(samples):
        t = d * k / samples
        if loop.switching((loop.on(t * loop.T) @ xa)[:-1], t) <= 0.0:
            return False
    return True


def orbit(loop, x_guess, d_guess, iters=30):
    """Period-1 switching orbit near a guess: (x0, d, x*).

    Newton on the n + 1 equations x0 = P_d(x0), y(x*) = h(d T) in the
    unknowns (x0, d); a linear solve for x0 alone would be singular when
    the compensator carries an integrator.
    """
    x0 = np.asarray(x_guess, float).copy()
    d = float(d_guess)
    n = loop.n
    for _ in range(iters):
        r, on, x_star = _orbit_residual(loop, x0, d)
        scale = 1.0 + float(np.max(np.abs(x0)))
        if float(np.max(np.abs(r))) <= 1e-14 * scale:
            break
        J = np.empty((n + 1, n + 1))
        off = loop.off((1.0 - d) * loop.T)
        J[:n, :n] = (off @ on)[:n, :n] - np.eye(n)
        J[n, :n] = loop.c @ on[:n, :n]
        h = 1e-7
        J[:, n] = (_orbit_residual(loop, x0, d + h)[0]
                   - _orbit_residual(loop, x0, d - h)[0]) / (2.0 * h)
        step = np.linalg.solve(J, -r)
        x0 = x0 + step[:n]
        d = d + step[n]
    else:
        raise ValueError("orbit Newton did not converge")
    if not (0.0 < d < 1.0 and _stays_on(loop, x0, d)):
        raise ValueError(f"no interior switching orbit near the guess (d = {d})")
    return x0, d, x_star


def return_map_det(loop, x_star):
    m_a = loop.V_m / loop.T
    num = float(loop.c @ (loop.A @ x_star + loop.b_off)) - m_a
    den = float(loop.c @ (loop.A @ x_star + loop.b_on)) - m_a
    return math.exp(float(np.trace(loop.A)) * loop.T) * num / den


def tail_period(strobe, m, window=64):
    """Largest relative change x_{n+m} - x_n over the last ``window`` strobes."""
    tail = np.asarray(strobe)[-(window + 1):]
    scale = 1.0 + float(np.max(np.abs(tail)))
    return float(np.max(np.abs(tail[m:] - tail[:-m]))) / scale
