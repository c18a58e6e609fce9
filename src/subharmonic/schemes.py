"""Converter parameters, control schemes, and closed-form critical conditions.

Each control scheme has a high-frequency loop-gain approximation whose
F-transform gives a closed-form stability number L; the subharmonic
boundary is L = 1 and L < 1 is the stable side.  The formulas here are
algebraic in the kernel functions of ``transform``; the series oracle and
the switched simulator provide independent cross-checks.

A scheme is one class declaring its config keys, closed-loop wiring, closed
form and critical solves; its loop gain and nominal duty derive from the
wiring (see ``ControlScheme``), and the module-level functions dispatch to it.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Tuple

import numpy as np

from ._roots import bisect, brentq  # noqa: F401 (the benchmark traces bisect)
from .errors import DomainError, MissingParameter, NoRoot, UnsupportedStructure
from .tf import RationalTF
from .transform import _check_duty, _maybe_scalar, alpha, alpha0, alpha1

__all__ = [
    "BuckParams",
    "CMC",
    "PVMC",
    "CFPVR",
    "ACMC",
    "VMC3",
    "RLP",
    "SCHEMES",
    "SWEEP_VARIABLES",
    "ControlScheme",
    "CriticalResult",
    "LPlotCurve",
    "Wiring",
    "loop_gain_hf",
    "closed_form_lvalue",
    "duty_ratio",
    "critical_cmc",
    "critical_pvmc",
    "critical_pvmc_noesr",
    "critical_pvmc_smallR",
    "v2_min_ramp",
    "v2_large_c_bound",
    "v2_no_ramp_threshold",
    "v2_no_ramp_feasible",
    "v2_no_ramp_feasible_alt",
    "critical_rlp",
    "rlp_steady_duty",
    "rlp_critical_kp",
    "critical_acmc",
    "acmc_gain",
    "acmc_min_ramp",
    "acmc_window_estimate",
    "critical_vmc3",
    "vmc3_gain",
    "sweep_point",
    "grid_crossings",
    "lplot",
    "contour_data",
    "solve_critical",
]


# ---------------------------------------------------------------------------
# Parameter records.


@dataclass(frozen=True)
class BuckParams:
    """Power-stage and modulator constants of a buck converter.

    v_s: source voltage; v_r: reference; V_l/V_h: ramp valley and peak;
    f_s: switching frequency; L: inductance; R: load; R_c: capacitor ESR;
    C: output capacitance (None for the plain RL plant).
    """

    v_s: float
    v_r: float
    V_l: float
    V_h: float
    f_s: float
    L: float
    R: float
    C: Optional[float] = None
    R_c: float = 0.0

    def __post_init__(self):
        # the class's field names: vars(self) would build the instance
        # __dict__, which slows every later attribute read
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise DomainError(f"{name} must be finite")
        if not self.v_s > 0.0:
            raise DomainError("v_s must be positive")
        if not self.f_s > 0.0:
            raise DomainError("f_s must be positive")
        if not self.L > 0.0:
            raise DomainError("L must be positive")
        if not self.R > 0.0:
            raise DomainError("R must be positive")
        if self.R_c < 0.0:
            raise DomainError("R_c must be nonnegative")
        if self.C is not None and not self.C > 0.0:
            raise DomainError("C must be positive when present")
        # V_h == V_l (zero ramp amplitude) is allowed: it models m_a = 0
        if self.V_h < self.V_l:
            raise DomainError("V_h must not be below V_l")

    @property
    def V_m(self) -> float:
        return self.V_h - self.V_l

    @property
    def T(self) -> float:
        return 1.0 / self.f_s

    @property
    def omega_s(self) -> float:
        return 2.0 * math.pi * self.f_s

    @property
    def rho(self) -> float:
        return self.R / (self.R + self.R_c)

    @property
    def ramp_slope(self) -> float:
        """m_a = V_m / T."""
        return self.V_m * self.f_s

    def require_C(self) -> float:
        if self.C is None:
            raise MissingParameter("this scheme needs the output capacitance C")
        return self.C


def _require_vm(params: BuckParams) -> float:
    if params.V_m <= 0.0:
        raise DomainError("zero ramp amplitude: V_m must be positive here")
    return params.V_m


def _sensed_gain(w: "Wiring") -> float:
    if (w.i_gain == 0.0) == (w.v_gain == 0.0):
        raise UnsupportedStructure("the loop must sense exactly one of i_L and v_o")
    return w.i_gain or w.v_gain


def _check_zc(params: BuckParams, z_c: float) -> None:
    if z_c >= params.omega_s / 2.0:
        # attribute the warning to the first caller outside the package
        frame, level = sys._getframe(1), 2
        while frame.f_globals.get("__name__", "").startswith(__package__ + "."):
            frame, level = frame.f_back, level + 1
        warnings.warn(
            "compensator zero z_c is not small against the switching "
            "frequency; the high-frequency approximation degrades",
            stacklevel=level,
        )


@dataclass(frozen=True)
class CriticalResult:
    """Stability number L plus an optionally solved critical parameter."""

    lvalue: float
    critical_value: Optional[float] = None

    @property
    def stable(self) -> bool:
        return self.lvalue < 1.0


@dataclass(frozen=True)
class Wiring:
    """How a scheme closes the loop around its power stage.

    The modulator input is y = C(s) [v_r - (i_gain i_L + v_gain v_o)] with
    C(s) = gain prod(1 + s/z_c) / (s^integrators prod(1 + s/p)); the power
    stage is the LC filter, or the single-state RL plant when rl_plant.
    Exactly one of i_gain and v_gain is nonzero.
    """

    i_gain: float
    v_gain: float
    gain: float
    zeros: Tuple[float, ...] = ()
    poles: Tuple[float, ...] = ()
    integrators: int = 0
    rl_plant: bool = False


# ---------------------------------------------------------------------------
# Control schemes.


class ControlScheme:
    """Base of the control schemes; each scheme is one frozen dataclass.

    The dataclass fields are the scheme's config keys, each a positive
    finite number.  A scheme provides:

    - ``wiring(params)``: the closed loop the simulator assembles, from
      which the base class derives ``loop_gain_hf`` and ``nominal_duty``
    - ``lvalue(params, D)``: the closed-form L = F[T] at duty D, of the
      same T (schemes with a compensator pole omega_p also take the pole
      ratio p); D and p may be arrays, and a scalar D and p give a float
    - ``critical(params, solve_for, D)``: the critical v_s, k_p, m_a or D
      at a pinned duty D; L is proportional to v_s and k_p and to 1 / V_m,
      so the base class divides v_s and k_p by L, takes the signed m_a as
      f_s times L at a unit ramp (defined at V_m = 0 too), and scans D;
      a scheme overrides ``_critical``, which also takes L at D when the
      caller holds it, so no solve evaluates L twice at one duty
    - ``_coupled(params, solve_for)``: the critical value of a variable
      in ``duty_depends_on``, the solve variables the nominal duty moves
      with, when no duty is pinned; the base class finds the root of L = 1
      with the duty re-derived at every trial value

    ``solve_critical`` routes every scheme by this one rule: a pinned duty,
    or a variable the duty does not move with, goes to ``_critical``.
    """

    duty_depends_on: Tuple[str, ...] = ("v_s",)

    def __post_init__(self):
        # the class's field names, not vars(self), as in BuckParams
        for name in self.__dataclass_fields__:
            if not 0.0 < getattr(self, name) < math.inf:
                raise DomainError(f"{name} must be positive and finite")

    def loop_gain_hf(self, params):
        """The wiring's high-frequency reduction T(s): the LC plant's L and
        C act as integrators and its ESR zero 1/(R_c C) stays unless a
        compensator pole cancels it; the RL plant is exact; each compensator
        zero z_c becomes s/z_c; the modulator gives v_s / V_m."""
        V_m = _require_vm(params)
        w = self.wiring(params)
        num, den = params.v_s * _sensed_gain(w) * w.gain, V_m
        zeros, poles, m = [], list(w.poles), w.integrators - len(w.zeros)
        if w.rl_plant:  # i_L = v_d / (R + s L) and v_o = R i_L
            den *= params.R if w.i_gain else 1.0
            poles.append(params.R / params.L)
        elif w.i_gain:
            den, m = den * params.L, m + 1
        else:
            C = params.require_C()
            num, den, m = num * params.rho, den * params.L * C, m + 2
            if params.R_c > 0.0:
                esr = 1.0 / (params.R_c * C)
                if esr in poles:
                    poles.remove(esr)
                else:
                    zeros.append(esr)
        for z in w.zeros:
            _check_zc(params, z)
            den *= z
        return RationalTF(num / den, zeros=zeros, poles=poles, integrators=m)

    def nominal_duty(self, params):
        """The duty at which the sensed quantity meets v_r, with v_o = D v_s."""
        w = self.wiring(params)
        target = params.v_r * params.R if w.i_gain else params.v_r
        return target / (_sensed_gain(w) * params.v_s)

    def _orbit_duty(self, params):
        """The duty of every period-1 switching orbit where the averaged
        loop pins it, else None.  An integrator holds the sensed quantity's
        cycle average at v_r, so the averaged balance is exact on the
        switched orbit and its duty is the nominal one."""
        return self.nominal_duty(params) if self.wiring(params).integrators else None

    def critical(self, params: BuckParams, solve_for: str, D: float) -> float:
        return self._critical(params, solve_for, D, None)

    def _critical(self, params, solve_for, D, lv):
        # lv is L at D when the caller holds it already, else None
        if solve_for == "D":
            curve = lplot(params, self, "D", np.linspace(1e-3, 1.0 - 1e-3, 512))
            if not curve.crossings:
                raise NoRoot("L never crosses 1 over the duty range")
            return curve.crossings[0]
        if solve_for == "m_a":
            # V_m L is the same at every ramp, so the boundary slope is L
            # at a unit ramp per period; signed, and <= 0 needs no ramp
            return self.lvalue(replace(params, V_l=0.0, V_h=1.0), D) * params.f_s
        if solve_for == "v_s" or (solve_for == "k_p" and hasattr(self, "k_p")):
            if lv is None:
                lv = self.lvalue(params, D)
            if lv <= 0.0:
                raise DomainError(f"L is not positive; no finite critical {solve_for}")
            return (params.v_s if solve_for == "v_s" else self.k_p) / lv
        raise DomainError(f"{type(self).__name__} has no {solve_for} to solve for")

    def _coupled(self, params, solve_for):
        """The root of L(x, duty_ratio(x)) = 1 in x = solve_for: the first
        crossing of ``lplot`` over a log grid from 1e-3 to 1e4 times the
        present value, on which points with no operating duty read nan."""
        x0 = getattr(params if hasattr(params, solve_for) else self, solve_for)
        roots = lplot(params, self, solve_for,
                      np.geomspace(1e-3 * x0, 1e4 * x0, 240)).crossings
        if not roots:
            raise NoRoot(f"no critical {solve_for} found on the search range")
        return roots[0]


@dataclass(frozen=True)
class CMC(ControlScheme):
    """Peak current-mode control: y = i_c - i_L with unit current gain."""

    def lvalue(self, params, D):
        # with zero ramp amplitude the boundary D = 1/2 is reported through
        # the renormalized L = 2D, which crosses 1 exactly where the
        # ramp-slope condition becomes violated
        D = _check_duty(D)
        if params.V_m == 0.0:
            return _maybe_scalar(2.0 * D)
        return critical_cmc(params, D) * params.T / params.V_m

    def _critical(self, params, solve_for, D, lv):
        if solve_for == "v_s" and params.V_m == 0.0:
            # the renormalized L = 2D is not proportional to v_s
            raise DomainError("no finite critical v_s with a zero ramp")
        if solve_for == "D":
            # exact rearrangement: D = 1/2 + m_a L / v_s
            D_crit = 0.5 + params.ramp_slope * params.L / params.v_s
            if D_crit > 1.0:
                raise DomainError("ramp strong enough that no critical D exists")
            return D_crit
        return super()._critical(params, solve_for, D, lv)

    def wiring(self, params):
        # v_r doubles as the current command i_c
        return Wiring(i_gain=1.0, v_gain=0.0, gain=1.0)


@dataclass(frozen=True)
class PVMC(ControlScheme):
    """Proportional voltage-mode control, y = k_p (v_r - v_o)."""

    k_p: float

    def lvalue(self, params, D):
        """L = (v_s k_p rho T^2 / 4 V_m L C) [(2 R_c C/T)(2D-1) + (2D^2-2D+1)]."""
        D = _check_duty(D)
        C = params.require_C()
        V_m = _require_vm(params)
        lead = (params.v_s * self.k_p * params.rho * params.T**2
                / (4.0 * V_m * params.L * C))
        bracket = (2.0 * params.R_c * C / params.T) * (2.0 * D - 1.0) + (
            2.0 * D * D - 2.0 * D + 1.0
        )
        return _maybe_scalar(lead * bracket)

    def wiring(self, params):
        return Wiring(i_gain=0.0, v_gain=1.0, gain=self.k_p)


@dataclass(frozen=True)
class CFPVR(PVMC):
    """Constant-frequency peak voltage regulator (V^2): the divided output
    k_p v_o is regulated to v_r, y = v_r - k_p v_o; same critical
    condition as PVMC."""

    duty_depends_on = ("v_s", "k_p")

    def wiring(self, params):
        return Wiring(i_gain=0.0, v_gain=self.k_p, gain=1.0)


@dataclass(frozen=True)
class RLP(ControlScheme):
    """Proportional feedback around a first-order RL plant."""

    k_p: float
    # the modulator equation (rlp_steady_duty) moves the duty with all three
    duty_depends_on = ("v_s", "k_p", "m_a")

    def nominal_duty(self, params):
        # no integrator: the exact modulator equation sets the duty
        return rlp_steady_duty(params, self.k_p)

    def _orbit_duty(self, params):
        # the current peaks at the switching instant, so the modulator
        # equation is the switched orbit's own
        return self.nominal_duty(params)

    def lvalue(self, params, D):
        """L = v_s k_p p alpha(D, p) / V_m with p = R / (L omega_s)."""
        V_m = _require_vm(params)
        p = params.R / (params.L * params.omega_s)
        return params.v_s * self.k_p * p * alpha(D, p) / V_m

    def _coupled(self, params, solve_for):
        # the critical gain carries its own duty, the paper's figure
        if solve_for == "k_p":
            return rlp_critical_kp(params)[0]
        if solve_for == "m_a":
            raise DomainError("the RL duty moves with the ramp; pin a duty for m_a")
        return super()._coupled(params, solve_for)

    def wiring(self, params):
        return Wiring(i_gain=0.0, v_gain=1.0, gain=self.k_p, rl_plant=True)


class _PoleLoop(ControlScheme):
    """Compensator with an integrator and a pole omega_p.

    L = K (alpha0(D) - alpha(D, p)) with p = omega_p / omega_s and the
    combined dimensionless gain K = ``gain(params)``, proportional to v_s
    and to 1 / V_m, so the base class's critical solves apply.
    """

    def lvalue(self, params, D, p=None):
        if p is None:
            p = self.omega_p / params.omega_s
        return self.gain(params) * (alpha0(D) - alpha(D, p))


@dataclass(frozen=True)
class ACMC(_PoleLoop):
    """Average current-mode control with a type-II current compensator."""

    R_s: float
    K_c: float
    z_c: float
    omega_p: float

    def gain(self, params):
        """K = v_s R_s K_c / (V_m z_c L omega_s)."""
        V_m = _require_vm(params)
        _check_zc(params, self.z_c)
        return (params.v_s * self.R_s * self.K_c
                / (V_m * self.z_c * params.L * params.omega_s))

    def wiring(self, params):
        return Wiring(i_gain=self.R_s, v_gain=0.0, gain=self.K_c,
                      zeros=(self.z_c,), poles=(self.omega_p,), integrators=1)


@dataclass(frozen=True)
class VMC3(_PoleLoop):
    """Voltage-mode control with a type-III three-pole-two-zero compensator."""

    K_c: float
    kappa_z: float
    omega_p: float

    def __post_init__(self):
        super().__post_init__()
        if self.kappa_z > 2.0:
            raise DomainError("kappa_z must lie in (0, 2]")

    def gain(self, params):
        """K = v_s K_c rho / (V_m kappa_z omega_s)."""
        V_m = _require_vm(params)
        return (params.v_s * self.K_c * params.rho
                / (V_m * self.kappa_z * params.omega_s))

    def wiring(self, params):
        C = params.require_C()
        sqlc = math.sqrt(params.L * C)
        poles = (self.omega_p,)
        if params.R_c > 0.0:
            poles += (1.0 / (params.R_c * C),)
        return Wiring(i_gain=0.0, v_gain=1.0, gain=self.K_c,
                      zeros=(self.kappa_z / sqlc, 1.0 / sqlc), poles=poles,
                      integrators=1)


# config names of the schemes
SCHEMES = {"cmc": CMC, "pvmc": PVMC, "cfpvr": CFPVR, "rlp": RLP,
           "acmc": ACMC, "vmc3": VMC3}


# ---------------------------------------------------------------------------
# The scheme-generic front ends.


def loop_gain_hf(params: BuckParams, scheme: ControlScheme) -> RationalTF:
    """The scheme's high-frequency loop-gain approximation T(s), reduced
    from the ``wiring`` the simulator assembles (``ControlScheme``); its
    F-transform is the closed form, ``closed_form_lvalue``."""
    return scheme.loop_gain_hf(params)


def duty_ratio(params: BuckParams, scheme: ControlScheme) -> float:
    """Nominal steady-state duty cycle implied by the references.

    The scheme's ``nominal_duty``, which the base class derives from the
    wiring (v_o = D v_s with the sensed quantity at v_r) and the RL loop,
    having no integrator, takes from its exact modulator equation.
    """
    D = scheme.nominal_duty(params)
    if not 0.0 < D < 1.0:
        raise DomainError(f"operating duty {D:.4g} falls outside (0, 1)")
    return float(D)


def closed_form_lvalue(params: BuckParams, scheme: ControlScheme, D):
    """The scheme's L at duty D, ``scheme.lvalue``; D may be an array."""
    return scheme.lvalue(params, D)


# ---------------------------------------------------------------------------
# Closed-form critical conditions kept as plain functions.


def critical_cmc(params: BuckParams, D) -> float:
    """Ramp slope on the subharmonic boundary: (v_s/L)(D - 1/2).

    The loop is free of subharmonic oscillation iff m_a exceeds this;
    negative values (D < 1/2) mean no ramp is needed.
    """
    D = _check_duty(D)
    return _maybe_scalar((params.v_s / params.L) * (D - 0.5))


def critical_pvmc(params: BuckParams, k_p: float, D) -> CriticalResult:
    """PVMC/V^2 stability number with ESR included (see ``PVMC.lvalue``)."""
    return CriticalResult(lvalue=PVMC(k_p=k_p).lvalue(params, float(D)))


def critical_pvmc_noesr(params: BuckParams, k_p: float, D) -> CriticalResult:
    """Zero-ESR special case, L = (v_s k_p T^2 / 4 V_m L C)(2D^2 - 2D + 1)."""
    if params.R_c != 0.0:
        raise DomainError("this form requires R_c = 0")
    return critical_pvmc(params, k_p, D)


def v2_min_ramp(params: BuckParams, k_p: float, D: float) -> float:
    """Minimum stabilizing ramp slope for PVMC/V^2.

    Algebraically identical to rearranging the critical condition of
    ``critical_pvmc`` for m_a = V_m/T:

        m_a = (v_s k_p rho / L) [ R_c (2D-1)/2 + (T/4C)(2D^2-2D+1) ].
    """
    C = params.require_C()
    D = float(D)
    if D == 0.0:
        raise DomainError("D = 0 is outside the validity of the ramp bound")
    if not 0.0 < D < 1.0:
        raise DomainError("duty cycle must lie in (0, 1)")
    return (params.v_s * k_p * params.rho / params.L) * (
        params.R_c * (2.0 * D - 1.0) / 2.0
        + (params.T / (4.0 * C)) * (2.0 * D * D - 2.0 * D + 1.0)
    )


def v2_large_c_bound(params: BuckParams, D: float) -> float:
    """Large-capacitor limit of the ramp bound, (2D-1) v_s R_c / 2L."""
    return (2.0 * float(D) - 1.0) * params.v_s * params.R_c / (2.0 * params.L)


def v2_no_ramp_threshold(D: float) -> float:
    """Feasibility boundary for running without a ramp: the smallest
    R_c C / T that tolerates m_a = 0 at duty D.  Defined for D < 1/2."""
    D = float(D)
    if not 0.0 <= D < 0.5:
        raise DomainError("the no-ramp boundary exists only for D < 1/2")
    return 0.5 + D * D / (1.0 - 2.0 * D)


def v2_no_ramp_feasible(params: BuckParams, D: float) -> bool:
    """Is m_a = 0 free of subharmonic oscillation?

    Requires D < 1/2 and R_c C / T > 1/2 + D^2/(1 - 2D).
    """
    C = params.require_C()
    D = float(D)
    if not D < 0.5:
        return False
    return params.R_c * C / params.T > v2_no_ramp_threshold(D)


def v2_no_ramp_feasible_alt(params: BuckParams, D: float) -> bool:
    """The no-ramp test in its other arrangement,
    T/(R_c C) < 1/(1/2 + D^2/(1-2D)); the same test as
    ``v2_no_ramp_feasible``."""
    return v2_no_ramp_feasible(params, D)


def critical_pvmc_smallR(params: BuckParams, k_p: float, D) -> float:
    """Critical source voltage for the no-ESR, heavy-load case.

    The one statement of the load-pole model T(s) = (v_s k_p R / V_m L) /
    (s (1 + s R C)), which PVMC's double integrator leaves out; with the
    load pole p = 1/(R C omega_s):
        v_s = L V_m omega_s / (R k_p (alpha0(D) - alpha(D, p))).
    """
    if params.R_c != 0.0:
        raise DomainError("this form requires R_c = 0")
    C = params.require_C()
    V_m = _require_vm(params)
    p = 1.0 / (params.R * C * params.omega_s)
    gap = alpha0(D) - alpha(D, p)
    if gap <= 0.0:
        raise DomainError(
            "alpha0 - alpha is not positive here; no finite critical v_s"
        )
    return params.L * V_m * params.omega_s / (params.R * k_p * gap)


# -- RL plant with proportional feedback ------------------------------------


def _rl_peak_current(params: BuckParams, d: float) -> float:
    """Peak inductor current of the exact periodic RL solution at duty d."""
    tau = params.L / params.R
    a = -math.expm1(-d * params.T / tau)
    b = -math.expm1(-params.T / tau)
    return params.v_s / params.R * a / b


def rlp_steady_duty(params: BuckParams, k_p: float) -> float:
    """Steady-state duty from the modulator equation of the RL loop.

    Solves k_p (v_r - R i_peak(d)) = V_l + V_m d on (0, 1) using the exact
    periodic RL solution; returns 0 or 1 when the loop saturates.
    """

    def g(d):
        return (
            k_p * (params.v_r - params.R * _rl_peak_current(params, d))
            - params.V_l
            - params.V_m * d
        )

    if g(0.0) <= 0.0:
        return 0.0
    if g(1.0) >= 0.0:
        return 1.0
    return brentq(g, 0.0, 1.0, xtol=1e-15, rtol=8.9e-16)


def critical_rlp(params: BuckParams, k_p: float, D=None) -> CriticalResult:
    """Stability number of the RL loop, L = v_s k_p p alpha(D, p) / V_m.

    D defaults to the steady-state duty at this gain.
    """
    scheme = RLP(k_p=k_p)
    if D is None:
        D = scheme.nominal_duty(params)
    return CriticalResult(lvalue=scheme.lvalue(params, D))


def rlp_critical_kp(params: BuckParams) -> Tuple[float, float]:
    """Critical proportional gain of the RL loop and its duty cycle.

    The steady-state duty is pinned by the regulation limit of the
    modulator: the peak of the standard linear current ripple reaches the
    command v_r / R,

        v_s d + v_s d (1 - d) T R / (2 L) = v_r,

    whose smaller quadratic root lies in (0, 1) whenever v_r < v_s.  The
    critical condition v_s k_p p alpha(d, p) = V_m is linear in k_p, so
    k_p = 1 / L at k_p = 1, with no search bracket; NoRoot when that L is
    not positive.  Returns (k_p, d).

    The gain/duty pair is razor-sensitive to the duty convention: using
    the exact exponential ripple instead shifts the duty by 2e-4 and the
    gain by 0.09, landing on the exact switching threshold rather than
    the closed-form figure this routine targets.
    """
    _require_vm(params)
    a = params.v_s * params.T * params.R / (2.0 * params.L)  # half ripple
    b = params.v_s + a
    disc = b * b - 4.0 * a * params.v_r
    if disc < 0.0 or not params.v_r < params.v_s:
        raise NoRoot("the ripple peak never reaches the current command")
    d = (b - math.sqrt(disc)) / (2.0 * a)
    if not 0.0 < d < 1.0:
        raise NoRoot("steady-state duty falls outside (0, 1)")
    gain = RLP(k_p=1.0).lvalue(params, d)
    if not gain > 0.0:
        raise NoRoot(f"no positive critical gain at steady duty {d:.4f}")
    return 1.0 / gain, d


# -- Average current-mode control -------------------------------------------


def acmc_gain(params: BuckParams, scheme: ACMC) -> float:
    """Combined dimensionless gain K = v_s R_s K_c / (V_m z_c L omega_s)."""
    return scheme.gain(params)


def critical_acmc(params: BuckParams, scheme: ACMC, D) -> CriticalResult:
    """ACMC stability number L = K (alpha0(D) - alpha(D, p)), p = omega_p/omega_s.

    critical_value carries the critical source voltage when L is positive
    (otherwise no finite positive v_s exists and it is None).
    """
    D = float(D)
    lv = scheme.lvalue(params, D)
    crit_vs = scheme._critical(params, "v_s", D, lv) if lv > 0.0 else None
    return CriticalResult(lvalue=lv, critical_value=crit_vs)


def acmc_min_ramp(params: BuckParams, scheme: ACMC, D) -> float:
    """Minimum ramp slope, m_a = (v_s R_s K_c / 2 pi z_c L)(alpha0 - alpha)."""
    return scheme.critical(params, "m_a", float(D))


def acmc_window_estimate(K: float, D) -> Tuple[float, float]:
    """Estimated instability window of p for a combined gain K.

    Returns (1/(K alpha1(D)), 1/2 + (2D - 1 + 2e^{-pi D} - 1/(K pi)) /
    (4 pi D e^{-pi D})); the window is empty when p_low >= p_high.  The
    underlying approximations target K near 1 and mid-range D, so a
    warning is issued outside that neighbourhood.
    """
    if not K > 0.0:
        raise DomainError("K must be positive")
    D = float(D)
    if not 0.0 < D < 1.0:
        raise DomainError("D must lie in (0, 1)")
    if K < 1.0 / math.pi or not 0.1 <= D <= 0.7:
        warnings.warn(
            "window estimate used outside its nominal validity "
            "(K near 1, D in [0.1, 0.7]); treat the endpoints as rough",
            stacklevel=2,
        )
    p_low = 1.0 / (K * alpha1(D))
    e = math.exp(-math.pi * D)
    p_high = 0.5 + (2.0 * D - 1.0 + 2.0 * e - 1.0 / (K * math.pi)) / (
        4.0 * math.pi * D * e
    )
    return p_low, p_high


# -- Voltage-mode control with a type-III compensator -----------------------


def vmc3_gain(params: BuckParams, scheme: VMC3) -> float:
    """Combined dimensionless gain K = v_s K_c rho / (V_m kappa_z omega_s)."""
    return scheme.gain(params)


def critical_vmc3(params: BuckParams, scheme: VMC3, D) -> CriticalResult:
    """Type-III VMC critical source voltage.

    v_s = V_m kappa_z omega_s / (K_c rho (alpha0(D) - alpha(D, p))) with
    p = omega_p / omega_s; lvalue is K (alpha0 - alpha) at the present v_s.
    """
    D = float(D)
    lv = scheme.lvalue(params, D)
    return CriticalResult(lvalue=lv,
                          critical_value=scheme._critical(params, "v_s", D, lv))


# ---------------------------------------------------------------------------
# Parameter sweeps: L-plots, contours, crossings.


@dataclass(frozen=True)
class LPlotCurve:
    """L evaluated along one swept variable, with all L = 1 crossings."""

    variable: str
    grid: np.ndarray
    lvalues: np.ndarray
    crossings: Tuple[float, ...]


# every variable a sweep can run over: the duty, the compensator-pole
# ratio p = omega_p / omega_s, and fields of BuckParams or of the scheme
SWEEP_VARIABLES = ("D", "p", "v_s", "k_p", "omega_p", "K_c", "v_r")


def sweep_point(params: BuckParams, scheme: ControlScheme, variable: str):
    """The operating point along one swept variable, as a function of it.

    Raises DomainError at once when the variable is unknown or the scheme
    has no such field.  The returned function maps a value x to
    (params, scheme, D): D is x for a duty sweep and None otherwise (the
    point keeps its own duty).
    """
    if variable not in SWEEP_VARIABLES:
        raise DomainError(f"sweep variable must be one of {SWEEP_VARIABLES}")
    if variable == "D":
        return lambda x: (params, scheme, float(x))
    if variable in ("v_s", "v_r"):
        return lambda x: (replace(params, **{variable: x}), scheme, None)
    name = "omega_p" if variable == "p" else variable
    if not hasattr(scheme, name):
        raise DomainError(f"{type(scheme).__name__} has no {name} to sweep")
    if variable == "p":
        return lambda x: (
            params, replace(scheme, omega_p=x * params.omega_s), None)
    return lambda x: (params, replace(scheme, **{name: x}), None)


def _grid(values) -> np.ndarray:
    g = np.asarray(values, dtype=float)
    if g.ndim != 1 or g.size == 0:
        raise DomainError("sweep grid must be a non-empty 1-D sequence")
    steps = np.diff(g)
    if not (np.all(steps > 0.0) or np.all(steps < 0.0)):
        raise DomainError("sweep grid must be strictly monotone")
    return g


def grid_crossings(grid, lvalues, refine=None) -> list:
    """Every L = 1 crossing along a grid, in grid order.

    A grid point where L is exactly 1 counts as a crossing; a sign change
    of L - 1 between neighbours is refined by refine(lo, hi) when given
    and interpolated linearly otherwise.  Pairs with a non-finite value
    are skipped.
    """
    resid = np.asarray(lvalues, dtype=float) - 1.0
    a, b = resid[:-1], resid[1:]
    with np.errstate(invalid="ignore", over="ignore"):
        hit = np.isfinite(a) & np.isfinite(b) & ((a == 0.0) | (a * b < 0.0))
    out = []
    for i in np.flatnonzero(hit).tolist():
        if a[i] == 0.0:
            out.append(float(grid[i]))
        elif refine is None:
            t = a[i] / (a[i] - b[i])
            out.append(float(grid[i] + t * (grid[i + 1] - grid[i])))
        else:
            lo, hi = sorted((grid[i], grid[i + 1]))
            out.append(float(refine(lo, hi)))
    if len(grid) and np.isfinite(resid[-1]) and resid[-1] == 0.0:
        out.append(float(grid[-1]))
    return out


def lplot(
    params: BuckParams,
    scheme: ControlScheme,
    variable: str,
    grid: Sequence[float],
    duty: Optional[float] = None,
) -> LPlotCurve:
    """Evaluate L along a grid of one variable and locate all L = 1 crossings.

    The grid must be non-empty and strictly monotone.  Crossings between
    adjacent grid points are refined by Brent's method on the underlying
    closed form to full precision, in any units.  ``duty`` pins the duty
    cycle for sweeps that would otherwise re-derive it per point; a sweep
    over D refuses it.  A point whose re-derived duty leaves (0, 1) reads
    nan; when no point has a duty, the first point's error is raised.

    A sweep over D or p evaluates the whole grid in one array call of
    ``scheme.lvalue`` (no scheme's nominal duty moves with omega_p); one
    over v_s or k_p at a pinned duty and a nonzero ramp scales one L, to
    which it is proportional; other sweeps rebuild each grid point.
    """
    at = sweep_point(params, scheme, variable)
    g = _grid(grid)
    one_call = True
    missing = []  # the error of each point with no operating duty
    if variable == "D":
        if duty is not None:
            raise DomainError("a duty sweep takes no pinned duty")
        lvalue = lambda x: scheme.lvalue(params, x)
    elif variable == "p":
        # what replacing omega_p with p * omega_s would reject
        if np.any(g <= 0.0):
            raise DomainError("omega_p must be positive")
        D = duty if duty is not None else duty_ratio(params, scheme)
        lvalue = lambda x: scheme.lvalue(params, D, x)
    elif variable in ("v_s", "k_p") and duty is not None and params.V_m != 0.0:
        at(g[0]), at(g[-1])  # what rebuilding at each grid value would reject
        x0 = getattr(params if variable == "v_s" else scheme, variable)
        l0 = closed_form_lvalue(params, scheme, duty)
        lvalue = lambda x: l0 * x / x0
    else:
        one_call = False

        def lvalue(x):
            pr, sch, _ = at(x)
            try:
                D = duty if duty is not None else duty_ratio(pr, sch)
            except DomainError as exc:
                missing.append(exc)
                return math.nan
            return closed_form_lvalue(pr, sch, D)

    lv = lvalue(g) if one_call else np.array([lvalue(x) for x in g])
    if len(missing) == g.size:
        raise missing[0]
    crossings = grid_crossings(g, lv, lambda lo, hi: brentq(
        lambda x: lvalue(x) - 1.0, lo, hi,
        xtol=1e-15 * max(abs(lo), abs(hi)), rtol=8.9e-16))
    return LPlotCurve(variable, g, lv, tuple(sorted(crossings)))


def contour_data(D_grid: Sequence[float], p_grid: Sequence[float]) -> np.ndarray:
    """Surface alpha0(D) - alpha(D, p) over the grid, shape (len(D), len(p)).

    The supremum of the surface over the whole domain is pi.
    """
    D, p = _grid(D_grid), _grid(p_grid)
    return alpha0(D)[:, None] - alpha(D[:, None], p[None, :])


# ---------------------------------------------------------------------------
# Solving the critical condition for one chosen parameter.


def solve_critical(
    params: BuckParams,
    scheme: ControlScheme,
    solve_for: str,
    duty: Optional[float] = None,
) -> CriticalResult:
    """Solve L = 1 for one parameter (v_s, k_p, m_a, or D).

    Returns L at the present operating duty together with the critical
    parameter value.  One rule routes every scheme: with the duty pinned,
    or for a variable the nominal duty does not move with, the scheme's
    ``_critical`` at that duty gives the value; otherwise its ``_coupled``
    solve does, which re-derives the duty along the variable.  RLP's
    unpinned k_p is the paper's linear-ripple ``rlp_critical_kp``, its v_s
    takes the exact modulator duty (the two up to about 1 % apart in gain),
    and its m_a is refused, as no sweep moves the ramp.
    DomainError marks parameter/scheme pairs without a route; NoRoot means
    the search range contains no boundary.
    """
    if solve_for not in ("v_s", "k_p", "m_a", "D"):
        raise DomainError("solve-for must be one of v_s, k_p, m_a, D")
    D = float(duty) if duty is not None else duty_ratio(params, scheme)
    lv = closed_form_lvalue(params, scheme, D)
    if duty is None and solve_for in scheme.duty_depends_on:
        value = scheme._coupled(params, solve_for)
    else:
        value = scheme._critical(params, solve_for, D, lv)
    return CriticalResult(lvalue=lv, critical_value=value)
