"""Bracketed scalar root finders, ported line for line from the classic C
routines ``brentq.c`` and ``bisect.c`` (Brent, 1973, ch. 4): same defaults,
iteration order and stopping rules, so each returns the reference's float."""

from .errors import NoConvergence, NumericalFailure


def _nan(x):
    return NumericalFailure(f"root finder: f({x!r}) is NaN")


def _eval(f, x):
    fx = float(f(x))
    if fx != fx:  # NaN
        raise _nan(x)
    return fx


def brentq(f, a, b, xtol=2e-12, rtol=8.881784197001252e-16, maxiter=100):
    """Root of f in [a, b], where f(a) and f(b) differ in sign."""
    xpre, xcur = float(a), float(b)
    fpre, fcur = _eval(f, xpre), _eval(f, xcur)
    if fpre == 0.0 or fcur == 0.0:
        return xpre if fpre == 0.0 else xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise NumericalFailure(f"brentq: f has one sign on [{a!r}, {b!r}]")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        short = False
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = (-fcur * (fblk * dblk - fpre * dpre)
                        / (dblk * dpre * (fblk - fpre)))
            short = 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta)
        spre, scur = (scur, stry) if short else (sbis, sbis)
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        # _eval inlined in both loops: one call fewer per iteration
        fcur = float(f(xcur))
        if fcur != fcur:
            raise _nan(xcur)
    raise NoConvergence(f"brentq: no convergence in {maxiter} iterations, at {xcur!r}")


def bisect(f, a, b, xtol=2e-12, rtol=8.881784197001252e-16, maxiter=100):
    """Root of f in [a, b] by halving, where f(a) and f(b) differ in sign."""
    a, b = float(a), float(b)
    fa, fb = _eval(f, a), _eval(f, b)
    if fa * fb > 0.0:
        raise NumericalFailure(f"bisect: f has one sign on [{a!r}, {b!r}]")
    if fa == 0.0 or fb == 0.0:
        return a if fa == 0.0 else b
    dm = b - a
    for _ in range(maxiter):
        dm *= 0.5
        xm = a + dm
        fm = float(f(xm))
        if fm != fm:
            raise _nan(xm)
        if fm * fa >= 0.0:
            a = xm
        if fm == 0.0 or abs(dm) < xtol + rtol * abs(xm):
            return xm
    raise NoConvergence(f"bisect: no convergence in {maxiter} iterations, at {a!r}")
