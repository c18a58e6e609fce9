"""The package's bracketed root finders against scipy.optimize, to the bit."""

import math

import numpy as np
import pytest
from scipy import optimize

from subharmonic import _roots
from subharmonic.errors import NoConvergence, NumericalFailure

# the tolerances the package's call sites use
CASES = [
    ("brentq", dict(xtol=1e-15, rtol=8.9e-16)),
    ("brentq", dict(xtol=1e-13, rtol=8.9e-16)),
    ("bisect", dict(rtol=1e-9)),
    ("bisect", dict(rtol=1e-13)),
]


def _brackets(seed, count=200):
    """Seeded (f, a, b) with a sign change: random polynomials and smooth shapes."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        coeffs = rng.normal(size=rng.integers(2, 8))
        shift, scale = rng.uniform(-3, 3), 10.0 ** rng.uniform(-3, 3)
        if rng.random() < 0.5:
            def f(x, c=coeffs, s=scale):
                return s * np.polyval(c, x)
        else:
            def f(x, c=coeffs, r=shift, s=scale):
                return s * (math.tanh(x - r) + 0.3 * math.sin(c[0] * x) * (x - r))
        a, b = sorted(rng.uniform(-4, 4, size=2))
        if a < b and f(a) * f(b) < 0.0:
            out.append((f, float(a), float(b)))
    return out


@pytest.mark.parametrize("seed,name,tols", [(k, *case) for k, case in enumerate(CASES)])
def test_matches_scipy_to_the_bit(seed, name, tols):
    for f, a, b in _brackets(seed):
        ours = getattr(_roots, name)(f, a, b, **tols)
        ref = getattr(optimize, name)(f, a, b, **tols)
        assert type(ours) is float
        assert ours == ref, (a, b)


@pytest.mark.parametrize("name", ["brentq", "bisect"])
def test_failures_raise_package_errors(name):
    solve = getattr(_roots, name)
    with pytest.raises(NumericalFailure):
        solve(lambda x: x * x + 1.0, -1.0, 1.0)
    with pytest.raises(NumericalFailure):
        solve(lambda x: math.nan if 0.3 < x < 0.9 else x - 0.5, 0.0, 1.0)
    with pytest.raises(NoConvergence):
        solve(lambda x: x ** 3 - 0.3, 0.0, 1.0, xtol=1e-300, maxiter=3)
