"""Factored rational transfer functions."""

import math

import numpy as np
import pytest

from subharmonic import DomainError, RationalTF


def test_evaluation_matches_coefficient_form():
    T = RationalTF(2.5, zeros=[3.0], poles=[7.0, 11.0], integrators=2,
                   quad_zeros=[(0.1, 0.02)], quad_poles=[(0.05, 0.01)])
    s = np.array([0.3j, 1.0 + 2.0j, -0.5 + 4.0j, 100.0j])
    num = np.polynomial.polynomial.polyval(s, T.num_coeffs())
    den = np.polynomial.polynomial.polyval(s, T.den_coeffs())
    np.testing.assert_allclose(T(s), num / den, rtol=1e-12)


def test_orders_and_relative_degree():
    T = RationalTF(1.0, zeros=[2.0], poles=[5.0], integrators=1,
                   quad_poles=[(0.1, 0.2)])
    assert T.num_order == 1
    assert T.den_order == 4
    assert T.relative_degree == 3
    assert T.at_infinity() == 0.0


def test_at_infinity_for_relative_degree_zero():
    # scale * (s/wz) / (s/wp) -> scale * wp / wz
    T = RationalTF(3.0, zeros=[2.0], poles=[8.0])
    assert T.at_infinity() == pytest.approx(12.0, rel=1e-15)
    big = T(1j * 1e12)
    assert abs(big - 12.0) < 1e-9


def test_at_infinity_with_quadratic_factors():
    # each quadratic factor tends to b2 s^2, so T -> scale * b2_z / b2_p
    T = RationalTF(3.0, zeros=[2.0], poles=[8.0],
                   quad_zeros=[(0.1, 0.02), (0.3, 0.05)],
                   quad_poles=[(0.05, 0.01), (0.2, 0.04)])
    want = 3.0 * 8.0 / 2.0 * (0.02 * 0.05) / (0.01 * 0.04)
    assert T.at_infinity() == pytest.approx(want, rel=1e-15)
    assert abs(T(1j * 1e12) - want) < 1e-9 * want


def test_scaled_multiplies_pointwise():
    T = RationalTF(1.5, poles=[4.0], integrators=1)
    s = 0.7j
    assert T.scaled(-2.0)(s) == pytest.approx(-2.0 * T(s), rel=1e-15)
    assert T.scaled(-2.0).zeros == T.zeros


def test_scalar_and_array_evaluation_agree():
    T = RationalTF(1.0, zeros=[1.0], poles=[3.0, 9.0], integrators=1)
    s = np.array([0.2j, 5.0j])
    both = T(s)
    assert both[0] == T(s[0])
    assert both[1] == T(s[1])


def test_frozen_spot_value():
    T = RationalTF(10.0, zeros=[100.0], poles=[1000.0], integrators=1)
    got = T(1j * 300.0)
    # 10 * (1+3j) / (j300 * (1+0.3j))
    want = 10.0 * (1.0 + 3.0j) / (300j * (1.0 + 0.3j))
    assert got == pytest.approx(want, rel=1e-14)


@pytest.mark.parametrize("kw", [
    dict(zeros=[-1.0]),
    dict(poles=[0.0]),
    dict(integrators=-1),
    dict(quad_poles=[(0.1, 0.0)]),
    dict(quad_zeros=[(0.1, -0.5)]),
    dict(zeros=[1.0, 2.0], poles=[3.0]),   # improper
    dict(scale=math.nan, poles=[1.0]),
    dict(scale=-math.inf, poles=[1.0]),
    dict(poles=[math.inf], integrators=1),
    dict(zeros=[math.inf], poles=[1.0]),
    dict(quad_poles=[(math.nan, 0.5)]),
    dict(quad_zeros=[(math.inf, 0.5)], quad_poles=[(0.1, 0.5)]),
    dict(quad_poles=[(0.1, math.inf)]),
    dict(integrators=1.5),
    dict(integrators=math.nan),
    dict(integrators=math.inf),
])
def test_construction_validation(kw):
    with pytest.raises(DomainError):
        RationalTF(**{"scale": 1.0, **kw})


def test_a_whole_integrator_count_of_any_type_is_taken():
    for m in (2, 2.0, np.int64(2)):
        T = RationalTF(1.0, poles=[3.0], integrators=m)
        assert type(T.integrators) is int and T.integrators == 2


def test_immutability():
    T = RationalTF(1.0, poles=[3.0])
    with pytest.raises(Exception):
        T.scale = 2.0


# ---- evaluation keeps the bits of the plain product form -------------


def _reference_eval(T, s):
    # the plain expression: full and ones to start, s / w, s**m
    s = np.asarray(s, dtype=complex)
    num = np.full(s.shape, T.scale, dtype=complex)
    for w in T.zeros:
        num = num * (1.0 + s / w)
    for b1, b2 in T.quad_zeros:
        num = num * (1.0 + b1 * s + b2 * s * s)
    den = np.ones(s.shape, dtype=complex)
    for w in T.poles:
        den = den * (1.0 + s / w)
    for b1, b2 in T.quad_poles:
        den = den * (1.0 + b1 * s + b2 * s * s)
    if T.integrators:
        den = den * s**T.integrators
    return num / den


def _bits(z):
    return np.atleast_1d(np.asarray(z, dtype=complex)).view(float)


_CORNERS = [0.37, 2.9, 13.0]
_QUADS = [(0.31, 0.047), (0.012, 0.0009)]


def _shapes():
    yield RationalTF(-2.5)  # a static gain
    for nz in range(4):
        for np_ in range(4):
            for m in range(4):
                if nz > np_ + m:
                    continue
                yield RationalTF(1.7, zeros=_CORNERS[:nz], poles=_CORNERS[:np_][::-1],
                                 integrators=m)
    for m in range(4):
        yield RationalTF(-0.8, zeros=[5.0], poles=[0.9], integrators=m,
                         quad_zeros=_QUADS[:1], quad_poles=_QUADS)
        yield RationalTF(3.0, quad_poles=_QUADS[1:], integrators=m)
        yield RationalTF(1e3, quad_zeros=_QUADS[1:], quad_poles=_QUADS[:1],
                         poles=[40.0], integrators=m)


def _points():
    rng = np.random.default_rng(7)
    w = np.exp(rng.uniform(np.log(1e-4), np.log(1e5), 3000))
    on_axis = 1j * np.concatenate([w, -w[:50]])
    off_axis = (rng.normal(size=3000) * np.exp(rng.uniform(-8.0, 10.0, 3000))
                + 1j * rng.normal(size=3000) * np.exp(rng.uniform(-8.0, 10.0, 3000)))
    return on_axis, off_axis


@pytest.mark.parametrize("T", list(_shapes()), ids=repr)
def test_evaluation_has_the_bits_of_the_product_form(T):
    for s in _points():
        got, want = T(s), _reference_eval(T, s)
        assert got.dtype == want.dtype and got.shape == s.shape
        assert np.array_equal(_bits(got), _bits(want))
    # a scalar has the bits of a one-element array
    for s in np.concatenate([p[::150] for p in _points()]).tolist():
        got, want = T(s), _reference_eval(T, np.array([s]))[0]
        assert type(got) is np.complex128
        assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("T", [t for t in _shapes() if t.integrators], ids=repr)
def test_evaluation_at_the_origin_puts_inf_and_nan_where_the_product_form_does(T):
    s = np.array([0.0, complex(-0.0, 0.0), complex(0.0, -0.0), 1j])
    with np.errstate(divide="ignore", invalid="ignore"):
        got, want = T(s), _reference_eval(T, s)
        scalar = T(0.0)
        assert type(scalar) is np.complex128
        assert np.array_equal(_bits(scalar), _bits(_reference_eval(T, s[:1])),
                              equal_nan=True)
    assert not np.isfinite(got[:3]).any()
    assert np.array_equal(np.isnan(_bits(got)), np.isnan(_bits(want)))
    assert np.array_equal(_bits(got), _bits(want), equal_nan=True)


def test_static_gain_evaluates_to_its_scale_at_any_shape():
    T = RationalTF(-2.5)
    assert type(T(0.3j)) is np.complex128 and T(0.3j) == -2.5
    out = T(np.zeros((2, 3), dtype=complex))
    assert out.shape == (2, 3) and out.dtype == complex
    assert np.all(out == -2.5)
