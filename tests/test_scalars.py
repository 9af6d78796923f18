import math
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from melontau.scalars import GaussRat, minus_i_pow
from melontau.series import Series, TruncSpec


def test_i_squared():
    i = GaussRat(0, 1)
    assert i * i == GaussRat(-1)


def test_mixed_arithmetic():
    a = GaussRat(Fraction(1, 2), Fraction(-3, 4))
    assert a + 1 == GaussRat(Fraction(3, 2), Fraction(-3, 4))
    assert 2 * a == GaussRat(1, Fraction(-3, 2))
    assert a - a == GaussRat(0)
    assert (1 - a) + (a - 1) == GaussRat(0)


def test_division_and_pow():
    a = GaussRat(3, 4)
    assert a / a == GaussRat(1)
    assert a * (1 / a) == GaussRat(1)
    i = GaussRat(0, 1)
    assert i * i * i * i == GaussRat(1)
    with pytest.raises(ZeroDivisionError):
        a / GaussRat(0)


def test_minus_i_pow_cycle():
    want = GaussRat(1)
    for n in range(12):
        assert minus_i_pow(n) == want
        want = want * GaussRat(0, -1)


fracs = st.fractions(min_value=-50, max_value=50, max_denominator=12)
gauss = st.builds(GaussRat, fracs, fracs)


@given(gauss, gauss, gauss)
def test_field_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * (b * c) == (a * b) * c
    assert a + b == b + a
    if not b.is_zero():
        assert (a / b) * b == a


# -- the integer-triple representation against a two-Fraction reference ----


class PairRef:
    """Test-only oracle: re + im*i as two Fractions, the plain textbook way."""

    def __init__(self, re, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @classmethod
    def of(cls, x):
        if isinstance(x, GaussRat):
            return cls(x.re, x.im)
        return cls(x)

    def __add__(self, o):
        return PairRef(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        return PairRef(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        return PairRef(self.re * o.re - self.im * o.im,
                       self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        n = o.re * o.re + o.im * o.im
        return PairRef((self.re * o.re + self.im * o.im) / n,
                       (self.im * o.re - self.re * o.im) / n)


def agrees(g, ref):
    assert isinstance(g, GaussRat)
    assert (g.re, g.im) == (ref.re, ref.im)
    assert_canonical(g)


def assert_canonical(g):
    a, b, d = g._a, g._b, g._d
    assert d > 0
    assert math.gcd(a, b, d) == 1
    assert (Fraction(a, d), Fraction(b, d)) == (g.re, g.im)


wide_fracs = st.fractions(min_value=-10**6, max_value=10**6,
                          max_denominator=10**4)
ints = st.integers(min_value=-10**6, max_value=10**6)
gauss_wide = st.builds(GaussRat, wide_fracs, wide_fracs)
real_gauss = st.builds(GaussRat, wide_fracs)
zeroish = st.sampled_from([GaussRat(0), GaussRat(0, 0), 0, Fraction(0)])
operand = st.one_of(gauss_wide, real_gauss, ints, wide_fracs, zeroish)


@given(operand, operand)
def test_ops_match_pair_reference(x, y):
    if not isinstance(x, GaussRat) and not isinstance(y, GaussRat):
        x = GaussRat(x)
    rx, ry = PairRef.of(x), PairRef.of(y)
    agrees(x + y, rx + ry)
    agrees(x - y, rx - ry)
    if isinstance(x, GaussRat):
        agrees(-x, PairRef(0) - rx)
    agrees(x * y, rx * ry)
    if ry.re or ry.im:
        agrees(x / y, rx / ry)
    else:
        with pytest.raises(ZeroDivisionError):
            x / y


@given(st.one_of(wide_fracs, ints), st.one_of(wide_fracs, ints))
def test_constructor_is_canonical(re, im):
    g = GaussRat(re, im)
    assert_canonical(g)
    assert (g.re, g.im) == (Fraction(re), Fraction(im))


def test_constructor_takes_no_strings():
    with pytest.raises(TypeError):
        GaussRat("3/4")
    with pytest.raises(TypeError):
        GaussRat(1, "-2")


@given(operand, operand)
def test_equal_values_hash_equal(x, y):
    gx = x if isinstance(x, GaussRat) else GaussRat(x)
    gy = y if isinstance(y, GaussRat) else GaussRat(y)
    assert (gx == gy) == ((gx.re, gx.im) == (gy.re, gy.im))
    if gx == gy:
        assert hash(gx) == hash(gy)
    if gx == x:                    # also across int and Fraction
        assert hash(gx) == hash(x)
    # the same value reached by another route has the same triple
    assert gx == (gx * 3 + gx) / 4


@given(st.lists(st.tuples(gauss_wide, st.integers(0, 3),
                          st.integers(-2, 2)), max_size=6))
def test_serialize_round_trips(terms):
    # each line reads back as its term: the coefficient field as four
    # integers in lowest terms, the rest as str of the monomial
    trunc = TruncSpec(3, 2, 4)
    s = Series(trunc)
    for coeff, hl, zexp in terms:
        s.add_term(coeff, hl=hl, zexp=zexp, times=(((1, 2), 1),))
    lines = s.serialize().splitlines()
    assert len(lines) == len(s.terms)
    for line, (mono, c) in zip(lines, s.sorted_terms()):
        field, _, rest = line.partition(" * ")
        nre, dre, nim, dim = (int(x) for x in field.split("/"))
        assert dre > 0 and dim > 0
        assert math.gcd(nre, dre) == 1 == math.gcd(nim, dim)
        back = GaussRat(Fraction(nre, dre), Fraction(nim, dim))
        assert back == c and rest == str(mono)
        assert_canonical(back)
