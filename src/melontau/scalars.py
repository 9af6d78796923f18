"""Exact Gaussian-rational scalars.

Every coefficient in this package is an element of Q(i), held as one
canonical integer triple (a, b, d) meaning (a + b*i)/d, with d > 0 and
gcd(a, b, d) == 1, so equal values have equal triples.  Each operation
reduces its result with a single gcd.  There is deliberately no float
anywhere: equality of two series really means equality, and a residual
"vanishes" only if every stored coefficient is exactly zero.
"""

from fractions import Fraction
from math import gcd


def _frac(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("expected int/Fraction, got %r" % (x,))


class GaussRat:
    """A Gaussian rational re + im*i with exact rational parts.

    >>> i = GaussRat(0, 1)
    >>> i * i
    GaussRat(-1, 0)
    >>> (GaussRat(1, 2) / GaussRat(1, 2)).is_one()
    True
    >>> GaussRat(Fraction(3, 4)) + GaussRat(Fraction(1, 4))
    GaussRat(1, 0)
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            self._a, self._b, self._d = re, im, 1
            return
        re, im = _frac(re), _frac(im)
        d1, d2 = re.denominator, im.denominator
        d = d1 * d2 // gcd(d1, d2)
        # re and im are reduced, so this triple is already canonical
        self._a = re.numerator * (d // d1)
        self._b = im.numerator * (d // d2)
        self._d = d

    @property
    def re(self):
        return Fraction(self._a, self._d)

    @property
    def im(self):
        return Fraction(self._b, self._d)

    # -- basic queries ----------------------------------------------------

    def is_zero(self):
        return not self._a and not self._b

    def is_one(self):
        return self._a == 1 and not self._b and self._d == 1

    # -- arithmetic -------------------------------------------------------
    # Operands are a GaussRat, an int or a Fraction; anything else gets
    # NotImplemented.  A Fraction n/f is the triple (n, 0, f).

    def _add(self, other):
        a, b, d = self._a, self._b, self._d
        if type(other) is GaussRat:
            c, e, f = other._a, other._b, other._d
            if d == f:
                return _reduced(a + c, b + e, d)
            return _reduced(a * f + c * d, b * f + e * d, d * f)
        if isinstance(other, int):
            return _new(a + other * d, b, d)       # still canonical
        if isinstance(other, Fraction):
            c, f = other.numerator, other.denominator
            return _reduced(a * f + c * d, b * f, d * f)
        return NotImplemented

    # class attributes of their own, so each can be wrapped separately
    __add__ = __radd__ = _add

    def __neg__(self):
        return _new(-self._a, -self._b, self._d)

    def __sub__(self, other):
        if isinstance(other, (GaussRat, int, Fraction)):
            return self._add(-other)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return (-self)._add(other)
        return NotImplemented

    def __mul__(self, other):
        a, b, d = self._a, self._b, self._d
        if type(other) is GaussRat:
            c, e, f = other._a, other._b, other._d
            if not b and not e:
                return _reduced(a * c, 0, d * f)
            return _reduced(a * c - b * e, a * e + b * c, d * f)
        if isinstance(other, int):
            # gcd(a, b, d) == 1 makes dividing d and other by their gcd enough
            g = gcd(other, d)
            if g != 1:
                other //= g
                d //= g
            return _new(a * other, b * other, d)
        if isinstance(other, Fraction):
            c, f = other.numerator, other.denominator
            return _reduced(a * c, b * c, d * f)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b, d = self._a, self._b, self._d
        if type(other) is GaussRat:
            c, e, f = other._a, other._b, other._d
        elif isinstance(other, int):
            c, e, f = other, 0, 1
        elif isinstance(other, Fraction):
            c, e, f = other.numerator, 0, other.denominator
        else:
            return NotImplemented
        # ((a + b i)/d) / ((c + e i)/f) = (a + b i)(c - e i) f / (d (c^2 + e^2))
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("division by zero GaussRat")
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, d * n)

    def __rtruediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return GaussRat(other) / self
        return NotImplemented

    # -- hashing / display ------------------------------------------------

    def __eq__(self, other):
        if type(other) is GaussRat:
            return (self._a == other._a and self._b == other._b
                    and self._d == other._d)
        if isinstance(other, int):
            return not self._b and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            return (not self._b and self._a == other.numerator
                    and self._d == other.denominator)
        return NotImplemented

    def __hash__(self):
        # a real value hashes like the int or Fraction it equals
        if not self._b:
            if self._d == 1:
                return hash(self._a)
            return hash(Fraction(self._a, self._d))
        return hash((self._a, self._b, self._d))

    def __repr__(self):
        return "GaussRat(%s, %s)" % (self.re, self.im)

    def __str__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        if re == 0:
            return "%s*i" % im
        sign = "+" if im > 0 else "-"
        return "%s%s%s*i" % (re, sign, abs(im))


_object_new = object.__new__


def _new(a, b, d):
    """GaussRat from a triple that is already canonical (no checks)."""
    g = _object_new(GaussRat)
    g._a = a
    g._b = b
    g._d = d
    return g


def _reduced(a, b, d):
    """GaussRat (a + b*i)/d for any d > 0, reduced by one gcd."""
    g = gcd(a, b, d)
    if g != 1:
        a //= g
        b //= g
        d //= g
    return _new(a, b, d)


def minus_i_pow(n):
    """(-i)**n for integer n, cheaply.

    >>> [str(minus_i_pow(k)) for k in range(4)]
    ['1', '-1*i', '-1', '1*i']
    """
    return (GaussRat(1), GaussRat(0, -1), GaussRat(-1), GaussRat(0, 1))[n % 4]
