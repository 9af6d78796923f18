"""Sparse exact series in sqrt(lambda), sqrt(N), sqrt(2), z and time variables.

Conventions
-----------
A monomial is

    sqrtLam^hl * sqrtN^hn * sqrt2^h2 * z^zexp * prod t[c,p]^e

with hl >= 0 (the coupling enters only through nonnegative powers of
sqrt(lambda)), hn and zexp arbitrary integers (Laurent), and times t[c,p]
indexed by a colour tag c >= 1 and a power index p >= 0.  t[c,0] is a real
variable like any other (partition functions depend on it through an exact
exponential prefactor).

sqrt2 normalization: so that equal values collide on equal keys, h2 is kept
in {0,1}; even powers of sqrt2 are folded into the rational coefficient at
term-construction time (see Monomial.mul's carry and Series.add_term).  lambda
means sqrtLam^2 and N means sqrtN^2 throughout.

Truncation: a TruncSpec is an explicit box (max sqrtLam power, max total time
degree, max time index, z window, max weighted time degree sum_p p*e_p; a
box built without a weight cap gets p_max * max_time_deg, which no
monomial in it exceeds).  Arithmetic silently discards out-of-box
products — truncation is part of the ring, not an error.  *Querying* a
coefficient outside the box is an error (OutsideTruncationError): the
caller is asking about an order the ring never tracked.  Shifting in z
refuses to silently drop (WindowError), because z shifts implement charge
factors whose loss would corrupt residues.

Everything is a plain dict keyed by Monomial; values are GaussRat and never
zero.  A Monomial caches its hash; the public constructor validates, merges
and sorts its times, while Monomial.mul (and through it Series.mul),
DiffOp.apply and the Series maps derive, shift_z, residue_z and eval_N,
whose inputs are valid monomials already, build their results unchecked,
and so does onematrix.z1mm_series from letter_products rows.
The two product kernels, Series.mul and DiffOp.apply, reject from
integers (time degree and weight, sqrtLam power and z) the pairs whose
product cannot land in the box, and merge the two sorted times tuples of
a pair that can (merge_times).  Only the index cap is left: apply checks
it once per operator term, and per term only when it is given a box that
keeps smaller indices than the series' ring; mul calls admits only when an
operand's box keeps larger indices than the product's.

USeries, at the end of the module, is the one-variable truncated series:
a coefficient list indexed by power, over Fraction or NPoly.  The one-matrix
checks at concrete size, both free energies and the 2x2 BCH closed form use it.
"""

from fractions import Fraction
from math import factorial

from .scalars import GaussRat


class OutsideTruncationError(Exception):
    """A coefficient was requested outside the series' truncation box."""


class WindowError(Exception):
    """A z shift or residue ran into the edge of the z window."""


def _as_coeff(x):
    if isinstance(x, GaussRat):
        return x
    if isinstance(x, (int, Fraction)):
        return GaussRat(x)
    raise TypeError("coefficient must be GaussRat/int/Fraction, got %r" % (x,))


def fold_h2(h2):
    """Normalize a sqrt2 exponent: (exponent in {0,1}, Fraction multiplier).

    >>> fold_h2(5)
    (1, Fraction(4, 1))
    >>> fold_h2(-3)
    (1, Fraction(1, 4))
    """
    if h2 >= 0:
        return h2 % 2, Fraction(2 ** (h2 // 2))
    k = (-h2 + 1) // 2
    return (-h2) % 2, Fraction(1, 2 ** k)


class Monomial:
    """Immutable monomial key.  times is a sorted tuple of ((c, p), e), e >= 1.

    >>> m = Monomial(hl=2, hn=-1, h2=1, zexp=0, times=(((1, 2), 3),))
    >>> m.time_degree(), m.time_weight()
    (3, 6)
    >>> a, carry = m.mul(m)
    >>> a.h2, carry        # sqrt2^2 folds into the coefficient
    (0, 2)
    """

    __slots__ = ("hl", "hn", "h2", "zexp", "times", "_key", "_hash")

    def __init__(self, hl=0, hn=0, h2=0, zexp=0, times=()):
        if hl < 0:
            raise ValueError("negative sqrtLam power")
        if h2 not in (0, 1):
            raise ValueError("h2 must be normalized to 0 or 1")
        _fill(self, hl, hn, h2, zexp, normal_times(times))

    @classmethod
    def _trusted(cls, hl, hn, h2, zexp, times):
        """Monomial from inputs already valid, merged and sorted (no checks).

        Only for callers that build times from valid Monomials' times or
        from letter_products rows: Monomial.mul, DiffOp.apply,
        Series.derive, shift_z, residue_z and eval_N, and z1mm_series.
        """
        m = _object_new(cls)
        _fill(m, hl, hn, h2, zexp, times)
        return m

    def time_degree(self):
        return sum(e for _, e in self.times)

    def time_weight(self):
        return sum(p * e for (_c, p), e in self.times)

    def grade(self):
        """(time degree, time weight) in one pass over the times."""
        deg = weight = 0
        for (_c, p), e in self.times:
            deg += e
            weight += p * e
        return deg, weight

    def mul(self, other):
        """Product monomial and the integer carry 2**((h2+h2')//2)."""
        h2 = self.h2 + other.h2
        mono = Monomial._trusted(self.hl + other.hl, self.hn + other.hn,
                                 h2 & 1, self.zexp + other.zexp,
                                 merge_times(self.times, other.times))
        return mono, (2 if h2 >= 2 else 1)

    def is_one(self):
        return self._key == (0, 0, 0, 0, ())

    def __eq__(self, other):
        return isinstance(other, Monomial) and self._key == other._key

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Monomial%r" % (self._key,)

    def __str__(self):
        parts = []
        if self.hl:
            parts.append("sqrtLam^%d" % self.hl)
        if self.hn:
            parts.append("sqrtN^%d" % self.hn)
        if self.h2:
            parts.append("sqrt2^%d" % self.h2)
        if self.zexp:
            parts.append("z^%d" % self.zexp)
        for (c, p), e in self.times:
            parts.append("t[%d,%d]^%d" % (c, p, e))
        return " * ".join(parts) if parts else "1"


_object_new = object.__new__


def normal_times(pairs):
    """The sorted times tuple of the letters ((c, p), e) in pairs, with
    the exponents of a repeated letter added; a letter needs c >= 1,
    p >= 0 and e >= 1.

    >>> normal_times([((2, 0), 1), ((1, 3), 2), ((2, 0), 1)])
    (((1, 3), 2), ((2, 0), 2))
    """
    merged = {}
    for (c, p), e in pairs:
        if c < 1 or p < 0 or e < 1:
            raise ValueError("bad time entry %r" % (((c, p), e),))
        merged[(c, p)] = merged.get((c, p), 0) + e
    return tuple(sorted(merged.items()))


def merge_times(a, b):
    """The times of the product of two monomials with times a and b: one
    merge pass over the two sorted tuples, adding the exponents of a
    shared letter.

    >>> merge_times((((1, 0), 1), ((2, 1), 2)), (((1, 2), 1), ((2, 1), 1)))
    (((1, 0), 1), ((1, 2), 1), ((2, 1), 3))
    """
    if not a or not b:
        return a or b
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        (ka, ea), (kb, eb) = a[i], b[j]
        if ka == kb:
            out.append((ka, ea + eb))
            i += 1
            j += 1
        elif ka < kb:
            out.append(a[i])
            i += 1
        else:
            out.append(b[j])
            j += 1
    return tuple(out) + a[i:] + b[j:]


def letter_products(letters, max_deg, max_weight):
    """Every product of the sorted letters (c, p), t[c,p] of weight p,
    within the degree and weight caps, as rows (times, degree, weight,
    prod e!) over its exponents e.  The empty product comes first; the
    rows run through the exponent tuples in lexicographic order, the first
    letter's exponent varying slowest.

    >>> for row in letter_products([(1, 0), (1, 2)], 2, 2):
    ...     print(row)
    ((), 0, 0, 1)
    ((((1, 2), 1),), 1, 2, 1)
    ((((1, 0), 1),), 1, 0, 1)
    ((((1, 0), 1), ((1, 2), 1)), 2, 2, 1)
    ((((1, 0), 2),), 2, 0, 2)
    """
    rows = [((), 0, 0, 1)]
    for key in letters:
        p = key[1]
        rows = [(times + ((key, e),) if e else times, d + e, w + p * e,
                 den * factorial(e))
                for times, d, w, den in rows for e in range(max_deg - d + 1)
                if w + p * e <= max_weight]
    return rows


def _fill(m, hl, hn, h2, zexp, times):
    m.hl = hl
    m.hn = hn
    m.h2 = h2
    m.zexp = zexp
    m.times = times
    m._key = key = (hl, hn, h2, zexp, times)
    m._hash = hash(key)


ONE_MONO = Monomial()


class TruncSpec:
    """Explicit truncation box.

    z_window is a closed interval [z_min, z_max].  max_time_weight caps
    sum_p p*e_p (t[c,0] has weight 0); it is the level cut that keeps the
    bilinear rings small.  Left out (None), it is derived as
    p_max * max_time_deg, the largest weight the other caps allow, so the
    box admits the same monomials as with no weight cap.

    >>> a = TruncSpec(4, 3, 5, (-2, 2))
    >>> a
    TruncSpec(max_hl=4, max_time_deg=3, p_max=5, z_window=(-2, 2), max_time_weight=15)
    >>> b = TruncSpec(2, 7, 4, (-1, 3), max_time_weight=10)
    >>> a.meet(b)
    TruncSpec(max_hl=2, max_time_deg=3, p_max=4, z_window=(-1, 2), max_time_weight=10)
    """

    __slots__ = ("max_hl", "max_time_deg", "p_max", "z_min", "z_max",
                 "max_time_weight")

    def __init__(self, max_hl, max_time_deg, p_max, z_window=(-64, 64),
                 max_time_weight=None):
        z_min, z_max = z_window
        if max_time_weight is None:
            max_time_weight = p_max * max_time_deg
        if (max_hl < 0 or max_time_deg < 0 or p_max < 0 or z_min > z_max
                or max_time_weight < 0):
            raise ValueError("empty truncation box")
        if 0 < z_min or 0 > z_max:
            raise ValueError("z window must contain 0")
        self.max_hl = max_hl
        self.max_time_deg = max_time_deg
        self.p_max = p_max
        self.z_min = z_min
        self.z_max = z_max
        self.max_time_weight = max_time_weight

    def admits(self, mono):
        if mono.hl > self.max_hl:
            return False
        if not (self.z_min <= mono.zexp <= self.z_max):
            return False
        deg = 0
        weight = 0
        for (_c, p), e in mono.times:
            if p > self.p_max:
                return False
            deg += e
            weight += p * e
        if deg > self.max_time_deg:
            return False
        return weight <= self.max_time_weight

    def require(self, mono):
        if not self.admits(mono):
            raise OutsideTruncationError("monomial %s outside %r" % (mono, self))

    def meet(self, other):
        """The intersection box; self itself when the two boxes are equal.

        Series.__add__ relies on that identity to skip re-filtering.
        """
        if other is self or other == self:
            return self
        return TruncSpec(min(self.max_hl, other.max_hl),
                         min(self.max_time_deg, other.max_time_deg),
                         min(self.p_max, other.p_max),
                         (max(self.z_min, other.z_min),
                          min(self.z_max, other.z_max)),
                         max_time_weight=min(self.max_time_weight,
                                             other.max_time_weight))

    def _caps(self):
        return (self.max_hl, self.max_time_deg, self.p_max, self.z_min,
                self.z_max, self.max_time_weight)

    def __eq__(self, other):
        return isinstance(other, TruncSpec) and self._caps() == other._caps()

    def __hash__(self):
        return hash(self._caps())

    def __repr__(self):
        return ("TruncSpec(max_hl=%d, max_time_deg=%d, p_max=%d, "
                "z_window=(%d, %d), max_time_weight=%d)"
                % (self.max_hl, self.max_time_deg, self.p_max, self.z_min,
                   self.z_max, self.max_time_weight))


class _Terms:
    """A sparse linear combination under a TruncSpec: terms maps each key
    to its nonzero GaussRat coefficient.  Series (keys: Monomials) and
    diffops.DiffOp (keys: (mono, mults, derivs)) share this linear
    structure; each keeps its own ring checks, sums and products."""

    __slots__ = ("trunc", "terms")

    def __init__(self, trunc):
        self.trunc = trunc
        self.terms = {}

    def _like(self, terms):
        """The same kind of object on the same ring, holding terms."""
        out = type(self)(self.trunc)
        out.terms = terms
        return out

    def _accumulate(self, key, coeff):
        """terms[key] += coeff, dropping a zero total."""
        terms = self.terms
        cur = terms.get(key)
        tot = coeff if cur is None else cur + coeff
        if tot.is_zero():
            terms.pop(key, None)
        else:
            terms[key] = tot

    def copy(self):
        return self._like(dict(self.terms))

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, type(self)) and self.terms == other.terms

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)

    def scale(self, coeff):
        coeff = _as_coeff(coeff)
        if coeff.is_zero():
            return self._like({})
        return self._like({k: c * coeff for k, c in self.terms.items()})


class Series(_Terms):
    """Truncated sparse series: dict Monomial -> nonzero GaussRat."""

    __slots__ = ()

    # -- construction helpers --------------------------------------------

    @classmethod
    def one(cls, trunc):
        s = cls(trunc)
        s._put(ONE_MONO, GaussRat(1))
        return s

    def _put(self, mono, coeff):
        """Accumulate coeff onto mono, silently discarding out-of-box."""
        if self.trunc.admits(mono):
            self._accumulate(mono, coeff)

    def add_term(self, coeff, hl=0, hn=0, h2=0, zexp=0, times=()):
        """Add coeff * monomial, folding even sqrt2 powers into coeff."""
        coeff = _as_coeff(coeff)
        h2, mult = fold_h2(h2)
        if mult != 1:
            coeff = coeff * GaussRat(mult)
        self._put(Monomial(hl, hn, h2, zexp, times), coeff)
        return self

    # -- queries ----------------------------------------------------------

    def coeff(self, mono):
        """Exact coefficient; raises if the box never tracked this order."""
        self.trunc.require(mono)
        return self.terms.get(mono, GaussRat(0))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0]._key)

    # -- linear structure -------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        s = Series(self.trunc.meet(other.trunc))
        s.terms = dict(self.terms)
        for mono, c in other.terms.items():
            s._accumulate(mono, c)
        if self.trunc is not s.trunc:
            s.terms = {m: c for m, c in s.terms.items() if s.trunc.admits(m)}
        return s

    # -- multiplicative structure -----------------------------------------

    def mul(self, other, admit=None):
        """Product under self.trunc ^ other.trunc.

        admit, if given, is an extra predicate on the product monomial;
        products failing it are discarded during the loop (used by the
        bilinear pipelines to keep only a verified sub-box).

        Every cap but the index cap is checked from integers before a
        product is built.  Time degree and weight add under multiplication,
        so the larger operand is bucketed by (time degree, time weight) and
        each term of the smaller one visits the buckets in sorted order: it
        stops at the first bucket over the box's time degree and skips
        those over its time weight.  Within a bucket the sqrtLam power and
        z are checked per pair.  A product's letters are its operands'
        letters, so admits runs only when an operand's p_max exceeds the
        product box's.
        """
        trunc = self.trunc.meet(other.trunc)
        out = Series(trunc)
        if not self.terms or not other.terms:
            return out
        small, big = self.terms, other.terms
        if len(small) > len(big):
            small, big = big, small
        max_deg = trunc.max_time_deg
        max_weight = trunc.max_time_weight
        check_p = max(self.trunc.p_max, other.trunc.p_max) > trunc.p_max
        buckets = {}
        for m2, c2 in big.items():
            buckets.setdefault(m2.grade(), []).append((m2, c2))
        buckets = sorted(buckets.items())
        put = out._accumulate
        for m1, c1 in small.items():
            deg1, weight1 = m1.grade()
            hl_cap = trunc.max_hl - m1.hl
            z_lo = trunc.z_min - m1.zexp
            z_hi = trunc.z_max - m1.zexp
            for (deg2, weight2), row in buckets:
                if deg1 + deg2 > max_deg:
                    break
                if weight1 + weight2 > max_weight:
                    continue
                for m2, c2 in row:
                    if m2.hl > hl_cap or not z_lo <= m2.zexp <= z_hi:
                        continue
                    mono, carry = m1.mul(m2)
                    if check_p and not trunc.admits(mono):
                        continue
                    if admit is not None and not admit(mono):
                        continue
                    c = c1 * c2
                    put(mono, c * carry if carry != 1 else c)
        return out

    def __mul__(self, other):
        """self.mul(other): the Series product that `*` spells."""
        return self.mul(other)

    # -- calculus in the times --------------------------------------------

    def derive(self, c, p):
        """d/dt[c,p].  Differentiation can only shrink the box: exact."""
        key = (c, p)
        s = Series(self.trunc)
        for m, coeff in self.terms.items():
            t = dict(m.times)
            e = t.get(key)
            if not e:
                continue
            if e == 1:
                del t[key]
            else:
                t[key] = e - 1
            s._put(Monomial._trusted(m.hl, m.hn, m.h2, m.zexp,
                                     tuple(t.items())), coeff * e)
        return s

    # -- z structure -------------------------------------------------------

    def shift_z(self, k):
        """Multiply by z**k; refuses to drop terms past the window."""
        s = Series(self.trunc)
        for m, c in self.terms.items():
            mono = Monomial._trusted(m.hl, m.hn, m.h2, m.zexp + k, m.times)
            if not self.trunc.admits(mono):
                raise WindowError("z^%d shift pushes %s outside window [%d,%d]"
                                  % (k, m, self.trunc.z_min, self.trunc.z_max))
            s._put(mono, c)
        return s

    def residue_z(self):
        """Coefficient of z^-1, as a z-free series over the same box.

        Raises WindowError if any term of self sits on the window boundary:
        a truncated window cannot certify the residue then, because products
        that would have cancelled may have been discarded.
        """
        for m in self.terms:
            if m.zexp in (self.trunc.z_min, self.trunc.z_max):
                raise WindowError("term %s touches the z window boundary; "
                                  "enlarge z_window" % (m,))
        s = Series(self.trunc)
        for m, c in self.terms.items():
            if m.zexp == -1:
                s._put(Monomial._trusted(m.hl, m.hn, m.h2, 0, m.times), c)
        return s

    # -- restriction / substitution ----------------------------------------

    def restrict(self, trunc):
        """Explicit re-truncation to self.trunc ^ trunc (silent discard)."""
        t = self.trunc.meet(trunc)
        s = Series(t)
        for m, c in self.terms.items():
            s._put(m, c)
        return s

    def filter(self, pred):
        """Keep only monomials satisfying pred; same truncation."""
        return self._like({m: c for m, c in self.terms.items() if pred(m)})

    def eval_N(self, n):
        """Substitute a concrete positive integer for N (= sqrtN^2).

        Every term must carry an even sqrtN power; odd powers would need
        sqrt(n) and are refused.
        """
        if n < 1:
            raise ValueError("N must be a positive integer")
        s = Series(self.trunc)
        for m, c in self.terms.items():
            if m.hn % 2:
                raise ValueError("odd sqrtN power in %s; cannot evaluate" % m)
            val = Fraction(n) ** (m.hn // 2)
            s._put(Monomial._trusted(m.hl, 0, m.h2, m.zexp, m.times),
                   c * val)
        return s

    # -- serialization -----------------------------------------------------

    def serialize(self):
        """Canonical text form, one term per line.

        The coefficient field is num_re/den_re/num_im/den_im (four integers);
        the factor fields that follow are str(Monomial): sqrtLam, sqrtN,
        sqrt2, z, then times sorted by (c, p), each as t[c,p]^e.  The unit
        monomial prints as the bare coefficient.

        >>> t = TruncSpec(2, 2, 4)
        >>> s = Series(t).add_term(Fraction(-3, 4), hl=2, hn=-2,
        ...                        times=(((1, 2), 1),))
        >>> s.serialize()
        '-3/4/0/1 * sqrtLam^2 * sqrtN^-2 * t[1,2]^1'
        """
        lines = []
        for mono, c in self.sorted_terms():
            f = "%d/%d/%d/%d" % (c.re.numerator, c.re.denominator,
                                 c.im.numerator, c.im.denominator)
            lines.append(f if mono.is_one() else f + " * " + str(mono))
        return "\n".join(lines)

    def __str__(self):
        if not self.terms:
            return "0"
        return " + ".join("(%s)*%s" % (c, m) for m, c in self.sorted_terms())

    __repr__ = __str__


def parse_series(text, trunc):
    """Inverse of Series.serialize (round-trips exactly).

    >>> t = TruncSpec(2, 2, 4)
    >>> s = Series(t).add_term(Fraction(1, 2), hl=1, h2=1, zexp=-1)
    >>> parse_series(s.serialize(), t) == s
    True
    """
    s = Series(trunc)
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        fields = [f.strip() for f in line.split("*")]
        nre, dre, nim, dim = (int(x) for x in fields[0].split("/"))
        coeff = GaussRat(Fraction(nre, dre), Fraction(nim, dim))
        hl = hn = h2 = zexp = 0
        times = {}
        for f in fields[1:]:
            name, exp = f.rsplit("^", 1)
            exp = int(exp)
            if name == "sqrtLam":
                hl = exp
            elif name == "sqrtN":
                hn = exp
            elif name == "sqrt2":
                h2 = exp
            elif name == "z":
                zexp = exp
            elif name.startswith("t[") and name.endswith("]"):
                c_, p = name[2:-1].split(",")
                times[(int(c_), int(p))] = exp
            else:
                raise ValueError("unknown factor %r" % f)
        s.add_term(coeff, hl=hl, hn=hn, h2=h2, zexp=zexp,
                   times=tuple(times.items()))
    return s


class USeries:
    """Truncated power series c[0] + c[1] x + ... + c[order] x^order in one
    variable x, with exact coefficients: Fractions, or NPolys in N.

    A sum, product or quotient keeps the smaller order of its two operands.
    The constructor promotes ints through `zero`, the zero of the
    coefficient ring, and pads the list with it up to the order.

    >>> x = USeries([0, 1], 3)
    >>> one = USeries([1], 3)
    >>> e = USeries([1, 1, Fraction(1, 2), Fraction(1, 6)], 3)    # exp(x)
    >>> e.log() == x
    True
    >>> (one / (one - x)).c                                       # 1/(1-x)
    [Fraction(1, 1), Fraction(1, 1), Fraction(1, 1), Fraction(1, 1)]
    >>> ((x * e).shift_down() - e).c          # x*e lost the x^3 term of e
    [Fraction(0, 1), Fraction(0, 1), Fraction(0, 1), Fraction(-1, 6)]
    """

    __slots__ = ("c",)

    def __init__(self, c, order, zero=Fraction(0)):
        if order < 0:
            raise ValueError("series order must be >= 0, got %d" % order)
        c = [zero + x for x in c[:order + 1]]
        self.c = c + [zero] * (order + 1 - len(c))

    @property
    def order(self):
        return len(self.c) - 1

    def _like(self, c):
        """The series with coefficient list c, already in self's ring."""
        out = object.__new__(USeries)
        out.c = c
        return out

    def __getitem__(self, k):
        return self.c[k]

    def __iter__(self):
        return iter(self.c)

    def __eq__(self, other):
        return isinstance(other, USeries) and self.c == other.c

    def __repr__(self):
        return "USeries(%r)" % (self.c,)

    def __add__(self, other):
        return self._like([a + b for a, b in zip(self.c, other.c)])

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + -other

    def __mul__(self, other):
        """Series product, or the product with a scalar coefficient."""
        if not isinstance(other, USeries):
            return self._like([a * other for a in self.c])
        n = min(self.order, other.order)
        zero = self.c[0] * 0
        out = [zero] * (n + 1)
        for i, a in enumerate(self.c[:n + 1]):
            if a == zero:
                continue
            for j, b in enumerate(other.c[:n + 1 - i]):
                out[i + j] = out[i + j] + a * b
        return self._like(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        """self / other; the constant term of other must be invertible."""
        inv = 1 / other.c[0]
        out = []
        for n in range(min(self.order, other.order) + 1):
            acc = self.c[n]
            for k in range(n):
                acc = acc + out[k] * other.c[n - k] * -1
            out.append(acc * inv)
        return self._like(out)

    def log(self):
        """log of a series whose constant term is 1."""
        one = self.c[0]
        zero = one * 0
        if one * one != one or one == zero:   # 1 is the nonzero idempotent
            raise ValueError("log needs constant term 1, got %r" % (one,))
        u = USeries([zero] + self.c[1:], self.order, zero)
        out = USeries([], self.order, zero)
        power = USeries([one], self.order, zero)
        for k in range(1, self.order + 1):
            power = power * u
            out = out + power * Fraction((-1) ** (k + 1), k)
        return out

    def shift_down(self):
        """Divide by x; the constant term must vanish."""
        zero = self.c[0] * 0
        if self.c[0] != zero:
            raise ValueError("shift_down needs constant term 0")
        return self._like(self.c[1:] + [zero])
