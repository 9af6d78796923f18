"""Differential operators on the time ring, in normal-ordered form.

A DiffOp is a finite sum of terms

    coeff * mono * prod t[c,p]^mults * prod (d/dt[c,p])^derivs

with the derivatives standing to the right (they act first).  mono is a
time-free Monomial (sqrtLam/sqrtN/sqrt2/z only); all time dependence of the
operator lives in mults so that normal ordering is well defined.

Composition uses the one-variable Weyl relation

    d^a t^b = sum_{k<=min(a,b)} C(a,k) * b!/(b-k)! * t^{b-k} d^{a-k}

variable by variable.  Terms are restricted to the truncation's ring: mults
or derivs touching an index p > p_max are dropped (a derivative in a variable
the ring does not retain annihilates every ring element, and a multiplication
by it leaves the ring), and mono factors with hl > max_hl or z outside the
window are dropped for the same reason.  The identities checked here are all
graded in sqrtLam degree, so grade-by-grade restriction is sound.
"""

from fractions import Fraction
from math import comb

from .scalars import GaussRat
from .series import Monomial, Series


def _msorted(pairs):
    d = {}
    for k, e in pairs:
        d[k] = d.get(k, 0) + e
    return tuple(sorted((k, e) for k, e in d.items() if e))


def _madd(a, b):
    d = dict(a)
    for k, e in b:
        d[k] = d.get(k, 0) + e
    return _msorted(d.items())


class DiffOp:
    """Normal-ordered operator under a TruncSpec ring restriction.

    >>> from melontau.series import TruncSpec
    >>> T = TruncSpec(0, 2, 2)
    >>> d = DiffOp(T).add_term(1, derivs=(((1, 1), 1),))
    >>> t = DiffOp(T).add_term(1, mults=(((1, 1), 1),))
    >>> d.commutator(t) == DiffOp(T).add_term(1)          # [d/dt, t] = 1
    True
    """

    __slots__ = ("trunc", "terms")

    def __init__(self, trunc):
        self.trunc = trunc
        self.terms = {}          # (mono, mults, derivs) -> GaussRat

    def _admit(self, mono, mults, derivs):
        if mono.times:
            raise ValueError("operator mono factor must be time-free")
        # apply builds Monomials from these entries without re-checking them
        for (c, p), e in mults + derivs:
            if c < 1 or p < 0 or e < 1:
                raise ValueError("bad time entry %r" % (((c, p), e),))
        if mono.hl > self.trunc.max_hl:
            return False
        if not (self.trunc.z_min <= mono.zexp <= self.trunc.z_max):
            return False
        return all(p <= self.trunc.p_max for (_c, p), _e in mults + derivs)

    def add_term(self, coeff, mono=None, mults=(), derivs=()):
        coeff = coeff if isinstance(coeff, GaussRat) else GaussRat(coeff)
        mono = mono or Monomial()
        mults = _msorted(mults)
        derivs = _msorted(derivs)
        if coeff.is_zero() or not self._admit(mono, mults, derivs):
            return self
        key = (mono, mults, derivs)
        cur = self.terms.get(key)
        tot = coeff if cur is None else cur + coeff
        if tot.is_zero():
            self.terms.pop(key, None)
        else:
            self.terms[key] = tot
        return self

    # -- linear structure --------------------------------------------------

    def is_zero(self):
        return not self.terms

    def __add__(self, other):
        out = DiffOp(self.trunc)
        out.terms = dict(self.terms)
        for (m, mu, de), c in other.terms.items():
            out.add_term(c, m, mu, de)
        return out

    def __neg__(self):
        out = DiffOp(self.trunc)
        out.terms = {k: -c for k, c in self.terms.items()}
        return out

    def __sub__(self, other):
        return self + (-other)

    def scale(self, coeff):
        coeff = coeff if isinstance(coeff, GaussRat) else GaussRat(coeff)
        out = DiffOp(self.trunc)
        if not coeff.is_zero():
            out.terms = {k: c * coeff for k, c in self.terms.items()}
        return out

    def __eq__(self, other):
        return isinstance(other, DiffOp) and self.terms == other.terms

    # -- action on series --------------------------------------------------

    def apply(self, series, admit=None):
        """self applied to series, restricted to the ring.

        admit, if given, is an extra predicate admit(hl, times) on each
        result's sqrtLam power and time letters, checked before the
        Monomial is built; rejected results are discarded.

        Only pairs that can land in the ring are visited.  A per-call index
        maps each time letter (c, p) to the series terms containing it, in
        series order (so results arrive in the order of a double loop),
        and an op term with derivatives runs over the shortest list among
        its derivative letters (any other term is annihilated).  Each
        candidate is then checked from integers before its times are
        copied: sqrtLam power, z window, and the series term's time degree
        and weight plus the op term's change of them.
        """
        out = Series(series.trunc)
        terms = out.terms
        box = out.trunc
        admits = box.admits
        trusted = Monomial._trusted
        entries = []
        by_letter = {}
        for sm, sc in series.terms.items():
            entry = (sm, sc) + sm.grade()
            entries.append(entry)
            for key, _e in sm.times:
                by_letter.setdefault(key, []).append(entry)
        for (m, mu, de), c in self.terms.items():
            if de:
                candidates = min((by_letter.get(key, ()) for key, _a in de),
                                 key=len)
            else:
                candidates = entries
            hl_cap = box.max_hl - m.hl
            z_lo = box.z_min - m.zexp
            z_hi = box.z_max - m.zexp
            deg_cap = (box.max_time_deg - sum(b for _k, b in mu)
                       + sum(a for _k, a in de))
            weight_cap = (box.max_time_weight
                          - sum(p * b for (_c, p), b in mu)
                          + sum(p * a for (_c, p), a in de))
            for sm, sc, deg, weight in candidates:
                if (sm.hl > hl_cap or not z_lo <= sm.zexp <= z_hi
                        or deg > deg_cap or weight > weight_cap):
                    continue
                times = sm.times
                val = 1
                if de or mu:
                    t = dict(times)
                    for key, a in de:
                        e = t.get(key, 0)
                        if e < a:
                            val = 0
                            break
                        for j in range(a):
                            val *= e - j
                        if e == a:
                            del t[key]
                        else:
                            t[key] = e - a
                    if not val:
                        continue
                    for key, b in mu:
                        t[key] = t.get(key, 0) + b
                    times = tuple(sorted(t.items()))
                hl = m.hl + sm.hl
                if admit is not None and not admit(hl, times):
                    continue
                h2 = m.h2 + sm.h2
                if h2 >= 2:
                    val *= 2
                    h2 -= 2
                mono = trusted(hl, m.hn + sm.hn, h2,
                               m.zexp + sm.zexp, times)
                if not admits(mono):
                    continue
                coeff = c * sc
                if val != 1:
                    coeff = coeff * val
                cur = terms.get(mono)
                if cur is None:
                    terms[mono] = coeff
                else:
                    cur = cur + coeff
                    if cur.is_zero():
                        del terms[mono]
                    else:
                        terms[mono] = cur
        return out

    def apply_exp(self, series, scale=1, admit=None):
        """(exp(scale * self)) series, summed until a power annihilates.

        admit, as in apply, is checked on the terms of series and of every
        iterate.  Relies on the truncation for termination; raises
        RuntimeError when the iteration count exceeds a generous structural
        bound.
        """
        scale = scale if isinstance(scale, GaussRat) else GaussRat(scale)
        if admit is not None:
            series = series.filter(lambda m: admit(m.hl, m.times))
        out = series
        cur = series
        cap = 4 * (series.trunc.max_hl + series.trunc.max_time_deg) + 8
        k = 0
        fact = GaussRat(1)
        while True:
            cur = self.apply(cur, admit)
            if cur.is_zero():
                return out
            k += 1
            if k > cap:
                raise RuntimeError("exp of operator did not terminate "
                                   "under truncation")
            fact = fact * GaussRat(Fraction(1, k)) * scale
            out = out + cur.scale(fact)

    # -- composition / commutators -----------------------------------------

    def compose(self, other):
        """self o other (other acts first)."""
        out = DiffOp(self.trunc)
        for (m1, mu1, de1), c1 in self.terms.items():
            for (m2, mu2, de2), c2 in other.terms.items():
                mono, carry = m1.mul(m2)
                base = c1 * c2 * carry if carry != 1 else c1 * c2
                # move de1 through mu2, one variable at a time
                choices = [((), (), base)]
                de1d = dict(de1)
                mu2d = dict(mu2)
                for key in set(de1d) | set(mu2d):
                    a = de1d.get(key, 0)
                    b = mu2d.get(key, 0)
                    kmax = min(a, b)
                    new = []
                    for mu_acc, de_acc, cf in choices:
                        for k in range(kmax + 1):
                            w = comb(a, k)
                            for j in range(k):
                                w *= b - j
                            nmu = mu_acc + (((key, b - k),) if b - k else ())
                            nde = de_acc + (((key, a - k),) if a - k else ())
                            new.append((nmu, nde, cf * w))
                    choices = new
                for mu_acc, de_acc, cf in choices:
                    out.add_term(cf, mono, _madd(mu1, mu_acc),
                                 _madd(de_acc, de2))
        return out

    def commutator(self, other):
        return self.compose(other) - other.compose(self)

    def sorted_terms(self):
        return sorted(self.terms.items(),
                      key=lambda kv: (kv[0][0]._key, kv[0][1], kv[0][2]))

    def term_strs(self):
        """Each term as str() prints it, in sorted_terms order."""
        bits = []
        for (m, mu, de), c in self.sorted_terms():
            s = "(%s)" % c
            if not m.is_one():
                s += "*%s" % m
            for (cc, p), e in mu:
                s += "*t[%d,%d]^%d" % (cc, p, e)
            for (cc, p), e in de:
                s += "*d[%d,%d]^%d" % (cc, p, e)
            bits.append(s)
        return bits

    def __str__(self):
        return " + ".join(self.term_strs()) or "0"

    __repr__ = __str__
