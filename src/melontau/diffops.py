"""Differential operators on the time ring, in normal-ordered form.

A DiffOp is a finite sum of terms

    coeff * mono * prod t[c,p]^mults * prod (d/dt[c,p])^derivs

with the derivatives standing to the right (they act first).  mono is a
time-free Monomial (sqrtLam/sqrtN/z only); all time dependence of the
operator lives in mults so that normal ordering is well defined.

Composition uses the one-variable Weyl relation

    d^a t^b = sum_{k<=min(a,b)} C(a,k) * b!/(b-k)! * t^{b-k} d^{a-k}

variable by variable.  Terms are restricted to the truncation's ring: mults
or derivs touching an index p > p_max are dropped (a derivative in a variable
the ring does not retain annihilates every ring element, and a multiplication
by it leaves the ring), and mono factors with hl > max_hl or z outside the
window are dropped for the same reason.  The identities checked here are all
graded in sqrtLam degree, so grade-by-grade restriction is sound.

The kernels skip per-term work their inputs make redundant.  They build
letter tuples by merging sorted tuples, never by a dict and a sort.
apply checks every cap from integers before it builds a Monomial, so its
results need no TruncSpec.admits.  apply_exp folds scale/k into the
operator's coefficients at step k and sums the iterates in place.
compose writes its keys into the result with add_term's ring checks but
without its validation and sorting.
"""

from math import comb, perm

from .series import (Monomial, Series, _as_coeff, _Terms, merge_times,
                     normal_times)


def _strip(times, derivs):
    """(times with the letters of derivs taken off, the falling factorials
    they bring down), in one merge pass over the two sorted tuples;
    (None, 0) when a derivative finds fewer copies than it takes."""
    out = []
    i, n = 0, len(times)
    val = 1
    for key, a in derivs:
        while i < n and times[i][0] < key:
            out.append(times[i])
            i += 1
        if i == n or times[i][0] != key or times[i][1] < a:
            return None, 0
        e = times[i][1]
        val *= perm(e, a)
        if e > a:
            out.append((key, e - a))
        i += 1
    return tuple(out) + times[i:], val


class DiffOp(_Terms):
    """Normal-ordered operator under a TruncSpec ring restriction: terms
    maps (mono, mults, derivs) to its coefficient.

    >>> from melontau.series import TruncSpec
    >>> T = TruncSpec(0, 2, 2)
    >>> d = DiffOp(T).add_term(1, derivs=(((1, 1), 1),))
    >>> t = DiffOp(T).add_term(1, mults=(((1, 1), 1),))
    >>> d.commutator(t) == DiffOp(T).add_term(1)          # [d/dt, t] = 1
    True
    """

    __slots__ = ()

    def _fits(self, mono, letters):
        """mono's sqrtLam power and z, and the letters' indices, lie in
        the ring."""
        t = self.trunc
        return (mono.hl <= t.max_hl and t.z_min <= mono.zexp <= t.z_max
                and all(p <= t.p_max for (_c, p), _e in letters))

    def add_term(self, coeff, mono=None, mults=(), derivs=()):
        mono = mono or Monomial()
        if mono.times:
            raise ValueError("operator mono factor must be time-free")
        # apply builds Monomials from these letters without re-checking them
        mults = normal_times(mults)
        derivs = normal_times(derivs)
        if self._fits(mono, mults + derivs):
            self._accumulate((mono, mults, derivs), _as_coeff(coeff))
        return self

    # -- linear structure --------------------------------------------------

    def __add__(self, other):
        out = self.copy()
        for key, c in other.terms.items():
            if out._fits(key[0], key[1] + key[2]):
                out._accumulate(key, c)
        return out

    # -- action on series --------------------------------------------------

    def apply(self, series, admit=None, box=None):
        """self applied to series, restricted to the ring of series.

        admit, if given, is an extra predicate admit(hl, times) on each
        result's sqrtLam power and time letters, checked before the
        Monomial is built; rejected results are discarded.

        box, if given, is the box the caller keeps: the result is
        self.apply(series).restrict(box), on the ring series.trunc ^ box,
        but no term outside that ring is ever built.

        Only pairs that can land in the ring are visited.  A per-call index
        maps each time letter (c, p) to the series terms containing it, in
        series order (so results arrive in the order of a double loop),
        and an op term with derivatives runs over the shortest list among
        its derivative letters (any other term is annihilated).  Each
        candidate is then checked from integers: sqrtLam power, z window,
        and the series term's time degree and weight plus the op term's
        change of them.  The result's times come from merge passes over
        sorted tuples: _strip takes the derivatives off, merge_times adds
        the multiplications.  The only cap left is the index cap.  On a
        multiplied letter every result of that op term keeps it, so it is
        checked once per op term; on the series term's letters it is
        checked after _strip, and only when box keeps fewer indices than
        the series' ring.
        """
        box = series.trunc if box is None else series.trunc.meet(box)
        out = Series(box)
        put = out._accumulate
        p_max = box.p_max
        check_p = p_max < series.trunc.p_max
        trusted = Monomial._trusted
        entries = []
        by_letter = {}
        for sm, sc in series.terms.items():
            entry = (sm, sc) + sm.grade()
            entries.append(entry)
            for key, _e in sm.times:
                by_letter.setdefault(key, []).append(entry)
        for (m, mu, de), c in self.terms.items():
            if any(p > p_max for (_c, p), _b in mu):
                continue
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
                times, val = _strip(sm.times, de) if de else (sm.times, 1)
                if not val:
                    continue
                if check_p and any(p > p_max for (_c, p), _e in times):
                    continue
                if mu:
                    times = merge_times(times, mu)
                hl = m.hl + sm.hl
                if admit is not None and not admit(hl, times):
                    continue
                if m.hl & sm.hl & 1:        # Monomial.mul's carry
                    val *= 2
                mono = trusted(hl, m.hn + sm.hn, m.zexp + sm.zexp, times)
                coeff = c * sc
                put(mono, coeff * val if val != 1 else coeff)
        return out

    def apply_exp(self, series, scale=1, admit=None):
        """(exp(scale * self)) series, summed until a power annihilates.

        The k-th iterate is (scale/k) self applied to the one before, so
        it already is scale^k/k! self^k series: the step factor multiplies
        each operator coefficient once, and each iterate is added in place
        into one dict.  At scale 0 this is the admitted input.

        admit, as in apply, is checked on the terms of series and of every
        iterate.  Relies on the truncation for termination; raises
        RuntimeError when the iteration count exceeds a generous structural
        bound.
        """
        scale = _as_coeff(scale)
        out = (series.copy() if admit is None
               else series.filter(lambda m: admit(m.hl, m.times)))
        cur = out
        cap = 4 * (series.trunc.max_hl + series.trunc.max_time_deg) + 8
        k = 1
        while True:
            cur = self.scale(scale / k).apply(cur, admit)
            if cur.is_zero():
                return out
            if k > cap:
                raise RuntimeError("exp of operator did not terminate "
                                   "under truncation")
            for m, c in cur.terms.items():
                out._accumulate(m, c)
            k += 1

    # -- composition / commutators -----------------------------------------

    def compose(self, other):
        """self o other (other acts first).

        Each pair of terms moves self's derivatives through other's
        multiplications letter by letter, in sorted letter order, so the
        reordered letters come out sorted and merge with the outer ones in
        one pass (merge_times).  They go into the result with add_term's
        ring checks and zero drop but without its validation and sorting;
        the index check runs only when other's ring has larger indices
        than self's.
        """
        out = DiffOp(self.trunc)
        p_max = self.trunc.p_max
        check_p = other.trunc.p_max > p_max
        for (m1, mu1, de1), c1 in self.terms.items():
            de1d = dict(de1)
            for (m2, mu2, de2), c2 in other.terms.items():
                mono, carry = m1.mul(m2)
                if not out._fits(mono, ()):
                    continue
                base = c1 * c2 * carry if carry != 1 else c1 * c2
                # move de1 through mu2, one variable at a time
                choices = [((), (), base)]
                mu2d = dict(mu2)
                for key in sorted(de1d.keys() | mu2d.keys()):
                    a = de1d.get(key, 0)
                    b = mu2d.get(key, 0)
                    kmax = min(a, b)
                    new = []
                    for mu_acc, de_acc, cf in choices:
                        for k in range(kmax + 1):
                            w = comb(a, k) * perm(b, k)
                            nmu = mu_acc + (((key, b - k),) if b - k else ())
                            nde = de_acc + (((key, a - k),) if a - k else ())
                            new.append((nmu, nde, cf * w))
                    choices = new
                for mu_acc, de_acc, cf in choices:
                    mults = merge_times(mu1, mu_acc)
                    derivs = merge_times(de_acc, de2)
                    if check_p and any(p > p_max for (_c, p), _e
                                       in mults + derivs):
                        continue
                    out._accumulate((mono, mults, derivs), cf)
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
