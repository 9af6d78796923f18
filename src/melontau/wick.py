"""Exact Gaussian moments of Hermitian matrices and of complex tensors.

The normalized Hermitian Gaussian has covariance <M_ij M_kl> = d_il d_jk / N.
A multi-trace moment < prod_i Tr M^{p_i} > is a Laurent polynomial in N.
Two independent engines compute it:

 * "auto", the production recursion: Gaussian integration by parts on
   the first trace,
       <Tr M^p R> = (1/N) [ sum_{d=0}^{p-2} <Tr M^d Tr M^{p-2-d} R>
                            + sum_{TrM^q in R} q <Tr M^{p+q-2} R/TrM^q> ],
   with each Tr M^0 = N factored out, memoized on the sorted zero-free
   word.  Every coefficient counts gluings, so the recursion runs on
   integer counts ({N-exponent: int} dicts) and hermitian_moment wraps
   its result once as an NPoly.  Every symbolic one-matrix partition
   function and Virasoro check runs on it; it makes 18-slot words (34M
   pairings) and the long Virasoro words affordable;
 * "pairing", the reference: lay the traces out on slots with successor
   permutation gamma, sum N^{cycles(gamma o tau) - #pairs} over all
   pairing involutions tau.  Unmemoized, (2k-1)!! pairings per 2k-slot
   word; the tests hold the recursion against it.

The complex-tensor Gaussian has covariance <T_i Tbar_j> = N^{1-D} prod_c
d(i_c, j_c).  A product of invariants is encoded by one contraction pattern:
D permutations pi_c sending white vertex w to the black vertex its colour-c
edge hits.  Then

    < pattern > = sum_{m in S_k} N^{ sum_c cycles(pi_c^-1 o m) - k(D-1) }.

Both families also have brute-force index-sum oracles (delta products summed
over explicit index assignments in [n]) used to pin the engines down at small
concrete sizes.
"""

from fractions import Fraction
from itertools import permutations, product

from .series import Monomial, Series


class NPoly:
    """Laurent polynomial in N over Q: dict exponent -> Fraction."""

    __slots__ = ("c",)

    def __init__(self, c=None):
        self.c = {}
        if c:
            for k, v in c.items():
                v = Fraction(v)
                if v:
                    self.c[k] = v

    @classmethod
    def const(cls, v):
        return cls({0: v})

    @classmethod
    def N_pow(cls, k, v=1):
        return cls({k: v})

    def __add__(self, other):
        out = dict(self.c)
        for k, v in other.c.items():
            w = out.get(k, 0) + v
            if w:
                out[k] = w
            else:
                out.pop(k, None)
        r = NPoly()
        r.c = out
        return r

    def __mul__(self, other):
        r = NPoly()
        if isinstance(other, NPoly):
            for k1, v1 in self.c.items():
                for k2, v2 in other.c.items():
                    k = k1 + k2
                    w = r.c.get(k, 0) + v1 * v2
                    if w:
                        r.c[k] = w
                    else:
                        r.c.pop(k, None)
            return r
        v0 = Fraction(other)
        if v0:
            r.c = {k: v * v0 for k, v in self.c.items()}
        return r

    __rmul__ = __mul__

    def __rtruediv__(self, other):
        """other / self for a unit self, a single term v*N^k."""
        if len(self.c) != 1:
            raise ZeroDivisionError("%r is not invertible" % (self,))
        (k, v), = self.c.items()
        return NPoly({-k: Fraction(other) / v})

    def __eq__(self, other):
        return isinstance(other, NPoly) and self.c == other.c

    def is_zero(self):
        return not self.c

    def eval(self, n):
        return sum((v * Fraction(n) ** k for k, v in self.c.items()),
                   Fraction(0))

    def to_series(self, trunc, extra, coeff):
        """As a Series times coeff * extra: N^k -> sqrtN^{2k} times the
        monomial extra."""
        s = Series(trunc)
        for k, v in self.c.items():
            s.add_term(v * Fraction(coeff), hl=extra.hl, hn=2 * k + extra.hn,
                       h2=extra.h2, zexp=extra.zexp, times=extra.times)
        return s

    def __repr__(self):
        if not self.c:
            return "NPoly(0)"
        return "NPoly(" + " + ".join("%s*N^%d" % (v, k)
                                     for k, v in sorted(self.c.items())) + ")"


def pairings(slots):
    """All pairing involutions of a list of slots, as lists of 2-tuples.

    >>> sum(1 for _ in pairings(range(6)))
    15
    """
    slots = list(slots)
    if not slots:
        yield []
        return
    first, rest = slots[0], slots[1:]
    for i, other in enumerate(rest):
        for sub in pairings(rest[:i] + rest[i + 1:]):
            yield [(first, other)] + sub


def trace_successor(word):
    """Successor permutation gamma on slots for the trace word."""
    gamma = []
    base = 0
    for p in word:
        gamma.extend(list(range(base + 1, base + p)) + [base])
        base += p
    return gamma


def _cycles(perm):
    """Number of cycles of a permutation given as its list of images."""
    n = len(perm)
    seen = [False] * n
    count = 0
    for s in range(n):
        if seen[s]:
            continue
        count += 1
        t = s
        while not seen[t]:
            seen[t] = True
            t = perm[t]
    return count


def _moment_pairing(word):
    gamma = trace_successor(word)
    nslots = len(gamma)
    if nslots % 2:
        return NPoly()
    npairs = nslots // 2
    out = NPoly()
    for tau in pairings(range(nslots)):
        inv = list(range(nslots))
        for a, b in tau:
            inv[a], inv[b] = b, a
        comp = [gamma[inv[s]] for s in range(nslots)]
        out = out + NPoly.N_pow(_cycles(comp) - npairs)
    return out


_rec_memo = {}


def _moment_recursion(word):
    """The recursion on word, as {N-exponent: count}; each Tr M^0 = N is
    factored out before the memo, which holds only zero-free words,
    sorted descending.  The dict may be a memo entry: do not mutate it."""
    core = tuple(sorted((p for p in word if p), reverse=True))
    out = _moment_core(core)
    zeros = len(word) - len(core)
    return {k + zeros: v for k, v in out.items()} if zeros else out


def _gather(acc, poly, shift, mult=1):
    """acc += mult * N^shift * poly, in place."""
    for k, v in poly.items():
        k += shift
        acc[k] = acc.get(k, 0) + mult * v


def _moment_core(word):
    if not word:
        return {0: 1}
    hit = _rec_memo.get(word)
    if hit is not None:
        return hit
    p, rest = word[0], word[1:]
    acc = {}
    if not sum(word) % 2:
        # the overall 1/N is in each shift; the d = 0 and d = p-2 terms
        # carry Tr M^0 = N
        if p == 2:
            _gather(acc, _moment_core(rest), 1)
        elif p > 2:
            _gather(acc, _moment_recursion(rest + (p - 2,)), 0, 2)
        for d in range(1, p - 2):
            _gather(acc, _moment_recursion(rest + (d, p - 2 - d)), -1)
        for i, q in enumerate(rest):
            if i and rest[i] == rest[i - 1]:
                continue
            _gather(acc, _moment_recursion(
                rest[:i] + rest[i + 1:] + (p + q - 2,)), -1,
                rest.count(q) * q)
    _rec_memo[word] = acc
    return acc


def hermitian_moment(word, engine="auto"):
    """< prod_i Tr M^{p_i} > as an exact Laurent polynomial in N.

    word is any iterable of int trace powers p_i >= 0 (Tr M^0 contributes
    N); any other power is refused.
    engine "auto" (the memoized recursion, the production engine) and
    "pairing" (the unmemoized reference) give the same NPoly.

    >>> hermitian_moment([2])
    NPoly(1*N^1)
    >>> hermitian_moment([4])
    NPoly(1*N^-1 + 2*N^1)
    >>> hermitian_moment([1, 1])
    NPoly(1*N^0)
    >>> hermitian_moment([3])
    NPoly(0)
    """
    word = tuple(word)
    for p in word:
        if not isinstance(p, int):
            raise ValueError("trace power must be an int, got %r" % (p,))
        if p < 0:
            raise ValueError("negative trace power")
    word = tuple(sorted(word))
    if engine == "auto":
        return NPoly(_moment_recursion(word))
    if engine != "pairing":
        raise ValueError("unknown engine %r" % (engine,))
    nzeros = sum(1 for p in word if p == 0)
    core = tuple(p for p in word if p)
    out = _moment_pairing(core)
    if nzeros:
        out = out * NPoly.N_pow(nzeros)
    return out


def moment_index_oracle(word, n):
    """Brute-force check value of hermitian_moment at concrete N = n.

    Sums, for every pairing of the slots, the delta products of the paired
    covariances over all explicit index assignments in [n]^slots; no cycle
    counting anywhere.
    """
    nzeros = sum(1 for p in word if p == 0)
    word = tuple(p for p in word if p)
    gamma = trace_successor(word)
    nslots = len(gamma)
    if nslots % 2:
        return Fraction(0)
    total = 0
    for tau in pairings(range(nslots)):
        for assign in product(range(n), repeat=nslots):
            ok = True
            for s, t in tau:
                if assign[s] != assign[gamma[t]] or assign[t] != assign[gamma[s]]:
                    ok = False
                    break
            if ok:
                total += 1
    return Fraction(total, n ** (nslots // 2)) * Fraction(n) ** nzeros


# -- tensor moments --------------------------------------------------------


def tensor_moment(pattern):
    """< invariant(pattern) > for the D-colour tensor Gaussian.

    pattern: tuple of D permutations (tuples of images, 0-based), pi_c(w)
    being the black end of white w's colour-c edge; k = len of each.

    >>> tensor_moment(((0,), (0,), (0,)))          # <Tbar.T>, D=3
    NPoly(1*N^1)
    >>> tensor_moment(((1, 0), (0, 1), (0, 1)))    # melonic quartic, D=3
    NPoly(1*N^0 + 1*N^1)
    """
    D = len(pattern)
    k = len(pattern[0])
    if any(len(pi) != k or sorted(pi) != list(range(k)) for pi in pattern):
        raise ValueError("pattern must be D same-size permutations")
    inv = [[0] * k for _ in range(D)]
    for c in range(D):
        for w in range(k):
            inv[c][pattern[c][w]] = w
    out = NPoly()
    for m in permutations(range(k)):
        loops = 0
        for c in range(D):
            comp = [inv[c][m[w]] for w in range(k)]
            loops += _cycles(comp)
        out = out + NPoly.N_pow(loops - k * (D - 1))
    return out


def tensor_moment_index_oracle(pattern, n):
    """Brute-force value of tensor_moment at concrete N = n.

    Eliminates black indices through the invariant's deltas, then sums the
    pairing deltas over all white index assignments (w, c) -> [n].
    """
    D = len(pattern)
    k = len(pattern[0])
    inv = [[0] * k for _ in range(D)]
    for c in range(D):
        for w in range(k):
            inv[c][pattern[c][w]] = w
    total = 0
    for m in permutations(range(k)):
        for assign in product(range(n), repeat=k * D):
            i = lambda w, c: assign[w * D + c]
            if all(i(w, c) == i(inv[c][m[w]], c)
                   for w in range(k) for c in range(D)):
                total += 1
    return Fraction(total, n ** (k * (D - 1)))


def clear_moment_cache():
    _rec_memo.clear()
