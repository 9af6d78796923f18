"""The Hermitian one-matrix layer.

Conventions (used consistently everywhere):

    Z(t; N) = < exp( -N sum_{p>=0} t_p Tr M^p ) >   over the normalized
    Gaussian with <M_ij M_kl> = d_il d_jk / N,  so that

      * the whole t_0 dependence is the exact prefactor exp(-N^2 t_0),
      * d/dt_p Z = -N < Tr M^p ... >  uniformly, including p = 0,
      * the coefficient of prod t_p^{a_p} is
        (-N)^{|a|} / prod a_p! * < prod (Tr M^p)^{a_p} >.

The quartic-deformed ensemble used for the free energy / planar two-point /
orthogonal-polynomial checks inserts (-N t4 / 4 * Tr M^4) per vertex order,
which weighs a connected diagram by exactly N^{2-2g}.

Two independent constructions of Z are kept: trace-word moments (symbolic in
N) and, at concrete size, the eigenvalue route N! det[m_{i+j}(t)] built from
one-dimensional deformed Gaussian moments; they are cross-checked in tests.

Virasoro constraints are derived from invariance of the measure under
M -> M + eps M^{n+1}:

    L_n Z = sum_{d=0}^{n} N^-2 d_{t_d} d_{t_{n-d}} Z + d_{t_{n+2}} Z
            + sum_{p>=1} p t_p d_{t_{p+n}} Z  = 0        (n >= -1).
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

from .diffops import DiffOp
from .scalars import GaussRat
from .series import Monomial, Series, TruncSpec, USeries, letter_products
from .wick import NPoly, hermitian_moment


def _t0_factor(trunc, colour, nsize=None):
    """exp(-N^2 t_0) as a series (concrete size if nsize given)."""
    s = Series(trunc)
    for k in range(trunc.max_time_deg + 1):
        coeff = Fraction((-1) ** k, factorial(k))
        times = (((colour, 0), k),) if k else ()
        if nsize is None:
            s.add_term(coeff, hn=4 * k, times=times)
        else:
            s.add_term(coeff * Fraction(nsize) ** (2 * k), times=times)
    return s


def z1mm_series(trunc, colour=1, nsize=None, engine="auto"):
    """Deformed Gaussian 1MM partition function under the truncation.

    Symbolic in N by default, from the memoized moment recursion; engine
    is passed on to hermitian_moment ("pairing" selects the reference
    engine, "auto" is the recursion).  At a concrete size (nsize) it
    dispatches to the eigenvalue/Hankel route, which stays cheap when the
    truncation keeps high-weight words, and ignores engine.
    """
    if nsize is not None:
        return z1mm_hankel(trunc, colour, nsize)
    out = Series(trunc)
    for times, tot, _w, den in letter_products(
            [(colour, p) for p in range(1, trunc.p_max + 1)],
            trunc.max_time_deg, trunc.max_time_weight):
        mom = hermitian_moment([p for (_c, p), a in times for _ in range(a)],
                               engine=engine)
        if mom.is_zero():
            continue
        # the rows lie in the box and the coefficients are nonzero, so the
        # terms need none of add_term's checks
        sign = Fraction((-1) ** tot, den)
        piece = Series(trunc)
        piece.terms = {Monomial._trusted(0, 2 * (k + tot), 0, 0, times):
                       GaussRat(v * sign) for k, v in mom.c.items()}
        out = out + piece
    return out.mul(_t0_factor(trunc, colour))


def onedim_gaussian_moment(m, nweight):
    """int x^m e^{-nweight x^2/2} dx / int e^{...} = (m-1)!! nweight^{-m/2}."""
    if m % 2:
        return Fraction(0)
    df = 1
    for j in range(1, m, 2):
        df *= j
    return Fraction(df, nweight ** (m // 2))


def z1mm_hankel(trunc, colour, nsize):
    """Z at concrete size via N! det[m_{i+j}(t)] / (Gaussian point)."""
    if nsize < 1:
        raise ValueError("size must be >= 1")
    rows = letter_products([(colour, p) for p in range(1, trunc.p_max + 1)],
                           trunc.max_time_deg, trunc.max_time_weight)

    def mtilde(k):
        s = Series(trunc)
        for times, tot, weight, den in rows:
            g = onedim_gaussian_moment(k + weight, nsize)
            if g:
                s.add_term(g * Fraction((-nsize) ** tot, den), times=times)
        return s

    m = [mtilde(k) for k in range(2 * nsize - 1)]
    det = _det([m[i:i + nsize] for i in range(nsize)], Series.one(trunc))
    det0 = _det([[onedim_gaussian_moment(i + j, nsize) for j in range(nsize)]
                 for i in range(nsize)], Fraction(1))
    return det.scale(Fraction(1, 1) / det0).mul(
        _t0_factor(trunc, colour, nsize=nsize))


def _det(rows, one):
    """Leibniz expansion of the determinant of a square matrix whose
    entries have +, * and unary - (Fraction, Series, USeries); `one` is the
    unit of their ring and the determinant of the empty matrix.

    >>> _det([[1, 2], [3, 4]], Fraction(1))
    Fraction(-2, 1)
    """
    total = None
    for sigma in permutations(range(len(rows))):
        odd = sum(a > b for a, b in combinations(sigma, 2)) % 2
        term = -one if odd else one
        for row, j in zip(rows, sigma):
            term = term * row[j]
        total = term if total is None else total + term
    return total


# -- quartic free energy and planar two-point ------------------------------


def quartic_z_list(order, insert=()):
    """[t4^k] of < prod TrM^{insert} exp(-N t4/4 TrM^4) >, unnormalized,
    as a t4-series with NPoly coefficients.

    >>> quartic_z_list(1).c       # 1 - t4 N/4 <TrM^4>
    [NPoly(1*N^0), NPoly(-1/4*N^0 + -1/2*N^2)]
    """
    out = []
    for k in range(order + 1):
        word = list(insert) + [4] * k
        coeff = Fraction((-1) ** k, 4 ** k * factorial(k))
        out.append(NPoly.N_pow(k, coeff) * hermitian_moment(word))
    return USeries(out, order, NPoly())


def free_energy_quartic(order=3):
    """Coefficients [t4^1 .. t4^order] of log Z: exact Laurent polys in N.

    Every exponent of N in every coefficient is 2 - 2g for a genus g >= 0;
    the leading t4 term is -N^2/2 - 1/4.
    """
    return quartic_z_list(order).log().c[1:]


def planar_two_point(order=4):
    """Signed planar rooted-map counts: N^0 part of (1/N)<Tr M^2>_{t4}.

    Returns the t4-coefficients [n=0..order]; their absolute values count
    rooted planar quadrangulation-type maps (1, 2, 9, 54, 378, ...).
    """
    ratio = quartic_z_list(order, insert=(2,)) / quartic_z_list(order)
    # (1/N) * ratio at N^0  ==  ratio at N^1
    return [r.c.get(1, Fraction(0)) for r in ratio]


# -- Virasoro constraints --------------------------------------------------


def virasoro_op(n, trunc):
    """L_n as a normal-ordered operator on the truncated time ring, in the
    times t[1,p] of colour 1 (those of z1mm_series)."""
    if n < -1:
        raise ValueError("constraints exist for n >= -1 only")
    op = DiffOp(trunc)
    for d in range(0, n + 1):
        key_a, key_b = (1, d), (1, n - d)
        if key_a == key_b:
            op.add_term(1, Monomial(hn=-4), derivs=((key_a, 2),))
        else:
            op.add_term(1, Monomial(hn=-4), derivs=((key_a, 1), (key_b, 1)))
    op.add_term(1, derivs=(((1, n + 2), 1),))
    for p in range(1, trunc.p_max - max(n, 0) + 1):
        op.add_term(p, mults=(((1, p), 1),), derivs=(((1, p + n), 1),))
    return op


def virasoro_residual(n, p_ext=4, deg=3):
    """L_n Z restricted to the box (indices <= p_ext, degree <= deg).

    The inner ring retains indices up to p_ext + n + 2, degree deg + 2 and
    weighted degree p_ext*deg + n + 2, which is exactly what the box
    coefficients of L_n Z can touch; the restriction of the returned series
    is therefore exact, and the check passes iff it is the zero series.
    L_n is applied straight onto the box (DiffOp.apply's box), so only the
    box coefficients are computed, never the rest of L_n Z on the inner
    ring.
    """
    p_int = p_ext + max(n, 0) + 2
    w_int = p_ext * deg + max(n, 0) + 2
    inner = TruncSpec(0, deg + 2, p_int, max_time_weight=w_int)
    # engine="auto" spelled out: bench/digests.json keys on this call shape
    z = z1mm_series(inner, engine="auto")
    return virasoro_op(n, inner).apply(z, box=TruncSpec(0, deg, p_ext))


# -- orthogonal polynomials, kernels, Hankel chain -------------------------
#
# Everything below works at concrete sizes with t4-power-series represented
# as USeries with Fraction coefficients.


def deformed_onedim_moment(l, nweight, order):
    """t4-series of int x^l dmu with dmu = e^{-nweight(x^2/2 + t4 x^4/4)}dx,
    normalized by the t4 = 0 Gaussian mass."""
    return USeries([Fraction((-nweight) ** k, 4 ** k * factorial(k))
                    * onedim_gaussian_moment(l + 4 * k, nweight)
                    for k in range(order + 1)], order)


def hankel_z(size, nweight, order):
    """Eigenvalue partition function size! det[m_{i+j}] as a t4-series."""
    m = [deformed_onedim_moment(k, nweight, order)
         for k in range(2 * size - 1)]
    return factorial(size) * _det([m[i:i + size] for i in range(size)],
                                  USeries([1], order))


def orthopoly_det(size, nweight, order):
    """Monic orthogonal polynomial of the deformed measure, via the classic
    bordered-Hankel determinant; coefficient list indexed by power of x."""
    m = [deformed_onedim_moment(k, nweight, order) for k in range(2 * size)]
    one = USeries([1], order)
    minors = []
    for j in range(size + 1):
        cols = [c for c in range(size + 1) if c != j]
        minors.append(_det([[m[i + c] for c in cols] for i in range(size)],
                           one))
    D = minors[size]                  # delete column `size`: the Hankel det
    return [(-1) ** (size + j) * minors[j] / D for j in range(size + 1)]


# symmetric-function bridge: e_k out of power sums (Newton's identities)

def _elementary_in_power_sums(kmax):
    """e_k as dicts {sorted power-sum word: Fraction}, k = 0..kmax."""
    es = [{(): Fraction(1)}]
    for k in range(1, kmax + 1):
        acc = {}
        for i in range(1, k + 1):
            for word, coeff in es[k - i].items():
                w = tuple(sorted(word + (i,)))
                acc[w] = acc.get(w, Fraction(0)) + \
                    Fraction((-1) ** (i - 1), k) * coeff
        es.append({w: c for w, c in acc.items() if c})
    return es


def charpoly_expectation(size, order):
    """< det(x - M) > in the quartic-deformed ensemble of matching size.

    Returns t4-series per power of x (monic in x^size).  The ensemble size
    and the N in the weight are both `size`.
    """
    def at_size(insert=()):
        return USeries([p.eval(size) for p in quartic_z_list(order, insert)],
                       order)

    es = _elementary_in_power_sums(size)
    raw = []
    for k in range(size + 1):
        acc = USeries([], order)
        for word, coeff in es[k].items():
            acc = acc + coeff * at_size(word)
        raw.append(acc)
    z = at_size()
    # x^j carries (-1)^(size-j) e_{size-j}
    return [(-1) ** (size - j) * (raw[size - j] / z) for j in range(size + 1)]


def orthopoly_residuals(size, order):
    """The orthogonal-polynomial claims at one size, as t4-series that must
    all vanish: "orthogonality", int P_size(x) x^M dmu for M < size with
    P = charpoly_expectation (<det(x-M)> is the monic orthogonal polynomial
    of the eigenvalue measure), and "det - charpoly", orthopoly_det - P."""
    P = charpoly_expectation(size, order)
    det = orthopoly_det(size, size, order)
    return {"orthogonality": [_integrate(P, M, size, order)
                              for M in range(size)],
            "det - charpoly": [d - p for d, p in zip(det, P)]}


def orthogonality_residual(size, order):
    """The "orthogonality" residuals of orthopoly_residuals."""
    return orthopoly_residuals(size, order)["orthogonality"]


def kernel_norm(size, nweight, order):
    """K_size = int P_size^2 dmu = int P_size x^size dmu (monic)."""
    return _integrate(orthopoly_det(size, nweight, order), size, nweight,
                      order)


def _integrate(P, M, nweight, order):
    """int P(x) x^M dmu for P given by its t4-series per power of x."""
    out = USeries([], order)
    for j, pj in enumerate(P):
        out = out + pj * deformed_onedim_moment(j + M, nweight, order)
    return out


def hankel_chain_residuals(max_size, nweight, order):
    """The two ladder identities, as lists of residual t4-series:

    "step":   Z_{s+1} - (s+1) K_s Z_s   for s = 0..max_size-1, and
    "closed": Z_s - s! prod_{i<s} K_i   for s = 1..max_size.
    """
    zs = [hankel_z(s, nweight, order) for s in range(max_size + 1)]
    ks = [kernel_norm(s, nweight, order) for s in range(max_size)]
    step = [zs[s + 1] - (s + 1) * (ks[s] * zs[s]) for s in range(max_size)]
    closed = []
    for s in range(1, max_size + 1):
        prod = USeries([factorial(s)], order)
        for i in range(s):
            prod = prod * ks[i]
        closed.append(zs[s] - prod)
    return {"step": step, "closed": closed}
