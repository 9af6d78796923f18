"""Quartic melonic tensor model and its three equivalent expansions.

Stage 1 (direct): Z_T = < exp(-N^{D-1} lambda/4 sum_a inv_a) > over the
tensor Gaussian, expanded through quartic order K by block-summing the
contraction patterns of the k chosen interaction bubbles.  The moment of
a product of bubbles does not depend on their order, so each multiset of
bubble colours is summed once, weighted by its count of orderings.

Stage 2 (intermediate field): after Hubbard-Stratonovich, one Hermitian
sigma_c per colour and

    Z_T = < prod_det >,   -Tr log(1 + i sqrt(lambda/2N^{D-2}) Sigma)
    = sum over tuples q in N^D, |q| >= 1 of
      ((-i)^{|q|}/|q|) sqrt(lambda/2N^{D-2})^{|q|} multinom(|q|; q)
      * N^{#zeros(q)} * prod_{q_c>0} Tr sigma_c^{q_c},

evaluated by independent per-colour Gaussian trace moments.

Stage 3 (operator form): Z_T = [ e^{Yhat} prod_c Z^{(c)}(t) ] at t = 0,
where Z^{(c)} are deformed one-matrix partition functions and

    Yhat = sum_q y_q  d^D / dt^{1}_{q_1} ... dt^{D}_{q_D},
    y_q  = (-1)^D N^{-D} ((-i)^{|q|}/|q|) sqrt(lambda/2N^{D-2})^{|q|}
           * multinom(|q|; q).

The three routes must agree coefficient-by-coefficient as Laurent
polynomials in sqrt(N).  The scaling operator Xhat is normalized so that
[Xhat, Yhat] = D Yhat holds exactly (Xhat = -sum t d/dt on the retained
times: a derivative word of length D has Euler degree -D).  The
Baker-Campbell-Hausdorff consequence log(e^X e^Y) = X + D/(1-e^{-D}) Y for
[X, Y] = D Y is checked separately in an exact 2x2 series representation.
"""

from fractions import Fraction
from math import factorial

from .diffops import DiffOp
from .scalars import GaussRat, minus_i_pow
from .series import (Monomial, Series, TruncSpec, USeries, letter_products,
                     sqrt_half_lambda)
from .wick import (NPoly, hermitian_moment, tensor_moment,
                   tensor_moment_index_oracle)
from .onematrix import z1mm_series


def _colour_multisets(D, n):
    """Every q in N^D with 1 <= |q| <= n, as rows (q, |q|, |q|!/prod q_c!).

    A multiset of colours is a product of weight-1 letters, one per colour,
    so letter_products lists them, and its prod e! column gives the
    multinomial count of orderings.

    >>> [(q, count) for q, _total, count in _colour_multisets(2, 2)]
    [((0, 1), 1), ((0, 2), 1), ((1, 0), 1), ((1, 1), 2), ((2, 0), 1)]
    """
    letters = [(c, 1) for c in range(1, D + 1)]
    return [(tuple(dict(times).get(key, 0) for key in letters), total,
             factorial(total) // den)
            for times, total, _w, den in letter_products(letters, n, n)[1:]]


def _block_pattern(D, choices):
    """Contraction pattern of prod_i inv_{a_i}: block sum of quartic melons."""
    perms = []
    for c in range(1, D + 1):
        p = []
        for i, a in enumerate(choices):
            base = 2 * i
            if c == a:
                p.extend([base + 1, base])
            else:
                p.extend([base, base + 1])
        perms.append(tuple(p))
    return tuple(perms)


def direct_tensor_z(D, order, moments=None):
    """Route 1: quartic tensor partition function through lambda^order.

    moments(pattern) may be supplied to swap in an alternative moment
    engine (e.g. the explicit index-sum oracle at concrete N).
    """
    if moments is None:
        moments = tensor_moment
    trunc = TruncSpec(2 * order, 0, 0)
    out = Series.one(trunc)
    for q, k, count in _colour_multisets(D, order):
        choices = tuple(c for c, qc in enumerate(q, 1) for _ in range(qc))
        mom = moments(_block_pattern(D, choices))
        out = out + mom.to_series(
            trunc, extra=Monomial(hl=2 * k, hn=2 * (D - 1) * k),
            coeff=Fraction((-1) ** k * count, 4 ** k * factorial(k)))
    return out


def direct_tensor_z_oracle(D, order, n):
    """Route 1 rebuilt on the brute-force index oracle at concrete N = n."""
    def eng(pattern):
        return NPoly.const(tensor_moment_index_oracle(pattern, n))
    return direct_tensor_z(D, order, moments=eng).eval_N(n)


def trace_expectation(series):
    """Replace every t[c,p]^e factor by independent per-colour Gaussian
    trace moments < prod (Tr sigma_c^p)^e >; returns a time-free series."""
    out = Series(series.trunc)
    for m, coeff in series.terms.items():
        words = {}
        for (c, p), e in m.times:
            words.setdefault(c, []).extend([p] * e)
        poly = NPoly.const(1)
        for word in words.values():
            poly = poly * hermitian_moment(word)
            if poly.is_zero():
                break
        for k, v in poly.c.items():
            out.add_term(coeff * GaussRat(v), hl=m.hl, hn=m.hn + 2 * k,
                         zexp=m.zexp)
    return out


def intermediate_field_z(D, order):
    """Route 2: multinomial expansion of the sigma determinant exponent,
    exponentiated as a multiplication operator."""
    hl_max = 2 * order
    trunc = TruncSpec(hl_max, D * hl_max, hl_max, max_time_weight=hl_max)
    expo = DiffOp(trunc)
    for q, total, count in _colour_multisets(D, hl_max):
        expo.add_term(minus_i_pow(total) * GaussRat(
                          Fraction(count, total) * sqrt_half_lambda(total)),
                      Monomial(hl=total, hn=-(D - 2) * total + 2 * q.count(0)),
                      mults=tuple(((c + 1, qc), 1)
                                  for c, qc in enumerate(q) if qc))
    return trace_expectation(expo.apply_exp(Series.one(trunc))).restrict(
        TruncSpec(hl_max, 0, 0))


def build_Y(D, trunc, colours=None):
    """The Yhat operator on the truncated ring (tuples with |q| <= max_hl).

    Requires p_max >= max_hl so no retained tuple's derivative falls out of
    the ring (silent unfaithfulness is refused).
    """
    if colours is None:
        colours = tuple(range(1, D + 1))
    if trunc.p_max < trunc.max_hl:
        raise ValueError("ring must retain indices up to max_hl")
    op = DiffOp(trunc)
    for q, total, count in _colour_multisets(D, trunc.max_hl):
        coeff = minus_i_pow(total) * GaussRat(
            Fraction((-1) ** D * count, total) * sqrt_half_lambda(total))
        mono = Monomial(hl=total, hn=-2 * D - (D - 2) * total)
        # add_term merges the derivatives of a colour listed twice
        op.add_term(coeff, mono,
                    derivs=tuple((key, 1) for key in zip(colours, q)))
    return op


def build_X(trunc, colours):
    """Minus the Euler operator on the retained times: [X, Y] = D Y."""
    op = DiffOp(trunc)
    for c in colours:
        for p in range(trunc.p_max + 1):
            op.add_term(-1, mults=(((c, p), 1),), derivs=(((c, p), 1),))
    return op


def commutator_residual(D, max_q):
    """[Xhat, Yhat] - D*Yhat as a normal-ordered operator (zero iff pass),
    on the ring with |q| <= max_q and time indices <= max_q."""
    trunc = TruncSpec(max_q, 0, max_q)
    colours = tuple(range(1, D + 1))
    X = build_X(trunc, colours)
    Y = build_Y(D, trunc, colours)
    return X.commutator(Y) - Y.scale(D)


def eY_applied_z(D, order):
    """Route 3: [e^{Yhat} prod_c Z^{(c)}] at t = 0, symbolic in N."""
    colours = tuple(range(1, D + 1))
    hl_max = 2 * order
    trunc = TruncSpec(hl_max, D * hl_max, hl_max, max_time_weight=hl_max)
    prod = Series.one(trunc)
    for c in colours:
        # nsize=None spelled out: bench/digests.json keys on this call shape
        prod = prod.mul(z1mm_series(trunc, colour=c, nsize=None))
    Y = build_Y(D, trunc, colours)
    # the time-free box keeps the t = 0 terms
    return Y.apply_exp(prod).restrict(TruncSpec(hl_max, 0, 0))


def decomposition_residuals(D, order):
    """direct minus each other route, by route name: both must vanish."""
    direct = direct_tensor_z(D, order)
    inter = intermediate_field_z(D, order)
    oper = eY_applied_z(D, order)
    return {"intermediate": direct - inter, "operator": direct - oper}


def tensor_free_energy_exponents(D, order):
    """N-exponents of each lambda^k coefficient of log Z_T (route 1).

    Returns {k: sorted list of integer exponents}, from USeries.log of Z_T
    as a lambda-series over NPoly.  An odd power of sqrtLam or sqrtN or a
    non-real coefficient in Z_T would be an error.
    """
    z = direct_tensor_z(D, order)
    coeffs = [NPoly() for _ in range(order + 1)]
    for m, c in z.terms.items():
        if m.hl % 2 or m.hn % 2 or c.im:
            raise AssertionError("not a real series in lambda and N: %s * %s"
                                 % (c, m))
        coeffs[m.hl // 2] = coeffs[m.hl // 2] + NPoly.N_pow(m.hn // 2, c.re)
    f = USeries(coeffs, order, NPoly()).log()
    return {k: sorted(f[k].c) for k in range(1, order + 1)}


# -- Baker-Campbell-Hausdorff in the faithful 2x2 representation -----------
#
# The entries are USeries in the symbol D with Fraction coefficients;
# exp(s D) enters through its coefficients s^k / k!.


def _m_mul(A, B):
    return ((A[0][0] * B[0][0] + A[0][1] * B[1][0],
             A[0][0] * B[0][1] + A[0][1] * B[1][1]),
            (A[1][0] * B[0][0] + A[1][1] * B[1][0],
             A[1][0] * B[0][1] + A[1][1] * B[1][1]))


def bch_log_product(order=8):
    """Entries of log(e^X e^Y) for X = diag(D, 0), Y = upper-right unit.

    Returns ((a, b), (c, d)) as USeries; the claim under test is a = D,
    b = D/(1 - e^{-D}), c = d = 0.

    >>> (a, b), (c, d) = bch_log_product(2)
    >>> a == USeries([0, 1], 2) and c == d == USeries([], 2)
    True
    >>> b.c                                  # 1 + D/2 + D^2/12
    [Fraction(1, 1), Fraction(1, 2), Fraction(1, 12)]
    """
    work = order + 4
    one = USeries([1], work)
    zero = USeries([], work)
    eD = USeries([Fraction(1, factorial(k)) for k in range(work + 1)], work)
    P = ((eD, eD), (zero, one))          # e^X e^Y
    V = ((P[0][0] - one, P[0][1]), (P[1][0], P[1][1] - one))
    out = ((zero, zero), (zero, zero))
    power = ((one, zero), (zero, one))
    for k in range(1, work + 1):
        power = _m_mul(power, V)
        s = Fraction((-1) ** (k + 1), k)
        out = tuple(tuple(out[i][j] + s * power[i][j] for j in (0, 1))
                    for i in (0, 1))
    return tuple(tuple(USeries(e.c, order) for e in row) for row in out)


def bch_gamma(order=8):
    """D/(1 - e^{-D}) by direct series division."""
    work = order + 2
    one = USeries([1], work)
    e_minus = USeries([Fraction((-1) ** k, factorial(k))
                       for k in range(work + 1)], work)
    den = one - e_minus                              # 1 - e^{-D}, order >= 1
    gamma = one / den.shift_down()                   # D/(1-e^{-D})
    return USeries(gamma.c, order)


def bch_gamma_sym(order=8):
    """(D/2) e^{D/2} / sinh(D/2), built independently of bch_gamma."""
    work = order + 2
    ep = USeries([Fraction(1, 2 ** k * factorial(k))
                  for k in range(work + 1)], work)
    em = USeries([Fraction((-1) ** k, 2 ** k * factorial(k))
                  for k in range(work + 1)], work)
    sinh2 = Fraction(1, 2) * (ep - em)               # sinh(D/2): odd, leading D/2
    val = Fraction(1, 2) * ep / sinh2.shift_down()
    return USeries(val.c, order)


def bch_residuals(order):
    """log(e^X e^Y) = X + gamma(D) Y, with the two forms of gamma, as
    series through D^order that must all vanish."""
    (a, b), (c, d) = bch_log_product(order)
    gamma, D = bch_gamma(order), USeries([0, 1], order)
    return {"a - D": a - D, "b - gamma": b - gamma, "c": c, "d": d,
            "gamma - gamma_sym": gamma - bch_gamma_sym(order)}
