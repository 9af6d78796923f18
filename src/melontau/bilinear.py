"""Vertex operators and bilinear (Hirota-type) identities, exactly.

One-matrix side
---------------
On a tau function at concrete size N the vertex operators act as

    V_+(z) = e^{+A} z^{-N} e^{-B},     V_-(z) = e^{-A} z^{+N} e^{+B},

applied rightmost first, with

    A = a * sum_{n=0}^{...} z^n t_n          (multiplication),
    B = sum_{n>=1} (z^{-n} / (n N)) d/dt_n   (Miwa shift of the N-scaled
                                              times: inserts det(1 - M/z)^{+-1}).

The A-part scale a is a convention choice the bilinear identity is sharply
sensitive to: because the model couples times as exp(-N sum t_p Tr M^p), the
measure-conversion step of the orthogonality argument needs a = N, not the
naive a = 1 (which happens to survive at N = 1 and at all times = 0 — both
blind spots).  calibrate_conventions scans {a in {1, N}} x {charge on V_+ or
V_-} and keeps what vanishes through joint degree 1.  It pins a = N only:
at equal sizes z^{-N} z^{+N} = 1, so both charge assignments survive, and
only a cross-size identity (sizes a != b) can tell them apart; the charge
z^{-N} sits on V_+ by convention.

The equal-size bilinear check computes

    Res_z  V_+(z) Z[t] . V_-(z) Z[t~]  = 0

coefficient-by-coefficient on the box {time index <= p_ext, joint degree
<= d}.  Exactness with a finite ring follows from two bounds proved by
z-counting: every A-insertion lands in the output monomial (so A can be
trimmed to the box), and the total B-insertion weight obeys
  sum beta = 1 + sum(A-insertion weights) + sum(middle z-shifts)
           <= 1 + d*p_ext (+ 2K in the deformed case) =: P.
The ring then needs indices <= P, degree <= d + P and weighted degree
<= d*p_ext + P.

Tensor side
-----------
Conjugating by e^{Y} dresses the vertex operators:

    e^{Y} V^c_{+-} e^{-Y} = e^{+-A^c} e^{-+[A^c, Y]} e^{-+B^c},

because [B^c, Y] = 0, ad_{A^c}^2(Y) = 0 and [Y, [A^c, Y]] = 0; the middle
factor has the closed form

    [A^c, Y] = -a sum_q y_q z^{q_c} d^{D-1}/dt (colour-c derivative omitted).

These four operator identities are verified by normal-ordered composition,
and the sandwich itself is checked on basis monomials with a per-monomial
enlarged inner truncation (an e^{Y} application can lower the degree by at
most D, and the number of applications that can fire is bounded by the
non-active-colour letters of the input monomial).  Y and [A, Y] have the
same terms in every such ring, so a run over the basis builds them once
per D.  The charge factor is a pure z-power and commutes with Y by
construction, so it is left out of the sandwich.

The deformed bilinear takes the same residue of the dressed operators on
e^{Y} prod_c Z^{(c)} (all times alive), shifting first as [B^c, Y] = 0.

One pipeline
------------
Every factor above (the equal-size V_+-, the dressed tensor vertex, the
undeformed factor of the K = 0 reduction and both sides of the sandwich)
runs one chain: e^{-+B} (_vertex), then the optional middle factor
e^{-+[A,Y]}, the charge z^{-+N}, restriction to the output box and e^{+-aA}
on that box (_vertex_tail).  A caller only picks the ring, the output box,
N (symbolic or concrete) and the middle factor.  The dressed factor shifts
before the product and e^{Y}, with the same result: the ring clipped the
product before the shift by the two grades alone, so the active terms that
the same spectator grades fit beside are shifted and multiplied as one.

Both exponentials are applied in closed form.  e^{-+B} is the Miwa shift
t[c,n] -> t[c,n] -+ z^{-n}/(nN), box-pruned: each input term is expanded
once, over how many copies of each active letter it keeps, and only the
choices that can still reach the output box are enumerated
(_miwa_shift).  e^{+-aA} is one product with the series
exp(+-a sum_n z^n t[c,n]) (_exp_A).  B only lowers degree, weight and z
and A only raises them, so a term that leaves the ring never comes back:
one truncation at the end equals truncating every iterate of the
operator, as apply_exp does.

Past the one-matrix series, every stage to the output box is a product,
which only adds letters, or a pure derivative (Y, B and [A, Y]), which
only takes them off.  _reach turns this into the admit predicate that the
products of the one-matrix series, e^{Y}, the Miwa shift and the middle
factor check on the terms they form: B strips active letters of index
>= 1 for free, a Y or middle application strips one letter of each colour
it acts on for sqrtLam >= max(1, stripped index sum), and what no stage
left can strip must already fit the box.  It reads degree, indices and
sqrtLam, never z, so it drops only terms the restriction would drop later:
every factor is unchanged term by term, deep z included.  The
colour-budget prefilter on the one-matrix series is a different cut, a
z-counting bound (sum beta <= P) that is exact for the residue only.  The
sandwich's box is its ring, where _reach admits every term.

Only the residue is box-exact, not each factor: a factor's deep-z terms
are clipped by the ring's weight cap and change when the ring grows, while
the terms that can pair to z^{-1} in the output box do not.  The tests
recompute the equal-size and the deformed residue in a ring with every
cap raised by 1.
"""

from bisect import bisect_left
from fractions import Fraction
from math import comb

from .diffops import DiffOp
from .scalars import GaussRat
from .series import Monomial, Series, TruncSpec, WindowError, letter_products
from .decomposition import build_Y
from .onematrix import z1mm_series


# -- operator builders -----------------------------------------------------


def build_A(c, trunc, scale=1):
    """A^c = scale * sum_{n=0}^{p_max} z^n t^c_n as a multiplication op."""
    op = DiffOp(trunc)
    for n in range(trunc.p_max + 1):
        op.add_term(GaussRat(Fraction(scale)), Monomial(zexp=n),
                    mults=(((c, n), 1),))
    return op


def build_B(c, trunc):
    """B^c = sum_{n>=1} (z^{-n}/n) N^{-1} d/dt^c_n at symbolic N
    (N^{-1} = sqrtN^{-2}), as in z1mm_series.  The vertex chain applies
    e^{-+B} in closed form (_miwa_shift); this operator is what the
    dressing identities compose."""
    op = DiffOp(trunc)
    for n in range(1, trunc.p_max + 1):
        op.add_term(GaussRat(Fraction(1, n)), Monomial(hn=-2, zexp=-n),
                    derivs=(((c, n), 1),))
    return op


def closed_form_AY(D, c, trunc, colours=None, scale=1):
    """[A^c, Y] built directly from its closed form (not via commutators)."""
    if colours is None:
        colours = tuple(range(1, D + 1))
    if c not in colours:
        raise ValueError("active colour must be one of the colours")
    op = DiffOp(trunc)
    for (m, _mu, de), coeff in build_Y(D, trunc, colours).terms.items():
        # each Y term carries one derivative d/dt[cc, q_cc] per colour:
        # strip the colour-c one and attach z^{q_c} and the minus sign
        (q_c,) = [p for (cc, p), _e in de if cc == c]
        op.add_term(coeff * GaussRat(Fraction(-scale)),
                    Monomial(m.hl, m.hn, m.zexp + q_c),
                    derivs=tuple(d for d in de if d[0][0] != c))
    return op


def dressing_op_residuals(D):
    """The four operator identities behind the dressed vertex form, for
    active colour 1, |q| <= 4 and time indices <= 4.

    Returns {name: residual DiffOp}; all must be the zero operator.  The
    [Y, [A,Y]] composition is evaluated in a ring with doubled sqrtLam cap
    so the cross terms are not clipped before they can fail to cancel.
    """
    c, max_q, p_ring = 1, 4, 4
    win = p_ring + max_q + 2
    trunc = TruncSpec(max_q, 0, p_ring, (-win, win))
    colours = tuple(range(1, D + 1))
    A = build_A(c, trunc)
    Y = build_Y(D, trunc, colours)
    B = build_B(c, trunc)
    AY = A.commutator(Y)
    big = TruncSpec(2 * max_q, 0, p_ring, (-win, win))
    return {
        "B_commutes_with_Y": B.commutator(Y),
        "ad_A_squared": A.commutator(AY),
        "closed_form_matches": AY - closed_form_AY(D, c, trunc, colours),
        "Y_commutes_with_AY": (DiffOp(big) + Y).commutator(DiffOp(big) + AY),
    }


# -- the vertex-factor pipeline --------------------------------------------


def _reach(box, c, stages):
    """The predicate admit(hl, times) that is False only for a term no
    stage still to come can bring into box (see "One pipeline" above).
    stages names them: "Y" more e^{Y}, "B" e^{-+B} on the active colour c,
    "M" the middle factor.  Y and the middle factor fire at most
    r = box.max_hl - hl times between them.

    >>> box = TruncSpec(2, 1, 2)
    >>> _reach(box, 1, "B")(0, (((1, 0), 1), ((1, 5), 3)))  # B strips t[1,5]
    True
    >>> _reach(box, 1, "B")(0, (((1, 0), 2),))      # index 0: B cannot
    False
    >>> _reach(box, 1, "M")(0, (((1, 3), 1),))      # B is done: 3 > p_max
    False
    >>> _reach(box, 1, "M")(0, (((1, 1), 1), ((2, 2), 1)))  # strip t[2,2]
    True
    >>> _reach(box, 1, "M")(2, (((1, 1), 1), ((2, 2), 1)))  # no sqrtLam left
    False
    >>> _reach(box, 1, "M")(0, (((2, 3), 1),))      # cost 3 > max_hl
    False
    >>> _reach(TruncSpec(4, 1, 2), 1, "Y")(0, (((1, 3), 1), ((2, 0), 1)))
    True
    """
    strip = "Y" in stages or "M" in stages
    strip_c = "Y" in stages
    b_left = "B" in stages
    deg, p_box, hl_box = box.max_time_deg, box.p_max, box.max_hl

    def admit(hl, times):
        k = hl_box - hl if strip else 0     # Y / middle applications left
        cost = 0                            # index sum only they can strip
        counts = {}
        for (cc, p), e in times:
            if cc == c and b_left and p:
                continue
            if p > p_box:
                if cc == c and not strip_c:
                    return False
                cost += p * e
            counts[cc] = counts.get(cc, 0) + e
        if cost > k:
            return False
        left = 0
        for cc, n in counts.items():
            kc = k if cc != c or strip_c else 0
            if n > kc:
                left += n - kc
        return left <= deg

    return admit


def _miwa_shift(s, lam, c, nsize, box, admit_in=None, admit_out=None):
    """e^{lam B^c} s in closed form, in the ring of s: the Miwa shift
    t[c,n] -> t[c,n] + lam z^{-n}/(nN) of each letter B differentiates
    (1 <= n <= p_max with z^{-n} in the window, as in build_B).  nsize=None
    keeps N symbolic (N^{-1} = sqrtN^{-2}).

    Each input term is expanded once: a letter t[c,p]^e keeps r of its e
    copies, and the k = e - r stripped ones contribute
    C(e, k) (lam/(pN))^k z^{-pk}.  Choices that take z below the window
    are never enumerated, nor those that keep a letter of index > box.p_max
    or more than box.max_time_deg colour-c letters: box must be one that no
    later stage can strip colour c down into (the dressed factor, whose
    e^{Y} follows, passes its ring).  admit_in filters the input terms and
    admit_out the results, as admit(hl, times).

    >>> ring = TruncSpec(0, 2, 2, (-4, 4))
    >>> s = Series(ring).add_term(1, times=(((1, 2), 2),))
    >>> print(_miwa_shift(s, -1, 1, 2, ring))   # (t - z^-2/4)^2
    (1/16)*z^-4 + (-1/2)*z^-2 * t[1,2]^1 + (1)*t[1,2]^2
    """
    z_min = s.trunc.z_min
    p_b = min(s.trunc.p_max, -z_min)
    out = Series(s.trunc)
    factor = {}                 # (p, e, k) -> C(e, k) (lam/(pN))^k
    for m, coeff in s.terms.items():
        if admit_in is not None and not admit_in(m.hl, m.times):
            continue
        # the letters B differentiates are one block of the sorted times
        times = m.times
        lo = bisect_left(times, ((c, 1), 0))
        hi = bisect_left(times, ((c, p_b + 1), 0))
        head, tail = times[:lo], times[hi:]
        kept = sum(e for (cc, _p), e in head + tail if cc == c)
        # partial expansions: (z, colour-c letters kept, kept block,
        # coefficient, letters stripped)
        partial = [(m.zexp, kept, (), coeff, 0)]
        for key, e in times[lo:hi]:
            p = key[1]
            nxt = []
            for z, kept, block, cf, n in partial:
                for k in range(max(e if p > box.p_max else 0,
                                   e + kept - box.max_time_deg),
                               min(e, (z - z_min) // p) + 1):
                    f = factor.get((p, e, k))
                    if f is None:
                        f = factor[(p, e, k)] = GaussRat(comb(e, k) * (
                            Fraction(lam, p if nsize is None
                                     else p * nsize) ** k))
                    nxt.append((z - p * k, kept + e - k,
                                block + ((key, e - k),) if k < e else block,
                                cf * f, n + k))
            partial = nxt
        for z, _kept, block, cf, n in partial:
            new_times = head + block + tail
            if admit_out is None or admit_out(m.hl, new_times):
                out._put(Monomial._trusted(
                    m.hl, m.hn - 2 * n if nsize is None else m.hn, z,
                    new_times), cf)
    return out


def _exp_A(c, box, scale):
    """exp(scale A^c) = prod_{n<=p_max} exp(scale z^n t^c_n), the series
    e^{scale A^c} multiplies by: every term prod (scale z^n t^c_n)^{e_n}
    / e_n! within box's degree and weight caps.  A only raises degree,
    weight and z, so one truncated product equals the truncated iterates
    of A.  A term's z is its weight, and it may exceed z_max by -z_min:
    a box term below z^0 can still carry it into the box.

    >>> print(_exp_A(1, TruncSpec(0, 1, 1, (-1, 1)), 2))
    (1)*1 + (2)*t[1,0]^1 + (2)*z^1 * t[1,1]^1
    """
    deg = box.max_time_deg
    out = Series(TruncSpec(box.max_hl, deg, box.p_max,
                           (box.z_min, box.z_max - box.z_min),
                           max_time_weight=box.max_time_weight))
    coeff = {}                  # (degree, prod e_n!) -> scale^degree / it
    for times, d, w, den in letter_products(
            [(c, n) for n in range(min(box.p_max, box.z_max) + 1)], deg,
            min(box.z_max - box.z_min, box.max_time_weight)):
        cf = coeff.get((d, den))
        if cf is None:
            cf = coeff[(d, den)] = GaussRat(Fraction(scale ** d, den))
        out.terms[Monomial._trusted(0, 0, w, times)] = cf
    return out


def _vertex(s, sign, c, nsize, box, a_val=1, middle=None, charge=0):
    """e^{sign a A^c} restrict_box z^charge e^{-sign middle} e^{-sign B} s.

    The one vertex chain behind every bilinear factor, applied rightmost
    first in the ring of s, with B^c at size nsize (None: symbolic N):
    the Miwa shift (_miwa_shift), then _vertex_tail.  middle (the
    dressing [A^c, Y]) and the charge are optional."""
    mid = "" if middle is None else "M"
    u = _miwa_shift(s, -sign, c, nsize, box, _reach(box, c, "B" + mid),
                    _reach(box, c, mid))
    return _vertex_tail(u, sign, c, box, a_val, middle, charge)


def _vertex_tail(u, sign, c, box, a_val, middle, charge):
    """The chain after e^{-+B}: e^{-+middle} pruned by _reach, z^charge,
    restriction to box and e^{+-aA} (_exp_A).  Raises WindowError if a term
    sits on the z boundary, which clipped partners could have cancelled."""
    if middle is not None:
        u = middle.apply_exp(u, -sign, _reach(box, c, "M"))
    if charge:
        u = u.shift_z(charge)
    u = u.restrict(box)
    out = u.mul(_exp_A(c, box, sign * a_val))
    for m in out.terms:
        if m.zexp in (box.z_min, box.z_max):
            raise WindowError("bilinear factor touches the z boundary")
    return out


def _out_box(ring, d_ext, p_ext):
    """The verified output box of a bilinear factor computed in ring."""
    return TruncSpec(ring.max_hl, d_ext, p_ext, (ring.z_min, ring.z_max))


def _pair_residue(f_plus, f_minus, d_ext):
    """Res_z f_plus f_minus on the output box: the z^{-1} terms of joint
    time degree <= d_ext, with z dropped."""
    return f_plus.mul(
        f_minus,
        admit=lambda m: m.zexp == -1 and m.grade()[0] <= d_ext).residue_z()


def _hirota_ring(d_ext, p_ext, nsize):
    """The equal-size ring: indices <= P, degree <= d + P, weight
    W = d*p_ext + P, and a z window deep enough for every B-insertion
    (bounded by W) plus the charge, with strict slack on both sides."""
    P = d_ext * p_ext + 1
    W = d_ext * p_ext + P
    half = max(d_ext * P, W) + nsize + 2
    return TruncSpec(0, d_ext + P, P, (-half, half), max_time_weight=W)


def _tensor_ring(D, K, nsize, d_ext, p_ext):
    """The deformed ring: 2K more B-weight, sqrtLam degree 2K and room for
    the e^{Y} degree drop of 2K letters per colour."""
    P = d_ext * p_ext + 1 + 2 * K
    W = d_ext * p_ext + P + 4 * K * K + 2
    degR = P + 2 * K * D + d_ext + 2
    win = max(d_ext * P + 2 * K, W) + nsize + 2
    return TruncSpec(2 * K, degR, P, (-win, win), max_time_weight=W)


# -- conjugation sandwich on basis monomials -------------------------------


def _sandwich_ring(mono, D, c, hl_cap, p_ring, deg_out):
    """The sandwich route's ring: degree deg_out + D * k_max, with k_max the
    least non-active-colour letter count of mono, and the z window
    |z| <= p_ring * degree + weight(mono) + hl_cap + 4."""
    counts = {cc: 0 for cc in range(1, D + 1) if cc != c}
    for (cc, _p), e in mono.times:
        if cc != c:
            counts[cc] += e
    deg_L = deg_out + D * min(counts.values())
    win = p_ring * deg_L + mono.grade()[1] + hl_cap + 4
    return TruncSpec(hl_cap, deg_L, p_ring, (-win, win))


def _sandwich_ops(D):
    """Y and [A^1, Y] at sqrtLam and index caps 4: the same terms in every
    sandwich ring (z^{q_1} <= z^4 fits each window), and DiffOp.apply works
    in the ring of the series it is given."""
    trunc, colours = TruncSpec(4, 0, 4), tuple(range(1, D + 1))
    return (build_Y(D, trunc, colours),
            closed_form_AY(D, 1, trunc, colours=colours))


def conjugation_sandwich_residual(mono, D, sign=1, _ops=None):
    """e^{Y} V^c e^{-Y} (m) minus the dressed closed form applied to m,
    for the active colour c = 1.

    Both sides run the symbolic-N vertex at scale 1 without the charge.
    Output compared on degrees <= deg(m) + 2, sqrtLam powers <= 4 and time
    indices <= 4.  The sandwich route runs in a ring enlarged by D * k_max
    more degrees, where k_max = the least non-active-colour letter count of
    m — the only supply the final e^{Y} can consume, hence a bound on how
    far above the comparison box an intermediate can sit and still come
    back down.

    _ops is the pair (Y, [A, Y]) of _sandwich_ops(D), which a run over the
    basis (conjugation_sandwich_residuals) builds once and shares; without
    it the pair is built here.
    """
    c, hl_cap, p_ring = 1, 4, 4
    deg_out = mono.grade()[0] + 2
    t_L = _sandwich_ring(mono, D, c, hl_cap, p_ring, deg_out)
    t_R = TruncSpec(hl_cap, deg_out, p_ring, (t_L.z_min, t_L.z_max))
    Y, AY = _sandwich_ops(D) if _ops is None else _ops

    s = Series(t_L).add_term(1, hl=mono.hl, hn=mono.hn, zexp=mono.zexp,
                             times=mono.times)
    u = Y.apply_exp(s, scale=-1)
    u = _vertex(u, sign, c, None, t_L)
    lhs = Y.apply_exp(u).restrict(t_R)

    s2 = Series(t_R).add_term(1, hl=mono.hl, hn=mono.hn, zexp=mono.zexp,
                              times=mono.times)
    rhs = _vertex(s2, sign, c, None, t_R, middle=AY)
    if lhs.trunc == rhs.trunc and lhs.terms == rhs.terms:
        return Series(lhs.trunc)
    return lhs - rhs


def basis_monomials(D, deg_max, p_max):
    """All time monomials over colours 1..D, indices <= p_max (incl. t_0),
    of degree <= deg_max, in letter_products order: the unit first, then
    lexicographic in the exponents of t[1,0], .., t[1,p_max], t[2,0], ..

    >>> [str(m) for m in basis_monomials(2, 1, 1)]
    ['1', 't[2,1]^1', 't[2,0]^1', 't[1,1]^1', 't[1,0]^1']
    >>> len(basis_monomials(2, 2, 1))       # 1 + 4 + C(5, 2) over 4 times
    15
    >>> basis_monomials(2, -1, 1)
    Traceback (most recent call last):
    ...
    ValueError: degree cap must be >= 0, got -1
    """
    if deg_max < 0:
        raise ValueError("degree cap must be >= 0, got %d" % deg_max)
    letters = [(c, p) for c in range(1, D + 1) for p in range(p_max + 1)]
    return [Monomial(times=times) for times, _d, _w, _den
            in letter_products(letters, deg_max, p_max * deg_max)]


def conjugation_sandwich_residuals(D, deg):
    """{"mismatch at <m>": thunk} over basis_monomials(D, deg, 2), each
    thunk the sandwich residual of m; the thunks share one pair of
    operators, _sandwich_ops(D)."""
    ops = _sandwich_ops(D)
    return {"mismatch at %s" % mono:
            lambda mono=mono: conjugation_sandwich_residual(mono, D, _ops=ops)
            for mono in basis_monomials(D, deg, 2)}


# -- equal-size bilinear on the one-matrix side ----------------------------


def hirota_factor(sign, c, nsize, d_ext, p_ext, a_scale="N",
                  charge_literal=True, ring=None):
    """V_{sign}(z) Z[t^{(c)}] at concrete size, boxed to the verified window.

    sign = +1 is V_+.  charge_literal assigns z^{-N} to V_+ (flipping it is
    only used by the calibration scan).
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1, got %r" % (sign,))
    if ring is None:
        ring = _hirota_ring(d_ext, p_ext, nsize)
    elif ring.z_max < 2 * d_ext * p_ext + 1 + nsize + 2:
        # below _hirota_ring's window: the weight cap, charge and slack
        raise ValueError("z window too small to certify the residue")
    return _vertex(z1mm_series(ring, colour=c, nsize=nsize), sign, c, nsize,
                   _out_box(ring, d_ext, p_ext),
                   a_val=nsize if a_scale == "N" else 1,
                   charge=-sign * nsize if charge_literal else sign * nsize)


def hirota_residual(nsize, d_ext=2, p_ext=3, a_scale="N", charge_literal=True):
    """Res_z V_+ Z[t] . V_- Z[t~] on the box; zero iff the identity holds.

    The two time sets are colour tags 1 and 2.  Each factor derives its
    ring, z window included, from the sizes (see hirota_factor).
    """
    # the literal None (ring) keeps the call shape bench/digests.json keys on
    f_plus = hirota_factor(+1, 1, nsize, d_ext, p_ext, a_scale,
                           charge_literal, None)
    f_minus = hirota_factor(-1, 2, nsize, d_ext, p_ext, a_scale,
                            charge_literal, None)
    return _pair_residue(f_plus, f_minus, d_ext)


def calibrate_conventions():
    """Scan the four (a_scale, charge) conventions; return the survivors.

    A convention survives when the boxed residual (degree 1, indices <= 2)
    vanishes at N = 1 and N = 2.  The Gaussian point alone cannot
    discriminate (everything passes there), and N = 1 cannot either;
    degree 1 at N = 2 is decisive for the a-scale.  Both charge
    assignments survive: the scan pins a = N only (see the module doc).
    """
    return [(a_scale, charge_literal)
            for a_scale in ("N", "1") for charge_literal in (True, False)
            if all(hirota_residual(n, 1, 2, a_scale, charge_literal).is_zero()
                   for n in (1, 2))]


# -- deformed bilinear on the tensor side ----------------------------------


def tensor_vertex_factor(sign, D, K, nsize, c=1, d_ext=1, p_ext=2,
                         a_scale="N", prefilter=True, with_middle=True):
    """Dressed vertex applied to e^{Y} prod_c Z^{(c)} with times alive.

    sign = +1 uses time-set colours 1..D, sign = -1 uses D+1..2D; the
    active colour is c within the set.  Returns the boxed factor series.
    with_middle=False drops the e^{-+[A,Y]} factor (ablation only: the
    residual must then fail to vanish, showing the factor is load-bearing).
    """
    if sign not in (1, -1) or not 1 <= c <= D:
        raise ValueError("sign must be +1 or -1 and 1 <= c <= D")
    offset = 0 if sign > 0 else D
    colours = tuple(offset + cc for cc in range(1, D + 1))
    c_act = offset + c
    ring = _tensor_ring(D, K, nsize, d_ext, p_ext)
    P = ring.p_max
    a_val = nsize if a_scale == "N" else 1
    box = _out_box(ring, d_ext, p_ext)
    mid = "M" if with_middle else ""
    reach_in, reach = (_reach(box, c_act, st + mid) for st in ("YB", "Y"))
    spect = Series.one(ring)
    for cc in colours:
        zc = z1mm_series(ring, colour=cc, nsize=nsize)
        if prefilter:
            # every letter of zc has colour cc, so the colour's letter
            # count and weight budgets are a degree and a weight cap
            extra = P if cc == c_act else 0
            budget = TruncSpec(ring.max_hl, extra + 2 * K + d_ext, P,
                               (ring.z_min, ring.z_max),
                               max_time_weight=extra + 2 * K + d_ext * p_ext)
            zc = zc.filter(budget.admits)
        if cc == c_act:
            active = zc
        else:   # more letters never help a term into the box: cut products
            spect = spect.mul(zc, admit=lambda m: reach_in(m.hl, m.times))
    # [B, Y] = 0: e^{-+B} shifts the active series before any product.  The
    # ring clipped that product before the shift, by the two grades alone:
    # group the active terms by the spectator grades that fit beside them,
    # then shift and multiply once per group
    grades = {m.grade() for m in spect.terms}
    fits, groups = {}, {}
    for m, cf in active.terms.items():
        d, w = g = m.grade()
        if g not in fits:
            fits[g] = frozenset(
                gs for gs in grades if d + gs[0] <= ring.max_time_deg
                and w + gs[1] <= ring.max_time_weight)
        groups.setdefault(fits[g], Series(ring)).terms[m] = cf
    prod = Series(ring)
    for fit, piece in groups.items():
        u = _miwa_shift(piece, -sign, c_act, nsize, ring, reach_in, reach)
        prod = prod + u.mul(spect.filter(lambda m: m.grade() in fit),
                            admit=lambda m: reach(m.hl, m.times))
    s = build_Y(D, ring, colours).apply_exp(prod, admit=reach)
    middle = (closed_form_AY(D, c_act, ring, colours=colours, scale=a_val)
              if with_middle else None)
    return _vertex_tail(s, sign, c_act, box, a_val, middle, -sign * nsize)


def tensor_bilinear_residual(D, K, nsize, d_ext=1, p_ext=2, a_scale="N",
                             with_middle=True):
    """Boxed residue of the dressed bilinear pairing on the active colour 1;
    zero iff it holds."""
    # the literals 1 (c) and True (prefilter) keep the call shape
    # bench/digests.json keys on
    f_plus = tensor_vertex_factor(+1, D, K, nsize, 1, d_ext, p_ext,
                                  a_scale, True, with_middle)
    f_minus = tensor_vertex_factor(-1, D, K, nsize, 1, d_ext, p_ext,
                                   a_scale, True, with_middle)
    return _pair_residue(f_plus, f_minus, d_ext)


def tensor_reduction_residual(D, nsize):
    """At K = 0 the dressed factor must equal (undeformed 1MM vertex factor
    on the active colour 1) times the spectator partition functions, built
    independently in the same ring, at degree 1, indices <= 2 and a = N.
    Returns the difference.

    Compared on the residue-relevant z range z >= -(1 + d*p_ext + nsize):
    deeper factor terms cannot pair to z^{-1} (the other factor tops out at
    z^{d*p_ext + nsize}), and there the weight-capped rings are not claimed
    exact."""
    d_ext, p_ext = 1, 2
    # written out in full: bench/digests.json keys on this call shape
    lhs = tensor_vertex_factor(+1, D, 0, nsize, 1, 1, 2, "N",
                               prefilter=False)
    ring = _tensor_ring(D, 0, nsize, d_ext, p_ext)
    rhs = _vertex(z1mm_series(ring, colour=1, nsize=nsize), +1, 1, nsize,
                  _out_box(ring, d_ext, p_ext), a_val=nsize, charge=-nsize)
    # the spectators carry no colour-1 time, so they commute with the
    # whole vertex chain and multiply in after it
    for cc in range(2, D + 1):
        rhs = rhs.mul(z1mm_series(ring, colour=cc, nsize=nsize))
    lo = -(1 + d_ext * p_ext + nsize)
    keep = lambda m: m.zexp >= lo
    return lhs.filter(keep) - rhs.filter(keep)
