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
V_-} and keeps what vanishes through joint degree 1; the frozen result is
a = N with charge z^{-N} on V_+.

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
non-active-colour letters of the input monomial).  The charge factor is a
pure z-power and commutes with Y; it is checked separately and left out of
the sandwich.

The deformed bilinear applies the dressed operators to e^{Y} prod_c Z^{(c)}
with all times alive and takes the same boxed residue.
"""

from fractions import Fraction

from .diffops import DiffOp
from .scalars import GaussRat
from .series import Monomial, Series, TruncSpec, WindowError
from .decomposition import _compositions, build_Y
from .onematrix import z1mm_series


# -- operator builders -----------------------------------------------------


def build_A(c, trunc, scale=1, n_max=None):
    """A^c = scale * sum_{n=0}^{n_max} z^n t^c_n as a multiplication op."""
    op = DiffOp(trunc)
    n_max = trunc.p_max if n_max is None else n_max
    for n in range(n_max + 1):
        op.add_term(GaussRat(Fraction(scale)), Monomial(zexp=n),
                    mults=(((c, n), 1),))
    return op


def build_B_sym(c, trunc):
    """B^c = sum_{n>=1} (z^{-n}/n) N^{-1} d/dt^c_n, N symbolic."""
    op = DiffOp(trunc)
    for n in range(1, trunc.p_max + 1):
        op.add_term(GaussRat(Fraction(1, n)), Monomial(hn=-2, zexp=-n),
                    derivs=(((c, n), 1),))
    return op


def build_B_concrete(c, trunc, nsize):
    """Same with the concrete size substituted."""
    op = DiffOp(trunc)
    for n in range(1, trunc.p_max + 1):
        op.add_term(GaussRat(Fraction(1, n * nsize)), Monomial(zexp=-n),
                    derivs=(((c, n), 1),))
    return op


def closed_form_AY(D, c, trunc, colours=None, scale=1):
    """[A^c, Y] built directly from its closed form (not via commutators)."""
    if colours is None:
        colours = tuple(range(1, D + 1))
    if c not in colours:
        raise ValueError("active colour must be one of the colours")
    pos = colours.index(c)
    Y = build_Y(D, trunc, colours)
    op = DiffOp(trunc)
    for total in range(1, trunc.max_hl + 1):
        for q in _compositions(total, D):
            # reuse Y's exact coefficient for the tuple, then strip the
            # colour-c derivative and attach z^{q_c} and the minus sign
            derivs = {}
            for cc, qc in zip(colours, q):
                derivs[(cc, qc)] = derivs.get((cc, qc), 0) + 1
            key = None
            for (m0, mu0, de0), coeff0 in Y.terms.items():
                if mu0 == () and dict(de0) == derivs and m0.hl == total:
                    key = (m0, coeff0)
                    break
            assert key is not None
            m0, coeff0 = key
            derivs[(c, q[pos])] -= 1
            if not derivs[(c, q[pos])]:
                del derivs[(c, q[pos])]
            op.add_term(coeff0 * GaussRat(Fraction(-scale)),
                        Monomial(m0.hl, m0.hn, m0.h2, m0.zexp + q[pos]),
                        derivs=tuple(derivs.items()))
    return op


def _rehome(op, trunc):
    out = DiffOp(trunc)
    for (m, mu, de), coeff in op.terms.items():
        out.add_term(coeff, m, mu, de)
    return out


def dressing_op_residuals(D, c=1, max_q=4, p_ring=4):
    """The four operator identities behind the dressed vertex form.

    Returns {name: residual DiffOp}; all must be the zero operator.  The
    [Y, [A,Y]] composition is evaluated in a ring with doubled sqrtLam cap
    so the cross terms are not clipped before they can fail to cancel.
    """
    win = p_ring + max_q + 2
    trunc = TruncSpec(max_q, 0, p_ring, (-win, win))
    colours = tuple(range(1, D + 1))
    A = build_A(c, trunc)
    Y = build_Y(D, trunc, colours)
    B = build_B_sym(c, trunc)
    AY = A.commutator(Y)
    big = TruncSpec(2 * max_q, 0, p_ring, (-win, win))
    return {
        "B_commutes_with_Y": B.commutator(Y),
        "ad_A_squared": A.commutator(AY),
        "closed_form_matches": AY - closed_form_AY(D, c, trunc, colours),
        "Y_commutes_with_AY": _rehome(Y, big).commutator(_rehome(AY, big)),
    }


def charge_commutes_with_Y(D, nsize=2, max_q=3):
    """[z^{-N}, Y] = 0: the charge factor passes through e^{Y} freely."""
    win = nsize + max_q + 2
    trunc = TruncSpec(max_q, 0, max_q, (-win, win))
    charge = DiffOp(trunc).add_term(1, Monomial(zexp=-nsize))
    return charge.commutator(build_Y(D, trunc))


# -- conjugation sandwich on basis monomials -------------------------------


def _apply_vertex_core(series, c, D, sign, trunc, with_middle, colours=None):
    """e^{sign A} [e^{-sign [A,Y]}] e^{-sign B} on `series` (no charge).

    The symbolic-N vertex at scale 1, literal operator ordering: B first.
    """
    B = build_B_sym(c, trunc)
    out = B.apply_exp(series, scale=-sign)
    if with_middle:
        mid = closed_form_AY(D, c, trunc, colours=colours)
        out = mid.apply_exp(out, scale=-sign)
    a_ser = Series(trunc)
    for n in range(trunc.p_max + 1):
        a_ser.add_term(Fraction(sign), zexp=n, times=(((c, n), 1),))
    return a_ser.exp_trunc().mul(out)


def conjugation_sandwich_residual(mono, D, c=1, sign=1, hl_cap=4, p_ring=4,
                                  deg_extra=2):
    """e^{Y} V^c e^{-Y} (m) minus the dressed closed form applied to m.

    Output compared on degrees <= deg(m) + deg_extra.  The sandwich route
    runs in a ring enlarged by D * k_max more degrees, where k_max = the
    least non-active-colour letter count of m — the only supply the final
    e^{Y} can consume, hence a bound on how far above the comparison box an
    intermediate can sit and still come back down.
    """
    colours = tuple(range(1, D + 1))
    counts = {cc: 0 for cc in colours}
    for (cc, _p), e in mono.times:
        counts[cc] += e
    k_max = min(v for cc, v in counts.items() if cc != c)
    deg_out = mono.time_degree() + deg_extra
    deg_L = deg_out + D * k_max
    win = p_ring * deg_L + mono.time_weight() + hl_cap + 4
    t_R = TruncSpec(hl_cap, deg_out, p_ring, (-win, win))
    t_L = TruncSpec(hl_cap, deg_L, p_ring, (-win, win))
    Y_L = build_Y(D, t_L, colours)

    s = Series(t_L).add_term(1, hl=mono.hl, hn=mono.hn, h2=mono.h2,
                             zexp=mono.zexp, times=mono.times)
    u = Y_L.apply_exp(s, scale=-1)
    u = _apply_vertex_core(u, c, D, sign, t_L, with_middle=False)
    lhs = Y_L.apply_exp(u).restrict(t_R)

    s2 = Series(t_R).add_term(1, hl=mono.hl, hn=mono.hn, h2=mono.h2,
                              zexp=mono.zexp, times=mono.times)
    rhs = _apply_vertex_core(s2, c, D, sign, t_R, with_middle=True)
    return lhs - rhs


def basis_monomials(D, deg_max, p_max):
    """All time monomials over colours 1..D, indices <= p_max (incl. t_0),
    of degree <= deg_max.

    >>> len(basis_monomials(2, 2, 1))       # 1 + 4 + C(5, 2) over 4 times
    15
    """
    vars_ = [(c, p) for c in range(1, D + 1) for p in range(p_max + 1)]
    out = [Monomial()]
    def rec(start, left, acc):
        for i in range(start, len(vars_)):
            d = dict(acc)
            d[vars_[i]] = d.get(vars_[i], 0) + 1
            out.append(Monomial(times=tuple(d.items())))
            if left > 1:
                rec(i, left - 1, d)
    if deg_max:
        rec(0, deg_max, {})
    return out


# -- equal-size bilinear on the one-matrix side ----------------------------


def hirota_factor(sign, c, nsize, d_ext, p_ext, a_scale="N",
                  charge_literal=True, ring=None):
    """V_{sign}(z) Z[t^{(c)}] at concrete size, boxed to the verified window.

    sign = +1 is V_+.  charge_literal assigns z^{-N} to V_+ (flipping it is
    only used by the calibration scan).
    """
    P = d_ext * p_ext + 1
    W = 2 * d_ext * p_ext + 1
    if ring is None:
        # deep enough for every B-insertion (bounded by the weight cap W)
        # plus the charge shift, with strict slack on both sides
        win = max(d_ext * P, W) + nsize + 2
        ring = TruncSpec(0, d_ext + P, P, (-win, win), max_time_weight=W)
    if ring.z_max < W + nsize + 2:
        raise ValueError("z window too small to certify the residue")
    z = z1mm_series(ring, colour=c, nsize=nsize)
    u = build_B_concrete(c, ring, nsize).apply_exp(z, scale=-sign)
    shift = -sign * nsize if charge_literal else sign * nsize
    u = u.shift_z(shift)
    u = u.restrict(TruncSpec(0, d_ext, p_ext, (ring.z_min, ring.z_max)))
    a_val = nsize if a_scale == "N" else 1
    a_ser = Series(TruncSpec(0, d_ext, p_ext, (ring.z_min, ring.z_max)))
    for n in range(p_ext + 1):
        a_ser.add_term(Fraction(sign * a_val), zexp=n, times=(((c, n), 1),))
    out = a_ser.exp_trunc().mul(u)
    for m in out.terms:
        if m.zexp in (ring.z_min, ring.z_max):
            raise WindowError("bilinear factor touches the z boundary")
    return out


def hirota_residual(nsize, d_ext=2, p_ext=3, a_scale="N", charge_literal=True,
                    zwindow=None):
    """Res_z V_+ Z[t] . V_- Z[t~] on the box; zero iff the identity holds.

    The two time sets are colour tags 1 and 2.  zwindow overrides the
    half-width of the z window; too-shallow values are rejected rather
    than silently certifying nothing.
    """
    ring = None
    if zwindow is not None:
        P = d_ext * p_ext + 1
        W = 2 * d_ext * p_ext + 1
        ring = TruncSpec(0, d_ext + P, P, (-zwindow, zwindow),
                         max_time_weight=W)
    f_plus = hirota_factor(+1, 1, nsize, d_ext, p_ext, a_scale,
                           charge_literal, ring)
    f_minus = hirota_factor(-1, 2, nsize, d_ext, p_ext, a_scale,
                            charge_literal, ring)
    prod = f_plus.mul(
        f_minus,
        admit=lambda m: m.zexp == -1 and m.time_degree() <= d_ext)
    return prod.residue_z()


def calibrate_conventions(nsizes=(1, 2), d_ext=1, p_ext=2):
    """Scan the four (a_scale, charge) conventions; return the survivors.

    A convention survives when the boxed residual vanishes for every listed
    size.  The Gaussian point alone cannot discriminate (everything passes
    there), and N = 1 cannot either; degree 1 at N = 2 is decisive.
    """
    out = []
    for a_scale in ("N", "1"):
        for charge_literal in (True, False):
            ok = True
            for n in nsizes:
                if not hirota_residual(n, d_ext, p_ext, a_scale,
                                       charge_literal).is_zero():
                    ok = False
                    break
            if ok:
                out.append((a_scale, charge_literal))
    return out


# -- deformed bilinear on the tensor side ----------------------------------


def _colour_budget_filter(series, budgets):
    """Keep monomials whose per-colour letter count/weight fit the budgets."""
    def ok(m):
        use = {}
        for (cc, p), e in m.times:
            cnt, wt = use.get(cc, (0, 0))
            use[cc] = (cnt + e, wt + p * e)
        for cc, (cnt, wt) in use.items():
            bc, bw = budgets[cc]
            if cnt > bc or wt > bw:
                return False
        return True
    return series.filter(ok)


def tensor_vertex_factor(sign, D, K, nsize, c=1, d_ext=1, p_ext=2,
                         a_scale="N", prefilter=True, with_middle=True):
    """Dressed vertex applied to e^{Y} prod_c Z^{(c)} with times alive.

    sign = +1 uses time-set colours 1..D, sign = -1 uses D+1..2D; the
    active colour is c within the set.  Returns the boxed factor series.
    with_middle=False drops the e^{-+[A,Y]} factor (ablation only: the
    residual must then fail to vanish, showing the factor is load-bearing).
    """
    offset = 0 if sign > 0 else D
    colours = tuple(offset + cc for cc in range(1, D + 1))
    c_act = offset + c
    P = d_ext * p_ext + 1 + 2 * K
    W = d_ext * p_ext + P + 4 * K * K + 2
    degR = P + 2 * K * D + d_ext + 2
    win = max(d_ext * P + 2 * K, W) + nsize + 2
    ring = TruncSpec(2 * K, degR, P, (-win, win), max_time_weight=W)
    a_val = nsize if a_scale == "N" else 1

    prod = Series.one(ring)
    for cc in colours:
        zc = z1mm_series(ring, colour=cc, nsize=nsize)
        if prefilter:
            if cc == c_act:
                budget = {cc: (P + 2 * K + d_ext,
                               P + 2 * K + d_ext * p_ext)}
            else:
                budget = {cc: (2 * K + d_ext, 2 * K + d_ext * p_ext)}
            zc = _colour_budget_filter(zc, budget)
        prod = prod.mul(zc)
    s = build_Y(D, ring, colours).apply_exp(prod)

    u = build_B_concrete(c_act, ring, nsize).apply_exp(s, scale=-sign)
    if with_middle:
        mid = closed_form_AY(D, c_act, ring, colours=colours, scale=a_val)
        u = mid.apply_exp(u, scale=-sign)
    u = u.shift_z(-sign * nsize)
    u = u.restrict(TruncSpec(2 * K, d_ext, p_ext, (ring.z_min, ring.z_max)))

    a_ser = Series(TruncSpec(2 * K, d_ext, p_ext, (ring.z_min, ring.z_max)))
    for n in range(p_ext + 1):
        a_ser.add_term(Fraction(sign * a_val), zexp=n,
                       times=(((c_act, n), 1),))
    return a_ser.exp_trunc().mul(u)


def tensor_bilinear_residual(D, K, nsize, c=1, d_ext=1, p_ext=2,
                             a_scale="N", prefilter=True, with_middle=True):
    """Boxed residue of the dressed bilinear pairing; zero iff it holds."""
    f_plus = tensor_vertex_factor(+1, D, K, nsize, c, d_ext, p_ext,
                                  a_scale, prefilter, with_middle)
    f_minus = tensor_vertex_factor(-1, D, K, nsize, c, d_ext, p_ext,
                                   a_scale, prefilter, with_middle)
    prod = f_plus.mul(
        f_minus,
        admit=lambda m: m.zexp == -1 and m.time_degree() <= d_ext)
    return prod.residue_z()


def tensor_reduction_residual(D, nsize, c=1, d_ext=1, p_ext=2,
                              a_scale="N"):
    """At K = 0 the dressed factor must equal (undeformed 1MM vertex factor
    on the active colour) times the spectator partition functions, built
    independently in the same ring.  Returns the difference.

    Compared on the residue-relevant z range z >= -(1 + d*p_ext + nsize):
    deeper factor terms cannot pair to z^{-1} (the other factor tops out at
    z^{d*p_ext + nsize}), and there the weight-capped rings are not claimed
    exact."""
    lhs = tensor_vertex_factor(+1, D, 0, nsize, c, d_ext, p_ext, a_scale,
                               prefilter=False)
    P = d_ext * p_ext + 1
    W = d_ext * p_ext + P + 2
    degR = P + d_ext + 2
    win = max(d_ext * P, W) + nsize + 2
    ring = TruncSpec(0, degR, P, (-win, win), max_time_weight=W)
    a_val = nsize if a_scale == "N" else 1
    z = z1mm_series(ring, colour=c, nsize=nsize)
    u = build_B_concrete(c, ring, nsize).apply_exp(z, scale=-1)
    u = u.shift_z(-nsize)
    for cc in range(1, D + 1):
        if cc != c:
            u = u.mul(z1mm_series(ring, colour=cc, nsize=nsize))
    u = u.restrict(TruncSpec(0, d_ext, p_ext, (ring.z_min, ring.z_max)))
    a_ser = Series(TruncSpec(0, d_ext, p_ext, (ring.z_min, ring.z_max)))
    for n in range(p_ext + 1):
        a_ser.add_term(Fraction(a_val), zexp=n, times=(((c, n), 1),))
    rhs = a_ser.exp_trunc().mul(u)
    lo = -(1 + d_ext * p_ext + nsize)
    keep = lambda m: m.zexp >= lo
    return lhs.filter(keep) - rhs.filter(keep)
