"""Vertex operators, bilinear residues, and the operator dressing."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from melontau import bilinear
from melontau.bilinear import (
    basis_monomials,
    build_A,
    build_B,
    calibrate_conventions,
    closed_form_AY,
    conjugation_sandwich_residual,
    hirota_factor,
    hirota_residual,
    dressing_op_residuals,
    tensor_bilinear_residual,
    tensor_reduction_residual,
    tensor_vertex_factor,
)
from melontau import decomposition
from melontau.decomposition import (build_Y, direct_tensor_z, eY_applied_z,
                                    intermediate_field_z)
from melontau.diffops import DiffOp
from melontau.onematrix import z1mm_series
from melontau.scalars import GaussRat, minus_i_pow
from melontau.series import Monomial, Series, TruncSpec, WindowError


# -- operator-level identities --------------------------------------------


@pytest.mark.parametrize("D", [2, 3, 4])
def test_dressing_operator_identities(D):
    res = dressing_op_residuals(D)
    for name, op in res.items():
        assert op.is_zero(), name


def test_closed_form_scale_mismatch_detected():
    # negative control: the closed form at the wrong scale is not [A, Y]
    win = 10
    trunc = TruncSpec(3, 0, 4, (-win, win))
    A = build_A(1, trunc)
    Y = build_Y(2, trunc)
    assert not (A.commutator(Y) - closed_form_AY(2, 1, trunc, scale=2)).is_zero()


# -- conjugation sandwich on basis monomials ------------------------------


@pytest.mark.parametrize("D", [2, 3])
def test_sandwich_matches_dressed_form(D):
    for mono in basis_monomials(D, 2, 2):
        r = conjugation_sandwich_residual(mono, D, sign=+1)
        assert r.is_zero(), mono


@pytest.mark.parametrize("D", [2, 3])
def test_sandwich_minus_vertex(D):
    # the V_- branch, on the monomials where e^{Y} actually fires
    def k_max(mono):
        counts = {c: 0 for c in range(2, D + 1)}
        for (c, _p), e in mono.times:
            if c != 1:
                counts[c] += e
        return min(counts.values())

    mons = [m for m in basis_monomials(D, 2, 2) if k_max(m) >= 1]
    assert mons
    for mono in mons + [Monomial()]:
        assert conjugation_sandwich_residual(mono, D, sign=-1).is_zero(), mono


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("D", [2, 3])
def test_sandwich_wrong_closed_form_scale_fails(monkeypatch, D, sign):
    # negative control: [A, Y] at twice the A-scale is not the dressing
    orig = bilinear.closed_form_AY
    monkeypatch.setattr(bilinear, "closed_form_AY",
                        lambda *args, **kw: orig(*args, **dict(kw, scale=2)))
    assert any(not conjugation_sandwich_residual(m, D, sign=sign).is_zero()
               for m in basis_monomials(D, 2, 2))


def _sandwich_boxes(monkeypatch, mono, D):
    """The boxes conjugation_sandwich_residual(mono, D) runs _vertex on:
    its ring t_L, then its comparison box t_R."""
    boxes = []
    vertex = bilinear._vertex

    def recorded(s, sign, c, nsize, box, *args, **kwargs):
        boxes.append(box)
        return vertex(s, sign, c, nsize, box, *args, **kwargs)

    with monkeypatch.context() as mp:
        mp.setattr(bilinear, "_vertex", recorded)
        conjugation_sandwich_residual(mono, D)
    return tuple(boxes)


@pytest.mark.parametrize("D", [2, 3])
def test_sandwich_ops_are_those_of_every_sandwich_ring(monkeypatch, D):
    # a run shares one Y and [A, Y]; they must be the operators each ring
    # builds.  Both sides of the sandwich share Y, so its residual is
    # blind to a Y with missing terms
    Y, AY = bilinear._sandwich_ops(D)
    rings = {_sandwich_boxes(monkeypatch, mono, D)
             for mono in basis_monomials(D, 2, 2)}
    assert len(rings) > 1
    for t_L, t_R in rings:
        assert build_Y(D, t_L).terms == Y.terms
        assert closed_form_AY(D, 1, t_R).terms == AY.terms


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("D", [2, 3])
def test_vertex_on_its_own_ring_is_the_operator_chain(monkeypatch, D, sign):
    # the sandwich runs _vertex on a box equal to its ring, where _reach
    # must admit every term: on t_L after e^{-Y}, and on t_R with and
    # without the middle factor.  The sandwich's own inputs stay below the
    # degree cap, so a term on the cap that B cannot strip is added
    Y, AY = bilinear._sandwich_ops(D)
    spread = Monomial(times=tuple(((c, c % 3), 1) for c in range(1, D + 1)))

    def top(ring):
        return Series(ring).add_term(
            1, times=(((1, 0), 1), ((2, 1), ring.max_time_deg - 1)))

    for mono in (Monomial(), Monomial(times=(((1, 2), 2),)), spread,
                 Monomial(times=(((2, 0), 1), ((D, 2), 1)))):
        t_L, t_R = _sandwich_boxes(monkeypatch, mono, D)
        s_L = Y.apply_exp(Series(t_L).add_term(1, times=mono.times), -1)
        s_R = Series(t_R).add_term(1, times=mono.times)
        for s, middle in ((s_L, None), (top(t_L), None), (s_R, None),
                          (s_R, AY), (top(t_R), None), (top(t_R), AY)):
            got = bilinear._vertex(s, sign, 1, None, s.trunc, middle=middle)
            want = _operator_vertex(s, sign, 1, None, s.trunc, middle=middle)
            assert got.terms and got.serialize() == want.serialize(), mono


@pytest.mark.parametrize("D, deg, p", [(2, 2, 2), (3, 2, 2), (3, 3, 1)])
def test_basis_monomials_is_every_monomial_once(D, deg, p):
    # the monomials of degree <= deg in D(p+1) letters, the unit first
    mons = basis_monomials(D, deg, p)
    assert len(mons) == comb(D * (p + 1) + deg, deg)
    assert len(set(mons)) == len(mons)
    assert mons[0].is_one()
    assert all(m.grade()[0] <= deg and 1 <= c <= D and q <= p
               for m in mons for (c, q), _e in m.times)


# -- equal-size bilinear, one-matrix side ---------------------------------


def test_hirota_degree_one():
    for n in (1, 2):
        assert hirota_residual(n, d_ext=1, p_ext=2).is_zero()


def test_hirota_degree_two():
    for n in (1, 2, 3):
        assert hirota_residual(n, d_ext=2, p_ext=3).is_zero()
    # negative control at the largest size: the naive a-scale fails
    assert len(hirota_residual(3, d_ext=2, p_ext=3, a_scale="1").terms) == 20


def test_factor_is_not_trivial():
    f = hirota_factor(+1, 1, 2, 1, 2)
    assert not f.is_zero()
    assert any(m.zexp < 0 for m in f.terms)
    assert any(m.grade()[0] == 1 for m in f.terms)


def test_calibration_pins_the_a_scale():
    # at equal sizes the product is blind to which factor carries which
    # charge (z^{-N} z^{+N} = 1 either way), so both charge assignments
    # survive; the a-scale axis is decisive.
    survivors = calibrate_conventions()
    assert set(survivors) == {("N", True), ("N", False)}


def test_naive_a_scale_fails_sharply():
    r = hirota_residual(2, d_ext=1, p_ext=2, a_scale="1")
    got = {m: c for m, c in r.terms.items()}
    want = {
        Monomial(times=(((1, 1), 1),)): -1,
        Monomial(times=(((2, 1), 1),)): 1,
    }
    assert set(got) == set(want)
    for m, c in want.items():
        assert got[m] == c
    # the all-times-zero point sees nothing: why calibration needs degree 1
    assert r.coeff(Monomial()).is_zero()
    # and size 1 is blind too
    assert hirota_residual(1, d_ext=1, p_ext=2, a_scale="1").is_zero()


def test_window_guard_rejects_shallow_ring():
    ring = TruncSpec(0, 3, 3, (-4, 4), max_time_weight=5)
    with pytest.raises(ValueError):
        hirota_factor(+1, 1, 1, 1, 2, ring=ring)


# -- deformed bilinear, tensor side ---------------------------------------


@pytest.mark.parametrize("D", [2, 3])
def test_undeformed_reduction(D):
    assert tensor_reduction_residual(D, 1).is_zero()


def test_deformed_bilinear_D2():
    assert tensor_bilinear_residual(2, 1, 1, p_ext=2).is_zero()


def test_middle_factor_is_load_bearing():
    r = tensor_bilinear_residual(2, 1, 1, p_ext=1, with_middle=False)
    assert not r.is_zero()
    assert tensor_bilinear_residual(2, 1, 1, p_ext=1).is_zero()


@pytest.mark.parametrize("D,K,nsize,kwargs", [
    (3, 1, 2, {}),
    (2, 1, 1, dict(d_ext=2, p_ext=2)),
    pytest.param(2, 2, 1, {}, marks=pytest.mark.slow),
    pytest.param(4, 1, 2, {}, marks=pytest.mark.slow),
])
def test_deformed_bilinear_larger_sizes(D, K, nsize, kwargs):
    assert tensor_bilinear_residual(D, K, nsize, **kwargs).is_zero()
    # negative control: the middle factor is load-bearing at this size too
    assert not tensor_bilinear_residual(D, K, nsize, with_middle=False,
                                        **kwargs).is_zero()


def test_naive_a_scale_fails_on_the_tensor_side():
    # N = 2 is where the naive scale fails on the one-matrix side
    assert not tensor_bilinear_residual(3, 1, 2, a_scale="1").is_zero()


def test_colour_budget_filters_lose_nothing():
    # slow path: the unfiltered ring; agreement on the residue-relevant
    # window is what licenses the budget filters used everywhere else
    lo = -(1 + 1 * 1 + 2 + 1)
    fa = tensor_vertex_factor(+1, 2, 1, 1, p_ext=1, prefilter=True)
    fb = tensor_vertex_factor(+1, 2, 1, 1, p_ext=1, prefilter=False)
    fa = fa.filter(lambda m: m.zexp >= lo)
    fb = fb.filter(lambda m: m.zexp >= lo)
    assert not fa.is_zero()
    assert (fa - fb).is_zero()


def test_vertex_refuses_a_factor_on_the_z_boundary():
    # e^{aA} carries 1 to z t[1,1], inside the window (-2, 2); after a
    # charge z^1, which shift_z accepts, it lands on z_max and the final
    # guard must refuse it
    ring = TruncSpec(0, 1, 1, (-2, 2))
    one = Series.one(ring)
    inside = bilinear._vertex(one, +1, 1, 1, ring)
    assert max(m.zexp for m in inside.terms) == 1
    assert one.shift_z(1).terms
    with pytest.raises(WindowError, match="bilinear factor touches"):
        bilinear._vertex(one, +1, 1, 1, ring, charge=1)


def _B_at(c, ring, nsize):
    """B^c at size nsize (None: symbolic N) as an operator, the reference
    for the closed-form Miwa shift."""
    if nsize is None:
        return build_B(c, ring)
    op = DiffOp(ring)
    for n in range(1, ring.p_max + 1):
        op.add_term(Fraction(1, n * nsize), Monomial(zexp=-n),
                    derivs=(((c, n), 1),))
    return op


def _operator_vertex(s, sign, c, nsize, box, a_val=1, middle=None, charge=0):
    """_vertex as the plain operator chain with no pruning: e^{-+B} and the
    middle factor by apply_exp, then the charge, the box and e^{+-aA} by
    apply_exp of build_A."""
    u = _B_at(c, s.trunc, nsize).apply_exp(s, -sign)
    if middle is not None:
        u = middle.apply_exp(u, -sign)
    if charge:
        u = u.shift_z(charge)
    return build_A(c, box, scale=sign * a_val).apply_exp(u.restrict(box))


def _product_first(sign, D, K, nsize, c=1, d_ext=1, p_ext=2, a_scale="N",
                   prefilter=True, with_middle=True, pruned=False):
    """tensor_vertex_factor in the operator order: the prefiltered
    one-matrix series multiplied out, e^{Y} on the product, then the
    whole vertex chain.  Unpruned, the chain is _operator_vertex; pruned,
    the product and e^{Y} drop what _reach refuses and the chain is
    bilinear._vertex."""
    offset = 0 if sign > 0 else D
    colours = tuple(offset + cc for cc in range(1, D + 1))
    c_act = offset + c
    ring = bilinear._tensor_ring(D, K, nsize, d_ext, p_ext)
    box = bilinear._out_box(ring, d_ext, p_ext)
    a_val = nsize if a_scale == "N" else 1
    if pruned:
        reach = bilinear._reach(box, c_act, "YBM" if with_middle else "YB")
    else:
        reach = lambda hl, times: True
    prod = Series.one(ring)
    for cc in colours:
        zc = z1mm_series(ring, colour=cc, nsize=nsize)
        if prefilter:
            extra = ring.p_max if cc == c_act else 0
            budget = TruncSpec(ring.max_hl, extra + 2 * K + d_ext, ring.p_max,
                               (ring.z_min, ring.z_max),
                               max_time_weight=extra + 2 * K + d_ext * p_ext)
            zc = zc.filter(budget.admits)
        prod = prod.mul(zc, admit=lambda m: reach(m.hl, m.times))
    s = build_Y(D, ring, colours).apply_exp(prod, admit=reach)
    mid = (closed_form_AY(D, c_act, ring, colours=colours, scale=a_val)
           if with_middle else None)
    vertex = bilinear._vertex if pruned else _operator_vertex
    return vertex(s, sign, c_act, nsize, box, a_val, mid, -sign * nsize)


def _factor_case(fn, *args, **kwargs):
    tag = "-".join(map(str, args + tuple("%s=%s" % kv
                                         for kv in sorted(kwargs.items()))))
    return pytest.param(fn, args, kwargs, id="%s(%s)" % (fn, tag))


@pytest.mark.parametrize("fn,args,kwargs", [
    _factor_case("tensor_vertex_factor", sign, 2, 1, 1, p_ext=p,
                 with_middle=mid)
    for sign in (1, -1) for mid in (True, False) for p in (1, 2)
] + [
    # degree 2; at p_ext = 2 the unpruned reference alone takes ~45 s on
    # a 2-core x86 host
    _factor_case("tensor_vertex_factor", sign, 2, 1, 1, d_ext=2, p_ext=1)
    for sign in (1, -1)
] + [
    # unprefiltered, the ring clips the product: the active terms are
    # shifted and multiplied per group that the same spectator grades fit
    # beside (8 groups at p_ext = 1, where the unpruned reference takes
    # ~2 s on a 2-core x86 host)
    _factor_case("tensor_vertex_factor", 1, D, K, 1, prefilter=False, **kw)
    for D, K, kw in ((2, 0, {}), (3, 0, {}), (2, 1, {"p_ext": 1}))
] + [
    _factor_case("tensor_vertex_factor", sign, 3, 1, 1, p_ext=1)
    for sign in (1, -1)
] + [
    _factor_case("hirota_factor", sign, c, n, d, p)
    for sign, c in ((1, 1), (-1, 2)) for n in (1, 2)
    for d, p in ((1, 2), (2, 3))
])
def test_vertex_pruning_is_exact(monkeypatch, fn, args, kwargs):
    # _reach and the Miwa shift's bounds only drop terms that cannot reach
    # the output box, so the whole factor, deep z included, is the one the
    # unpruned operator chain computes; for the dressed factor that chain
    # runs in the operator order, e^{Y} before e^{-+B}
    factor = getattr(bilinear, fn)
    reach = bilinear._reach
    dropped = []

    def counting(*a):
        admit = reach(*a)

        def counted(hl, times):
            ok = admit(hl, times)
            if not ok:
                dropped.append(times)
            return ok
        return counted

    monkeypatch.setattr(bilinear, "_reach", counting)
    pruned = factor(*args, **kwargs).serialize()
    assert pruned and dropped
    if fn == "tensor_vertex_factor":
        assert _product_first(*args, **kwargs).serialize() == pruned
        return
    monkeypatch.setattr(bilinear, "_reach", lambda *a: lambda hl, times: True)
    monkeypatch.setattr(bilinear, "_vertex", _operator_vertex)
    assert factor(*args, **kwargs).serialize() == pruned


@pytest.mark.slow
@pytest.mark.parametrize("sign", [1, -1])
def test_shift_first_matches_the_operator_order_at_K2(sign):
    # the unpruned reference takes ~25 s here, so the operator order runs
    # pruned as well: the product and e^{Y} before e^{-+B}
    got = tensor_vertex_factor(sign, 2, 2, 1, p_ext=1)
    want = _product_first(sign, 2, 2, 1, p_ext=1, pruned=True)
    assert got.serialize() == want.serialize()


# -- the closed forms of e^{-+B} and e^{+-aA} against the operators --------


@st.composite
def _rings(draw, middle=False):
    """A small ring; the middle factor's Y needs p_max >= max_hl.  Its
    weight cap, when it has one, is one that binds."""
    hl = draw(st.integers(0, 2))
    deg = draw(st.integers(0, 4))
    p_max = draw(st.integers(hl if middle else 0, 3))
    weight = draw(st.one_of(st.none(), st.integers(0, deg * p_max)))
    return TruncSpec(hl, deg, p_max,
                     (draw(st.integers(-6, 0)), draw(st.integers(0, 6))),
                     max_time_weight=weight)


@st.composite
def _boxes_in(draw, ring):
    """An output box inside ring, with the ring's z window (as _out_box)."""
    deg = draw(st.integers(0, ring.max_time_deg))
    p_max = draw(st.integers(0, ring.p_max))
    weight = draw(st.one_of(st.none(), st.integers(0, deg * p_max)))
    return TruncSpec(draw(st.integers(0, ring.max_hl)), deg, p_max,
                     (ring.z_min, ring.z_max), max_time_weight=weight)


@st.composite
def _series_in(draw, ring):
    """Terms over the active colour 1 (mostly) and colour 2 with exponents
    up to 3, z on or near the window's edges more often than not."""
    z_lo, z_hi = ring.z_min, ring.z_max
    zexp = st.one_of(st.sampled_from((z_lo, z_hi)),
                     st.integers(z_lo, min(z_lo + 3, z_hi)),
                     st.integers(max(z_hi - 3, z_lo), z_hi),
                     st.integers(z_lo, z_hi))
    letter = st.tuples(st.tuples(st.sampled_from((1, 1, 2)),
                                 st.integers(0, ring.p_max)),
                       st.integers(1, max(1, min(3, ring.max_time_deg))))
    s = Series(ring)
    for _ in range(draw(st.integers(0, 8))):
        s.add_term(draw(st.integers(-3, 3).filter(bool)),
                   hl=draw(st.integers(0, ring.max_hl)),
                   hn=draw(st.integers(-2, 2)), zexp=draw(zexp),
                   times=draw(st.lists(letter, max_size=3)))
    return s


LAMBDAS = st.sampled_from((1, -1))
SIZES = st.sampled_from((None, 1, 2, 3))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_miwa_shift_is_exp_B(data):
    ring = data.draw(_rings())
    s = data.draw(_series_in(ring))
    lam, nsize = data.draw(LAMBDAS), data.draw(SIZES)
    want = _B_at(1, ring, nsize).apply_exp(s, lam)
    got = bilinear._miwa_shift(s, lam, 1, nsize, ring)
    assert got.serialize() == want.serialize()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_boxed_miwa_shift_is_exp_B(data):
    # the shift's enumeration bounds and _reach drop only terms the box
    # drops later, with or without the middle factor between
    middle = data.draw(st.booleans())
    ring = data.draw(_rings(middle))
    box = data.draw(_boxes_in(ring))
    s = data.draw(_series_in(ring))
    lam, nsize = data.draw(LAMBDAS), data.draw(SIZES)
    mid = "M" if middle else ""
    got = bilinear._miwa_shift(s, lam, 1, nsize, box,
                               bilinear._reach(box, 1, "B" + mid),
                               bilinear._reach(box, 1, mid))
    want = _B_at(1, ring, nsize).apply_exp(s, lam)
    if middle:
        op = closed_form_AY(2, 1, ring,
                            scale=data.draw(st.sampled_from((1, 2))))
        got = op.apply_exp(got, lam, bilinear._reach(box, 1, "M"))
        want = op.apply_exp(want, lam)
    assert got.restrict(box).serialize() == want.restrict(box).serialize()


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_exp_A_product_is_exp_A(data):
    box = data.draw(_rings())
    u = data.draw(_series_in(box))
    scale = data.draw(st.sampled_from((1, -1, 2, -3)))
    want = build_A(1, box, scale=scale).apply_exp(u)
    assert (u.mul(bilinear._exp_A(1, box, scale)).serialize()
            == want.serialize())


# -- box sufficiency: a strictly larger ring certifies the same residue ----


def _enlarged(ring, zpad=1):
    """ring with every cap raised by 1 and the z window widened by zpad.
    A ring without a weight cap of its own (cap p_max * max_time_deg)
    stays without one, rather than getting cap p_max * max_time_deg + 1."""
    w = ring.max_time_weight
    uncapped = w == ring.p_max * ring.max_time_deg
    return TruncSpec(ring.max_hl + 1, ring.max_time_deg + 1, ring.p_max + 1,
                     (ring.z_min - zpad, ring.z_max + zpad),
                     max_time_weight=None if uncapped else w + 1)


def _in_both_rings(monkeypatch, ring_fn, compute, zpad=lambda ring: 1):
    """serialize() of the residual compute() in the documented ring and in
    _enlarged (by zpad(ring)), the latter restricted to the former's
    output box."""
    base = compute()
    orig = getattr(bilinear, ring_fn)

    def bigger(*args):
        ring = orig(*args)
        return _enlarged(ring, zpad(ring))

    monkeypatch.setattr(bilinear, ring_fn, bigger)
    return base.serialize(), compute().restrict(base.trunc).serialize()


@pytest.mark.parametrize("nsize,d_ext,p_ext,a_scale", [
    (n, d, p, "N") for n in (1, 2) for d, p in ((1, 2), (2, 3))
] + [(2, 1, 2, "1")])       # the naive a-scale: a nonzero control
def test_hirota_ring_is_large_enough(monkeypatch, nsize, d_ext, p_ext,
                                     a_scale):
    # only the residue is certified: the factors themselves differ at deep z
    base, big = _in_both_rings(
        monkeypatch, "_hirota_ring",
        lambda: hirota_residual(nsize, d_ext, p_ext, a_scale=a_scale))
    assert base == big
    assert (base == "") == (a_scale == "N")


@pytest.mark.parametrize("with_middle", [True, False])
def test_tensor_ring_is_large_enough(monkeypatch, with_middle):
    base, big = _in_both_rings(
        monkeypatch, "_tensor_ring",
        lambda: tensor_bilinear_residual(2, 1, 1, p_ext=1,
                                         with_middle=with_middle))
    assert base == big
    assert (base == "") == with_middle


@pytest.mark.parametrize("D", [2, 3])
def test_sandwich_ring_is_large_enough(monkeypatch, D):
    mons = basis_monomials(D, 2, 2)
    for mono in mons:
        with monkeypatch.context() as mp:
            base, big = _in_both_rings(
                mp, "_sandwich_ring",
                lambda: conjugation_sandwich_residual(mono, D),
                # the window p_ring * deg + hl_cap + ... grows by p + deg + 2
                zpad=lambda r: r.p_max + r.max_time_deg + 2)
        assert base == big == "", mono
    # negative control: one degree less and the sandwich loses terms
    orig = bilinear._sandwich_ring

    def lowered(*args):
        r = orig(*args)
        return TruncSpec(r.max_hl, r.max_time_deg - 1, r.p_max,
                         (r.z_min, r.z_max))

    monkeypatch.setattr(bilinear, "_sandwich_ring", lowered)
    assert any(not conjugation_sandwich_residual(m, D).is_zero()
               for m in mons)


# -- the Q(i) grading -------------------------------------------------------
#
# The only i in the package is minus_i_pow(|q|), paired with sqrtLam^{|q|}:
# every coefficient c of a term with sqrtLam power hl is r (-i)^hl with r
# rational, that is, c * minus_i_pow(-hl) is real.


def _ungraded(terms):
    """The terms of a Series or a DiffOp (keys (mono, mults, derivs)) whose
    coefficient is not a rational multiple of (-i)^hl."""
    return [(key, c) for key, c in terms.items()
            if (c * minus_i_pow(-(key if isinstance(key, Monomial)
                                  else key[0]).hl)).im]


_GRADED = (
    [pytest.param(lambda D=D: build_Y(D, TruncSpec(4, 0, 4)),
                  id="build_Y-D%d" % D) for D in (2, 3, 4)]
    + [pytest.param(lambda: closed_form_AY(3, 1, TruncSpec(4, 0, 4, (-10, 10))),
                    id="closed_form_AY")]
    + [pytest.param(lambda args=args: tensor_vertex_factor(*args),
                    id="vertex_factor%r" % (args,))
       for args in ((+1, 2, 1, 1), (-1, 2, 1, 1), (+1, 3, 1, 2))]
    + [pytest.param(lambda route=route, D=D, K=K: route(D, K),
                    id="%s-D%d-K%d" % (route.__name__, D, K))
       for route in (direct_tensor_z, intermediate_field_z, eY_applied_z)
       for D in (2, 3) for K in (1, 2)])


@pytest.mark.parametrize("build", _GRADED)
def test_coefficients_are_graded_by_sqrtLam(build):
    terms = build().terms
    assert terms
    assert not _ungraded(terms)


@pytest.mark.parametrize("D", [2, 3])
def test_sandwich_is_graded_by_sqrtLam(monkeypatch, D):
    # every e^{...} series of the sandwich, its lhs e^{Y} V e^{-Y} (m) among
    # them, over the basis monomials of degree <= 2 and indices <= 1
    seen = []
    apply_exp = DiffOp.apply_exp

    def recorded(self, *args, **kwargs):
        seen.append(apply_exp(self, *args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(DiffOp, "apply_exp", recorded)
    for mono in basis_monomials(D, 2, 1):
        conjugation_sandwich_residual(mono, D)
    assert any(s.terms for s in seen)
    for s in seen:
        assert not _ungraded(s.terms)


def test_grading_check_sees_a_Y_without_its_phases(monkeypatch):
    monkeypatch.setattr(decomposition, "minus_i_pow", lambda n: GaussRat(1))
    assert _ungraded(build_Y(2, TruncSpec(4, 0, 4)).terms)
