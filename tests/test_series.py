from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from melontau.scalars import GaussRat
from melontau.diffops import DiffOp
from melontau.series import (Monomial, OutsideTruncationError, Series,
                             TruncSpec, USeries, WindowError, letter_products,
                             parse_series)
from melontau.wick import NPoly


T = TruncSpec(6, 6, 6, (-8, 8))


def s_one():
    return Series.one(T)


def test_sqrt2_folding():
    # sqrt2^5 = 4*sqrt2 : stored exponent must collapse to 1
    s = Series(T).add_term(1, h2=5)
    ((mono, coeff),) = s.sorted_terms()
    assert mono.h2 == 1 and coeff == GaussRat(4)
    # sqrt2^-3 = sqrt2 / 4
    s = Series(T).add_term(1, h2=-3)
    ((mono, coeff),) = s.sorted_terms()
    assert mono.h2 == 1 and coeff == GaussRat(Fraction(1, 4))
    # sqrt2 * sqrt2 = 2 via multiplication carry
    r = Series(T).add_term(1, h2=1)
    ((mono, coeff),) = (r * r).sorted_terms()
    assert mono.h2 == 0 and coeff == GaussRat(2)


def test_monomial_rejects_unnormalized():
    with pytest.raises(ValueError):
        Monomial(h2=2)
    with pytest.raises(ValueError):
        Monomial(hl=-1)


@pytest.mark.parametrize("args,kwargs", [
    ((-1, 2, 2), {}),                             # negative sqrtLam cap
    ((2, -1, 2), {}),                             # negative time degree
    ((2, 2, -1), {}),                             # negative index cap
    ((2, 2, 2, (3, -3)), {}),                     # z_min > z_max
    ((2, 2, 2, (1, 4)), {}),                      # window without 0
    ((2, 2, 2, (-4, -1)), {}),                    # window without 0
    ((2, 2, 2), {"max_time_weight": -1}),         # negative weight cap
])
def test_truncspec_refuses_empty_box(args, kwargs):
    with pytest.raises(ValueError):
        TruncSpec(*args, **kwargs)


def test_meet_of_equal_boxes_is_self():
    a = TruncSpec(4, 3, 5, (-2, 2), max_time_weight=7)
    assert a.meet(a) is a
    assert a.meet(TruncSpec(4, 3, 5, (-2, 2), max_time_weight=7)) is a
    b = TruncSpec(4, 3, 5, (-2, 2))
    assert a.meet(b) is not a and a.meet(b) == a


def test_uncapped_box_is_the_box_capped_at_p_max_times_degree():
    a = TruncSpec(4, 3, 5, (-2, 2))
    assert a.max_time_weight == 15
    assert a == TruncSpec(4, 3, 5, (-2, 2), max_time_weight=15)
    assert a.meet(TruncSpec(4, 3, 5, (-2, 2), max_time_weight=15)) is a
    assert TruncSpec(2, 0, 3).max_time_weight == 0


def test_repr_always_shows_the_weight_cap():
    assert repr(TruncSpec(1, 2, 3)) == (
        "TruncSpec(max_hl=1, max_time_deg=2, p_max=3, z_window=(-64, 64), "
        "max_time_weight=6)")
    assert repr(TruncSpec(1, 2, 3, (-1, 1), max_time_weight=4)) == (
        "TruncSpec(max_hl=1, max_time_deg=2, p_max=3, z_window=(-1, 1), "
        "max_time_weight=4)")


def test_meet_of_capped_and_uncapped_boxes():
    capped = TruncSpec(3, 3, 3, (-2, 2), max_time_weight=8)
    uncapped = TruncSpec(2, 2, 3, (-1, 3))
    for box in (capped.meet(uncapped), uncapped.meet(capped)):
        # min(8, 3 * 2): the uncapped box's derived cap, so the meet is
        # uncapped too
        assert box == TruncSpec(2, 2, 3, (-1, 2))
    tight = TruncSpec(3, 3, 3, (-2, 2), max_time_weight=1)
    assert tight.meet(uncapped).max_time_weight == 1
    assert uncapped.meet(tight) == TruncSpec(2, 2, 3, (-1, 2),
                                             max_time_weight=1)


def test_add_with_different_boxes_filters():
    big, small = TruncSpec(4, 4, 4), TruncSpec(2, 1, 4)
    a = Series(big).add_term(1, hl=3).add_term(2, hl=1)
    a.add_term(5, times=(((1, 1), 2),))
    b = Series(small).add_term(3, hl=1).add_term(4)
    for total in (a + b, b + a):
        assert total.trunc == small
        assert total.sorted_terms() == [(Monomial(), GaussRat(4)),
                                        (Monomial(hl=1), GaussRat(5))]
    same = a + a.copy()
    assert same.trunc is a.trunc
    assert same == a.scale(2)


time_entry = st.tuples(st.tuples(st.integers(1, 3), st.integers(0, 4)),
                       st.integers(1, 3))
monomials = st.builds(Monomial, st.integers(0, 3), st.integers(-3, 3),
                      st.integers(0, 1), st.integers(-3, 3),
                      st.lists(time_entry, max_size=4))


@settings(max_examples=300, deadline=None)
@given(monomials, st.integers(0, 3), st.integers(0, 6), st.integers(0, 4),
       st.integers(-3, 0), st.integers(0, 3))
def test_uncapped_box_admits_what_the_other_caps_admit(m, hl, deg, p_max,
                                                       z_min, z_max):
    # the derived weight cap p_max * max_time_deg never binds
    box = TruncSpec(hl, deg, p_max, (z_min, z_max))
    assert box.admits(m) == (m.hl <= hl and z_min <= m.zexp <= z_max
                             and m.time_degree() <= deg
                             and all(p <= p_max for (_c, p), _e in m.times))


@given(monomials, monomials)
def test_mul_matches_public_construction(a, b):
    prod, carry = a.mul(b)
    h2 = a.h2 + b.h2
    want = Monomial(a.hl + b.hl, a.hn + b.hn, h2 % 2, a.zexp + b.zexp,
                    a.times + b.times)
    assert prod == want and hash(prod) == hash(want)
    assert prod.times == want.times
    assert carry == (2 if h2 == 2 else 1)


def _public(s, fn):
    """s mapped term by term through the public constructor: fn(mono)
    gives (factor, hl, hn, h2, zexp, times dict) or None to drop it."""
    out = Series(s.trunc)
    for m, c in s.terms.items():
        got = fn(m)
        if got is not None:
            f, hl, hn, h2, zexp, times = got
            out.add_term(c * GaussRat(f), hl, hn, h2, zexp,
                         tuple((k, e) for k, e in times.items() if e))
    return out


@given(st.lists(st.tuples(monomials, st.integers(-3, 3)), max_size=6),
       st.integers(-3, 3))
def test_series_maps_match_public_construction(terms, k):
    # derive, shift_z, residue_z and eval_N build through _trusted
    box = TruncSpec(3, 12, 4, (-4, 4))
    s = Series(box)
    for m, v in terms:
        s._put(m, GaussRat(v))

    def derived(m):
        t = dict(m.times)
        e = t.get((1, 2), 0)
        t[(1, 2)] = e - 1
        return (e, m.hl, m.hn, m.h2, m.zexp, t) if e else None

    assert s.derive(1, 2).serialize() == _public(s, derived).serialize()
    if all(box.z_min <= m.zexp + k <= box.z_max for m in s.terms):
        want = _public(s, lambda m: (1, m.hl, m.hn, m.h2, m.zexp + k,
                                     dict(m.times)))
        assert s.shift_z(k).serialize() == want.serialize()
    else:
        with pytest.raises(WindowError):
            s.shift_z(k)
    if all(m.zexp not in (box.z_min, box.z_max) for m in s.terms):
        want = _public(s, lambda m: (1, m.hl, m.hn, m.h2, 0, dict(m.times))
                       if m.zexp == -1 else None)
        assert s.residue_z().serialize() == want.serialize()
    if all(m.hn % 2 == 0 for m in s.terms):
        want = _public(s, lambda m: (Fraction(2) ** (m.hn // 2), m.hl, 0,
                                     m.h2, m.zexp, dict(m.times)))
        assert s.eval_N(2).serialize() == want.serialize()


def test_silent_discard_and_query_error():
    t = TruncSpec(2, 2, 3)
    a = Series(t).add_term(1, hl=2)
    b = Series(t).add_term(1, hl=1)
    prod = a * b                       # hl=3 discarded silently
    assert prod.is_zero()
    with pytest.raises(OutsideTruncationError):
        prod.coeff(Monomial(hl=3))
    # p beyond p_max is likewise out of box
    with pytest.raises(OutsideTruncationError):
        a.coeff(Monomial(times=(((1, 4), 1),)))


def test_letter_products_counts():
    # all multisets over p in 1..3 with total count <= 2 (weight cap 3 * 2
    # binds nowhere below it)
    rows = letter_products([(1, p) for p in (1, 2, 3)], 2, 6)
    assert len(rows) == 1 + 3 + 6
    assert rows[0] == ((), 0, 0, 1)
    assert len({times for times, *_ in rows}) == len(rows)
    for times, deg, weight, den in rows:
        assert deg == sum(e for _, e in times) <= 2
        assert weight == sum(p * e for (_c, p), e in times)
        assert den == prod(factorial(e) for _, e in times)
    # the weight cap binds: the partitions of 0..4, 1 + 1 + 2 + 3 + 5
    wad = letter_products([(1, p) for p in range(1, 5)], 10, 4)
    assert len(wad) == 12
    assert all(w == sum(p * e for (_c, p), e in times) <= 4
               for times, _d, w, _den in wad)


def test_time_weight_cut():
    t = TruncSpec(2, 10, 8, max_time_weight=5)
    s = Series(t).add_term(1, times=(((1, 3), 1),))
    assert not (s * s).is_zero() is False  # weight 6 > 5: discarded
    assert (s * s).is_zero()
    s0 = Series(t).add_term(1, times=(((1, 0), 1),))
    p = Series.one(t)
    for _ in range(4):
        p = p.mul(s0)
    assert not p.is_zero()                 # t0 has weight 0


def test_exp_of_commuting_sum():
    # exponentials of multiplication operators
    a1 = DiffOp(T).add_term(Fraction(1, 3), Monomial(hl=1),
                            mults=(((1, 2), 1),))
    a2 = DiffOp(T).add_term(Fraction(-1, 2), mults=(((2, 1), 2),))
    e = (a1 + a2).apply_exp(s_one())
    assert e.coeff(Monomial()) == GaussRat(1)
    assert e == a1.apply_exp(s_one()).mul(a2.apply_exp(s_one()))
    assert e == a1.apply_exp(a2.apply_exp(s_one()))


def test_exp_matches_closed_form():
    # exp(a*t) coefficients a^k/k!
    a = Fraction(3, 2)
    t = TruncSpec(0, 5, 1)
    op = DiffOp(t).add_term(a, mults=(((1, 1), 1),))
    e = op.apply_exp(Series.one(t))
    for k in range(6):
        times = (((1, 1), k),) if k else ()
        assert e.coeff(Monomial(times=times)) == GaussRat(a ** k) / factorial(k)
    assert len(e.terms) == 6


def test_derive():
    s = Series(T).add_term(5, times=(((1, 2), 3),))
    d = s.derive(1, 2)
    ((mono, coeff),) = d.sorted_terms()
    assert coeff == GaussRat(15) and dict(mono.times) == {(1, 2): 2}
    assert s.derive(1, 4).is_zero()


def test_shift_and_residue():
    t = TruncSpec(1, 1, 1, (-3, 3))
    s = Series(t).add_term(7, zexp=-1).add_term(3, zexp=2)
    r = s.residue_z()
    assert r.coeff(Monomial()) == GaussRat(7)
    assert s.shift_z(1).coeff(Monomial(zexp=0)) == GaussRat(7)
    with pytest.raises(WindowError):
        s.shift_z(2)                       # 2+2 = 4 leaves window: must raise
    edge = Series(t).add_term(1, zexp=3)
    with pytest.raises(WindowError):
        edge.residue_z()                   # boundary touch is not certifiable


def test_eval_N():
    s = Series(T).add_term(1, hn=4).add_term(Fraction(1, 2), hn=-2)
    v = s.eval_N(3)
    assert v.coeff(Monomial()) == GaussRat(Fraction(9) + Fraction(1, 6))
    with pytest.raises(ValueError):
        Series(T).add_term(1, hn=1).eval_N(2)


def test_serialize_roundtrip_and_order():
    s = (Series(T)
         .add_term(Fraction(-3, 4), hl=2, hn=-2, times=(((1, 2), 1),))
         .add_term(GaussRat(0, Fraction(1, 3)), h2=1, zexp=-2)
         .add_term(2, times=(((2, 1), 1), ((1, 1), 2))))
    text = s.serialize()
    assert parse_series(text, T) == s
    # canonical order: lines sorted by (hl, hn, h2, zexp, times)
    assert text.splitlines() == sorted(
        text.splitlines(),
        key=lambda ln: _key_of(parse_series(ln, T)))


def _key_of(single):
    ((mono, _),) = single.sorted_terms()
    return mono._key


# -- property tests -------------------------------------------------------

small_mono = st.builds(
    lambda hl, hn, deg: Monomial(hl, hn, 0, 0,
                                 tuple({(1, p): 1 for p in range(1, deg + 1)}.items())),
    st.integers(0, 2), st.integers(-2, 2), st.integers(0, 2))


def rand_series(draw_terms):
    s = Series(T)
    for mono, num in draw_terms:
        s._put(mono, GaussRat(num))
    return s


series_st = st.builds(
    rand_series,
    st.lists(st.tuples(small_mono, st.integers(-4, 4)), max_size=5))


@settings(max_examples=60)
@given(series_st, series_st, series_st)
def test_ring_laws_zfree(a, b, c):
    # distributivity and associativity hold exactly for z-free series:
    # hl/time truncation is monotone so discarded products stay discarded.
    assert (a + b) * c == a * c + b * c
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a


@settings(max_examples=60)
@given(series_st)
def test_restrict_idempotent(a):
    t = TruncSpec(1, 1, 1)
    assert a.restrict(t).restrict(t) == a.restrict(t)
    assert a.restrict(T) == a


# -- USeries: one-variable truncated series over Fraction or NPoly ---------

K = 4
small_frac = st.fractions(min_value=-5, max_value=5, max_denominator=6)
nonzero_frac = small_frac.filter(bool)

# ring name -> (zero, one, coefficient strategy, strategy of units)
RINGS = {
    "Fraction": (Fraction(0), Fraction(1), small_frac, nonzero_frac),
    "NPoly": (NPoly(), NPoly.const(1),
              st.dictionaries(st.integers(-2, 2), small_frac,
                              max_size=3).map(NPoly),
              st.builds(lambda k, v: NPoly({k: v}), st.integers(-2, 2),
                        nonzero_frac)),
}


def useries_st(ring, const=None):
    """USeries of order K over the ring; const fixes the constant term."""
    zero, _one, coeff, _unit = RINGS[ring]
    first = st.just(const) if const is not None else coeff
    return st.builds(lambda c0, rest: USeries([c0] + rest, K, zero),
                     first, st.lists(coeff, min_size=K, max_size=K))


@pytest.mark.parametrize("ring", sorted(RINGS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_useries_ring_laws(ring, data):
    zero, one, _coeff, _unit = RINGS[ring]
    a, b, c = (data.draw(useries_st(ring)) for _ in range(3))
    z, u = USeries([], K, zero), USeries([one], K, zero)
    assert (a + b) + c == a + (b + c) and a + b == b + a
    assert (a * b) * c == a * (b * c) and a * b == b * a
    assert a * (b + c) == a * b + a * c
    assert a + z == a and a * u == a and a - a == z
    assert a * 3 == a + a + a and 3 * a == a * 3
    assert [x for x in a] == a.c and a[K] == a.c[K]


@pytest.mark.parametrize("ring", sorted(RINGS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_useries_division_undoes_product(ring, data):
    unit = data.draw(RINGS[ring][3])
    a = data.draw(useries_st(ring))
    b = data.draw(useries_st(ring, const=unit))
    assert (a * b) / b == a


@pytest.mark.parametrize("ring", sorted(RINGS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_useries_log_of_product(ring, data):
    zero, one, _coeff, _unit = RINGS[ring]
    a, b = (data.draw(useries_st(ring, const=one)) for _ in range(2))
    assert (a * b).log() == a.log() + b.log()
    assert a.log()[0] == zero
    # log(1 + x) = x - x^2/2 + x^3/3 - ...
    assert USeries([one, one], K, zero).log() == USeries(
        [zero] + [one * Fraction((-1) ** (k + 1), k) for k in range(1, K + 1)],
        K, zero)


@pytest.mark.parametrize("ring", sorted(RINGS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_useries_shift_down_undoes_x(ring, data):
    zero, one, _coeff, _unit = RINGS[ring]
    a = data.draw(useries_st(ring))
    x = USeries([zero, one], K, zero)
    # x*a keeps a up to x^(K-1); its top coefficient is lost to truncation
    assert (x * a).shift_down() == USeries(a.c[:K], K, zero)


def test_useries_rejects_what_it_cannot_do():
    x = USeries([0, 1], 2)
    two = USeries([2, 1], 2)
    with pytest.raises(ValueError):
        two.log()
    with pytest.raises(ValueError):
        two.shift_down()
    with pytest.raises(ZeroDivisionError):
        two / x
    with pytest.raises(ZeroDivisionError):
        USeries([NPoly({0: 1, 2: 1})], 2, NPoly()) / \
            USeries([NPoly({0: 1, 2: 1})], 2, NPoly())
    with pytest.raises(ValueError):
        USeries([], -1)
