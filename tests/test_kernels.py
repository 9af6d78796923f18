"""The kernels of the series and operator layers against naive
references: Series.mul and DiffOp.apply against double loops over every
pair of terms, apply onto a box against apply followed by restrict,
apply_exp against summed naive powers, compose against letter-by-letter
Weyl reordering and Monomial.mul against the public Monomial constructor.

The kernels skip pairs that cannot land in the box and build their
results unchecked; the references visit every pair and build each product
through the public Monomial, Series._put and DiffOp.add_term, so any pair
the kernels wrongly skip or wrongly keep shows as a difference.  They
work out the sqrt2 carry themselves (sqrt2_carry), from the rule that a
monomial carries sqrt2 exactly when its sqrtLam power is odd.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial

import pytest
from hypothesis import given, settings, strategies as st

from melontau.diffops import DiffOp
from melontau.scalars import GaussRat
from melontau.series import Monomial, Series, TruncSpec


def sqrt2_carry(hl1, hl2):
    """The power of 2 that a product of monomials with sqrtLam powers hl1
    and hl2 moves into its coefficient: each factor carries sqrt2^(hl % 2)
    and the product monomial keeps sqrt2^((hl1 + hl2) % 2)."""
    moved = hl1 % 2 + hl2 % 2 - (hl1 + hl2) % 2     # 0 or 2 sqrt2 factors
    return 2 ** (moved // 2)


def naive_mul(a, b, admit=None):
    out = Series(a.trunc.meet(b.trunc))
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            mono = Monomial(m1.hl + m2.hl, m1.hn + m2.hn, m1.zexp + m2.zexp,
                            m1.times + m2.times)
            if admit is None or admit(mono):
                out._put(mono, c1 * c2 * GaussRat(sqrt2_carry(m1.hl, m2.hl)))
    return out


def naive_apply(op, s, admit=None):
    out = Series(s.trunc)
    for (m, mults, derivs), c in op.terms.items():
        for sm, sc in s.terms.items():
            t = dict(sm.times)
            val = 1
            for key, a in derivs:
                e = t.get(key, 0)
                if e < a:
                    break
                val *= factorial(e) // factorial(e - a)
                t[key] = e - a
            else:
                for key, b in mults:
                    t[key] = t.get(key, 0) + b
                mono = Monomial(m.hl + sm.hl, m.hn + sm.hn, m.zexp + sm.zexp,
                                tuple(kv for kv in t.items() if kv[1]))
                if admit is None or admit(mono.hl, mono.times):
                    out._put(mono, c * sc * GaussRat(
                        val * sqrt2_carry(m.hl, sm.hl)))
    return out


@st.composite
def boxes(draw):
    """A small box; its weight cap, when it has one, is one that binds."""
    deg, p_max = draw(st.integers(0, 4)), draw(st.integers(0, 3))
    weight = draw(st.one_of(st.none(), st.integers(0, deg * p_max)))
    return TruncSpec(draw(st.integers(0, 3)), deg, p_max,
                     (draw(st.integers(-3, 0)), draw(st.integers(0, 3))),
                     max_time_weight=weight)


def other_index_cap(box):
    """box with its index cap one higher or one lower (where it can be)
    and every other cap kept: a product then needs the index check."""
    return st.sampled_from((box.p_max + 1, max(box.p_max - 1, 0))).map(
        lambda p: TruncSpec(box.max_hl, box.max_time_deg, p,
                            (box.z_min, box.z_max),
                            max_time_weight=box.max_time_weight))


coeffs = st.integers(-3, 3).filter(bool)


def letters_in(box):
    return st.tuples(st.integers(1, 2), st.integers(0, box.p_max))


@st.composite
def series_in(draw, box):
    """A series of terms inside box's sqrtLam, index and degree caps, with
    z exponents on the window's edges more often than not."""
    zexp = st.one_of(st.sampled_from((box.z_min, box.z_max)),
                     st.integers(box.z_min, box.z_max))
    s = Series(box)
    for _ in range(draw(st.integers(0, 8))):
        times = draw(st.lists(letters_in(box), max_size=box.max_time_deg))
        s.add_term(draw(coeffs), hl=draw(st.integers(0, box.max_hl)),
                   hn=draw(st.integers(-2, 2)), zexp=draw(zexp),
                   times=[(key, 1) for key in times])
    return s


@st.composite
def ops_in(draw, box):
    """An operator whose derivative exponents (up to 3) often exceed the
    series exponents they meet."""
    entries = st.lists(st.tuples(letters_in(box), st.integers(1, 3)),
                       max_size=2)
    op = DiffOp(box)
    for _ in range(draw(st.integers(0, 5))):
        mono = Monomial(draw(st.integers(0, 2)), draw(st.integers(-2, 2)),
                        draw(st.integers(-2, 2)))
        op.add_term(draw(coeffs), mono, mults=draw(entries),
                    derivs=draw(entries))
    return op


# extra predicates, as the bilinear pipelines pass them
MONO_ADMITS = [None, lambda m: m.grade()[0] % 2 == 0,
               lambda m: m.hl + m.zexp <= 1]
LETTER_ADMITS = [None, lambda hl, times: sum(e for _k, e in times) % 2 == 0,
                 lambda hl, times: hl + len(times) <= 2]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mul_matches_naive_double_loop(data):
    box_a = data.draw(boxes())
    box_b = data.draw(st.one_of(st.just(box_a), boxes(),
                                other_index_cap(box_a)))
    a = data.draw(series_in(box_a))
    b = data.draw(series_in(box_b))
    admit = data.draw(st.sampled_from(MONO_ADMITS))
    got = a.mul(b, admit)
    assert got.trunc == box_a.meet(box_b)
    assert got.serialize() == naive_mul(a, b, admit).serialize()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_apply_matches_naive_double_loop(data):
    box_s = data.draw(boxes())
    box_op = data.draw(st.one_of(st.just(box_s), boxes()))
    s = data.draw(series_in(box_s))
    op = data.draw(ops_in(box_op))
    admit = data.draw(st.sampled_from(LETTER_ADMITS))
    assert (op.apply(s, admit).serialize()
            == naive_apply(op, s, admit).serialize())


def naive_apply_exp(op, s, scale, admit=None):
    """sum_k scale^k/k! naive_apply^k (s), on the admitted terms of s."""
    cur = s if admit is None else s.filter(lambda m: admit(m.hl, m.times))
    out = cur
    weight = GaussRat(1)
    k = 0
    while True:
        cur = naive_apply(op, cur, admit)
        if cur.is_zero():
            return out
        k += 1
        weight = weight * scale * GaussRat(Fraction(1, k))
        out = out + cur.scale(weight)


@st.composite
def nilpotent_ops_in(draw, box):
    """An operator whose every term raises the sqrtLam power by 1, or
    keeps it and only differentiates: on any box its powers vanish, so
    exp of it is a finite sum.  Small z shifts and exponents let several
    powers stay in box.  Its own ring keeps one time index more than box,
    and half its multiplied letters have that index, which box drops."""
    ring = TruncSpec(box.max_hl, box.max_time_deg, box.p_max + 1,
                     (box.z_min, box.z_max))
    letters = st.tuples(letters_in(ring), st.integers(1, 2))
    dropped = st.tuples(st.tuples(st.integers(1, 2), st.just(ring.p_max)),
                        st.integers(1, 2))
    op = DiffOp(ring)
    for _ in range(draw(st.integers(1, 4))):
        hn, zexp = draw(st.integers(-2, 2)), draw(st.integers(-1, 1))
        derivs = draw(st.lists(letters, max_size=2))
        if derivs and draw(st.booleans()):
            op.add_term(draw(coeffs), Monomial(0, hn, zexp),
                        derivs=derivs)
        else:
            op.add_term(draw(coeffs), Monomial(1, hn, zexp),
                        mults=draw(st.lists(st.one_of(dropped, letters),
                                            max_size=1)),
                        derivs=derivs)
    return op


@st.composite
def roomy_boxes(draw):
    """A box with room for several powers of a nilpotent operator."""
    deg, p_max = draw(st.integers(2, 4)), draw(st.integers(1, 2))
    weight = draw(st.one_of(st.none(), st.integers(0, deg * p_max)))
    return TruncSpec(draw(st.integers(1, 3)), deg, p_max,
                     (draw(st.integers(-4, -1)), draw(st.integers(1, 4))),
                     max_time_weight=weight)


@st.composite
def sub_boxes(draw, box, cap):
    """box with one cap lowered by at least one where it can be: sqrtLam,
    degree, index, weight or both ends of the z window."""
    caps = {"hl": box.max_hl, "deg": box.max_time_deg, "p": box.p_max,
            "weight": box.max_time_weight}
    z = (box.z_min, box.z_max)
    if cap == "z":
        z = (draw(st.integers(min(box.z_min + 1, 0), 0)),
             draw(st.integers(0, max(box.z_max - 1, 0))))
    else:
        caps[cap] = draw(st.integers(0, max(caps[cap] - 1, 0)))
    return TruncSpec(caps["hl"], caps["deg"], caps["p"], z,
                     max_time_weight=caps["weight"])


@pytest.mark.parametrize("cap", ["hl", "deg", "p", "weight", "z"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_apply_onto_a_box_is_apply_then_restrict(cap, data):
    ring = data.draw(roomy_boxes())
    s = data.draw(series_in(ring))
    op = data.draw(st.one_of(ops_in(ring), nilpotent_ops_in(ring)))
    box = data.draw(sub_boxes(ring, cap))
    admit = data.draw(st.sampled_from(LETTER_ADMITS))
    got, want = op.apply(s, admit, box), op.apply(s, admit).restrict(box)
    assert got.trunc == want.trunc
    assert got.serialize() == want.serialize()


SCALES = [GaussRat(x) for x in (0, 1, -1, Fraction(1, 2))] + [GaussRat(0, 1)]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_apply_exp_matches_summed_naive_powers(data):
    box = data.draw(roomy_boxes())
    s = data.draw(series_in(box))
    op = data.draw(nilpotent_ops_in(box))
    scale = data.draw(st.sampled_from(SCALES))
    admit = data.draw(st.sampled_from(LETTER_ADMITS))
    want = naive_apply_exp(op, s, scale, admit)
    assert op.apply_exp(s, scale, admit).serialize() == want.serialize()


@lru_cache(maxsize=4096)
def normal_order(word):
    """{(multiplied letters, differentiated letters): count} of a word of
    ("t", letter) and ("d", letter) factors read left to right, reordered
    one adjacent pair at a time: d t = t d, plus 1 for the same letter."""
    for i in range(len(word) - 1):
        if word[i][0] == "d" and word[i + 1][0] == "t":
            out = dict(normal_order(
                word[:i] + (word[i + 1], word[i]) + word[i + 2:]))
            if word[i][1] == word[i + 1][1]:
                for key, n in normal_order(word[:i] + word[i + 2:]).items():
                    out[key] = out.get(key, 0) + n
            return out
    return {(tuple(k for s, k in word if s == "t"),
             tuple(k for s, k in word if s == "d")): 1}


def naive_compose(a, b):
    """a o b by normal-ordering the letter word of every pair of terms."""
    def word(kind, entries):
        return tuple((kind, key) for key, e in entries for _ in range(e))

    out = DiffOp(a.trunc)
    for (m1, mu1, de1), c1 in a.terms.items():
        for (m2, mu2, de2), c2 in b.terms.items():
            mono = Monomial(m1.hl + m2.hl, m1.hn + m2.hn, m1.zexp + m2.zexp)
            mult = sqrt2_carry(m1.hl, m2.hl)
            letters = (word("t", mu1) + word("d", de1) + word("t", mu2)
                       + word("d", de2))
            for (ts, ds), n in normal_order(letters).items():
                out.add_term(c1 * c2 * GaussRat(n * mult), mono,
                             mults=[(key, 1) for key in ts],
                             derivs=[(key, 1) for key in ds])
    return out


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_compose_matches_naive_weyl_reordering(data):
    box_a = data.draw(boxes())
    box_b = data.draw(st.one_of(st.just(box_a), boxes()))
    a = data.draw(ops_in(box_a))
    b = data.draw(ops_in(box_b))
    got, want = a.compose(b), naive_compose(a, b)
    assert got.trunc == box_a
    assert got == want and str(got) == str(want)


# a time letter t[c, p]^e of a free-standing monomial
ENTRIES = st.tuples(st.tuples(st.integers(1, 3), st.integers(0, 3)),
                    st.integers(1, 3))


@st.composite
def monomials(draw, shared):
    """A monomial whose times are drawn letters plus the shared ones."""
    return Monomial(draw(st.integers(0, 3)), draw(st.integers(-3, 3)),
                    draw(st.integers(-3, 3)),
                    draw(st.lists(ENTRIES, max_size=4)) + shared)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_monomial_mul_matches_public_construction(data):
    shared = data.draw(st.lists(ENTRIES, max_size=2))
    m1, m2 = data.draw(monomials(shared)), data.draw(monomials(shared))
    got, carry = m1.mul(m2)
    want = Monomial(m1.hl + m2.hl, m1.hn + m2.hn, m1.zexp + m2.zexp,
                    m1.times + m2.times)
    assert got == want and hash(got) == hash(want)
    assert got.times == want.times and carry == sqrt2_carry(m1.hl, m2.hl)
