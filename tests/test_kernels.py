"""The two product kernels, Series.mul and DiffOp.apply, against naive
double loops over every pair of terms, compared by serialize().

The kernels skip pairs that cannot land in the box; the references visit
every pair and build each product through the public Monomial and
Series._put, so any pair the kernels wrongly skip shows as a difference.
"""

from math import factorial

from hypothesis import given, settings, strategies as st

from melontau.diffops import DiffOp
from melontau.scalars import GaussRat
from melontau.series import Monomial, Series, TruncSpec, fold_h2


def naive_mul(a, b, admit=None):
    out = Series(a.trunc.meet(b.trunc))
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            h2, mult = fold_h2(m1.h2 + m2.h2)
            mono = Monomial(m1.hl + m2.hl, m1.hn + m2.hn, h2,
                            m1.zexp + m2.zexp, m1.times + m2.times)
            if admit is None or admit(mono):
                out._put(mono, c1 * c2 * GaussRat(mult))
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
                h2, mult = fold_h2(m.h2 + sm.h2)
                mono = Monomial(m.hl + sm.hl, m.hn + sm.hn, h2,
                                m.zexp + sm.zexp,
                                tuple(kv for kv in t.items() if kv[1]))
                if admit is None or admit(mono.hl, mono.times):
                    out._put(mono, c * sc * GaussRat(val * mult))
    return out


@st.composite
def boxes(draw):
    """A small box; its weight cap, when it has one, is one that binds."""
    deg, p_max = draw(st.integers(0, 4)), draw(st.integers(0, 3))
    weight = draw(st.one_of(st.none(), st.integers(0, deg * p_max)))
    return TruncSpec(draw(st.integers(0, 3)), deg, p_max,
                     (draw(st.integers(-3, 0)), draw(st.integers(0, 3))),
                     max_time_weight=weight)


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
                   hn=draw(st.integers(-2, 2)), h2=draw(st.integers(0, 1)),
                   zexp=draw(zexp), times=[(key, 1) for key in times])
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
                        draw(st.integers(0, 1)), draw(st.integers(-2, 2)))
        op.add_term(draw(coeffs), mono, mults=draw(entries),
                    derivs=draw(entries))
    return op


# extra predicates, as the bilinear pipelines pass them
MONO_ADMITS = [None, lambda m: m.time_degree() % 2 == 0,
               lambda m: m.hl + m.zexp <= 1]
LETTER_ADMITS = [None, lambda hl, times: sum(e for _k, e in times) % 2 == 0,
                 lambda hl, times: hl + len(times) <= 2]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mul_matches_naive_double_loop(data):
    box_a = data.draw(boxes())
    box_b = data.draw(st.one_of(st.just(box_a), boxes()))
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
