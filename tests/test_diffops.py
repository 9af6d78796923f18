from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from melontau.scalars import GaussRat
from melontau.series import Monomial, Series, TruncSpec
from melontau.diffops import DiffOp


T = TruncSpec(4, 6, 4)


def t_mult(c, p):
    return DiffOp(T).add_term(1, mults=(((c, p), 1),))


def t_der(c, p):
    return DiffOp(T).add_term(1, derivs=(((c, p), 1),))


def test_canonical_commutator():
    # [d, t] = 1 on the nose, as operators
    c = t_der(1, 2).commutator(t_mult(1, 2))
    assert c.terms == {(Monomial(), (), ()): GaussRat(1)}
    # different variables commute
    assert t_der(1, 2).commutator(t_mult(1, 3)).is_zero()
    assert t_der(1, 2).commutator(t_mult(2, 2)).is_zero()


def test_weyl_reordering_power_rule():
    # d^2 t^2 = t^2 d^2 + 4 t d + 2
    op = DiffOp(T).add_term(1, derivs=(((1, 1), 2),)).compose(
        DiffOp(T).add_term(1, mults=(((1, 1), 2),)))
    expect = (DiffOp(T)
              .add_term(1, mults=(((1, 1), 2),), derivs=(((1, 1), 2),))
              .add_term(4, mults=(((1, 1), 1),), derivs=(((1, 1), 1),))
              .add_term(2))
    assert op == expect


def test_apply_matches_direct_differentiation():
    s = (Series(T)
         .add_term(Fraction(1, 2), times=(((1, 1), 3), ((1, 2), 1)))
         .add_term(3, times=(((2, 1), 2),)))
    op = DiffOp(T).add_term(2, mults=(((1, 2), 1),), derivs=(((1, 1), 2),))
    direct = s.derive(1, 1).derive(1, 1)
    direct = direct.mul(Series(T).add_term(1, times=(((1, 2), 1),))).scale(2)
    assert op.apply(s) == direct


def test_apply_sqrt2_carry_and_box():
    t = TruncSpec(4, 3, 4, (-2, 2))
    s = (Series(t).add_term(3, hl=1, times=(((1, 1), 2),))
         .add_term(1, hl=2, times=(((1, 1), 1),)))
    op = DiffOp(t).add_term(Fraction(1, 2), Monomial(hl=1, zexp=1),
                            mults=(((2, 3), 1),), derivs=(((1, 1), 1),))
    # odd times odd sqrtLam: sqrt2 * sqrt2 = 2 goes into the coefficient,
    # and d/dt[1,1] t[1,1]^2 = 2 t[1,1]; odd times even keeps the sqrt2
    expect = (Series(t)
              .add_term(Fraction(1, 2) * 3 * 2 * 2, hl=2, zexp=1,
                        times=(((1, 1), 1), ((2, 3), 1)))
              .add_term(Fraction(1, 2), hl=3, zexp=1,
                        times=(((2, 3), 1),)))
    assert op.apply(s) == expect
    # a power beyond the z window is dropped from the output
    far = DiffOp(t).add_term(1, Monomial(zexp=2))
    assert far.apply(Series(t).add_term(1, zexp=1)).is_zero()


@pytest.mark.parametrize("entry", [((0, 1), 1), ((1, -1), 1), ((1, 1), -1)])
def test_add_term_rejects_bad_time_entries(entry):
    with pytest.raises(ValueError):
        DiffOp(T).add_term(1, mults=(entry,))
    with pytest.raises(ValueError):
        DiffOp(T).add_term(1, derivs=(entry,))


def test_compose_consistent_with_apply():
    a = DiffOp(T).add_term(1, mults=(((1, 1), 1),), derivs=(((1, 2), 1),))
    b = DiffOp(T).add_term(1, mults=(((1, 2), 2),), derivs=(((1, 1), 1),))
    s = (Series(T)
         .add_term(1, times=(((1, 1), 2), ((1, 2), 1)))
         .add_term(Fraction(-2, 3), times=(((1, 2), 2),)))
    assert a.compose(b).apply(s) == a.apply(b.apply(s))
    assert b.compose(a).apply(s) == b.apply(a.apply(s))


def test_apply_exp_translation():
    # exp(a * d/dt) is nilpotent on polynomials: check on t^3
    t = TruncSpec(0, 3, 1)
    s = Series(t).add_term(1, times=(((1, 1), 3),))
    op = DiffOp(t).add_term(Fraction(1, 2), derivs=(((1, 1), 1),))
    out = op.apply_exp(s)
    # (t + 1/2)^3
    expect = (Series(t)
              .add_term(1, times=(((1, 1), 3),))
              .add_term(Fraction(3, 2), times=(((1, 1), 2),))
              .add_term(Fraction(3, 4), times=(((1, 1), 1),))
              .add_term(Fraction(1, 8)))
    assert out == expect


def test_ring_restriction_drops_out_of_range():
    op = DiffOp(T).add_term(1, derivs=(((1, 9), 1),))   # p=9 > p_max=4
    assert op.is_zero()
    op = DiffOp(T).add_term(1, mults=(((1, 9), 1),))
    assert op.is_zero()
    with pytest.raises(ValueError):
        DiffOp(T).add_term(1, mono=Monomial(times=(((1, 1), 1),)))


# -- property: composition is associative and matches application ----------

keys = st.tuples(st.integers(1, 2), st.integers(0, 2))
word = st.lists(st.tuples(keys, st.integers(1, 2)), min_size=0, max_size=2)


def mk_op(spec):
    mults, derivs, coeff = spec
    return DiffOp(T).add_term(coeff, mults=tuple(mults), derivs=tuple(derivs))


op_st = st.builds(mk_op, st.tuples(word, word, st.integers(-3, 3)))


@settings(max_examples=40, deadline=None)
@given(op_st, op_st, op_st)
def test_compose_associative(a, b, c):
    assert a.compose(b).compose(c) == a.compose(b.compose(c))


@settings(max_examples=40, deadline=None)
@given(op_st, op_st)
def test_jacobi_like_bilinearity(a, b):
    assert a.commutator(b) == -(b.commutator(a))
