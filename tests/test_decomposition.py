import random
from fractions import Fraction
import math

import pytest

from melontau.scalars import GaussRat
from melontau.series import Monomial, Series, TruncSpec, USeries
from melontau.decomposition import (bch_gamma, bch_gamma_sym,
                                    bch_log_product, build_X, build_Y,
                                    commutator_residual,
                                    decomposition_residuals,
                                    direct_tensor_z, direct_tensor_z_oracle,
                                    eY_applied_z, intermediate_field_z,
                                    tensor_free_energy_exponents,
                                    trace_expectation, _block_pattern,
                                    _colour_multisets)
from melontau import decomposition
from melontau.graphs import ColoredGraph
from melontau.wick import tensor_moment


def test_block_pattern_single_is_quartic_melon():
    assert _block_pattern(3, (2,)) == ColoredGraph.quartic_melon(3, 2).perms


def test_direct_z_first_order_value():
    # [lambda^1] Z = -(3/4) N^2 (N+1) at D = 3
    z = direct_tensor_z(3, 1)
    assert z.coeff(Monomial(hl=2, hn=6)) == GaussRat(Fraction(-3, 4))
    assert z.coeff(Monomial(hl=2, hn=4)) == GaussRat(Fraction(-3, 4))
    assert z.coeff(Monomial()).is_one()


@pytest.mark.parametrize("D,order", [(3, 1), (2, 2), (2, 1)])
def test_three_routes_agree(D, order):
    r12, r13 = decomposition_residuals(D, order).values()
    assert r12.is_zero(), str(r12)
    assert r13.is_zero(), str(r13)


def test_route_agreement_D3_higher_order():
    direct = direct_tensor_z(3, 2)
    assert (direct - intermediate_field_z(3, 2)).is_zero()
    assert (direct - eY_applied_z(3, 2)).is_zero()


def test_direct_z_against_index_oracle():
    for n in (1, 2):
        assert direct_tensor_z(2, 2).eval_N(n) == \
            direct_tensor_z_oracle(2, 2, n)
        assert direct_tensor_z(3, 1).eval_N(n) == \
            direct_tensor_z_oracle(3, 1, n)


def test_wrong_normalization_is_detected():
    # negative control: doubling Yhat must break the operator route
    D, order = 3, 1
    direct = direct_tensor_z(D, order)
    hl_max = 2 * order
    trunc = TruncSpec(hl_max, D * hl_max, hl_max, max_time_weight=hl_max)
    prod = Series.one(trunc)
    from melontau.onematrix import z1mm_series
    for c in (1, 2, 3):
        prod = prod.mul(z1mm_series(trunc, colour=c))
    bad = build_Y(D, trunc).scale(2).apply_exp(prod) \
        .restrict(TruncSpec(hl_max, 0, 0))
    assert not (direct - bad).is_zero()


def test_trace_expectation_factorizes_over_colours():
    t = TruncSpec(0, 4, 4)
    s = Series(t).add_term(1, times=(((1, 2), 1), ((2, 2), 1)))
    # <Tr s1^2><Tr s2^2> = N^2
    assert trace_expectation(s).coeff(Monomial(hn=4)).is_one()


# -- commutator ------------------------------------------------------------


@pytest.mark.parametrize("D", [2, 3, 4])
def test_commutator_identity_operator_level(D):
    assert commutator_residual(D, max_q=4).is_zero()


def test_commutator_on_basis_monomials():
    # independent route: apply both sides to sampled basis monomials
    rng = random.Random(7)
    for D in (2, 3, 4):
        trunc = TruncSpec(4, 3, 4)
        colours = tuple(range(1, D + 1))
        X = build_X(trunc, colours)
        Y = build_Y(D, trunc, colours)
        vars_ = [(c, p) for c in colours for p in range(5)]
        for _ in range(25):
            deg = rng.randint(0, 3)
            times = {}
            for v in rng.choices(vars_, k=deg):
                times[v] = times.get(v, 0) + 1
            s = Series(trunc).add_term(1, times=tuple(times.items()))
            lhs = X.apply(Y.apply(s)) - Y.apply(X.apply(s))
            rhs = Y.apply(s).scale(D)
            assert lhs == rhs, (D, times)


def test_build_Y_requires_faithful_ring():
    with pytest.raises(ValueError):
        build_Y(3, TruncSpec(4, 0, 2))


# -- gradings --------------------------------------------------------------


def test_tensor_free_energy_grading_D3():
    # exponents 3 - omega with omega a nonnegative integer
    expo = tensor_free_energy_exponents(3, 2)
    for k, exps in expo.items():
        assert exps, k
        assert all(isinstance(e, int) and e <= 3 for e in exps)


def test_tensor_free_energy_grading_D2():
    # matrix-model case: exponents 2 - 2g, all even
    expo = tensor_free_energy_exponents(2, 2)
    for exps in expo.values():
        assert all(e % 2 == 0 and e <= 2 for e in exps)


@pytest.mark.parametrize("term", [
    {"coeff": 1, "hl": 2, "hn": 3},                     # odd sqrtN power
    {"coeff": GaussRat(0, 1), "hl": 2, "hn": 2},        # imaginary
])
def test_tensor_free_energy_grading_guard(monkeypatch, term):
    def fake(D, order):
        return Series.one(TruncSpec(2 * order, 0, 0)).add_term(**term)
    monkeypatch.setattr(decomposition, "direct_tensor_z", fake)
    with pytest.raises(AssertionError):
        tensor_free_energy_exponents(3, 2)


def test_melonic_dominance_first_orders():
    # leading exponent is exactly D - ... = 3 at every computed order for D=3
    expo = tensor_free_energy_exponents(3, 2)
    assert max(expo[1]) == 3 and max(expo[2]) == 3


# -- BCH -------------------------------------------------------------------


BERNOULLI_PLUS = [Fraction(1), Fraction(1, 2), Fraction(1, 12), Fraction(0),
                  Fraction(-1, 720), Fraction(0), Fraction(1, 30240),
                  Fraction(0), Fraction(-1, 1209600)]


def test_matrix_rep_is_faithful():
    order = 4
    one = USeries([1], order)
    zero = USeries([], order)
    dsym = USeries([0, 1], order)
    X = ((dsym, zero), (zero, zero))
    Y = ((zero, one), (zero, zero))
    from melontau.decomposition import _m_mul
    XY = _m_mul(X, Y)
    YX = _m_mul(Y, X)
    comm = tuple(tuple(XY[i][j] - YX[i][j] for j in (0, 1)) for i in (0, 1))
    # [X, Y] = D * Y
    assert comm[0][1] == dsym and comm[0][0] == zero
    assert comm[1][0] == zero and comm[1][1] == zero


def test_bch_log_product_structure():
    (a, b), (c, d) = bch_log_product(order=8)
    dsym = USeries([0, 1], 8)
    zero = USeries([], 8)
    assert a == dsym          # X part comes back unrenormalized
    assert c == zero and d == zero
    assert b == bch_gamma(8)  # Y part is D/(1 - e^{-D})


def test_bch_gamma_coefficients():
    g = bch_gamma(8)
    assert g.c == BERNOULLI_PLUS


def test_bch_gamma_two_forms_agree():
    assert bch_gamma(8) == bch_gamma_sym(8)


def test_colour_multisets():
    for D in (2, 3, 4):
        for n in range(4):
            rows = _colour_multisets(D, n)
            qs = [q for q, _total, _count in rows]
            assert len(rows) == math.comb(n + D, D) - 1, (D, n)
            assert len(set(qs)) == len(qs)
            assert (0,) * D not in qs
            for q, total, count in rows:
                assert len(q) == D and 1 <= total == sum(q) <= n
                assert count == math.factorial(total) // math.prod(
                    math.factorial(x) for x in q)
