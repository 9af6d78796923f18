from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from melontau import wick
from melontau.graphs import ColoredGraph
from melontau.onematrix import virasoro_residual
from melontau.wick import (NPoly, clear_moment_cache, hermitian_moment,
                           moment_index_oracle, pairings, tensor_moment,
                           tensor_moment_index_oracle)


# frozen small moments (genus expansions worked out by hand)
KNOWN = {
    (2,): {1: 1},
    (4,): {1: 2, -1: 1},
    (6,): {1: 5, -1: 10},
    (1, 1): {0: 1},
    (2, 2): {2: 1, 0: 2},
    (0,): {1: 1},
    (3,): {},
    (2, 1): {},
}


@pytest.mark.parametrize("word,coeffs", sorted(KNOWN.items()))
def test_frozen_moments(word, coeffs):
    assert hermitian_moment(word) == NPoly(coeffs)
    assert hermitian_moment(word, engine="pairing") == NPoly(coeffs)


def even_words(max_slots):
    """All trace words (multisets of powers >= 1) with <= max_slots slots."""
    out = [()]
    def rec(prefix, remaining, max_part):
        for p in range(min(remaining, max_part), 0, -1):
            w = prefix + (p,)
            out.append(w)
            rec(w, remaining - p, p)
    rec((), max_slots, max_slots)
    return out


def test_engines_agree_all_words_10_slots():
    clear_moment_cache()
    for w in even_words(10):
        for word in (w, (0,) + w, w + (0, 0)):
            got = hermitian_moment(word)
            assert hermitian_moment(word, engine="pairing") == got, word
            # the recursion counts in ints; NPoly holds Fractions
            assert all(type(v) is Fraction for v in got.c.values()), word


def test_default_engine_is_the_recursion():
    # sum 12, past any small-word cutoff: the default engine must still
    # be the memoized recursion
    clear_moment_cache()
    hermitian_moment((4, 4, 4))
    assert (4, 4, 4) in wick._rec_memo
    # "auto" is its one name
    with pytest.raises(ValueError):
        hermitian_moment((2,), engine="recursion")


def test_memo_holds_only_zero_free_words():
    # each Tr M^0 is factored out as N before the memo is consulted
    clear_moment_cache()
    for n in (-1, 0, 1, 2):
        assert virasoro_residual(n).is_zero()
    assert wick._rec_memo
    assert not [w for w in wick._rec_memo if 0 in w]


def test_index_oracle_all_words_8_slots():
    for w in even_words(8):
        if sum(w) % 2:
            continue
        # also with Tr M^0 = Tr 1 = N factors, e.g. (0, 2) and (0, 1, 1)
        for word in (w, (0,) + w, w + (0, 0)):
            poly = hermitian_moment(word, engine="pairing")
            for n in (1, 2):
                assert poly.eval(n) == moment_index_oracle(word, n), (word, n)


def test_odd_words_vanish():
    for w in even_words(7):
        if sum(w) % 2:
            assert hermitian_moment(w).is_zero(), w


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 5))
def test_pairing_count_double_factorial(n):
    count = sum(1 for _ in pairings(range(2 * n)))
    expect = 1
    for k in range(1, 2 * n, 2):
        expect *= k
    assert count == expect


def test_trace_zero_inserts_N():
    m = hermitian_moment([2])
    assert hermitian_moment([2, 0]) == NPoly.N_pow(1) * m
    assert hermitian_moment([0, 0]) == NPoly({2: 1})


# -- tensor moments --------------------------------------------------------


def test_tbar_t_is_N():
    for D in (2, 3, 4):
        pat = tuple((0,) for _ in range(D))
        assert tensor_moment(pat) == NPoly.N_pow(1)


def test_melonic_quartic_expectation():
    # D=3: N + 1;  D=4: N + 1/N  (hand-computed from the cycle formula)
    def melon(D, c):
        return ColoredGraph.quartic_melon(D, c).perms

    assert tensor_moment(melon(3, 1)) == NPoly({1: 1, 0: 1})
    assert tensor_moment(melon(4, 2)) == NPoly({1: 1, -1: 1})
    # the distinguished colour is immaterial
    for c in (1, 2, 3):
        assert tensor_moment(melon(3, c)) == NPoly({1: 1, 0: 1})


def test_disconnected_product_pattern():
    # two independent Tbar.T pairs: <(Tbar.T)^2> = N^2 + N^{2-D}
    pat = ((0, 1), (0, 1), (0, 1))
    assert tensor_moment(pat) == NPoly({2: 1, -1: 1})


def test_tensor_index_oracle_all_k2_patterns():
    perms2 = [(0, 1), (1, 0)]
    for pis in product(perms2, repeat=3):
        poly = tensor_moment(pis)
        for n in (1, 2):
            assert poly.eval(n) == tensor_moment_index_oracle(pis, n), (pis, n)


def test_tensor_index_oracle_k1():
    pat = ((0,), (0,), (0,))
    for n in (1, 2, 3):
        assert tensor_moment_index_oracle(pat, n) == n
