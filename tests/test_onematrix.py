from fractions import Fraction
from math import comb, factorial

import pytest

from melontau import onematrix
from melontau.diffops import DiffOp
from melontau.series import Monomial, Series, TruncSpec
from melontau.wick import NPoly, hermitian_moment
from melontau.onematrix import (charpoly_expectation, deformed_onedim_moment,
                                free_energy_quartic, hankel_chain_residuals,
                                hankel_z, kernel_norm, onedim_gaussian_moment,
                                orthogonality_residual, orthopoly_det,
                                planar_two_point,
                                virasoro_op, virasoro_residual, z1mm_hankel,
                                z1mm_series)


T = TruncSpec(0, 3, 4)


def mono_t(pairs, hn=0):
    return Monomial(hn=hn, times=tuple(pairs))


def test_z1mm_low_coefficients():
    z = z1mm_series(T)
    # [t_2] = -N<TrM^2> = -N^2 ; [t_4] = -N(2N + 1/N) ; [t_1^2] = N^2/2
    assert z.coeff(mono_t(
        (((1, 2), 1),), hn=4)) == -1
    assert z.coeff(mono_t((((1, 4), 1),), hn=4)) == -2
    assert z.coeff(mono_t((((1, 4), 1),), hn=0)) == -1
    assert z.coeff(mono_t((((1, 1), 2),), hn=4)) == Fraction(1, 2)
    assert z.coeff(mono_t((((1, 1), 1),))).is_zero()
    # t_0 prefactor: exp(-N^2 t_0), and it multiplies everything
    assert z.coeff(mono_t((((1, 0), 1),), hn=4)) == -1
    assert z.coeff(mono_t((((1, 0), 1), ((1, 2), 1)), hn=8)) == 1
    assert z.coeff(Monomial()).is_one()


def test_z1mm_wick_vs_hankel():
    for n in (1, 2, 3):
        sym = z1mm_series(T).eval_N(n)
        eig = z1mm_series(T, nsize=n)
        assert sym == eig, n


def test_hankel_respects_weight_cap():
    t = TruncSpec(0, 4, 6, max_time_weight=6)
    for n in (1, 2):
        assert z1mm_series(t).eval_N(n) == z1mm_series(t, nsize=n)


# -- free energy / planar two-point ----------------------------------------


def test_free_energy_first_order_and_grading():
    fes = free_energy_quartic(order=3)
    assert fes[0] == NPoly({2: Fraction(-1, 2), 0: Fraction(-1, 4)})
    for fe in fes:
        for expo in fe.c:
            assert expo <= 2 and expo % 2 == 0   # 2 - 2g, integer genus


def test_free_energy_connected_vs_disconnected():
    # at order 2 the N^4 parts of log Z must cancel: F has no N^4
    fes = free_energy_quartic(order=2)
    assert all(e <= 2 for e in fes[1].c)


def tutte_closed_form(n):
    # rooted planar maps with n 4-valent vertices
    return Fraction(2 * 3 ** n, (n + 1) * (n + 2)) * comb(2 * n, n)


def test_planar_two_point_numbers():
    vals = planar_two_point(order=4)
    assert vals == [(-1) ** n * tutte_closed_form(n) for n in range(5)]
    assert [abs(v) for v in vals] == [1, 2, 9, 54, 378]


# -- Virasoro --------------------------------------------------------------


@pytest.mark.parametrize("n", [-1, 0, 1, 2])
def test_virasoro_small_box(n):
    assert virasoro_residual(n, p_ext=2, deg=2).is_zero()


def test_virasoro_full_enumeration_instance(monkeypatch):
    # same constraint with every moment from explicit pairing enumeration
    calls = []

    def pairing(word, engine="auto"):
        calls.append(word)
        return hermitian_moment(word, engine="pairing")

    monkeypatch.setattr(onematrix, "hermitian_moment", pairing)
    assert virasoro_residual(2, p_ext=2, deg=2).is_zero()
    assert calls


def _virasoro_groups(n, ring):
    """L_n split into its N^-2 double-derivative terms, its d/dt_{n+2} term
    and its p t_p d/dt_{p+n} terms."""
    groups = [DiffOp(ring) for _ in range(3)]
    for (mono, mults, derivs), c in virasoro_op(n, ring).terms.items():
        groups[2 if mults else 0 if mono.hn else 1].add_term(c, mono, mults,
                                                             derivs)
    return groups


@pytest.mark.parametrize("n", [-1, 0, 1, 2])
@pytest.mark.parametrize("p_ext,deg", [(2, 2), (3, 2), (4, 3)])
def test_virasoro_inner_ring_is_large_enough(n, p_ext, deg):
    # the inner ring documented in virasoro_residual, then every cap + 1:
    # each term group of L_n Z must restrict to the same box coefficients
    box = TruncSpec(0, deg, p_ext)
    seen = []
    for bump in (0, 1):
        ring = TruncSpec(bump, deg + 2 + bump, p_ext + max(n, 0) + 2 + bump,
                         max_time_weight=p_ext * deg + max(n, 0) + 2 + bump)
        z = z1mm_series(ring)
        seen.append([g.apply(z).restrict(box).serialize()
                     for g in _virasoro_groups(n, ring)])
    assert seen[0] == seen[1]
    assert any(seen[0])


def test_virasoro_detects_wrong_operator(monkeypatch):
    # negative control, run through virasoro_residual's own route: breaking
    # the d_{t_{n+2}} coefficient must show up in the box it certifies
    n, p_ext, deg = 0, 2, 2
    good = onematrix.virasoro_op

    def broken(n, trunc):
        return good(n, trunc) + DiffOp(trunc).add_term(
            1, derivs=(((1, n + 2), 1),))

    monkeypatch.setattr(onematrix, "virasoro_op", broken)
    res = virasoro_residual(n, p_ext, deg)
    assert not res.is_zero()
    # the same box coefficients as the whole L_n Z on the inner ring,
    # restricted afterwards
    inner = TruncSpec(0, deg + 2, p_ext + n + 2,
                      max_time_weight=p_ext * deg + n + 2)
    box = TruncSpec(0, deg, p_ext)
    want = broken(n, inner).apply(z1mm_series(inner)).restrict(box)
    assert res.trunc == want.trunc
    assert res.serialize() == want.serialize()


# -- orthogonal polynomials ------------------------------------------------


def test_onedim_moments():
    assert onedim_gaussian_moment(0, 5) == 1
    assert onedim_gaussian_moment(2, 2) == Fraction(1, 2)
    assert onedim_gaussian_moment(4, 2) == Fraction(3, 4)
    assert onedim_gaussian_moment(3, 2) == 0
    m = deformed_onedim_moment(0, 2, 2)
    assert m[0] == 1 and m[1] == Fraction(-2, 4) * Fraction(3, 4)


def test_charpoly_known_p2():
    P = charpoly_expectation(2, 1)
    assert P[2][0] == 1                      # monic
    assert P[1].c == [Fraction(0), Fraction(0)]
    assert P[0][0] == Fraction(-1, 2)        # x^2 - 1/2 at t4 = 0


def test_charpoly_matches_det_route():
    for size in (1, 2, 3):
        A = charpoly_expectation(size, 2)
        B = orthopoly_det(size, size, 2)
        assert A == B, size


def test_orthogonality_residual_vanishes():
    for size in (1, 2, 3):
        for r in orthogonality_residual(size, 2):
            assert all(x == 0 for x in r), size


def test_orthogonality_negative_control():
    # int P_size x^size dmu is the norm: must NOT vanish
    assert kernel_norm(2, 2, 2)[0] != 0


def test_hankel_chain():
    step, closed = hankel_chain_residuals(3, 3, 2).values()
    for r in step + closed:
        assert all(x == 0 for x in r)


def test_gaussian_norm_ratios():
    # h_n / h_0 = n! / nweight^n at t4 = 0
    for nweight in (2, 3):
        k0 = kernel_norm(0, nweight, 0)[0]
        for n in (1, 2, 3):
            kn = kernel_norm(n, nweight, 0)[0]
            assert kn / k0 == Fraction(factorial(n), nweight ** n)


@pytest.mark.parametrize("call, message", [
    (lambda: z1mm_hankel(T, 1, 0), "size must be >= 1"),
    (lambda: virasoro_op(-2, T), "n >= -1"),
    (lambda: hermitian_moment([-1]), "negative trace power"),
    (lambda: Series.one(T).eval_N(0), "N must be a positive integer"),
], ids=["z1mm_hankel", "virasoro_op", "hermitian_moment", "eval_N"])
def test_input_guards_raise_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()
