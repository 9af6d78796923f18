"""Acceptance gate: the thirteen headline checks at their stated sizes.

Every check is exact (coefficient-level equality of Laurent polynomials or
boxed series); there are no tolerances anywhere.  Each test emits a single
PASS/FAIL line (visible under -s) and asserts.
"""

from fractions import Fraction
from math import comb, factorial

from melontau.bilinear import (
    basis_monomials,
    conjugation_sandwich_residual,
    hirota_residual,
    dressing_op_residuals,
    tensor_bilinear_residual,
    tensor_reduction_residual,
)
from melontau.decomposition import (
    bch_gamma,
    bch_gamma_sym,
    bch_log_product,
    commutator_residual,
    decomposition_residuals,
    direct_tensor_z,
    direct_tensor_z_oracle,
    tensor_free_energy_exponents,
)
from melontau.graphs import ColoredGraph, enumerate_patterns
from melontau.onematrix import (
    charpoly_expectation,
    free_energy_quartic,
    hankel_chain_residuals,
    kernel_norm,
    orthogonality_residual,
    orthopoly_det,
    planar_two_point,
    virasoro_residual,
)
from melontau.scalars import GaussRat
from melontau.series import Monomial, USeries
from melontau.wick import (
    hermitian_moment,
    moment_index_oracle,
    tensor_moment,
    tensor_moment_index_oracle,
)


def _verdict(tag, ok):
    print("%s: %s" % ("PASS" if ok else "FAIL", tag))
    assert ok, tag


def test_criterion_01_commutator_identity():
    ok = all(commutator_residual(D, 4).is_zero() for D in (2, 3, 4))
    _verdict("[Xhat, Yhat] = D Yhat for D in {2,3,4}, indices <= 4", ok)


def test_criterion_02_bch_closed_form():
    (a, b), (c, d) = bch_log_product(8)
    gamma = bch_gamma(8)
    frozen = [Fraction(1), Fraction(1, 2), Fraction(1, 12), Fraction(0),
              Fraction(-1, 720), Fraction(0), Fraction(1, 30240),
              Fraction(0), Fraction(-1, 1209600)]
    ok = (a == USeries([0, 1], 8) and c == USeries([], 8)
          and d == USeries([], 8) and b == gamma
          and gamma.c == frozen and gamma == bch_gamma_sym(8))
    _verdict("log(e^X e^Y) = X + D/(1-e^-D) Y through D^8", ok)


def test_criterion_03_decomposition_routes():
    ok = True
    for D, K in ((3, 1), (2, 2)):
        r12, r13 = decomposition_residuals(D, K).values()
        ok = ok and r12.is_zero() and r13.is_zero()
        for n in (1, 2):
            ok = ok and (direct_tensor_z(D, K).eval_N(n)
                         == direct_tensor_z_oracle(D, K, n))
    z = direct_tensor_z(3, 1)
    ok = ok and z.coeff(Monomial(hl=2, hn=6)) == GaussRat(Fraction(-3, 4))
    ok = ok and z.coeff(Monomial(hl=2, hn=4)) == GaussRat(Fraction(-3, 4))
    _verdict("three decomposition routes agree at (D,K)=(3,1),(2,2); "
             "index oracle at N=1,2; lambda^1 value frozen", ok)


def test_criterion_04_melonic_grading():
    expo = tensor_free_energy_exponents(3, 2)
    ok = all(all(isinstance(e, int) and e <= 3 for e in v)
             for v in expo.values())
    ok = ok and max(expo[1]) == 3 and max(expo[2]) == 3
    _verdict("D=3 free-energy exponents are 3 - omega, cap attained, "
             "through lambda^2", ok)


def test_criterion_05_planar_counts():
    vals = planar_two_point(4)
    ok = vals == [Fraction(v) for v in (1, -2, 9, -54, 378)]
    closed = [Fraction(2 * 3 ** n * comb(2 * n, n),
                       (n + 1) * (n + 2)) for n in range(5)]
    ok = ok and [abs(v) for v in vals] == closed
    _verdict("planar two-point counts 1,2,9,54,378 = closed form", ok)


def test_criterion_06_genus_grading():
    coeffs = free_energy_quartic(3)
    ok = coeffs[0].c == {0: Fraction(-1, 4), 2: Fraction(-1, 2)}
    for p in coeffs:
        ok = ok and all(e % 2 == 0 and e <= 2 for e in p.c)
    _verdict("free energy is a 2-2g series through t4^3; "
             "first coefficient frozen", ok)


def test_criterion_07_orthogonal_polynomials():
    ok = True
    for size in (1, 2, 3):
        ok = ok and charpoly_expectation(size, 2) == \
            orthopoly_det(size, size, 2)
        for r in orthogonality_residual(size, 2):
            ok = ok and all(x == 0 for x in r)
    step, closed = hankel_chain_residuals(3, 3, 2).values()
    for r in step + closed:
        ok = ok and all(x == 0 for x in r)
    for nweight in (2, 3):
        k0 = kernel_norm(0, nweight, 0)[0]
        for n in (1, 2, 3):
            ok = ok and kernel_norm(n, nweight, 0)[0] / k0 == \
                Fraction(factorial(n), nweight ** n)
    _verdict("orthogonal polynomials: <det(x-M)> route = Hankel route, "
             "orthogonality and norm ladders exact, sizes <= 3, t4^2", ok)


def test_criterion_08_virasoro():
    ok = all(virasoro_residual(n, 4, 3).is_zero() for n in (-1, 0, 1, 2))
    _verdict("L_n Z = 0 on the box (indices <= 4, degree <= 3) "
             "for n in {-1,0,1,2}", ok)


def test_criterion_09_hirota_equal_size():
    ok = all(hirota_residual(n, 2, 3).is_zero() for n in (1, 2))
    _verdict("equal-size bilinear residue vanishes at N=1,2 through "
             "joint degree 2, indices <= 3", ok)


def test_criterion_10_vertex_conjugation():
    ok = True
    for D in (2, 3):
        ok = ok and all(v.is_zero()
                        for v in dressing_op_residuals(D).values())
        for mono in basis_monomials(D, 2, 2):
            ok = ok and conjugation_sandwich_residual(mono, D).is_zero()
    _verdict("e^Y V e^-Y equals the dressed vertex: operator identities "
             "and basis sandwich, D in {2,3}, sqrtLam^4, degree 2", ok)


def test_criterion_11_deformed_bilinear():
    ok = tensor_reduction_residual(3, 1).is_zero()
    ok = ok and tensor_bilinear_residual(3, 1, 1, p_ext=2).is_zero()
    _verdict("deformed bilinear residue vanishes at D=3, K=1, N=1 "
             "through joint degree 1; K=0 reduction exact", ok)


def test_criterion_12_graph_degrees():
    ok = [len(ColoredGraph.dipole(D).jackets()) for D in (3, 4, 5)] \
        == [1, 3, 12]
    ok = ok and all(ColoredGraph.dipole(D).gurau_degree() == 0
                    for D in (3, 4))
    ok = ok and all(ColoredGraph.quartic_melon(3, c).gurau_degree() == 0
                    for c in (1, 2, 3))
    ok = ok and ColoredGraph.quartic_melon(4, 1).gurau_degree() == 0
    _verdict("jacket census 1/3/12; dipoles and quartic melons have "
             "degree 0", ok)


def test_criterion_13_wick_oracles():
    def words(budget):
        out = []
        def rec(lo, left, acc):
            for p in range(lo, left + 1):
                out.append(acc + [p])
                rec(p, left - p, acc + [p])
        rec(1, budget, [])
        return [tuple(w) for w in out if sum(w) % 2 == 0]

    ok = True
    for w in words(8):
        m = hermitian_moment(w)
        for n in (1, 2):
            ok = ok and m.eval(n) == moment_index_oracle(w, n)
    for k in (1, 2):
        for g in enumerate_patterns(3, k):
            t = tensor_moment(g.perms)
            for n in (1, 2):
                ok = ok and t.eval(n) == tensor_moment_index_oracle(g.perms, n)
    _verdict("moment engines match brute-force index sums: matrix words "
             "with <= 8 slots, D=3 tensor pairings with <= 2 pairs", ok)
