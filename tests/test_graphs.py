import json

import pytest
from hypothesis import given, settings, strategies as st

from melontau.graphs import (ColoredGraph, degree_by_walk, enumerate_patterns,
                             faces_by_walk)
from melontau.wick import NPoly, tensor_moment


def test_jacket_counts():
    assert len(ColoredGraph.dipole(3).jackets()) == 1
    assert len(ColoredGraph.dipole(4).jackets()) == 3
    assert len(ColoredGraph.dipole(5).jackets()) == 12
    assert len(ColoredGraph([(0,), (0,)]).jackets()) == 1     # D=2


def test_dipole_degree_zero():
    for D in (3, 4, 5):
        assert ColoredGraph.dipole(D).gurau_degree() == 0


def test_quartic_melon_degree_zero():
    for c in (1, 2, 3):
        assert ColoredGraph.quartic_melon(3, c).gurau_degree() == 0
    assert ColoredGraph.quartic_melon(4).gurau_degree() == 0


def test_colour23_crossed_quartic_is_melonic():
    # crossing colours 2,3 instead of colour 1 relabels the blacks by the
    # swap, so this is the same graph up to isomorphism: degree 0, not a
    # non-melonic example.
    g = ColoredGraph([(0, 1), (1, 0), (1, 0)])
    assert g.gurau_degree() == 0
    assert degree_by_walk(g) == 0


def test_necklace_degree_one():
    # two crossing colours at D=4: one jacket becomes a torus
    g = ColoredGraph.necklace(4)
    assert len(g.components()) == 1
    assert sorted(g.jacket_genus(j) for j in g.jackets()) == [0, 0, 1]
    assert g.gurau_degree() == 1
    assert degree_by_walk(g) == 1


def test_d2_ribbon_faces():
    # D=2 dipole is the 2-cycle on the sphere: V-E+F = 2-2+2
    g = ColoredGraph([(0,), (0,)])
    assert g.jacket_faces((1, 2)) == 2
    assert g.jacket_genus((1, 2)) == 0


def test_disconnected_components_and_degree():
    # disjoint union of two D=3 dipoles
    g = ColoredGraph([(0, 1), (0, 1), (0, 1)])
    assert len(g.components()) == 2
    assert g.gurau_degree() == 0
    assert degree_by_walk(g) == 0


def test_walk_oracle_matches_permutation_faces():
    for g in enumerate_patterns(3, 2):
        for order in g.jackets():
            for i in range(len(order)):
                a, b = order[i], order[(i + 1) % len(order)]
                assert faces_by_walk(g, a, b) == g._pair_cycles(a, b)
        assert degree_by_walk(g) == g.gurau_degree()


def test_enumerate_patterns_census():
    pats = enumerate_patterns(3, 2)
    assert len(pats) == 8
    melon = ColoredGraph.quartic_melon(3, 1)
    assert any(p.perms == melon.perms for p in pats)
    # every connected quartic D=3 pattern is melonic (degree 0)
    for p in pats:
        if len(p.components()) == 1:
            assert p.gurau_degree() == 0


def test_degree_matches_moment_scaling():
    # leading N-power of <pattern> is D - (2/(D-1)!)*degree - ... for these
    # small cases the full moment is computable: check top exponent for the
    # connected quartics: N^1 at degree 0, and the D=4 necklace drops by 1.
    melon = ColoredGraph.quartic_melon(3, 1)
    assert max(tensor_moment(melon.perms).c) == 1
    neck = ColoredGraph.necklace(4)
    m = tensor_moment(neck.perms)
    assert max(m.c) == 0  # degree 1 costs a factor of N at D=4


def test_json_roundtrip_and_validation():
    g = ColoredGraph.necklace(4)
    g2 = ColoredGraph.from_json(g.to_json())
    assert g2.perms == g.perms
    data = json.loads(g.to_json())
    assert {"D", "white", "black", "edges"} <= set(data)
    bad = {"D": 2, "white": 1, "black": 1,
           "edges": [{"w": 0, "b": 0, "c": 1}, {"w": 0, "b": 0, "c": 1}]}
    with pytest.raises(ValueError):
        ColoredGraph.from_json(json.dumps(bad))
    with pytest.raises(ValueError):
        ColoredGraph([(0, 0), (0, 1)])


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), st.integers(1, 3), st.data())
def test_random_patterns_have_sane_degree(D, k, data):
    import random
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    perms = []
    for _ in range(D):
        p = list(range(k))
        rng.shuffle(p)
        perms.append(tuple(p))
    g = ColoredGraph(perms)
    assert g.gurau_degree() >= 0
    assert g.gurau_degree() == degree_by_walk(g)
