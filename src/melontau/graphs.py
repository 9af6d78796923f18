r"""Bipartite D-coloured graphs, their jackets, and the Gurau degree.

A closed invariant of the rank-D tensor is a bipartite graph on k white and
k black vertices in which every vertex meets exactly one edge of each colour
1..D; equivalently, D permutations pi_c with pi_c(w) = the black end of the
colour-c edge at white w.

A jacket is the ribbon graph singled out by a cyclic order tau of the
colours, taken up to rotation and reversal: (D-1)!/2 of them for D >= 3 and
a single one for D = 2 (the ribbon graph itself).  Its faces are the cycles
of pi_{tau(i+1)}^{-1} o pi_{tau(i)}, summed over consecutive colour pairs
including the wraparound; with V = 2k and E = Dk the Euler relation
V - E + F = sum over components of (2 - 2g) fixes the jacket genus.  (At
D = 2 the wraparound makes both directed pairs (1,2) and (2,1) count, which
is exactly the ribbon-graph face count: the 2-cycle graph on the sphere gets
F = 2.)  The Gurau degree is the sum of the jacket genera.

Graphs serialize to/from JSON as
    {"D": 3, "white": 2, "black": 2,
     "edges": [{"w": 0, "b": 0, "c": 1}, ...]}
with vertices 0-based and colours 1-based.
"""

import json
from itertools import permutations, product

from .wick import _cycles


def _int_fields(obj, *keys):
    """obj's values at keys; ValueError unless obj is a JSON object with a
    non-negative integer at each key."""
    if not (isinstance(obj, dict) and all(type(obj.get(k)) is int
                                          and obj[k] >= 0 for k in keys)):
        raise ValueError("expected an object with non-negative integer %s, "
                         "got %r" % ("/".join(keys), obj))
    return [obj[k] for k in keys]


class ColoredGraph:
    """D-coloured bipartite graph given by per-colour matchings.

    perms[c-1][w] is the black vertex reached from white w by colour c.

    >>> g = ColoredGraph([(1, 0), (0, 1), (0, 1)])   # quartic melon, D=3
    >>> g.D, g.k
    (3, 2)
    >>> g.gurau_degree()
    0
    """

    def __init__(self, perms, check=True):
        self.perms = tuple(tuple(p) for p in perms)
        self.D = len(self.perms)
        if self.D < 2:
            raise ValueError("need at least two colours")
        self.k = len(self.perms[0])
        if check:
            for p in self.perms:
                if sorted(p) != list(range(self.k)):
                    raise ValueError("colour class is not a perfect matching "
                                     "of whites onto blacks: %r" % (p,))

    # -- serialization -----------------------------------------------------

    @classmethod
    def from_json(cls, text):
        """The graph of a JSON text; ValueError when it is malformed."""
        data = json.loads(text)
        D, k = _int_fields(data, "D", "white")
        if _int_fields({"black": k, **data}, "black") != [k]:
            raise ValueError("white and black counts must match")
        if not isinstance(data.get("edges"), list):
            raise ValueError("edges must be a list")
        perms = [[None] * k for _ in range(D)]
        for e in data["edges"]:
            w, b, c = _int_fields(e, "w", "b", "c")
            if not (0 <= w < k and 0 <= b < k and 1 <= c <= D):
                raise ValueError("edge out of range: %r" % (e,))
            if perms[c - 1][w] is not None:
                raise ValueError("white %d has two colour-%d edges" % (w, c))
            perms[c - 1][w] = b
        for c, p in enumerate(perms, start=1):
            if None in p:
                raise ValueError("missing colour-%d edges" % c)
        return cls(perms)

    def to_json(self):
        edges = [{"w": w, "b": self.perms[c][w], "c": c + 1}
                 for c in range(self.D) for w in range(self.k)]
        return json.dumps({"D": self.D, "white": self.k, "black": self.k,
                           "edges": edges})

    # -- connectivity ------------------------------------------------------

    def components(self):
        """Vertex sets of connected components, whites tagged ('w', i)."""
        parent = {}

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i in range(self.k):
            parent[("w", i)] = ("w", i)
            parent[("b", i)] = ("b", i)
        for p in self.perms:
            for w in range(self.k):
                a, b = find(("w", w)), find(("b", p[w]))
                if a != b:
                    parent[a] = b
        groups = {}
        for v in parent:
            groups.setdefault(find(v), []).append(v)
        return sorted(groups.values())

    # -- jackets and degree ------------------------------------------------

    def jackets(self):
        """Cyclic colour orders up to rotation and reversal.

        >>> [len(ColoredGraph.dipole(D).jackets()) for D in (3, 4, 5)]
        [1, 3, 12]
        """
        if self.D == 2:
            return [(1, 2)]
        out = []
        for rest in permutations(range(2, self.D + 1)):
            if rest[0] < rest[-1]:       # quotient by reversal
                out.append((1,) + rest)
        return out

    def _pair_cycles(self, a, b):
        """Number of (a,b)-bicoloured face cycles, by permutation algebra."""
        pa, pb = self.perms[a - 1], self.perms[b - 1]
        inv_b = [0] * self.k
        for w in range(self.k):
            inv_b[pb[w]] = w
        return _cycles([inv_b[pa[w]] for w in range(self.k)])

    def jacket_faces(self, order):
        return sum(self._pair_cycles(order[i], order[(i + 1) % len(order)])
                   for i in range(len(order)))

    def jacket_genus(self, order):
        """Total genus of the jacket (summed over components).

        V - E + F = sum_components (2 - 2 g); integrality is asserted.
        """
        chi = 2 * self.k - self.D * self.k + self.jacket_faces(order)
        total = 2 * len(self.components()) - chi
        if total < 0 or total % 2:
            raise AssertionError("non-integral jacket genus from chi=%d" % chi)
        return total // 2

    def gurau_degree(self):
        """Sum of jacket genera; 0 exactly for melonic graphs."""
        return sum(self.jacket_genus(j) for j in self.jackets())

    # -- stock graphs ------------------------------------------------------

    @classmethod
    def dipole(cls, D):
        """One white, one black, all D edges parallel."""
        return cls([(0,)] * D)

    @classmethod
    def quartic_melon(cls, D, colour=1):
        """Two whites/blacks; the distinguished colour crosses."""
        return cls([(1, 0) if c == colour else (0, 1)
                    for c in range(1, D + 1)])

    @classmethod
    def necklace(cls, D=4):
        """Two colours cross, the rest are parallel: degree 1 at D=4."""
        return cls([(1, 0), (1, 0)] + [(0, 1)] * (D - 2))


def faces_by_walk(graph, a, b):
    """(a,b)-bicoloured faces counted by literally walking the edge list.

    Independent of the permutation-composition route in jacket_faces: steps
    are looked up in the explicit edge set, colour a from the white side and
    colour b back from the black side, until the walk closes.
    """
    edges = {(w, graph.perms[c][w], c + 1)
             for c in range(graph.D) for w in range(graph.k)}

    def step(w):
        (bb,) = [bb for (ww, bb, cc) in edges if ww == w and cc == a]
        (w2,) = [ww for (ww, bb2, cc) in edges if bb2 == bb and cc == b]
        return w2

    seen = set()
    count = 0
    for start in range(graph.k):
        if start in seen:
            continue
        count += 1
        w = start
        while w not in seen:
            seen.add(w)
            w = step(w)
    return count


def degree_by_walk(graph):
    """Gurau degree recomputed entirely from the face-walk oracle."""
    ncomp = len(graph.components())
    total = 0
    for order in graph.jackets():
        faces = sum(faces_by_walk(graph, order[i],
                                  order[(i + 1) % len(order)])
                    for i in range(len(order)))
        chi = 2 * graph.k - graph.D * graph.k + faces
        g2 = 2 * ncomp - chi
        assert g2 >= 0 and g2 % 2 == 0
        total += g2 // 2
    return total


def enumerate_patterns(D, k):
    """All (k!)^D labelled D-colour contraction patterns on k pairs."""
    perms = list(permutations(range(k)))
    return [ColoredGraph(choice, check=False)
            for choice in product(perms, repeat=D)]
