import random

import pytest

import fusionkit as fk
from conftest import lazy_walk_counts, random_element
from fusionkit import FusionElement
from fusionkit.params import ParamList


def tower_reference(sys, u, depth):
    """The per-vertex tower the row tables replaced: every vertex of every
    level forms its row afresh.  Sparse, so it reaches past the depths the
    dense reference can afford."""
    ubar = sys.conj_element(u)
    levels = [[(sys.unit, 1)]]
    inclusions = []
    for k in range(depth):
        letter = ubar if k % 2 else u
        rows = [sys.tensor(FusionElement.from_label(a), letter) for a, _ in levels[-1]]
        word = {}
        for (_, m), row in zip(levels[-1], rows):
            for c, mc in row.items():
                word[c] = word.get(c, 0) + m * mc
        levels.append(sys.sorted_items(FusionElement(word)))
        inclusions.append(rows)
    return fk.BratteliDiagram(system=sys, u=u, levels=levels, inclusions=inclusions)


def dense_tower_reference(sys, u, depth):
    """The dense tower the sparse rows replaced: the running word decomposed
    per level, and one integer matrix per level pair; plus the principal
    graph read from those matrices by a double scan."""
    ubar = sys.conj_element(u)
    letters = [u if k % 2 else ubar for k in range(1, depth + 1)]
    levels = [[(sys.unit, 1)]]
    matrices = []
    word = sys.unit_element()
    for letter in letters:
        word = sys.tensor(word, letter)
        level = [(lab, word.mult(lab)) for lab in sorted(word.support(), key=sys.sort_key)]
        matrix = []
        for a, _ in levels[-1]:
            prod = sys.tensor(FusionElement.from_label(a), letter)
            matrix.append([prod.mult(c) for c, _ in level])
        levels.append(level)
        matrices.append(matrix)
    first = {}
    for k, level in enumerate(levels):
        for lab, _ in level:
            first.setdefault(lab, k)
    vertices = sorted(first.items(), key=lambda it: (it[1], sys.sort_key(it[0])))
    edges = []
    for k, matrix in enumerate(matrices):
        prev, nxt = levels[k], levels[k + 1]
        for i, (a, _) in enumerate(prev):
            if first[a] != k:
                continue
            for j, (c, _) in enumerate(nxt):
                if first[c] != k + 1:
                    continue
                if matrix[i][j]:
                    edges.append((a, c, matrix[i][j]))
    return levels, matrices, vertices, edges


def dense_inclusions(d, k):
    """``d.inclusions[k]`` as an integer matrix, indexed by the level orderings."""
    return [[row.mult(c) for c, _ in d.levels[k + 1]] for row in d.inclusions[k]]


def degree(g, v):
    return sum(m for a, b, m in g.edges if v in (a, b))


def is_connected(g):
    adj = {v: set() for v, _ in g.vertices}
    for a, b, _ in g.edges:
        adj[a].add(b)
        adj[b].add(a)
    seen, stack = {g.vertices[0][0]}, [g.vertices[0][0]]
    while stack:
        for nb in adj[stack.pop()] - seen:
            seen.add(nb)
            stack.append(nb)
    return len(seen) == len(g.vertices)


# the group duals use generators whose towers stay small enough for dense
# matrices: with the fundamental generator, F2 at depth 8 spans 64M entries
ORACLE_CASES = {
    "ao3": ("ao3", "r2 + r3"),
    "aut4": ("aut4", None),
    "au2": ("au2", None),
    "Z^2": ("zd2", None),
    "Z*Z/3": ("zmod3", "e + g + h"),
    "F2": ("f2", "s + s^-1 + t"),
}


@pytest.mark.parametrize("fixture, text", ORACLE_CASES.values(), ids=ORACLE_CASES.keys())
def test_tower_matches_dense_reference(request, fixture, text):
    sys = request.getfixturevalue(fixture)
    u = fk.parse_element(sys, text) if text else fk.fundamental(sys)
    for depth in range(1, 9):
        d = fk.tower(sys, u, depth)
        levels, matrices, vertices, edges = dense_tower_reference(sys, u, depth)
        assert d.levels == levels
        assert [dense_inclusions(d, k) for k in range(depth)] == matrices
        g = fk.principal_graph(d)
        assert g.vertices == vertices
        assert g.edges == edges
    for k, rows in enumerate(d.inclusions):
        weighted = sum((m * row for (_, m), row in zip(d.levels[k], rows)), FusionElement())
        assert weighted == FusionElement(d.levels[k + 1])


# family: (fixture, letter pool, depth, letters drawn, letters drawn when the
# generator is also symmetrized or given the unit); the free families draw one
# letter then, since more free terms would outgrow the test at depth 10
RANDOM_TOWER_CASES = {
    "ao3": ("ao3", "r2, r3, r4", 12, 3, 3),
    "aut4": ("aut4", "s1, s2, s3", 12, 3, 3),
    "au2": ("au2", "a, b, ab", 10, 2, 1),
    "Z^2": ("zd2", "g1, g1^-1, g2, g2^-1", 12, 3, 2),
    "Z*Z/3": ("zmod3", "g, g^-1, h, h^2, g h", 10, 2, 1),
    "F2": ("f2", "s, s^-1, t, t^-1, s t", 10, 2, 1),
}


@pytest.mark.parametrize("fixture, pool, depth, letters, fewer", RANDOM_TOWER_CASES.values(),
                         ids=RANDOM_TOWER_CASES.keys())
def test_tower_matches_reference_on_random_generators(request, fixture, pool, depth, letters,
                                                      fewer):
    sys = request.getfixturevalue(fixture)
    pool = [sys.parse_label(text.strip()) for text in pool.split(",")]
    rng = random.Random(f"tower-{fixture}")
    self_conjugate = set()
    for draw in range(12):
        symmetrize, unit = draw % 2, draw // 2 % 2
        u = random_element(sys, rng, pool, max_terms=fewer if symmetrize or unit else letters,
                           max_mult=3)
        if symmetrize:
            u = u + sys.conj_element(u)
        if unit:
            u = u + rng.randint(1, 3) * sys.unit_element()
        self_conjugate.add(u == sys.conj_element(u))
        d, ref = fk.tower(sys, u, depth), tower_reference(sys, u, depth)
        assert d.levels == ref.levels
        for rows, ref_rows in zip(d.inclusions, ref.inclusions):
            assert rows == ref_rows
        g, ref_g = fk.principal_graph(d), fk.principal_graph(ref)
        assert (g.vertices, g.edges) == (ref_g.vertices, ref_g.edges)
    # both row tables ran wherever the pool holds a label that is not its own conjugate
    assert self_conjugate == ({True, False} if any(sys.conj_irr(a) != a for a in pool) else {True})


def counting_tensor(monkeypatch, sys):
    """Count the ``sys.tensor`` calls made from here on."""
    calls = []
    tensor = sys.tensor

    def counted(x, y):
        calls.append((x, y))
        return tensor(x, y)

    monkeypatch.setattr(sys, "tensor", counted)
    return calls


def test_tower_forms_each_row_once_per_letter(monkeypatch, zd2, au2):
    # Z^2's fundamental is self-conjugate: one table, one row per label
    calls = counting_tensor(monkeypatch, zd2)
    d = fk.tower(zd2, fk.fundamental(zd2), 12)
    assert len(calls) == len({a for level in d.levels[:12] for a, _ in level})
    # a_u(2)'s is not: one table per letter, one row per label and letter
    calls = counting_tensor(monkeypatch, au2)
    d = fk.tower(au2, fk.fundamental(au2), 12)
    assert len(calls) == len({(a, k % 2) for k, level in enumerate(d.levels[:12]) for a, _ in level})
    # a label met again under the same letter reuses its row
    rows = {}
    for k, level in enumerate(d.levels[:12]):
        for (a, _), row in zip(level, d.inclusions[k]):
            assert rows.setdefault((a, k % 2), row) is row


def test_tower_depth_one(ao3):
    u = fk.parse_element(ao3, "r2 + r3")
    d = fk.tower(ao3, u, 1)
    assert d.levels[0] == [(ao3.unit, 1)]
    assert d.levels[1] == [(ao3.r(2), 1), (ao3.r(3), 1)]
    assert dense_inclusions(d, 0) == [[1, 1]]


def test_tower_ao2_catalan(ao2):
    d = fk.tower(ao2, ao2.fundamental(), 10)
    assert d.end_dims() == [fk.catalan(k) for k in range(11)]
    # levels follow the interval rule: r2; r1+r3; 2r2+r4; ...
    assert d.levels[1] == [(ao2.r(2), 1)]
    assert d.levels[2] == [(ao2.r(1), 1), (ao2.r(3), 1)]
    assert d.levels[3] == [(ao2.r(2), 2), (ao2.r(4), 1)]


def test_tower_dual_of_z(zdual):
    g = FusionElement({zdual.parse_label("g1"): 1})
    d = fk.tower(zdual, g, 6)
    for k, level in enumerate(d.levels):
        assert len(level) == 1 and level[0][1] == 1
        expect = zdual.unit if k % 2 == 0 else zdual.parse_label("g1")
        assert level[0][0] == expect
    assert d.end_dims() == [1] * 7


def test_tower_z2_lazy_walk_end_dims(zd2):
    # End(u^k) counts the closed 2k-step walks of the lazy walk on Z^2
    for depth in (12, 40):
        d = fk.tower(zd2, fk.parse_element(zd2, "e + g1 + g1^-1 + g2 + g2^-1"), depth)
        assert d.end_dims() == lazy_walk_counts(depth)


def test_end_dims_match_frobenius(ao3, au2):
    # sum of squared multiplicities at level k = mult(unit, w (x) conj(w))
    for sys, u in ((ao3, ao3.fundamental()), (au2, au2.fundamental())):
        d = fk.tower(sys, u, 6)
        ubar = sys.conj_element(u)
        word = sys.unit_element()
        for k in range(1, 7):
            word = sys.tensor(word, u if k % 2 else ubar)
            pairing = sys.tensor(word, sys.conj_element(word))
            assert d.end_dims()[k] == pairing.mult(sys.unit)


def test_principal_graph_ao2_path(ao2):
    g = fk.principal_graph(fk.tower(ao2, ao2.fundamental(), 10))
    assert len(g.vertices) == 11
    assert [lev for _, lev in g.vertices] == list(range(11))
    assert len(g.edges) == 10
    assert all(m == 1 for _, _, m in g.edges)
    assert is_connected(g)
    # bipartite by level: every edge joins levels of opposite parity
    level = dict(g.vertices)
    assert all((level[a] - level[b]) % 2 for a, b, _ in g.edges)
    # a path: inner vertices have degree 2
    degs = sorted(degree(g, v) for v, _ in g.vertices)
    assert degs == [1, 1] + [2] * 9


def test_principal_graph_dual_of_z(zdual):
    g1 = FusionElement({zdual.parse_label("g1"): 1})
    graph = fk.principal_graph(fk.tower(zdual, g1, 8))
    assert len(graph.vertices) == 2
    assert len(graph.edges) == 1
    sym = fk.parse_element(zdual, "g1 + g1^-1")
    graph = fk.principal_graph(fk.tower(zdual, sym, 5))
    names = sorted(zdual.format_label(v) for v, _ in graph.vertices)
    assert names == sorted(
        ["e"] + [f"g1^{k}" if abs(k) > 1 else ("g1" if k == 1 else "g1^-1")
                 for k in range(-5, 6) if k])
    assert is_connected(graph)


def test_unit_vertex_degree(ao3, aut4):
    for sys, u in ((ao3, fk.parse_element(ao3, "r2 + r3")),
                   (aut4, fk.fundamental(aut4))):
        g = fk.principal_graph(fk.tower(sys, u, 6))
        non_unit = len({lab for lab in u.support() if lab != sys.unit})
        assert degree(g, sys.unit) == non_unit


def test_graph_invariant_under_relabeling(ao2):
    class Doubled(fk.FusionSystem):
        def __init__(self, base):
            super().__init__(base.family_id + "#x2")
            self.base = base
            self._unit = self.label(2)

        def validate_payload(self, payload):
            return payload

        def _tensor_irr(self, a, b):
            prod = self.base.tensor_pair(self.base.label(a.payload // 2),
                                         self.base.label(b.payload // 2))
            return fk.FusionElement({self.label(c.payload * 2): m for c, m in prod.items()})

        def conj_irr(self, a):
            return a

        def dim_irr(self, a):
            return self.base.dim_irr(self.base.label(a.payload // 2))

        def sort_key(self, label):
            return label.payload

        def format_label(self, a):
            return f"v{a.payload}"

    doubled = Doubled(ao2)
    g1 = fk.principal_graph(fk.tower(ao2, ao2.fundamental(), 8))
    g2 = fk.principal_graph(
        fk.tower(doubled, fk.FusionElement({doubled.label(4): 1}), 8))
    relabeled_vertices = {(v.payload * 2, lev) for v, lev in g1.vertices}
    assert relabeled_vertices == {(v.payload, lev) for v, lev in g2.vertices}
    e1 = {(a.payload * 2, b.payload * 2, m) for a, b, m in g1.edges}
    e2 = {(a.payload, b.payload, m) for a, b, m in g2.edges}
    assert e1 == e2


def test_export_dot(ao2):
    g = fk.principal_graph(fk.tower(ao2, ao2.fundamental(), 10))
    dot = fk.export_dot(g)
    assert dot.startswith("graph principal {")
    assert dot.rstrip().endswith("}")
    assert dot.count("--") == 10
    assert dot.count("[label=") >= 11
    empty = fk.WeightedGraph(system=ao2, vertices=[], edges=[])
    text = fk.export_dot(empty)
    assert text == "graph principal {\n}\n"


def test_export_dot_with_weights(ao2):
    lists = fk.derive_irreducible_lists(ao2, ParamList.parse(["q", "q^-1"]), 11)
    g = fk.principal_graph(fk.tower(ao2, ao2.fundamental(), 10))
    fk.attach_qdim_weights(g, lists, {"q": 1.0})
    dot = fk.export_dot(g)
    # at q = 1 the quantum integers collapse to the dimensions
    assert '"r3" [label="r3\\n[3.0]"' in dot
    assert g.weights[ao2.r(5)] == pytest.approx(5.0)


def test_tower_bad_depth(ao2):
    with pytest.raises(fk.FusionError):
        fk.tower(ao2, ao2.fundamental(), 0)
