"""Endomorphism towers and principal graphs of a generator.

The tower of a class ``u`` is built from the alternating words
``u, u (x) u^, u (x) u^ (x) u, ...`` (``u^`` the conjugate): level ``k``
records the irreducible decomposition of the k-letter word, level 0 being
the unit, and the inclusion matrices record how tensoring by the next
letter maps level-``k`` irreducibles into level ``k+1``.  The squared
multiplicities at level ``k`` sum to the endomorphism dimension of the
word.

The principal graph keeps each irreducible at its level of first
appearance and joins new vertices of consecutive levels with the
corresponding inclusion multiplicities (the new-vertex reading of deleting
reflected rows).  The raw diagram is exposed alongside the graph so the
reduction can always be audited.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

from .core import FusionElement, FusionError, FusionSystem, IrrLabel


@dataclass(slots=True)
class BratteliDiagram:
    """Levels and inclusion matrices of an alternating-word tower.

    ``levels[k]`` lists ``(label, multiplicity)`` for the k-letter word
    (``levels[0]`` is the unit); ``inclusions[k]`` is the integer matrix
    from level ``k`` to level ``k+1``, indexed by the level orderings.
    """

    system: FusionSystem
    u: FusionElement
    levels: list[list[tuple[IrrLabel, int]]]
    inclusions: list[list[list[int]]]

    @property
    def depth(self) -> int:
        return len(self.levels) - 1

    def end_dims(self) -> list[int]:
        """``sum m^2`` per level: the endomorphism algebra dimensions."""
        return [sum(m * m for _, m in level) for level in self.levels]


@dataclass(slots=True)
class WeightedGraph:
    """A principal graph: vertices with first-appearance levels, weighted edges."""

    system: FusionSystem
    vertices: list[tuple[IrrLabel, int]]
    edges: list[tuple[IrrLabel, IrrLabel, int]]
    weights: dict[IrrLabel, object] = field(default_factory=dict)

    def vertex_levels(self) -> dict[IrrLabel, int]:
        return dict(self.vertices)

    def degree(self, v: IrrLabel) -> int:
        return sum(m for a, b, m in self.edges if v in (a, b))

    def is_bipartite_by_level(self) -> bool:
        lev = self.vertex_levels()
        return all((lev[a] - lev[b]) % 2 for a, b, _ in self.edges)

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        adj: dict[IrrLabel, set[IrrLabel]] = {v: set() for v, _ in self.vertices}
        for a, b, _ in self.edges:
            adj[a].add(b)
            adj[b].add(a)
        seen = {self.vertices[0][0]}
        stack = [self.vertices[0][0]]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        return len(seen) == len(self.vertices)


def tower(sys: FusionSystem, u: FusionElement, depth: int) -> BratteliDiagram:
    """Decompose the alternating words of ``u`` up to ``depth`` letters."""
    if depth < 1:
        raise FusionError(f"depth must be >= 1, got {depth}")
    sys.check_element(u)
    ubar = sys.conj_element(u)
    letters = [u if k % 2 else ubar for k in range(1, depth + 1)]
    levels: list[list[tuple[IrrLabel, int]]] = [[(sys.unit, 1)]]
    inclusions: list[list[list[int]]] = []
    for letter, word in zip(letters, islice(sys.products(letters), 1, None)):
        level = [(lab, word.mult(lab)) for lab in sorted(word.support(), key=sys.sort_key)]
        prev = levels[-1]
        matrix = []
        for a, _ in prev:
            prod = sys.tensor(FusionElement.from_label(a), letter)
            matrix.append([prod.mult(c) for c, _ in level])
        levels.append(level)
        inclusions.append(matrix)
    return BratteliDiagram(system=sys, u=u, levels=levels, inclusions=inclusions)


def principal_graph(d: BratteliDiagram) -> WeightedGraph:
    """First-appearance reduction of a tower diagram."""
    sys = d.system
    first: dict[IrrLabel, int] = {}
    for k, level in enumerate(d.levels):
        for lab, _ in level:
            first.setdefault(lab, k)
    vertices = sorted(first.items(), key=lambda it: (it[1], sys.sort_key(it[0])))
    edges: list[tuple[IrrLabel, IrrLabel, int]] = []
    for k, matrix in enumerate(d.inclusions):
        prev, nxt = d.levels[k], d.levels[k + 1]
        for i, (a, _) in enumerate(prev):
            if first[a] != k:
                continue
            for j, (c, _) in enumerate(nxt):
                if first[c] != k + 1:
                    continue
                if matrix[i][j]:
                    edges.append((a, c, matrix[i][j]))
    return WeightedGraph(system=sys, vertices=vertices, edges=edges)


def attach_qdim_weights(g: WeightedGraph, lists, values=None, digits: int = 6) -> WeightedGraph:
    """Annotate vertices with quantum dimensions computed from parameter lists.

    ``lists`` maps labels to ParamList (as produced by the parameter
    derivation); vertices without a list are left unweighted.
    """
    from .params import qdim

    for lab, _ in g.vertices:
        if lab in lists:
            g.weights[lab] = round(qdim(lists[lab], values), digits)
    return g


def export_dot(g: WeightedGraph, name: str = "principal") -> str:
    """Graphviz text for the (undirected) principal graph."""
    sys = g.system
    lines = [f"graph {name} {{"]
    for lab, level in g.vertices:
        text = sys.format_label(lab)
        weight = g.weights.get(lab)
        label_txt = text if weight is None else f"{text}\\n[{weight}]"
        lines.append(f'  "{text}" [label="{label_txt}", level={level}];')
    for a, b, m in g.edges:
        ta, tb = sys.format_label(a), sys.format_label(b)
        extra = f' [label="{m}"]' if m != 1 else ""
        lines.append(f'  "{ta}" -- "{tb}"{extra};')
    lines.append("}")
    return "\n".join(lines) + "\n"
