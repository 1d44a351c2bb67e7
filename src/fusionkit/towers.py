"""Endomorphism towers and principal graphs of a generator.

The tower of a class ``u`` is built from the alternating words
``u, u (x) u^, u (x) u^ (x) u, ...`` (``u^`` the conjugate): level ``k``
records the irreducible decomposition of the k-letter word, level 0 being
the unit.  Level ``k+1`` is ``sum_a m_a (a (x) letter)``; the product
``a (x) letter`` is the sparse inclusion row of ``a``, the one form the
inclusions take.  A label's row is formed once per letter, on its first
visit under that letter, and every level where that label meets that
letter again shares it (rows are immutable, so sharing is safe), and its
``sort_key``, which orders the levels, is computed once per tower.  The
squared multiplicities at level ``k`` sum to the endomorphism dimension of
the word.

The principal graph keeps each irreducible at its level of first
appearance and joins new vertices of consecutive levels with the
corresponding inclusion multiplicities (the new-vertex reading of deleting
reflected rows).  The raw diagram is exposed alongside the graph so the
reduction can always be audited.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import FusionElement, FusionError, FusionSystem, IrrLabel


@dataclass(slots=True)
class BratteliDiagram:
    """Levels and inclusion rows of an alternating-word tower.

    ``levels[k]`` lists ``(label, multiplicity)`` for the k-letter word in
    ``sort_key`` order (``levels[0]`` is the unit); ``inclusions[k][i]`` is
    level-``k`` vertex ``i`` times the next letter: its row into level ``k+1``.
    Each label's row is formed once per letter and the same immutable
    ``FusionElement`` is shared by every level where that label meets that
    letter.
    """

    system: FusionSystem
    u: FusionElement
    levels: list[list[tuple[IrrLabel, int]]]
    inclusions: list[list[FusionElement]]

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


def tower(sys: FusionSystem, u: FusionElement, depth: int) -> BratteliDiagram:
    """Decompose the alternating words of ``u`` up to ``depth`` letters."""
    if depth < 1:
        raise FusionError(f"depth must be >= 1, got {depth}")
    sys.check_element(u)
    ubar = sys.conj_element(u)
    levels: list[list[tuple[IrrLabel, int]]] = [[(sys.unit, 1)]]
    inclusions: list[list[FusionElement]] = []
    # each letter with its row table; one table when u is self-conjugate
    u_rows: dict[IrrLabel, FusionElement] = {}
    letters = ((u, u_rows), (ubar, u_rows if ubar == u else {}))
    keys: dict[IrrLabel, object] = {}  # each label's sort_key, computed once
    for k in range(depth):
        letter, table = letters[k % 2]
        rows = []
        for a, _ in levels[-1]:
            row = table.get(a)
            if row is None:
                row = table[a] = sys.tensor(FusionElement.from_label(a), letter)
            rows.append(row)
        word: dict[IrrLabel, int] = {}
        for (_, m), row in zip(levels[-1], rows):
            for c, mc in row._terms.items():
                word[c] = word.get(c, 0) + m * mc
        for c in word.keys() - keys.keys():
            keys[c] = sys.sort_key(c)
        levels.append([(c, word[c]) for c in sorted(word, key=keys.__getitem__)])
        inclusions.append(rows)
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
    for k, rows in enumerate(d.inclusions):
        for (a, _), row in zip(d.levels[k], rows):
            if first[a] == k:
                edges += [(a, c, m) for c, m in sys.sorted_items(row) if first[c] == k + 1]
    return WeightedGraph(system=sys, vertices=vertices, edges=edges)


def attach_qdim_weights(g: WeightedGraph, lists, values=None) -> WeightedGraph:
    """Annotate vertices with quantum dimensions computed from parameter lists.

    ``lists`` maps labels to ParamList (as produced by the parameter
    derivation); vertices without a list are left unweighted.
    """
    from .params import qdim

    for lab, _ in g.vertices:
        if lab in lists:
            g.weights[lab] = round(qdim(lists[lab], values), 6)
    return g


def export_dot(g: WeightedGraph) -> str:
    """Graphviz text for the (undirected) principal graph."""
    sys = g.system
    lines = ["graph principal {"]
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
