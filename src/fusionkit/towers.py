"""Endomorphism towers and principal graphs of a generator.

The tower of a class ``u`` is built from the alternating words
``u, u (x) u^, u (x) u^ (x) u, ...`` (``u^`` the conjugate): level ``k``
records the irreducible decomposition of the k-letter word, level 0 being
the unit.  Level ``k+1`` is ``sum_a m_a (a (x) letter)``; the product
``a (x) letter`` (``tensor_row``, a translate on group duals) is the sparse
inclusion row of ``a``, formed once per letter and shared by every level
where ``a`` meets that letter again (rows are immutable).  Each label met
gets an integer index and its ``sort_key`` once; a row keeps its
``(index, mult)`` pairs, a level is summed into an index-keyed list, and
only the touched indices are sorted.  The squared multiplicities at level
``k`` sum to the endomorphism dimension of the word.

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
    # each label met has an index into labels, keys (its sort_key) and acc,
    # its summed multiplicity; rows are positive, so a 0 slot is untouched
    labels, keys, acc, index = [sys.unit], [sys.sort_key(sys.unit)], [0], {sys.unit: 0}
    levels: list[list[tuple[IrrLabel, int]]] = [[(sys.unit, 1)]]
    inclusions: list[list[FusionElement]] = []
    # each letter with its row table, index -> (row, its (index, mult) pairs);
    # one table when u is self-conjugate
    u_rows: dict[int, tuple[FusionElement, list[tuple[int, int]]]] = {}
    letters = ((u, u_rows), (ubar, u_rows if ubar == u else {}))
    level = [(0, 1)]  # the last level as (index, mult)
    for k in range(depth):
        letter, table = letters[k % 2]
        rows, touched = [], []
        for i, m in level:
            if (entry := table.get(i)) is None:
                row = sys.tensor_row(labels[i], letter)
                for c in [c for c in row._terms if c not in index]:
                    index[c] = len(labels)
                    labels.append(c)
                    keys.append(sys.sort_key(c))
                    acc.append(0)
                entry = table[i] = (row, [(index[c], mc) for c, mc in row._terms.items()])
            rows.append(entry[0])
            for j, mc in entry[1]:
                if not acc[j]:
                    touched.append(j)
                acc[j] += m * mc
        touched.sort(key=keys.__getitem__)
        level = [(j, acc[j]) for j in touched]
        for j in touched:
            acc[j] = 0
        levels.append([(labels[j], m) for j, m in level])
        inclusions.append(rows)
    return BratteliDiagram(system=sys, u=u, levels=levels, inclusions=inclusions)


def principal_graph(d: BratteliDiagram) -> WeightedGraph:
    """First-appearance reduction of a tower diagram."""
    sys = d.system
    first: dict[IrrLabel, int] = {}  # levels are sorted: in (level, sort_key) order
    for k, level in enumerate(d.levels):
        for lab, _ in level:
            first.setdefault(lab, k)
    edges: list[tuple[IrrLabel, IrrLabel, int]] = []
    for k, rows in enumerate(d.inclusions):
        for (a, _), row in zip(d.levels[k], rows):
            if first[a] == k:
                edges += [(a, c, m) for c, m in sys.sorted_items(row) if first[c] == k + 1]
    return WeightedGraph(system=sys, vertices=list(first.items()), edges=edges)


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
