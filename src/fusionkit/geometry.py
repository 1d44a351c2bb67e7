"""The generator metric on irreducibles: distances, balls, growth.

A generator is a self-conjugate element containing the unit.  The distance
between irreducibles ``a`` and ``b`` is the least ``n`` with ``b``
contained in ``v^(x)n (x) a``: the graph distance on the graph whose edges
join ``c`` to the support of ``v (x) c``.  Since ``v`` is self-conjugate
that adjacency is symmetric.

Where a family proves the metric of a generator in closed form
(``FusionSystem.generator_distance`` and ``sphere_sizes``; the group duals
do when its keys are the unit and the letters ``g_f^(+-d_f)`` of the
subgroup its support generates, whatever the weights), ``distance`` and
``growth_table`` take it and call no rule.  Otherwise every answer reads
one breadth-first walk, ``_spheres``: balls and growth tables take its
first spheres, and distance queries walk from both ends and meet in the
middle, which matters for families with exponential growth.  Balls and
spheres list their elements, so they always walk, and store supports only.

Whether the coefficients of ``v`` generate the whole object is not
decidable at this level; searches carry an explicit budget and failure to
reach a target reports budget exhaustion instead of guessing.  A search
expands each node once, so it forms each pair ``(g, c)`` of a generator
label and a node once: it goes straight to the family rule and keeps no
adjacency lists, since neither they nor the pair memo would be read
again.  On free products of cyclic groups that rule is one walk inward
from the seam of two reduced words (``GroupDualSystem.mul_words``), so
expanding a node costs the cancellation length per generator, not a
re-reduction of the whole word.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, chain, islice, repeat
from typing import Iterator

from .core import (
    BudgetExceededError,
    FusionElement,
    FusionError,
    FusionSystem,
    IrrLabel,
)
from .families import format_element


def validate_generator(sys: FusionSystem, v: FusionElement) -> FusionElement:
    """Check ``1 in v`` and ``v = conj(v)``; return ``v`` unchanged."""
    sys.check_element(v)
    if v.mult(sys.unit) < 1:
        raise FusionError("generator must contain the unit class")
    if sys.conj_element(v) != v:
        raise FusionError("generator must be self-conjugate")
    return v


def _check_budget(budget: int) -> None:
    if budget < 0:
        raise FusionError(f"budget must be >= 0, got {budget}")


def _neighbor_fn(sys: FusionSystem, v: FusionElement):
    vs = v.support()

    def neighbors(c: IrrLabel) -> set[IrrLabel]:
        acc: set[IrrLabel] = set()
        for g in vs:
            acc.update(sys._tensor_irr(g, c)._terms)
        return acc

    return neighbors


def distance(sys: FusionSystem, v: FusionElement, a: IrrLabel, b: IrrLabel,
             budget: int = 64) -> int:
    """The generator metric ``d_v(a, b)``: the family's closed form, else bidirectional BFS.

    Raises BudgetExceededError if ``b`` is not reached within ``budget``
    steps (the generator may not generate, or the budget is too small).
    """
    _check_budget(budget)
    validate_generator(sys, v)
    sys.check_label(a)
    sys.check_label(b)
    if a == b:
        return 0
    d = sys.generator_distance(v, a, b)
    if d is None:
        d = _bfs_distance(sys, v, a, b, budget)
    if d is None or d > budget:
        raise BudgetExceededError(
            f"not reached within budget {budget}: "
            f"d({sys.format_label(a)}, {sys.format_label(b)})")
    return d


def _spheres(sys: FusionSystem, v: FusionElement,
             center: IrrLabel) -> Iterator[list[IrrLabel]]:
    """Yield the spheres of radius 0, 1, 2, ... around ``center``, each label
    once, and stop after the last non-empty one.  A sphere is formed only
    when it is asked for, so a reader that stops at radius ``r`` expands
    the spheres below ``r`` and no more.
    """
    neighbors = _neighbor_fn(sys, v)
    seen = {center}
    layer = [center]
    while layer:
        yield layer
        nxt: list[IrrLabel] = []
        for c in layer:
            for nb in neighbors(c):
                if nb not in seen:
                    seen.add(nb)
                    nxt.append(nb)
        layer = nxt


def _bfs_distance(sys: FusionSystem, v: FusionElement, a: IrrLabel, b: IrrLabel,
                  budget: int) -> int | None:
    """Bidirectional BFS from ``a != b``; None if the balls do not meet within ``budget`` steps.

    Each step grows the side with the smaller last sphere (ties go to
    ``a``).  Adjacency is symmetric, so a walk that ends has covered a
    component that the other walk cannot enter.
    """
    walks = (_spheres(sys, v, a), _spheres(sys, v, b))
    balls = (set(next(walks[0])), set(next(walks[1])))
    sizes = [1, 1]
    for steps in range(1, budget + 1):
        i = int(sizes[1] < sizes[0])
        layer = next(walks[i], None)
        if layer is None:
            return None
        if not balls[1 - i].isdisjoint(layer):
            return steps
        balls[i].update(layer)
        sizes[i] = len(layer)
    return None


def _check_ball(sys: FusionSystem, v: FusionElement, center: IrrLabel, r: int) -> None:
    validate_generator(sys, v)
    sys.check_label(center)
    if r < 0:
        raise FusionError(f"radius must be >= 0, got {r}")


def ball(sys: FusionSystem, v: FusionElement, center: IrrLabel, r: int,
         ) -> frozenset[IrrLabel]:
    """All irreducibles at distance <= r from the center."""
    _check_ball(sys, v, center, r)
    return frozenset(chain.from_iterable(islice(_spheres(sys, v, center), r + 1)))


def sphere(sys: FusionSystem, v: FusionElement, center: IrrLabel, r: int,
           ) -> frozenset[IrrLabel]:
    """All irreducibles at distance exactly r from the center."""
    _check_ball(sys, v, center, r)
    return frozenset(next(islice(_spheres(sys, v, center), r, None), ()))


def growth_table(sys: FusionSystem, v: FusionElement, center: IrrLabel,
                 rmax: int) -> list[tuple[int, int]]:
    """Rows ``(radius, ball size)`` for radius = 0..rmax.

    The sphere sizes are the family's closed form (``sphere_sizes``)
    where it declares one, else counted by BFS from the center.
    """
    _check_ball(sys, v, center, rmax)
    sizes = sys.sphere_sizes(v, rmax)
    if sizes is None:
        sizes = [len(layer) for layer in islice(_spheres(sys, v, center), rmax + 1)]
        sizes += [0] * (rmax + 1 - len(sizes))
    return list(enumerate(accumulate(sizes)))


@dataclass(slots=True)
class QuasiIsometryReport:
    """Result of checking ``d_v <= K * d_{v+w}`` on sampled pairs."""

    K: int
    holds: bool
    pairs_checked: int
    max_ratio: float
    failures: list[tuple[IrrLabel, IrrLabel, int, int]] = field(default_factory=list)


def containment_index(sys: FusionSystem, v: FusionElement, w: FusionElement,
                      budget: int = 64) -> int:
    """Least n with ``w`` contained in ``v^(x)n`` (all multiplicities dominated)."""
    _check_budget(budget)
    sys.check_element(w)
    for n, acc in enumerate(sys.products(repeat(v, budget))):
        if acc.contains(w):
            return n
    raise BudgetExceededError(
        f"not reached within budget {budget}: containment of {format_element(sys, w)}")


def quasi_isometry_check(sys: FusionSystem, v: FusionElement, w: FusionElement,
                         pairs, budget: int = 64) -> QuasiIsometryReport:
    """Verify the comparison constant between the v- and (v+w)-metrics.

    ``K = 1 + n_w`` where ``n_w`` is the containment index of ``w`` in
    powers of ``v``; the inequality ``d_v(a,b) <= K * d_{v+w}(a,b)`` is
    checked on every sampled pair and the largest observed ratio reported.
    """
    validate_generator(sys, v)
    validate_generator(sys, w)
    K = 1 + containment_index(sys, v, w, budget)
    vw = v + w
    holds = True
    max_ratio = 0.0
    checked = 0
    failures: list[tuple[IrrLabel, IrrLabel, int, int]] = []
    for a, b in pairs:
        dv = distance(sys, v, a, b, budget)
        dvw = distance(sys, vw, a, b, budget)
        checked += 1
        if a != b:
            max_ratio = max(max_ratio, dv / dvw)
        if dv > K * dvw:
            holds = False
            failures.append((a, b, dv, dvw))
    return QuasiIsometryReport(K=K, holds=holds, pairs_checked=checked,
                               max_ratio=max_ratio, failures=failures)
