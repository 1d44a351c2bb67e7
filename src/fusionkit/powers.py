"""Set calculus on irreducibles: products, involution, paradoxicality witnesses.

The product of two subsets collects every irreducible appearing in some
``a (x) b``.  For group duals this is the pointwise set product of the
group, and infinite subsets are represented exactly as unions of
*cylinders* of the normal-form prefix tree (all reduced words extending a
stated prefix), plus finitely many included words, minus finitely many
excluded ones.  That representation is closed under union, intersection
and complement, so witness conditions of the form ``F o D /\\ D = empty``
and ``r_i o E /\\ r_j o E = empty`` are decided exactly, each by ``meets``
without forming the intersection; a product unions its translates in one
canonical step.  Witnesses on a group dual are always checked this way, so
on an infinite group dual a finite partition D | E fails coverage.  The
dual of a finite ``Z/m`` is finite, so there every cylinder is listed as
its words.  Families without a word tree have only explicit finite sets
(``FiniteIrrSet``); their witnesses are checked within a stated radius only.

The tree walks treat every factor by one rule: a syllable's exponent
lies on a ray, which in ``Z`` runs ``1, 2, ...`` or ``-1, -2, ...`` and in
``Z/m`` holds one exponent of ``1..m-1``.  Every coverage question ("does
some cylinder lie on the tree path to ``w``?") is answered by one index
per set, built when the set is made: a trie of cylinder stems whose nodes
file each last syllable by factor and ray (the sign of a ``Z`` exponent,
the exact ``Z/m`` exponent), keeping the least ``|exponent|``.  A
coverage test walks ``w`` down the trie instead of scanning the cylinders.

Both translations end in one step: the image gets its cylinders, and
finitely many candidate words are each decided by whether their preimage
is a member.  Every product of two reduced words here (images,
preimages, candidates, cascade prefixes) is ``GroupDualSystem.mul_words``,
which cancels only at the seam where the words meet.  Left translation
of a cylinder walks the ray of its last syllable while the multiplier's
tail merges into it, until the merge keeps the ray's sign: a ``Z/m`` ray
ends there at once.  Right translation keeps the cylinders, since
``S.x = {u : u x^-1 in S}`` and ``x`` moves only the last ``|x|`` letters.
A product of two infinite cylinder sets is everything for nonelementary
free products (both factors can be steered to hit any target); for the
single integer factor only the rays are multiplied and each listed point
translates the other set; the order-2 * order-2 case is refused rather
than approximated.

The module is a witness checker and bounded searcher, not a decision
procedure for the paradoxicality property itself: a failed bounded search
proves nothing, and reports say so.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable

from .core import FamilyMismatchError, FusionError, FusionSystem, IrrLabel
from .families import GroupDualSystem, Word


class UnsupportedSetOperation(FusionError):
    """The requested set operation has no exact finite representation here."""


# ---------------------------------------------------------------------------
# the two set representations
# ---------------------------------------------------------------------------

def _same(A, B) -> None:
    if type(B) is not type(A) or B.system is not A.system:
        raise FamilyMismatchError(f"set operands disagree: {A!r} vs {B!r}")


@dataclass(frozen=True, slots=True)
class FiniteIrrSet:
    """An explicit finite set of irreducibles of a family without a word
    tree; a group dual's finite sets are ``WordSet.finite``."""

    system: FusionSystem
    labels: frozenset[IrrLabel]

    def __post_init__(self) -> None:
        if isinstance(self.system, GroupDualSystem):
            raise FusionError("finite sets of a group dual are WordSets; use WordSet.finite")

    def member(self, a: IrrLabel) -> bool:
        return a in self.labels

    def is_empty(self) -> bool:
        return not self.labels

    def union(self, other: "FiniteIrrSet") -> "FiniteIrrSet":
        _same(self, other)
        return FiniteIrrSet(self.system, self.labels | other.labels)

    def intersect(self, other: "FiniteIrrSet") -> "FiniteIrrSet":
        _same(self, other)
        return FiniteIrrSet(self.system, self.labels & other.labels)

    def meets(self, other: "FiniteIrrSet") -> bool:
        _same(self, other)
        return not self.labels.isdisjoint(other.labels)


class _HeadIndex:
    """The cylinders of a set, keyed by their last syllable.

    A nonempty prefix ``p`` is filed in a trie of stems: the node reached
    by the syllables of ``p[:-1]`` maps ``(factor, ray)`` of ``p``'s last
    syllable, where ``ray`` is the exponent's sign for a ``Z`` factor and
    the exponent itself for a ``Z/m`` factor, to the least ``|exponent|``
    filed there.  The tree path to ``w`` passes ``p`` exactly when, at the
    syllable ``i = len(p) - 1``, ``w`` has the same stem, factor and ray
    and at least that ``|exponent|``, so coverage walks ``w`` down the trie
    at two lookups per syllable.  The empty prefix covers everything and
    is a flag.
    """

    __slots__ = ("factors", "everything", "root")

    def __init__(self, factors: tuple[int | None, ...]):
        self.factors = factors
        self.everything = False
        self.root: tuple[dict, dict] = ({}, {})  # (least by head, child by syllable)

    def add(self, p: Word) -> None:
        if not p:
            self.everything = True
            return
        node = self.root
        for syl in p[:-1]:
            if syl not in node[1]:
                node[1][syl] = ({}, {})
            node = node[1][syl]
        f, e = p[-1]
        key = f, (e > 0) if self.factors[f] is None else e
        least = node[0].get(key)
        if least is None or abs(e) < least:
            node[0][key] = abs(e)

    def covers(self, w: Word) -> bool:
        """Whether some filed cylinder lies on the tree path to ``w``."""
        if self.everything:
            return True
        factors = self.factors
        node = self.root
        for f, e in w:
            bound = node[0].get((f, (e > 0) if factors[f] is None else e))
            if bound is not None and bound <= abs(e):
                return True
            node = node[1].get((f, e))
            if node is None:
                return False
        return False


class WordSet:
    """Finitely described subset of a group dual's irreducibles.

    Membership: ``(covered by a cylinder and not excluded) or included``.
    The canonical form keeps cylinder prefixes an antichain, includes
    outside the coverage, excludes inside it.  The cylinders are indexed
    once, by their last syllable (``_HeadIndex``), so deciding whether a
    word ``w`` is covered takes ``len(w)`` lookups whatever the number of
    cylinders.
    """

    __slots__ = ("system", "cylinders", "includes", "excludes", "_heads")

    def __init__(self, system: GroupDualSystem, cylinders: frozenset[Word],
                 includes: frozenset[Word], excludes: frozenset[Word],
                 heads: _HeadIndex):
        self.system = system
        self.cylinders = cylinders
        self.includes = includes
        self.excludes = excludes
        self._heads = heads

    # construction ---------------------------------------------------------

    @classmethod
    def make(cls, sys: GroupDualSystem, cylinders: Iterable[Word] = (),
             includes: Iterable[Word] = (), excludes: Iterable[Word] = ()) -> "WordSet":
        if len(sys.factors) == 1 and sys.factors[0] is not None:
            # Z/m is finite: a cylinder is its words, so no set keeps one
            todo, inside, excludes = list(cylinders), set(), set(excludes)
            while todo:
                w = todo.pop()
                inside.add(w)
                todo += sys.children(w)
            cylinders, includes = (), set(includes) | (inside - excludes)
        # in word_key order a cylinder comes after every prefix it extends
        heads = _HeadIndex(sys.factors)
        cyls: list[Word] = []
        for p in sorted(set(cylinders), key=sys.word_key):
            if not heads.covers(p):
                heads.add(p)
                cyls.append(p)
        includes = set(includes)
        inc = frozenset(w for w in includes if not heads.covers(w))
        exc = frozenset(w for w in set(excludes) if w not in includes and heads.covers(w))
        return cls(sys, frozenset(cyls), inc, exc, heads)

    @classmethod
    def full(cls, sys: GroupDualSystem) -> "WordSet":
        return cls.make(sys, cylinders=[()])

    @classmethod
    def finite(cls, sys: GroupDualSystem, labels: Iterable[IrrLabel]) -> "WordSet":
        words = []
        for lab in labels:
            sys.check_label(lab)
            words.append(lab.payload)
        return cls.make(sys, includes=words)

    # membership -----------------------------------------------------------

    def member_word(self, w: Word) -> bool:
        if w in self.includes:
            return True
        return self._heads.covers(w) and w not in self.excludes

    def member(self, a: IrrLabel) -> bool:
        self.system.check_label(a)
        return self.member_word(a.payload)

    def is_empty(self) -> bool:
        return not self.cylinders and not self.includes

    def is_finite(self) -> bool:
        return not self.cylinders

    # boolean algebra --------------------------------------------------------

    def union(self, *others: "WordSet") -> "WordSet":
        """This set and ``others``, canonicalized once."""
        sets = (self, *others)
        for S in others:
            _same(self, S)
        exc = {w for S in sets for w in S.excludes if not any(T.member_word(w) for T in sets)}
        return WordSet.make(self.system, frozenset().union(*(S.cylinders for S in sets)),
                            frozenset().union(*(S.includes for S in sets)), exc)

    def intersect(self, other: "WordSet") -> "WordSet":
        _same(self, other)
        sys = self.system
        # the deeper of two nested cylinders is their intersection
        cyls = ({p for p in self.cylinders if other._heads.covers(p)}
                | {q for q in other.cylinders if self._heads.covers(q)})
        inc = ({w for w in self.includes if other.member_word(w)}
               | {w for w in other.includes if self.member_word(w)})
        exc = self.excludes | other.excludes
        return WordSet.make(sys, cyls, inc, exc)

    def meets(self, other: "WordSet") -> bool:
        """``not self.intersect(other).is_empty()`` by ``intersect``'s own tests,
        stopped at the first hit.  Excludes never empty a cylinder of an
        infinite tree, and ``make`` lists those of a finite ``Z/m`` as words."""
        _same(self, other)
        return (any(other._heads.covers(p) for p in self.cylinders)
                or any(self._heads.covers(q) for q in other.cylinders)
                or any(other.member_word(w) for w in self.includes)
                or any(self.member_word(w) for w in other.includes))

    def complement(self) -> "WordSet":
        sys = self.system
        cyls_out: list[Word] = []
        words_out: list[Word] = []
        # an uncovered node on the path to a cylinder has some cylinder below it
        paths = {p for q in self.cylinders for p in sys.tree_path(q)}
        todo: list[Word] = [()]
        while todo:
            node = todo.pop()
            if self._heads.covers(node):
                continue  # inside the coverage
            if node not in paths:
                cyls_out.append(node)  # whole subtree misses the coverage
                continue
            words_out.append(node)
            todo += sys.children(node)
        inc = (set(words_out) | set(self.excludes)) - set(self.includes)
        return WordSet.make(sys, cyls_out, inc, self.includes)

    def minus(self, other: "WordSet") -> "WordSet":
        return self.intersect(other.complement())

    def is_subset(self, other: "WordSet") -> bool:
        return not self.meets(other.complement())

    def __eq__(self, other) -> bool:
        if isinstance(other, WordSet):
            return self.is_subset(other) and other.is_subset(self)
        return NotImplemented

    __hash__ = None

    def __repr__(self) -> str:
        sys = self.system

        def fmt(w: Word) -> str:
            return sys.format_label(sys.word(w))

        bits = [f"Cyl({fmt(p)})"
                for p in sorted(self.cylinders, key=sys.word_key)]
        bits += [fmt(w) for w in sorted(self.includes, key=sys.word_key)]
        body = " | ".join(bits) if bits else "{}"
        if self.excludes:
            body += " \\ {" + ", ".join(
                fmt(w) for w in sorted(self.excludes, key=sys.word_key)) + "}"
        return f"WordSet({body})"


@dataclass(frozen=True, slots=True)
class ConjugatedSet:
    """Lazy elementwise conjugate of an infinite word set.

    Prefix cylinders conjugate to suffix-described sets, which fall outside
    the cylinder representation; membership stays exact through this
    wrapper, but products with it are unsupported.
    """

    base: WordSet

    def member(self, a: IrrLabel) -> bool:
        sys = self.base.system
        return self.base.member(sys.conj_irr(a))

    def is_empty(self) -> bool:
        return self.base.is_empty()


# ---------------------------------------------------------------------------
# translations
# ---------------------------------------------------------------------------

def _left_mul_cyl(sys: GroupDualSystem, x: Word, q: Word, cyls: set[Word],
                  words: set[Word], todo: list[Word]) -> None:
    """Add ``x . Cyl(q)`` to ``cyls`` (prefixes) and ``words``; children of
    ``q`` whose cancellation cascades further into ``x`` go on ``todo``.
    One walk along the ray of ``q``'s last syllable from its exponent
    (that exponent alone in ``Z/m``) stops where the merge is nonzero and
    keeps the ray's sign."""
    if not q:
        cyls.add(())  # translation permutes the whole tree
        return
    r1 = sys.mul_words(x, q[:-1])
    f, e = q[-1]
    if not r1 or r1[-1][0] != f:
        cyls.add(r1 + ((f, e),))
        return
    r2, a = r1[:-1], r1[-1][1]
    ray = (e,) if sys.factors[f] else itertools.count(e, 1 if e > 0 else -1)
    for ej in ray:
        merged = sys._norm_exp(f, a + ej)
        if merged and (merged > 0) == (e > 0):
            cyls.add(r2 + ((f, merged),))
            return
        head = r2 + ((f, merged),) if merged else r2
        words.add(head)
        for c in sys.children(q[:-1] + ((f, ej),)):
            if c[-1][0] == f:
                continue  # the ray's next node; the walk reaches it as the next ej
            if not merged and r2 and r2[-1][0] == c[-1][0]:
                todo.append(c)  # cancellation cascades into x
            else:
                cyls.add(head + (c[-1],))


def _translated(sys: GroupDualSystem, S: WordSet, cyls: Iterable[Word],
                cands: Iterable[Word], image, preimage) -> WordSet:
    """The translate of ``S`` that agrees with ``cyls`` off ``cands`` and the
    images of ``S``'s listed words; those are decided by their preimages."""
    cands = set(cands)
    cands.update(image(w) for w in S.includes | S.excludes)
    inc = {u for u in cands if S.member_word(preimage(u))}
    return WordSet.make(sys, cyls, inc, cands - inc)


def _left_translate(sys: GroupDualSystem, x: Word, S: WordSet) -> WordSet:
    cyls: set[Word] = set()
    words: set[Word] = set()
    todo = list(S.cylinders)
    while todo:
        _left_mul_cyl(sys, x, todo.pop(), cyls, words, todo)
    x_inv = sys.inverse_word(x)
    return _translated(sys, S, cyls, words, lambda w: sys.mul_words(x, w),
                       lambda u: sys.mul_words(x_inv, u))


def _right_translate(sys: GroupDualSystem, S: WordSet, x: Word) -> WordSet:
    """``S.x = {u : u x^-1 in S}``: ``S``'s cylinders, and candidate words.

    Where ``u`` and ``v = u x^-1`` disagree on ``Cyl(q)``, ``u = z a`` for
    a tail ``a`` of ``x`` and ``z`` on the path to ``q``: ``q`` itself when
    ``u`` lies under ``q``, else where ``v`` leaves ``u``'s path (one step
    towards ``v`` if ``v x`` merges a ``Z/m`` syllable).
    """
    tails = [sys.mul_words(sys.inverse_word(p), x) for p in sys.tree_path(x)]
    paths = {p for q in S.cylinders for p in sys.tree_path(q)}
    cands = {sys.mul_words(z, a) for z in paths for a in tails}
    x_inv = sys.inverse_word(x)
    return _translated(sys, S, S.cylinders, cands, lambda w: sys.mul_words(w, x),
                       lambda u: sys.mul_words(u, x_inv))


def _is_nonelementary(sys: GroupDualSystem) -> bool:
    if len(sys.factors) < 2:
        return False
    return not (len(sys.factors) == 2 and sys.factors[0] == 2 and sys.factors[1] == 2)


def _z_rays_product(sys: GroupDualSystem, S: WordSet, T: WordSet) -> WordSet:
    """In the dual of Z, the product of the rays ``{g^(s*k) : k >= a}`` of
    two sets, less their excludes."""
    if () in S.cylinders or () in T.cylinders:
        return WordSet.full(sys)  # the whole line times an infinite set

    def rays(W: WordSet):
        return ([(1 if p[0][1] > 0 else -1, abs(p[0][1])) for p in W.cylinders],
                {w[0][1] if w else 0 for w in W.excludes})

    def word_at(k: int) -> Word:
        return () if k == 0 else ((0, k),)

    rays_s, exc_s = rays(S)
    rays_t, exc_t = rays(T)
    out_values: set[int] = set()
    out_rays: set[tuple[int, int]] = set()  # (sign, first magnitude fully reached)
    for (s1, a1), (s2, a2) in itertools.product(rays_s, rays_t):
        if s1 != s2:
            # opposite rays: every integer has infinitely many decompositions
            return WordSet.full(sys)
        margin = a1 + a2 + len(exc_s) + len(exc_t) + 1
        out_rays.add((s1, margin))
        for k in range(a1 + a2, margin):
            if any(s1 * i not in exc_s and s1 * (k - i) not in exc_t
                   for i in range(a1, k - a2 + 1)):
                out_values.add(s1 * k)
    return WordSet.make(sys, [word_at(s * a) for s, a in out_rays],
                        [word_at(v) for v in out_values])


def set_product(sys: FusionSystem, S, T):
    """``S o T``: all irreducibles contained in some ``a (x) b``."""
    if isinstance(S, ConjugatedSet) or isinstance(T, ConjugatedSet):
        raise UnsupportedSetOperation("products with conjugated cylinder sets "
                                      "are not representable; normalize first")
    S, T = _as_set(sys, S), _as_set(sys, T)
    if not isinstance(sys, GroupDualSystem):
        out: set[IrrLabel] = set()
        for a in S.labels:
            for b in T.labels:
                out.update(sys.tensor_pair(a, b).support())
        return FiniteIrrSet(sys, frozenset(out))
    if S.is_finite():
        parts = [_left_translate(sys, w, T) for w in S.includes]
    elif T.is_finite():
        parts = [_right_translate(sys, S, w) for w in T.includes]
    elif _is_nonelementary(sys):
        # two infinite cylinder sets steer onto any target word
        return WordSet.full(sys)
    elif len(sys.factors) == 1 and sys.factors[0] is None:
        # rays times rays, then the points of each side translate the other
        parts = [_z_rays_product(sys, S, T)]
        parts += [_right_translate(sys, S, w) for w in T.includes]
        parts += [_left_translate(sys, w, T) for w in S.includes]
    else:
        raise UnsupportedSetOperation(
            "products of two infinite cylinder sets are unsupported for this group")
    return parts[0] if len(parts) == 1 else WordSet.make(sys).union(*parts)


def _finite_set(sys: FusionSystem, labels: Iterable[IrrLabel]):
    """The finite set of ``labels`` in the set type of ``sys``'s family."""
    if isinstance(sys, GroupDualSystem):
        return WordSet.finite(sys, labels)
    return FiniteIrrSet(sys, frozenset(labels))


def _as_set(sys: FusionSystem, S):
    """``S`` in the set type of ``sys``'s family; a label list is a finite set."""
    if isinstance(S, (list, tuple, set, frozenset)):
        return _finite_set(sys, S)
    if not isinstance(S, (WordSet, FiniteIrrSet)):
        raise FusionError(f"not an irreducible set: {S!r}")
    if S.system is not sys:
        raise FamilyMismatchError("set belongs to a different system")
    return S


def set_conj(sys: FusionSystem, S):
    """Elementwise conjugate of a set of irreducibles."""
    if isinstance(S, FiniteIrrSet):
        return FiniteIrrSet(sys, frozenset(sys.conj_irr(a) for a in S.labels))
    if isinstance(S, ConjugatedSet):
        return S.base
    if isinstance(S, WordSet):
        if S.is_finite():
            return WordSet.make(sys, includes=[sys.inverse_word(w) for w in S.includes])
        return ConjugatedSet(S)
    raise FusionError(f"not an irreducible set: {S!r}")


# ---------------------------------------------------------------------------
# witnesses
# ---------------------------------------------------------------------------

@dataclass(slots=True)
class PowersWitness:
    """A finite F avoiding the unit, a partition D | E of the irreducibles,
    and three irreducibles whose E-translates should be pairwise disjoint."""

    F: list[IrrLabel]
    D: object
    E: object
    r1: IrrLabel
    r2: IrrLabel
    r3: IrrLabel
    truncation_radius: int | None = None

    def r_labels(self) -> tuple[IrrLabel, IrrLabel, IrrLabel]:
        return (self.r1, self.r2, self.r3)


@dataclass(slots=True)
class WitnessCheck:
    holds: bool
    exact: bool
    detail: str = ""


def _meeting_pair(sets: list) -> tuple[int, int] | None:
    """The first pair ``i < j``, in ``(0, 1), (0, 2), ..., (1, 2), ...``
    order, whose sets meet; ``None`` when they are pairwise disjoint."""
    for (i, A), (j, B) in itertools.combinations(enumerate(sets), 2):
        if A.meets(B):
            return i, j
    return None


def check_witness(sys: FusionSystem, w: PowersWitness) -> WitnessCheck:
    """Evaluate both witness conditions; exact on group duals only.

    On a group dual, D and E are ``WordSet``s (a list is read as a finite
    one) and every condition is decided exactly, so on an infinite group
    dual a finite D | E fails coverage.  Families without a word tree have
    only finite sets, which can partition no more than the ball of radius
    ``truncation_radius``; those checks run the same product conditions
    there and are flagged ``exact=False``.  A radius given on a group dual goes unused, and every
    detail says so.
    """
    for lab in w.F:
        sys.check_label(lab)
        if lab == sys.unit:
            raise FusionError("F must avoid the unit class")
    details: list[str] = []
    exact = isinstance(sys, GroupDualSystem)
    if not exact and w.truncation_radius is None:
        raise FusionError("finite witnesses need a truncation_radius")
    unused = ("" if not exact or w.truncation_radius is None
              else f"; truncation_radius {w.truncation_radius} unused: the check is exact")

    def verdict(holds: bool, detail: str) -> WitnessCheck:
        return WitnessCheck(holds, exact, detail + unused)

    D, E = _as_set(sys, w.D), _as_set(sys, w.E)
    if D.meets(E):
        return verdict(False, "D and E overlap")
    if exact:
        if not D.union(E).complement().is_empty():
            return verdict(False, "D and E do not cover all irreducibles")
    else:
        from .geometry import ball
        fund = sys.fundamental()
        gen = sys.unit_element() + fund + sys.conj_element(fund)
        universe = ball(sys, gen, sys.unit, w.truncation_radius)
        missing = universe - D.union(E).labels
        if missing:
            return verdict(False, f"{len(missing)} irreducibles within radius "
                                  f"{w.truncation_radius} uncovered")
        details.append(f"partition verified within radius {w.truncation_radius} only")
    for lab in w.F:
        if set_product(sys, _finite_set(sys, [lab]), D).meets(D):
            return verdict(False, "F o D meets D")
    if not w.F:
        details.append("F empty: first condition vacuous")
    meet = _meeting_pair([set_product(sys, _finite_set(sys, [r]), E) for r in w.r_labels()])
    if meet is not None:
        return verdict(False, f"r{meet[0] + 1} o E meets r{meet[1] + 1} o E")
    return verdict(True, "; ".join(details) if details else "all conditions hold")


def search_witness(sys: FusionSystem, F: Iterable[IrrLabel], budget: int = 2,
                   ) -> PowersWitness | None:
    """Bounded deterministic search over cylinder partitions and r-triples.

    Candidates: D a union of depth-1 cylinders (optionally with the unit),
    E its complement, and r-triples drawn from words of tree depth at most
    ``budget``, in lexicographic candidate order.  The first witness
    passing the exact check wins; ``None`` proves nothing beyond the
    budget.

    Cost: with ``n`` r-pool words, each candidate partition that passes
    the F condition forms each translate of E on first use, at most ``n``,
    and decides each pair of translates once by ``meets``, at most
    ``C(n, 2)`` disjointness tests, not up to ``3 C(n, 3)`` as once per triple.
    """
    if not isinstance(sys, GroupDualSystem):
        raise UnsupportedSetOperation("witness search needs a group-dual family")
    if budget < 0:
        raise FusionError(f"budget must be >= 0, got {budget}")
    F = list(F)
    for lab in F:
        sys.check_label(lab)
        if lab == sys.unit:
            raise FusionError("F must avoid the unit class")
    letters = sorted(sys.children(()), key=sys.word_key)
    r_pool, layer = [()], [()]
    for _ in range(budget):
        layer = [c for w in layer for c in sys.children(w)]
        r_pool += layer
    r_pool.sort(key=sys.word_key)
    for mask in range(1, 2 ** len(letters) - 1):
        chosen = [letters[i] for i in range(len(letters)) if mask >> i & 1]
        for unit_in_d in (False, True):
            D = WordSet.make(sys, cylinders=chosen,
                             includes=[()] if unit_in_d else [])
            if any(_left_translate(sys, lab.payload, D).meets(D) for lab in F):
                continue
            E = D.complement()
            translate = functools.cache(lambda i: _left_translate(sys, r_pool[i], E))
            meets = functools.cache(lambda i, j: translate(i).meets(translate(j)))
            for i, j, k in itertools.combinations(range(len(r_pool)), 3):
                if meets(i, j) or meets(i, k) or meets(j, k):
                    continue
                witness = PowersWitness(
                    F=F, D=D, E=E, r1=sys.word(r_pool[i]),
                    r2=sys.word(r_pool[j]), r3=sys.word(r_pool[k]))
                verdict = check_witness(sys, witness)
                if verdict.holds and verdict.exact:
                    return witness
    return None
