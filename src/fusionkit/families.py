"""Concrete fusion systems.

Four families are provided:

* duals of discrete groups (free products of ``Z`` and ``Z/m`` factors, or
  ``Z^d``): fusion is the group product, stated once in ``GroupDualBase``;
* interval-rule families (``IntervalSystem``, parameterised by label
  prefix, first index, step, dimension recursion and fundamental):
  ``AoSystem`` (free orthogonal type) has integer labels ``r_k`` with the
  step-2 interval rule of the 2x2 unitary group, ``AutSystem`` (quantum
  automorphism type) has labels ``s_k`` with the step-1 interval rule of
  the rotation group in 3 dimensions;
* ``AuSystem`` (free unitary type): labels are words over ``{a, b}`` with
  the free cancellation rule, where ``bar`` reverses a word and swaps the
  two letters.

Label wire formats: ``r<k>`` (k >= 1), ``s<k>`` (k >= 0), plain ``a/b``
words with ``e`` for the empty word, and ``g1 g2^-1``-style reduced group
words.
"""

from __future__ import annotations

import re
from abc import abstractmethod
from math import gcd, inf
from operator import add
from typing import Iterable, Sequence

from .core import (
    FusionElement,
    FusionError,
    FusionSystem,
    InvalidLabelError,
    IrrLabel,
    _poly_mul,
    _series_div,
)

Letter = tuple[int, int]          # (factor index, exponent)
Word = tuple[Letter, ...]


# ---------------------------------------------------------------------------
# group duals
# ---------------------------------------------------------------------------

_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")
_SYLLABLE_RE = re.compile(r"^([A-Za-z][A-Za-z0-9_]*)(?:\^(-?\d+))?$")
_EMPTY_LABEL = "empty label; the unit is spelled e"


class GroupDualBase(FusionSystem):
    """The dual of a discrete group: the irreducibles are its elements, of
    dimension 1, ``(x)`` is the group product and conjugation the inverse.

    The base states that law once, from the payload product ``_mul`` and
    inverse ``_inv``.  Subclasses supply those, the payload's syllables and
    ``factors``, one per generator: ``None`` for ``Z``, ``m`` for ``Z/m``.
    """

    def __init__(self, desc: str, count: int, names: Sequence[str] | None):
        if names is None:
            names = tuple(f"g{i + 1}" for i in range(count))
        else:
            names = tuple(names)
            if len(names) != count:
                raise FusionError(f"{count} generator names required, got {len(names)}")
            for nm in names:
                if not isinstance(nm, str) or not _NAME_RE.match(nm) or nm == "e":
                    raise FusionError(f"bad generator name {nm!r}")
            if len(set(names)) != len(names):
                raise FusionError("generator names must be distinct")
        super().__init__(f"group_dual({desc};{','.join(names)})")
        self.names = names
        self._index = {nm: i for i, nm in enumerate(names)}

    @abstractmethod
    def _mul(self, u, v):
        """The payload of the product of two group elements."""

    @abstractmethod
    def _inv(self, u):
        """The payload of the inverse of a group element."""

    @abstractmethod
    def _syllables(self, payload) -> Iterable[Letter]:
        """The payload as ``(generator index, nonzero exponent)`` pairs."""

    @abstractmethod
    def _from_syllables(self, letters: Iterable[Letter]) -> IrrLabel:
        """The label of the product of ``(generator index, exponent)`` pairs."""

    def _tensor_irr(self, a: IrrLabel, b: IrrLabel) -> FusionElement:
        return FusionElement._adopt({IrrLabel(self.family_id, self._mul(a.payload, b.payload)): 1})

    def conj_irr(self, a: IrrLabel) -> IrrLabel:
        return IrrLabel(self.family_id, self._inv(a.payload))

    def generators(self) -> list[IrrLabel]:
        return [self._from_syllables([(i, 1)]) for i in range(len(self.names))]

    def _letters(self, steps: dict[int, int]) -> list[IrrLabel]:
        """``g_f^d`` and ``g_f^-d`` for each ``f: d`` of ``steps``, an involution once."""
        return [*dict.fromkeys(self._from_syllables([(f, e)]) for f, d in steps.items() for e in (d, -d))]

    def fundamental(self) -> FusionElement:
        """``1 + sum over g, g^-1`` for the standard generators."""
        standard = dict.fromkeys(range(len(self.names)), 1)
        return FusionElement._adopt(dict.fromkeys([self._unit, *self._letters(standard)], 1))

    def _steps(self, x: FusionElement) -> dict[int, int] | None:
        """``{f: d_f}`` over the factors of ``x``'s keys, if each is the unit or one syllable.

        ``d_f`` is the gcd of factor ``f``'s exponents (and ``m`` in ``Z/m``).
        Sending the generators of ``G'``, the free product (on ``Z^d`` the
        sum) of ``Z`` or ``Z/(m/d_f)`` over these ``f``, to the ``g_f^d_f``
        maps a reduced word to one of as many syllables, exponents times
        ``d_f``: an injective ``psi`` onto the elements whose syllables
        ``(f, e)`` all have ``d_f | e``.  On ``N[G']`` it keeps the unit, so
        ``x`` has the unit multiplicities of its preimage, whose letters
        ``g_f^(+-d_f)`` are standard, and its metric joins ``a`` to ``b``
        only if ``b a^-1 = psi(h)``, at the distance of ``h`` in ``G'``.
        """
        steps: dict[int, int] = {}
        for lab in x._terms:
            for i, (f, e) in enumerate(self._syllables(lab.payload)):
                if i:  # a second syllable
                    return None
                steps[f] = gcd(steps.get(f, self.factors[f] or 0), e)
        return steps

    def _standard_support(self, v: FusionElement) -> dict[int, int] | None:
        """``_steps(v)`` if ``v``'s keys are the unit and the letters of ``G'``, whatever the weights."""
        steps = self._steps(v)
        return steps if steps is not None and v.support() == {self._unit, *self._letters(steps)} else None

    def generator_distance(self, v: FusionElement, a: IrrLabel, b: IrrLabel) -> float | None:
        """``|b a^-1|`` in ``G'`` (``_steps``), ``inf`` outside it, if ``v`` has its standard support.

        Tensoring by ``v`` on the left sends ``c`` to ``g c`` for the letters
        ``g`` of ``v`` and ``c`` itself, so ``d(a, b)`` is the least ``n``
        with ``b a^-1`` a product of ``n`` letters (not ``a^-1 b``: from
        ``s`` to ``t s`` is one step).  A syllable ``g_f^e`` costs the
        fewest letters ``g_f^{+-1}`` with that product: ``|e|`` in ``Z``,
        ``min(e, m - e)`` in ``Z/m``, over ``d_f`` in ``G'``.  A product of
        letters reduces by merging neighbours of one factor, so each
        syllable ``(f, e)`` of its normal form is the product of letters of
        factor ``f`` that no other syllable uses, at least its cost of them;
        writing each syllable out with that many letters attains the sum.
        For ``Z^d`` the factors commute, the normal form holds one syllable
        per nonzero coordinate of ``b - a``, and the sum is its l1 norm.
        """
        if (steps := self._standard_support(v)) is None:
            return None
        w = tuple(self._syllables(self._mul(b.payload, self._inv(a.payload))))
        if any(f not in steps or e % steps[f] for f, e in w):
            return inf
        factors = self.factors
        return sum((abs(e) if factors[f] is None else min(e, factors[f] - e)) // steps[f] for f, e in w)

    def dim_irr(self, a: IrrLabel) -> int:
        return 1

    def format_label(self, a: IrrLabel) -> str:
        return " ".join(self.names[i] if e == 1 else f"{self.names[i]}^{e}"
                        for i, e in self._syllables(a.payload)) or "e"

    def parse_label(self, text: str) -> IrrLabel:
        text = text.strip()
        if not text:
            raise InvalidLabelError(_EMPTY_LABEL)
        letters: list[Letter] = []
        for tok in ([] if text == "e" else text.split()):
            m = _SYLLABLE_RE.match(tok)
            if not m or m.group(1) not in self._index:
                raise InvalidLabelError(f"bad group word syllable {tok!r}")
            letters.append((self._index[m.group(1)], int(m.group(2) or 1)))
        return self._from_syllables(letters)


class GroupDualSystem(GroupDualBase):
    """Dual of a free product of cyclic groups.

    ``factors`` is a sequence with one entry per free factor: ``None`` for
    ``Z`` and an integer ``m >= 2`` for ``Z/m``.  Labels are reduced words,
    stored as tuples of ``(factor, exponent)`` syllables with nonzero
    exponents (``1..m-1`` for finite factors) and no two consecutive
    syllables in the same factor.  Two reduced words cancel only where
    they meet, so the product walks inward from the seam (``mul_words``,
    the base's ``_mul``); ``reduce_word`` normalises untrusted input.
    """

    def __init__(self, factors: Sequence[int | None], names: Sequence[str] | None = None):
        factors = tuple(factors)
        if not factors:
            raise FusionError("a group dual needs at least one factor")
        for m in factors:
            if m is not None and (not isinstance(m, int) or m < 2):
                raise FusionError(f"cyclic factor order must be None or an int >= 2, got {m!r}")
        desc = ",".join("Z" if m is None else f"Z/{m}" for m in factors)
        super().__init__(desc, len(factors), names)
        self.factors = factors
        if len(factors) >= 2:
            self.amenability_tolerance = 0.15
        self._unit = IrrLabel(self.family_id, ())

    # word algebra ----------------------------------------------------------

    def _norm_exp(self, factor: int, e: int) -> int:
        m = self.factors[factor]
        return e if m is None else e % m

    def reduce_word(self, letters: Iterable[Letter]) -> Word:
        out: list[Letter] = []
        for f, e in letters:
            e = self._norm_exp(f, e)
            if e == 0:
                continue
            if out and out[-1][0] == f:
                _, e0 = out.pop()
                e = self._norm_exp(f, e0 + e)
                if e == 0:
                    continue
            out.append((f, e))
        return tuple(out)

    def mul_words(self, u: Word, v: Word) -> Word:
        """The reduced product of two reduced words.

        Reduced words cancel only at the seam: walk inward from it while
        the facing syllables share a factor.  A full cancellation goes on
        walking; a nonzero merge or a factor change ends the walk, and the
        untouched syllables of both words are kept as they are.
        """
        factors = self.factors
        i, j, n = len(u), 0, len(v)
        while i and j < n:
            f, a = u[i - 1]
            g, b = v[j]
            if f != g:
                break
            m = factors[f]
            e = a + b if m is None else (a + b) % m
            if e:
                return u[:i - 1] + ((f, e),) + v[j + 1:]
            i -= 1
            j += 1
        return u[:i] + v[j:]

    def inverse_word(self, w: Word) -> Word:
        """The inverse of a reduced word: reversed, exponents negated."""
        factors = self.factors
        return tuple((f, -e if factors[f] is None else -e % factors[f])
                     for f, e in reversed(w))

    _mul = mul_words
    _inv = inverse_word

    def word(self, letters: Iterable[Letter]) -> IrrLabel:
        return IrrLabel(self.family_id, self.reduce_word(letters))

    _from_syllables = word

    def _syllables(self, w: Word) -> Word:
        return w

    def letter_length(self, w: Word) -> int:
        """Syllable-tree depth: |exponent| for Z syllables, 1 for Z/m ones."""
        total = 0
        for f, e in w:
            total += abs(e) if self.factors[f] is None else 1
        return total

    # the normal-form prefix tree: the set calculus walks it for complements,
    # cylinder paths and the witness search pool, and test oracles enumerate it.
    # A syllable's exponents lie on a ray: a Z ray runs 1, 2, ... or -1, -2,
    # ..., and a Z/m ray holds one exponent of 1..m-1.

    def children(self, w: Word) -> list[Word]:
        """The next node on the ray of ``w``'s last syllable, then the first
        node of each ray of every other factor, in factor order."""
        out: list[Word] = []
        last = w[-1][0] if w else None
        for i, m in enumerate(self.factors):
            if i != last:
                for e in range(1, m) if m else (1, -1):
                    out.append(w + ((i, e),))
            elif m is None:
                e = w[-1][1]
                out.append(w[:-1] + ((i, e + 1 if e > 0 else e - 1),))
        return out

    def tree_path(self, w: Word) -> list[Word]:
        """The nodes from the root to ``w``, both included: each syllable's
        ray up to its exponent, one node in ``Z/m``."""
        out: list[Word] = [()]
        for i, (f, e) in enumerate(w):
            step = 1 if e > 0 else -1
            for h in range(step, e + step, step) if self.factors[f] is None else (e,):
                out.append(w[:i] + ((f, h),))
        return out

    # fusion rules ------------------------------------------------------------

    def validate_payload(self, payload) -> Word:
        if not isinstance(payload, tuple):
            raise InvalidLabelError(f"group word payload must be a tuple, got {payload!r}")
        for item in payload:
            if (not isinstance(item, tuple) or len(item) != 2
                    or not isinstance(item[0], int) or not isinstance(item[1], int)):
                raise InvalidLabelError(f"bad syllable {item!r}")
            f, _ = item
            if not 0 <= f < len(self.factors):
                raise InvalidLabelError(f"factor index {f} out of range")
        if self.reduce_word(payload) != payload:
            raise InvalidLabelError(f"group word {payload!r} is not reduced")
        return payload

    def _chain_letters(self, x: FusionElement):
        """``g_f^(+-d_f)`` over ``n`` ``Z`` factors (``_steps(x)``), with the chain ``(2n, 2n - 1, 1, 0)``.

        In ``G' = F_n``, right multiplication by ``sum (g + g^-1)`` is the
        adjacency of the ``2n``-regular tree, and the level is the letter
        length: the unit has ``2n`` children, and every other word one
        parent (the letter that cancels its last one) and ``2n - 1``
        children.  A finite factor closes cycles, so then no chain is declared.
        """
        if (steps := self._steps(x)) is None or any(self.factors[f] for f in steps):
            return None
        return self._letters(steps), ((2 * len(steps), 2 * len(steps) - 1, 1, 0),)

    def free_parts(self, x: FusionElement):
        """``(c0, parts)``, one part per factor, if ``_steps(x)`` holds two factors or more.

        The irreducibles are the group elements, and the unit multiplicity
        of ``sum_g a_g g`` is ``a_e``: the trace of the group algebra.  A
        part ``x_i`` lives in the algebra of its factor ``G_i``.  Take a
        product ``b_1 ... b_n`` with each ``b_j`` a polynomial in some
        ``x_i`` with no unit term, neighbours in distinct factors.  Each
        ``b_j`` is a combination of non-identity elements of its factor, so
        the product is a combination of words of ``n`` syllables whose
        neighbours lie in distinct factors.  Those words are reduced and
        not the unit, so the product holds no unit: the parts are free.
        A part holds one factor, so it does not split again.
        """
        if (steps := self._steps(x)) is None or len(steps) < 2:
            return None
        return x.mult(self._unit), [FusionElement._adopt(
            {lab: m for lab, m in x.items() if lab.payload and lab.payload[0][0] == f})
            for f in sorted(steps)]

    def sphere_sizes(self, v: FusionElement, rmax: int) -> list[int] | None:
        """The growth series of ``G'`` (``_steps``) to ``z^rmax``, if ``v`` has its standard support.

        By ``generator_distance`` the sphere of radius ``r`` holds the
        reduced words of ``G'`` of summed syllable cost ``r``.  A factor's nonzero
        syllables count by cost as ``T_i = S_i - 1``, where
        ``S_Z = (1 + z)/(1 - z)`` and ``S_{Z/m} = 1 + 2z + ... +
        2z^((m-1)//2)``, plus ``z^(m/2)`` for even ``m`` (``e`` and
        ``m - e`` cost the same, and ``m/2`` is its own partner).  A
        reduced word is a sequence of syllables with no two neighbours in
        one factor.  Cutting any sequence of syllables into blocks of one
        factor, a block of ``l`` syllables weighed ``(-1)^(l-1)``, counts
        each maximal run of ``L`` syllables ``(1 - 1)^(L-1)`` times, so
        only the reduced words remain: ``S = 1/(1 - sum T_i/(1 + T_i))``,
        that is ``1/S = sum 1/S_i - (k - 1)`` over the ``k`` factors (de la
        Harpe, *Topics in Geometric Group Theory*, 2000, ch. VI).  Folding in
        each ``S_i = num_i/den_i`` gives ``1/S = top/bottom``, so ``S`` is one
        exact series quotient (``_series_div``).  Only the first ``rmax + 1``
        terms of each ``S_i`` and of each fold are read, so they are cut
        there, and ``Z/m`` with ``m > 2 rmax`` folds as ``Z``, whose series
        agrees to ``z^((m-1)//2)``: the cost is O(k * rmax^2) steps at most.
        """
        if (steps := self._standard_support(v)) is None:
            return None
        n = rmax + 1
        top, bottom = [1 - len(steps)], [1]
        for f, d in steps.items():
            m = self.factors[f] and self.factors[f] // d
            num, den = ([1, 1], [1, -1]) if m is None or m > 2 * rmax else (
                [1] + [2] * ((m - 1) // 2) + [1] * (m % 2 == 0), [1] + [0] * (m // 2))
            top = list(map(add, _poly_mul(top, num), _poly_mul(den, bottom)))[:n]
            bottom = _poly_mul(bottom, num)[:n]
        return _series_div(bottom, top, n)

    def word_key(self, w: Word):
        """The label order on reduced words, in which a word comes after its
        prefixes (``WordSet.make`` relies on that)."""
        return (self.letter_length(w), len(w), w)

    def sort_key(self, label: IrrLabel):
        return self.word_key(label.payload)


class ZdDualSystem(GroupDualBase):
    """Dual of ``Z^d``: labels are integer vectors, added by ``_mul``."""

    def __init__(self, d: int, names: Sequence[str] | None = None):
        if not isinstance(d, int) or d < 1:
            raise FusionError(f"rank must be a positive integer, got {d!r}")
        super().__init__(f"Z^{d}", d, names)
        self.d = d
        self.factors = (None,) * d
        self._unit = IrrLabel(self.family_id, (0,) * d)

    def vector(self, v: Sequence[int]) -> IrrLabel:
        return self.label(tuple(v))

    def _syllables(self, v: tuple[int, ...]) -> Iterable[Letter]:
        return ((i, c) for i, c in enumerate(v) if c)

    def _from_syllables(self, letters: Iterable[Letter]) -> IrrLabel:
        v = [0] * self.d
        for i, e in letters:
            v[i] += e
        return IrrLabel(self.family_id, tuple(v))

    def validate_payload(self, payload) -> tuple[int, ...]:
        if (not isinstance(payload, tuple) or len(payload) != self.d
                or not all(isinstance(c, int) for c in payload)):
            raise InvalidLabelError(f"payload must be a tuple of {self.d} ints, got {payload!r}")
        return payload

    def _mul(self, u: tuple[int, ...], v: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(map(add, u, v))

    def _inv(self, v: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(-c for c in v)

    def _chain_letters(self, x: FusionElement):
        """``+-d_i e_i`` over ``n`` coordinates (``_steps(x)``), with one chain ``(2, 1, 1, 0)`` each.

        In ``G' = Z^n``, ``y_i = e_i + (-e_i)`` moves coordinate ``i`` alone, so the
        ``y_i`` commute and a product of their powers holds the unit as
        many times as the product of theirs.  The level of ``y_i`` is
        ``|v_i|``: both of its steps raise it from 0, and from any other
        value one raises it and the other lowers it.
        """
        steps = self._steps(x)
        return None if steps is None else (self._letters(steps), ((2, 1, 1, 0),) * len(steps))

    def sphere_sizes(self, v: FusionElement, rmax: int) -> list[int] | None:
        """The coefficients of ``((1 + z)/(1 - z))^n`` to ``z^rmax``, if ``v`` has its standard support.

        By ``generator_distance`` the sphere of radius ``r`` holds the vectors
        of ``G' = Z^n`` of l1 norm ``r``, a sum of ``n`` independent ``|v_i|``, so
        the series is ``S_Z^n``: the one exact quotient of ``(1 + z)^n`` by
        ``(1 - z)^n`` (``_series_div``), O(rmax * n) steps.
        """
        if (steps := self._standard_support(v)) is None:
            return None
        num = den = [1]
        for _ in steps:
            num, den = _poly_mul(num, [1, 1]), _poly_mul(den, [1, -1])
        return _series_div(num, den, rmax + 1)

    def sort_key(self, label: IrrLabel):
        v = label.payload
        return (sum(abs(c) for c in v), v)


# ---------------------------------------------------------------------------
# interval-rule families
# ---------------------------------------------------------------------------

class IntervalSystem(FusionSystem):
    """Interval-rule fusion on integer labels ``<prefix><k>``, ``k >= first``.

    ``x_first`` is the unit and the tensor rule is the interval
    ``x_a (x) x_b = x_{|a-b|+first} + x_{|a-b|+first+step} + ... + x_{a+b-first}``.
    Every label is self-conjugate; dimensions follow ``d_first = 1``,
    ``d_{first+1} = d1`` and ``d_{k+1} = coeff*d_k - d_{k-1}``.  The
    fundamental is the sum of the labels with the given indices.
    """

    def __init__(self, family_id: str, n: int, *, prefix: str, first: int, step: int,
                 d1: int, coeff: int, fundamental: tuple[int, ...]):
        super().__init__(family_id)
        self.n = n
        self.prefix = prefix
        self.first = first
        self.step = step
        self.coeff = coeff
        self.fundamental_indices = fundamental
        self._dims = [1, d1]  # indexed by k - first
        self._label_re = re.compile(rf"^{prefix}(\d+)$")
        self._unit = IrrLabel(self.family_id, first)

    def fundamental(self) -> FusionElement:
        return FusionElement((self.label(k), 1) for k in self.fundamental_indices)

    def validate_payload(self, payload) -> int:
        if not isinstance(payload, int) or isinstance(payload, bool) or payload < self.first:
            raise InvalidLabelError(
                f"label index must be an int >= {self.first}, got {payload!r}")
        return payload

    def _tensor_irr(self, a: IrrLabel, b: IrrLabel) -> FusionElement:
        ka, kb, first, fid = a.payload, b.payload, self.first, self.family_id
        return FusionElement._adopt(
            {IrrLabel(fid, c): 1
             for c in range(abs(ka - kb) + first, ka + kb - first + 1, self.step)})

    def conj_irr(self, a: IrrLabel) -> IrrLabel:
        return a

    def dim_irr(self, a: IrrLabel) -> int:
        i = a.payload - self.first
        while len(self._dims) <= i:
            self._dims.append(self.coeff * self._dims[-1] - self._dims[-2])
        return self._dims[i]

    def _chain_letters(self, x: FusionElement):
        """``x_{first+1}``, with the chain ``(1, 1, 1, 1 if step == 1 else 0)``.

        The level of ``x_k`` is ``k - first``.  The interval rule with
        ``b = first + 1`` runs from ``x_{|k-first-1|+first}`` to
        ``x_{k+1}`` in steps of ``step``.  At the unit, ``k = first``, that
        is ``x_{first+1}`` alone: one step up.  At every ``k > first`` it
        runs from ``x_{k-1}`` to ``x_{k+1}``, whatever ``k``: one step down,
        one up, and for ``step == 1`` one hold at ``x_k`` (``step == 2``
        skips it).  So the tail rates are the same at every level >= 1.
        """
        return [IrrLabel(self.family_id, self.first + 1)], ((1, 1, 1, int(self.step == 1)),)

    def sort_key(self, label: IrrLabel):
        return label.payload

    def format_label(self, a: IrrLabel) -> str:
        return f"{self.prefix}{a.payload}"

    def parse_label(self, text: str) -> IrrLabel:
        m = self._label_re.match(text.strip())
        if not m:
            raise InvalidLabelError(f"expected {self.prefix}<k>, got {text!r}")
        return self.label(int(m.group(1)))


class AoSystem(IntervalSystem):
    """Free orthogonal type fusion on labels ``r_k`` (k >= 1, ``r_1`` the unit).

    The tensor rule is the step-2 interval
    ``r_a (x) r_b = r_{|a-b|+1} + r_{|a-b|+3} + ... + r_{a+b-1}``
    and dimensions follow ``d_1 = 1``, ``d_2 = n``,
    ``d_{k+1} = n*d_k - d_{k-1}``.  The fundamental is ``r_2``.
    """

    def __init__(self, n: int):
        if not isinstance(n, int) or n < 2:
            raise FusionError(f"AoSystem needs an integer n >= 2, got {n!r}")
        super().__init__(f"a_o(n={n})", n, prefix="r", first=1, step=2,
                         d1=n, coeff=n, fundamental=(2,))

    def r(self, k: int) -> IrrLabel:
        return self.label(k)


class AutSystem(IntervalSystem):
    """Quantum automorphism type fusion on labels ``s_k`` (k >= 0).

    The tensor rule is the step-1 interval
    ``s_a (x) s_b = s_{|a-b|} + ... + s_{a+b}``, dimensions follow
    ``d_0 = 1``, ``d_1 = n-1``, ``d_{k+1} = (n-2)*d_k - d_{k-1}``, and the
    fundamental coaction element is ``s_0 + s_1`` of dimension ``n``.
    Only ``n >= 4`` yields this rule; smaller ``n`` (classical symmetric
    groups) is rejected.
    """

    def __init__(self, n: int):
        if not isinstance(n, int) or n < 4:
            raise FusionError(
                f"AutSystem needs an integer n >= 4 (got {n!r}); "
                "n <= 3 is classical symmetric-group fusion, out of scope")
        super().__init__(f"aut(n={n})", n, prefix="s", first=0, step=1,
                         d1=n - 1, coeff=n - 2, fundamental=(0, 1))

    def s(self, k: int) -> IrrLabel:
        return self.label(k)


# ---------------------------------------------------------------------------
# free unitary type
# ---------------------------------------------------------------------------

def au_bar(w: str) -> str:
    """The involution on words over {a, b}: reverse and swap the letters.

    Extends the generator swap antimultiplicatively, which is the extension
    compatible with conjugation (validated by the unit-multiplicity tests).
    """
    return w[::-1].translate(_AU_SWAP)


_AU_SWAP = str.maketrans("ab", "ba")


class AuSystem(FusionSystem):
    """Free unitary type fusion on words over ``{a, b}``.

    ``a`` is the class of the fundamental, ``b`` of its conjugate; the
    empty word is the unit.  The tensor rule sums over matched
    suffix/prefix cancellations:
    ``r_x (x) r_y = sum over splits x = u.g, y = bar(g).v of r_{u.v}``.
    Dimensions follow the two-term recurrence over the letters
    ``dim(r_{wc}) = n*dim(r_w) - [w ends with bar(c)]*dim(r_{w[:-1]})``,
    which is forced by the fusion rule and the dimension homomorphism.
    """

    amenability_tolerance = 0.15

    def __init__(self, n: int):
        if not isinstance(n, int) or n < 2:
            raise FusionError(f"AuSystem needs an integer n >= 2, got {n!r}")
        super().__init__(f"a_u(n={n})")
        self.n = n
        self._unit = IrrLabel(self.family_id, "")

    def word(self, w: str) -> IrrLabel:
        return self.label(w)

    def fundamental(self) -> FusionElement:
        return FusionElement.from_label(self.word("a"))

    def validate_payload(self, payload) -> str:
        if not isinstance(payload, str) or any(c not in "ab" for c in payload):
            raise InvalidLabelError(f"label must be a word over 'a','b', got {payload!r}")
        return payload

    def _tensor_irr(self, x: IrrLabel, y: IrrLabel) -> FusionElement:
        wx, wy = x.payload, y.payload
        acc: dict[IrrLabel, int] = {}
        for k in range(min(len(wx), len(wy)) + 1):
            if k == 0 or au_bar(wx[len(wx) - k:]) == wy[:k]:
                lab = IrrLabel(self.family_id, wx[: len(wx) - k] + wy[k:])
                acc[lab] = acc.get(lab, 0) + 1
        return FusionElement._adopt(acc)

    def conj_irr(self, a: IrrLabel) -> IrrLabel:
        return IrrLabel(self.family_id, au_bar(a.payload))

    def dim_irr(self, a: IrrLabel) -> int:
        # d_j = n*d_{j-1} - [w_{j-1} = bar(w_j)]*d_{j-2}; a one-letter bar
        # swaps the letter, so the correction applies when two differ
        d_prev, d, last = 0, 1, ""
        for c in a.payload:
            d_prev, d = d, self.n * d - (d_prev if c != last else 0)
            last = c
        return d

    def _chain_letters(self, x: FusionElement):
        """``a`` and ``b``, with the chain ``(2, 2, 1, 0)`` and the word length as level.

        ``r_v (x) a = r_{va} + [v ends with b] r_{v[:-1]}`` and likewise for
        ``b``, so the unit leads to two children, and a non-empty word to
        two children and, since it ends with exactly one of ``a``, ``b``,
        one parent.
        """
        return [IrrLabel(self.family_id, "a"), IrrLabel(self.family_id, "b")], ((2, 2, 1, 0),)

    def sort_key(self, label: IrrLabel):
        return (len(label.payload), label.payload)

    def format_label(self, a: IrrLabel) -> str:
        return a.payload if a.payload else "e"

    def parse_label(self, text: str) -> IrrLabel:
        text = text.strip()
        if not text:
            raise InvalidLabelError(_EMPTY_LABEL)
        return self.word("" if text == "e" else text)


# ---------------------------------------------------------------------------
# shared helpers
# ---------------------------------------------------------------------------

def fundamental(sys: FusionSystem) -> FusionElement:
    """The canonical generating element of a family; a group dual's is
    ``1 + sum over g, g^-1`` for its standard generators."""
    return sys.fundamental()


# ---------------------------------------------------------------------------
# configuration and wire formats
# ---------------------------------------------------------------------------

_FAMILY_KEYS = {
    "group_dual": {"family", "factors"},
    "a_o": {"family", "n"},
    "aut": {"family", "n"},
    "a_u": {"family", "n"},
}
_TOP_LEVEL_EXTRA = {"params"}
_INDEXED_FAMILIES = {"a_o": AoSystem, "aut": AutSystem, "a_u": AuSystem}


def system_from_config(cfg: dict) -> FusionSystem:
    """Build a system from a family config mapping.

    Accepted shapes::

        {"family": "group_dual", "factors": [{"type": "Z"}, {"type": "Zmod", "m": 3}]}
        {"family": "group_dual", "factors": [{"type": "Zd", "d": 2}]}
        {"family": "a_o", "n": 3} | {"family": "aut", "n": 4} | {"family": "a_u", "n": 2}

    Factors may carry an optional ``"name"``.  An optional top-level
    ``params`` block is ignored here (the CLI consumes it); any other
    unknown key is rejected.
    """
    if not isinstance(cfg, dict):
        raise FusionError(f"family config must be a mapping, got {type(cfg).__name__}")
    family = cfg.get("family")
    if family not in _FAMILY_KEYS:
        raise FusionError(f"unknown family {family!r}")
    allowed = _FAMILY_KEYS[family] | _TOP_LEVEL_EXTRA
    unknown = set(cfg) - allowed
    if unknown:
        raise FusionError(f"unknown config keys: {sorted(unknown)}")
    if family in _INDEXED_FAMILIES:
        return _INDEXED_FAMILIES[family](_expect_int(cfg, "n"))
    factors_cfg = cfg.get("factors")
    if not isinstance(factors_cfg, list) or not factors_cfg:
        raise FusionError("group_dual config needs a non-empty 'factors' list")
    if any(not isinstance(f, dict) for f in factors_cfg):
        raise FusionError("each factor must be a mapping")
    kinds = [f.get("type") for f in factors_cfg]
    if kinds == ["Zd"]:
        f = factors_cfg[0]
        unknown = set(f) - {"type", "d", "names"}
        if unknown:
            raise FusionError(f"unknown factor keys: {sorted(unknown)}")
        names = f.get("names")
        if names is not None and not isinstance(names, list):
            raise FusionError(f"'names' must be a list of generator names, got {names!r}")
        return ZdDualSystem(_expect_int(f, "d"), names)
    factors: list[int | None] = []
    names: list[str] = []
    for i, f in enumerate(factors_cfg):
        unknown = set(f) - {"type", "m", "name"}
        if unknown:
            raise FusionError(f"unknown factor keys: {sorted(unknown)}")
        kind = f.get("type")
        if kind == "Z":
            factors.append(None)
        elif kind == "Zmod":
            factors.append(_expect_int(f, "m"))
        elif kind == "Zd":
            raise FusionError("a Zd factor must be the only factor")
        else:
            raise FusionError(f"unknown factor type {kind!r}")
        names.append(f.get("name", f"g{i + 1}"))
    return GroupDualSystem(factors, names)


def _expect_int(cfg: dict, key: str) -> int:
    v = cfg.get(key)
    if not isinstance(v, int) or isinstance(v, bool):
        raise FusionError(f"config key {key!r} must be an integer, got {v!r}")
    return v


def parse_element(sys: FusionSystem, text: str) -> FusionElement:
    """Parse ``"2*r1 + r3"`` / ``"e + g1 + g1^-1"`` into an element."""
    text = text.strip()
    if text in ("", "0"):
        return FusionElement.zero()
    terms: list[tuple[IrrLabel, int]] = []
    for chunk in text.split("+"):
        chunk = chunk.strip()
        if not chunk:
            raise InvalidLabelError("empty summand in element expression")
        mult = 1
        if "*" in chunk:
            head, chunk = chunk.split("*", 1)
            try:
                mult = int(head.strip())
            except ValueError:
                raise InvalidLabelError(f"bad multiplicity {head!r}") from None
        terms.append((sys.parse_label(chunk.strip()), mult))
    return FusionElement(terms)


def format_element(sys: FusionSystem, x: FusionElement) -> str:
    sys.check_element(x)
    if not x:
        return "0"
    bits = []
    for lab, m in sys.sorted_items(x):
        head = f"{m}*" if m != 1 else ""
        bits.append(head + sys.format_label(lab))
    return " + ".join(bits)


def element_to_json(sys: FusionSystem, x: FusionElement) -> list[dict[str, str]]:
    """Wire format: array of {"label": ..., "mult": decimal string}."""
    sys.check_element(x)
    return [{"label": sys.format_label(lab), "mult": str(m)}
            for lab, m in sys.sorted_items(x)]


def element_from_json(sys: FusionSystem, data: Iterable[dict]) -> FusionElement:
    terms = []
    for item in data:
        terms.append((sys.parse_label(item["label"]), int(item["mult"])))
    return FusionElement(terms)
