"""Family-agnostic fusion semiring arithmetic.

A fusion system describes a semiring whose additive structure is freely
generated by a set of irreducible classes: it bundles the unit class, the
tensor rule on pairs of irreducibles, conjugation and the dimension
function.  Elements are finite maps ``irreducible -> multiplicity`` with
exact (arbitrary precision) non-negative integer multiplicities; the empty
map is the zero element.

All values are immutable.  Tensor products of irreducible pairs are
memoized per system; ``tensor_row``, one label times an element, is the
product towers and list derivation form, and a family may state it directly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter
from itertools import repeat
from math import comb
from operator import mul
from typing import Any, Iterable, Iterator, Mapping, NamedTuple


class FusionError(Exception):
    """Base class for errors raised by fusion computations."""


class FamilyMismatchError(FusionError):
    """Operands belong to different fusion systems."""


class InvalidLabelError(FusionError):
    """A label payload is malformed or not canonical for its family."""


class BudgetExceededError(FusionError):
    """A bounded search ran out of budget before reaching its target."""


class IrrLabel(NamedTuple):
    """An irreducible class, identified by a family id and a canonical payload.

    Payloads are family specific (an integer index, a letter word or a
    reduced group word) and are normalized by the owning system before a
    label is created.  A label is a plain tuple ``(family, payload)``, so
    hashing and equality are the tuple ones: two labels are equal iff both
    fields are equal.
    """

    family: str
    payload: Any

    def __repr__(self) -> str:
        return f"IrrLabel({self.family!r}, {self.payload!r})"


class Record:
    """A frozen record whose fields are its ``__slots__``, set once by ``__init__``.

    Like a frozen dataclass, and unlike a NamedTuple it is no tuple: equality
    (within one class), hashing and ``repr`` go by the fields in order.
    """

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._values()

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({body})"


class FusionElement:
    """A finite non-negative integer combination of irreducible classes.

    Immutable.  Supports ``+`` (pointwise addition) and multiplication by a
    non-negative integer.  The zero element is the empty combination and is
    compatible with every family.  The constructor validates every term;
    results computed inside the package skip that through ``_adopt``.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[IrrLabel, int] | Iterable[tuple[IrrLabel, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        acc: dict[IrrLabel, int] = {}
        family = None
        for label, mult in items:
            if not isinstance(label, IrrLabel):
                raise InvalidLabelError(f"not an IrrLabel: {label!r}")
            if not isinstance(mult, int) or isinstance(mult, bool):
                raise FusionError(f"multiplicity must be an int, got {mult!r}")
            if mult < 0:
                raise FusionError(f"negative multiplicity {mult} for {label!r}")
            if mult == 0:
                continue
            if family is None:
                family = label.family
            elif label.family != family:
                raise FamilyMismatchError(
                    f"labels from {family!r} and {label.family!r} in one element")
            acc[label] = acc.get(label, 0) + mult
        object.__setattr__(self, "_terms", acc)

    @classmethod
    def _adopt(cls, terms: dict[IrrLabel, int]) -> "FusionElement":
        """Trusted constructor: take ownership of ``terms`` without checks.

        The caller guarantees labels of one family, positive int
        multiplicities, and that it no longer mutates ``terms``.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "_terms", terms)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("FusionElement is immutable")

    @classmethod
    def zero(cls) -> "FusionElement":
        return cls()

    @classmethod
    def from_label(cls, label: IrrLabel) -> "FusionElement":
        if not isinstance(label, IrrLabel):
            raise InvalidLabelError(f"not an IrrLabel: {label!r}")
        return cls._adopt({label: 1})

    @property
    def family(self) -> str | None:
        """Family id of the labels, or None for the zero element."""
        for label in self._terms:
            return label.family
        return None

    def support(self) -> frozenset[IrrLabel]:
        return frozenset(self._terms)

    def mult(self, label: IrrLabel) -> int:
        return self._terms.get(label, 0)

    __getitem__ = mult

    def items(self) -> Iterator[tuple[IrrLabel, int]]:
        return iter(self._terms.items())

    def __iter__(self) -> Iterator[IrrLabel]:
        return iter(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, FusionElement):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other) -> "FusionElement":
        if not isinstance(other, FusionElement):
            return NotImplemented
        if not other._terms:
            return self
        if not self._terms:
            return other
        if self.family != other.family:
            raise FamilyMismatchError(
                f"labels from {self.family!r} and {other.family!r} in one element")
        acc = dict(self._terms)
        for label, mult in other._terms.items():
            acc[label] = acc.get(label, 0) + mult
        return FusionElement._adopt(acc)

    def __radd__(self, other) -> "FusionElement":
        if other == 0:  # allows sum(...) over elements
            return self
        return NotImplemented

    def __mul__(self, other) -> "FusionElement":
        if isinstance(other, int) and not isinstance(other, bool):
            if other < 0:
                raise FusionError(f"negative scalar {other}")
            if other == 0:
                return FusionElement.zero()
            return FusionElement._adopt({lab: m * other for lab, m in self._terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def contains(self, other: "FusionElement") -> bool:
        """Whether ``other`` is a subobject: every multiplicity dominated."""
        return all(self.mult(lab) >= m for lab, m in other.items())

    def __repr__(self) -> str:
        if not self._terms:
            return "FusionElement(0)"
        bits = []
        for label, mult in self._terms.items():
            head = f"{mult}*" if mult != 1 else ""
            bits.append(f"{head}{label.payload!r}")
        return "FusionElement(" + " + ".join(bits) + ")"


Chain = tuple[int, int, int, int]  # (p0, p, q, c), as FusionSystem.radial_chains declares them


class FusionSystem(ABC):
    """Descriptor of one fusion family.

    Subclasses implement the irreducible-pair tensor rule, conjugation, the
    dimension function and payload canonicalization.  This base class
    provides the bilinear extension, running products, unit multiplicities
    and moments, and the pair memo.
    """

    #: Default tolerance of the amenability verdict around ``n = dim(u)``:
    #: tight for interval-rule and abelian families, wider for the free
    #: ones, whose norm estimates converge more slowly.
    amenability_tolerance = 0.05

    def __init__(self, family_id: str):
        self.family_id = family_id
        self._pair_cache: dict[tuple[IrrLabel, IrrLabel], FusionElement] = {}

    # -- family rules -----------------------------------------------------

    @abstractmethod
    def _tensor_irr(self, a: IrrLabel, b: IrrLabel) -> FusionElement:
        """Uncached tensor rule on a pair of irreducibles."""

    @abstractmethod
    def conj_irr(self, a: IrrLabel) -> IrrLabel:
        """The conjugate irreducible."""

    @abstractmethod
    def dim_irr(self, a: IrrLabel) -> int:
        """Dimension of an irreducible; a positive integer."""

    @abstractmethod
    def validate_payload(self, payload) -> Any:
        """Return the canonical form of ``payload`` or raise InvalidLabelError."""

    @abstractmethod
    def sort_key(self, label: IrrLabel):
        """A total order on labels, used for deterministic serialization."""

    def format_label(self, a: IrrLabel) -> str:
        """Wire text of a label; families with a label syntax override this."""
        return str(a.payload)

    def fundamental(self) -> FusionElement:
        """The family's distinguished generating element."""
        raise FusionError(f"no fundamental rule for {self!r}")

    def _chain_letters(self, x: FusionElement) -> tuple[list[IrrLabel], tuple[Chain, ...]] | None:
        """``(letters, chains)`` if ``c0 unit + sum(letters)`` provably walks ``chains``; else None."""
        return None

    def radial_chains(self, x: FusionElement) -> tuple[int, tuple[Chain, ...]] | None:
        """``x`` as ``c0`` units plus independent birth-death steps, where proven.

        ``(c0, chains)`` means ``x = c0 unit + y_1 + ... + y_d``, ``d >= 1``,
        where the ``y_i`` commute and the unit multiplicity of a product of
        their powers is the product of theirs.  Each ``y_i`` steps on levels
        by its chain ``(p0, p, q, c)``: up ``p0`` from level 0, which holds
        the unit alone, and from every level >= 1 up ``p``, down ``q`` or
        stay ``c``.  ``c0`` units alone are a zero-rate chain.  Else each key
        must be the unit or one of ``_chain_letters(x)``, all letters of one
        weight ``w``, which scales every rate; otherwise None keeps the expansion.
        """
        terms = x._terms
        if terms.keys() <= {self._unit}:
            return terms.get(self._unit, 0), ((0, 0, 0, 0),)
        if (declared := self._chain_letters(x)) is None:
            return None
        letters, chains = declared
        w = terms.get(letters[0], 0)
        if terms.keys() - {self._unit, *letters} or any(terms.get(g, 0) != w for g in letters):
            return None
        return terms.get(self._unit, 0), tuple(tuple(w * r for r in chain) for chain in chains)

    def free_parts(self, x: FusionElement) -> tuple[int, list[FusionElement]] | None:
        """``x`` as ``c0`` units plus parts that are free, where proven.

        ``(c0, parts)`` means ``x = c0 unit + x_1 + ... + x_k`` with
        ``k >= 2``, where the ``x_i`` are free for the unit multiplicity:
        an alternating product of polynomials in distinct neighbouring
        ``x_i``, each with no unit term, holds no unit.  No part may split
        again.  The default, None, keeps the expansion.
        """
        return None

    def sphere_sizes(self, v: FusionElement, rmax: int) -> list[int] | None:
        """Sizes of the spheres of radius ``0..rmax`` of the metric of ``v``, in closed form.

        The spheres are the same around every center.  Families answer
        only for the generators where they prove the count; the default,
        None, keeps the breadth-first search.
        """
        return None

    def generator_distance(self, v: FusionElement, a: IrrLabel, b: IrrLabel) -> float | None:
        """The metric of ``v`` from ``a`` to ``b`` in closed form, where proven.

        That is the least ``n`` with ``b`` in ``v^(x)n (x) a``, ``inf`` if
        there is none.  The default, None, keeps the breadth-first search.
        """
        return None

    # -- labels ------------------------------------------------------------

    def label(self, payload) -> IrrLabel:
        return IrrLabel(self.family_id, self.validate_payload(payload))

    @property
    def unit(self) -> IrrLabel:
        return self._unit

    def unit_element(self) -> FusionElement:
        return FusionElement._adopt({self._unit: 1})

    def check_label(self, a: IrrLabel) -> None:
        if not isinstance(a, IrrLabel) or a.family != self.family_id:
            raise FamilyMismatchError(
                f"label {a!r} does not belong to family {self.family_id!r}")

    def check_element(self, x: FusionElement) -> None:
        if not isinstance(x, FusionElement):
            raise FusionError(f"not a FusionElement: {x!r}")
        fam = x.family
        if fam is not None and fam != self.family_id:
            raise FamilyMismatchError(
                f"element of family {fam!r} used with {self.family_id!r}")

    # -- cached pair product ------------------------------------------------

    def tensor_pair(self, a: IrrLabel, b: IrrLabel) -> FusionElement:
        key = (a, b)
        hit = self._pair_cache.get(key)
        if hit is None:
            # idempotent insert: concurrent writers compute identical values
            hit = self._pair_cache[key] = self._tensor_irr(a, b)
        return hit

    def tensor_row(self, a: IrrLabel, y: FusionElement) -> FusionElement:
        """The row ``a (x) y`` of one label, summed from ``tensor_pair``: the value
        of ``tensor(FusionElement.from_label(a), y)``, operands taken as checked."""
        acc: dict[IrrLabel, int] = {}
        for b, mb in y._terms.items():
            for c, mc in self.tensor_pair(a, b)._terms.items():
                acc[c] = acc.get(c, 0) + mb * mc
        return FusionElement._adopt(acc)

    # -- semiring operations -------------------------------------------------

    def tensor(self, x: FusionElement, y: FusionElement) -> FusionElement:
        """Bilinear extension of the irreducible tensor rule."""
        self.check_element(x)
        self.check_element(y)
        if not x or not y:
            return FusionElement.zero()
        acc: dict[IrrLabel, int] = {}
        for a, ma in x.items():
            for b, mb in y.items():
                m = ma * mb
                for c, mc in self.tensor_pair(a, b).items():
                    acc[c] = acc.get(c, 0) + m * mc
        return FusionElement._adopt(acc)

    def conj_element(self, x: FusionElement) -> FusionElement:
        self.check_element(x)
        return FusionElement._adopt({self.conj_irr(a): m for a, m in x.items()})

    def dim(self, x: FusionElement) -> int:
        self.check_element(x)
        return sum(m * self.dim_irr(a) for a, m in x.items())

    def products(self, letters: Iterable[FusionElement]) -> Iterator[FusionElement]:
        """The running products ``unit, unit (x) l1, unit (x) l1 (x) l2, ...``."""
        acc = self.unit_element()
        yield acc
        for x in letters:
            acc = self.tensor(acc, x)
            yield acc

    def unit_mult(self, x: FusionElement, y: FusionElement) -> int:
        """``multiplicity(unit, x (x) y)`` without forming ``x (x) y``.

        By Frobenius reciprocity the unit occurs in ``a (x) b`` once when
        ``b`` is the conjugate of ``a`` and not at all otherwise, so this is
        ``sum_c x_c * y_{conj c}``; the sum is symmetric in ``x`` and ``y``
        and runs over the smaller support.
        """
        self.check_element(x)
        self.check_element(y)
        if len(y) < len(x):
            x, y = y, x
        xs = x._terms
        return sum(map(mul, xs.values(), map(y._terms.get, map(self.conj_irr, xs), repeat(0))))

    def unit_moments(self, x: FusionElement, N: int) -> list[int]:
        """``[multiplicity(unit, x^(x)j) for j = 0..N]``.

        This is the one place that chooses how to count, in this order.

        When ``radial_chains(x)`` declares chains (``c0`` units alone, or
        plus one weight on the family's step letters; on a group dual those
        of the subgroup ``x`` generates, with no finite factor), no rule
        runs: each chain's closed walks are read off its algebraic
        generating function in O(N) exact operations (``_chain_walks``).
        The ``c0`` units hold the first chain's walk at every level, and
        each later chain is joined by binomial convolution (``_chain_moments``).

        Else, when ``free_parts(x)`` splits ``x``, each part's moments are
        counted by this method and joined by adding their free cumulants
        (``_free_moments``): commuting parts convolve, free parts add.

        Otherwise the powers are formed to half the depth:
        ``m_{2k-1} = unit_mult(x^k, x^(k-1))`` and ``m_{2k} = unit_mult(x^k, x^k)``,
        so only the powers up to ``ceil(N/2)`` are formed.  Both pairings
        run in one pass over ``x^k`` that conjugates each term once, and
        while the next power is formed only the current one is kept.
        """
        if N < 0:
            raise FusionError(f"N must be >= 0, got {N}")
        self.check_element(x)
        chains = self.radial_chains(x)
        if chains is not None:
            return _chain_moments(*chains, N)
        free = self.free_parts(x)
        if free is not None:
            c0, parts = free
            return _free_moments(c0, [self.unit_moments(part, N) for part in parts], N)
        conj = self.conj_irr
        out = [1]
        powers = self.products(repeat(x, (N + 1) // 2))
        prev = next(powers)
        for cur in powers:
            prev_mult, cur_mult = prev._terms.get, cur._terms.get
            odd = even = 0
            for a, m in cur._terms.items():
                b = conj(a)
                odd += m * prev_mult(b, 0)
                even += m * cur_mult(b, 0)
            out.append(odd)
            if len(out) <= N:
                out.append(even)
            prev = cur
        return out

    def sorted_items(self, x: FusionElement) -> list[tuple[IrrLabel, int]]:
        return sorted(x.items(), key=lambda it: self.sort_key(it[0]))

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.family_id}>"


def _chain_moments(c0: int, chains: tuple[Chain, ...], N: int) -> list[int]:
    """Unit multiplicities of ``(c0 unit + y_1 + ... + y_d)^(x)j``, j = 0..N, d >= 1.

    The ``c0`` units hold the walk of ``y_1`` at level 0 and above, so a
    one-chain generator needs no join; each later chain is joined by
    binomial convolution.  Each chain's closed walks are the coefficients
    of its generating function (``_chain_walks``), O(N) exact operations.
    """
    out, hold = None, c0
    for chain in chains:
        walk = _chain_walks(hold, *chain, N)
        # the parts commute: (rest + y)^n = sum over k of C(n, k) rest^(n-k) y^k
        out = walk if out is None else [
            sum(comb(n, k) * out[n - k] * w
                for k, w in enumerate(walk[:n + 1]) if w and out[n - k])
            for n in range(N + 1)]
        hold = 0
    return out


def _exact_div(a: int, b: int) -> int:
    quo, rem = divmod(a, b)
    if rem:
        raise ArithmeticError(f"{a} is not divisible by {b}")
    return quo


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    """Polynomial product; each row of ``a`` adds to ``len(b)`` terms: ``len(a) * len(b)`` steps."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        out[i:i + len(b)] = [o + x * y for o, y in zip(out[i:i + len(b)], b)]
    return out


def _series_div(num: list[int], den: list[int], n: int) -> list[int]:
    """The first ``n`` coefficients of the power series ``num/den``, in O(n deg den) steps.

    Shared leading zeros cancel.  A pole at 0, or a coefficient that
    ``_exact_div`` cannot divide by the leading one, raises ``ArithmeticError``.
    """
    nonzero = [i for i, d in enumerate(den) if d]
    if not nonzero or any(num[:nonzero[0]]):
        raise ArithmeticError(f"{num}/{den} has a pole at 0")
    lead, d0, tail = nonzero[0], den[nonzero[0]], den[nonzero[-1]:nonzero[0]:-1]
    f = [0] * (k := len(tail))  # f_{j-k} .. f_{j-1} meet tail = den_k .. den_1
    for t in num[lead:lead + n] + [0] * (n + lead - len(num)):
        f.append(_exact_div(t - sum(map(mul, tail, f[-k:])) if k else t, d0))
    return f[k:]


def _chain_walks(h: int, p0: int, p: int, q: int, c: int, N: int) -> list[int]:
    """Weighted closed walks at level 0 of length 0..N: hold ``h`` at level 0,
    up ``p0`` from it; from every level >= 1 up ``p``, down ``q``, stay ``a = h + c``.

    Let ``b = p q``.  A walk from level 1 back to level 1 that stays
    above 0 is empty, or starts with a hold (``a z``) or with a climb, a
    walk of that kind one level up and a descent (``b z^2 M``), so its
    series is ``M = 1/(1 - a z - b z^2 M)``.  A closed walk at 0 is a
    sequence of holds and of excursions ``p0 q z^2 M``, so
    ``F = 1/(1 - h z - p0 q z^2 M)``.

    When ``p0 q = 0`` no closed walk leaves level 0, and when ``p = 0``
    none climbs past level 1, where ``M = 1/(1 - a z)``; either way
    ``F = (1 - a z)/((1 - h z)(1 - a z) - p0 q z^2)``.  Otherwise
    ``M = (1 - a z - S)/(2 b z^2)`` with ``S = sqrt((1 - a z)^2 - 4 b z^2)``,
    so ``F = 2p/(alpha + p0 S)`` with
    ``alpha = (2p - p0) + (p0 a - 2 p h) z``, and
    ``F = 2p (alpha - p0 S)/D`` with ``D = alpha^2 - p0^2 S^2``, a
    polynomial of degree <= 2, since ``S^2`` is one.  ``D`` is not 0:
    with ``b > 0``, ``S^2`` has two distinct roots, so ``S`` is no
    polynomial while ``alpha`` is.

    Every division is exact, or raises ``ArithmeticError``: never a
    silently wrong count.  ``S = 1 - a z - 2 b z^2 M`` has integer
    coefficients, and ``2 P S' = P' S`` with ``P = S^2`` gives
    ``n s_n = a (2n - 3) s_{n-1} + (a^2 - 4b)(3 - n) s_{n-2}``, so the
    division by ``n`` is exact.  ``F`` counts walks, so it is the integer
    series quotient ``T/D`` with ``T = 2p (alpha - p0 S)`` (``_series_div``;
    ``p0 = p`` makes ``D(0) = T(0) = 0``), O(N) steps as ``D`` has degree <= 2.
    """
    a = h + c
    if p0 * q == 0 or p == 0:
        num, den = [1, -a], [1, -(h + a), h * a - p0 * q]
    else:
        disc = a * a - 4 * p * q
        s = [1, -a]
        for n in range(2, N + 3):
            s.append(_exact_div(a * (2 * n - 3) * s[-1] + disc * (3 - n) * s[-2], n))
        al0, al1 = 2 * p - p0, p0 * a - 2 * p * h
        num = [2 * p * (al0 - p0), 2 * p * (al1 + p0 * a), *(-2 * p * p0 * sn for sn in s[2:])]
        den = [al0 * al0 - p0 * p0, 2 * (al0 * al1 + a * p0 * p0), al1 * al1 - p0 * p0 * disc]
    return _series_div(num, den, N + 1)


def _free_moments(c0: int, part_moments: list[list[int]], N: int) -> list[int]:
    """Unit multiplicities of ``(c0 unit + x_1 + ... + x_k)^(x)j``, j = 0..N, for free ``x_i``.

    Free cumulants of free parts add (Speicher, *Math. Ann.* 298, 1994),
    and ``c0`` units add ``c0`` to the first one only.  Parts with the same
    moments (``s + s^-1`` and ``t + t^-1`` in F2) share one inversion.
    """
    kappa = [0, c0] + [0] * N  # one entry past N, so that kappa[1] exists at N = 0
    for m, copies in Counter(map(tuple, part_moments)).items():
        for j, k in enumerate(moments_to_free_cumulants(list(m))):
            kappa[j] += copies * k
    return free_cumulants_to_moments(kappa, N)


# ---------------------------------------------------------------------------
# free moment-cumulant recursions (exact integer arithmetic)
# ---------------------------------------------------------------------------

def moments_to_free_cumulants(moments: list[int]) -> list[int]:
    """Free cumulants ``k_1..k_N`` from moments ``[m_0=1, m_1, ..., m_N]``.

    Uses ``m_n = sum_s k_s * [z^(n-s)] M(z)^s`` with
    ``M(z) = sum m_j z^j``; solving for ``k_n`` keeps everything integral.
    """
    N = len(moments) - 1
    if N < 0 or moments[0] != 1:
        raise FusionError("moments must start with m_0 = 1")
    return _mc_recursion(list(moments), forward=False)


def free_cumulants_to_moments(cumulants: list[int], N: int | None = None) -> list[int]:
    """Moments ``[m_0..m_N]`` from free cumulants ``k_1..k_N`` (index 0 unused)."""
    kappa = list(cumulants)
    if N is None:
        N = len(kappa) - 1
    if len(kappa) < N + 1:
        raise FusionError("not enough cumulants")
    moments = [1] + [0] * N
    _mc_recursion(moments, forward=True, kappa=kappa)
    return moments


def _mc_recursion(moments: list[int], forward: bool, kappa: list[int] | None = None):
    # P[s][t] = [z^t] M(z)^s, filled along diagonals s + t = n so each entry
    # only ever consumes moments of lower order.
    N = len(moments) - 1
    if kappa is None:
        kappa = [0] * (N + 1)
    P: list[list[int]] = [[0] * (N + 1) for _ in range(N + 1)]
    P[0][0] = 1
    for n in range(1, N + 1):
        for s in range(1, n + 1):
            t = n - s
            if s == 1:
                P[s][t] = moments[t]
            else:
                # sum_j P[s-1][t-j] * moments[j], j = 0..t
                P[s][t] = sum(map(mul, P[s - 1][t::-1], moments))
        if forward:
            moments[n] = sum(kappa[s] * P[s][n - s] for s in range(1, n + 1))
        else:
            kappa[n] = moments[n] - sum(kappa[s] * P[s][n - s] for s in range(1, n))
    return moments if forward else kappa
