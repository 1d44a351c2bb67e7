"""Positive-parameter lists, quantum dimension and the modular spectrum.

A parameter is an exact monomial ``prod base^exponent`` with rational
exponents.  Bases are named formal generators (assumed multiplicatively
independent) or primes: positive rational constants are factored by trial
division up to ``TRIAL_DIVISION_LIMIT``, so ``2 in 4^Z`` is decided exactly.
Floats never enter the algebra; numeric evaluation is a separate step.

A list is a finite multiset of parameters held as a Laurent polynomial with
non-negative integer coefficients.  Its frame is ``(bases, denom)``: the
bases its entries use, sorted by ``_base_key``, and the lcm of their
exponent denominators; the entry ``prod b_i^(k_i/denom)`` is the integer
key ``k``, mapped to its multiplicity.  Lists add by adding counts,
multiply by adding keys and dualize by negating keys, so ``class -> list``
is a semiring morphism; lists of irreducibles are derived from the
fundamental list by subtracting known components' counts from products.

Each list is kept in its least frame, so equal lists have equal fields.  An
operation on two frames first widens both to their join: the union of the
bases, sorted by ``_base_key``, and the lcm of the denominators.  Widening
pads each key with zeros and scales it by ``lcm // denom``; narrowing to the
least frame drops zero columns and divides by a common factor.  Each of
these maps is one-to-one on keys, so keys stay distinct and in their order:
a list iterates its entries in order of first insertion, as it would with
``Param`` keys, and ``qdim`` sums in that order whatever frames it met.

The modular spectrum of a list is the subgroup of the positive reals
generated by all products ``p^2 q^2``: an integer lattice of keys in the
canonical Hermite normal form (entries above each pivot reduced top-down
into ``[0, pivot)``), so equal lattices have equal forms and membership is
a test of whether adding the member changes the form.
"""

from __future__ import annotations

import cmath
import math
import re
from collections import Counter
from fractions import Fraction
from functools import reduce
from operator import add
from typing import Iterable, Mapping, NamedTuple

from .core import BudgetExceededError, FusionElement, FusionError, FusionSystem, IrrLabel, Record


class InconsistentListError(FusionError):
    """A multiset subtraction failed while deriving irreducible lists."""


# ---------------------------------------------------------------------------
# parameters
# ---------------------------------------------------------------------------

TRIAL_DIVISION_LIMIT = 10 ** 6


def _factor_positive_rational(q: Fraction) -> dict[int, Fraction]:
    """Prime exponents of ``q``.  Every integer below ``TRIAL_DIVISION_LIMIT**2``
    factors; BudgetExceededError is raised when what is left after dividing out
    the primes up to the limit is at least ``(TRIAL_DIVISION_LIMIT + 1)**2``
    (a large prime, or a product of large primes)."""
    if q <= 0:
        raise FusionError(f"parameters must be positive, got {q}")
    out: dict[int, Fraction] = {}
    for value, sign in ((q.numerator, 1), (q.denominator, -1)):
        n, p = value, 2
        while p * p <= n:
            if p > TRIAL_DIVISION_LIMIT:
                raise BudgetExceededError(
                    f"cannot factor {value}: trial division stops at {TRIAL_DIVISION_LIMIT}")
            while n % p == 0:
                out[p] = out.get(p, Fraction(0)) + sign
                n //= p
            p += 1 if p == 2 else 2  # 2, then odd divisors only
        if n > 1:
            out[n] = out.get(n, Fraction(0)) + sign
    return {p: e for p, e in out.items() if e}


def _base_key(base) -> tuple[int, object]:
    return (0, base) if isinstance(base, int) else (1, base)


class Param(Record):
    """An exact positive monomial; the empty product is 1."""

    __slots__ = ("exponents",)

    def __init__(self, exponents: tuple[tuple[int | str, Fraction], ...] = ()):
        self._set(exponents)

    @staticmethod
    def _make(exps: Mapping) -> "Param":
        items = tuple(sorted(((b, e) for b, e in exps.items() if e), key=lambda it: _base_key(it[0])))
        return Param(items)

    @classmethod
    def one(cls) -> "Param":
        return cls()

    @classmethod
    def generator(cls, name: str, exponent: Fraction | int = 1) -> "Param":
        if not re.match(r"^[A-Za-z][A-Za-z0-9_]*$", name):
            raise FusionError(f"bad generator name {name!r}")
        return cls._make({name: Fraction(exponent)})

    @classmethod
    def from_rational(cls, value: Fraction | int, exponent: Fraction | int = 1) -> "Param":
        exps = _factor_positive_rational(Fraction(value))
        e = Fraction(exponent)
        return cls._make({p: f * e for p, f in exps.items()})

    @classmethod
    def parse(cls, text: str) -> "Param":
        """Parse ``"q^2*r^-1"``, ``"2^1/2"``, ``"1"``; bases are names or rationals.

        Only ``"1"`` spells the empty product; empty or blank text is an error.
        """
        text = text.strip()
        if not text:
            raise FusionError("empty parameter")
        acc = cls.one()
        for chunk in text.split("*"):
            chunk = chunk.strip()
            m = re.match(r"^([A-Za-z][A-Za-z0-9_]*|\d+(?:/\d+)?)(?:\^(-?\d+(?:/\d+)?))?$", chunk)
            if not m:
                raise FusionError(f"bad parameter syntax {chunk!r}")
            try:
                base, exp = m.group(1), Fraction(m.group(2)) if m.group(2) else Fraction(1)
                if base[0].isdigit():
                    acc = acc * cls.from_rational(Fraction(base), exp)
                else:
                    acc = acc * cls.generator(base, exp)
            except ZeroDivisionError:
                raise FusionError(f"zero denominator in parameter {chunk!r}") from None
        return acc

    def exponent_map(self) -> dict[int | str, Fraction]:
        return dict(self.exponents)

    def is_one(self) -> bool:
        return not self.exponents

    def __mul__(self, other: "Param") -> "Param":
        exps = dict(self.exponents)
        for b, e in other.exponents:
            exps[b] = exps.get(b, Fraction(0)) + e
        return Param._make(exps)

    def inv(self) -> "Param":
        return Param(tuple((b, -e) for b, e in self.exponents))

    def __pow__(self, k) -> "Param":
        k = Fraction(k)
        return Param._make({b: e * k for b, e in self.exponents})

    def eval(self, values: Mapping[str, float | Fraction] | None = None) -> float:
        """Numeric value given positive values for the named generators.

        A value that leaves the float range raises a FusionError naming
        the parameter.
        """
        values = values or {}
        out = 1.0
        for b, e in self.exponents:
            if isinstance(b, int):
                base = float(b)
            else:
                if b not in values:
                    raise FusionError(f"no numeric value for generator {b!r}")
                base = float(values[b])
                if base <= 0:
                    raise FusionError(f"generator {b!r} must be positive, got {base}")
            try:
                out *= base ** float(e)
            except OverflowError:
                out = math.inf
        if not 0.0 < out < math.inf:
            raise FusionError(f"parameter {self} leaves the float range")
        return out

    def __str__(self) -> str:
        return "*".join(str(b) if e == 1 else f"{b}^{e}" for b, e in self.exponents) or "1"


def _join(f: tuple, g: tuple) -> tuple:
    """The least frame holding frames ``f`` and ``g`` (the widening rule)."""
    if f == g:
        return f
    return tuple(sorted({*f[0], *g[0]}, key=_base_key)), math.lcm(f[1], g[1])


def _param(frame: tuple, key: tuple) -> Param:
    return Param(tuple((b, Fraction(e, frame[1])) for b, e in zip(frame[0], key) if e))


class ParamList:
    """A finite multiset of parameters: ``_counts`` maps integer keys over
    the least frame ``_frame`` to multiplicities, in order of first insertion."""

    __slots__ = ("_frame", "_counts")

    def __new__(cls, entries: Iterable[Param] = ()):
        entries = list(entries)
        for p in entries:
            if not isinstance(p, Param):
                raise FusionError(f"not a Param: {p!r}")
        bases = tuple(sorted({b for p in entries for b, _ in p.exponents}, key=_base_key))
        denom = math.lcm(*(e.denominator for p in entries for _, e in p.exponents))
        return cls._of((bases, denom), dict(Counter(
            tuple(int(p.exponent_map().get(b, 0) * denom) for b in bases) for p in entries)))

    def __setattr__(self, name, value):
        raise AttributeError("ParamList is immutable")

    @classmethod
    def _of(cls, frame: tuple, counts: dict) -> "ParamList":
        """The list with positive ``counts`` over ``frame``, narrowed to its least frame."""
        bases, denom = frame
        keep = [i for i in range(len(bases)) if any(k[i] for k in counts)]
        g = math.gcd(denom, *(e for k in counts for e in k)) if denom > 1 else 1
        if g > 1 or len(keep) < len(bases):
            frame = tuple(bases[i] for i in keep), denom // g
            counts = {tuple(k[i] // g for i in keep): m for k, m in counts.items()}
        out = object.__new__(cls)
        object.__setattr__(out, "_frame", frame)
        object.__setattr__(out, "_counts", counts)
        return out

    def _rekey(self, frame: tuple) -> dict:
        """``_counts`` widened to ``frame``, a ``_join`` of this list's frame."""
        if frame == self._frame:
            return self._counts
        own, scale = self._frame[0], frame[1] // self._frame[1]
        cols = [own.index(b) if b in own else None for b in frame[0]]
        return {tuple(0 if i is None else k[i] * scale for i in cols): m
                for k, m in self._counts.items()}

    @classmethod
    def kac(cls, n: int) -> "ParamList":
        return cls([Param.one()] * n)

    @classmethod
    def parse(cls, texts: Iterable[str]) -> "ParamList":
        return cls(Param.parse(t) for t in texts)

    def counts(self) -> Counter:
        return Counter({_param(self._frame, k): m for k, m in self._counts.items()})

    def entries(self) -> list[Param]:
        return sorted((p for p, m in self.counts().items() for _ in range(m)), key=str)

    def __len__(self) -> int:
        return sum(self._counts.values())

    def __eq__(self, other) -> bool:
        if isinstance(other, ParamList):
            return self._frame == other._frame and self._counts == other._counts
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self._frame, frozenset(self._counts.items())))

    def __repr__(self) -> str:
        return "{" + ", ".join(str(p) for p in self.entries()) + "}"

    def union(self, other: "ParamList") -> "ParamList":
        frame = _join(self._frame, other._frame)
        return ParamList._of(frame, Counter(self._rekey(frame)) + Counter(other._rekey(frame)))

    def product(self, other: "ParamList") -> "ParamList":
        frame = _join(self._frame, other._frame)
        right = other._rekey(frame).items()
        out: dict[tuple[int, ...], int] = {}
        for p, mp in self._rekey(frame).items():
            for q, mq in right:
                k = tuple(map(add, p, q))
                out[k] = out.get(k, 0) + mp * mq
        return ParamList._of(frame, out)

    def inverse(self) -> "ParamList":
        return ParamList._of(self._frame, {tuple(-e for e in k): m for k, m in self._counts.items()})

    def is_balanced_formal(self) -> bool:
        """Whether ``sum q^2 = sum q^-2`` holds identically (as formal monomials)."""
        return self == self.inverse()


def is_kac(l: ParamList) -> bool:
    """True iff every entry is the trivial parameter (``there are no q's``)."""
    return not l._frame[0]


def _float_power(p: Param, values: Mapping[str, float | Fraction] | None, k: int) -> float:
    try:
        return p.eval(values) ** k
    except OverflowError:
        raise FusionError(f"parameter {p} to the power {k} leaves the float range") from None


def qdim(l: ParamList, values: Mapping[str, float | Fraction] | None = None) -> float:
    """``sum q^2`` over the list; requires the balance ``sum q^2 = sum q^-2``."""
    fwd = sum(m * _float_power(p, values, 2) for p, m in l.counts().items())
    bwd = sum(m * _float_power(p, values, -2) for p, m in l.counts().items())
    if not math.isfinite(fwd + bwd):
        raise FusionError(f"the quantum dimension of {l!r} leaves the float range")
    scale = max(abs(fwd), abs(bwd), 1.0)
    if abs(fwd - bwd) > 1e-9 * scale:
        raise FusionError(
            f"unbalanced list: sum q^2 = {fwd!r} but sum q^-2 = {bwd!r}")
    return fwd


def trig_eval(l: ParamList, t: float,
              values: Mapping[str, float | Fraction] | None = None) -> complex:
    """``sum q^{2it}`` over the list (the trace of the squared modular
    generator raised to ``it``); constant ``size`` for Kac lists."""
    out = 0j
    for p, m in l.counts().items():
        out += m * cmath.exp(2j * t * cmath.log(p.eval(values)))
    return out


# ---------------------------------------------------------------------------
# derivation of irreducible lists
# ---------------------------------------------------------------------------

def _subtract(total: dict, part: dict, m: int, frame: tuple, what: str) -> None:
    """Take ``m`` copies of ``part`` out of ``total`` in place; both are keyed over ``frame``."""
    for k, c in part.items():
        if total.get(k, 0) < c * m:
            raise InconsistentListError(
                f"{what}: multiset subtraction not contained at {_param(frame, k)}")
        total[k] -= c * m
        if not total[k]:
            del total[k]


def derive_irreducible_lists(sys: FusionSystem, fund_list: ParamList,
                             depth: int) -> dict[IrrLabel, ParamList]:
    """Solve ``list(a) . list(fund) = union of component lists`` outward from the unit.

    ``fund`` is the family fundamental; its list is ``fund_list`` and must
    have size ``dim(fund)``.  Both the fundamental and its conjugate drive
    the breadth-first derivation, peeling known component lists by multiset
    subtraction.  Each frontier holds the labels first reached by a power
    of the self-conjugate ``fund + conj(fund)``, so it is already closed
    under conjugation.  Raises InconsistentListError when a subtraction is
    not contained or an ambiguous split has unequal parts.
    """
    fund = sys.fundamental()
    if len(fund_list) != sys.dim(fund):
        raise FusionError(
            f"fundamental list has size {len(fund_list)} but dim = {sys.dim(fund)}")

    known: dict[IrrLabel, ParamList] = {sys.unit: ParamList._of(((), 1), {(): 1})}
    drivers = [(fund, fund_list), (sys.conj_element(fund), fund_list.inverse())]

    def settle(x: FusionElement, x_list: ParamList, what: str) -> list[IrrLabel]:
        # distribute the list of a decomposed element over its components;
        # return the components this made known
        unknown = [(lab, m) for lab, m in x.items() if lab not in known]
        if not unknown:
            return []
        frame = reduce(_join, (known[lab]._frame for lab, _ in x.items() if lab in known),
                       x_list._frame)
        remainder = dict(x_list._rekey(frame))
        for lab, m in x.items():
            if lab in known:
                _subtract(remainder, known[lab]._rekey(frame), m, frame, what)
        if len(unknown) == 1:
            lab, m = unknown[0]
            for k, c in remainder.items():
                if c % m:
                    raise InconsistentListError(
                        f"{what}: multiplicity of {_param(frame, k)} not divisible by {m}")
            known[lab] = ParamList._of(frame, {k: c // m for k, c in remainder.items()})
            return [lab]
        # several unknown components: only an all-equal remainder splits evenly
        if len(remainder) == 1 and sum(remainder.values()) == sum(
                m * sys.dim_irr(lab) for lab, m in unknown):
            [p] = remainder
            for lab, _ in unknown:
                known[lab] = ParamList._of(frame, {p: sys.dim_irr(lab)})
            return [lab for lab, _ in unknown]
        raise InconsistentListError(
            f"{what}: cannot split a non-constant remainder over several unknowns")

    frontier = [sys.unit]
    for _ in range(depth):
        next_frontier: list[IrrLabel] = []
        for lab in frontier:
            for drv, drv_list in drivers:
                prod = sys.tensor_row(lab, drv)
                next_frontier += settle(prod, known[lab].product(drv_list),
                                        f"{lab.payload!r} (x) fund")
        if not next_frontier:
            break
        frontier = sorted(set(next_frontier), key=sys.sort_key)
    return known


# ---------------------------------------------------------------------------
# exponent lattices (Hermite normal form over a common denominator)
# ---------------------------------------------------------------------------

def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    x, nx, y, ny, g, ng = 1, 0, 0, 1, a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    return g, x, y


def hermite_normal_form(rows: list[list[int]]) -> list[list[int]]:
    """Row-style HNF: echelon with positive pivots, and every entry above a
    pivot reduced into ``[0, pivot)``.  The reduction runs top-down, so a row
    is reduced by a pivot only after every earlier pivot's column is final;
    the form is then unique for the lattice the rows span (Cohen 1993, 2.4.2)."""
    if not rows:
        return []
    ncols = len(rows[0])
    work = [list(r) for r in rows if any(r)]
    basis: list[list[int]] = []
    for col in range(ncols):
        pivot_rows = [r for r in work if r[col] != 0]
        rest = [r for r in work if r[col] == 0]
        if not pivot_rows:
            continue
        piv = pivot_rows[0]
        for r in pivot_rows[1:]:
            while r[col]:
                g, x, y = _xgcd(piv[col], r[col])
                a, b = piv[col] // g, r[col] // g
                piv[:], r[:] = ([x * u + y * v for u, v in zip(piv, r)],
                                [-b * u + a * v for u, v in zip(piv, r)])
            rest.append(r)
        if piv[col] < 0:
            piv = [-u for u in piv]
        basis.append(piv)
        work = rest
    # reduce entries above each pivot
    for i in range(len(basis)):
        pcol = next(c for c, u in enumerate(basis[i]) if u)
        for j in range(i):
            q = basis[j][pcol] // basis[i][pcol]
            if q:
                basis[j] = [u - q * v for u, v in zip(basis[j], basis[i])]
    return basis


class ExponentLattice(NamedTuple):
    """A finitely generated subgroup of the positive reals.

    Stored as the least frame of its generators (primes, then named
    generators) and the rows of their keys' canonical Hermite normal form,
    so the fields decide equality and hashing.
    """

    bases: tuple = ()
    denominator: int = 1
    rows: tuple = ()

    @classmethod
    def from_params(cls, params: Iterable[Param] | ParamList) -> "ExponentLattice":
        """The lattice the parameters generate; a list's keys are the rows, over its frame."""
        gens = params if isinstance(params, ParamList) else ParamList(params)
        hnf = hermite_normal_form([list(k) for k in gens._counts])
        return cls(*gens._frame, tuple(map(tuple, hnf))) if hnf else cls()

    def contains(self, p: Param) -> bool:
        """Whether ``p`` is in the lattice: adding it leaves the canonical form unchanged."""
        frame, member = (self.bases, self.denominator), ParamList([p])
        if _join(frame, member._frame) != frame:  # a base or a denominator the lattice lacks
            return False
        hnf = hermite_normal_form([*self.rows, next(iter(member._rekey(frame)))])
        return tuple(map(tuple, hnf)) == self.rows

    def __repr__(self) -> str:
        if not self.rows:
            return "ExponentLattice(trivial)"
        return (f"ExponentLattice(bases={self.bases}, denominator={self.denominator}, "
                f"rows={self.rows})")

    def describe(self) -> dict:
        return {"bases": [str(b) for b in self.bases], "denominator": self.denominator,
                "hnf_rows": [list(r) for r in self.rows]}


def modular_spectrum(l: ParamList) -> ExponentLattice:
    """The subgroup generated by all ``p^2 q^2`` with p, q in the list.

    Its ``n`` products ``(p_1 q)^2`` generate it, as ``(p_i p_j)^2 = (p_1 p_i)^2
    (p_1 p_j)^2 / (p_1 p_1)^2``; every generating set has the group's least common
    denominator and the Hermite normal form is canonical, so the form is unchanged.
    """
    keys = list(l._counts)
    gens = {tuple(2 * (a + b) for a, b in zip(keys[0], k)): 1 for k in keys}
    return ExponentLattice.from_params(ParamList._of(l._frame, gens))
