"""Positive-parameter lists, quantum dimension and the modular spectrum.

A parameter is an exact monomial ``prod base^exponent`` in positive
generators with rational exponents.  Bases are either named formal
generators (assumed multiplicatively independent) or prime numbers:
positive rational constants are factored into primes on construction (by
trial division up to ``TRIAL_DIVISION_LIMIT``), so statements like
``2 in 4^Z`` are decided exactly.  Floats never enter the
algebra; numeric evaluation is a separate explicit step.

Lists are finite multisets of parameters.  They add by multiset union,
multiply by pairwise products and dualize by entrywise inversion, which
makes the assignment ``class -> list`` a semiring morphism; lists for
irreducibles are derived from the fundamental list by peeling known
components off tensor products (multiset subtraction).

The modular spectrum of a list is the subgroup of the positive reals
generated by all products ``p^2 q^2``; it is represented as an integer
lattice of exponent vectors over a common denominator, in the canonical
Hermite normal form (entries above each pivot reduced top-down into
``[0, pivot)``), so equal lattices have equal forms and membership is a test
of whether adding the member changes the form.
"""

from __future__ import annotations

import cmath
import math
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .core import BudgetExceededError, FusionElement, FusionError, FusionSystem, IrrLabel


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
        n = value
        p = 2
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


@dataclass(frozen=True, slots=True)
class Param:
    """An exact positive monomial; the empty product is 1."""

    exponents: tuple[tuple[int | str, Fraction], ...] = ()

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
        if text == "1":
            return cls.one()
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
        if not self.exponents:
            return "1"
        bits = []
        for b, e in self.exponents:
            head = str(b)
            bits.append(head if e == 1 else f"{head}^{e}")
        return "*".join(bits)


class ParamList:
    """A finite multiset of parameters."""

    __slots__ = ("_counts",)

    def __init__(self, entries: Iterable[Param] = ()):
        counts: Counter[Param] = Counter()
        for p in entries:
            if not isinstance(p, Param):
                raise FusionError(f"not a Param: {p!r}")
            counts[p] += 1
        object.__setattr__(self, "_counts", counts)

    def __setattr__(self, name, value):
        raise AttributeError("ParamList is immutable")

    @classmethod
    def from_counts(cls, counts: Mapping[Param, int]) -> "ParamList":
        acc: Counter[Param] = Counter()
        for p, m in counts.items():
            if m < 0:
                raise FusionError("negative multiplicity in list")
            if m:
                acc[p] = m
        out = cls()
        out._counts.update(acc)
        return out

    @classmethod
    def kac(cls, n: int) -> "ParamList":
        return cls([Param.one()] * n)

    @classmethod
    def parse(cls, texts: Iterable[str]) -> "ParamList":
        return cls(Param.parse(t) for t in texts)

    def counts(self) -> Counter:
        return Counter(self._counts)

    def entries(self) -> list[Param]:
        out: list[Param] = []
        for p, m in sorted(self._counts.items(), key=lambda it: str(it[0])):
            out.extend([p] * m)
        return out

    def __len__(self) -> int:
        return sum(self._counts.values())

    def __eq__(self, other) -> bool:
        if isinstance(other, ParamList):
            return self._counts == other._counts
        return NotImplemented

    def __hash__(self) -> int:
        return hash(frozenset(self._counts.items()))

    def __repr__(self) -> str:
        return "{" + ", ".join(str(p) for p in self.entries()) + "}"

    def union(self, other: "ParamList") -> "ParamList":
        return ParamList.from_counts(self._counts + other._counts)

    def product(self, other: "ParamList") -> "ParamList":
        out: Counter[Param] = Counter()
        for p, mp in self._counts.items():
            for q, mq in other._counts.items():
                out[p * q] += mp * mq
        return ParamList.from_counts(out)

    def inverse(self) -> "ParamList":
        return ParamList.from_counts(Counter({p.inv(): m for p, m in self._counts.items()}))

    def is_balanced_formal(self) -> bool:
        """Whether ``sum q^2 = sum q^-2`` holds identically (as formal monomials)."""
        sq = Counter({p ** 2: m for p, m in self._counts.items()})
        inv_sq = Counter({(p.inv()) ** 2: m for p, m in self._counts.items()})
        return sq == inv_sq


def is_kac(l: ParamList) -> bool:
    """True iff every entry is the trivial parameter (``there are no q's``)."""
    return all(p.is_one() for p in l.counts())


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

def _subtract(total: Counter, part: Counter, what: str) -> Counter:
    out = Counter(total)
    for p, m in part.items():
        if out.get(p, 0) < m:
            raise InconsistentListError(f"{what}: multiset subtraction not contained at {p}")
        out[p] -= m
    return out + Counter()


def _divide(counts: Counter, k: int, what: str) -> Counter:
    if k == 1:
        return counts
    out: Counter = Counter()
    for p, m in counts.items():
        if m % k:
            raise InconsistentListError(f"{what}: multiplicity of {p} not divisible by {k}")
        out[p] = m // k
    return out


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

    known: dict[IrrLabel, ParamList] = {sys.unit: ParamList([Param.one()])}
    drivers = [(fund, fund_list), (sys.conj_element(fund), fund_list.inverse())]

    def settle(x: FusionElement, x_list: ParamList, what: str) -> list[IrrLabel]:
        # distribute the list of a decomposed element over its components;
        # return the components this made known
        unknown = [(lab, m) for lab, m in x.items() if lab not in known]
        if not unknown:
            return []
        remainder = x_list.counts()
        for lab, m in x.items():
            if lab in known:
                part = Counter({p: c * m for p, c in known[lab].counts().items()})
                remainder = _subtract(remainder, part, what)
        if len(unknown) == 1:
            lab, m = unknown[0]
            known[lab] = ParamList.from_counts(_divide(remainder, m, what))
            return [lab]
        # several unknown components: only an all-equal remainder splits evenly
        distinct = set(remainder)
        total = sum(remainder.values())
        dims = sum(m * sys.dim_irr(lab) for lab, m in unknown)
        if len(distinct) == 1 and total == dims:
            p = next(iter(distinct))
            for lab, _ in unknown:
                known[lab] = ParamList([p] * sys.dim_irr(lab))
            return [lab for lab, _ in unknown]
        raise InconsistentListError(
            f"{what}: cannot split a non-constant remainder over several unknowns")

    frontier = [sys.unit]
    for _ in range(depth):
        next_frontier: list[IrrLabel] = []
        for lab in frontier:
            for drv, drv_list in drivers:
                prod = sys.tensor(FusionElement.from_label(lab), drv)
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
            work = rest
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


@dataclass(frozen=True, slots=True)
class ExponentLattice:
    """A finitely generated subgroup of the positive reals.

    Stored as exponent vectors over an ordered base tuple (primes then
    named generators), scaled by the least common denominator, with rows in
    the canonical Hermite normal form (entries above each pivot in
    ``[0, pivot)``), so the fields decide equality and hashing.
    """

    bases: tuple = ()
    denominator: int = 1
    rows: tuple = ()

    @classmethod
    def from_params(cls, params: Iterable[Param]) -> "ExponentLattice":
        params = list(params)
        bases = sorted({b for p in params for b, _ in p.exponents}, key=_base_key)
        # the lcm of the generators' denominators is the least one that makes
        # the lattice integral, so the rows share no factor with it
        denom = 1
        for p in params:
            for _, e in p.exponents:
                denom = math.lcm(denom, e.denominator)
        rows = []
        for p in params:
            exps = p.exponent_map()
            rows.append([int(exps.get(b, Fraction(0)) * denom) for b in bases])
        hnf = hermite_normal_form(rows)
        if not hnf:
            return cls()
        keep = [i for i in range(len(bases)) if any(r[i] for r in hnf)]
        return cls(tuple(bases[i] for i in keep), denom,
                   tuple(tuple(r[i] for i in keep) for r in hnf))

    def contains(self, p: Param) -> bool:
        """Whether ``p`` is in the lattice: adding it leaves the canonical form unchanged."""
        exps = p.exponent_map()
        if any(b not in self.bases for b in exps):
            return False
        target = [exps.get(b, Fraction(0)) * self.denominator for b in self.bases]
        if any(u.denominator != 1 for u in target):
            return False
        hnf = hermite_normal_form([*self.rows, [int(u) for u in target]])
        return tuple(map(tuple, hnf)) == self.rows

    def __repr__(self) -> str:
        if not self.rows:
            return "ExponentLattice(trivial)"
        return (f"ExponentLattice(bases={self.bases}, denominator={self.denominator}, "
                f"rows={self.rows})")

    def describe(self) -> dict:
        return {
            "bases": [str(b) for b in self.bases],
            "denominator": self.denominator,
            "hnf_rows": [list(r) for r in self.rows],
        }


def modular_spectrum(l: ParamList) -> ExponentLattice:
    """The subgroup generated by all ``p^2 q^2`` with p, q in the list.

    Its ``n`` products ``(p_1 q)^2`` generate it, as ``(p_i p_j)^2 = (p_1 p_i)^2
    (p_1 p_j)^2 / (p_1 p_1)^2``; every generating set has the group's least common
    denominator and the Hermite normal form is canonical, so the form is unchanged.
    """
    entries = list(l.counts())
    gens = [(entries[0] * q) ** 2 for q in entries]
    return ExponentLattice.from_params(gens)
