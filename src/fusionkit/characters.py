"""Character star-moments computed through fusion, plus combinatorial oracles.

The moment of a two-letter monomial ``M`` in ``X, X*`` against a pointed
system ``(sys, u)`` is the multiplicity of the unit in the tensor word
obtained by substituting ``X -> u`` and ``X* -> conj(u)``.  By Frobenius
reciprocity that multiplicity pairs the products of the two halves of the
word, ``multiplicity(unit, A (x) B) = sum_c A_c B_{conj c}``, so a mixed
word of length ``L`` costs two products of length about ``L/2`` and the
full product is never formed.  A word is a plain power when ``u`` is
self-conjugate or every letter is the same (``mult(1, conj y) =
mult(1, y)``); such words, and moment sequences, come from
``FusionSystem.unit_moments``, which counts the closed walks of declared
chains, joins free parts by free cumulants or forms powers to half the
depth.
Noncrossing pairing enumeration and the Catalan numbers provide
independent cross-checks for these counts.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .core import FusionElement, FusionError, FusionSystem


@dataclass(frozen=True, slots=True)
class StarWord:
    """A finite word in the letters ``X`` and ``X*``.

    ``stars[i]`` is True where the i-th letter is starred.  The empty word
    stands for the constant monomial 1.
    """

    stars: tuple[bool, ...] = ()

    @classmethod
    def from_string(cls, text: str) -> "StarWord":
        stars: list[bool] = []
        for c in text.strip():
            if c == "X":
                stars.append(False)
            elif c == "*":
                if not stars:
                    raise FusionError(f"stray '*' in star word {text!r}")
                if stars[-1]:
                    raise FusionError(f"double star in {text!r}")
                stars[-1] = True
            elif not c.isspace():
                raise FusionError(f"bad character {c!r} in star word {text!r}")
        return cls(tuple(stars))

    @classmethod
    def alternating(cls, k: int) -> "StarWord":
        """The word ``(X X*)^k``."""
        return cls((False, True) * k)

    @classmethod
    def plain(cls, k: int) -> "StarWord":
        """The word ``X^k``."""
        return cls((False,) * k)

    def __len__(self) -> int:
        return len(self.stars)

    def __str__(self) -> str:
        return "".join("X*" if s else "X" for s in self.stars) or "1"


def as_star_word(w: StarWord | str) -> StarWord:
    return StarWord.from_string(w) if isinstance(w, str) else w


def moment(sys: FusionSystem, u: FusionElement, w: StarWord | str) -> int:
    """Multiplicity of the unit in the word ``w`` evaluated at ``(u, conj u)``."""
    w = as_star_word(w)
    sys.check_element(u)
    ubar = sys.conj_element(u)
    if ubar == u or len(set(w.stars)) < 2:  # mult(1, conj y) = mult(1, y)
        return sys.unit_moments(u, len(w))[-1]
    half = len(w) // 2

    def product(stars):
        for acc in sys.products(ubar if starred else u for starred in stars):
            pass
        return acc

    return sys.unit_mult(product(w.stars[:half]), product(w.stars[half:]))


def moment_sequence(sys: FusionSystem, u: FusionElement, K: int) -> list[int]:
    """Moments of the plain words ``X^l`` for l = 1..K.

    For self-conjugate ``u`` these are the moments of its character; in the
    step-2 interval family all odd entries vanish.
    """
    if K < 1:
        raise FusionError(f"K must be >= 1, got {K}")
    return sys.unit_moments(u, K)[1:]


def noncrossing_pairing_count(w: StarWord | str, kind: str = "self-adjoint") -> int:
    """Number of noncrossing pair partitions of the letter positions.

    ``kind="self-adjoint"`` places no constraint on the paired letters;
    ``kind="alternating"`` requires every pair to join an X with an X*.
    """
    w = as_star_word(w)
    if kind not in ("self-adjoint", "alternating"):
        raise FusionError(f"unknown kind {kind!r}")
    alternating = kind == "alternating"
    stars = w.stars

    @functools.cache
    def count(i: int, j: int) -> int:
        if i == j:
            return 1
        if (j - i) % 2:
            return 0
        total = 0
        for m in range(i + 1, j, 2):
            if alternating and stars[i] == stars[m]:
                continue
            total += count(i + 1, m) * count(m + 1, j)
        return total

    return count(0, len(stars))


def catalan(k: int) -> int:
    """The k-th Catalan number, ``C(2k, k) / (k + 1)``."""
    if k < 0:
        raise FusionError(f"k must be >= 0, got {k}")
    return math.comb(2 * k, k) // (k + 1)
