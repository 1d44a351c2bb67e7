"""Closed forms and enumerations that check fusionkit's outputs.

None of these calls into fusionkit.  The moment laws are Kesten's
(Trans. AMS 92, 1959) for group duals and Banica's (C. R. Acad. Sci. 322,
1996; Comm. Math. Phys. 190, 1997) for the free quantum groups.

Group words are handled in *letter form*: a list of unit steps of the
normal-form prefix tree.  A ``Z`` factor ``f`` has the letters ``(f, 1)``
and ``(f, -1)``; a ``Z/m`` factor has one letter ``(f, e)`` per exponent
``1 <= e < m``.  In letter form a cylinder ``Cyl(p)`` is the set of words
that have ``p`` as a list prefix.
"""

from __future__ import annotations

import math
from math import comb

# Exact operator norms of (the real part of) the fundamental character,
# which amenability estimates converge to.
NORMS = {
    "a_o": 2.0,                       # semicircle on [-2, 2]
    "aut": 4.0,                       # free Poisson on [0, 4]
    "a_u": math.sqrt(2.0),            # (c + c*)/2 for a circular c
    "f2": 1.0 + 2.0 * math.sqrt(3.0),  # Kesten: 1 + 2 sqrt(2n - 1), n = 2
    "zd2": 5.0,                       # 2d + 1 for Z^d, d = 2
}


def catalan(k: int) -> int:
    return comb(2 * k, k) // (k + 1)


# ---------------------------------------------------------------------------
# Kesten counts c_2k = mult(unit, (u + conj u)^2k), k = 1..K, and the
# cross counts p_k = mult(unit, (u conj u)^k)
# ---------------------------------------------------------------------------

def ao_counts(K: int) -> tuple[list[int], list[int]]:
    """a_o: u is self-conjugate with semicircular character, m_2k = C_k."""
    return [4 ** k * catalan(k) for k in range(1, K + 1)], \
        [catalan(k) for k in range(1, K + 1)]


def aut_counts(K: int) -> tuple[list[int], list[int]]:
    """aut: u = s0 + s1 is self-conjugate with free Poisson character, m_j = C_j."""
    return [4 ** k * catalan(2 * k) for k in range(1, K + 1)], \
        [catalan(2 * k) for k in range(1, K + 1)]


def au_counts(K: int) -> tuple[list[int], list[int]]:
    """a_u: u + conj u is semicircular of variance 2, u conj u is free Poisson."""
    return [2 ** k * catalan(k) for k in range(1, K + 1)], \
        [catalan(k) for k in range(1, K + 1)]


def tree_walks(degree: int, n: int) -> list[int]:
    """Closed walks of length 0..n at a vertex of the ``degree``-regular tree.

    Walks are counted by distance from the start: from the root every step
    goes out; elsewhere one step goes back and ``degree - 1`` go out.
    """
    out = [1]
    layer = [1]  # layer[d] = walks ending at distance d
    for _ in range(n):
        nxt = [0] * (len(layer) + 1)
        for d, w in enumerate(layer):
            if not w:
                continue
            if d == 0:
                nxt[1] += degree * w
            else:
                nxt[d - 1] += w
                nxt[d + 1] += (degree - 1) * w
        layer = nxt
        out.append(layer[0])
    return out


def z2_walks(n: int) -> list[int]:
    """Closed walks of length 0..n on Z^2: C(2l, l)^2 for length 2l."""
    return [comb(j, j // 2) ** 2 if j % 2 == 0 else 0 for j in range(n + 1)]


def lazy_moments(walks: list[int]) -> list[int]:
    """Moments of unit + adjacency: m_j = sum_i C(j, i) walks_i."""
    return [sum(comb(j, i) * walks[i] for i in range(j + 1)) for j in range(len(walks))]


def group_counts(walks: list[int], K: int) -> tuple[list[int], list[int]]:
    """Counts for the self-conjugate generator e + (standard generators)^+-1."""
    m = lazy_moments(walks[: 2 * K + 1])
    return [4 ** k * m[2 * k] for k in range(1, K + 1)], \
        [m[2 * k] for k in range(1, K + 1)]


def f2_counts(K: int) -> tuple[list[int], list[int]]:
    return group_counts(tree_walks(4, 2 * K), K)


def z2_counts(K: int) -> tuple[list[int], list[int]]:
    return group_counts(z2_walks(2 * K), K)


def z2_moments(n: int) -> list[int]:
    return lazy_moments(z2_walks(n))


def noncrossing_alternating(stars) -> int:
    """Noncrossing pairings of a star word that join each X to an X*.

    These are the moments of a circular element, the fundamental character
    law of the free unitary family.
    """
    stars = tuple(stars)
    memo: dict[tuple[int, int], int] = {}

    def count(i: int, j: int) -> int:
        if i == j:
            return 1
        if (j - i) % 2:
            return 0
        if (i, j) not in memo:
            memo[(i, j)] = sum(count(i + 1, m) * count(m + 1, j)
                               for m in range(i + 1, j, 2) if stars[i] != stars[m])
        return memo[(i, j)]

    return count(0, len(stars))


# ---------------------------------------------------------------------------
# ball sizes of the generator e + s^+-1 + ...
# ---------------------------------------------------------------------------

def f2_ball(r: int) -> int:
    return 2 * 3 ** r - 1


def z2_ball(r: int) -> int:
    return 2 * r * r + 2 * r + 1


def modular_ball(r: int) -> int:
    """Z/2 * Z/3 with generators a, b, b^2: words alternate a and b^+-1."""
    return 1 + sum(2 ** (i // 2) + 2 ** ((i + 1) // 2) for i in range(1, r + 1))


# ---------------------------------------------------------------------------
# free products of cyclic groups in letter form
# ---------------------------------------------------------------------------

class FreeProduct:
    """Reduced words of a free product of cyclic groups, one letter per step.

    ``factors`` follows fusionkit's convention: ``None`` for ``Z`` and ``m``
    for ``Z/m``.
    """

    def __init__(self, factors):
        self.factors = tuple(factors)
        self.letters: list[tuple[int, int]] = []
        for f, m in enumerate(self.factors):
            exps = (1, -1) if m is None else range(1, m)
            self.letters.extend((f, e) for e in exps)

    def push(self, word: list, letter: tuple[int, int]) -> None:
        f, e = letter
        if word and word[-1][0] == f:
            m = self.factors[f]
            if m is None:
                if word[-1][1] == -e:
                    word.pop()
                    return
            else:
                e = (word.pop()[1] + e) % m
                if e == 0:
                    return
        word.append((f, e))

    def mul(self, u, v) -> tuple:
        out = list(u)
        for letter in v:
            self.push(out, letter)
        return tuple(out)

    def inverse(self, u) -> tuple:
        out: list = []
        for f, e in reversed(u):
            m = self.factors[f]
            self.push(out, (f, -e if m is None else m - e))
        return tuple(out)

    def followers(self, word) -> list[tuple[int, int]]:
        """Letters that extend ``word`` to a longer reduced word."""
        if not word:
            return list(self.letters)
        f, e = word[-1]
        if self.factors[f] is None:
            return [l for l in self.letters if l[0] != f or l[1] == e]
        return [l for l in self.letters if l[0] != f]

    def words_upto(self, r: int) -> list[tuple]:
        """All reduced words with at most ``r`` letters, shortest first."""
        out: list[tuple] = [()]
        layer: list[tuple] = [()]
        for _ in range(r):
            layer = [w + (l,) for w in layer for l in self.followers(w)]
            out.extend(layer)
        return out

    def random_word(self, rng, length: int) -> tuple:
        word: tuple = ()
        for _ in range(length):
            word += (rng.choice(self.followers(word)),)
        return word

    def automorphism(self, rng):
        """A random automorphism that maps letters to letters, as a map on words.

        It permutes factors of the same order, inverts ``Z`` factors and
        raises ``Z/m`` letters to a power prime to ``m``.  It maps the
        prefix tree onto itself, so translates, cylinders and the work of
        computing them keep their shape.
        """
        by_order: dict = {}
        for f, m in enumerate(self.factors):
            by_order.setdefault(m, []).append(f)
        perm = {}
        for fs in by_order.values():
            image = fs[:]
            rng.shuffle(image)
            perm.update(zip(fs, image))
        scale = {f: rng.choice((1, -1) if m is None else
                               [u for u in range(1, m) if math.gcd(u, m) == 1])
                 for f, m in enumerate(self.factors)}

        def letter(f, e):
            m = self.factors[f]
            return perm[f], scale[f] * e if m is None else scale[f] * e % m

        return lambda word: tuple(letter(f, e) for f, e in word)

    def to_payload(self, word) -> tuple:
        """fusionkit's syllable tuple ``((factor, exponent), ...)``."""
        out: list[list[int]] = []
        for f, e in word:
            if out and out[-1][0] == f and self.factors[f] is None:
                out[-1][1] += e
            else:
                out.append([f, e])
        return tuple((f, e) for f, e in out)

    def from_payload(self, payload) -> tuple:
        out: list[tuple[int, int]] = []
        for f, e in payload:
            if self.factors[f] is None:
                out.extend([(f, 1 if e > 0 else -1)] * abs(e))
            else:
                out.append((f, e))
        return tuple(out)

    def text(self, word, names) -> str:
        """The CLI spelling of a word, e.g. ``s t^-1``."""
        bits = [names[f] if e == 1 else f"{names[f]}^{e}" for f, e in self.to_payload(word)]
        return " ".join(bits) if bits else "e"


class LetterSet:
    """``(cylinders or included words) minus excluded words``, in letter form.

    Mirrors fusionkit's ``WordSet`` semantics: a word listed as included is
    a member even when it is also excluded.
    """

    def __init__(self, cylinders=(), includes=(), excludes=()):
        self.cylinders = tuple(cylinders)
        self.includes = frozenset(includes)
        self.excludes = frozenset(excludes)

    def mapped(self, fn) -> "LetterSet":
        return LetterSet(map(fn, self.cylinders), map(fn, self.includes),
                         map(fn, self.excludes))

    def member(self, word) -> bool:
        if word in self.includes:
            return True
        return word not in self.excludes and any(
            word[: len(p)] == p for p in self.cylinders)


def members_within(member, group: FreeProduct, r: int) -> set:
    """The words of at most ``r`` letters that satisfy ``member``."""
    return {w for w in group.words_upto(r) if member(w)}


def translate_within(group: FreeProduct, member, left, right, r: int) -> set:
    """Words of at most ``r`` letters in ``left . S . right``.

    A word of the translate with ``r`` letters comes from a member of ``S``
    with at most ``r + |left| + |right|`` letters, so enumerating that far
    finds all of them.
    """
    reach = r + len(left) + len(right)
    out = set()
    for w in group.words_upto(reach):
        if member(w):
            image = group.mul(group.mul(left, w), right)
            if len(image) <= r:
                out.add(image)
    return out
