import itertools

import pytest

import fusionkit as fk
from fusionkit import StarWord

from conftest import tensor_power


# -- independent oracle: enumerate *all* pairings, filter crossings by hand

def brute_pairings(letters, alternating):
    n = len(letters)
    if n % 2:
        return 0
    positions = list(range(n))

    def all_pairings(avail):
        if not avail:
            yield []
            return
        first = avail[0]
        for i in range(1, len(avail)):
            rest = avail[1:i] + avail[i + 1:]
            for tail in all_pairings(rest):
                yield [(first, avail[i])] + tail

    def noncrossing(pairs):
        for (a, b), (c, d) in itertools.combinations(pairs, 2):
            if a < c < b < d or c < a < d < b:
                return False
        return True

    count = 0
    for pairs in all_pairings(positions):
        if not noncrossing(pairs):
            continue
        if alternating and any(letters[i] == letters[j] for i, j in pairs):
            continue
        count += 1
    return count


def brute_nc_partitions(n):
    """Number of noncrossing set partitions of n points, by exhaustion."""
    if n == 0:
        return 1
    count = 0

    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for sub in partitions(rest):
            yield [[first]] + sub
            for i, block in enumerate(sub):
                yield sub[:i] + [[first] + block] + sub[i + 1:]

    def noncrossing(part):
        for b1, b2 in itertools.combinations(part, 2):
            for a, b in itertools.combinations(b1, 2):
                if any(a < c < b for c in b2) and any(c < a or c > b for c in b2):
                    return False
        return True

    for part in partitions(list(range(n))):
        if noncrossing(part):
            count += 1
    return count


def test_star_word_parsing():
    w = StarWord.from_string("XX*XX*")
    assert str(w) == "XX*XX*"
    assert len(w) == 4
    assert str(StarWord.from_string("")) == "1"
    assert StarWord.alternating(2) == StarWord.from_string("XX*XX*")
    assert StarWord.plain(3) == StarWord.from_string("XXX")
    with pytest.raises(fk.FusionError):
        StarWord.from_string("*X")
    with pytest.raises(fk.FusionError):
        StarWord.from_string("X**")


def test_catalan():
    assert fk.catalan(0) == 1
    assert fk.catalan(3) == 5
    assert fk.catalan(10) == 16796
    # cross-check against exhaustive noncrossing partition counting
    for k in range(0, 8):
        assert fk.catalan(k) == brute_nc_partitions(k)


def test_noncrossing_pairing_count_examples():
    assert fk.noncrossing_pairing_count("XX", "self-adjoint") == 1
    assert fk.noncrossing_pairing_count("X" * 8, "self-adjoint") == 14  # C_4
    # computed by the exhaustive oracle (1, not 2: (X X)(X* X*) pairs equal letters)
    assert brute_pairings([False, False, True, True], alternating=True) == 1
    assert fk.noncrossing_pairing_count("XXX*X*", "alternating") == 1
    assert fk.noncrossing_pairing_count("XXX", "self-adjoint") == 0


def test_noncrossing_pairing_against_brute_force(rng):
    for _ in range(40):
        n = rng.randint(0, 8)
        letters = [rng.random() < 0.5 for _ in range(n)]
        word = StarWord(tuple(letters))
        for kind, alt in (("self-adjoint", False), ("alternating", True)):
            assert fk.noncrossing_pairing_count(word, kind) == brute_pairings(letters, alt)


def test_moment_empty_word(ao2):
    assert fk.moment(ao2, ao2.fundamental(), StarWord()) == 1


def test_moment_examples(ao3, au2, aut4):
    u3 = ao3.fundamental()
    assert fk.moment(ao3, u3, "XXXX") == 2  # C_2
    ua = au2.fundamental()
    assert fk.moment(au2, ua, StarWord.alternating(3)) == 5  # C_3
    assert fk.moment(au2, ua, "XXX*X*") == 1
    uf = fk.fundamental(aut4)
    assert [fk.moment(aut4, uf, StarWord.plain(k)) for k in (1, 2, 3)] == [1, 2, 5]


def test_moment_sequence(ao2, aut4):
    seq = fk.moment_sequence(ao2, ao2.fundamental(), 6)
    assert seq == [0, 1, 0, 2, 0, 5]
    seq = fk.moment_sequence(aut4, fk.fundamental(aut4), 3)
    assert seq == [1, 2, 5]


def test_moment_sequence_of_a_free_product_takes_the_cumulant_path(zmod3, monkeypatch):
    u = fk.parse_element(zmod3, "e + g + g^-1 + h + h^2")
    calls = []
    inverse = fk.core.moments_to_free_cumulants

    def counted(moments):
        calls.append(tuple(moments))
        return inverse(moments)

    monkeypatch.setattr(fk.core, "moments_to_free_cumulants", counted)
    seq = fk.moment_sequence(zmod3, u, 8)
    assert calls
    assert seq == [tensor_power(zmod3, u, n).mult(zmod3.unit) for n in range(1, 9)]


@pytest.mark.parametrize("n", [2, 3])
def test_oracle_equivalence_ao(n):
    sys = fk.AoSystem(n)
    u = sys.fundamental()
    for length in range(0, 9):
        for bits in itertools.product([False, True], repeat=length):
            w = StarWord(bits)
            expected = fk.noncrossing_pairing_count(w, "self-adjoint")
            assert fk.moment(sys, u, w) == expected


def test_oracle_equivalence_au_alternating(au2):
    u = au2.fundamental()
    for k in range(1, 9):
        w = StarWord.alternating(k)
        assert fk.moment(au2, u, w) == fk.catalan(k)
        assert fk.noncrossing_pairing_count(w, "alternating") == fk.catalan(k)


def test_moment_invariant_under_relabeling(ao3):
    # moments only see the pointed semiring: rebuild the same rules under a
    # label bijection and compare
    class Shifted(fk.FusionSystem):
        def __init__(self, base):
            super().__init__(base.family_id + "#shifted")
            self.base = base
            self._unit = self.label(base.unit.payload * 7)

        def validate_payload(self, payload):
            return payload

        def _tensor_irr(self, a, b):
            prod = self.base.tensor_pair(self._down(a), self._down(b))
            return fk.FusionElement({self._up(c): m for c, m in prod.items()})

        def conj_irr(self, a):
            return self._up(self.base.conj_irr(self._down(a)))

        def dim_irr(self, a):
            return self.base.dim_irr(self._down(a))

        def sort_key(self, label):
            return label.payload

        def _up(self, lab):
            return self.label(lab.payload * 7)

        def _down(self, lab):
            return self.base.label(lab.payload // 7)

    shifted = Shifted(ao3)
    u = ao3.fundamental()
    us = fk.FusionElement({shifted.label(2 * 7): 1})
    for length in range(0, 7):
        for bits in itertools.product([False, True], repeat=length):
            w = StarWord(bits)
            assert fk.moment(ao3, u, w) == fk.moment(shifted, us, w)


def test_moment_reverse_star_symmetry(ao3, aut4, rng):
    for sys in (ao3, aut4):
        u = fk.fundamental(sys)
        assert sys.conj_element(u) == u
        for _ in range(30):
            bits = tuple(rng.random() < 0.5 for _ in range(rng.randint(1, 7)))
            w = StarWord(bits)
            adjoint = StarWord(tuple(not s for s in reversed(bits)))
            assert fk.moment(sys, u, w) == fk.moment(sys, u, adjoint)


def moment_left_to_right(sys, u, w):
    """Oracle: the full product of the word, letter by letter, then its unit part."""
    ubar = sys.conj_element(u)
    acc = sys.unit_element()
    for starred in w.stars:
        acc = sys.tensor(acc, ubar if starred else u)
    return acc.mult(sys.unit)


def test_moment_matches_left_to_right_product(au2, aut4, rng):
    cases = [(au2, au2.fundamental()),
             (au2, fk.parse_element(au2, "a + 2*ab")),
             (aut4, fk.fundamental(aut4))]
    for sys, u in cases:
        words = [StarWord(), StarWord((True,)), StarWord((False, True, True))]
        words += [StarWord(tuple(rng.random() < 0.5 for _ in range(rng.randint(1, 9))))
                  for _ in range(25)]
        assert any(len(w) % 2 for w in words)
        for w in words:
            assert fk.moment(sys, u, w) == moment_left_to_right(sys, u, w), (sys, u, str(w))


@pytest.mark.parametrize("family, u, words, want", [
    ("f2", "e + s + s^-1 + t + t^-1", ("X*" * 40, "X" * 40, "XX*" * 20),
     1033401306956713327750481),
    ("zmod3", "e + g + g^-1 + h + h^2", ("X" * 40, "X*" * 40), 6165864081073485714595283),
], ids=["f2", "zz3"])
def test_plain_star_moments_are_unit_moments(family, u, words, want, request, monkeypatch):
    # a self-conjugate u, or a word of one letter kind, is a plain power since
    # mult(1, conj y) = mult(1, y); multiplying out its halves takes exponential time
    sys_ = request.getfixturevalue(family)
    calls = []
    rule = sys_._tensor_irr

    def capped(a, b):
        calls.append(None)
        if len(calls) > 10_000:
            raise AssertionError("the word was multiplied out")
        return rule(a, b)

    monkeypatch.setattr(sys_, "_tensor_irr", capped)
    x = fk.parse_element(sys_, u)
    assert [fk.moment(sys_, x, w) for w in words] == [want] * len(words)
