"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
"""

import itertools
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import fusionkit as fk
from fusionkit import FusionElement, Param, ParamList, StarWord

from conftest import (
    au_split_oracle, closed_form_dim, four_letter_generator, label_pool, random_element)


@contextmanager
def criterion(num, text):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num}: FAIL - {text}")
        raise
    print(f"[acceptance] criterion {num}: PASS - {text}")


def test_criterion_1_catalan_hom_dimensions():
    with criterion(1, "Catalan unit multiplicities in tensor powers"):
        for n in (2, 3, 5):
            sys = fk.AoSystem(n)
            started = time.perf_counter()
            u = sys.fundamental()
            acc = sys.unit_element()
            for k in range(1, 11):
                acc = sys.tensor(sys.tensor(acc, u), u)
                assert acc.mult(sys.unit) == fk.catalan(k), (n, k)
            assert time.perf_counter() - started < 1.0
        for n in (4, 5):
            sys = fk.AutSystem(n)
            started = time.perf_counter()
            u = fk.fundamental(sys)
            acc = sys.unit_element()
            for k in range(1, 13):
                acc = sys.tensor(acc, u)
                assert acc.mult(sys.unit) == fk.catalan(k), (n, k)
            assert time.perf_counter() - started < 1.0


def test_criterion_2_ao_dimension_formula():
    with criterion(2, "integer dimension recursion matches the closed form"):
        for n in (2, 3, 4, 5):
            sys = fk.AoSystem(n)
            for k in range(1, 16):
                assert sys.dim_irr(sys.r(k)) == closed_form_dim(n, k), (n, k)
        ao3 = fk.AoSystem(3)
        assert [ao3.dim_irr(ao3.r(k)) for k in range(1, 6)] == [1, 3, 8, 21, 55]


def test_criterion_3_amenability_verdicts():
    with criterion(3, "amenability verdicts with agreeing cross-checks"):
        started = time.perf_counter()
        expected = {
            ("a_o", 2): "amenable-consistent",
            ("a_o", 3): "non-amenable-numerical",
            ("a_o", 4): "non-amenable-numerical",
            ("a_o", 5): "non-amenable-numerical",
            ("aut", 4): "amenable-consistent",
            ("aut", 5): "non-amenable-numerical",
            ("aut", 6): "non-amenable-numerical",
        }
        for (family, n), verdict in expected.items():
            sys = fk.AoSystem(n) if family == "a_o" else fk.AutSystem(n)
            report = fk.amenability_verdict(sys, K=30, tol=0.05)
            assert report.verdict == verdict, (family, n, report.verdict)
            assert report.agree, (family, n)
            assert report.cross_verdict == verdict, (family, n)
        assert time.perf_counter() - started < 10.0


def test_criterion_4_free_group_kesten_value():
    with criterion(4, "free-group norm estimate within the stated window"):
        f2 = fk.GroupDualSystem([None, None], names=["s", "t"])
        u = four_letter_generator(f2)
        counts = fk.kesten_counts(f2, u, 30)
        est = fk.spectral_radius_estimate(counts, "extrapolated-ratio")
        target = 2 * math.sqrt(3)
        assert target - 0.15 <= est <= target + 0.15, est
        report = fk.amenability_verdict(f2, u, K=30, tol=0.15)
        assert report.estimate < 4
        assert report.verdict == "non-amenable-numerical"


def test_criterion_5_oracle_equivalence():
    with criterion(5, "fusion moments equal noncrossing enumeration"):
        for n in (2, 3, 5):
            sys = fk.AoSystem(n)
            u = sys.fundamental()
            for length in range(0, 9):
                for bits in itertools.product((False, True), repeat=length):
                    w = StarWord(bits)
                    assert fk.moment(sys, u, w) == \
                        fk.noncrossing_pairing_count(w, "self-adjoint"), (n, w)
        au = fk.AuSystem(2)
        ua = au.fundamental()
        for k in range(1, 9):
            w = StarWord.alternating(k)
            m = fk.moment(au, ua, w)
            assert m == fk.noncrossing_pairing_count(w, "alternating") == fk.catalan(k)


def test_criterion_6_word_metric():
    with criterion(6, "free-group word metric and sphere growth"):
        f2 = fk.GroupDualSystem([None, None], names=["s", "t"])
        v = fk.fundamental(f2)
        for r in range(1, 9):
            assert len(fk.sphere(f2, v, f2.unit, r)) == 4 * 3 ** (r - 1), r
        rng = random.Random(20260810)

        def random_word(max_len):
            w = ()
            for _ in range(rng.randint(0, max_len)):
                w = rng.choice(f2.children(w))
            return w

        checked = 0
        while checked < 100:
            a = f2.word(random_word(8))
            b = f2.word(f2.reduce_word(random_word(8) + a.payload))
            expected = f2.letter_length(
                f2.reduce_word(b.payload + f2.inverse_word(a.payload)))
            if expected > 8:
                continue
            assert fk.distance(f2, v, a, b, budget=10) == expected, (a, b)
            checked += 1


def test_criterion_7_modular_spectrum():
    with criterion(7, "modular spectrum lattices and membership"):
        lat = fk.modular_spectrum(ParamList.parse(["2^1/2", "2^-1/2"]))
        assert lat == fk.ExponentLattice.from_params([Param.from_rational(4)])
        assert lat.contains(Param.from_rational(16))
        assert not lat.contains(Param.from_rational(2))
        assert lat.contains(Param.one())
        mu = Param.generator("mu")
        lat = fk.modular_spectrum(
            ParamList([mu ** Fraction(1, 2), mu ** Fraction(-1, 2)]))
        assert lat == fk.ExponentLattice.from_params([mu ** 2])


def test_criterion_8_property_suites():
    with criterion(8, "semiring, list-morphism, metric and graph properties"):
        rng = random.Random(20260810)
        families = [
            fk.AoSystem(3),
            fk.AutSystem(4),
            fk.AuSystem(2),
            fk.GroupDualSystem([None, None], names=["s", "t"]),
        ]
        for sys in families:
            pool = label_pool(sys)
            for _ in range(1000):
                x = random_element(sys, rng, pool)
                y = random_element(sys, rng, pool)
                z = random_element(sys, rng, pool)
                assert sys.tensor(sys.tensor(x, y), z) == sys.tensor(x, sys.tensor(y, z))
                assert sys.dim(sys.tensor(x, y)) == sys.dim(x) * sys.dim(y)
                assert sys.conj_element(sys.tensor(x, y)) == sys.tensor(
                    sys.conj_element(y), sys.conj_element(x))

        # list-morphism identities on derived 2-dimensional q-lists to depth 8
        ao2 = fk.AoSystem(2)
        lists = fk.derive_irreducible_lists(ao2, ParamList.parse(["q", "q^-1"]), 8)
        labels = sorted(lists, key=ao2.sort_key)
        for _ in range(200):
            a, b = rng.choice(labels), rng.choice(labels)
            prod = ao2.tensor_pair(a, b)
            if any(c not in lists for c in prod.support()):
                continue
            lhs = lists[a].product(lists[b])
            rhs = ParamList()
            for c, m in prod.items():
                for _i in range(m):
                    rhs = rhs.union(lists[c])
            assert lhs == rhs, (a, b)

        # metric axioms on sampled triples
        ao3 = fk.AoSystem(3)
        v = fk.parse_element(ao3, "r1 + r2")
        pool = [ao3.r(k) for k in range(1, 8)]
        for _ in range(150):
            a, b, c = (rng.choice(pool) for _ in range(3))
            dab = fk.distance(ao3, v, a, b)
            assert dab == fk.distance(ao3, v, b, a)
            assert (dab == 0) == (a == b)
            assert fk.distance(ao3, v, a, c) <= dab + fk.distance(ao3, v, b, c)

        # the depth-10 principal graph of the 2-dimensional family is a path
        graph = fk.principal_graph(fk.tower(ao2, ao2.fundamental(), 10))
        assert len(graph.vertices) == 11
        assert len(graph.edges) == 10
        assert all(m == 1 for _, _, m in graph.edges)
        degrees = [sum(m for a, b, m in graph.edges if lab in (a, b)) for lab, _ in graph.vertices]
        assert sorted(degrees) == [1, 1] + [2] * 9


def test_criterion_9_au_free_fusion_spot_checks():
    with criterion(9, "free-unitary fusion spot checks vs the split oracle"):
        au = fk.AuSystem(2)
        unit = au.unit_element()
        w = au.word
        cases = [
            ("a", "b", FusionElement({w("ab"): 1}) + unit),
            ("a", "a", FusionElement({w("aa"): 1})),
            ("ab", "ab",
             FusionElement({w("abab"): 1}) + FusionElement({w("ab"): 1}) + unit),
        ]
        for x, y, expected in cases:
            got = au.tensor_pair(au.word(x), au.word(y))
            assert got == expected, (x, y)
            assert got == au_split_oracle(au, x, y), (x, y)
