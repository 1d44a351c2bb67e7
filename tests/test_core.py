import random
import threading
import time
from itertools import repeat
from math import comb

import pytest

import fusionkit as fk
from fusionkit import FusionElement
from fusionkit.core import _chain_moments, _exact_div, _poly_mul, _series_div

from conftest import (
    REDUCED_SYSTEMS,
    label_pool,
    mc_recursion_reference,
    moments_by_full_powers,
    random_element,
    reduced_support,
    tensor_power,
)


def test_zero_element():
    z = FusionElement.zero()
    assert not z
    assert z.family is None
    assert fk.AoSystem(2).dim(z) == 0


def test_element_construction_rejects_bad_input(ao2):
    with pytest.raises(fk.FusionError):
        FusionElement({ao2.r(1): -1})
    with pytest.raises(fk.FusionError):
        FusionElement({ao2.r(1): 1.5})
    with pytest.raises(fk.InvalidLabelError):
        FusionElement({"r1": 1})


def test_mixed_families_rejected(ao2, ao3):
    with pytest.raises(fk.FamilyMismatchError):
        FusionElement({ao2.r(1): 1, ao3.r(1): 1})
    x = ao2.unit_element()
    with pytest.raises(fk.FamilyMismatchError):
        ao3.tensor(x, x)


def test_computed_elements_keep_checks(ao2, ao3):
    x = ao2.fundamental()
    with pytest.raises(fk.FusionError):
        x * -1
    with pytest.raises(fk.FamilyMismatchError):
        x + ao3.fundamental()


def test_label_identity_and_repr(ao2, ao3, f2):
    assert repr(ao2.r(3)) == "IrrLabel('a_o(n=2)', 3)"
    assert repr(f2.parse_label("s t^-1")) == (
        "IrrLabel('group_dual(Z,Z;s,t)', ((0, 1), (1, -1)))")
    a, b = ao2.r(3), ao3.r(3)
    assert a.payload == b.payload
    assert a != b and hash(a) != hash(b) and len({a, b}) == 2
    assert a == ("a_o(n=2)", 3) and tuple(a) == (a.family, a.payload)


def test_sum_is_pointwise(ao2):
    r1, r2, r3 = ao2.r(1), ao2.r(2), ao2.r(3)
    assert FusionElement({r1: 1}) + FusionElement({r1: 1}) == FusionElement({r1: 2})
    x = FusionElement({r1: 1, r2: 1})
    y = FusionElement({r2: 1, r3: 1})
    assert x + y == FusionElement({r1: 1, r2: 2, r3: 1})
    assert FusionElement.zero() + x == x
    assert sum([x, y, FusionElement.zero()]) == x + y


def test_scalar_multiple(ao2):
    x = FusionElement({ao2.r(2): 1})
    assert 3 * x == FusionElement({ao2.r(2): 3})
    assert 0 * x == FusionElement.zero()


def test_unit_law_and_power(ao2):
    u = ao2.fundamental()
    assert ao2.tensor(ao2.unit_element(), u) == u
    assert tensor_power(ao2, u, 0) == ao2.unit_element()
    assert tensor_power(ao2, u, 1) == u
    assert tensor_power(ao2, u, 2) == ao2.tensor(u, u)


def test_multiplicity_examples(ao2):
    u = ao2.fundamental()
    sq = ao2.tensor(u, u)
    assert sq.mult(ao2.unit) == 1
    assert sq.mult(ao2.r(3)) == 1
    assert sq.mult(ao2.r(2)) == 0


def test_dim_examples(ao3, au2):
    assert ao3.dim(ao3.unit_element()) == 1
    # closed form at n=3: (x^3 - y^3)/(x - y) = n^2 - 1 = 8
    assert ao3.dim(FusionElement({ao3.r(3): 1})) == 8
    assert au2.dim(FusionElement({au2.word("ab"): 1})) == 3


def test_conjugation_examples(ao2, au2, f2):
    rk = FusionElement({ao2.r(4): 1})
    assert ao2.conj_element(rk) == rk
    w = FusionElement({au2.word("ab"): 1})
    assert au2.conj_element(w) == w
    g = FusionElement({f2.parse_label("s"): 1})
    assert f2.conj_element(g) == FusionElement({f2.parse_label("s^-1"): 1})


ALL_FAMILIES = ["ao2", "ao3", "aut4", "au2", "f2", "zmod3", "zd2"]


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_semiring_identities_random(family, rng, request):
    sys = request.getfixturevalue(family)
    pool = label_pool(sys)
    for _ in range(60):
        x = random_element(sys, rng, pool)
        y = random_element(sys, rng, pool)
        z = random_element(sys, rng, pool)
        left = sys.tensor(sys.tensor(x, y), z)
        right = sys.tensor(x, sys.tensor(y, z))
        assert left == right
        assert sys.dim(sys.tensor(x, y)) == sys.dim(x) * sys.dim(y)
        assert sys.dim(x + y) == sys.dim(x) + sys.dim(y)
        # conjugation reverses tensor factors
        assert sys.conj_element(sys.tensor(x, y)) == sys.tensor(
            sys.conj_element(y), sys.conj_element(x))


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_unit_multiplicity_law(family, request):
    sys = request.getfixturevalue(family)
    pool = label_pool(sys)
    for a in pool:
        assert sys.conj_irr(sys.conj_irr(a)) == a
        assert sys.tensor_pair(sys.unit, a) == FusionElement({a: 1})
        for b in pool:
            expected = 1 if b == sys.conj_irr(a) else 0
            got = sys.tensor_pair(a, b).mult(sys.unit)
            assert got == expected, (a, b)


def test_pair_cache_idempotent_and_thread_safe(ao3):
    u = ao3.fundamental()
    results = []

    def work():
        acc = ao3.unit_element()
        for _ in range(12):
            acc = ao3.tensor(acc, u)
        results.append(acc)

    threads = [threading.Thread(target=work) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == results[0] for r in results)
    assert results[0] == tensor_power(ao3, u, 12)


ROW_FAMILIES = ["ao3", "aut4", "au2", "f2", "zmod3", "zd2"]


def row_cases(sys, rng, n):
    pool = label_pool(sys)
    return [(rng.choice(pool), random_element(sys, rng, pool, max_terms=4, max_mult=3))
            for _ in range(n)]


@pytest.mark.parametrize("family", ROW_FAMILIES)
def test_tensor_row_matches_tensor(family, rng, request):
    sys = request.getfixturevalue(family)
    for a, y in row_cases(sys, rng, 80):
        assert sys.tensor_row(a, y) == sys.tensor(FusionElement.from_label(a), y)
    assert sys.tensor_row(sys.unit, FusionElement()) == FusionElement()


@pytest.mark.parametrize("family", ROW_FAMILIES)
def test_tensor_row_pair_memo(family, rng, request):
    # a group dual translates, so its rows leave the pair memo empty; the
    # default sum fills it with the same entries, in the same order, as tensor
    sys = request.getfixturevalue(family)
    cases = row_cases(sys, rng, 30)
    sys._pair_cache.clear()
    for a, y in cases:
        sys.tensor_row(a, y)
    by_rows = list(sys._pair_cache.items())
    sys._pair_cache.clear()
    for a, y in cases:
        sys.tensor(FusionElement.from_label(a), y)
    if isinstance(sys, fk.GroupDualBase):
        assert by_rows == [] and sys._pair_cache
    else:
        assert by_rows == list(sys._pair_cache.items()) != []


def test_tensor_row_cancels_and_wraps(f2):
    # F2 cancels s^-1 s; in Z*Z/3, t^2 t = e.  Both translate on the left:
    # s^-1 (s t) is t, where s t s^-1 would be a right translate
    zz3 = fk.GroupDualSystem([None, 3], names=["s", "t"])
    for sys, a, y, want in ((f2, "s^-1", "s t + e", "t + s^-1"),
                            (f2, "s t", "2*s^-1 + t^-1 s", "2*s t s^-1 + s^2"),
                            (zz3, "t^2", "t + e", "e + t^2"),
                            (zz3, "t s", "s^-1 t + t^2", "t^2 + t s t^2")):
        a, y = sys.parse_label(a), fk.parse_element(sys, y)
        sys._pair_cache.clear()
        assert sys.tensor_row(a, y) == fk.parse_element(sys, want)
        assert sys._pair_cache == {}
        assert sys.tensor(FusionElement.from_label(a), y) == fk.parse_element(sys, want)


def test_element_hash_and_contains(ao2):
    x = FusionElement({ao2.r(1): 1, ao2.r(3): 2})
    y = FusionElement({ao2.r(3): 2, ao2.r(1): 1})
    assert x == y and hash(x) == hash(y)
    assert x.contains(FusionElement({ao2.r(3): 1}))
    assert not x.contains(FusionElement({ao2.r(3): 3}))


# -- unit multiplicities at half depth, against the full-power expansion

def _kernel_cases():
    ao3, aut5, au2 = fk.AoSystem(3), fk.AutSystem(5), fk.AuSystem(2)
    zz3 = fk.GroupDualSystem([None, 3], names=["g", "h"])
    zd2 = fk.ZdDualSystem(2)
    u = au2.fundamental()
    return [
        ("a_o(3)", ao3, ao3.fundamental()),
        ("aut(5)", aut5, aut5.fundamental()),
        ("a_u(2) u", au2, u),
        ("a_u(2) u ubar", au2, au2.tensor(u, au2.conj_element(u))),
        ("Z*Z/3", zz3, fk.parse_element(zz3, "2*e + g + h + h^2")),
        ("Z^2", zd2, zd2.fundamental()),
    ]


KERNEL_CASES = _kernel_cases()


@pytest.mark.parametrize("name, sys, x", KERNEL_CASES, ids=[c[0] for c in KERNEL_CASES])
def test_unit_moments_match_full_powers(name, sys, x):
    full = moments_by_full_powers(sys, x, 12)
    for N in range(13):
        assert sys.unit_moments(x, N) == full[:N + 1], (name, N)


@pytest.mark.parametrize("family", ALL_FAMILIES)
def test_unit_moments_and_unit_mult_random(family, rng, request):
    sys = request.getfixturevalue(family)
    pool = label_pool(sys)
    for _ in range(6):
        x = random_element(sys, rng, pool)
        assert sys.unit_moments(x, 7) == moments_by_full_powers(sys, x, 7)
    for _ in range(40):
        x = random_element(sys, rng, pool, max_terms=4)
        y = random_element(sys, rng, pool, max_terms=4)
        assert sys.unit_mult(x, y) == sys.tensor(x, y).mult(sys.unit)
    assert sys.unit_mult(x, FusionElement.zero()) == 0
    with pytest.raises(fk.FusionError):
        sys.unit_moments(x, -1)


# -- unit multiplicities on the radial quotient, against the expansion

def moments_by_half_powers(sys, x, N):
    """Oracle: ``m_j = unit_mult(x^ceil(j/2), x^floor(j/2))`` from formed powers."""
    powers = list(sys.products(repeat(x, (N + 1) // 2)))
    return [sys.unit_mult(powers[(j + 1) // 2], powers[j // 2]) for j in range(N + 1)]


def letter_sum(sys, c0, w):
    """``c0 e + w (a + b)`` for ``a_u``; ``c0 x_first + w x_{first+1}`` for
    ``a_o`` and ``aut``; ``c0 e + w * sum (g + g^-1)`` for group duals."""
    if isinstance(sys, fk.AuSystem):
        letters = [sys.word("a"), sys.word("b")]
    elif isinstance(sys, fk.IntervalSystem):
        letters = [sys.label(sys.first + 1)]
    else:
        letters = [h for g in sys.generators() for h in (g, sys.conj_irr(g))]
    return FusionElement({sys.unit: c0, **dict.fromkeys(letters, w)})


# the full expansion of a free group's ball grows as (2n-1)^N, so F2 and F3
# take it to a smaller N and the half-depth expansion to 12
RADIAL_CASES = [
    ("a_u(2)", fk.AuSystem(2), 12),
    ("a_u(3)", fk.AuSystem(3), 12),
    ("a_o(2)", fk.AoSystem(2), 12),
    ("a_o(3)", fk.AoSystem(3), 12),
    ("aut(4)", fk.AutSystem(4), 12),
    ("aut(5)", fk.AutSystem(5), 12),
    ("F2", fk.GroupDualSystem([None, None], names=["s", "t"]), 8),
    ("F3", fk.GroupDualSystem([None, None, None]), 6),
    ("Z^2", fk.ZdDualSystem(2), 12),
    ("Z^3", fk.ZdDualSystem(3), 12),
]


def radial_key(sys):
    """The level classes of ``letter_sum``: word length for ``a_u``, ``k - first``
    for ``a_o`` and ``aut``, letter length for free groups, sorted absolute
    coordinates for ``Z^d``."""
    if isinstance(sys, fk.AuSystem):
        return lambda a: len(a.payload)
    if isinstance(sys, fk.IntervalSystem):
        return lambda a: a.payload - sys.first
    if isinstance(sys, fk.ZdDualSystem):
        return lambda a: tuple(sorted(map(abs, a.payload)))
    return lambda a: sys.letter_length(a.payload)


def class_walk_reference(sys, x, key, N):
    """Oracle: unit multiplicities of ``x^(x)j``, j = 0..N, by walking class weights.

    ``key`` must be equitable for right multiplication by ``x`` with the
    unit alone in its class (``equitable_violation`` checks that); each
    class row is read off the family rule at the first label met in it.
    """
    unit = key(sys.unit)
    reps = {unit: sys.unit}
    rows = {}
    weights = {unit: 1}
    out = [1]
    for _ in range(N):
        nxt = {}
        for c, w in weights.items():
            row = rows.get(c)
            if row is None:
                acc = {}
                for b, mb in x.items():
                    for d, md in sys._tensor_irr(reps[c], b).items():
                        k = key(d)
                        reps.setdefault(k, d)
                        acc[k] = acc.get(k, 0) + mb * md
                row = rows[c] = list(acc.items())
            for k, m in row:
                nxt[k] = nxt.get(k, 0) + w * m
        weights = nxt
        out.append(weights.get(unit, 0))
    return out


RADIAL_WEIGHTS = [(c0, w) for c0 in (0, 1, 3) for w in (1, 2)]


def chain_walk_reference(c0, chains, N):
    """Oracle: walk each declared chain's integer level weights for ``N`` steps.

    At step ``j`` only the levels ``<= min(j, N - j)`` that can still
    return are kept; the ``c0`` units hold the first chain's walk at every
    level, and each later chain is joined by binomial convolution.
    """
    out, hold = None, c0
    for p0, p, q, c in chains:
        levels, walk = [1], [1]
        for j in range(1, N + 1):
            up = [0, p0 * levels[0], *(p * w for w in levels[1:])]
            stay = [hold * levels[0], *((hold + c) * w for w in levels[1:]), 0]
            down = [*(q * w for w in levels[1:]), 0, 0]
            levels = [a + b + d for a, b, d in zip(up[:min(j, N - j) + 1], stay, down)]
            walk.append(levels[0])
        out = walk if out is None else [
            sum(comb(n, k) * out[n - k] * w for k, w in enumerate(walk[:n + 1]))
            for n in range(N + 1)]
        hold = 0
    return out


@pytest.mark.parametrize("d", [1, 2])
def test_chain_moments_match_the_level_walk(d, rng):
    # every rate in 0..5, zeros included: p0 = p, p = 0, q = 0 and c = 0 all occur
    for _ in range(400):
        c0 = rng.randint(0, 5)
        chains = tuple(tuple(rng.randint(0, 5) for _ in range(4)) for _ in range(d))
        N = rng.randint(0, 40)
        assert _chain_moments(c0, chains, N) == chain_walk_reference(c0, chains, N), (
            c0, chains, N)


def test_chain_moments_at_depth_are_catalan_numbers(monkeypatch):
    # the fundamentals: r_2 of a_o, with r_k (x) r_2 = r_{k-1} + r_{k+1}, and
    # s_0 + s_1 of aut, with s_k (x) s_1 = s_{k-1} + s_k + s_{k+1}
    catalan = [comb(2 * n, n) // (n + 1) for n in range(301)]
    assert _chain_moments(0, ((1, 1, 1, 0),), 600)[::2] == catalan
    assert _chain_moments(1, ((1, 1, 1, 1),), 300) == catalan
    assert _chain_moments(3, ((1, 1, 1, 0),), 0) == [1]
    # the families declare those chains: the count to N = 4000 calls no fusion rule
    started = time.perf_counter()
    ao3, aut5 = fk.AoSystem(3), fk.AutSystem(5)
    for sys in (ao3, aut5):
        monkeypatch.setattr(sys, "_tensor_irr", lambda a, b: pytest.fail("a fusion rule ran"))
    assert [sys.unit_moments(sys.fundamental(), 4000)[4000] for sys in (ao3, aut5)] == [
        comb(4000, 2000) // 2001, comb(8000, 4000) // 4001]
    assert time.perf_counter() - started < 10.0


def test_inexact_division_raises():
    with pytest.raises(ArithmeticError, match="not divisible"):
        _exact_div(7, 2)
    assert _exact_div(-6, 3) == -2


def test_series_div_raises_on_a_pole_or_a_fraction():
    with pytest.raises(ArithmeticError, match="pole"):
        _series_div([1], [0, 1], 3)
    with pytest.raises(ArithmeticError, match="pole"):
        _series_div([1], [0, 0], 3)
    with pytest.raises(ArithmeticError, match="not divisible"):
        _series_div([1], [2], 3)
    # shared leading zeros cancel: 6z^2/(2z + 2z^2) = 3z/(1 + z)
    assert _series_div([0, 0, 6], [0, 2, 2], 4) == [0, 3, -3, 3]


def test_series_div_undoes_poly_mul(rng):
    for _ in range(300):
        a = [rng.randint(-50, 50) for _ in range(rng.randint(1, 8))]
        b = [0] * rng.randint(0, 2) + [rng.choice((1, -1))]
        b += [rng.randint(-9, 9) for _ in range(rng.randint(0, 5))]
        n = rng.randint(0, len(a) + 4)
        assert _series_div(_poly_mul(a, b), b, n) == (a + [0] * n)[:n], (a, b, n)


@pytest.mark.parametrize("c0, w", RADIAL_WEIGHTS)
@pytest.mark.parametrize("name, sys, full_N", RADIAL_CASES, ids=[c[0] for c in RADIAL_CASES])
def test_radial_moments_match_expansion(name, sys, full_N, c0, w):
    x = letter_sum(sys, c0, w)
    assert sys.radial_chains(x) is not None
    moments = sys.unit_moments(x, 12)
    assert moments[:full_N + 1] == moments_by_full_powers(sys, x, full_N)
    assert moments == moments_by_half_powers(sys, x, 12)
    for N in range(12):
        assert sys.unit_moments(x, N) == moments[:N + 1]


@pytest.mark.parametrize("c0, w", RADIAL_WEIGHTS)
@pytest.mark.parametrize("name, sys, full_N", RADIAL_CASES, ids=[c[0] for c in RADIAL_CASES])
def test_chain_walk_matches_class_walk(name, sys, full_N, c0, w):
    x = letter_sum(sys, c0, w)
    assert sys.unit_moments(x, 16) == class_walk_reference(sys, x, radial_key(sys), 16)


@pytest.mark.parametrize("name, sys, full_N", RADIAL_CASES, ids=[c[0] for c in RADIAL_CASES])
def test_declared_chains_call_no_rule(name, sys, full_N, monkeypatch):
    x = letter_sum(sys, 1, 2)
    expected = class_walk_reference(sys, x, radial_key(sys), 16)

    def no_rule(a, b):
        raise AssertionError(f"{name}: the rule ran on a declared chain")

    monkeypatch.setattr(sys, "_tensor_irr", no_rule)
    monkeypatch.setattr(sys, "_pair_cache", {})
    moments = sys.unit_moments(x, 40)
    assert len(moments) == 41 and moments[:17] == expected
    assert moments == chain_walk_reference(*sys.radial_chains(x), 40)


@pytest.mark.parametrize("name, sys, full_N", RADIAL_CASES, ids=[c[0] for c in RADIAL_CASES])
def test_chains_of_the_unit_alone(name, sys, full_N):
    # every family reads c0 unit as its letters at weight 0: zero-rate chains
    for c0 in (0, 1, 3):
        x = FusionElement({sys.unit: c0})
        assert sys.radial_chains(x) is not None
        assert sys.unit_moments(x, 6) == [c0 ** j for j in range(7)]


def _not_radial_cases():
    au2, zd2, ao3, aut4 = fk.AuSystem(2), fk.ZdDualSystem(2), fk.AoSystem(3), fk.AutSystem(4)
    f2 = fk.GroupDualSystem([None, None], names=["s", "t"])
    zz3 = fk.GroupDualSystem([None, 3], names=["g", "h"])
    u = au2.fundamental()
    return [
        ("a_u a", au2, u),
        ("a_u a + 2b", au2, fk.parse_element(au2, "a + 2*b")),
        ("a_u u ubar", au2, au2.tensor(u, au2.conj_element(u))),
        ("F2 s + s^-1 + t", f2, fk.parse_element(f2, "s + s^-1 + t")),
        ("F2 unequal weights", f2, fk.parse_element(f2, "s + s^-1 + 2*t + 2*t^-1")),
        # gcd 1 in each factor, so the letters are s^+-1 and t^+-1, and s^+-2 is extra
        ("F2 s^+-2 + s^+-1 + t^+-1", f2,
         fk.parse_element(f2, "s^2 + s^-2 + s + s^-1 + t + t^-1")),
        ("Z*Z/3 g + h", zz3, fk.parse_element(zz3, "g + h")),
        ("Z*Z/3 uniform letters", zz3, fk.parse_element(zz3, "2*e + g + g^-1 + h + h^2")),
        ("Z^2 without -e_2", zd2, fk.parse_element(zd2, "e + g1 + g1^-1 + g2")),
        ("Z^2 unequal weights", zd2, fk.parse_element(zd2, "e + g1 + g1^-1 + 2*g2 + 2*g2^-1")),
        ("a_o r3", ao3, fk.parse_element(ao3, "r3")),
        ("a_o r2 + r3", ao3, fk.parse_element(ao3, "r2 + r3")),
        ("aut s2", aut4, fk.parse_element(aut4, "s2")),
        ("aut s1 + s2", aut4, fk.parse_element(aut4, "s1 + s2")),
    ]


NOT_RADIAL_CASES = _not_radial_cases()


@pytest.mark.parametrize("name, sys, x", NOT_RADIAL_CASES, ids=[c[0] for c in NOT_RADIAL_CASES])
def test_radial_key_only_where_proven(name, sys, x):
    assert sys.radial_chains(x) is None
    assert sys.unit_moments(x, 6) == moments_by_full_powers(sys, x, 6)


def _subgroup_chain_cases():
    f2, zd2 = fk.GroupDualSystem([None, None], names=["s", "t"]), fk.ZdDualSystem(2)
    return [
        ("F2 squares", f2, fk.parse_element(f2, "s^2 + s^-2 + t^2 + t^-2")),
        ("F2 s^+-2 + t^+-3", f2, fk.parse_element(f2, "2*e + s^2 + s^-2 + t^3 + t^-3")),
        ("F2 t^+-2 alone", f2, fk.parse_element(f2, "e + t^2 + t^-2")),
        ("Z^2 2 g1 and 3 g2", zd2, fk.parse_element(zd2, "g1^2 + g1^-2 + g2^3 + g2^-3")),
    ]


SUBGROUP_CHAIN_CASES = _subgroup_chain_cases()


@pytest.mark.parametrize("name, sys, x", SUBGROUP_CHAIN_CASES,
                         ids=[c[0] for c in SUBGROUP_CHAIN_CASES])
def test_subgroup_letters_walk_chains(name, sys, x):
    # the letters of the subgroup the support generates walk its chains
    assert sys.radial_chains(x) is not None
    assert sys.unit_moments(x, 6) == moments_by_full_powers(sys, x, 6)
    assert sys.unit_moments(x, 12) == moments_by_half_powers(sys, x, 12)


@pytest.mark.parametrize("name", REDUCED_SYSTEMS)
def test_reduced_supports_match_expansion(name, monkeypatch):
    sys = REDUCED_SYSTEMS[name]()
    rng = random.Random(name)

    def no_rule(a, b):
        raise AssertionError(f"{name}: the rule ran on a chain")

    cases = [(FusionElement({sys.unit: c0}), {}) for c0 in (0, 1, 3)]
    cases += [reduced_support(sys, rng, rng.randint(0, 2), rng.randint(1, 2)) for _ in range(4)]
    for x, steps in cases:
        want = moments_by_half_powers(sys, x, 12)
        assert want[:7] == moments_by_full_powers(sys, x, 6)
        # a chain exactly when every factor of the subgroup is infinite
        chain = all(sys.factors[f] is None for f in steps)
        assert (sys.radial_chains(x) is not None) == chain, (x, steps)
        with monkeypatch.context() as patch:
            if chain:
                patch.setattr(sys, "_tensor_irr", no_rule)
                patch.setattr(sys, "_pair_cache", {})
            assert sys.unit_moments(x, 12) == want, (x, steps)


# -- unit multiplicities of free parts, against each part's expansion

def free_join_reference(sys, x, N):
    """Oracle: expand each factor's part of ``x`` in full and add the parts' free cumulants."""
    c0, parts = 0, {}
    for lab, m in x.items():
        if not lab.payload:
            c0 = m
            continue
        assert len(lab.payload) == 1
        parts.setdefault(lab.payload[0][0], {})[lab] = m
    kappa = [0, c0] + [0] * (N - 1)
    for terms in parts.values():
        moments = moments_by_full_powers(sys, FusionElement(terms), N)
        kappa = [a + b for a, b in zip(kappa, mc_recursion_reference(moments, False))]
    return mc_recursion_reference([1] + [0] * N, True, kappa)


FREE_CASES = [
    ("Z*Z/3", [None, 3], ["g", "h"], "e + g + g^-1 + h + h^2"),
    ("Z/2*Z/3", [2, 3], ["a", "b"], "e + a + b + b^2"),
    # unequal weights: no chain is declared, so the parts are joined
    ("F2 unequal weights", [None, None], ["s", "t"], "2*e + s + s^-1 + 3*t + 3*t^-1"),
]


@pytest.mark.parametrize("name, factors, names, text", FREE_CASES,
                         ids=[c[0] for c in FREE_CASES])
def test_unit_moments_join_free_parts(name, factors, names, text, monkeypatch):
    oracle = fk.GroupDualSystem(factors, names=names)
    expected = free_join_reference(oracle, fk.parse_element(oracle, text), 40)
    sys = fk.GroupDualSystem(factors, names=names)
    x = fk.parse_element(sys, text)
    assert sys.radial_chains(x) is None
    rule, calls = sys._tensor_irr, []

    def capped(a, b):
        # the joint expansion grows exponentially; fail fast instead of hanging
        calls.append(None)
        if len(calls) > 10_000:
            raise AssertionError(f"{name}: more than 10000 rule calls")
        return rule(a, b)

    monkeypatch.setattr(sys, "_tensor_irr", capped)
    assert sys.unit_moments(x, 40) == expected
    if name == "Z*Z/3":  # past the oracle's reach: the join alone, to N = 80 within 10 s
        started = time.perf_counter()
        assert sys.unit_moments(x, 80)[-1] == 1244459838319806283344728407362860329048644134446995
        assert time.perf_counter() - started < 10.0


def test_free_parts_only_for_single_syllables_of_two_factors(f2, zmod3, zd2, ao3, aut4, au2):
    assert f2.free_parts(fk.parse_element(f2, "e + s + s^-1")) is None  # one factor
    assert f2.free_parts(fk.parse_element(f2, "e + s t + t")) is None  # a two-syllable word
    assert zd2.free_parts(zd2.fundamental()) is None
    for sys in (ao3, aut4, au2):
        assert sys.free_parts(sys.fundamental()) is None
    c0, parts = zmod3.free_parts(fk.parse_element(zmod3, "2*e + g + h + h^2"))
    assert c0 == 2
    assert parts == [fk.parse_element(zmod3, "g"), fk.parse_element(zmod3, "h + h^2")]
    assert [zmod3.free_parts(part) for part in parts] == [None, None]


def equitable_violation(sys, x, key, depth=5):
    """Brute force over the labels within ``depth`` steps of the unit.

    Returns the first label that shares the unit's key, or whose product
    with ``x`` puts other class totals than an earlier label of its class;
    None when the key is equitable there.
    """
    labels, layer = {sys.unit}, {sys.unit}
    for _ in range(depth):
        layer = {d for a in layer for b in x for d in sys.tensor_pair(a, b)} - labels
        labels |= layer
    rows = {}
    for a in sorted(labels, key=sys.sort_key):
        if a != sys.unit and key(a) == key(sys.unit):
            return a
        row = {}
        for d, m in sys.tensor(FusionElement({a: 1}), x).items():
            row[key(d)] = row.get(key(d), 0) + m
        if rows.setdefault(key(a), row) != row:
            return a
    return None


@pytest.mark.parametrize("name, sys, full_N", RADIAL_CASES, ids=[c[0] for c in RADIAL_CASES])
def test_radial_keys_are_equitable(name, sys, full_N):
    for c0, w in ((0, 1), (3, 2)):
        x = letter_sum(sys, c0, w)
        assert equitable_violation(sys, x, radial_key(sys)) is None


@pytest.mark.parametrize("name, mutant", [
    ("F2", lambda sys, a: sys.letter_length(a.payload) % 2),  # joins the unit's class
    ("Z^2", lambda sys, a: sum(map(abs, a.payload))),  # (2, 0) and (1, 1) differ
    ("a_u(2)", lambda sys, a: a.payload.count("a")),
])
def test_equitable_check_rejects_mutated_keys(name, mutant):
    sys = next(s for n, s, _ in RADIAL_CASES if n == name)
    x = letter_sum(sys, 1, 1)
    assert equitable_violation(sys, x, lambda a: mutant(sys, a)) is not None
