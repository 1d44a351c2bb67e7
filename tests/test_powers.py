import functools
import itertools

import pytest

import fusionkit as fk
from fusionkit import powers
from fusionkit.powers import (FiniteIrrSet, WordSet, _left_translate, _meeting_pair,
                             _right_translate)

from conftest import with_stack_margin


def enum_words(sys, depth):
    out, layer = [()], [()]
    for _ in range(depth):
        nxt = []
        for w in layer:
            nxt.extend(sys.children(w))
        out.extend(nxt)
        layer = nxt
    return out


def members_upto(S, depth):
    return {w for w in enum_words(S.system, depth) if S.member_word(w)}


def random_wordset(sys, rng, max_cyl=2, max_inc=1, max_exc=2):
    pool2, pool3 = enum_words(sys, 2), enum_words(sys, 3)
    return WordSet.make(sys,
                        rng.sample(pool2, k=rng.randint(0, max_cyl)),
                        rng.sample(pool2, k=rng.randint(0, max_inc)),
                        rng.sample(pool3, k=rng.randint(0, max_exc)))


# -- boolean algebra --------------------------------------------------------

@pytest.mark.parametrize("family", ["f2", "zmod3", "zdual"])
def test_wordset_boolean_algebra(family, rng, request):
    sys = request.getfixturevalue(family)
    universe = set(enum_words(sys, 4))
    for _ in range(40):
        A = random_wordset(sys, rng)
        B = random_wordset(sys, rng)
        mA, mB = members_upto(A, 4), members_upto(B, 4)
        assert members_upto(A.union(B), 4) == mA | mB
        assert members_upto(A.intersect(B), 4) == mA & mB
        assert members_upto(A.complement(), 4) == universe - mA
        assert members_upto(A.minus(B), 4) == mA - mB
        assert A.union(A.complement()) == WordSet.full(sys)
        assert A.intersect(A.complement()).is_empty()


def test_wordset_canonicalization(f2):
    t = f2.parse_label("t").payload
    t2 = f2.parse_label("t^2").payload
    S = WordSet.make(f2, cylinders=[t, t2], includes=[t], excludes=[t2])
    assert S.cylinders == frozenset({t})  # nested cylinder absorbed
    assert not S.includes  # include already covered
    assert not S.member_word(t2)
    # a word listed both ways stays a member
    S1 = WordSet.make(f2, cylinders=[t], includes=[t2], excludes=[t2])
    assert S1.member_word(t2)
    S2 = WordSet.make(f2, cylinders=[t], excludes=[t2])
    assert not S2.member_word(t2)
    assert S2.member_word(t)


# -- the head index against the cylinder scans it replaced ---------------------

def extends(sys, w, p):
    """Whether the normal-form prefix tree path to ``w`` passes ``p``."""
    if not p:
        return True
    if len(w) < len(p):
        return False
    if w[: len(p) - 1] != p[: len(p) - 1]:
        return False
    (fw, ew), (fp, ep) = w[len(p) - 1], p[-1]
    if fw != fp:
        return False
    if sys.factors[fp] is None:
        return (ew > 0) == (ep > 0) and abs(ew) >= abs(ep)
    return ew == ep


def word_key(sys, w):
    return (sys.letter_length(w), len(w), w)


def scan_make(sys, cylinders=(), includes=(), excludes=()):
    """Canonical (cylinders, includes, excludes) by scanning the cylinder list."""
    cyls = []
    for p in sorted(set(cylinders), key=lambda w: word_key(sys, w)):
        if not any(extends(sys, p, q) for q in cyls):
            cyls.append(p)

    def covered(w):
        return any(extends(sys, w, q) for q in cyls)

    includes = set(includes)
    inc = frozenset(w for w in includes if not covered(w))
    exc = frozenset(w for w in set(excludes) if covered(w) and w not in includes)
    return frozenset(cyls), inc, exc


def scan_member(sys, parts, w):
    cyls, inc, exc = parts
    if w in inc:
        return True
    return any(extends(sys, w, q) for q in cyls) and w not in exc


def scan_intersect(sys, a, b):
    cyls = set()
    for p in a[0]:
        for q in b[0]:
            if extends(sys, p, q):
                cyls.add(p)
            elif extends(sys, q, p):
                cyls.add(q)
    inc = ({w for w in a[1] if scan_member(sys, b, w)}
           | {w for w in b[1] if scan_member(sys, a, w)})
    return scan_make(sys, cyls, inc, a[2] | b[2])


def scan_complement(sys, a):
    cyls_out, words_out = [], []

    def walk(node):
        if any(extends(sys, node, q) for q in a[0]):
            return
        if not any(extends(sys, q, node) for q in a[0]):
            cyls_out.append(node)
            return
        words_out.append(node)
        for c in sys.children(node):
            walk(c)

    walk(())
    inc = (set(words_out) | set(a[2])) - set(a[1])
    return scan_make(sys, cyls_out, inc, a[1])


def parts_of(S):
    return S.cylinders, S.includes, S.excludes


def oracle_pool(sys):
    """Words to depth 2, plus short rays and far (|exponent| 40) integer syllables."""
    pool = enum_words(sys, 2)
    for stem in enum_words(sys, 1):
        for f, m in enumerate(sys.factors):
            if m is None:
                pool += [sys.reduce_word(stem + ((f, e),)) for e in (3, -3, 40, -40)]
    return sorted(set(pool))


def random_parts(sys, rng, pool):
    cyls = rng.sample(pool, k=rng.randint(0, 4))
    inc = rng.sample(pool, k=rng.randint(0, 3))
    exc = rng.sample(pool, k=rng.randint(0, 2)) + rng.sample(inc, k=len(inc) // 2)
    for p in cyls:  # words below the cylinders, so excludes survive
        w = p
        for _ in range(rng.randint(0, 3)):
            w = rng.choice(sys.children(w) or [w])  # a Z/m syllable is a leaf of Z/m
        rng.choice((inc, exc)).append(w)
    return cyls, inc, exc


@pytest.mark.parametrize("factors", [[None, None], [None, 3], [3, 5], [None]],
                         ids=["f2", "z_z3", "z3_z5", "z"])
def test_head_index_matches_cylinder_scans(factors, rng):
    sys = fk.GroupDualSystem(factors)
    pool = oracle_pool(sys)
    ray = [((f, e),) for f, m in enumerate(factors) if m is None for e in (1, 3, -40)]
    fixed = [([()], [(), ray[0] if ray else ((0, 1),)], []),  # everything
             (ray, ray, ray)]  # nested cylinders on one ray, listed both ways
    cases = fixed + [random_parts(sys, rng, pool) for _ in range(150)]
    for (ca, ia, ea), (cb, ib, eb) in zip(cases, cases[1:] + cases[:1]):
        A, B = WordSet.make(sys, ca, ia, ea), WordSet.make(sys, cb, ib, eb)
        a, b = scan_make(sys, ca, ia, ea), scan_make(sys, cb, ib, eb)
        assert parts_of(A) == a
        for w in pool:
            assert A.member_word(w) == scan_member(sys, a, w), w
        assert parts_of(A.intersect(B)) == scan_intersect(sys, a, b)
        assert parts_of(A.complement()) == scan_complement(sys, a)


# -- disjointness and unions without building the intersection ----------------

def pairwise_union(A, B):
    """The two-operand union ``WordSet.union`` folded before it took several."""
    exc = {w for w in A.excludes | B.excludes if not A.member_word(w) and not B.member_word(w)}
    return WordSet.make(A.system, A.cylinders | B.cylinders, A.includes | B.includes, exc)


SET_GROUPS = {"f2": [None, None], "z_z3": [None, 3], "z3_z5": [3, 5], "z": [None],
              "z2_z2": [2, 2], "z5": [5]}


@pytest.mark.parametrize("factors", SET_GROUPS.values(), ids=SET_GROUPS.keys())
def test_meets_union_and_subset_match_the_built_sets(factors, rng):
    sys = fk.GroupDualSystem(factors)
    pool = oracle_pool(sys)
    sets = [WordSet.make(sys, *random_parts(sys, rng, pool)) for _ in range(120)]
    seen_meets, seen_subset = set(), set()
    for A, B, C in zip(sets, sets[1:] + sets[:1], sets[2:] + sets[:2]):
        for X, Y in ((A, B), (B, A), (A.intersect(B), A), (A, A.union(B))):
            meets = X.meets(Y)
            assert meets == (not X.intersect(Y).is_empty())
            seen_meets.add(meets)
            subset = X.is_subset(Y)
            assert subset == X.minus(Y).is_empty()
            seen_subset.add(subset)
        fold = functools.reduce(pairwise_union, (A, B, C), WordSet.make(sys))
        assert parts_of(A.union(B, C)) == parts_of(fold)
        assert parts_of(A.union(B)) == parts_of(pairwise_union(A, B))
        assert parts_of(A.union()) == parts_of(A)
    assert seen_meets == seen_subset == {False, True}


def test_finite_irr_set_meets_matches_intersect(ao3, rng):
    pool = [ao3.r(k) for k in range(1, 7)]
    seen = set()
    for _ in range(60):
        A = FiniteIrrSet(ao3, frozenset(rng.sample(pool, k=rng.randint(0, 3))))
        B = FiniteIrrSet(ao3, frozenset(rng.sample(pool, k=rng.randint(0, 3))))
        assert A.meets(B) == B.meets(A) == (not A.intersect(B).is_empty())
        seen.add(A.meets(B))
    assert seen == {False, True}


def test_meets_and_union_reject_mixed_operands(f2, zmod3, ao3):
    A = WordSet.make(f2, cylinders=[f2.parse_label("s").payload])
    B = WordSet.make(zmod3, cylinders=[zmod3.parse_label("g").payload])
    R = FiniteIrrSet(ao3, frozenset([ao3.r(2)]))
    for X, Y in ((A, B), (A, R), (R, A), (R, FiniteIrrSet(fk.AoSystem(4), frozenset()))):
        with pytest.raises(fk.FamilyMismatchError):
            X.meets(Y)
    with pytest.raises(fk.FamilyMismatchError):
        A.union(A, B)


def test_set_equality_builds_no_intersection(f2, monkeypatch):
    s, s2 = f2.parse_label("s").payload, f2.parse_label("s^2").payload
    A = WordSet.make(f2, cylinders=[s], excludes=[s2])
    B = A.union(WordSet.make(f2, includes=[s2]))
    monkeypatch.setattr(WordSet, "intersect", lambda *args: pytest.fail("intersect called"))
    assert A == A and B == WordSet.make(f2, cylinders=[s])
    assert A != B and A.is_subset(B) and not B.is_subset(A)


@pytest.mark.parametrize("factors", [[None, None], [None, 3], [None]], ids=["f2", "z_z3", "z"])
def test_set_product_unions_its_parts_once(factors, rng):
    sys = fk.GroupDualSystem(factors)
    pool = oracle_pool(sys)
    empty = WordSet.make(sys)
    for _ in range(30):
        T = WordSet.make(sys, *random_parts(sys, rng, pool))
        xs = rng.sample(pool, k=3)
        X1, X = WordSet.make(sys, includes=xs[:1]), WordSet.make(sys, includes=xs)
        assert fk.set_product(sys, empty, T).is_empty()  # no part
        assert parts_of(fk.set_product(sys, X1, T)) == parts_of(_left_translate(sys, xs[0], T))
        left = [_left_translate(sys, x, T) for x in xs]
        right = [_right_translate(sys, T, x) for x in xs]
        for got, parts in ((fk.set_product(sys, X, T), left), (fk.set_product(sys, T, X), right)):
            assert parts_of(got) == parts_of(functools.reduce(pairwise_union, parts, empty))


def test_z_set_product_of_two_infinite_sets_unions_its_parts_once(zdual, rng):
    pool = oracle_pool(zdual)
    for _ in range(40):
        S, T = (WordSet.make(zdual, *random_parts(zdual, rng, pool)) for _ in range(2))
        if S.is_finite() or T.is_finite():
            continue
        parts = [powers._z_rays_product(zdual, S, T)]
        parts += [_right_translate(zdual, S, w) for w in T.includes]
        parts += [_left_translate(zdual, w, T) for w in S.includes]
        fold = functools.reduce(pairwise_union, parts, WordSet.make(zdual))
        assert parts_of(fk.set_product(zdual, S, T)) == parts_of(fold)


# -- translations against brute force ----------------------------------------

@pytest.mark.parametrize("family", ["f2", "zmod3"])
def test_translations_match_enumeration(family, rng, request):
    sys = request.getfixturevalue(family)
    pool = enum_words(sys, 3)
    for _ in range(40):
        x = rng.choice(pool)
        S = random_wordset(sys, rng, max_cyl=2, max_inc=1, max_exc=1)
        left = _left_translate(sys, x, S)
        image = {sys.reduce_word(x + w) for w in members_upto(S, 7)}
        got = members_upto(left, 3)
        assert got == {w for w in image if sys.letter_length(w) <= 3}
        right = _right_translate(sys, S, x)
        image = {sys.reduce_word(w + x) for w in members_upto(S, 9)}
        got = members_upto(right, 3)
        assert got == {w for w in image if sys.letter_length(w) <= 3}


def test_translations_large_exponents(f2):
    # cancellation rays: multipliers and prefixes with deep integer syllables
    cases = [
        ("s^-1", "s"), ("s^-3", "s"), ("s^-1", "s^3"), ("s^2 t s^-2", "s"),
        ("t s^-4", "s^2"), ("s^4", "s^-2"), ("t^-1 s^-1", "s t"),
    ]
    for xt, qt in cases:
        x = f2.parse_label(xt).payload
        q = f2.parse_label(qt).payload
        S = WordSet.make(f2, cylinders=[q])
        T = _left_translate(f2, x, S)
        image = {f2.reduce_word(x + w) for w in members_upto(S, 9)}
        got = members_upto(T, 4)
        want = {w for w in image if f2.letter_length(w) <= 4}
        assert got == want, (xt, qt, sorted(got - want), sorted(want - got))


def test_translations_two_finite_factors(rng):
    z35 = fk.GroupDualSystem([3, 5])
    pool = enum_words(z35, 2)
    for _ in range(25):
        x = rng.choice(pool)
        S = random_wordset(z35, rng, max_cyl=2, max_inc=1, max_exc=1)
        left = _left_translate(z35, x, S)
        image = {z35.reduce_word(x + w) for w in members_upto(S, 6)}
        assert members_upto(left, 3) == {w for w in image if z35.letter_length(w) <= 3}
        right = _right_translate(z35, S, x)
        image = {z35.reduce_word(w + x) for w in members_upto(S, 6)}
        assert members_upto(right, 3) == {w for w in image if z35.letter_length(w) <= 3}


# -- the replaced shell and point-by-point paths, kept as oracles -------------

def descend(sys, w, depth):
    """All strict tree extensions of ``w``: (interior at depth < k, frontier at k)."""
    interior, frontier, layer = [], [], [w]
    for step in range(depth):
        nxt = [c for node in layer for c in sys.children(node)]
        if step + 1 == depth:
            frontier = nxt
        else:
            interior.extend(nxt)
        layer = nxt
    return interior, frontier


def shell_right_translate(sys, S, x):
    """Right translation by a frontier decomposition, enumerating the shell."""
    if x == ():
        return S
    cyls = set()
    words = set()
    lx = sys.letter_length(x)
    deep, shell = lx + 2, 2 * lx + 2
    for q in S.cylinders:
        # extensions at depth >= deep translate to whole subtrees; products
        # from the shallow shell may land anywhere and are enumerated
        shell_interior, _ = descend(sys, q, shell)
        frontier = [d for d in shell_interior
                    if sys.letter_length(d) - sys.letter_length(q) == deep]
        cyls.update(frontier)
        for w in [q, *shell_interior]:
            words.add(sys.reduce_word(w + x))
    excl = {sys.reduce_word(w + x) for w in S.excludes}
    words -= excl
    reincluded = {sys.reduce_word(w + x) for w in S.includes}
    return WordSet.make(sys, cyls, words | reincluded, excl - reincluded)


def z_product_reference(sys, S, T):
    """Product of two word sets in the dual of Z, rays and points case by case."""
    # dual of Z: words are g^k, cylinders are the half-rays {g^(s*k) : k >= a}

    def parts(W):
        rays = [(1 if p[0][1] > 0 else -1, abs(p[0][1])) for p in W.cylinders]
        points = {w[0][1] if w else 0 for w in W.includes}
        exc = {w[0][1] if w else 0 for w in W.excludes}
        return rays, points, exc

    def word_at(k):
        return () if k == 0 else ((0, k),)

    rays_s, pts_s, exc_s = parts(S)
    rays_t, pts_t, exc_t = parts(T)
    out_values = set()
    out_rays = set()  # (sign, first magnitude fully reached)

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

    def ray_plus_point(s, a, exc, j):
        # {s*k + j : k >= a, s*k not excluded}
        biggest = max((abs(v) for v in exc), default=0)
        k0 = max(a, biggest + abs(j) + 2)
        for k in range(a, k0):
            if s * k not in exc:
                out_values.add(s * k + j)
        out_rays.add((s, abs(s * k0 + j)))

    for (s1, a1) in rays_s:
        for j in pts_t:
            ray_plus_point(s1, a1, exc_s, j)
    for (s2, a2) in rays_t:
        for i in pts_s:
            ray_plus_point(s2, a2, exc_t, i)
    for i in pts_s:
        for j in pts_t:
            out_values.add(i + j)

    cylinders = [word_at(s * a) for s, a in out_rays]
    includes = [word_at(v) for v in out_values]
    return WordSet.make(sys, cylinders, includes)


def oracle_operand(sys, rng, pool, deep):
    """A seeded word set: cylinders from ``pool`` or ``deep``, a word each way."""
    cyls = rng.sample(pool, k=rng.randint(0, 2)) + rng.sample(deep, k=rng.randint(0, 1))
    words = [rng.choice(sys.children(rng.choice(cyls))) if cyls and rng.random() < 0.5
             else rng.choice(pool) for _ in range(rng.randint(0, 2))]
    return WordSet.make(sys, cyls, words[:1], words[1:])


@pytest.mark.parametrize("factors", [[None, None], [None, 3], [3, 5], [None]],
                         ids=["f2", "z_z3", "z3_z5", "z"])
def test_right_translate_matches_shell_oracle(factors, rng):
    sys = fk.GroupDualSystem(factors)
    pool = enum_words(sys, 2)
    # deep cylinders and multipliers: s^+-5 prefixes, |exponent| >= 3 syllables
    deep = [((f, e),) for f, m in enumerate(factors) if m is None for e in (5, -5)]
    deep = deep or [((0, 1), (1, 4))]
    xs = [w for w in enum_words(sys, 3) if sys.letter_length(w) <= 3]
    xs += [((f, e),) for f, m in enumerate(factors) if m is None for e in (3, -3)]
    for _ in range(30):
        S = oracle_operand(sys, rng, pool, deep)
        x = rng.choice(xs)
        got = _right_translate(sys, S, x)
        assert got == shell_right_translate(sys, S, x), (S, x)
        assert got.cylinders == S.cylinders


def test_z_product_matches_reference(zdual, rng):
    rays = [((0, e),) for e in (1, 2, 3, 5, -1, -2, -4)]
    points = [() if e == 0 else ((0, e),) for e in range(-6, 7)]
    for _ in range(120):
        S, T = (WordSet.make(zdual, rng.sample(rays, k=rng.randint(0, 2)),
                             rng.sample(points, k=rng.randint(0, 3)),
                             rng.sample(points, k=rng.randint(0, 3)))
                for _ in range(2))
        assert fk.set_product(zdual, S, T) == z_product_reference(zdual, S, T), (S, T)


def test_right_translate_keeps_the_operand_cylinders(f2):
    S = WordSet.make(f2, cylinders=[f2.parse_label("s t").payload])
    for xt in ("t^-1 s^-1 t^2", "s^2 t^-1 s^-1 t^2"):
        R = _right_translate(f2, S, f2.parse_label(xt).payload)
        assert R.cylinders == S.cylinders
        assert len(R.includes) + len(R.excludes) <= 3


def test_left_translate_cascade_needs_no_stack(f2):
    # x = (t s)^60 cancels into Cyl(s^-1) one syllable at a time, 120 deep
    x = f2.parse_label(" ".join(["t s"] * 60)).payload
    S = WordSet.make(f2, cylinders=[f2.parse_label("s^-1").payload])
    T = with_stack_margin(_left_translate, f2, x, S)
    x_inv = f2.inverse_word(x)
    want = {u for u in enum_words(f2, 4) if S.member_word(f2.reduce_word(x_inv + u))}
    assert members_upto(T, 4) == want


def test_deep_cylinder_complement_needs_no_stack(f2):
    # the path from the root to Cyl(s^60) is 60 uncovered tree nodes deep
    S = WordSet.make(f2, cylinders=[f2.parse_label("s^60").payload])
    C = with_stack_margin(S.complement)
    deep = [f2.parse_label(t).payload
            for t in ("s^59", "s^60", "s^61", "s^59 t", "s^60 t^-1", "s^-60", "t s^60")]
    for w in enum_words(f2, 4) + deep:
        assert C.member_word(w) != S.member_word(w)
    assert C.union(S) == WordSet.full(f2)


# -- set products ------------------------------------------------------------

def test_set_product_group_examples(f2):
    s = f2.parse_label("s")
    t = f2.parse_label("t")
    st = f2.parse_label("s t")
    prod = fk.set_product(f2, WordSet.finite(f2, [s]), WordSet.finite(f2, [t]))
    assert prod == WordSet.finite(f2, [st])
    # {s} o (words starting with t) = words starting with "s t"
    T = WordSet.make(f2, cylinders=[t.payload])
    prod = fk.set_product(f2, WordSet.finite(f2, [s]), T)
    assert prod == WordSet.make(f2, cylinders=[st.payload])


def test_set_product_interval_family(ao3):
    S = FiniteIrrSet(ao3, frozenset([ao3.r(2)]))
    prod = fk.set_product(ao3, S, S)
    assert isinstance(prod, FiniteIrrSet)
    assert prod.labels == frozenset({ao3.r(1), ao3.r(3)})
    assert fk.set_product(ao3, [ao3.r(2)], S) == prod


def test_finite_irr_set_is_for_families_without_a_word_tree(f2, ao3, zmod3):
    for sys in (f2, zmod3):
        with pytest.raises(fk.FusionError):
            FiniteIrrSet(sys, frozenset([sys.unit]))
    A = FiniteIrrSet(ao3, frozenset([ao3.r(1), ao3.r(2)]))
    B = FiniteIrrSet(ao3, frozenset([ao3.r(2), ao3.r(3)]))
    assert A.union(B).labels == frozenset([ao3.r(1), ao3.r(2), ao3.r(3)])
    assert A.intersect(B) == FiniteIrrSet(ao3, frozenset([ao3.r(2)]))
    assert A.intersect(FiniteIrrSet(ao3, frozenset([ao3.r(3)]))).is_empty()
    with pytest.raises(fk.FamilyMismatchError):
        A.union(WordSet.finite(f2, [f2.unit]))
    with pytest.raises(fk.FamilyMismatchError):
        A.intersect(FiniteIrrSet(fk.AoSystem(4), frozenset()))


def test_set_product_sizes_group_dual(f2, rng):
    pool = [f2.word(w) for w in enum_words(f2, 2)]
    for _ in range(20):
        A = frozenset(rng.sample(pool, k=rng.randint(1, 6)))
        B = frozenset(rng.sample(pool, k=rng.randint(1, 6)))
        prod = fk.set_product(f2, WordSet.finite(f2, A), WordSet.finite(f2, B))
        assert prod.is_finite()
        n = len(prod.includes)
        assert n <= len(A) * len(B)
        expect = {f2.reduce_word(a.payload + b.payload) for a in A for b in B}
        assert n == len(expect)


def test_set_product_distributes_over_union(f2, rng):
    for _ in range(15):
        A = random_wordset(f2, rng, max_cyl=1, max_inc=1, max_exc=0)
        B = random_wordset(f2, rng, max_cyl=1, max_inc=1, max_exc=0)
        x = WordSet.finite(f2, [f2.word(rng.choice(enum_words(f2, 2)))])
        lhs = fk.set_product(f2, x, A.union(B))
        rhs = fk.set_product(f2, x, A).union(fk.set_product(f2, x, B))
        assert lhs == rhs


def test_cylinder_cylinder_products(f2, zdual, zmod3):
    # nonelementary: product of two infinite cylinder sets is everything
    S = WordSet.make(f2, cylinders=[f2.parse_label("s").payload])
    T = WordSet.make(f2, cylinders=[f2.parse_label("t^-1").payload])
    assert fk.set_product(f2, S, T) == WordSet.full(f2)
    # dual of Z: same-direction rays add
    P = WordSet.make(zdual, cylinders=[zdual.parse_label("g1^2").payload])
    Q = WordSet.make(zdual, cylinders=[zdual.parse_label("g1^3").payload])
    got = fk.set_product(zdual, P, Q)
    assert got == WordSet.make(zdual, cylinders=[zdual.parse_label("g1^5").payload])
    # opposite rays cover the whole line
    Qn = WordSet.make(zdual, cylinders=[zdual.parse_label("g1^-1").payload])
    assert fk.set_product(zdual, P, Qn) == WordSet.full(zdual)
    # the whole line, less a point, times a ray is the whole line, in either order
    line = WordSet.make(zdual, cylinders=[()], excludes=[()])
    assert fk.set_product(zdual, line, P) == fk.set_product(zdual, Qn, line) == WordSet.full(zdual)
    # sanity for the nonelementary shortcut: bounded witnesses for random targets
    for target in enum_words(f2, 2):
        found = any(
            f2.reduce_word(a + b) == target
            for a in members_upto(S, 4) for b in members_upto(T, 4))
        assert found, target


def test_unsupported_products(f2, zd2):
    inf = WordSet.make(f2, cylinders=[f2.parse_label("s").payload])
    conj = fk.set_conj(f2, inf)
    with pytest.raises(fk.UnsupportedSetOperation):
        fk.set_product(f2, conj, inf)
    d4 = fk.GroupDualSystem([2, 2])
    A = WordSet.make(d4, cylinders=[d4.parse_label("g1").payload])
    with pytest.raises(fk.UnsupportedSetOperation):
        fk.set_product(d4, A, A)


def test_set_conj(f2, ao3):
    s, t = f2.parse_label("s"), f2.parse_label("t")
    fin = WordSet.finite(f2, [s, t])
    conj = fk.set_conj(f2, fin)
    assert conj == WordSet.finite(f2, [f2.conj_irr(s), f2.conj_irr(t)])
    assert fk.set_conj(f2, conj) == fin
    inf = WordSet.make(f2, cylinders=[s.payload])
    wrapped = fk.set_conj(f2, inf)
    assert wrapped.member(f2.parse_label("s^-2"))
    assert not wrapped.member(f2.parse_label("s^2"))
    assert fk.set_conj(f2, wrapped) is inf
    ao_set = FiniteIrrSet(ao3, frozenset([ao3.r(4)]))
    assert fk.set_conj(ao3, ao_set) == ao_set


# -- witnesses ----------------------------------------------------------------

def test_check_witness_dual_of_z_fails(zdual):
    g = zdual.parse_label("g1")
    D = WordSet.make(zdual, cylinders=[g.payload])  # {g^k : k > 0}
    E = D.complement()
    w = fk.PowersWitness(F=[g], D=D, E=E, r1=zdual.unit, r2=g,
                         r3=zdual.parse_label("g1^-1"))
    verdict = fk.check_witness(zdual, w)
    assert not verdict.holds
    assert verdict.exact
    assert "F o D meets D" in verdict.detail


def test_check_witness_empty_f_vacuous(f2):
    t = f2.parse_label("t")
    D = WordSet.make(f2, cylinders=[t.payload, f2.parse_label("t^-1").payload])
    E = D.complement()
    w = fk.PowersWitness(F=[], D=D, E=E, r1=t, r2=f2.parse_label("t^2"),
                         r3=f2.parse_label("t^-1"))
    verdict = fk.check_witness(f2, w)
    assert verdict.holds and verdict.exact
    assert "vacuous" in verdict.detail


def test_check_witness_rejects_unit_in_f(f2):
    D = WordSet.make(f2, cylinders=[f2.parse_label("t").payload])
    w = fk.PowersWitness(F=[f2.unit], D=D, E=D.complement(),
                         r1=f2.parse_label("t"), r2=f2.parse_label("t^2"),
                         r3=f2.parse_label("t^3"))
    with pytest.raises(fk.FusionError):
        fk.check_witness(f2, w)


def test_check_witness_bad_partition(f2):
    t = f2.parse_label("t")
    D = WordSet.make(f2, cylinders=[t.payload])
    verdict = fk.check_witness(f2, fk.PowersWitness(
        F=[], D=D, E=D, r1=t, r2=t, r3=t))
    assert not verdict.holds and "overlap" in verdict.detail
    E_small = WordSet.finite(f2, [f2.unit])
    verdict = fk.check_witness(f2, fk.PowersWitness(
        F=[], D=D, E=E_small, r1=t, r2=t, r3=t))
    assert not verdict.holds and "cover" in verdict.detail


def test_group_dual_witness_radius_unused_on_every_path(f2):
    t = f2.parse_label("t")
    D = WordSet.make(f2, cylinders=[t.payload])
    cases = [([], D, "overlap"), ([], WordSet.finite(f2, [f2.unit]), "cover"),
             ([t], D.complement(), "F o D meets D"), ([], D.complement(), "r1 o E meets r2 o E")]
    for F, E, reason in cases:
        verdict = fk.check_witness(f2, fk.PowersWitness(
            F=F, D=D, E=E, r1=t, r2=t, r3=t, truncation_radius=3))
        assert not verdict.holds and verdict.exact and reason in verdict.detail
        assert verdict.detail.endswith("; truncation_radius 3 unused: the check is exact")


def test_search_witness_f2(f2):
    F = [f2.parse_label("s"), f2.parse_label("s^-1")]
    w = fk.search_witness(f2, F, budget=2)
    assert w is not None
    verdict = fk.check_witness(f2, w)
    assert verdict.holds and verdict.exact


def test_search_witness_dual_of_z_finds_nothing(zdual):
    assert fk.search_witness(zdual, [zdual.parse_label("g1")], budget=3) is None


def test_search_witness_rejects_unit(f2):
    with pytest.raises(fk.FusionError):
        fk.search_witness(f2, [f2.unit], budget=1)


def test_search_witness_rejects_negative_budget(f2):
    with pytest.raises(fk.FusionError, match="budget must be >= 0"):
        fk.search_witness(f2, [f2.parse_label("s")], budget=-1)


def test_truncated_witness_check(ao3):
    # finite sets can only be checked within a radius, and are flagged
    labels = [ao3.r(k) for k in range(1, 12)]
    D = FiniteIrrSet(ao3, frozenset(labels[1::2]))
    E = FiniteIrrSet(ao3, frozenset(labels[0::2]))
    w = fk.PowersWitness(F=[ao3.r(3)], D=D, E=E, r1=ao3.r(1), r2=ao3.r(5),
                         r3=ao3.r(9), truncation_radius=5)
    verdict = fk.check_witness(ao3, w)
    # the partition holds within the radius, and F o D hits D for the interval rule
    assert verdict == fk.WitnessCheck(False, False, "F o D meets D")
    short = fk.PowersWitness(F=[ao3.r(3)], D=D, E=FiniteIrrSet(ao3, frozenset(labels[0:4:2])),
                             r1=ao3.r(1), r2=ao3.r(5), r3=ao3.r(9), truncation_radius=5)
    assert fk.check_witness(ao3, short) == fk.WitnessCheck(
        False, False, "1 irreducibles within radius 5 uncovered")


# -- the two-body tree walks, kept as oracles ----------------------------------
# Each states the Z/m case as a second body beside the Z ray walk.

def two_body_children(sys, w):
    out = []
    last = w[-1][0] if w else None
    for i, m in enumerate(sys.factors):
        if i == last:
            if m is None:
                f, e = w[-1]
                step = 1 if e > 0 else -1
                out.append(w[:-1] + ((f, e + step),))
        elif m is None:
            out.append(w + ((i, 1),))
            out.append(w + ((i, -1),))
        else:
            out.extend(w + ((i, e),) for e in range(1, m))
    return out


def two_body_tree_path(sys, w):
    out = [()]
    for i, (f, e) in enumerate(w):
        if sys.factors[f] is None:
            step = 1 if e > 0 else -1
            out.extend(w[:i] + ((f, h),) for h in range(step, e + step, step))
        else:
            out.append(w[:i + 1])
    return out


def two_body_left_mul_cyl(sys, x, q, cyls, words, todo):
    def cross_children(w):
        return [c for c in two_body_children(sys, w) if len(c) > len(w)]

    if not q:
        cyls.add(())
        return
    r1 = sys.mul_words(x, q[:-1])
    f, e = q[-1]
    if not r1 or r1[-1][0] != f:
        cyls.add(r1 + ((f, e),))
        return
    r2, a = r1[:-1], r1[-1][1]
    m = sys.factors[f]
    if m is not None:
        me = (a + e) % m
        if me:
            cyls.add(r2 + ((f, me),))
            return
        words.add(r2)
        for c in cross_children(q):
            if r2 and r2[-1][0] == c[-1][0]:
                todo.append(c)
            else:
                cyls.add(r2 + (c[-1],))
        return
    s = 1 if e > 0 else -1
    j = 0
    while True:
        Mj = a + e + j * s
        if Mj != 0 and (Mj > 0) == (s > 0):
            cyls.add(r2 + ((f, Mj),))
            return
        qj = q[:-1] + ((f, e + j * s),)
        words.add(r2 if Mj == 0 else r2 + ((f, Mj),))
        for c in cross_children(qj):
            h, eps = c[-1]
            if Mj != 0:
                cyls.add(r2 + ((f, Mj), (h, eps)))
            elif r2 and r2[-1][0] == h:
                todo.append(c)
            else:
                cyls.add(r2 + ((h, eps),))
        j += 1


def two_body_words(sys, depth):
    """Every word to tree depth ``depth``, enumerated by the oracle."""
    out, layer = [()], [()]
    for _ in range(depth):
        layer = [c for w in layer for c in two_body_children(sys, w)]
        out += layer
    return out


TREE_GROUPS = {"f2": [None, None], "z_z3": [None, 3], "z2_z3": [2, 3], "z2_z": [2, None],
               "z3_z3": [3, 3], "z4_z_z6": [4, None, 6], "z": [None], "z5": [5]}


@pytest.mark.parametrize("factors", TREE_GROUPS.values(), ids=TREE_GROUPS.keys())
def test_tree_walks_match_two_body_oracles(factors):
    sys = fk.GroupDualSystem(factors)
    for w in two_body_words(sys, 4):
        kids = sys.children(w)
        assert kids == two_body_children(sys, w), w
        assert all(sys.validate_payload(c) == c for c in kids)
        assert sys.tree_path(w) == two_body_tree_path(sys, w), w


@pytest.mark.parametrize("factors", TREE_GROUPS.values(), ids=TREE_GROUPS.keys())
def test_left_mul_cyl_matches_two_body_oracle(factors):
    # every multiplier x and prefix q to depth 4; to depth 3 in Z/4*Z*Z/6,
    # whose 3377 words to depth 4 would make 11 million pairs
    sys = fk.GroupDualSystem(factors)
    words = two_body_words(sys, 3 if len(factors) > 2 else 4)
    for x, q in itertools.product(words, repeat=2):
        got, want = (set(), set(), []), (set(), set(), [])
        powers._left_mul_cyl(sys, x, q, *got)
        two_body_left_mul_cyl(sys, x, q, *want)
        assert got == want, (x, q)


@pytest.mark.parametrize("factors", TREE_GROUPS.values(), ids=TREE_GROUPS.keys())
def test_left_translate_matches_two_body_oracle(factors, rng, monkeypatch):
    sys = fk.GroupDualSystem(factors)
    pool, xs = two_body_words(sys, 2), two_body_words(sys, 4)
    # deep Z prefixes, which multipliers to depth 4 walk along for several
    # steps; with no Z factor, prefixes to depth 4
    deep = [((f, e),) for f, m in enumerate(factors) if m is None for e in (5, -5)] or xs

    def operand():
        cyls = rng.sample(pool, k=rng.randint(0, 2)) + rng.sample(deep, k=rng.randint(0, 1))
        # a word under a cylinder, where a child of it exists, or anywhere
        words = [rng.choice(two_body_children(sys, rng.choice(cyls)) or xs)
                 if cyls and rng.random() < 0.5 else rng.choice(xs)
                 for _ in range(rng.randint(0, 3))]
        return WordSet.make(sys, cyls, words[:1], words[1:])

    cases = [(rng.choice(xs), operand()) for _ in range(60)]
    got = [_left_translate(sys, x, S) for x, S in cases]
    monkeypatch.setattr(powers, "_left_mul_cyl", two_body_left_mul_cyl)
    want = [_left_translate(sys, x, S) for x, S in cases]
    for (x, S), g, w in zip(cases, got, want):
        assert (g.cylinders, g.includes, g.excludes) == (w.cylinders, w.includes,
                                                          w.excludes), (x, S)


# -- the witness search against its per-triple reference ----------------------

def search_witness_reference(sys, F, budget):
    """``search_witness`` with one ``_meeting_pair`` call per r-triple, so
    each pair of translates is intersected afresh for every triple; also
    counts the candidate partitions that reach the triple loop."""
    letters = sorted(sys.children(()), key=sys.word_key)
    r_pool, layer = [()], [()]
    for _ in range(budget):
        layer = [c for w in layer for c in sys.children(w)]
        r_pool += layer
    r_pool.sort(key=sys.word_key)
    reached = 0
    for mask in range(1, 2 ** len(letters) - 1):
        chosen = [letters[i] for i in range(len(letters)) if mask >> i & 1]
        for unit_in_d in (False, True):
            D = WordSet.make(sys, cylinders=chosen, includes=[()] if unit_in_d else [])
            if any(not _left_translate(sys, lab.payload, D).intersect(D).is_empty()
                   for lab in F):
                continue
            reached += 1
            E = D.complement()
            translates = [_left_translate(sys, w, E) for w in r_pool]
            for i, j, k in itertools.combinations(range(len(r_pool)), 3):
                if _meeting_pair([translates[i], translates[j], translates[k]]) is not None:
                    continue
                witness = fk.PowersWitness(F=list(F), D=D, E=E, r1=sys.word(r_pool[i]),
                                           r2=sys.word(r_pool[j]), r3=sys.word(r_pool[k]))
                verdict = fk.check_witness(sys, witness)
                if verdict.holds and verdict.exact:
                    return witness, reached
    return None, reached


@pytest.mark.parametrize("family", ["f2", "zmod3", "z2z3", "z2z2", "zdual"])
def test_search_witness_matches_reference(family, rng, request):
    sys = (fk.GroupDualSystem([2, 3], names=["a", "b"]) if family == "z2z3"
           else fk.GroupDualSystem([2, 2], names=["a", "b"]) if family == "z2z2"
           else request.getfixturevalue(family))
    pool = [w for w in enum_words(sys, 2) if w]

    def labels(w):
        return None if w is None else (repr(w.D), repr(w.E), repr(w.r_labels()))

    # with F empty at budget 1 several partitions reach the triple loop
    cases = [([], 1)] + [([sys.word(w) for w in rng.sample(pool, k=rng.randint(0, 2))],
                          rng.randint(0, 3)) for _ in range(8)]
    most_reached = 0
    for F, budget in cases:
        want, reached = search_witness_reference(sys, F, budget)
        assert labels(fk.search_witness(sys, F, budget)) == labels(want), (F, budget)
        if want is not None:
            most_reached = max(most_reached, reached)
    if family in ("f2", "zmod3", "z2z3"):
        # a witness found past the first partition that reached the triple loop
        assert most_reached > 1


def test_search_forms_each_translate_on_first_use(f2, monkeypatch):
    # budget 4 pools the 161 words of F2 of tree depth <= 4.  Counting the F
    # checks and the witness check, forming every translate of E up front took
    # 174 translations, and forming one afresh at each use takes 111
    real, calls = powers._left_translate, []
    monkeypatch.setattr(powers, "_left_translate",
                        lambda *args: calls.append(args[1]) or real(*args))
    F = [f2.parse_label("s"), f2.parse_label("s^-1")]
    w = fk.search_witness(f2, F, budget=4)
    assert [f2.format_label(r) for r in w.r_labels()] == ["e", "t^-1 s^-1 t", "t^-1 s t"]
    assert len(calls) == 62
    monkeypatch.undo()
    assert fk.check_witness(f2, w) == fk.WitnessCheck(True, True, "all conditions hold")


# -- a finite cyclic group: every cylinder is finite -------------------------

@pytest.fixture
def z3():
    sys = fk.GroupDualSystem([3], names=["h"])
    return sys, WordSet.make(sys, includes=enum_words(sys, 1))


def test_finite_group_full_minus_every_element_is_empty(z3):
    sys, every = z3
    assert WordSet.full(sys).minus(every).is_empty()


def test_finite_group_full_equals_its_elements(z3):
    sys, every = z3
    assert WordSet.full(sys) == every


def test_finite_group_product_of_full_sets(z3):
    sys, every = z3
    assert fk.set_product(sys, WordSet.full(sys), WordSet.full(sys)) == every


def test_finite_group_witness_partition_covers(z3):
    sys, _ = z3
    e, h, h2 = (sys.parse_label(t) for t in ("e", "h", "h^2"))
    verdict = fk.check_witness(sys, fk.PowersWitness(
        F=[h], D=[h], E=[e, h2], r1=e, r2=h, r3=h2))
    assert verdict == fk.WitnessCheck(False, True, "r1 o E meets r2 o E")
