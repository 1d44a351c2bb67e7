from itertools import product

import oracles as o


def test_catalan():
    assert [o.catalan(k) for k in range(8)] == [1, 1, 2, 5, 14, 42, 132, 429]


def test_interval_and_free_unitary_counts():
    assert o.ao_counts(3) == ([4, 32, 320], [1, 2, 5])
    assert o.aut_counts(3) == ([8, 224, 8448], [2, 14, 132])
    assert o.au_counts(4) == ([2, 8, 40, 224], [1, 2, 5, 14])


def _closed_walks(neighbours, start, n):
    counts = {start: 1}
    out = [1]
    for _ in range(n):
        nxt = {}
        for v, c in counts.items():
            for w in neighbours(v):
                nxt[w] = nxt.get(w, 0) + c
        counts = nxt
        out.append(counts.get(start, 0))
    return out


def test_tree_walks_match_walks_in_the_free_group():
    f2 = o.FreeProduct([None, None])
    steps = [(l,) for l in f2.letters]
    walks = _closed_walks(lambda w: [f2.mul(w, s) for s in steps], (), 8)
    assert o.tree_walks(4, 8) == walks == [1, 0, 4, 0, 28, 0, 232, 0, 2092]


def test_z2_walks_match_lattice_walks():
    steps = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    walks = _closed_walks(lambda v: [(v[0] + a, v[1] + b) for a, b in steps], (0, 0), 8)
    assert o.z2_walks(8) == walks


def test_lazy_moments_add_the_unit():
    # (1 + A)^j: binomial mixture of walk counts
    assert o.lazy_moments([1, 0, 2]) == [1, 1, 3]
    m = o.lazy_moments(o.tree_walks(4, 4))
    assert m[:3] == [1, 1, 5] and o.f2_counts(2) == ([4 * 5, 16 * m[4]], [5, m[4]])


def test_ball_sizes_match_enumeration():
    f2 = o.FreeProduct([None, None])
    modular = o.FreeProduct([2, 3])
    for r in range(6):
        assert o.f2_ball(r) == len(f2.words_upto(r))
        assert o.modular_ball(r) == len(modular.words_upto(r))
        assert o.z2_ball(r) == sum(abs(x) + abs(y) <= r
                                   for x, y in product(range(-r, r + 1), repeat=2))


def test_noncrossing_alternating_pairings():
    X, S = False, True
    assert o.noncrossing_alternating(()) == 1
    assert o.noncrossing_alternating((X, S)) == 1
    assert o.noncrossing_alternating((X, X)) == 0
    assert o.noncrossing_alternating((X, S, X, S)) == 2
    assert o.noncrossing_alternating((X, X, S, S)) == 1
    assert o.noncrossing_alternating((X, S, S, X)) == 1


def test_free_product_word_algebra():
    g = o.FreeProduct([None, 3])
    h = (1, 1)
    assert g.mul((h,), (h,)) == ((1, 2),)
    assert g.mul((h,), ((1, 2),)) == ()
    assert g.mul(((0, 1), h), (g.inverse(((0, 1), h)))) == ()
    for w in g.words_upto(4):
        assert g.from_payload(g.to_payload(w)) == w
        assert g.mul(w, g.inverse(w)) == ()
    assert g.to_payload(((0, 1), (0, 1), (1, 2))) == ((0, 2), (1, 2))
    assert g.text(((0, -1), (0, -1), (1, 1)), ("g", "h")) == "g^-2 h"


def test_letter_sets_and_translations():
    f2 = o.FreeProduct([None, None])
    s, t = (0, 1), (1, 1)
    S = o.LetterSet(cylinders=[(s,)], includes=[(t,)], excludes=[(s, s), (t,)])
    assert S.member((s, t)) and S.member((t,)) and not S.member((s, s))
    assert not S.member(())
    everything = o.LetterSet(cylinders=[()])
    ball = set(f2.words_upto(3))
    assert o.translate_within(f2, everything.member, (s,), (t,), 3) == ball
    # s^-1 . Cyl(s) holds e and every word not starting with s^-1
    got = o.translate_within(f2, o.LetterSet(cylinders=[(s,)]).member, ((0, -1),), (), 2)
    assert got == {w for w in f2.words_upto(2) if not w or w[0] != (0, -1)}
