import pytest

import fusionkit as fk
from fusionkit import FusionElement

from conftest import au_split_oracle, closed_form_dim, with_stack_margin


# -- dimensions against the closed form in the quadratic field Q(sqrt(n^2-4))

@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_ao_dims_match_closed_form(n):
    sys = fk.AoSystem(n)
    for k in range(1, 16):
        assert sys.dim_irr(sys.r(k)) == closed_form_dim(n, k)


def test_ao_dim_examples(ao3, ao2):
    assert ao3.dim_irr(ao3.r(3)) == 8
    assert ao3.dim_irr(ao3.r(4)) == 21  # recursion 3*8 - 3
    assert [ao3.dim_irr(ao3.r(k)) for k in range(1, 6)] == [1, 3, 8, 21, 55]
    assert [ao2.dim_irr(ao2.r(k)) for k in range(1, 8)] == list(range(1, 8))


def test_ao_tensor_interval(ao2, ao3):
    assert ao2.tensor_pair(ao2.r(2), ao2.r(2)) == FusionElement({ao2.r(1): 1, ao2.r(3): 1})
    assert ao3.tensor_pair(ao3.r(2), ao3.r(3)) == FusionElement({ao3.r(2): 1, ao3.r(4): 1})
    for k in range(1, 6):
        assert ao3.tensor_pair(ao3.r(1), ao3.r(k)) == FusionElement({ao3.r(k): 1})


def test_aut_rules(aut4):
    s = aut4.s
    assert aut4.tensor_pair(s(1), s(1)) == FusionElement({s(0): 1, s(1): 1, s(2): 1})
    assert aut4.tensor_pair(s(0), s(3)) == FusionElement({s(3): 1})
    assert aut4.dim_irr(s(2)) == 5  # (n-2)*d1 - d0 = 2*3 - 1
    assert aut4.dim(fk.fundamental(aut4)) == 4


def test_aut_rejects_small_n():
    for n in (1, 2, 3):
        with pytest.raises(fk.FusionError):
            fk.AutSystem(n)


def test_au_bar():
    assert fk.au_bar("a") == "b"
    assert fk.au_bar("") == ""
    assert fk.au_bar("ab") == "ab"
    assert fk.au_bar("aab") == "abb"


def test_au_tensor_examples(au2):
    w = au2.word
    unit = au2.unit_element()
    assert au2.tensor_pair(au2.word("a"), au2.word("b")) == FusionElement({w("ab"): 1}) + unit
    assert au2.tensor_pair(au2.word("a"), au2.word("a")) == FusionElement({w("aa"): 1})
    assert au2.tensor_pair(au2.word("ab"), au2.word("ab")) == (
        FusionElement({w("abab"): 1}) + FusionElement({w("ab"): 1}) + unit)


def test_au_tensor_against_split_oracle(au2, rng):
    words = [""]
    for _ in range(4):
        words += [w + c for w in words for c in "ab"]
    words = sorted(set(words))
    for _ in range(200):
        x, y = rng.choice(words), rng.choice(words)
        assert au2.tensor_pair(au2.word(x), au2.word(y)) == au_split_oracle(au2, x, y)


def test_au_unit_multiplicity_all_words_up_to_6(au2):
    words = [""]
    for _ in range(6):
        words = words + [w + c for w in words if len(w) == max(map(len, words)) for c in "ab"]
    words = sorted({w for w in words if len(w) <= 6})
    for x in words:
        prod = au2.tensor_pair(au2.word(x), au2.word(fk.au_bar(x)))
        assert prod.mult(au2.unit) == 1


def au_dim_by_recursion(n, w):
    """Oracle: the recursion over the last letter, one frame per letter."""
    if not w:
        return 1
    d = n * au_dim_by_recursion(n, w[:-1])
    if len(w) >= 2 and w[-2] == fk.au_bar(w[-1]):
        d -= au_dim_by_recursion(n, w[:-2])
    return d


def test_au_dims_match_the_letter_recursion(rng):
    systems = [fk.AuSystem(n) for n in (2, 3, 5)]
    for _ in range(300):
        sys = rng.choice(systems)
        w = "".join(rng.choice("ab") for _ in range(rng.randint(0, 10)))
        assert sys.dim_irr(sys.word(w)) == au_dim_by_recursion(sys.n, w), (sys.n, w)


def test_au_dims_of_long_words_need_no_stack(au2):
    # a word of 3000 letters is far deeper than the 40 spare frames
    assert with_stack_margin(au2.dim_irr, au2.word("a" * 3000)) == 2 ** 3000
    # alternating letters: d_j = 2 d_{j-1} - d_{j-2}, so d_j = j + 1
    assert with_stack_margin(au2.dim_irr, au2.word("ab" * 1500)) == 3001


def test_au_dims(au2):
    assert au2.dim_irr(au2.word("a")) == 2
    assert au2.dim_irr(au2.word("ab")) == 3
    assert au2.dim_irr(au2.word("aa")) == 4
    # dimension homomorphism against the fusion rule
    for x, y in [("a", "b"), ("ab", "ab"), ("aab", "ba")]:
        prod = au2.tensor_pair(au2.word(x), au2.word(y))
        assert au2.dim(prod) == au2.dim_irr(au2.word(x)) * au2.dim_irr(au2.word(y))


def test_group_dual_reduction(f2, zmod3, zdual):
    assert zdual.tensor_pair(zdual.parse_label("g1^2"),
                             zdual.parse_label("g1^-2")) == zdual.unit_element()
    st = f2.tensor_pair(f2.parse_label("s"), f2.parse_label("t"))
    assert st == FusionElement({f2.parse_label("s t"): 1})
    # mod-3 reduction: h^2 * h^2 = h^4 = h
    h2 = zmod3.parse_label("h^2")
    assert zmod3.tensor_pair(h2, h2) == FusionElement({zmod3.parse_label("h"): 1})
    # cascading cancellation across factors
    w1 = f2.parse_label("s t")
    w2 = f2.parse_label("t^-1 s^-1")
    assert f2.tensor_pair(w1, w2) == f2.unit_element()


def test_group_dual_all_dims_one_and_single_support(f2, rng):
    pool = [f2.word(w) for w in
            [(), ((0, 1),), ((0, -2),), ((0, 1), (1, 2)), ((1, -1), (0, 3))]]
    for a in pool:
        assert f2.dim_irr(a) == 1
        for b in pool:
            assert len(f2.tensor_pair(a, b)) == 1


def test_pure_zmod3_dual():
    z3 = fk.GroupDualSystem([3])
    g2 = z3.parse_label("g1^2")
    assert z3.tensor_pair(g2, g2) == FusionElement({z3.parse_label("g1"): 1})
    assert z3.conj_irr(z3.parse_label("g1")) == g2
    assert z3.tensor_pair(g2, z3.parse_label("g1")) == z3.unit_element()


WORD_FACTORS = {
    "f2": [None, None],
    "z_z3": [None, 3],
    "z2_z2": [2, 2],
    "z3_z5": [3, 5],
    "z": [None],
    "z_z_z4": [None, None, 4],
}


def random_reduced_word(sys, rng, length, first_not=None):
    """A reduced word of ``length`` syllables whose first factor is not ``first_not``."""
    out, last = [], first_not
    for _ in range(length):
        choices = [f for f in range(len(sys.factors)) if f != last]
        if not choices:
            break
        f = rng.choice(choices)
        m = sys.factors[f]
        e = rng.randint(1, m - 1) if m else rng.choice([-1, 1]) * rng.randint(1, 3)
        out.append((f, e))
        last = f
    return tuple(out)


@pytest.mark.parametrize("name", WORD_FACTORS)
def test_inverse_word_matches_reduction(name, rng):
    sys = fk.GroupDualSystem(WORD_FACTORS[name])
    for _ in range(200):
        w = random_reduced_word(sys, rng, rng.randint(0, 8))
        inv = sys.inverse_word(w)
        assert inv == sys.reduce_word((f, -e) for f, e in reversed(w)), w
        assert sys.mul_words(w, inv) == () == sys.mul_words(inv, w)


@pytest.mark.parametrize("name", WORD_FACTORS)
def test_mul_words_matches_reduction(name, rng):
    sys = fk.GroupDualSystem(WORD_FACTORS[name])
    for _ in range(300):
        u = random_reduced_word(sys, rng, rng.randint(0, 8))
        v = random_reduced_word(sys, rng, rng.randint(0, 8))
        assert sys.mul_words(u, v) == sys.reduce_word(u + v), (u, v)
        # v = u^-1 cancels all the way
        assert sys.mul_words(u, sys.inverse_word(u)) == () == sys.reduce_word(
            u + sys.inverse_word(u))
        if not u:
            continue
        # v opens with inverse(u[-k:]) and then does not invert u[-k-1]:
        # the cascade stops inside u
        k = rng.randint(1, len(u))
        head = sys.inverse_word(u[-k:])
        while True:
            tail = random_reduced_word(sys, rng, rng.randint(0, 4), first_not=head[-1][0])
            if not (tail and k < len(u) and sys.reduce_word((u[-k - 1], tail[0])) == ()):
                break
        v = head + tail
        got = sys.mul_words(u, v)
        assert got == sys.reduce_word(u + v), (u, v)
        keep = max(len(u) - k - 1, 0)
        assert got[:keep] == u[:keep]


def checked_product(sys, u, v):
    got = sys.mul_words(u, v)
    assert got == sys.reduce_word(u + v)
    return got


def test_mul_words_merges_at_the_seam():
    z_z3 = fk.GroupDualSystem([None, 3])
    # Z/3 partial merge, g^2 . g^2 = g, after a full cancellation
    u, v = ((1, 2), (0, 3)), ((0, -3), (1, 2), (0, 1))
    assert checked_product(z_z3, u, v) == ((1, 1), (0, 1))
    # a Z exponent that changes sign keeps both outer syllables
    u, v = ((1, 1), (0, 2)), ((0, -5), (1, 2))
    assert checked_product(z_z3, u, v) == ((1, 1), (0, -3), (1, 2))
    z_z_z4 = fk.GroupDualSystem([None, None, 4])
    u, v = ((2, 3), (0, 1), (1, -2)), ((1, 2), (0, -1), (2, 3), (1, 1))
    assert checked_product(z_z_z4, u, v) == ((2, 2), (1, 1))


def test_zd_dual(zd2):
    g1, g2 = zd2.generators()
    x = zd2.tensor_pair(g1, g2)
    assert x == FusionElement({zd2.vector((1, 1)): 1})
    assert zd2.conj_irr(zd2.vector((2, -1))) == zd2.vector((-2, 1))
    assert zd2.format_label(zd2.vector((2, -1))) == "g1^2 g2^-1"
    assert zd2.parse_label("g1^2 g2^-1") == zd2.vector((2, -1))


def test_z_as_zd_and_as_free_product_agree(rng):
    """``Z`` built as ``Z^1`` and as a one-factor free product: the two
    payload bindings of the shared group law give the same label text."""
    texts = ["e"] + [f"g^{k}" if k != 1 else "g" for k in range(-6, 7) if k]
    cases = [(rng.randint(1, 3), rng.randint(1, 3), rng.choice(texts), rng.choice(texts))
             for _ in range(20)]

    def readings(s):
        lab = s.parse_label
        out = [s.format_label(s.conj_irr(lab(a))) for a in texts]
        out += [fk.format_element(s, s.tensor_pair(lab(a), lab(b))) for a in texts for b in texts]
        for c0, w, a, b in cases:
            v = fk.parse_element(s, f"{c0}*e + {w}*g + {w}*g^-1")
            out += [s.radial_chains(v), s.unit_moments(v, 12),
                    fk.distance(s, v, lab(a), lab(b)), fk.growth_table(s, v, lab(a), 6)]
        return out

    zd, fp = fk.ZdDualSystem(1, names=["g"]), fk.GroupDualSystem([None], names=["g"])
    assert readings(zd) == readings(fp)


def test_fundamental(ao3, aut4, au2, f2):
    assert fk.fundamental(ao3) == FusionElement({ao3.r(2): 1})
    assert ao3.dim(fk.fundamental(ao3)) == 3
    fund = fk.fundamental(aut4)
    assert fund == FusionElement({aut4.s(0): 1, aut4.s(1): 1})
    assert fk.fundamental(au2) == FusionElement({au2.word("a"): 1})
    v = fk.fundamental(f2)
    want = fk.parse_element(f2, "e + s + s^-1 + t + t^-1")
    assert v == want


def test_an_involution_is_one_letter():
    sys = fk.GroupDualSystem([2, None], names=["u", "s"])
    letters = [sys.parse_label(t) for t in ("u", "s", "s^-1")]
    assert sys._letters({0: 1, 1: 1}) == letters
    assert fk.fundamental(sys) == fk.parse_element(sys, "e + u + s + s^-1")
    x = fk.parse_element(sys, "2*e + 3*u + 3*s + 3*s^-1")
    assert sys._standard_support(x)
    assert sys.radial_chains(x) is None  # finite factors declare no chain


def test_steps_read_the_subgroup_each_factor_generates():
    # d_f generates what the exponents of factor f do: h^4 alone generates <h^2> in Z/6
    z6z = fk.GroupDualSystem([6, None], names=["h", "g"])
    zd2 = fk.ZdDualSystem(2)
    cases = [
        (z6z, "h^4", {0: 2}),
        (z6z, "2*e + h^3 + g^-6 + g^4", {0: 3, 1: 2}),
        (z6z, "e + h^2 + h^4 + g + g^-1", {0: 2, 1: 1}),
        (z6z, "3*e", {}),  # the unit alone generates the trivial group
        (z6z, "e + h g + g^-1 h^5", None),  # a key of two syllables
        (zd2, "g1^-4 + g1^6 + g2^3", {0: 2, 1: 3}),
        (zd2, "e + g1 g2", None),
    ]
    for sys, text, steps in cases:
        assert sys._steps(fk.parse_element(sys, text)) == steps, text


def test_label_serialization_roundtrip(ao3, aut4, au2, f2, zmod3):
    cases = [
        (ao3, ["r1", "r5"]),
        (aut4, ["s0", "s3"]),
        (au2, ["e", "ab", "aab"]),
        (f2, ["e", "s t^-1", "s^2 t s^-1"]),
        (zmod3, ["e", "g^3 h", "h^2 g"]),
    ]
    for sys, texts in cases:
        for text in texts:
            lab = sys.parse_label(text)
            assert sys.parse_label(sys.format_label(lab)) == lab


def test_invalid_labels(ao3, au2, f2):
    with pytest.raises(fk.InvalidLabelError):
        ao3.parse_label("r0")
    with pytest.raises(fk.InvalidLabelError):
        au2.word("abc")
    with pytest.raises(fk.InvalidLabelError):
        f2.parse_label("x")
    with pytest.raises(fk.InvalidLabelError):
        f2.label(((0, 1), (0, 1)))  # not reduced


@pytest.mark.parametrize("fixture", ["ao3", "aut4", "au2", "f2", "zd2"])
def test_empty_label_text_is_not_the_unit(request, fixture):
    sys = request.getfixturevalue(fixture)
    for text in ("", "  "):
        with pytest.raises(fk.InvalidLabelError):
            sys.parse_label(text)
    with pytest.raises(fk.InvalidLabelError):
        fk.parse_element(sys, "2*")


def test_element_parse_format_roundtrip(ao3, f2):
    x = fk.parse_element(ao3, "2*r1 + r3")
    assert x == FusionElement({ao3.r(1): 2, ao3.r(3): 1})
    assert fk.parse_element(ao3, fk.format_element(ao3, x)) == x
    v = fk.parse_element(f2, "e + s + s^-1")
    assert fk.parse_element(f2, fk.format_element(f2, v)) == v
    data = fk.element_to_json(ao3, x)
    assert data == [{"label": "r1", "mult": "2"}, {"label": "r3", "mult": "1"}]
    assert fk.element_from_json(ao3, data) == x


def test_system_from_config():
    sys = fk.system_from_config({"family": "a_o", "n": 3})
    assert isinstance(sys, fk.AoSystem) and sys.n == 3
    sys = fk.system_from_config(
        {"family": "group_dual", "factors": [{"type": "Z"}, {"type": "Zmod", "m": 3}]})
    assert isinstance(sys, fk.GroupDualSystem) and sys.factors == (None, 3)
    sys = fk.system_from_config({"family": "group_dual", "factors": [{"type": "Zd", "d": 2}]})
    assert isinstance(sys, fk.ZdDualSystem)
    with pytest.raises(fk.FusionError):
        fk.system_from_config({"family": "a_o", "n": 3, "mystery": True})
    with pytest.raises(fk.FusionError, match="cache_dir"):
        fk.system_from_config({"family": "a_o", "n": 3, "cache_dir": "cache"})
    with pytest.raises(fk.FusionError):
        fk.system_from_config({"family": "nope"})
    with pytest.raises(fk.FusionError):
        fk.system_from_config({"family": "aut", "n": 3})


def test_tree_path_steps_from_parent_to_child(f2, zmod3):
    # a Z syllable g^e is |e| steps along its ray, a Z/m syllable one step
    for sys, text in ((f2, "s^3 t^-2 s"), (zmod3, "g^-2 h^2 g h")):
        w = sys.parse_label(text).payload
        path = sys.tree_path(w)
        assert path[0] == () and path[-1] == w
        assert len(path) == sys.letter_length(w) + 1
        for parent, child in zip(path, path[1:]):
            assert child in sys.children(parent)
    assert f2.tree_path(()) == [()]
