import threading

import pytest

import fusionkit as fk
from fusionkit import FusionElement

from conftest import label_pool, random_element


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
    assert ao2.power(u, 0) == ao2.unit_element()
    assert ao2.power(u, 1) == u
    assert ao2.power(u, 2) == ao2.tensor(u, u)
    with pytest.raises(fk.FusionError):
        ao2.power(u, -1)


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
    assert results[0] == ao3.power(u, 12)


def test_element_hash_and_contains(ao2):
    x = FusionElement({ao2.r(1): 1, ao2.r(3): 2})
    y = FusionElement({ao2.r(3): 2, ao2.r(1): 1})
    assert x == y and hash(x) == hash(y)
    assert x.contains(FusionElement({ao2.r(3): 1}))
    assert not x.contains(FusionElement({ao2.r(3): 3}))


# -- unit multiplicities at half depth, against the full-power expansion

def moments_by_full_powers(sys, x, N):
    """Oracle: form every power x^j, j = 0..N, and read the unit off each."""
    acc = sys.unit_element()
    out = [acc.mult(sys.unit)]
    for _ in range(N):
        acc = sys.tensor(acc, x)
        out.append(acc.mult(sys.unit))
    return out


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
