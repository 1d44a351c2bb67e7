import math
from collections import Counter
from fractions import Fraction

import pytest

import fusionkit as fk
from fusionkit import ExponentLattice, Param, ParamList
from fusionkit.params import hermite_normal_form


def test_param_algebra():
    q = Param.generator("q")
    assert q * q.inv() == Param.one()
    assert (q ** 2) * (q ** Fraction(-1, 2)) == Param.generator("q", Fraction(3, 2))
    assert Param.one().is_one()
    assert Param.from_rational(Fraction(4)) == Param.from_rational(2) ** 2
    assert Param.from_rational(Fraction(1, 2)) == Param.from_rational(2) ** -1
    assert Param.from_rational(12) == Param.from_rational(4) * Param.from_rational(3)
    with pytest.raises(fk.FusionError):
        Param.from_rational(Fraction(-2))


def test_param_parse_and_str():
    assert Param.parse("q^2*r^-1") == Param.generator("q", 2) * Param.generator("r", -1)
    assert Param.parse("2^1/2") == Param.from_rational(2, Fraction(1, 2))
    assert Param.parse("1") == Param.one()
    assert Param.parse(str(Param.parse("q^-3/2"))) == Param.parse("q^-3/2")
    with pytest.raises(fk.FusionError):
        Param.parse("q^^2")


@pytest.mark.parametrize("text", ["", " ", "\t"])
def test_param_parse_rejects_empty_text(text):
    # only "1" spells the trivial parameter; a stray comma must not add one
    with pytest.raises(fk.FusionError, match="empty parameter"):
        Param.parse(text)
    with pytest.raises(fk.FusionError, match="empty parameter"):
        ParamList.parse(["2^1/2", "2^-1/2", text])


def test_large_prime_factors_raise_a_budget_error():
    # trial division stops at 10^6: a cofactor beyond it that is not yet
    # known to be prime would otherwise take up to sqrt(n) steps
    for text in ("1000000000000000003", str(1000003 * 1000033), "2^1/2*1000000000000000003^-1"):
        with pytest.raises(fk.BudgetExceededError, match="trial division"):
            Param.parse(text)


def factor_reference(n):
    """Oracle: the prime exponents of the integer ``n >= 1``, dividing by every ``d >= 2``."""
    out, d = {}, 2
    while n > 1:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    return out


def test_factorization_matches_brute_force(rng):
    small = [2, 3, 4, 5, 7, 9, 11, 13, 25, 49, 97, 101, 997, 1009]
    for _ in range(300):
        num, den = (math.prod(rng.choice(small) for _ in range(rng.randint(0, 5)))
                    * rng.randint(1, 3000) for _ in range(2))
        want = Counter(factor_reference(num))
        want.subtract(factor_reference(den))
        got = Param.from_rational(Fraction(num, den)).exponent_map()
        assert got == {p: e for p, e in want.items() if e}, (num, den)


@pytest.mark.parametrize("prime", [999999999989, 1000003])
def test_primes_below_the_trial_division_square_still_factor(prime):
    assert Param.parse(str(prime)).exponents == ((prime, 1),)
    assert Param.parse(f"{2 * prime}/3").exponent_map() == {2: 1, 3: -1, prime: 1}


def test_param_eval():
    q = Param.generator("q")
    assert q.eval({"q": 2.0}) == pytest.approx(2.0)
    assert (q ** -2).eval({"q": 2.0}) == pytest.approx(0.25)
    assert Param.parse("2^1/2").eval() == pytest.approx(math.sqrt(2))
    with pytest.raises(fk.FusionError):
        q.eval({})
    with pytest.raises(fk.FusionError):
        q.eval({"q": -1.0})
    for text in ("2^1200", "2^-1200", "q^2000"):
        with pytest.raises(fk.FusionError, match="leaves the float range"):
            Param.parse(text).eval({"q": 2.0})


def test_list_operations():
    one = Param.one()
    q = Param.generator("q")
    l1 = ParamList([one])
    assert l1.union(l1) == ParamList([one, one])
    lq = ParamList([q, q.inv()])
    prod = lq.product(lq)
    assert prod == ParamList([q ** 2, one, one, q ** -2])
    assert lq.inverse() == lq
    assert ParamList([q]).inverse() == ParamList([q.inv()])
    assert len(lq) == 2


def test_is_kac():
    assert fk.is_kac(ParamList.kac(3))
    assert fk.is_kac(ParamList())
    assert not fk.is_kac(ParamList.parse(["q", "q^-1"]))


def test_qdim():
    assert fk.qdim(ParamList.kac(5)) == pytest.approx(5.0)
    assert fk.qdim(ParamList.parse(["q", "q^-1"]), {"q": 2}) == pytest.approx(4.25)
    with pytest.raises(fk.FusionError):
        fk.qdim(ParamList.parse(["2"]))  # 4 != 1/4


def test_balance_formal():
    assert ParamList.parse(["q", "q^-1"]).is_balanced_formal()
    assert not ParamList.parse(["q"]).is_balanced_formal()
    assert ParamList.kac(4).is_balanced_formal()


def test_trig_eval():
    lst = ParamList.parse(["q", "q^-1"])
    t = 0.37
    got = fk.trig_eval(lst, t, {"q": 2.0})
    assert got.real == pytest.approx(2 * math.cos(2 * t * math.log(2)))
    assert got.imag == pytest.approx(0.0, abs=1e-12)
    assert fk.trig_eval(ParamList.kac(7), 1.3) == pytest.approx(7.0)
    assert fk.trig_eval(lst, 0.0, {"q": 5.0}) == pytest.approx(2.0)


def test_derive_lists_su2q(ao2):
    fund = ParamList.parse(["q", "q^-1"])
    lists = fk.derive_irreducible_lists(ao2, fund, depth=10)
    assert lists[ao2.unit] == ParamList([Param.one()])
    assert lists[ao2.r(3)] == ParamList.parse(["q^2", "1", "q^-2"])
    for k in range(1, 11):
        expect = ParamList([Param.generator("q", e) for e in range(k - 1, -k, -2)])
        assert lists[ao2.r(k)] == expect


@pytest.mark.parametrize("make, fund, depth", [
    (lambda: fk.AuSystem(2), ParamList.parse(["q", "q^-1"]), 8),
    (lambda: fk.AoSystem(2), ParamList.parse(["q^2", "q^-2"]), 8),
    (lambda: fk.AutSystem(5), ParamList.kac(5), 6),
], ids=["au2", "ao2-q2", "aut5-kac"])
def test_derived_list_of_the_conjugate_is_the_inverse(make, fund, depth):
    # no conjugate is filled in beforehand: each frontier is closed under it
    sys = make()
    lists = fk.derive_irreducible_lists(sys, fund, depth=depth)
    assert len(lists) > depth
    for a, lst in lists.items():
        assert lists[sys.conj_irr(a)] == lst.inverse(), a


def test_derive_rejects_wrong_size(ao2):
    with pytest.raises(fk.FusionError):
        fk.derive_irreducible_lists(ao2, ParamList.kac(3), depth=3)


def test_derive_inconsistent_input(ao2):
    # a fundamental list whose self-product cannot contain the unit's list
    bad = ParamList.parse(["q", "q"])
    with pytest.raises(fk.InconsistentListError):
        fk.derive_irreducible_lists(ao2, bad, depth=3)


def test_list_morphism_property(ao2, au2, rng):
    fund = ParamList.parse(["q", "q^-1"])
    for sys in (ao2, au2):
        lists = fk.derive_irreducible_lists(sys, fund, depth=8)
        labels = sorted(lists, key=sys.sort_key)[:12]
        for _ in range(60):
            a, b = rng.choice(labels), rng.choice(labels)
            prod = sys.tensor_pair(a, b)
            if any(c not in lists for c in prod.support()):
                continue
            lhs = lists[a].product(lists[b])
            rhs = ParamList()
            for c, m in prod.items():
                for _i in range(m):
                    rhs = rhs.union(lists[c])
            assert lhs == rhs, (sys.family_id, a, b)
            # additivity is multiset union by construction
            assert len(lists[a].union(lists[b])) == len(lists[a]) + len(lists[b])


def test_qdim_multiplicative_on_derived_lists(ao2, rng):
    fund = ParamList.parse(["q", "q^-1"])
    lists = fk.derive_irreducible_lists(ao2, fund, depth=8)
    vals = {"q": 1.7}
    labels = sorted(lists, key=ao2.sort_key)[:8]
    for _ in range(40):
        a, b = rng.choice(labels), rng.choice(labels)
        prod = ao2.tensor_pair(a, b)
        if any(c not in lists for c in prod.support()):
            continue
        lhs = fk.qdim(lists[a], vals) * fk.qdim(lists[b], vals)
        rhs = sum(m * fk.qdim(lists[c], vals) for c, m in prod.items())
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_derive_splits_an_all_equal_remainder_over_several_unknowns(f2):
    lists = fk.derive_irreducible_lists(f2, ParamList.kac(5), depth=2)
    assert len(lists) == 17  # the ball of radius 2 in F2
    assert all(lst == ParamList([Param.one()]) for lst in lists.values())


def test_derive_rejects_a_non_constant_split(f2):
    with pytest.raises(fk.InconsistentListError, match="non-constant remainder"):
        fk.derive_irreducible_lists(f2, ParamList.parse(["1", "q", "q^-1", "q", "q^-1"]), depth=2)


def test_derive_stops_when_no_new_label_appears():
    z3 = fk.GroupDualSystem([3])
    lists = fk.derive_irreducible_lists(z3, ParamList.kac(3), depth=10)
    assert len(lists) == 3
    assert all(fk.is_kac(lst) for lst in lists.values())


def test_kac_implies_trivial_spectrum_and_qdim_dim(aut4):
    lists = fk.derive_irreducible_lists(aut4, ParamList.kac(4), depth=5)
    for lab, lst in lists.items():
        assert fk.is_kac(lst)
        assert fk.qdim(lst) == pytest.approx(aut4.dim_irr(lab))
        assert fk.modular_spectrum(lst).rows == ()


def test_modular_spectrum_sqrt2():
    lat = fk.modular_spectrum(ParamList.parse(["2^1/2", "2^-1/2"]))
    assert lat == ExponentLattice.from_params([Param.from_rational(4)])
    assert lat.contains(Param.from_rational(16))
    assert not lat.contains(Param.from_rational(2))
    assert lat.contains(Param.one())


def test_modular_spectrum_ignores_list_order():
    # the entry above the last pivot must land in [0, 12) for either order
    forward = fk.modular_spectrum(ParamList.parse(["b", "a^-2", "b^-2*c^3"]))
    backward = fk.modular_spectrum(ParamList.parse(["b^-2*c^3", "a^-2", "b"]))
    assert forward == backward
    assert forward.rows == ((4, 0, 6), (0, 2, 6), (0, 0, 12))


def test_modular_spectrum_two_rationals():
    # entries sqrt(x) for x = (2, 1/2): squared pair products are {4, 1, 1/4}
    lst = ParamList([Param.from_rational(2, Fraction(1, 2)),
                     Param.from_rational(Fraction(1, 2), Fraction(1, 2))])
    lat = fk.modular_spectrum(lst)
    assert lat == ExponentLattice.from_params([Param.from_rational(4)])


def test_modular_spectrum_formal_mu():
    mu = Param.generator("mu")
    lat = fk.modular_spectrum(ParamList([mu ** Fraction(1, 2), mu ** Fraction(-1, 2)]))
    assert lat == ExponentLattice.from_params([mu ** 2])
    assert lat.contains(mu ** 4)
    assert not lat.contains(mu ** 3)
    assert not lat.contains(mu ** Fraction(1, 2))
    assert not lat.contains(Param.generator("nu", 2))


def test_modular_spectrum_matches_all_pair_products(rng):
    # oracle: the lattice of all n(n+1)/2 products (p q)^2, against the n products (p_1 q)^2
    assert fk.modular_spectrum(ParamList()) == ExponentLattice()
    bases = [Param.generator("a"), Param.generator("b"), Param.from_rational(2),
             Param.from_rational(3), Param.from_rational(Fraction(5, 6))]
    for _ in range(300):
        entries = []
        for _ in range(rng.randint(1, 5)):
            p = Param.one()
            for base in rng.sample(bases, rng.randint(0, 3)):
                p = p * base ** Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            entries.append(p)
        lst = ParamList(entries)
        distinct = list(lst.counts())
        pairs = [(p * q) ** 2 for i, p in enumerate(distinct) for q in distinct[i:]]
        want = ExponentLattice.from_params(pairs)
        got = fk.modular_spectrum(lst)
        assert got == want, entries
        assert got.describe() == want.describe()


def test_lattice_generators_and_closure(rng):
    entries = [Param.generator("a"), Param.generator("b", Fraction(1, 2)),
               Param.from_rational(3)]
    lst = ParamList(entries)
    lat = fk.modular_spectrum(lst)
    gens = [(p * q) ** 2 for i, p in enumerate(entries) for q in entries[i:]]
    for g in gens:
        assert lat.contains(g)
    # closure under product and inverse on sampled members
    for _ in range(20):
        a, b = rng.choice(gens), rng.choice(gens)
        assert lat.contains(a * b)
        assert lat.contains(a.inv())


def test_hnf_canonical():
    r1 = ExponentLattice.from_params([Param.generator("x", 2), Param.generator("x", 3)])
    r2 = ExponentLattice.from_params([Param.generator("x", 1)])
    assert r1 == r2  # gcd(2,3) = 1
    big = ExponentLattice.from_params(
        [Param.generator("x", 4) * Param.generator("y", 2), Param.generator("y", 2)])
    assert big.rows == ((4, 0), (0, 2))
    assert big.contains(Param.generator("x", 4))
    assert not big.contains(Param.generator("x", 2))
    assert big.contains(Param.generator("x", 4) * Param.generator("y", -6))


def test_hnf_is_canonical_under_shuffling_and_padding(rng):
    for _ in range(300):
        ncols = rng.randint(1, 4)
        gens = [[rng.randint(-6, 6) for _ in range(ncols)] for _ in range(rng.randint(1, 4))]
        hnf = hermite_normal_form(gens)
        pcols = [next(c for c, u in enumerate(row) if u) for row in hnf]
        assert pcols == sorted(set(pcols))  # echelon
        for i, (row, pcol) in enumerate(zip(hnf, pcols)):
            assert row[pcol] > 0
            assert all(0 <= above[pcol] < row[pcol] for above in hnf[:i])
        padded = list(gens)
        for _ in range(rng.randint(1, 3)):
            coeffs = [rng.randint(-3, 3) for _ in gens]
            padded.append([sum(c * g[j] for c, g in zip(coeffs, gens)) for j in range(ncols)])
        rng.shuffle(padded)
        assert hermite_normal_form(padded) == hnf, (gens, padded)


def test_lattice_is_immutable():
    lat = fk.modular_spectrum(ParamList.parse(["2^1/2", "2^-1/2"]))
    with pytest.raises(AttributeError):  # a dataclass's FrozenInstanceError
        lat.rows = ()
    assert hash(lat) == hash(ExponentLattice.from_params([Param.from_rational(4)]))


# ---------------------------------------------------------------------------
# oracles: the Param-keyed list calculus that integer keys replaced
# ---------------------------------------------------------------------------

def product_reference(a, b):
    """Oracle: the list product as a Counter of ``Param`` products, pair by pair."""
    out = Counter()
    for p, mp in a.items():
        for q, mq in b.items():
            out[p * q] += mp * mq
    return out


def inverse_reference(a):
    return Counter({p.inv(): m for p, m in a.items()})


def union_reference(a, b):
    return a + b


def lattice_reference(params):
    """Oracle: ``ExponentLattice.from_params`` by ``Fraction`` arithmetic on each parameter."""
    params = list(params)
    bases = sorted({b for p in params for b, _ in p.exponents},
                   key=lambda b: (0, b) if isinstance(b, int) else (1, b))
    denom = math.lcm(1, *(e.denominator for p in params for _, e in p.exponents))
    rows = [[int(p.exponent_map().get(b, Fraction(0)) * denom) for b in bases] for p in params]
    hnf = hermite_normal_form(rows)
    if not hnf:
        return ExponentLattice()
    keep = [i for i in range(len(bases)) if any(r[i] for r in hnf)]
    return ExponentLattice(tuple(bases[i] for i in keep), denom,
                           tuple(tuple(r[i] for i in keep) for r in hnf))


def derive_reference(sys, fund, depth):
    """Oracle: the derivation over Counters of ``Param``s, subtracting and dividing counts."""
    def subtract(total, part, what):
        out = Counter(total)
        for p, m in part.items():
            if out.get(p, 0) < m:
                raise fk.InconsistentListError(
                    f"{what}: multiset subtraction not contained at {p}")
            out[p] -= m
        return out + Counter()

    known = {sys.unit: Counter([Param.one()])}
    drivers = [(sys.fundamental(), fund), (sys.conj_element(sys.fundamental()),
                                           inverse_reference(fund))]

    def settle(x, x_list, what):
        unknown = [(lab, m) for lab, m in x.items() if lab not in known]
        if not unknown:
            return []
        remainder = x_list
        for lab, m in x.items():
            if lab in known:
                remainder = subtract(remainder, Counter({p: c * m for p, c in known[lab].items()}),
                                     what)
        if len(unknown) == 1:
            lab, m = unknown[0]
            for p, c in remainder.items():
                if c % m:
                    raise fk.InconsistentListError(
                        f"{what}: multiplicity of {p} not divisible by {m}")
            known[lab] = Counter({p: c // m for p, c in remainder.items()})
            return [lab]
        dims = sum(m * sys.dim_irr(lab) for lab, m in unknown)
        if len(remainder) == 1 and sum(remainder.values()) == dims:
            for lab, _ in unknown:
                known[lab] = Counter({next(iter(remainder)): sys.dim_irr(lab)})
            return [lab for lab, _ in unknown]
        raise fk.InconsistentListError(
            f"{what}: cannot split a non-constant remainder over several unknowns")

    frontier = [sys.unit]
    for _ in range(depth):
        reached = []
        for lab in frontier:
            for drv, drv_list in drivers:
                prod = sys.tensor(fk.FusionElement.from_label(lab), drv)
                reached += settle(prod, product_reference(known[lab], drv_list),
                                  f"{lab.payload!r} (x) fund")
        if not reached:
            break
        frontier = sorted(set(reached), key=sys.sort_key)
    return known


def in_order(lst):
    """A list's entries with their multiplicities, in its iteration order."""
    return list(lst.counts().items())


SEEDED_BASES = [Param.generator("q"), Param.generator("r"), Param.from_rational(2),
                Param.from_rational(3)]


def seeded_entries(rng):
    """Up to five parameters over named and prime bases, exponents over 1, 2 and 3."""
    entries = []
    for _ in range(rng.randint(0, 5)):
        p = Param.one()
        for base in rng.sample(SEEDED_BASES, rng.randint(0, 3)):
            p = p * base ** Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
        entries.append(p)
    return entries


LIST_CASES = {
    "named-and-prime": (["q^1/2*2", "3^-1*r", "q^-1/2*2^-1"], ["2^1/3*r^-1", "q*3^1/2"]),
    "mixed-denominators": (["q^1/2", "q^-1/2"], ["q^1/3", "q^-1/3", "1"]),
    "base-in-one-operand": (["q", "q^-1"], ["2^1/2", "1", "2^-1/2"]),
    "cancelling-base": (["q^3/2"], ["q^-3/2", "q^-1/2"]),
    "empty-left": ([], ["q", "2"]),
    "empty-right": (["q^1/2", "3"], []),
    "empty-both": ([], []),
    "unit": (["1"], ["q^2*3^-1/2", "r"]),
}


@pytest.mark.parametrize("left, right", LIST_CASES.values(), ids=LIST_CASES.keys())
def test_list_calculus_matches_the_param_keyed_oracle(left, right):
    a, b = (Counter(Param.parse(t) for t in side) for side in (left, right))
    la, lb = ParamList.parse(left), ParamList.parse(right)
    assert in_order(la) == list(a.items()) and in_order(lb) == list(b.items())
    assert in_order(la.product(lb)) == list(product_reference(a, b).items())
    assert in_order(lb.product(la)) == list(product_reference(b, a).items())
    assert in_order(la.union(lb)) == list(union_reference(a, b).items())
    assert in_order(la.inverse()) == list(inverse_reference(a).items())
    assert ExponentLattice.from_params(la.product(lb).counts()) == lattice_reference(
        product_reference(a, b))
    assert fk.modular_spectrum(la.union(lb)) == lattice_reference(
        [(next(iter(a + b)) * p) ** 2 for p in a + b])


def test_seeded_list_calculus_matches_the_param_keyed_oracle(rng):
    for _ in range(300):
        entries = [seeded_entries(rng) for _ in range(3)]
        olds = [Counter(e) for e in entries]
        news = [ParamList(e) for e in entries]
        for old, new in zip(olds, news):
            assert in_order(new) == list(old.items())
        # a product of three widens its intermediate frame again
        want = product_reference(product_reference(olds[0], olds[1]), olds[2])
        got = news[0].product(news[1]).product(news[2])
        assert in_order(got) == list(want.items()), entries
        assert got == ParamList([p for p, m in want.items() for _ in range(m)])
        assert in_order(news[0].union(news[1]).inverse()) == list(
            inverse_reference(union_reference(olds[0], olds[1])).items())
        assert ExponentLattice.from_params(entries[0]) == lattice_reference(entries[0])
        assert ExponentLattice.from_params(got) == lattice_reference(want)
        assert news[0].is_balanced_formal() == (
            Counter({p ** 2: m for p, m in olds[0].items()})
            == Counter({p.inv() ** 2: m for p, m in olds[0].items()}))
        assert fk.is_kac(news[0]) == all(p.is_one() for p in olds[0])


@pytest.mark.parametrize("make, fund, depth", [
    (lambda: fk.AoSystem(2), ["q^2", "q^-2"], 12),
    (lambda: fk.AoSystem(2), ["q^1/2*2^1/3", "q^-1/2*2^-1/3"], 8),
    (lambda: fk.AuSystem(2), ["q", "q^-1"], 7),
    (lambda: fk.AuSystem(2), ["q^1/3*r", "q^-1/2"], 6),
], ids=["ao2-q2", "ao2-mixed", "au2", "au2-unbalanced"])
def test_derived_lists_match_the_param_keyed_derivation(make, fund, depth):
    sys = make()
    got = fk.derive_irreducible_lists(sys, ParamList.parse(fund), depth)
    want = derive_reference(sys, Counter(Param.parse(t) for t in fund), depth)
    assert list(got) == list(want)
    for lab, lst in got.items():
        assert in_order(lst) == list(want[lab].items()), lab


@pytest.mark.parametrize("make, fund", [
    (lambda: fk.AoSystem(2), ["q", "q"]),
    (lambda: fk.AoSystem(2), ["q^1/2", "2"]),
    (lambda: fk.GroupDualSystem([None, None]), ["1", "q", "q^-1", "q", "q^-1"]),
], ids=["ao2-not-contained", "ao2-two-bases", "f2-non-constant"])
def test_derivation_errors_match_the_param_keyed_derivation(make, fund):
    sys = make()
    with pytest.raises(fk.InconsistentListError) as want:
        derive_reference(sys, Counter(Param.parse(t) for t in fund), 4)
    with pytest.raises(fk.InconsistentListError) as got:
        fk.derive_irreducible_lists(sys, ParamList.parse(fund), 4)
    assert str(got.value) == str(want.value)


def test_derivation_makes_no_param_arithmetic(au2, monkeypatch):
    # the hot path adds integer keys: no Param product, no Param built from
    # exponents and not one Fraction
    fund = ParamList.parse(["q", "q^-1"])
    want = fk.derive_irreducible_lists(au2, fund, depth=10)

    def refuse(*args, **kwargs):
        raise AssertionError("Param or Fraction arithmetic in the list derivation")

    monkeypatch.setattr(Param, "__mul__", refuse)
    monkeypatch.setattr(Param, "_make", staticmethod(refuse))
    monkeypatch.setattr(Fraction, "__new__", refuse)
    got = fk.derive_irreducible_lists(fk.AuSystem(2), fund, depth=10)
    monkeypatch.undo()
    assert len(got) == 2 ** 11 - 1  # the words of at most ten letters
    assert got == want
