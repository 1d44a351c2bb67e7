import random
import re
import time
from math import comb
from operator import add

import pytest

import fusionkit as fk
from fusionkit import BudgetExceededError, FusionElement, FusionError, IrrLabel
from fusionkit import geometry
from fusionkit.geometry import _check_budget, validate_generator

from conftest import REDUCED_SYSTEMS, reduced_support, tensor_power


def std_generator(sys):
    return fk.fundamental(sys)


# -- the breadth-first search, kept as the oracle of the closed forms ---------

def _neighbor_fn(sys, v):
    vs = v.support()

    def neighbors(c: IrrLabel) -> set[IrrLabel]:
        acc: set[IrrLabel] = set()
        for g in vs:
            acc.update(sys._tensor_irr(g, c)._terms)
        return acc

    return neighbors


def bfs_distance(sys, v, a, b, budget=64):
    """Oracle: the generator metric ``d_v(a, b)``, by bidirectional BFS."""
    _check_budget(budget)
    validate_generator(sys, v)
    sys.check_label(a)
    sys.check_label(b)
    if a == b:
        return 0
    neighbors = _neighbor_fn(sys, v)
    visited_a, frontier_a = {a}, {a}
    visited_b, frontier_b = {b}, {b}
    steps = 0
    while steps < budget:
        if not frontier_a and not frontier_b:
            break
        # expand the smaller live frontier by one layer
        from_a = frontier_a and (not frontier_b or len(frontier_a) <= len(frontier_b))
        if from_a:
            visited, frontier, other = visited_a, frontier_a, visited_b
        else:
            visited, frontier, other = visited_b, frontier_b, visited_a
        nxt: set[IrrLabel] = set()
        for c in frontier:
            for nb in neighbors(c):
                if nb not in visited:
                    visited.add(nb)
                    nxt.add(nb)
        if from_a:
            frontier_a = nxt
        else:
            frontier_b = nxt
        steps += 1
        if not nxt.isdisjoint(other):
            return steps
    raise BudgetExceededError(
        f"not reached within budget {budget}: "
        f"d({sys.format_label(a)}, {sys.format_label(b)})")


def bfs_distances_up_to(sys, v, center, r):
    validate_generator(sys, v)
    sys.check_label(center)
    if r < 0:
        raise FusionError(f"radius must be >= 0, got {r}")
    neighbors = _neighbor_fn(sys, v)
    dist = {center: 0}
    frontier = [center]
    for layer in range(1, r + 1):
        nxt: list[IrrLabel] = []
        for c in frontier:
            for nb in neighbors(c):
                if nb not in dist:
                    dist[nb] = layer
                    nxt.append(nb)
        if not nxt:
            break
        frontier = nxt
    return dist


def bfs_growth(sys, v, center, rmax):
    """Oracle: rows ``(radius, ball size)`` for radius = 0..rmax, by BFS."""
    dist = bfs_distances_up_to(sys, v, center, rmax)
    sizes = [0] * (rmax + 1)
    for d in dist.values():
        sizes[d] += 1
    out = []
    total = 0
    for r in range(rmax + 1):
        total += sizes[r]
        out.append((r, total))
    return out


def random_f2_word(sys, rng, max_len):
    """Uniform-ish reduced word: a non-backtracking random walk."""
    length = rng.randint(0, max_len)
    word = ()
    for _ in range(length):
        options = sys.children(word)
        word = rng.choice(options)
    return word


def test_generator_validation(ao3, f2):
    with pytest.raises(fk.FusionError):
        fk.validate_generator(ao3, FusionElement({ao3.r(2): 1}))  # no unit
    v = fk.parse_element(f2, "e + s")  # not self-conjugate
    with pytest.raises(fk.FusionError):
        fk.validate_generator(f2, v)
    fk.validate_generator(f2, std_generator(f2))


def test_distance_identity(ao3):
    v = fk.parse_element(ao3, "r1 + r2")
    assert fk.distance(ao3, v, ao3.r(4), ao3.r(4)) == 0


def test_distance_dual_of_z(zdual):
    v = std_generator(zdual)
    assert fk.distance(zdual, v, zdual.unit, zdual.parse_label("g1^5")) == 5
    assert fk.distance(zdual, v, zdual.parse_label("g1^-2"), zdual.parse_label("g1^3")) == 5


def test_distance_ao(ao3):
    v = fk.parse_element(ao3, "r1 + r2")
    assert fk.distance(ao3, v, ao3.r(1), ao3.r(4)) == 3
    # matches the Frobenius form: least n with b inside v^n (x) a
    for a in range(1, 5):
        for b in range(1, 5):
            d = fk.distance(ao3, v, ao3.r(a), ao3.r(b))
            for n in range(0, 8):
                power = tensor_power(ao3, v, n)
                reached = ao3.tensor(power, FusionElement({ao3.r(a): 1}))
                if reached.mult(ao3.r(b)) > 0:
                    assert n == d
                    break


@pytest.mark.parametrize("family,vexpr,radius", [
    ("ao3", "r1 + r2", 6),
    ("aut4", "s0 + s1", 5),
    ("f2", "e + s + s^-1 + t + t^-1", 3),
])
def test_distance_equals_definitional_infimum(family, vexpr, radius, request):
    # the BFS value is the least n with 1 inside a (x) conj(b) (x) v^(x)n
    sys = request.getfixturevalue(family)
    v = fk.parse_element(sys, vexpr)
    pool = sorted(fk.ball(sys, v, sys.unit, radius), key=sys.sort_key)[:7]
    for a in pool:
        for b in pool:
            d = fk.distance(sys, v, a, b, budget=32)
            word = sys.tensor(FusionElement({a: 1}),
                              FusionElement({sys.conj_irr(b): 1}))
            n = 0
            while not word.mult(sys.unit):
                word = sys.tensor(word, v)
                n += 1
                assert n <= 2 * radius + 4
            assert n == d, (a, b)


def test_budget_exhaustion(zdual):
    v = std_generator(zdual)
    with pytest.raises(fk.BudgetExceededError):
        fk.distance(zdual, v, zdual.unit, zdual.parse_label("g1^9"), budget=5)
    # a generator that does not generate: unreachable classes report exhaustion
    z2 = fk.ZdDualSystem(2)
    g1 = z2.generators()[0]
    v_partial = fk.parse_element(z2, "e + g1 + g1^-1")
    with pytest.raises(fk.BudgetExceededError):
        fk.distance(z2, v_partial, z2.unit, z2.vector((0, 1)), budget=10)


def test_budget_errors_name_wire_labels(f2):
    v = std_generator(f2)
    with pytest.raises(fk.BudgetExceededError, match=r"d\(e, s t s\)$"):
        fk.distance(f2, v, f2.unit, f2.parse_label("s t s"), budget=2)
    w = fk.parse_element(f2, "s t + e")
    with pytest.raises(fk.BudgetExceededError, match=r"containment of e \+ s t$"):
        fk.geometry.containment_index(f2, fk.parse_element(f2, "e + s + s^-1"), w, budget=3)

    class IntegerDual(fk.FusionSystem):
        """The dual of Z with bare integer payloads and no label syntax of its own."""

        def __init__(self):
            super().__init__("integers")
            self._unit = self.label(0)

        def validate_payload(self, payload):
            return payload

        def _tensor_irr(self, a, b):
            return FusionElement({self.label(a.payload + b.payload): 1})

        def conj_irr(self, a):
            return self.label(-a.payload)

        def dim_irr(self, a):
            return 1

        def sort_key(self, label):
            return label.payload

    z = IntegerDual()
    v = FusionElement({z.label(k): 1 for k in (-1, 0, 1)})
    with pytest.raises(fk.BudgetExceededError, match=r"d\(0, 9\)$"):
        fk.distance(z, v, z.unit, z.label(9), budget=3)


def test_negative_budget_rejected(f2):
    v = std_generator(f2)
    for call in (lambda: fk.distance(f2, v, f2.unit, f2.unit, budget=-1),
                 lambda: fk.geometry.containment_index(f2, v, v, budget=-1)):
        with pytest.raises(fk.FusionError, match="budget must be >= 0"):
            call()


def test_ball_and_sphere_f2(f2):
    v = std_generator(f2)
    assert fk.ball(f2, v, f2.unit, 0) == frozenset({f2.unit})
    assert len(fk.ball(f2, v, f2.unit, 1)) == 5
    for r in range(1, 7):
        assert len(fk.sphere(f2, v, f2.unit, r)) == 4 * 3 ** (r - 1)


def test_growth_table(f2):
    v = std_generator(f2)
    rows = fk.growth_table(f2, v, f2.unit, 4)
    assert rows == [(0, 1), (1, 5), (2, 17), (3, 53), (4, 161)]


def test_bfs_leaves_the_pair_memo_empty(f2, ao3):
    v = std_generator(f2)
    fk.ball(f2, v, f2.unit, 3)
    fk.growth_table(f2, v, f2.unit, 4)
    fk.growth_table(ao3, fk.parse_element(ao3, "r1 + r2"), ao3.unit, 4)
    assert f2._pair_cache == {} and ao3._pair_cache == {}


def test_distance_equals_reduced_length_f2(f2, rng):
    v = std_generator(f2)
    for _ in range(40):
        a = f2.word(random_f2_word(f2, rng, 6))
        w = random_f2_word(f2, rng, 6)
        b = f2.word(f2.reduce_word(w + a.payload))
        oracle = f2.letter_length(f2.reduce_word(b.payload + f2.inverse_word(a.payload)))
        assert fk.distance(f2, v, a, b, budget=16) == oracle


def test_metric_axioms_sampled(ao3, f2, aut4, rng):
    cases = [
        (ao3, fk.parse_element(ao3, "r1 + r2"), [ao3.r(k) for k in range(1, 7)]),
        (aut4, fk.parse_element(aut4, "s0 + s1"), [aut4.s(k) for k in range(0, 6)]),
        (f2, std_generator(f2),
         [f2.word(random_f2_word(f2, rng, 4)) for _ in range(8)]),
    ]
    for sys, v, pool in cases:
        for _ in range(40):
            a, b, c = (rng.choice(pool) for _ in range(3))
            dab = fk.distance(sys, v, a, b, budget=32)
            dba = fk.distance(sys, v, b, a, budget=32)
            dbc = fk.distance(sys, v, b, c, budget=32)
            dac = fk.distance(sys, v, a, c, budget=32)
            assert dab == dba
            assert (dab == 0) == (a == b)
            assert dac <= dab + dbc


def test_quasi_isometry_v_equals_w(zdual):
    v = std_generator(zdual)
    pairs = [(zdual.unit, zdual.parse_label(f"g1^{k}")) for k in range(1, 6)]
    report = fk.quasi_isometry_check(zdual, v, v, pairs)
    assert report.holds and report.max_ratio <= 1.0


def test_quasi_isometry_dual_of_z(zdual):
    v = std_generator(zdual)
    w = fk.parse_element(zdual, "e + g1^2 + g1^-2")
    pairs = []
    for i in range(-10, 11):
        for j in range(-10, 11):
            pairs.append((zdual.parse_label(f"g1^{i}") if i else zdual.unit,
                          zdual.parse_label(f"g1^{j}") if j else zdual.unit))
    report = fk.quasi_isometry_check(zdual, v, w, pairs, budget=48)
    assert report.holds
    assert report.K == 1 + 2  # g1^2 appears in v (x) v


def test_quasi_isometry_check_reports_failures(f2, monkeypatch):
    # s^2 is one v-step from e in the (v + w)-metric but two in the v-metric,
    # so a constant K = 1 must fail there; the containment index gives K = 3
    v = std_generator(f2)
    w = fk.parse_element(f2, "e + s^2 + s^-2")
    pairs = [(f2.unit, f2.parse_label(t)) for t in ("s^2", "s^4 t", "t")]
    report = fk.quasi_isometry_check(f2, v, w, pairs)
    assert (report.K, report.holds, report.failures) == (3, True, [])
    monkeypatch.setattr(geometry, "containment_index", lambda *args: 0)
    report = fk.quasi_isometry_check(f2, v, w, pairs)
    assert (report.K, report.holds) == (1, False)
    assert [(f2.format_label(a), f2.format_label(b), dv, dvw)
            for a, b, dv, dvw in report.failures] == [("e", "s^2", 2, 1), ("e", "s^4 t", 5, 3)]


def test_quasi_isometry_ao(ao3):
    v = fk.parse_element(ao3, "r1 + r2")
    w = fk.parse_element(ao3, "r1 + r3")
    labels = [ao3.r(k) for k in range(1, 9)]
    pairs = [(a, b) for a in labels for b in labels]
    report = fk.quasi_isometry_check(ao3, v, w, pairs, budget=32)
    assert report.holds
    assert report.pairs_checked == len(pairs)


# -- closed forms of the standard generator against the BFS oracle ------------

def weighted_standard(sys, rng):
    """``c0 e + sum w_g (g + g^-1)`` over the standard generators, with seeded weights."""
    terms = {sys.unit: rng.randint(1, 3)}
    for g in sys.generators():
        w = rng.randint(1, 3)
        terms[g] = terms[sys.conj_irr(g)] = w
    return FusionElement(terms)


def random_label(sys, rng, depth):
    """A seeded label within ``depth`` steps of the prefix tree (each coordinate, on ``Z^d``)."""
    if isinstance(sys, fk.ZdDualSystem):
        return sys.vector(tuple(rng.randint(-depth, depth) for _ in range(sys.d)))
    word = ()
    for _ in range(rng.randint(0, depth)):
        options = sys.children(word)
        if not options:  # a single finite factor has words of one syllable only
            break
        word = rng.choice(options)
    return sys.word(word)


def _seeded_factor_lists(count):
    rng = random.Random(1301)
    return [[rng.choice((None, 2, 3, 4, 5, 6)) for _ in range(rng.randint(1, 3))]
            for _ in range(count)]


GROWTH_CASES = [
    ([None, None], 7), ([2, 3], 14), ([None, 3], 8), ([3, 5], 8), ([None, None, 4], 5),
    ([2, 2], 12), ([None], 12), ([2], 4), ([4, None, 6], 5), ([5, 4], 7), ([6], 6),
] + [(factors, 5) for factors in _seeded_factor_lists(6)]


def _factor_id(factors):
    return "*".join("Z" if m is None else f"Z{m}" for m in factors)


@pytest.mark.parametrize("factors, rmax", GROWTH_CASES,
                         ids=[_factor_id(f) for f, _ in GROWTH_CASES])
def test_growth_matches_bfs_on_free_products(factors, rmax):
    sys = fk.GroupDualSystem(factors)
    rng = random.Random(rmax * 7 + len(factors))
    center = random_label(sys, rng, 3)
    for v in (std_generator(sys), weighted_standard(sys, rng)):
        assert fk.growth_table(sys, v, center, rmax) == bfs_growth(sys, v, center, rmax)


def _inverse_series(a, n):
    """The first ``n`` coefficients of ``1/a`` for an integer power series with ``a[0] = 1``."""
    b = [1] + [0] * (n - 1)
    for j in range(1, n):
        b[j] = -sum(a[i] * b[j - i] for i in range(1, min(j + 1, len(a))))
    return b


def growth_by_inversion(factors, rmax):
    """``1/S = sum 1/S_i - (k - 1)`` with each ``S_i`` a dense series inverted
    term by term: O(rmax^2) products, no polynomial quotient."""
    n = rmax + 1
    inv = [1 - len(factors)] + [0] * rmax
    for m in factors:
        s = [1] + ([2] * rmax if m is None else [2] * ((m - 1) // 2) + [1] * (m % 2 == 0))
        inv = list(map(add, inv, _inverse_series(s, n)))
    return _inverse_series(inv, n)


# the finite factors of the next three end past the small radii; below radius m/2
# a Z/m factor folds as Z, and the last two meet m = 2 rmax at radius 19, and 18 and 19
INVERSION_CASES = [f for f, _ in GROWTH_CASES] + [[None, 30], [25, 2], [9, 10, None],
                                                  [None, 38], [36, 38]]


@pytest.mark.parametrize("factors", INVERSION_CASES, ids=list(map(_factor_id, INVERSION_CASES)))
def test_growth_quotient_matches_series_inversion(factors):
    # BFS checks these factor lists to radius 14 at most; the inversion reaches 300.
    # The series are cut at rmax + 1 terms, so each smaller radius gives a prefix
    sys = fk.GroupDualSystem(factors)
    want = growth_by_inversion(factors, 300)
    assert sys.sphere_sizes(std_generator(sys), 300) == want
    for rmax in range(20):
        assert sys.sphere_sizes(std_generator(sys), rmax) == want[:rmax + 1], rmax


def test_growth_cost_does_not_grow_with_a_finite_factor():
    # built to degree m/2, the series of Z/200000 took about 16 s to radius 3
    sys = fk.GroupDualSystem([200_000], names=["g"])
    start = time.perf_counter()
    assert sys.sphere_sizes(std_generator(sys), 3) == [1, 2, 2, 2]
    assert time.perf_counter() - start < 1
    # below m/2 the spheres of Z/10^12 * Z are those of F2
    huge, f2 = fk.GroupDualSystem([10 ** 12, None]), fk.GroupDualSystem([None, None])
    assert huge.sphere_sizes(std_generator(huge), 50) == f2.sphere_sizes(std_generator(f2), 50)


def test_growth_cost_of_large_finite_factors_is_linear():
    # each Z/10^6 folds as Z below radius 5 * 10^5; folded densely this took about 3 s
    sys = fk.GroupDualSystem([10 ** 6, 10 ** 6])
    start = time.perf_counter()
    sizes = sys.sphere_sizes(std_generator(sys), 4000)
    assert time.perf_counter() - start < 1
    assert sizes == [1] + [4 * 3 ** (r - 1) for r in range(1, 4001)]


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_zd_growth_quotient_matches_the_binomial_sum(d):
    # the coefficient of z^r >= 1 of ((1 + z)/(1 - z))^d chooses the k nonzero
    # coordinates, their signs and a composition of r into k positive parts
    sys = fk.ZdDualSystem(d)
    want = [1] + [sum(comb(d, k) * 2 ** k * comb(r - 1, k - 1) for k in range(1, d + 1))
                  for r in range(1, 301)]
    assert sys.sphere_sizes(std_generator(sys), 300) == want


@pytest.mark.parametrize("d, rmax", [(1, 12), (2, 10), (3, 7)])
def test_growth_matches_bfs_on_zd(d, rmax):
    sys = fk.ZdDualSystem(d)
    rng = random.Random(d)
    center = random_label(sys, rng, 5)
    for v in (std_generator(sys), weighted_standard(sys, rng)):
        assert fk.growth_table(sys, v, center, rmax) == bfs_growth(sys, v, center, rmax)


DISTANCE_SYSTEMS = [
    ("F2", lambda: fk.GroupDualSystem([None, None], names=["s", "t"])),
    ("Z2*Z3", lambda: fk.GroupDualSystem([2, 3])),
    ("Z*Z5", lambda: fk.GroupDualSystem([None, 5])),
    ("Z4*Z*Z6", lambda: fk.GroupDualSystem([4, None, 6])),
    ("Z2*Z2", lambda: fk.GroupDualSystem([2, 2])),
    ("Z7", lambda: fk.GroupDualSystem([7])),
    ("Z^1", lambda: fk.ZdDualSystem(1)),
    ("Z^2", lambda: fk.ZdDualSystem(2)),
    ("Z^3", lambda: fk.ZdDualSystem(3)),
]


@pytest.mark.parametrize("name, make", DISTANCE_SYSTEMS, ids=[n for n, _ in DISTANCE_SYSTEMS])
def test_distance_matches_bfs(name, make):
    sys = make()
    rng = random.Random(name)
    for _ in range(25):
        a, b = random_label(sys, rng, 3), random_label(sys, rng, 2)
        v = weighted_standard(sys, rng)
        assert fk.distance(sys, v, a, b, budget=32) == bfs_distance(sys, v, a, b, budget=32), \
            (sys.format_label(a), sys.format_label(b))


def test_distance_left_multiplies(f2):
    # from s to t s is one left multiplication by t; |s^-1 t s| would be 3
    v = std_generator(f2)
    a, b = f2.parse_label("s"), f2.parse_label("t s")
    assert fk.distance(f2, v, a, b) == bfs_distance(f2, v, a, b) == 1


STANDARD_CASES = [c for c in DISTANCE_SYSTEMS if c[0] in ("F2", "Z4*Z*Z6", "Z^3")]


@pytest.mark.parametrize("name, make", STANDARD_CASES, ids=[n for n, _ in STANDARD_CASES])
def test_standard_support_calls_no_rule(name, make, monkeypatch):
    sys = make()
    rng = random.Random(name)
    v = weighted_standard(sys, rng)
    v = v + v + std_generator(sys)  # weights >= 3, so not all 1
    pairs = [(random_label(sys, rng, 3), random_label(sys, rng, 2)) for _ in range(8)]
    want_rows = bfs_growth(sys, v, pairs[0][0], 5)
    want_d = [bfs_distance(sys, v, a, b, budget=32) for a, b in pairs]

    def refuse(a, b):
        raise AssertionError("the closed form called the rule")

    monkeypatch.setattr(sys, "_tensor_irr", refuse)
    assert fk.growth_table(sys, v, pairs[0][0], 5) == want_rows
    assert [fk.distance(sys, v, a, b, budget=32) for a, b in pairs] == want_d
    with pytest.raises(AssertionError, match="called the rule"):
        fk.ball(sys, v, sys.unit, 1)


def _bfs_cases():
    zd2, f2 = fk.ZdDualSystem(2), fk.GroupDualSystem([None, None], names=["s", "t"])
    ao3, aut4, au2 = fk.AoSystem(3), fk.AutSystem(4), fk.AuSystem(2)
    return [
        ("Z^2 two-coordinate key", zd2, "e + g1 g2 + g1^-1 g2^-1"),
        ("F2 extra label", f2, "e + s^2 + s^-2 + s + s^-1 + t + t^-1"),
        ("a_o", ao3, "r1 + r2"),
        ("aut", aut4, "s0 + s1"),
        ("a_u", au2, "e + a + b"),
    ]


BFS_CASES = _bfs_cases()


def _subgroup_cases():
    zd2, f2 = fk.ZdDualSystem(2), fk.GroupDualSystem([None, None], names=["s", "t"])
    z6z = fk.GroupDualSystem([6, None], names=["h", "g"])
    return [
        ("Z^2 missing letter", zd2, "e + g1 + g1^-1"),
        ("F2 s^+-2 + t^+-1", f2, "e + s^2 + s^-2 + t + t^-1"),
        ("Z/6*Z h^2 + h^4", z6z, "2*e + h^2 + h^4 + 3*g^2 + 3*g^-2"),
    ]


# the unit and the letters of the subgroup the support generates: closed forms
SUBGROUP_CASES = _subgroup_cases()


def _outcome(distance, *args, **kwargs):
    """The distance, or ``"never"`` when the search gives up."""
    try:
        return distance(*args, **kwargs)
    except BudgetExceededError:
        return "never"


@pytest.mark.parametrize("name, sys, vexpr", SUBGROUP_CASES, ids=[c[0] for c in SUBGROUP_CASES])
def test_subgroup_supports_call_no_rule(name, sys, vexpr, monkeypatch):
    v = fk.parse_element(sys, vexpr)
    rng = random.Random(name)
    pool = sorted(bfs_distances_up_to(sys, v, sys.unit, 2), key=sys.sort_key)
    pairs = [(a, b) for a in pool[:4] for b in pool[-4:]]
    pairs += [(random_label(sys, rng, 3), random_label(sys, rng, 3)) for _ in range(8)]
    want_rows = bfs_growth(sys, v, sys.unit, 6)
    want_d = [_outcome(bfs_distance, sys, v, a, b, budget=8) for a, b in pairs]
    assert "never" in want_d  # some labels lie outside the subgroup's cosets

    def refuse(a, b):
        raise AssertionError("the closed form called the rule")

    monkeypatch.setattr(sys, "_tensor_irr", refuse)
    assert fk.growth_table(sys, v, sys.unit, 6) == want_rows
    assert [_outcome(fk.distance, sys, v, a, b, budget=8) for a, b in pairs] == want_d


def test_distance_outside_the_subgroup_is_never_reached(f2, monkeypatch):
    # s is not in <s^2, t>: no walk from e reaches it, and none is searched
    v = fk.parse_element(f2, "e + s^2 + s^-2 + t + t^-1")

    def refuse(a, b):
        raise AssertionError("the closed form called the rule")

    monkeypatch.setattr(f2, "_tensor_irr", refuse)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=re.escape("not reached within budget 64: d(e, s)")):
        fk.distance(f2, v, f2.unit, f2.parse_label("s"))
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("name", REDUCED_SYSTEMS)
def test_reduced_supports_match_bfs(name, monkeypatch):
    sys = REDUCED_SYSTEMS[name]()
    rng = random.Random(name)
    cases = [(FusionElement({sys.unit: 2}), {})]
    cases += [reduced_support(sys, rng, rng.randint(1, 3), rng.randint(1, 3)) for _ in range(4)]
    for v, steps in cases:
        keys = sorted(v.support(), key=sys.sort_key)
        center = random_label(sys, rng, 3)
        pairs = []
        for _ in range(6):  # b in the coset of a, and b anywhere
            a = b = random_label(sys, rng, 3)
            for g in rng.choices(keys, k=4):
                b, = sys.tensor_pair(g, b).support()
            pairs += [(a, b), (a, random_label(sys, rng, 2))]
        want_rows = bfs_growth(sys, v, center, 5)
        want_d = [_outcome(bfs_distance, sys, v, a, b, budget=8) for a, b in pairs]
        with monkeypatch.context() as patch:
            patch.setattr(sys, "_tensor_irr", lambda a, b: pytest.fail(f"{name}: the rule ran"))
            patch.setattr(sys, "_pair_cache", {})
            assert fk.growth_table(sys, v, center, 5) == want_rows, (v, steps)
            got = [_outcome(fk.distance, sys, v, a, b, budget=8) for a, b in pairs]
        assert got == want_d, (v, steps)


def test_reduced_support_has_the_counts_of_its_subgroup():
    # h^2 and h^4 generate the Z/3 of Z/6: the counts of Z/3 * Z with h and h^2
    z6z = fk.GroupDualSystem([6, None], names=["h", "g"])
    z3z = fk.GroupDualSystem([3, None], names=["h", "g"])
    x6 = fk.parse_element(z6z, "e + h^2 + h^4 + g + g^-1")
    x3 = fk.parse_element(z3z, "e + h + h^2 + g + g^-1")
    want = [tensor_power(z3z, x3, j).mult(z3z.unit) for j in range(9)]
    assert z6z.unit_moments(x6, 8) == z3z.unit_moments(x3, 8) == want
    rows = bfs_growth(z3z, x3, z3z.unit, 8)
    assert fk.growth_table(z6z, x6, z6z.unit, 8) == fk.growth_table(z3z, x3, z3z.unit, 8) == rows


@pytest.mark.parametrize("name, sys, vexpr", BFS_CASES, ids=[c[0] for c in BFS_CASES])
def test_other_supports_run_bfs(name, sys, vexpr, monkeypatch):
    v = fk.parse_element(sys, vexpr)
    pool = sorted(bfs_distances_up_to(sys, v, sys.unit, 2), key=sys.sort_key)
    want_rows = bfs_growth(sys, v, sys.unit, 4)
    want_d = [bfs_distance(sys, v, a, b, budget=16) for a in pool[:4] for b in pool[-4:]]
    calls = []
    rule = sys._tensor_irr

    def counted(a, b):
        calls.append(None)
        return rule(a, b)

    monkeypatch.setattr(sys, "_tensor_irr", counted)
    assert fk.growth_table(sys, v, sys.unit, 4) == want_rows
    assert calls
    calls.clear()
    assert [fk.distance(sys, v, a, b, budget=16) for a in pool[:4] for b in pool[-4:]] == want_d
    assert calls


@pytest.mark.parametrize("name, sys, vexpr", BFS_CASES + SUBGROUP_CASES,
                         ids=[c[0] for c in BFS_CASES + SUBGROUP_CASES])
def test_balls_and_spheres_match_bfs(name, sys, vexpr):
    v = fk.parse_element(sys, vexpr)
    far = max(bfs_distances_up_to(sys, v, sys.unit, 2), key=sys.sort_key)
    for center in (sys.unit, far):
        dist = bfs_distances_up_to(sys, v, center, 4)
        for r in range(5):
            assert fk.ball(sys, v, center, r) == {lab for lab, d in dist.items() if d <= r}
            assert fk.sphere(sys, v, center, r) == {lab for lab, d in dist.items() if d == r}


def test_walks_end_with_a_finite_component(zmod3, monkeypatch):
    # e + h + h^2 walks inside the cosets of Z/3: every component has three labels
    v = fk.parse_element(zmod3, "e + h + h^2")
    calls = []
    rule = zmod3._tensor_irr

    def counted(a, b):
        calls.append(None)
        return rule(a, b)

    monkeypatch.setattr(zmod3, "_tensor_irr", counted)
    with pytest.raises(BudgetExceededError):
        fk.distance(zmod3, v, zmod3.unit, zmod3.parse_label("g"), budget=10**6)
    assert len(calls) <= 18  # each walk expands its three labels once
    assert fk.sphere(zmod3, v, zmod3.unit, 2) == frozenset()
    assert fk.ball(zmod3, v, zmod3.unit, 5) == {zmod3.parse_label(t) for t in ("e", "h", "h^2")}
    assert fk.growth_table(zmod3, v, zmod3.unit, 3) == [(0, 1), (1, 3), (2, 3), (3, 3)]


def test_closed_forms_keep_the_checks_in_order(f2):
    v = std_generator(f2)
    bad = fk.AoSystem(3).r(2)
    one_sided = fk.parse_element(f2, "e + s")
    with pytest.raises(FusionError, match="self-conjugate"):
        fk.growth_table(f2, one_sided, bad, -1)
    with pytest.raises(fk.FamilyMismatchError):
        fk.growth_table(f2, v, bad, -1)
    with pytest.raises(FusionError, match="radius must be >= 0, got -1"):
        fk.growth_table(f2, v, f2.unit, -1)
    with pytest.raises(FusionError, match="self-conjugate"):
        fk.distance(f2, one_sided, bad, bad)
    with pytest.raises(fk.FamilyMismatchError):
        fk.distance(f2, v, f2.unit, bad)
    far = f2.parse_label("s^40")
    assert fk.distance(f2, v, far, far, budget=0) == 0
    assert fk.distance(f2, v, f2.unit, far, budget=40) == 40
    with pytest.raises(BudgetExceededError, match=r"^not reached within budget 39: d\(e, s\^40\)$"):
        fk.distance(f2, v, f2.unit, far, budget=39)
