import pytest

import fusionkit as fk
from fusionkit import FusionElement


def std_generator(sys):
    return fk.fundamental(sys)


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
                power = ao3.power(v, n)
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


def test_quasi_isometry_ao(ao3):
    v = fk.parse_element(ao3, "r1 + r2")
    w = fk.parse_element(ao3, "r1 + r3")
    labels = [ao3.r(k) for k in range(1, 9)]
    pairs = [(a, b) for a in labels for b in labels]
    report = fk.quasi_isometry_check(ao3, v, w, pairs, budget=32)
    assert report.holds
    assert report.pairs_checked == len(pairs)
