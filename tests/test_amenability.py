import math
from fractions import Fraction

import pytest

import fusionkit as fk
from fusionkit.amenability import root_sequence_is_monotone

from conftest import (
    four_letter_generator, mc_recursion_reference, moments_by_full_powers, tensor_power)


def counts_by_direct_expansion(sys, u, K):
    return moments_by_full_powers(sys, u + sys.conj_element(u), 2 * K)[2::2]


def test_moment_cumulant_roundtrip(rng):
    for _ in range(20):
        kappa = [0] + [rng.randint(-3, 3) for _ in range(8)]
        moments = fk.free_cumulants_to_moments(kappa)
        assert fk.moments_to_free_cumulants(moments) == kappa


def test_free_cumulants_of_semicircle():
    # semicircular element: even moments Catalan, free cumulants (0,1,0,0,...)
    moments = [1] + [0 if k % 2 else fk.catalan(k // 2) for k in range(1, 11)]
    kappa = fk.moments_to_free_cumulants(moments)
    assert kappa[1:] == [0, 1, 0, 0, 0, 0, 0, 0, 0, 0]


def test_kesten_counts_examples(ao2, zdual, f2):
    counts = fk.kesten_counts(ao2, ao2.fundamental(), 3)
    assert counts[0] == 4  # 2^2 * C_1
    assert counts == [4 ** k * fk.catalan(k) for k in range(1, 4)]
    counts = fk.kesten_counts(zdual, fk.parse_element(zdual, "g1"), 3)
    assert counts[0] == 2
    assert counts == [math.comb(2 * k, k) for k in range(1, 4)]
    u = fk.parse_element(f2, "s + t")
    counts = fk.kesten_counts(f2, u, 3)
    assert counts[0] == 4


def test_free_product_path_matches_direct_expansion(f2, zmod3):
    u4 = four_letter_generator(f2)
    assert fk.kesten_counts(f2, u4, 5) == counts_by_direct_expansion(f2, u4, 5)
    u = fk.parse_element(zmod3, "g + h")
    assert fk.kesten_counts(zmod3, u, 5) == counts_by_direct_expansion(zmod3, u, 5)
    mixed = fk.parse_element(zmod3, "2*e + g + h + h^2")
    assert fk.kesten_counts(zmod3, mixed, 4) == counts_by_direct_expansion(zmod3, mixed, 4)


@pytest.fixture
def z3z3():
    return fk.GroupDualSystem([3, 3], names=["g", "h"])


@pytest.mark.parametrize("family, u, inversions", [
    ("z3z3", "g + g^2 + h + h^2", 1),  # the two free parts have the same moments
    ("zmod3", "g + h", 2),
    ("f2", None, 0),  # the letter generator walks the radial quotient instead
    ("f2", "s^2 + s^-2 + t^2 + t^-2", 0),  # so do the squares, the letters of <s^2, t^2>
])
def test_cumulants_once_per_distinct_factor_moments(family, u, inversions, request,
                                                     monkeypatch):
    sys = request.getfixturevalue(family)
    u = four_letter_generator(sys) if u is None else fk.parse_element(sys, u)
    calls = []
    inverse = fk.core.moments_to_free_cumulants

    def counted(moments):
        calls.append(tuple(moments))
        return inverse(moments)

    monkeypatch.setattr(fk.core, "moments_to_free_cumulants", counted)
    counts = fk.kesten_counts(sys, u, 4)
    assert len(calls) == inversions
    assert counts == counts_by_direct_expansion(sys, u, 4)


def test_char_moments_at_depth_zero(zmod3):
    # the free-cumulant join needs a first cumulant even at N = 0
    x = fk.parse_element(zmod3, "2*e + g + h + h^2")
    assert fk.char_moments(zmod3, x, 0) == [1]
    assert fk.char_moments(zmod3, x, 1) == [1, 2]


def test_char_moments_free_path(f2):
    u4 = four_letter_generator(f2)
    m = fk.char_moments(f2, u4, 4)
    # closed walks on the 4-regular tree: W_2 = 4, W_4 = 28
    assert m == [1, 0, 4, 0, 28]


def test_spectral_radius_estimators():
    ones = [1, 1, 1, 1]
    assert fk.spectral_radius_estimate(ones, "root") == pytest.approx(0.5, abs=1e-12)
    assert fk.spectral_radius_estimate(ones, "ratio") == pytest.approx(0.5)
    assert fk.spectral_radius_estimate(ones, "extrapolated-ratio") == pytest.approx(0.5)
    with pytest.raises(fk.FusionError):
        fk.spectral_radius_estimate([1, 2], "ratio")
    with pytest.raises(fk.FusionError):
        fk.spectral_radius_estimate(ones, "sorcery")


def test_ao2_estimate_near_two(ao2):
    counts = fk.kesten_counts(ao2, ao2.fundamental(), 30)
    est = fk.spectral_radius_estimate(counts, "extrapolated-ratio")
    assert abs(est - 2.0) <= 0.05
    seq = [math.exp((math.log(c) - k * math.log(4)) / (2 * k))
           for k, c in enumerate(counts, start=1)]
    assert all(a <= b + 1e-12 for a, b in zip(seq, seq[1:]))
    assert seq[-1] <= 2.0 + 1e-9


def test_f2_estimate_near_kesten_value(f2):
    u4 = four_letter_generator(f2)
    counts = fk.kesten_counts(f2, u4, 30)
    est = fk.spectral_radius_estimate(counts, "extrapolated-ratio")
    assert abs(est - 2 * math.sqrt(3)) <= 0.15
    assert est + 0.15 < 4


def test_root_sequence_monotone_kac_families(ao2, ao3, aut4, au2, f2):
    cases = [
        (ao2, ao2.fundamental(), 12),
        (ao3, ao3.fundamental(), 12),
        (aut4, fk.fundamental(aut4), 10),
        (au2, au2.fundamental(), 7),
        (f2, four_letter_generator(f2), 12),
    ]
    for sys, u, K in cases:
        counts = fk.kesten_counts(sys, u, K)
        assert root_sequence_is_monotone(counts), sys.family_id


def monotone_by_fractions(counts):
    """Oracle: ``(c_{2k}/4^k)^{k+1} <= (c_{2k+2}/4^{k+1})^k`` for each k, as fractions."""
    return all(Fraction(counts[k - 1], 4 ** k) ** (k + 1) <= Fraction(counts[k], 4 ** (k + 1)) ** k
               for k in range(1, len(counts)))


def test_root_sequence_monotone_matches_fraction_oracle(rng):
    cases = []
    for _ in range(200):
        n = rng.randint(1, 12)
        cases.append([rng.randint(1, 10 ** rng.randint(1, 8)) for _ in range(n)])
    for _ in range(100):
        # c_{2k} = b^{2k} makes the root sequence constant at b/2: the equality case
        b, n = rng.randint(1, 9), rng.randint(2, 12)
        equal = [b ** (2 * k) for k in range(1, n + 1)]
        assert monotone_by_fractions(equal)
        cases.append(equal)
        scaled = [rng.randint(2, 5) * c for c in equal]  # root sequence decreases
        assert not monotone_by_fractions(scaled)
        cases.append(scaled)
        nudged = list(equal)
        nudged[rng.randrange(n)] += rng.choice((-1, 1)) if b > 1 else 1
        cases.append(nudged)
    for counts in list(cases):
        # the counts of a self-conjugate u carry 4^k; zeros are legal input
        cases.append([4 ** k * c for k, c in enumerate(counts, start=1)])
        zeroed = list(counts)
        zeroed[rng.randrange(len(counts))] = 0
        cases.append(zeroed)
    for counts in cases:
        assert root_sequence_is_monotone(counts) == monotone_by_fractions(counts), counts


def monotone_by_integer_powers(counts):
    """Oracle: ``c_{2k}^{k+1} <= c_{2k+2}^k`` for each k, in plain integers."""
    return all(counts[k - 1] ** (k + 1) <= counts[k] ** k for k in range(1, len(counts)))


def test_root_sequence_monotone_filter_matches_integer_powers():
    cases = [fk.kesten_counts(fk.AoSystem(3), fk.AoSystem(3).fundamental(), 200),
             fk.kesten_counts(fk.AutSystem(5), fk.AutSystem(5).fundamental(), 100)]
    for b in (1, 2, 3):
        # equal roots: the float gap is 0, so only the exact fallback decides
        equal = [b ** (2 * k) for k in range(1, 201)]
        cases.append(equal)
        for i in (100, 199):
            for delta in (-1, 1):
                nudged = list(equal)
                nudged[i] += delta
                cases.append(nudged)
            zeroed = list(equal)
            zeroed[i] = 0
            cases.append(zeroed)
    verdicts = []
    for counts in cases:
        verdicts.append(root_sequence_is_monotone(counts))
        assert verdicts[-1] == monotone_by_integer_powers(counts), counts[:3]
    assert verdicts[:2] == [True, True] and False in verdicts


def test_estimates_bounded_by_dimension(ao2, ao3, aut4, f2):
    for sys, u in [(ao2, ao2.fundamental()), (ao3, ao3.fundamental()),
                   (aut4, fk.fundamental(aut4)), (f2, four_letter_generator(f2))]:
        n = sys.dim(u)
        counts = fk.kesten_counts(sys, u, 20)
        for method in ("root", "ratio", "extrapolated-ratio"):
            assert fk.spectral_radius_estimate(counts, method) <= n + 0.05


def test_self_conjugate_shortcut(ao3):
    u = ao3.fundamental()
    counts = fk.kesten_counts(ao3, u, 6)
    for k in range(1, 7):
        assert counts[k - 1] == 4 ** k * tensor_power(ao3, u, 2 * k).mult(ao3.unit)


def test_chi_chi_star_counts(ao2, f2):
    p = fk.chi_chi_star_counts(ao2, ao2.fundamental(), 8)
    assert p == [fk.catalan(k) for k in range(1, 9)]
    # non-self-conjugate u over the free group: u (x) conj(u) = 2 + w + w^-1
    u = fk.parse_element(f2, "s + t")
    p = fk.chi_chi_star_counts(f2, u, 6)
    assert p == [_walk_moment(k) for k in range(1, 7)]


def _walk_moment(k):
    # moments of 2 + w + w^-1 with w free: sum_j C(k,j)-weighted lattice returns
    # computed directly: (2 + z + z^-1)^k constant term with z formal
    coeffs = {0: 1}
    for _ in range(k):
        nxt = {}
        for e, c in coeffs.items():
            for de, mult in ((0, 2), (1, 1), (-1, 1)):
                nxt[e + de] = nxt.get(e + de, 0) + c * mult
        coeffs = nxt
    return coeffs[0]


@pytest.mark.parametrize("n,expected", [(2, "amenable-consistent"),
                                        (3, "non-amenable-numerical"),
                                        (4, "non-amenable-numerical"),
                                        (5, "non-amenable-numerical")])
def test_ao_verdicts(n, expected):
    report = fk.amenability_verdict(fk.AoSystem(n), K=30, tol=0.05)
    assert report.verdict == expected
    assert report.agree


@pytest.mark.parametrize("n,expected", [(4, "amenable-consistent"),
                                        (5, "non-amenable-numerical"),
                                        (6, "non-amenable-numerical")])
def test_aut_verdicts(n, expected):
    report = fk.amenability_verdict(fk.AutSystem(n), K=30, tol=0.05)
    assert report.verdict == expected
    assert report.agree


def test_f2_verdict(f2):
    report = fk.amenability_verdict(f2, four_letter_generator(f2), K=30, tol=0.15)
    assert report.n == 4
    assert report.verdict == "non-amenable-numerical"
    assert report.agree


def test_amenable_group_duals(zdual, zd2):
    report = fk.amenability_verdict(zdual, K=30)
    assert report.verdict == "amenable-consistent"
    u = fk.parse_element(zd2, "g1 + g2")
    report = fk.amenability_verdict(zd2, u, K=30, tol=0.05)
    assert report.verdict == "amenable-consistent"


def test_report_serialization(ao2):
    report = fk.amenability_verdict(ao2, K=10)
    data = report.to_json()
    assert data["counts"] == [str(c) for c in report.counts]
    assert data["verdict"] == report.verdict
    assert "numerical" in data["notes"]


def test_mc_recursion_matches_reference(rng):
    N = 40
    kappa = [0] + [rng.randint(-5, 5) for _ in range(N)]
    moments = mc_recursion_reference([1] + [0] * N, True, list(kappa))
    assert fk.free_cumulants_to_moments(kappa) == moments
    walks = [1] + [0 if j % 2 else math.comb(j, j // 2) for j in range(1, N + 1)]
    for m in (moments, walks):
        assert fk.moments_to_free_cumulants(m) == mc_recursion_reference(list(m), False)


@pytest.mark.parametrize("make, K", [(lambda: fk.AoSystem(3), 12),
                                     (lambda: fk.GroupDualSystem([None, None]), 4),
                                     (lambda: fk.ZdDualSystem(2), 6)],
                         ids=["a_o(3)", "F2", "Z^2"])
def test_self_conjugate_verdict_counts_once(make, K, monkeypatch):
    sys = make()
    calls = []
    unit_moments = fk.FusionSystem.unit_moments

    def counted(self, x, N):
        calls.append(N)
        return unit_moments(self, x, N)

    monkeypatch.setattr(fk.FusionSystem, "unit_moments", counted)
    report = fk.amenability_verdict(sys, K=K)
    assert calls == [2 * K]
    p = report.cross_counts
    assert report.counts == [4 ** k * p[k - 1] for k in range(1, K + 1)]
    u = fk.fundamental(sys)
    assert report.counts == counts_by_direct_expansion(sys, u, K)


def test_non_self_conjugate_verdict_counts_both(au2, monkeypatch):
    calls = []
    for name in ("kesten_counts", "chi_chi_star_counts"):
        def counted(*args, _name=name, _fn=getattr(fk.amenability, name)):
            calls.append(_name)
            return _fn(*args)

        monkeypatch.setattr(fk.amenability, name, counted)
    report = fk.amenability_verdict(au2, K=8)
    assert sorted(calls) == ["chi_chi_star_counts", "kesten_counts"]
    assert report.counts == [2 ** k * fk.catalan(k) for k in range(1, 9)]
    assert report.cross_counts == [fk.catalan(k) for k in range(1, 9)]


@pytest.mark.parametrize("K, tol", [(2, None), (0, None), (-1, 0.05),
                                    (8, -1.0), (8, float("nan"))])
def test_verdict_rejects_bad_depth_and_tolerance_before_counting(ao3, K, tol, monkeypatch):
    def no_counting(*args):
        raise AssertionError("counted moments for an invalid request")

    for name in ("kesten_counts", "chi_chi_star_counts", "char_moments"):
        monkeypatch.setattr(fk.amenability, name, no_counting)
    monkeypatch.setattr(fk.FusionSystem, "unit_moments", no_counting)
    with pytest.raises(fk.FusionError):
        fk.amenability_verdict(ao3, K=K, tol=tol)


def test_default_tolerance_is_a_system_attribute(ao3, aut4, au2, f2, zdual, zmod3, zd2):
    assert [s.amenability_tolerance for s in (ao3, aut4, zdual, zd2)] == [0.05] * 4
    assert [s.amenability_tolerance for s in (au2, f2, zmod3)] == [0.15] * 3
    assert fk.amenability_verdict(au2, K=4).tolerance == 0.15
    assert fk.amenability_verdict(zdual, K=4).tolerance == 0.05
