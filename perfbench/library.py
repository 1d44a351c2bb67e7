"""The in-process workloads: algebra, metric and sets.

Each workload is a list of jobs.  A job builds a fresh fusion system, so
no job profits from the pair memo of another and every pass costs the
same; its check compares the output with an oracle from ``oracles``.
Seeds pick words, star patterns and relabellings of set operands, never
sizes or the order of jobs: the work a pass does, and so its cost, is the
same for every seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from typing import Callable

import oracles as o

F2_NAMES = ("s", "t")
ZZ3_NAMES = ("g", "h")
MODULAR_NAMES = ("a", "b")
ORDER_SEED = 1


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is right
    ladder: str | None = None              # ladder the job is a rung of
    rung: int | None = None
    family: str | None = None              # amenability family, for the estimate error


def _fixed_order(jobs: list[Job]) -> list[Job]:
    """Interleave job kinds in an order that does not depend on the seed.

    Peak memory depends on the order of jobs (one job reuses or fragments
    the heap another left), so the order stays the same for every seed.
    """
    random.Random(ORDER_SEED).shuffle(jobs)
    return jobs


def _expect(got, want, what: str) -> str | None:
    return None if got == want else f"{what}: got {got!r}, want {want!r}"


# ---------------------------------------------------------------------------
# algebra: tensor powers, amenability counting paths, towers, parameter lists
# ---------------------------------------------------------------------------

def algebra(fk, rng: random.Random) -> list[Job]:
    """Kesten ladders on every counting path, towers, lists and star moments.

    The ladders are weighted so that the free-cumulant path (F2), the
    direct half-power path (Z^2, a_u) and the interval families each take
    a fifth to a third of a pass, and towers most of the rest.
    """
    families = {
        "a_o": (lambda: fk.AoSystem(3), o.ao_counts, (50, 100, 200)),
        "aut": (lambda: fk.AutSystem(5), o.aut_counts, (25, 50, 100)),
        "a_u": (lambda: fk.AuSystem(2), o.au_counts, (8, 9, 10, 11, 12, 13)),
        "f2": (lambda: fk.GroupDualSystem([None, None], names=F2_NAMES), o.f2_counts,
               (20, 40, 60, 80)),
        "zd2": (lambda: fk.ZdDualSystem(2), o.z2_counts, (10, 15, 20, 25)),
    }
    jobs = [_verdict_job(fk, fam, make, oracle, K)
            for fam, (make, oracle, ladder) in families.items() for K in ladder]
    jobs += [_z2_tower_job(fk, depth) for depth in (8, 10, 12, 14, 16)]
    jobs.append(_aut_tower_job(fk, 40))
    jobs.append(_derive_job(fk, rng.randint(1, 3), 20))
    for _ in range(28):
        jobs.append(_ao_moment_job(fk, rng, 120))
        jobs.append(_aut_moment_job(fk, rng, 40))
        jobs.append(_au_moment_job(fk, rng, 5))
    return _fixed_order(jobs)


def _verdict_job(fk, family, make, oracle, K) -> Job:
    def check(report):
        counts, cross = oracle(K)
        return (_expect(report.counts, counts, "Kesten counts")
                or _expect(report.cross_counts, cross, "cross counts"))

    return Job(f"amenable.{family}.K{K}", lambda: fk.amenability_verdict(make(), K=K),
               check, ladder=f"{family}.K", rung=K, family=family)


def _z2_tower_job(fk, depth: int) -> Job:
    def run():
        z = fk.ZdDualSystem(2)
        return fk.tower(z, fk.fundamental(z), depth)

    # alternating words of a self-conjugate u: End(u^k) = mult(unit, u^2k)
    want = o.z2_moments(2 * depth)[0::2]
    return Job(f"tower.z2.d{depth}", run,
               lambda d: _expect(d.end_dims(), want, "Z^2 tower end dims"),
               ladder="z2.tower_depth", rung=depth)


def _aut_tower_job(fk, depth: int) -> Job:
    def run():
        s = fk.AutSystem(5)
        return fk.tower(s, s.fundamental(), depth)

    want = [o.catalan(2 * k) for k in range(depth + 1)]
    return Job(f"tower.aut.d{depth}", run,
               lambda d: _expect(d.end_dims(), want, "aut tower end dims"))


def _derive_job(fk, a: int, depth: int) -> Job:
    """a_o(2) with fundamental list (q^a, q^-a): r_k carries q^(a(k-1-2i))."""
    def run():
        return fk.derive_irreducible_lists(
            fk.AoSystem(2), fk.ParamList.parse([f"q^{a}", f"q^-{a}"]), depth)

    def check(lists):
        if len(lists) != depth + 1:
            return f"derived {len(lists)} lists, want {depth + 1}"
        for label, plist in lists.items():
            k = label.payload
            got = sorted(p.exponent_map().get("q", 0) for p in plist.entries())
            want = sorted(a * (k - 1 - 2 * i) for i in range(k))
            if got != want:
                return f"list of r{k}: got exponents {got}, want {want}"
        return None

    return Job(f"derive.a_o.q{a}", run, check)


def _random_stars(rng, n_plain: int, n_starred: int) -> tuple[bool, ...]:
    stars = [False] * n_plain + [True] * n_starred
    rng.shuffle(stars)
    return tuple(stars)


def _ao_moment_job(fk, rng, length: int) -> Job:
    word = fk.StarWord(_random_stars(rng, length // 2, length // 2))

    def run():
        s = fk.AoSystem(3)
        return fk.moment(s, s.fundamental(), word)

    return Job(f"moment.a_o.L{length}", run,
               lambda m: _expect(m, o.catalan(length // 2), "a_o moment"))


def _aut_moment_job(fk, rng, length: int) -> Job:
    word = fk.StarWord(_random_stars(rng, length // 2, length - length // 2))

    def run():
        s = fk.AutSystem(5)
        return fk.moment(s, s.fundamental(), word)

    return Job(f"moment.aut.L{length}", run,
               lambda m: _expect(m, o.catalan(length), "aut moment"))


def _au_moment_job(fk, rng, half: int) -> Job:
    stars = _random_stars(rng, half, half)
    word = fk.StarWord(stars)

    def run():
        s = fk.AuSystem(2)
        return fk.moment(s, s.fundamental(), word)

    return Job(f"moment.a_u.L{2 * half}", run,
               lambda m: _expect(m, o.noncrossing_alternating(stars), "a_u moment"))


# ---------------------------------------------------------------------------
# metric: BFS on group duals
# ---------------------------------------------------------------------------

def metric(fk, rng: random.Random) -> list[Job]:
    """Growth ladders, seeded distance pairs at fixed distance, one QI check."""
    f2 = o.FreeProduct([None, None])
    modular = o.FreeProduct([2, 3])
    jobs = [_growth_job(fk, "f2", r, o.f2_ball) for r in (5, 6, 7, 8, 9)]
    jobs += [_growth_job(fk, "modular", r, o.modular_ball) for r in (10, 13, 16, 19)]
    jobs += [_growth_job(fk, "z2", r, o.z2_ball) for r in (30, 45, 60)]
    jobs += [_word_distance_job(fk, rng, f2, (None, None), F2_NAMES, 6, 10)
             for _ in range(40)]
    jobs += [_word_distance_job(fk, rng, modular, (2, 3), MODULAR_NAMES, 8, 14)
             for _ in range(30)]
    jobs += [_z2_distance_job(fk, rng, 24) for _ in range(30)]
    jobs.append(_qi_job(fk, rng, f2))
    return _fixed_order(jobs)


def _system(fk, name: str):
    if name == "z2":
        return fk.ZdDualSystem(2)
    if name == "f2":
        return fk.GroupDualSystem([None, None], names=F2_NAMES)
    if name == "zz3":
        return fk.GroupDualSystem([None, 3], names=ZZ3_NAMES)
    return fk.GroupDualSystem([2, 3], names=MODULAR_NAMES)


def _growth_job(fk, name: str, r: int, ball) -> Job:
    def run():
        s = _system(fk, name)
        return fk.growth_table(s, fk.fundamental(s), s.unit, r)

    want = [(i, ball(i)) for i in range(r + 1)]
    return Job(f"growth.{name}.r{r}", run,
               lambda rows: _expect(rows, want, f"{name} ball sizes"),
               ladder=f"{name}.growth_r", rung=r)


def _word_distance_job(fk, rng, group, factors, names, length: int, dist: int) -> Job:
    """d(a, u.a) = |u| for a reduced word u: left translation by the generators."""
    a = group.random_word(rng, length)
    b = group.mul(group.random_word(rng, dist), a)
    a_text, b_text = group.text(a, names), group.text(b, names)

    def run():
        s = fk.GroupDualSystem(list(factors), names=list(names))
        return fk.distance(s, fk.fundamental(s), s.parse_label(a_text), s.parse_label(b_text))

    return Job(f"distance.{'f2' if factors[0] is None else 'modular'}.d{dist}", run,
               lambda d: _expect(d, dist, f"d({a_text}, {b_text})"))


def _z2_distance_job(fk, rng, dist: int) -> Job:
    """On Z^2 the distance is the l1 norm of the difference."""
    a = (rng.randint(-20, 20), rng.randint(-20, 20))
    dx = rng.randint(0, dist)
    u = (rng.choice((1, -1)) * dx, rng.choice((1, -1)) * (dist - dx))
    b = (a[0] + u[0], a[1] + u[1])

    def run():
        s = fk.ZdDualSystem(2)
        return fk.distance(s, fk.fundamental(s), s.vector(a), s.vector(b))

    return Job(f"distance.z2.d{dist}", run, lambda d: _expect(d, dist, f"d({a}, {b})"))


def _qi_job(fk, rng, group) -> Job:
    """v = e + s^+-1 + t^+-1 against v + w, w = e + s^2 + s^-2: w first fits in v^2."""
    pairs = [(group.random_word(rng, 3), group.random_word(rng, 3)) for _ in range(5)]
    texts = [(group.text(a, F2_NAMES), group.text(b, F2_NAMES)) for a, b in pairs]

    def run():
        s = _system(fk, "f2")
        w = fk.parse_element(s, "e + s^2 + s^-2")
        labels = [(s.parse_label(a), s.parse_label(b)) for a, b in texts]
        return fk.quasi_isometry_check(s, fk.fundamental(s), w, labels)

    def check(report):
        return _expect((report.K, report.holds, report.pairs_checked), (3, True, 5),
                       "quasi-isometry report")

    return Job("quasi_isometry.f2", run, check)


# ---------------------------------------------------------------------------
# sets: the powers set calculus
# ---------------------------------------------------------------------------

CHECK_RADIUS = 4
SHAPE_SEED = 20260810


def sets(fk, rng: random.Random) -> list[Job]:
    """Seeded translations, boolean algebra, witness search and witness checks.

    The cost of a translation depends strongly on how the operand and the
    word meet, so the operands and words are drawn once, from a fixed
    seed; the run's seed applies a random automorphism of the group to
    each job.  Every seed thus does the same work on differently labelled
    inputs.
    """
    shapes = random.Random(SHAPE_SEED)
    groups = {"f2": (o.FreeProduct([None, None]), (None, None), F2_NAMES),
              "zz3": (o.FreeProduct([None, 3]), (None, 3), ZZ3_NAMES)}
    jobs = []
    for name, (group, factors, names) in groups.items():
        for lx, n in ((1, 12), (2, 12), (3, 1 if name == "f2" else 2)):
            jobs += [_right_translate_job(fk, shapes, group.automorphism(rng), name, group,
                                          factors, lx) for _ in range(n)]
        jobs += [_left_translate_job(fk, shapes, group.automorphism(rng), name, group, factors)
                 for _ in range(20)]
        jobs += [_boolean_job(fk, shapes, group.automorphism(rng), name, group, factors)
                 for _ in range(10)]
        for budget in (2, 3):
            jobs.append(_search_job(fk, rng, name, group, factors, names, budget))
    for _ in range(6):
        jobs += _f2_check_jobs(fk, rng)
    return _fixed_order(jobs)


def _random_operand(group, rng) -> o.LetterSet:
    words = group.words_upto(3)
    two = [w for w in words if len(w) == 2]
    return o.LetterSet(cylinders=rng.sample(two, 2),
                       includes=rng.sample([w for w in words if len(w) <= 2], 1),
                       excludes=rng.sample([w for w in words if len(w) == 3], 2))


def _wordset(fk, s, group, L: o.LetterSet):
    return fk.WordSet.make(s, cylinders=[group.to_payload(w) for w in L.cylinders],
                           includes=[group.to_payload(w) for w in L.includes],
                           excludes=[group.to_payload(w) for w in L.excludes])


def _members(group, S) -> set:
    return o.members_within(lambda w: S.member_word(group.to_payload(w)), group,
                            CHECK_RADIUS)


def _right_translate_job(fk, shapes, relabel, name, group, factors, lx: int) -> Job:
    S = _random_operand(group, shapes).mapped(relabel)
    x = relabel(group.random_word(shapes, lx))

    def run():
        s = fk.GroupDualSystem(list(factors))
        return fk.set_product(s, _wordset(fk, s, group, S),
                              fk.WordSet.make(s, includes=[group.to_payload(x)]))

    want = cache(lambda: o.translate_within(group, S.member, (), x, CHECK_RADIUS))
    return Job(f"right_translate.{name}.x{lx}", run,
               lambda R: _expect(_members(group, R), want(), "S o {x} members"))


def _left_translate_job(fk, shapes, relabel, name, group, factors) -> Job:
    S = _random_operand(group, shapes).mapped(relabel)
    xs = [relabel(group.random_word(shapes, shapes.randint(1, 4))) for _ in range(8)]

    def run():
        s = fk.GroupDualSystem(list(factors))
        return fk.set_product(s, fk.WordSet.make(s, includes=[group.to_payload(x) for x in xs]),
                              _wordset(fk, s, group, S))

    want = cache(lambda: set().union(*(o.translate_within(group, S.member, x, (), CHECK_RADIUS)
                                       for x in xs)))
    return Job(f"left_translate.{name}", run,
               lambda R: _expect(_members(group, R), want(), "X o S members"))


def _boolean_job(fk, shapes, relabel, name, group, factors, pairs: int = 3) -> Job:
    operands = [(_random_operand(group, shapes).mapped(relabel),
                 _random_operand(group, shapes).mapped(relabel)) for _ in range(pairs)]

    def run():
        s = fk.GroupDualSystem(list(factors))
        out = []
        for A, B in operands:
            a, b = _wordset(fk, s, group, A), _wordset(fk, s, group, B)
            out.append((a.union(b), a.intersect(b), a.complement(), a.minus(b), a == b))
        return out

    def check(results):
        ball = set(group.words_upto(CHECK_RADIUS))
        for (A, B), (union, inter, comp, minus, equal) in zip(operands, results):
            mA = o.members_within(A.member, group, CHECK_RADIUS)
            mB = o.members_within(B.member, group, CHECK_RADIUS)
            wrong = (_expect(_members(group, union), mA | mB, "union")
                     or _expect(_members(group, inter), mA & mB, "intersection")
                     or _expect(_members(group, comp), ball - mA, "complement")
                     or _expect(_members(group, minus), mA - mB, "difference")
                     or (None if not equal or mA == mB else "unequal sets compare equal"))
            if wrong:
                return wrong
        return None

    return Job(f"boolean.{name}", run, check)


def _search_job(fk, rng, name, group, factors, names, budget: int) -> Job:
    """Search with F = {x, x^-1} for a seeded Z letter x; verify by enumeration."""
    x = rng.choice([l for l in group.letters if factors[l[0]] is None])
    F = [x] if name == "zz3" else [x, group.inverse((x,))[0]]

    def run():
        s = fk.GroupDualSystem(list(factors), names=list(names))
        return fk.search_witness(s, [s.word([letter]) for letter in F], budget=budget)

    def check(w):
        if w is None:
            return "no witness found"
        return _witness_error(group, w)

    return Job(f"search.{name}.b{budget}", run, check)


def _witness_error(group, w) -> str | None:
    """Both witness conditions, on every word of at most CHECK_RADIUS letters."""
    def inside(S):
        return lambda word: S.member_word(group.to_payload(word))

    D, E = _members(group, w.D), _members(group, w.E)
    if D & E or D | E != set(group.words_upto(CHECK_RADIUS)):
        return "D and E do not partition the ball"
    for f in w.F:
        image = o.translate_within(group, inside(w.D), group.from_payload(f.payload), (),
                                   CHECK_RADIUS)
        if image & D:
            return "F o D meets D"
    translates = [o.translate_within(group, inside(w.E), group.from_payload(r.payload), (),
                                     CHECK_RADIUS) for r in w.r_labels()]
    for i in range(3):
        for j in range(i + 1, 3):
            if translates[i] & translates[j]:
                return f"r{i + 1} o E meets r{j + 1} o E"
    return None


def _f2_check_jobs(fk, rng) -> list[Job]:
    """A valid F2 witness under a seeded automorphism, and a copy with r1 = r2.

    The witness for F = {s, s^-1}: D = Cyl(t^-1), E its complement,
    r = (t, s^-1 t, s t).  Swapping or inverting generators keeps it valid.
    """
    swap, sign_s, sign_t = rng.random() < 0.5, rng.choice((1, -1)), rng.choice((1, -1))

    def letter(f, e):
        f, e = (1 - f if swap else f), e * (sign_s if f == 0 else sign_t)
        return f, e

    def word(*letters):
        return tuple(letter(f, e) for f, e in letters)

    F = [word((0, 1)), word((0, -1))]
    D = [word((1, -1))]
    E_cyl = [word((0, 1)), word((0, -1)), word((1, 1))]
    r = [word((1, 1)), word((0, -1), (1, 1)), word((0, 1), (1, 1))]

    def job(rs, holds: bool) -> Job:
        def run():
            s = fk.GroupDualSystem([None, None], names=list(F2_NAMES))
            pl = lambda w: s.word(list(w))
            witness = fk.PowersWitness(
                F=[pl(f) for f in F],
                D=fk.WordSet.make(s, cylinders=[pl(c).payload for c in D]),
                E=fk.WordSet.make(s, cylinders=[pl(c).payload for c in E_cyl],
                                  includes=[()]),
                r1=pl(rs[0]), r2=pl(rs[1]), r3=pl(rs[2]))
            return fk.check_witness(s, witness)

        return Job(f"check.f2.{'valid' if holds else 'r1=r2'}", run,
                   lambda v: _expect((v.holds, v.exact), (holds, True), "witness verdict"))

    return [job(r, True), job([r[0], r[0], r[2]], False)]
