import json
import random
import sys as _sys
import time
from fractions import Fraction
from math import comb

import pytest

import fusionkit as fk
from fusionkit import cli


@pytest.fixture
def rng():
    return random.Random(20260810)


@pytest.fixture
def ao2():
    return fk.AoSystem(2)


@pytest.fixture
def ao3():
    return fk.AoSystem(3)


@pytest.fixture
def aut4():
    return fk.AutSystem(4)


@pytest.fixture
def au2():
    return fk.AuSystem(2)


@pytest.fixture
def f2():
    return fk.GroupDualSystem([None, None], names=["s", "t"])


@pytest.fixture
def zdual():
    return fk.GroupDualSystem([None])


@pytest.fixture
def zmod3():
    return fk.GroupDualSystem([None, 3], names=["g", "h"])


@pytest.fixture
def zd2():
    return fk.ZdDualSystem(2)


def label_pool(sys):
    """A small deterministic pool of labels for randomized element tests."""
    if isinstance(sys, fk.AoSystem):
        return [sys.r(k) for k in range(1, 8)]
    if isinstance(sys, fk.AutSystem):
        return [sys.s(k) for k in range(0, 6)]
    if isinstance(sys, fk.AuSystem):
        words = [""]
        for _ in range(3):
            words += [w + c for w in words for c in "ab" if len(w) == max(map(len, words)) - 0]
        words = sorted({w for w in words if len(w) <= 3})
        return [sys.word(w) for w in words]
    # group duals: everything within tree depth 2
    out = [()]
    layer = [()]
    if isinstance(sys, fk.ZdDualSystem):
        vals = range(-2, 3)
        return [sys.vector((i, j)) for i in vals for j in vals]
    for _ in range(2):
        nxt = []
        for w in layer:
            nxt.extend(sys.children(w))
        out.extend(nxt)
        layer = nxt
    return [sys.word(w) for w in out]


def tensor_power(sys, x, k):
    """Oracle: the k-fold tensor power of ``x`` by repeated tensoring; the 0th is the unit."""
    acc = sys.unit_element()
    for _ in range(k):
        acc = sys.tensor(acc, x)
    return acc


def random_element(sys, rng, pool=None, max_terms=2, max_mult=2):
    pool = pool or label_pool(sys)
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[rng.choice(pool)] = rng.randint(1, max_mult)
    return fk.FusionElement(terms)


def dual(**factors):
    """A group-dual config: each named factor is Z (``None``) or Z/m."""
    return {"family": "group_dual",
            "factors": [{"type": "Z", "name": name} if m is None else
                        {"type": "Zmod", "m": m, "name": name} for name, m in factors.items()]}


AO2Q_PARAMS = {"generators": ["q"], "fundamental_list": ["q", "q^-1"]}
# the family configs of the console tests, by name: the CLI tests, the
# fuzzer and the goldens (which write each to ``<name>.json`` and echo
# that file name) all read them from here
CONFIGS = {
    "ao2": {"family": "a_o", "n": 2},
    "ao2q": {"family": "a_o", "n": 2, "params": {**AO2Q_PARAMS, "values": {"q": 1.2}}},
    "ao2q-at-1": {"family": "a_o", "n": 2, "params": {**AO2Q_PARAMS, "values": {"q": 1.0}}},
    "ao2q-bare": {"family": "a_o", "n": 2, "params": {"fundamental_list": ["q", "q^-1"]}},
    "ao3": {"family": "a_o", "n": 3},
    "aut4": {"family": "aut", "n": 4},
    "au2": {"family": "a_u", "n": 2},
    "f2": dual(s=None, t=None),
    "zz3": dual(s=None, t=3),
    "zz3-gh": dual(g=None, h=3),
    "z": {"family": "group_dual", "factors": [{"type": "Z"}]},
    "z2": {"family": "group_dual", "factors": [{"type": "Zd", "d": 2}]},
    "z3": {"family": "group_dual", "factors": [{"type": "Zmod", "m": 3}]},
    "z2*z2": dual(a=2, b=2),
    "bad": {"family": "a_o", "n": 3, "mystery": 1},
}


# group duals on which ``reduced_support`` draws supports: gcd > 1 and missing factors
REDUCED_SYSTEMS = {
    "F2": lambda: fk.GroupDualSystem([None, None]),
    "F3": lambda: fk.GroupDualSystem([None, None, None]),
    "Z*Z/3": lambda: fk.GroupDualSystem([None, 3]),
    "Z/6*Z": lambda: fk.GroupDualSystem([6, None]),
    "Z/4*Z*Z/6": lambda: fk.GroupDualSystem([4, None, 6]),
    "Z^2": lambda: fk.ZdDualSystem(2),
    "Z^3": lambda: fk.ZdDualSystem(3),
}


def reduced_support(sys, rng, c0, w):
    """``(c0 e + w * sum g_f^(+-d_f), {f: d_f})`` over a seeded nonempty set of factors.

    ``d_f`` is 1, 2 or 3 in ``Z`` and a divisor of ``m`` below ``m`` in
    ``Z/m``, so the support is the unit and the letters of the subgroup
    it generates.
    """
    steps = {}
    for f in sorted(rng.sample(range(len(sys.factors)), rng.randint(1, len(sys.factors)))):
        m = sys.factors[f]
        steps[f] = rng.choice([d for d in range(1, 4 if m is None else m) if m is None or m % d == 0])
    terms = {sys.unit: c0}
    for f, d in steps.items():
        for e in (d, -d):
            terms[sys.parse_label(f"{sys.names[f]}^{e}")] = w
    return fk.FusionElement(terms), steps


def strict_loads(text):
    """``json.loads`` that rejects NaN and infinities, which JSON does not have."""
    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=reject)


def assert_one_envelope(argv, code, out, err, elapsed, bound=10.0):
    """The console contract on one run's streams; returns the envelope.

    stdout holds exactly one strict JSON envelope, printed with indent 2;
    only under ``--jsonl`` do JSON lines come first, one per ``outputs``
    entry and equal to it.  The exit code is 0, 1 or 2 as the envelope's
    ``kind`` says (never ``internal``), ``inputs`` echoes the family (or
    the argv of a usage error), stderr holds no traceback and the run
    ended within ``bound`` seconds.
    """
    lines = out.splitlines()
    assert "{" in lines, f"{argv}: no envelope in {out[:200]!r}"
    start = lines.index("{")
    env = strict_loads("\n".join(lines[start:]))  # one object: trailing text would not parse
    jsonl = [strict_loads(line) for line in lines[:start]]
    assert not jsonl or "--jsonl" in argv and jsonl == env["outputs"], (argv, jsonl)
    assert code in (0, 1, 2), (argv, code)
    outputs = env["outputs"]
    kind = outputs.get("kind") if isinstance(outputs, dict) else None
    assert kind != "internal", (argv, outputs)
    assert kind == {0: None, 1: "computation", 2: "config"}[code], (argv, code, outputs)
    inputs = env["inputs"]
    assert isinstance(inputs, dict) and inputs, (argv, env)
    if "argv" in inputs:
        assert inputs["argv"] == argv and code == 2, (argv, env)
    else:
        assert inputs["family"] == argv[argv.index("--family") + 1], (argv, env)
    assert "Traceback" not in err, (argv, err)
    assert elapsed < bound, (argv, elapsed)
    return env


def run_cli(capsys, argv, bound=10.0):
    """Run the console in process on ``argv`` under the contract; return (exit code, envelope)."""
    started = time.perf_counter()
    code = cli.run(argv)
    elapsed = time.perf_counter() - started
    out, err = capsys.readouterr()
    return code, assert_one_envelope(argv, code, out, err, elapsed, bound)


def with_stack_margin(fn, *args, margin=40):
    """Call ``fn`` with the recursion limit only ``margin`` frames above the stack."""
    depth, frame = 0, _sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = _sys.getrecursionlimit()
    _sys.setrecursionlimit(depth + margin)
    try:
        return fn(*args)
    finally:
        _sys.setrecursionlimit(limit)


def mc_recursion_reference(moments, forward, kappa=None):
    """Oracle: the moment-cumulant recursion with a generator-expression inner sum."""
    N = len(moments) - 1
    if kappa is None:
        kappa = [0] * (N + 1)
    P = [[0] * (N + 1) for _ in range(N + 1)]
    P[0][0] = 1
    for n in range(1, N + 1):
        for s in range(1, n + 1):
            t = n - s
            if s == 1:
                P[s][t] = moments[t]
            else:
                P[s][t] = sum(P[s - 1][t - j] * moments[j] for j in range(t + 1))
        if forward:
            moments[n] = sum(kappa[s] * P[s][n - s] for s in range(1, n + 1))
        else:
            kappa[n] = moments[n] - sum(kappa[s] * P[s][n - s] for s in range(1, n))
    return moments if forward else kappa


def moments_by_full_powers(sys, x, N):
    """Oracle: form every power x^j, j = 0..N, and read the unit off each."""
    acc = sys.unit_element()
    out = [acc.mult(sys.unit)]
    for _ in range(N):
        acc = sys.tensor(acc, x)
        out.append(acc.mult(sys.unit))
    return out


def closed_form_dim(n, k):
    """Oracle: (x^k - y^k)/(x - y) for the roots x, y of X^2 - nX + 1, exactly."""
    # x = (n + sqrt(D))/2 as the pair (n, 1)/2 in a + b*sqrt(D)
    D = n * n - 4

    def mul(p, q):
        return (p[0] * q[0] + p[1] * q[1] * D, p[0] * q[1] + p[1] * q[0])

    x = (Fraction(n, 2), Fraction(1, 2))
    y = (Fraction(n, 2), Fraction(-1, 2))
    xk = yk = (Fraction(1), Fraction(0))
    for _ in range(k):
        xk, yk = mul(xk, x), mul(yk, y)
    value = xk[1] - yk[1]  # (x^k - y^k) / (x - y), both sides over sqrt(D)
    assert value.denominator == 1
    return int(value)


def four_letter_generator(f2):
    """The sum of every generator of a free group and its inverse."""
    out = fk.FusionElement.zero()
    for g in f2.generators():
        out = out + fk.FusionElement({g: 1}) + fk.FusionElement({f2.conj_irr(g): 1})
    return out


def au_split_oracle(sys, x, y):
    """Oracle for ``a_u``: split every suffix of ``x`` that is the bar of a prefix of ``y``."""
    def bar(w):
        return "".join("a" if c == "b" else "b" for c in reversed(w))

    terms = {}
    for k in range(min(len(x), len(y)) + 1):
        if bar(x[len(x) - k:]) == y[:k]:
            lab = sys.word(x[: len(x) - k] + y[k:])
            terms[lab] = terms.get(lab, 0) + 1
    return fk.FusionElement(terms)


def lazy_walk_counts(depth):
    """Closed 2k-step walks of the lazy walk on Z^2, k = 0..depth: j held
    steps, then C(n, n/2)^2 closed walks of the n = 2k - j others."""
    return [sum(comb(2 * k, j) * comb(2 * k - j, k - j // 2) ** 2 for j in range(0, 2 * k + 1, 2))
            for k in range(depth + 1)]
