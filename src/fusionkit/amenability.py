"""Kesten-style amenability estimates from exact moment counts.

For a generator ``u`` of dimension ``n`` the engine computes the exact
counts ``c_{2k} = multiplicity(unit, (u + conj u)^(x)2k)``; the moments of
the real part of the character are ``4^{-k} c_{2k}``, so the norm of that
self-adjoint element is ``(1/2) lim c_{2k}^{1/2k}``.  Amenability is
equivalent to this norm being equal to ``n``; with finitely many moments
the engine can only report a toleranced numerical verdict, and says so.
The estimator-plus-tolerance protocol (and its inability to distinguish
``n`` from ``-n`` in the spectrum, since only even moments are available)
is a limitation of the numerical reading, documented in the report notes.

A cross-check runs the same estimate through the positive element
``chi(u) chi(u)*`` (moments ``p_k = multiplicity(unit, (u (x) conj u)^(x)k)``,
norm ``n^2`` exactly when amenable); the two verdicts must agree.

Counting: every count is a unit multiplicity of a tensor power
(``FusionSystem.unit_moments``).  Where the family proves that the
generator is ``c0`` units plus independent steps of birth-death chains on
levels (``FusionSystem.radial_chains``: word length for ``c0 + w (a + b)``
in ``a_u``, letter length for ``c0 + w * sum (g + g^-1)`` over the free
groups ``F_n``, one chain per coordinate for the same shape in ``Z^d``),
the counts are closed walks of those chains, whose rates are constant
from level 1 on (Kesten, *Trans. AMS* 92, 1959; Woess, *Random Walks on
Infinite Graphs and Groups*, 2000): integers are walked on levels, and
no rule runs and no power is formed.
Elsewhere Frobenius reciprocity gives ``multiplicity(unit, a (x) b) =
sum_c a_c b_{conj c}``, so ``x^(x)2k`` and ``x^(x)2k-1`` are read off the
pair ``x^(x)k, x^(x)k-1``: powers are formed to half the depth only.  For
a self-conjugate generator ``u + conj u = 2u``, so ``c_{2k} = 4^k p_k``
exactly and a verdict counts one sequence, shared by the estimate and the
cross-check.  For the other duals of free products the supports grow
exponentially, but elements supported on the unit and single-syllable
words split as a sum of elements from distinct free factors, which are
free with respect to the unit-multiplicity trace; their mixed moments are
therefore determined by the factor moments through the free
(noncrossing) moment-cumulant relations.  Those relations are integer
recursions, so this path is exact.  Both paths are cross-checked against
direct expansion in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import mul

from .core import FusionElement, FusionError, FusionSystem
from .families import GroupDualSystem, fundamental

AMENABLE = "amenable-consistent"
NON_AMENABLE = "non-amenable-numerical"
INCONCLUSIVE = "inconclusive"

_METHODS = ("root", "ratio", "extrapolated-ratio")

_NOTE = ("verdict is numerical: finitely many exact moments bound the norm from "
         "below (monotone root sequence) and cannot certify strict inequality; "
         "even moments do not distinguish n from -n in the spectrum")


# ---------------------------------------------------------------------------
# free moment-cumulant recursions (exact integer arithmetic)
# ---------------------------------------------------------------------------

def moments_to_free_cumulants(moments: list[int]) -> list[int]:
    """Free cumulants ``k_1..k_N`` from moments ``[m_0=1, m_1, ..., m_N]``.

    Uses ``m_n = sum_s k_s * [z^(n-s)] M(z)^s`` with
    ``M(z) = sum m_j z^j``; solving for ``k_n`` keeps everything integral.
    """
    N = len(moments) - 1
    if N < 0 or moments[0] != 1:
        raise FusionError("moments must start with m_0 = 1")
    return _mc_recursion(list(moments), forward=False)


def free_cumulants_to_moments(cumulants: list[int], N: int | None = None) -> list[int]:
    """Moments ``[m_0..m_N]`` from free cumulants ``k_1..k_N`` (index 0 unused)."""
    kappa = list(cumulants)
    if N is None:
        N = len(kappa) - 1
    if len(kappa) < N + 1:
        raise FusionError("not enough cumulants")
    moments = [1] + [0] * N
    _mc_recursion(moments, forward=True, kappa=kappa)
    return moments


def _mc_recursion(moments: list[int], forward: bool, kappa: list[int] | None = None):
    # P[s][t] = [z^t] M(z)^s, filled along diagonals s + t = n so each entry
    # only ever consumes moments of lower order.
    N = len(moments) - 1
    if kappa is None:
        kappa = [0] * (N + 1)
    P: list[list[int]] = [[0] * (N + 1) for _ in range(N + 1)]
    P[0][0] = 1
    for n in range(1, N + 1):
        for s in range(1, n + 1):
            t = n - s
            if s == 1:
                P[s][t] = moments[t]
            else:
                # sum_j P[s-1][t-j] * moments[j], j = 0..t
                P[s][t] = sum(map(mul, P[s - 1][t::-1], moments))
        if forward:
            moments[n] = sum(kappa[s] * P[s][n - s] for s in range(1, n + 1))
        else:
            kappa[n] = moments[n] - sum(kappa[s] * P[s][n - s] for s in range(1, n))
    return moments if forward else kappa


# ---------------------------------------------------------------------------
# exact character moments
# ---------------------------------------------------------------------------

def char_moments(sys: FusionSystem, x: FusionElement, N: int) -> list[int]:
    """Exact moments ``m_j = multiplicity(unit, x^(x)j)`` for j = 0..N."""
    sys.check_element(x)
    # a declared chain walk is cheaper than the cumulant table
    split = None if sys.radial_chains(x) is not None else _free_factor_split(sys, x)
    if split is not None:
        c0, parts = split
        kappa = [0] * (N + 1)
        # factors with the same moments (s + s^-1, t + t^-1 in F2) share cumulants
        by_moments: dict[tuple[int, ...], list[int]] = {}
        for part in parts:
            m = tuple(sys.unit_moments(part, N))
            if m not in by_moments:
                by_moments[m] = moments_to_free_cumulants(list(m))
            k = by_moments[m]
            for j in range(1, N + 1):
                kappa[j] += k[j]
        kappa[1] += c0
        return free_cumulants_to_moments(kappa, N)
    return sys.unit_moments(x, N)


def _free_factor_split(sys: FusionSystem, x: FusionElement):
    """Split ``x = c0 * unit + sum of single-factor parts`` when possible.

    Only duals of free products with at least two factors benefit; the
    parts then live in distinct free factors and are free w.r.t. the
    unit-multiplicity trace.  Returns None when some support word mixes
    factors (fall back to direct expansion).
    """
    if not isinstance(sys, GroupDualSystem) or len(sys.factors) < 2:
        return None
    c0 = 0
    per_factor: dict[int, dict] = {}
    for lab, m in x.items():
        w = lab.payload
        if not w:
            c0 = m
        elif len(w) == 1:
            per_factor.setdefault(w[0][0], {})[lab] = m
        else:
            return None
    parts = [FusionElement(terms) for _, terms in sorted(per_factor.items())]
    return c0, parts


def kesten_counts(sys: FusionSystem, u: FusionElement, K: int) -> list[int]:
    """Exact counts ``c_{2k} = multiplicity(unit, (u + conj u)^(x)2k)``, k = 1..K."""
    if K < 1:
        raise FusionError(f"K must be >= 1, got {K}")
    sys.check_element(u)
    ubar = sys.conj_element(u)
    if ubar == u:
        return _four_power_scaled(_even_power_counts(sys, u, K))
    return _even_power_counts(sys, u + ubar, K)


def chi_chi_star_counts(sys: FusionSystem, u: FusionElement, K: int) -> list[int]:
    """Cross-check counts ``p_k = multiplicity(unit, (u (x) conj u)^(x)k)``, k = 1..K."""
    if K < 1:
        raise FusionError(f"K must be >= 1, got {K}")
    sys.check_element(u)
    ubar = sys.conj_element(u)
    if ubar == u:
        # (u (x) u)^k is the 2k-th power of u
        return _even_power_counts(sys, u, K)
    return sys.unit_moments(sys.tensor(u, ubar), K)[1:]


def _even_power_counts(sys: FusionSystem, v: FusionElement, K: int) -> list[int]:
    """``multiplicity(unit, v^(x)2k)`` for k = 1..K."""
    return char_moments(sys, v, 2 * K)[2::2]


def _four_power_scaled(p: list[int]) -> list[int]:
    """``c_{2k} = 4^k p_k``: for self-conjugate ``u``, ``(u + conj u)^2k = 4^k u^2k``."""
    return [4 ** k * pk for k, pk in enumerate(p, start=1)]


# ---------------------------------------------------------------------------
# estimators and verdicts
# ---------------------------------------------------------------------------

def spectral_radius_estimate(counts: list[int], method: str = "extrapolated-ratio") -> float:
    """Estimate ``(1/2) lim c_{2k}^{1/2k}`` from the exact count sequence.

    ``root`` takes the deepest root; ``ratio`` the deepest consecutive
    ratio; ``extrapolated-ratio`` applies one Richardson step (error model
    proportional to 1/k) to the last two ratios.
    """
    if method not in _METHODS:
        raise FusionError(f"unknown method {method!r}; choose from {_METHODS}")
    K = len(counts)
    if K < 3:
        raise FusionError("need at least 3 counts")
    if any(c <= 0 for c in counts):
        raise FusionError("counts must be positive")
    if method == "root":
        return 0.5 * math.exp(math.log(counts[-1]) / (2 * K))
    ratios = {k: 0.5 * math.sqrt(counts[k] / counts[k - 1]) for k in (K - 1, K - 2)}
    # ratio index k uses c_{2k+2}/c_{2k}, i.e. list entries k and k-1
    if method == "ratio":
        return ratios[K - 1]
    r1, r0 = ratios[K - 1], ratios[K - 2]
    return (K - 1) * r1 - (K - 2) * r0


def root_sequence(counts: list[int]) -> list[float]:
    """The lower-bound sequence ``(4^-k c_{2k})^{1/2k}`` (monotone when tracial)."""
    return [math.exp((math.log(c) - k * math.log(4)) / (2 * k))
            for k, c in enumerate(counts, start=1)]


def root_sequence_is_monotone(counts: list[int]) -> bool:
    """Exact check that ``(4^-k c_{2k})^{1/2k}`` is non-decreasing."""
    for k in range(1, len(counts)):
        # M_k^{1/2k} <= M_{k+1}^{1/(2k+2)}, M_k = c_{2k}/4^k, raised to the power
        # 2k(k+1) is c_{2k}^{k+1} <= c_{2k+2}^k.  The counts of a self-conjugate
        # u carry 4^k, so powers of two enter as one shift; odd parts are raised.
        ta, tb = ((c & -c).bit_length() - 1 if c else 0 for c in counts[k - 1:k + 1])
        lhs, rhs = (counts[k - 1] >> ta) ** (k + 1), (counts[k] >> tb) ** k
        shift = ta * (k + 1) - tb * k
        if (lhs << shift > rhs) if shift >= 0 else (lhs > rhs << -shift):
            return False
    return True


@dataclass(slots=True)
class KestenReport:
    """Outcome of the amenability estimate for one generator."""

    family: str
    n: int
    depth: int
    tolerance: float
    method: str
    counts: list[int]
    estimate: float
    verdict: str
    cross_counts: list[int]
    cross_estimate: float
    cross_verdict: str
    agree: bool
    notes: str = field(default=_NOTE)

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "n": self.n,
            "depth": self.depth,
            "tolerance": self.tolerance,
            "method": self.method,
            "counts": [str(c) for c in self.counts],
            "estimate": self.estimate,
            "verdict": self.verdict,
            "cross_counts": [str(p) for p in self.cross_counts],
            "cross_estimate": self.cross_estimate,
            "cross_verdict": self.cross_verdict,
            "agree": self.agree,
            "notes": self.notes,
        }


def _classify(estimate: float, n: int, tol: float, monotone: bool) -> str:
    if abs(estimate - n) <= tol:
        return AMENABLE
    if estimate + tol < n and monotone:
        return NON_AMENABLE
    return INCONCLUSIVE


def amenability_verdict(sys: FusionSystem, u: FusionElement | None = None,
                        K: int = 30, tol: float | None = None,
                        method: str = "extrapolated-ratio") -> KestenReport:
    """Toleranced amenability verdict for the generator ``u``.

    ``amenable-consistent`` when the norm estimate is within ``tol`` of
    ``n = dim(u)``; ``non-amenable-numerical`` when the estimate falls
    short by more than ``tol`` with a stable monotone root sequence;
    ``inconclusive`` otherwise.  The cross-check through the positive
    element must agree, else the verdict degrades to inconclusive.
    """
    if u is None:
        u = fundamental(sys)
    sys.check_element(u)
    if K < 3:
        raise FusionError(f"depth K must be >= 3, got {K}")
    if tol is None:
        tol = sys.amenability_tolerance
    elif not tol >= 0:
        raise FusionError(f"tolerance must be >= 0, got {tol}")
    n = sys.dim(u)
    cross_counts = chi_chi_star_counts(sys, u, K)
    if sys.conj_element(u) == u:
        counts = _four_power_scaled(cross_counts)
    else:
        counts = kesten_counts(sys, u, K)
    estimate = spectral_radius_estimate(counts, method)
    monotone = root_sequence_is_monotone(counts)
    verdict = _classify(estimate, n, tol, monotone)

    r1 = cross_counts[-1] / cross_counts[-2]
    r0 = cross_counts[-2] / cross_counts[-3]
    Kc = len(cross_counts)
    extrapolated = (Kc - 1) * r1 - (Kc - 2) * r0
    cross_estimate = math.sqrt(extrapolated) if extrapolated > 0 else 0.0
    cross_verdict = _classify(cross_estimate, n, tol, monotone)

    agree = verdict == cross_verdict
    final = verdict if agree else INCONCLUSIVE
    notes = _NOTE if agree else _NOTE + "; primary and cross-check estimates disagree"
    return KestenReport(
        family=sys.family_id, n=n, depth=K, tolerance=tol, method=method,
        counts=counts, estimate=estimate, verdict=final,
        cross_counts=cross_counts, cross_estimate=cross_estimate,
        cross_verdict=cross_verdict, agree=agree, notes=notes)
