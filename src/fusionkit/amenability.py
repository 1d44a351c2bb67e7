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

Counting: every count is a unit multiplicity of a tensor power, counted
by ``FusionSystem.unit_moments`` (``char_moments`` is the same call).  It
reads the closed walks of the birth-death chains a family declares
(``radial_chains``: units plus one weight on its step letters, on a group
dual those of the subgroup the support generates, none finite) off their
algebraic generating functions (Kesten, *Trans. AMS* 92, 1959; Woess,
*Random Walks on Infinite Graphs and Groups*, 2000); it joins the free
parts a family declares (``free_parts``) by adding free cumulants, or
forms powers to half the depth.  For a self-conjugate generator
``u + conj u = 2u``, so ``c_{2k} = 4^k p_k`` exactly and a verdict counts
one sequence, shared by the estimate and the cross-check.  Every path is
cross-checked against direct expansion in the tests.
"""

from __future__ import annotations

import math
from typing import NamedTuple

# the moment-cumulant recursions are re-exported from core
from .core import (
    FusionElement,
    FusionError,
    FusionSystem,
    free_cumulants_to_moments,
    moments_to_free_cumulants,
)

AMENABLE = "amenable-consistent"
NON_AMENABLE = "non-amenable-numerical"
INCONCLUSIVE = "inconclusive"

_METHODS = ("root", "ratio", "extrapolated-ratio")

_NOTE = ("verdict is numerical: finitely many exact moments bound the norm from "
         "below (monotone root sequence) and cannot certify strict inequality; "
         "even moments do not distinguish n from -n in the spectrum")


# ---------------------------------------------------------------------------
# exact counts
# ---------------------------------------------------------------------------

def char_moments(sys: FusionSystem, x: FusionElement, N: int) -> list[int]:
    """Exact moments ``m_j = multiplicity(unit, x^(x)j)``, j = 0..N; the same call as
    ``sys.unit_moments(x, N)``."""
    return sys.unit_moments(x, N)


def kesten_counts(sys: FusionSystem, u: FusionElement, K: int) -> list[int]:
    """Exact counts ``c_{2k} = multiplicity(unit, (u + conj u)^(x)2k)``, k = 1..K."""
    if K < 1:
        raise FusionError(f"K must be >= 1, got {K}")
    return sys.unit_moments(u + sys.conj_element(u), 2 * K)[2::2]


def chi_chi_star_counts(sys: FusionSystem, u: FusionElement, K: int) -> list[int]:
    """Cross-check counts ``p_k = multiplicity(unit, (u (x) conj u)^(x)k)``, k = 1..K."""
    if K < 1:
        raise FusionError(f"K must be >= 1, got {K}")
    ubar = sys.conj_element(u)
    if ubar == u:
        # (u (x) u)^k is the 2k-th power of u
        return sys.unit_moments(u, 2 * K)[2::2]
    return sys.unit_moments(sys.tensor(u, ubar), K)[1:]


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


def root_sequence_is_monotone(counts: list[int]) -> bool:
    """Exact check that ``(4^-k c_{2k})^{1/2k}`` is non-decreasing.

    Raised to the power ``2k(k+1)``, step ``k`` is ``c_{2k}^{k+1} <= c_{2k+2}^k``
    (the ``4^k`` cancel).  For positive counts it is first decided by the
    sign of ``lhs - rhs``, with ``lhs = (k+1) log2 c_{2k}`` and
    ``rhs = k log2 c_{2k+2}`` in floats, when the gap exceeds
    ``2^-30 (lhs + rhs + 1)``.  That margin is safe: ``math.log2`` of an
    int rounds it to a double (a large one to a mantissa in ``[1/2, 1)``
    and an exact power of two) and calls libm ``log2``, so even if libm is
    off by a few ulps the result for ``c >= 2`` is within
    ``2^-49 log2 c`` of the truth, and ``log2 1 = 0`` exactly.  Then
    ``lhs`` and ``rhs`` are each within ``2^-48`` of their size, and a gap
    above the margin has the true sign.  Smaller gaps, and counts <= 0,
    fall back to exact integer powers.
    """
    for k in range(1, len(counts)):
        a, b = counts[k - 1], counts[k]
        if a > 0 and b > 0:
            lhs, rhs = (k + 1) * math.log2(a), k * math.log2(b)
            if abs(lhs - rhs) > 2.0 ** -30 * (lhs + rhs + 1):
                if lhs > rhs:
                    return False
                continue
        # the counts of a self-conjugate u carry 4^k, so powers of two enter
        # as one shift; odd parts are raised
        ta, tb = ((c & -c).bit_length() - 1 if c else 0 for c in (a, b))
        lhs, rhs = (a >> ta) ** (k + 1), (b >> tb) ** k
        shift = ta * (k + 1) - tb * k
        if (lhs << shift > rhs) if shift >= 0 else (lhs > rhs << -shift):
            return False
    return True


class KestenReport(NamedTuple):
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
    notes: str = _NOTE

    def to_json(self) -> dict:
        """Every field, with the counts as decimal strings."""
        data = self._asdict()
        for key in ("counts", "cross_counts"):
            data[key] = [str(c) for c in data[key]]
        return data


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
        u = sys.fundamental()
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
        # (u + conj u)^2k = 4^k u^2k
        counts = [4 ** k * p for k, p in enumerate(cross_counts, start=1)]
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
