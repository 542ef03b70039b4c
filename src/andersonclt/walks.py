"""Exact walk expansion of diagonal matrix elements and spectral moments.

``<delta_n, H^k delta_n>`` expands over lattice walks of length k from n back
to n: every hop contributes a unit factor and every pause at a site s
multiplies by the potential value at s.  Collecting like monomials gives an
integer-coefficient multivariate polynomial in the site variables, computed
here in exact arithmetic, once per class of cube sites the boundary treats
alike.  Expectations over independent site values then factor over sites,
which yields exact spectral-measure moments, the weighted (coupling-scaled)
measure moments, and the moment-growth/determinacy diagnostics.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .dists import SiteDistribution

__all__ = [
    "WalkPolynomial",
    "moment_polynomial",
    "cube_polynomials",
    "trace_polynomial_terms",
    "dos_moment",
    "modified_moment",
    "dos_moment_variance",
    "moment_bound_check",
    "BoundCheck",
    "carleman_radius",
    "CarlemanReport",
    "growth_check",
    "GrowthCheck",
    "write_moment_table",
]

DEFAULT_STATE_BUDGET = 7**8  # (2d+1)^k for the default caps d <= 3, k <= 8

# a monomial key is a tuple of ((site coordinates), exponent >= 1) pairs,
# sorted by site; the empty tuple is the constant monomial
MonomialKey = tuple


@dataclass(frozen=True)
class WalkPolynomial:
    """Exact expansion of <delta_base, H^k delta_base> in the site variables."""

    d: int
    k: int
    base: tuple
    volume: int | None  # half-side L for the cube restriction, None = infinite
    terms: Mapping[MonomialKey, int]

    def evaluate(self, values):
        """Evaluate at a site -> value mapping (or a DisorderField)."""
        lookup = values.value_at if hasattr(values, "value_at") else values.__getitem__
        total = 0
        for key, coeff in self.terms.items():
            term = coeff
            for site, exp in key:
                term *= lookup(site) ** exp
            total += term
        return total

    def translated(self, shift: tuple) -> "WalkPolynomial":
        """Shift every site (and the base) by a lattice vector."""
        shift = tuple(shift)

        def move(site):
            return tuple(c + s for c, s in zip(site, shift))

        # a translation keeps the lexicographic order of the sites in a key
        moved = {tuple((move(site), exp) for site, exp in key): coeff
                 for key, coeff in self.terms.items()}
        return WalkPolynomial(self.d, self.k, move(self.base), self.volume, moved)


def _bump(key: MonomialKey, site: tuple) -> MonomialKey:
    entries = dict(key)
    entries[site] = entries.get(site, 0) + 1
    return tuple(sorted(entries.items()))


def moment_polynomial(
    d: int,
    k: int,
    site=None,
    volume: int | None = None,
    state_budget: int = DEFAULT_STATE_BUDGET,
) -> WalkPolynomial:
    """Expand <delta_site, H^k delta_site> exactly.

    ``volume=None`` is the infinite lattice; an integer L confines the walks
    to the cube of half-side L (the open-boundary restriction).  The walk
    count (2d+1)^k is capped by ``state_budget``.
    """
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    if k < 0:
        raise ValueError(f"power must be >= 0, got {k}")
    if (2 * d + 1) ** k > state_budget:
        raise ValueError(
            f"(2d+1)^k = {(2 * d + 1) ** k} exceeds the expansion budget "
            f"{state_budget}"
        )
    base = tuple(site) if site is not None else (0,) * d
    if len(base) != d:
        raise ValueError(f"site {base} does not match dimension {d}")
    if volume is not None and any(abs(c) > volume for c in base):
        raise ValueError(f"site {base} lies outside the cube of half-side {volume}")

    state: dict[tuple, dict[MonomialKey, int]] = {base: {(): 1}}
    for _ in range(k):
        new_state: dict[tuple, dict[MonomialKey, int]] = {}
        for s, poly in state.items():
            # s is inside the cube, so only the coordinate a hop moves can leave it
            hops = [s[:axis] + (s[axis] + step,) + s[axis + 1:]
                    for axis in range(d) for step in (-1, 1)
                    if volume is None or abs(s[axis] + step) <= volume]
            for key, coeff in poly.items():
                for target in hops:
                    bucket = new_state.setdefault(target, {})
                    bucket[key] = bucket.get(key, 0) + coeff
                bucket = new_state.setdefault(s, {})
                bumped = _bump(key, s)
                bucket[bumped] = bucket.get(bumped, 0) + coeff
        state = new_state
    return WalkPolynomial(d, k, base, volume, state.get(base, {}))


def cube_polynomials(d: int, L: int, k: int) -> list[tuple[WalkPolynomial, list]]:
    """(polynomial, sites) per class of sites, covering the cube of half-side L once.

    A closed k-step walk moves at most k//2 from its base along any axis, so
    zeroing each coordinate with |c| <= L - k//2 leaves the walks unchanged up
    to translation.  Each class is expanded once at that representative; a
    member's own polynomial is it translated by member - representative.
    """
    if L < 0:
        raise ValueError(f"half-side must be >= 0, got {L}")
    classes: dict[tuple, list] = {}
    for site in itertools.product(range(-L, L + 1), repeat=d):
        rep = tuple(0 if abs(c) <= L - k // 2 else c for c in site)
        classes.setdefault(rep, []).append(site)
    return [(moment_polynomial(d, k, rep, volume=L), sites) for rep, sites in classes.items()]


def trace_polynomial_terms(d: int, L: int, k: int) -> dict[MonomialKey, int]:
    """Terms of Tr(H^k) on the cube of half-side L, all base sites collected."""
    total: dict[MonomialKey, int] = {}
    for wp, sites in cube_polynomials(d, L, k):
        for site in sites:
            shift = tuple(c - b for c, b in zip(site, wp.base))
            for key, coeff in wp.translated(shift).terms.items():
                total[key] = total.get(key, 0) + coeff
    return total


def dos_moment(wp: WalkPolynomial, dist: SiteDistribution):
    """k-th moment of the spectral measure at the base site: E<delta, H^k delta>.

    For the infinite-volume polynomial at the origin this is the k-th moment
    of the limiting eigenvalue-distribution measure.  Exact (Fraction) for
    rational-moment distributions.
    """
    total = Fraction(0) if dist.is_exact else 0.0
    for key, coeff in wp.terms.items():
        term = coeff if dist.is_exact else float(coeff)
        for _, exp in key:
            term = term * dist.moment(exp)
        total = total + term
    return total


def modified_moment(wp: WalkPolynomial, dist: SiteDistribution, p: int):
    """Moment of the coupling-scaled, weight-2p measure based at wp.base.

    The value at the base site is scaled by u averaged over [0,1] and the
    whole element is weighted by (base value)^(2p).  Averaging u^j over [0,1]
    contributes 1/(j+1) where j is the base-site exponent of the monomial, and
    the weight merges into the base-site moment E(x^(2p+j)).
    """
    if p < 0:
        raise ValueError(f"weight order p must be >= 0, got {p}")
    base = wp.base
    total = Fraction(0) if dist.is_exact else 0.0
    for key, coeff in wp.terms.items():
        base_exp = 0
        term = coeff if dist.is_exact else float(coeff)
        for site, exp in key:
            if site == base:
                base_exp = exp
            else:
                term = term * dist.moment(exp)
        term = term * Fraction(1, base_exp + 1) * dist.moment(2 * p + base_exp)
        total = total + term
    return total


def dos_moment_variance(wp: WalkPolynomial, dist: SiteDistribution):
    """Exact variance of <delta_base, H^k delta_base> under the disorder."""
    mean = dos_moment(wp, dist)
    second = Fraction(0) if dist.is_exact else 0.0
    items = list(wp.terms.items())
    for key_a, ca in items:
        exp_a = dict(key_a)
        for key_b, cb in items:
            merged = dict(exp_a)
            for site, exp in key_b:
                merged[site] = merged.get(site, 0) + exp
            term = ca * cb if dist.is_exact else float(ca * cb)
            for exp in merged.values():
                term = term * dist.moment(exp)
            second = second + term
    return second - mean * mean


@dataclass(frozen=True)
class BoundCheck:
    ok: bool
    ratio: float
    bound: float
    value: float


def moment_bound_check(value, k: int, d: int, C: float, a: float, p: int) -> BoundCheck:
    """Check |value| <= (2d+1)^k C^k a^(k+2p) (k+2p)^(k+2p), with 0^0 = 1."""
    n = k + 2 * p
    bound = (2 * d + 1) ** k * C**k * a**n * (float(n) ** n if n > 0 else 1.0)
    v = abs(float(value))
    return BoundCheck(ok=v <= bound, ratio=v / bound if bound else math.inf,
                      bound=bound, value=float(value))


@dataclass(frozen=True)
class CarlemanReport:
    lower_bound: float
    empirical_roots: tuple
    empirical_radius: float | None
    verdict: str


def carleman_radius(d: int, C: float, a: float, moments=None) -> CarlemanReport:
    """Lower bound 1/((2d+1) C a e) on the convergence radius of sum m_k t^k / k!.

    When a moment table is supplied, also reports the finite-k estimates
    (|m_k|/k!)^(1/k) whose boundedness certifies a positive radius (and hence
    moment determinacy).
    """
    if C < 1 or a < 1:
        raise ValueError("growth constants must satisfy C, a >= 1")
    lower = 1.0 / ((2 * d + 1) * C * a * math.e)
    roots: list[float] = []
    if moments is not None:
        for k, m in enumerate(moments):
            if k == 0:
                continue
            roots.append(float(abs(m) / math.factorial(k)) ** (1.0 / k))
    radius = None
    verdict = "no-moment-table"
    if roots:
        peak = max(roots)
        radius = math.inf if peak == 0 else 1.0 / peak
        verdict = "positive-radius" if radius > 0 else "indeterminate"
    return CarlemanReport(lower, tuple(roots), radius, verdict)


@dataclass(frozen=True)
class GrowthCheck:
    ok: bool
    C: float
    a: float
    first_violation: int | None
    max_ratio: float


def growth_check(dist: SiteDistribution, K: int) -> GrowthCheck:
    """Verify E|x|^k <= C a^k k^k for 1 <= k <= K with the declared constants."""
    C, a = dist.growth_constants()
    worst = 0.0
    violation = None
    for k in range(1, K + 1):
        bound = C * a**k * float(k) ** k
        ratio = float(dist.abs_moment(k)) / bound
        worst = max(worst, ratio)
        if ratio > 1.0 and violation is None:
            violation = k
    return GrowthCheck(violation is None, C, a, violation, worst)


def write_moment_table(rows, path) -> None:
    """CSV export: columns d, k, p, volume, value (exact string), value_float."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["d", "k", "p", "volume", "value", "value_float"])
        for row in rows:
            value = row["value"]
            writer.writerow(
                [
                    row["d"],
                    row["k"],
                    row.get("p", 0),
                    row.get("volume", "inf"),
                    str(value),
                    repr(float(value)),
                ]
            )
