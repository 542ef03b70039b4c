"""Centered linear eigenvalue statistics and their verification machinery.

The central object is the per-replicate statistic

    X_r = (Tr f(H_r) - mean_s Tr f(H_s)) / sqrt(#sites),

whose large-volume distribution is asymptotically normal.  This module
samples it, estimates and tests the limiting variance, and verifies the
variance decomposition into orthogonal conditional-expectation differences by
exact enumeration over two-point disorder, together with the directional
(half-space) lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
from scipy import stats as sps

from .dists import SiteDistribution, TwoPoint
from .lattice import (
    Hamiltonian,
    LatticeCube,
    assemble_hamiltonian,
    enumerate_cube,
    sample_disorder,
    spectrum_support,
)
from .measures import MeasureEstimate, modified_dos_integral_mc
from .spectral import EigensolveError, chain_arctan_traces, eigenvalues_sym
from .testfuncs import (
    Polynomial,
    SmoothFunction,
    bernstein_approx,
    chebyshev_approx,
    function_of,
    label_of,
)
from .walks import trace_polynomial_terms

__all__ = [
    "APPROX_SCHEMES",
    "SampleSet",
    "VarianceReport",
    "FiltrationPlan",
    "EnumerationEngine",
    "sample_centered_traces",
    "variance_estimate",
    "normality_test",
    "normality_thresholds",
    "variance_bound_check",
    "BoundVerdict",
    "variance_scan",
    "ScanReport",
    "approx_variance_convergence",
    "ApproxConvergenceReport",
    "exact_variance",
    "ExactVariance",
    "martingale_decomposition",
    "MartingaleReport",
    "directional_decomposition",
    "DirectionalReport",
    "positivity_check",
    "PositivityVerdict",
]


# ---------------------------------------------------------------------------
# sampling


# replicates per call of the chain kernel; its working set is 32 bytes per
# site and replicate of a block (diagonal, pivot, argument), 1 MB at L = 500
CHAIN_BLOCK = 32
# the chain kernel must agree with the sterf path on replicate 0 within this,
# relative to sum_k |arctan E_k|
SPOT_CHECK_RTOL = 1e-12


@dataclass(frozen=True)
class SampleSet:
    """Centered statistics per replicate, with full provenance.

    ``min_pivot_re`` and ``spot_check_residual`` report the health of the
    chain log-determinant kernel (see ``_chain_arctan_traces``); both are
    None when the traces came from eigensolves.
    """

    values: np.ndarray
    d: int
    L: int
    f_label: str
    dist: SiteDistribution
    replicates: int
    master_seed: int
    centered: bool = True
    min_pivot_re: float | None = None
    spot_check_residual: float | None = None


def _trace_of(H, f) -> float:
    """Tr f(H), with closed forms for polynomials of degree <= 2.

    The constant coefficient is stripped first: it shifts every replicate's
    trace by the same amount and cancels in the centering, so dropping it
    makes the additive-constant invariance of the statistic hold bit-for-bit.
    Degree <= 2 uses the diagonal sum and the Frobenius identity
    Tr H^2 = sum_ij H_ij^2 (exact integer arithmetic for integer-valued
    disorder); higher degrees and smooth functions go through the spectrum.
    """
    if isinstance(f, Polynomial):
        g = f.without_constant()
        if g.degree == 0:
            return 0.0
        if g.degree <= 2:
            coeffs = g.as_floats().coefficients
            diag = H.diagonal
            total = 0.0
            if len(coeffs) >= 2 and coeffs[1] != 0.0:
                total += coeffs[1] * float(np.sum(diag))
            if len(coeffs) >= 3 and coeffs[2] != 0.0:
                n_edges = len(H.cube.neighbor_pairs())
                total += coeffs[2] * (float(np.sum(diag * diag)) + 2.0 * n_edges)
            return total
        return float(np.sum(g(eigenvalues_sym(H))))
    fn = function_of(f)
    return float(np.sum(np.asarray(fn(eigenvalues_sym(H)), dtype=np.float64)))


def _chain_arctan_traces(cube, dist, master_seed, traces) -> tuple[float, float]:
    """Fill ``traces`` with Tr arctan(H_r) of chains through the pivot kernel.

    Replicates are drawn exactly as on the eigensolve path and go to
    ``chain_arctan_traces`` in blocks of ``CHAIN_BLOCK``.  Replicate 0 is
    also solved through the sterf path, which must agree within
    ``SPOT_CHECK_RTOL``.  Returns (smallest pivot real part, relative
    residual of that check).
    """
    block = np.empty((CHAIN_BLOCK, len(cube)), dtype=np.float64)
    min_pivot = math.inf
    for start in range(0, len(traces), CHAIN_BLOCK):
        stop = min(start + CHAIN_BLOCK, len(traces))
        for r in range(start, stop):
            block[r - start] = sample_disorder(dist, cube, master_seed, r).values
        try:
            traces[start:stop], pivot = chain_arctan_traces(block[: stop - start])
        except EigensolveError as exc:
            raise EigensolveError(f"replicate {start + exc.index}: {exc}") from exc
        min_pivot = min(min_pivot, pivot)

    H = assemble_hamiltonian(cube, sample_disorder(dist, cube, master_seed, 0))
    try:
        f_vals = np.arctan(eigenvalues_sym(H))
    except EigensolveError as exc:
        raise EigensolveError(f"replicate 0: {exc}") from exc
    want = float(np.sum(f_vals))
    scale = max(float(np.sum(np.abs(f_vals))), np.finfo(np.float64).tiny)
    residual = abs(want - traces[0]) / scale
    if not residual <= SPOT_CHECK_RTOL:
        raise EigensolveError(
            f"replicate 0: chain kernel trace {traces[0]!r} and sterf trace {want!r} "
            f"differ by {residual:.3g} relative (limit {SPOT_CHECK_RTOL})"
        )
    return min_pivot, residual


def sample_centered_traces(
    d: int,
    L: int,
    dist: SiteDistribution,
    f,
    replicates: int,
    master_seed: int,
) -> SampleSet:
    """Sample the centered, volume-normalized trace statistic.

    Centering uses the cross-replicate sample mean (the analytic expectation
    is unavailable for general f); the O(1/R) bias this adds to the variance
    estimate is negligible against the acceptance bands.  Arctan traces of
    chains come from the pivot kernel, every other trace from ``_trace_of``.
    """
    if replicates < 2:
        raise ValueError(f"need at least 2 replicates, got {replicates}")
    cube = enumerate_cube(d, L)
    traces = np.empty(replicates, dtype=np.float64)
    min_pivot_re = spot_check_residual = None
    if d == 1 and function_of(f) is np.arctan:
        min_pivot_re, spot_check_residual = _chain_arctan_traces(
            cube, dist, master_seed, traces
        )
    else:
        for r in range(replicates):
            field = sample_disorder(dist, cube, master_seed, r)
            H = assemble_hamiltonian(cube, field)
            try:
                traces[r] = _trace_of(H, f)
            except EigensolveError as exc:
                raise EigensolveError(f"replicate {r}: {exc}") from exc

    centered = (traces - np.mean(traces)) / math.sqrt(len(cube))
    centered.setflags(write=False)
    return SampleSet(
        centered, d, L, label_of(f), dist, replicates, master_seed,
        min_pivot_re=min_pivot_re, spot_check_residual=spot_check_residual,
    )


# ---------------------------------------------------------------------------
# variance and normality


@dataclass(frozen=True)
class VarianceReport:
    sigma2_hat: float
    std_error: float
    n_samples: int
    skewness: float | None = None
    excess_kurtosis: float | None = None
    ks_statistic: float | None = None
    degenerate: bool = False


def _variance_and_se(x: np.ndarray) -> tuple[float, float]:
    """Variance of centered samples with its fourth-moment standard error."""
    r = len(x)
    sigma2 = float(np.sum(x * x) / (r - 1))
    m4 = float(np.mean(x**4))
    return sigma2, math.sqrt(max(m4 - sigma2 * sigma2, 0.0) / r)


def variance_estimate(samples: SampleSet) -> VarianceReport:
    """Variance of the statistic with a fourth-moment standard error."""
    if samples.replicates < 8:
        raise ValueError("variance estimation needs at least 8 replicates")
    sigma2, se = _variance_and_se(samples.values)
    return VarianceReport(sigma2, se, len(samples.values))


def normality_thresholds(n_samples: int) -> dict:
    """Acceptance thresholds: 3 asymptotic null SDs for the moment statistics,
    1.95 for the scaled KS statistic."""
    return {
        "skewness": 3.0 * math.sqrt(6.0 / n_samples),
        "excess_kurtosis": 3.0 * math.sqrt(24.0 / n_samples),
        "ks_scaled": 1.95,
    }


def normality_test(samples: SampleSet) -> VarianceReport:
    """Moment and KS diagnostics of the standardized samples.

    A zero variance estimate is reported as the degenerate case (the limit is
    the point mass at zero), never as a failure.
    """
    if samples.replicates < 200:
        raise ValueError("normality testing needs at least 200 replicates")
    report = variance_estimate(samples)
    if report.sigma2_hat == 0.0:
        return replace(report, degenerate=True)
    z = samples.values / math.sqrt(report.sigma2_hat)
    return replace(
        report,
        skewness=float(sps.skew(samples.values)),
        excess_kurtosis=float(sps.kurtosis(samples.values)),
        ks_statistic=float(sps.kstest(z, "norm").statistic),
    )


@dataclass(frozen=True)
class BoundVerdict:
    ok: bool
    lhs: float
    rhs: float
    slack: float
    margin: float


def variance_bound_check(
    report: VarianceReport, norm_estimate: MeasureEstimate
) -> BoundVerdict:
    """Check sigma2_hat <= 8 * (squared-norm estimate) + 3 * combined SE."""
    rhs = 8.0 * norm_estimate.value
    combined = math.sqrt(report.std_error**2 + (8.0 * norm_estimate.std_error) ** 2)
    slack = 3.0 * combined
    return BoundVerdict(
        ok=report.sigma2_hat <= rhs + slack,
        lhs=report.sigma2_hat,
        rhs=rhs,
        slack=slack,
        margin=rhs - report.sigma2_hat,
    )


@dataclass(frozen=True)
class ScanReport:
    levels: tuple
    reports: tuple
    stabilized: bool


def variance_scan(
    poly: Polynomial,
    d: int,
    dist: SiteDistribution,
    L_grid,
    replicates: int,
    master_seed: int,
) -> ScanReport:
    """Variance estimates along a volume grid with a stabilization verdict.

    Stabilization: the last two grid points agree within mutual 3-sigma bands
    of their combined standard errors.  No claim about existence of the limit
    is made beyond that.
    """
    if poly.degree < 1:
        raise ValueError("variance scans need polynomial degree >= 1")
    reports = []
    for L in L_grid:
        s = sample_centered_traces(d, L, dist, poly, replicates, master_seed)
        reports.append(variance_estimate(s))
    stabilized = True
    if len(reports) >= 2:
        a, b = reports[-2], reports[-1]
        gap = abs(a.sigma2_hat - b.sigma2_hat)
        stabilized = gap <= 3.0 * math.sqrt(a.std_error**2 + b.std_error**2)
    return ScanReport(tuple(L_grid), tuple(reports), stabilized)


# ---------------------------------------------------------------------------
# polynomial approximation of the variance


@dataclass(frozen=True)
class ApproxConvergenceRow:
    degree: int
    sigma_f: float
    sigma_q: float
    bound: float
    bound_se: float
    lhs: float
    rhs: float
    ok: bool


@dataclass(frozen=True)
class ApproxConvergenceReport:
    rows: tuple
    bounds_decreasing: bool


APPROX_SCHEMES = ("bernstein", "chebyshev")


def _sigma_and_se(values: np.ndarray) -> tuple[float, float]:
    """Standard deviation and its delta-method standard error."""
    sigma2, se2 = _variance_and_se(values)
    sigma = math.sqrt(sigma2)
    se = se2 / (2.0 * sigma) if sigma > 0 else 0.0
    return sigma, se


def approx_variance_convergence(
    f: SmoothFunction,
    degrees,
    interval: tuple,
    d: int,
    L: int,
    dist: SiteDistribution,
    replicates: int,
    master_seed: int,
    scheme: str = "bernstein",
    norm_replicates: int = 24,
) -> ApproxConvergenceReport:
    """Compare the statistic of f against its polynomial-primitive surrogates.

    For each degree k the derivative of f is approximated on ``interval`` by
    the chosen constructive scheme (one of ``APPROX_SCHEMES``), the primitive
    of that approximant plays the role of the test function, and the
    difference of the two estimated sigmas is checked against sqrt(8) times
    the estimated L2 distance of the derivatives in the volume-L weighted
    measure (plus 3 combined SEs).
    One spectrum per replicate feeds all test functions; one modified
    eigensolve per (replicate, site) feeds all norm estimates.
    """
    degrees = list(degrees)
    if degrees != sorted(degrees):
        raise ValueError("degrees must be ascending")
    if scheme not in APPROX_SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}; expected one of {APPROX_SCHEMES}")
    build = bernstein_approx if scheme == "bernstein" else chebyshev_approx
    approximants = [build(f.fprime, interval, k) for k in degrees]
    primitives = [p.antiderivative().as_floats() for p in approximants]

    cube = enumerate_cube(d, L)
    n_fns = 1 + len(primitives)
    traces = np.empty((replicates, n_fns), dtype=np.float64)
    for r in range(replicates):
        field = sample_disorder(dist, cube, master_seed, r)
        H = assemble_hamiltonian(cube, field)
        evals = eigenvalues_sym(H)
        traces[r, 0] = float(np.sum(f.f(evals)))
        for j, q in enumerate(primitives):
            traces[r, 1 + j] = float(np.sum(q(evals)))

    scale = math.sqrt(len(cube))
    centered = (traces - np.mean(traces, axis=0)) / scale
    sigma_f, se_f = _sigma_and_se(centered[:, 0])

    def residual_sq(pk):
        pf = pk.as_floats()
        return lambda x: np.square(
            np.asarray(f.fprime(x), dtype=np.float64) - pf(x)
        )

    norm_estimates = modified_dos_integral_mc(
        [residual_sq(pk) for pk in approximants],
        d,
        L,
        dist,
        1,
        norm_replicates,
        master_seed,
    )

    rows = []
    for j, k in enumerate(degrees):
        sigma_q, se_q = _sigma_and_se(centered[:, 1 + j])
        est = norm_estimates[j]
        bound = math.sqrt(8.0 * max(est.value, 0.0))
        bound_se = (
            8.0 * est.std_error / (2.0 * bound) if bound > 0 else 8.0 * est.std_error
        )
        lhs = abs(sigma_q - sigma_f)
        rhs = bound + 3.0 * math.sqrt(se_f**2 + se_q**2 + bound_se**2)
        rows.append(
            ApproxConvergenceRow(k, sigma_f, sigma_q, bound, bound_se, lhs, rhs, lhs <= rhs)
        )
    bounds = [row.bound for row in rows]
    decreasing = all(b2 < b1 for b1, b2 in zip(bounds, bounds[1:]))
    return ApproxConvergenceReport(tuple(rows), decreasing)


# ---------------------------------------------------------------------------
# exact enumeration over two-point disorder


@dataclass(frozen=True)
class FiltrationPlan:
    """Conditioning order for the variance decomposition.

    ``site_order`` conditions on sites one at a time in the given enumeration
    (default: the canonical lexicographic order); ``directional`` conditions
    on nested half-spaces per axis.
    """

    mode: str
    order: tuple | None = None
    axes: tuple | None = None
    levels: tuple = (0, 1)

    @staticmethod
    def site_order(cube: LatticeCube, order=None) -> "FiltrationPlan":
        n = len(cube)
        order = tuple(order) if order is not None else tuple(range(n))
        if sorted(order) != list(range(n)):
            raise ValueError("order must enumerate every cube site exactly once")
        return FiltrationPlan("site_order", order=order)

    @staticmethod
    def directional(cube: LatticeCube, levels=(0, 1)) -> "FiltrationPlan":
        if not levels[0] < levels[1]:
            raise ValueError("half-space levels must be nested")
        return FiltrationPlan("directional", axes=tuple(range(cube.d)), levels=tuple(levels))


class EnumerationEngine:
    """Exact expectations over all configurations of two-point disorder.

    Configuration c (0 <= c < 2^N) gives site i the value ``b`` when bit
    N-1-i of c is set and ``a`` otherwise.  ``choices`` is that (2^N, N)
    site-choice array, built once; every trace table is a column over it,
    reshaped to (2,)*N with one axis per site in cube order.  Tables are
    exact rationals (object dtype) for exact polynomial test functions
    (finite-volume walk expansion) and floats (batched eigensolves)
    otherwise.  The dtype alone says which, and every expectation of a table
    uses exact probabilities exactly when the table is exact.
    """

    def __init__(self, cube: LatticeCube, dist: TwoPoint, max_sites: int = 20):
        if not isinstance(dist, TwoPoint):
            raise TypeError("exact enumeration requires a two-point distribution")
        if len(cube) > max_sites:
            raise ValueError(
                f"cube has {len(cube)} sites; enumeration is capped at {max_sites}"
            )
        self.cube = cube
        self.dist = dist
        self.n_sites = n = len(cube)
        self.shape = (2,) * n
        self.prob_pair = (dist.prob_a, 1 - dist.prob_a)
        self.value_pair = (dist.a, dist.b)
        configs = np.arange(2**n, dtype=np.uint32)[:, None]
        self.choices = ((configs >> np.arange(n - 1, -1, -1, dtype=np.uint32)) & 1).astype(np.uint8)
        self._tables: dict = {}

    # -- trace tables ------------------------------------------------------

    def trace_table(self, f) -> np.ndarray:
        """Tr f(H) per configuration, shape (2,)*N; object dtype when exact."""
        exact = isinstance(f, Polynomial) and f.is_exact
        key = (f, exact)  # Polynomial((0, 1)) == Polynomial((0.0, 1.0))
        if key not in self._tables:
            self._tables[key] = self._exact_table(f) if exact else self._float_table(f)
        return self._tables[key]

    def _exact_table(self, poly: Polynomial) -> np.ndarray:
        merged: dict = {}
        for power in range(1, poly.degree + 1):
            coeff = poly.coefficients[power]
            if coeff == 0:
                continue
            for key, c in trace_polynomial_terms(
                self.cube.d, self.cube.L, power
            ).items():
                merged[key] = merged.get(key, 0) + coeff * c
        # each monomial is a product of site columns over all configurations;
        # integral values stay ints, whose arithmetic is far faster than Fraction's
        pair = np.array(
            [int(v) if v.denominator == 1 else v for v in self.value_pair], dtype=object
        )
        table = np.zeros(len(self.choices), dtype=object)
        for key, coeff in merged.items():
            term = coeff
            for site, exp in key:
                term = term * (pair**exp)[self.choices[:, self.cube.index(site)]]
            table += term
        const = Fraction(poly.coefficients[0] * self.n_sites)
        return (table + const).reshape(self.shape)

    def _float_table(self, f) -> np.ndarray:
        fn = function_of(f)
        n = self.n_sites
        base = Hamiltonian(self.cube, np.zeros(n)).matrix  # the bare Laplacian
        diags = np.array(self.value_pair, dtype=np.float64)[self.choices]
        flat = np.empty(len(diags))
        rows = np.arange(n)
        chunk = 4096
        for start in range(0, len(diags), chunk):
            block = diags[start : start + chunk]
            mats = np.broadcast_to(base, (len(block), n, n)).copy()
            mats[:, rows, rows] = block
            evals = eigenvalues_sym(mats)
            flat[start : start + chunk] = np.sum(
                np.asarray(fn(evals), dtype=np.float64), axis=1
            )
        return flat.reshape(self.shape)

    # -- exact conditional expectations -------------------------------------

    def conditional_expectation(self, table, keep_axes):
        """Average out every axis not in ``keep_axes`` (singleton dims kept)."""
        p0, p1 = self.prob_pair
        if table.dtype != object:
            p0, p1 = float(p0), float(p1)
        out = table
        for ax in range(self.n_sites):
            if ax in keep_axes or out.shape[ax] == 1:
                continue
            lo, hi = np.split(out, 2, axis=ax)
            out = p0 * lo + p1 * hi
        return out

    def expectation(self, table):
        """Full expectation (handles broadcast singleton axes)."""
        return self.conditional_expectation(table, frozenset()).reshape(-1)[0]

    def half_space_axes(self, axis: int, level: int) -> frozenset:
        """Indices of sites whose ``axis`` coordinate is <= ``level``."""
        mask = self.cube.sites[:, axis] <= level
        return frozenset(np.nonzero(mask)[0].tolist())


def _centered_moments(engine: EnumerationEngine, table):
    """(mean, centered table, variance) of a trace table."""
    mean = engine.expectation(table)
    centered = table - mean
    return mean, centered, engine.expectation(centered * centered)


@dataclass(frozen=True)
class ExactVariance:
    variance: object  # Fraction for exact paths, float otherwise
    mean: object
    second_moment_normalized: object  # Var(trace) / #sites = E|X|^2
    exact: bool


def exact_variance(engine: EnumerationEngine, f) -> ExactVariance:
    """Exact Var(Tr f(H)) over all configurations, and its volume-normalized value.

    Enumeration centers by the true mean, so the normalized value is exactly
    the second moment of the centered statistic.
    """
    table = engine.trace_table(f)
    mean, _, variance = _centered_moments(engine, table)
    return ExactVariance(variance, mean, variance / engine.n_sites, table.dtype == object)


@dataclass(frozen=True)
class MartingaleReport:
    n_terms: int
    variance: object
    sum_sq_differences: object
    per_term_second_moments: tuple
    max_cross_term: float
    max_pointwise_residual: float
    identity_residual: float
    exact: bool


def martingale_decomposition(
    engine: EnumerationEngine, f, plan: FiltrationPlan | None = None
) -> MartingaleReport:
    """Decompose Tr f(H) - E into conditional-expectation differences.

    Conditioning adds one site at a time in the plan's order.  By the tower
    property each level comes from the next finer one by averaging out a
    single site.  Verifies, exactly over the enumeration, that the
    differences sum to the centered trace pointwise, that distinct
    differences are uncorrelated, and that their second moments sum to the
    variance.
    """
    if plan is None:
        plan = FiltrationPlan.site_order(engine.cube)
    if plan.mode != "site_order":
        raise ValueError("martingale decomposition needs a site_order plan")
    table = engine.trace_table(f)
    _, centered, variance = _centered_moments(engine, table)
    order = plan.order

    # levels[k] = E[trace | sites order[:k]]
    levels = [table]
    for k in range(engine.n_sites, 0, -1):
        levels.append(engine.conditional_expectation(levels[-1], frozenset(order[: k - 1])))
    levels.reverse()
    diffs = [levels[k] - levels[k - 1] for k in range(1, engine.n_sites + 1)]

    second_moments = tuple(engine.expectation(dk * dk) for dk in diffs)
    total = sum(second_moments)
    resid = sum(diffs, -centered)
    max_resid = float(np.max(np.abs(resid.astype(np.float64))))

    max_cross = 0.0
    for i in range(len(diffs)):
        for j in range(i + 1, len(diffs)):
            cross = engine.expectation(diffs[i] * diffs[j])
            max_cross = max(max_cross, abs(float(cross)))

    return MartingaleReport(
        n_terms=len(diffs),
        variance=variance,
        sum_sq_differences=total,
        per_term_second_moments=second_moments,
        max_cross_term=max_cross,
        max_pointwise_residual=max_resid,
        identity_residual=abs(float(variance - total)),
        exact=table.dtype == object,
    )


@dataclass(frozen=True)
class DirectionalReport:
    depth_second_moments: tuple
    variance: object
    factor: object
    lower_bound: object
    margin: object
    ok: bool
    exact: bool


def directional_decomposition(
    engine: EnumerationEngine, poly: Polynomial, plan: FiltrationPlan | None = None
) -> DirectionalReport:
    """Half-space conditional-expectation recursion and the variance lower bound.

    Per axis, the running table is replaced by the difference of its
    conditional expectations on the two nested half-spaces (coordinate <=
    level), intersected with the cube (the trace depends on box variables
    only).  The final second moment, scaled by (2L - 2 deg + 1)^d, must not
    exceed the variance.
    """
    if plan is None:
        plan = FiltrationPlan.directional(engine.cube)
    if plan.mode != "directional":
        raise ValueError("directional decomposition needs a directional plan")
    p = poly.degree
    if p < 1:
        raise ValueError("the lower bound is stated for polynomial degree >= 1")
    L = engine.cube.L
    span = 2 * L - 2 * p + 1
    if span < 1:
        raise ValueError(
            f"half-side L={L} is too small for degree {p} (2L-2p+1 = {span} < 1)"
        )

    table = engine.trace_table(poly)
    exact = table.dtype == object
    _, _, variance = _centered_moments(engine, table)

    lo, hi = plan.levels
    running = table
    depth_moments = []
    for axis in plan.axes:
        upper = engine.conditional_expectation(running, engine.half_space_axes(axis, hi))
        lower = engine.conditional_expectation(running, engine.half_space_axes(axis, lo))
        running = upper - lower
        depth_moments.append(engine.expectation(running * running))

    factor = span ** engine.cube.d
    bound = factor * depth_moments[-1]
    margin = variance - bound
    ok = bool(margin >= (-1e-10 if not exact else 0))
    return DirectionalReport(
        tuple(depth_moments), variance, factor, bound, margin, ok, exact
    )


# ---------------------------------------------------------------------------
# positivity


@dataclass(frozen=True)
class PositivityVerdict:
    status: str  # "positive" | "zero-variance" | "inconclusive"
    sigma2_hat: float
    std_error: float
    threshold: float


def positivity_check(
    samples: SampleSet, monotone: bool, interval: tuple[float, float]
) -> PositivityVerdict:
    """Statistical positivity of the limiting variance for monotone functions.

    Requires the declared interval to contain the deterministic spectral hull
    (enforced for bounded-support disorder).  The variance is called positive
    when its estimate exceeds five standard errors.
    """
    hull = spectrum_support(samples.dist, samples.d)
    if hull is not None and not (interval[0] <= hull[0] and hull[1] <= interval[1]):
        raise ValueError(
            f"declared interval {interval} does not contain the spectral hull {hull}"
        )
    report = variance_estimate(samples)
    if not monotone:
        if report.sigma2_hat == 0.0:
            return PositivityVerdict(
                "zero-variance", report.sigma2_hat, report.std_error, 0.0
            )
        return PositivityVerdict(
            "inconclusive", report.sigma2_hat, report.std_error, 0.0
        )
    threshold = 5.0 * report.std_error
    if report.sigma2_hat == 0.0:
        return PositivityVerdict(
            "zero-variance", report.sigma2_hat, report.std_error, threshold
        )
    status = "positive" if report.sigma2_hat > threshold else "inconclusive"
    return PositivityVerdict(status, report.sigma2_hat, report.std_error, threshold)
