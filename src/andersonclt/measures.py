"""Empirical spectral distributions and estimators for the weighted measures.

The weighted measure of order p at volume L averages, over all cube sites n,
the spectral measure of the operator whose coupling at n is scaled by a
uniform[0,1] factor, weighted by (site value)^(2p).  Monte Carlo estimators
draw the scaling factor fresh per (replicate, site) and do one eigensolve per
modified matrix; the exact twin sums finite-volume walk polynomials with the
scaling factor integrated out analytically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import eigh_tridiagonal

from . import rng
from .dists import SiteDistribution
from .lattice import (
    assemble_hamiltonian,
    enumerate_cube,
    interior_cube,
    nested_disorder,
    sample_disorder,
)
from .spectral import EigenDecomposition, eigenvalues_sym
from .walks import dos_moment, dos_moment_variance, modified_moment, moment_polynomial

__all__ = [
    "EmpiricalDistribution",
    "MeasureEstimate",
    "empirical_ids",
    "ids_moment_convergence",
    "IdsConvergenceReport",
    "modified_dos_integral_mc",
    "modified_dos_moment_mc",
    "derivative_sq_norm_mc",
    "modified_dos_moment_exact",
    "modified_dos_poly_integral_exact",
]


@dataclass(frozen=True)
class EmpiricalDistribution:
    """Equal-weight distribution on a sorted point set, with CDF queries."""

    points: np.ndarray

    def cdf(self, x):
        """Fraction of points <= x (right-continuous step function)."""
        idx = np.searchsorted(self.points, x, side="right")
        return idx / len(self.points)

    def moment(self, k: int) -> float:
        return float(np.mean(self.points**k))


@dataclass(frozen=True)
class MeasureEstimate:
    value: float
    std_error: float
    n_samples: int
    estimator: str
    params: dict


def empirical_ids(dec) -> EmpiricalDistribution:
    """Eigenvalue counting distribution with weights 1/m."""
    evals = dec.eigenvalues if isinstance(dec, EigenDecomposition) else np.asarray(dec)
    pts = np.sort(np.asarray(evals, dtype=np.float64))
    pts.setflags(write=False)
    return EmpiricalDistribution(pts)


@dataclass(frozen=True)
class IdsConvergenceReport:
    k: int
    oracle: float
    levels: tuple
    values: tuple
    errors: tuple
    se_bounds: tuple
    bias_bounds: tuple  # exact finite-volume expectation defects

    def bands(self) -> tuple:
        """Pre-registered acceptance bands: exact bias plus 5 standard errors."""
        return tuple(b + 5.0 * s for b, s in zip(self.bias_bounds, self.se_bounds))


def finite_volume_mean_moment(d: int, L: int, dist: SiteDistribution, k: int):
    """Exact E of the volume-averaged k-th diagonal moment at half-side L.

    Interior sites contribute the infinite-volume moment exactly; only the
    boundary window needs finite-volume walk polynomials.
    """
    cube = enumerate_cube(d, L)
    inner = interior_cube(cube, k)
    m_inf = dos_moment(moment_polynomial(d, k), dist)
    total = m_inf * len(inner)
    for i, site in enumerate(cube.sites):
        if i in inner:
            continue
        wp = moment_polynomial(d, k, tuple(int(c) for c in site), volume=L)
        total += dos_moment(wp, dist)
    return total / len(cube)


def ids_moment_convergence(
    d: int, dist: SiteDistribution, k: int, L_grid, master_seed: int
) -> IdsConvergenceReport:
    """k-th eigenvalue moment along one nested realization, against the oracle.

    The disorder values are keyed by site coordinates, so every L on the grid
    sees the restriction of the same infinite realization.  The acceptance
    band per L is pre-registered from exact quantities: the finite-volume
    expectation defect (exact, via boundary-window walk polynomials) plus
    five standard errors, where the fluctuation scale combines the exact
    variance of one diagonal element (squared walk polynomial) with the
    blocking factor (4k+1)^d covering its dependence range (diagonal elements
    farther than 2k apart are independent).
    """
    wp = moment_polynomial(d, k)
    oracle = float(dos_moment(wp, dist))
    site_var = float(dos_moment_variance(wp, dist))
    values, errors, ses, biases = [], [], [], []
    for L in L_grid:
        cube = enumerate_cube(d, L)
        field = nested_disorder(dist, cube, master_seed)
        H = assemble_hamiltonian(cube, field)
        evals = eigenvalues_sym(H)
        value = float(np.mean(evals**k))
        values.append(value)
        errors.append(abs(value - oracle))
        ses.append(float(np.sqrt(site_var * (4 * k + 1) ** d / len(cube))))
        biases.append(abs(float(finite_volume_mean_moment(d, L, dist, k)) - oracle))
    return IdsConvergenceReport(
        k,
        oracle,
        tuple(L_grid),
        tuple(values),
        tuple(errors),
        tuple(ses),
        tuple(biases),
    )


def _modified_eigh(H, site, value):
    """Eigendecomposition of H with one diagonal entry replaced."""
    if H.is_chain:
        new_diag = H.diagonal.copy()
        new_diag[site] = value
        return eigh_tridiagonal(new_diag, np.ones(len(new_diag) - 1))
    work = H.matrix.copy()
    work[site, site] = value
    return np.linalg.eigh(work)


def modified_dos_integral_mc(
    integrands,
    d: int,
    L: int,
    dist: SiteDistribution,
    p: int,
    replicates: int,
    master_seed: int,
    u_override: float | None = None,
):
    """Monte Carlo integrals against the weighted measure of order p at volume L.

    For each replicate, a fresh disorder field is drawn and, for every site n,
    the coupling at n is scaled by an independent uniform[0,1] factor (one
    eigensolve per (replicate, site)); each integrand g contributes
    (value at n)^(2p) * <delta_n, g(modified H) delta_n>, averaged over sites.
    Estimates and standard errors come from the replicate scatter.

    ``integrands`` may be a single callable or a list; a list shares the
    eigensolves.  ``u_override`` pins the scaling factor (test hook for the
    u = 1 control-variate identity).
    """
    single = callable(integrands)
    fns = [integrands] if single else list(integrands)
    cube = enumerate_cube(d, L)
    n_sites = len(cube)
    results = np.empty((replicates, len(fns)), dtype=np.float64)
    for r in range(replicates):
        field = sample_disorder(dist, cube, master_seed, r)
        H = assemble_hamiltonian(cube, field)
        diag = field.values
        if u_override is None:
            u = rng.uniform_stream(master_seed, f"umod|{dist.label}", r, n_sites)
        else:
            u = np.full(n_sites, float(u_override))
        acc = np.zeros(len(fns))
        for site in range(n_sites):
            w, v = _modified_eigh(H, site, u[site] * diag[site])
            overlaps = np.square(v[site, :])
            weight = diag[site] ** (2 * p)
            for j, fn in enumerate(fns):
                acc[j] += weight * float(overlaps @ fn(w))
        results[r, :] = acc / n_sites

    estimates = []
    for j, fn in enumerate(fns):
        col = results[:, j]
        value = float(np.mean(col))
        se = float(np.std(col, ddof=1) / np.sqrt(replicates)) if replicates > 1 else 0.0
        estimates.append(
            MeasureEstimate(
                value,
                se,
                replicates,
                "modified_dos_integral_mc",
                {"d": d, "L": L, "p": p, "seed": master_seed, "integrand": j},
            )
        )
    return estimates[0] if single else estimates


def modified_dos_moment_mc(
    d: int,
    L: int,
    dist: SiteDistribution,
    p: int,
    k: int,
    replicates: int,
    master_seed: int,
    u_override: float | None = None,
) -> MeasureEstimate:
    """Monte Carlo estimate of the k-th moment of the weighted measure."""
    est = modified_dos_integral_mc(
        lambda x: x**k, d, L, dist, p, replicates, master_seed, u_override
    )
    est.params.update({"k": k})
    return est


def derivative_sq_norm_mc(
    fprime,
    d: int,
    L: int,
    dist: SiteDistribution,
    replicates: int,
    master_seed: int,
) -> MeasureEstimate:
    """Estimate of the squared L2 norm of f' against the order-1 weighted measure."""
    est = modified_dos_integral_mc(
        lambda x: np.square(np.asarray(fprime(x), dtype=np.float64)),
        d,
        L,
        dist,
        1,
        replicates,
        master_seed,
    )
    est.params.update({"integrand": "fprime_sq"})
    return est


def modified_dos_moment_exact(
    d: int, L: int, dist: SiteDistribution, p: int, k: int
) -> Fraction:
    """Exact k-th moment of the weighted measure at volume L.

    Sums, over every cube site n, the finite-volume walk polynomial based at n
    with the coupling-scaling rule applied at n, divided by the site count.
    Requires a distribution with exact rational moments.
    """
    if not dist.is_exact:
        raise ValueError("exact moments require a rational-moment distribution")
    cube = enumerate_cube(d, L)
    total = Fraction(0)
    for site in cube.sites:
        wp = moment_polynomial(d, k, tuple(int(c) for c in site), volume=L)
        total += modified_moment(wp, dist, p)
    return total / len(cube)


def modified_dos_poly_integral_exact(
    poly, d: int, L: int, dist: SiteDistribution, p: int
) -> Fraction:
    """Exact integral of a polynomial against the weighted measure at volume L."""
    total = Fraction(0)
    for k, coeff in enumerate(poly.coefficients):
        if coeff == 0:
            continue
        if not isinstance(coeff, (int, Fraction)):
            raise ValueError("exact integrals require exact polynomial coefficients")
        total += coeff * modified_dos_moment_exact(d, L, dist, p, k)
    return total
