import math
from fractions import Fraction

import numpy as np
import pytest

from andersonclt import (
    Polynomial,
    assemble_hamiltonian,
    derivative_sq_norm_mc,
    eigenvalues_sym,
    empirical_ids,
    enumerate_cube,
    ids_moment_convergence,
    modified_dos_integral_mc,
    modified_dos_moment_exact,
    modified_dos_moment_mc,
    modified_dos_poly_integral_exact,
    modified_moment,
    moment_polynomial,
    rademacher,
    sample_disorder,
    spectrum_support,
)
from andersonclt.lattice import DisorderField, interior_cube


def test_empirical_ids_three_site_chain():
    cube = enumerate_cube(1, 1)
    H = assemble_hamiltonian(cube, DisorderField(cube, np.zeros(3), None))
    dist = empirical_ids(eigenvalues_sym(H))
    s = math.sqrt(2)
    eps = 1e-9  # query just above each jump: the solver's roots sit within 1 ulp
    for x, expected in [(-2, 0.0), (-s + eps, 1 / 3), (-0.1, 1 / 3), (eps, 2 / 3), (s + eps, 1.0)]:
        assert dist.cdf(x) == pytest.approx(expected)
    assert dist.cdf(math.inf) == 1.0
    assert dist.cdf(-math.inf) == 0.0


def test_empirical_ids_inside_spectral_hull():
    dist = rademacher()
    cube = enumerate_cube(1, 30)
    H = assemble_hamiltonian(cube, sample_disorder(dist, cube, 2, 0))
    evals = eigenvalues_sym(H)
    lo, hi = spectrum_support(dist, 1)
    assert lo <= evals.min() and evals.max() <= hi


def test_ids_moment_k0_exact():
    rep = ids_moment_convergence(1, rademacher(), 0, [4, 8, 16], 7)
    assert rep.values == (1.0, 1.0, 1.0)
    assert rep.oracle == 1.0


def test_ids_moment_k1_lln():
    rep = ids_moment_convergence(1, rademacher(), 1, [200], 11)
    n = 401
    assert abs(rep.values[0]) <= 5.0 / math.sqrt(n)


def test_ids_moment_k2_boundary_defect():
    # for Rademacher disorder the k=2 diagonal element is deterministic, so
    # the trajectory IS the finite-volume mean: E int x^2 = E(w^2) + 4L/(2L+1)
    dist = rademacher()
    rep = ids_moment_convergence(1, dist, 2, [16, 32, 64, 128], 3)
    for L, value in zip(rep.levels, rep.values):
        expected = 1.0 + 4.0 * L / (2 * L + 1)
        assert value == pytest.approx(expected, abs=1e-10)
    assert rep.se_bounds == (0.0, 0.0, 0.0, 0.0)
    for L, bias in zip(rep.levels, rep.bias_bounds):
        assert bias == pytest.approx(2.0 / (2 * L + 1), abs=1e-12)
    assert rep.errors[-1] <= rep.bands()[-1]
    assert rep.errors[-1] < rep.errors[0]


def test_ids_moment_k4_band_and_decrease():
    rep = ids_moment_convergence(1, rademacher(), 4, [8, 16, 32, 64], 3)
    assert rep.errors[-1] <= rep.bands()[-1]
    assert rep.errors[-1] < rep.errors[0]


def test_nested_moments_share_one_realization():
    rep1 = ids_moment_convergence(1, rademacher(), 2, [8, 16], 5)
    rep2 = ids_moment_convergence(1, rademacher(), 2, [16], 5)
    assert rep1.values[1] == rep2.values[0]


def test_modified_dos_exact_small_cases():
    r = rademacher()
    assert modified_dos_moment_exact(1, 1, r, 1, 0) == 1
    # interior contribution equals the infinite-volume moment; all sites of
    # the L=1 chain are boundary so the k=2 value differs from 7/3
    val = modified_dos_moment_exact(1, 2, r, 1, 2)
    assert isinstance(val, Fraction)
    assert val != Fraction(7, 3)


def test_modified_dos_exact_converges_at_rate():
    r = rademacher()
    target = modified_moment(moment_polynomial(1, 2), r, 1)  # 7/3
    errs = {L: abs(modified_dos_moment_exact(1, L, r, 1, 2) - target) for L in (8, 16, 32)}
    assert errs[8] > errs[16] > errs[32]
    for L in (8, 16):
        ratio = errs[L] / errs[2 * L]
        assert Fraction(16, 10) <= ratio <= Fraction(26, 10)


def test_modified_dos_interior_equality():
    # on interior sites the finite-volume modified moment equals the
    # infinite-volume one; summing the boundary window gives the exact error
    r = rademacher()
    d, L, k = 1, 4, 2
    cube = enumerate_cube(d, L)
    inner = interior_cube(cube, k)
    infinite = modified_moment(moment_polynomial(d, k), r, 1)
    for i in inner:
        site = tuple(int(c) for c in cube.sites[i])
        finite = modified_moment(moment_polynomial(d, k, site, volume=L), r, 1)
        assert finite == infinite


def test_modified_dos_mc_total_mass():
    r = rademacher()
    est = modified_dos_moment_mc(1, 6, r, 1, 0, replicates=40, master_seed=5)
    assert est.value == pytest.approx(1.0, abs=1e-12)  # w^2 = 1 exactly
    assert est.std_error >= 0


def test_modified_dos_mc_matches_exact_within_3se():
    r = rademacher()
    exact = float(modified_dos_moment_exact(1, 10, r, 1, 2))
    est = modified_dos_moment_mc(1, 10, r, 1, 2, replicates=120, master_seed=42)
    assert abs(est.value - exact) <= 3.0 * est.std_error


def test_modified_dos_mc_u_one_is_plain_moment():
    # with the scaling pinned to 1 and p=0 the estimator is the plain averaged
    # diagonal moment, which for k=2 is deterministic under Rademacher
    r = rademacher()
    d, L, k = 1, 5, 2
    est = modified_dos_moment_mc(d, L, r, 0, k, replicates=12, master_seed=9, u_override=1.0)
    cube = enumerate_cube(d, L)
    field = sample_disorder(r, cube, 9, 0)
    H = assemble_hamiltonian(cube, field)
    expected = float(np.mean(eigenvalues_sym(H) ** 2))
    assert est.value == pytest.approx(expected, abs=1e-10)
    assert est.std_error == pytest.approx(0.0, abs=1e-12)


def test_derivative_sq_norm_constant_one():
    r = rademacher()
    est = derivative_sq_norm_mc(lambda x: np.ones_like(x), 1, 6, r, replicates=30, master_seed=3)
    assert est.value == pytest.approx(1.0, abs=1e-12)


def test_derivative_sq_norm_identity_vs_exact_k2():
    r = rademacher()
    est = derivative_sq_norm_mc(lambda x: x, 1, 8, r, replicates=150, master_seed=13)
    exact = float(modified_dos_moment_exact(1, 8, r, 1, 2))
    assert abs(est.value - exact) <= 3.0 * est.std_error


def test_derivative_sq_norm_bounded_integrand_dominated():
    r = rademacher()
    arctan_prime = lambda x: 1.0 / (1.0 + np.square(x))
    est = derivative_sq_norm_mc(arctan_prime, 1, 6, r, replicates=30, master_seed=8)
    assert est.value <= 1.0 * (1.0 + 3.0 * est.std_error)  # |f'| <= 1, mass 1


def test_multi_integrand_shares_eigensolves():
    r = rademacher()
    ests = modified_dos_integral_mc(
        [lambda x: x**2, lambda x: np.ones_like(x)], 1, 4, r, 1, 20, 21
    )
    single = modified_dos_integral_mc(lambda x: x**2, 1, 4, r, 1, 20, 21)
    assert ests[0].value == single.value
    assert ests[1].value == pytest.approx(1.0, abs=1e-12)


def test_poly_integral_exact_matches_moment_combination():
    r = rademacher()
    poly = Polynomial((2, 0, 3))  # 2 + 3 x^2
    val = modified_dos_poly_integral_exact(poly, 1, 4, r, 1)
    expected = 2 * modified_dos_moment_exact(1, 4, r, 1, 0) + 3 * modified_dos_moment_exact(
        1, 4, r, 1, 2
    )
    assert val == expected


def test_exact_moments_require_exact_distribution():
    from andersonclt import Gaussian

    with pytest.raises(ValueError, match="rational"):
        modified_dos_moment_exact(1, 2, Gaussian(0, 1), 1, 2)
