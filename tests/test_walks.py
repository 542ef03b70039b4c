import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from andersonclt import (
    Gaussian,
    Polynomial,
    TwoPoint,
    Uniform,
    assemble_hamiltonian,
    carleman_radius,
    dos_moment,
    eig_sym,
    enumerate_cube,
    growth_check,
    interior_cube,
    modified_moment,
    moment_bound_check,
    moment_polynomial,
    rademacher,
    sample_disorder,
    spectral_diagonal,
)
from andersonclt.lattice import DisorderField
from andersonclt.walks import cube_polynomials, dos_moment_variance, trace_polynomial_terms


def key_of(*pairs):
    return tuple(sorted(pairs))


def test_trivial_powers():
    wp0 = moment_polynomial(1, 0)
    assert dict(wp0.terms) == {(): 1}
    wp1 = moment_polynomial(1, 1)
    assert dict(wp1.terms) == {key_of(((0,), 1)): 1}


def test_second_power_chain():
    wp = moment_polynomial(1, 2)
    assert dict(wp.terms) == {(): 2, key_of(((0,), 2)): 1}


def test_third_power_chain_hand_expansion():
    wp = moment_polynomial(1, 3)
    assert dict(wp.terms) == {
        key_of(((0,), 3)): 1,
        key_of(((0,), 1)): 4,
        key_of(((-1,), 1)): 1,
        key_of(((1,), 1)): 1,
    }


def test_expansion_against_numeric_matrix_power():
    # independent numeric oracle: the diagonal of H^k on a box large enough
    # that truncation cannot reach the base site
    dist = Uniform(-1, 1)
    for d, k in ((1, 5), (2, 4)):
        cube = enumerate_cube(d, k + 1)
        field = sample_disorder(dist, cube, 17, 0)
        H = assemble_hamiltonian(cube, field).matrix
        power = np.linalg.matrix_power(H, k)
        wp = moment_polynomial(d, k)
        origin = cube.index((0,) * d)
        assert float(wp.evaluate(field)) == pytest.approx(power[origin, origin], rel=1e-12)


def test_walk_constraints():
    for d, k in ((1, 6), (2, 4)):
        wp = moment_polynomial(d, k)
        for key in wp.terms:
            total = 0
            for site, exp in key:
                assert sum(abs(c) for c in site) <= k  # within walk range
                assert exp >= 1
                total += exp
            assert total <= k
        assert all(c > 0 for c in wp.terms.values())


def test_budget_guard():
    with pytest.raises(ValueError, match="budget"):
        moment_polynomial(3, 9)
    with pytest.raises(ValueError, match="budget"):
        moment_polynomial(1, 4, state_budget=10)


@given(st.integers(1, 2), st.integers(0, 4), st.integers(-2, 2), st.integers(-2, 2))
@settings(max_examples=30, deadline=None)
def test_translation_invariance(d, k, a, b):
    shift = (a,) if d == 1 else (a, b)
    origin = moment_polynomial(d, k)
    at_site = moment_polynomial(d, k, shift)
    assert dict(origin.translated(shift).terms) == dict(at_site.terms)


def test_finite_volume_domination_and_interior_equality():
    d, k, L = 1, 4, 3
    infinite = moment_polynomial(d, k)
    cube = enumerate_cube(d, L)
    interior = interior_cube(cube, k)
    for i, site in enumerate(cube.sites):
        site = tuple(int(c) for c in site)
        finite = moment_polynomial(d, k, site, volume=L)
        shifted = dict(infinite.translated(site).terms)
        for key, coeff in finite.terms.items():
            assert 0 <= coeff <= shifted.get(key, 0)
        if i in interior:
            assert dict(finite.terms) == shifted


def test_unit_potential_evaluation_bound():
    # at unit potential the expansion sums to <delta_0, (Lap + I)^k delta_0>
    for d, k in ((1, 6), (2, 4)):
        wp = moment_polynomial(d, k)
        value = sum(wp.terms.values())
        assert value <= (2 * d + 1) ** k
        cube = enumerate_cube(d, k + 1)
        H = assemble_hamiltonian(
            cube, DisorderField(cube, np.ones(len(cube)), None)
        ).matrix
        numeric = np.linalg.matrix_power(H, k)[cube.index((0,) * d)][
            cube.index((0,) * d)
        ]
        assert value == pytest.approx(numeric, rel=1e-12)


def test_walks_match_spectral_diagonal_at_interior():
    # cross-module oracle: exact expansion vs eigendecomposition diagonal
    dist = rademacher()
    for d, k in ((1, 6), (2, 4)):
        L = k + 2
        cube = enumerate_cube(d, L)
        field = sample_disorder(dist, cube, 5, 1)
        dec = eig_sym(assemble_hamiltonian(cube, field))
        wp = moment_polynomial(d, k)
        xk = Polynomial((0,) * k + (1,))
        for i in sorted(interior_cube(cube, k))[:5]:
            site = tuple(int(c) for c in cube.sites[i])
            exact = float(wp.translated(site).evaluate(field))
            numeric = spectral_diagonal(dec, xk, i)
            assert numeric == pytest.approx(exact, rel=1e-8)


def test_dos_moments_rademacher():
    r = rademacher()
    assert dos_moment(moment_polynomial(1, 1), r) == 0
    assert dos_moment(moment_polynomial(1, 2), r) == 3
    assert isinstance(dos_moment(moment_polynomial(1, 2), r), Fraction)


def test_dos_moment_vanishing_disorder_counts_walks():
    # as the two-point support shrinks, the k-th moment approaches the number
    # of length-k returning walks; for k=4 on the chain that count is C(4,2)=6
    wp = moment_polynomial(1, 4)
    assert wp.terms[()] == math.comb(4, 2)
    eps = Fraction(1, 1000)
    m4 = dos_moment(wp, TwoPoint(eps, -eps, Fraction(1, 2)))
    assert abs(m4 - 6) <= 20 * eps**2


def test_gaussian_moments_are_float():
    m2 = dos_moment(moment_polynomial(1, 2), Gaussian(0, 1))
    assert isinstance(m2, float)
    assert m2 == pytest.approx(3.0)


def test_modified_moment_examples():
    r = rademacher()
    assert modified_moment(moment_polynomial(1, 0), r, 1) == 1  # total mass E(w^2)
    assert modified_moment(moment_polynomial(1, 2), r, 1) == Fraction(7, 3)
    assert modified_moment(moment_polynomial(1, 1), r, 1) == 0  # odd moments vanish


def test_modified_moment_total_mass_general_p():
    u = Uniform(-1, 1)
    for p in (0, 1, 2):
        assert modified_moment(moment_polynomial(1, 0), u, p) == u.moment(2 * p)


def test_modified_moment_at_shifted_base():
    # translation invariance extends to the modified moments
    r = rademacher()
    m_origin = modified_moment(moment_polynomial(1, 3), r, 1)
    m_shift = modified_moment(moment_polynomial(1, 3, (2,)), r, 1)
    assert m_origin == m_shift


def test_moment_bound_check_examples():
    check = moment_bound_check(Fraction(7, 3), 2, 1, 1.0, 1.0, 1)
    assert check.ok and check.bound == 9 * 256  # (2d+1)^k (k+2p)^(k+2p) = 9 * 4^4
    edge = moment_bound_check(1.0, 0, 1, 1.0, 1.0, 0)  # 0^0 = 1 convention
    assert edge.ok and edge.bound == 1.0
    odd = moment_bound_check(0, 3, 1, 1.0, 1.0, 0)
    assert odd.ok and odd.ratio == 0.0


def test_moment_bounds_through_k8():
    r = rademacher()
    C, a = r.growth_constants()
    for k in range(9):
        mbar = modified_moment(moment_polynomial(1, k), r, 1)
        assert moment_bound_check(mbar, k, 1, C, a, 1).ok


def test_carleman_radius_values():
    assert carleman_radius(1, 1.0, 1.0).lower_bound == pytest.approx(
        1.0 / (3 * math.e), abs=1e-15
    )
    assert carleman_radius(2, 1.0, 1.0).lower_bound == pytest.approx(1.0 / (5 * math.e))
    with pytest.raises(ValueError):
        carleman_radius(1, 0.5, 1.0)


def test_carleman_empirical_rademacher():
    r = rademacher()
    moments = [dos_moment(moment_polynomial(1, k), r) for k in range(9)]
    report = carleman_radius(1, *r.growth_constants(), moments)
    assert report.verdict == "positive-radius"
    assert all(np.isfinite(report.empirical_roots))
    assert report.empirical_radius > 0


def test_growth_check():
    assert growth_check(rademacher(), 20).ok
    u = growth_check(Uniform(-1, 1), 20)
    assert u.ok
    # oracle: E|x|^k = 1/(k+1) for uniform(-1,1)
    assert Uniform(-1, 1).abs_moment(5) == Fraction(1, 6)
    g = growth_check(Gaussian(0, 1), 40)
    assert g.ok and g.first_violation is None


def test_dos_moment_variance_oracle():
    # Var<delta_0, H delta_0> = Var(w_0); Var<delta_0, H^2 delta_0> = Var(w^2)
    u = Uniform(-1, 1)
    assert dos_moment_variance(moment_polynomial(1, 1), u) == u.variance()
    w2_var = u.moment(4) - u.moment(2) ** 2
    assert dos_moment_variance(moment_polynomial(1, 2), u) == w2_var


def test_trace_polynomial_terms_match_per_site_sum():
    # (1, 1, 5) and (2, 1, 4) have L < k//2: every site is its own class
    for d, L, k in ((1, 2, 3), (1, 1, 5), (2, 1, 4)):
        total = trace_polynomial_terms(d, L, k)
        cube = enumerate_cube(d, L)
        field = sample_disorder(Uniform(-1, 1), cube, 3, 0)
        H = assemble_hamiltonian(cube, field).matrix
        numeric = float(np.trace(np.linalg.matrix_power(H, k)))
        value = 0.0
        for key, coeff in total.items():
            term = float(coeff)
            for site, exp in key:
                term *= field.value_at(site) ** exp
            value += term
        assert value == pytest.approx(numeric, rel=1e-12)


# cap on sites * (2d+1)^k for the per-site oracle below: it leaves out only
# d=3, L=5, k=6 (about 20 s of per-site expansions), whose classes are still
# checked to partition the cube
ORACLE_WALK_BUDGET = 2 * 10**7


@pytest.mark.parametrize("d", [1, 2, 3])
def test_cube_polynomials_match_per_site_expansion(d):
    for L, k in itertools.product((0, 1, 2, 5), (0, 1, 2, 3, 4, 6)):
        classes = cube_polynomials(d, L, k)
        cube = enumerate_cube(d, L)
        members = sorted(site for _, sites in classes for site in sites)
        assert members == [tuple(int(c) for c in s) for s in cube.sites]
        for wp, sites in classes:
            assert wp.base in sites and (wp.k, wp.volume) == (k, L)
        if len(cube) * (2 * d + 1) ** k > ORACLE_WALK_BUDGET:
            continue
        for wp, sites in classes:
            for site in sites:
                moved = wp.translated(tuple(c - b for c, b in zip(site, wp.base)))
                assert moved.base == site
                assert dict(moved.terms) == dict(
                    moment_polynomial(d, k, site, volume=L).terms
                )


def test_cube_polynomials_rejects_negative_half_side():
    with pytest.raises(ValueError):
        cube_polynomials(1, -1, 2)


def test_moment_table_csv_export(tmp_path):
    from andersonclt.walks import write_moment_table

    r = rademacher()
    rows = [
        {"d": 1, "k": k, "p": 1, "volume": "inf",
         "value": modified_moment(moment_polynomial(1, k), r, 1)}
        for k in range(3)
    ]
    path = tmp_path / "moments.csv"
    write_moment_table(rows, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "d,k,p,volume,value,value_float"
    assert lines[3].startswith("1,2,1,inf,7/3,")
