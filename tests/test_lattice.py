import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from andersonclt import (
    Gaussian,
    TwoPoint,
    Uniform,
    assemble_hamiltonian,
    enumerate_cube,
    interior_cube,
    nested_disorder,
    rademacher,
    sample_disorder,
    scale_sites,
    spectrum_support,
)
from andersonclt.lattice import DisorderField


def test_enumerate_cube_1d():
    cube = enumerate_cube(1, 1)
    assert cube.sites.ravel().tolist() == [-1, 0, 1]
    assert len(cube) == 3


def test_enumerate_cube_counts():
    assert len(enumerate_cube(2, 1)) == 9  # (2L+1)^d
    assert len(enumerate_cube(3, 2)) == 125


def test_enumerate_cube_budget():
    with pytest.raises(ValueError, match="budget"):
        enumerate_cube(3, 64, max_sites=100_000)


@given(st.integers(1, 3), st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_cube_bijection_and_order(d, L):
    cube = enumerate_cube(d, L)
    assert len(cube) == (2 * L + 1) ** d
    rows = [tuple(s) for s in cube.sites.tolist()]
    assert rows == sorted(rows)  # lexicographic
    for i, site in enumerate(rows):
        assert cube.index_of[site] == i


def test_adjacency_is_l1_distance_one():
    cube = enumerate_cube(2, 2)
    pairs = {tuple(p) for p in cube.neighbor_pairs().tolist()}
    for i in range(len(cube)):
        for j in range(i + 1, len(cube)):
            l1 = int(np.sum(np.abs(cube.sites[i] - cube.sites[j])))
            assert ((i, j) in pairs) == (l1 == 1)


def test_interior_cube_examples():
    cube = enumerate_cube(1, 3)
    inner = {tuple(cube.sites[i]) for i in interior_cube(cube, 1)}
    assert inner == {(-1,), (0,), (1,)}

    cube2 = enumerate_cube(2, 2)
    inner2 = {tuple(cube2.sites[i]) for i in interior_cube(cube2, 1)}
    assert inner2 == {(0, 0)}

    assert interior_cube(enumerate_cube(1, 1), 1) == set()


def test_sample_disorder_support_and_determinism():
    cube = enumerate_cube(1, 50)
    field = sample_disorder(rademacher(), cube, 7, 3)
    assert set(np.unique(field.values)) <= {-1.0, 1.0}
    again = sample_disorder(rademacher(), cube, 7, 3)
    assert np.array_equal(field.values, again.values)
    other = sample_disorder(rademacher(), cube, 7, 4)
    assert not np.array_equal(field.values, other.values)


def test_sample_disorder_uniform_mean():
    # standard-error oracle: sd of the mean of 1e5 uniforms is sqrt(1/12/1e5)
    cube = enumerate_cube(1, 50_000)
    field = sample_disorder(Uniform(0, 1), cube, 123, 0)
    se = math.sqrt(1.0 / 12.0 / len(cube))
    assert abs(np.mean(field.values) - 0.5) <= 5 * se


def test_scale_sites():
    cube = enumerate_cube(1, 2)
    field = sample_disorder(rademacher(), cube, 1, 0)
    same = scale_sites(field, [(0,)], 1.0)
    assert np.array_equal(same.values, field.values)

    zero = scale_sites(field, [tuple(s) for s in cube.sites], 0.0)
    assert np.all(zero.values == 0.0)

    half = scale_sites(field, [(1,)], 0.5)
    idx = cube.index_of[(1,)]
    expected = field.values.copy()
    expected[idx] *= 0.5
    assert np.array_equal(half.values, expected)

    with pytest.raises(ValueError, match="outside"):
        scale_sites(field, [(9,)], 0.5)


def test_assemble_chain_and_eigenvalues():
    cube = enumerate_cube(1, 1)
    zero = DisorderField(cube, np.zeros(3), None)
    H = assemble_hamiltonian(cube, zero)
    assert np.array_equal(H.matrix, [[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    # closed-form 3x3 chain spectrum: 2 cos(k pi / 4), k = 1, 2, 3
    expected = sorted(2 * math.cos(k * math.pi / 4) for k in (1, 2, 3))
    assert np.allclose(np.linalg.eigvalsh(H.matrix), expected, atol=1e-12)


def test_assemble_shift_identity():
    # constant potential shifts the spectrum, leaving H - cI independent of c
    cube = enumerate_cube(1, 3)
    base = assemble_hamiltonian(cube, DisorderField(cube, np.zeros(7), None))
    for c in (0.5, -2.0):
        shifted = assemble_hamiltonian(cube, DisorderField(cube, np.full(7, c), None))
        assert np.array_equal(shifted.matrix - c * np.eye(7), base.matrix)


def test_assemble_2d_interior_degree():
    cube = enumerate_cube(2, 1)
    field = sample_disorder(rademacher(), cube, 0, 0)
    H = assemble_hamiltonian(cube, field)
    center = cube.index_of[(0, 0)]
    row = H.matrix[center].copy()
    row[center] = 0.0  # ignore the diagonal, only count hops
    assert np.sum(row == 1.0) == 4
    assert cube.degree(center) == 4


def test_hamiltonian_invariants():
    cube = enumerate_cube(2, 2)
    field = sample_disorder(Uniform(-1, 1), cube, 5, 2)
    H = assemble_hamiltonian(cube, field)
    assert np.array_equal(H.matrix, H.matrix.T)
    assert np.array_equal(np.diag(H.matrix), field.values)
    off = H.matrix.copy()
    np.fill_diagonal(off, 0.0)
    for i in range(len(cube)):
        assert int(np.sum(off[i] == 1.0)) == cube.degree(i)


@pytest.mark.parametrize("d, L", [(1, 0), (1, 3), (2, 1), (2, 3), (3, 1), (3, 2)])
def test_neighbor_pairs_match_brute_force_order(d, L):
    cube = enumerate_cube(d, L)
    expected = [
        (i, j)
        for i in range(len(cube))
        for j in range(i + 1, len(cube))
        if int(np.sum(np.abs(cube.sites[i] - cube.sites[j]))) == 1
    ]
    assert cube.neighbor_pairs().tolist() == [list(p) for p in expected]
    assert cube.neighbor_pairs().shape == (len(expected), 2)


def test_dense_matrix_guarded_by_bytes_before_allocation():
    import tracemalloc

    from andersonclt import eigenvalues_sym

    cube = enumerate_cube(2, 499)  # within the site budget
    H = assemble_hamiltonian(cube, sample_disorder(rademacher(), cube, 0, 0))
    n = len(cube)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"{n * n * 8} bytes"):
            H.matrix
        with pytest.raises(ValueError, match=f"{n * n * 8} bytes"):
            eigenvalues_sym(H)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_field_cube_mismatch():
    small = enumerate_cube(1, 1)
    big = enumerate_cube(1, 2)
    field = sample_disorder(rademacher(), small, 0, 0)
    with pytest.raises(ValueError, match="cube"):
        assemble_hamiltonian(big, field)


def test_locality_of_polynomial_diagonal():
    # diagonal entries of H^p at interior sites ignore padding beyond the cube
    dist = Uniform(-1, 1)
    p = 3
    small = enumerate_cube(1, 6)
    field = sample_disorder(dist, small, 21, 0)
    H_small = assemble_hamiltonian(small, field).matrix

    big = enumerate_cube(1, 9)
    pad = sample_disorder(Uniform(-5, 5), big, 99, 1).values.copy()
    for i, site in enumerate(small.sites):
        pad[big.index_of[tuple(site)]] = field.values[i]
    H_big = assemble_hamiltonian(big, DisorderField(big, pad, None)).matrix

    P_small = np.linalg.matrix_power(H_small, p)
    P_big = np.linalg.matrix_power(H_big, p)
    for i in interior_cube(small, p):
        site = tuple(small.sites[i])
        assert P_small[i, i] == pytest.approx(P_big[big.index_of[site], big.index_of[site]], abs=1e-12)


def test_nested_disorder_restriction():
    dist = rademacher()
    small = enumerate_cube(1, 4)
    big = enumerate_cube(1, 8)
    f_small = nested_disorder(dist, small, 31)
    f_big = nested_disorder(dist, big, 31)
    for i, site in enumerate(small.sites):
        assert f_small.values[i] == f_big.values[big.index_of[tuple(site)]]


def test_spectrum_support():
    assert spectrum_support(Uniform(-1, 1), 1) == (-3.0, 3.0)
    assert spectrum_support(TwoPoint(0, 1, Fraction(1, 2)), 2) == (-4.0, 5.0)
    assert spectrum_support(Gaussian(0, 1), 1) is None


def test_distribution_validation():
    with pytest.raises(ValueError):
        TwoPoint(1, 1, Fraction(1, 2))
    with pytest.raises(ValueError):
        TwoPoint(1, -1, 0)
    with pytest.raises(ValueError):
        Uniform(1, 1)
    with pytest.raises(ValueError):
        Gaussian(0, 0)


def test_moments_exactness():
    r = rademacher()
    assert r.moment(0) == 1
    assert r.moment(1) == 0
    assert r.moment(2) == 1
    u = Uniform(-1, 1)
    assert u.moment(2) == Fraction(1, 3)
    assert u.moment(3) == 0
    assert u.abs_moment(3) == Fraction(1, 4)
    g = Gaussian(0, 1)
    assert g.moment(2) == pytest.approx(1.0)
    assert g.moment(4) == pytest.approx(3.0)
    assert g.moment(6) == pytest.approx(15.0)


def test_gaussian_growth_certificate_k40():
    # declared (C, a) = (1, 2 std + |mean| + 1) must dominate E|x|^k, k <= 40
    for g in (Gaussian(0, 1), Gaussian(0.5, 2.0), Gaussian(-3.0, 0.25)):
        C, a = g.growth_constants()
        for k in range(1, 41):
            assert g.abs_moment(k) <= C * a**k * float(k) ** k


def test_gaussian_abs_moment_oracle():
    # mean 0: E|Z|^k is (k-1)!! for even k and sqrt(2/pi) 2^m m! for k = 2m+1
    g = Gaussian(0, 1)
    assert g.abs_moment(2) == pytest.approx(1.0)
    assert g.abs_moment(4) == pytest.approx(3.0)
    assert g.abs_moment(1) == pytest.approx(math.sqrt(2 / math.pi))
    assert g.abs_moment(3) == pytest.approx(2 * math.sqrt(2 / math.pi))
