import math

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

from andersonclt import (
    Gaussian,
    Polynomial,
    Uniform,
    assemble_hamiltonian,
    catalog,
    chain_arctan_traces,
    eig_sym,
    eigenvalues_sym,
    enumerate_cube,
    hellmann_feynman_check,
    rademacher,
    sample_disorder,
    spectral_diagonal,
    trace_function,
)
from andersonclt.lattice import DisorderField
from andersonclt.spectral import PIVOT_FLOOR, EigensolveError

X = Polynomial((0, 1))
X2 = Polynomial((0, 0, 1))
X3 = Polynomial((0, 0, 0, 1))


def chain_hamiltonian(L, dist=None, seed=0, replicate=0):
    cube = enumerate_cube(1, L)
    if dist is None:
        field = DisorderField(cube, np.zeros(len(cube)), None)
    else:
        field = sample_disorder(dist, cube, seed, replicate)
    return assemble_hamiltonian(cube, field)


def test_eig_two_by_two():
    dec = eig_sym(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(dec.eigenvalues, [-1.0, 1.0])


def test_eig_chain_closed_form():
    dec = eig_sym(chain_hamiltonian(1))
    assert np.allclose(dec.eigenvalues, [-math.sqrt(2), 0.0, math.sqrt(2)], atol=1e-12)


def test_eig_diagonal_sorting():
    dec = eig_sym(np.diag([3.0, -1.0, 2.0]))
    assert np.allclose(dec.eigenvalues, [-1.0, 2.0, 3.0])


def check_decomposition(dec, matrix):
    scale = 1.0 + float(np.max(np.abs(dec.eigenvalues)))
    recon = matrix @ dec.eigenvectors - dec.eigenvectors * dec.eigenvalues
    assert np.max(np.abs(recon)) <= 1e-8 * scale
    gram = dec.eigenvectors.T @ dec.eigenvectors - np.eye(dec.source_dim)
    assert np.max(np.abs(gram)) <= 1e-8
    assert np.all(np.diff(dec.eigenvalues) >= 0)


def test_decomposition_invariants():
    for seed in range(5):
        H = chain_hamiltonian(10, Uniform(-2, 2), seed)
        check_decomposition(eig_sym(H), H.matrix)
    gen = np.random.Generator(np.random.Philox(key=[5, 5]))
    A = gen.standard_normal((30, 30))
    A = A + A.T
    check_decomposition(eig_sym(A), A)


def test_eigenvalues_sym_matches_eig_sym():
    H = chain_hamiltonian(20, rademacher(), 3)
    assert np.allclose(eigenvalues_sym(H), eig_sym(H).eigenvalues, atol=1e-10)


def test_spectral_diagonal_normalization():
    dec = eig_sym(chain_hamiltonian(5, Uniform(-1, 1), 2))
    for n in range(dec.source_dim):
        assert spectral_diagonal(dec, Polynomial((1,)), n) == pytest.approx(1.0, abs=1e-8)


def test_spectral_diagonal_identity_recovers_potential():
    H = chain_hamiltonian(5, rademacher(), 4)
    dec = eig_sym(H)
    for n in range(len(H.matrix)):
        assert spectral_diagonal(dec, X, n) == pytest.approx(H.matrix[n, n], abs=1e-9)


def test_spectral_diagonal_square_center():
    # center row of the zero-potential 3-site chain is (1, 0, 1): squared norm 2
    dec = eig_sym(chain_hamiltonian(1))
    assert spectral_diagonal(dec, X2, 1) == pytest.approx(2.0, abs=1e-10)


def test_trace_examples():
    H = chain_hamiltonian(1)
    dec = eig_sym(H)
    assert trace_function(dec, X2) == pytest.approx(4.0, abs=1e-10)  # four unit entries
    assert trace_function(dec, Polynomial((2.5,))) == pytest.approx(2.5 * 3)

    Hr = chain_hamiltonian(8, rademacher(), 9)
    assert trace_function(eig_sym(Hr), X) == pytest.approx(
        float(np.sum(np.diag(Hr.matrix))), abs=1e-9
    )


def test_trace_frobenius_identity():
    H = chain_hamiltonian(6, Uniform(-1, 1), 11)
    dec = eig_sym(H)
    assert trace_function(dec, X2) == pytest.approx(float(np.sum(H.matrix**2)), abs=1e-8)


def test_trace_equals_sum_of_diagonals_and_linearity():
    H = chain_hamiltonian(4, Uniform(-1, 1), 13)
    dec = eig_sym(H)
    m = dec.source_dim
    for f in (X, X2, X3):
        total = sum(spectral_diagonal(dec, f, n) for n in range(m))
        assert trace_function(dec, f) == pytest.approx(total, abs=1e-8 * m)
    # linearity in f at a fixed site
    combo = Polynomial((0, 2, -3))
    lhs = spectral_diagonal(dec, combo, 2)
    rhs = 2 * spectral_diagonal(dec, X, 2) - 3 * spectral_diagonal(dec, X2, 2)
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_outputs_invariant_under_symmetric_permutation():
    H = chain_hamiltonian(5, Uniform(-1, 1), 17)
    n = len(H.matrix)
    gen = np.random.Generator(np.random.Philox(key=[17, 1]))
    perm = gen.permutation(n)
    P = np.eye(n)[perm]
    dec1 = eig_sym(H)
    dec2 = eig_sym(P @ H.matrix @ P.T)
    assert np.allclose(dec1.eigenvalues, dec2.eigenvalues, atol=1e-9)
    for n_site in range(n):
        a = spectral_diagonal(dec1, X2, n_site)
        b = spectral_diagonal(dec2, X2, int(np.nonzero(perm == n_site)[0][0]))
        assert a == pytest.approx(b, abs=1e-9)


def test_hellmann_feynman_quadratic_is_exact():
    H = chain_hamiltonian(3, rademacher(), 21)
    site = 2
    res = hellmann_feynman_check(H, X2, site, h=1e-4)
    # d/dl Tr (H + l P)^2 = 2 H_nn; the central difference of a quadratic is exact
    assert res.formula == pytest.approx(2.0 * H.matrix[site, site], abs=1e-9)
    assert res.abs_err <= 1e-9


def test_hellmann_feynman_cubic_small_matrix():
    gen = np.random.Generator(np.random.Philox(key=[1, 0]))
    A = gen.standard_normal((5, 5))
    A = (A + A.T) / 2
    res = hellmann_feynman_check(A, X3, 2, h=1e-4)
    assert res.abs_err <= 1e-6


def test_hellmann_feynman_richardson_ratio():
    # halving h divides the central-difference error by about 4 (O(h^2))
    H = chain_hamiltonian(10, rademacher(), 7)
    f = catalog()["arctan"]
    err_h = hellmann_feynman_check(H, f, 3, h=2e-3).abs_err
    err_h2 = hellmann_feynman_check(H, f, 3, h=1e-3).abs_err
    assert 3.0 <= err_h / err_h2 <= 5.0


def test_hellmann_feynman_degenerate_warning():
    mat = np.diag([1.0, 1.0, 2.0])
    with pytest.warns(UserWarning, match="degenerate"):
        res = hellmann_feynman_check(mat, X2, 0, h=1e-4)
    assert res.abs_err <= 1e-9


def test_hellmann_feynman_property_100_instances():
    # |formula - central difference| <= 1e-6 (1 + |formula|) for degree <= 3
    gen = np.random.Generator(np.random.Philox(key=[77, 0]))
    polys = [X, X2, X3, Polynomial((1, -2, 0.5, 0.25))]
    for i in range(100):
        n = int(gen.integers(3, 30))
        A = gen.standard_normal((n, n))
        A = (A + A.T) / 2
        f = polys[i % len(polys)]
        site = int(gen.integers(0, n))
        res = hellmann_feynman_check(A, f, site, h=1e-4)
        assert res.abs_err <= 1e-6 * (1.0 + abs(res.formula))


def test_hellmann_feynman_rejects_bad_step():
    with pytest.raises(ValueError):
        hellmann_feynman_check(np.eye(2), X2, 0, h=0.0)


def test_eigensolve_failure_carries_fingerprint():
    from andersonclt.lattice import Hamiltonian
    from andersonclt.spectral import EigensolveError

    # d = 1 goes through the tridiagonal solvers, d = 2 through the dense ones
    for d in (1, 2):
        cube = enumerate_cube(d, 1)
        broken = np.zeros(len(cube))
        broken[0] = np.nan
        wrapped = Hamiltonian(cube, broken, provenance=(123, 4, "two_point(1,-1,1/2)"))
        for solve in (eig_sym, eigenvalues_sym):
            with pytest.raises(EigensolveError, match="123"):
                solve(wrapped)


def test_chain_solve_never_goes_dense():
    import tracemalloc

    cube = enumerate_cube(1, 2000)
    field = sample_disorder(rademacher(), cube, 3, 0)
    tracemalloc.start()
    try:
        evals = eigenvalues_sym(assemble_hamiltonian(cube, field))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(evals) == len(cube)
    assert peak < 256 * len(cube)  # a dense matrix would take 8 * N^2 bytes


def test_trace_shift_identity():
    # adding a constant c to f moves the trace by exactly c * (2L+1)^d
    H = chain_hamiltonian(6, Uniform(-1, 1), 19)
    dec = eig_sym(H)
    f = Polynomial((0, 1, 0, 2))
    c = 0.75
    lhs = trace_function(dec, f.shift(c))
    rhs = trace_function(dec, f) + c * len(H.matrix)
    assert lhs == pytest.approx(rhs, abs=1e-9)


@pytest.mark.parametrize("L", [0, 1, 2, 500])
def test_chain_arctan_traces_match_sterf(L):
    # oracle: per-chain sterf spectra; pinned at 1e-12 relative to sum |arctan E|
    cube = enumerate_cube(1, L)
    for dist in (rademacher(), Gaussian(0, 3), Uniform(-1, 2)):
        for seed in (3, 11):
            diags = np.array([sample_disorder(dist, cube, seed, r).values for r in range(5)])
            traces, min_pivot = chain_arctan_traces(diags)
            assert min_pivot >= PIVOT_FLOOR
            for v, trace in zip(diags, traces):
                evals = eigvalsh_tridiagonal(v, np.ones(len(v) - 1), lapack_driver="sterf")
                f_vals = np.arctan(evals)
                assert abs(trace - np.sum(f_vals)) <= 1e-12 * np.sum(np.abs(f_vals))


def test_chain_arctan_traces_do_not_depend_on_the_batch():
    cube = enumerate_cube(1, 40)
    diags = np.array([sample_disorder(Gaussian(0, 3), cube, 2, r).values for r in range(9)])
    batched, _ = chain_arctan_traces(diags)
    for r, v in enumerate(diags):
        assert chain_arctan_traces(v[None, :])[0][0] == batched[r]
    assert np.array_equal(chain_arctan_traces(diags[3:7])[0], batched[3:7])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_chain_arctan_traces_reject_non_finite(bad):
    diags = np.zeros((4, 6))
    diags[2, 3] = bad
    with pytest.raises(EigensolveError, match="chain 2") as info:
        chain_arctan_traces(diags)
    assert info.value.index == 2
