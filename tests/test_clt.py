import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

from andersonclt import (
    EnumerationEngine,
    FiltrationPlan,
    Gaussian,
    Polynomial,
    TwoPoint,
    Uniform,
    approx_variance_convergence,
    catalog,
    derivative_sq_norm_mc,
    directional_decomposition,
    enumerate_cube,
    exact_variance,
    martingale_decomposition,
    normality_test,
    normality_thresholds,
    positivity_check,
    rademacher,
    sample_centered_traces,
    variance_bound_check,
    variance_estimate,
    variance_scan,
)
from andersonclt import clt as clt_module
from andersonclt.clt import CHAIN_BLOCK, _trace_of
from andersonclt.lattice import DisorderField, assemble_hamiltonian, sample_disorder
from andersonclt.spectral import EigensolveError, eigenvalues_sym

X = Polynomial((0, 1))
X2 = Polynomial((0, 0, 1))
X3 = Polynomial((0, 0, 0, 1))


# ---------------------------------------------------------------------------
# sampling


def test_sample_mean_is_centered():
    s = sample_centered_traces(1, 20, rademacher(), X, 64, 3)
    scale = max(1.0, float(np.max(np.abs(s.values))))
    assert abs(float(np.mean(s.values))) <= 1e-12 * scale


def test_identity_statistic_matches_iid_sum_variance():
    # X_r reduces to a centered i.i.d. sum; classical CLT variance Var(w) = 1
    s = sample_centered_traces(1, 100, rademacher(), X, 2000, 7)
    rep = variance_estimate(s)
    assert abs(rep.sigma2_hat - 1.0) <= 4.0 * rep.std_error


def test_constant_function_gives_exact_zero():
    s = sample_centered_traces(1, 10, rademacher(), Polynomial((4.5,)), 16, 0)
    assert np.all(s.values == 0.0)


def test_square_rademacher_gives_exact_zero():
    # Tr H^2 = sum w^2 + 2 #edges is configuration-independent when w^2 = 1
    s = sample_centered_traces(1, 50, rademacher(), X2, 50, 9)
    assert np.all(s.values == 0.0)
    rep = variance_estimate(s)
    assert rep.sigma2_hat == 0.0 and rep.std_error == 0.0


def test_additive_constant_invariance_is_bitwise():
    f = Polynomial((0, 1, 0, 2))
    g = f.shift(3.7)
    a = sample_centered_traces(1, 12, Uniform(-1, 1), f, 32, 5)
    b = sample_centered_traces(1, 12, Uniform(-1, 1), g, 32, 5)
    assert np.array_equal(a.values, b.values)


def test_doubling_scales_bitwise_and_quadruples_variance():
    for f in (X, X3):  # closed-form path and eigenvalue path
        a = sample_centered_traces(1, 12, Uniform(-1, 1), f, 64, 11)
        b = sample_centered_traces(1, 12, Uniform(-1, 1), f.scale(2), 64, 11)
        assert np.array_equal(b.values, 2.0 * a.values)
        assert variance_estimate(b).sigma2_hat == 4.0 * variance_estimate(a).sigma2_hat


def test_trace_closed_form_matches_eigenvalue_path():
    cube = enumerate_cube(1, 15)
    field = sample_disorder(Uniform(-1, 1), cube, 2, 4)
    H = assemble_hamiltonian(cube, field)
    quad = Polynomial((0.5, -1.0, 2.0))
    direct = _trace_of(H, quad)
    evals = eigenvalues_sym(H)
    via_spectrum = float(np.sum(quad.without_constant()(evals)))
    assert direct == pytest.approx(via_spectrum, rel=1e-11)


def test_sample_requires_two_replicates():
    with pytest.raises(ValueError):
        sample_centered_traces(1, 5, rademacher(), X, 1, 0)


# ---------------------------------------------------------------------------
# variance estimation and normality


def test_variance_estimate_zero_samples():
    s = sample_centered_traces(1, 8, rademacher(), Polynomial((1.0,)), 16, 0)
    rep = variance_estimate(s)
    assert (rep.sigma2_hat, rep.std_error) == (0.0, 0.0)


def test_variance_estimate_requires_eight():
    s = sample_centered_traces(1, 5, rademacher(), X, 4, 0)
    with pytest.raises(ValueError):
        variance_estimate(s)


def test_normality_on_synthetic_gaussian():
    # null behavior of the thresholds on genuinely normal input
    from andersonclt.clt import SampleSet

    th = normality_thresholds(5000)
    passes = 0
    for seed in range(20):
        gen = np.random.Generator(np.random.Philox(key=[seed, 99]))
        vals = gen.standard_normal(5000)
        vals -= vals.mean()
        ss = SampleSet(vals, 1, 1, "synthetic", rademacher(), 5000, seed)
        rep = normality_test(ss)
        ok = (
            abs(rep.skewness) <= th["skewness"]
            and abs(rep.excess_kurtosis) <= th["excess_kurtosis"]
            and rep.ks_statistic * math.sqrt(5000) <= th["ks_scaled"]
        )
        passes += ok
    assert passes >= 19


def test_normality_degenerate_branch():
    s = sample_centered_traces(1, 30, rademacher(), X2, 300, 1)
    rep = normality_test(s)
    assert rep.degenerate
    assert rep.ks_statistic is None


def test_skewness_for_identity_uniform():
    s = sample_centered_traces(1, 500, Uniform(-1, 1), X, 2000, 12)
    rep = normality_test(s)
    assert abs(rep.skewness) <= normality_thresholds(2000)["skewness"]


# ---------------------------------------------------------------------------
# variance bound


def test_variance_bound_monte_carlo_arctan():
    dist = rademacher()
    f = catalog()["arctan"]
    s = sample_centered_traces(1, 30, dist, f, 400, 21)
    rep = variance_estimate(s)
    norm = derivative_sq_norm_mc(f.fprime, 1, 30, dist, replicates=40, master_seed=21)
    verdict = variance_bound_check(rep, norm)
    assert verdict.ok
    assert verdict.rhs <= 8.0 * (1.0 + 3.0 * norm.std_error)  # |f'| <= 1, mass 1


def test_variance_bound_zero_function():
    s = sample_centered_traces(1, 10, rademacher(), Polynomial((2.0,)), 16, 0)
    rep = variance_estimate(s)
    norm = derivative_sq_norm_mc(
        lambda x: np.zeros_like(x), 1, 10, rademacher(), replicates=10, master_seed=0
    )
    verdict = variance_bound_check(rep, norm)
    assert verdict.ok and verdict.lhs == 0.0 and verdict.rhs == 0.0


# ---------------------------------------------------------------------------
# scans and polynomial approximation


def test_variance_scan_identity():
    scan = variance_scan(X, 1, rademacher(), [50, 100, 200], 400, 3)
    assert scan.stabilized
    for rep in scan.reports:
        assert abs(rep.sigma2_hat - 1.0) <= 4.0 * rep.std_error


def test_variance_scan_square_rademacher_is_degenerate():
    scan = variance_scan(X2, 1, rademacher(), [20, 40], 64, 5)
    assert all(rep.sigma2_hat == 0.0 for rep in scan.reports)
    assert scan.stabilized


def test_variance_scan_square_uniform_hits_fourth_moment_oracle():
    # Tr H^2 = sum w^2 + const, so the statistic is an i.i.d. sum of w^2 and
    # its variance is Var(w^2) = E w^4 - (E w^2)^2 = 1/5 - 1/9 = 4/45 at any L
    dist = Uniform(-1, 1)
    target = float(dist.moment(4) - dist.moment(2) ** 2)
    assert target == pytest.approx(4.0 / 45.0)
    scan = variance_scan(X2, 1, dist, [40, 80], 1500, 8)
    for rep in scan.reports:
        assert abs(rep.sigma2_hat - target) <= 4.0 * rep.std_error
    assert scan.stabilized


def test_variance_scan_rejects_degree_zero():
    with pytest.raises(ValueError):
        variance_scan(Polynomial((1.0,)), 1, rademacher(), [10], 16, 0)


def test_approx_convergence_affine_derivative_exact_at_degree_one():
    # f = x^2 + x has affine derivative; its Bernstein approximant is exact at
    # k = 1, so the surrogate differs from f by a constant and X matches
    f_poly = Polynomial((0, 1, 1))
    from andersonclt.testfuncs import SmoothFunction

    f = SmoothFunction(
        label="quadratic",
        f=lambda x: x * x + x,
        fprime=lambda x: 2.0 * np.asarray(x) + 1.0,
        growth=Polynomial((2, 2)),
        monotone=False,
    )
    rep = approx_variance_convergence(
        f, [1, 2], (-4.0, 4.0), 1, 10, rademacher(), 200, 17, norm_replicates=8
    )
    row = rep.rows[0]
    assert row.lhs <= 1e-10  # identical statistics up to float roundoff
    assert row.ok


def test_approx_convergence_chebyshev_reproduces_cubic():
    # the Chebyshev route reproduces the cubic's derivative once k >= 2, so
    # the surrogate trace differs by a constant and the statistics coincide
    f = catalog()["cubic"]
    rep = approx_variance_convergence(
        f,
        [2, 3],
        (-4.0, 4.0),
        1,
        8,
        rademacher(),
        200,
        19,
        scheme="chebyshev",
        norm_replicates=8,
    )
    for row in rep.rows:
        assert row.lhs <= 1e-7
        assert row.ok


def test_approx_convergence_bernstein_error_identity_for_cubic():
    # truthful Bernstein behavior: B_k(3x^2) - 3x^2 = 3(x - x^2)/k on [0,1],
    # asserted exactly in rational arithmetic
    from andersonclt import bernstein_approx

    g = Polynomial((0, 0, 3))
    for k in (2, 4, 8):
        b = bernstein_approx(g, (0, 1), k)
        residual = b - g
        assert residual.coefficients == (0, Fraction(3, k), Fraction(-3, k))


def test_approx_convergence_requires_ascending_degrees():
    with pytest.raises(ValueError):
        approx_variance_convergence(
            catalog()["arctan"], [8, 4], (-3, 3), 1, 8, rademacher(), 64, 0
        )


def test_approx_convergence_rejects_unknown_scheme():
    with pytest.raises(ValueError, match="bernstien"):
        approx_variance_convergence(
            catalog()["arctan"], [4], (-3, 3), 1, 2, rademacher(), 8, 0,
            scheme="bernstien",
        )


# ---------------------------------------------------------------------------
# exact enumeration


def test_exact_variance_identity_function():
    eng = EnumerationEngine(enumerate_cube(1, 2), rademacher())
    ev = exact_variance(eng, X)
    assert ev.variance == 5 and ev.second_moment_normalized == 1
    assert ev.exact


def test_exact_variance_square_is_zero():
    eng = EnumerationEngine(enumerate_cube(1, 2), rademacher())
    assert exact_variance(eng, X2).variance == 0


def test_exact_variance_cubic_regression_fixture():
    # exact rational value recorded from the enumeration oracle itself
    eng = EnumerationEngine(enumerate_cube(1, 2), rademacher())
    ev = exact_variance(eng, X3)
    assert ev.variance == 179
    assert ev.second_moment_normalized == Fraction(179, 5)


def test_trace_table_cache_distinguishes_lambdas():
    # every lambda has the same __name__; the cache must not conflate them
    eng = EnumerationEngine(enumerate_cube(1, 2), rademacher())
    assert exact_variance(eng, lambda x: x).variance == pytest.approx(5.0, rel=1e-12)
    assert exact_variance(eng, lambda x: x**3).variance == pytest.approx(179.0, rel=1e-11)


def test_exact_variance_float_path_agrees():
    eng = EnumerationEngine(enumerate_cube(1, 2), rademacher())
    exact = exact_variance(eng, X3)
    floaty = exact_variance(eng, Polynomial((0.0, 0.0, 0.0, 1.0)))
    assert not floaty.exact
    assert float(exact.variance) == pytest.approx(floaty.variance, rel=1e-11)


def test_exact_and_float_tables_agree_entrywise():
    # both builders must lay the configurations out identically
    dist = TwoPoint(Fraction(1, 3), -2, Fraction(1, 5))
    eng = EnumerationEngine(enumerate_cube(2, 1), dist)
    P = Polynomial((1, -2, 0, 3))
    exact = eng.trace_table(P)
    floaty = eng.trace_table(P.as_floats())
    assert exact.dtype == object and floaty.dtype == np.float64
    assert exact.shape == floaty.shape == (2,) * 9
    assert np.max(np.abs(exact.astype(np.float64) - floaty)) <= 1e-9


def test_enumeration_requires_two_point_and_budget():
    with pytest.raises(TypeError):
        EnumerationEngine(enumerate_cube(1, 2), Uniform(-1, 1))
    with pytest.raises(ValueError, match="capped"):
        EnumerationEngine(enumerate_cube(1, 12), rademacher())


def test_martingale_identities_exact_paths():
    for cube in (enumerate_cube(1, 2), enumerate_cube(2, 1)):
        eng = EnumerationEngine(cube, rademacher())
        for f in (X, X3):
            rep = martingale_decomposition(eng, f)
            assert rep.exact
            assert rep.variance == rep.sum_sq_differences  # exact rationals
            assert rep.max_cross_term == 0.0
            assert rep.max_pointwise_residual == 0.0


def test_martingale_identities_float_path():
    eng = EnumerationEngine(enumerate_cube(1, 2), rademacher())
    rep = martingale_decomposition(eng, catalog()["arctan"])
    assert not rep.exact
    assert rep.identity_residual <= 1e-10
    assert rep.max_cross_term <= 1e-10
    assert rep.max_pointwise_residual <= 1e-10


def test_martingale_constant_function_all_zero():
    eng = EnumerationEngine(enumerate_cube(1, 2), rademacher())
    rep = martingale_decomposition(eng, Polynomial((3,)))
    assert rep.variance == 0
    assert all(m == 0 for m in rep.per_term_second_moments)


def test_martingale_respects_custom_order():
    eng = EnumerationEngine(enumerate_cube(1, 2), rademacher())
    plan = FiltrationPlan.site_order(eng.cube, order=(4, 3, 2, 1, 0))
    rep = martingale_decomposition(eng, X3, plan)
    assert rep.variance == rep.sum_sq_differences
    assert rep.max_cross_term == 0.0


def test_martingale_terms_match_direct_conditioning():
    # levels built by the tower property against conditioning the full table
    dist = TwoPoint(Fraction(1, 3), -2, Fraction(1, 5))
    eng = EnumerationEngine(enumerate_cube(2, 1), dist)
    order = (4, 0, 8, 2, 6, 1, 7, 3, 5)
    rep = martingale_decomposition(eng, X3, FiltrationPlan.site_order(eng.cube, order))
    table = eng.trace_table(X3)
    levels = [
        eng.conditional_expectation(table, frozenset(order[:k]))
        for k in range(eng.n_sites + 1)
    ]
    want = tuple(
        eng.expectation((fine - coarse) * (fine - coarse))
        for coarse, fine in zip(levels, levels[1:])
    )
    assert rep.exact
    assert rep.per_term_second_moments == want
    assert rep.variance == rep.sum_sq_differences


def test_filtration_plan_validation():
    cube = enumerate_cube(1, 2)
    with pytest.raises(ValueError):
        FiltrationPlan.site_order(cube, order=(0, 0, 1, 2, 3))
    with pytest.raises(ValueError):
        FiltrationPlan.directional(cube, levels=(1, 1))


def test_directional_chain_identity_polynomial():
    # conditioning on half-lines reduces Tr H = sum w to single couplings
    eng = EnumerationEngine(enumerate_cube(1, 2), rademacher())
    rep = directional_decomposition(eng, X)
    assert rep.variance == 5
    assert rep.depth_second_moments == (1,)
    assert rep.factor == 3 and rep.lower_bound == 3
    assert rep.ok and rep.margin == 2


def test_directional_2d_identity_polynomial():
    eng = EnumerationEngine(enumerate_cube(2, 1), rademacher())
    rep = directional_decomposition(eng, X)
    assert rep.variance == 9
    assert rep.depth_second_moments == (3, 1)
    assert rep.factor == 1 and rep.ok and rep.margin == 8


def test_directional_asymmetric_two_point():
    dist = TwoPoint(0, 1, Fraction(1, 3))
    eng = EnumerationEngine(enumerate_cube(1, 2), dist)
    rep = directional_decomposition(eng, X)
    assert rep.ok
    assert rep.variance == 5 * dist.variance()


def test_directional_rejects_bad_inputs():
    eng = EnumerationEngine(enumerate_cube(1, 2), rademacher())
    with pytest.raises(ValueError, match="degree"):
        directional_decomposition(eng, Polynomial((2,)))
    with pytest.raises(ValueError, match="too small"):
        directional_decomposition(eng, X3)  # 2L-2p+1 = -1


# ---------------------------------------------------------------------------
# positivity


def test_positivity_arctan():
    dist = rademacher()
    f = catalog()["arctan"]
    s = sample_centered_traces(1, 200, dist, f, 500, 23)
    verdict = positivity_check(s, f.monotone, (-3.5, 3.5))
    assert verdict.status == "positive"


def test_positivity_cubic_bernoulli():
    # strictly monotone test function: positive variance even for 0/1 disorder
    dist = TwoPoint(0, 1, Fraction(1, 2))
    f = catalog()["cubic"]
    s = sample_centered_traces(1, 120, dist, f, 400, 29)
    verdict = positivity_check(s, f.monotone, (-2.5, 3.5))
    assert verdict.status == "positive"


def test_positivity_zero_variance_branch():
    s = sample_centered_traces(1, 40, rademacher(), X2, 200, 31)
    verdict = positivity_check(s, False, (-3.5, 3.5))
    assert verdict.status == "zero-variance"


def test_positivity_refuses_small_interval():
    dist = rademacher()
    f = catalog()["arctan"]
    s = sample_centered_traces(1, 10, dist, f, 16, 1)
    with pytest.raises(ValueError, match="hull"):
        positivity_check(s, True, (-2.0, 2.0))


def test_positivity_unbounded_support_accepts_interval():
    from andersonclt import Gaussian

    s = sample_centered_traces(1, 20, Gaussian(0, 1), catalog()["arctan"], 64, 2)
    verdict = positivity_check(s, True, (-math.inf, math.inf))
    assert verdict.status in {"positive", "inconclusive"}


def test_normality_surrogate_over_40_master_seeds():
    # i.i.d.-sum surrogate (f = x): thresholds must pass for >= 95% of seeds
    th = normality_thresholds(500)
    passes = 0
    for seed in range(40):
        s = sample_centered_traces(1, 200, rademacher(), X, 500, seed)
        rep = normality_test(s)
        ks = rep.ks_statistic * math.sqrt(500)
        passes += (
            abs(rep.skewness) <= th["skewness"]
            and abs(rep.excess_kurtosis) <= th["excess_kurtosis"]
            and ks <= th["ks_scaled"]
        )
    assert passes >= 38


def test_martingale_identities_thirteen_site_instance():
    # a larger engine instance (8192 configurations) on the float path
    eng = EnumerationEngine(enumerate_cube(1, 6), rademacher())
    rep = martingale_decomposition(eng, catalog()["arctan"])
    assert rep.identity_residual <= 1e-10
    assert rep.max_cross_term <= 1e-10
    assert rep.max_pointwise_residual <= 1e-10


def test_eigensolver_failure_carries_replicate_id(monkeypatch):
    def boom(H, f):
        raise EigensolveError("synthetic failure")

    monkeypatch.setattr(clt_module, "_trace_of", boom)
    with pytest.raises(EigensolveError, match="replicate 0"):
        sample_centered_traces(1, 3, rademacher(), X, 4, 0)


# ---------------------------------------------------------------------------
# chain arctan traces through the pivot kernel


@pytest.mark.parametrize("L", [0, 1, 2, 500])
def test_chain_arctan_statistic_matches_sterf(L):
    # oracle: the centered statistic built here from per-replicate sterf spectra;
    # R spans two kernel blocks
    R = CHAIN_BLOCK + 2
    cube = enumerate_cube(1, L)
    arctan = catalog()["arctan"]
    for dist in (rademacher(), Gaussian(0, 3), Uniform(-1, 2)):
        traces = np.empty(R)
        for r in range(R):
            v = sample_disorder(dist, cube, 5, r).values
            traces[r] = np.sum(
                np.arctan(eigvalsh_tridiagonal(v, np.ones(len(v) - 1), lapack_driver="sterf"))
            )
        want = (traces - np.mean(traces)) / math.sqrt(len(cube))
        s = sample_centered_traces(1, L, dist, arctan, R, 5)
        assert np.max(np.abs(s.values - want)) <= 1e-13
        assert s.min_pivot_re >= 1.0 - 1e-12
        assert 0.0 <= s.spot_check_residual <= 1e-12


def test_eigensolve_paths_report_no_kernel_health():
    arctan = catalog()["arctan"]
    for s in (
        sample_centered_traces(2, 1, rademacher(), arctan, 4, 0),
        sample_centered_traces(1, 3, rademacher(), X3, 4, 0),
    ):
        assert s.min_pivot_re is None and s.spot_check_residual is None


def _poisoned_disorder(monkeypatch, replicate, bad):
    """Make replicate ``replicate`` carry ``bad`` at its first site."""

    def draw(dist, cube, master_seed, r):
        field = sample_disorder(dist, cube, master_seed, r)
        if r != replicate:
            return field
        values = field.values.copy()
        values[0] = bad
        return DisorderField(cube, values, field.provenance)

    monkeypatch.setattr(clt_module, "sample_disorder", draw)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("f", [catalog()["arctan"], X3], ids=["kernel", "sterf"])
def test_non_finite_chain_diagonal_names_replicate(monkeypatch, f, bad):
    replicate = CHAIN_BLOCK + 3
    _poisoned_disorder(monkeypatch, replicate, bad)
    with pytest.raises(EigensolveError, match=f"replicate {replicate}:"):
        sample_centered_traces(1, 3, rademacher(), f, CHAIN_BLOCK + 8, 0)


def test_chain_kernel_disagreeing_with_sterf_is_refused(monkeypatch):
    kernel = clt_module.chain_arctan_traces

    def skewed(diagonals):
        traces, pivot = kernel(diagonals)
        return traces + 1e-9, pivot

    monkeypatch.setattr(clt_module, "chain_arctan_traces", skewed)
    with pytest.raises(EigensolveError, match="replicate 0: chain kernel"):
        sample_centered_traces(1, 10, rademacher(), catalog()["arctan"], 8, 0)


@pytest.mark.parametrize(
    "d, f, calls",
    [(1, catalog()["arctan"], 1), (2, catalog()["arctan"], 6), (1, X3, 6)],
    ids=["chain-arctan", "square-arctan", "chain-cubic"],
)
def test_solver_and_assembly_calls_per_sample(monkeypatch, d, f, calls):
    # the layers a traced benchmark run of a d=1 arctan CLT pass must see
    counts = {"assemble": 0, "solve": 0}

    def counting(name, fn):
        def wrapped(*args):
            counts[name] += 1
            return fn(*args)

        return wrapped

    monkeypatch.setattr(
        clt_module, "assemble_hamiltonian", counting("assemble", assemble_hamiltonian)
    )
    monkeypatch.setattr(clt_module, "eigenvalues_sym", counting("solve", eigenvalues_sym))
    sample_centered_traces(d, 2, rademacher(), f, 6, 1)
    assert counts == {"assemble": calls, "solve": calls}
