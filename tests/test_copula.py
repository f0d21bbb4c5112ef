import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr, ndtri
from scipy.stats import spearmanr

from downscale import (
    AggregationUnit,
    EstimationError,
    IndividualTable,
    estimate_correlation,
    fit_copula,
    fit_unit_marginals,
    nearest_pd_repair,
    sample_unit_coordinates,
    solve_beta,
    solve_lognormal,
)
from downscale.copula import (
    BETA,
    LOGNORMAL,
    CopulaModel,
    CorrelationMatrix,
    load_model,
    model_from_json,
    model_to_json,
    pooled_sigmas,
    sample_all_units,
    save_model,
)
from downscale.rng import stream
from downscale.schema import Coordinate, coordinates
from conftest import make_coarse, make_schemas, make_units, stack_units


def beta_variance(alpha, beta):
    s = alpha + beta
    return alpha * beta / (s * s * (s + 1.0))


# --- moment solvers ---------------------------------------------------------

def test_solve_beta_half_mean():
    alpha, beta = solve_beta(0.5, math.sqrt(0.05))
    assert abs(alpha - 2.0) < 1e-10 and abs(beta - 2.0) < 1e-10
    # independent forward check of both moment equations
    assert abs(alpha / (alpha + beta) - 0.5) < 1e-12
    assert abs(beta_variance(alpha, beta) - 0.05) < 1e-12


def test_solve_beta_second_example():
    alpha, beta = solve_beta(0.2, 0.1)
    assert abs(alpha - 3.0) < 1e-10 and abs(beta - 12.0) < 1e-10
    assert abs(beta_variance(alpha, beta) - 0.01) < 1e-12


def test_solve_beta_variance_ceiling():
    alpha, beta = solve_beta(0.5, 0.6)  # sigma^2 >= mu(1-mu)
    expected = 0.5 * (0.25 / (0.999 * 0.25) - 1.0)
    assert abs(alpha - expected) < 1e-12
    assert abs(alpha - 0.0005) < 1e-6 and abs(beta - 0.0005) < 1e-6


def test_solve_beta_rejects_boundary_mean():
    for mean in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(EstimationError):
            solve_beta(mean, 0.1)
    with pytest.raises(EstimationError, match="mean 1.5 outside"):
        solve_beta(np.array([[0.2, 0.5], [1.5, 0.3]]), 0.1)
    with pytest.raises(EstimationError, match="negative sd -0.2"):
        solve_beta(np.array([0.2, 0.5]), np.array([0.1, -0.2]))


def test_solve_beta_arrays_equal_scalar_calls_bit_for_bit():
    rng = np.random.default_rng(8)
    means = rng.uniform(0.001, 0.999, (7, 5))
    sds = np.concatenate([rng.uniform(0.0, 0.8, (7, 4)), np.zeros((7, 1))], axis=1)
    alphas, betas = solve_beta(means, sds)
    for i, j in np.ndindex(means.shape):
        alpha, beta = solve_beta(float(means[i, j]), float(sds[i, j]))
        assert isinstance(alpha, float) and isinstance(beta, np.float64)
        assert alphas[i, j] == alpha and betas[i, j] == beta


@pytest.mark.parametrize("sd_mode", ["paper", "sqrt_n", "pooled"])
def test_fit_unit_marginals_beta_specs_are_solve_beta_of_clamped_means(sd_mode):
    schemas = make_schemas([("g", 3, 0), ("inc", None, 0), ("b", 2, 0)])
    units = make_units(schemas, [1, 4, 17, 60, 9])
    # proportions of exactly 0 and 1 exercise the half-count clamp
    units[2].values["b"] = np.array([1.0, 0.0])
    coarse = stack_units(units)
    sigma = pooled_sigmas(coarse.matrix(schemas), coordinates(schemas))
    a, b, means, sds = fit_unit_marginals(coarse, schemas, sigma, sd_mode)
    by_name = {sc.name: sc for sc in schemas}
    for i, unit in enumerate(coarse.units):
        n = unit.population
        half_count = 1.0 / (2.0 * n)
        for j, coord in enumerate(coordinates(schemas)):
            pooled = sigma[coord.label]
            sd = {
                "paper": pooled * math.sqrt(len(coarse.units)) * math.sqrt(n),
                "sqrt_n": pooled * math.sqrt(n),
                "pooled": pooled,
            }[sd_mode]
            if coord.class_label is None:
                raw = float(unit.values[coord.feature])
                assert (a[i, j], b[i, j], means[i, j], sds[i, j]) == (*solve_lognormal(raw, sd), raw, sd)
                continue
            raw = float(unit.values[coord.feature][by_name[coord.feature].classes.index(coord.class_label)])
            mean = min(max(raw, half_count), 1.0 - half_count)
            assert (a[i, j], b[i, j], means[i, j], sds[i, j]) == (*solve_beta(mean, sd), mean, sd)


@given(
    mean=st.floats(0.01, 0.99),
    sd=st.floats(0.0, 1.0),
)
@settings(max_examples=200, deadline=None)
def test_solve_beta_moments_property(mean, sd):
    alpha, beta = solve_beta(mean, sd)
    assert alpha > 0 and beta > 0
    assert abs(alpha / (alpha + beta) - mean) < 1e-12 * max(1.0, mean)
    var = beta_variance(alpha, beta)
    clamped = min(max(sd * sd, 1e-6), 0.999 * mean * (1 - mean))
    assert abs(var - clamped) < 1e-9


def test_solve_lognormal_point_mass():
    mu, sigma = solve_lognormal(1.0, 0.0)
    assert sigma == 0.0 and mu == 0.0


def test_solve_lognormal_unit_mean_unit_sd():
    mu, sigma = solve_lognormal(1.0, 1.0)
    assert abs(sigma**2 - math.log(2.0)) < 1e-12
    assert abs(mu + math.log(2.0) / 2.0) < 1e-12


def test_solve_lognormal_income_scale():
    mu, sigma = solve_lognormal(50000.0, 25000.0)
    implied_mean = math.exp(mu + sigma**2 / 2.0)
    implied_var = (math.exp(sigma**2) - 1.0) * math.exp(2 * mu + sigma**2)
    assert abs(implied_mean - 50000.0) / 50000.0 < 1e-9
    assert abs(math.sqrt(implied_var) - 25000.0) / 25000.0 < 1e-9


def test_solve_lognormal_rejects_negative_mean():
    with pytest.raises(EstimationError, match="negative mean -1.0"):
        solve_lognormal(-1.0, 1.0)


@pytest.mark.parametrize("mean", [1e-200, 1e-310, 5e-324])
def test_solve_lognormal_takes_a_mean_whose_squared_ratio_overflows(mean):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mu, sigma = solve_lognormal(np.array([mean, 1e-150, 0.0, 3.0]), np.array([2.5, 2.5, 2.5, 2.5]))
    assert np.all(np.isfinite(mu[[0, 1, 3]])) and np.all(np.isfinite(sigma))
    # the implied log-mean mu + sigma^2 / 2 is ln(mean)
    assert mu[0] + 0.5 * sigma[0] ** 2 == pytest.approx(math.log(mean), rel=1e-14)
    assert sigma[0] ** 2 == pytest.approx(2.0 * (math.log(2.5) - math.log(mean)), rel=1e-14)
    # where the square does not overflow, sigma^2 is still log1p of it, bit for bit
    assert sigma[1] == np.sqrt(np.log1p((2.5 / 1e-150) ** 2))
    assert (mu[2], sigma[2]) == (-math.inf, 0.0)


def test_solve_lognormal_zero_mean_is_point_mass_at_zero():
    mu, sigma = solve_lognormal(0.0, 1.0)
    assert (mu, sigma) == (-math.inf, 0.0)
    assert math.exp(mu + 0.5 * sigma**2) == 0.0
    model = manual_model(np.eye(1), [(LOGNORMAL, mu, sigma, 0.0, 1.0)], 50)
    draws = sample_unit_coordinates(model, "unit", stream(1, "zero"))
    np.testing.assert_array_equal(draws, np.zeros((50, 1)))


# --- positive definite repair ------------------------------------------------

def test_repair_identity_untouched():
    eye = np.eye(4)
    repaired = nearest_pd_repair(eye)
    np.testing.assert_array_equal(repaired.entries, eye)


def test_repair_clips_slightly_overcorrelated():
    m = np.array([[1.0, 1.0000001], [1.0000001, 1.0]])
    repaired = nearest_pd_repair(m)
    assert abs(repaired.entries[0, 1]) < 1.0
    np.linalg.cholesky(repaired.entries)


def test_repair_strongly_negative_equicorrelation():
    m = np.full((3, 3), -0.9)
    np.fill_diagonal(m, 1.0)
    # eigen oracle: the input has a negative eigenvalue 1 + 2*(-0.9)
    assert np.linalg.eigvalsh(m).min() < 0
    repaired = nearest_pd_repair(m)
    w = np.linalg.eigvalsh(repaired.entries)
    assert w.min() >= 1e-9
    np.testing.assert_allclose(np.diag(repaired.entries), 1.0, atol=1e-12)


def test_repair_rejects_bad_inputs():
    with pytest.raises(EstimationError, match="symmetric"):
        nearest_pd_repair(np.array([[1.0, 0.5], [0.1, 1.0]]))
    with pytest.raises(EstimationError, match="unit diagonal"):
        nearest_pd_repair(np.array([[2.0, 0.5], [0.5, 2.0]]))


@given(st.integers(2, 6), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_repair_always_pd_property(dim, seed):
    rng = np.random.default_rng(seed)
    m = np.clip(rng.uniform(-1, 1, (dim, dim)), -1, 1)
    m = 0.5 * (m + m.T)
    np.fill_diagonal(m, 1.0)
    repaired = nearest_pd_repair(m)
    np.linalg.cholesky(repaired.entries)
    np.testing.assert_allclose(np.diag(repaired.entries), 1.0, atol=1e-12)
    assert np.max(np.abs(repaired.entries)) <= 1.0 + 1e-12


def test_cholesky_reconstruction():
    m = np.full((4, 4), 0.5)
    np.fill_diagonal(m, 1.0)
    repaired = nearest_pd_repair(m)
    recon = repaired.cholesky_factor @ repaired.cholesky_factor.T
    assert np.linalg.norm(recon - repaired.entries) < 1e-10


# --- correlation estimation ---------------------------------------------------

def continuous_coarse(values):
    schemas = make_schemas([(f"x{j}", None, 0) for j in range(values.shape[1])])
    units = [
        AggregationUnit(f"u{i:05d}", 10, {sc.name: float(v) for sc, v in zip(schemas, row)})
        for i, row in enumerate(values)
    ]
    return stack_units(units), schemas


def test_duplicate_coordinates_clipped_and_repaired():
    rng = np.random.default_rng(5)
    col = rng.uniform(0, 1, 50)
    coarse, schemas = continuous_coarse(np.column_stack([col, col, rng.uniform(0, 1, 50)]))
    corr = estimate_correlation(coarse.matrix(schemas))
    assert corr.entries[0, 1] < 1.0
    np.linalg.cholesky(corr.entries)


def test_independent_coordinates_near_zero():
    # Monte Carlo oracle: 10,000 simulated units with independent coordinates
    rng = np.random.default_rng(99)
    coarse, schemas = continuous_coarse(rng.uniform(0, 1, size=(10_000, 4)))
    corr = estimate_correlation(coarse.matrix(schemas))
    off = corr.entries[~np.eye(4, dtype=bool)]
    assert np.max(np.abs(off)) < 0.05


def test_too_few_units_rejected():
    rng = np.random.default_rng(1)
    coarse, schemas = continuous_coarse(rng.uniform(0, 1, size=(3, 5)))
    with pytest.raises(EstimationError, match="unflagged units"):
        estimate_correlation(coarse.matrix(schemas))


def test_constant_coordinate_gets_zero_correlation():
    rng = np.random.default_rng(2)
    values = rng.uniform(0, 1, size=(40, 3))
    values[:, 1] = 0.7
    coarse, schemas = continuous_coarse(values)
    corr = estimate_correlation(coarse.matrix(schemas))
    assert np.all(corr.entries[1, [0, 2]] == 0.0)
    assert corr.entries[1, 1] == 1.0


def test_flagged_units_excluded():
    rng = np.random.default_rng(3)
    values = rng.uniform(0, 1, size=(30, 2))
    coarse, schemas = continuous_coarse(values)
    excluded = {"u00005", "u00011"}
    model = fit_copula(coarse, schemas, exclude=excluded)
    keep = [i for i in range(30) if f"u{i:05d}" not in excluded]
    expected = np.corrcoef(values[keep], rowvar=False)[0, 1]
    assert abs(model.correlation.entries[0, 1] - expected) < 1e-12
    assert abs(model.pooled_sigma["x1"] - values[keep, 1].std(ddof=1)) < 1e-12
    # excluded units still get marginals
    assert model.unit_ids == coarse.unit_ids


# --- per-unit marginals --------------------------------------------------------

def test_unit_sd_modes():
    schemas = make_schemas([("g", 2, 0)])
    coarse = make_coarse(schemas, [49] * 8)
    coords = ["g:g_c0", "g:g_c1"]
    sigma = {c: 0.05 for c in coords}
    # sqrt_n: 0.05 * sqrt(49) = 0.35
    sds = fit_unit_marginals(coarse, schemas, sigma, "sqrt_n")[3]
    assert abs(sds[0, 0] - 0.35) < 1e-12
    # paper mode adds the sqrt(M) factor
    sds = fit_unit_marginals(coarse, schemas, sigma, "paper")[3]
    assert abs(sds[0, 0] - 0.05 * math.sqrt(8) * 7.0) < 1e-12
    sds = fit_unit_marginals(coarse, schemas, sigma, "pooled")[3]
    assert abs(sds[0, 0] - 0.05) < 1e-12


def test_zero_pooled_sd_gives_minimum_variance():
    schemas = make_schemas([("g", 2, 0)])
    coarse = make_coarse(schemas, [25] * 5)
    sigma = {"g:g_c0": 0.0, "g:g_c1": 0.0}
    a, b, _, _ = fit_unit_marginals(coarse, schemas, sigma, "sqrt_n")
    for j in range(2):
        assert abs(beta_variance(a[0, j], b[0, j]) - 1e-6) < 1e-12


def test_boundary_proportion_clamped():
    schemas = make_schemas([("g", 2, 0)])
    units = [AggregationUnit("a", 100, {"g": np.array([0.0, 1.0])})]
    a, b, mean, _ = fit_unit_marginals(stack_units(units), schemas, {"g:g_c0": 0.1, "g:g_c1": 0.1}, "pooled")
    assert mean[0, 0] == 1.0 / 200.0
    assert mean[0, 1] == 1.0 - 1.0 / 200.0
    # implied mean matches the clamped solver input
    for j in range(2):
        assert abs(a[0, j] / (a[0, j] + b[0, j]) - mean[0, j]) < 1e-12


# --- normal CDF / quantile accuracy -------------------------------------------

def test_beta_quantile_inverts_cdf_to_1e10():
    from scipy.special import betainc, betaincinv

    u = np.linspace(1e-6, 1.0 - 1e-6, 2001)
    for a, b in ((2.0, 2.0), (3.0, 12.0), (0.5, 0.5), (40.0, 3.0)):
        x = betaincinv(a, b, u)
        assert np.max(np.abs(betainc(a, b, x) - u)) < 1e-10


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_floored_beta_quantile_is_the_floored_inverse_bit_for_bit(seed):
    # 4,000 units of 0-3 rows each: (a, b) log-uniform over [1e-6, 1e3] or at the sqrt_n variance
    # ceiling (a + b = 1/0.999 - 1); uniforms mix plain draws, the sampler's clip bounds and points
    # within 1e-6 relative of the floor's CDF and of the mass above 1 - 2**-54
    from scipy.special import betainc, betaincinv

    from downscale.copula import _floored_beta_quantile

    rng = np.random.default_rng(seed)
    a, b = 10.0 ** rng.uniform(-6.0, 3.0, (2, 4_000))
    mean = 10.0 ** rng.uniform(-4.0, 0.0, 4_000) / 2.0
    mean = np.where(rng.random(4_000) < 0.5, mean, 1.0 - mean)
    ceiling = rng.random(4_000) < 0.4
    a[ceiling], b[ceiling] = solve_beta(mean[ceiling], 1.0)
    counts = rng.integers(0, 4, 4_000)
    a_rows, b_rows = np.repeat(a, counts), np.repeat(b, counts)
    near = betainc(a_rows, b_rows, 1e-12) * (1.0 + rng.uniform(-1e-6, 1e-6, a_rows.size))
    top = 1.0 - betainc(b_rows, a_rows, 2.0**-54) * (1.0 + rng.uniform(-1e-6, 1e-6, a_rows.size))
    u = np.choose(rng.integers(0, 5, a_rows.size), [rng.random(a_rows.size), np.full(a_rows.size, 1e-15),
                                                    np.full(a_rows.size, 1.0 - 1e-15), near, top])
    expected = np.maximum(betaincinv(a_rows, b_rows, u), 1e-12)
    np.testing.assert_array_equal(_floored_beta_quantile(a, b, u, counts), expected)
    # units without rows take no cut, so parameters no row uses do not reach the output
    a[counts == 0] = b[counts == 0] = np.nan
    np.testing.assert_array_equal(_floored_beta_quantile(a, b, u, counts), expected)
    assert _floored_beta_quantile(a, b, np.empty(0), np.zeros_like(counts)).shape == (0,)


def test_generate_calls_the_beta_inverse_only_where_its_result_is_unknown(monkeypatch):
    # the inverse is the costly part of sampling: a draw whose quantile floors to 1e-12 or rounds to
    # 1.0 takes its unit's cut instead (on the default study most beta cells sit at the variance
    # ceiling, where most draws round to 1.0); only a uniform within the cuts' 1e-6 relative margin
    # may still reach the inverse with such a result (one of 3,859 here)
    from scipy.special import betainc

    from downscale import aggregate, copula, generate
    from downscale.evaluation import default_study_config, generate_truth

    inverse, calls = copula.betaincinv, []

    def counted(a, b, u):
        calls.append((a, b, u, inverse(a, b, u)))
        return calls[-1][-1]

    config = default_study_config()
    config["units"] = 60
    truth, schemas = generate_truth(config, stream(3, "truth"))
    monkeypatch.setattr(copula, "betaincinv", counted)
    generate(aggregate(truth, schemas), schemas, seed=3, max_train_rows=300)
    a, b, u, result = map(np.concatenate, zip(*calls))
    assert result.size > 1_000
    floored = np.maximum(result, 1e-12) == 1e-12
    assert not np.any(floored & (u < betainc(a, b, 1e-12) * (1.0 - 1e-6))), "an inverse the floor's cut skips"
    assert floored.sum() <= 1
    one = result == 1.0
    assert not np.any(one & (1.0 - u < betainc(b, a, 2.0**-54) * (1.0 - 1e-6))), "an inverse the cut at 1.0 skips"
    assert one.sum() <= 1


def test_normal_cdf_reference_values():
    assert ndtr(0.0) == 0.5
    # reference values accurate to full double precision
    assert abs(ndtr(1.0) - 0.8413447460685429) < 1e-12
    assert abs(ndtr(-2.0) - 0.022750131948179195) < 1e-12
    assert abs(ndtri(0.975) - 1.959963984540054) < 1e-12
    # round trip limited to |z| <= 5: beyond that the representation of u
    # near 1.0 itself caps attainable round-trip accuracy
    z = np.linspace(-5, 5, 1001)
    assert np.max(np.abs(ndtri(ndtr(z)) - z)) < 1e-9


# --- Gaussian copula sampling ---------------------------------------------------

def manual_model(entries, specs, n):
    """A one-unit model from (kind, a, b, mean, sd) rows; beta coordinates get a class label."""
    coords = [Coordinate(f"x{j}", "c" if kind == BETA else None) for j, (kind, *_) in enumerate(specs)]
    a, b, mean, sd = np.array([spec[1:] for spec in specs], dtype=float).T[:, None, :]
    return CopulaModel(
        coordinates=coords,
        correlation=CorrelationMatrix.from_entries(np.array(entries, dtype=float)),
        unit_ids=["unit"],
        populations=np.array([n]),
        a=a, b=b, mean=mean, sd=sd,
        pooled_sigma={c.label: 0.0 for c in coords},
    )


def test_identity_correlation_beta_outputs_uncorrelated():
    specs = [(BETA, 2.0, 2.0, 0.5, 0.1) for _ in range(3)]
    model = manual_model(np.eye(3), specs, 100_000)
    draws = sample_unit_coordinates(model, "unit", stream(7, "mc"))
    corr = np.corrcoef(draws, rowvar=False)
    off = corr[~np.eye(3, dtype=bool)]
    assert np.max(np.abs(off)) < 0.03


def test_gaussian_copula_spearman_identity_lognormal():
    rho = 0.8
    entries = [[1.0, rho], [rho, 1.0]]
    specs = [(LOGNORMAL, 0.0, 1.0, 1.0, 1.0), (LOGNORMAL, 1.0, 0.5, 1.0, 1.0)]
    model = manual_model(entries, specs, 100_000)
    draws = sample_unit_coordinates(model, "unit", stream(11, "mc"))
    observed = spearmanr(draws[:, 0], draws[:, 1]).statistic
    expected = (6.0 / math.pi) * math.asin(rho / 2.0)
    assert abs(observed - expected) < 0.03


def test_marginal_law_kolmogorov_smirnov():
    # one-sample KS below the 95% band 1.63/sqrt(N) at N = 10^4
    n = 10_000
    specs = [
        (BETA, 2.0, 2.0, 0.5, 0.1),
        (BETA, 3.0, 12.0, 0.2, 0.1),
        (LOGNORMAL, -0.34657359027997264, 0.8325546111576977, 1.0, 1.0),
    ]
    model = manual_model(np.eye(3), specs, n)
    draws = sample_unit_coordinates(model, "unit", stream(13, "ks"))
    for j in range(len(specs)):
        x = np.sort(draws[:, j])
        cdf = model.cdf("unit", j, x)
        grid = np.arange(1, n + 1) / n
        ks = max(np.max(np.abs(cdf - grid)), np.max(np.abs(cdf - (grid - 1.0 / n))))
        assert ks < 1.63 / math.sqrt(n), f"coordinate {j}: KS {ks}"


def test_sampling_deterministic():
    specs = [(BETA, 2.0, 3.0, 0.4, 0.1), (LOGNORMAL, 0.0, 0.3, 1.05, 0.3)]
    model = manual_model([[1.0, 0.4], [0.4, 1.0]], specs, 500)
    a = sample_unit_coordinates(model, "unit", stream(3, "x", "unit"))
    b = sample_unit_coordinates(model, "unit", stream(3, "x", "unit"))
    np.testing.assert_array_equal(a, b)
    c = sample_unit_coordinates(model, "unit", stream(4, "x", "unit"))
    assert not np.array_equal(a, c)


def test_batched_sampling_matches_per_unit_path():
    # a unit's draws do not depend on which other units are sampled with it
    schemas = make_schemas([("g", 3, 0), ("inc", None, 0)])
    coarse = make_coarse(schemas, [17, 5, 40, 8, 23, 11])
    model = fit_copula(coarse, schemas)
    rng_for_unit = lambda uid: stream(9, "core", uid)
    per_unit = [sample_all_units(model, schemas, IndividualTable([uid], [n], {}), rng_for_unit)[0]
                for uid, n in zip(coarse.unit_ids, coarse.populations.tolist())]
    batched = sample_all_units(model, schemas, IndividualTable(coarse.unit_ids, coarse.populations, {}),
                               rng_for_unit)
    for a, b in zip(per_unit, batched):
        assert a.unit_id == b.unit_id
        np.testing.assert_array_equal(a.columns["g"], b.columns["g"])
        np.testing.assert_array_equal(a.columns["inc"], b.columns["inc"])


def test_sampled_block_shapes_and_normalization():
    schemas = make_schemas([("g", 3, 0), ("inc", None, 0)])
    coarse = make_coarse(schemas, [30] * 10)
    model = fit_copula(coarse, schemas)
    [block] = sample_all_units(model, schemas, IndividualTable(["u0003"], [30], {}),
                               lambda uid: stream(0, "core", uid))
    assert block.columns["g"].shape == (30, 3)
    np.testing.assert_allclose(block.columns["g"].sum(axis=1), 1.0, atol=1e-12)
    assert block.columns["inc"].shape == (30,)
    assert np.all(block.columns["inc"] >= 0)


def test_model_json_round_trip():
    schemas = make_schemas([("g", 2, 0), ("inc", None, 0)])
    coarse = make_coarse(schemas, [12, 30, 44, 9, 15])
    model = fit_copula(coarse, schemas)
    back = model_from_json(model_to_json(model))
    np.testing.assert_array_equal(back.correlation.entries, model.correlation.entries)
    a = sample_unit_coordinates(model, "u0002", stream(1, "s", "u0002"))
    b = sample_unit_coordinates(back, "u0002", stream(1, "s", "u0002"))
    np.testing.assert_array_equal(a, b)


def _strict_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


@given(
    seed=st.integers(0, 2**32 - 1),
    n_units=st.integers(1, 12),
    classes=st.lists(st.integers(2, 4), min_size=1, max_size=2),
    continuous=st.booleans(),
    edges=st.booleans(),
)
@settings(max_examples=25, deadline=None)
def test_model_file_round_trip_property(tmp_path_factory, seed, n_units, classes, continuous, edges):
    schemas = make_schemas([(f"g{k}", c, 0) for k, c in enumerate(classes)] + [("x", None, 0)] * continuous)
    rng = np.random.default_rng(seed)
    # units out of id order: the saved file lists them sorted, so the loaded rows are permuted
    units = make_units(schemas, rng.integers(1, 30, n_units), rng)[::-1]
    if edges:
        # population 1, proportions of exactly 1 and 0, and a zero mean (a point mass at 0)
        first = units[-1]
        units[-1] = AggregationUnit(first.unit_id, 1, first.values)
        first.values["g0"] = np.eye(classes[0])[0]
        if continuous:
            first.values["x"] = 0.0
    coarse = stack_units(units)
    model = fit_copula(coarse, schemas)
    dim = len(model.coordinates)
    if n_units < dim + 2:
        np.testing.assert_array_equal(model.correlation.entries, np.eye(dim))
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(path, model)
    json.loads(path.read_text(), parse_constant=_strict_constant)
    back, predictors = load_model(path)
    assert predictors == []
    assert (back.coordinates, back.unit_ids) == (model.coordinates, sorted(model.unit_ids))
    assert (back.pooled_sigma, back.sd_mode) == (model.pooled_sigma, model.sd_mode)
    np.testing.assert_array_equal(back.correlation.entries, model.correlation.entries)
    rows = back.rows(model.unit_ids)
    for name in ("populations", "a", "b", "mean", "sd"):
        np.testing.assert_array_equal(getattr(back, name)[rows], getattr(model, name))

    def draw(m):
        return sample_all_units(m, schemas, IndividualTable(coarse.unit_ids, coarse.populations, {}),
                                lambda uid: stream(seed, "core", uid))

    for fitted, loaded in zip(draw(model), draw(back)):
        for name, column in fitted.columns.items():
            assert column.tobytes() == loaded.columns[name].tobytes()


def test_fit_copula_identity_fallback():
    schemas = make_schemas([("g", 3, 0), ("inc", None, 0)])
    coarse = make_coarse(schemas, [10, 20, 30])  # 3 units, 4 coordinates
    model = fit_copula(coarse, schemas)
    np.testing.assert_array_equal(model.correlation.entries, np.eye(4))
    assert model.unit_ids == coarse.unit_ids


def test_pooled_sigma_unbiased_estimator():
    rng = np.random.default_rng(8)
    values = rng.uniform(0, 1, size=(25, 2))
    coarse, schemas = continuous_coarse(values)
    sigma = pooled_sigmas(coarse.matrix(schemas), coordinates(schemas))
    assert abs(sigma["x0"] - values[:, 0].std(ddof=1)) < 1e-12
