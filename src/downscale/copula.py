"""Gaussian-copula model over coarse coordinates.

The dependency structure across coordinates (class proportions and
continuous means) is a correlation matrix estimated across aggregation
units and repaired to positive definiteness.  Marginals are solved per
unit from aggregate moments: beta for proportion coordinates, lognormal
for continuous ones (a mean of exactly 0 is a point mass at 0).  Sampling
a unit draws correlated normals through the Cholesky factor, maps them to
uniforms with the normal CDF and applies each coordinate's marginal
quantile function.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import betainc, betaincinv, ndtr, ndtri

from .errors import DataError, EstimationError
from .schema import Coordinate, FeatureSchema, coordinates
from .tables import CoarseTable, IndividualTable, UnitBlock

SD_MODES = ("paper", "sqrt_n", "pooled")
DEFAULT_SD_MODE = "sqrt_n"

_EIG_FLOOR = 1e-8
_MAX_REPAIR_ITER = 100
_CORR_CLIP = 1.0 - 1e-6
_VAR_FLOOR = 1e-6
_VAR_CEIL_FACTOR = 0.999
# betaincinv may underflow degenerate draws to exactly 0; keep renormalization defined
_PROB_FLOOR = 1e-12
# a uniform below betainc(a, b, _PROB_FLOOR) shrunk by this factor has a quantile below the floor,
# and one with 1 - u below betainc(b, a, _ONE_CUT) so shrunk a quantile above 1 - _ONE_CUT
_FLOOR_CUT = 1.0 - 1e-6
# a beta quantile above 1 - 2**-54 rounds to 1.0
_ONE_CUT = 2.0**-54
_U_CLIP = 1e-15

BETA = "beta"
LOGNORMAL = "lognormal"
# one marginal's fields in a model file
_FIELDS = ("kind", "a", "b", "mean", "sd")


@dataclass
class CorrelationMatrix:
    entries: np.ndarray
    cholesky_factor: np.ndarray

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    @classmethod
    def from_entries(cls, entries: np.ndarray) -> "CorrelationMatrix":
        entries = np.asarray(entries, dtype=float)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise EstimationError("correlation matrix must be square")
        if np.max(np.abs(entries - entries.T)) > 1e-12:
            raise EstimationError("correlation matrix must be symmetric within 1e-12")
        if np.max(np.abs(np.diag(entries) - 1.0)) > 1e-12:
            raise EstimationError("correlation matrix must have unit diagonal")
        if not np.all(np.abs(entries) <= 1.0 + 1e-12):  # also rejects NaN
            raise EstimationError("correlation entries must lie in [-1, 1]")
        try:
            factor = np.linalg.cholesky(entries)
        except np.linalg.LinAlgError as exc:
            raise EstimationError("correlation matrix is not positive definite") from exc
        return cls(entries, factor)


@dataclass(eq=False)
class CopulaModel:
    """One correlation over ``coordinates`` plus every unit's marginals as units x coordinates
    arrays, rows in ``unit_ids`` order.  ``a``/``b`` are the beta (alpha, beta) on a class
    proportion's coordinate and the lognormal (mu_log, sigma_log) on a continuous mean's,
    (-inf, 0.0) being a point mass at 0; ``mean``/``sd`` are ``fit_unit_marginals``' inputs."""

    coordinates: list[Coordinate]
    correlation: CorrelationMatrix
    unit_ids: list[str]
    populations: np.ndarray  # int64, one per unit
    a: np.ndarray
    b: np.ndarray
    mean: np.ndarray
    sd: np.ndarray
    # coordinate label -> pooled sd of unit-level aggregates
    pooled_sigma: dict[str, float]
    sd_mode: str = DEFAULT_SD_MODE

    def __post_init__(self):
        if self.correlation.dim != len(self.coordinates):
            raise EstimationError(f"copula model: correlation does not fit {len(self.coordinates)} coordinates")
        self._rows = {unit_id: i for i, unit_id in enumerate(self.unit_ids)}

    def rows(self, unit_ids: list[str]) -> np.ndarray:
        """Row positions of ``unit_ids`` in the marginal arrays; units the model lacks are a DataError."""
        missing = [unit_id for unit_id in unit_ids if unit_id not in self._rows]
        if missing:
            raise DataError(f"copula model lacks marginals for units {missing[:5]}")
        return np.array([self._rows[unit_id] for unit_id in unit_ids], dtype=np.intp)

    def cdf(self, unit_id: str, j: int, x: np.ndarray) -> np.ndarray:
        """CDF at ``x`` of ``unit_id``'s marginal law of coordinate ``j``."""
        a, b = self.a[self._rows[unit_id], j], self.b[self._rows[unit_id], j]
        if not _lognormal(self.coordinates)[j]:
            return betainc(a, b, np.clip(x, 0.0, 1.0))
        if b == 0.0:
            return np.greater_equal(x, math.exp(a)).astype(float)
        with np.errstate(divide="ignore"):  # log(0) = -inf: no mass at or below 0
            return ndtr((np.log(np.maximum(x, 0.0)) - a) / b)


def _lognormal(coords: list[Coordinate]) -> np.ndarray:
    """Per coordinate: a continuous mean's marginal is lognormal, a class proportion's beta."""
    return np.array([c.class_label is None for c in coords], dtype=bool)


def solve_beta(mean, sd):
    """Solve beta parameters from mean and standard deviation, elementwise.

    alpha/(alpha+beta) = mean and alpha*beta/((alpha+beta)^2 (alpha+beta+1))
    = variance, with the variance clamped into the feasible range
    [1e-6, 0.999 * mean * (1 - mean)].  Scalars give numpy float64 scalars;
    arrays broadcast.
    """
    mean = np.asarray(mean, dtype=float)
    sd = np.asarray(sd, dtype=float)
    bad = ~((mean > 0.0) & (mean < 1.0))
    if bad.any():
        raise EstimationError(f"solve_beta: mean {float(mean[bad].flat[0])} outside (0, 1)")
    if (sd < 0.0).any():
        raise EstimationError(f"solve_beta: negative sd {float(sd[sd < 0.0].flat[0])}")
    var = np.minimum(np.maximum(sd * sd, _VAR_FLOOR), _VAR_CEIL_FACTOR * mean * (1.0 - mean))
    t = mean * (1.0 - mean) / var - 1.0
    return mean * t, (1.0 - mean) * t


def solve_lognormal(mean, sd):
    """Solve (mu_log, sigma_log) from mean and standard deviation, elementwise
    as ``solve_beta``.

    sigma_log^2 = ln(1 + sd^2/mean^2), mu_log = ln(mean) - sigma_log^2/2;
    the implied mean is exact, sd = 0 yields a point mass at the mean.  A
    mean of exactly 0 is a point mass at 0: (-inf, 0.0).  Where sd^2/mean^2
    overflows (a tiny mean), sigma_log^2 is 2 (ln sd - ln mean), equal to it in doubles.
    """
    mean = np.asarray(mean, dtype=float)
    sd = np.asarray(sd, dtype=float)
    if (mean < 0.0).any():
        raise EstimationError(f"solve_lognormal: negative mean {float(mean[mean < 0.0].flat[0])}")
    if (sd < 0.0).any():
        raise EstimationError(f"solve_lognormal: negative sd {float(sd[sd < 0.0].flat[0])}")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # mean 0 divides by 0; a tiny one overflows
        ratio_sq = (sd / mean) ** 2
        sigma_sq = np.where(np.isinf(ratio_sq), 2.0 * (np.log(sd) - np.log(mean)), np.log1p(ratio_sq))
        sigma_sq = np.where(mean == 0.0, 0.0, sigma_sq)
        return np.log(mean) - 0.5 * sigma_sq, np.sqrt(sigma_sq)


def nearest_pd_repair(matrix: np.ndarray) -> CorrelationMatrix:
    """Repair a symmetric unit-diagonal matrix to positive definiteness.

    Eigenvalues are clipped at a 1e-8 floor and the matrix rescaled back
    to unit diagonal, repeated until the Cholesky factorization succeeds
    (at most 100 rounds).
    """
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise EstimationError("nearest_pd_repair: matrix must be square")
    if np.max(np.abs(a - a.T)) > 1e-8:
        raise EstimationError("nearest_pd_repair: matrix must be symmetric")
    if np.max(np.abs(np.diag(a) - 1.0)) > 1e-8:
        raise EstimationError("nearest_pd_repair: matrix must have unit diagonal")
    a = 0.5 * (a + a.T)
    np.fill_diagonal(a, 1.0)
    for _ in range(_MAX_REPAIR_ITER + 1):
        try:
            factor = np.linalg.cholesky(a)
            return CorrelationMatrix(a, factor)
        except np.linalg.LinAlgError:
            pass
        w, v = np.linalg.eigh(a)
        w = np.maximum(w, _EIG_FLOOR)
        a = (v * w) @ v.T
        a = 0.5 * (a + a.T)
        d = np.sqrt(np.diag(a))
        a = a / np.outer(d, d)
        np.fill_diagonal(a, 1.0)
    raise EstimationError(f"nearest_pd_repair: not positive definite after {_MAX_REPAIR_ITER} rounds")


def estimate_correlation(values: np.ndarray) -> CorrelationMatrix:
    """Pearson correlation of coordinates across the rows (units) of ``values``.

    Constant coordinates get zero correlation with all others; entries are
    clipped to +/-(1 - 1e-6) and the result PD-repaired.
    """
    m, dim = values.shape
    if m < dim + 2:
        raise EstimationError(
            f"estimate_correlation: {m} unflagged units for {dim} coordinates (need >= dim + 2)"
        )
    if not np.all(np.isfinite(values)):
        raise EstimationError("estimate_correlation: non-finite coarse values")
    live = np.ptp(values, axis=0) > 0.0
    corr = np.eye(dim)
    if live.sum() >= 2:
        with np.errstate(divide="ignore", invalid="ignore"):  # a variance that underflows to 0 gives NaN
            sub = np.corrcoef(values[:, live], rowvar=False)
        sub[~np.isfinite(sub)] = 0.0
        corr[np.ix_(live, live)] = sub
    off = ~np.eye(dim, dtype=bool)
    corr[off] = np.clip(corr[off], -_CORR_CLIP, _CORR_CLIP)
    return nearest_pd_repair(corr)  # symmetrizes and sets the unit diagonal


def pooled_sigmas(values: np.ndarray, coords: list[Coordinate]) -> dict[str, float]:
    """Unbiased per-coordinate sd across the rows (units) of ``values``."""
    if values.shape[0] < 2:
        return {c.label: 0.0 for c in coords}
    sd = values.std(axis=0, ddof=1)
    return {c.label: float(s) for c, s in zip(coords, sd)}


def fit_unit_marginals(
    coarse: CoarseTable,
    schemas: list[FeatureSchema],
    pooled_sigma: dict[str, float],
    sd_mode: str = DEFAULT_SD_MODE,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Solve every unit's marginal law of every coordinate: ``CopulaModel``'s units x
    coordinates arrays (a, b, mean, sd) in unit order.  Proportions get beta marginals
    with the mean pre-clamped into [1/(2n), 1 - 1/(2n)], continuous means lognormal ones;
    flagged units get marginals too."""
    coords = coordinates(schemas)
    pooled = np.array([pooled_sigma[c.label] for c in coords])
    means = coarse.matrix(schemas)
    populations = coarse.populations.astype(float)[:, None]
    if sd_mode == "paper":
        sigmas = pooled * math.sqrt(len(coarse.unit_ids)) * np.sqrt(populations)
    elif sd_mode == "sqrt_n":
        sigmas = pooled * np.sqrt(populations)
    elif sd_mode == "pooled":
        sigmas = np.broadcast_to(pooled, means.shape).copy()
    else:
        raise EstimationError(f"unknown sd_mode {sd_mode!r} (expected one of {SD_MODES})")
    logn = _lognormal(coords)
    beta = ~logn
    half_count = 1.0 / (2.0 * populations)
    means[:, beta] = np.clip(means[:, beta], half_count, 1.0 - half_count)
    alphas, betas = np.zeros((2, *means.shape))
    alphas[:, beta], betas[:, beta] = solve_beta(means[:, beta], sigmas[:, beta])
    alphas[:, logn], betas[:, logn] = solve_lognormal(means[:, logn], sigmas[:, logn])
    return alphas, betas, means, sigmas


def fit_copula(
    coarse: CoarseTable,
    schemas: list[FeatureSchema],
    exclude: set[str] | None = None,
    sd_mode: str = DEFAULT_SD_MODE,
) -> CopulaModel:
    """Fit the full copula model on a schema subset.

    Units in ``exclude`` (flagged outliers) are left out of the correlation
    and pooled-sd estimates but still get marginals.  When too few units
    remain to estimate the correlation, it degrades to the identity
    (independent coordinates).
    """
    coords = coordinates(schemas)
    exclude = exclude or set()
    keep = np.array([unit_id not in exclude for unit_id in coarse.unit_ids], dtype=bool)
    unflagged = coarse.matrix(schemas)[keep]
    try:
        correlation = estimate_correlation(unflagged)
    except EstimationError:
        correlation = CorrelationMatrix.from_entries(np.eye(len(coords)))
    sigma = pooled_sigmas(unflagged, coords)
    marginals = fit_unit_marginals(coarse, schemas, sigma, sd_mode)
    return CopulaModel(coords, correlation, coarse.unit_ids, coarse.populations, *marginals, sigma, sd_mode)


def _floored_beta_quantile(a: np.ndarray, b: np.ndarray, u: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """max(betaincinv(a, b, u), 1e-12) for stacked uniforms ``u``, unit i's (a[i], b[i])
    holding for its ``counts[i]`` rows.  Two per-unit cuts, each its tail's mass shrunk by
    1e-6 relative, skip the inverse where its result is known: a uniform below
    betainc(a, b, 1e-12) has its quantile below the floor and takes the floor, and one with
    1 - u below betainc(b, a, 2**-54) has its quantile within 2**-54 of 1 and takes 1.0.
    A NaN cut sends its rows to the inverse; the cuts are taken only for units with rows."""
    has = np.flatnonzero(counts)
    a, b, counts = a[has], b[has], counts[has]
    low = np.repeat(betainc(a, b, _PROB_FLOOR) * _FLOOR_CUT, counts)
    high = np.repeat(betainc(b, a, _ONE_CUT) * _FLOOR_CUT, counts)
    top = 1.0 - u < high
    live = np.flatnonzero(~(u < low) & ~top)
    unit = np.repeat(np.arange(len(a)), counts)[live]
    out = np.where(top, 1.0, _PROB_FLOOR)
    out[live] = np.maximum(betaincinv(a[unit], b[unit], u[live]), _PROB_FLOOR)
    return out


def _draw_coordinates(model: CopulaModel, unit_ids: list[str], rng_for_unit, counts: np.ndarray) -> np.ndarray:
    """Stacked coordinate draws for ``unit_ids``, ``counts`` rows each.

    Each unit draws its own correlated normals Z from ``rng_for_unit(unit_id)``
    through the Cholesky factor, so its rows do not depend on which other
    units are sampled, and its first k rows not on its count; a unit with no
    rows takes no stream.  Every row is F_d^{-1}(Phi(Z_d)), with the quantile
    maps applied across all units in one vectorized call per coordinate.
    Beta draws are floored at 1e-12 (``_floored_beta_quantile``), so the rows
    whose uniform lies under the floor's CDF, or whose quantile rounds to 1.0,
    skip the costly inverse.
    """
    rows, factor = model.rows(unit_ids), model.correlation.cholesky_factor
    z = np.vstack([rng_for_unit(unit_id).standard_normal((n, len(factor)))
                   for unit_id, n in zip(unit_ids, counts.tolist()) if n])
    # Z Lᵀ term by term: BLAS rounds a row by the shape of its call (one row takes gemv)
    z = sum(z[:, j, None] * factor[:, j] for j in range(len(factor)))
    u = np.clip(ndtr(z), _U_CLIP, 1.0 - _U_CLIP)
    out = np.empty_like(u)
    at = np.repeat(rows, counts)
    for j, lognormal in enumerate(_lognormal(model.coordinates)):
        if not lognormal:
            out[:, j] = _floored_beta_quantile(model.a[rows, j], model.b[rows, j], u[:, j], counts)
        else:
            out[:, j] = np.exp(model.a[at, j] + model.b[at, j] * ndtri(u[:, j]))  # b = 0 gives exp(a), 0 for a = -inf
    if not np.all(np.isfinite(out)):
        raise EstimationError("sample_all_units: non-finite draws")
    return out


def sample_unit_coordinates(model: CopulaModel, unit_id: str, rng: np.random.Generator) -> np.ndarray:
    """Coordinate draws for one unit: a (population, dim) array, beta draws floored at 1e-12."""
    return _draw_coordinates(model, [unit_id], lambda _: rng, model.populations[model.rows([unit_id])])


def sample_all_units(
    model: CopulaModel,
    schemas: list[FeatureSchema],
    table: IndividualTable,
    rng_for_unit,
) -> list[UnitBlock]:
    """Fill ``table`` with draws over ``schemas``: ``table.sizes`` rows per unit,
    each unit from ``rng_for_unit(unit_id)``; return ``table.blocks``.

    Beta draws, floored at 1e-12 by ``_draw_coordinates``, for the classes of
    one categorical feature are renormalized into that cell's probability
    vector; continuous draws are stored directly.
    """
    draws = _draw_coordinates(model, table.unit_ids, rng_for_unit, table.sizes)
    j = 0
    for sc in schemas:
        if sc.is_categorical:
            raw = draws[:, j : j + sc.n_classes]
            table.set_column(sc.name, raw / raw.sum(axis=1, keepdims=True))
            j += sc.n_classes
        else:
            table.set_column(sc.name, draws[:, j].copy())
            j += 1
    # perfbench's copula.sample_all_units.rows counter sums b.size over this list
    return table.blocks


def model_to_json(model: CopulaModel) -> dict:
    """Plain-JSON form of a model; a point mass at 0 stores ``mu_log`` = -inf as null."""
    kinds = np.broadcast_to(np.where(_lognormal(model.coordinates), LOGNORMAL, BETA), model.a.shape)
    cells = np.stack([kinds.astype(object), model.a, model.b, model.mean, model.sd], axis=-1)
    cells[..., 1][np.isneginf(model.a)] = None
    return {
        "sd_mode": model.sd_mode,
        "coordinates": [[c.feature, c.class_label] for c in model.coordinates],
        "correlation": model.correlation.entries.tolist(),
        "pooled_sigma": model.pooled_sigma,
        "populations": dict(zip(model.unit_ids, model.populations.tolist())),
        "marginals": dict(zip(model.unit_ids, cells.tolist())),
    }


def model_from_json(doc: dict) -> CopulaModel:
    """Inverse of ``model_to_json``; a malformed document raises a builtin error or
    ``EstimationError``, a bad population or marginal a ``ValueError`` naming its unit (and
    coordinate): populations are integers >= 1, marginal kinds their coordinates', parameters
    finite numbers (bar a point mass's ``mu_log`` of -inf), beta ones > 0, ``sigma_log`` >= 0."""
    coords = [Coordinate(f, c) for f, c in doc["coordinates"]]
    correlation = CorrelationMatrix.from_entries(np.array(doc["correlation"], dtype=float))
    marginals, populations = doc["marginals"], doc["populations"]
    stray = sorted(marginals.keys() ^ populations.keys())
    if stray:
        raise ValueError(f"unit {stray[0]!r} has " + ("marginals but no population" if stray[0] in marginals
                                                         else "a population but no marginals"))
    unit_ids = list(marginals)
    shape = (len(unit_ids), len(coords), len(_FIELDS))
    cells = np.array([marginals[unit_id] for unit_id in unit_ids], dtype=object)
    if unit_ids and cells.shape != shape:
        raise ValueError(_misshapen(marginals, coords))
    cells = cells.reshape(shape)
    cells[..., 1][np.equal(cells[..., 1], None)] = -math.inf

    def reject(bad, first, what):
        """Name the first flagged marginal field; the last axis of ``bad`` runs from field ``first``."""
        if bad.any():
            i, j, f = np.argwhere(bad)[0] + (0, 0, first)
            raise ValueError(f"unit {unit_ids[i]!r} coordinate {coords[j].label!r} has {what}: "
                             f"{_FIELDS[f]}={cells[i, j, f]!r} (marginal {cells[i, j].tolist()})")

    lognormal = _lognormal(coords)
    kinds = np.where(lognormal, LOGNORMAL, BETA).astype(object)
    reject((cells[..., 0] != kinds)[..., None], 0, "the wrong kind for its coordinate")
    types = np.frompyfunc(type, 1, 1)(cells[..., 1:])
    values = np.where((types == float) | (types == int), cells[..., 1:], math.nan).astype(float)
    finite = np.isfinite(values)
    finite[..., 0] |= lognormal & np.isneginf(values[..., 0]) & (values[..., 1] == 0.0)  # point mass at 0
    reject(~finite, 1, "a parameter that is not a finite number")
    reject(~lognormal[:, None] & (values[..., :2] <= 0.0), 1, "a beta parameter <= 0")
    reject((lognormal & (values[..., 1] < 0.0))[..., None], 2, "a negative sigma_log")
    a, b, mean, sd = values.transpose(2, 0, 1).copy()
    pooled_sigma = {k: float(v) for k, v in doc["pooled_sigma"].items()}
    if not all(map(math.isfinite, pooled_sigma.values())):
        raise ValueError("a pooled sd is not finite")
    for unit_id in unit_ids:
        if type(populations[unit_id]) is not int or populations[unit_id] < 1:  # a bool is no count either
            raise ValueError(f"unit {unit_id!r} has population {populations[unit_id]!r}, not an integer >= 1")
    counts = np.array([populations[unit_id] for unit_id in unit_ids], dtype=np.int64)
    return CopulaModel(coords, correlation, unit_ids, counts, a, b, mean, sd, pooled_sigma,
                       doc.get("sd_mode", DEFAULT_SD_MODE))


def _misshapen(marginals: dict, coords: list[Coordinate]) -> str:
    """Name the first unit and coordinate lacking a [kind, a, b, mean, sd] marginal, or a unit's extras."""
    for unit_id, row in marginals.items():
        for j, coord in enumerate(coords):
            spec = row[j] if isinstance(row, list) and j < len(row) else None
            if not (isinstance(spec, list) and len(spec) == len(_FIELDS)):
                return f"unit {unit_id!r} coordinate {coord.label!r}: marginal {spec!r} is not {list(_FIELDS)}"
        if len(row) != len(coords):
            return f"unit {unit_id!r} has {len(row)} marginals for {len(coords)} coordinates"
    return f"marginals are not units x coordinates x {list(_FIELDS)}"


def save_model(path: str | Path, model: CopulaModel, predictors: list | None = None) -> None:
    """Serialize a fitted model (and optional predictors) for reuse."""
    from .batching import predictor_to_json

    doc = {"copula": model_to_json(model)}
    if predictors is not None:
        doc["predictors"] = [predictor_to_json(p) for p in predictors]
    Path(path).write_text(json.dumps(doc, sort_keys=True, allow_nan=False), encoding="utf-8")


def load_model(path: str | Path) -> tuple[CopulaModel, list]:
    """Read a model saved by ``save_model``; a malformed file is a ``DataError`` naming it."""
    from .batching import predictor_from_json

    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
        model = model_from_json(doc["copula"])
        predictors = [predictor_from_json(p) for p in doc.get("predictors", [])]
    except (KeyError, TypeError, ValueError, AttributeError, OverflowError, EstimationError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise DataError(f"load_model: {path} is not a valid model file: {detail}") from exc
    return model, predictors
