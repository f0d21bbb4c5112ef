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
_U_CLIP = 1e-15

BETA = "beta"
LOGNORMAL = "lognormal"


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


@dataclass
class MarginalSpec:
    """Marginal law of one coordinate in one unit, solved from (mean, sd).

    ``mean`` stores the solver input (proportions of exactly 0 or 1 are
    clamped by half a count before solving, so the implied mean always
    matches ``mean``).
    """

    kind: str
    a: float  # beta alpha / lognormal mu_log
    b: float  # beta beta / lognormal sigma_log
    mean: float
    sd: float

    def cdf(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.kind == BETA:
            return betainc(self.a, self.b, np.clip(x, 0.0, 1.0))
        if self.b == 0.0:
            return (x >= math.exp(self.a)).astype(float)
        out = np.zeros_like(x)
        pos = x > 0
        out[pos] = ndtr((np.log(x[pos]) - self.a) / self.b)
        return out

    def implied_mean(self) -> float:
        if self.kind == BETA:
            return self.a / (self.a + self.b)
        return math.exp(self.a + 0.5 * self.b**2)


@dataclass
class CopulaModel:
    coordinates: list[Coordinate]
    correlation: CorrelationMatrix
    # unit_id -> list of MarginalSpec aligned with coordinates
    marginals: dict[str, list[MarginalSpec]]
    # coordinate label -> pooled sd of unit-level aggregates
    pooled_sigma: dict[str, float]
    populations: dict[str, int]
    sd_mode: str = DEFAULT_SD_MODE

    def __post_init__(self):
        dim = len(self.coordinates)
        if self.correlation.dim != dim:
            raise EstimationError(f"copula model: correlation does not fit the {dim} coordinates")
        for unit_id, specs in self.marginals.items():
            if len(specs) != dim:
                raise EstimationError(f"copula model: unit {unit_id!r} marginals do not fit "
                                      f"the {dim} coordinates")


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


def solve_lognormal(mean: float, sd: float) -> tuple[float, float]:
    """Solve (mu_log, sigma_log) from mean and standard deviation.

    sigma_log^2 = ln(1 + sd^2/mean^2), mu_log = ln(mean) - sigma_log^2/2;
    the implied mean is exact, sd = 0 yields a point mass at the mean.  A
    mean of exactly 0 is a point mass at 0: (-inf, 0.0).
    """
    if mean < 0.0:
        raise EstimationError(f"solve_lognormal: negative mean {mean}")
    if sd < 0.0:
        raise EstimationError(f"solve_lognormal: negative sd {sd}")
    if mean == 0.0:
        return -math.inf, 0.0
    sigma_sq = math.log1p((sd / mean) ** 2)
    return math.log(mean) - 0.5 * sigma_sq, math.sqrt(sigma_sq)


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
        sub = np.corrcoef(values[:, live], rowvar=False)
        sub[~np.isfinite(sub)] = 0.0
        corr[np.ix_(live, live)] = sub
    off = ~np.eye(dim, dtype=bool)
    corr[off] = np.clip(corr[off], -_CORR_CLIP, _CORR_CLIP)
    corr = 0.5 * (corr + corr.T)
    np.fill_diagonal(corr, 1.0)
    return nearest_pd_repair(corr)


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
) -> dict[str, list[MarginalSpec]]:
    """Solve per-unit marginal laws for every coordinate.

    Proportion coordinates get beta marginals with the mean pre-clamped
    into [1/(2n), 1 - 1/(2n)]; continuous coordinates get lognormal ones.
    All units receive marginals, flagged or not.
    """
    coords = coordinates(schemas)
    pooled = np.array([pooled_sigma[c.label] for c in coords])
    means = coarse.matrix(schemas)
    populations = coarse.populations.astype(float)[:, None]
    if sd_mode == "paper":
        sigmas = pooled * math.sqrt(len(coarse.units)) * np.sqrt(populations)
    elif sd_mode == "sqrt_n":
        sigmas = pooled * np.sqrt(populations)
    elif sd_mode == "pooled":
        sigmas = np.broadcast_to(pooled, means.shape)
    else:
        raise EstimationError(f"unknown sd_mode {sd_mode!r} (expected one of {SD_MODES})")
    kinds = [BETA if c.class_label is not None else LOGNORMAL for c in coords]
    beta = np.array(kinds) == BETA
    half_count = 1.0 / (2.0 * populations)
    means[:, beta] = np.clip(means[:, beta], half_count, 1.0 - half_count)
    alphas = np.zeros_like(means)
    betas = np.zeros_like(means)
    alphas[:, beta], betas[:, beta] = solve_beta(means[:, beta], sigmas[:, beta])
    out: dict[str, list[MarginalSpec]] = {}
    rows = zip(coarse.units, means.tolist(), sigmas.tolist(), alphas.tolist(), betas.tolist())
    for unit, mean_row, sd_row, a_row, b_row in rows:
        specs = []
        for kind, mean, sd, a, b in zip(kinds, mean_row, sd_row, a_row, b_row):
            if kind == LOGNORMAL:
                a, b = solve_lognormal(mean, sd)
            specs.append(MarginalSpec(kind, a, b, mean, sd))
        out[unit.unit_id] = specs
    return out


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
    keep = np.array([u.unit_id not in exclude for u in coarse.units], dtype=bool)
    unflagged = coarse.matrix(schemas)[keep]
    try:
        correlation = estimate_correlation(unflagged)
    except EstimationError:
        correlation = CorrelationMatrix.from_entries(np.eye(len(coords)))
    sigma = pooled_sigmas(unflagged, coords)
    marginals = fit_unit_marginals(coarse, schemas, sigma, sd_mode)
    populations = {u.unit_id: u.population for u in coarse.units}
    return CopulaModel(coords, correlation, marginals, sigma, populations, sd_mode)


def _draw_coordinates(model: CopulaModel, unit_ids: list[str], rng_for_unit) -> np.ndarray:
    """Stacked raw coordinate draws for ``unit_ids``, ``model.populations`` rows each.

    Each unit draws its own correlated normals Z from ``rng_for_unit(unit_id)``
    through the Cholesky factor, so its rows do not depend on which other
    units are sampled.  Every row is F_d^{-1}(Phi(Z_d)), with the quantile
    maps applied across all units in one vectorized call per coordinate.
    """
    dim = len(model.coordinates)
    u_parts = []
    for unit_id in unit_ids:
        if unit_id not in model.marginals:
            raise DataError(f"sample_all_units: unknown unit {unit_id!r}")
        n = model.populations[unit_id]
        z = rng_for_unit(unit_id).standard_normal((n, dim)) @ model.correlation.cholesky_factor.T
        u_parts.append(ndtr(z))
    u = np.clip(np.vstack(u_parts), _U_CLIP, 1.0 - _U_CLIP)
    out = np.empty_like(u)
    spec_rows = [model.marginals[unit_id] for unit_id in unit_ids]
    repeats = np.array([model.populations[unit_id] for unit_id in unit_ids])
    for j in range(dim):
        kind = spec_rows[0][j].kind
        a = np.repeat([row[j].a for row in spec_rows], repeats)
        b = np.repeat([row[j].b for row in spec_rows], repeats)
        if kind == BETA:
            out[:, j] = betaincinv(a, b, u[:, j])
        else:
            col = np.exp(a + b * ndtri(u[:, j]))
            degenerate = b == 0.0
            if degenerate.any():
                col[degenerate] = np.exp(a[degenerate])
            out[:, j] = col
    if not np.all(np.isfinite(out)):
        raise EstimationError("sample_all_units: non-finite draws")
    return out


def sample_unit_coordinates(model: CopulaModel, unit_id: str, rng: np.random.Generator) -> np.ndarray:
    """Raw coordinate draws for one unit: a (population, dim) array."""
    return _draw_coordinates(model, [unit_id], lambda _: rng)


def sample_all_units(
    model: CopulaModel,
    schemas: list[FeatureSchema],
    unit_ids: list[str],
    rng_for_unit,
) -> list[UnitBlock]:
    """Sample every unit into a UnitBlock, each from ``rng_for_unit(unit_id)``.

    Beta draws for the classes of one categorical feature are renormalized
    into that cell's probability vector; continuous draws are stored
    directly.
    """
    draws = _draw_coordinates(model, unit_ids, rng_for_unit)
    table = IndividualTable([UnitBlock(unit_id, model.populations[unit_id]) for unit_id in unit_ids])
    j = 0
    for sc in schemas:
        if sc.is_categorical:
            raw = np.maximum(draws[:, j : j + sc.n_classes], _PROB_FLOOR)
            table.set_column(sc.name, raw / raw.sum(axis=1, keepdims=True))
            j += sc.n_classes
        else:
            table.set_column(sc.name, draws[:, j].copy())
            j += 1
    return table.blocks


def model_to_json(model: CopulaModel) -> dict:
    """Plain-JSON form of a model; a point mass at 0 stores ``mu_log`` = -inf as null."""
    return {
        "sd_mode": model.sd_mode,
        "coordinates": [[c.feature, c.class_label] for c in model.coordinates],
        "correlation": model.correlation.entries.tolist(),
        "pooled_sigma": model.pooled_sigma,
        "populations": model.populations,
        "marginals": {
            unit_id: [[s.kind, None if s.a == -math.inf else s.a, s.b, s.mean, s.sd] for s in specs]
            for unit_id, specs in model.marginals.items()
        },
    }


def model_from_json(doc: dict) -> CopulaModel:
    """Inverse of ``model_to_json``; a malformed document raises a builtin error or ``EstimationError``.

    Every parameter must be finite, except the ``mu_log`` of -inf of a
    point mass at 0 (``sigma_log`` 0); beta parameters must be positive.
    """
    coords = [Coordinate(f, c) for f, c in doc["coordinates"]]
    correlation = CorrelationMatrix.from_entries(np.array(doc["correlation"], dtype=float))
    marginals = {
        unit_id: [MarginalSpec(kind, -math.inf if a is None else float(a), float(b), float(mean), float(sd))
                  for kind, a, b, mean, sd in specs]
        for unit_id, specs in doc["marginals"].items()
    }
    for unit_id, specs in marginals.items():
        for s in specs:
            point_mass = s.kind == LOGNORMAL and s.a == -math.inf and s.b == 0.0
            finite = all(map(math.isfinite, (s.b, s.mean, s.sd))) and (point_mass or math.isfinite(s.a))
            if s.kind not in (BETA, LOGNORMAL) or not finite or (s.kind == BETA and min(s.a, s.b) <= 0.0):
                raise ValueError(f"unit {unit_id!r} has an invalid marginal {s}")
    pooled_sigma = {k: float(v) for k, v in doc["pooled_sigma"].items()}
    if not all(map(math.isfinite, pooled_sigma.values())):
        raise ValueError("a pooled sd is not finite")
    return CopulaModel(
        coords,
        correlation,
        marginals,
        pooled_sigma,
        {k: int(v) for k, v in doc["populations"].items()},
        doc.get("sd_mode", DEFAULT_SD_MODE),
    )


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
    except (KeyError, TypeError, ValueError, AttributeError, EstimationError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)
        raise DataError(f"load_model: {path} is not a valid model file: {detail}") from exc
    return model, predictors
