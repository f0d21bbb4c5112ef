"""Unit-level outlier screening on coarse aggregates.

Each aggregation unit gets a tail score built from per-coordinate
empirical CDFs: extreme values in either tail of any coordinate raise the
score.  The score is rank-based, so it is invariant under strictly
monotone transforms of individual coordinates.  Flagged units are later
excluded from pooled estimation (correlation matrix, pooled deviations)
but still receive generated individuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError
from .schema import FeatureSchema
from .tables import CoarseTable, write_rows_csv

MIN_UNITS_FOR_SCORING = 10
DEFAULT_CONTAMINATION = 0.02


@dataclass
class OutlierReport:
    scores: dict[str, float]
    flagged: set[str] = field(default_factory=set)
    threshold: float = math.inf
    skipped: bool = False


def score_matrix(values: np.ndarray) -> np.ndarray:
    """ECDF tail scores for a units-by-coordinates value matrix.

    score(m) = sum_d -log(min(F_d(x), 1 - F_d(x)) + eps) with eps = 1/(2M),
    where F_d is the empirical CDF of coordinate d across units.  Constant
    coordinates contribute nothing.
    """
    m, d = values.shape
    eps = 1.0 / (2.0 * m)
    scores = np.zeros(m)
    for j in range(d):
        col = values[:, j]
        if col.max() == col.min():
            continue
        order = np.sort(col)
        # right-continuous ECDF: F(x) = #{values <= x} / M
        cdf = np.searchsorted(order, col, side="right") / m
        tail = np.minimum(cdf, 1.0 - cdf)
        scores -= np.log(tail + eps)
    return scores


def score_units(coarse: CoarseTable, schemas: list[FeatureSchema]) -> OutlierReport:
    """Score every unit; with fewer than 10 units scoring is skipped."""
    if len(coarse.unit_ids) < MIN_UNITS_FOR_SCORING:
        return OutlierReport(dict.fromkeys(coarse.unit_ids, 0.0), skipped=True)
    values = coarse.matrix(schemas)
    if not np.all(np.isfinite(values)):
        raise DataError("score_units: non-finite coarse values")
    scores = score_matrix(values)
    return OutlierReport(dict(zip(coarse.unit_ids, scores.tolist())))


def flag_outliers(report: OutlierReport, contamination: float) -> OutlierReport:
    """Flag the top floor(contamination * M) scores.

    The threshold is the (1 - contamination) empirical quantile (the
    largest unflagged score); ties at the boundary are broken by unit
    order.  contamination = 0 disables flagging, as does skipped scoring.
    """
    if not 0.0 <= contamination < 0.5:
        raise DataError(f"flag_outliers: contamination {contamination} outside [0, 0.5)")
    unit_ids = list(report.scores)
    scores = np.array([report.scores[u] for u in unit_ids])
    m = len(unit_ids)
    k = int(math.floor(contamination * m))
    if report.skipped or k == 0:
        threshold = float(scores.max()) if m else math.inf
        return OutlierReport(dict(report.scores), set(), threshold, report.skipped)
    # stable sort on negated scores: ties resolve to earlier units
    order = np.argsort(-scores, kind="stable")
    flagged = {unit_ids[i] for i in order[:k]}
    threshold = float(scores[order[k]])
    return OutlierReport(dict(report.scores), flagged, threshold, False)


def write_report_csv(path: str | Path, report: OutlierReport) -> None:
    rows = [[unit, repr(float(score)), int(unit in report.flagged)] for unit, score in report.scores.items()]
    write_rows_csv(path, [["unit_id", "score", "flagged"]] + rows)
