"""Probabilistic matching of partially-identified records to synthetic rows.

An external record with a unit id and a handful of known attributes is
matched within its aggregation unit by a weighted per-attribute distance:
nominal categorical attributes cost 0/1, ordinal ones (banded variables
whose classes are declared in order) cost the normalized class-index
difference, and continuous ones the absolute difference over the pooled
standard deviation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .schema import FeatureSchema
from .tables import IndividualTable


@dataclass
class MatchQuery:
    unit_id: str
    attributes: dict[str, str | float]
    weights: dict[str, float] = field(default_factory=dict)


@dataclass
class MatchResult:
    person_index: int
    distance: float
    cells: dict[str, str | float]


def probabilistic_match(
    query: MatchQuery, pool: IndividualTable, schemas: list[FeatureSchema], k: int = 1
) -> list[MatchResult]:
    """Rank the query unit's synthetic rows by distance; return the top k.

    Ties break by the block's ``person_index``: the row position for a
    generated pool and the CSV's ``person_index`` for a loaded one.  Continuous
    distances are scaled by the feature's standard deviation over the whole
    pool; a zero deviation falls back to the raw absolute difference.
    """
    if k < 1:
        raise DataError(f"probabilistic_match: k must be >= 1, got {k}")
    if not query.attributes:
        raise DataError("probabilistic_match: query declares no known attributes")
    by_name = {sc.name: sc for sc in schemas}
    unknown = [f for f in query.attributes if f not in by_name]
    if unknown:
        raise DataError(f"probabilistic_match: unknown features in query: {unknown}")
    for f, w in query.weights.items():
        if f not in by_name:
            raise DataError(f"probabilistic_match: weight for unknown feature {f!r}")
        if _number(w, f"weight for {f!r}") < 0:
            raise DataError(f"probabilistic_match: negative weight for {f!r}")
    try:
        block = pool.block(query.unit_id)
    except KeyError:
        raise DataError(f"probabilistic_match: unit {query.unit_id!r} absent from pool") from None
    distance = np.zeros(block.size)
    for name, value in query.attributes.items():
        sc = by_name[name]
        weight = float(query.weights.get(name, 1.0))
        col = block.columns[name]
        if sc.is_categorical:
            if col.ndim != 1:
                raise DataError(f"probabilistic_match: unfinalized cells for {name!r}")
            if value not in sc.classes:
                raise DataError(f"probabilistic_match: unknown class {value!r} for feature {name!r}")
            q_idx = sc.classes.index(value)
            if sc.ordinal:
                d = np.abs(col - q_idx) / (sc.n_classes - 1)
            else:
                d = (col != q_idx).astype(float)
        else:
            delta = np.abs(col - _number(value, f"value for {name!r}"))
            sd = float(pool.column(name).std())
            d = delta / sd if sd > 0 else delta
        distance += weight * d

    order = np.lexsort((block.person_index, distance))
    top = order[: min(k, block.size)]
    results = []
    for idx in top:
        cells = {}
        for sc in schemas:
            col = block.columns.get(sc.name)
            if col is None:
                continue
            cells[sc.name] = sc.classes[col[idx]] if sc.is_categorical else float(col[idx])
        results.append(MatchResult(int(block.person_index[idx]), float(distance[idx]), cells))
    return results


def _number(value, what: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise DataError(f"probabilistic_match: {what} is not a number: {value!r}") from None

