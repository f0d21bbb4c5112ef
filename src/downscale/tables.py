"""Coarse and individual tables plus their CSV formats.

Coarse CSV layout: one row per aggregation unit, a ``unit_id`` column, a
``population`` column, then one column per continuous feature (the mean),
``f:class`` columns for categorical proportions, or a single ``f`` column
for a binary feature holding the first class's proportion.

Individual CSV layout: ``unit_id``, ``person_index``, one column per
feature holding a class label or a nonnegative real.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DataError
from .schema import FeatureSchema, coordinates

PROPORTION_SUM_TOL = 1e-3


@dataclass
class AggregationUnit:
    """Aggregate observations for one unit: population plus per-feature values."""

    unit_id: str
    population: int
    # categorical feature -> (k,) proportion vector; continuous feature -> float mean
    values: dict[str, np.ndarray | float]


@dataclass
class CoarseTable:
    units: list[AggregationUnit]

    def __post_init__(self):
        self._by_id = {u.unit_id: u for u in self.units}
        if len(self._by_id) != len(self.units):
            raise DataError("coarse table has duplicate unit ids")

    def unit(self, unit_id: str) -> AggregationUnit:
        return self._by_id[unit_id]

    @property
    def unit_ids(self) -> list[str]:
        return [u.unit_id for u in self.units]

    def total_population(self) -> int:
        return sum(u.population for u in self.units)

    @property
    def populations(self) -> np.ndarray:
        """Per-unit populations, in unit order."""
        return np.array([u.population for u in self.units])

    def matrix(self, schemas: list[FeatureSchema]) -> np.ndarray:
        """Units-by-coordinates matrix of aggregate values (proportions and
        means), columns in ``coordinates(schemas)`` order.

        Built on each call, so it follows later edits of ``unit.values``.
        """
        columns = [np.array([u.values[sc.name] for u in self.units], dtype=float) for sc in schemas]
        return np.column_stack(columns)


@dataclass
class UnitBlock:
    """All generated rows of one unit, stored column-wise per feature.

    Finalized categorical columns are 1-D integer arrays of class indices;
    intermediate categorical columns are (n, k) probability matrices.
    Continuous columns are 1-D float arrays.  A block read from a CSV keeps
    its rows' ascending ``person_index`` values; a generated block has none
    and its rows are numbered by position.
    """

    unit_id: str
    size: int
    columns: dict[str, np.ndarray] = field(default_factory=dict)
    person_index: np.ndarray | None = None


@dataclass
class IndividualTable:
    blocks: list[UnitBlock]

    def __post_init__(self):
        self._by_id = {b.unit_id: b for b in self.blocks}

    def block(self, unit_id: str) -> UnitBlock:
        return self._by_id[unit_id]

    @property
    def unit_ids(self) -> list[str]:
        return [b.unit_id for b in self.blocks]

    def total_rows(self) -> int:
        return sum(b.size for b in self.blocks)

    def is_finalized(self, schemas: list[FeatureSchema]) -> bool:
        for block in self.blocks:
            for sc in schemas:
                col = block.columns.get(sc.name)
                if col is None or (sc.is_categorical and col.ndim != 1):
                    return False
        return True


def validate_unit(unit: AggregationUnit, schemas: list[FeatureSchema]) -> AggregationUnit:
    """Check (and renormalize) one unit's aggregate values against the schema."""
    if unit.population < 1:
        raise DataError(f"load_coarse_csv: unit {unit.unit_id!r} has population {unit.population} < 1")
    for sc in schemas:
        if sc.name not in unit.values:
            raise DataError(f"load_coarse_csv: unit {unit.unit_id!r} missing feature {sc.name!r}")
        val = unit.values[sc.name]
        if sc.is_categorical:
            vec = np.asarray(val, dtype=float)
            if vec.shape != (sc.n_classes,):
                raise DataError(
                    f"load_coarse_csv: unit {unit.unit_id!r} feature {sc.name!r} "
                    f"expects {sc.n_classes} proportions, got shape {vec.shape}"
                )
            if not np.all(np.isfinite(vec)):
                raise DataError(f"load_coarse_csv: non-finite proportion for {sc.name!r} in {unit.unit_id!r}")
            if vec.min() < 0.0 or vec.max() > 1.0:
                raise DataError(
                    f"load_coarse_csv: proportion outside [0, 1] for {sc.name!r} in unit {unit.unit_id!r}"
                )
            total = vec.sum()
            if abs(total - 1.0) > PROPORTION_SUM_TOL:
                raise DataError(
                    f"load_coarse_csv: proportions of {sc.name!r} in unit {unit.unit_id!r} "
                    f"sum to {total:.6f} (tolerance {PROPORTION_SUM_TOL})"
                )
            # renormalize rounded published proportions, but leave float noise
            # alone so write -> load is the exact identity
            if abs(total - 1.0) > 1e-12:
                vec = vec / total
            unit.values[sc.name] = vec
        else:
            x = float(val)
            if not math.isfinite(x):
                raise DataError(f"load_coarse_csv: non-finite mean for {sc.name!r} in unit {unit.unit_id!r}")
            if x < 0.0:
                raise DataError(
                    f"load_coarse_csv: negative mean {x} for continuous feature {sc.name!r} "
                    f"in unit {unit.unit_id!r}"
                )
            unit.values[sc.name] = x
    return unit


def load_coarse_csv(path: str | Path, schemas: list[FeatureSchema]) -> CoarseTable:
    """Read a coarse CSV into a validated CoarseTable.

    Proportion vectors within 1e-3 of summing to one are renormalized;
    larger deviations are rejected.  Binary categorical features may be
    given as a single column holding the first class's proportion.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"load_coarse_csv: no such file {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"load_coarse_csv: {path} is empty (no header row)")
        header = set(reader.fieldnames)
        if "unit_id" not in header:
            raise DataError("load_coarse_csv: missing required column 'unit_id'")
        if "population" not in header:
            raise DataError("load_coarse_csv: missing required column 'population'")
        rows = list(reader)
    if not rows:
        raise DataError(f"load_coarse_csv: {path} has no data rows")

    units = []
    for row in rows:
        unit_id = row["unit_id"]
        population = _parse_cell(int, row["population"], "load_coarse_csv", "population", unit_id)
        values: dict[str, np.ndarray | float] = {}
        for sc in schemas:
            if sc.is_categorical:
                class_cols = [f"{sc.name}:{c}" for c in sc.classes]
                if all(col in header for col in class_cols):
                    values[sc.name] = np.array(
                        [_parse_cell(float, row[c], "load_coarse_csv", c, unit_id) for c in class_cols]
                    )
                elif sc.n_classes == 2 and sc.name in header:
                    p = _parse_cell(float, row[sc.name], "load_coarse_csv", sc.name, unit_id)
                    values[sc.name] = np.array([p, 1.0 - p])
                else:
                    raise DataError(
                        f"load_coarse_csv: no columns for categorical feature {sc.name!r} "
                        f"(expected {class_cols} or a single binary column)"
                    )
            else:
                if sc.name not in header:
                    raise DataError(f"load_coarse_csv: no column for continuous feature {sc.name!r}")
                values[sc.name] = _parse_cell(float, row[sc.name], "load_coarse_csv", sc.name, unit_id)
        units.append(validate_unit(AggregationUnit(unit_id, population, values), schemas))
    return CoarseTable(units)


def _parse_cell(convert, text, where, column, unit_id):
    try:
        return convert(text)
    except (TypeError, ValueError):
        raise DataError(f"{where}: bad value {text!r} in column {column!r}, unit {unit_id!r}") from None


def _parse_column(convert, rows, column, where, unit_id) -> list:
    try:
        return [convert(row[column]) for row in rows]
    except (TypeError, ValueError):
        # second, per-cell pass only to name the bad cell
        return [_parse_cell(convert, row[column], where, column, unit_id) for row in rows]


def write_coarse_csv(path: str | Path, coarse: CoarseTable, schemas: list[FeatureSchema]) -> None:
    """Write a coarse table in canonical form (all class columns explicit)."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["unit_id", "population"] + [c.label for c in coordinates(schemas)])
        for unit, values in zip(coarse.units, coarse.matrix(schemas).tolist()):
            writer.writerow([unit.unit_id, unit.population] + [repr(v) for v in values])


def aggregate(individuals: IndividualTable, schemas: list[FeatureSchema]) -> CoarseTable:
    """Re-aggregate an individual table: class counts / n and arithmetic means."""
    units = []
    for block in individuals.blocks:
        values: dict[str, np.ndarray | float] = {}
        for sc in schemas:
            col = block.columns.get(sc.name)
            if col is None:
                raise DataError(f"aggregate: unit {block.unit_id!r} missing feature {sc.name!r}")
            if sc.is_categorical:
                if col.ndim != 1:
                    raise DataError(
                        f"aggregate: unfinalized cells present for {sc.name!r} in unit {block.unit_id!r}"
                    )
                counts = np.bincount(col, minlength=sc.n_classes)
                values[sc.name] = counts / block.size
            else:
                values[sc.name] = float(np.mean(col))
        units.append(AggregationUnit(block.unit_id, block.size, values))
    return CoarseTable(units)


def write_individual_csv(path: str | Path, table: IndividualTable, schemas: list[FeatureSchema]) -> None:
    """Write a finalized individual table (class labels, float reprs)."""
    if not table.is_finalized(schemas):
        raise DataError("write_individual_csv: table contains unfinalized cells")
    cols = ["unit_id", "person_index"] + [sc.name for sc in schemas]
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for block in table.blocks:
            feature_cols = []
            for sc in schemas:
                col = block.columns[sc.name]
                if sc.is_categorical:
                    feature_cols.append([sc.classes[i] for i in col])
                else:
                    feature_cols.append([repr(float(v)) for v in col])
            for k in range(block.size):
                writer.writerow([block.unit_id, k] + [fc[k] for fc in feature_cols])


def load_individual_csv(path: str | Path, schemas: list[FeatureSchema]) -> IndividualTable:
    """Read a finalized individual table written by write_individual_csv.

    A cell that does not parse, or a ``person_index`` repeated within a
    unit, raises ``DataError`` naming the file, the column and the value.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"load_individual_csv: no such file {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataError(f"load_individual_csv: {path} is empty")
        for col in ["unit_id", "person_index"] + [sc.name for sc in schemas]:
            if col not in reader.fieldnames:
                raise DataError(f"load_individual_csv: missing column {col!r}")
        rows = list(reader)
    if not rows:
        raise DataError(f"load_individual_csv: {path} has no data rows")

    class_index = {sc.name: {c: i for i, c in enumerate(sc.classes)} for sc in schemas if sc.is_categorical}
    blocks: list[UnitBlock] = []
    order: list[str] = []
    grouped: dict[str, list[dict]] = {}
    for row in rows:
        uid = row["unit_id"]
        if uid not in grouped:
            grouped[uid] = []
            order.append(uid)
        grouped[uid].append(row)
    where = f"load_individual_csv: {path}"
    for uid in order:
        indices = _parse_column(int, grouped[uid], "person_index", where, uid)
        if len(set(indices)) != len(indices):
            repeated = sorted({i for i in indices if indices.count(i) > 1})
            raise DataError(f"{where}: duplicate person_index {repeated[:5]} in unit {uid!r}")
        pairs = sorted(zip(indices, grouped[uid]), key=lambda pair: pair[0])
        unit_rows = [r for _, r in pairs]
        n = len(unit_rows)
        columns: dict[str, np.ndarray] = {}
        for sc in schemas:
            if sc.is_categorical:
                idx = np.empty(n, dtype=np.int64)
                lookup = class_index[sc.name]
                for k, row in enumerate(unit_rows):
                    label = row[sc.name]
                    if label not in lookup:
                        raise DataError(
                            f"load_individual_csv: unknown class {label!r} for feature {sc.name!r}"
                        )
                    idx[k] = lookup[label]
                columns[sc.name] = idx
            else:
                columns[sc.name] = np.array(_parse_column(float, unit_rows, sc.name, where, uid))
        person_index = np.array([i for i, _ in pairs], dtype=np.int64)
        blocks.append(UnitBlock(uid, n, columns, person_index))
    return IndividualTable(blocks)
