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
from collections import Counter
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .errors import DataError
from .schema import FeatureSchema, coordinates

# a k-class feature's proportions may sum to within (k // 2) * PROPORTION_SUM_TOL of one:
# rounding k cells to three decimals moves their sum by at most k/2 whole thousandths
PROPORTION_SUM_TOL = 1e-3


@dataclass(frozen=True)
class AggregationUnit:
    """Aggregate observations for one unit: population plus per-feature values."""

    unit_id: str
    population: int
    # categorical feature -> (k,) proportion vector; continuous feature -> float mean
    values: Mapping[str, np.ndarray | float]


class CoarseTable:
    """Aggregates of every unit, each feature stored once as one read-only array over all
    units in unit order (units x classes proportions, or means); ``populations`` and the
    float64 arrays of ``columns`` are kept without copying.  ``unit(unit_id)`` and ``units``
    build views on each call, whose ``values`` hold read-only rows (and float means)."""

    def __init__(self, unit_ids: list[str], populations, columns: Mapping[str, np.ndarray]):
        self.unit_ids = list(unit_ids)
        self._rows = {unit_id: i for i, unit_id in enumerate(self.unit_ids)}
        if len(self._rows) != len(self.unit_ids):
            repeated = Counter(self.unit_ids).most_common(1)[0][0]
            raise DataError(f"CoarseTable: more than one unit {repeated!r}")
        self.populations = np.asarray(populations, dtype=np.int64)  # one per unit, in unit order
        self._columns = {name: np.asarray(values, dtype=float) for name, values in columns.items()}
        for name, values in [("population", self.populations), *self._columns.items()]:
            if values.shape[:1] != (len(self.unit_ids),):
                raise DataError(f"CoarseTable: {name!r} has shape {values.shape} for {len(self.unit_ids)} units")
            values.flags.writeable = False

    def __reduce__(self):
        # unpickled through the constructor, so the arrays come back read-only
        return CoarseTable, (self.unit_ids, self.populations, self._columns)

    def unit(self, unit_id: str) -> AggregationUnit:
        i = self._rows[unit_id]
        values = {name: col[i] if col.ndim == 2 else float(col[i]) for name, col in self._columns.items()}
        return AggregationUnit(unit_id, int(self.populations[i]), MappingProxyType(values))

    @property
    def units(self) -> list[AggregationUnit]:
        return [self.unit(unit_id) for unit_id in self.unit_ids]

    def total_population(self) -> int:
        return int(self.populations.sum())

    def matrix(self, schemas: list[FeatureSchema]) -> np.ndarray:
        """Units-by-coordinates matrix of aggregate values (proportions and
        means), columns in ``coordinates(schemas)`` order: a new array."""
        return np.column_stack([self._columns[sc.name] for sc in schemas])


@dataclass
class UnitBlock:
    """All rows of one unit, stored column-wise per feature.

    Finalized categorical columns are 1-D integer arrays of class indices;
    intermediate categorical columns are (n, k) probability matrices.
    Continuous columns are 1-D float arrays.  A block read from a CSV keeps
    its rows' ascending ``person_index`` values; a generated block numbers
    its rows 0..size-1.  The blocks of an ``IndividualTable`` are views
    built on the table's first read of them after its last write: their
    ``columns`` mapping and the slices of the table's arrays it holds are
    read-only, as is their ``person_index``.
    """

    unit_id: str
    size: int
    columns: Mapping[str, np.ndarray] = field(default_factory=dict)
    person_index: np.ndarray | None = None

    def __post_init__(self):
        if self.person_index is None:
            self.person_index = np.arange(self.size)


class IndividualTable:
    """Individuals of every unit in ``unit_ids`` order, ``sizes`` rows each; each
    feature is stored once as one read-only array over all rows, which ``column(name)``
    returns, and ``person_index`` is read-only too.

    ``set_column`` is the only writer.  It drops the per-unit views of ``blocks`` and
    ``block(unit_id)``, built on the first read, and the feature's ``pooled_sd``, computed
    on the first read.  A view keeps the arrays it was built from, and nothing can be
    written through it.
    """

    def __init__(self, unit_ids: list[str], sizes, columns: Mapping[str, np.ndarray], person_index=None):
        self.unit_ids = list(unit_ids)
        self._rows = {unit_id: i for i, unit_id in enumerate(self.unit_ids)}
        if len(self._rows) != len(self.unit_ids):
            repeated = Counter(self.unit_ids).most_common(1)[0][0]
            raise DataError(f"IndividualTable: more than one unit {repeated!r}")
        self.sizes = np.array(sizes, dtype=np.int64)  # per-unit row counts
        if self.sizes.shape != (len(self.unit_ids),):
            raise DataError(f"IndividualTable: {self.sizes.size} sizes for {len(self.unit_ids)} units")
        self.sizes.flags.writeable = False
        total = int(self.sizes.sum())
        if person_index is None:  # each unit's rows 0..size-1
            person_index = np.arange(total) - np.repeat(np.cumsum(self.sizes) - self.sizes, self.sizes)
        self.person_index = np.asarray(person_index, dtype=np.int64)
        if self.person_index.shape != (total,):
            raise DataError(f"IndividualTable: person_index has shape {self.person_index.shape} for {total} rows")
        self.person_index.flags.writeable = False
        self._columns: dict[str, np.ndarray] = {}
        self._sd: dict[str, float] = {}
        for name, values in columns.items():
            self.set_column(name, values)

    def __reduce__(self):
        # unpickled through the constructor, so the arrays come back read-only and without
        # the views (their MappingProxyTypes do not pickle) or the pooled sds
        return IndividualTable, (self.unit_ids, self.sizes, self._columns, self.person_index)

    @cached_property
    def blocks(self) -> list[UnitBlock]:
        ends = np.cumsum(self.sizes).tolist()
        bounds = list(zip([0, *ends], ends))
        views = [{} for _ in bounds]
        for name, values in self._columns.items():  # feature by feature: faster than a dict per unit
            for view, (start, end) in zip(views, bounds):
                view[name] = values[start:end]
        return [UnitBlock(unit_id, end - start, MappingProxyType(view), self.person_index[start:end])
                for unit_id, view, (start, end) in zip(self.unit_ids, views, bounds)]

    def block(self, unit_id: str) -> UnitBlock:
        return self.blocks[self._rows[unit_id]]

    def total_rows(self) -> int:
        return len(self.person_index)

    def column(self, name: str) -> np.ndarray:
        """A feature's cells over all rows in block order: the stored array, not a copy."""
        return self._columns[name]

    def pooled_sd(self, name: str) -> float:
        """The standard deviation of a feature's cells over all rows, computed on the
        first read after the feature was set."""
        if name not in self._sd:
            self._sd[name] = float(self._columns[name].std())
        return self._sd[name]

    def set_column(self, name: str, values: np.ndarray) -> None:
        """Store ``values``, a feature stacked over all rows in block order, without
        copying it, and mark it read-only; drop the blocks built so far and the
        feature's pooled sd."""
        if len(values) != self.total_rows():
            raise DataError(f"set_column: {len(values)} values of {name!r} for {self.total_rows()} rows")
        values.flags.writeable = False
        self._columns[name] = values
        self._sd.pop(name, None)
        self.__dict__.pop("blocks", None)

    def is_finalized(self, schemas: list[FeatureSchema]) -> bool:
        return not self.unit_ids or all(
            sc.name in self._columns and (not sc.is_categorical or self._columns[sc.name].ndim == 1)
            for sc in schemas
        )


def load_coarse_csv(path: str | Path, schemas: list[FeatureSchema]) -> CoarseTable:
    """Read a coarse CSV into a validated CoarseTable.

    Proportion vectors of k classes within (k // 2) * 1e-3 of summing to
    one are renormalized; larger deviations are rejected.  Binary
    categorical features may be given as a single column holding the first
    class's proportion.
    """
    position, columns = _read_csv(path, "load_coarse_csv")
    for name in ("unit_id", "population"):
        if name not in position:
            raise DataError(f"load_coarse_csv: missing required column {name!r}")
    sources = []  # each feature's columns, resolved from the header before any cell is read
    for sc in schemas:
        class_cols = [f"{sc.name}:{c}" for c in sc.classes]
        if not sc.is_categorical:
            if sc.name not in position:
                raise DataError(f"load_coarse_csv: no column for continuous feature {sc.name!r}")
            sources.append([sc.name])
        elif all(col in position for col in class_cols):
            sources.append(class_cols)
        elif sc.n_classes == 2 and sc.name in position:
            sources.append([sc.name])
        else:
            raise DataError(
                f"load_coarse_csv: no columns for categorical feature {sc.name!r} "
                f"(expected {class_cols} or a single binary column)"
            )
    unit_ids = columns[position["unit_id"]]
    if len(set(unit_ids)) != len(unit_ids):
        repeated = Counter(unit_ids).most_common(1)[0][0]
        raise DataError(f"load_coarse_csv: {path} has more than one row for unit {repeated!r}")

    def parse(convert, column):
        return _parse_column(convert, columns[position[column]], column, "load_coarse_csv", unit_ids)

    populations = np.array(parse(np.int64, "population"))  # a count past int64 is a bad value
    _reject(populations < 1, lambda i: f"unit {unit_ids[i]!r} has population {populations[i]} < 1")
    values = {}
    for sc, cols in zip(schemas, sources):
        if not sc.is_categorical:
            x = np.array(parse(float, sc.name))
            _reject(~np.isfinite(x), lambda i: f"non-finite mean for {sc.name!r} in unit {unit_ids[i]!r}")
            _reject(x < 0.0, lambda i: f"negative mean {x[i].item()} for continuous feature {sc.name!r} "
                                       f"in unit {unit_ids[i]!r}")
            values[sc.name] = x
            continue
        x = np.column_stack([parse(float, col) for col in cols])
        if len(cols) == 1:
            x = np.column_stack([x[:, 0], 1.0 - x[:, 0]])
        _reject(~np.isfinite(x).all(axis=1),
                lambda i: f"non-finite proportion for {sc.name!r} in {unit_ids[i]!r}")
        _reject(((x < 0.0) | (x > 1.0)).any(axis=1),
                lambda i: f"proportion outside [0, 1] for {sc.name!r} in unit {unit_ids[i]!r}")
        totals = x.sum(axis=1)
        tol = sc.n_classes // 2 * PROPORTION_SUM_TOL
        # the 1e-12 absorbs the float error of summing decimal cells
        _reject(np.abs(totals - 1.0) > tol + 1e-12,
                lambda i: f"proportions of {sc.name!r} in unit {unit_ids[i]!r} sum to {totals[i]:.6f} "
                          f"(tolerance {tol:g})")
        # renormalize rounded published proportions, but leave float noise
        # alone so write -> load is the exact identity
        off = np.abs(totals - 1.0) > 1e-12
        x[off] = x[off] / totals[off, None]
        values[sc.name] = x
    return CoarseTable(unit_ids, populations, values)


def _reject(bad: np.ndarray, message, where: str = "load_coarse_csv") -> None:
    """Raise for the first row flagged in ``bad``; ``message(i)`` describes row i's fault."""
    if bad.any():
        raise DataError(f"{where}: {message(int(np.argmax(bad)))}")


def _read_csv(path: str | Path, where: str) -> tuple[dict[str, int], list[tuple[str, ...]]]:
    """A CSV file's header, as column name -> position, and its columns.

    Blank lines are skipped; every other row must have as many cells as
    the header.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"{where}: no such file {path}")
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataError(f"{where}: {path} is empty (no header row)")
        if len(set(header)) != len(header):
            repeated = Counter(header).most_common(1)[0][0]
            raise DataError(f"{where}: {path} names column {repeated!r} more than once")
        rows = []
        for row in reader:
            if len(row) != len(header):
                if not row:
                    continue
                raise DataError(f"{where}: {path} line {reader.line_num} has {len(row)} cells, "
                                f"the header has {len(header)}")
            rows.append(row)
    if not rows:
        raise DataError(f"{where}: {path} has no data rows")
    return {name: i for i, name in enumerate(header)}, list(zip(*rows))


def _parse_cell(convert, text, where, column, unit_id):
    try:
        return convert(text)
    except (TypeError, ValueError, OverflowError):
        raise DataError(f"{where}: bad value {text!r} in column {column!r}, unit {unit_id!r}") from None


def _parse_column(convert, texts, column, where, unit_ids) -> list:
    """Convert one column's cells; ``unit_ids`` names each cell's unit in an error."""
    try:
        return list(map(convert, texts))
    except (TypeError, ValueError, OverflowError):
        # second, per-cell pass only to name the bad cell
        return [_parse_cell(convert, text, where, column, uid) for text, uid in zip(texts, unit_ids)]


def write_rows_csv(path: str | Path, rows) -> None:
    """Write an iterable of rows as one CSV file."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def write_coarse_csv(path: str | Path, coarse: CoarseTable, schemas: list[FeatureSchema]) -> None:
    """Write a coarse table in canonical form (all class columns explicit)."""
    values = [map(repr, v) for v in coarse.matrix(schemas).tolist()]
    rows = [[unit_id, n, *v] for unit_id, n, v in zip(coarse.unit_ids, coarse.populations.tolist(), values)]
    write_rows_csv(path, [["unit_id", "population"] + [c.label for c in coordinates(schemas)]] + rows)


def aggregate(individuals: IndividualTable, schemas: list[FeatureSchema]) -> CoarseTable:
    """Re-aggregate an individual table: class counts / n (one ``bincount`` of (unit,
    class) per feature) and arithmetic means (one ``np.add.reduceat`` over the units'
    rows per feature, whose summation order the outputs built on the aggregate
    depend on).  A unit with no rows has no proportions or means and is named."""
    unit_ids, sizes = individuals.unit_ids, individuals.sizes
    if not unit_ids:
        return CoarseTable([], [], {})
    empty = np.flatnonzero(sizes == 0)[:1]
    if empty.size:
        raise DataError(f"aggregate: unit {unit_ids[empty[0]]!r} has no rows")
    code = np.repeat(np.arange(len(unit_ids)), sizes)
    heads = np.cumsum(sizes) - sizes
    columns = {}
    for sc in schemas:
        if not individuals.is_finalized([sc]):
            raise DataError(f"aggregate: feature {sc.name!r} is missing or has unfinalized cells")
        col = individuals.column(sc.name)
        if not sc.is_categorical:
            columns[sc.name] = np.add.reduceat(col, heads) / sizes
            continue
        outside = np.flatnonzero((col < 0) | (col >= sc.n_classes))[:1]
        if outside.size:
            raise DataError(f"aggregate: class index {col[outside[0]]} of {sc.name!r} outside "
                            f"[0, {sc.n_classes}) in unit {unit_ids[code[outside[0]]]!r}")
        counts = np.bincount(code * sc.n_classes + col, minlength=len(unit_ids) * sc.n_classes)
        columns[sc.name] = counts.reshape(-1, sc.n_classes) / sizes[:, None]
    return CoarseTable(unit_ids, sizes, columns)


def write_individual_csv(path: str | Path, table: IndividualTable, schemas: list[FeatureSchema]) -> None:
    """Write a finalized individual table (class labels, float reprs).

    A cell ``load_individual_csv`` would reject, a class index outside [0, k) or a
    continuous cell that is not a finite nonnegative real, raises ``DataError`` naming
    the feature and the unit before the file is opened.
    """
    where = "write_individual_csv"
    if not table.is_finalized(schemas):
        raise DataError(f"{where}: table contains unfinalized cells")
    ends = np.cumsum(table.sizes)

    def unit(i):
        return table.unit_ids[int(np.searchsorted(ends, i, side="right"))]

    for sc in schemas:
        col = table.column(sc.name)
        if sc.is_categorical:
            _reject((col < 0) | (col >= sc.n_classes), lambda i: f"class index {col[i]} of {sc.name!r} outside "
                    f"[0, {sc.n_classes}) in unit {unit(i)!r}", where)
        else:
            _reject(~np.isfinite(col) | (col < 0.0), lambda i: f"bad value {repr(float(col[i]))!r} in column "
                    f"{sc.name!r}, unit {unit(i)!r}: not a finite nonnegative real", where)

    def rows():
        yield ["unit_id", "person_index"] + [sc.name for sc in schemas]
        cells = [table.column(sc.name).tolist() for sc in schemas]
        cells = [map(sc.classes.__getitem__, col) if sc.is_categorical else (repr(float(v)) for v in col)
                 for sc, col in zip(schemas, cells)]
        units = chain.from_iterable(map(repeat, table.unit_ids, table.sizes.tolist()))
        yield from zip(units, table.person_index.tolist(), *cells)

    write_rows_csv(path, rows())


def load_individual_csv(path: str | Path, schemas: list[FeatureSchema]) -> IndividualTable:
    """Read a finalized individual table written by write_individual_csv.

    Units keep the order of their first row in the file; a unit's rows are
    sorted by ``person_index``.  A cell that does not parse, a continuous
    cell that is not a finite nonnegative real, an unknown class label, or a
    ``person_index`` repeated within a unit raises ``DataError`` naming the
    file, the column and the value.
    """
    position, columns = _read_csv(path, "load_individual_csv")
    for col in ["unit_id", "person_index"] + [sc.name for sc in schemas]:
        if col not in position:
            raise DataError(f"load_individual_csv: missing column {col!r}")
    where = f"load_individual_csv: {path}"
    unit_col = columns[position["unit_id"]]
    code: dict[str, int] = {}
    codes = np.array([code.setdefault(uid, len(code)) for uid in unit_col])
    unit_ids = list(code)
    texts = columns[position["person_index"]]
    try:
        person_index = np.array(_parse_column(int, texts, "person_index", where, unit_col), dtype=np.int64)
    except OverflowError:  # an index past int64: parsing as np.int64 names its cell
        person_index = np.array(_parse_column(np.int64, texts, "person_index", where, unit_col))
    # one stable sort: units in first-appearance order, each by person_index
    order = np.lexsort((person_index, codes))
    codes, person_index = codes[order], person_index[order]
    repeated = (np.diff(codes) == 0) & (np.diff(person_index) == 0)
    if repeated.any():
        unit = codes[np.argmax(repeated)]
        values = np.unique(person_index[1:][repeated & (codes[1:] == unit)]).tolist()
        raise DataError(f"{where}: duplicate person_index {values[:5]} in unit {unit_ids[unit]!r}")

    cells = {}
    for sc in schemas:
        texts = columns[position[sc.name]]
        if sc.is_categorical:
            lookup = {c: i for i, c in enumerate(sc.classes)}
            try:
                col = np.array([lookup[label] for label in texts], dtype=np.int64)
            except KeyError as exc:
                label = exc.args[0]
                raise DataError(f"{where}: unknown class {label!r} for feature {sc.name!r} "
                                f"in unit {unit_col[texts.index(label)]!r}") from None
        else:
            col = np.array(_parse_column(float, texts, sc.name, where, unit_col), dtype=float)
            _reject(~np.isfinite(col) | (col < 0.0), lambda i: f"bad value {texts[i]!r} in column {sc.name!r}, "
                    f"unit {unit_col[i]!r}: not a finite nonnegative real", where)
        cells[sc.name] = col[order]
    return IndividualTable(unit_ids, np.bincount(codes), cells, person_index)
