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
from itertools import chain, repeat
from pathlib import Path
from types import MappingProxyType

import numpy as np

from .errors import DataError
from .schema import FeatureSchema, coordinates

# a k-class feature's proportions may sum to within (k // 2) * PROPORTION_SUM_TOL of one:
# rounding k cells to three decimals moves their sum by at most k/2 whole thousandths
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
    """All rows of one unit, stored column-wise per feature.

    Finalized categorical columns are 1-D integer arrays of class indices;
    intermediate categorical columns are (n, k) probability matrices.
    Continuous columns are 1-D float arrays.  A block read from a CSV keeps
    its rows' ascending ``person_index`` values; a generated block numbers
    its rows 0..size-1.  The blocks of an ``IndividualTable`` are views:
    their ``columns`` mapping is read-only and holds slices of the table's
    arrays.
    """

    unit_id: str
    size: int
    columns: Mapping[str, np.ndarray] = field(default_factory=dict)
    person_index: np.ndarray | None = None

    def __post_init__(self):
        if self.person_index is None:
            self.person_index = np.arange(self.size)


class IndividualTable:
    """Individuals of every unit, each feature stored once as one array
    stacked over all rows in block order.

    ``column(name)`` returns that array.  ``blocks`` and ``block(unit_id)``
    give per-unit views of it: an element written through a view reaches
    the table, but a view's ``columns`` cannot be reassigned.
    ``set_column`` is the only writer of a feature.
    """

    def __init__(self, blocks: list[UnitBlock]):
        names = list(dict.fromkeys(name for b in blocks for name in b.columns))
        for b in blocks:
            for name in names:
                if name not in b.columns:
                    raise DataError(f"IndividualTable: unit {b.unit_id!r} lacks feature {name!r}")
                if len(b.columns[name]) != b.size:
                    raise DataError(f"IndividualTable: unit {b.unit_id!r} has {len(b.columns[name])} rows "
                                    f"of feature {name!r}, not {b.size}")
        self.sizes = np.array([b.size for b in blocks], dtype=np.int64)  # per-block row counts
        self.sizes.flags.writeable = False
        ends = np.cumsum(self.sizes).tolist()
        self._bounds = list(zip([0] + ends, ends))
        self.person_index = np.concatenate([b.person_index for b in blocks] or [np.zeros(0, np.int64)])
        self._columns: dict[str, np.ndarray] = {}
        self._views: list[dict[str, np.ndarray]] = [{} for _ in blocks]
        self.blocks = [UnitBlock(b.unit_id, b.size, MappingProxyType(view), index)
                       for b, view, index in zip(blocks, self._views, self.split(self.person_index))]
        self._by_id = {b.unit_id: b for b in self.blocks}
        if len(self._by_id) != len(blocks):
            repeated = Counter(self.unit_ids).most_common(1)[0][0]
            raise DataError(f"IndividualTable: more than one block for unit {repeated!r}")
        for name in names:
            self.set_column(name, np.concatenate([b.columns[name] for b in blocks]))

    def __reduce__(self):
        # pickled as plain blocks; unpickling stacks them again
        return IndividualTable, ([UnitBlock(b.unit_id, b.size, dict(b.columns), b.person_index)
                                  for b in self.blocks],)

    def block(self, unit_id: str) -> UnitBlock:
        return self._by_id[unit_id]

    @property
    def unit_ids(self) -> list[str]:
        return [b.unit_id for b in self.blocks]

    def total_rows(self) -> int:
        return len(self.person_index)

    def column(self, name: str) -> np.ndarray:
        """A feature's cells over all rows in block order: the stored array, not a copy."""
        return self._columns[name]

    def split(self, values: np.ndarray) -> list[np.ndarray]:
        """Cut an array stacked over all rows, in block order, into per-block views."""
        return [values[start:end] for start, end in self._bounds]

    def set_column(self, name: str, values: np.ndarray) -> None:
        """Store ``values``, a feature stacked over all rows in block order, as the
        table's copy of it; every block's view then shows its rows of ``values``."""
        if len(values) != self.total_rows():
            raise DataError(f"set_column: {len(values)} values of {name!r} for {self.total_rows()} rows")
        self._columns[name] = values
        for view, part in zip(self._views, self.split(values)):
            view[name] = part

    def is_finalized(self, schemas: list[FeatureSchema]) -> bool:
        return not self.blocks or all(
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

    populations = parse(int, "population")
    _reject(np.array(populations) < 1, lambda i: f"unit {unit_ids[i]!r} has population {populations[i]} < 1")
    values = {}
    for sc, cols in zip(schemas, sources):
        if not sc.is_categorical:
            x = np.array(parse(float, sc.name))
            _reject(~np.isfinite(x), lambda i: f"non-finite mean for {sc.name!r} in unit {unit_ids[i]!r}")
            _reject(x < 0.0, lambda i: f"negative mean {x[i].item()} for continuous feature {sc.name!r} "
                                       f"in unit {unit_ids[i]!r}")
            values[sc.name] = x.tolist()
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
        values[sc.name] = list(x)
    return CoarseTable([
        AggregationUnit(unit_id, population, {name: column[i] for name, column in values.items()})
        for i, (unit_id, population) in enumerate(zip(unit_ids, populations))
    ])


def _reject(bad: np.ndarray, message) -> None:
    """Raise for the first unit flagged in ``bad``; ``message(i)`` describes unit i's fault."""
    if bad.any():
        raise DataError(f"load_coarse_csv: {message(int(np.argmax(bad)))}")


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
    except (TypeError, ValueError):
        raise DataError(f"{where}: bad value {text!r} in column {column!r}, unit {unit_id!r}") from None


def _parse_column(convert, texts, column, where, unit_ids) -> list:
    """Convert one column's cells; ``unit_ids`` names each cell's unit in an error."""
    try:
        return list(map(convert, texts))
    except (TypeError, ValueError):
        # second, per-cell pass only to name the bad cell
        return [_parse_cell(convert, text, where, column, uid) for text, uid in zip(texts, unit_ids)]


def write_rows_csv(path: str | Path, rows) -> None:
    """Write an iterable of rows as one CSV file."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def write_coarse_csv(path: str | Path, coarse: CoarseTable, schemas: list[FeatureSchema]) -> None:
    """Write a coarse table in canonical form (all class columns explicit)."""
    values = coarse.matrix(schemas).tolist()
    rows = [[u.unit_id, u.population, *map(repr, v)] for u, v in zip(coarse.units, values)]
    write_rows_csv(path, [["unit_id", "population"] + [c.label for c in coordinates(schemas)]] + rows)


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
    sorted by ``person_index``.  A cell that does not parse, an unknown
    class label, or a ``person_index`` repeated within a unit raises
    ``DataError`` naming the file, the column and the value.
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
    person_index = np.array(_parse_column(int, texts, "person_index", where, unit_col), dtype=np.int64)
    # one stable sort: units in first-appearance order, each by person_index
    order = np.lexsort((person_index, codes))
    codes, person_index = codes[order], person_index[order]
    repeated = (np.diff(codes) == 0) & (np.diff(person_index) == 0)
    if repeated.any():
        unit = codes[np.argmax(repeated)]
        values = np.unique(person_index[1:][repeated & (codes[1:] == unit)]).tolist()
        raise DataError(f"{where}: duplicate person_index {values[:5]} in unit {unit_ids[unit]!r}")

    counts = np.bincount(codes)
    table = IndividualTable([UnitBlock(uid, n, person_index=index) for uid, n, index in
                             zip(unit_ids, counts.tolist(), np.split(person_index, np.cumsum(counts)[:-1]))])
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
        table.set_column(sc.name, col[order])
    return table
