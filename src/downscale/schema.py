"""Feature schema: declared types, class lists and batch membership.

Features are never inferred from data; every run is driven by an explicit
JSON schema document (an array of feature objects).  Two kinds exist:

* ``categorical`` with an ordered list of class labels, and
* ``continuous`` for positive real-valued features observed as means.

Each feature belongs to a batch.  Batch 0 is the core batch; its features
are present in every joint sampling step, and all other batches attach to
them through fitted predictors.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import SchemaError

CATEGORICAL = "categorical"
CONTINUOUS = "continuous"


@dataclass(frozen=True)
class FeatureSchema:
    """Declaration of a single feature."""

    name: str
    kind: str
    classes: tuple[str, ...] = ()
    batch: int = 0
    ordinal: bool = False

    @property
    def core(self) -> bool:
        return self.batch == 0

    @property
    def n_classes(self) -> int:
        return len(self.classes)

    @property
    def is_categorical(self) -> bool:
        return self.kind == CATEGORICAL


@dataclass(frozen=True)
class Coordinate:
    """One scalar coordinate of the coarse-data vector.

    A categorical feature with k classes contributes k proportion
    coordinates; a continuous feature contributes one mean coordinate.
    """

    feature: str
    class_label: str | None = None

    @property
    def label(self) -> str:
        if self.class_label is None:
            return self.feature
        return f"{self.feature}:{self.class_label}"


def coordinates(schemas: list[FeatureSchema]) -> list[Coordinate]:
    """Ordered coordinate list for a schema subset (declaration order)."""
    coords: list[Coordinate] = []
    for sc in schemas:
        if sc.is_categorical:
            coords.extend(Coordinate(sc.name, c) for c in sc.classes)
        else:
            coords.append(Coordinate(sc.name))
    return coords


def validate_schemas(schemas: list[FeatureSchema]) -> None:
    """Check the schema invariants, raising SchemaError on violation."""
    if not schemas:
        raise SchemaError("load_schema: schema declares no features")
    names = [sc.name for sc in schemas]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise SchemaError(f"load_schema: duplicate feature names {dupes}")
    for sc in schemas:
        if sc.kind not in (CATEGORICAL, CONTINUOUS):
            raise SchemaError(f"load_schema: feature {sc.name!r} has unknown kind {sc.kind!r}")
        if sc.is_categorical:
            if sc.n_classes < 2:
                raise SchemaError(f"load_schema: categorical feature {sc.name!r} needs >= 2 classes")
            if len(set(sc.classes)) != sc.n_classes:
                raise SchemaError(f"load_schema: feature {sc.name!r} has duplicate class labels")
        elif sc.classes:
            raise SchemaError(f"load_schema: continuous feature {sc.name!r} must not declare classes")
        if sc.batch < 0:
            raise SchemaError(f"load_schema: feature {sc.name!r} has negative batch id")
    batch_ids = sorted({sc.batch for sc in schemas})
    if 0 not in batch_ids:
        raise SchemaError("load_schema: empty core batch (no feature with batch 0)")
    expected = list(range(batch_ids[-1] + 1))
    if batch_ids != expected:
        missing = sorted(set(expected) - set(batch_ids))
        raise SchemaError(f"load_schema: empty batch ids {missing} (batches must be contiguous)")


def load_schema(path: str | Path) -> list[FeatureSchema]:
    """Load and validate a schema config file.

    The file is a JSON array of objects with keys ``name``, ``kind``
    ("categorical" | "continuous"), ``classes`` (categorical only),
    ``batch`` (int, default 0), optional ``core`` (bool, must equal batch == 0)
    and optional ``ordinal`` (bool, used by matching for banded variables).
    """
    path = Path(path)
    if not path.exists():
        raise SchemaError(f"load_schema: no such file {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaError(f"load_schema: {path} is not valid JSON: {exc}") from exc
    return parse_schema(raw)


# fields and the JSON types they take (a JSON true is not an integer)
_FIELD_TYPES = {
    "name": ("a string", lambda v: type(v) is str),
    "kind": ("a string", lambda v: type(v) is str),
    "batch": ("an integer", lambda v: type(v) is int),
    "core": ("a boolean", lambda v: type(v) is bool),
    "ordinal": ("a boolean", lambda v: type(v) is bool),
    "classes": ("an array", lambda v: isinstance(v, (list, tuple))),
}


def parse_schema(raw) -> list[FeatureSchema]:
    """Build a schema list from already-parsed JSON."""
    if not isinstance(raw, list):
        raise SchemaError("load_schema: top-level document must be an array of features")
    schemas = []
    for entry in raw:
        if not isinstance(entry, dict) or "name" not in entry or "kind" not in entry:
            raise SchemaError(f"load_schema: feature entry {entry!r} needs 'name' and 'kind'")
        for field, (what, fits) in _FIELD_TYPES.items():
            if field in entry and not fits(entry[field]):
                raise SchemaError(f"load_schema: feature {entry['name']!r} has {field!r} {entry[field]!r}, "
                                  f"which is not {what}")
        for label in entry.get("classes", ()):
            if type(label) is not str:
                raise SchemaError(f"load_schema: feature {entry['name']!r} has class label {label!r}, "
                                  f"which is not a string")
        sc = FeatureSchema(entry["name"], entry["kind"], tuple(entry.get("classes", ())),
                           batch=entry.get("batch", 0), ordinal=entry.get("ordinal", False))
        if entry.get("core", sc.core) != sc.core:
            raise SchemaError(f"load_schema: feature {sc.name!r} core flag must match batch 0 membership")
        schemas.append(sc)
    validate_schemas(schemas)
    return schemas


def schema_to_json(schemas: list[FeatureSchema]) -> list[dict]:
    out = []
    for sc in schemas:
        entry: dict = {"name": sc.name, "kind": sc.kind, "batch": sc.batch, "core": sc.core}
        if sc.is_categorical:
            entry["classes"] = list(sc.classes)
        if sc.ordinal:
            entry["ordinal"] = True
        out.append(entry)
    return out
