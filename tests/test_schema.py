import json

import pytest

from downscale import SchemaError, load_schema, parse_schema
from downscale.schema import FeatureSchema, coordinates, schema_to_json


def write_schema(tmp_path, doc):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(doc))
    return path


SURVEY = [
    {"name": "age", "kind": "categorical", "batch": 0, "core": True,
     "classes": ["18u", "18-25", "26-34", "35-44", "45-54", "55-64", "65+"]},
    {"name": "gender", "kind": "categorical", "batch": 0, "core": True, "classes": ["m", "f"]},
    {"name": "income", "kind": "categorical", "batch": 1, "core": False,
     "classes": [f"b{i}" for i in range(13)]},
]


def test_survey_schema_loads(tmp_path):
    schemas = load_schema(write_schema(tmp_path, SURVEY))
    assert [sc.name for sc in schemas] == ["age", "gender", "income"]
    assert schemas[0].n_classes == 7
    core = [sc for sc in schemas if sc.core]
    assert len(core) == 2
    assert schemas[2].batch == 1 and not schemas[2].core


def test_single_continuous_core_feature(tmp_path):
    schemas = load_schema(write_schema(tmp_path, [{"name": "spend", "kind": "continuous"}]))
    assert len(schemas) == 1
    assert schemas[0].core and schemas[0].batch == 0
    assert max(sc.batch for sc in schemas) == 0  # no non-core batches


def test_batch_gap_rejected(tmp_path):
    doc = [
        {"name": "a", "kind": "categorical", "classes": ["x", "y"], "batch": 0, "core": True},
        {"name": "b", "kind": "categorical", "classes": ["x", "y"], "batch": 2, "core": False},
    ]
    with pytest.raises(SchemaError, match="empty batch"):
        load_schema(write_schema(tmp_path, doc))


def test_duplicate_names_rejected():
    doc = [
        {"name": "a", "kind": "categorical", "classes": ["x", "y"]},
        {"name": "a", "kind": "continuous", "batch": 1, "core": False},
    ]
    with pytest.raises(SchemaError, match="duplicate"):
        parse_schema(doc)


def test_one_class_rejected():
    with pytest.raises(SchemaError, match=">= 2 classes"):
        parse_schema([{"name": "a", "kind": "categorical", "classes": ["only"]}])


def test_duplicate_class_labels_rejected():
    with pytest.raises(SchemaError, match="duplicate class labels"):
        parse_schema([{"name": "a", "kind": "categorical", "classes": ["x", "x"]}])


def test_core_flag_must_match_batch():
    with pytest.raises(SchemaError, match="core flag"):
        parse_schema([{"name": "a", "kind": "categorical", "classes": ["x", "y"], "batch": 0, "core": False}])


def test_empty_core_batch_rejected():
    with pytest.raises(SchemaError, match="core"):
        parse_schema([{"name": "a", "kind": "categorical", "classes": ["x", "y"], "batch": 1, "core": False}])


@pytest.mark.parametrize("field, value", [
    ("batch", "one"), ("batch", None), ("batch", 0.9), ("batch", True),
    ("core", "true"), ("core", 1), ("ordinal", "false"), ("ordinal", None),
    ("classes", 5), ("classes", "xy"), ("kind", None), ("kind", ["continuous"]),
])
def test_a_field_of_the_wrong_json_type_is_named(tmp_path, field, value):
    feature = {"name": "a", "kind": "categorical", "classes": ["x", "y"], "batch": 0, "core": True, field: value}
    what = {"batch": "an integer", "core": "a boolean", "ordinal": "a boolean", "classes": "an array",
            "kind": "a string"}[field]
    with pytest.raises(SchemaError) as exc:
        load_schema(write_schema(tmp_path, [feature]))
    assert str(exc.value) == f"load_schema: feature 'a' has {field!r} {value!r}, which is not {what}"


def test_parse_failure(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("not json {")
    with pytest.raises(SchemaError, match="not valid JSON"):
        load_schema(path)


def test_missing_file():
    with pytest.raises(SchemaError, match="no such file"):
        load_schema("/nonexistent/schema.json")


def test_coordinates_order():
    schemas = parse_schema(SURVEY)
    coords = coordinates(schemas)
    assert [c.label for c in coords[:3]] == ["age:18u", "age:18-25", "age:26-34"]
    assert len(coords) == 7 + 2 + 13
    assert coords[7].label == "gender:m"


def test_schema_json_round_trip():
    schemas = parse_schema(SURVEY)
    assert parse_schema(schema_to_json(schemas)) == schemas


@pytest.mark.parametrize("feature, expected", [
    ({"name": None, "kind": "continuous"}, "feature None has 'name' None, which is not a string"),
    ({"name": 7, "kind": "continuous"}, "feature 7 has 'name' 7, which is not a string"),
    ({"name": "a", "kind": "categorical", "classes": [1, True]},
     "feature 'a' has class label 1, which is not a string"),
    ({"name": "a", "kind": "categorical", "classes": ["x", None]},
     "feature 'a' has class label None, which is not a string"),
], ids=["null-name", "number-name", "number-label", "null-label"])
def test_a_name_or_class_label_that_is_not_a_string_is_named(tmp_path, feature, expected):
    with pytest.raises(SchemaError) as exc:
        load_schema(write_schema(tmp_path, [feature]))
    assert str(exc.value) == f"load_schema: {expected}"


def test_core_follows_batch_and_a_python_built_batch_feature_round_trips():
    schemas = [FeatureSchema("a", "categorical", ("x", "y")), FeatureSchema("b", "categorical", ("p", "q"), batch=1)]
    assert schemas[0].core and not schemas[1].core
    doc = schema_to_json(schemas)
    assert [entry["core"] for entry in doc] == [True, False]
    assert parse_schema(json.loads(json.dumps(doc))) == schemas
