import numpy as np
import pytest

from downscale import (
    DataError,
    IndividualTable,
    UnitBlock,
    aggregate,
    load_coarse_csv,
    load_individual_csv,
    parse_schema,
    write_coarse_csv,
    write_individual_csv,
)
from downscale.schema import coordinates
from conftest import make_coarse, make_schemas

CENSUS_SCHEMA = parse_schema([
    {"name": "avg_age", "kind": "continuous"},
    {"name": "pct_mortgage", "kind": "categorical", "classes": ["yes", "no"], "batch": 1, "core": False},
    {"name": "pct_bilingual", "kind": "categorical", "classes": ["yes", "no"], "batch": 1, "core": False},
])

CENSUS_CSV = """unit_id,population,avg_age,pct_mortgage,pct_bilingual
M5S3G2,467,35.1,0.32,0.69
V3N1P5,269,37.2,0.35,0.67
L5M6V9,41,49.1,0.67,0.43
"""


def write(tmp_path, text, name="coarse.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_census_excerpt_loads(tmp_path):
    coarse = load_coarse_csv(write(tmp_path, CENSUS_CSV), CENSUS_SCHEMA)
    unit = coarse.unit("M5S3G2")
    assert unit.population == 467
    assert unit.values["avg_age"] == 35.1
    # binary single column expands to (p, 1-p), first class first
    np.testing.assert_allclose(unit.values["pct_mortgage"], [0.32, 0.68])
    assert coarse.unit_ids == ["M5S3G2", "V3N1P5", "L5M6V9"]


def test_matrix_columns_follow_coordinates(tmp_path):
    # single-column binary features expand to two coordinates, first class first
    coarse = load_coarse_csv(write(tmp_path, CENSUS_CSV), CENSUS_SCHEMA)
    coords = coordinates(CENSUS_SCHEMA)
    assert [c.label for c in coords] == [
        "avg_age", "pct_mortgage:yes", "pct_mortgage:no", "pct_bilingual:yes", "pct_bilingual:no",
    ]
    by_name = {sc.name: sc for sc in CENSUS_SCHEMA}
    matrix = coarse.matrix(CENSUS_SCHEMA)
    assert matrix.shape == (3, 5)
    for unit, row in zip(coarse.units, matrix):
        for coord, value in zip(coords, row):
            expected = unit.values[coord.feature]
            if coord.class_label is not None:
                expected = expected[by_name[coord.feature].classes.index(coord.class_label)]
            assert value == expected
    np.testing.assert_array_equal(coarse.populations, [467, 269, 41])


def test_proportion_above_one_rejected(tmp_path):
    bad = CENSUS_CSV.replace("0.32", "1.7")
    with pytest.raises(DataError, match=r"outside \[0, 1\]"):
        load_coarse_csv(write(tmp_path, bad), CENSUS_SCHEMA)


def test_missing_population_column(tmp_path):
    text = "unit_id,avg_age,pct_mortgage,pct_bilingual\nA,35.1,0.3,0.4\n"
    with pytest.raises(DataError, match="population"):
        load_coarse_csv(write(tmp_path, text), CENSUS_SCHEMA)


def test_negative_continuous_mean_rejected(tmp_path):
    bad = CENSUS_CSV.replace("35.1", "-1.0")
    with pytest.raises(DataError, match="negative mean"):
        load_coarse_csv(write(tmp_path, bad), CENSUS_SCHEMA)


def test_empty_file_rejected(tmp_path):
    with pytest.raises(DataError, match="load_coarse_csv"):
        load_coarse_csv(write(tmp_path, ""), CENSUS_SCHEMA)
    with pytest.raises(DataError, match="no data rows"):
        load_coarse_csv(write(tmp_path, "unit_id,population,avg_age,pct_mortgage,pct_bilingual\n"), CENSUS_SCHEMA)


def test_proportion_renormalized_within_tolerance(tmp_path):
    schemas = parse_schema([
        {"name": "edu", "kind": "categorical", "classes": ["a", "b", "c"]},
    ])
    text = "unit_id,population,edu:a,edu:b,edu:c\nA,10,0.3334,0.3334,0.3335\n"
    coarse = load_coarse_csv(write(tmp_path, text), schemas)
    assert abs(coarse.unit("A").values["edu"].sum() - 1.0) < 1e-12


def test_proportion_sum_deviation_rejected(tmp_path):
    schemas = parse_schema([
        {"name": "edu", "kind": "categorical", "classes": ["a", "b", "c"]},
    ])
    text = "unit_id,population,edu:a,edu:b,edu:c\nA,10,0.4,0.4,0.4\n"
    with pytest.raises(DataError, match="sum to"):
        load_coarse_csv(write(tmp_path, text), schemas)


def test_missing_feature_column(tmp_path):
    text = "unit_id,population,avg_age,pct_mortgage\nA,10,35.0,0.3\n"
    with pytest.raises(DataError, match="pct_bilingual"):
        load_coarse_csv(write(tmp_path, text), CENSUS_SCHEMA)


def test_aggregate_counts():
    schemas = make_schemas([("gender", 2, 0)])
    block = UnitBlock("A", 4, {"gender": np.array([0, 0, 1, 0])})
    coarse = aggregate(IndividualTable([block]), schemas)
    np.testing.assert_allclose(coarse.unit("A").values["gender"], [0.75, 0.25])
    assert coarse.unit("A").population == 4


def test_aggregate_empty():
    schemas = make_schemas([("gender", 2, 0)])
    assert aggregate(IndividualTable([]), schemas).units == []


def test_aggregate_rejects_unfinalized():
    schemas = make_schemas([("gender", 2, 0)])
    block = UnitBlock("A", 2, {"gender": np.array([[0.5, 0.5], [0.2, 0.8]])})
    with pytest.raises(DataError, match="unfinalized"):
        aggregate(IndividualTable([block]), schemas)


def test_coarse_round_trip(tmp_path):
    schemas = make_schemas([("a", 3, 0), ("x", None, 0), ("b", 2, 1)])
    coarse = make_coarse(schemas, [5, 17, 101])
    path = tmp_path / "out.csv"
    write_coarse_csv(path, coarse, schemas)
    back = load_coarse_csv(path, schemas)
    assert back.unit_ids == coarse.unit_ids
    for u, v in zip(coarse.units, back.units):
        assert u.population == v.population
        np.testing.assert_array_equal(u.values["a"], v.values["a"])
        np.testing.assert_array_equal(u.values["b"], v.values["b"])
        assert u.values["x"] == v.values["x"]


def test_individual_round_trip(tmp_path):
    schemas = make_schemas([("a", 3, 0), ("x", None, 0)])
    rng = np.random.default_rng(7)
    blocks = [
        UnitBlock(uid, 6, {"a": rng.integers(0, 3, 6), "x": rng.uniform(0, 5, 6)})
        for uid in ("B", "A")  # file order preserved, not alphabetical
    ]
    table = IndividualTable(blocks)
    path = tmp_path / "people.csv"
    write_individual_csv(path, table, schemas)
    back = load_individual_csv(path, schemas)
    assert back.unit_ids == ["B", "A"]
    for uid in ("A", "B"):
        np.testing.assert_array_equal(back.block(uid).columns["a"], table.block(uid).columns["a"])
        np.testing.assert_array_equal(back.block(uid).columns["x"], table.block(uid).columns["x"])


def test_write_individual_rejects_unfinalized(tmp_path):
    schemas = make_schemas([("a", 2, 0)])
    table = IndividualTable([UnitBlock("A", 1, {"a": np.array([[0.5, 0.5]])})])
    with pytest.raises(DataError, match="unfinalized"):
        write_individual_csv(tmp_path / "x.csv", table, schemas)
