import pickle
from dataclasses import FrozenInstanceError
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from downscale import (
    AggregationUnit,
    CoarseTable,
    DataError,
    IndividualTable,
    UnitBlock,
    aggregate,
    generate,
    load_coarse_csv,
    load_individual_csv,
    parse_schema,
    write_coarse_csv,
    write_individual_csv,
)
from downscale.evaluation import align_rows, cell_accuracy, default_study_config, generate_truth
from downscale.rng import stream
from downscale.schema import coordinates
from conftest import make_coarse, make_schemas, stack_blocks, stack_units

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
    coarse = aggregate(stack_blocks([block]), schemas)
    np.testing.assert_allclose(coarse.unit("A").values["gender"], [0.75, 0.25])
    assert coarse.unit("A").population == 4


def test_aggregate_counts_each_unit_as_its_own_bincount():
    schemas = make_schemas([("g", 3, 0), ("x", None, 0)])
    rng = np.random.default_rng(4)
    blocks = [UnitBlock(f"u{i}", n, {"g": rng.integers(0, 3, n), "x": rng.uniform(0, 5, n)})
              for i, n in enumerate([7, 1, 12, 3])]
    coarse = aggregate(stack_blocks(blocks), schemas)
    assert coarse.unit_ids == ["u0", "u1", "u2", "u3"]
    for block, unit in zip(blocks, coarse.units):
        assert unit.population == block.size
        np.testing.assert_array_equal(unit.values["g"], np.bincount(block.columns["g"], minlength=3) / block.size)
        np.testing.assert_allclose(unit.values["x"], np.mean(block.columns["x"]), rtol=1e-15, atol=0.0)


def test_aggregate_means_are_the_per_unit_means():
    # one segmented sum per feature: the last bit may differ from np.mean's pairwise sum, no more
    rng = np.random.default_rng(12)
    sizes = rng.integers(1, 200, 1000)
    x = rng.lognormal(0.0, 2.0, int(sizes.sum()))
    table = IndividualTable([f"u{i}" for i in range(sizes.size)], sizes, {"x": x})
    schemas = make_schemas([("x", None, 0)])
    means = aggregate(table, schemas).matrix(schemas)[:, 0]
    expected = [np.mean(part) for part in np.split(x, np.cumsum(sizes)[:-1])]
    np.testing.assert_allclose(means, expected, rtol=1e-15, atol=0.0)


@pytest.mark.parametrize("empty", [0, 1, 2])
def test_aggregate_names_a_unit_with_no_rows(empty):
    sizes = [2, 3, 1]
    sizes[empty] = 0
    table = IndividualTable(["A", "B", "C"], sizes, {"g": np.zeros(sum(sizes), dtype=np.int64),
                                                    "x": np.ones(sum(sizes))})
    with pytest.raises(DataError, match=rf"^aggregate: unit '{'ABC'[empty]}' has no rows$"):
        aggregate(table, make_schemas([("g", 2, 0), ("x", None, 0)]))


@pytest.mark.parametrize("index", [-1, 2])
def test_aggregate_rejects_a_class_index_outside_the_classes(index):
    # a stray index would otherwise be counted for the next or previous unit
    schemas = make_schemas([("gender", 2, 0)])
    blocks = [UnitBlock("A", 2, {"gender": np.array([0, 1])}), UnitBlock("B", 2, {"gender": np.array([1, index])})]
    with pytest.raises(DataError, match=rf"class index {index} of 'gender' outside \[0, 2\) in unit 'B'"):
        aggregate(stack_blocks(blocks), schemas)


def test_aggregate_empty():
    schemas = make_schemas([("gender", 2, 0)])
    assert aggregate(stack_blocks([]), schemas).units == []


def _coarse_from(source, tmp_path, schemas):
    coarse = make_coarse(schemas, [5, 17, 101])
    if source == "csv":
        write_coarse_csv(tmp_path / "coarse.csv", coarse, schemas)
        return load_coarse_csv(tmp_path / "coarse.csv", schemas)
    if source == "aggregate":
        rng = np.random.default_rng(2)
        blocks = [UnitBlock(f"u{i}", n, {"g": rng.integers(0, 3, n), "x": rng.uniform(0, 5, n)})
                  for i, n in enumerate([4, 1, 9])]
        return aggregate(stack_blocks(blocks), schemas)
    return coarse


@pytest.mark.parametrize("source", ["constructor", "csv", "aggregate"])
def test_coarse_views_and_arrays_cannot_be_edited(tmp_path, source):
    schemas = make_schemas([("g", 3, 0), ("x", None, 0)])
    coarse = _coarse_from(source, tmp_path, schemas)
    before = coarse.matrix(schemas)
    unit = coarse.units[1]
    assert type(unit.values) is MappingProxyType and type(unit.values["x"]) is float
    assert np.shares_memory(unit.values["g"], coarse.unit(unit.unit_id).values["g"])
    with pytest.raises(TypeError):
        unit.values["x"] = 1.0
    with pytest.raises(FrozenInstanceError):
        unit.population = 3
    with pytest.raises(ValueError, match="read-only"):
        unit.values["g"][0] = 0.5
    with pytest.raises(ValueError, match="read-only"):
        coarse.populations[0] = 3
    np.testing.assert_array_equal(coarse.matrix(schemas), before)
    back = pickle.loads(pickle.dumps(coarse))
    np.testing.assert_array_equal(back.matrix(schemas), before)
    with pytest.raises(ValueError, match="read-only"):
        back.unit(unit.unit_id).values["g"][0] = 0.5


def test_coarse_table_takes_its_arrays_read_only():
    props, populations = np.array([[0.25, 0.75], [1.0, 0.0]]), np.array([4, 1])
    coarse = CoarseTable(["a", "b"], populations, {"g": props})
    assert not props.flags.writeable and not populations.flags.writeable
    np.testing.assert_array_equal(coarse.matrix(make_schemas([("g", 2, 0)])), props)
    assert coarse.total_population() == 5 and type(coarse.total_population()) is int


def test_coarse_table_names_a_repeated_unit_and_a_misshapen_feature():
    with pytest.raises(DataError, match="more than one unit 'a'"):
        CoarseTable(["a", "b", "a"], [1, 2, 3], {})
    with pytest.raises(DataError, match=r"'g' has shape \(2, 3\) for 3 units"):
        CoarseTable(["a", "b", "c"], [1, 2, 3], {"x": np.ones(3), "g": np.ones((2, 3))})
    with pytest.raises(DataError, match=r"'population' has shape \(2,\)"):
        CoarseTable(["a"], [1, 2], {})


def test_pipeline_and_coarse_io_build_no_unit_views(tmp_path, monkeypatch):
    def refuse(self, unit_id):
        raise AssertionError(f"CoarseTable.unit({unit_id!r}) called")

    schemas = make_schemas([("a", 3, 0), ("x", None, 0), ("b", 2, 1)])
    coarse = make_coarse(schemas, [7, 19, 33, 12, 25, 48, 11, 16, 21, 30, 14, 9])
    monkeypatch.setattr(CoarseTable, "unit", refuse)
    path = tmp_path / "coarse.csv"
    write_coarse_csv(path, coarse, schemas)
    loaded = load_coarse_csv(path, schemas)
    back = aggregate(generate(loaded, schemas, seed=1).table, schemas)
    assert back.unit_ids == coarse.unit_ids
    np.testing.assert_array_equal(back.populations, coarse.populations)


def test_aggregate_rejects_unfinalized():
    schemas = make_schemas([("gender", 2, 0)])
    block = UnitBlock("A", 2, {"gender": np.array([[0.5, 0.5], [0.2, 0.8]])})
    with pytest.raises(DataError, match="unfinalized"):
        aggregate(stack_blocks([block]), schemas)


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
    table = stack_blocks(blocks)
    path = tmp_path / "people.csv"
    write_individual_csv(path, table, schemas)
    back = load_individual_csv(path, schemas)
    assert back.unit_ids == ["B", "A"]
    for uid in ("A", "B"):
        np.testing.assert_array_equal(back.block(uid).columns["a"], table.block(uid).columns["a"])
        np.testing.assert_array_equal(back.block(uid).columns["x"], table.block(uid).columns["x"])


def test_write_individual_rejects_unfinalized(tmp_path):
    schemas = make_schemas([("a", 2, 0)])
    table = stack_blocks([UnitBlock("A", 1, {"a": np.array([[0.5, 0.5]])})])
    with pytest.raises(DataError, match="unfinalized"):
        write_individual_csv(tmp_path / "x.csv", table, schemas)


@pytest.mark.parametrize("x, g, message", [
    ([1.0, 1.0, np.nan], [0, 1, 1], "bad value 'nan' in column 'x', unit 'B': not a finite nonnegative real"),
    ([1.0, -1.0, 0.0], [0, 1, 1], "bad value '-1.0' in column 'x', unit 'B': not a finite nonnegative real"),
    ([1.0, 1.0, 0.0], [-1, 1, 1], r"class index -1 of 'g' outside \[0, 2\) in unit 'A'"),
    ([1.0, 1.0, 0.0], [0, 1, 5], r"class index 5 of 'g' outside \[0, 2\) in unit 'B'"),
], ids=["nan", "negative", "index-minus-one", "index-past-the-classes"])
def test_write_individual_rejects_what_the_loader_rejects(tmp_path, x, g, message):
    # each of these cells used to be written (a class index of -1 as the last label) or to raise a raw
    # IndexError; the loader would reject the first two files
    schemas = make_schemas([("g", 2, 0), ("x", None, 0)])
    table = IndividualTable(["A", "B"], [1, 2], {"g": np.array(g), "x": np.array(x)})
    path = tmp_path / "x.csv"
    with pytest.raises(DataError, match=rf"^write_individual_csv: {message}$"):
        write_individual_csv(path, table, schemas)
    assert not path.exists()


FAULT_SCHEMA = parse_schema([
    {"name": "edu", "kind": "categorical", "classes": ["a", "b", "c"]},
    {"name": "own", "kind": "categorical", "classes": ["yes", "no"]},
    {"name": "x", "kind": "continuous"},
])

FAULT_CSV = """unit_id,population,edu:a,edu:b,edu:c,own,x
A,10,0.2,0.3,0.5,0.25,4.0
B,20,0.1,0.1,0.8,0.5,2.5
"""


def _drop_column(name):
    def edit(header, rows):
        k = header.index(name)
        del header[k]
        for row in rows:
            del row[k]
    return edit


def _set_cell(column, value, row=1, **more):
    def edit(header, rows):
        rows[row][header.index(column)] = value
        for other, text in more.items():
            rows[row][header.index(other)] = text
    return edit


@pytest.mark.parametrize("edit, message", [
    (_drop_column("unit_id"), "missing required column 'unit_id'"),
    (_drop_column("population"), "missing required column 'population'"),
    (_drop_column("edu:c"),
     "no columns for categorical feature 'edu' (expected ['edu:a', 'edu:b', 'edu:c'] "
     "or a single binary column)"),
    (_drop_column("own"),
     "no columns for categorical feature 'own' (expected ['own:yes', 'own:no'] "
     "or a single binary column)"),
    (_drop_column("x"), "no column for continuous feature 'x'"),
    (_set_cell("x", "abc"), "bad value 'abc' in column 'x', unit 'B'"),
    (_set_cell("edu:b", ""), "bad value '' in column 'edu:b', unit 'B'"),
    (_set_cell("own", "half"), "bad value 'half' in column 'own', unit 'B'"),
    (_set_cell("population", "ten", row=0), "bad value 'ten' in column 'population', unit 'A'"),
    (_set_cell("population", "0"), "unit 'B' has population 0 < 1"),
    (_set_cell("population", str(2**63)), f"bad value '{2**63}' in column 'population', unit 'B'"),
    (_set_cell("edu:a", "nan"), "non-finite proportion for 'edu' in 'B'"),
    (_set_cell("edu:a", "1.5", **{"edu:b": "-0.5", "edu:c": "0.0"}), "proportion outside [0, 1] for 'edu' in unit 'B'"),
    (_set_cell("own", "1.5"), "proportion outside [0, 1] for 'own' in unit 'B'"),
    (_set_cell("edu:c", "0.7"), "proportions of 'edu' in unit 'B' sum to 0.900000 (tolerance 0.001)"),
    (_set_cell("x", "inf"), "non-finite mean for 'x' in unit 'B'"),
    (_set_cell("x", "-2.5"), "negative mean -2.5 for continuous feature 'x' in unit 'B'"),
], ids=[
    "no-unit-id", "no-population", "no-class-column", "no-binary-column", "no-continuous-column",
    "bad-mean-cell", "empty-proportion-cell", "bad-binary-cell", "bad-population-cell",
    "population-below-one", "population-too-large", "non-finite-proportion", "proportion-outside",
    "binary-outside", "sum-off", "non-finite-mean", "negative-mean",
])
def test_each_coarse_fault_has_its_exact_message(tmp_path, edit, message):
    lines = FAULT_CSV.splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    edit(header, rows)
    text = "\n".join(",".join(r) for r in [header] + rows) + "\n"
    with pytest.raises(DataError) as exc:
        load_coarse_csv(write(tmp_path, text), FAULT_SCHEMA)
    assert str(exc.value) == f"load_coarse_csv: {message}"


def test_fault_fixture_loads(tmp_path):
    coarse = load_coarse_csv(write(tmp_path, FAULT_CSV), FAULT_SCHEMA)
    np.testing.assert_array_equal(coarse.unit("B").values["own"], [0.5, 0.5])
    assert coarse.unit("A").values["x"] == 4.0


INDIVIDUAL_SCHEMA = make_schemas([("a", 3, 0), ("x", None, 0)])
INDIVIDUAL_CSV = "unit_id,person_index,a,x\nB,1,a_c2,0.5\nA,0,a_c0,1.25\nB,0,a_c1,2.0\n"


def _third_line(change):
    return lambda lines: [*lines[:2], change(lines[2]), *lines[3:]]


@pytest.mark.parametrize("loader, text, schemas", [
    (load_coarse_csv, FAULT_CSV, FAULT_SCHEMA),
    (load_individual_csv, INDIVIDUAL_CSV, INDIVIDUAL_SCHEMA),
], ids=["coarse", "individual"])
@pytest.mark.parametrize("edit, fault", [
    (_third_line(lambda line: line.rsplit(",", 1)[0]), "line 3 has {n_minus} cells, the header has {width}"),
    (_third_line(lambda line: line + ",7"), "line 3 has {n_plus} cells, the header has {width}"),
    (_third_line(lambda line: line + ","), "line 3 has {n_plus} cells, the header has {width}"),
    # a second 'x' column, whose cells the loaders once took over the first's
    (lambda lines: [lines[0] + ",x"] + [line + ",7" for line in lines[1:]], "names column 'x' more than once"),
], ids=["short", "long", "trailing-comma", "repeated-column"])
def test_row_of_the_wrong_length_names_file_and_line(tmp_path, loader, text, schemas, edit, fault):
    lines = text.splitlines()
    width = len(lines[0].split(","))
    path = write(tmp_path, "\n".join(edit(lines)) + "\n")
    with pytest.raises(DataError) as exc:
        loader(path, schemas)
    expected = fault.format(n_minus=width - 1, n_plus=width + 1, width=width)
    assert str(exc.value) == f"{loader.__name__}: {path} {expected}"


@pytest.mark.parametrize("loader, text, schemas", [
    (load_coarse_csv, FAULT_CSV, FAULT_SCHEMA),
    (load_individual_csv, INDIVIDUAL_CSV, INDIVIDUAL_SCHEMA),
], ids=["coarse", "individual"])
def test_blank_lines_are_skipped(tmp_path, loader, text, schemas):
    plain = loader(write(tmp_path, text, "plain.csv"), schemas)
    lines = text.splitlines()
    spaced = loader(write(tmp_path, "\n".join(lines[:2] + [""] + lines[2:]) + "\n\n\r\n", "spaced.csv"), schemas)
    assert spaced.unit_ids == plain.unit_ids
    assert pickle.dumps(spaced) == pickle.dumps(plain)


def test_individual_rows_are_grouped_and_sorted(tmp_path):
    table = load_individual_csv(write(tmp_path, INDIVIDUAL_CSV), INDIVIDUAL_SCHEMA)
    assert table.unit_ids == ["B", "A"]
    b = table.block("B")
    np.testing.assert_array_equal(b.person_index, [0, 1])
    np.testing.assert_array_equal(b.columns["a"], [1, 2])
    np.testing.assert_array_equal(b.columns["x"], [2.0, 0.5])
    assert b.columns["a"].dtype == np.int64 and b.columns["x"].dtype == np.float64


def test_unknown_class_names_file_and_unit(tmp_path):
    path = write(tmp_path, INDIVIDUAL_CSV.replace("a_c1", "robot"))
    with pytest.raises(DataError) as exc:
        load_individual_csv(path, INDIVIDUAL_SCHEMA)
    assert str(exc.value) == f"load_individual_csv: {path}: unknown class 'robot' for feature 'a' in unit 'B'"


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "-3.0", "NaN", "-1e-300"])
def test_continuous_cell_that_is_not_a_finite_nonnegative_real_names_file_column_and_unit(tmp_path, cell):
    path = write(tmp_path, INDIVIDUAL_CSV.replace("2.0", cell))
    with pytest.raises(DataError) as exc:
        load_individual_csv(path, INDIVIDUAL_SCHEMA)
    assert str(exc.value) == (f"load_individual_csv: {path}: bad value {cell!r} in column 'x', unit 'B': "
                              "not a finite nonnegative real")


def test_zero_continuous_cells_load(tmp_path):
    path = write(tmp_path, INDIVIDUAL_CSV.replace("2.0", "0.0").replace("0.5", "-0.0"))
    np.testing.assert_array_equal(load_individual_csv(path, INDIVIDUAL_SCHEMA).block("B").columns["x"], [0.0, 0.0])


def test_duplicate_person_index_message(tmp_path):
    text = INDIVIDUAL_CSV + "A,3,a_c0,1.0\nB,1,a_c0,1.0\nA,3,a_c1,1.0\nB,0,a_c0,1.0\n"
    path = write(tmp_path, text)
    with pytest.raises(DataError) as exc:
        load_individual_csv(path, INDIVIDUAL_SCHEMA)
    assert str(exc.value) == f"load_individual_csv: {path}: duplicate person_index [0, 1] in unit 'B'"


@st.composite
def coarse_tables(draw):
    """A random 1-3 feature schema and a valid coarse table over it.

    Binary proportions are stored as (p, 1 - p), so a single-column binary
    input loads back to the same vector.
    """
    schemas = []
    for i in range(draw(st.integers(1, 3))):
        n_classes = draw(st.sampled_from([None, 2, 2, 3, 5]))
        schemas.append(make_schemas([(f"f{i}", n_classes, 0)])[0])
    units = []
    for u in range(draw(st.integers(1, 5))):
        values = {}
        for sc in schemas:
            if not sc.is_categorical:
                values[sc.name] = draw(st.just(0.0) | st.floats(0.0, 1e6, allow_subnormal=False))
                continue
            weights = draw(st.lists(st.integers(0, 9), min_size=sc.n_classes, max_size=sc.n_classes))
            weights[0] += sum(weights) == 0
            props = np.array(weights, dtype=float) / sum(weights)
            values[sc.name] = np.array([props[0], 1.0 - props[0]]) if sc.n_classes == 2 else props
        units.append(AggregationUnit(f"u{u}", draw(st.integers(1, 10_000)), values))
    return schemas, stack_units(units)


def _single_column_binaries(text, schemas):
    """Rewrite a canonical coarse CSV so each binary feature is one first-class column."""
    rows = [line.split(",") for line in text.splitlines()]
    drop = {f"{sc.name}:{sc.classes[1]}" for sc in schemas if sc.n_classes == 2}
    rename = {f"{sc.name}:{sc.classes[0]}": sc.name for sc in schemas if sc.n_classes == 2}
    keep = [i for i, name in enumerate(rows[0]) if name not in drop]
    rows[0] = [rename.get(name, name) for name in rows[0]]
    return "\n".join(",".join(row[i] for i in keep) for row in rows) + "\n"


def _assert_same_coarse(got, want):
    assert got.unit_ids == want.unit_ids
    for g, w in zip(got.units, want.units):
        assert g.population == w.population and list(g.values) == list(w.values)
        for name, value in w.values.items():
            assert type(g.values[name]) is type(value)
            np.testing.assert_array_equal(g.values[name], value, strict=True)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=coarse_tables(), shuffle=st.randoms(use_true_random=False))
def test_write_load_round_trips(tmp_path, data, shuffle):
    schemas, coarse = data
    path = tmp_path / "coarse.csv"
    write_coarse_csv(path, coarse, schemas)
    _assert_same_coarse(load_coarse_csv(path, schemas), coarse)
    single = write(tmp_path, _single_column_binaries(path.read_text(), schemas), "single.csv")
    _assert_same_coarse(load_coarse_csv(single, schemas), coarse)

    rng = np.random.default_rng(shuffle.getrandbits(32))
    blocks = []
    for unit in coarse.units:
        n = min(unit.population, 20)
        columns = {
            sc.name: rng.integers(0, sc.n_classes, n) if sc.is_categorical else rng.exponential(3.0, n)
            for sc in schemas
        }
        blocks.append(UnitBlock(unit.unit_id, n, columns))
    people = tmp_path / "people.csv"
    write_individual_csv(people, stack_blocks(blocks), schemas)
    header, *body = people.read_text().splitlines()
    shuffle.shuffle(body)
    people.write_text("\n".join([header] + body) + "\n")
    back = load_individual_csv(people, schemas)
    assert back.unit_ids == list(dict.fromkeys(line.split(",")[0] for line in body))
    for block in blocks:
        got = back.block(block.unit_id)
        assert got.size == block.size
        np.testing.assert_array_equal(got.person_index, np.arange(block.size), strict=True)
        for name, col in block.columns.items():
            np.testing.assert_array_equal(got.columns[name], col, strict=True)


def test_person_index_is_kept_on_rewrite(tmp_path):
    text = "unit_id,person_index,a,x\nA,20,a_c1,2.0\nA,10,a_c0,1.5\n"
    table = load_individual_csv(write(tmp_path, text), INDIVIDUAL_SCHEMA)
    out = tmp_path / "again.csv"
    write_individual_csv(out, table, INDIVIDUAL_SCHEMA)
    assert out.read_text().splitlines() == ["unit_id,person_index,a,x", "A,10,a_c0,1.5", "A,20,a_c1,2.0"]


def test_generated_block_numbers_its_rows():
    np.testing.assert_array_equal(UnitBlock("u", 3).person_index, [0, 1, 2])


def test_column_stacks_blocks_and_set_column_splits_them_back():
    table = stack_blocks([UnitBlock("A", 2, {"x": np.array([1.0, 2.0])}),
                             UnitBlock("B", 1, {"x": np.array([3.0])})])
    np.testing.assert_array_equal(table.column("x"), [1.0, 2.0, 3.0])
    probs = np.arange(6.0).reshape(3, 2)
    table.set_column("p", probs)
    np.testing.assert_array_equal(table.block("B").columns["p"], [[4.0, 5.0]])
    assert all(np.shares_memory(b.columns["p"], probs) for b in table.blocks)
    np.testing.assert_array_equal(table.column("p"), probs)


def _two_unit_table():
    blocks = [UnitBlock("A", 2, {"a": np.array([0, 1]), "x": np.array([1.0, 2.0])}),
              UnitBlock("B", 3, {"a": np.array([2, 2, 0]), "x": np.array([3.0, 4.0, 5.0])}, np.array([4, 7, 9]))]
    return blocks, stack_blocks(blocks)


def _assert_read_only(table):
    """Nothing can be written into the table's arrays: not through a view, ``column`` or ``person_index``."""
    before = {name: table.column(name).copy() for name in ("a", "x")}
    index = table.person_index.copy()
    for array in (table.block("B").columns["a"], table.block("B").columns["x"], table.block("B").person_index,
                  table.column("a"), table.column("x"), table.person_index):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    for name, values in before.items():
        np.testing.assert_array_equal(table.column(name), values, strict=True)
    np.testing.assert_array_equal(table.person_index, index, strict=True)


def test_each_feature_is_stored_once():
    blocks, table = _two_unit_table()
    for name in ("a", "x"):
        assert table.column(name) is table.column(name)
        assert all(np.shares_memory(b.columns[name], table.column(name)) for b in table.blocks)
    np.testing.assert_array_equal(table.person_index, [0, 1, 4, 7, 9])
    np.testing.assert_array_equal(table.block("B").person_index, [4, 7, 9])
    assert table.blocks is table.blocks and table.block("B") is table.blocks[1]
    _assert_read_only(table)
    table.set_column("x", np.array([9.0, 8.0, 7.0, 6.0, 5.0]))
    np.testing.assert_array_equal(table.block("B").columns["x"], [7.0, 6.0, 5.0])
    with pytest.raises(TypeError):
        table.blocks[0].columns["x"] = np.zeros(2)
    with pytest.raises(DataError, match="4 values of 'x' for 5 rows"):
        table.set_column("x", np.zeros(4))
    # the caller's blocks are neither changed nor shared
    np.testing.assert_array_equal(blocks[1].columns["a"], [2, 2, 0])
    np.testing.assert_array_equal(blocks[1].columns["x"], [3.0, 4.0, 5.0])
    assert type(blocks[0].columns) is dict and not np.shares_memory(blocks[0].columns["x"], table.column("x"))


def test_a_write_drops_the_views_built_before_it():
    _, table = _two_unit_table()
    before = table.blocks
    assert table.blocks is before  # no write between two reads: the same list
    table.set_column("x", np.array([9.0, 8.0, 7.0, 6.0, 5.0]))
    after = table.blocks
    assert after is not before and table.blocks is after
    np.testing.assert_array_equal(after[1].columns["x"], [7.0, 6.0, 5.0])
    assert all(np.shares_memory(b.columns["x"], table.column("x")) for b in after)
    # a view read before the write keeps the arrays it was built from, and nothing can be written through it
    np.testing.assert_array_equal(before[1].columns["x"], [3.0, 4.0, 5.0])
    for array in (before[1].columns["a"], before[1].columns["x"], before[1].person_index):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1
    np.testing.assert_array_equal(table.column("a"), [0, 1, 2, 2, 0])
    np.testing.assert_array_equal(after[1].columns["a"], [2, 2, 0])
    _assert_read_only(table)


def test_a_table_pickles_with_its_views():
    _, table = _two_unit_table()
    back = pickle.loads(pickle.dumps(table))
    assert back.unit_ids == ["A", "B"]
    np.testing.assert_array_equal(back.person_index, table.person_index)
    for name in ("a", "x"):
        np.testing.assert_array_equal(back.column(name), table.column(name))
        assert all(np.shares_memory(b.columns[name], back.column(name)) for b in back.blocks)
    _assert_read_only(back)


def test_pooled_sd_is_the_columns_sd_until_the_feature_is_set_again():
    _, table = _two_unit_table()
    for name in ("a", "x"):
        sd = table.pooled_sd(name)
        assert type(sd) is float and sd == float(table.column(name).std())
        assert table.pooled_sd(name) == sd
    table.set_column("x", np.array([1.0, 1.0, 1.0, 1.0, 11.0]))
    assert table.pooled_sd("x") == 4.0 == float(table.column("x").std())
    assert table.pooled_sd("a") == float(table.column("a").std())  # another feature's sd is kept
    # a pickled copy has its own sds: a write to it leaves the original's
    back = pickle.loads(pickle.dumps(table))
    back.set_column("x", np.zeros(5))
    assert back.pooled_sd("x") == 0.0 and table.pooled_sd("x") == 4.0


def test_empty_table():
    table = stack_blocks([])
    assert table.blocks == [] and table.unit_ids == [] and table.total_rows() == 0
    assert table.sizes.shape == (0,)


@pytest.mark.parametrize("args, message", [
    ((["A", "B", "A"], [1, 1, 2], {}), "IndividualTable: more than one unit 'A'"),
    ((["A", "B"], [1], {}), "IndividualTable: 1 sizes for 2 units"),
    ((["A", "B"], [2, 1], {"a": np.array([0, 1, 2]), "x": np.array([1.0, 2.0])}), "2 values of 'x' for 3 rows"),
    ((["A"], [2], {}, np.array([0])), r"IndividualTable: person_index has shape \(1,\) for 2 rows"),
], ids=["repeated-unit", "sizes-count", "short", "short-person-index"])
def test_blocks_that_do_not_stack_are_named(args, message):
    # a table's per-unit row blocks must stack into its unit list, columns and person_index
    with pytest.raises(DataError, match=message):
        IndividualTable(*args)


def test_default_person_index_numbers_rows_as_a_block_does():
    sizes = [3, 0, 2]
    table = IndividualTable(["A", "B", "C"], sizes, {})
    expected = np.concatenate([UnitBlock(uid, n).person_index for uid, n in zip("ABC", sizes)])
    np.testing.assert_array_equal(table.person_index, expected)
    assert table.person_index.dtype == expected.dtype
    assert [b.person_index.tolist() for b in table.blocks] == [[0, 1, 2], [], [0, 1]]


def test_a_table_built_from_columns_pickles_and_round_trips_through_csv(tmp_path):
    table = IndividualTable(["B", "A"], [3, 2], {"a": np.array([2, 2, 0, 0, 1]),
                                                 "x": np.array([3.0, 4.0, 5.0, 1.0, 2.0])}, [4, 7, 9, 0, 1])
    path = tmp_path / "people.csv"
    write_individual_csv(path, table, INDIVIDUAL_SCHEMA)
    for back in (pickle.loads(pickle.dumps(table)), load_individual_csv(path, INDIVIDUAL_SCHEMA)):
        assert back.unit_ids == ["B", "A"]
        np.testing.assert_array_equal(back.sizes, [3, 2])
        np.testing.assert_array_equal(back.person_index, [4, 7, 9, 0, 1])
        for name in ("a", "x"):
            np.testing.assert_array_equal(back.column(name), table.column(name))
        np.testing.assert_array_equal(back.block("A").columns["x"], [1.0, 2.0])


def test_individual_io_truth_and_scoring_build_no_unit_views(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("IndividualTable.blocks read")

    monkeypatch.setattr(IndividualTable, "blocks", property(refuse))
    config = default_study_config()
    config["units"] = 12
    truth, schemas = generate_truth(config, stream(3, "truth"))
    path = tmp_path / "truth.csv"
    write_individual_csv(path, truth, schemas)
    loaded = load_individual_csv(path, schemas)
    loaded = pickle.loads(pickle.dumps(loaded))
    coarse = aggregate(loaded, schemas)
    assert coarse.unit_ids == truth.unit_ids
    np.testing.assert_array_equal(coarse.populations, truth.sizes)
    assert cell_accuracy(align_rows(truth, loaded, schemas), schemas).overall == 1.0


def test_repeated_coarse_unit_names_the_unit_and_file(tmp_path):
    path = write(tmp_path, FAULT_CSV + "A,5,0.2,0.3,0.5,0.25,1.0\n")
    with pytest.raises(DataError) as exc:
        load_coarse_csv(path, FAULT_SCHEMA)
    assert str(exc.value) == f"load_coarse_csv: {path} has more than one row for unit 'A'"


def _rounded_study_csv(tmp_path):
    """The 500-unit simulation study's coarse CSV with every proportion rounded to 3 decimals."""
    truth, schemas = generate_truth(default_study_config(), stream(3, "truth"))
    path = tmp_path / "study.csv"
    write_coarse_csv(path, aggregate(truth, schemas), schemas)
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    rows = [row[:2] + [f"{float(v):.3f}" for v in row[2:]] for row in rows]
    return path, header, rows, schemas


def test_study_table_rounded_to_three_decimals_loads(tmp_path):
    path, header, rows, schemas = _rounded_study_csv(tmp_path)
    path.write_text("\n".join(",".join(r) for r in [header] + rows) + "\n")
    coarse = load_coarse_csv(path, schemas)
    for sc in schemas:
        np.testing.assert_allclose(coarse.matrix([sc]).sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_proportion_sum_tolerance_grows_by_a_thousandth_per_two_classes(tmp_path):
    path, header, rows, schemas = _rounded_study_csv(tmp_path)
    age = [i for i, name in enumerate(header) if name.startswith("age:")]

    def load_with_last_age_cell(text):
        # unit 0's seven age cells: six of 0.147, then ``text``
        for i in age:
            rows[0][i] = "0.147"
        rows[0][age[-1]] = text
        path.write_text("\n".join(",".join(r) for r in [header] + rows) + "\n")
        return load_coarse_csv(path, schemas)

    # 1.003 is within 7 // 2 thousandths of one, 1.004 is not
    assert abs(load_with_last_age_cell("0.121").units[0].values["age"].sum() - 1.0) < 1e-12
    with pytest.raises(DataError) as exc:
        load_with_last_age_cell("0.122")
    assert str(exc.value) == ("load_coarse_csv: proportions of 'age' in unit 'unit0000' "
                              "sum to 1.004000 (tolerance 0.003)")
