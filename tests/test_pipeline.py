import functools
import json

import numpy as np
import pytest

from downscale import (
    AggregationUnit,
    CoarseTable,
    DataError,
    EstimationError,
    IndividualTable,
    UnitBlock,
    aggregate,
    generate,
    integerize_budget,
    parse_schema,
)
from downscale import pipeline
from downscale.copula import load_model, save_model
from conftest import make_coarse, make_schemas

CENSUS_SCHEMA = parse_schema([
    {"name": "avg_age", "kind": "continuous"},
    {"name": "mortgage", "kind": "categorical", "classes": ["yes", "no"]},
    {"name": "bilingual", "kind": "categorical", "classes": ["yes", "no"], "batch": 1, "core": False},
    {"name": "owns_car", "kind": "categorical", "classes": ["yes", "no"], "batch": 1, "core": False},
])


def census_coarse():
    rows = [
        ("M5S3G2", 467, 35.1, 0.32, 0.69, 0.55),
        ("V3N1P5", 269, 37.2, 0.35, 0.67, 0.62),
        ("L5M6V9", 41, 49.1, 0.67, 0.43, 0.81),
    ]
    units = []
    for uid, pop, age, mort, bil, car in rows:
        units.append(AggregationUnit(uid, pop, {
            "avg_age": age,
            "mortgage": np.array([mort, 1 - mort]),
            "bilingual": np.array([bil, 1 - bil]),
            "owns_car": np.array([car, 1 - car]),
        }))
    return CoarseTable(units)


def test_census_style_three_units_produce_777_rows():
    # too few units for correlation estimation: the pipeline degrades to
    # independent coordinates and still populates every unit
    result = generate(census_coarse(), CENSUS_SCHEMA, seed=0)
    assert result.table.total_rows() == 467 + 269 + 41
    assert [b.size for b in result.table.blocks] == [467, 269, 41]
    np.testing.assert_array_equal(result.model.correlation.entries, np.eye(3))


def test_marginal_round_trip_small():
    schemas = make_schemas([("a", 3, 0), ("x", None, 0), ("b", 2, 1)])
    coarse = make_coarse(schemas, [7, 19, 33, 12, 25, 48, 11, 16, 21, 30, 14, 9])
    result = generate(coarse, schemas, seed=3)
    check = aggregate(result.table, schemas)
    for unit in coarse.units:
        got = check.unit(unit.unit_id)
        for sc in schemas:
            if sc.is_categorical:
                budget = integerize_budget(unit.population, unit.values[sc.name])
                counts = np.asarray(got.values[sc.name]) * unit.population
                np.testing.assert_allclose(counts, budget, atol=1e-9)
            else:
                rel = abs(got.values[sc.name] - unit.values[sc.name]) / max(1.0, unit.values[sc.name])
                assert rel < 1e-6


def test_aggregation_born_coarse_reproduced_exactly():
    # coarse proportions that came from real counts round-trip bit-exactly
    rng = np.random.default_rng(31)
    schemas = make_schemas([("a", 3, 0), ("b", 2, 1)])
    blocks = []
    for m in range(14):
        n = int(rng.integers(4, 40))
        blocks.append(UnitBlock(f"u{m:02d}", n, {
            "a": rng.integers(0, 3, n),
            "b": rng.integers(0, 2, n),
        }))
    truth = IndividualTable(blocks)
    coarse = aggregate(truth, schemas)
    result = generate(coarse, schemas, seed=4)
    check = aggregate(result.table, schemas)
    for unit in coarse.units:
        got = check.unit(unit.unit_id)
        for name in ("a", "b"):
            np.testing.assert_array_equal(got.values[name], unit.values[name])


def test_generation_deterministic():
    schemas = make_schemas([("a", 2, 0), ("b", 3, 1)])
    coarse = make_coarse(schemas, [10, 20, 15, 12, 30, 25, 18, 22, 16, 24, 13, 28])
    r1 = generate(coarse, schemas, seed=42)
    r2 = generate(coarse, schemas, seed=42)
    for b1, b2 in zip(r1.table.blocks, r2.table.blocks):
        for name in b1.columns:
            np.testing.assert_array_equal(b1.columns[name], b2.columns[name])
    assert r1.manifest == r2.manifest
    r3 = generate(coarse, schemas, seed=43)
    assert any(
        not np.array_equal(b1.columns[n], b3.columns[n])
        for b1, b3 in zip(r1.table.blocks, r3.table.blocks)
        for n in b1.columns
    )


def test_saved_model_reproduces_run(tmp_path):
    schemas = make_schemas([("a", 2, 0), ("b", 2, 1)])
    coarse = make_coarse(schemas, [10, 20, 15, 12, 30, 25, 18, 22, 16, 24, 13, 28])
    first = generate(coarse, schemas, seed=9)
    path = tmp_path / "model.json"
    save_model(path, first.model, first.predictors)
    model, predictors = load_model(path)
    second = generate(coarse, schemas, seed=9, model=model, predictors=predictors)
    assert second.manifest["model_source"] == "supplied"
    for b1, b2 in zip(first.table.blocks, second.table.blocks):
        for name in b1.columns:
            np.testing.assert_array_equal(b1.columns[name], b2.columns[name])


@pytest.mark.parametrize("batch", [0, 1], ids=["core", "batch"])
def test_zero_continuous_mean_is_a_point_mass_at_zero(tmp_path, batch):
    schemas = make_schemas([("a", 2, 0), ("x", None, 0), ("y", None, batch), ("b", 3, 1)])
    coarse = make_coarse(schemas, [10, 20, 15, 12, 30, 25, 18, 22, 16, 24, 13, 28])
    for unit_id in ("u0001", "u0004", "u0009"):
        coarse.unit(unit_id).values["y"] = 0.0
    first = generate(coarse, schemas, seed=8)
    check = aggregate(first.table, schemas)
    for unit in coarse.units:
        got = check.unit(unit.unit_id)
        for sc in schemas:
            if sc.is_categorical:
                budget = integerize_budget(unit.population, unit.values[sc.name])
                np.testing.assert_array_equal(np.rint(got.values[sc.name] * unit.population), budget)
            else:
                rel = abs(got.values[sc.name] - unit.values[sc.name]) / max(1.0, unit.values[sc.name])
                assert rel < 1e-6
    for unit_id in ("u0001", "u0004", "u0009"):
        np.testing.assert_array_equal(first.table.block(unit_id).columns["y"], 0.0)
    path = tmp_path / "model.json"
    save_model(path, first.model, first.predictors)
    # strict JSON: no bare -Infinity/NaN tokens
    json.loads(path.read_text(), parse_constant=_reject_constant)
    model, predictors = load_model(path)
    assert model.marginals == first.model.marginals
    if batch == 0:
        assert model.marginals["u0001"][3].a == -np.inf
    second = generate(coarse, schemas, seed=8, model=model, predictors=predictors)
    for b1, b2 in zip(first.table.blocks, second.table.blocks):
        for name in b1.columns:
            np.testing.assert_array_equal(b1.columns[name], b2.columns[name])


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


def test_supplied_model_must_match_units(tmp_path):
    schemas = make_schemas([("a", 2, 0)])
    coarse = make_coarse(schemas, [10] * 12)
    result = generate(coarse, schemas, seed=1)
    other = make_coarse(schemas, [10] * 11 + [99])
    with pytest.raises(DataError, match="lacks marginals|population mismatch"):
        generate(other, schemas, seed=1, model=result.model, predictors=result.predictors)


def test_errors_carry_phase_names(monkeypatch):
    schemas = make_schemas([("x", None, 0), ("a", 2, 0)])
    units = [
        AggregationUnit(f"u{i}", 10, {"x": -1.0, "a": np.array([0.4, 0.6])})
        for i in range(12)
    ]
    with pytest.raises(EstimationError, match="phase2/copula"):
        generate(CoarseTable(units), schemas, seed=0)
    # a predictor that cannot converge within its iteration cap
    schemas = make_schemas([("a", 3, 0), ("t", 4, 1)])
    monkeypatch.setattr(pipeline, "fit_predictor", functools.partial(pipeline.fit_predictor, max_iter=1))
    with pytest.raises(EstimationError, match=r"^phase3/batches: fit_predictor: target 't' did not converge"):
        generate(make_coarse(schemas, [20] * 12), schemas, seed=0)


def test_invalid_sd_mode_rejected():
    schemas = make_schemas([("a", 2, 0)])
    coarse = make_coarse(schemas, [10] * 12)
    with pytest.raises(DataError, match="sd_mode"):
        generate(coarse, schemas, sd_mode="bogus")


@pytest.mark.parametrize("max_train_rows", [0, -5])
def test_invalid_max_train_rows_rejected(max_train_rows):
    schemas = make_schemas([("a", 2, 0), ("b", 2, 1)])
    coarse = make_coarse(schemas, [10] * 12)
    with pytest.raises(DataError, match="max_train_rows must be None or >= 1"):
        generate(coarse, schemas, max_train_rows=max_train_rows)


def test_outlier_removal_off_keeps_scores():
    schemas = make_schemas([("a", 2, 0)])
    coarse = make_coarse(schemas, [10] * 20)
    result = generate(coarse, schemas, seed=0, outlier_removal=False)
    assert result.outlier_report.flagged == set()
    assert len(result.outlier_report.scores) == 20


def test_flagged_units_still_generated():
    schemas = make_schemas([("a", 2, 0), ("x", None, 0)])
    coarse = make_coarse(schemas, [10] * 20)
    result = generate(coarse, schemas, seed=0, contamination=0.2)
    assert len(result.outlier_report.flagged) == 4
    assert [b.size for b in result.table.blocks] == [u.population for u in coarse.units]
    assert result.manifest["flagged_units"] == sorted(result.outlier_report.flagged)


def test_argmax_mode_full_pipeline_stays_exact():
    schemas = make_schemas([("a", 2, 0), ("b", 3, 1)])
    coarse = make_coarse(schemas, [6, 14, 23, 9, 31, 12, 17, 20, 8, 26, 15, 11])
    result = generate(coarse, schemas, seed=2, phase3_mode="argmax")
    check = aggregate(result.table, schemas)
    for unit in coarse.units:
        budget = integerize_budget(unit.population, unit.values["b"])
        counts = np.rint(np.asarray(check.unit(unit.unit_id).values["b"]) * unit.population)
        np.testing.assert_array_equal(counts.astype(int), budget)


def test_paper_sd_mode_full_pipeline():
    # the literal deviation scaling routinely exceeds the beta variance
    # ceiling; the clamp must keep generation well-posed and exact
    schemas = make_schemas([("a", 3, 0), ("x", None, 0)])
    coarse = make_coarse(schemas, [10, 25, 40, 12, 30, 22, 18, 9, 27, 14, 33, 20])
    result = generate(coarse, schemas, seed=6, sd_mode="paper")
    check = aggregate(result.table, schemas)
    for unit in coarse.units:
        budget = integerize_budget(unit.population, unit.values["a"])
        counts = np.rint(np.asarray(check.unit(unit.unit_id).values["a"]) * unit.population)
        np.testing.assert_array_equal(counts.astype(int), budget)
        rel = abs(check.unit(unit.unit_id).values["x"] - unit.values["x"]) / max(1.0, unit.values["x"])
        assert rel < 1e-6


def test_manifest_records_decision_toggles():
    schemas = make_schemas([("a", 2, 0)])
    coarse = make_coarse(schemas, [10] * 12)
    result = generate(coarse, schemas, seed=17, sd_mode="pooled", phase3_mode="argmax",
                      contamination=0.1, max_train_rows=500)
    m = result.manifest
    assert m["seed"] == 17
    assert m["sd_mode"] == "pooled"
    assert m["phase3"] == "argmax"
    assert m["contamination"] == 0.1
    assert m["max_train_rows"] == 500
    assert m["individuals"] == result.table.total_rows()
