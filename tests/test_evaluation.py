import numpy as np
import pytest

from downscale import (
    DataError,
    UnitBlock,
    aggregate,
    align_rows,
    cell_accuracy,
    default_study_config,
    generate,
    generate_truth,
    parse_schema,
    run_simulation_study,
)
from downscale.evaluation import SIZE_BUCKETS, AccuracyReport, size_bucket
from downscale.rng import stream
from conftest import make_schemas, stack_blocks

INTERNET = ["news", "podcasts", "sports", "fashion", "food", "health", "travel", "social", "music"]

WORKED_SCHEMA = parse_schema(
    [
        {"name": "age", "kind": "categorical", "batch": 0, "core": True,
         "classes": ["15-19", "20-24", "25-29", "30-34", "35-39", "40-44", "45+"]},
        {"name": "gender", "kind": "categorical", "batch": 0, "core": True, "classes": ["male", "female"]},
        {"name": "income", "kind": "categorical", "batch": 1, "core": False,
         "classes": [f"{10*i}-{10*(i+1)}k" for i in range(13)]},
    ]
    + [{"name": n, "kind": "categorical", "batch": 1, "core": False, "classes": ["no", "yes"]}
       for n in INTERNET]
)


def person(age, gender, income, yes_set):
    idx = {
        "age": WORKED_SCHEMA[0].classes.index(age),
        "gender": WORKED_SCHEMA[1].classes.index(gender),
        "income": WORKED_SCHEMA[2].classes.index(income),
    }
    for name in INTERNET:
        idx[name] = 1 if name in yes_set else 0
    return idx


def table_from_rows(rows_per_unit):
    blocks = []
    for unit_id, rows in rows_per_unit.items():
        n = len(rows)
        columns = {}
        for sc in WORKED_SCHEMA:
            columns[sc.name] = np.array([r[sc.name] for r in rows], dtype=np.int64)
        blocks.append(UnitBlock(unit_id, n, columns))
    return stack_blocks(blocks)


def test_worked_example_scores_six_of_twelve():
    truth_row = person("20-24", "female", "40-50k", {"sports", "podcasts", "social"})
    generated_row = person("20-24", "female", "50-60k", {"sports", "fashion", "travel", "music"})
    truth = table_from_rows({"u": [truth_row]})
    generated = table_from_rows({"u": [generated_row]})
    pairs = align_rows(truth, generated, WORKED_SCHEMA)
    report = cell_accuracy(pairs, WORKED_SCHEMA)
    assert report.overall == 6 / 12
    assert report.overall == 0.50


def test_alignment_pairs_matching_core_rows():
    young_f = person("20-24", "female", "40-50k", {"sports"})
    old_m = person("30-34", "male", "20-30k", set())
    truth = table_from_rows({"u": [old_m, young_f]})
    generated = table_from_rows({"u": [young_f, old_m]})
    pairs = align_rows(truth, generated, WORKED_SCHEMA)
    report = cell_accuracy(pairs, WORKED_SCHEMA)
    assert report.overall == 1.0


def test_identity_on_identical_tables():
    rows = [person("25-29", "male", "0-10k", {"news"}), person("45+", "female", "120-130k", set())]
    truth = table_from_rows({"a": rows, "b": rows})
    generated = table_from_rows({"a": rows, "b": rows})
    report = cell_accuracy(align_rows(truth, generated, WORKED_SCHEMA), WORKED_SCHEMA)
    assert report.overall == 1.0
    assert report.overall_row_mean == 1.0
    assert all(v == 1.0 for v in report.by_feature.values())


def test_zero_when_every_cell_differs():
    schemas = make_schemas([("a", 2, 0), ("b", 3, 1)])
    t = stack_blocks([UnitBlock("u", 2, {"a": np.array([0, 0]), "b": np.array([1, 1])})])
    g = stack_blocks([UnitBlock("u", 2, {"a": np.array([1, 1]), "b": np.array([2, 0])})])
    # empty sort key pairs rows positionally
    report = cell_accuracy(align_rows(t, g, schemas, sort_features=[]), schemas)
    assert report.overall == 0.0


def test_population_mismatch_rejected():
    schemas = make_schemas([("a", 2, 0)])
    t = stack_blocks([UnitBlock("u", 2, {"a": np.array([0, 1])})])
    g = stack_blocks([UnitBlock("u", 3, {"a": np.array([0, 1, 1])})])
    with pytest.raises(DataError, match="population mismatch"):
        align_rows(t, g, schemas)


def test_unit_set_mismatch_rejected():
    schemas = make_schemas([("a", 2, 0)])
    t = stack_blocks([UnitBlock("u", 1, {"a": np.array([0])})])
    g = stack_blocks([UnitBlock("v", 1, {"a": np.array([0])})])
    with pytest.raises(DataError, match="unit sets differ"):
        align_rows(t, g, schemas)


def test_unit_only_in_one_table_is_named():
    schemas = make_schemas([("a", 2, 0)])
    t = stack_blocks([UnitBlock(u, 1, {"a": np.array([0])}) for u in ("u", "w")])
    g = stack_blocks([UnitBlock(u, 1, {"a": np.array([0])}) for u in ("w", "v")])
    with pytest.raises(DataError, match="unit 'u' is only in the truth table"):
        align_rows(t, g, schemas)
    with pytest.raises(DataError, match="unit 'u' is only in the generated table"):
        align_rows(g, t, schemas)


def test_units_are_paired_by_id_not_by_position():
    schemas = make_schemas([("a", 3, 0), ("b", 2, 1), ("x", None, 1)])
    rng = np.random.default_rng(5)

    def blocks(sizes):
        return [UnitBlock(uid, n, {"a": rng.integers(0, 3, n), "b": rng.integers(0, 2, n),
                                   "x": rng.integers(0, 2, n) * 1.5}) for uid, n in sizes]

    sizes = [("A", 4), ("B", 12), ("C", 30)]
    truth = stack_blocks(blocks(sizes))
    generated = blocks(sizes)
    aligned = cell_accuracy(align_rows(truth, stack_blocks(generated), schemas), schemas)
    reordered = stack_blocks([generated[1], generated[2], generated[0]])
    pairs = align_rows(truth, reordered, schemas)
    assert cell_accuracy(pairs, schemas) == aligned
    # every pair lies in one unit: the generated rows follow the truth table's unit order
    units = np.repeat(np.array(truth.unit_ids), truth.sizes)
    np.testing.assert_array_equal(units[pairs.truth_order],
                                  np.repeat(np.array(reordered.unit_ids), reordered.sizes)[pairs.generated_order])
    with pytest.raises(DataError, match=r"population mismatch in unit 'C' \(30 vs 29\)"):
        align_rows(truth, stack_blocks(blocks([("C", 29), ("A", 4), ("B", 12)])), schemas)


def test_size_buckets():
    assert size_bucket(1) == "1-10"
    assert size_bucket(10) == "1-10"
    assert size_bucket(11) == "10-25"
    assert size_bucket(25) == "10-25"
    assert size_bucket(50) == "25-50"
    assert size_bucket(100) == "50-100"
    assert size_bucket(101) == "100+"
    assert size_bucket(5000) == "100+"


def test_random_assignment_matches_one_over_c(rng):
    # uniform random generated cells against arbitrary truth
    n = 10_000
    for c in (2, 3, 13):
        schemas = make_schemas([("f", c, 0)])
        t = stack_blocks([UnitBlock("u", n, {"f": rng.integers(0, c, n)})])
        g = stack_blocks([UnitBlock("u", n, {"f": rng.integers(0, c, n)})])
        report = cell_accuracy(align_rows(t, g, schemas, sort_features=[]), schemas)
        assert abs(report.by_class_count[c] - 1.0 / c) < 0.02
        assert report.baselines[c] == 1.0 / c


def test_single_person_units_reconstruct_exactly():
    cfg = {
        "units": 30,
        "size_low": 1,
        "size_high": 1,
        "latent_r": 0.2,
        "unit_sd": 0.4,
        "features": [
            {"name": "a", "kind": "categorical", "classes": ["x", "y", "z"]},
            {"name": "b", "kind": "categorical", "classes": ["p", "q"], "batch": 1, "core": False},
        ],
    }
    truth, schemas = generate_truth(cfg, stream(0, "truth"))
    coarse = aggregate(truth, schemas)
    result = generate(coarse, schemas, seed=0, outlier_removal=False)
    report = cell_accuracy(align_rows(truth, result.table, schemas), schemas)
    assert report.overall == 1.0


def test_independent_binary_features_match_derived_oracle():
    # all features independent; the pipeline can only exploit marginals.
    # For a non-sort feature, generated counts equal truth counts exactly and
    # pairing is uninformative, so the expected match rate per unit is
    # sum_c (count_c / n)^2; the sort feature is matched exactly.
    rng = np.random.default_rng(4242)
    schemas = make_schemas([("s0", 2, 0), ("f1", 2, 1), ("f2", 2, 1), ("f3", 2, 1), ("f4", 2, 1)])
    blocks = []
    for m in range(60):
        n = 40
        cols = {}
        for sc in schemas:
            p = rng.uniform(0.2, 0.8)
            cols[sc.name] = (rng.random(n) < p).astype(np.int64)
        blocks.append(UnitBlock(f"u{m:03d}", n, cols))
    truth = stack_blocks(blocks)
    coarse = aggregate(truth, schemas)
    result = generate(coarse, schemas, seed=7, outlier_removal=False)
    report = cell_accuracy(align_rows(truth, result.table, schemas), schemas)

    assert report.by_feature["s0"] == 1.0
    oracles = []
    observed = []
    for block in truth.blocks:
        n = block.size
        for name in ("f1", "f2", "f3", "f4"):
            counts = np.bincount(block.columns[name], minlength=2)
            oracles.append(float(np.sum((counts / n) ** 2)))
    oracle = float(np.mean(oracles))
    got = float(np.mean([report.by_feature[f] for f in ("f1", "f2", "f3", "f4")]))
    assert abs(got - oracle) < 0.02, f"got {got}, oracle {oracle}"


def test_simulation_study_smoke():
    cfg = default_study_config()
    cfg["units"] = 25
    with_or, without_or = run_simulation_study(cfg, seed=0, max_train_rows=300)
    for report in (with_or, without_or):
        assert 0.0 < report.overall <= 1.0
        assert set(report.baselines) == {2, 3, 5, 7, 13}
        assert sum(report.n_units.values()) == 25


def _per_unit_report(truth, generated, schemas):
    """Reference scoring: sort each unit on its own, count hits in dicts."""
    keys = [sc.name for sc in schemas if sc.core]
    cells, hits, rows = {}, {}, []
    for t, g in zip(truth.blocks, generated.blocks):
        t_order, g_order = (np.lexsort([b.columns[k] for k in reversed(keys)]) for b in (t, g))
        row = np.zeros(t.size, dtype=np.int64)
        for sc in schemas:
            a, b = t.columns[sc.name][t_order], g.columns[sc.name][g_order]
            scale = np.maximum(1.0, np.maximum(np.abs(a), np.abs(b)))
            hit = a == b if sc.is_categorical else np.abs(a - b) <= 1e-9 * scale
            row += hit
            for group in ("all", size_bucket(t.size), sc.name) + ((sc.n_classes,) if sc.is_categorical else ()):
                cells[group] = cells.get(group, 0) + t.size
                hits[group] = hits.get(group, 0) + int(hit.sum())
        rows.append(row / len(schemas))
    ratio = {group: hits[group] / cells[group] for group in cells}
    classes = sorted(sc.n_classes for sc in schemas if sc.is_categorical)
    return AccuracyReport(
        overall=ratio["all"],
        overall_row_mean=float(np.mean(np.concatenate(rows))),
        by_unit_size={b: ratio[b] for b, _, _ in SIZE_BUCKETS if b in ratio},
        by_class_count={c: ratio[c] for c in classes},
        baselines={c: 1.0 / c for c in classes},
        n_units={b: sum(size_bucket(t.size) == b for t in truth.blocks) for b, _, _ in SIZE_BUCKETS if b in ratio},
        by_feature={sc.name: ratio[sc.name] for sc in schemas},
    )


def test_report_equals_a_per_unit_count():
    config = default_study_config()
    config.update(units=60, size_low=1)
    config["features"] = config["features"] + [{"name": "spend", "kind": "continuous", "batch": 1, "core": False}]
    truth, schemas = generate_truth(config, stream(5, "truth"))
    rng = np.random.default_rng(5)
    blocks = []
    for t in truth.blocks:
        columns = {}
        for sc in schemas:
            col = t.columns[sc.name][rng.permutation(t.size)]
            noise = rng.random(t.size) < 0.5
            col[noise] = rng.integers(0, sc.n_classes, noise.sum()) if sc.is_categorical else 1.0
            columns[sc.name] = col
        blocks.append(UnitBlock(t.unit_id, t.size, columns))
    generated = stack_blocks(blocks)
    assert {size_bucket(t.size) for t in truth.blocks} == {label for label, _, _ in SIZE_BUCKETS}
    report = cell_accuracy(align_rows(truth, generated, schemas), schemas)
    assert report == _per_unit_report(truth, generated, schemas)
