import numpy as np
import pytest

from downscale import AggregationUnit, DataError, flag_outliers, score_units
from downscale.outliers import OutlierReport, score_matrix, write_report_csv
from conftest import make_coarse, make_schemas, make_units, stack_units


def report_from_scores(scores):
    return OutlierReport({f"u{i:03d}": s for i, s in enumerate(scores)})


def test_unit_at_max_of_every_coordinate_scores_highest(rng):
    values = rng.uniform(0, 1, size=(100, 6))
    values[17] = values.max(axis=0) + 0.1
    scores = score_matrix(values)
    assert scores.argmax() == 17


def test_identical_units_score_zero():
    schemas = make_schemas([("a", 2, 0), ("x", None, 0)])
    units = make_units(schemas, [10] * 20)
    # every unit takes the first unit's values
    coarse = stack_units([AggregationUnit(u.unit_id, u.population, units[0].values) for u in units])
    report = score_units(coarse, schemas)
    assert set(report.scores.values()) == {0.0}


def test_shifted_unit_flagged():
    # 50 units, N(0, 1) coordinates (shifted positive), one unit +6 sigma on 3 of them
    rng = np.random.default_rng(42)
    schemas = make_schemas([(f"x{i}", None, 0) for i in range(5)])
    values = rng.standard_normal((50, 5)) + 10.0
    values[31, :3] += 6.0
    units = [
        AggregationUnit(f"u{i:03d}", 20, {sc.name: float(v) for sc, v in zip(schemas, row)})
        for i, row in enumerate(values)
    ]
    report = flag_outliers(score_units(stack_units(units), schemas), contamination=0.02)
    assert report.flagged == {"u031"}


def test_contamination_zero_flags_nothing(rng):
    report = report_from_scores(rng.uniform(0, 5, 40))
    assert flag_outliers(report, 0.0).flagged == set()


def test_top_k_flagged_matches_sort_oracle(rng):
    scores = rng.uniform(0, 5, 100)
    report = report_from_scores(scores)
    flagged = flag_outliers(report, 0.1).flagged
    expected = {f"u{i:03d}" for i in np.argsort(-scores, kind="stable")[:10]}
    assert flagged == expected
    assert len(flagged) == 10


def test_quantile_arithmetic_ten_units(rng):
    report = report_from_scores(rng.uniform(0, 5, 10))
    assert len(flag_outliers(report, 0.49).flagged) == 4


def test_contamination_range_checked(rng):
    report = report_from_scores(rng.uniform(0, 5, 10))
    for bad in (-0.01, 0.5, 1.0):
        with pytest.raises(DataError, match="contamination"):
            flag_outliers(report, bad)


def test_flag_invariant_threshold(rng):
    scores = rng.uniform(0, 5, 50)
    report = flag_outliers(report_from_scores(scores), 0.2)
    assert report.flagged == {u for u, s in report.scores.items() if s > report.threshold}


def test_monotone_transform_invariance(rng):
    values = rng.uniform(0, 1, size=(40, 4))
    base = flag_outliers(report_from_scores(score_matrix(values)), 0.1).flagged
    for transform in (np.exp, lambda x: 3.0 * x + 2.0, lambda x: x**3):
        warped = values.copy()
        warped[:, 2] = transform(warped[:, 2])
        flagged = flag_outliers(report_from_scores(score_matrix(warped)), 0.1).flagged
        assert flagged == base


def test_fewer_than_ten_units_skips_scoring():
    schemas = make_schemas([("a", 2, 0)])
    coarse = make_coarse(schemas, [10] * 9)
    report = score_units(coarse, schemas)
    assert report.skipped
    assert flag_outliers(report, 0.3).flagged == set()


def test_report_csv(tmp_path, rng):
    report = flag_outliers(report_from_scores(rng.uniform(0, 5, 12)), 0.25)
    path = tmp_path / "outliers.csv"
    write_report_csv(path, report)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "unit_id,score,flagged"
    assert len(lines) == 13
    assert sum(line.endswith(",1") for line in lines[1:]) == len(report.flagged)
