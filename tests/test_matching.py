import numpy as np
import pytest

from downscale import DataError, MatchQuery, UnitBlock, parse_schema, probabilistic_match
from conftest import stack_blocks

# ages as ordinal year classes so index distance mirrors year distance
AGE_CLASSES = [str(y) for y in range(18, 71)]
POOL_SCHEMA = parse_schema([
    {"name": "age", "kind": "categorical", "classes": AGE_CLASSES, "ordinal": True},
    {"name": "gender", "kind": "categorical", "classes": ["male", "female"]},
    {"name": "income", "kind": "continuous", "batch": 1, "core": False},
])


def pool_table(rows_by_unit):
    blocks = []
    for unit_id, rows in rows_by_unit.items():
        blocks.append(
            UnitBlock(
                unit_id,
                len(rows),
                {
                    "age": np.array([AGE_CLASSES.index(str(a)) for a, _, _ in rows], dtype=np.int64),
                    "gender": np.array([0 if g == "male" else 1 for _, g, _ in rows], dtype=np.int64),
                    "income": np.array([x for _, _, x in rows], dtype=float),
                },
            )
        )
    return stack_blocks(blocks)


BURNABY_POOL = pool_table({
    "V3N1P5": [
        (19, "female", 8_000.0),
        (65, "female", 15_000.0),
        (51, "male", 9_000.0),
        (60, "male", 9_500.0),
        (54, "male", 95_000.0),
    ],
    "M5S3G2": [(30, "female", 40_000.0)],
})


def test_exact_match_has_zero_distance():
    query = MatchQuery("V3N1P5", {"age": "51", "gender": "male"})
    results = probabilistic_match(query, BURNABY_POOL, POOL_SCHEMA, k=1)
    assert results[0].distance == 0.0
    assert results[0].cells["age"] == "51"


def test_lease_buyer_scenario_ranks_age_distance_one_first():
    # 53-year-old male in V3N1P5: the 54-year-old male wins over the
    # 19-year-old female and the 60-year-old male
    query = MatchQuery("V3N1P5", {"age": "53", "gender": "male"})
    results = probabilistic_match(query, BURNABY_POOL, POOL_SCHEMA, k=5)
    assert results[0].cells["age"] == "54" and results[0].cells["gender"] == "male"
    ranked_ages = [r.cells["age"] for r in results]
    assert ranked_ages.index("54") < ranked_ages.index("60")
    assert ranked_ages.index("54") < ranked_ages.index("19")


def test_k_larger_than_pool_returns_whole_pool():
    query = MatchQuery("V3N1P5", {"gender": "male"})
    results = probabilistic_match(query, BURNABY_POOL, POOL_SCHEMA, k=50)
    assert len(results) == 5


def test_ties_broken_by_person_index():
    query = MatchQuery("V3N1P5", {"gender": "female"})
    results = probabilistic_match(query, BURNABY_POOL, POOL_SCHEMA, k=2)
    assert [r.person_index for r in results] == [0, 1]


def test_absent_unit_rejected():
    with pytest.raises(DataError, match="absent from pool"):
        probabilistic_match(MatchQuery("X0X0X0", {"age": "53"}), BURNABY_POOL, POOL_SCHEMA)


def test_unknown_feature_rejected():
    with pytest.raises(DataError, match="unknown features"):
        probabilistic_match(MatchQuery("V3N1P5", {"shoe_size": "44"}), BURNABY_POOL, POOL_SCHEMA)


def test_unknown_class_rejected():
    with pytest.raises(DataError, match="unknown class"):
        probabilistic_match(MatchQuery("V3N1P5", {"age": "17"}), BURNABY_POOL, POOL_SCHEMA)


def test_empty_attributes_rejected():
    with pytest.raises(DataError, match="no known attributes"):
        probabilistic_match(MatchQuery("V3N1P5", {}), BURNABY_POOL, POOL_SCHEMA)


def test_negative_weight_rejected():
    query = MatchQuery("V3N1P5", {"age": "53"}, weights={"age": -1.0})
    with pytest.raises(DataError, match="negative weight"):
        probabilistic_match(query, BURNABY_POOL, POOL_SCHEMA)
    query = MatchQuery("V3N1P5", {"age": "53"}, weights={"age": "x"})
    with pytest.raises(DataError, match="weight for 'age' is not a number: 'x'"):
        probabilistic_match(query, BURNABY_POOL, POOL_SCHEMA)



def test_ranking_invariant_under_weight_rescaling():
    base = MatchQuery("V3N1P5", {"age": "53", "gender": "male", "income": 50_000.0})
    scaled = MatchQuery(
        "V3N1P5",
        base.attributes,
        weights={"age": 3.0, "gender": 3.0, "income": 3.0},
    )
    a = probabilistic_match(base, BURNABY_POOL, POOL_SCHEMA, k=5)
    b = probabilistic_match(scaled, BURNABY_POOL, POOL_SCHEMA, k=5)
    assert [r.person_index for r in a] == [r.person_index for r in b]
    for ra, rb in zip(a, b):
        assert abs(rb.distance - 3.0 * ra.distance) < 1e-12


def test_nominal_distance_is_zero_one():
    # gender is nominal: any mismatch costs 1 regardless of label
    query = MatchQuery("V3N1P5", {"gender": "male"})
    results = probabilistic_match(query, BURNABY_POOL, POOL_SCHEMA, k=5)
    distances = {r.cells["gender"]: r.distance for r in results}
    assert distances["male"] == 0.0
    assert distances["female"] == 1.0


def test_ordinal_distance_normalized_by_class_count():
    query = MatchQuery("V3N1P5", {"age": "53"})
    results = probabilistic_match(query, BURNABY_POOL, POOL_SCHEMA, k=5)
    by_age = {r.cells["age"]: r.distance for r in results}
    c = len(AGE_CLASSES)
    assert abs(by_age["54"] - 1.0 / (c - 1)) < 1e-12
    assert abs(by_age["60"] - 7.0 / (c - 1)) < 1e-12


def test_continuous_distance_uses_pooled_sd():
    query = MatchQuery("V3N1P5", {"income": 9_000.0})
    results = probabilistic_match(query, BURNABY_POOL, POOL_SCHEMA, k=5)
    values = np.concatenate([b.columns["income"] for b in BURNABY_POOL.blocks])
    sd = values.std()
    expected_second = 500.0 / sd
    assert results[0].distance == 0.0
    assert abs(results[1].distance - expected_second) < 1e-12


def test_constant_continuous_falls_back_to_raw_difference():
    pool = pool_table({"U": [(30, "male", 5.0), (40, "male", 5.0)]})
    query = MatchQuery("U", {"income": 7.5})
    results = probabilistic_match(query, pool, POOL_SCHEMA, k=2)
    assert all(abs(r.distance - 2.5) < 1e-12 for r in results)
