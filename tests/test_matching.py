import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from downscale import DataError, IndividualTable, MatchQuery, UnitBlock, parse_schema, probabilistic_match
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


@pytest.mark.parametrize("attributes, weights, message", [
    ({"income": float("nan")}, {}, "value for 'income' is not finite: nan"),
    ({"income": "inf"}, {}, "value for 'income' is not finite: 'inf'"),
    ({"income": -float("inf")}, {}, "value for 'income' is not finite: -inf"),
    ({"age": "53"}, {"age": float("nan")}, "weight for 'age' is not finite: nan"),
    ({"age": "53", "income": 1.0}, {"income": float("inf")}, "weight for 'income' is not finite: inf"),
    ({"age": "53"}, {"gender": "-inf"}, "weight for 'gender' is not finite: '-inf'"),
], ids=["nan-value", "inf-text-value", "minus-inf-value", "nan-weight", "inf-weight", "minus-inf-text-weight"])
def test_non_finite_value_or_weight_names_the_feature(attributes, weights, message):
    with pytest.raises(DataError, match=f"^probabilistic_match: {message}$"):
        probabilistic_match(MatchQuery("V3N1P5", attributes, weights), BURNABY_POOL, POOL_SCHEMA)


@pytest.mark.parametrize("k", [0, -1, 2.5, 2.0, "2", True, None])
def test_k_that_is_not_an_integer_of_at_least_one_rejected(k):
    with pytest.raises(DataError, match=r"^probabilistic_match: k must be an integer >= 1, got "):
        probabilistic_match(MatchQuery("V3N1P5", {"age": "53"}), BURNABY_POOL, POOL_SCHEMA, k=k)


def test_numpy_integer_k_accepted():
    results = probabilistic_match(MatchQuery("V3N1P5", {"age": "53"}), BURNABY_POOL, POOL_SCHEMA, k=np.int64(2))
    assert len(results) == 2


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


TWO_INCOMES = parse_schema([
    {"name": "age", "kind": "categorical", "classes": AGE_CLASSES, "ordinal": True},
    {"name": "gender", "kind": "categorical", "classes": ["male", "female"]},
    {"name": "income", "kind": "continuous", "batch": 1, "core": False},
    {"name": "rent", "kind": "continuous", "batch": 1, "core": False},
])


def reference_match(query, pool, schemas, k):
    """The matcher written plainly: every query recomputes the pooled sd from ``pool.column(name)``
    and the rows are sorted by (distance, person_index)."""
    by_name = {sc.name: sc for sc in schemas}
    block = pool.block(query.unit_id)
    distance = np.zeros(block.size)
    for name, value in query.attributes.items():
        sc, col = by_name[name], block.columns[name]
        if sc.is_categorical:
            index = sc.classes.index(value)
            d = np.abs(col - index) / (sc.n_classes - 1) if sc.ordinal else (col != index).astype(float)
        else:
            sd = float(pool.column(name).std())
            d = np.abs(col - float(value))
            d = d / sd if sd > 0 else d
        distance += float(query.weights.get(name, 1.0)) * d
    rows = sorted(range(block.size), key=lambda r: (distance[r], block.person_index[r]))[:k]
    return [(int(block.person_index[r]), float(distance[r]),
             {sc.name: sc.classes[block.columns[sc.name][r]] if sc.is_categorical else float(block.columns[sc.name][r])
              for sc in schemas}) for r in rows]


incomes = st.floats(0.0, 1e6, allow_subnormal=False)


@st.composite
def pools_and_queries(draw):
    """A random pool over ``TWO_INCOMES``, a replacement income column, and queries whose first asks for an income."""
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    total = sum(sizes)
    columns = {
        "age": np.array(draw(st.lists(st.integers(0, len(AGE_CLASSES) - 1), min_size=total, max_size=total))),
        "gender": np.array(draw(st.lists(st.integers(0, 1), min_size=total, max_size=total))),
        "income": np.array(draw(st.lists(incomes, min_size=total, max_size=total))),
        "rent": np.array(draw(st.lists(incomes, min_size=total, max_size=total))),
    }
    person_index = np.concatenate([np.sort(draw(st.lists(st.integers(0, 99), min_size=n, max_size=n, unique=True)))
                                   for n in sizes])
    pool = IndividualTable([f"u{i}" for i in range(len(sizes))], sizes, columns, person_index)
    replacement = np.array(draw(st.lists(incomes, min_size=total, max_size=total)))
    queries = []
    for i in range(draw(st.integers(1, 4))):
        names = draw(st.lists(st.sampled_from(["age", "gender", "income", "rent"]), min_size=1, unique=True))
        if i == 0 and "income" not in names:
            names.append("income")
        attributes = {name: draw(st.sampled_from(AGE_CLASSES)) if name == "age"
                      else draw(st.sampled_from(["male", "female"])) if name == "gender" else draw(incomes)
                      for name in names}
        weights = draw(st.dictionaries(st.sampled_from(names), st.floats(0.0, 10.0, allow_subnormal=False)))
        queries.append(MatchQuery(f"u{draw(st.integers(0, len(sizes) - 1))}", attributes, weights))
    return pool, replacement, queries, draw(st.integers(1, 7))


@settings(max_examples=100, deadline=None)
@given(pools_and_queries())
def test_match_equals_a_reference_that_recomputes_the_pooled_sd_per_query(case):
    pool, replacement, queries, k = case

    def same(table):
        for query in queries:
            got = [(r.person_index, r.distance, r.cells) for r in probabilistic_match(query, table, TWO_INCOMES, k)]
            assert got == reference_match(query, table, TWO_INCOMES, k)

    same(pool)
    pool.set_column("income", replacement)  # the sds read above must not outlive the column they came from
    same(pool)
    same(pickle.loads(pickle.dumps(pool)))
