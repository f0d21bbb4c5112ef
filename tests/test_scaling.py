import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from downscale import DataError, assign_categories, integerize_budget, shift_continuous
from downscale.rng import draw_rows, stream


def test_largest_remainder_three_seats():
    # floors (1, 0, 0), remainders (.5, .9, .6): seats go to .9 then .6
    np.testing.assert_array_equal(integerize_budget(3, np.array([0.5, 0.3, 0.2])), [1, 1, 1])


def test_largest_remainder_census_mortgage():
    # 467 * 0.32 = 149.44 floors to 149; the remaining seat goes to the .56 fraction
    np.testing.assert_array_equal(integerize_budget(467, np.array([0.32, 0.68])), [149, 318])


def test_degenerate_proportion():
    for n in (1, 5, 467):
        np.testing.assert_array_equal(integerize_budget(n, np.array([1.0, 0.0])), [n, 0])


def test_tie_broken_by_declaration_order():
    # floors (0, 0), both remainders 0.5: the single seat goes to the first class
    np.testing.assert_array_equal(integerize_budget(1, np.array([0.5, 0.5])), [1, 0])


@given(st.integers(1, 500), st.integers(2, 8), st.integers(0, 10_000))
@settings(max_examples=200, deadline=None)
def test_budget_sums_to_population(n, c, seed):
    p = np.random.default_rng(seed).dirichlet(np.full(c, 1.0))
    budget = integerize_budget(n, p)
    assert budget.sum() == n
    assert budget.min() >= 0


@given(st.integers(1, 300), st.integers(2, 6), st.integers(0, 10_000))
@settings(max_examples=200, deadline=None)
def test_count_rational_proportions_recovered(n, c, seed):
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(n, rng.dirichlet(np.full(c, 1.0)))
    np.testing.assert_array_equal(integerize_budget(n, counts / n), counts)


def test_assign_exhausted_class_forces_remaining():
    rows = np.array([[0.1, 0.9], [0.1, 0.9]])
    out = assign_categories(rows, np.array([2, 0]), stream(0, "a"))
    np.testing.assert_array_equal(out, [0, 0])


def test_assign_deterministic_vectors_any_seed():
    rows = np.array([[1.0, 0.0], [0.0, 1.0]])
    for seed in range(20):
        out = assign_categories(rows, np.array([1, 1]), stream(seed, "a"))
        np.testing.assert_array_equal(out, [0, 1])


def test_assign_exact_counts_and_first_row_law():
    n = 1000
    rows = np.tile([0.7, 0.3], (n, 1))
    budget = integerize_budget(n, np.array([0.7, 0.3]))
    np.testing.assert_array_equal(budget, [700, 300])
    first = []
    for seed in range(200):
        out = assign_categories(rows, budget, stream(seed, "mc"))
        counts = np.bincount(out, minlength=2)
        np.testing.assert_array_equal(counts, [700, 300])
        first.append(out[0] == 0)
    # Monte Carlo frequency oracle for the first row's unconstrained draw
    assert abs(np.mean(first) - 0.7) < 0.04


def test_assign_budget_sum_checked():
    rows = np.array([[0.5, 0.5]])
    with pytest.raises(DataError, match="budget sums"):
        assign_categories(rows, np.array([2, 0]), stream(0, "a"))


def test_assign_zero_mass_row_falls_back_to_budget():
    # second row's vector sits entirely on the exhausted class
    rows = np.array([[1.0, 0.0], [1.0, 0.0]])
    out = assign_categories(rows, np.array([1, 1]), stream(0, "a"))
    np.testing.assert_array_equal(out, [0, 1])


def test_assign_determinism():
    rng = np.random.default_rng(1)
    rows = rng.dirichlet((1.0, 1.0, 1.0), size=50)
    budget = integerize_budget(50, np.array([0.4, 0.35, 0.25]))
    a = assign_categories(rows, budget, stream(5, "x"))
    b = assign_categories(rows, budget, stream(5, "x"))
    np.testing.assert_array_equal(a, b)


@given(st.integers(1, 200), st.integers(2, 5), st.integers(0, 100_000))
@settings(max_examples=150, deadline=None)
def test_assign_counts_always_equal_budget(n, c, seed):
    rng = np.random.default_rng(seed)
    budget = rng.multinomial(n, rng.dirichlet(np.full(c, 1.0)))
    # rows include smooth vectors, one-hots and zero-heavy vectors
    rows = rng.dirichlet(np.full(c, 0.3), size=n)
    hard = rng.random(n) < 0.3
    if hard.any():
        onehot = np.zeros((hard.sum(), c))
        onehot[np.arange(hard.sum()), rng.integers(0, c, hard.sum())] = 1.0
        rows[hard] = onehot
    out = assign_categories(rows, budget, np.random.default_rng(seed))
    np.testing.assert_array_equal(np.bincount(out, minlength=c), budget)


def test_shift_zero_when_mean_matches():
    values = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(shift_continuous(values, 2.0), values)


def test_shift_plus_one():
    np.testing.assert_allclose(shift_continuous(np.array([1.0, 3.0]), 3.0), [2.0, 4.0])


def test_shift_with_flooring_redistribution():
    # shift of -1.1 floors the two small values; the excess is removed
    # proportionally from what remains, leaving (0, 0, 6)
    out = shift_continuous(np.array([0.1, 0.2, 9.0]), 2.0)
    assert out.min() >= 0.0
    assert abs(out.mean() - 2.0) <= 1e-6 * 2.0
    np.testing.assert_allclose(out, [0.0, 0.0, 6.0], atol=1e-12)


def test_shift_empty_unit_rejected():
    with pytest.raises(DataError, match="empty unit"):
        shift_continuous(np.array([]), 1.0)


def test_shift_conservation_before_flooring(rng):
    values = rng.uniform(5, 10, 40)
    target = 8.5
    out = shift_continuous(values, target)
    # no flooring occurs here, so the sum moves by exactly n * (target - mean)
    expected = values.sum() + 40 * (target - values.mean())
    assert abs(out.sum() - expected) < 1e-9 * abs(expected)


@given(st.integers(1, 50), st.floats(0.0, 20.0), st.integers(0, 10_000))
@settings(max_examples=200, deadline=None)
def test_shift_mean_and_nonnegativity(n, target, seed):
    values = np.random.default_rng(seed).uniform(0, 10, n)
    out = shift_continuous(values, target)
    assert out.min() >= 0.0
    assert abs(out.mean() - target) <= 1e-6 * max(1.0, target)


# --- exact law of the assignment -------------------------------------------
# Row i draws from its vector restricted to the classes with budget left, or,
# when that restriction has no mass, in proportion to the budget left.  The
# cases enumerate every outcome of that sequential law; fixed seeds keep the
# chi-square test deterministic.

LAW_CASES = {
    "uniform-3x3-budget-111": ([[1 / 3] * 3] * 3, [1, 1, 1]),
    "zero-mass-fallback": ([[0.6, 0.4, 0.0], [0.5, 0.5, 0.0], [1.0, 0.0, 0.0], [0.1, 0.2, 0.7]], [1, 1, 2]),
    "skewed-4x2": ([[0.9, 0.1], [0.2, 0.8], [0.5, 0.5], [0.7, 0.3]], [3, 1]),
    "mixed-4x3": ([[0.7, 0.2, 0.1], [0.1, 0.1, 0.8], [0.3, 0.3, 0.4], [0.05, 0.9, 0.05]], [2, 1, 1]),
}
LAW_SEEDS = 20_000
LAW_LEVEL = 1e-3


def sequential_law(rows, budget) -> dict[tuple, float]:
    """Exact probability of every class sequence under the sequential masked law."""
    law: dict[tuple, float] = {}

    def walk(i, left, prefix, prob):
        if i == len(rows):
            law[prefix] = law.get(prefix, 0.0) + prob
            return
        w = np.asarray(rows[i], dtype=float) * (left > 0)
        if w.sum() <= 0.0:
            w = left.astype(float)
        for k in np.flatnonzero(w):
            nxt = left.copy()
            nxt[k] -= 1
            walk(i + 1, nxt, prefix + (int(k),), prob * w[k] / w.sum())

    walk(0, np.asarray(budget, dtype=np.int64), (), 1.0)
    return law


def chi_square_p(outcomes: list[tuple], law: dict[tuple, float]) -> float:
    from scipy.stats import chi2

    assert set(outcomes) <= set(law), "an outcome the sequential law cannot produce"
    seen = {key: 0 for key in law}
    for key in outcomes:
        seen[key] += 1
    expected = np.array([law[key] * len(outcomes) for key in law])
    observed = np.array([seen[key] for key in law])
    return float(chi2.sf(((observed - expected) ** 2 / expected).sum(), len(law) - 1))


def test_sequential_law_sums_to_one():
    for rows, budget in LAW_CASES.values():
        assert abs(sum(sequential_law(rows, budget).values()) - 1.0) < 1e-12
    # the 3-row uniform case: every permutation is equally likely
    assert sequential_law(*LAW_CASES["uniform-3x3-budget-111"]) == pytest.approx(
        {p: 1 / 6 for p in [(0, 1, 2), (0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]})


@pytest.mark.parametrize("case", sorted(LAW_CASES))
def test_assign_follows_the_sequential_masked_law(case):
    rows, budget = LAW_CASES[case]
    rows, budget = np.array(rows), np.array(budget)
    outcomes = [tuple(assign_categories(rows, budget, stream(seed, "law")).tolist()) for seed in range(LAW_SEEDS)]
    assert chi_square_p(outcomes, sequential_law(rows, budget)) > LAW_LEVEL


@pytest.mark.parametrize("population, proportions, expected", [
    (5, [0.2] * 5, [1] * 5),
    (3, [1 / 6] * 6, [1, 1, 1, 0, 0, 0]),
    (2, [0.25] * 4, [1, 1, 0, 0]),
    (7, [1 / 3] * 3, [3, 2, 2]),
    (10, [0.1] * 10, [1] * 10),
    (4, [0.125, 0.375, 0.125, 0.375], [1, 2, 0, 1]),
    (6, [0.25, 0.25, 0.25, 0.25], [2, 2, 1, 1]),
], ids=["even", "half-seats", "quarter-seats", "thirds", "snapped-tenths", "odd-halves", "two-extra-seats"])
def test_largest_remainder_known_ties(population, proportions, expected):
    budget = integerize_budget(population, np.array(proportions))
    np.testing.assert_array_equal(budget, expected)
    assert budget.sum() == population


# --- all units in one call -------------------------------------------------

def test_assign_over_many_units_follows_the_sequential_masked_law():
    # the three-class cases share one call, unit u drawing case u % 3, each from its own stream
    names = [name for name in sorted(LAW_CASES) if len(LAW_CASES[name][1]) == 3]
    units = [names[u % len(names)] for u in range(len(names) * LAW_SEEDS)]
    rows = np.concatenate([LAW_CASES[name][0] for name in units])
    budget = np.array([LAW_CASES[name][1] for name in units])
    out = assign_categories(rows, budget, [stream(u, "law-units") for u in range(len(units))])
    ends = np.cumsum(budget.sum(axis=1))
    outcomes = {name: [] for name in names}
    for name, part in zip(units, np.split(out, ends[:-1])):
        outcomes[name].append(tuple(part.tolist()))
    for name in names:
        assert chi_square_p(outcomes[name], sequential_law(*LAW_CASES[name])) > LAW_LEVEL, name


def assign_one_row_at_a_time(prob_rows, budget, rngs):
    """The assignment law as a plain loop: each unit takes one uniform per row
    from its generator, and row r draws its vector masked to the classes with
    budget left (the budget left where that has no mass), scaled to a largest
    weight of 1, with uniform r."""
    rows = iter(np.asarray(prob_rows, dtype=float))
    out = []
    for left, g in zip(np.array(budget, dtype=np.int64).reshape(len(rngs), -1), rngs):
        for u in 1.0 - g.random(int(left.sum())):
            w = next(rows) * (left > 0)
            if not w.max() > 0.0:
                w = left.astype(float)
            out.append(int(draw_rows(w[None] / w.max(), np.array([u]))[0]))
            left[out[-1]] -= 1
    return np.array(out, dtype=np.int64)


# exact zeros, 1e-300 and 5e-324 entries, and rows of 0s and 1s (one-hots among them)
_SPECIAL_ENTRIES = np.array([0.0, 5e-324, 1e-300, 1.0])


@st.composite
def _assignment_calls(draw):
    """Units of 0 to about 30 rows over 2 to 13 classes (the default study's widest feature):
    zero-budget classes, one-row units, calls with no rows, and a heavy class per unit, so a
    unit's mask often narrows to one class with rows still pending.  Half the cells are
    special entries, a quarter of the rows one-hot."""
    c = draw(st.integers(2, 13))
    units = draw(st.integers(1, 6))
    budget = np.array(draw(st.lists(st.sampled_from([0, 0, 1, 1, 2]), min_size=units * c, max_size=units * c)),
                      dtype=np.int64).reshape(units, c)
    for u in range(units):
        budget[u, draw(st.integers(0, c - 1))] += draw(st.sampled_from([0, 1, 3, 8, 15]))
    seed = draw(st.integers(0, 2**32))
    rng = np.random.default_rng(seed)
    n = int(budget.sum())
    rows = np.where(rng.random((n, c)) < 0.5, _SPECIAL_ENTRIES[rng.integers(0, 4, (n, c))],
                    rng.uniform(1e-3, 1.0, (n, c)))
    hot = rng.random(n) < 0.25
    rows[hot] = np.eye(c)[rng.integers(0, c, int(hot.sum()))]
    return rows, budget, seed


@given(_assignment_calls())
@example((np.zeros((0, 3)), np.zeros((2, 3), dtype=np.int64), 0))
@settings(max_examples=300, deadline=None)
def test_assign_equals_the_one_row_at_a_time_loop(call):
    rows, budget, seed = call
    out = assign_categories(rows, budget, [stream(seed, "loop", u) for u in range(len(budget))])
    loop = assign_one_row_at_a_time(rows, budget, [stream(seed, "loop", u) for u in range(len(budget))])
    np.testing.assert_array_equal(out, loop)
    np.testing.assert_array_equal(np.bincount(out, minlength=budget.shape[1]), budget.sum(axis=0))


def _random_units(seed, n_units, c):
    """Per-unit budgets and stacked probability rows with one-hot (zero-mass prone) rows mixed in."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(1, 60, n_units)
    budget = np.array([rng.multinomial(n, rng.dirichlet(np.full(c, 1.0))) for n in sizes])
    rows = rng.dirichlet(np.full(c, 0.3), size=int(sizes.sum()))
    hard = rng.random(len(rows)) < 0.3
    rows[hard] = np.eye(c)[rng.integers(0, c, int(hard.sum()))]
    return sizes, budget, rows


@pytest.mark.parametrize("seed", range(5))
def test_each_unit_of_an_all_units_call_is_its_one_unit_call(seed):
    sizes, budget, rows = _random_units(seed, 40, 2 + seed % 3)
    out = assign_categories(rows, budget, [stream(seed, "unit", u) for u in range(len(sizes))])
    loop = assign_one_row_at_a_time(rows, budget, [stream(seed, "unit", u) for u in range(len(sizes))])
    np.testing.assert_array_equal(out, loop)
    bounds = np.cumsum(sizes)[:-1]
    for u, (part, prob) in enumerate(zip(np.split(out, bounds), np.split(rows, bounds))):
        np.testing.assert_array_equal(part, assign_categories(prob, budget[u], stream(seed, "unit", u)))
        np.testing.assert_array_equal(np.bincount(part, minlength=budget.shape[1]), budget[u])

    # values near zero make some units take flooring passes
    values = np.random.default_rng(seed).lognormal(0.0, 1.5, int(sizes.sum()))
    means = np.random.default_rng(seed + 1).uniform(0.0, 3.0, len(sizes))
    shifted = shift_continuous(values, means, sizes)
    for part, unit_values, mean in zip(np.split(shifted, bounds), np.split(values, bounds), means):
        np.testing.assert_array_equal(part, shift_continuous(unit_values, mean))


def test_constant_one_hot_rows_fill_each_unit_from_its_budget():
    """A constant batch predictor gives every row one class: past its budget each row has zero mass."""
    sizes = np.arange(1, 61) * 7
    budget = np.stack([sizes - 2 * (sizes // 3), sizes // 3, sizes // 3], axis=1)
    rows = np.tile([1.0, 0.0, 0.0], (int(sizes.sum()), 1))
    out = assign_categories(rows, budget, [stream(9, "unit", u) for u in range(len(sizes))])
    loop = assign_one_row_at_a_time(rows, budget, [stream(9, "unit", u) for u in range(len(sizes))])
    np.testing.assert_array_equal(out, loop)
    for u, part in enumerate(np.split(out, np.cumsum(sizes)[:-1])):
        np.testing.assert_array_equal(part, assign_categories(rows[: sizes[u]], budget[u], stream(9, "unit", u)))
        np.testing.assert_array_equal(np.bincount(part, minlength=3), budget[u])


@pytest.mark.parametrize("kind", ["random", "ties"])
def test_budget_matrix_equals_the_per_unit_budgets(kind):
    rng = np.random.default_rng(7)
    populations = rng.integers(1, 200, 300)
    if kind == "random":
        proportions = rng.dirichlet(np.full(5, 1.0), size=300)
    else:  # eighths: many equal fractional parts and products on an integer
        proportions = rng.multinomial(8, np.full(5, 0.2), size=300) / 8
    matrix = integerize_budget(populations, proportions)
    np.testing.assert_array_equal(matrix, [integerize_budget(n, p) for n, p in zip(populations, proportions)])
    np.testing.assert_array_equal(matrix.sum(axis=1), populations)


def test_assign_needs_one_generator_per_unit():
    with pytest.raises(DataError, match="budget shape"):
        assign_categories(np.full((4, 2), 0.5), np.array([[1, 1], [1, 1]]), [stream(0, "a")])


def test_assign_with_no_rows_returns_no_classes():
    out = assign_categories(np.zeros((0, 3)), np.zeros((2, 3), dtype=np.int64), [stream(0, "a"), stream(1, "a")])
    assert out.shape == (0,)


def test_shift_sizes_must_cover_the_values():
    with pytest.raises(DataError, match="unit sizes sum to 3"):
        shift_continuous(np.ones(4), np.array([1.0, 1.0]), np.array([1, 2]))


def _mixed_mass_units():
    """200 units of dense rows, rows holding 1e-300 and 5e-324 entries, rows with
    exact zeros and one-hot rows; every fourth unit has a class with one seat,
    which its dense rows can exhaust mid-round."""
    rng = np.random.default_rng(2024)
    c = 4
    sizes = rng.integers(1, 40, 200)
    budget = np.zeros((200, c), dtype=np.int64)
    for u, size in enumerate(sizes.tolist()):
        p = rng.dirichlet(np.full(c, 1.0))
        if u % 4 == 0:
            k = int(rng.integers(c))
            p[k] = 0.0
            budget[u, k] = 1
        budget[u] += rng.multinomial(size - budget[u].sum(), p / p.sum())
    n = int(sizes.sum())
    rows = rng.dirichlet(np.full(c, 0.5), size=n)
    kind = rng.integers(0, 6, n)  # 0-1 dense, 2 tiny, 3 subnormal, 4 exact zeros, 5 one-hot
    rows[kind == 2, rng.integers(0, c, int((kind == 2).sum()))] = 1e-300
    rows[kind == 3, rng.integers(0, c, int((kind == 3).sum()))] = 5e-324
    zeros = np.flatnonzero(kind == 4)
    rows[zeros, rng.integers(0, c, zeros.size)] = 0.0
    rows[zeros, rng.integers(0, c, zeros.size)] = 0.0
    rows[kind == 5] = np.eye(c)[rng.integers(0, c, int((kind == 5).sum()))]
    return sizes, budget, rows


# sha256 of the int64 classes assigned to _mixed_mass_units under stream(11, "mixed", u)
MIXED_MASS_DIGEST = "834b64c3b915f25c82c457a05bd037ce2b649e09b54849041f4a0fadccb31189"


def test_assign_mixed_mass_units_are_pinned():
    sizes, budget, rows = _mixed_mass_units()
    assert np.all(budget.sum(axis=1) == sizes)
    out = assign_categories(rows, budget, [stream(11, "mixed", u) for u in range(len(sizes))])
    assert hashlib.sha256(out.astype("<i8").tobytes()).hexdigest() == MIXED_MASS_DIGEST
    loop = assign_one_row_at_a_time(rows, budget, [stream(11, "mixed", u) for u in range(len(sizes))])
    np.testing.assert_array_equal(out, loop)
    bounds = np.cumsum(sizes)[:-1]
    for u, (part, prob) in enumerate(zip(np.split(out, bounds), np.split(rows, bounds))):
        np.testing.assert_array_equal(part, assign_categories(prob, budget[u], stream(11, "mixed", u)))
        np.testing.assert_array_equal(np.bincount(part, minlength=budget.shape[1]), budget[u])
