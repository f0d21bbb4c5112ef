import numpy as np
import pytest

from downscale import (
    DataError,
    EstimationError,
    IndividualTable,
    UnitBlock,
    extend_with_batch,
    fit_predictor,
    parse_schema,
    partition_batches,
    sample_joint_batch,
)
from downscale import batching
from downscale.batching import GRAD_TOL, core_input_matrix, softmax_hessian, softmax_loss_and_grad
from downscale.copula import fit_copula, sample_all_units
from downscale.rng import RngFactory, draw_rows, stream
from conftest import make_coarse, make_schemas, stack_blocks


def test_partition_by_batch_id():
    schemas = make_schemas([("a", 2, 0), ("b", 2, 0), ("c", 2, 1), ("d", 2, 1), ("e", 2, 2)])
    core, batches = partition_batches(schemas)
    assert [sc.name for sc in core] == ["a", "b"]
    assert len(batches) == 2
    assert [sc.name for sc in batches[0]] == ["c", "d"]
    assert [sc.name for sc in batches[1]] == ["e"]


def test_all_core_means_no_batches():
    schemas = make_schemas([("a", 2, 0), ("b", 3, 0)])
    core, batches = partition_batches(schemas)
    assert len(core) == 2 and batches == []


def test_survey_style_grouping():
    internet = [f"net{i}" for i in range(9)]
    doc = [
        {"name": "age", "kind": "categorical", "classes": [str(i) for i in range(7)]},
        {"name": "gender", "kind": "categorical", "classes": ["m", "f"]},
    ]
    doc += [{"name": n, "kind": "categorical", "classes": ["n", "y"], "batch": 1, "core": False}
            for n in internet]
    doc += [{"name": n, "kind": "categorical", "classes": [f"c{i}" for i in range(k)],
             "batch": 2, "core": False}
            for n, k in (("income", 13), ("education", 3), ("ethnicity", 5))]
    core, batches = partition_batches(parse_schema(doc))
    assert [sc.name for sc in core] == ["age", "gender"]
    assert [sc.name for sc in batches[0]] == internet
    assert [sc.name for sc in batches[1]] == ["income", "education", "ethnicity"]


def test_sample_joint_batch_core_only():
    schemas = make_schemas([("a", 2, 0), ("b", 3, 0)])
    coarse = make_coarse(schemas, [15] * 12)
    table, model = sample_joint_batch(coarse, schemas, set(), RngFactory(0), "b1", "sqrt_n")
    assert table.unit_ids == coarse.unit_ids
    block = table.blocks[0]
    assert set(block.columns) == {"a", "b"}
    assert block.columns["a"].shape == (15, 2)


def test_sample_joint_batch_shapes_with_target():
    schemas = make_schemas([("a", 2, 0), ("b", 2, 0), ("t", 2, 1)])
    coarse = make_coarse(schemas, [20] * 12)
    table, model = sample_joint_batch(coarse, schemas, set(), RngFactory(1), "b1", "sqrt_n")
    block = table.blocks[0]
    assert set(block.columns) == {"a", "b", "t"}
    for name in ("a", "b", "t"):
        assert block.columns[name].shape == (20, 2)
        np.testing.assert_allclose(block.columns[name].sum(axis=1), 1.0, atol=1e-12)


def test_restricted_fit_is_independently_repaired():
    schemas = make_schemas([("a", 3, 0), ("t", 2, 1)])
    coarse = make_coarse(schemas, [25] * 20)
    _, model = sample_joint_batch(coarse, schemas, set(), RngFactory(2), "b1", "sqrt_n")
    # restricted fit must be PD on its own
    np.linalg.cholesky(model.correlation.entries)
    assert model.correlation.dim == 5


def test_sample_joint_batch_row_cap():
    schemas = make_schemas([("a", 2, 0), ("t", 3, 1)])
    coarse = make_coarse(schemas, [20] * 12)  # 240 people

    def sample(max_rows, tag="b1"):
        return sample_joint_batch(coarse, schemas, set(), RngFactory(4), tag, "sqrt_n", max_rows=max_rows)[0]

    assert [sample(m).total_rows() for m in (1, 100, 240, 500, None)] == [1, 100, 240, 240, 240]
    first, again, other = sample(100), sample(100), sample(100, "b2")
    assert first.unit_ids == coarse.unit_ids
    for name in ("a", "t"):
        np.testing.assert_array_equal(first.column(name), again.column(name))
    assert not np.array_equal(first.column("a"), other.column("a"))


def law_coarse(schemas):
    """12 units of 3-60 people."""
    return make_coarse(schemas, np.random.default_rng(80).integers(3, 61, 12))


def test_training_counts_are_multivariate_hypergeometric():
    schemas = make_schemas([("a", 2, 0)])
    coarse = law_coarse(schemas)
    populations, total = coarse.populations, int(coarse.populations.sum())

    def counts(max_rows, seed):
        return sample_joint_batch(coarse, schemas, set(), RngFactory(seed), "b1", "sqrt_n", max_rows=max_rows)[0].sizes

    for max_rows in (None, total, total + 1):
        np.testing.assert_array_equal(counts(max_rows, 0), populations)
    n, seeds = total // 2, 1500
    k = np.array([counts(n, seed) for seed in range(seeds)])
    assert np.all(k.sum(axis=1) == n)
    share = populations / total
    mean, var = n * share, n * share * (1.0 - share) * (total - n) / (total - 1)
    # within 5 standard errors over the fixed seeds: the sample mean's from the exact variance,
    # the sample variance's from the sample's fourth central moment
    s2 = k.var(axis=0, ddof=1)
    m4 = np.mean((k - k.mean(axis=0)) ** 4, axis=0)
    assert np.all(np.abs(k.mean(axis=0) - mean) <= 5.0 * np.sqrt(var / seeds))
    assert np.all(np.abs(s2 - var) <= 5.0 * np.sqrt((m4 - s2**2) / seeds))


def test_training_rows_are_each_units_first_rows():
    schemas = make_schemas([("a", 3, 0), ("x", None, 0), ("t", 2, 1), ("y", None, 1)])
    coarse = law_coarse(schemas)
    model = fit_copula(coarse, schemas, set(), "sqrt_n")
    sizes = set()
    # several seeds, so that some units get one row: a one-row product rounds apart from a longer one in BLAS
    for seed in range(10):
        rngf = RngFactory(seed)
        full = sample_all_units(model, schemas, IndividualTable(coarse.unit_ids, coarse.populations, {}),
                                lambda uid: rngf.stream("b1", uid))
        table, _ = sample_joint_batch(coarse, schemas, set(), rngf, "b1", "sqrt_n", max_rows=40)
        assert table.total_rows() == 40
        sizes |= set(table.sizes.tolist())
        for part, whole in zip(table.blocks, full):
            for name in ("a", "x", "t", "y"):
                np.testing.assert_array_equal(part.columns[name], whole.columns[name][:part.size])
    assert {0, 1} <= sizes
    # a unit with no rows takes no stream
    asked = []
    sample_all_units(model, schemas, IndividualTable(coarse.unit_ids, table.sizes, {}),
                     lambda uid: asked.append(uid) or rngf.stream("b1", uid))
    assert asked == [uid for uid, k in zip(coarse.unit_ids, table.sizes) if k]


def softmax_rows(x, w):
    s = x @ w.T
    s -= s.max(axis=1, keepdims=True)
    e = np.exp(s)
    return e / e.sum(axis=1, keepdims=True)


def make_k_table(x_probs, target_probs, core=None):
    """One-unit K table: core features (default: one feature 'a') side by side in ``x_probs``."""
    n = x_probs.shape[0]
    columns, j = {}, 0
    for sc in core or make_schemas([("a", x_probs.shape[1], 0)]):
        columns[sc.name] = x_probs[:, j:j + sc.n_classes]
        j += sc.n_classes
    columns["t"] = target_probs
    return stack_blocks([UnitBlock("u", n, columns)])


def test_predictor_independent_target_matches_frequencies():
    # simulation oracle: target independent of the core features
    rng = np.random.default_rng(70)
    n = 10_000
    core = make_schemas([("a", 2, 0)])
    target = make_schemas([("a", 2, 0), ("t", 3, 1)])[1]
    p_core = rng.dirichlet((2.0, 2.0), size=n)
    freq = np.array([0.6, 0.3, 0.1])
    p_target = np.tile(freq, (n, 1))
    table = make_k_table(p_core, p_target)
    pred = fit_predictor(table, core, target, stream(0, "pred", "t"))
    # drawn target classes follow freq; prediction must track them for any input
    probes = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.9, 0.1]])
    out = pred.predict_proba(probes)
    assert np.max(np.abs(out - freq)) < 0.02


def test_predictor_separable_target():
    # target is a deterministic function of one binary core coordinate
    rng = np.random.default_rng(71)
    n = 4_000
    core = make_schemas([("a", 2, 0)])
    target = make_schemas([("a", 2, 0), ("t", 2, 1)])[1]
    cls = rng.integers(0, 2, size=n)
    p_core = np.zeros((n, 2))
    p_core[np.arange(n), cls] = 1.0
    p_target = p_core.copy()  # target equals the core class
    table = make_k_table(p_core, p_target)
    pred = fit_predictor(table, core, target, stream(1, "pred", "t"))
    held = np.zeros((1000, 2))
    held_cls = rng.integers(0, 2, size=1000)
    held[np.arange(1000), held_cls] = 1.0
    acc = np.mean(pred.predict_proba(held).argmax(axis=1) == held_cls)
    assert acc >= 0.99


def test_predictor_single_class_target_is_constant():
    core = make_schemas([("a", 2, 0)])
    target = make_schemas([("a", 2, 0), ("t", 3, 1)])[1]
    n = 200
    p_core = np.full((n, 2), 0.5)
    p_target = np.zeros((n, 3))
    p_target[:, 1] = 1.0
    pred = fit_predictor(make_k_table(p_core, p_target), core, target, stream(2, "pred", "t"))
    assert pred.kind == "constant"
    out = pred.predict_proba(np.array([[0.3, 0.7]]))
    np.testing.assert_array_equal(out, [[0.0, 1.0, 0.0]])


def test_predictor_continuous_target_linear():
    rng = np.random.default_rng(72)
    n = 3_000
    core = make_schemas([("a", 2, 0), ("x", None, 0)])
    target = make_schemas([("a", 2, 0), ("y", None, 1)])[1]
    p_a = rng.dirichlet((2.0, 2.0), size=n)
    x = rng.uniform(0, 10, n)
    y = 2.0 * x + 3.0 * p_a[:, 0] + 1.0
    block = UnitBlock("u", n, {"a": p_a, "x": x, "y": y})
    pred = fit_predictor(stack_blocks([block]), core, target, stream(3, "pred", "y"))
    test_block = UnitBlock("v", 4, {
        "a": np.array([[0.2, 0.8], [0.8, 0.2], [0.5, 0.5], [1.0, 0.0]]),
        "x": np.array([1.0, 5.0, 2.5, 9.0]),
    })
    got = pred.predict_value(core_input_matrix(stack_blocks([test_block]), core))
    want = 2.0 * test_block.columns["x"] + 3.0 * test_block.columns["a"][:, 0] + 1.0
    np.testing.assert_allclose(got, want, rtol=1e-6)


def test_gradient_matches_finite_differences(rng):
    # central finite differences on random small instances
    for trial in range(5):
        n, c, p = 10, 3, 4
        x = np.hstack([rng.standard_normal((n, p)), np.ones((n, 1))])
        onehot = np.zeros((n, c))
        onehot[np.arange(n), rng.integers(0, c, n)] = 1.0
        w = rng.standard_normal((c, p + 1)) * 0.5
        _, grad = softmax_loss_and_grad(w, x, onehot)
        h = 1e-6
        fd = np.zeros_like(w)
        for i in range(c):
            for j in range(p + 1):
                wp, wm = w.copy(), w.copy()
                wp[i, j] += h
                wm[i, j] -= h
                fd[i, j] = (softmax_loss_and_grad(wp, x, onehot)[0]
                            - softmax_loss_and_grad(wm, x, onehot)[0]) / (2 * h)
        rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
        assert rel < 1e-5


def test_hessian_matches_finite_differences_of_gradient(rng, monkeypatch):
    monkeypatch.setattr(batching, "HESSIAN_CHUNK_ROWS", 5)  # 12 rows: three uneven chunks
    for trial in range(3):
        n, c, p = 12, 3, 4
        x = np.hstack([rng.standard_normal((n, p)), np.ones((n, 1))])
        onehot = np.zeros((n, c))
        onehot[np.arange(n), rng.integers(0, c, n)] = 1.0
        w = rng.standard_normal((c, p + 1)) * 0.5
        hess = softmax_hessian(w, x)
        h = 1e-6
        fd = np.zeros_like(hess)
        for k in range(w.size):
            wp, wm = w.copy(), w.copy()
            wp.flat[k] += h
            wm.flat[k] -= h
            fd[:, k] = (softmax_loss_and_grad(wp, x, onehot)[1]
                        - softmax_loss_and_grad(wm, x, onehot)[1]).ravel() / (2 * h)
        assert np.linalg.norm(hess - fd) / np.linalg.norm(fd) < 1e-6


def hard_target_fit(p_core, core, target, y):
    """Fit on one-hot targets with categorical-only inputs, so the design is known."""
    n, c = p_core.shape[0], target.n_classes
    onehot = np.zeros((n, c))
    onehot[np.arange(n), y] = 1.0
    pred = fit_predictor(make_k_table(p_core, onehot, core), core, target, stream(7, "pred", "t"))
    xb = np.hstack([p_core, np.ones((n, 1))])
    return pred, softmax_loss_and_grad(pred.weights, xb, onehot)[1]


def test_predictor_converges_on_thirteen_classes(rng):
    n = 300
    core = make_schemas([("a", 3, 0), ("b", 6, 0)])
    target = make_schemas([("a", 3, 0), ("t", 13, 1)])[1]
    p_core = np.hstack([rng.dirichlet(np.ones(3), size=n), rng.dirichlet(np.ones(6), size=n)])
    scores = p_core @ rng.standard_normal((9, 13)) * 3.0
    y = draw_rows(np.exp(scores) / np.exp(scores).sum(axis=1, keepdims=True), rng.random(n))
    pred, grad = hard_target_fit(p_core, core, target, y)
    assert pred.kind == "softmax" and pred.weights.shape == (13, 10)
    assert np.linalg.norm(grad) < GRAD_TOL


def test_predictor_converges_on_collinear_soft_core(rng):
    # the soft class columns of 'a' sum to one, collinear with the bias column
    n = 500
    core = make_schemas([("a", 2, 0)])
    target = make_schemas([("a", 2, 0), ("t", 2, 1)])[1]
    p_core = rng.dirichlet((2.0, 2.0), size=n)
    y = (rng.random(n) < 0.2 + 0.6 * p_core[:, 0]).astype(np.int64)
    _, grad = hard_target_fit(p_core, core, target, y)
    assert np.linalg.norm(grad) < GRAD_TOL


def test_predictor_iteration_cap_raises(rng, monkeypatch):
    n = 300
    core = make_schemas([("a", 2, 0)])
    target = make_schemas([("a", 2, 0), ("t", 3, 1)])[1]
    p_core = rng.dirichlet((2.0, 2.0), size=n)
    y = draw_rows(np.column_stack([p_core[:, 0], p_core[:, 1] * 0.5, p_core[:, 1] * 0.5]), rng.random(n))
    monkeypatch.setattr(batching, "MAX_ITER", 1)
    with pytest.raises(EstimationError, match=r"'t' did not converge in 1 Newton iterations .*gradient norm"):
        hard_target_fit(p_core, core, target, y)


def test_softmax_rows_sum_to_one(rng):
    core = make_schemas([("a", 2, 0)])
    target = make_schemas([("a", 2, 0), ("t", 4, 1)])[1]
    p_core = rng.dirichlet((2.0, 2.0), size=2000)
    p_target = rng.dirichlet((1.0, 1.0, 1.0, 1.0), size=2000)
    pred = fit_predictor(make_k_table(p_core, p_target), core, target, stream(5, "pred", "t"))
    probes = rng.standard_normal((50, 2)) * 100.0
    out = pred.predict_proba(probes)
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(out > 0)


def test_extend_no_batches_is_noop():
    schemas = make_schemas([("a", 2, 0)])
    coarse = make_coarse(schemas, [10] * 12)
    table, _ = sample_joint_batch(coarse, schemas, set(), RngFactory(0), "core", "sqrt_n")
    before = {b.unit_id: {k: v.copy() for k, v in b.columns.items()} for b in table.blocks}
    out = extend_with_batch(table, schemas, [], {}, "distribution")
    for b in out.blocks:
        assert set(b.columns) == {"a"}
        np.testing.assert_array_equal(b.columns["a"], before[b.unit_id]["a"])


def test_extend_attaches_and_preserves_core():
    schemas = make_schemas([("a", 2, 0), ("t", 3, 1), ("y", None, 1)])
    core, batches = partition_batches(schemas)
    coarse = make_coarse(schemas, [10] * 15)
    rngf = RngFactory(0)
    table, _ = sample_joint_batch(coarse, core, set(), rngf, "core", "sqrt_n")
    k_table, _ = sample_joint_batch(coarse, schemas, set(), rngf, "b1", "sqrt_n")
    preds = {
        "t": fit_predictor(k_table, core, schemas[1], rngf.stream("pred", "t")),
        "y": fit_predictor(k_table, core, schemas[2], rngf.stream("pred", "y")),
    }
    core_column = table.column("a")
    before = core_column.copy()
    extend_with_batch(table, core, batches[0], preds, "distribution")
    assert table.column("a") is core_column  # untouched, same buffer
    np.testing.assert_array_equal(core_column, before)
    for b, start in zip(table.blocks, range(0, 150, 10)):
        assert np.shares_memory(b.columns["a"], core_column)
        np.testing.assert_array_equal(b.columns["a"], core_column[start:start + 10])
        assert b.columns["t"].shape == (10, 3)
        assert b.columns["y"].shape == (10,)


def test_extend_argmax_mode_near_one_hot():
    schemas = make_schemas([("a", 2, 0), ("t", 3, 1)])
    core, batches = partition_batches(schemas)
    coarse = make_coarse(schemas, [10] * 15)
    rngf = RngFactory(3)
    table, _ = sample_joint_batch(coarse, core, set(), rngf, "core", "sqrt_n")
    k_table, _ = sample_joint_batch(coarse, schemas, set(), rngf, "b1", "sqrt_n")
    preds = {"t": fit_predictor(k_table, core, schemas[1], rngf.stream("pred", "t"))}
    extend_with_batch(table, core, batches[0], preds, "argmax")
    col = table.blocks[0].columns["t"]
    assert np.all(col > 0)
    np.testing.assert_allclose(col.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(col.max(axis=1) > 0.999)


def test_extend_constant_predictor_same_vector_everywhere():
    schemas = make_schemas([("a", 2, 0), ("t", 3, 1)])
    core, batches = partition_batches(schemas)
    coarse = make_coarse(schemas, [8] * 12)
    rngf = RngFactory(4)
    table, _ = sample_joint_batch(coarse, core, set(), rngf, "core", "sqrt_n")
    n = 8
    p_core = np.full((200, 2), 0.5)
    p_target = np.zeros((200, 3))
    p_target[:, 2] = 1.0
    pred = fit_predictor(make_k_table(p_core, p_target), core, schemas[1], rngf.stream("p"))
    extend_with_batch(table, core, batches[0], {"t": pred}, "distribution")
    col = table.blocks[0].columns["t"]
    assert np.all(col == col[0])


def test_extend_missing_predictor_rejected():
    schemas = make_schemas([("a", 2, 0), ("t", 3, 1)])
    core, batches = partition_batches(schemas)
    coarse = make_coarse(schemas, [8] * 12)
    table, _ = sample_joint_batch(coarse, core, set(), RngFactory(5), "core", "sqrt_n")
    with pytest.raises(DataError, match="no predictor"):
        extend_with_batch(table, core, batches[0], {}, "distribution")


def test_two_batches_dimension_bookkeeping():
    schemas = make_schemas([("a", 2, 0), ("b", 2, 0), ("t1", 2, 1), ("t2", 3, 1), ("t3", 2, 2)])
    core, batches = partition_batches(schemas)
    coarse = make_coarse(schemas, [12] * 20)
    rngf = RngFactory(6)
    table, _ = sample_joint_batch(coarse, core, set(), rngf, "core", "sqrt_n")
    for j, batch in enumerate(batches, start=1):
        k_table, _ = sample_joint_batch(coarse, core + batch, set(), rngf, f"b{j}", "sqrt_n")
        preds = {sc.name: fit_predictor(k_table, core, sc, rngf.stream("pred", sc.name)) for sc in batch}
        extend_with_batch(table, core, batch, preds, "distribution")
    assert set(table.blocks[0].columns) == {"a", "b", "t1", "t2", "t3"}
