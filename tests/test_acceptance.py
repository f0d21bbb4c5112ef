"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
complete.  Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import math
import time

import numpy as np
from scipy.stats import spearmanr

from downscale import (
    UnitBlock,
    aggregate,
    align_rows,
    cell_accuracy,
    default_study_config,
    generate,
    integerize_budget,
    run_simulation_study,
    solve_beta,
    solve_lognormal,
)
from downscale.batching import softmax_loss_and_grad
from downscale.cli import main
from downscale.copula import BETA, LOGNORMAL, CopulaModel, CorrelationMatrix
from downscale.rng import stream
from downscale.scaling import assign_categories
from downscale.schema import Coordinate
from downscale.tables import write_coarse_csv
from conftest import make_coarse, make_schemas, stack_blocks


def report(number, name, ok, detail=""):
    line = f"ACCEPTANCE {number:>2} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


def manual_model(entries, specs, n):
    """A one-unit model from (kind, a, b, mean, sd) rows; beta coordinates get a class label."""
    coords = [Coordinate(f"x{j}", "c" if kind == BETA else None) for j, (kind, *_) in enumerate(specs)]
    a, b, mean, sd = np.array([spec[1:] for spec in specs], dtype=float).T[:, None, :]
    return CopulaModel(
        coordinates=coords,
        correlation=CorrelationMatrix.from_entries(np.array(entries, dtype=float)),
        unit_ids=["unit"],
        populations=np.array([n]),
        a=a, b=b, mean=mean, sd=sd,
        pooled_sigma={c.label: 0.0 for c in coords},
    )


def test_criterion_01_marginal_exactness():
    schemas = make_schemas([
        ("c4", 4, 0), ("c2", 2, 0), ("x0", None, 0),
        ("b1", 2, 1), ("b2", 2, 1), ("b3", 2, 1), ("y1", None, 1),
        ("c5", 5, 2), ("c3", 3, 2), ("b4", 2, 2),
    ])
    rng = np.random.default_rng(101)
    coarse = make_coarse(schemas, rng.integers(10, 61, size=500), rng)
    t0 = time.perf_counter()
    result = generate(coarse, schemas, seed=0)
    elapsed = time.perf_counter() - t0

    check = aggregate(result.table, schemas)
    categorical_exact = True
    continuous_ok = True
    for unit in coarse.units:
        got = check.unit(unit.unit_id)
        for sc in schemas:
            if sc.is_categorical:
                budget = integerize_budget(unit.population, unit.values[sc.name])
                counts = np.rint(np.asarray(got.values[sc.name]) * unit.population).astype(int)
                if not np.array_equal(counts, budget):
                    categorical_exact = False
            else:
                rel = abs(got.values[sc.name] - unit.values[sc.name]) / max(1.0, abs(unit.values[sc.name]))
                if rel > 1e-6:
                    continuous_ok = False
    ok = categorical_exact and continuous_ok and elapsed < 5.0
    report(1, "marginal exactness", ok,
           f"categorical exact={categorical_exact}, continuous<=1e-6={continuous_ok}, {elapsed:.2f}s < 5s")


def test_criterion_02_correlation_recovery():
    entries = np.array([
        [1.0, 0.8, 0.0, 0.3, -0.3],
        [0.8, 1.0, 0.0, 0.3, -0.3],
        [0.0, 0.0, 1.0, 0.0, 0.0],
        [0.3, 0.3, 0.0, 1.0, -0.8],
        [-0.3, -0.3, 0.0, -0.8, 1.0],
    ])
    assert np.linalg.eigvalsh(entries).min() > 0
    specs = [(BETA, 2.0, 2.0, 0.5, 0.1) for _ in range(5)]
    model = manual_model(entries, specs, 100_000)
    t0 = time.perf_counter()
    from downscale import sample_unit_coordinates

    draws = sample_unit_coordinates(model, "unit", stream(2024, "acc2"))
    observed = spearmanr(draws).statistic
    elapsed = time.perf_counter() - t0
    expected = (6.0 / math.pi) * np.arcsin(entries / 2.0)
    np.fill_diagonal(expected, 1.0)
    worst = float(np.max(np.abs(observed - expected)))
    ok = worst < 0.03 and elapsed < 10.0
    report(2, "copula correlation recovery", ok, f"max |spearman error| {worst:.4f} < 0.03, {elapsed:.2f}s < 10s")


def test_criterion_03_marginal_law_ks():
    n = 10_000
    a1, b1 = solve_beta(0.5, math.sqrt(0.05))
    a2, b2 = solve_beta(0.2, 0.1)
    mu, sigma = solve_lognormal(1.0, 1.0)
    specs = [
        (BETA, a1, b1, 0.5, math.sqrt(0.05)),
        (BETA, a2, b2, 0.2, 0.1),
        (LOGNORMAL, mu, sigma, 1.0, 1.0),
    ]
    model = manual_model(np.eye(3), specs, n)
    t0 = time.perf_counter()
    from downscale import sample_unit_coordinates

    draws = sample_unit_coordinates(model, "unit", stream(2024, "acc3"))
    band = 1.63 / math.sqrt(n)
    worst = 0.0
    for j in range(len(specs)):
        x = np.sort(draws[:, j])
        cdf = model.cdf("unit", j, x)
        grid = np.arange(1, n + 1) / n
        ks = max(np.max(np.abs(cdf - grid)), np.max(np.abs(cdf - (grid - 1.0 / n))))
        worst = max(worst, ks)
    elapsed = time.perf_counter() - t0
    ok = worst < band and elapsed < 5.0
    report(3, "marginal law (KS)", ok, f"max KS {worst:.4f} < {band:.4f}, {elapsed:.2f}s < 5s")


def test_criterion_04_closed_form_solvers():
    alpha, beta = solve_beta(0.5, math.sqrt(0.05))
    mu, sigma = solve_lognormal(1.0, 1.0)
    err = max(
        abs(alpha - 2.0), abs(beta - 2.0),
        abs(mu + math.log(2.0) / 2.0), abs(sigma - math.sqrt(math.log(2.0))),
    )
    report(4, "closed-form solvers", err < 1e-10, f"max error {err:.2e} < 1e-10")


def test_criterion_05_baseline_reproduction():
    rng = np.random.default_rng(55)
    n = 10_000
    expected = {2: 0.500, 3: 0.333, 5: 0.200, 7: 0.143, 13: 0.077}
    worst = 0.0
    for c in (2, 3, 5, 7, 13):
        schemas = make_schemas([("f", c, 0)])
        t = stack_blocks([UnitBlock("u", n, {"f": rng.integers(0, c, n)})])
        g = stack_blocks([UnitBlock("u", n, {"f": rng.integers(0, c, n)})])
        acc = cell_accuracy(align_rows(t, g, schemas, sort_features=[]), schemas).by_class_count[c]
        worst = max(worst, abs(acc - expected[c]))
    report(5, "baseline reproduction", worst < 0.02 + 5e-4, f"max |acc - 1/c| {worst:.4f} within 0.02")


def test_criterion_06_simulation_study_trend():
    buckets = ["1-10", "10-25", "25-50", "50-100", "100+"]
    config = default_study_config()
    per_bucket = {v: {b: [] for b in buckets} for v in ("on", "off")}
    per_c = {v: {} for v in ("on", "off")}
    t0 = time.perf_counter()
    for seed in range(20):
        with_or, without_or = run_simulation_study(config, seed, max_train_rows=300)
        for variant, rep in (("on", with_or), ("off", without_or)):
            for b in buckets:
                per_bucket[variant][b].append(rep.by_unit_size[b])
            for c, val in rep.by_class_count.items():
                per_c[variant].setdefault(c, []).append(val)
    elapsed = time.perf_counter() - t0

    beats_baseline = True
    monotone = True
    details = []
    for variant in ("on", "off"):
        for c, vals in sorted(per_c[variant].items()):
            vals = np.array(vals)
            margin = vals.mean() - 1.0 / c
            three_sigma = 3.0 * vals.std(ddof=1) / math.sqrt(len(vals))
            if margin <= three_sigma:
                beats_baseline = False
        means = [float(np.mean(per_bucket[variant][b])) for b in buckets]
        details.append(f"{variant}: " + "->".join(f"{m:.3f}" for m in means))
        if any(means[i] < means[i + 1] for i in range(len(means) - 1)):
            monotone = False
    ok = beats_baseline and monotone and elapsed < 180.0
    report(6, "simulation-study trend", ok,
           f"baseline@3sigma={beats_baseline}, non-increasing={monotone} [{'; '.join(details)}], "
           f"{elapsed:.0f}s < 180s")


def test_criterion_07_gradient_check():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(25):
        n, c, p = 10, 3, 4
        x = np.hstack([rng.standard_normal((n, p)), np.ones((n, 1))])
        onehot = np.zeros((n, c))
        onehot[np.arange(n), rng.integers(0, c, n)] = 1.0
        w = rng.standard_normal((c, p + 1)) * 0.7
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
        worst = max(worst, rel)
    report(7, "softmax gradient check", worst < 1e-5, f"max relative error {worst:.2e} < 1e-5 (25 instances)")


def test_criterion_08_assignment_termination_and_law():
    rng = np.random.default_rng(88)
    rows_done = 0
    instances = 0
    while rows_done < 1_000_000:
        c = int(rng.integers(2, 7))
        n = int(rng.integers(100, 1_000))
        budget = rng.multinomial(n, rng.dirichlet(np.full(c, 1.0)))
        rows = rng.dirichlet(np.full(c, 0.3), size=n)
        hard = rng.random(n) < 0.25
        if hard.any():
            onehot = np.zeros((int(hard.sum()), c))
            onehot[np.arange(int(hard.sum())), rng.integers(0, c, int(hard.sum()))] = 1.0
            rows[hard] = onehot
        out = assign_categories(rows, budget, np.random.default_rng(instances))
        assert np.array_equal(np.bincount(out, minlength=c), budget)
        rows_done += n
        instances += 1

    n = 1_000
    vec_rows = np.tile([0.7, 0.3], (n, 1))
    budget = integerize_budget(n, np.array([0.7, 0.3]))
    counts_ok = True
    first = []
    for seed in range(200):
        out = assign_categories(vec_rows, budget, stream(seed, "acc8"))
        if not np.array_equal(np.bincount(out, minlength=2), [700, 300]):
            counts_ok = False
        first.append(out[0] == 0)
    freq = float(np.mean(first))
    ok = counts_ok and abs(freq - 0.7) < 0.04
    report(8, "assignment termination and law", ok,
           f"{instances} fuzz instances / {rows_done} rows, counts exact={counts_ok}, "
           f"first-row freq {freq:.3f} within 0.04 of 0.7")


def test_criterion_09_end_to_end_determinism(tmp_path):
    import json

    schemas = make_schemas([("a", 3, 0), ("x", None, 0), ("b", 2, 1)])
    coarse = make_coarse(schemas, [12, 25, 9, 31, 18, 14, 22, 11, 27, 16, 20, 13])
    schema_doc = [
        {"name": "a", "kind": "categorical", "classes": list(schemas[0].classes)},
        {"name": "x", "kind": "continuous"},
        {"name": "b", "kind": "categorical", "classes": list(schemas[2].classes), "batch": 1, "core": False},
    ]
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(schema_doc))
    coarse_path = tmp_path / "coarse.csv"
    write_coarse_csv(coarse_path, coarse, schemas)

    outs = []
    for name in ("run1", "run2"):
        out = tmp_path / f"{name}.csv"
        code = main([
            "generate", "--coarse", str(coarse_path), "--schema", str(schema_path),
            "--out", str(out), "--seed", "123", "--contamination", "0.1",
        ])
        assert code == 0
        outs.append(out)
    same_csv = outs[0].read_bytes() == outs[1].read_bytes()
    same_manifest = (
        (tmp_path / "run1.csv.manifest.json").read_bytes()
        == (tmp_path / "run2.csv.manifest.json").read_bytes()
    )
    report(9, "end-to-end determinism", same_csv and same_manifest,
           f"csv identical={same_csv}, manifest identical={same_manifest}")


def test_criterion_10_worked_examples():
    from test_evaluation import WORKED_SCHEMA, person, table_from_rows
    from test_matching import BURNABY_POOL, POOL_SCHEMA
    from downscale import MatchQuery, probabilistic_match

    truth = table_from_rows({"u": [person("20-24", "female", "40-50k", {"sports", "podcasts", "social"})]})
    generated = table_from_rows(
        {"u": [person("20-24", "female", "50-60k", {"sports", "fashion", "travel", "music"})]}
    )
    score = cell_accuracy(align_rows(truth, generated, WORKED_SCHEMA), WORKED_SCHEMA).overall
    scoring_ok = score == 0.50

    results = probabilistic_match(
        MatchQuery("V3N1P5", {"age": "53", "gender": "male"}), BURNABY_POOL, POOL_SCHEMA, k=5
    )
    match_ok = results[0].cells["age"] == "54" and results[0].cells["gender"] == "male"
    report(10, "worked examples", scoring_ok and match_ok,
           f"scoring 6/12={score}, top match age-54 male={match_ok}")
