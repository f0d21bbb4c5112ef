import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import downscale
from downscale import load_individual_csv, parse_schema, write_coarse_csv
from downscale.cli import main
from downscale.evaluation import align_rows, cell_accuracy, report_rows
from conftest import make_coarse

SCHEMA_DOC = [
    {"name": "age", "kind": "categorical", "classes": ["young", "mid", "old"], "ordinal": True},
    {"name": "spend", "kind": "continuous"},
    {"name": "online", "kind": "categorical", "classes": ["no", "yes"], "batch": 1, "core": False},
]


@pytest.fixture
def fixture_paths(tmp_path):
    schemas = parse_schema(SCHEMA_DOC)
    coarse = make_coarse(schemas, [8, 15, 22, 11, 30, 9, 17, 25, 13, 19, 10, 27])
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(SCHEMA_DOC))
    coarse_path = tmp_path / "coarse.csv"
    write_coarse_csv(coarse_path, coarse, schemas)
    return tmp_path, schema_path, coarse_path, schemas


def run_generate(tmp_path, schema_path, coarse_path, out_name, extra=()):
    out = tmp_path / out_name
    code = main([
        "generate", "--coarse", str(coarse_path), "--schema", str(schema_path),
        "--out", str(out), "--seed", "11", *extra,
    ])
    return code, out


def test_generate_writes_csv_and_manifest(fixture_paths):
    tmp_path, schema_path, coarse_path, schemas = fixture_paths
    code, out = run_generate(tmp_path, schema_path, coarse_path, "people.csv")
    assert code == 0
    table = load_individual_csv(out, schemas)
    assert table.total_rows() == 8 + 15 + 22 + 11 + 30 + 9 + 17 + 25 + 13 + 19 + 10 + 27
    manifest = json.loads((tmp_path / "people.csv.manifest.json").read_text())
    assert manifest["seed"] == 11
    assert manifest["units"] == 12
    assert "timings" not in json.dumps(manifest)


def test_generate_byte_identical_reruns(fixture_paths):
    tmp_path, schema_path, coarse_path, _ = fixture_paths
    _, out1 = run_generate(tmp_path, schema_path, coarse_path, "a.csv")
    _, out2 = run_generate(tmp_path, schema_path, coarse_path, "b.csv")
    assert out1.read_bytes() == out2.read_bytes()
    m1 = (tmp_path / "a.csv.manifest.json").read_bytes()
    m2 = (tmp_path / "b.csv.manifest.json").read_bytes()
    assert m1 == m2


def test_generate_empty_coarse_fails_with_loader_name(fixture_paths, capsys):
    tmp_path, schema_path, _, _ = fixture_paths
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    code = main([
        "generate", "--coarse", str(empty), "--schema", str(schema_path),
        "--out", str(tmp_path / "x.csv"),
    ])
    assert code != 0
    assert "load_coarse_csv" in capsys.readouterr().err


def test_generate_outlier_report_and_model_flags(fixture_paths):
    tmp_path, schema_path, coarse_path, _ = fixture_paths
    report = tmp_path / "outliers.csv"
    model = tmp_path / "model.json"
    code, out = run_generate(
        tmp_path, schema_path, coarse_path, "c.csv",
        extra=["--outlier-report", str(report), "--save-model", str(model),
               "--contamination", "0.1"],
    )
    assert code == 0
    assert report.read_text().startswith("unit_id,score,flagged")
    doc = json.loads(model.read_text())
    assert "copula" in doc and "predictors" in doc
    # reusing the model reproduces the same output bytes
    out2 = tmp_path / "d.csv"
    code = main([
        "generate", "--coarse", str(coarse_path), "--schema", str(schema_path),
        "--out", str(out2), "--seed", "11", "--contamination", "0.1",
        "--load-model", str(model),
    ])
    assert code == 0
    assert out.read_bytes() == out2.read_bytes()


def test_evaluate_identical_tables(fixture_paths, capsys):
    tmp_path, schema_path, coarse_path, schemas = fixture_paths
    _, out = run_generate(tmp_path, schema_path, coarse_path, "gen.csv")
    capsys.readouterr()
    code = main([
        "evaluate", "--schema", str(schema_path),
        "--truth", str(out), "--generated", str(out),
        "--out", str(tmp_path / "report.csv"),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "overall" in printed and "1.0000" in printed
    assert (tmp_path / "report.csv").read_text().startswith("metric,value")


def test_simulate_writes_per_seed_and_mean_rows(tmp_path, capsys):
    config = {
        "units": 14,
        "size_low": 2,
        "size_high": 12,
        "latent_r": 0.2,
        "unit_sd": 0.3,
        "features": [
            {"name": "a", "kind": "categorical", "classes": ["x", "y"]},
            {"name": "b", "kind": "categorical", "classes": ["p", "q"], "batch": 1, "core": False},
        ],
    }
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "study.csv"
    code = main(["simulate", "--config", str(cfg_path), "--seeds", "2", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "seed,outlier_removal,metric,value"
    seeds = {line.split(",")[0] for line in lines[1:]}
    assert {"0", "1", "mean"} <= seeds


def test_evaluate_pairs_units_by_id(fixture_paths, capsys):
    tmp_path, schema_path, coarse_path, schemas = fixture_paths
    _, out = run_generate(tmp_path, schema_path, coarse_path, "gen.csv")
    header, *rows = out.read_text().splitlines()
    reordered = tmp_path / "reordered.csv"
    reordered.write_text("\n".join([header] + sorted(rows, key=lambda row: row.split(",")[0], reverse=True)) + "\n")
    reports = []
    for generated in (out, reordered):
        report = tmp_path / f"report-{generated.stem}.csv"
        assert main(["evaluate", "--schema", str(schema_path), "--truth", str(out),
                     "--generated", str(generated), "--out", str(report)]) == 0
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]


def _study_config(**edits):
    config = {
        "units": 6,
        "size_low": 2,
        "size_high": 12,
        "features": [
            {"name": "a", "kind": "categorical", "classes": ["x", "y", "z"]},
            {"name": "b", "kind": "categorical", "classes": ["p", "q"], "batch": 1, "core": False},
        ],
    }
    return dict(config, **edits)


@pytest.mark.parametrize("config, expected", [
    (_study_config(size_low=0), "size_low and size_high must be >= 1, got 0 and 12"),
    (_study_config(size_low=-3), "size_low and size_high must be >= 1, got -3 and 12"),
    (_study_config(size_high=0), "size_low and size_high must be >= 1, got 2 and 0"),
    (_study_config(base_probs={"a": [0.2, 0.3, 0.4, 0.1]}), "base_probs for 'a' must be 3 nonnegative numbers"),
    (_study_config(base_probs={"a": [0.5, 0.5]}), "base_probs for 'a' must be 3 nonnegative numbers"),
    (_study_config(base_probs={"b": [1.2, -0.2]}), "base_probs for 'b' must be 2 nonnegative numbers"),
    (_study_config(base_probs={"b": [0.0, 0.0]}), "with a positive sum, got [0.0, 0.0]"),
], ids=["size-low-zero", "size-low-negative", "size-high-zero", "long-base-probs", "short-base-probs",
        "negative-base-prob", "zero-base-probs"])
def test_bad_study_config_is_one_error_line(tmp_path, capsys, config, expected):
    cfg_path = tmp_path / "study.json"
    cfg_path.write_text(json.dumps(config))
    assert main(["simulate", "--config", str(cfg_path)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: generate_truth: ") and expected in err[0]


def test_match_cli(fixture_paths, capsys):
    tmp_path, schema_path, coarse_path, schemas = fixture_paths
    _, out = run_generate(tmp_path, schema_path, coarse_path, "pool.csv")
    query = tmp_path / "query.json"
    query.write_text(json.dumps({"unit_id": "u0002", "attributes": {"age": "mid"}}))
    capsys.readouterr()
    code = main([
        "match", "--schema", str(schema_path), "--pool", str(out),
        "--query", str(query), "--k", "3", "--out", str(tmp_path / "ranked.csv"),
    ])
    assert code == 0
    printed = capsys.readouterr().out.strip().splitlines()
    assert printed[0].startswith("rank,person_index,distance")
    assert len(printed) == 4
    assert (tmp_path / "ranked.csv").exists()


def test_match_absent_unit_fails(fixture_paths, capsys):
    tmp_path, schema_path, coarse_path, _ = fixture_paths
    _, out = run_generate(tmp_path, schema_path, coarse_path, "pool2.csv")
    query = tmp_path / "query.json"
    query.write_text(json.dumps({"unit_id": "nowhere", "attributes": {"age": "mid"}}))
    code = main([
        "match", "--schema", str(schema_path), "--pool", str(out),
        "--query", str(query), "--k", "1",
    ])
    assert code == 1
    assert "absent from pool" in capsys.readouterr().err


def test_match_reports_pool_person_index(fixture_paths, capsys):
    tmp_path, schema_path, _, _ = fixture_paths
    pool = tmp_path / "pool.csv"
    pool.write_text("unit_id,person_index,age,spend,online\nu0,30,mid,2.0,no\nu0,20,mid,5.0,no\nu0,10,old,1.0,yes\n")
    query = tmp_path / "query.json"
    query.write_text(json.dumps({"unit_id": "u0", "attributes": {"age": "mid"}}))
    capsys.readouterr()
    code = main(["match", "--schema", str(schema_path), "--pool", str(pool), "--query", str(query), "--k", "3"])
    assert code == 0
    printed = capsys.readouterr().out.strip().splitlines()
    # the two "mid" rows tie and break by ascending person_index
    assert [line.split(",")[1] for line in printed[1:]] == ["20", "30", "10"]


def test_match_prints_the_rows_it_writes(tmp_path, capsys):
    # a class label holding a comma is quoted on stdout as in --out
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps([{"name": "age", "kind": "categorical", "classes": ["young", "a,b"]},
                                       {"name": "spend", "kind": "continuous"}]))
    pool = tmp_path / "pool.csv"
    pool.write_text('unit_id,person_index,age,spend\nu0,0,"a,b",2.0\nu0,1,young,5.0\n')
    query = tmp_path / "query.json"
    query.write_text(json.dumps({"unit_id": "u0", "attributes": {"age": "a,b"}}))
    ranked = tmp_path / "ranked.csv"
    capsys.readouterr()
    code = main(["match", "--schema", str(schema_path), "--pool", str(pool), "--query", str(query), "--k", "2",
                 "--out", str(ranked)])
    assert code == 0
    printed = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    with ranked.open(newline="") as fh:
        assert printed == list(csv.reader(fh))
    assert [row[3] for row in printed] == ["age", "a,b", "young"] and {len(row) for row in printed} == {5}


@pytest.mark.parametrize("doc, expected", [
    ({"attributes": {"spend": "abc"}}, "value for 'spend' is not a number: 'abc'"),
    ({"attributes": {"age": "mid"}, "weights": {"age": "x"}}, "weight for 'age' is not a number: 'x'"),
], ids=["value", "weight"])
def test_match_non_numeric_query_is_a_clean_error(fixture_paths, capsys, doc, expected):
    tmp_path, schema_path, coarse_path, _ = fixture_paths
    _, out = run_generate(tmp_path, schema_path, coarse_path, "pool.csv")
    query = tmp_path / "query.json"
    query.write_text(json.dumps({"unit_id": "u0000", **doc}))
    capsys.readouterr()
    assert main(["match", "--schema", str(schema_path), "--pool", str(out), "--query", str(query)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: probabilistic_match:") and expected in err[0]


def _rewrite_first_rows(path, edit):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    edit(header, rows)
    path.write_text("\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n")


def _bad_person_index(header, rows):
    rows[1][header.index("person_index")] = "x"


def _person_index_past_int64(header, rows):
    rows[1][header.index("person_index")] = "99999999999999999999"


def _bad_continuous_value(header, rows):
    rows[1][header.index("spend")] = "abc"


def _duplicate_person_index(header, rows):
    k = header.index("person_index")
    rows[1][k] = rows[0][k]


@pytest.mark.parametrize("command", ["evaluate", "match"])
@pytest.mark.parametrize("corrupt, expected", [
    (_bad_person_index, "bad value 'x' in column 'person_index'"),
    (_person_index_past_int64, "bad value '99999999999999999999' in column 'person_index'"),
    (_bad_continuous_value, "bad value 'abc' in column 'spend'"),
    (_duplicate_person_index, "duplicate person_index"),
], ids=["bad-index", "index-past-int64", "bad-value", "duplicate-index"])
def test_malformed_individual_csv_is_a_clean_error(fixture_paths, capsys, command, corrupt, expected):
    tmp_path, schema_path, coarse_path, _ = fixture_paths
    _, out = run_generate(tmp_path, schema_path, coarse_path, "pool.csv")
    _rewrite_first_rows(out, corrupt)
    query = tmp_path / "query.json"
    query.write_text(json.dumps({"unit_id": "u0000", "attributes": {"age": "mid"}}))
    args = {
        "evaluate": ["evaluate", "--schema", str(schema_path), "--truth", str(out), "--generated", str(out)],
        "match": ["match", "--schema", str(schema_path), "--pool", str(out), "--query", str(query)],
    }[command]
    capsys.readouterr()
    assert main(args) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: load_individual_csv:")
    assert "pool.csv" in err[0] and expected in err[0]


def test_a_population_too_large_to_sample_names_the_phase(tmp_path, capsys):
    # 10**15 rows need more than the 128 TiB x86-64 user address space, so the
    # allocation fails before anything is allocated, whatever the overcommit setting
    schemas = parse_schema(SCHEMA_DOC)
    coarse_path, schema_path = tmp_path / "coarse.csv", tmp_path / "schema.json"
    write_coarse_csv(coarse_path, make_coarse(schemas, [8, 15, 22, 11, 30, 9, 17, 25, 13, 19, 10, 10**15]), schemas)
    schema_path.write_text(json.dumps(SCHEMA_DOC))
    capsys.readouterr()
    code, out = run_generate(tmp_path, schema_path, coarse_path, "people.csv")
    assert code == 1 and not out.exists()
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: phase2/copula: out of memory:")


@pytest.mark.parametrize("flag", ["--out", "--save-model", "--outlier-report"])
def test_generate_unwritable_output_is_a_clean_error(fixture_paths, capsys, flag):
    tmp_path, schema_path, coarse_path, _ = fixture_paths
    missing = str(tmp_path / "no_such_dir" / "file")
    extra = [flag, missing] if flag != "--out" else []
    out = missing if flag == "--out" else str(tmp_path / "people.csv")
    code = main(["generate", "--coarse", str(coarse_path), "--schema", str(schema_path),
                 "--out", out, *extra])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: generate:") and "no_such_dir" in err[0]


def test_evaluate_unwritable_report_is_a_clean_error(fixture_paths, capsys):
    tmp_path, schema_path, coarse_path, _ = fixture_paths
    _, out = run_generate(tmp_path, schema_path, coarse_path, "gen.csv")
    capsys.readouterr()
    code = main(["evaluate", "--schema", str(schema_path), "--truth", str(out),
                 "--generated", str(out), "--out", str(tmp_path / "no_such_dir" / "r.csv")])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: evaluate:") and "no_such_dir" in err[0]


def test_verbose_after_the_command_logs_phase_lines(fixture_paths):
    # a child process: under pytest the root logger already has handlers, so
    # main's logging.basicConfig would not install the stderr handler
    tmp_path, schema_path, coarse_path, _ = fixture_paths
    src = str(Path(downscale.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "downscale.cli", "generate", "--coarse", str(coarse_path),
         "--schema", str(schema_path), "--out", str(tmp_path / "people.csv"), "-v"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    for phase in ("phase1/outliers", "phase2/copula", "phase3/batches", "phase4/scaling"):
        assert f"INFO downscale.pipeline: {phase} finished in" in proc.stderr


def test_verbose_before_the_command_is_an_argparse_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-v", "simulate"])
    assert exc.value.code == 2
    assert "unrecognized arguments: -v" in capsys.readouterr().err


def test_generate_negative_max_train_rows_is_a_clean_error(fixture_paths, capsys):
    tmp_path, schema_path, coarse_path, _ = fixture_paths
    code, out = run_generate(tmp_path, schema_path, coarse_path, "people.csv",
                             extra=["--max-train-rows", "-5"])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == ["error: generate: max_train_rows must be None or >= 1, got -5"]
    assert not out.exists()


def test_loaded_model_with_another_sd_mode_is_rejected(fixture_paths, capsys):
    tmp_path, schema_path, coarse_path, _ = fixture_paths
    model = tmp_path / "model.json"
    code, _ = run_generate(tmp_path, schema_path, coarse_path, "a.csv",
                           extra=["--sd-mode", "paper", "--save-model", str(model)])
    assert code == 0
    capsys.readouterr()
    code, out = run_generate(tmp_path, schema_path, coarse_path, "b.csv", extra=["--load-model", str(model)])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: phase2/copula: generate:")
    assert "'paper'" in err[0] and "'sqrt_n'" in err[0]
    assert not out.exists()


def _not_pd(doc):
    # unit diagonal, every off-diagonal -0.9: symmetric but not positive definite
    dim = len(doc["copula"]["coordinates"])
    doc["copula"]["correlation"] = [[1.0 if i == j else -0.9 for j in range(dim)] for i in range(dim)]


def _nan_correlation(doc):
    doc["copula"]["correlation"][0][1] = doc["copula"]["correlation"][1][0] = float("nan")


def _ragged_marginal(doc):
    specs = next(iter(doc["copula"]["marginals"].values()))
    specs[0] = specs[0][:4]


def _missing_marginal(doc):
    specs = next(iter(doc["copula"]["marginals"].values()))
    del specs[-1]


def _string_mean(doc):
    specs = next(iter(doc["copula"]["marginals"].values()))
    specs[0][3] = "half"


def _string_predictor_scale(doc):
    doc["predictors"][0]["scale"] = ["wide"]


def _wrong_type_marginals(doc):
    doc["copula"]["marginals"] = []


def _null_spec_value(doc):
    specs = next(iter(doc["copula"]["marginals"].values()))
    specs[0][2] = None


def _extra_population(doc):
    doc["copula"]["populations"]["u9999"] = 5


def _missing_population(doc):
    del doc["copula"]["populations"]["u0000"]


def _population(value):
    def edit(doc):
        doc["copula"]["populations"]["u0000"] = value
    return edit


def _predictor(**edits):
    """Replace fields of the first predictor, each by ``edit(old_value)``."""
    def edit(doc):
        pred = doc["predictors"][0]
        assert pred["kind"] == "softmax"
        for key, change in edits.items():
            pred[key] = change(pred[key])
    return edit


def _spec_value(index, position, value):
    """Set field ``position`` (kind, a, b, mean, sd) of marginal ``index`` of the first unit."""
    def edit(doc):
        next(iter(doc["copula"]["marginals"].values()))[index][position] = value
    return edit


@pytest.mark.parametrize("text, edit, expected", [
    ('{"copula": ', None, "Expecting value"),
    ("[1, 2]", None, "list indices must be integers"),
    ('{"copula": {}}', None, "missing key 'coordinates'"),
    (None, _not_pd, "not positive definite"),
    (None, _nan_correlation, "correlation entries must lie in [-1, 1]"),
    (None, _ragged_marginal, "unit 'u0000' coordinate 'age:young': marginal ['beta', "),
    (None, _missing_marginal, "unit 'u0000' coordinate 'spend': marginal None is not ['kind', 'a', 'b', 'mean', 'sd']"),
    (None, _string_mean, "unit 'u0000' coordinate 'age:young' has a parameter that is not a finite number: mean='half'"),
    (None, _null_spec_value, "unit 'u0000' coordinate 'age:young' has a parameter that is not a finite number: b=None"),
    (None, _wrong_type_marginals, "'list' object has no attribute 'keys'"),
    (None, _string_predictor_scale, "could not convert string to float: 'wide'"),
    (None, _spec_value(3, 3, float("nan")), "unit 'u0000' coordinate 'spend' has a parameter that is not a finite number: mean=nan"),
    (None, _spec_value(3, 4, float("inf")), "unit 'u0000' coordinate 'spend' has a parameter that is not a finite number: sd=inf"),
    (None, _spec_value(0, 1, float("nan")), "unit 'u0000' coordinate 'age:young' has a parameter that is not a finite number: a=nan"),
    (None, _spec_value(0, 2, 0.0), "unit 'u0000' coordinate 'age:young' has a beta parameter <= 0: b=0.0"),
    (None, _spec_value(0, 1, None), "unit 'u0000' coordinate 'age:young' has a parameter that is not a finite number: a=-inf"),
    (None, _spec_value(3, 1, None), "unit 'u0000' coordinate 'spend' has a parameter that is not a finite number: a=-inf"),
    (None, _spec_value(0, 0, "lognormal"),
     "unit 'u0000' coordinate 'age:young' has the wrong kind for its coordinate: kind='lognormal'"),
    (None, _spec_value(3, 2, -0.5), "unit 'u0000' coordinate 'spend' has a negative sigma_log: b=-0.5"),
    (None, _extra_population, "unit 'u9999' has a population but no marginals"),
    (None, _missing_population, "unit 'u0000' has marginals but no population"),
    (None, _population(3.9), "unit 'u0000' has population 3.9, not an integer >= 1"),
    (None, _population("3"), "unit 'u0000' has population '3', not an integer >= 1"),
    (None, _population(0), "unit 'u0000' has population 0, not an integer >= 1"),
    (None, _population(True), "unit 'u0000' has population True, not an integer >= 1"),
    (None, _predictor(weights=lambda w: [row[:-1] for row in w]),
     "predictor for 'online' has weights of shape (2, 4), expected (2, 5)"),
    (None, _predictor(center=lambda c: c[:-1]), "predictor for 'online' has center of shape (3,), expected (4,)"),
    (None, _predictor(scale=lambda c: c + [1.0]), "predictor for 'online' has scale of shape (5,), expected (4,)"),
    (None, _predictor(weights=lambda w: [[None] + row[1:] for row in w]),
     "predictor for 'online' has a non-finite weights entry"),
    (None, _predictor(center=lambda c: [float("inf")] + c[1:]), "predictor for 'online' has a non-finite center"),
    (None, _predictor(scale=lambda c: [0.0] + c[1:]), "predictor for 'online' has a scale entry <= 0"),
    (None, _predictor(kind=lambda k: "tree"), "predictor for 'online' has unknown kind 'tree'"),
    (None, _predictor(kind=lambda k: "linear"), "predictor for 'online' has weights of shape (2, 5), expected (5,)"),
    (None, _predictor(kind=lambda k: "constant", weights=lambda w: None, constant_probs=lambda p: [1.0]),
     "predictor for 'online' has constant_probs of shape (1,), expected (2,)"),
    (None, _predictor(kind=lambda k: "constant", weights=lambda w: None),
     "predictor for 'online' has constant_probs of shape None, expected (2,)"),
    (None, _predictor(constant_probs=lambda p: [0.5, 0.5]),
     "predictor for 'online' has constant_probs of shape (2,), expected None"),
    (None, _predictor(constant_value=lambda v: float("nan")), "non-finite constant_value"),
], ids=["truncated", "not-an-object", "no-coordinates", "not-pd", "nan-correlation", "ragged-marginal",
        "missing-marginal", "string-mean", "null-value", "marginals-list", "string-predictor-scale",
        "nan-lognormal-mean", "infinite-sd", "nan-alpha", "zero-beta", "null-alpha", "spread-point-mass",
        "kind-flip", "negative-sigma-log", "extra-population", "missing-population",
        "float-population", "string-population", "zero-population", "bool-population",
        "short-weight-rows", "short-center", "long-scale", "null-weight", "infinite-center", "zero-scale",
        "unknown-kind", "linear-with-a-matrix", "short-constant-probs", "constant-without-probs",
        "softmax-with-constant-probs", "nan-constant-value"])
def test_malformed_model_file_is_one_error_line(fixture_paths, capsys, text, edit, expected):
    tmp_path, schema_path, coarse_path, _ = fixture_paths
    model = tmp_path / "model.json"
    if text is None:
        assert run_generate(tmp_path, schema_path, coarse_path, "a.csv", extra=["--save-model", str(model)])[0] == 0
        doc = json.loads(model.read_text())
        edit(doc)
        text = json.dumps(doc)
    model.write_text(text)
    capsys.readouterr()
    code, out = run_generate(tmp_path, schema_path, coarse_path, "b.csv", extra=["--load-model", str(model)])
    assert code == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: load_model: {model} is not a valid model file:")
    assert expected in err[0]
    assert not out.exists()


@pytest.mark.parametrize("doc, expected", [
    ([{"unit_id": "u0000"}], "query JSON must be an object, got list"),
    ("u0000", "query JSON must be an object, got str"),
    ({"unit_id": "u0000", "attributes": ["age"]}, "query 'attributes' must be an object, got list"),
    ({"unit_id": "u0000", "attributes": {"age": "mid"}, "weights": [1]},
     "query 'weights' must be an object, got list"),
], ids=["list", "string", "attributes-list", "weights-list"])
def test_match_query_of_the_wrong_shape_is_a_clean_error(fixture_paths, capsys, doc, expected):
    tmp_path, schema_path, coarse_path, _ = fixture_paths
    _, out = run_generate(tmp_path, schema_path, coarse_path, "pool.csv")
    query = tmp_path / "query.json"
    query.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["match", "--schema", str(schema_path), "--pool", str(out), "--query", str(query)]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert err == [f"error: match: {expected}"]


def _drop_class(doc):
    pred = doc["predictors"][0]
    pred["classes"] = pred["classes"][:1]


def _second_predictor(doc):
    doc["predictors"].append(dict(doc["predictors"][0]))


def _foreign_predictor(doc):
    doc["predictors"].append(dict(doc["predictors"][0], target="spend"))


def _extra_weight_row(doc):
    weights = doc["predictors"][0]["weights"]
    weights.append(weights[0])


def _other_inputs(doc):
    doc["predictors"][0]["input_coords"] = doc["predictors"][0]["input_coords"][::-1]


_NOT_FIT = "supplied predictor for feature 'online' does not fit its classes ['no', 'yes'] or the core coordinates"


@pytest.mark.parametrize("edit, expected", [
    (_drop_class, _NOT_FIT),
    (_second_predictor, "supplied model has 2 predictors for feature 'online'"),
    (_foreign_predictor, "supplied model has predictors for features outside the batches"),
    (_other_inputs, _NOT_FIT),
    (_extra_weight_row, _NOT_FIT),
], ids=["dropped-class", "two-predictors", "foreign-predictor", "other-inputs", "extra-weight-row"])
def test_supplied_predictors_must_fit_the_batch_features(fixture_paths, capsys, edit, expected):
    tmp_path, schema_path, coarse_path, _ = fixture_paths
    model = tmp_path / "model.json"
    assert run_generate(tmp_path, schema_path, coarse_path, "a.csv", extra=["--save-model", str(model)])[0] == 0
    doc = json.loads(model.read_text())
    edit(doc)
    model.write_text(json.dumps(doc))
    capsys.readouterr()
    code, out = run_generate(tmp_path, schema_path, coarse_path, "b.csv", extra=["--load-model", str(model)])
    assert code == 1
    assert capsys.readouterr().err.strip().splitlines() == [f"error: phase2/copula: generate: {expected}"]
    assert not out.exists()


def test_evaluate_sort_keys_sets_the_pairing_key(fixture_paths):
    tmp_path, schema_path, coarse_path, schemas = fixture_paths
    _, truth = run_generate(tmp_path, schema_path, coarse_path, "truth.csv")
    generated = tmp_path / "gen.csv"
    assert main(["generate", "--coarse", str(coarse_path), "--schema", str(schema_path),
                 "--out", str(generated), "--seed", "12"]) == 0
    report = tmp_path / "report.csv"
    assert main(["evaluate", "--schema", str(schema_path), "--truth", str(truth), "--generated", str(generated),
                 "--sort-keys", "online,spend", "--out", str(report)]) == 0
    pairs = align_rows(load_individual_csv(truth, schemas), load_individual_csv(generated, schemas), schemas,
                       ["online", "spend"])
    expected = [["metric", "value"]] + [[m, str(v)] for m, v in report_rows(cell_accuracy(pairs, schemas))]
    assert list(csv.reader(io.StringIO(report.read_text()))) == expected
    default = tmp_path / "default.csv"
    assert main(["evaluate", "--schema", str(schema_path), "--truth", str(truth), "--generated", str(generated),
                 "--out", str(default)]) == 0
    assert default.read_bytes() != report.read_bytes()  # the core key, age then spend, pairs other rows


def test_evaluate_unknown_sort_key_is_one_error_line(fixture_paths, capsys):
    tmp_path, schema_path, coarse_path, _ = fixture_paths
    _, out = run_generate(tmp_path, schema_path, coarse_path, "gen.csv")
    capsys.readouterr()
    code = main(["evaluate", "--schema", str(schema_path), "--truth", str(out), "--generated", str(out),
                 "--sort-keys", "age,height"])
    assert code == 1
    assert capsys.readouterr().err == "error: align_rows: unknown sort features ['height']\n"


def test_outlier_removal_off_writes_the_rows_of_contamination_zero(fixture_paths):
    tmp_path, schema_path, coarse_path, _ = fixture_paths
    _, off = run_generate(tmp_path, schema_path, coarse_path, "off.csv", extra=["--outlier-removal", "off"])
    _, zero = run_generate(tmp_path, schema_path, coarse_path, "zero.csv", extra=["--contamination", "0"])
    assert off.read_bytes() == zero.read_bytes()
    m_off = json.loads((tmp_path / "off.csv.manifest.json").read_text())
    m_zero = json.loads((tmp_path / "zero.csv.manifest.json").read_text())
    assert (m_off["outlier_removal"], m_zero["outlier_removal"]) == (False, True)
    assert m_off["contamination"] != m_zero["contamination"] == 0.0
    differ = {key for key in m_off.keys() | m_zero.keys() if m_off.get(key) != m_zero.get(key)}
    assert differ == {"outlier_removal", "contamination"}
