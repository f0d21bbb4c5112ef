import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import downscale
from downscale import load_individual_csv, parse_schema, write_coarse_csv
from downscale.cli import main
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


def _bad_continuous_value(header, rows):
    rows[1][header.index("spend")] = "abc"


def _duplicate_person_index(header, rows):
    k = header.index("person_index")
    rows[1][k] = rows[0][k]


@pytest.mark.parametrize("command", ["evaluate", "match"])
@pytest.mark.parametrize("corrupt, expected", [
    (_bad_person_index, "bad value 'x' in column 'person_index'"),
    (_bad_continuous_value, "bad value 'abc' in column 'spend'"),
    (_duplicate_person_index, "duplicate person_index"),
], ids=["bad-index", "bad-value", "duplicate-index"])
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
