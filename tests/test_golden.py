"""Golden output: the exact bytes of a small ``sync generate`` / ``sync
evaluate`` / ``sync match`` run and of the truth table it starts from.

The run is a 40-unit copy of the simulation study's schema with one
continuous feature per batch.  A refactor that is meant to leave the seed
-> output mapping alone must keep these digests; a change that alters the
mapping on purpose re-pins them and says so in CHANGES.md.  The digests
hold for one numpy/scipy build (numpy 2.4.6, scipy 1.17.1 on x86-64).
"""

import hashlib
import json

from downscale.cli import main
from downscale.evaluation import default_study_config, generate_truth
from downscale.rng import stream
from downscale.schema import schema_to_json
from downscale.tables import aggregate, write_coarse_csv, write_individual_csv

GOLDEN = {
    "people.csv": "d68febbd874de980a5a243b70a737a179ec8a5ebe996b3008b0564791616aafc",
    "people.csv.manifest.json": "b85eb50e7f471557e2f64326829e2917257e8df6ccb097dfca36931589d13294",
    "model.json": "3f50e4a4bb3597a347826c17a75dc14933ade3e72ec8119d887edb2fb1d04eea",
    "report.csv": "8c78b7fa49e55141a9cc377cd2a75e0cf65db2123ca267b250806bd8d549d6c3",
    "truth.csv": "fb300f138d79664481018974ae9499d096482fc3be2feece76e809afaf032139",
    "match.csv": "528dca95bc986fad323b1a16bac2f389418236c0d5a89e90ab021f514a5a5606",
}
# an ordinal, a nominal and a continuous attribute
QUERY = {"unit_id": "unit0003", "attributes": {"age": "35-44", "gender": "female", "hh_income": 1.5}}


def golden_config() -> dict:
    config = default_study_config()
    config["units"] = 40
    config["features"] = config["features"] + [
        {"name": "hh_income", "kind": "continuous", "batch": 0, "core": True},
        {"name": "commute_km", "kind": "continuous", "batch": 1, "core": False},
        {"name": "rent", "kind": "continuous", "batch": 2, "core": False},
    ]
    return config


def test_generate_and_evaluate_bytes_are_pinned(tmp_path):
    truth, schemas = generate_truth(golden_config(), stream(7, "truth"))
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(schema_to_json(schemas)), encoding="utf-8")
    coarse_path = tmp_path / "coarse.csv"
    write_coarse_csv(coarse_path, aggregate(truth, schemas), schemas)
    truth_path = tmp_path / "truth.csv"
    write_individual_csv(truth_path, truth, schemas)

    assert main(["generate", "--coarse", str(coarse_path), "--schema", str(schema_path),
                 "--out", str(tmp_path / "people.csv"), "--seed", "7", "--max-train-rows", "300",
                 "--save-model", str(tmp_path / "model.json")]) == 0
    assert main(["evaluate", "--schema", str(schema_path), "--truth", str(truth_path),
                 "--generated", str(tmp_path / "people.csv"), "--out", str(tmp_path / "report.csv")]) == 0
    query_path = tmp_path / "query.json"
    query_path.write_text(json.dumps(QUERY), encoding="utf-8")
    assert main(["match", "--schema", str(schema_path), "--pool", str(tmp_path / "people.csv"),
                 "--query", str(query_path), "--k", "5", "--out", str(tmp_path / "match.csv")]) == 0

    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN}
    assert digests == GOLDEN
