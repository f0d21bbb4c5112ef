"""Golden output: the exact bytes of a small ``sync generate`` / ``sync
evaluate`` / ``sync match`` run, of the truth table it starts from, and
of a ``sync generate --load-model`` rerun from the saved model (the one
end-to-end byte check of model file -> model -> draws), and of a second
``sync generate`` run with argmax phase 3 and pooled sds: near-one-hot
phase-3 rows make the assignment overdraw more often, and the moderate
beta parameters of pooled sds put 445 of its 24,084 beta draws under the
sampler's 1e-12 floor, against 15,977 in the default run.

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
    "people.csv": "1dacf39c6f9a57be80072ac291d6966767b42a025ba6a57cc4f1ca36a89f95bd",
    "people.csv.manifest.json": "796c4bcc6000587b9c1808f273fad14cea93c08ec56afdc34fcdfeb28f60984d",
    "model.json": "3273e98c1ebfd15bb8bcd95283c33fdbb8bf462a03b544ae038910d0fad25891",
    "report.csv": "9adbbaed57df14310099d5bed2fa4cac6c50ee8cdcb3ed89479e8c0cb9fe4fe4",
    "truth.csv": "fb300f138d79664481018974ae9499d096482fc3be2feece76e809afaf032139",
    "match.csv": "c83bdd40e34152acc62e64bd3787f6d42cdfaa1dba7b0372755174ef0d3547fc",
}
# generate --phase3 argmax --sd-mode pooled on the same inputs
ARGMAX_POOLED = {
    "people.csv": "67ae1b240ea6f33d11b36f016bc737650b7be5338a07b7dd8eb3a30ffee40297",
    "people.csv.manifest.json": "4088de4dd0fb0eb35c13ba6779388a6c0d2d473f7f85324546ddc54b06441160",
}
# the rerun from the saved model: same people.csv bytes, "model_source": "supplied" in its manifest
RELOADED_MANIFEST = "91f69d2e8f2d5b06c725db63284022ce76ba1f9f8cedb56322b873548985f1b1"
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


def write_inputs(tmp_path):
    """Write the golden truth, its coarse table and the schema; return their paths."""
    truth, schemas = generate_truth(golden_config(), stream(7, "truth"))
    schema_path = tmp_path / "schema.json"
    schema_path.write_text(json.dumps(schema_to_json(schemas)), encoding="utf-8")
    coarse_path = tmp_path / "coarse.csv"
    write_coarse_csv(coarse_path, aggregate(truth, schemas), schemas)
    truth_path = tmp_path / "truth.csv"
    write_individual_csv(truth_path, truth, schemas)
    return schema_path, coarse_path, truth_path


def digest(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_generate_and_evaluate_bytes_are_pinned(tmp_path):
    schema_path, coarse_path, truth_path = write_inputs(tmp_path)

    assert main(["generate", "--coarse", str(coarse_path), "--schema", str(schema_path),
                 "--out", str(tmp_path / "people.csv"), "--seed", "7", "--max-train-rows", "300",
                 "--save-model", str(tmp_path / "model.json")]) == 0
    assert main(["evaluate", "--schema", str(schema_path), "--truth", str(truth_path),
                 "--generated", str(tmp_path / "people.csv"), "--out", str(tmp_path / "report.csv")]) == 0
    query_path = tmp_path / "query.json"
    query_path.write_text(json.dumps(QUERY), encoding="utf-8")
    assert main(["match", "--schema", str(schema_path), "--pool", str(tmp_path / "people.csv"),
                 "--query", str(query_path), "--k", "5", "--out", str(tmp_path / "match.csv")]) == 0

    assert main(["generate", "--coarse", str(coarse_path), "--schema", str(schema_path),
                 "--out", str(tmp_path / "reloaded.csv"), "--seed", "7", "--max-train-rows", "300",
                 "--load-model", str(tmp_path / "model.json")]) == 0

    assert {name: digest(tmp_path / name) for name in GOLDEN} == GOLDEN
    assert digest(tmp_path / "reloaded.csv") == GOLDEN["people.csv"]
    assert digest(tmp_path / "reloaded.csv.manifest.json") == RELOADED_MANIFEST


def test_argmax_pooled_generate_bytes_are_pinned(tmp_path):
    schema_path, coarse_path, _ = write_inputs(tmp_path)
    assert main(["generate", "--coarse", str(coarse_path), "--schema", str(schema_path),
                 "--out", str(tmp_path / "people.csv"), "--phase3", "argmax", "--sd-mode", "pooled",
                 "--seed", "7", "--max-train-rows", "300"]) == 0
    assert {name: digest(tmp_path / name) for name in ARGMAX_POOLED} == ARGMAX_POOLED
