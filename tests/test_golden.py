"""Golden output: the exact bytes of a small ``sync generate`` / ``sync
evaluate`` / ``sync match`` run, of the truth table it starts from, and
of a ``sync generate --load-model`` rerun from the saved model (the one
end-to-end byte check of model file -> model -> draws).

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
    "people.csv": "1d095779a0cebc9ea149cafc0fddb63dd1dd66e9c45bac19af745504e9990835",
    "people.csv.manifest.json": "38804f513a45bb1fefbc65bf5808f517dc08d3e2a3341b0610e9d0b353bf9ca3",
    "model.json": "3f50e4a4bb3597a347826c17a75dc14933ade3e72ec8119d887edb2fb1d04eea",
    "report.csv": "9a4928e2216638cc98a72e82de76c84fdc33e25854707ee98e703421ad726204",
    "truth.csv": "fb300f138d79664481018974ae9499d096482fc3be2feece76e809afaf032139",
    "match.csv": "0fa902ac9725625a2c55ff08e83c1e5fb4e2befe7cd9a6eea3c96a0ac6023abd",
}
# the rerun from the saved model: same people.csv bytes, "model_source": "supplied" in its manifest
RELOADED_MANIFEST = "9b9a3ef7b6c14000caae0e6b7bc91313bcf3c06e175fe98e843d2e20251ad5bd"
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

    assert main(["generate", "--coarse", str(coarse_path), "--schema", str(schema_path),
                 "--out", str(tmp_path / "reloaded.csv"), "--seed", "7", "--max-train-rows", "300",
                 "--load-model", str(tmp_path / "model.json")]) == 0

    def digest(name):
        return hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()

    assert {name: digest(name) for name in GOLDEN} == GOLDEN
    assert digest("reloaded.csv") == GOLDEN["people.csv"]
    assert digest("reloaded.csv.manifest.json") == RELOADED_MANIFEST
