"""Command-line interface: generate, evaluate, simulate, match."""

from __future__ import annotations

import argparse
import csv
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .copula import DEFAULT_SD_MODE, SD_MODES, load_model, save_model
from .errors import DownscaleError
from .evaluation import (
    cell_accuracy,
    align_rows,
    default_study_config,
    format_report,
    report_rows,
    run_simulation_study,
)
from .matching import MatchQuery, probabilistic_match
from .outliers import DEFAULT_CONTAMINATION, write_report_csv
from .pipeline import generate
from .schema import load_schema
from .tables import load_coarse_csv, load_individual_csv, write_individual_csv

log = logging.getLogger("downscale")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sync", description="Downscale aggregated data to individual records")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("-v", "--verbose", action="store_true", help="log phase progress and timings")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="run the full generation pipeline", parents=[common])
    gen.add_argument("--coarse", required=True, help="coarse CSV input")
    gen.add_argument("--schema", required=True, help="feature schema JSON")
    gen.add_argument("--out", required=True, help="individual CSV output path")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--sd-mode", choices=SD_MODES, default=DEFAULT_SD_MODE)
    gen.add_argument("--outlier-removal", choices=["on", "off"], default="on")
    gen.add_argument("--contamination", type=float, default=DEFAULT_CONTAMINATION)
    gen.add_argument("--phase3", choices=["distribution", "argmax"], default="distribution")
    gen.add_argument("--max-train-rows", type=int, default=800,
                     help="predictor training sample cap (0 disables the cap)")
    gen.add_argument("--outlier-report", help="write per-unit outlier scores to this CSV")
    gen.add_argument("--save-model", help="serialize the fitted model and predictors to this JSON")
    gen.add_argument("--load-model", help="reuse a previously saved model instead of refitting")

    ev = sub.add_parser("evaluate", help="score a generated table against ground truth", parents=[common])
    ev.add_argument("--schema", required=True)
    ev.add_argument("--truth", required=True)
    ev.add_argument("--generated", required=True)
    ev.add_argument("--sort-keys", help="comma-separated sort features (default: core features)")
    ev.add_argument("--out", help="write the report as CSV")

    sim = sub.add_parser("simulate", help="run the reconstruction simulation study", parents=[common])
    sim.add_argument("--config", help="study config JSON (defaults to the desk-scale study)")
    sim.add_argument("--seeds", type=int, default=1, help="number of seeds to run")
    sim.add_argument("--seed", type=int, default=0, help="base seed")
    sim.add_argument("--out", help="write the per-seed report as CSV")

    mt = sub.add_parser("match", help="match a partial record to synthetic individuals", parents=[common])
    mt.add_argument("--schema", required=True)
    mt.add_argument("--pool", required=True, help="individual CSV to match against")
    mt.add_argument("--query", required=True, help="query JSON: unit_id, attributes, optional weights")
    mt.add_argument("--k", type=int, default=1)
    mt.add_argument("--out", help="write the ranked matches as CSV")
    return parser


def cmd_generate(args) -> int:
    schemas = load_schema(args.schema)
    coarse = load_coarse_csv(args.coarse, schemas)
    model = predictors = None
    if args.load_model:
        model, predictors = load_model(args.load_model)
        predictors = predictors or None
    result = generate(
        coarse,
        schemas,
        seed=args.seed,
        sd_mode=args.sd_mode,
        outlier_removal=args.outlier_removal == "on",
        contamination=args.contamination,
        phase3_mode=args.phase3,
        max_train_rows=args.max_train_rows or None,
        model=model,
        predictors=predictors,
    )
    write_individual_csv(args.out, result.table, schemas)
    manifest_path = Path(args.out).with_suffix(Path(args.out).suffix + ".manifest.json")
    manifest_path.write_text(json.dumps(result.manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    if args.outlier_report:
        write_report_csv(args.outlier_report, result.outlier_report)
    if args.save_model:
        save_model(args.save_model, result.model, result.predictors)
    log.info("wrote %d individuals to %s", result.table.total_rows(), args.out)
    return 0


def cmd_evaluate(args) -> int:
    schemas = load_schema(args.schema)
    truth = load_individual_csv(args.truth, schemas)
    generated = load_individual_csv(args.generated, schemas)
    sort_features = args.sort_keys.split(",") if args.sort_keys else None
    pairs = align_rows(truth, generated, schemas, sort_features)
    report = cell_accuracy(pairs, schemas)
    print(format_report(report))
    if args.out:
        _write_rows_csv(args.out, [("metric", "value")] + report_rows(report))
    return 0


def _load_json(path, what):
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise DownscaleError(f"{what}: cannot read {path}: {exc}") from exc


def cmd_simulate(args) -> int:
    config = default_study_config()
    if args.config:
        config = _load_json(args.config, "simulate")
    rows = [("seed", "outlier_removal", "metric", "value")]
    means: dict[tuple[str, str], list[float]] = {}
    for i in range(args.seeds):
        seed = args.seed + i
        with_or, without_or = run_simulation_study(config, seed)
        for variant, report in (("on", with_or), ("off", without_or)):
            print(f"--- seed {seed}, outlier removal {variant} ---")
            print(format_report(report))
            for metric, value in report_rows(report):
                rows.append((str(seed), variant, metric, f"{value:.6f}"))
                means.setdefault((variant, metric), []).append(value)
    for (variant, metric), values in means.items():
        rows.append(("mean", variant, metric, f"{float(np.mean(values)):.6f}"))
    if args.out:
        _write_rows_csv(args.out, rows)
    return 0


def cmd_match(args) -> int:
    schemas = load_schema(args.schema)
    pool = load_individual_csv(args.pool, schemas)
    doc = _load_json(args.query, "match")
    if "unit_id" not in doc:
        raise DownscaleError("match: query JSON needs a 'unit_id' field")
    query = MatchQuery(
        unit_id=str(doc["unit_id"]),
        attributes=doc.get("attributes", {}),
        weights=doc.get("weights", {}),
    )
    results = probabilistic_match(query, pool, schemas, k=args.k)
    feature_names = [sc.name for sc in schemas]
    header = ["rank", "person_index", "distance"] + feature_names
    out_rows = [header]
    for rank, res in enumerate(results, start=1):
        out_rows.append(
            [rank, res.person_index, f"{res.distance:.6f}"]
            + [res.cells.get(f, "") for f in feature_names]
        )
    for row in out_rows:
        print(",".join(str(v) for v in row))
    if args.out:
        _write_rows_csv(args.out, out_rows)
    return 0


def _write_rows_csv(path, rows) -> None:
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(rows)


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    handlers = {
        "generate": cmd_generate,
        "evaluate": cmd_evaluate,
        "simulate": cmd_simulate,
        "match": cmd_match,
    }
    try:
        return handlers[args.command](args)
    except DownscaleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        # an unwritable --out, --save-model, --outlier-report or manifest path
        print(f"error: {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
