"""The benchmark's workloads: set-up, one closed-loop op, and the op's checks.

Every workload draws a synthetic ground-truth population from the seed
(``generate_truth``, as the simulation study does), aggregates it, and
writes the program's inputs (schema JSON, coarse CSV and, for
``resample-match``, a saved model) into its work directory.  The ops read
only those files; the in-memory truth and its aggregate are kept as the
reference the checks compare against.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from downscale import cli
from downscale.copula import save_model
from downscale.evaluation import align_rows, cell_accuracy, default_study_config, generate_truth
from downscale.matching import MatchQuery, probabilistic_match
from downscale.pipeline import generate
from downscale.rng import stream
from downscale.scaling import integerize_budget
from downscale.schema import load_schema, schema_to_json
from downscale.tables import (
    CoarseTable,
    IndividualTable,
    aggregate,
    load_coarse_csv,
    load_individual_csv,
    write_coarse_csv,
    write_individual_csv,
)

MEAN_RTOL = 1e-6
MATCH_K = 5


@dataclass
class Output:
    """What one op produced, kept for the untimed checks."""

    rows: int = 0
    tables: list[IndividualTable] = field(default_factory=list)
    accuracy: list[float] = field(default_factory=list)
    files: list[Path] = field(default_factory=list)
    matches: list[list] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)


class Workload:
    name = ""
    units = 0
    setup_reps = 3
    # attributes copied from truth rows into match queries
    query_features: tuple[str, ...] = ()
    n_queries = 2000
    # True: the queries run inside every op; False: once after the op loop
    queries_in_op = False

    def __init__(self, seed: int, workdir: Path, units: int | None = None):
        self.seed = int(seed)
        self.dir = Path(workdir)
        self.units = int(units or self.units)
        self.schema_path = self.dir / "schema.json"
        self.coarse_path = self.dir / "coarse.csv"
        self.out_path = self.dir / "people.csv"

    def config(self) -> dict:
        config = default_study_config()
        config["units"] = self.units
        return config

    def setup(self) -> None:
        """Draw the truth, write the program's inputs and build the query list."""
        self.dir.mkdir(parents=True, exist_ok=True)
        self.truth, self.schemas = generate_truth(self.config(), stream(self.seed, "truth"))
        self.reference = aggregate(self.truth, self.schemas)
        self.schema_path.write_text(json.dumps(schema_to_json(self.schemas)), encoding="utf-8")
        write_coarse_csv(self.coarse_path, self.reference, self.schemas)
        self.queries = make_queries(self.truth, self.schemas, self.query_features, self.n_queries, self.seed)

    def op(self) -> Output:
        raise NotImplementedError

    def inspect(self, out: Output) -> list[str]:
        """Untimed: check the op's output; return the problems found.

        A workload without queries in its op runs the query list here, over
        the op's first population, so that every workload reports match
        latency without it entering ``op_s``.
        """
        problems = []
        for table in out.tables:
            problems += check_table(table, self.reference, self.schemas)
        if not self.queries_in_op:
            self.run_queries(out.tables[0], out)
        problems += check_matches(self.queries, out.matches, out.tables[0])
        if not all(0.0 < a <= 1.0 for a in out.accuracy):
            problems.append(f"cell accuracy outside (0, 1]: {out.accuracy}")
        return problems

    def digest(self, out: Output) -> str:
        """Fingerprint of the op's output; it must not change between ops of a run."""
        h = hashlib.sha256()
        for path in out.files:
            h.update(path.read_bytes())
        if not out.files:
            for table in out.tables:
                for block in table.blocks:
                    for name in sorted(block.columns):
                        h.update(np.ascontiguousarray(block.columns[name]).tobytes())
        for results in out.matches:
            h.update(repr([(r.person_index, r.distance) for r in results]).encode())
        return h.hexdigest()

    def accuracy(self, out: Output) -> float:
        if out.accuracy:
            return float(np.mean(out.accuracy))
        report = cell_accuracy(align_rows(self.truth, out.tables[0], self.schemas), self.schemas)
        return report.overall

    def run_queries(self, pool: IndividualTable, out: Output) -> None:
        for query in self.queries:
            t0 = time.perf_counter()
            out.matches.append(probabilistic_match(query, pool, self.schemas, k=MATCH_K))
            out.latencies.append(time.perf_counter() - t0)

    def _sync_generate(self, *extra: str) -> None:
        argv = ["generate", "--coarse", str(self.coarse_path), "--schema", str(self.schema_path),
                "--out", str(self.out_path), "--seed", str(self.seed), *extra]
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"sync generate exited with {code}")


class Study500(Workload):
    """The paper's simulation study as acceptance criterion 6 runs it."""

    name = "study-500"
    units = 500
    query_features = ("age", "gender", "income")

    def setup(self) -> None:
        super().setup()
        truth_path = self.dir / "truth.csv"
        write_individual_csv(truth_path, self.truth, self.schemas)
        self.truth_in = load_individual_csv(truth_path, self.schemas)
        self.coarse_in = load_coarse_csv(self.coarse_path, self.schemas)

    def op(self) -> Output:
        out = Output()
        for outlier_removal in (True, False):
            result = generate(self.coarse_in, self.schemas, seed=self.seed,
                              outlier_removal=outlier_removal, max_train_rows=300)
            pairs = align_rows(self.truth_in, result.table, self.schemas)
            out.accuracy.append(cell_accuracy(pairs, self.schemas).overall)
            out.tables.append(result.table)
            out.rows += result.table.total_rows()
        return out


class Generate5000(Workload):
    """``sync generate`` on files at the 5,000-unit scale-up size."""

    name = "generate-5000"
    units = 5000
    query_features = ("age", "gender", "income")

    def op(self) -> Output:
        self._sync_generate()
        manifest = self.out_path.with_suffix(".csv.manifest.json")
        return Output(rows=self.reference.total_population(), files=[self.out_path, manifest])

    def inspect(self, out: Output) -> list[str]:
        out.tables = [load_individual_csv(self.out_path, self.schemas)]
        return super().inspect(out)


class ResampleMatch(Workload):
    """Redraw a population from a saved model, then link records against it."""

    name = "resample-match"
    units = 1000
    query_features = ("age", "gender", "hh_income", "rent")
    queries_in_op = True

    def config(self) -> dict:
        config = super().config()
        config["features"] = config["features"] + [
            {"name": "hh_income", "kind": "continuous", "batch": 0, "core": True},
            {"name": "commute_km", "kind": "continuous", "batch": 1, "core": False},
            {"name": "rent", "kind": "continuous", "batch": 2, "core": False},
        ]
        return config

    def setup(self) -> None:
        super().setup()
        self.model_path = self.dir / "model.json"
        fitted = generate(load_coarse_csv(self.coarse_path, self.schemas), self.schemas, seed=self.seed)
        save_model(self.model_path, fitted.model, fitted.predictors)

    def op(self) -> Output:
        self._sync_generate("--load-model", str(self.model_path))
        schemas = load_schema(self.schema_path)
        pool = load_individual_csv(self.out_path, schemas)
        manifest = self.out_path.with_suffix(".csv.manifest.json")
        out = Output(rows=pool.total_rows(), tables=[pool], files=[self.out_path, manifest])
        self.run_queries(pool, out)
        return out


WORKLOADS = {w.name: w for w in (Study500, Generate5000, ResampleMatch)}


def make_queries(truth: IndividualTable, schemas, features, n: int, seed: int) -> list[MatchQuery]:
    """``n`` queries, each copying ``features`` from a random truth row of a random unit."""
    rng = np.random.default_rng([seed, 0x9E3779B9])
    by_name = {sc.name: sc for sc in schemas}
    queries = []
    for _ in range(n):
        block = truth.blocks[int(rng.integers(len(truth.blocks)))]
        row = int(rng.integers(block.size))
        attributes = {}
        for name in features:
            value = block.columns[name][row]
            sc = by_name[name]
            attributes[name] = sc.classes[int(value)] if sc.is_categorical else float(value)
        queries.append(MatchQuery(block.unit_id, attributes))
    return queries


def check_table(table: IndividualTable, reference: CoarseTable, schemas) -> list[str]:
    """Row counts equal the populations, categorical counts equal the
    ``integerize_budget`` of the coarse proportions, continuous unit means
    equal the coarse means within ``MEAN_RTOL``."""
    if table.unit_ids != reference.unit_ids:
        return ["unit ids differ from the coarse table"]
    problems = []
    for unit in reference.units:
        block = table.block(unit.unit_id)
        if block.size != unit.population:
            problems.append(f"{unit.unit_id}: {block.size} rows, population {unit.population}")
            continue
        for sc in schemas:
            col = block.columns.get(sc.name)
            if col is None or col.shape != (unit.population,):
                problems.append(f"{unit.unit_id}/{sc.name}: missing or unfinalized column")
            elif sc.is_categorical:
                counts = np.bincount(col, minlength=sc.n_classes)
                budget = integerize_budget(unit.population, unit.values[sc.name])
                if counts.shape != budget.shape or np.any(counts != budget):
                    problems.append(f"{unit.unit_id}/{sc.name}: counts {counts} != budget {budget}")
            else:
                target = float(unit.values[sc.name])
                if abs(float(col.mean()) - target) > MEAN_RTOL * max(1.0, abs(target)):
                    problems.append(f"{unit.unit_id}/{sc.name}: mean {col.mean()} != {target}")
        if len(problems) >= 5:
            break
    return problems


def check_matches(queries, matches, pool: IndividualTable) -> list[str]:
    """One ranked list per query, of length min(k, unit size), sorted by
    distance with ties broken by ascending person index."""
    if len(matches) != len(queries):
        return [f"{len(matches)} match results for {len(queries)} queries"]
    problems = []
    for query, results in zip(queries, matches):
        size = pool.block(query.unit_id).size
        keys = [(r.distance, r.person_index) for r in results]
        if len(results) != min(MATCH_K, size):
            problems.append(f"{query.unit_id}: {len(results)} matches for unit of {size}")
        elif any(not (a < b) for a, b in zip(keys, keys[1:])):
            problems.append(f"{query.unit_id}: matches out of order {keys}")
        if len(problems) >= 5:
            break
    return problems


def _table_rows(table: IndividualTable) -> int:
    return sum(b.size for b in table.blocks)


def _train_rows(args, kwargs, result) -> dict:
    k_table = args[0]
    cap = kwargs.get("max_rows", args[4] if len(args) > 4 else None)
    rows = _table_rows(k_table)
    return {"rows": rows if cap is None else min(rows, cap)}


def _written(args, kwargs, result) -> dict:
    return {"rows": _table_rows(args[1]), "bytes": Path(args[0]).stat().st_size}


# (module that makes the call, attribute, span name, counters)
TRACE_TARGETS = [
    ("downscale.pipeline", "score_units", "outliers.score_units", None),
    ("downscale.pipeline", "flag_outliers", "outliers.flag_outliers",
     lambda a, k, r: {"flagged_units": len(r.flagged)}),
    ("downscale.pipeline", "fit_copula", "copula.fit_copula", None),
    ("downscale.batching", "fit_copula", "copula.fit_copula", None),
    ("downscale.pipeline", "sample_all_units", "copula.sample_all_units",
     lambda a, k, r: {"rows": sum(b.size for b in r)}),
    ("downscale.batching", "sample_all_units", "copula.sample_all_units",
     lambda a, k, r: {"rows": sum(b.size for b in r)}),
    ("downscale.pipeline", "sample_joint_batch", "batching.sample_joint_batch",
     lambda a, k, r: {"rows": _table_rows(r[0])}),
    ("downscale.pipeline", "fit_predictor", "batching.fit_predictor", _train_rows),
    ("downscale.pipeline", "extend_with_batch", "batching.extend_with_batch",
     lambda a, k, r: {"rows": _table_rows(a[0])}),
    ("downscale.pipeline", "integerize_budget", "scaling.integerize_budget", None),
    ("downscale.pipeline", "assign_categories", "scaling.assign_categories",
     lambda a, k, r: {"rows": len(a[0])}),
    ("downscale.pipeline", "shift_continuous", "scaling.shift_continuous",
     lambda a, k, r: {"rows": len(a[0])}),
    ("downscale.rng", "stream", "rng.stream", None),
    ("downscale.cli", "load_coarse_csv", "tables.load_coarse_csv", lambda a, k, r: {"rows": len(r.units)}),
    ("downscale.cli", "load_model", "copula.load_model", None),
    ("downscale.cli", "generate", "pipeline.generate", lambda a, k, r: {"rows": _table_rows(r.table)}),
    ("downscale.cli", "write_individual_csv", "tables.write_individual_csv", _written),
    (__name__, "generate", "pipeline.generate", lambda a, k, r: {"rows": _table_rows(r.table)}),
    (__name__, "load_individual_csv", "tables.load_individual_csv", lambda a, k, r: {"rows": _table_rows(r)}),
    (__name__, "align_rows", "evaluation.align_rows", None),
    (__name__, "cell_accuracy", "evaluation.cell_accuracy", None),
    (__name__, "probabilistic_match", "matching.probabilistic_match", None),
]
