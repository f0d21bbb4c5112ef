"""End-to-end generation: outlier screen, copula fit, batch extension, scaling.

All randomness flows from one master seed through named streams keyed by
phase and unit id, so outputs are byte-identical across reruns and a
unit's draws do not depend on which other units are sampled.
"""

from __future__ import annotations

import logging
import time
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from . import __version__
from .batching import SOFTMAX, Predictor, extend_with_batch, fit_predictor, partition_batches, sample_joint_batch
from .copula import DEFAULT_SD_MODE, SD_MODES, CopulaModel, fit_copula, sample_all_units
from .errors import DataError, DownscaleError
from .outliers import DEFAULT_CONTAMINATION, OutlierReport, flag_outliers, score_units
from .rng import RngFactory
from .scaling import assign_categories, integerize_budget, shift_continuous
from .schema import FeatureSchema, coordinates
from .tables import CoarseTable, IndividualTable

log = logging.getLogger(__name__)


@dataclass
class GenerationResult:
    table: IndividualTable
    outlier_report: OutlierReport
    manifest: dict
    model: CopulaModel
    predictors: list[Predictor]


@contextmanager
def _phase(name):
    """Re-raise package errors, and running out of memory as a DataError, with the failing phase prepended."""
    t0 = time.perf_counter()
    try:
        yield
    except DownscaleError as exc:
        raise type(exc)(f"{name}: {exc}") from exc
    except MemoryError as exc:
        raise DataError(f"{name}: out of memory: {exc}") from exc
    log.info("%s finished in %.3fs", name, time.perf_counter() - t0)


def generate(
    coarse: CoarseTable,
    schemas: list[FeatureSchema],
    seed: int = 0,
    sd_mode: str = DEFAULT_SD_MODE,
    outlier_removal: bool = True,
    contamination: float = DEFAULT_CONTAMINATION,
    phase3_mode: str = "distribution",
    max_train_rows: int | None = 800,
    model: CopulaModel | None = None,
    predictors: list[Predictor] | None = None,
) -> GenerationResult:
    """Run the four-phase pipeline and return the finalized individual table.

    A previously fitted ``model`` (plus ``predictors``) can be supplied to
    skip re-estimation; it must have been fitted with the same ``sd_mode``,
    and its predictors must be one per batch feature, with the feature's
    classes and the core coordinates as input.
    Sampling and scaling still run under ``seed``.
    """
    if sd_mode not in SD_MODES:
        raise DataError(f"generate: unknown sd_mode {sd_mode!r}")
    if not (max_train_rows is None or max_train_rows >= 1):
        raise DataError(f"generate: max_train_rows must be None or >= 1, got {max_train_rows!r}")
    rngf = RngFactory(seed)
    core, batches = partition_batches(schemas)
    prefit = model is not None

    with _phase("phase1/outliers"):
        report = score_units(coarse, schemas)
        if outlier_removal:
            report = flag_outliers(report, contamination)

    with _phase("phase2/copula"):
        if model is None:
            model = fit_copula(coarse, core, report.flagged, sd_mode)
        else:
            _check_model(model, predictors, coarse, core, batches, sd_mode)
        table = IndividualTable(coarse.unit_ids, coarse.populations, {})
        sample_all_units(model, core, table, lambda uid: rngf.stream("core", uid))

    with _phase("phase3/batches"):
        if predictors is None:
            predictors = []
            for j, batch in enumerate(batches, start=1):
                k_table, _ = sample_joint_batch(coarse, core + batch, report.flagged, rngf, f"batch{j}", sd_mode,
                                                max_rows=max_train_rows)
                predictors += [fit_predictor(k_table, core, target, rngf.stream("predictor", target.name))
                               for target in batch]
        by_target = {p.target: p for p in predictors}
        for batch in batches:
            extend_with_batch(table, core, batch, by_target, phase3_mode)

    with _phase("phase4/scaling"):
        # one stream per unit, consumed feature by feature in schema order
        rngs = [rngf.stream("assign", uid) for uid in coarse.unit_ids]
        for sc in schemas:
            column, target = table.column(sc.name), coarse.matrix([sc])
            if sc.is_categorical:
                values = assign_categories(column, integerize_budget(coarse.populations, target), rngs)
            else:
                values = shift_continuous(column, target[:, 0], table.sizes)
            table.set_column(sc.name, values)

    manifest = {
        "tool": "downscale",
        "version": __version__,
        "seed": int(seed),
        "sd_mode": sd_mode,
        "outlier_removal": bool(outlier_removal),
        "contamination": float(contamination),
        "phase3": phase3_mode,
        "max_train_rows": max_train_rows,
        "model_source": "supplied" if prefit else "fitted",
        "units": len(coarse.unit_ids),
        "individuals": table.total_rows(),
        "features": [sc.name for sc in schemas],
        "flagged_units": sorted(report.flagged),
    }
    return GenerationResult(table, report, manifest, model, predictors)


def _check_model(model: CopulaModel, predictors: list[Predictor] | None, coarse: CoarseTable,
                 core: list[FeatureSchema], batches: list[list[FeatureSchema]], sd_mode: str) -> None:
    expected = coordinates(core)
    if model.coordinates != expected:
        raise DataError("generate: supplied model coordinates do not match the core schema")
    if model.sd_mode != sd_mode:
        raise DataError(
            f"generate: supplied model was fitted with sd_mode {model.sd_mode!r}, this run uses {sd_mode!r}"
        )
    rows = model.rows(coarse.unit_ids)
    mismatch = np.flatnonzero(model.populations[rows] != coarse.populations)
    if mismatch.size:
        raise DataError(f"generate: supplied model population mismatch for {coarse.unit_ids[mismatch[0]]!r}")
    if predictors is None:
        return
    features = [sc for batch in batches for sc in batch]
    for sc in features:
        found = [p for p in predictors if p.target == sc.name]
        if len(found) != 1:
            raise DataError(f"generate: supplied model has {len(found)} predictors for feature {sc.name!r}")
        pred = found[0]
        outputs = len(pred.weights) if pred.kind == SOFTMAX else sc.n_classes
        if (pred.classes, pred.input_coords, outputs) != (sc.classes, expected, sc.n_classes):
            raise DataError(f"generate: supplied predictor for feature {sc.name!r} does not fit its "
                            f"classes {list(sc.classes)} or the core coordinates")
    if len(predictors) != len(features):
        raise DataError("generate: supplied model has predictors for features outside the batches")
