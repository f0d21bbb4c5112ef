"""Batch-wise feature extension with predictive models.

Non-core feature batches are sampled jointly with the core features from
their own copula fit, a conditional model per target feature is trained
on that sample, and the core individual table is extended batch by batch
by attaching each model's conditional distribution (categorical) or point
prediction (continuous) row by row.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .copula import CopulaModel, fit_copula, sample_all_units
from .errors import DataError, EstimationError
from .rng import RngFactory, draw_rows
from .schema import Coordinate, FeatureSchema, coordinates
from .tables import CoarseTable, IndividualTable

log = logging.getLogger(__name__)

SOFTMAX = "softmax"
LINEAR = "linear"
CONSTANT = "constant"

L2_PENALTY = 1e-4
# Newton steps per softmax fit.  The worst case measured over the test suite
# and the benchmark workloads is 9; a target class that never occurs in the
# training rows drives its bias towards -inf and took up to 14 in a random scan.
MAX_ITER = 100
GRAD_TOL = 1e-6
ARMIJO = 1e-4
# Added to the Hessian diagonal: the loss is flat along an equal bias shift
# across all classes, which the gradient never points along.
HESSIAN_JITTER = 1e-10
HESSIAN_CHUNK_ROWS = 4096
RIDGE = 1e-8


@dataclass
class Predictor:
    """Fitted conditional model of one target feature given the core features."""

    target: str
    kind: str
    input_coords: list[Coordinate]
    classes: tuple[str, ...] = ()
    weights: np.ndarray | None = None  # softmax: (c, p+1); linear: (p+1,)
    center: np.ndarray | None = None  # input standardization (continuous coords only)
    scale: np.ndarray | None = None
    constant_probs: np.ndarray | None = None
    constant_value: float = 0.0

    def _encode(self, x: np.ndarray) -> np.ndarray:
        xs = (x - self.center) / self.scale
        return np.hstack([xs, np.ones((xs.shape[0], 1))])

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        if self.kind == CONSTANT:
            return np.tile(self.constant_probs, (x.shape[0], 1))
        return softmax_rows(self._encode(x) @ self.weights.T)

    def predict_value(self, x: np.ndarray) -> np.ndarray:
        if self.kind == CONSTANT:
            return np.full(x.shape[0], self.constant_value)
        return self._encode(x) @ self.weights


def partition_batches(
    schemas: list[FeatureSchema],
) -> tuple[list[FeatureSchema], list[list[FeatureSchema]]]:
    """Split schemas into the core set and batches 1..B (declaration order)."""
    core = [sc for sc in schemas if sc.batch == 0]
    n_batches = max(sc.batch for sc in schemas)
    batches = [[sc for sc in schemas if sc.batch == j] for j in range(1, n_batches + 1)]
    return core, batches


def core_input_matrix(table: IndividualTable, core_schemas: list[FeatureSchema]) -> np.ndarray:
    """Core inputs of every row of ``table``: probability vectors as-is, continuous raw values."""
    parts = [table.column(sc.name) for sc in core_schemas]
    for sc, col in zip(core_schemas, parts):
        if sc.is_categorical and col.ndim != 2:
            raise DataError(f"core_input_matrix: core feature {sc.name!r} already finalized")
    return np.column_stack(parts)


def sample_joint_batch(
    coarse: CoarseTable,
    schemas_subset: list[FeatureSchema],
    flagged: set[str],
    rng_factory: RngFactory,
    phase_tag: str,
    sd_mode: str,
) -> tuple[IndividualTable, CopulaModel]:
    """Sample every unit jointly over a schema subset from a fresh copula fit.

    The restricted coordinate set gets its own correlation estimate and PD
    repair, independent of any larger fit.
    """
    model = fit_copula(coarse, schemas_subset, flagged, sd_mode)
    blocks = sample_all_units(
        model, schemas_subset, coarse.unit_ids, lambda uid: rng_factory.stream(phase_tag, uid)
    )
    return IndividualTable(blocks), model


def softmax_rows(scores: np.ndarray) -> np.ndarray:
    """Row-wise softmax of a score matrix, computed in place."""
    scores -= scores.max(axis=1, keepdims=True)
    np.exp(scores, out=scores)
    scores /= scores.sum(axis=1, keepdims=True)
    return scores


def softmax_loss_and_grad(
    weights: np.ndarray, x: np.ndarray, onehot: np.ndarray, l2: float = L2_PENALTY
) -> tuple[float, np.ndarray]:
    """Mean cross-entropy with an L2 penalty on non-bias weights, plus gradient.

    ``x`` already carries the bias column; the penalty excludes it.
    """
    n = x.shape[0]
    probs = softmax_rows(x @ weights.T)
    ce = -np.sum(onehot * np.log(np.maximum(probs, 1e-300))) / n
    penalized = weights.copy()
    penalized[:, -1] = 0.0
    loss = ce + 0.5 * l2 * float(np.sum(penalized**2))
    grad = (probs - onehot).T @ x / n + l2 * penalized
    return loss, grad


def softmax_hessian(weights: np.ndarray, x: np.ndarray, l2: float = L2_PENALTY) -> np.ndarray:
    """Hessian of ``softmax_loss_and_grad`` over ``weights.ravel()``.

    With ``z_i = p_i ⊗ x_i`` it is ``blockdiag_a(Xᵀ diag(p_a) X) − ZᵀZ``
    over n, plus the L2 penalty on the non-bias diagonal.
    """
    n, d = x.shape
    c = weights.shape[0]
    probs = softmax_rows(x @ weights.T)
    hess = np.zeros((c * d, c * d))
    # rows are taken in chunks so that Z never holds more than
    # HESSIAN_CHUNK_ROWS rows, even when the training rows are not capped
    for lo in range(0, n, HESSIAN_CHUNK_ROWS):
        xc = x[lo:lo + HESSIAN_CHUNK_ROWS]
        z = (probs[lo:lo + HESSIAN_CHUNK_ROWS, :, None] * xc[:, None, :]).reshape(xc.shape[0], c * d)
        hess -= z.T @ z
        for a in range(c):
            blk = slice(a * d, (a + 1) * d)
            hess[blk, blk] += z[:, blk].T @ xc
    hess /= n
    penalty = np.full((c, d), l2)
    penalty[:, -1] = 0.0
    hess[np.diag_indices(c * d)] += penalty.ravel()
    return hess


def _newton_softmax(x: np.ndarray, onehot: np.ndarray, target: str, max_iter: int) -> np.ndarray:
    """Minimize ``softmax_loss_and_grad`` by damped Newton until ‖grad‖ < GRAD_TOL."""
    weights = np.zeros((onehot.shape[1], x.shape[1]))
    loss, grad = softmax_loss_and_grad(weights, x, onehot)
    jitter = HESSIAN_JITTER * np.eye(weights.size)
    it = 0
    while True:
        if not np.isfinite(loss):
            raise EstimationError(f"fit_predictor: non-finite loss for target {target!r}")
        gnorm = float(np.linalg.norm(grad))
        if gnorm < GRAD_TOL:
            break
        if it == max_iter:
            raise EstimationError(
                f"fit_predictor: target {target!r} did not converge in {max_iter} Newton "
                f"iterations (gradient norm {gnorm:.3e}, tolerance {GRAD_TOL:g})"
            )
        step = np.linalg.solve(softmax_hessian(weights, x) + jitter, grad.ravel()).reshape(weights.shape)
        slope = float(np.sum(grad * step))
        t = 1.0
        while True:
            trial = weights - t * step
            trial_loss, trial_grad = softmax_loss_and_grad(trial, x, onehot)
            # a tiny step that still fails is taken anyway: the loop then ends
            # at the convergence check or at max_iter
            if trial_loss <= loss - ARMIJO * t * slope or t < 1e-10:
                break
            t *= 0.5
        weights, loss, grad = trial, trial_loss, trial_grad
        it += 1
    log.info("fit_predictor: target %r converged in %d Newton iterations, gradient norm %.2e",
             target, it, gnorm)
    return weights


def fit_predictor(
    k_table: IndividualTable,
    core_schemas: list[FeatureSchema],
    target: FeatureSchema,
    rng: np.random.Generator,
    max_rows: int | None = None,
    max_iter: int = MAX_ITER,
) -> Predictor:
    """Train the conditional model of ``target`` given the core features.

    Categorical targets are drawn once per row from their sampled
    probability vectors and fitted with a damped Newton solve of the
    penalized softmax-linear loss, run until the gradient norm is below
    ``GRAD_TOL``; ``EstimationError`` is raised if that takes more than
    ``max_iter`` Newton steps.  Continuous targets use ridge least squares.
    Inputs use the probability vectors directly (soft encoding), with
    continuous inputs standardized.
    """
    x = core_input_matrix(k_table, core_schemas)
    input_coords = coordinates(core_schemas)
    y = k_table.column(target.name)
    if target.is_categorical:
        y = draw_rows(y, rng.random(y.shape[0]))

    if max_rows is not None and x.shape[0] > max_rows:
        pick = rng.choice(x.shape[0], size=max_rows, replace=False)
        pick.sort()
        x, y = x[pick], y[pick]

    center = np.zeros(x.shape[1])
    scale = np.ones(x.shape[1])
    for j, coord in enumerate(input_coords):
        if coord.class_label is None:
            sd = float(x[:, j].std())
            center[j] = float(x[:, j].mean())
            scale[j] = sd if sd > 0 else 1.0
    xb = np.hstack([(x - center) / scale, np.ones((x.shape[0], 1))])

    if target.is_categorical:
        observed = np.unique(y)
        if observed.size == 1:
            probs_const = np.zeros(target.n_classes)
            probs_const[int(observed[0])] = 1.0
            return Predictor(target.name, CONSTANT, input_coords, target.classes,
                             center=center, scale=scale, constant_probs=probs_const)
        c = target.n_classes
        onehot = np.zeros((xb.shape[0], c))
        onehot[np.arange(xb.shape[0]), y] = 1.0
        weights = _newton_softmax(xb, onehot, target.name, max_iter)
        return Predictor(target.name, SOFTMAX, input_coords, target.classes,
                         weights=weights, center=center, scale=scale)

    if np.ptp(y) == 0.0:
        return Predictor(target.name, CONSTANT, input_coords,
                         center=center, scale=scale, constant_value=float(y[0]))
    gram = xb.T @ xb + RIDGE * np.eye(xb.shape[1])
    weights = np.linalg.solve(gram, xb.T @ y)
    if not np.all(np.isfinite(weights)):
        raise EstimationError(f"fit_predictor: non-finite weights for target {target.name!r}")
    return Predictor(target.name, LINEAR, input_coords, weights=weights, center=center, scale=scale)


def extend_with_batch(
    table: IndividualTable,
    core_schemas: list[FeatureSchema],
    batch_schemas: list[FeatureSchema],
    predictors: dict[str, Predictor],
    mode: str = "distribution",
) -> IndividualTable:
    """Attach predicted batch features to every row, keyed by row identity.

    Core cells are never touched.  In ``argmax`` mode categorical
    attachments are sharpened to (numerically strictly positive)
    near-one-hot vectors on the modal class, preserving the downstream
    contract that every cell carries a full distribution.
    """
    if mode not in ("distribution", "argmax"):
        raise DataError(f"extend_with_batch: unknown mode {mode!r}")
    for sc in batch_schemas:
        if sc.name not in predictors:
            raise DataError(f"extend_with_batch: no predictor for feature {sc.name!r}")
    x = core_input_matrix(table, core_schemas)
    for sc in batch_schemas:
        pred = predictors[sc.name]
        if not sc.is_categorical:
            # one call per unit: BLAS rounds a row's dot product by where the
            # row falls in the call, so one stacked call would change output bits
            table.set_column(sc.name, np.concatenate([pred.predict_value(rows) for rows in table.split(x)]))
            continue
        p = pred.predict_proba(x)
        if mode == "argmax":
            hard = np.full_like(p, 1e-9 / sc.n_classes)
            hard[np.arange(p.shape[0]), p.argmax(axis=1)] += 1.0 - 1e-9
            p = hard
        table.set_column(sc.name, p)
    return table


def predictor_to_json(pred: Predictor) -> dict:
    return {
        "target": pred.target,
        "kind": pred.kind,
        "classes": list(pred.classes),
        "input_coords": [[c.feature, c.class_label] for c in pred.input_coords],
        "weights": None if pred.weights is None else pred.weights.tolist(),
        "center": pred.center.tolist(),
        "scale": pred.scale.tolist(),
        "constant_probs": None if pred.constant_probs is None else pred.constant_probs.tolist(),
        "constant_value": pred.constant_value,
    }


def predictor_from_json(doc: dict) -> Predictor:
    """Inverse of ``predictor_to_json``; an unknown kind, an array that does not
    fit the inputs or classes, a non-finite value or a ``scale`` entry <= 0
    raises ``ValueError``."""
    pred = Predictor(
        target=doc["target"],
        kind=doc["kind"],
        input_coords=[Coordinate(f, c) for f, c in doc["input_coords"]],
        classes=tuple(doc["classes"]),
        weights=None if doc["weights"] is None else np.array(doc["weights"], dtype=float),
        center=np.array(doc["center"], dtype=float),
        scale=np.array(doc["scale"], dtype=float),
        constant_probs=None if doc["constant_probs"] is None else np.array(doc["constant_probs"], dtype=float),
        constant_value=float(doc["constant_value"]),
    )
    p, c = len(pred.input_coords), len(pred.classes)
    # ``generate`` matches a softmax's row count with its feature's classes
    rows = len(pred.weights) if pred.weights is not None and pred.weights.ndim == 2 else c
    weight_shapes = {SOFTMAX: (rows, p + 1), LINEAR: (p + 1,), CONSTANT: None}
    if pred.kind not in weight_shapes:
        raise ValueError(f"predictor for {pred.target!r} has unknown kind {pred.kind!r}")
    shapes = {"weights": weight_shapes[pred.kind], "center": (p,), "scale": (p,),
              "constant_probs": (c,) if pred.kind == CONSTANT and c else None}
    for name, shape in shapes.items():
        value = getattr(pred, name)
        found = None if value is None else value.shape
        if found != shape:
            raise ValueError(f"predictor for {pred.target!r} has {name} of shape {found}, expected {shape}")
        if value is not None and not np.all(np.isfinite(value)):
            raise ValueError(f"predictor for {pred.target!r} has a non-finite {name} entry")
    if not np.isfinite(pred.constant_value) or np.any(pred.scale <= 0.0):
        raise ValueError(f"predictor for {pred.target!r} has a scale entry <= 0 or a non-finite constant_value")
    return pred
