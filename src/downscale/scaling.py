"""Exact marginal scaling of sampled individuals (phase 4).

Each unit's categorical rows take classes under an integer budget from the
coarse proportions, so the counts match it exactly; continuous values are
shifted to the coarse mean.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError
from .rng import draw_classes

_SNAP_TOL = 1e-9
_MAX_SHIFT_PASSES = 5
_SHIFT_RESIDUAL_TOL = 1e-6


def integerize_budget(populations, proportions: np.ndarray) -> np.ndarray:
    """Largest-remainder class counts for one population and its (classes,)
    proportions, or a (units,) population vector and a units x classes matrix:
    floors of population * p are topped up by descending fractional part, ties
    to the earlier class.  Products within 1e-9 of an integer are snapped first
    so count-rational proportions reproduce their counts exactly.
    """
    populations = np.asarray(populations, dtype=np.int64)
    raw = populations[..., None] * np.asarray(proportions, dtype=float)
    nearest = np.rint(raw)
    raw = np.where(np.abs(raw - nearest) < _SNAP_TOL, nearest, raw)
    base = np.floor(raw).astype(np.int64)
    remaining = populations - base.sum(axis=-1)
    if np.any(remaining < 0):
        raise DataError("integerize_budget: proportions sum above 1")
    order = np.argsort(-(raw - base), axis=-1, kind="stable")
    return base + (order.argsort(axis=-1) < remaining[..., None])


def assign_categories(prob_rows: np.ndarray, budget: np.ndarray, rng) -> np.ndarray:
    """Assign one class per row under an exact per-class budget; returns the (n,) class indices.

    ``budget`` is one unit's (classes,) budget with one generator, or a units
    x classes budget with one generator per unit; unit u owns the next
    ``budget[u].sum()`` rows.  A unit's rows take classes in order, each from
    its probability vector restricted to classes with budget left, or, with no
    mass there, in proportion to the budget left (so the procedure terminates
    where the rejection-sampling reading would loop forever).

    Each unit takes one uniform per row from its generator, and row r draws
    with the r-th (``draw_rows`` of its weights scaled to a largest of 1), so
    the classes equal a loop over the rows one at a time bit for bit.  In
    each round a unit's pending rows up to the first zero-mass one after its
    first draw under the unit's mask as it stood at the round's start, and
    the unit keeps them through the first that takes a class's last seat:
    each kept row saw its exact mask, and the rows after it draw again next
    round with the same uniforms.  A unit whose mask has one class left
    gives it to all its pending rows without drawing, as the loop would with
    any uniforms: the masked weights are one-hot, and so is the budget left.
    A round draws class-major (``draw_classes``).  A row with a positive
    entry in every class keeps mass while its unit has rows pending, so only
    the pending rows holding a zero are rechecked when their unit's mask
    changes.
    """
    prob_rows = np.asarray(prob_rows, dtype=float)
    n, c = prob_rows.shape
    rngs = [rng] if np.ndim(budget) == 1 else list(rng)
    left = np.atleast_2d(np.array(budget, dtype=np.int64))
    if left.shape != (len(rngs), c) or left.min(initial=0) < 0:
        raise DataError("assign_categories: budget shape/sign mismatch")
    sizes = left.sum(axis=1)
    if int(sizes.sum()) != n:
        raise DataError(f"assign_categories: budget sums to {int(sizes.sum())}, expected {n}")
    if not np.all(np.isfinite(prob_rows)) or prob_rows.min(initial=0.0) < 0:
        raise DataError("assign_categories: probability rows must be finite and nonnegative")
    # uniforms in (0, 1] and rows scaled to a largest weight of 1: a draw never picks a zero weight
    uniforms = 1.0 - np.concatenate([g.random(k) for g, k in zip(rngs, sizes.tolist())])
    code = np.repeat(np.arange(len(left)), sizes)
    ends = np.cumsum(sizes)
    start = ends - sizes  # each unit's first pending row
    out = np.empty(n, dtype=np.int64)
    sparse = np.flatnonzero(~np.all(prob_rows > 0.0, axis=1))  # the only rows that can lose their mass
    zero = np.zeros(n, dtype=bool)  # rows with no mass under their unit's mask
    next_zero = np.full(n + 2, n)  # the first zero-mass row at or after each row
    stale = np.ones(len(left), dtype=bool)  # units whose mask changed since their zero-mass rows were found
    while True:
        mask = left > 0
        # a unit with one class left gives it to every pending row: each would draw it whatever its uniform
        last = np.flatnonzero((np.count_nonzero(mask, axis=1) == 1) & (start < ends))
        if last.size:
            lengths = (ends - start)[last]
            rows = np.repeat(start[last] - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())
            out[rows] = np.repeat(mask[last].argmax(axis=1), lengths)
            left[last] = 0
            start[last] = ends[last]
        if not np.any(start < ends):
            return out
        if stale.any():
            rows = sparse[stale[code[sparse]] & (sparse >= start[code[sparse]])]
            flags = ~((prob_rows[rows] * mask[code[rows]]).max(axis=1) > 0.0)
            if not np.array_equal(flags, zero[rows]):
                zero[rows] = flags
                next_zero = np.minimum.accumulate(np.r_[np.where(zero, np.arange(n), n), n, n][::-1])[::-1]
        # a zero-mass row after its unit's first pending row ends the round: draw only the rows before it
        lengths = np.minimum(next_zero[start + 1], ends) - start
        seg = np.repeat(np.arange(len(left)), lengths)
        first = np.repeat(np.cumsum(lengths) - lengths, lengths)  # where each row's unit starts among the drawn rows
        rows = start[seg] + np.arange(seg.size) - first
        weights = prob_rows[rows] * mask[seg]
        weights[zero[rows]] = left[seg[zero[rows]]]
        weights = weights.T.copy()  # classes x drawn rows
        weights /= weights.max(axis=0)
        draws = draw_classes(weights, uniforms[rows])
        # how often each row's class was drawn in its unit so far this round: its rank in a stable sort
        order = np.argsort(seg * c + draws, kind="stable")
        key = (seg * c + draws)[order]
        heads = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        drawn = np.empty(rows.size, dtype=np.int64)
        drawn[order] = np.arange(1, rows.size + 1) - np.repeat(heads, np.diff(np.r_[heads, rows.size]))
        stops = np.cumsum(np.r_[0, drawn >= left[seg, draws]])  # a unit's own: minus stops[first]
        keep = stops[:-1] == stops[first]  # through the unit's first row to take a last seat
        out[rows[keep]] = draws[keep]
        left -= np.bincount(seg[keep] * c + draws[keep], minlength=left.size).reshape(left.shape)
        start += np.bincount(seg[keep], minlength=start.size)
        stale = np.any(mask != (left > 0), axis=1)


def shift_continuous(values: np.ndarray, target_mean, sizes=None) -> np.ndarray:
    """Shift each unit's values so their mean equals its coarse mean.

    ``values`` are stacked in unit order and cut into units by ``sizes`` (by
    default one unit).  Each value moves by its unit's (target - sample mean);
    negatives are floored at zero and the excess taken proportionally from the
    positive values (at most 5 passes, residual <= 1e-6 relative).
    """
    values = np.asarray(values, dtype=float)
    sizes = np.atleast_1d(np.asarray(values.size if sizes is None else sizes, dtype=np.int64))
    target = np.broadcast_to(np.asarray(target_mean, dtype=float), sizes.shape)
    if sizes.sum() != values.size:
        raise DataError(f"shift_continuous: unit sizes sum to {sizes.sum()}, expected {values.size}")
    if np.any(sizes <= 0):
        raise DataError("shift_continuous: empty unit")
    if np.any(target < 0.0):
        raise DataError(f"shift_continuous: negative target mean {target[target < 0.0][0]}")
    heads = np.cumsum(sizes) - sizes
    shifted = values + np.repeat(target - np.add.reduceat(values, heads) / sizes, sizes)
    active = np.ones(sizes.size, dtype=bool)
    for _ in range(_MAX_SHIFT_PASSES):
        active &= np.minimum.reduceat(shifted, heads) < 0.0
        if not active.any():
            break
        np.maximum(shifted, 0.0, out=shifted, where=np.repeat(active, sizes))
        total = np.add.reduceat(shifted, heads)
        active &= total > 0.0
        shifted[np.repeat(active, sizes)] *= np.repeat((target * sizes)[active] / total[active], sizes[active])
    residual = np.abs(np.add.reduceat(shifted, heads) / sizes - target) / np.maximum(1.0, np.abs(target))
    if np.any(residual > _SHIFT_RESIDUAL_TOL):
        raise DataError(f"shift_continuous: residual {residual.max():.3e} above tolerance")
    return shifted
