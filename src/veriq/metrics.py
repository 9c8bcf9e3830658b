"""Verification performance measures.

Acceptance uses the >= boundary: a nonmatch score at or above the
threshold is a false accept, a match score strictly below it is a false
reject. ROC points are FAR-sorted; AUC is the trapezoid sum over
(FAR, CAR) with CAR = 1 - FRR. The error-versus-reject curve removes the
attempts with the worst predicted error first and reports the residual
error among the retained attempts, alongside an ideal-rejector benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataio import _match_flags, write_csv
from .errormodel import OperatingPoint
from .errors import NumericError, ValidationError

ERC_GRID_STEP = 1.0 / 200.0
# cells per _roc_cells sort in a sweep: at 100 scores a cell its arrays stay
# under 1 MiB (128 cells raised a 1,089-cell sweep's peak RSS by ~2 MiB)
SWEEP_BLOCK_CELLS = 32


class EmptyClassError(ValidationError):
    """A score class (match or nonmatch) required by the measure is empty."""


@dataclass(frozen=True)
class RocCurve:
    """(threshold, FAR, FRR, CAR) points sorted by FAR ascending."""

    thresholds: np.ndarray
    far: np.ndarray
    frr: np.ndarray

    @property
    def car(self) -> np.ndarray:
        return 1.0 - self.frr

    def __len__(self):
        return self.thresholds.shape[0]


@dataclass(frozen=True)
class ErcCurve:
    """Residual error as the worst-predicted fraction is rejected."""

    fractions: np.ndarray
    residual: np.ndarray
    ideal: np.ndarray
    error_kind: str
    empty_retained: np.ndarray


def _as_scores(values, name: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float).reshape(-1)
    if arr.size == 0:
        raise EmptyClassError(f"{name} score set is empty")
    if not np.all(np.isfinite(arr)):
        raise ValidationError(f"{name} scores must be finite, not NaN or infinite")
    return arr


def far_frr(match_scores, nonmatch_scores, threshold: float) -> tuple[float, float]:
    """Empirical false-accept and false-reject rates at a threshold."""
    match = _as_scores(match_scores, "match")
    nonmatch = _as_scores(nonmatch_scores, "nonmatch")
    far = float(np.mean(nonmatch >= threshold))
    frr = float(np.mean(match < threshold))
    return far, frr


def threshold_for_fmr(nonmatch_scores, target_fmr: float):
    """Smallest threshold whose empirical FAR is at or below the target.

    Returns (OperatingPoint, achieved_far). Requires enough nonmatch
    scores to resolve the target: N * target >= 1.
    """
    if not 0.0 < target_fmr < 1.0:
        raise ValidationError("target FMR must lie strictly between 0 and 1")
    nonmatch = np.sort(_as_scores(nonmatch_scores, "nonmatch"))
    n = nonmatch.size
    if n * target_fmr < 1.0:
        # in %g: a tiny target's count has hundreds of digits, a subnormal one's is inf
        raise NumericError(f"target FMR {target_fmr} needs at least "
                           f"{np.ceil(1.0 / target_fmr):g} nonmatch scores, got {n}")
    allowed = int(math.floor(n * target_fmr))
    threshold = float(np.nextafter(nonmatch[n - allowed - 1], math.inf))
    achieved = float(np.mean(nonmatch >= threshold))
    return OperatingPoint(threshold, f"FMR<={target_fmr:g}"), achieved


def roc(match_scores, nonmatch_scores) -> RocCurve:
    """FAR and FRR at each candidate threshold, points sorted by FAR."""
    thresholds, far, frr, _, _ = _roc_cells([(match_scores, nonmatch_scores)])
    return RocCurve(thresholds, far, frr)


def auc(curve: RocCurve) -> float:
    """Trapezoid area under (FAR, CAR); 1.0 for a perfect separator."""
    if len(curve) < 2:
        raise ValidationError("AUC needs at least 2 ROC points")
    f = curve.far
    c = curve.car
    return float(np.sum((f[1:] - f[:-1]) * (c[1:] + c[:-1]) / 2.0))


def select_hter_threshold(match_scores, nonmatch_scores) -> float:
    """Smallest threshold minimizing (FAR + FRR) / 2 over the candidate set."""
    thresholds, far, frr, _, _ = _roc_cells([(match_scores, nonmatch_scores)])
    value = (far + frr) / 2.0
    # points run from the largest threshold down, so take the last minimum
    return float(thresholds[value.size - 1 - np.argmin(value[::-1])])


def hter(match_scores, nonmatch_scores, threshold: float) -> float:
    """(FAR + FRR) / 2 at a threshold chosen elsewhere (e.g. on clean data)."""
    far, frr = far_frr(match_scores, nonmatch_scores, threshold)
    return (far + frr) / 2.0


def _roc_cells(tables, threshold: float | None = None):
    """ROC points of every (match, nonmatch) pair of tables from one sort
    by (cell, descending score) (Fawcett 2006, Alg. 1, segmented by cell).

    Each cell's points: the midpoint above each pooled unique score from the
    largest down (+inf above the largest; the score itself only if subnormal,
    and its scores then count as not below), then -inf. Equal scores pool to
    the first in match, then nonmatch order, which fixes a zero's sign.
    Returns thresholds, FAR, FRR, each cell's first point plus the total, and
    each cell's HTER at threshold, if given. A bad class raises as _as_scores.
    """
    arrays = [np.asarray(s, dtype=float).reshape(-1) for pair in tables for s in pair]
    sizes = np.array([a.size for a in arrays]).reshape(-1, 2)
    scores = np.concatenate(arrays)
    if not (sizes.all() and np.isfinite(scores).all()):
        for m, n in tables:
            _as_scores(m, "match")
            _as_scores(n, "nonmatch")
    n_match, n_nonmatch = sizes.T
    # arrays alternate match, nonmatch: slot 2j + 1 is cell j's nonmatch
    slot = np.repeat(np.arange(sizes.size), sizes.ravel())
    cell, is_match = slot // 2, slot % 2 == 0
    hters = None
    if threshold is not None:
        below = scores < threshold
        frr = np.bincount(cell[is_match & below], minlength=len(tables)) / n_match
        far = np.bincount(cell[~is_match & ~below], minlength=len(tables)) / n_nonmatch
        hters = (far + frr) / 2.0

    # descending scores, then stably by cell; equal scores fall in any order
    order = np.argsort(-scores)
    small_cell = cell[order].astype(np.min_scalar_type(len(tables)))
    order = order[np.argsort(small_cell, kind="stable")]
    value, cell, is_match = scores[order], cell[order], is_match[order]
    first = np.r_[True, (cell[1:] != cell[:-1]) | (value[1:] != value[:-1])]
    group = np.flatnonzero(first)  # start of each pooled unique score
    # a group's value is its score first in input (match, then nonmatch) order
    g_cell, g_value = cell[group], scores[np.minimum.reduceat(order, group)]
    # halving first cannot overflow, and is exact above the subnormal range
    mids = np.r_[math.inf, g_value[1:] / 2.0 + g_value[:-1] / 2.0]
    upper = np.where(np.r_[True, g_cell[1:] != g_cell[:-1]], math.inf, mids)
    # the scores below it start at this value, or after it
    begin = np.where(upper > g_value, group, np.r_[group[1:], value.size])
    cell_end = np.cumsum(sizes.sum(axis=1))[g_cell]
    matches_before = np.r_[0, np.cumsum(is_match)]
    below_match = matches_before[cell_end] - matches_before[begin]
    below_nonmatch = cell_end - begin - below_match

    # each cell's groups in order, then its -inf point (FAR 1, FRR 0)
    point_start = np.r_[0, np.cumsum(np.bincount(g_cell, minlength=len(tables)) + 1)]
    pos = np.arange(g_cell.size) + g_cell
    thresholds = np.full(point_start[-1], -math.inf)
    far = np.ones(point_start[-1])
    frr = np.zeros(point_start[-1])
    thresholds[pos] = upper
    far[pos] = (n_nonmatch[g_cell] - below_nonmatch) / n_nonmatch[g_cell]
    frr[pos] = below_match / n_match[g_cell]
    return thresholds, far, frr, point_start, hters


def _cells_hter_auc(tables, threshold: float) -> tuple[list[float], list[float]]:
    """hter(m, n, threshold) and auc(roc(m, n)) for every (m, n) of tables,
    bit for bit, from one _roc_cells call per SWEEP_BLOCK_CELLS cells. Each
    AUC is one np.sum over the cell's trapezoid terms, as in auc().
    """
    hters: list[float] = []
    aucs: list[float] = []
    for start in range(0, len(tables), SWEEP_BLOCK_CELLS):
        block = tables[start:start + SWEEP_BLOCK_CELLS]
        _, far, frr, point_start, block_hters = _roc_cells(block, threshold)
        hters.extend(block_hters.tolist())
        car = 1.0 - frr
        terms = (far[1:] - far[:-1]) * (car[1:] + car[:-1]) / 2.0
        aucs.extend(
            float(np.sum(terms[lo:hi - 1]))
            for lo, hi in zip(point_start[:-1].tolist(), point_start[1:].tolist())
        )
    return hters, aucs


def _kept_counts(flags: np.ndarray, order: np.ndarray, n_reject: np.ndarray) -> np.ndarray:
    """How many flagged attempts remain once the first n_reject of order are rejected."""
    suffix = np.cumsum(flags[order][::-1])[::-1]
    return np.append(suffix, 0)[n_reject]


def erc(
    per_attempt,
    threshold: float,
    error_kind: str = "fnmr",
    grid_step: float = ERC_GRID_STEP,
) -> ErcCurve:
    """erc_columns of an iterable of (score, is_match, predicted_error)
    triples; is_match may be a bool or a 'match'/'nonmatch' string."""
    rows = list(per_attempt)
    is_match = _match_flags([r[1] for r in rows])
    return erc_columns([float(r[0]) for r in rows], is_match, [float(r[2]) for r in rows],
                       threshold, error_kind, grid_step)


def erc_columns(scores, is_match, predicted, threshold: float, error_kind: str = "fnmr",
                grid_step: float = ERC_GRID_STEP) -> ErcCurve:
    """Error-versus-reject curve with an ideal-rejector benchmark.

    scores, is_match (bools) and predicted errors are equal-length columns,
    one value per attempt. Attempts with the largest predicted error are
    rejected first (ties keep input order). The residual error is computed
    among retained attempts of the relevant class; an empty retained class
    reports 0 with a flag. The final grid point (fraction 1) is 0 by
    convention.
    """
    if error_kind not in ("fnmr", "fmr"):
        raise ValidationError("error_kind must be 'fnmr' or 'fmr'")
    if not 0.0 < grid_step <= 1.0:
        raise ValidationError("grid_step must lie in (0, 1]")
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(is_match, dtype=bool)
    predicted = np.asarray(predicted, dtype=float)
    if scores.size == 0:
        raise ValidationError("need at least one attempt")
    if not scores.shape == labels.shape == predicted.shape == (scores.size,):
        raise ValidationError("scores, labels and predicted errors must be aligned columns")
    if not np.all(np.isfinite(predicted)):
        raise ValidationError("predicted errors must be finite")
    n = scores.size
    relevant = labels if error_kind == "fnmr" else ~labels

    if error_kind == "fnmr":
        erring = (scores < threshold) & relevant
    else:
        erring = (scores >= threshold) & relevant

    # stable descending sort on predicted error
    order = np.argsort(-predicted, kind="stable")
    ideal_order = np.argsort(~erring, kind="stable")  # erring attempts first

    n_grid = int(round(1.0 / grid_step))
    fractions = np.arange(n_grid + 1) / n_grid
    n_reject = np.rint(fractions * n).astype(int)  # half to even, as round()

    def residual_error(rejection_order):
        kept_relevant = _kept_counts(relevant, rejection_order, n_reject)
        kept_erring = _kept_counts(erring, rejection_order, n_reject)
        empty = kept_relevant == 0
        return np.where(empty, 0.0, kept_erring / np.maximum(kept_relevant, 1)), empty

    residual, flags = residual_error(order)
    ideal, _ = residual_error(ideal_order)
    residual[-1] = 0.0
    ideal[-1] = 0.0
    return ErcCurve(fractions, residual, ideal, error_kind, flags)


def write_roc_csv(curve: RocCurve, sink) -> None:
    columns = (curve.far, curve.frr, curve.car, curve.thresholds)
    write_csv(sink, ["far", "frr", "car", "threshold"], [c.tolist() for c in columns])


def write_erc_csv(curve: ErcCurve, sink) -> None:
    columns = (curve.fractions, curve.residual, curve.ideal)
    write_csv(sink, ["reject_fraction", "residual_error", "ideal_error"],
              [c.tolist() for c in columns])
