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

from .dataio import write_csv
from .errormodel import OperatingPoint
from .errors import NumericError, ValidationError

ERC_GRID_STEP = 1.0 / 200.0


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


def _far_frr_at(match, nonmatch, thresholds) -> tuple[np.ndarray, np.ndarray]:
    """FAR and FRR at every threshold from one sort per class.

    searchsorted(..., "left") counts the scores strictly below each
    threshold, which keeps the >= accept boundary (Fawcett 2006, Alg. 1).
    """
    match = np.sort(match)
    nonmatch = np.sort(nonmatch)
    accepted = nonmatch.size - np.searchsorted(nonmatch, thresholds, "left")
    return accepted / nonmatch.size, np.searchsorted(match, thresholds, "left") / match.size


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
        needed = math.ceil(1.0 / target_fmr)
        raise NumericError(
            f"target FMR {target_fmr} needs at least {needed} nonmatch scores, got {n}"
        )
    allowed = int(math.floor(n * target_fmr))
    threshold = float(np.nextafter(nonmatch[n - allowed - 1], math.inf))
    achieved = float(np.mean(nonmatch >= threshold))
    return OperatingPoint(threshold, f"FMR<={target_fmr:g}"), achieved


def candidate_thresholds(match_scores, nonmatch_scores) -> np.ndarray:
    """Midpoints of adjacent pooled unique scores, plus the two infinities."""
    pooled = np.unique(
        np.concatenate(
            [np.asarray(match_scores, float).ravel(),
             np.asarray(nonmatch_scores, float).ravel()]
        )
    )
    mids = (pooled[:-1] + pooled[1:]) / 2.0
    return np.concatenate([[-math.inf], mids, [math.inf]])


def roc(match_scores, nonmatch_scores, thresholds=None) -> RocCurve:
    """FAR and FRR at each threshold, points sorted by FAR."""
    match = _as_scores(match_scores, "match")
    nonmatch = _as_scores(nonmatch_scores, "nonmatch")
    if thresholds is None:
        thresholds = candidate_thresholds(match, nonmatch)
    else:
        thresholds = np.asarray(thresholds, dtype=float).reshape(-1)
        if thresholds.size == 0:
            raise ValidationError("need at least one threshold")
        if np.any(np.isnan(thresholds)):
            raise ValidationError("thresholds must not be NaN")
    far, frr = _far_frr_at(match, nonmatch, thresholds)
    # descending thresholds give FAR ascending; stable for ties
    order = np.argsort(-thresholds, kind="stable")
    return RocCurve(thresholds[order], far[order], frr[order])


def auc(curve: RocCurve) -> float:
    """Trapezoid area under (FAR, CAR); 1.0 for a perfect separator."""
    if len(curve) < 2:
        raise ValidationError("AUC needs at least 2 ROC points")
    f = curve.far
    c = curve.car
    return float(np.sum((f[1:] - f[:-1]) * (c[1:] + c[:-1]) / 2.0))


def select_hter_threshold(match_scores, nonmatch_scores) -> float:
    """Threshold minimizing (FAR + FRR) / 2 over the candidate set."""
    match = _as_scores(match_scores, "match")
    nonmatch = _as_scores(nonmatch_scores, "nonmatch")
    candidates = candidate_thresholds(match, nonmatch)
    far, frr = _far_frr_at(match, nonmatch, candidates)
    return float(candidates[np.argmin((far + frr) / 2.0)])  # first minimum


def hter(match_scores, nonmatch_scores, threshold: float) -> float:
    """(FAR + FRR) / 2 at a threshold chosen elsewhere (e.g. on clean data)."""
    far, frr = far_frr(match_scores, nonmatch_scores, threshold)
    return (far + frr) / 2.0


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
    """Error-versus-reject curve with an ideal-rejector benchmark.

    per_attempt: iterable of (score, is_match, predicted_error) triples;
    is_match may be a bool or a 'match'/'nonmatch' string. Attempts with
    the largest predicted error are rejected first (ties keep input
    order). The residual error is computed among retained attempts of the
    relevant class; an empty retained class reports 0 with a flag. The
    final grid point (fraction 1) is 0 by convention.
    """
    if error_kind not in ("fnmr", "fmr"):
        raise ValidationError("error_kind must be 'fnmr' or 'fmr'")
    if not 0.0 < grid_step <= 1.0:
        raise ValidationError("grid_step must lie in (0, 1]")
    rows = list(per_attempt)
    if not rows:
        raise ValidationError("need at least one attempt")
    scores = np.array([float(r[0]) for r in rows])
    labels = np.array(
        [r[1] == "match" if isinstance(r[1], str) else bool(r[1]) for r in rows]
    )
    predicted = np.array([float(r[2]) for r in rows])
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
    rows = zip(curve.far, curve.frr, curve.car, curve.thresholds)
    write_csv(sink, ["far", "frr", "car", "threshold"], rows)


def write_erc_csv(curve: ErcCurve, sink) -> None:
    rows = zip(curve.fractions, curve.residual, curve.ideal)
    write_csv(sink, ["reject_fraction", "residual_error", "ideal_error"], rows)
