"""Impostor-score uniqueness statistics.

A subject whose impostor scores sit far below their own maximum is easy
to confuse; the uniqueness value u = (max - mean) / (max - min) is 1 when
the mass sits at the minimum and 0 when it sits at the maximum. It is
computed as mean(max - x) / (max - min), because max - mean cancels when
the scores are close together against their magnitude. u is
invariant under increasing affine transforms of the scores but, being
built from extremes, is sensitive to single outliers by design.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dataio import write_csv
from .errors import NumericError, ValidationError


class DegenerateScoresError(NumericError):
    """All impostor scores equal; u is undefined."""


@dataclass(frozen=True)
class IumResult:
    subject_id: str
    u: float
    n_impostors: int
    s_min: float
    s_max: float
    s_mean: float


@dataclass(frozen=True)
class IumCorrelation:
    r: float
    n_joined: int
    n_excluded: int


def ium(impostor_scores, subject_id: str = "") -> IumResult:
    """u = mean(max - x) / (max - min) over one subject's impostor scores."""
    scores = np.asarray(impostor_scores, dtype=float).reshape(-1)
    if scores.size < 2:
        raise ValidationError("need at least 2 impostor scores")
    s_min = float(scores.min())
    s_max = float(scores.max())
    if s_max == s_min:
        raise DegenerateScoresError("constant impostor scores give 0/0")
    # the gaps to the maximum are non-negative, so their mean cannot cancel
    # as max - mean does; they are summed scaled by a power of two that
    # brings the span near 1, so neither overflow nor subnormal rounding
    # reaches them (halved first when the span itself overflows)
    halve = s_max - s_min == math.inf
    gaps = s_max / 2 - scores / 2 if halve else s_max - scores
    span = s_max / 2 - s_min / 2 if halve else s_max - s_min
    exponent = math.frexp(span)[1]
    if math.isfinite(max(-s_min, s_max) * scores.size):
        s_mean = float(scores.mean())
    else:  # the sum could overflow
        s_mean = math.ldexp(float(np.mean(np.ldexp(scores, -64))), 64)
    return IumResult(
        subject_id=subject_id,
        u=float(np.mean(np.ldexp(gaps, -exponent))) / math.ldexp(span, -exponent),
        n_impostors=int(scores.size),
        s_min=s_min,
        s_max=s_max,
        s_mean=s_mean,
    )


def ium_by_subject(probe_ids, scores, is_match) -> list[IumResult]:
    """Group the nonmatch scores by probe id, in file order, and compute u
    per subject, in ascending subject order.

    probe_ids, scores and is_match are a records file's columns. Subjects
    with fewer than 2 impostor scores or constant scores are skipped.
    """
    nonmatch = ~np.asarray(is_match, dtype=bool)
    groups: dict[str, list[float]] = {}
    for subject_id, score in zip(itertools.compress(probe_ids, nonmatch.tolist()),
                                 np.asarray(scores, dtype=float)[nonmatch].tolist()):
        groups.setdefault(subject_id, []).append(score)
    results = []
    for subject_id in sorted(groups):
        try:
            results.append(ium(groups[subject_id], subject_id))
        except (ValidationError, DegenerateScoresError):
            continue
    return results


def ium_correlation(set_a, set_b) -> IumCorrelation:
    """Pearson correlation of u across two sessions, joined on subject_id.

    Subjects present in only one session are excluded and counted.
    """
    by_id_a = {r.subject_id: r.u for r in set_a}
    by_id_b = {r.subject_id: r.u for r in set_b}
    joined = sorted(set(by_id_a) & set(by_id_b))
    n_excluded = (len(by_id_a) - len(joined)) + (len(by_id_b) - len(joined))
    if len(joined) < 3:
        raise ValidationError("need at least 3 joined subjects")
    a = np.array([by_id_a[s] for s in joined])
    b = np.array([by_id_b[s] for s in joined])
    if np.std(a) == 0.0 or np.std(b) == 0.0:
        raise DegenerateScoresError("zero variance makes correlation undefined")
    r = float(np.corrcoef(a, b)[0, 1])
    return IumCorrelation(r=r, n_joined=len(joined), n_excluded=n_excluded)


def write_ium_csv(results, sink) -> None:
    rows = [(r.subject_id, r.u, r.n_impostors) for r in results]
    write_csv(sink, ["subject_id", "u", "n_impostors"], rows)
