"""Verification metrics: FAR/FRR, thresholds, ROC/AUC, HTER, reject curves."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from veriq.errors import NumericError, ValidationError
from veriq.metrics import (
    ERC_GRID_STEP,
    EmptyClassError,
    ErcCurve,
    RocCurve,
    _as_scores,
    auc,
    erc,
    far_frr,
    hter,
    roc,
    select_hter_threshold,
    threshold_for_fmr,
    write_erc_csv,
    write_roc_csv,
)

_scores = st.lists(
    st.floats(-100, 100, allow_nan=False), min_size=1, max_size=40
)


# ----------------------------------------------------------------- far/frr


def test_far_frr_basics():
    assert far_frr([0.9], [0.1], 0.5) == (0.0, 0.0)
    assert far_frr([0.9], [0.1], -math.inf) == (1.0, 0.0)
    assert far_frr([0.9], [0.1], math.inf) == (0.0, 1.0)


def test_scores_at_the_threshold_are_accepted():
    far, frr = far_frr([1.0], [1.0], 1.0)
    assert far == 1.0  # nonmatch accepted: an error
    assert frr == 0.0  # match accepted: correct


def test_far_frr_rejects_empty_classes():
    with pytest.raises(EmptyClassError):
        far_frr([], [0.1], 0.5)
    with pytest.raises(EmptyClassError):
        far_frr([0.9], [], 0.5)


@settings(max_examples=60, deadline=None)
@given(_scores, _scores, st.floats(-100, 100, allow_nan=False))
def test_far_frr_matches_direct_recount(match, nonmatch, t):
    far, frr = far_frr(match, nonmatch, t)
    assert far == sum(1 for s in nonmatch if s >= t) / len(nonmatch)
    assert frr == sum(1 for s in match if s < t) / len(match)


def test_far_frr_monotone_in_threshold():
    rng = np.random.default_rng(0)
    match, nonmatch = rng.normal(1, 1, 200), rng.normal(0, 1, 200)
    ts = np.linspace(-4, 5, 60)
    fars = [far_frr(match, nonmatch, t)[0] for t in ts]
    frrs = [far_frr(match, nonmatch, t)[1] for t in ts]
    assert np.all(np.diff(fars) <= 0)
    assert np.all(np.diff(frrs) >= 0)


# ------------------------------------------------------- FMR -> threshold


def test_threshold_for_fmr_thousand_point_example():
    scores = np.arange(1, 1001) / 1000.0
    point, achieved = threshold_for_fmr(scores, 0.001)
    assert 0.999 < point.threshold <= 1.0
    assert achieved == 0.001
    assert point.label == "FMR<=0.001"
    # one step below the chosen threshold the target is violated
    assert float(np.mean(scores >= 0.999)) > 0.001


def test_threshold_for_fmr_median_target():
    scores = np.arange(1, 1001) / 1000.0
    point, achieved = threshold_for_fmr(scores, 0.5)
    assert achieved == 0.5
    assert 0.5 < point.threshold <= 0.501


def test_threshold_for_fmr_with_ties_lands_below_target():
    point, achieved = threshold_for_fmr([0.5] * 10, 0.2)
    assert point.threshold > 0.5
    assert achieved == 0.0


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.floats(-50, 50, allow_nan=False), min_size=5, max_size=60),
    st.floats(0.01, 0.99),
)
def test_threshold_for_fmr_properties(nonmatch, target):
    if len(nonmatch) * target < 1.0:
        with pytest.raises(NumericError):
            threshold_for_fmr(nonmatch, target)
        return
    point, achieved = threshold_for_fmr(nonmatch, target)
    assert achieved <= target
    assert achieved == far_frr([0.0], nonmatch, point.threshold)[0]
    # minimality: any lower threshold overshoots the target
    order_stat = np.sort(nonmatch)[len(nonmatch) - int(len(nonmatch) * target) - 1]
    far_below = float(np.mean(np.asarray(nonmatch) >= order_stat))
    assert far_below > target


def test_threshold_for_fmr_requires_enough_data():
    with pytest.raises(NumericError) as excinfo:
        threshold_for_fmr(np.arange(100) / 100.0, 0.0001)
    assert "10000" in str(excinfo.value)
    with pytest.raises(ValidationError):
        threshold_for_fmr([0.1, 0.2], 0.0)
    with pytest.raises(ValidationError):
        threshold_for_fmr([0.1, 0.2], 1.0)


# ------------------------------------------------------------------- ROC


def test_candidate_thresholds_are_midpoints_with_sentinels():
    cands = roc([1.0, 3.0], [2.0]).thresholds
    np.testing.assert_array_equal(cands, [math.inf, 2.5, 1.5, -math.inf])
    dedup = roc([1.0, 1.0], [1.0]).thresholds
    np.testing.assert_array_equal(dedup, [math.inf, -math.inf])


def test_midpoints_near_the_float_maximum_stay_finite():
    # the sum of the two nonmatch scores overflows; their halves do not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = roc([0.0], [1e308, 1.5e308])
    mids = curve.thresholds[1:-1]
    assert np.all(np.isfinite(mids)) and np.all(np.diff(curve.thresholds) < 0)
    np.testing.assert_array_equal(curve.far, [0.0, 0.5, 1.0, 1.0])
    np.testing.assert_array_equal(curve.frr, [1.0, 1.0, 1.0, 0.0])


def test_roc_is_sorted_by_ascending_far():
    rng = np.random.default_rng(1)
    curve = roc(rng.normal(1, 1, 50), rng.normal(0, 1, 50))
    assert np.all(np.diff(curve.far) >= 0)
    assert np.all(np.diff(curve.thresholds) <= 0)
    np.testing.assert_array_equal(curve.car, 1.0 - curve.frr)
    assert curve.far[0] == 0.0 and curve.far[-1] == 1.0
    assert curve.frr[0] == 1.0 and curve.frr[-1] == 0.0


# frozen via exhaustive pair counting over the 25 (match, nonmatch) pairs
def test_auc_frozen_example():
    match = [0.9, 0.8, 0.75, 0.4, 0.95]
    nonmatch = [0.1, 0.5, 0.45, 0.3, 0.85]
    assert auc(roc(match, nonmatch)) == pytest.approx(0.8, abs=1e-12)


def test_auc_equals_pairwise_win_rate():
    rng = np.random.default_rng(2)
    for _ in range(20):
        match = rng.normal(0.5, 1, rng.integers(3, 40))
        nonmatch = rng.normal(0.0, 1, rng.integers(3, 40))
        wins = np.sum(match[:, None] > nonmatch[None, :])
        ties = np.sum(match[:, None] == nonmatch[None, :])
        expected = (wins + 0.5 * ties) / (match.size * nonmatch.size)
        assert auc(roc(match, nonmatch)) == pytest.approx(expected, abs=1e-12)


def test_auc_extremes():
    assert auc(roc([2.0, 3.0], [0.0, 1.0])) == 1.0
    assert auc(roc([0.0, 1.0], [2.0, 3.0])) == 0.0


def test_auc_is_invariant_under_monotone_transforms():
    rng = np.random.default_rng(3)
    match, nonmatch = rng.normal(1, 1, 30), rng.normal(0, 1, 30)
    base = auc(roc(match, nonmatch))
    assert auc(roc(np.exp(match), np.exp(nonmatch))) == base
    assert auc(roc(3 * match + 7, 3 * nonmatch + 7)) == base


def test_polarity_flip_swaps_error_kinds():
    rng = np.random.default_rng(4)
    match, nonmatch = rng.normal(1, 1, 25), rng.normal(0, 1, 25)
    for t in roc(match, nonmatch).thresholds[1:-1]:
        far, frr = far_frr(match, nonmatch, t)
        far_flip, frr_flip = far_frr(-nonmatch, -match, -t)
        assert far_flip == frr
        assert frr_flip == far


def test_nan_scores_are_rejected():
    for call in (
        lambda: far_frr([math.nan], [0.0], 0.5),
        lambda: roc([1.0], [0.0, math.nan]),
        lambda: select_hter_threshold([1.0, math.nan], [0.0]),
    ):
        with pytest.raises(ValidationError, match="NaN"):
            call()


def test_infinite_scores_are_rejected():
    # -inf next to +inf would give roc a NaN midpoint threshold
    for call in (
        lambda: roc([math.inf], [-math.inf]),
        lambda: far_frr([1.0], [-math.inf], 0.5),
        lambda: select_hter_threshold([math.inf, 1.0], [0.0]),
        lambda: threshold_for_fmr([0.0] * 9 + [math.inf], 0.1),
    ):
        with pytest.raises(ValidationError, match="infinite"):
            call()


def test_auc_needs_two_points():
    with pytest.raises(ValidationError):
        auc(RocCurve(np.array([0.5]), np.array([0.0]), np.array([0.0])))


# ------------------------------------------------------------------ HTER


def test_select_hter_threshold_separable():
    t = select_hter_threshold([1.0, 2.0], [0.0])
    assert t == 0.5  # first (lowest) zero-error candidate
    assert hter([1.0, 2.0], [0.0], t) == 0.0


def test_selected_threshold_beats_every_candidate():
    rng = np.random.default_rng(5)
    match, nonmatch = rng.normal(0.8, 1, 80), rng.normal(0, 1, 80)
    t = select_hter_threshold(match, nonmatch)
    best = hter(match, nonmatch, t)
    for probe in np.linspace(-4, 5, 300):
        assert best <= hter(match, nonmatch, probe) + 1e-12


def test_hter_never_exceeds_one_half_at_the_selected_threshold():
    # the infinite sentinels give (FAR+FRR)/2 = 0.5, so the minimum cannot
    # sit above it
    for seed in range(10):
        r = np.random.default_rng(seed)
        match, nonmatch = r.normal(0, 1, 50), r.normal(0, 1, 50)
        t = select_hter_threshold(match, nonmatch)
        assert hter(match, nonmatch, t) <= 0.5


def test_hter_arithmetic():
    assert hter([1.0, 0.0], [1.0, 0.0], 0.5) == pytest.approx(0.5)
    assert hter([1.0], [0.0], 0.5) == 0.0


# ------------------------------------------------------------------- ERC


def _attempts(scores, labels, predicted):
    return list(zip(scores, labels, predicted))


def test_erc_grid_and_baseline():
    scores = [-1.0] * 25 + [1.0] * 75
    attempts = _attempts(scores, [True] * 100, [0.0] * 100)
    curve = erc(attempts, threshold=0.0)
    assert len(curve.fractions) == 201
    assert curve.fractions[0] == 0.0 and curve.fractions[-1] == 1.0
    assert np.all(np.diff(curve.fractions) > 0)
    assert curve.residual[0] == 0.25
    assert curve.ideal[0] == 0.25
    assert curve.residual[-1] == 0.0
    assert curve.ideal[-1] == 0.0
    assert curve.error_kind == "fnmr"


def test_erc_perfect_predictor_tracks_the_ideal():
    scores = np.array([-1.0] * 40 + [1.0] * 160)
    predicted = (scores < 0).astype(float)
    curve = erc(_attempts(scores, [True] * 200, predicted), threshold=0.0)
    np.testing.assert_array_equal(curve.residual, curve.ideal)
    at_fraction = np.flatnonzero(np.isclose(curve.fractions, 0.2))[0]
    assert curve.ideal[at_fraction] == 0.0
    assert curve.ideal[at_fraction - 1] > 0.0


def test_erc_ideal_curve_drops_linearly():
    scores = np.array([-1.0] * 50 + [1.0] * 150)
    curve = erc(_attempts(scores, [True] * 200, [0.5] * 200), threshold=0.0)
    rejected = np.round(200 * curve.fractions)
    expected = np.where(
        curve.fractions < 0.25,
        (50 - rejected) / np.maximum(200 - rejected, 1),
        0.0,
    )
    np.testing.assert_allclose(curve.ideal, expected, atol=1e-12)


def test_erc_constant_predictions_keep_input_order():
    # erring attempts sit at the front, so rejecting the prefix removes
    # them first even with constant predictions (stable ties)
    scores = [-1.0] * 10 + [1.0] * 90
    curve = erc(_attempts(scores, [True] * 100, [7.0] * 100), threshold=0.0, grid_step=0.1)
    assert curve.residual[0] == pytest.approx(0.1)
    assert curve.residual[1] == 0.0  # the 10 rejected were exactly the errors


def test_erc_fmr_kind_counts_accepted_nonmatches():
    scores = [1.0] * 30 + [-1.0] * 70
    labels = [False] * 100
    curve = erc(_attempts(scores, labels, scores), threshold=0.0, error_kind="fmr")
    assert curve.residual[0] == pytest.approx(0.3)
    at = np.flatnonzero(np.isclose(curve.fractions, 0.3))[0]
    assert curve.residual[at] == 0.0


def test_erc_string_labels_match_boolean_labels():
    scores = [-1.0, 1.0, 0.5, -0.5]
    bools = [True, True, False, True]
    strings = ["match", "match", "nonmatch", "match"]
    a = erc(_attempts(scores, bools, scores), 0.0, grid_step=0.25)
    b = erc(_attempts(scores, strings, scores), 0.0, grid_step=0.25)
    np.testing.assert_array_equal(a.residual, b.residual)


def test_erc_flags_an_emptied_class():
    # rejecting half removes every match attempt; FNMR undefined -> 0 + flag
    attempts = _attempts(
        [-1.0] * 5 + [1.0] * 5,
        [True] * 5 + [False] * 5,
        [1.0] * 5 + [0.0] * 5,
    )
    curve = erc(attempts, threshold=0.0, grid_step=0.25)
    assert not curve.empty_retained[0]
    assert curve.empty_retained[2]  # fraction 0.5
    assert curve.residual[2] == 0.0


def test_erc_validation():
    good = _attempts([1.0], [True], [0.0])
    with pytest.raises(ValidationError):
        erc([], 0.0)
    with pytest.raises(ValidationError):
        erc(good, 0.0, error_kind="oops")
    with pytest.raises(ValidationError):
        erc(good, 0.0, grid_step=0.0)
    with pytest.raises(ValidationError):
        erc(_attempts([1.0], [True], [math.nan]), 0.0)


# ------------------------------------- sort-based measures vs per-threshold
#
# The quadratic roc, select_hter_threshold and erc they replaced, kept
# unchanged as oracles: the sort-based versions must agree bit for bit.


def _reference_candidate_thresholds(match, nonmatch) -> np.ndarray:
    """Midpoints of adjacent pooled unique scores, plus the two infinities.

    Each run of equal scores pools to its first in match, then nonmatch
    order. np.unique would not do: its unstable sort picks a zero's sign.
    """
    pooled = np.sort(np.concatenate([match, nonmatch]), kind="stable")
    pooled = pooled[np.r_[True, pooled[1:] != pooled[:-1]]]
    mids = pooled[:-1] / 2.0 + pooled[1:] / 2.0
    return np.concatenate([[-math.inf], mids, [math.inf]])


def _reference_roc(match_scores, nonmatch_scores) -> RocCurve:
    """Evaluate far_frr on each candidate threshold, from the largest down."""
    match = _as_scores(match_scores, "match")
    nonmatch = _as_scores(nonmatch_scores, "nonmatch")
    # descending pooled scores give FAR ascending; of two equal thresholds
    # (-0.0 and 0.0, or subnormal halves) the one above the larger score first
    thresholds = _reference_candidate_thresholds(match, nonmatch)[::-1]
    far = np.array([float(np.mean(nonmatch >= t)) for t in thresholds])
    frr = np.array([float(np.mean(match < t)) for t in thresholds])
    return RocCurve(thresholds, far, frr)


def _reference_select_hter_threshold(match_scores, nonmatch_scores) -> float:
    """Threshold minimizing (FAR + FRR) / 2 over the candidate set."""
    match = _as_scores(match_scores, "match")
    nonmatch = _as_scores(nonmatch_scores, "nonmatch")
    candidates = _reference_candidate_thresholds(match, nonmatch)
    best_t = None
    best_value = math.inf
    for t in candidates:
        far, frr = far_frr(match, nonmatch, t)
        value = (far + frr) / 2.0
        if value < best_value:
            best_value = value
            best_t = float(t)
    return best_t


def _reference_residual_error(scores, labels_relevant, threshold, error_kind):
    # scores/flags restricted to retained attempts
    relevant = labels_relevant
    n_rel = int(np.sum(relevant))
    if n_rel == 0:
        return 0.0, True
    if error_kind == "fnmr":
        errs = np.sum((scores < threshold) & relevant)
    else:
        errs = np.sum((scores >= threshold) & relevant)
    return float(errs / n_rel), False


def _reference_erc(
    per_attempt,
    threshold: float,
    error_kind: str = "fnmr",
    grid_step: float = ERC_GRID_STEP,
) -> ErcCurve:
    """Error-versus-reject curve with an ideal-rejector benchmark."""
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
    residual = np.empty(fractions.shape)
    ideal = np.empty(fractions.shape)
    flags = np.zeros(fractions.shape, dtype=bool)
    for i, frac in enumerate(fractions):
        n_reject = int(round(frac * n))
        keep = order[n_reject:]
        residual[i], flags[i] = _reference_residual_error(
            scores[keep], relevant[keep], threshold, error_kind
        )
        keep_ideal = ideal_order[n_reject:]
        ideal[i], _ = _reference_residual_error(
            scores[keep_ideal], relevant[keep_ideal], threshold, error_kind
        )
    residual[-1] = 0.0
    ideal[-1] = 0.0
    return ErcCurve(fractions, residual, ideal, error_kind, flags)


def _assert_same_bits(got, ref, fields):
    for name in fields:
        a, b = getattr(got, name), getattr(ref, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


# integer-valued scores put ties on the scores; single-element classes come
# from min_size=1
_tied_scores = st.lists(st.integers(-6, 6).map(float), min_size=1, max_size=30)
_any_scores = _tied_scores | _scores


@settings(max_examples=300, deadline=None)
@given(_any_scores, _any_scores)
# the zero threshold takes the sign of the first zero in match, then nonmatch
# order; np.unique's unstable sort gave -0.0 here
@example([0.0] * 7 + [-5e-324], [-0.0])
# the thresholds above -0.0 and -5e-324 are 0.0 and -0.0: descending score order
@example([-5e-324, -0.0, 5e-324], [1.0])
# an unstable sort may put the 0.0 before the -0.0 here (numpy 2.4's argsort does)
@example([-0.0, 1.0, 0.0], [-5e-324, 1.0])
def test_sort_based_roc_matches_per_threshold_reference(match, nonmatch):
    got = roc(match, nonmatch)
    ref = _reference_roc(match, nonmatch)
    _assert_same_bits(got, ref, ("thresholds", "far", "frr"))
    assert auc(got) == auc(ref)


@settings(max_examples=300, deadline=None)
@given(_any_scores, _any_scores)
@example([-5e-324, -0.0, 5e-324], [1.0])
def test_sort_based_hter_threshold_matches_reference(match, nonmatch):
    got = select_hter_threshold(match, nonmatch)
    assert type(got) is float
    # bit for bit: hex keeps -0.0 apart from 0.0
    assert got.hex() == _reference_select_hter_threshold(match, nonmatch).hex()


@st.composite
def _erc_cases(draw):
    n = draw(st.integers(1, 40))
    scores = draw(st.lists(st.integers(-4, 4).map(float), min_size=n, max_size=n))
    # one-class inputs empty the other class at every grid point
    labels = draw(st.lists(st.booleans(), min_size=n, max_size=n)
                  | st.sampled_from([[True] * n, [False] * n]))
    predicted = draw(st.lists(st.integers(0, 3).map(float) | st.floats(0, 1),
                              min_size=n, max_size=n))
    threshold = draw(st.integers(-5, 5).map(float) | st.sampled_from([-math.inf, math.inf]))
    kind = draw(st.sampled_from(["fnmr", "fmr"]))
    step = draw(st.sampled_from([ERC_GRID_STEP, 0.1, 0.25, 0.3, 1.0 / 7.0, 1.0]))
    return list(zip(scores, labels, predicted)), threshold, kind, step


@settings(max_examples=300, deadline=None)
@given(_erc_cases())
def test_cumulative_erc_matches_per_grid_point_reference(case):
    attempts, threshold, kind, step = case
    got = erc(attempts, threshold, kind, step)
    ref = _reference_erc(attempts, threshold, kind, step)
    _assert_same_bits(got, ref, ("fractions", "residual", "ideal", "empty_retained"))
    assert got.error_kind == ref.error_kind


# ------------------------------------------------------------------- CSVs


def test_write_roc_csv(tmp_path):
    curve = roc([1.0, 2.0], [0.0])
    path = tmp_path / "roc.csv"
    write_roc_csv(curve, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "far,frr,car,threshold"
    assert len(lines) == 1 + len(curve)
    assert lines[1].split(",")[3] == "inf"


def test_write_erc_csv(tmp_path):
    curve = erc(_attempts([1.0, -1.0], [True, True], [0.0, 1.0]), 0.0, grid_step=0.5)
    path = tmp_path / "erc.csv"
    write_erc_csv(curve, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "reject_fraction,residual_error,ideal_error"
    assert len(lines) == 4
    assert lines[1] == "0.0,0.5,0.5"


def test_default_grid_step_is_half_percent():
    assert ERC_GRID_STEP == 1.0 / 200.0
