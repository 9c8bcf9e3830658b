"""Impostor-score uniqueness and its cross-session correlation."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from veriq.dataio import MATCH, NONMATCH, RecordSet, VerificationRecord
from veriq.errors import ValidationError
from veriq.uniqueness import (
    DegenerateScoresError,
    IumResult,
    ium,
    ium_by_subject,
    ium_correlation,
    write_ium_csv,
)


def test_ium_hand_values():
    result = ium([0.2, 0.5, 0.8], "s1")
    assert result.u == pytest.approx(0.5, abs=1e-15)
    assert result.subject_id == "s1"
    assert result.n_impostors == 3
    assert (result.s_min, result.s_max, result.s_mean) == (0.2, 0.8, 0.5)


def test_ium_mass_at_the_extremes():
    near_max = ium([1.0] * 9 + [0.0])
    assert near_max.u == pytest.approx(0.1, abs=1e-12)
    near_min = ium([0.0] * 9 + [1.0])
    assert near_min.u == pytest.approx(0.9, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-100, 100, allow_nan=False), min_size=2, max_size=40),
    st.floats(0.01, 50),
    st.floats(-100, 100, allow_nan=False),
)
def test_ium_is_bounded_and_affine_invariant(scores, a, b):
    arr = np.asarray(scores)
    if arr.max() - arr.min() < 1e-6:
        return
    base = ium(scores).u
    assert 0.0 <= base <= 1.0
    transformed = a * arr + b
    # a * x + b is rounded by up to 2 eps |a x + b| per value; moving each
    # value by delta moves u by at most 4 delta over the transformed range
    delta = 2 * np.finfo(float).eps * float(np.max(np.abs(a * arr) + abs(b)))
    span = a * (arr.max() - arr.min())
    bound = 1e-12 + 4 * delta / max(span - 2 * delta, 1e-300)
    assert ium(list(transformed)).u == pytest.approx(base, abs=bound)


def _exact_u(values):
    exact = [Fraction(v) for v in values]
    mean = sum(exact) / len(exact)
    return (max(exact) - mean) / (max(exact) - min(exact))


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.floats(-100, 100, allow_nan=False), min_size=2, max_size=40),
    st.floats(0.01, 50),
    st.floats(-100, 100, allow_nan=False),
)
@example(scores=[0.0, 4.2025307151839036e-05], a=0.125, b=64.0)
@example(scores=[0.0, 2.2250738585e-313], a=0.5, b=0.0)
def test_ium_matches_exact_arithmetic_on_the_values_it_is_given(scores, a, b):
    # the affine map packs the scores close together against their magnitude
    for values in (scores, list(a * np.asarray(scores) + b)):
        if max(values) == min(values):
            continue
        assert abs(ium(values).u - float(_exact_u(values))) <= 1e-12


def test_ium_does_not_cancel_or_overflow():
    # max - mean cancelled to u = 0.4999999986474003 here
    assert ium([64.0, 64.0000052531634]).u == 0.5
    assert ium([-1e308, 1e308]).u == 0.5  # the span overflows
    past = ium([1e308, 1e308, 1e308, 0.0])  # the sum and the gaps' sum overflow
    assert (past.u, past.s_mean) == (0.25, 7.5e307)
    assert ium([0.0, 5e-324]).u == 0.5  # half the smallest subnormal


def test_negating_scores_reflects_u():
    scores = [0.1, 0.4, 0.45, 0.9]
    assert ium([-s for s in scores]).u == pytest.approx(1 - ium(scores).u, abs=1e-12)


def test_ium_is_sensitive_to_a_single_outlier():
    base = list(np.arange(11, dtype=float))  # u = 0.5
    outlier = base + [100.0]
    assert abs(ium(outlier).u - ium(base).u) > 0.25


def test_ium_degenerate_inputs():
    with pytest.raises(DegenerateScoresError):
        ium([0.3, 0.3, 0.3])
    with pytest.raises(ValidationError):
        ium([0.3])


def _two_subject_records():
    rows = [
        VerificationRecord("s1", "s1", 0.95, MATCH, (0.0,)),
        VerificationRecord("s1", "x1", 0.2, NONMATCH, (0.0,)),
        VerificationRecord("s1", "x2", 0.5, NONMATCH, (0.0,)),
        VerificationRecord("s1", "x3", 0.8, NONMATCH, (0.0,)),
        VerificationRecord("s2", "y1", 0.4, NONMATCH, (0.0,)),
        VerificationRecord("s2", "y2", 0.6, NONMATCH, (0.0,)),
        VerificationRecord("s3", "z1", 0.7, NONMATCH, (0.0,)),  # too few
        VerificationRecord("s4", "w1", 0.5, NONMATCH, (0.0,)),  # constant
        VerificationRecord("s4", "w2", 0.5, NONMATCH, (0.0,)),
    ]
    return RecordSet(tuple(rows), 1)


def test_ium_by_subject_groups_nonmatch_scores():
    results = ium_by_subject(_two_subject_records())
    assert [r.subject_id for r in results] == ["s1", "s2"]
    assert results[0].u == pytest.approx(0.5)
    assert results[0].n_impostors == 3  # the match score is not counted
    assert results[1].u == pytest.approx(0.5)


def test_ium_correlation_identity_and_reflection():
    results = [
        IumResult(f"s{i}", u, 10, 0.0, 1.0, 1 - u)
        for i, u in enumerate([0.1, 0.4, 0.5, 0.9])
    ]
    mirrored = [
        IumResult(r.subject_id, 1 - r.u, 10, 0.0, 1.0, r.u) for r in results
    ]
    assert ium_correlation(results, results).r == pytest.approx(1.0, abs=1e-12)
    assert ium_correlation(results, mirrored).r == pytest.approx(-1.0, abs=1e-12)


def test_ium_correlation_join_and_exclusion_counting():
    a = [IumResult(f"s{i}", 0.1 * i, 5, 0, 1, 0.5) for i in range(5)]
    b = [IumResult(f"s{i}", 0.1 * i + 0.01, 5, 0, 1, 0.5) for i in range(2, 9)]
    corr = ium_correlation(a, b)
    assert corr.n_joined == 3  # s2, s3, s4
    assert corr.n_excluded == (5 - 3) + (7 - 3)
    assert corr.r == pytest.approx(1.0, abs=1e-12)


def test_ium_correlation_validation():
    a = [IumResult(f"s{i}", 0.1 * i, 5, 0, 1, 0.5) for i in range(3)]
    with pytest.raises(ValidationError):
        ium_correlation(a[:2], a[:2])
    flat = [IumResult(f"s{i}", 0.5, 5, 0, 1, 0.5) for i in range(3)]
    with pytest.raises(DegenerateScoresError):
        ium_correlation(flat, a)


def _session(rng, subject_traits, noise=0.0, noise_field=None):
    results = []
    for i, (mu, shape) in enumerate(subject_traits):
        scores = mu - rng.gamma(shape, 0.2, size=60)
        if noise > 0.0:
            scores = scores + noise * noise_field[i]
        results.append(ium(list(scores), f"s{i:03d}"))
    return results


def test_correlation_decays_as_score_noise_grows():
    rng = np.random.default_rng(9)
    traits = [(rng.uniform(0, 1), rng.uniform(0.5, 8.0)) for _ in range(50)]
    session_a = _session(np.random.default_rng(10), traits)
    field = [np.random.default_rng((12, i)).standard_normal(60) for i in range(50)]
    rs = []
    for level in (0.0, 0.1, 0.3, 1.0):
        session_b = _session(np.random.default_rng(10), traits, level, field)
        rs.append(ium_correlation(session_a, session_b).r)
    assert rs[0] == pytest.approx(1.0, abs=1e-12)  # same seed, no noise
    assert all(a > b for a, b in zip(rs, rs[1:]))


def test_write_ium_csv(tmp_path):
    path = tmp_path / "ium.csv"
    write_ium_csv([IumResult("s1", 0.25, 7, 0.0, 1.0, 0.75)], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "subject_id,u,n_impostors"
    assert lines[1] == "s1,0.25,7"
