"""Beta posteriors over error rates and per-region synthetic sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from veriq.dataio import MATCH, NONMATCH, RecordSet, VerificationRecord
from veriq.errormodel import (
    BetaPosterior,
    OperatingPoint,
    beta_posterior,
    count_outcomes,
    credible_interval,
    qr_training_matrix,
    region_posteriors,
    region_rng,
    sample_qr,
    uniform_prior,
)
from veriq.errors import ValidationError
from veriq.quality import QualityRegion


def _region(region_id=0, mean=(0.0, 0.0), var=(1.0, 1.0), members=()):
    mean = np.asarray(mean, dtype=float)
    return QualityRegion(
        region_id=region_id,
        center=mean.copy(),
        lower=mean - 1,
        upper=mean + 1,
        member_indices=tuple(members),
        mean=mean,
        variances=np.asarray(var, dtype=float),
        sparse=False,
    )


# -------------------------------------------------------------- counting


def test_count_outcomes_hand_examples():
    assert count_outcomes([0.9, 0.8, 0.2], [True, True, True], 0.5) == (1, 3, 0, 0)
    assert count_outcomes([0.1, 0.6], [False, False], 0.5) == (0, 0, 1, 2)


def test_scores_at_the_threshold_count_as_accepts():
    scores = [0.5, 0.5, 0.5]
    assert count_outcomes(scores, [True] * 3, 0.5) == (0, 3, 0, 0)
    assert count_outcomes(scores, [False] * 3, 0.5) == (0, 0, 3, 3)


def test_count_outcomes_accepts_string_labels():
    got = count_outcomes([1.0, 0.0], [MATCH, NONMATCH], 0.5)
    assert got == (0, 1, 0, 1)


def test_count_outcomes_refuses_a_string_that_is_not_a_label():
    # "MATCH" once counted as a nonmatch
    with pytest.raises(ValidationError, match="found 'MATCH'"):
        count_outcomes([1.0, 1.0], [MATCH, "MATCH"], 0.5)
    with pytest.raises(ValidationError, match="found ''"):
        count_outcomes([1.0, 1.0, 1.0], [True, "", "x"], 0.5)
    # values that are not strings still count by their truth
    assert count_outcomes([1.0, 1.0], [np.True_, 0], 0.5) == (0, 1, 1, 1)


def test_count_outcomes_validation():
    with pytest.raises(ValidationError):
        count_outcomes([], [], 0.5)
    with pytest.raises(ValidationError):
        count_outcomes([1.0, 2.0], [True], 0.5)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=30),
    st.lists(st.booleans(), min_size=1, max_size=30),
    st.floats(-10, 10, allow_nan=False),
)
def test_count_outcomes_matches_direct_recount(scores, labels, threshold):
    n = min(len(scores), len(labels))
    scores, labels = scores[:n], labels[:n]
    if n == 0:
        return
    m_fnm, n_match, m_fm, n_nonmatch = count_outcomes(scores, labels, threshold)
    assert n_match + n_nonmatch == n
    assert m_fnm == sum(1 for s, l in zip(scores, labels) if l and s < threshold)
    assert m_fm == sum(1 for s, l in zip(scores, labels) if not l and s >= threshold)


# -------------------------------------------------------------- posteriors


def test_posterior_shapes_under_uniform_prior():
    assert beta_posterior(0, 0, uniform_prior()) == BetaPosterior(1.0, 1.0)
    post = beta_posterior(3, 10, uniform_prior())
    assert post == BetaPosterior(4.0, 8.0)
    assert post.mean == pytest.approx(1 / 3, abs=1e-15)


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 500), st.integers(0, 500))
def test_uniform_posterior_mean_is_the_smoothed_rate(m, extra):
    n = m + extra
    post = beta_posterior(m, n, uniform_prior())
    assert post.mean == pytest.approx((m + 1) / (n + 2), rel=1e-14)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 40), st.integers(0, 40), st.integers(0, 40), st.integers(0, 40))
def test_sequential_updates_equal_one_batch(m1, extra1, m2, extra2):
    n1, n2 = m1 + extra1, m2 + extra2
    stepwise = beta_posterior(m2, n2, beta_posterior(m1, n1, uniform_prior()))
    batch = beta_posterior(m1 + m2, n1 + n2, uniform_prior())
    assert stepwise == batch


def test_posterior_count_validation():
    with pytest.raises(ValidationError):
        beta_posterior(5, 3, uniform_prior())
    with pytest.raises(ValidationError):
        beta_posterior(-1, 3, uniform_prior())
    for a, b in [(0.0, 1.0), (-1.0, 1.0), (float("nan"), 1.0), (1.0, float("nan")),
                 (float("inf"), 1.0), (1.0, float("inf"))]:
        with pytest.raises(ValidationError, match="finite and positive"):
            BetaPosterior(a, b)


def test_posterior_mean_matches_trapezoid_bayes_oracle():
    grid = np.linspace(0.0, 1.0, 10_001)
    for m, n in [(0, 10), (3, 10), (50, 100), (7, 7), (1, 400)]:
        like = grid**m * (1 - grid) ** (n - m)  # uniform prior
        oracle = np.trapezoid(grid * like, grid) / np.trapezoid(like, grid)
        post = beta_posterior(m, n, uniform_prior())
        assert post.mean == pytest.approx(oracle, abs=1e-6)


def test_quantile_inverts_cdf():
    post = BetaPosterior(4.0, 8.0)
    for p in (0.01, 0.25, 0.5, 0.9):
        assert special.betainc(4.0, 8.0, post.quantile(p)) == pytest.approx(p, abs=1e-10)
    with pytest.raises(ValidationError):
        post.quantile(1.5)


# frozen from a 2^22-point trapezoid inversion of the Beta(4, 8) cdf
_BETA_4_8_CI95 = (0.10926344381900399, 0.6097425595670075)


def test_credible_interval_matches_quadrature_oracle():
    lo, hi = credible_interval(BetaPosterior(4.0, 8.0), 0.05)
    assert lo == pytest.approx(_BETA_4_8_CI95[0], abs=1e-9)
    assert hi == pytest.approx(_BETA_4_8_CI95[1], abs=1e-9)


def test_credible_interval_flat_prior_is_the_alpha_band():
    lo, hi = credible_interval(BetaPosterior(1.0, 1.0), 0.05)
    assert lo == pytest.approx(0.025, abs=1e-12)
    assert hi == pytest.approx(0.975, abs=1e-12)


def test_credible_interval_symmetry_and_nesting():
    lo, hi = credible_interval(BetaPosterior(5.0, 5.0), 0.1)
    assert lo + hi == pytest.approx(1.0, abs=1e-9)
    lo2, hi2 = credible_interval(BetaPosterior(5.0, 5.0), 0.01)
    assert lo2 < lo and hi2 > hi
    with pytest.raises(ValidationError):
        credible_interval(BetaPosterior(5.0, 5.0), 0.0)


def test_credible_interval_carries_the_right_mass():
    rng = np.random.default_rng(8)
    for _ in range(20):
        post = BetaPosterior(rng.uniform(0.5, 30), rng.uniform(0.5, 30))
        lo, hi = credible_interval(post, 0.05)
        mass = special.betainc(post.a, post.b, hi) - special.betainc(post.a, post.b, lo)
        assert mass == pytest.approx(0.95, abs=1e-9)


def test_operating_point_rejects_nonfinite():
    with pytest.raises(ValidationError):
        OperatingPoint(float("nan"))
    with pytest.raises(ValidationError):
        OperatingPoint(float("inf"))
    assert OperatingPoint(0.5, "x").label == "x"


# --------------------------------------------------------------- sampling


def test_sample_qr_count_and_bounds():
    samples = sample_qr(_region(), BetaPosterior(2, 8), BetaPosterior(8, 2), 200, seed=1)
    assert len(samples) == 200
    for s in samples:
        assert len(s.quality) == 2
        assert 0.0 <= s.rates[0] <= 1.0
        assert 0.0 <= s.rates[1] <= 1.0


def test_sample_qr_rate_order_is_fmr_then_fnmr():
    # distinguishable posteriors: FMR near 1, FNMR near 0
    near_one = BetaPosterior(1e6, 1.0)
    near_zero = BetaPosterior(1.0, 1e6)
    samples = sample_qr(_region(), fnmr_post=near_zero, fmr_post=near_one, n_rand=50, seed=2)
    rates = np.array([s.rates for s in samples])
    assert np.all(rates[:, 0] > 0.999)
    assert np.all(rates[:, 1] < 0.001)


def test_sample_qr_statistics_match_the_posteriors():
    fnmr_post = BetaPosterior(2.0, 8.0)
    fmr_post = BetaPosterior(5.0, 5.0)
    region = _region(mean=(1.0, -2.0), var=(0.25, 4.0))
    samples = sample_qr(region, fnmr_post, fmr_post, 4000, seed=3)
    rates = np.array([s.rates for s in samples])
    quality = np.array([s.quality for s in samples])
    assert rates[:, 0].mean() == pytest.approx(fmr_post.mean, abs=0.01)
    assert rates[:, 1].mean() == pytest.approx(fnmr_post.mean, abs=0.01)
    assert quality[:, 0].mean() == pytest.approx(1.0, abs=4 * 0.5 / np.sqrt(4000))
    assert quality[:, 1].mean() == pytest.approx(-2.0, abs=4 * 2.0 / np.sqrt(4000))
    assert quality[:, 0].std() == pytest.approx(0.5, rel=0.05)
    assert quality[:, 1].std() == pytest.approx(2.0, rel=0.05)


def test_sample_qr_is_deterministic_and_region_keyed():
    posts = (BetaPosterior(2.0, 8.0), BetaPosterior(3.0, 7.0))
    a = sample_qr(_region(region_id=4), *posts, n_rand=10, seed=9)
    b = sample_qr(_region(region_id=4), *posts, n_rand=10, seed=9)
    assert a == b
    c = sample_qr(_region(region_id=5), *posts, n_rand=10, seed=9)
    assert a != c
    d = sample_qr(_region(region_id=4), *posts, n_rand=10, seed=10)
    assert a != d


def test_region_rng_streams_are_independent_of_visit_order():
    first = region_rng(7, 3).standard_normal(5)
    # drawing from another region's stream in between changes nothing
    region_rng(7, 2).standard_normal(50)
    again = region_rng(7, 3).standard_normal(5)
    np.testing.assert_array_equal(first, again)


def test_sample_qr_validates_n_rand():
    with pytest.raises(ValidationError):
        sample_qr(_region(), uniform_prior(), uniform_prior(), 0, seed=0)


# --------------------------------------------------- region -> posteriors


def _records_for_regions():
    rows = [
        VerificationRecord("a", "a", 0.9, MATCH, (0.1, 0.1)),
        VerificationRecord("b", "b", 0.2, MATCH, (0.1, 0.1)),
        VerificationRecord("a", "b", 0.1, NONMATCH, (0.1, 0.1)),
        VerificationRecord("b", "a", 0.7, NONMATCH, (0.1, 0.1)),
        VerificationRecord("c", "c", 0.8, MATCH, (0.9, 0.9)),
    ]
    return RecordSet(tuple(rows), 2)


def test_region_posteriors_count_member_scores():
    records = _records_for_regions()
    region = _region(members=(0, 1, 2, 3))
    fnmr_post, fmr_post = region_posteriors(records, region, threshold=0.5)
    # matches 0.9, 0.2 -> one below; nonmatches 0.1, 0.7 -> one at/above
    assert fnmr_post == BetaPosterior(2.0, 2.0)
    assert fmr_post == BetaPosterior(2.0, 2.0)


def test_region_posteriors_respect_custom_prior():
    records = _records_for_regions()
    region = _region(members=(0,))
    prior = BetaPosterior(0.5, 2.0)
    fnmr_post, fmr_post = region_posteriors(records, region, 0.5, prior)
    assert fnmr_post == BetaPosterior(0.5, 3.0)  # one match, not an error
    assert fmr_post == prior  # no nonmatch members


def test_region_posteriors_empty_region_returns_prior():
    records = _records_for_regions()
    fnmr_post, fmr_post = region_posteriors(records, _region(members=()), 0.5)
    assert fnmr_post == uniform_prior()
    assert fmr_post == uniform_prior()


def test_qr_training_matrix_shape_and_layout():
    records = _records_for_regions()
    regions = [
        _region(region_id=0, members=(0, 1, 2, 3)),
        _region(region_id=1, mean=(0.9, 0.9), members=(4,)),
        _region(region_id=2, members=()),
    ]
    matrix = qr_training_matrix(records, regions, threshold=0.5, n_rand=7, seed=0)
    assert matrix.shape == (3 * 7, 2 + 2)
    assert np.all(np.isfinite(matrix))
    assert np.all(matrix[:, 2:] >= 0.0) and np.all(matrix[:, 2:] <= 1.0)
    # block i is exactly the standalone region sample
    posts = region_posteriors(records, regions[1], 0.5)
    block = sample_qr(regions[1], posts[0], posts[1], 7, seed=0)
    np.testing.assert_array_equal(
        matrix[7:14, :2], np.array([s.quality for s in block])
    )
    np.testing.assert_array_equal(
        matrix[7:14, 2:], np.array([s.rates for s in block])
    )


def test_qr_training_matrix_region_order_only_permutes_rows():
    records = _records_for_regions()
    regions = [_region(region_id=i, members=(0, 1, 2, 3)) for i in range(3)]
    forward = qr_training_matrix(records, regions, 0.5, 5, seed=1)
    backward = qr_training_matrix(records, regions[::-1], 0.5, 5, seed=1)
    np.testing.assert_array_equal(
        np.sort(forward, axis=0), np.sort(backward, axis=0)
    )
