"""Beta-posterior machinery over verification error rates.

Counting failures at a threshold gives Binomial evidence; with a Beta
prior the error-rate posterior is again Beta. Regions sample synthetic
(quality, error-rate) training points from their fitted quality Gaussian
and the two independent error-rate posteriors. The performance vector
order is [FMR, FNMR] everywhere.

Acceptance boundary: a score >= threshold counts as an accept.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataio import RecordSet, _match_flags
from .errors import ValidationError
from .quality import QualityRegion

UNIFORM_PRIOR_A = 1.0
UNIFORM_PRIOR_B = 1.0


@dataclass(frozen=True)
class OperatingPoint:
    """A fixed decision threshold with a human-readable label."""

    threshold: float
    label: str = ""

    def __post_init__(self):
        if not np.isfinite(self.threshold):
            raise ValidationError("operating threshold must be finite")


@dataclass(frozen=True)
class BetaPosterior:
    """Beta(a, b) distribution over an error rate in [0, 1]."""

    a: float
    b: float

    def __post_init__(self):
        if not (0 < self.a < math.inf and 0 < self.b < math.inf):  # also rejects nan
            raise ValidationError("Beta shapes must be finite and positive")

    @property
    def mean(self) -> float:
        return self.a / (self.a + self.b)

    def quantile(self, p: float) -> float:
        if not 0.0 <= p <= 1.0:
            raise ValidationError("quantile probability must lie in [0, 1]")
        # imported here: scipy.special takes longer to import than numpy, and
        # most commands never reach this line
        from scipy import special

        return float(special.betaincinv(self.a, self.b, p))


@dataclass(frozen=True)
class QrSample:
    """One synthetic training point: quality vector and [FMR, FNMR]."""

    quality: tuple[float, ...]
    rates: tuple[float, float]


def count_outcomes(scores, labels, threshold: float):
    """Failure counts at a threshold.

    Returns (m_fnm, n_match, m_fm, n_nonmatch): match scores below the
    threshold are false non-matches, nonmatch scores at or above it are
    false matches.
    """
    scores = np.asarray(scores, dtype=float)
    if scores.size == 0:
        raise ValidationError("need at least one score")
    is_match = _match_flags(labels)
    if is_match.shape != scores.shape:
        raise ValidationError("scores and labels must align")
    match_scores = scores[is_match]
    nonmatch_scores = scores[~is_match]
    m_fnm = int(np.sum(match_scores < threshold))
    m_fm = int(np.sum(nonmatch_scores >= threshold))
    return m_fnm, match_scores.size, m_fm, nonmatch_scores.size


def beta_posterior(m: int, n: int, prior: BetaPosterior) -> BetaPosterior:
    """Posterior after observing m failures in n trials."""
    if m < 0 or n < 0 or m > n:
        raise ValidationError(f"invalid counts m={m}, n={n}")
    return BetaPosterior(m + prior.a, (n - m) + prior.b)


def uniform_prior() -> BetaPosterior:
    return BetaPosterior(UNIFORM_PRIOR_A, UNIFORM_PRIOR_B)


def credible_interval(posterior: BetaPosterior, alpha: float) -> tuple[float, float]:
    """Equal-tailed interval containing mass 1 - alpha."""
    if not 0.0 < alpha < 1.0:
        raise ValidationError("alpha must lie strictly between 0 and 1")
    return posterior.quantile(alpha / 2.0), posterior.quantile(1.0 - alpha / 2.0)


def _beta_draw(rng: np.random.Generator, post: BetaPosterior) -> float:
    # ratio of two Gamma draws; degenerate underflow falls back to the mean
    x = rng.gamma(post.a)
    y = rng.gamma(post.b)
    total = x + y
    if total == 0.0:
        return post.mean
    return float(x / total)


def region_rng(seed: int, region_id: int) -> np.random.Generator:
    """Independent stream per (seed, region); parallel order never matters."""
    return np.random.default_rng([int(seed), int(region_id)])


def sample_qr(
    region: QualityRegion,
    fnmr_post: BetaPosterior,
    fmr_post: BetaPosterior,
    n_rand: int,
    seed: int,
) -> list[QrSample]:
    """Draw n_rand synthetic (quality, [FMR, FNMR]) points for one region."""
    if n_rand < 1:
        raise ValidationError("n_rand must be >= 1")
    rng = region_rng(seed, region.region_id)
    std = np.sqrt(region.variances)
    samples = []
    for _ in range(n_rand):
        quality = region.mean + std * rng.standard_normal(region.mean.shape[0])
        fmr = _beta_draw(rng, fmr_post)
        fnmr = _beta_draw(rng, fnmr_post)
        samples.append(QrSample(tuple(float(v) for v in quality), (fmr, fnmr)))
    return samples


def region_posteriors(
    records: RecordSet,
    region: QualityRegion,
    threshold: float,
    prior: BetaPosterior | None = None,
) -> tuple[BetaPosterior, BetaPosterior]:
    """(FNMR posterior, FMR posterior) from a region's member scores."""
    prior = prior or uniform_prior()
    scores = records.scores()[list(region.member_indices)]
    labels = records.is_match()[list(region.member_indices)]
    if scores.size == 0:
        return prior, prior
    m_fnm, n_match, m_fm, n_nonmatch = count_outcomes(scores, labels, threshold)
    return (
        beta_posterior(m_fnm, n_match, prior),
        beta_posterior(m_fm, n_nonmatch, prior),
    )


def qr_training_matrix(
    records: RecordSet,
    regions,
    threshold: float,
    n_rand: int,
    seed: int,
    prior: BetaPosterior | None = None,
) -> np.ndarray:
    """Stack per-region samples into an (n_regions * n_rand, d + 2) matrix.

    Columns are the quality axes followed by [FMR, FNMR].
    """
    rows = []
    for region in regions:
        fnmr_post, fmr_post = region_posteriors(records, region, threshold, prior)
        for sample in sample_qr(region, fnmr_post, fmr_post, n_rand, seed):
            rows.append(list(sample.quality) + [sample.rates[0], sample.rates[1]])
    return np.array(rows, dtype=float)
