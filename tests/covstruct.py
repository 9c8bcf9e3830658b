"""Structural checks for the ten covariance families, shared across tests.

family_violation is the library's: the worst absolute deviation of a
covariance stack from its family's structure; 0 means the constraint holds
exactly.
"""

import numpy as np

from veriq.mixture import family_violation

__all__ = ["assert_spd", "family_violation"]


def assert_spd(covs) -> None:
    for cov in np.asarray(covs, dtype=float):
        np.linalg.cholesky(cov)
