"""Quality-space partitioning and measurement calibration.

Regions are axis-aligned overlapping cells centered on interior quantile
points; each region carries member record indices and a diagonal Gaussian
fitted over its member quality vectors. A clustered mode builds one region
per distinct quality vector instead, for data that arrives in discrete
quality cells. Calibration maps biased (q1, q2) measurements plus known
capture angles onto an unbiased quality space by least squares.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .dataio import RecordSet, write_csv
from .errors import NumericError, ValidationError

VARIANCE_FLOOR = 1e-6
MIN_MEMBERS = 8

ANGLE_SCALE_1 = 1.0 / 10.0
ANGLE_SCALE_2 = 1.0 / 18.0


class DegenerateAxisError(NumericError):
    """A quality axis is constant; quantile partitioning is impossible."""


class InsufficientDataError(NumericError):
    """Too few samples for the requested fit."""


class SingularDesignError(NumericError):
    """Calibration design matrix is rank deficient."""


@dataclass(frozen=True)
class QuantileGrid:
    """Per-axis quantile points at evenly spaced probabilities."""

    points: tuple[np.ndarray, ...]

    @property
    def dim(self) -> int:
        return len(self.points)

    @property
    def n_qs(self) -> int:
        return len(self.points[0])


@dataclass(frozen=True)
class QualityRegion:
    """Overlapping cell: bounds are the quantile points adjacent to center."""

    region_id: int
    center: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    member_indices: tuple[int, ...]
    mean: np.ndarray
    variances: np.ndarray
    sparse: bool

    @property
    def n_members(self) -> int:
        return len(self.member_indices)


def _quality_values(records) -> np.ndarray:
    if isinstance(records, RecordSet):
        return records.quality_matrix()
    return np.asarray(records, dtype=float)


def quantile_grid(records, n_qs: int) -> QuantileGrid:
    """Empirical per-axis quantiles at probabilities k/(n_qs-1), k=0..n_qs-1.

    Uses linear interpolation between order statistics. Raises
    DegenerateAxisError when an axis is constant.
    """
    if n_qs < 3:
        raise ValidationError("n_qs must be >= 3")
    values = _quality_values(records)
    if values.ndim != 2 or values.shape[0] < 2:
        raise InsufficientDataError("need at least 2 quality vectors")
    probs = np.arange(n_qs, dtype=float) / (n_qs - 1)
    axes = []
    for axis in range(values.shape[1]):
        column = values[:, axis]
        if np.min(column) == np.max(column):
            raise DegenerateAxisError(f"quality axis {axis} is constant")
        axes.append(np.quantile(column, probs, method="linear"))
    return QuantileGrid(tuple(axes))


def fit_region_gaussian(samples) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis mean and maximum-likelihood variance, floored at
    VARIANCE_FLOOR so degenerate regions stay usable for sampling."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 2 or samples.shape[0] < 2:
        raise InsufficientDataError("region Gaussian fit needs >= 2 samples")
    mean = samples.mean(axis=0)
    variances = np.maximum(samples.var(axis=0, ddof=0), VARIANCE_FLOOR)
    return mean, variances


def _region(region_id, center, lower, upper, values, members, min_members) -> QualityRegion:
    """The region over the rows ``members`` of values: their Gaussian, or
    the center with floor variances below 2 members; sparse below
    min_members."""
    if members.size >= 2:
        mean, variances = fit_region_gaussian(values[members])
    else:
        mean, variances = center.copy(), np.full(center.shape[0], VARIANCE_FLOOR)
    return QualityRegion(region_id, center, lower, upper, tuple(members.tolist()),
                         mean, variances, sparse=members.size < min_members)


def build_regions(
    grid: QuantileGrid,
    records,
    min_members: int = MIN_MEMBERS,
) -> list[QualityRegion]:
    """One region per interior quantile point; bounds are the adjacent
    quantile points per axis, so neighboring regions overlap by half.

    Regions with fewer than min_members members are flagged sparse, not
    dropped. A region with fewer than 2 members falls back to its center
    with floor variances.
    """
    values = _quality_values(records)
    if values.shape[1] != grid.dim:
        raise ValidationError("record quality dimension does not match grid")
    interior = range(1, grid.n_qs - 1)
    # each axis's closed interval masks, one per interior point, ANDed per
    # region: the same inclusive comparisons as on the whole (N, d) matrix
    masks = [
        [(column >= points[i - 1]) & (column <= points[i + 1]) for i in interior]
        for column, points in zip(values.T, grid.points)
    ]
    regions = []
    for region_id, combo in enumerate(itertools.product(interior, repeat=grid.dim)):
        center = np.array([grid.points[ax][i] for ax, i in enumerate(combo)])
        lower = np.array([grid.points[ax][i - 1] for ax, i in enumerate(combo)])
        upper = np.array([grid.points[ax][i + 1] for ax, i in enumerate(combo)])
        inside = functools.reduce(
            np.logical_and, (masks[ax][i - 1] for ax, i in enumerate(combo))
        )
        regions.append(_region(region_id, center, lower, upper, values,
                               np.flatnonzero(inside), min_members))
    return regions


def cluster_regions(records, min_members: int = MIN_MEMBERS) -> list[QualityRegion]:
    """One region per distinct quality vector, for discrete quality cells.

    Region bounds collapse to the cell's anchor; the Gaussian is fitted
    from the members (floor variances when members coincide).
    """
    values = _quality_values(records)
    if values.ndim != 2 or values.shape[0] == 0:
        raise InsufficientDataError("no quality vectors to cluster")
    anchors, inverse = np.unique(values, axis=0, return_inverse=True)
    return [
        _region(region_id, anchor.copy(), anchor.copy(), anchor.copy(), values,
                np.flatnonzero(inverse == region_id), min_members)
        for region_id, anchor in enumerate(anchors)
    ]


def write_regions_csv(regions, sink) -> None:
    """Export one row per (region, axis): bounds, center, member count."""
    rows = []
    for region in regions:
        for axis in range(len(region.center)):
            rows.append(
                (
                    region.region_id,
                    axis,
                    float(region.lower[axis]),
                    float(region.center[axis]),
                    float(region.upper[axis]),
                    region.n_members,
                )
            )
    write_csv(sink, ["region_id", "axis", "lower", "center", "upper", "n_members"], rows)


@dataclass(frozen=True)
class IqaCalibration:
    """Least-squares map from measured (q1, q2, angle1, angle2) rows to an
    unbiased quality space.

    Targets are built as qhat1 = angle1/10 + (q1 - cell mean of q1) and
    qhat2 = angle2/18 + (q2 - cell mean of q2), where a cell is one
    distinct (angle1, angle2) combination; the 4x2 solution minimizes
    ||A x - B||.
    """

    design: np.ndarray
    targets: np.ndarray
    solution: np.ndarray
    cell_means: dict

    def residual_orthogonality(self) -> float:
        return float(
            np.max(np.abs(self.design.T @ (self.design @ self.solution - self.targets)))
        )


def _calibration_targets(rows: np.ndarray):
    cells = {}
    for q1, q2, g1, g2 in rows:
        cells.setdefault((g1, g2), []).append((q1, q2))
    cell_means = {
        key: (float(np.mean([p[0] for p in pts])), float(np.mean([p[1] for p in pts])))
        for key, pts in cells.items()
    }
    targets = np.empty((rows.shape[0], 2))
    for i, (q1, q2, g1, g2) in enumerate(rows):
        mu1, mu2 = cell_means[(g1, g2)]
        targets[i, 0] = ANGLE_SCALE_1 * g1 + (q1 - mu1)
        targets[i, 1] = ANGLE_SCALE_2 * g2 + (q2 - mu2)
    return targets, cell_means


def fit_iqa_calibration(rows) -> IqaCalibration:
    """Fit the 4x2 calibration by normal equations.

    rows: iterable of (q1, q2, angle1, angle2), angles in degrees. Needs
    rank-4 design spanning at least two distinct angle cells.
    """
    design = np.asarray(list(rows), dtype=float)
    if design.ndim != 2 or design.shape[1] != 4:
        raise ValidationError("calibration rows must be (q1, q2, angle1, angle2)")
    if design.shape[0] < 4:
        raise InsufficientDataError("calibration needs at least 4 rows")
    cells = {tuple(r[2:]) for r in design}
    if len(cells) < 2:
        raise SingularDesignError("calibration needs >= 2 distinct angle cells")
    if np.linalg.matrix_rank(design) < 4:
        raise SingularDesignError("calibration design matrix is rank deficient")
    targets, cell_means = _calibration_targets(design)
    gram = design.T @ design
    solution = np.linalg.solve(gram, design.T @ targets)
    return IqaCalibration(design, targets, solution, cell_means)


def apply_iqa_calibration(calibration: IqaCalibration, row) -> np.ndarray:
    """Map one (q1, q2, angle1, angle2) row through the fitted solution."""
    row = np.asarray(row, dtype=float)
    if row.shape != (4,):
        raise ValidationError("calibration input must be a length-4 row")
    return row @ calibration.solution
