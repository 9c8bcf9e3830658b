"""Eye-landmark geometry: normalization transforms, error measures, and
perturbation generators for simulating detector error.

Coordinates are raster pixels: origin top-left, y grows downward. The
canonical normalized frame is 64x80 with eye centers at (15,16) and
(48,16). A transform maps original-space points onto that frame;
``scale`` stores the ratio of source to target inter-ocular distance, so
mapped distances shrink by 1/scale.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .dataio import write_csv
from .errors import NumericError, ValidationError
from .metrics import _cells_hter_auc, select_hter_threshold

CANONICAL_LEFT = (15.0, 16.0)
CANONICAL_RIGHT = (48.0, 16.0)
CANONICAL_FRAME = (64, 80)

THETA_GRID_DEG = (-20, -15, -10, -5, 0, 5, 10, 15, 20)
TRANSLATION_GRID_PX = (-9, -7, -5, -3, -1, 0, 1, 3, 5, 7, 9)

RANDOM_RETRY_BUDGET = 1000

ORIGINAL = "original"
NORMALIZED = "normalized"


class DegenerateGeometryError(NumericError):
    """Eye pair with zero inter-ocular distance."""


@dataclass(frozen=True)
class EyePair:
    """Left and right eye centers, tagged with their coordinate space."""

    left: tuple[float, float]
    right: tuple[float, float]
    space: str = ORIGINAL

    def __post_init__(self):
        if self.space not in (ORIGINAL, NORMALIZED):
            raise ValidationError(f"unknown coordinate space {self.space!r}")

    @property
    def left_arr(self) -> np.ndarray:
        return np.asarray(self.left, dtype=float)

    @property
    def right_arr(self) -> np.ndarray:
        return np.asarray(self.right, dtype=float)

    @property
    def midpoint(self) -> np.ndarray:
        return (self.left_arr + self.right_arr) / 2.0

    def interocular(self) -> float:
        return float(np.linalg.norm(self.right_arr - self.left_arr))


def canonical_eyes() -> EyePair:
    return EyePair(CANONICAL_LEFT, CANONICAL_RIGHT, NORMALIZED)


def _rotation(angle: float) -> np.ndarray:
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])


@dataclass(frozen=True)
class NormalizationTransform:
    """Similarity map taking the defining source eyes onto the target eyes.

    Maps p to (1/scale) * R(-angle) @ (p - source_center) + target_center.
    """

    scale: float
    angle: float
    source_center: np.ndarray
    target_center: np.ndarray
    target_left: np.ndarray
    target_right: np.ndarray
    frame: tuple[int, int]


def build_transform(
    source: EyePair, target: EyePair | None = None, frame=CANONICAL_FRAME
) -> NormalizationTransform:
    """Construct the normalization transform from a source eye pair.

    scale is the source/target inter-ocular ratio; the rotation angle is
    the source eye-axis angle minus the target eye-axis angle (atan2 of
    the right-minus-left vector, quadrant safe).
    """
    target = target or canonical_eyes()
    src_vec = source.right_arr - source.left_arr
    tgt_vec = target.right_arr - target.left_arr
    src_len = float(np.linalg.norm(src_vec))
    tgt_len = float(np.linalg.norm(tgt_vec))
    if src_len == 0.0 or tgt_len == 0.0:
        raise DegenerateGeometryError("coincident eyes give no inter-ocular axis")
    angle = math.atan2(src_vec[1], src_vec[0]) - math.atan2(tgt_vec[1], tgt_vec[0])
    return NormalizationTransform(
        scale=src_len / tgt_len,
        angle=angle,
        source_center=(source.left_arr + source.right_arr) / 2.0,
        target_center=(target.left_arr + target.right_arr) / 2.0,
        target_left=target.left_arr,
        target_right=target.right_arr,
        frame=tuple(frame),
    )


def map_point(transform: NormalizationTransform, point) -> np.ndarray:
    """Apply the normalization map to one point."""
    p = np.asarray(point, dtype=float)
    rotated = _rotation(-transform.angle) @ (p - transform.source_center)
    return rotated / transform.scale + transform.target_center


def map_eyes(transform: NormalizationTransform, pair: EyePair) -> EyePair:
    left = map_point(transform, pair.left_arr)
    right = map_point(transform, pair.right_arr)
    return EyePair(tuple(left), tuple(right), NORMALIZED)


def jesorsky(manual: EyePair, detected: EyePair) -> float:
    """Worst per-eye distance over the manual inter-ocular distance."""
    denom = manual.interocular()
    if denom == 0.0:
        raise DegenerateGeometryError("manual eyes coincide")
    err_left = float(np.linalg.norm(manual.left_arr - detected.left_arr))
    err_right = float(np.linalg.norm(manual.right_arr - detected.right_arr))
    return max(err_left, err_right) / denom


def perturb_fixed(pair: EyePair, theta_deg: float, t_x: float, t_y: float) -> EyePair:
    """Rotate both eyes about their midpoint, then translate.

    Inter-ocular distance is preserved exactly; this operator cannot
    express scale error.
    """
    rot = _rotation(math.radians(theta_deg))
    center = pair.midpoint
    shift = np.array([t_x, t_y], dtype=float)
    left = rot @ (pair.left_arr - center) + center + shift
    right = rot @ (pair.right_arr - center) + center + shift
    return EyePair(tuple(left), tuple(right), pair.space)


def perturb_random(
    pair: EyePair,
    sigma_x: float,
    sigma_y: float,
    frame=CANONICAL_FRAME,
    seed: int = 0,
    retry_budget: int = RANDOM_RETRY_BUDGET,
) -> EyePair:
    """Add per-eye, per-axis Gaussian offsets, resampling any draw that
    lands outside the frame. Deterministic per seed."""
    if sigma_x < 0 or sigma_y < 0:
        raise ValidationError("sigma must be >= 0")
    width, height = frame
    rng = np.random.default_rng(seed)

    def draw(eye: np.ndarray) -> np.ndarray:
        for _ in range(retry_budget):
            candidate = eye + np.array(
                [rng.normal(0.0, sigma_x), rng.normal(0.0, sigma_y)]
            )
            if 0.0 <= candidate[0] < width and 0.0 <= candidate[1] < height:
                return candidate
        raise NumericError(
            f"no in-frame sample after {retry_budget} tries (sigma=({sigma_x},{sigma_y}))"
        )

    left = draw(pair.left_arr)
    right = draw(pair.right_arr)
    return EyePair(tuple(left), tuple(right), pair.space)


@dataclass(frozen=True)
class SweepCell:
    """One grid cell of a perturbation sweep."""

    params: tuple
    hter: float
    auc: float


def default_fixed_grid():
    """The rotation/translation grid: 9 angles x 11 x 11 translations."""
    return [
        (theta, tx, ty)
        for theta, tx, ty in itertools.product(
            THETA_GRID_DEG, TRANSLATION_GRID_PX, TRANSLATION_GRID_PX
        )
    ]


def sweep_grid(score_tables: dict, grid) -> tuple[list[SweepCell], list[tuple]]:
    """HTER and AUC per perturbation cell from precomputed score tables.

    score_tables maps a parameter tuple to (match_scores, nonmatch_scores).
    The decision threshold is selected once, on the baseline (all-zero)
    cell, then applied to every cell. Cells without a score table are
    skipped and reported in the second return value.
    """
    grid = [tuple(cell) for cell in grid]
    if not grid:
        raise ValidationError("empty sweep grid")
    baseline_key = tuple(0 for _ in grid[0])
    if baseline_key not in score_tables:
        raise ValidationError(f"baseline cell {baseline_key} has no score table")
    base_match, base_nonmatch = score_tables[baseline_key]
    threshold = select_hter_threshold(base_match, base_nonmatch)
    present = [cell for cell in grid if cell in score_tables]
    skipped = [cell for cell in grid if cell not in score_tables]
    hters, aucs = _cells_hter_auc([score_tables[cell] for cell in present], threshold)
    return list(map(SweepCell, present, hters, aucs)), skipped


def write_sweep_csv(cells, sink, param_names=("theta", "tx", "ty")) -> None:
    params = [[cell.params[i] for cell in cells] for i in range(len(param_names))]
    write_csv(sink, list(param_names) + ["hter", "auc"],
              params + [[cell.hter for cell in cells], [cell.auc for cell in cells]])
