"""Eye-based similarity normalization, landmark errors, perturbation sweeps."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from veriq import metrics

from veriq.alignment import (
    CANONICAL_FRAME,
    CANONICAL_LEFT,
    CANONICAL_RIGHT,
    THETA_GRID_DEG,
    TRANSLATION_GRID_PX,
    DegenerateGeometryError,
    EyePair,
    SweepCell,
    build_transform,
    default_fixed_grid,
    jesorsky,
    map_eyes,
    map_point,
    perturb_fixed,
    perturb_random,
    sweep_grid,
    write_sweep_csv,
)
from veriq.errors import NumericError, ValidationError
from veriq.metrics import auc, hter

from .test_metrics import _reference_roc, _reference_select_hter_threshold

_HORIZONTAL = EyePair((100.0, 200.0), (170.0, 200.0))


def _rand_pair(rng, span=200.0):
    pts = rng.uniform(0, span, size=4)
    return EyePair((pts[0], pts[1]), (pts[2], pts[3]))


# ------------------------------------------------------------- transforms


def test_canonical_transform_constants():
    tf = build_transform(EyePair((0.0, 0.0), (70.0, 0.0)))
    assert tf.scale == 70.0 / 33.0
    assert tf.angle == 0.0
    np.testing.assert_allclose(map_point(tf, (0.0, 0.0)), CANONICAL_LEFT, atol=1e-12)
    np.testing.assert_allclose(map_point(tf, (70.0, 0.0)), CANONICAL_RIGHT, atol=1e-12)
    assert tf.frame == CANONICAL_FRAME


def test_mapped_distances_shrink_by_33_over_70():
    tf = build_transform(EyePair((0.0, 0.0), (70.0, 0.0)))
    rng = np.random.default_rng(0)
    for _ in range(20):
        a, b = rng.uniform(-50, 120, size=(2, 2))
        ratio = np.linalg.norm(map_point(tf, a) - map_point(tf, b)) / np.linalg.norm(
            a - b
        )
        assert ratio == pytest.approx(33.0 / 70.0, abs=1e-12)


def test_source_equal_to_target_gives_the_identity():
    tf = build_transform(EyePair(CANONICAL_LEFT, CANONICAL_RIGHT))
    assert tf.scale == 1.0
    assert tf.angle == 0.0
    for p in ((0.0, 0.0), (10.0, -3.0), (64.0, 80.0)):
        np.testing.assert_allclose(map_point(tf, p), p, atol=1e-12)


def test_transform_maps_eyes_onto_target_for_random_geometry():
    rng = np.random.default_rng(1)
    for _ in range(25):
        source = _rand_pair(rng)
        if source.interocular() < 1e-6:
            continue
        tf = build_transform(source)
        mapped = map_eyes(tf, source)
        np.testing.assert_allclose(mapped.left_arr, CANONICAL_LEFT, atol=1e-9)
        np.testing.assert_allclose(mapped.right_arr, CANONICAL_RIGHT, atol=1e-9)
        assert mapped.space == "normalized"


def test_rotating_the_source_changes_only_the_angle():
    for beta in np.linspace(-3.0, 3.0, 13):
        c, s = math.cos(beta), math.sin(beta)
        right = (70.0 * c, 70.0 * s)
        tf = build_transform(EyePair((0.0, 0.0), right))
        assert tf.angle == pytest.approx(beta, abs=1e-12)
        assert tf.scale == pytest.approx(70.0 / 33.0, rel=1e-12)


def test_midpoint_maps_to_target_center():
    source = EyePair((10.0, 20.0), (50.0, 60.0))
    tf = build_transform(source)
    np.testing.assert_allclose(
        map_point(tf, source.midpoint), tf.target_center, atol=1e-12
    )


def test_degenerate_eyes_are_rejected():
    with pytest.raises(DegenerateGeometryError):
        build_transform(EyePair((5.0, 5.0), (5.0, 5.0)))


def test_eye_pair_space_tag_is_validated():
    with pytest.raises(ValidationError):
        EyePair((0.0, 0.0), (1.0, 0.0), space="weird")


# ------------------------------------------------------------ error scores


def test_jesorsky_zero_for_perfect_detection():
    assert jesorsky(_HORIZONTAL, _HORIZONTAL) == 0.0


def test_jesorsky_hand_values():
    detected = EyePair((107.0, 200.0), (170.0, 200.0))  # left off by 7 px / 70
    assert jesorsky(_HORIZONTAL, detected) == pytest.approx(0.1, abs=1e-15)
    detected = EyePair((103.0, 204.0), (170.0, 200.0))  # left off by (3,4)
    assert jesorsky(_HORIZONTAL, detected) == pytest.approx(5.0 / 70.0, abs=1e-15)


def test_jesorsky_takes_the_worse_eye():
    detected = EyePair((102.0, 200.0), (176.0, 200.0))
    assert jesorsky(_HORIZONTAL, detected) == pytest.approx(6.0 / 70.0, abs=1e-15)


def test_jesorsky_similarity_invariance():
    rng = np.random.default_rng(3)
    manual = _HORIZONTAL
    detected = EyePair((104.0, 197.0), (168.0, 206.0))
    base = jesorsky(manual, detected)
    for _ in range(20):
        angle = rng.uniform(-math.pi, math.pi)
        scale = rng.uniform(0.2, 5.0)
        shift = rng.uniform(-500, 500, size=2)
        rot = scale * np.array(
            [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
        )

        def move(pt):
            return tuple(rot @ np.asarray(pt) + shift)

        manual_t = EyePair(move(manual.left), move(manual.right))
        detected_t = EyePair(move(detected.left), move(detected.right))
        assert jesorsky(manual_t, detected_t) == pytest.approx(base, abs=1e-12)


def test_jesorsky_rejects_coincident_manual_eyes():
    with pytest.raises(DegenerateGeometryError):
        jesorsky(EyePair((1.0, 1.0), (1.0, 1.0)), _HORIZONTAL)


# ------------------------------------------------------------ perturbation


def test_perturb_fixed_identity():
    out = perturb_fixed(_HORIZONTAL, 0.0, 0.0, 0.0)
    np.testing.assert_allclose(out.left_arr, _HORIZONTAL.left_arr, atol=0)
    np.testing.assert_allclose(out.right_arr, _HORIZONTAL.right_arr, atol=0)


def test_perturb_fixed_translation_moves_the_midpoint():
    out = perturb_fixed(_HORIZONTAL, 25.0, 3.0, -2.0)
    np.testing.assert_allclose(
        out.midpoint, _HORIZONTAL.midpoint + [3.0, -2.0], atol=1e-12
    )


def test_perturb_fixed_half_turn_swaps_the_eyes():
    out = perturb_fixed(_HORIZONTAL, 180.0, 0.0, 0.0)
    np.testing.assert_allclose(out.left_arr, _HORIZONTAL.right_arr, atol=1e-12)
    np.testing.assert_allclose(out.right_arr, _HORIZONTAL.left_arr, atol=1e-12)


def test_perturb_fixed_preserves_interocular_distance():
    rng = np.random.default_rng(4)
    for _ in range(50):
        pair = _rand_pair(rng)
        if pair.interocular() < 1e-9:
            continue
        theta = rng.uniform(-180, 180)
        tx, ty = rng.uniform(-20, 20, size=2)
        out = perturb_fixed(pair, theta, tx, ty)
        assert out.interocular() == pytest.approx(pair.interocular(), abs=1e-12)


def test_grid_constants():
    assert len(THETA_GRID_DEG) == 9
    assert THETA_GRID_DEG[0] == -20 and THETA_GRID_DEG[-1] == 20
    assert len(TRANSLATION_GRID_PX) == 11
    grid = default_fixed_grid()
    assert len(grid) == 9 * 11 * 11
    assert (0, 0, 0) in grid


def test_perturb_random_zero_sigma_is_identity():
    pair = EyePair((32.0, 40.0), (40.0, 40.0))
    out = perturb_random(pair, 0.0, 0.0, seed=5)
    np.testing.assert_allclose(out.left_arr, pair.left_arr, atol=0)
    np.testing.assert_allclose(out.right_arr, pair.right_arr, atol=0)


def test_perturb_random_is_deterministic_per_seed():
    pair = EyePair((32.0, 40.0), (40.0, 40.0))
    a = perturb_random(pair, 1.0, 2.0, seed=6)
    b = perturb_random(pair, 1.0, 2.0, seed=6)
    assert a == b
    c = perturb_random(pair, 1.0, 2.0, seed=7)
    assert a != c


def test_perturb_random_statistics_and_containment():
    pair = EyePair((32.0, 40.0), (33.0, 41.0))
    lefts = np.array(
        [perturb_random(pair, 1.0, 2.0, seed=s).left for s in range(4000)]
    )
    offsets = lefts - pair.left_arr
    assert offsets[:, 0].std() == pytest.approx(1.0, rel=0.08)
    assert offsets[:, 1].std() == pytest.approx(2.0, rel=0.08)
    assert abs(offsets[:, 0].mean()) < 4 * 1.0 / math.sqrt(4000)
    wide = np.array(
        [
            perturb_random(pair, 30.0, 30.0, seed=s).left
            + perturb_random(pair, 30.0, 30.0, seed=s).right
            for s in range(200)
        ]
    )
    assert np.all(wide >= 0.0)
    assert np.all(wide[:, 0] < 64.0) and np.all(wide[:, 1] < 80.0)


def test_perturb_random_budget_exhaustion():
    pair = EyePair((32.0, 40.0), (40.0, 40.0))
    with pytest.raises(NumericError):
        perturb_random(pair, 1.0, 1.0, seed=0, retry_budget=0)
    with pytest.raises(ValidationError):
        perturb_random(pair, -1.0, 1.0, seed=0)


# ----------------------------------------------------------------- sweeps


def _mini_tables():
    rng = np.random.default_rng(8)
    clean_match = rng.normal(4.0, 0.5, 300)
    clean_nonmatch = rng.normal(0.0, 0.5, 300)
    shifted_match = clean_match - 3.0  # degraded alignment drags scores down
    return {
        (0, 0, 0): (clean_match, clean_nonmatch),
        (5, 1, 0): (shifted_match, clean_nonmatch),
    }


def test_sweep_grid_uses_the_baseline_threshold_everywhere():
    tables = _mini_tables()
    grid = [(0, 0, 0), (5, 1, 0), (10, 0, 0)]
    cells, skipped = sweep_grid(tables, grid)
    assert skipped == [(10, 0, 0)]
    by_params = {cell.params: cell for cell in cells}
    assert by_params[(0, 0, 0)].hter == 0.0
    assert by_params[(0, 0, 0)].auc == 1.0
    # the shifted match scores fall below the frozen baseline threshold, so
    # HTER collapses even though the threshold-free AUC stays high
    degraded = by_params[(5, 1, 0)]
    assert degraded.hter > 0.3
    assert 0.85 < degraded.auc < 1.0


def test_sweep_grid_requires_the_baseline_cell():
    tables = _mini_tables()
    del tables[(0, 0, 0)]
    with pytest.raises(ValidationError):
        sweep_grid(tables, [(5, 1, 0)])
    with pytest.raises(ValidationError):
        sweep_grid(_mini_tables(), [])
    # the baseline is the all-zero cell of the grid's own width
    scores = (np.array([2.0, 3.0]), np.array([0.0, 1.0]))
    with pytest.raises(ValidationError, match=r"baseline cell \(0, 0\)"):
        sweep_grid({(1, 1): scores}, [(1, 1)])
    cells, skipped = sweep_grid({(0.0, 0.0): scores, (1, 1): scores}, [(1, 1), (0, 0)])
    assert len(cells) == 2 and not skipped


def test_write_sweep_csv(tmp_path):
    cells, _ = sweep_grid(_mini_tables(), [(0, 0, 0), (5, 1, 0)])
    path = tmp_path / "sweep.csv"
    write_sweep_csv(cells, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "theta,tx,ty,hter,auc"
    assert len(lines) == 3


def _per_cell_sweep(score_tables, grid):
    """sweep_grid as one per-threshold ROC, AUC and HTER per cell: the reference."""
    grid = [tuple(cell) for cell in grid]
    match, nonmatch = score_tables[tuple(0 for _ in grid[0])]
    threshold = _reference_select_hter_threshold(match, nonmatch)
    cells = [
        SweepCell(cell, hter(m, n, threshold), auc(_reference_roc(m, n)))
        for cell in grid if cell in score_tables
        for m, n in [score_tables[cell]]
    ]
    return cells, [cell for cell in grid if cell not in score_tables]


# ties within and across classes, signed zeros, subnormals, and scores
# whose sum overflows (the midpoint is taken as a/2 + b/2)
_SWEEP_SCORES = st.sampled_from(
    [0.0, -0.0, 5e-324, 1e-323, 1.5e-323, -5e-324, 2.2250738585072014e-308,
     1e308, -1e308, 1.7976931348623157e308, 0.5, 1.0, 2.0, -1.0, 3.25]
) | st.floats(-10, 10, allow_nan=False)


@st.composite
def _sweep_tables(draw):
    """Score tables over cells (0..3, 0..3), the baseline among them, and a
    grid that may list cells without a table; now and then a class is empty."""
    keys = draw(st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=12))
    keys = sorted(keys | {(0, 0)})
    classes = st.lists(_SWEEP_SCORES, min_size=1, max_size=6)
    if draw(st.integers(0, 9)) == 0:
        classes = st.lists(_SWEEP_SCORES, max_size=6)
    tables = {key: (np.array(draw(classes)), np.array(draw(classes))) for key in keys}
    extra = draw(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=4))
    grid = draw(st.permutations(keys + extra))
    return tables, grid


def _outcome(sweep, tables, grid):
    try:
        cells, skipped = sweep(tables, grid)
    except ValidationError as exc:
        return type(exc), str(exc)
    # bit for bit: hex keeps -0.0 apart from 0.0
    return [(c.params, c.hter.hex(), c.auc.hex()) for c in cells], skipped


@settings(max_examples=150, deadline=None)
@given(_sweep_tables(), st.integers(1, 5))
@example(({(0, 0): (np.array([1e308, -1e308]), np.array([1.7976931348623157e308])),
           (1, 0): (np.array([5e-324, 0.0]), np.array([-0.0, 1e-323, 5e-324]))},
          [(1, 0), (0, 0), (2, 2)]), 1)
@example(({(0, 0): (np.array([1.0]), np.array([0.0])),
           (1, 1): (np.array([2.0]), np.array([]))}, [(0, 0), (1, 1)]), 2)
def test_sweep_grid_equals_one_roc_per_cell(case, block):
    tables, grid = case
    expected = _outcome(_per_cell_sweep, tables, grid)
    with mock.patch.object(metrics, "SWEEP_BLOCK_CELLS", block):
        assert _outcome(sweep_grid, tables, grid) == expected


def test_sweep_grid_reports_the_first_empty_class_as_roc_does():
    scores = np.array([1.0, 2.0])
    empty = np.array([])
    tables = {(0,): (scores, scores), (1,): (scores, empty), (2,): (empty, scores),
              (3,): (empty, empty)}
    with pytest.raises(metrics.EmptyClassError, match="^nonmatch score set is empty$"):
        sweep_grid(tables, [(0,), (1,), (2,)])
    for grid in ([(0,), (2,), (1,)], [(0,), (3,)]):
        with pytest.raises(metrics.EmptyClassError, match="^match score set is empty$"):
            sweep_grid(tables, grid)
