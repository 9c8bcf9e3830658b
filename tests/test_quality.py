"""Quantile regions, per-region Gaussians, and the least-squares calibration."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from veriq.errors import ValidationError
from veriq.quality import (
    MIN_MEMBERS,
    VARIANCE_FLOOR,
    DegenerateAxisError,
    InsufficientDataError,
    SingularDesignError,
    apply_iqa_calibration,
    build_regions,
    cluster_regions,
    fit_iqa_calibration,
    fit_region_gaussian,
    quantile_grid,
    write_regions_csv,
)


def _rng(seed=0):
    return np.random.default_rng(seed)


# ------------------------------------------------------------ quantile grid


def test_quantile_points_match_hand_computed_values():
    # order statistics [1,1,2,3,4,5,9]; with linear interpolation the
    # quartiles land at 1.5 and 4.5
    values = np.array([[3.0], [1.0], [4.0], [1.0], [5.0], [9.0], [2.0]])
    grid = quantile_grid(values, n_qs=5)
    np.testing.assert_allclose(grid.points[0], [1.0, 1.5, 3.0, 4.5, 9.0], atol=0)


def test_quantile_endpoints_are_min_and_max():
    values = _rng(1).normal(size=(50, 3))
    grid = quantile_grid(values, n_qs=7)
    for axis in range(3):
        assert grid.points[axis][0] == values[:, axis].min()
        assert grid.points[axis][-1] == values[:, axis].max()


def test_quantile_grid_axes_are_independent():
    values = np.column_stack([_rng(2).uniform(0, 1, 100), _rng(3).uniform(10, 20, 100)])
    grid = quantile_grid(values, n_qs=4)
    assert grid.dim == 2
    assert grid.n_qs == 4
    assert grid.points[0].max() <= 1.0
    assert grid.points[1].min() >= 10.0


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=2,
        max_size=60,
    ),
    st.integers(min_value=3, max_value=15),
)
def test_quantile_points_are_sorted(column, n_qs):
    values = np.array(column).reshape(-1, 1)
    if values.min() == values.max():
        with pytest.raises(DegenerateAxisError):
            quantile_grid(values, n_qs)
        return
    grid = quantile_grid(values, n_qs)
    assert np.all(np.diff(grid.points[0]) >= 0)
    assert len(grid.points[0]) == n_qs


def test_quantile_grid_validation():
    values = _rng(0).normal(size=(20, 2))
    with pytest.raises(ValidationError):
        quantile_grid(values, 2)
    with pytest.raises(InsufficientDataError):
        quantile_grid(values[:1], 5)
    constant = np.column_stack([values[:, 0], np.full(20, 7.0)])
    with pytest.raises(DegenerateAxisError):
        quantile_grid(constant, 5)


# ------------------------------------------------------------- region build


def test_build_regions_count_centers_and_bounds():
    values = _rng(10).uniform(0, 1, size=(500, 2))
    grid = quantile_grid(values, 12)
    regions = build_regions(grid, values)
    assert len(regions) == 100
    assert [r.region_id for r in regions] == list(range(100))
    # row-major over interior indices: first region at (pts0[1], pts1[1])
    np.testing.assert_array_equal(
        regions[0].center, [grid.points[0][1], grid.points[1][1]]
    )
    np.testing.assert_array_equal(
        regions[-1].center, [grid.points[0][-2], grid.points[1][-2]]
    )
    for region in regions:
        assert np.all(region.lower <= region.center)
        assert np.all(region.center <= region.upper)


def test_adjacent_regions_overlap_by_half():
    values = _rng(11).uniform(0, 1, size=(400, 1))
    grid = quantile_grid(values, 8)
    regions = build_regions(grid, values)
    for prev, nxt in zip(regions, regions[1:]):
        assert prev.upper[0] == nxt.center[0]
        assert prev.center[0] == nxt.lower[0]


def test_membership_bounds_are_closed():
    values = np.array([[0.0], [1.0], [2.0], [3.0], [4.0]])
    grid = quantile_grid(values, 5)  # quantile points hit the data exactly
    regions = build_regions(grid, values)
    # the value 2.0 is a bound of the regions centered at 1 and 3 and the
    # center of the middle one; closed bounds put it in all three
    members_of = [r for r in regions if 2 in r.member_indices]
    assert len(members_of) == 3


def test_every_record_lands_in_at_least_one_region():
    values = _rng(12).normal(size=(600, 2))
    grid = quantile_grid(values, 9)
    regions = build_regions(grid, values)
    covered = set()
    for region in regions:
        covered.update(region.member_indices)
        assert 1 <= len(region.member_indices)
    assert covered == set(range(600))


def test_region_multiplicity_is_bounded():
    values = _rng(13).normal(size=(400, 2))
    regions = build_regions(quantile_grid(values, 10), values)
    counts = np.zeros(400, dtype=int)
    for region in regions:
        counts[list(region.member_indices)] += 1
    assert counts.max() <= 9  # at most 3 interval hits per axis


def test_empty_region_falls_back_to_center():
    # quality values on the diagonal leave off-diagonal cells empty
    diag = np.linspace(0, 1, 200)
    values = np.column_stack([diag, diag])
    grid = quantile_grid(values, 10)
    regions = build_regions(grid, values)
    empty = [r for r in regions if r.n_members < 2]
    assert empty, "expected off-diagonal cells to be empty"
    for region in empty:
        np.testing.assert_array_equal(region.mean, region.center)
        np.testing.assert_array_equal(region.variances, [VARIANCE_FLOOR] * 2)
        assert region.sparse


def test_sparse_flag_uses_min_members():
    values = _rng(14).uniform(0, 1, size=(60, 1))
    regions = build_regions(quantile_grid(values, 5), values, min_members=10)
    for region in regions:
        assert region.sparse == (region.n_members < 10)
    dense = build_regions(quantile_grid(values, 5), values, min_members=1)
    assert not any(r.sparse for r in dense)


def test_build_regions_checks_dimension():
    values = _rng(15).uniform(0, 1, size=(50, 2))
    grid = quantile_grid(values, 5)
    with pytest.raises(ValidationError):
        build_regions(grid, values[:, :1])


def _reference_regions(grid, values, min_members):
    """Each region's (members, mean, variances, sparse) from a comparison of
    the whole (N, d) matrix with the region's bounds."""
    out = []
    interior = range(1, grid.n_qs - 1)
    for combo in itertools.product(interior, repeat=grid.dim):
        center = np.array([grid.points[ax][i] for ax, i in enumerate(combo)])
        lower = np.array([grid.points[ax][i - 1] for ax, i in enumerate(combo)])
        upper = np.array([grid.points[ax][i + 1] for ax, i in enumerate(combo)])
        members = np.flatnonzero(np.all((values >= lower) & (values <= upper), axis=1))
        if members.size >= 2:
            mean = values[members].mean(axis=0)
            variances = np.maximum(values[members].var(axis=0), VARIANCE_FLOOR)
        else:
            mean, variances = center, np.full(grid.dim, VARIANCE_FLOOR)
        out.append((tuple(members.tolist()), mean, variances, members.size < min_members))
    return out


_POOL = [-1.0, -0.0, 0.0, 0.25, 0.5, 1.0, 3.0]


@st.composite
def _region_inputs(draw):
    d = draw(st.integers(min_value=1, max_value=4))
    # up to 1,000 regions: n_qs 12 for d <= 3, 7 for d = 4
    n_qs = draw(st.integers(min_value=3, max_value=12 if d <= 3 else 7))
    cell = st.one_of(st.sampled_from(_POOL), st.floats(-4, 4, allow_nan=False))
    rows = draw(st.lists(st.lists(cell, min_size=d, max_size=d), min_size=0, max_size=40))
    # two rows keep every axis non-constant; some rows repeat
    rows = [[0.0] * d, [1.0] * d] + rows
    rows += draw(st.lists(st.sampled_from(rows), max_size=10))
    return n_qs, np.array(rows), draw(st.integers(min_value=0, max_value=12))


@settings(max_examples=120, deadline=None)
@given(_region_inputs(), st.data())
def test_build_regions_equals_a_whole_matrix_comparison_per_region(inputs, data):
    n_qs, values, min_members = inputs
    grid = quantile_grid(values, n_qs)
    # rows exactly on quantile points, with a zero point's other sign too
    on_points = [[data.draw(st.sampled_from(list(pts))) for pts in grid.points]
                 for _ in range(data.draw(st.integers(min_value=0, max_value=6)))]
    flipped = [[-v if v == 0 else v for v in row] for row in on_points]
    values = np.vstack([values, np.array(on_points + flipped).reshape(-1, grid.dim)])
    regions = build_regions(grid, values, min_members=min_members)
    expected = _reference_regions(grid, values, min_members)
    assert len(regions) == len(expected)
    for region, (members, mean, variances, sparse) in zip(regions, expected):
        assert region.member_indices == members
        assert region.mean.tobytes() == mean.tobytes()
        assert region.variances.tobytes() == variances.tobytes()
        assert region.sparse == sparse


# -------------------------------------------------------- region Gaussians


def test_region_gaussian_two_point_example():
    mean, var = fit_region_gaussian([[0.0, 0.0], [2.0, 2.0]])
    np.testing.assert_array_equal(mean, [1.0, 1.0])
    np.testing.assert_array_equal(var, [1.0, 1.0])


def test_region_gaussian_variance_floor():
    mean, var = fit_region_gaussian([[3.0, 5.0]] * 4)
    np.testing.assert_array_equal(mean, [3.0, 5.0])
    np.testing.assert_array_equal(var, [VARIANCE_FLOOR] * 2)


def test_region_gaussian_needs_two_samples():
    with pytest.raises(InsufficientDataError):
        fit_region_gaussian([[1.0, 2.0]])


def test_region_gaussian_recovers_known_parameters():
    rng = _rng(16)
    true_mean = np.array([2.0, -1.0])
    true_sd = np.array([0.5, 2.0])
    n = 4000
    samples = true_mean + true_sd * rng.standard_normal((n, 2))
    mean, var = fit_region_gaussian(samples)
    se_mean = true_sd / np.sqrt(n)
    se_var = true_sd**2 * np.sqrt(2.0 / (n - 1))
    assert np.all(np.abs(mean - true_mean) < 3.5 * se_mean)
    assert np.all(np.abs(var - true_sd**2) < 3.5 * se_var)


# ------------------------------------------------------------ cluster mode


def _clustered_values(n_anchor_per_axis=5, members=20):
    anchors = [
        (float(a), float(b))
        for a in range(n_anchor_per_axis)
        for b in range(n_anchor_per_axis)
    ]
    return np.array([a for a in anchors for _ in range(members)]), anchors


def test_cluster_regions_one_per_distinct_vector():
    values, anchors = _clustered_values()
    regions = cluster_regions(values)
    assert len(regions) == 25
    for region in regions:
        np.testing.assert_array_equal(region.lower, region.center)
        np.testing.assert_array_equal(region.upper, region.center)
        assert region.n_members == 20
        assert not region.sparse
        # identical members: mean at the anchor, floor variances
        np.testing.assert_array_equal(region.mean, region.center)
        np.testing.assert_array_equal(region.variances, [VARIANCE_FLOOR] * 2)
    assert sorted(tuple(r.center) for r in regions) == sorted(anchors)


def test_cluster_regions_sparse_flag_and_partition():
    values = np.array([[0.0, 0.0]] * 3 + [[1.0, 1.0]] * 12)
    regions = cluster_regions(values, min_members=MIN_MEMBERS)
    assert [r.n_members for r in regions] == [3, 12]
    assert [r.sparse for r in regions] == [True, False]
    all_members = sorted(i for r in regions for i in r.member_indices)
    assert all_members == list(range(15))


def test_cluster_regions_single_member_falls_back():
    values = np.array([[0.0, 0.0], [1.0, 1.0], [1.0, 1.0]])
    regions = cluster_regions(values)
    lone = regions[0]
    assert lone.n_members == 1
    np.testing.assert_array_equal(lone.mean, [0.0, 0.0])
    np.testing.assert_array_equal(lone.variances, [VARIANCE_FLOOR] * 2)


def test_cluster_regions_needs_data():
    with pytest.raises(InsufficientDataError):
        cluster_regions(np.empty((0, 2)))


def test_write_regions_csv(tmp_path):
    values = np.array([[0.0], [1.0], [2.0], [3.0]])
    regions = build_regions(quantile_grid(values, 4), values)
    path = tmp_path / "regions.csv"
    write_regions_csv(regions, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "region_id,axis,lower,center,upper,n_members"
    assert len(lines) == 1 + 2  # two interior regions, one axis each
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    assert float(first[2]) == 0.0 and float(first[4]) == 2.0


# ------------------------------------------------------------- calibration

# Rows whose per-cell quality means are zero make the fit consistent; the
# exact least-squares solution is then the identity on quality plus the
# angle-to-quality slopes 1/10 and 1/18.
_X0 = np.array([[1.0, 0.0], [0.0, 1.0], [0.1, 0.0], [0.0, 1.0 / 18.0]])


def _consistent_rows():
    cells = {
        (0.0, 0.0): [(1.0, 2.0), (-1.0, -2.0)],
        (10.0, 0.0): [(2.0, -1.0), (-2.0, 1.0)],
        (0.0, 18.0): [(0.5, 0.7), (-0.5, -0.7)],
        (10.0, 18.0): [(1.5, -0.3), (-1.5, 0.3)],
    }
    return np.array(
        [[q1, q2, g1, g2] for (g1, g2), pts in cells.items() for q1, q2 in pts]
    )


def test_calibration_recovers_exact_solution():
    rows = _consistent_rows()
    assert np.linalg.matrix_rank(rows) == 4
    cal = fit_iqa_calibration(rows)
    np.testing.assert_allclose(cal.solution, _X0, atol=1e-9)
    np.testing.assert_allclose(cal.design @ cal.solution, cal.targets, atol=1e-9)


def test_calibration_frontal_cell_is_centered_quality():
    cal = fit_iqa_calibration(_consistent_rows())
    mapped = apply_iqa_calibration(cal, [0.7, -0.4, 0.0, 0.0])
    np.testing.assert_allclose(mapped, [0.7, -0.4], atol=1e-9)


def test_calibration_angle_increments_shift_targets():
    cal = fit_iqa_calibration(_consistent_rows())
    base = apply_iqa_calibration(cal, [1.0, 2.0, 0.0, 0.0])
    tilted = apply_iqa_calibration(cal, [1.0, 2.0, 10.0, 0.0])
    flashed = apply_iqa_calibration(cal, [1.0, 2.0, 0.0, 18.0])
    np.testing.assert_allclose(tilted - base, [1.0, 0.0], atol=1e-9)
    np.testing.assert_allclose(flashed - base, [0.0, 1.0], atol=1e-9)


def test_calibration_targets_center_quality_within_cells():
    rows = _consistent_rows()
    cal = fit_iqa_calibration(rows)
    # first row: cell (0,0) whose q1 mean is 0 -> target q1 stays 1.0
    np.testing.assert_allclose(cal.targets[0], [1.0, 2.0], atol=1e-12)
    # tilted cell (10,0): target adds 10/10 = 1 to the centered q1
    np.testing.assert_allclose(cal.targets[2], [2.0 + 1.0, -1.0], atol=1e-12)


def test_calibration_solution_is_a_local_minimum():
    rng = _rng(17)
    cells = [(0.0, 0.0), (10.0, 0.0), (-10.0, 18.0), (10.0, -18.0)]
    rows = np.array(
        [
            [rng.normal(), rng.normal(), g1, g2]
            for g1, g2 in cells
            for _ in range(4)
        ]
    )
    cal = fit_iqa_calibration(rows)
    base = np.linalg.norm(cal.design @ cal.solution - cal.targets)
    for _ in range(20):
        delta = rng.normal(size=(4, 2))
        delta /= np.linalg.norm(delta)
        perturbed = np.linalg.norm(
            cal.design @ (cal.solution + 1e-3 * delta) - cal.targets
        )
        assert perturbed >= base
    scale = np.linalg.norm(cal.design) * max(1.0, np.linalg.norm(cal.targets))
    assert cal.residual_orthogonality() <= 1e-8 * scale


def test_calibration_rejects_rank_deficiency():
    # q2 proportional to q1 collapses the design to rank 3
    rows = np.array(
        [
            [1.0, 3.0, 0.0, 0.0],
            [-1.0, -3.0, 0.0, 0.0],
            [2.0, 6.0, 10.0, 18.0],
            [-2.0, -6.0, 10.0, 18.0],
        ]
    )
    with pytest.raises(SingularDesignError):
        fit_iqa_calibration(rows)


def test_calibration_needs_two_cells_and_four_rows():
    one_cell = np.array([[i, -i, 5.0, 9.0] for i in range(1, 6)], dtype=float)
    with pytest.raises(SingularDesignError):
        fit_iqa_calibration(one_cell)
    with pytest.raises(InsufficientDataError):
        fit_iqa_calibration(np.array([[1.0, 2.0, 0.0, 0.0]]))
    with pytest.raises(ValidationError):
        fit_iqa_calibration(np.array([[1.0, 2.0, 3.0]]))


def test_apply_calibration_validates_shape():
    cal = fit_iqa_calibration(_consistent_rows())
    with pytest.raises(ValidationError):
        apply_iqa_calibration(cal, [1.0, 2.0, 3.0])
