"""Mixture fitting, family-constrained M-steps, conditioning, serialization."""

import concurrent.futures
import logging
import math
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.linalg import solve_triangular
from scipy.special import logsumexp

from veriq import mixture
from veriq.errormodel import OperatingPoint
from veriq.errors import NumericError, ValidationError
from veriq.mixture import (
    _TINY,
    ORIENTATION_INNER_ITER,
    PARAMETRIZATIONS,
    RIDGE_FACTOR,
    MixtureModel,
    condition,
    dump_model_json,
    em_fit,
    load_model_json,
    model_from_dict,
    model_search,
    model_to_dict,
    n_cov_params,
    n_params,
    predict,
)

from .covstruct import assert_spd, family_violation


def _blob_data(seed, n=600, d=3, centers=((0, 0, 0), (6, 5, -4), (-5, 6, 3))):
    rng = np.random.default_rng(seed)
    centers = np.asarray(centers, dtype=float)[:, :d]
    parts = []
    for center in centers:
        cov = rng.normal(size=(d, d)) * 0.4
        cov = cov @ cov.T + np.eye(d)
        parts.append(rng.multivariate_normal(center, cov, size=n // len(centers)))
    return np.vstack(parts)


def _model(weights, means, covs, code="VVV", d_q=1, d_r=1, meta=None):
    return MixtureModel(
        weights=np.asarray(weights, dtype=float),
        means=np.asarray(means, dtype=float),
        covariances=np.asarray(covs, dtype=float),
        parametrization=code,
        d_q=d_q,
        d_r=d_r,
        fit_meta=meta or {},
    )


_FROZEN = _model(
    weights=(0.4, 0.6),
    means=((0.0, 0.0), (2.0, 1.0)),
    covs=(((1.0, 0.6), (0.6, 1.0)), ((0.5, -0.2), (-0.2, 0.8))),
)


# ------------------------------------------------------- parameter counts


def _reference_n_cov_params(code, k, d):
    """The per-family table the letter formula replaced."""
    orientation = d * (d - 1) // 2
    shape = d - 1
    return {
        "EII": 1,
        "VII": k,
        "EEI": 1 + shape,
        "VEI": k + shape,
        "EVI": 1 + k * shape,
        "VVI": k * d,
        "EEE": 1 + shape + orientation,
        "EEV": 1 + shape + k * orientation,
        "VEV": k + shape + k * orientation,
        "VVV": k * (1 + shape + orientation),
    }[code]


def test_cov_param_counts_for_k3_d4():
    expected = {
        "EII": 1, "VII": 3, "EEI": 4, "VEI": 6, "EVI": 10,
        "VVI": 12, "EEE": 10, "EEV": 22, "VEV": 24, "VVV": 30,
    }
    for code, count in expected.items():
        assert n_cov_params(code, 3, 4) == count
        assert n_params(code, 3, 4) == (3 - 1) + 3 * 4 + count
    for code in PARAMETRIZATIONS:
        for k in range(1, 7):
            for d in range(1, 7):
                assert n_cov_params(code, k, d) == _reference_n_cov_params(code, k, d)


def test_full_model_count_formula():
    k, d = 5, 3
    assert n_params("VVV", k, d) == (k - 1) + k * d + k * d * (d + 1) // 2


def test_unknown_family_is_rejected():
    with pytest.raises(ValidationError):
        n_cov_params("XYZ", 2, 2)
    with pytest.raises(ValidationError):
        em_fit(np.zeros((10, 2)), 1, "XYZ", d_q=1, d_r=1)


# ------------------------------------------------------------ likelihoods
#
# References for the fit metadata: built on the library's own density and
# log-sum-exp kernels, so fit_meta's loglik and bic must equal them bit for bit.


def log_likelihood(model, data):
    """Sum of log mixture densities over the rows of data."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    log_joint = mixture._log_component_densities(
        data, model.weights, model.means, model.covariances
    )
    return float(np.sum(mixture._logsumexp(log_joint, axis=0)))


def bic(model, data):
    """2*loglik - n_params*ln(N); larger is better."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    return 2.0 * log_likelihood(model, data) - model.n_params * math.log(data.shape[0])


def test_log_likelihood_matches_naive_oracle():
    rng = np.random.default_rng(0)
    model = _model(
        weights=(0.3, 0.7),
        means=rng.normal(size=(2, 3)),
        covs=[np.eye(3) * 0.5, np.diag([1.0, 2.0, 0.3])],
        d_q=2, d_r=1,
    )
    data = rng.normal(size=(10, 3))
    naive = 0.0
    for x in data:
        dens = sum(
            w * stats.multivariate_normal.pdf(x, mean=m, cov=c)
            for w, m, c in zip(model.weights, model.means, model.covariances)
        )
        naive += math.log(dens)
    assert log_likelihood(model, data) == pytest.approx(naive, abs=1e-10)


def test_log_likelihood_single_standard_gaussian():
    model = _model([1.0], [[0.0, 0.0]], [np.eye(2)])
    assert log_likelihood(model, [[0.0, 0.0]]) == pytest.approx(
        -math.log(2 * math.pi), abs=1e-14
    )


def test_log_likelihood_is_additive_over_rows():
    data = np.random.default_rng(1).normal(size=(20, 2))
    model = _model([1.0], [[0.0, 0.0]], [np.eye(2)])
    single = log_likelihood(model, data)
    doubled = log_likelihood(model, np.vstack([data, data]))
    assert doubled == pytest.approx(2 * single, rel=1e-12)


def test_bic_penalizes_parameters():
    data = np.random.default_rng(2).normal(size=(100, 2))
    lean = em_fit(data, 1, "EII", d_q=1, d_r=1, seed=0)
    rich = em_fit(data, 1, "VVV", d_q=1, d_r=1, seed=0)
    expected_gap = (rich.n_params - lean.n_params) * math.log(100)
    got_gap = (2 * log_likelihood(rich, data) - bic(rich, data)) - (
        2 * log_likelihood(lean, data) - bic(lean, data)
    )
    assert got_gap == pytest.approx(expected_gap, rel=1e-12)


# --------------------------------------------------------------- EM fits


def test_single_component_closed_forms():
    data = np.random.default_rng(3).normal(size=(500, 3)) * [1.0, 2.0, 0.5]
    fit = em_fit(data, 1, "VVV", d_q=2, d_r=1, seed=0)
    np.testing.assert_allclose(fit.means[0], data.mean(axis=0), atol=1e-10)
    np.testing.assert_allclose(fit.covariances[0], np.cov(data.T, ddof=0), atol=1e-8)
    spherical = em_fit(data, 1, "EII", d_q=2, d_r=1, seed=0)
    lam = np.trace(np.cov(data.T, ddof=0)) / 3.0
    np.testing.assert_allclose(spherical.covariances[0], lam * np.eye(3), atol=1e-8)


def test_em_recovers_separated_clusters():
    rng = np.random.default_rng(4)
    data = np.vstack(
        [rng.normal(-5, 0.7, size=(300, 2)), rng.normal(5, 0.7, size=(300, 2))]
    )
    fit = em_fit(data, 2, "VII", d_q=1, d_r=1, seed=1)
    means = fit.means[np.argsort(fit.means[:, 0])]
    np.testing.assert_allclose(means, [[-5, -5], [5, 5]], atol=0.15)
    np.testing.assert_allclose(fit.weights, [0.5, 0.5], atol=0.05)


def test_em_trace_is_monotone_and_consistent():
    data = _blob_data(5)
    fit = em_fit(data, 3, "VVV", d_q=2, d_r=1, seed=2)
    trace = np.array(fit.fit_meta["loglik_trace"])
    assert np.all(np.diff(trace) >= 0)
    assert fit.fit_meta["loglik"] == trace[-1]
    assert fit.fit_meta["loglik"] == pytest.approx(
        log_likelihood(fit, data), rel=1e-9
    )
    meta = fit.fit_meta
    assert meta["n_iter"] == len(trace) + meta["extrapolations"] + meta["rejected"]
    assert fit.fit_meta["restarts"] >= 0


@pytest.mark.parametrize("max_iter", [1, 2, 3])
def test_em_stopped_at_max_iter_reports_its_returned_parameters(max_iter):
    # no M-step may follow the last E-step, or loglik lags the returned parameters
    data = _blob_data(5)
    fit = em_fit(data, 3, "VVV", d_q=2, d_r=1, seed=2, max_iter=max_iter)
    assert fit.fit_meta["n_iter"] == max_iter
    assert fit.fit_meta["loglik"] == fit.fit_meta["loglik_trace"][-1]
    assert fit.fit_meta["loglik"] == log_likelihood(fit, data)
    assert fit.fit_meta["bic"] == bic(fit, data)


def test_em_is_deterministic():
    data = _blob_data(6)
    a = em_fit(data, 3, "VEV", d_q=2, d_r=1, seed=7)
    b = em_fit(data, 3, "VEV", d_q=2, d_r=1, seed=7)
    np.testing.assert_array_equal(a.weights, b.weights)
    np.testing.assert_array_equal(a.means, b.means)
    np.testing.assert_array_equal(a.covariances, b.covariances)


def test_em_validation():
    data = np.zeros((5, 2)) + np.random.default_rng(0).normal(size=(5, 2))
    with pytest.raises(ValidationError):
        em_fit(data, 6, "VVV", d_q=1, d_r=1)
    with pytest.raises(ValidationError):
        em_fit(data, 0, "VVV", d_q=1, d_r=1)
    with pytest.raises(ValidationError):
        em_fit(data, 2, "VVV", d_q=2, d_r=1)
    with pytest.raises(ValidationError):
        em_fit(data, 2, "VVV", d_q=1, d_r=1, tol=0.0)
    with pytest.raises(ValidationError):
        em_fit(data, 2, "VVV", d_q=1, d_r=1, max_iter=0)
    with pytest.raises(ValidationError):
        em_fit(data[0], 1, "VVV", d_q=1, d_r=1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="data must be finite"):
            em_fit([[bad, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 1.0]], 2, "VVV",
                   d_q=1, d_r=1)


@pytest.mark.parametrize("code", PARAMETRIZATIONS)
def test_every_family_fits_with_its_structure(code):
    data = _blob_data(8)
    fit = em_fit(data, 3, code, d_q=2, d_r=1, seed=3)
    assert fit.parametrization == code
    assert_spd(fit.covariances)
    scale = max(1.0, float(np.max(np.abs(fit.covariances))))
    assert family_violation(code, fit.covariances) <= 1e-8 * scale
    trace = np.array(fit.fit_meta["loglik_trace"])
    assert np.all(np.diff(trace) >= 0)


def test_richer_families_fit_no_worse_in_likelihood():
    # nested on the same data: VVV >= EEE >= EII at the optimum reached
    data = _blob_data(9)
    ll = {
        code: em_fit(data, 2, code, d_q=2, d_r=1, seed=4).fit_meta["loglik"]
        for code in ("EII", "EEE", "VVV")
    }
    assert ll["VVV"] >= ll["EEE"] - 1e-6
    assert ll["EEE"] >= ll["EII"] - 1e-6


# ----------------------------------------------------- accelerated EM


def _reference_em_run(data, k, code, seed, attempt, tol, max_iter):
    """The plain E-step/M-step loop that SQUAREM replaced, kept as an oracle."""
    counters: dict = {}
    rng = np.random.default_rng([int(seed), attempt])
    params = mixture._m_step(
        data, mixture._initial_responsibilities(data, k, rng), code, None, counters
    )
    trace: list[float] = []
    while True:
        log_joint = mixture._log_component_densities(data, *params)
        log_norm = mixture._logsumexp(log_joint, axis=0)
        loglik = float(np.sum(log_norm))
        resp = np.exp(log_joint - log_norm)
        if np.min(resp.sum(axis=1)) < mixture.COLLAPSE_FLOOR:
            raise NumericError(f"component collapsed (seed {seed}, attempt {attempt})")
        if trace and loglik < trace[-1]:
            return previous, trace, counters
        trace.append(loglik)
        if len(trace) == max_iter or (
            len(trace) > 1 and trace[-1] - trace[-2] < tol * abs(trace[-2])
        ):
            return params, trace, counters
        previous = params
        params = mixture._m_step(data, resp, code, params[2], counters)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4), st.sampled_from(PARAMETRIZATIONS), st.integers(0, 2**16),
       st.integers(60, 150), st.integers(1, 40) | st.just(mixture.DEFAULT_MAX_ITER))
def test_accelerated_em_keeps_the_plain_loops_invariants(k, code, seed, n, max_iter):
    data = _blob_data(seed, n=n)
    try:
        fit = em_fit(data, k, code, d_q=2, d_r=1, seed=seed, max_iter=max_iter)
    except NumericError:
        return  # every attempt collapsed or failed its projection
    meta = fit.fit_meta
    trace = np.array(meta["loglik_trace"])
    assert np.all(np.diff(trace) >= 0)
    assert_spd(fit.covariances)
    scale = max(1.0, float(np.max(np.abs(fit.covariances))))
    assert family_violation(code, fit.covariances) <= 1e-8 * scale
    assert meta["loglik"] == trace[-1] == log_likelihood(fit, data)
    assert meta["n_iter"] == len(trace) + meta["extrapolations"] + meta["rejected"]
    assert meta["n_iter"] <= max_iter
    assert meta["rejected"] <= meta["extrapolations"] + 1


def test_max_iter_caps_e_steps_through_extrapolations():
    # an extrapolation costs two E-steps; it must not run past the cap
    data = _overlapping_data()
    free = em_fit(data, 2, "VVV", d_q=2, d_r=1, seed=2).fit_meta
    assert free["extrapolations"] > 0
    for max_iter in range(1, free["n_iter"] + 3):
        fit = em_fit(data, 2, "VVV", d_q=2, d_r=1, seed=2, max_iter=max_iter)
        assert fit.fit_meta["n_iter"] == min(max_iter, free["n_iter"])
        assert fit.fit_meta["loglik"] == log_likelihood(fit, data)


def test_a_run_that_ends_on_a_dip_counts_the_dipped_e_step():
    # no relative gain passes a tolerance of 1e-300: EM runs on until the
    # log-likelihood dips at float level, then keeps the previous iterate
    data = _blob_data(5)
    fit = em_fit(data, 2, "VVV", d_q=2, d_r=1, seed=2, tol=1e-300)
    meta = fit.fit_meta
    assert meta["n_iter"] < mixture.DEFAULT_MAX_ITER and meta["rejected"] >= 1
    assert meta["n_iter"] == len(meta["loglik_trace"]) + meta["extrapolations"] + meta["rejected"]
    assert meta["loglik"] == log_likelihood(fit, data)


def test_extrapolated_point_with_a_negative_weight_is_refused():
    p0 = (np.array([0.6, 0.4]), np.zeros((2, 1)), np.ones((2, 1, 1)))
    p1 = (np.array([0.5, 0.5]), np.zeros((2, 1)), np.ones((2, 1, 1)))
    p2 = (np.array([0.45, 0.55]), np.zeros((2, 1)), np.ones((2, 1, 1)))
    step, point = mixture._extrapolate(p0, p1, p2, math.inf)
    assert step == pytest.approx(2.0)  # |r|/|v| = 0.1/0.05
    np.testing.assert_allclose(point[0], [0.6 - 0.4 + 0.2, 0.4 + 0.4 - 0.2])
    assert mixture._admissible(point)
    p2 = (np.array([0.41, 0.59]), *p2[1:])  # a near-linear path: a long step
    step, point = mixture._extrapolate(p0, p1, p2, math.inf)
    assert step == pytest.approx(10.0) and point[0][0] == pytest.approx(-0.4)
    assert not mixture._admissible(point)
    assert not mixture._admissible((point[0], point[1], -point[2]))


@pytest.mark.parametrize("code", ["VVV", "VEV", "EII"])
def test_refused_extrapolations_fall_back_to_the_plain_loop(monkeypatch, code):
    # every extrapolated point gets a negative weight: each cycle takes the
    # plain second map, so the run is the plain loop's, bit for bit
    data = _blob_data(5)
    extrapolate = mixture._extrapolate
    refused = []

    def negative_weight(p0, p1, p2, step_max):
        step, (weights, means, covs) = extrapolate(p0, p1, p2, step_max)
        refused.append(step)
        return max(step, 2.0), (weights - 2.0, means, covs)

    monkeypatch.setattr(mixture, "_extrapolate", negative_weight)
    fit = em_fit(data, 3, code, d_q=2, d_r=1, seed=2)
    (weights, means, covs), trace, _ = _reference_em_run(
        data, 3, code, 2, 0, mixture.DEFAULT_TOL, mixture.DEFAULT_MAX_ITER
    )
    assert refused and fit.fit_meta["extrapolations"] == 0
    assert fit.fit_meta["loglik_trace"] == tuple(trace)
    assert fit.fit_meta["n_iter"] == len(trace) + fit.fit_meta["rejected"]
    np.testing.assert_array_equal(fit.weights, weights)
    np.testing.assert_array_equal(fit.means, means)
    np.testing.assert_array_equal(fit.covariances, covs)


def _overlapping_data():
    """Two overlapping clusters: the plain loop converges slowly on them."""
    rng = np.random.default_rng(0)
    return np.vstack([rng.normal([0, 0, 0], 1.0, size=(200, 3)),
                      rng.normal([1.5, 1, 0], 1.0, size=(200, 3))])


def test_accelerated_em_needs_fewer_e_steps_than_the_plain_loop():
    data = _overlapping_data()
    for code in ("VVV", "VEV", "EII"):
        fit = em_fit(data, 2, code, d_q=2, d_r=1, seed=2)
        _, trace, _ = _reference_em_run(
            data, 2, code, 2, 0, mixture.DEFAULT_TOL, mixture.DEFAULT_MAX_ITER
        )
        assert fit.fit_meta["extrapolations"] > 0
        assert 2 * fit.fit_meta["n_iter"] < len(trace)
        assert fit.fit_meta["loglik"] >= trace[-1] - 1e-6 * abs(trace[-1])


# ------------------------------------------------------------ model search


def test_model_search_records_failures_and_selects_by_bic():
    data = _blob_data(10, n=120)
    best, table = model_search(
        data, range(1, 4), ("EII", "VVI"), d_q=2, d_r=1, seed=5
    )
    assert len(table) == 3 * 2
    assert all(cell.status == "ok" for cell in table)
    ok = [cell for cell in table if cell.status == "ok"]
    best_cell = max(ok, key=lambda c: (c.bic, -c.n_params))
    assert best.fit_meta["bic"] == best_cell.bic == bic(best, data)
    assert best.n_components == best_cell.k
    assert best.parametrization == best_cell.parametrization


def test_model_search_skips_infeasible_cells():
    data = np.random.default_rng(11).normal(size=(4, 2))
    best, table = model_search(data, [1, 6], ("EII",), d_q=1, d_r=1, seed=0)
    statuses = {cell.k: cell.status for cell in table}
    assert statuses[1] == "ok"
    assert statuses[6].startswith("failed:")
    assert best.n_components == 1


def test_model_search_all_failures_raise():
    data = np.random.default_rng(12).normal(size=(3, 2))
    with pytest.raises(NumericError):
        model_search(data, [8], ("EII",), d_q=1, d_r=1, seed=0)
    with pytest.raises(ValidationError):
        model_search(data, [], ("EII",), d_q=1, d_r=1, seed=0)


def test_model_search_fails_a_cell_whose_projection_breaks_down(monkeypatch):
    # VEV's shared shape is zero on the two constant columns only: the cell
    # fails before the coordinate descent, which would overflow chasing that shape
    r = np.random.default_rng(0)
    data = np.c_[r.random(6), np.full(6, 0.5), np.full(6, 0.2), r.random(6)]
    runs = []

    def counted(*args):
        runs.append(args[1:3])
        return em_run(*args)

    em_run = mixture._em_run
    monkeypatch.setattr(mixture, "_em_run", counted)
    best, table = model_search(data, [1], ["VEV", "EII"], d_q=2, d_r=2, seed=1)
    assert table[0].status.startswith("failed: EM failed after 1 attempt: ")
    assert "shared shape is singular" in table[0].status
    # every K=1 start is the same, so the failing cell is not retried
    assert runs == [(1, "VEV"), (1, "EII")]
    assert table[1].status == "ok"
    assert best.parametrization == "EII"


def test_model_search_prefers_fewer_parameters_on_ties():
    data = np.random.default_rng(13).normal(size=(200, 2))
    # duplicate family: both cells give identical BIC; either pick is fine,
    # but the comparator must accept the first, not flip on equality
    best, table = model_search(data, [1], ("VVV", "VVV"), d_q=1, d_r=1, seed=1)
    assert table[0].bic == table[1].bic
    assert best.fit_meta["bic"] == table[0].bic


def test_model_search_is_deterministic():
    data = _blob_data(14, n=150)
    best_a, table_a = model_search(data, [1, 2], ("VVI",), d_q=2, d_r=1, seed=3)
    best_b, table_b = model_search(data, [1, 2], ("VVI",), d_q=2, d_r=1, seed=3)
    assert [c.bic for c in table_a] == [c.bic for c in table_b]
    np.testing.assert_array_equal(best_a.means, best_b.means)


def _flat_cluster_data():
    """A cluster flat on its last axis beside a round one: VVI and VVV cells
    of K >= 2 ridge the flat component's covariance and log it."""
    r = np.random.default_rng(0)
    return np.vstack([np.c_[r.normal(size=(40, 2)), np.full(40, 0.5)],
                      r.normal([4, 4, 4], 1.0, size=(40, 3))])


_SEARCH_FAMILIES = ("EII", "VVI", "VVV", "EEE")


def _with_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _cell_model(data, cell, idx, seed, max_iter):
    cell_seed = int(np.random.SeedSequence([seed, cell.k, idx]).generate_state(1)[0])
    return em_fit(data, cell.k, cell.parametrization, d_q=2, d_r=1, seed=cell_seed,
                  max_iter=max_iter)


def test_search_cells_carry_their_fit_meta():
    data = _flat_cluster_data()
    # max_iter 6 stops some cells early; K = 90 > N fails
    _, table = model_search(data, [1, 2, 3, 90], _SEARCH_FAMILIES, d_q=2, d_r=1,
                            seed=1, max_iter=6)
    assert [c.status.startswith("failed:") for c in table] == [False] * 12 + [True] * 4
    for cell in table[12:]:
        counts = (cell.n_iter, cell.restarts, cell.ridge_events, cell.extrapolations)
        assert counts == (0, 0, 0, 0) and cell.converged is False
    ok = table[:12]
    for pos, cell in enumerate(ok):
        meta = _cell_model(data, cell, pos % 4, 1, 6).fit_meta
        assert (cell.loglik, cell.bic, cell.n_iter, cell.restarts, cell.ridge_events,
                cell.extrapolations) == (meta["loglik"], meta["bic"], meta["n_iter"],
                                         meta["restarts"], meta["ridge_events"],
                                         meta["extrapolations"])
        assert cell.converged == (meta["n_iter"] < 6)
    assert {c.converged for c in ok} == {True, False}
    assert any(c.ridge_events for c in ok) and any(c.extrapolations for c in ok)


def _search_with_cpus(monkeypatch, caplog, n_cpus, data, k_range, **kwargs):
    _with_cpus(monkeypatch, n_cpus)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger=mixture.__name__):
        best, table = model_search(data, k_range, _SEARCH_FAMILIES, d_q=2, d_r=1,
                                   **kwargs)
    assert multiprocessing.active_children() == []
    return best, table, [r.getMessage() for r in caplog.records]


def test_search_does_not_depend_on_the_cpu_count(monkeypatch, caplog):
    data = _flat_cluster_data()
    runs = [_search_with_cpus(monkeypatch, caplog, n, data, [1, 2, 3, 90], seed=1)
            for n in (1, 2, 4)]
    best, table, log = runs[0]
    # the warnings come in table order: each cell's own, as em_fit logs them
    expected = []
    for pos, cell in enumerate(table[:12]):
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger=mixture.__name__):
            _cell_model(data, cell, pos % 4, 1, mixture.DEFAULT_MAX_ITER)
        expected += [r.getMessage() for r in caplog.records]
    assert log == expected and len(log) > 0
    for other_best, other_table, other_log in runs[1:]:
        assert [repr(c) for c in other_table] == [repr(c) for c in table]
        assert other_log == log
        for name in ("weights", "means", "covariances"):
            np.testing.assert_array_equal(getattr(other_best, name), getattr(best, name))
        assert other_best.fit_meta == best.fit_meta


class _RecordingPool(concurrent.futures.ProcessPoolExecutor):
    sizes: list[int] = []

    def __init__(self, max_workers, **kwargs):
        _RecordingPool.sizes.append(max_workers)
        super().__init__(max_workers, **kwargs)


@pytest.mark.parametrize("n_cpus, k_range, families, helpers", [
    (4, [1], PARAMETRIZATIONS, []),  # K = 1 cells stay in the caller
    (4, [1, 2], ("VVI",), []),  # one K >= 2 cell: nothing to share
    (1, [1, 2, 3], ("EII", "VVI"), []),
    (4, [1, 2], ("EII", "VVI"), [1]),  # capped by the two K >= 2 cells
    (4, [2, 3, 4], ("EII", "VVI"), [3]),
    (2, [2, 3, 4], ("EII", "VVI"), [1]),
    (None, [2, 3, 4], ("EII", "VVI"), []),  # no os.sched_getaffinity
])
def test_search_starts_one_helper_per_spare_cpu_and_cell(
        monkeypatch, n_cpus, k_range, families, helpers):
    if n_cpus is None:
        monkeypatch.delattr(os, "sched_getaffinity")
    else:
        _with_cpus(monkeypatch, n_cpus)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    data = _blob_data(14, n=150)
    model_search(data, k_range, families, d_q=2, d_r=1, seed=3)
    assert _RecordingPool.sizes == helpers
    assert multiprocessing.active_children() == []


def test_a_dead_helper_is_a_numeric_error(monkeypatch):
    _with_cpus(monkeypatch, 2)
    caller = os.getpid()
    fit = mixture.em_fit

    def dies_in_a_helper(*args, **kwargs):
        if os.getpid() != caller:
            os._exit(3)
        return fit(*args, **kwargs)

    monkeypatch.setattr(mixture, "em_fit", dies_in_a_helper)
    with pytest.raises(NumericError, match="model-search helper process died"):
        model_search(_blob_data(14, n=150), [1, 2, 3], ("EII", "VVI"), d_q=2, d_r=1,
                     seed=3)
    assert multiprocessing.active_children() == []


def test_a_cell_failing_in_a_helper_is_recorded(monkeypatch):
    _with_cpus(monkeypatch, 2)
    caller = os.getpid()
    fit = mixture.em_fit

    def fails_in_a_helper(*args, **kwargs):
        if os.getpid() != caller:
            raise NumericError("failed in a helper")
        return fit(*args, **kwargs)

    monkeypatch.setattr(mixture, "em_fit", fails_in_a_helper)
    best, table = model_search(_blob_data(14, n=150), [1, 2, 3], ("EII", "VVI"),
                               d_q=2, d_r=1, seed=3)
    # K = 3 EII and K = 2 EII go to the caller, K = 3 VVI and K = 2 VVI to the helper
    assert [c.status for c in table] == ["ok", "ok", "ok", "failed: failed in a helper",
                                         "ok", "failed: failed in a helper"]
    assert multiprocessing.active_children() == []


# ------------------------------------------------------------ conditioning


def test_condition_weights_form_a_simplex():
    for q in (0.0, 1.2, -3.0, 1e3):
        pred = condition(_FROZEN, [q])
        assert pred.psi.shape == (2,)
        assert np.all(pred.psi >= 0)
        assert pred.psi.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.isfinite(pred.expectation))


def test_condition_matches_hand_computed_two_component_case():
    q = 1.2
    pred = condition(_FROZEN, [q])

    def normal_pdf(x, mu, var):
        return math.exp(-((x - mu) ** 2) / (2 * var)) / math.sqrt(2 * math.pi * var)

    lik0 = 0.4 * normal_pdf(q, 0.0, 1.0)
    lik1 = 0.6 * normal_pdf(q, 2.0, 0.5)
    psi0 = lik0 / (lik0 + lik1)
    np.testing.assert_allclose(pred.psi, [psi0, 1 - psi0], atol=1e-12)

    m0 = 0.0 + 0.6 / 1.0 * (q - 0.0)
    m1 = 1.0 + (-0.2 / 0.5) * (q - 2.0)
    np.testing.assert_allclose(pred.cond_means[:, 0], [m0, m1], atol=1e-12)
    np.testing.assert_allclose(
        pred.cond_covs[:, 0, 0], [1.0 - 0.36, 0.8 - 0.04 / 0.5], atol=1e-12
    )
    expected = psi0 * m0 + (1 - psi0) * m1
    assert pred.expectation[0] == pytest.approx(expected, abs=1e-12)
    # frozen against a 2-million-point quadrature of r * f(r|q)
    assert pred.expectation[0] == pytest.approx(1.1380714975413873, abs=1e-9)


def test_condition_single_component_is_linear_regression():
    rng = np.random.default_rng(15)
    a = rng.normal(size=(3, 3))
    cov = a @ a.T + np.eye(3)
    mean = rng.normal(size=3)
    model = _model([1.0], [mean], [cov], d_q=2, d_r=1)
    q = rng.normal(size=2)
    pred = condition(model, q)
    sigma_qq = cov[:2, :2]
    sigma_qr = cov[:2, 2:]
    expected = mean[2:] + sigma_qr.T @ np.linalg.solve(sigma_qq, q - mean[:2])
    np.testing.assert_allclose(pred.expectation, expected, atol=1e-12)
    expected_cov = cov[2:, 2:] - sigma_qr.T @ np.linalg.solve(sigma_qq, sigma_qr)
    np.testing.assert_allclose(pred.cond_covs[0], expected_cov, atol=1e-12)


def test_condition_uncorrelated_blocks_ignore_the_query():
    model = _model(
        [0.5, 0.5],
        [[0.0, 3.0], [0.0, -1.0]],
        [np.eye(2), np.eye(2)],
    )
    for q in (-2.0, 0.0, 2.0):
        pred = condition(model, [q])
        np.testing.assert_allclose(pred.cond_means[:, 0], [3.0, -1.0], atol=0)
    # equal weights and equal q-marginals: psi stays uniform everywhere
    np.testing.assert_allclose(condition(model, [5.0]).psi, [0.5, 0.5], atol=1e-12)


def test_condition_survives_a_singular_quality_block():
    cov = np.array([[0.0, 0.0], [0.0, 1.0]])
    model = _model([1.0], [[0.0, 2.0]], [cov])
    pred = condition(model, [0.1])
    assert np.all(np.isfinite(pred.expectation))
    assert pred.psi[0] == pytest.approx(1.0, abs=0)


def test_condition_validation():
    with pytest.raises(ValidationError):
        condition(_FROZEN, [1.0, 2.0])
    with pytest.raises(ValidationError):
        condition(_FROZEN, [float("nan")])


def test_predict_survives_a_singular_quality_block():
    # component 0's quality block diag(0, 1) is ridged to diag(r, 1 + r)
    covs = [np.diag([0.0, 1.0, 1.0, 1.0]), np.eye(4)]
    model = _model([0.5, 0.5], [[0.0, 0.0, 0.2, 0.3], [0.0, 0.0, 0.8, 0.6]], covs,
                   d_q=2, d_r=2)
    ridge = RIDGE_FACTOR * 0.5  # trace / d of the quality block diag(0, 1)
    # density ratio of component 0 to component 1 at q = 0
    ratio = 1.0 / math.sqrt(ridge * (1.0 + ridge))
    psi = np.array([ratio, 1.0]) / (ratio + 1.0)
    rates, clamped, top = predict(model, [[0.0, 0.0]])
    np.testing.assert_allclose(rates[0], psi @ [[0.2, 0.3], [0.8, 0.6]], rtol=1e-12)
    assert not clamped.any() and top[0] == 0


def test_non_finite_conditioning_is_a_numeric_error():
    # a subnormal quality variance overflows the whitened query
    model = _model([1.0], [[0.0, 0.5]], [np.diag([1e-320, 1.0])])
    with pytest.raises(NumericError, match="not finite"):
        predict(model, [[0.1]])
    with pytest.raises(NumericError, match="not finite"):
        condition(model, [0.1])


def test_predict_clamps_and_flags_a_single_query():
    model = _model(
        [1.0],
        [[0.0, -0.5, 1.5]],
        [np.diag([1.0, 0.1, 0.1])],
        d_q=1, d_r=2,
    )
    rates, clamped, top = predict(model, [[0.0]])
    np.testing.assert_array_equal(rates, [[0.0, 1.0]])
    np.testing.assert_array_equal(clamped, [[True, True]])
    np.testing.assert_array_equal(top, [0])
    in_range = _model([1.0], [[0.0, 0.3, 0.6]], [np.diag([1, 0.1, 0.1])], d_q=1, d_r=2)
    rates, clamped, top = predict(in_range, [[0.0]])
    np.testing.assert_array_equal(rates, [[0.3, 0.6]])
    np.testing.assert_array_equal(clamped, [[False, False]])
    np.testing.assert_array_equal(top, [0])


def test_predict_clamps_flags_and_ranks_each_row():
    model = _model(
        [0.5, 0.5],
        [[-3.0, -0.5, 1.5], [3.0, 0.3, 0.6]],
        [np.diag([1.0, 0.1, 0.1])] * 2,
        d_q=1, d_r=2,
    )
    rates, clamped, top = predict(model, [[-3.0], [3.0]])
    np.testing.assert_allclose(rates, [[0.0, 1.0], [0.3, 0.6]], atol=1e-12)
    np.testing.assert_array_equal(clamped, [[True, True], [False, False]])
    np.testing.assert_array_equal(top, [0, 1])
    with pytest.raises(ValidationError, match="model expects 1"):
        predict(model, [[0.0, 1.0]])
    with pytest.raises(ValidationError, match="matrix"):
        predict(model, [0.0, 1.0])
    with pytest.raises(ValidationError, match="finite"):
        predict(model, [[math.inf]])


# ----------------------------------------------------------- serialization


def test_model_json_round_trip_is_exact():
    data = _blob_data(16, n=240)
    fit = em_fit(data, 2, "VVV", d_q=2, d_r=1, seed=8)
    point = OperatingPoint(0.123456789012345678, "FMR<=0.001")
    text = dump_model_json(fit, point)
    back, back_point = load_model_json(text)
    np.testing.assert_array_equal(back.weights, fit.weights)
    np.testing.assert_array_equal(back.means, fit.means)
    np.testing.assert_array_equal(back.covariances, fit.covariances)
    assert back.parametrization == fit.parametrization
    assert back.d_q == fit.d_q and back.d_r == fit.d_r
    assert back_point.threshold == point.threshold
    assert back_point.label == point.label
    assert back.fit_meta["loglik"] == fit.fit_meta["loglik"]
    assert back.fit_meta["bic"] == fit.fit_meta["bic"]
    # a second round trip is byte-identical up to the dropped trace fields
    assert dump_model_json(back, back_point) == text


def test_model_dict_contract():
    doc = model_to_dict(_FROZEN)
    assert doc["version"] == 1
    assert doc["K"] == 2
    assert doc["d_q"] == 1 and doc["d_r"] == 1
    assert doc["operating_point"] is None
    model, point = model_from_dict(doc)
    assert point is None
    np.testing.assert_array_equal(model.weights, _FROZEN.weights)


def test_model_format_version_is_enforced():
    doc = model_to_dict(_FROZEN)
    doc["version"] = 2
    with pytest.raises(ValidationError):
        model_from_dict(doc)
    with pytest.raises(ValidationError):
        load_model_json("{not json")


@pytest.mark.parametrize("field", ["d_q", "d_r"])
@pytest.mark.parametrize("value", [2.7, True])
def test_model_dimensions_must_be_integers(field, value):
    doc = model_to_dict(_FROZEN)
    doc[field] = value
    with pytest.raises(ValidationError, match=f"model field '{field}' is malformed"):
        model_from_dict(doc)


@pytest.mark.parametrize("cov, message", [
    ([[1.0, 0.6], [0.6 + 1e-16, 1.0]], None),  # rounding-level asymmetry is kept
    ([[1.0, 0.6], [0.5, 1.0]], "covariance 1 is not symmetric"),
    ([[1e308, 1.7e308], [-1.7e308, 1e308]], "covariance 1 is not symmetric"),
    ([[1.0, 2.0], [2.0, 1.0]], "covariance 1 is not positive definite"),
    ([[0.0, 0.0], [0.0, 1.0]], "covariance 1 is not positive definite"),
])
def test_model_covariances_must_be_symmetric_positive_definite(cov, message):
    doc = model_to_dict(_FROZEN)
    doc["covariances"][1] = cov
    if message is None:
        model, _ = model_from_dict(doc)
        np.testing.assert_array_equal(model.covariances[1], cov)
    else:
        with pytest.raises(ValidationError, match=message):
            model_from_dict(doc)


def test_model_weight_validation():
    with pytest.raises(ValidationError):
        _model([0.5, 0.6], _FROZEN.means, _FROZEN.covariances)
    with pytest.raises(ValidationError):
        _model([1.0], [[0.0, 0.0]], [np.eye(2)], d_q=2, d_r=1)


# ---------------------------------- batched kernels vs per-component loops
#
# The references below are the per-component loops the library's batched
# E-step, M-step and conditioning replaced. The batched log-densities and
# conditioning sum in another order, so they agree to a tolerance; the
# M-step scatter and the ridge repair agree bit for bit.


def _chol_logpdf(data, mean, cov):
    chol = np.linalg.cholesky(cov)
    diff = np.atleast_2d(data) - mean
    solved = solve_triangular(chol, diff.T, lower=True)
    quad = np.sum(solved * solved, axis=0)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    d = mean.shape[0]
    return -0.5 * (d * math.log(2.0 * math.pi) + logdet + quad)


def _reference_log_densities(data, weights, means, covs):
    return np.array([
        math.log(max(w, _TINY)) + _chol_logpdf(data, m, c)
        for w, m, c in zip(weights, means, covs)
    ])


def _reference_ensure_spd(cov, context, counters):
    cov = 0.5 * (cov + cov.T)
    try:
        np.linalg.cholesky(cov)
        return cov
    except np.linalg.LinAlgError:
        pass
    d = cov.shape[0]
    trace = float(np.trace(cov))
    ridge = mixture.RIDGE_FACTOR * (trace / d if trace > 0 else 1.0)
    for _ in range(8):
        candidate = cov + ridge * np.eye(d)
        try:
            np.linalg.cholesky(candidate)
            counters["ridge_events"] = counters.get("ridge_events", 0) + 1
            logging.getLogger(mixture.__name__).warning(
                "%s: added ridge %.3e to restore positive definiteness", context, ridge
            )
            return candidate
        except np.linalg.LinAlgError:
            ridge *= 10.0
    raise NumericError(f"{context}: covariance cannot be made positive definite")


def _reference_shape_normalize(diag_values: np.ndarray) -> tuple[np.ndarray, float]:
    """Split a positive diagonal into (unit-determinant shape, volume)."""
    safe = np.maximum(diag_values, _TINY)
    log_vol = float(np.mean(np.log(safe)))
    volume = math.exp(log_vol)
    return safe / volume, volume


def _reference_project_covariances(
    code: str,
    scatter: np.ndarray,
    nk: np.ndarray,
    prev_cov: np.ndarray | None,
) -> np.ndarray:
    """Constrained M-step for the covariances.

    scatter: (K, d, d) responsibility-weighted scatter around the new means.
    Families with coupled volume/shape (VEI, VEV) run a coordinate-descent
    inner loop warm-started from the previous covariances so the EM
    objective never decreases. VEV re-pairs eigenvalues with the shared shape
    inside the same budgeted loop; EEV's shared shape is closed-form.
    """
    k, d, _ = scatter.shape
    n_total = float(np.sum(nk))

    if code == "EII":
        lam = float(np.trace(scatter.sum(axis=0))) / (n_total * d)
        return np.broadcast_to(lam * np.eye(d), (k, d, d)).copy()
    if code == "VII":
        lam = np.trace(scatter, axis1=1, axis2=2) / (np.maximum(nk, _TINY) * d)
        return lam[:, None, None] * np.eye(d)
    if code == "EEI":
        diag = np.diagonal(scatter.sum(axis=0)) / n_total
        return np.broadcast_to(np.diag(diag), (k, d, d)).copy()
    if code == "VVI":
        out = np.zeros((k, d, d))
        out[:, range(d), range(d)] = (
            np.diagonal(scatter, axis1=1, axis2=2) / np.maximum(nk, _TINY)[:, None]
        )
        return out
    if code == "EVI":
        shapes = np.empty((k, d))
        volumes = np.empty(k)
        for j in range(k):
            shapes[j], volumes[j] = _reference_shape_normalize(np.diagonal(scatter[j]))
        lam = float(np.sum(volumes)) / n_total
        return np.array([np.diag(lam * shapes[j]) for j in range(k)])
    if code == "VEI":
        diags = np.array([np.diagonal(scatter[j]) for j in range(k)])
        if prev_cov is not None:
            lam = np.array(
                [math.exp(float(np.mean(np.log(np.maximum(np.diagonal(c), _TINY)))))
                 for c in prev_cov]
            )
        else:
            lam = np.array(
                [float(np.trace(scatter[j])) / (max(nk[j], _TINY) * d) for j in range(k)]
            )
        lam = np.maximum(lam, _TINY)
        shape = np.ones(d)
        for _ in range(ORIENTATION_INNER_ITER):
            shape_new, _ = _reference_shape_normalize((diags / lam[:, None]).sum(axis=0))
            lam_new = np.maximum(
                (diags / shape_new[None, :]).sum(axis=1) / (np.maximum(nk, _TINY) * d),
                _TINY,
            )
            done = np.allclose(lam_new, lam, rtol=1e-12) and np.allclose(
                shape_new, shape, rtol=1e-12
            )
            lam, shape = lam_new, shape_new
            if done:
                break
        return np.array([np.diag(lam[j] * shape) for j in range(k)])
    if code == "EEE":
        pooled = scatter.sum(axis=0) / n_total
        return np.broadcast_to(pooled, (k, d, d)).copy()
    if code == "VVV":
        return scatter / np.maximum(nk, _TINY)[:, None, None]

    # orientation families: eigendecompose each scatter, eigenvalues descending
    vals, vecs = np.linalg.eigh(0.5 * (scatter + np.swapaxes(scatter, 1, 2)))
    order = np.argsort(vals, axis=1)[:, ::-1]
    eigvals = np.maximum(np.take_along_axis(vals, order, axis=1), 0.0)
    eigvecs = np.take_along_axis(vecs, order[:, None, :], axis=2)

    if code == "EEV":
        shape, volume = _reference_shape_normalize(eigvals.sum(axis=0))
        lam = volume / n_total
        return (eigvecs * (lam * shape)) @ np.swapaxes(eigvecs, 1, 2)
    if code == "VEV":
        if prev_cov is not None:
            lam = np.empty(k)
            for j in range(k):
                sign, logdet = np.linalg.slogdet(prev_cov[j])
                lam[j] = math.exp(logdet / d) if sign > 0 else _TINY
        else:
            lam = np.array(
                [float(np.trace(scatter[j])) / (max(nk[j], _TINY) * d) for j in range(k)]
            )
        lam = np.maximum(lam, _TINY)
        shape = np.ones(d)
        for _ in range(ORIENTATION_INNER_ITER):
            shape_new, _ = _reference_shape_normalize((eigvals / lam[:, None]).sum(axis=0))
            lam_new = np.maximum(
                (eigvals / shape_new[None, :]).sum(axis=1) / (np.maximum(nk, _TINY) * d),
                _TINY,
            )
            done = np.allclose(lam_new, lam, rtol=1e-12) and np.allclose(
                shape_new, shape, rtol=1e-12
            )
            lam, shape = lam_new, shape_new
            if done:
                break
        return (eigvecs * (lam[:, None, None] * shape)) @ np.swapaxes(eigvecs, 1, 2)
    raise ValidationError(f"unknown covariance family {code!r}")


# The letter-driven projection reproduces the per-family one bit for bit where
# the arithmetic is the same; where it splits eigenvalues into volume and shape,
# numpy's vectorised exp may differ from math.exp in the last bit.
_BIT_EXACT_FAMILIES = ("EII", "VII", "EEI", "VVI", "EEE", "VVV")


def _assert_matches_reference_projection(code, got, ref):
    if code in _BIT_EXACT_FAMILIES:
        np.testing.assert_array_equal(got, ref)
    else:
        # relative to each component's largest entry; the inf and nan a
        # degenerate scatter gives must appear in the same places
        scale = np.max(np.abs(ref), axis=(1, 2), keepdims=True)
        with np.errstate(invalid="ignore", divide="ignore"):
            np.testing.assert_allclose(got / scale, ref / scale, rtol=0, atol=1e-12)


def _reference_scatter(data, resp):
    nk = resp.sum(axis=1)
    means = (resp @ data) / np.maximum(nk, _TINY)[:, None]
    scatter = np.empty((resp.shape[0], data.shape[1], data.shape[1]))
    for j in range(resp.shape[0]):
        diff = data - means[j]
        scatter[j] = (resp[j][:, None] * diff).T @ diff
    return nk, means, scatter


def _shared_shape_is_singular(code, scatter):
    """Whether VEI's scatter diagonals or VEV's clamped eigenvalues, summed over
    the components, are zero up to rounding on some axes and positive on others.

    The shared shape then has no estimate; the coordinate descent chases it
    into clamp artifacts, rounding noise or overflow (on two rows in 5-d, a
    variance of 2.2 comes out as 1.9e11).
    """
    if code == "VEI":
        vals = np.diagonal(scatter, axis1=1, axis2=2)
    elif code == "VEV":
        vals = np.maximum(np.linalg.eigh(0.5 * (scatter + np.swapaxes(scatter, 1, 2)))[0], 0.0)
    else:
        return False
    pooled = vals.sum(axis=0)
    return bool(0.0 < pooled.max() and pooled.min() <= mixture.SHAPE_RTOL * pooled.max())


def _reference_m_step(data, resp, code, project=_reference_project_covariances):
    nk, means, scatter = _reference_scatter(data, resp)
    covs = project(code, scatter, nk, None)
    counters = {}
    covs = np.array([
        _reference_ensure_spd(c, f"component {j}", counters) for j, c in enumerate(covs)
    ])
    return nk / data.shape[0], means, covs, counters


def _reference_condition(model, q):
    """Per-component conditioning; also returns the log-weights and the
    magnitude of the terms summed into each conditional mean."""
    dq = model.d_q
    k = model.n_components
    log_w = np.empty(k)
    cond_means = np.empty((k, model.d_r))
    mean_terms = np.empty((k, model.d_r))
    cond_covs = np.empty((k, model.d_r, model.d_r))
    for j in range(k):
        cov = model.covariances[j]
        mu_q, mu_r = model.means[j, :dq], model.means[j, dq:]
        qq = _reference_ensure_spd(cov[:dq, :dq], f"quality block of component {j}", {})
        log_w[j] = math.log(max(model.weights[j], _TINY)) + float(
            _chol_logpdf(q, mu_q, qq)[0]
        )
        solved = np.linalg.solve(qq, cov[:dq, dq:])
        cond_means[j] = mu_r + (q - mu_q) @ solved
        mean_terms[j] = np.abs(mu_r) + np.abs(q - mu_q) @ np.abs(solved)
        cond_covs[j] = cov[dq:, dq:] - cov[:dq, dq:].T @ solved
    psi = np.exp(log_w - logsumexp(log_w))
    psi /= psi.sum()
    return psi, cond_means, cond_covs, psi @ cond_means, log_w, mean_terms


def _spd_stack(rng, k, d, log_cond):
    """K random SPD matrices with eigenvalues spanning [10**-log_cond, 1]."""
    covs = np.empty((k, d, d))
    for j in range(k):
        basis, _ = np.linalg.qr(rng.normal(size=(d, d)))
        eig = 10.0 ** rng.uniform(-log_cond, 0.0, size=d)
        eig[0], eig[-1] = 1.0, 10.0 ** -log_cond
        covs[j] = (basis * eig) @ basis.T
    return 0.5 * (covs + np.swapaxes(covs, 1, 2))


@st.composite
def _mixtures(draw, min_d=1):
    k = draw(st.integers(1, 6))
    d = draw(st.integers(min_d, 5))
    n = draw(st.integers(1, 50))
    weights = draw(st.lists(
        st.just(0.0) | st.floats(1e-300, 1.0), min_size=k, max_size=k
    ))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    covs = _spd_stack(rng, k, d, draw(st.floats(0.0, 8.0)))
    means = rng.normal(size=(k, d))
    data = rng.normal(size=(n, d)) * 2.0
    return data, np.asarray(weights), means, covs


@settings(max_examples=150, deadline=None)
@given(_mixtures())
def test_batched_log_densities_match_per_component_loop(case):
    data, weights, means, covs = case
    got = mixture._log_component_densities(data, weights, means, covs)
    ref = _reference_log_densities(data, weights, means, covs)
    assert got.shape == ref.shape == (len(weights), data.shape[0])
    np.testing.assert_allclose(got, ref, rtol=1e-10)


_LOG_ENTRIES = st.just(-np.inf) | st.floats(-1e3, 1e3)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda k: st.lists(st.lists(_LOG_ENTRIES, min_size=k, max_size=k),
                           min_size=1, max_size=20)
    ),
    st.integers(0, 5),
)
def test_numpy_logsumexp_matches_scipy(rows, finite_at):
    a = np.array(rows)
    a[0] = -np.inf  # an all -inf row
    if a.shape[0] > 1:  # a row with a single finite entry
        a[1] = -np.inf
        a[1, finite_at % a.shape[1]] = -3.5
    for axis in (0, 1):
        got = mixture._logsumexp(a, axis=axis)
        ref = logsumexp(a, axis=axis)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-13)
    assert mixture._logsumexp(a[0]) == -np.inf
    if a.shape[0] > 1:
        assert mixture._logsumexp(a[1]) == -3.5


@settings(max_examples=150, deadline=None)
@given(_mixtures(), st.sampled_from(PARAMETRIZATIONS), st.integers(0, 2**32 - 1))
# one row: the scatters are exactly zero on some axes and hold rounding residue
# (4.9e-34) on others; the reference's coordinate descent overflows to inf
@example(case=(np.array([[-2.01923637, -0.41835115, -0.31845002]]), None, None, None),
         code="VEI", seed=1)
@example(case=(np.array([[1.80694036, 0.1880246, -1.4869985, -1.84345075]]), None, None, None),
         code="VEV", seed=5873)
def test_batched_m_step_matches_per_component_loop(case, code, seed):
    data, _, _, _ = case
    rng = np.random.default_rng(seed)
    resp = rng.dirichlet(np.ones(3), size=(data.shape[0], 6))[:, :, 0].T
    resp = resp[: rng.integers(1, 7)]
    counters = {}
    with np.errstate(all="ignore"):  # the reference overflows where _m_step raises
        ref_weights, ref_means, ref_covs, _ = _reference_m_step(data, resp, code)
    if (not np.all(np.isfinite(ref_covs))
            or _shared_shape_is_singular(code, _reference_scatter(data, resp)[2])):
        with pytest.raises(NumericError):
            mixture._m_step(data, resp, code, None, counters)
        return
    weights, means, covs = mixture._m_step(data, resp, code, None, counters)
    np.testing.assert_array_equal(weights, ref_weights)
    np.testing.assert_array_equal(means, ref_means)
    _assert_matches_reference_projection(code, covs, ref_covs)
    # the scatter is stored so that BLAS sums it in the loop's order
    _, _, loop_covs, loop_counters = _reference_m_step(
        data, resp, code, mixture._project_covariances
    )
    np.testing.assert_array_equal(covs, loop_covs)
    assert counters == loop_counters


@st.composite
def _scatters(draw):
    """Random full-rank scatters, counts and optional previous covariances."""
    k = draw(st.integers(1, 6))
    d = draw(st.integers(1, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    nk = 10.0 ** rng.uniform(-3.0, 3.0, size=k)
    scale = 10.0 ** draw(st.floats(-3.0, 3.0))
    scatter = scale * nk[:, None, None] * _spd_stack(rng, k, d, draw(st.floats(0.0, 4.0)))
    # the previous iterate, like EM's, is a covariance stack of the same family
    prev_scatter = None
    if draw(st.booleans()):
        prev_scatter = scale * nk[:, None, None] * _spd_stack(rng, k, d, 4.0)
    return scatter, nk, prev_scatter


@settings(max_examples=200, deadline=None)
@given(_scatters())
def test_letter_projection_matches_per_family_reference(case):
    scatter, nk, prev_scatter = case
    for code in PARAMETRIZATIONS:
        prev = None
        if prev_scatter is not None:
            prev = _reference_project_covariances(code, prev_scatter, nk, None)
        got = mixture._project_covariances(code, scatter, nk, prev)
        ref = _reference_project_covariances(code, scatter, nk, prev)
        assert got.shape == ref.shape == scatter.shape
        _assert_matches_reference_projection(code, got, ref)
        scale = max(1.0, float(np.max(np.abs(got))))
        assert family_violation(code, got) <= 1e-8 * scale


def test_ensure_spd_repairs_each_component_like_the_loop(caplog):
    rng = np.random.default_rng(17)
    covs = _spd_stack(rng, 4, 3, 3.0)
    covs[1] = np.diag([1.0, 1.0, 0.0])  # singular
    covs[3] = np.diag([2.0, -1e-9, 1.0])  # slightly indefinite
    covs[2, 0, 1] += 1e-3  # asymmetric: symmetrised, not ridged
    counters, ref_counters = {}, {}
    with caplog.at_level(logging.WARNING, logger=mixture.__name__):
        got = mixture._ensure_spd(covs, "component", counters)
        batched_log = [r.getMessage() for r in caplog.records]
        caplog.clear()
        ref = np.array([
            _reference_ensure_spd(c, f"component {j}", ref_counters)
            for j, c in enumerate(covs)
        ])
        reference_log = [r.getMessage() for r in caplog.records]
    np.testing.assert_array_equal(got, ref)
    assert counters == ref_counters == {"ridge_events": 2}
    assert batched_log == reference_log
    assert [m.split(":")[0] for m in batched_log] == ["component 1", "component 3"]
    with pytest.raises(NumericError, match="component 0"):
        mixture._ensure_spd(np.array([[[-1.0]]]), "component", {})


@settings(max_examples=150, deadline=None)
@given(_mixtures(min_d=2), st.integers(1, 4))
def test_batched_condition_matches_per_component_loop(case, d_q):
    data, weights, means, covs = case
    d_q = min(d_q, means.shape[1] - 1)
    weights = np.maximum(weights, 1e-12)
    model = _model(weights / weights.sum(), means, covs,
                   d_q=d_q, d_r=means.shape[1] - d_q)
    q = data[0, :d_q]
    pred = condition(model, q)
    psi, cond_means, cond_covs, expectation, log_w, mean_terms = (
        _reference_condition(model, q)
    )
    # psi moves by psi * (error in a log-weight difference)
    psi_tol = 1e-10 * max(1.0, float(np.max(np.abs(log_w))))
    np.testing.assert_allclose(pred.psi, psi, rtol=0, atol=psi_tol)
    np.testing.assert_allclose(pred.cond_means, cond_means, rtol=0,
                               atol=1e-10 * float(np.max(mean_terms)))
    np.testing.assert_allclose(pred.cond_covs, cond_covs, rtol=0, atol=1e-10)
    np.testing.assert_allclose(
        pred.expectation, expectation, rtol=0,
        atol=(psi_tol + 1e-10) * float(np.max(mean_terms)) * len(psi),
    )


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 9),
    st.integers(1, 3),
    st.sampled_from([1, 2, 7, 64]),
    st.integers(0, 2**32 - 1),
)
def test_predict_rows_equal_one_query_conditioning(k, d_q, m, seed):
    rng = np.random.default_rng(seed)
    d = d_q + 2
    weights = rng.dirichlet(np.ones(k))
    model = _model(weights, rng.normal(0.5, 1.0, size=(k, d)),
                   _spd_stack(rng, k, d, rng.uniform(0.0, 4.0)), d_q=d_q, d_r=2)
    queries = rng.normal(size=(m, d_q)) * 2.0
    rates, clamped, top = predict(model, queries)
    assert rates.shape == clamped.shape == (m, 2) and top.shape == (m,)
    for i, q in enumerate(queries):
        pred = condition(model, q)
        expected = np.clip(pred.expectation, 0.0, 1.0)
        assert rates[i].tobytes() == expected.tobytes()
        np.testing.assert_array_equal(clamped[i], pred.expectation != expected)
        assert top[i] == np.argmax(pred.psi)
