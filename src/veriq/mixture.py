"""Gaussian mixtures with constrained covariance families.

The joint space is split into a quality block (first d_q axes) and a
performance block (last d_r axes). EM fits K components whose covariances
obey a three-letter family code: the letters constrain volume, shape and
orientation in the decomposition cov = volume * orientation @ shape
@ orientation^T, with E meaning shared across components, V varying and
I identity (axis-aligned). Model selection maximizes
BIC = 2*loglik - n_params*ln(N); larger is better. Conditioning on a
quality vector yields per-component conditional Gaussians, reweighted by
the component marginal densities at that vector.
"""

from __future__ import annotations

import json
import logging
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ValidationError
from .errormodel import OperatingPoint

logger = logging.getLogger(__name__)

PARAMETRIZATIONS = (
    "EII", "VII", "EEI", "VEI", "EVI", "VVI", "EEE", "EEV", "VEV", "VVV",
)

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 500
EM_RETRIES = 5
ORIENTATION_INNER_ITER = 20
RIDGE_FACTOR = 1e-8
# eigh leaves a zero eigenvalue as a residue of a few eps times the largest
SHAPE_RTOL = 1e-12
SQUAREM_STEP_FACTOR = 4.0
# a loaded covariance may be asymmetric by this much of its largest entry
SYMMETRY_RTOL = 1e-12
# a loaded stack may miss its family by this much (see model_from_dict); a
# ridged fit misses by about 1e-8
FAMILY_RTOL = 1e-6
_TINY = 1e-300


def n_cov_params(code: str, k: int, d: int) -> int:
    """Free covariance parameters for one family across K components.

    Volume (1), shape (d - 1) and orientation (d(d - 1)/2) each count once if
    shared (E), K times if free per component (V), not at all if the identity (I).
    """
    if code not in PARAMETRIZATIONS:
        raise ValidationError(f"unknown covariance family {code!r}")
    copies = {"E": 1, "V": k, "I": 0}
    volume, shape, orientation = (copies[letter] for letter in code)
    return volume + shape * (d - 1) + orientation * (d * (d - 1) // 2)


def n_params(code: str, k: int, d: int) -> int:
    """Total free parameters: weights, means, constrained covariances."""
    return (k - 1) + k * d + n_cov_params(code, k, d)


@dataclass(frozen=True)
class MixtureModel:
    """Fitted mixture over the joint (quality, performance) space."""

    weights: np.ndarray
    means: np.ndarray
    covariances: np.ndarray
    parametrization: str
    d_q: int
    d_r: int
    fit_meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.parametrization not in PARAMETRIZATIONS:
            raise ValidationError(
                f"unknown covariance family {self.parametrization!r}"
            )
        arrays = (self.weights, self.means, self.covariances)
        shape = self.means.shape
        if (len(shape) != 2 or self.weights.shape != shape[:1]
                or self.covariances.shape != shape + shape[1:]):
            raise ValidationError(
                "weights, means and covariances must have shapes (K,), (K, d) and "
                f"(K, d, d); got {', '.join(str(a.shape) for a in arrays)}"
            )
        if not all(np.all(np.isfinite(a)) for a in arrays):
            raise ValidationError("mixture parameters must be finite")
        if np.any(self.weights < 0):
            raise ValidationError("mixture weights must be non-negative")
        # a weight above 1 is caught before the sum, which it could overflow
        if np.any(self.weights > 1) or abs(float(np.sum(self.weights)) - 1.0) > 1e-12:
            raise ValidationError("mixture weights must sum to 1")
        if self.d_q + self.d_r != self.means.shape[1]:
            raise ValidationError("d_q + d_r must equal the data dimension")

    @property
    def n_components(self) -> int:
        return self.weights.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    @property
    def n_params(self) -> int:
        return n_params(self.parametrization, self.n_components, self.dim)


@dataclass(frozen=True)
class ConditionalPrediction:
    """Conditional mixture over the performance block at one quality point."""

    psi: np.ndarray
    cond_means: np.ndarray
    cond_covs: np.ndarray
    expectation: np.ndarray


@dataclass(frozen=True)
class SearchCell:
    """One (K, family) entry of the model-search table.

    The solver counts are those of the cell's fit_meta; converged means EM
    stopped before max_iter. A failed cell carries zeros and converged=False.
    """

    k: int
    parametrization: str
    n_params: int
    loglik: float
    bic: float
    status: str
    n_iter: int = 0
    restarts: int = 0
    ridge_events: int = 0
    extrapolations: int = 0
    converged: bool = False


def _logsumexp(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """log(sum(exp(a))) along axis, max-shifted; an all -inf slice gives -inf."""
    peak = np.max(a, axis=axis, keepdims=True)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    with np.errstate(divide="ignore"):
        total = np.log(np.sum(np.exp(a - peak), axis=axis))
    return total + np.squeeze(peak, axis=axis)


def _ridge_one(cov: np.ndarray, context: str, counters: dict) -> np.ndarray:
    """cov if it is SPD, else cov plus the smallest logged ridge that makes it so."""
    try:
        np.linalg.cholesky(cov)
        return cov
    except np.linalg.LinAlgError:
        pass
    d = cov.shape[0]
    trace = float(np.trace(cov))
    ridge = RIDGE_FACTOR * (trace / d if trace > 0 else 1.0)
    for _ in range(8):
        candidate = cov + ridge * np.eye(d)
        try:
            np.linalg.cholesky(candidate)
            counters["ridge_events"] = counters.get("ridge_events", 0) + 1
            logger.warning("%s: added ridge %.3e to restore positive definiteness",
                           context, ridge)
            return candidate
        except np.linalg.LinAlgError:
            ridge *= 10.0
    raise NumericError(f"{context}: covariance cannot be made positive definite")


def _ensure_spd(
    covs: np.ndarray, context: str, counters: dict, cholesky=np.linalg.cholesky
) -> np.ndarray:
    """Return SPD versions of a (K, d, d) stack, adding a logged ridge when needed.

    The symmetrized stack is factored by cholesky (an EM run's
    _Workspace.cholesky keeps the factor for the next E-step). Only when
    that fails is each component ("{context} {j}") checked and ridged on
    its own.
    """
    covs = 0.5 * (covs + np.swapaxes(covs, 1, 2))
    try:
        cholesky(covs)
        return covs
    except np.linalg.LinAlgError:
        pass
    return np.array(
        [_ridge_one(cov, f"{context} {j}", counters) for j, cov in enumerate(covs)]
    )


def family_violation(code: str, covs) -> float:
    """Worst absolute deviation of a (K, d, d) stack from its family's structure.

    0 means the structure holds exactly. Every stack is checked for symmetry
    and the diagonal families for zero off-diagonal entries; then each family
    compares what its letters share or fix: the diagonal entries (EII, VII,
    EEI), the unit-determinant diagonal shapes (VEI) or the diagonal volumes
    (EVI), the whole matrices (EEE), the eigenvalues (EEV) or the
    unit-determinant eigenvalue shapes (VEV). The shapes are unitless; the
    other deviations are in the covariances' units.
    """
    covs = np.asarray(covs, dtype=float)
    dev = float(np.max(np.abs(covs - np.swapaxes(covs, 1, 2))))
    diags = np.diagonal(covs, axis1=1, axis2=2)
    if code in ("EII", "VII", "EEI", "VEI", "EVI", "VVI"):
        off = covs - diags[:, :, None] * np.eye(covs.shape[1])
        dev = max(dev, float(np.max(np.abs(off))))
    if code in ("VEV", "EEV"):
        eigs = np.sort(np.linalg.eigvalsh(covs), axis=1)
    if code == "EII":
        spread = diags - diags[0, 0]
    elif code == "VII":
        spread = diags - diags[:, :1]
    elif code == "EEI":
        spread = diags - diags[0]
    elif code in ("VEI", "VEV"):
        values = diags if code == "VEI" else eigs
        shapes = values / np.exp(np.mean(np.log(values), axis=1, keepdims=True))
        spread = shapes - shapes[0]
    elif code == "EVI":
        volumes = np.exp(np.mean(np.log(diags), axis=1))
        spread = volumes - volumes[0]
    elif code == "EEE":
        spread = covs - covs[0]
    elif code == "EEV":
        spread = eigs - eigs[0]
    else:  # VVI, VVV
        return dev
    return max(dev, float(np.max(np.abs(spread))))


def _shape_normalize(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split positive values along the last axis into (unit-determinant shape, volume)."""
    safe = np.maximum(values, _TINY)
    volume = np.exp(np.mean(np.log(safe), axis=-1, keepdims=True))
    return safe / volume, volume


def _shape_is_singular(vals: np.ndarray) -> bool:
    """Whether some row of vals is positive on some axes and zero, up to
    rounding, on others: that shape has no estimate, and splitting it into
    volume and shape chases rounding noise into overflow."""
    top = vals.max(axis=-1)
    return bool(np.any((0.0 < top) & (vals.min(axis=-1) <= SHAPE_RTOL * top)))


def _project_covariances(
    code: str,
    scatter: np.ndarray,
    nk: np.ndarray,
    prev_cov: np.ndarray | None,
) -> np.ndarray:
    """Constrained M-step for the covariances, read from the family's letters.

    cov_k = lam_k * D_k diag(A_k) D_k^T: volume lam_k, unit-determinant shape
    A_k, orientation D_k. The code's letters say whether each is shared (E),
    free per component (V) or the identity (I) (Celeux & Govaert 1995).
    scatter: (K, d, d) responsibility-weighted scatter around the new means.
    When the letters other than I agree, the pooled (E) or per-component (V)
    scatter over its count is the estimate: its trace if the shape is I, its
    diagonal if the orientation is I. Otherwise the eigenvalues (the diagonal
    if the orientation is I) are split into volume and shape: EEV pools both,
    EVI the volume, and VEI/VEV share the shape by a coordinate descent
    warm-started from prev_cov, so the EM objective never decreases.
    """
    volume, shape, orientation = code
    k, d, _ = scatter.shape
    n_total = float(np.sum(nk))
    counts = np.maximum(nk, _TINY)
    vecs = None
    if len(set(code) - {"I"}) == 1:
        if volume == "E":
            base, count = scatter.sum(axis=0, keepdims=True), np.array([n_total])
        else:
            base, count = scatter, counts
        if shape == "I":
            lam = np.trace(base, axis1=1, axis2=2) / (count * d)
            eig = np.repeat(lam[:, None], d, axis=1)
        elif orientation == "I":
            eig = np.diagonal(base, axis1=1, axis2=2) / count[:, None]
        else:
            return np.broadcast_to(base / count[:, None, None], (k, d, d)).copy()
    else:
        if orientation == "I":
            vals = np.diagonal(scatter, axis1=1, axis2=2)
        else:  # eigenvalues descending, with their eigenvectors
            vals, vecs = np.linalg.eigh(0.5 * (scatter + np.swapaxes(scatter, 1, 2)))
            order = np.argsort(vals, axis=1)[:, ::-1]
            vals = np.maximum(np.take_along_axis(vals, order, axis=1), 0.0)
            vecs = np.take_along_axis(vecs, order[:, None, :], axis=2)
        if volume == shape:  # EEV
            unit, lam = _shape_normalize(vals.sum(axis=0))
            eig = lam / n_total * unit
        elif volume == "E":  # EVI
            if _shape_is_singular(vals):
                raise NumericError("EVI component shape is singular")
            unit, lam = _shape_normalize(vals)
            eig = float(np.sum(lam)) / n_total * unit
        else:  # VEI, VEV
            if _shape_is_singular(vals.sum(axis=0)):
                raise NumericError(f"{code} shared shape is singular")
            if prev_cov is None:
                lam = np.trace(scatter, axis1=1, axis2=2) / (counts * d)
            else:
                sign, logdet = np.linalg.slogdet(prev_cov)
                lam = np.where(sign > 0, np.exp(logdet / d), _TINY)
            lam = np.maximum(lam, _TINY)
            unit = np.ones(d)
            for _ in range(ORIENTATION_INNER_ITER):
                unit_new, _ = _shape_normalize((vals / lam[:, None]).sum(axis=0))
                lam_new = np.maximum((vals / unit_new).sum(axis=1) / (counts * d), _TINY)
                done = all(
                    np.all(np.abs(new - old) <= 1e-8 + 1e-12 * np.abs(old))
                    for new, old in ((lam_new, lam), (unit_new, unit))
                )
                lam, unit = lam_new, unit_new
                if done:
                    break
            eig = lam[:, None] * unit
    if vecs is not None:
        return (vecs * eig[..., None, :]) @ np.swapaxes(vecs, 1, 2)
    out = np.zeros((k, d, d))
    out[:, range(d), range(d)] = eig
    return out


def _kmeans_pp_centers(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ centers; each row's squared distance to its nearest center
    is updated with the newest center only."""
    n = data.shape[0]
    centers = [data[int(rng.integers(n))]]
    dist2 = np.full(n, np.inf)
    for _ in range(1, k):
        delta = data - centers[-1]
        dist2 = np.minimum(dist2, np.sum(delta * delta, axis=1))
        total = float(dist2.sum())
        if total <= 0.0:
            centers.append(data[int(rng.integers(n))])
        else:
            centers.append(data[int(rng.choice(n, p=dist2 / total))])
    return np.asarray(centers)


def _initial_responsibilities(
    data: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding on standardized data, then one hard assignment."""
    mu = data.mean(axis=0)
    sd = data.std(axis=0)
    sd[sd == 0.0] = 1.0
    standardized = (data - mu) / sd
    centers = _kmeans_pp_centers(standardized, k, rng)
    deltas = standardized[:, None, :] - centers[None, :, :]
    assign = np.argmin(np.sum(deltas * deltas, axis=2), axis=1)
    resp = np.zeros((k, data.shape[0]))
    resp[assign, np.arange(data.shape[0])] = 1.0
    return resp


class _Workspace:
    """The scratch arrays of one EM run with K components on an (N, d) matrix.

    Each step writes its (K, d, N) temporaries into the same two buffers
    instead of allocating them. Means and covariance stacks are never
    changed in place, so the latest ones are known by identity: the E-step
    that follows an M-step reuses its centered data, and the one that
    follows an M-step or an admissibility check reuses its Cholesky factor.
    No array a step returns is a view of a buffer.
    """

    def __init__(self, data: np.ndarray, k: int):
        self._data_t = np.ascontiguousarray(data.T)
        d, n = self._data_t.shape
        self._centered = (None, np.empty((k, d, n)))
        spare = np.empty(k * d * n)
        # point-major weighted differences make BLAS sum each scatter in the
        # order of a per-component loop; another order flips EM's float-level ties
        self.weighted = spare.reshape(k, n, d).transpose(0, 2, 1)
        self.whitened = spare.reshape(k, d, n)
        self._factored = (None, None)

    def centered(self, means: np.ndarray) -> np.ndarray:
        """The (K, d, N) differences data - means, computed once for the latest means."""
        if self._centered[0] is not means:
            out = self._centered[1]
            self._centered = (means, np.subtract(self._data_t, means[:, :, None], out=out))
        return self._centered[1]

    def cholesky(self, covs: np.ndarray) -> np.ndarray:
        """np.linalg.cholesky(covs), computed once for the latest stack."""
        if self._factored[0] is not covs:
            self._factored = (covs, np.linalg.cholesky(covs))
        return self._factored[1]


def _m_step(
    data: np.ndarray,
    resp: np.ndarray,
    code: str,
    prev_cov: np.ndarray | None,
    counters: dict,
    workspace: _Workspace | None = None,
):
    if workspace is None:
        workspace = _Workspace(data, len(resp))
    n = data.shape[0]
    nk = resp.sum(axis=1)
    weights = nk / n
    means = (resp @ data) / np.maximum(nk, _TINY)[:, None]
    diff = workspace.centered(means)
    weighted = np.multiply(resp[:, None, :], diff, out=workspace.weighted)
    scatter = weighted @ np.swapaxes(diff, 1, 2)
    try:
        covs = _project_covariances(code, scatter, nk, prev_cov)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"{code} covariance projection failed: {exc}") from exc
    if not np.all(np.isfinite(covs)):
        raise NumericError(f"{code} covariance projection is not finite")
    return weights, means, _ensure_spd(covs, "component", counters, workspace.cholesky)


def _log_component_densities(
    data: np.ndarray,
    weights: np.ndarray,
    means: np.ndarray,
    covs: np.ndarray,
    workspace: _Workspace | None = None,
) -> np.ndarray:
    """(K, N) log(weight_k * N(x_n | mean_k, cov_k)) from one stacked Cholesky."""
    if workspace is None:
        workspace = _Workspace(np.atleast_2d(data), len(weights))
    d = means.shape[1]
    chol = workspace.cholesky(covs)
    whitened = np.matmul(np.linalg.inv(chol), workspace.centered(means),
                         out=workspace.whitened)
    quad = np.einsum("kdn,kdn->kn", whitened, whitened)
    logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
    log_dens = -0.5 * (d * math.log(2.0 * math.pi) + logdet[:, None] + quad)
    return log_dens + np.log(np.maximum(weights, _TINY))[:, None]


def _e_step(
    data: np.ndarray, params, workspace: _Workspace | None = None
) -> tuple[float, np.ndarray]:
    """Log-likelihood and (K, N) responsibilities at (weights, means, covs)."""
    log_joint = _log_component_densities(data, *params, workspace)
    log_norm = _logsumexp(log_joint, axis=0)
    return float(np.sum(log_norm)), np.exp(log_joint - log_norm)


def _collapsed(resp: np.ndarray, d: int) -> bool:
    """A component holds less responsibility mass than d + 1 rows.

    With fewer, a full covariance has no support: on a single row it sits at
    the ridge floor or falls towards 0, and the likelihood spike buys BIC.
    """
    return bool(np.min(resp.sum(axis=1)) < d + 1)


def _extrapolate(p0, p1, p2, step_max: float):
    """SQUAREM's step s and point p0 + 2*s*r + s^2*v (Varadhan & Roland 2008).

    p1 and p2 are one and two EM maps from p0; r = p1 - p0 and
    v = p2 - 2*p1 + p0 over the stacked (weights, means, covariances), and
    s = |r|/|v| clipped to [1, step_max] (the paper's alpha is -s). s = 1
    gives p2 itself.
    """
    r = [b - a for a, b in zip(p0, p1)]
    v = [c - b - dr for b, c, dr in zip(p1, p2, r)]
    r_norm, v_norm = (
        math.sqrt(sum(float(np.sum(x * x)) for x in parts)) for parts in (r, v)
    )
    step = min(step_max, max(1.0, r_norm / v_norm)) if v_norm > 0.0 else step_max
    return step, tuple(a + 2.0 * step * dr + step * step * dv
                       for a, dr, dv in zip(p0, r, v))


def _admissible(point, cholesky=np.linalg.cholesky) -> bool:
    """Finite, all weights positive, every covariance SPD (factored by cholesky)."""
    weights, _, covs = point
    if not (all(np.all(np.isfinite(a)) for a in point) and np.all(weights > 0.0)):
        return False
    try:
        cholesky(covs)
    except np.linalg.LinAlgError:
        return False
    return True


def _squarem_step(data, code, point, evaluate, counters, workspace=None):
    """M(E(point)) for SQUAREM's extrapolated point, with its log-likelihood
    and responsibilities; None when the point is no mixture (see
    _admissible), its E-step is not finite or collapses a component, or
    its M-step fails.
    """
    if workspace is None:
        workspace = _Workspace(data, len(point[0]))
    if not _admissible(point, workspace.cholesky):
        return None
    counters["extrapolations"] += 1
    with np.errstate(over="ignore", invalid="ignore"):  # a near-singular point
        loglik, resp = evaluate(point)
    if not math.isfinite(loglik) or _collapsed(resp, data.shape[1]):
        return None
    try:
        params = _m_step(data, resp, code, point[2], counters, workspace)
    except NumericError:
        return None
    return (params, *evaluate(params))


def _em_run(data, k, code, seed, attempt, tol, max_iter):
    """One EM attempt: a seeded k-means++ start, then SQUAREM cycles.

    A cycle maps the accepted iterate p0 to p1 and p2 (an E-step, then an
    M-step, each), accepts p1, and then accepts the map of SQUAREM's
    extrapolated point (see _extrapolate and _squarem_step) or, failing
    that, p2. Every accepted iterate comes out of an M-step, so it obeys
    the family. The mapped point is rejected when it collapses a component
    or scores below p1: out of the family, the extrapolated point may beat
    every in-family iterate, so its map can score lower than the plain one.

    The step is bounded, as the SQUAREM reference code also bounds it: the
    bound starts at 1 (no extrapolation) and grows by SQUAREM_STEP_FACTOR
    each time a step reaches it; a rejected step at the bound restarts it
    from that step over the factor. Unbounded, a step of a few hundred along a
    slowly draining component can throw it onto a single point, where the
    likelihood has its singularity.

    Returns ((weights, means, covs), trace, counters). trace holds the
    log-likelihood of each accepted iterate, and its last entry is that of
    the returned parameters. counters["e_steps"] counts every E-step and
    caps at max_iter: one per trace entry, per extrapolated point
    ("extrapolations") and per rejected iterate ("rejected"). A float-level
    dip at convergence keeps the previous iterate. A collapsed component or
    a failed projection of an accepted iterate raises NumericError.
    Every step works in one _Workspace.
    """
    counters = {"e_steps": 0, "extrapolations": 0, "rejected": 0}
    rng = np.random.default_rng([int(seed), attempt])
    d = data.shape[1]
    resp = _initial_responsibilities(data, k, rng)
    # allocated after the seeding, whose temporaries are as large, so that the
    # two are never alive at once
    workspace = _Workspace(data, k)

    def evaluate(params):
        counters["e_steps"] += 1
        return _e_step(data, params, workspace)

    params = _m_step(data, resp, code, None, counters, workspace)
    loglik, resp = evaluate(params)
    trace: list[float] = []
    anchor = None  # the cycle's p0 while params is its p1
    step_max = 1.0
    while True:
        if _collapsed(resp, d):
            raise NumericError(f"component collapsed (seed {seed}, attempt {attempt})")
        if trace and loglik < trace[-1]:
            counters["rejected"] += 1
            return previous, trace, counters
        trace.append(loglik)
        if counters["e_steps"] >= max_iter or (
            len(trace) > 1 and trace[-1] - trace[-2] < tol * abs(trace[-2])
        ):
            return params, trace, counters
        previous = params
        mapped = _m_step(data, resp, code, params[2], counters, workspace)
        if anchor is None:
            anchor, params = params, mapped
            loglik, resp = evaluate(params)
            continue
        found = None
        if counters["e_steps"] + 2 <= max_iter:
            step, point = _extrapolate(anchor, params, mapped, step_max)
            at_bound = step == step_max
            if at_bound:
                step_max *= SQUAREM_STEP_FACTOR
            if step > 1.0:
                found = _squarem_step(data, code, point, evaluate, counters, workspace)
            if found is not None and (_collapsed(found[2], d) or not found[1] >= loglik):
                counters["rejected"] += 1
                if at_bound:
                    step_max = max(1.0, step / SQUAREM_STEP_FACTOR)
                found = None
        anchor = None
        if found is not None:
            params, loglik, resp = found
        elif counters["e_steps"] < max_iter:
            params = mapped
            loglik, resp = evaluate(params)
        else:
            return params, trace, counters


def em_fit(
    data,
    k: int,
    parametrization: str,
    *,
    d_q: int,
    d_r: int,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> MixtureModel:
    """Fit a K-component mixture under one covariance family.

    Deterministic given seed. EM is SQUAREM-accelerated (see _em_run); the
    log-likelihood is non-decreasing across accepted iterates. A collapsed
    component or a failed covariance projection triggers a reseeded
    restart, up to EM_RETRIES of them when k > 1. fit_meta's loglik and
    bic = 2*loglik - n_params*ln(N) belong to the returned parameters, also
    when EM stops at max_iter. fit_meta's n_iter counts E-steps, capped by
    max_iter: len(loglik_trace) + extrapolations + rejected.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ValidationError("data must be a 2-d matrix")
    n, d = data.shape
    if parametrization not in PARAMETRIZATIONS:
        raise ValidationError(f"unknown covariance family {parametrization!r}")
    if k < 1:
        raise ValidationError("k must be >= 1")
    if n < k:
        raise ValidationError(f"need at least k={k} points, got {n}")
    if d_q + d_r != d:
        raise ValidationError("d_q + d_r must equal the data dimension")
    if not np.all(np.isfinite(data)):
        raise ValidationError("data must be finite")
    if tol <= 0:
        raise ValidationError("tol must be positive")
    if max_iter < 1:
        raise ValidationError("max_iter must be >= 1")

    # a single component starts from every row, whatever the seed: one attempt
    attempts = 1 if k == 1 else EM_RETRIES + 1
    for attempt in range(attempts):
        try:
            params, trace, counters = _em_run(
                data, k, parametrization, seed, attempt, tol, max_iter
            )
            break
        except NumericError as exc:
            error = exc
    else:
        plural = "s" if attempts > 1 else ""
        raise NumericError(f"EM failed after {attempts} attempt{plural}: {error}")
    return MixtureModel(*params, parametrization, d_q, d_r, fit_meta={
        "loglik": trace[-1],
        "bic": 2.0 * trace[-1] - n_params(parametrization, k, d) * math.log(n),
        "n_iter": counters["e_steps"],
        "seed": int(seed),
        "loglik_trace": tuple(trace),
        "extrapolations": counters["extrapolations"],
        "rejected": counters["rejected"],
        "ridge_events": counters.get("ridge_events", 0),
        "restarts": attempt,
    })


class _HoldRecords(logging.Filter):
    """Keeps back the records this module logs, to be handled later."""

    def __init__(self):
        super().__init__()
        self.records: list[logging.LogRecord] = []

    def filter(self, record):
        self.records.append(record)
        return False


def _fit_cells(data, cells, *, d_q, d_r, seed, tol, max_iter):
    """Fit (k, idx, family) cells; {(k, idx): (model or error, log records)}.

    Each cell is seeded by SeedSequence([seed, k, idx]), so its result does
    not depend on which process fits it or in which order. The warnings a
    cell logs are held back with it, for model_search to handle in table
    order.
    """
    results = {}
    for k, idx, code in cells:
        held = _HoldRecords()
        logger.addFilter(held)
        try:
            outcome = em_fit(
                data, k, code, d_q=d_q, d_r=d_r,
                seed=int(np.random.SeedSequence([int(seed), k, idx]).generate_state(1)[0]),
                tol=tol, max_iter=max_iter,
            )
        except (NumericError, ValidationError) as exc:
            outcome = exc
        finally:
            logger.removeFilter(held)
        results[(k, idx)] = (outcome, held.records)
    return results


def _fit_split(data, cells, **fit_args):
    """_fit_cells over all cells, in this process and one helper per spare CPU.

    The K >= 2 cells, largest K first, are dealt round-robin to
    min(their number, usable CPUs) processes, this one first; the K = 1
    cells, which make one short attempt each, stay here. The split is
    static, so every run fits the same cells in this process. With one
    process no helper starts. A helper that dies is a NumericError.
    """
    spread = sorted((cell for cell in cells if cell[0] >= 2), key=lambda cell: -cell[0])
    # without Linux's sched_getaffinity the caller fits every cell
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    n_proc = min(len(spread), cpus)
    if n_proc <= 1:
        return _fit_cells(data, cells, **fit_args)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    own = [cell for cell in cells if cell[0] < 2] + spread[0::n_proc]
    # forked: a spawned helper re-imports numpy and veriq, about 0.4 s
    with ProcessPoolExecutor(n_proc - 1,
                             mp_context=multiprocessing.get_context("fork")) as pool:
        futures = [pool.submit(_fit_cells, data, spread[p::n_proc], **fit_args)
                   for p in range(1, n_proc)]
        results = _fit_cells(data, own, **fit_args)
        try:
            for future in futures:
                results.update(future.result())
        except BrokenProcessPool:
            raise NumericError("a model-search helper process died") from None
    return results


def model_search(
    data,
    k_range,
    parametrization_set=PARAMETRIZATIONS,
    *,
    d_q: int,
    d_r: int,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> tuple[MixtureModel, list[SearchCell]]:
    """Fit every (K, family) cell, return the BIC argmax and the table.

    Ties break toward fewer parameters. Failed cells are recorded in the
    table with their error and skipped in the argmax. The cells are fitted
    on the usable CPUs (see _fit_split); the table, the selected model and
    the order of the logged warnings do not depend on how many there are.
    """
    k_values = sorted(set(int(k) for k in k_range))
    families = list(parametrization_set)
    if not k_values or not families:
        raise ValidationError("model search needs non-empty K range and families")
    data = np.asarray(data, dtype=float)
    cells = [(k, idx, code) for k in k_values for idx, code in enumerate(families)]
    results = _fit_split(data, cells, d_q=d_q, d_r=d_r, seed=seed, tol=tol,
                         max_iter=max_iter)
    table: list[SearchCell] = []
    fits: list[MixtureModel] = []
    for k, idx, code in cells:
        model, records = results[(k, idx)]
        for record in records:
            logger.handle(record)
        if isinstance(model, Exception):
            table.append(SearchCell(k, code, n_params(code, k, data.shape[1]),
                                    math.nan, math.nan, f"failed: {model}"))
            continue
        meta = model.fit_meta
        table.append(SearchCell(
            k, code, model.n_params, meta["loglik"], meta["bic"], "ok",
            n_iter=meta["n_iter"], restarts=meta["restarts"],
            ridge_events=meta["ridge_events"], extrapolations=meta["extrapolations"],
            converged=meta["n_iter"] < max_iter,
        ))
        fits.append(model)
    if not fits:
        raise NumericError("every model-search cell failed")
    # min keeps the first of equal keys, so equal BICs keep table order
    return min(fits, key=lambda m: (-m.fit_meta["bic"], m.n_params)), table


def _split_blocks(model: MixtureModel):
    dq = model.d_q
    mu_q = model.means[:, :dq]
    mu_r = model.means[:, dq:]
    sigma_qq = model.covariances[:, :dq, :dq]
    sigma_qr = model.covariances[:, :dq, dq:]
    sigma_rr = model.covariances[:, dq:, dq:]
    return mu_q, mu_r, sigma_qq, sigma_qr, sigma_rr


def _sum_rows(terms: np.ndarray) -> np.ndarray:
    """Sum along the first axis one term at a time.

    Each output entry is then rounded the same way whatever the other axes
    hold; numpy's pairwise sum and BLAS products change their order with
    the size of the batch.
    """
    total = terms[0]
    for term in terms[1:]:
        total = total + term
    return total


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def _condition_rows(model: MixtureModel, queries: np.ndarray):
    """Condition the mixture on each row of an (M, d_q) matrix of finite queries.

    Returns psi (K, M), conditional means (K, d_r, M), conditional
    covariances (K, d_r, d_r) and expectations (M, d_r). The short axes
    (d_q, K) are summed by _sum_rows, so every row comes out bit for bit as
    it would in a batch of one. A weight or expectation that is not finite,
    as when a near-singular quality block overflows, raises NumericError.
    """
    if queries.ndim != 2:
        raise ValidationError(f"queries must form an (M, d_q) matrix, got shape {queries.shape}")
    if queries.shape[1] != model.d_q:
        raise ValidationError(
            f"query has dimension {queries.shape[1]}, model expects {model.d_q}"
        )
    if not np.all(np.isfinite(queries)):
        raise ValidationError("query vector must be finite")
    mu_q, mu_r, sigma_qq, sigma_qr, sigma_rr = _split_blocks(model)
    sigma_qq = _ensure_spd(sigma_qq, "quality block of component", {})
    chol = np.linalg.cholesky(sigma_qq)
    inv_chol = np.linalg.inv(chol)
    solved = np.linalg.solve(sigma_qq, sigma_qr)
    cond_covs = sigma_rr - np.swapaxes(sigma_qr, 1, 2) @ solved
    logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
    log_const = model.d_q * math.log(2.0 * math.pi) + logdet
    log_weight = np.log(np.maximum(model.weights, _TINY))

    diff = queries.T[:, None, :] - mu_q.T[:, :, None]  # (d_q, K, M)
    whitened = np.array([
        _sum_rows(inv_chol[:, i, : i + 1].T[:, :, None] * diff[: i + 1])
        for i in range(model.d_q)
    ])
    quad = _sum_rows(whitened * whitened)
    log_w = -0.5 * (log_const[:, None] + quad) + log_weight[:, None]  # (K, M)

    peak = np.max(log_w, axis=0)
    peak = np.where(np.isfinite(peak), peak, 0.0)
    log_norm = np.log(_sum_rows(np.exp(log_w - peak))) + peak
    psi = np.exp(log_w - log_norm)
    psi = psi / _sum_rows(psi)
    shift = _sum_rows(np.swapaxes(solved, 0, 1)[:, :, :, None] * diff[:, :, None, :])
    cond_means = mu_r[:, :, None] + shift
    expectation = _sum_rows(psi[:, None, :] * cond_means).T
    if not (np.all(np.isfinite(psi)) and np.all(np.isfinite(expectation))):
        raise NumericError("conditional weights or expectations are not finite")
    return psi, cond_means, cond_covs, expectation


def condition(model: MixtureModel, q) -> ConditionalPrediction:
    """Condition the mixture on a quality vector.

    Per component: the conditional mean is the linear-regression predictor
    of the performance block given q; weights are proportional to the
    component's marginal density at q, normalized in the log domain.
    """
    q = np.asarray(q, dtype=float).reshape(1, -1)
    psi, cond_means, cond_covs, expectation = _condition_rows(model, q)
    return ConditionalPrediction(psi[:, 0], cond_means[:, :, 0], cond_covs, expectation[0])


def predict(model: MixtureModel, queries) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Predicted rates for each row of an (M, d_q) quality matrix.

    Returns the expectations clamped into [0, 1] (M, d_r), per-rate flags
    marking the entries the clamp moved (M, d_r) and the component with
    the largest conditional weight (M,). Row i equals condition(model,
    queries[i]) bit for bit.
    """
    queries = np.asarray(queries, dtype=float)
    psi, _, _, expectation = _condition_rows(model, queries)
    rates = np.clip(expectation, 0.0, 1.0)
    return rates, rates != expectation, np.argmax(psi, axis=0)


MODEL_FORMAT_VERSION = 1


def model_to_dict(
    model: MixtureModel, operating_point: OperatingPoint | None = None
) -> dict:
    meta = model.fit_meta
    doc = {
        "version": MODEL_FORMAT_VERSION,
        "d_q": model.d_q,
        "d_r": model.d_r,
        "parametrization": model.parametrization,
        "K": model.n_components,
        "weights": [float(w) for w in model.weights],
        "means": [[float(v) for v in row] for row in model.means],
        "covariances": [
            [[float(v) for v in row] for row in cov] for cov in model.covariances
        ],
        "operating_point": (
            {"threshold": float(operating_point.threshold),
             "label": operating_point.label}
            if operating_point is not None
            else None
        ),
        "fit_meta": {
            "loglik": float(meta.get("loglik", math.nan)),
            "bic": float(meta.get("bic", math.nan)),
            "n_iter": int(meta.get("n_iter", 0)),
            "seed": int(meta.get("seed", 0)),
        },
    }
    return doc


def _doc_field(doc: dict, key: str, convert):
    try:
        return convert(doc[key])
    except KeyError:
        raise ValidationError(f"model file has no {key!r} field") from None
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"model field {key!r} is malformed: {exc}") from exc


def _integer(value) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"expected an integer, found {value!r}")
    return value


def model_from_dict(doc: dict) -> tuple[MixtureModel, OperatingPoint | None]:
    """Load a model document; a missing or malformed field is a ValidationError.

    Each covariance must be symmetric to SYMMETRY_RTOL of its largest entry
    and have a Cholesky factor, and the stack, scaled to a largest entry of
    1, must obey its family to FAMILY_RTOL (see family_violation): a ridged
    fit can miss its family by a relative 1e-8.
    """
    if not isinstance(doc, dict):
        raise ValidationError("model file must hold a JSON object")
    if doc.get("version") != MODEL_FORMAT_VERSION:
        raise ValidationError(f"unsupported model format version {doc.get('version')!r}")
    arrays = [_doc_field(doc, key, lambda value: np.asarray(value, dtype=float))
              for key in ("weights", "means", "covariances")]
    model = MixtureModel(
        *arrays,
        parametrization=_doc_field(doc, "parametrization", str),
        d_q=_doc_field(doc, "d_q", _integer),
        d_r=_doc_field(doc, "d_r", _integer),
        fit_meta=_doc_field(doc, "fit_meta", dict) if "fit_meta" in doc else {},
    )
    for j, cov in enumerate(model.covariances):
        with np.errstate(over="ignore"):  # a difference past the float range is asymmetric
            asymmetry = np.max(np.abs(cov - cov.T))
        if asymmetry > SYMMETRY_RTOL * np.max(np.abs(cov)):
            raise ValidationError(f"covariance {j} is not symmetric")
        try:
            np.linalg.cholesky(cov)
        except np.linalg.LinAlgError:
            raise ValidationError(f"covariance {j} is not positive definite") from None
    code = model.parametrization
    unit = model.covariances / np.max(np.abs(model.covariances))
    if family_violation(code, unit) > FAMILY_RTOL:
        raise ValidationError(f"covariance stack does not match family {code}")
    point = None
    if doc.get("operating_point") is not None:
        raw = doc["operating_point"]
        point = OperatingPoint(_doc_field(raw, "threshold", float),
                               str(raw.get("label", "")))
    return model, point


def dump_model_json(
    model: MixtureModel, operating_point: OperatingPoint | None = None
) -> str:
    """JSON text whose floats round-trip exactly (shortest repr)."""
    return json.dumps(model_to_dict(model, operating_point), indent=2) + "\n"


def load_model_json(text: str) -> tuple[MixtureModel, OperatingPoint | None]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"model file is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ValidationError("model file nests too deeply") from exc
    return model_from_dict(doc)
