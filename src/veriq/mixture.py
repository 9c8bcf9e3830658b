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
ORIENTATION_INNER_ITER = 20
RIDGE_FACTOR = 1e-8
COLLAPSE_FLOOR = 1e-3
_TINY = 1e-300


def n_cov_params(code: str, k: int, d: int) -> int:
    """Free covariance parameters for one family across K components."""
    orientation = d * (d - 1) // 2
    shape = d - 1
    table = {
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
    }
    if code not in table:
        raise ValidationError(f"unknown covariance family {code!r}")
    return table[code]


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
        if abs(float(np.sum(self.weights)) - 1.0) > 1e-12:
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
class RatePrediction:
    """Clamped [FMR, FNMR] prediction at one operating point."""

    label: str
    rates: tuple[float, float]
    clamped: bool
    top_component: int


@dataclass(frozen=True)
class SearchCell:
    """One (K, family) entry of the model-search table."""

    k: int
    parametrization: str
    n_params: int
    loglik: float
    bic: float
    status: str


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


def _ensure_spd(covs: np.ndarray, context: str, counters: dict) -> np.ndarray:
    """Return SPD versions of a (K, d, d) stack, adding a logged ridge when needed.

    Only when the stacked Cholesky fails is each component ("{context} {j}")
    checked and ridged on its own.
    """
    covs = 0.5 * (covs + np.swapaxes(covs, 1, 2))
    try:
        np.linalg.cholesky(covs)
        return covs
    except np.linalg.LinAlgError:
        pass
    return np.array(
        [_ridge_one(cov, f"{context} {j}", counters) for j, cov in enumerate(covs)]
    )


def _shape_normalize(diag_values: np.ndarray) -> tuple[np.ndarray, float]:
    """Split a positive diagonal into (unit-determinant shape, volume)."""
    safe = np.maximum(diag_values, _TINY)
    log_vol = float(np.mean(np.log(safe)))
    volume = math.exp(log_vol)
    return safe / volume, volume


def _project_covariances(
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
            shapes[j], volumes[j] = _shape_normalize(np.diagonal(scatter[j]))
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
            shape_new, _ = _shape_normalize((diags / lam[:, None]).sum(axis=0))
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
        shape, volume = _shape_normalize(eigvals.sum(axis=0))
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
            shape_new, _ = _shape_normalize((eigvals / lam[:, None]).sum(axis=0))
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


def _kmeans_pp_centers(data: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    n = data.shape[0]
    centers = [data[int(rng.integers(n))]]
    for _ in range(1, k):
        deltas = data[:, None, :] - np.asarray(centers)[None, :, :]
        dist2 = np.min(np.sum(deltas * deltas, axis=2), axis=1)
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


def _m_step(
    data: np.ndarray,
    resp: np.ndarray,
    code: str,
    prev_cov: np.ndarray | None,
    counters: dict,
):
    n, d = data.shape
    nk = resp.sum(axis=1)
    weights = nk / n
    means = (resp @ data) / np.maximum(nk, _TINY)[:, None]
    diff = np.ascontiguousarray(data.T)[None, :, :] - means[:, :, None]
    # point-major weighted differences make BLAS sum each scatter in the order
    # of a per-component loop; another order flips EM's float-level ties
    weighted = np.empty((len(nk), n, d)).transpose(0, 2, 1)
    np.multiply(resp[:, None, :], diff, out=weighted)
    scatter = weighted @ np.swapaxes(diff, 1, 2)
    covs = _project_covariances(code, scatter, nk, prev_cov)
    return weights, means, _ensure_spd(covs, "component", counters)


def _log_component_densities(
    data: np.ndarray, weights: np.ndarray, means: np.ndarray, covs: np.ndarray
) -> np.ndarray:
    """(K, N) log(weight_k * N(x_n | mean_k, cov_k)) from one stacked Cholesky."""
    data_t = np.ascontiguousarray(np.atleast_2d(data).T)
    d = means.shape[1]
    chol = np.linalg.cholesky(covs)
    whitened = np.linalg.inv(chol) @ (data_t[None, :, :] - means[:, :, None])
    quad = np.einsum("kdn,kdn->kn", whitened, whitened)
    logdet = 2.0 * np.sum(np.log(np.diagonal(chol, axis1=1, axis2=2)), axis=1)
    log_dens = -0.5 * (d * math.log(2.0 * math.pi) + logdet[:, None] + quad)
    return log_dens + np.log(np.maximum(weights, _TINY))[:, None]


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
    retries: int = 5,
) -> MixtureModel:
    """Fit a K-component mixture under one covariance family.

    Deterministic given seed. The log-likelihood is non-decreasing across
    iterations; a component whose responsibility mass collapses triggers a
    reseeded restart, up to the retry budget.
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
    if tol <= 0:
        raise ValidationError("tol must be positive")
    if max_iter < 1:
        raise ValidationError("max_iter must be >= 1")

    last_error = None
    for attempt in range(retries + 1):
        rng = np.random.default_rng([int(seed), attempt])
        counters: dict = {}
        resp = _initial_responsibilities(data, k, rng)
        try:
            weights, means, covs = _m_step(data, resp, parametrization, None, counters)
        except NumericError as exc:
            last_error = exc
            continue
        trace = []
        collapsed = False
        prev_params = None
        for _ in range(max_iter):
            log_joint = _log_component_densities(data, weights, means, covs)
            log_norm = _logsumexp(log_joint, axis=0)
            loglik = float(np.sum(log_norm))
            resp = np.exp(log_joint - log_norm)
            if np.min(resp.sum(axis=1)) < COLLAPSE_FLOOR:
                collapsed = True
                break
            if trace and loglik < trace[-1]:
                # float-level dip at convergence: keep the previous iterate
                weights, means, covs = prev_params
                break
            trace.append(loglik)
            if len(trace) > 1 and (trace[-1] - trace[-2]) < tol * abs(trace[-2]):
                break
            prev_params = (weights, means, covs)
            try:
                weights, means, covs = _m_step(
                    data, resp, parametrization, covs, counters
                )
            except NumericError as exc:
                last_error = exc
                collapsed = True
                break
        if collapsed:
            last_error = last_error or NumericError(
                f"component collapsed (seed {seed}, attempt {attempt})"
            )
            continue
        meta = {
            "loglik": trace[-1],
            "n_iter": len(trace),
            "seed": int(seed),
            "loglik_trace": tuple(trace),
            "ridge_events": counters.get("ridge_events", 0),
            "restarts": attempt,
        }
        return MixtureModel(
            weights=weights,
            means=means,
            covariances=covs,
            parametrization=parametrization,
            d_q=d_q,
            d_r=d_r,
            fit_meta=meta,
        )
    raise NumericError(
        f"EM failed after {retries + 1} attempts: {last_error}"
    )


def log_likelihood(model: MixtureModel, data) -> float:
    """Stable sum of log mixture densities over the rows of data."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    log_joint = _log_component_densities(
        data, model.weights, model.means, model.covariances
    )
    return float(np.sum(_logsumexp(log_joint, axis=0)))


def bic(model: MixtureModel, data) -> float:
    """2*loglik - n_params*ln(N); larger is better."""
    data = np.atleast_2d(np.asarray(data, dtype=float))
    return 2.0 * log_likelihood(model, data) - model.n_params * math.log(
        data.shape[0]
    )


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
    table with their error and skipped in the argmax.
    """
    k_values = sorted(set(int(k) for k in k_range))
    families = list(parametrization_set)
    if not k_values or not families:
        raise ValidationError("model search needs non-empty K range and families")
    data = np.asarray(data, dtype=float)
    table: list[SearchCell] = []
    best: tuple | None = None
    best_model = None
    for k in k_values:
        for idx, code in enumerate(families):
            cell_seed = int(
                np.random.SeedSequence([int(seed), k, idx]).generate_state(1)[0]
            )
            try:
                model = em_fit(
                    data, k, code, d_q=d_q, d_r=d_r, seed=cell_seed,
                    tol=tol, max_iter=max_iter,
                )
            except (NumericError, ValidationError) as exc:
                table.append(
                    SearchCell(k, code, n_params(code, k, data.shape[1]),
                               math.nan, math.nan, f"failed: {exc}")
                )
                continue
            value = bic(model, data)
            model.fit_meta["bic"] = value
            cell = SearchCell(k, code, model.n_params, model.fit_meta["loglik"],
                              value, "ok")
            table.append(cell)
            key = (-value, model.n_params)
            if best is None or key < best:
                best = key
                best_model = model
    if best_model is None:
        raise NumericError("every model-search cell failed")
    return best_model, table


def _split_blocks(model: MixtureModel):
    dq = model.d_q
    mu_q = model.means[:, :dq]
    mu_r = model.means[:, dq:]
    sigma_qq = model.covariances[:, :dq, :dq]
    sigma_qr = model.covariances[:, :dq, dq:]
    sigma_rr = model.covariances[:, dq:, dq:]
    return mu_q, mu_r, sigma_qq, sigma_qr, sigma_rr


def condition(model: MixtureModel, q) -> ConditionalPrediction:
    """Condition the mixture on a quality vector.

    Per component: the conditional mean is the linear-regression predictor
    of the performance block given q; weights are proportional to the
    component's marginal density at q, normalized in the log domain.
    """
    q = np.asarray(q, dtype=float).reshape(-1)
    if q.shape[0] != model.d_q:
        raise ValidationError(
            f"query has dimension {q.shape[0]}, model expects {model.d_q}"
        )
    if not np.all(np.isfinite(q)):
        raise ValidationError("query vector must be finite")
    mu_q, mu_r, sigma_qq, sigma_qr, sigma_rr = _split_blocks(model)
    sigma_qq = _ensure_spd(sigma_qq, "quality block of component", {})
    log_w = _log_component_densities(q, model.weights, mu_q, sigma_qq)[:, 0]
    solved = np.linalg.solve(sigma_qq, sigma_qr)
    cond_means = mu_r + ((q - mu_q)[:, None, :] @ solved)[:, 0, :]
    cond_covs = sigma_rr - np.swapaxes(sigma_qr, 1, 2) @ solved
    psi = np.exp(log_w - _logsumexp(log_w))
    psi /= psi.sum()
    expectation = psi @ cond_means
    return ConditionalPrediction(psi, cond_means, cond_covs, expectation)


def marginal_q_density(model: MixtureModel, q) -> float:
    """Mixture density of the quality block at q."""
    q = np.asarray(q, dtype=float).reshape(1, -1)
    if q.shape[1] != model.d_q:
        raise ValidationError("query dimension mismatch")
    mu_q, _, sigma_qq, _, _ = _split_blocks(model)
    sigma_qq = _ensure_spd(sigma_qq, "quality block of component", {})
    log_terms = _log_component_densities(q, model.weights, mu_q, sigma_qq)[:, 0]
    return float(np.exp(_logsumexp(log_terms)))


def predict_rates(
    models: list[tuple[OperatingPoint, MixtureModel]], q
) -> list[RatePrediction]:
    """Predicted [FMR, FNMR] per operating point, clamped into [0, 1]."""
    if models:
        dq = models[0][1].d_q
        if any(m.d_q != dq for _, m in models):
            raise ValidationError("models must share the quality dimension")
    out = []
    for point, model in models:
        pred = condition(model, q)
        raw = pred.expectation
        clipped = np.clip(raw, 0.0, 1.0)
        out.append(
            RatePrediction(
                label=point.label,
                rates=(float(clipped[0]), float(clipped[1])),
                clamped=bool(np.any(raw != clipped)),
                top_component=int(np.argmax(pred.psi)),
            )
        )
    return out


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


def model_from_dict(doc: dict) -> tuple[MixtureModel, OperatingPoint | None]:
    """Load a model document; a missing or malformed field is a ValidationError."""
    if not isinstance(doc, dict):
        raise ValidationError("model file must hold a JSON object")
    if doc.get("version") != MODEL_FORMAT_VERSION:
        raise ValidationError(f"unsupported model format version {doc.get('version')!r}")
    arrays = [_doc_field(doc, key, lambda value: np.asarray(value, dtype=float))
              for key in ("weights", "means", "covariances")]
    model = MixtureModel(
        *arrays,
        parametrization=_doc_field(doc, "parametrization", str),
        d_q=_doc_field(doc, "d_q", int),
        d_r=_doc_field(doc, "d_r", int),
        fit_meta=_doc_field(doc, "fit_meta", dict) if "fit_meta" in doc else {},
    )
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
    return model_from_dict(doc)
