"""Batch command-line interface.

Subcommands: validate, fit, predict, roc, erc, sweep, ium, synth,
calibrate-iqa. Every output file is written atomically; every stochastic
subcommand takes an explicit --seed and is byte-deterministic given its
flags. Exit codes: 0 success, 1 validation failure, 2 usage error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import math
import os
import sys

import numpy as np

from . import alignment, dataio, errormodel, metrics, mixture, quality, uniqueness
from .errors import NumericError, ValidationError


# veriq synth refuses requests for more quality values (records x axes).
_MAX_SYNTH_VALUES = 10**6
# veriq fit refuses requests past these sizes, checked before any is built.
_MAX_FIT_REGIONS = 10**5
_MAX_GRID_ROWS = 10**6
_MAX_TRAINING_ROWS = 10**6
_MAX_MASK_BYTES = 10**8  # quality.build_regions' per-axis interval masks
# veriq fit refuses a larger --k-max: model_search lists every (K, family)
# cell before it fits any.
_MAX_K = 100
# EM holds two (K, d + 2, training rows) float64 buffers: 800 MB at this cap.
_MAX_EM_VALUES = 5 * 10**7
# veriq erc refuses a finer --grid-step: metrics.erc_columns builds 1/step + 1 points.
_MIN_GRID_STEP = 1e-6


class UsageError(Exception):
    """Semantically invalid flag combination."""


def _at_least(flag: str, low: int):
    return flag, lambda value: value >= low, f"{flag} must be >= {low}"


# Every flag's domain: a row names its flags, a test of their values and the
# usage error's message. main checks each row whose flags the parsed namespace
# has (a one-flag row skips a flag left at None) before any file is touched.
# nan fails every comparison, so no test admits it. The library checks synth's
# --n-subjects, spreads, jitter and anchors before any work (exit 1).
_FLAG_RULES = (
    ("--k-min --k-max", lambda lo, hi: 1 <= lo <= hi, "require 1 <= --k-min <= --k-max"),
    ("--k-max", lambda k: k <= _MAX_K, f"--k-max must be <= {_MAX_K}"),
    _at_least("--max-iter", 1),
    ("--tol", lambda v: v > 0, "--tol must be positive"),
    ("--alpha", lambda v: 0 < v < 1, "--alpha must lie strictly between 0 and 1"),
    _at_least("--grid-points", 1),
    _at_least("--min-members", 0),
    ("--threshold --fmr", lambda threshold, fmr: (threshold is None) != (fmr is None),
     "give exactly one of --threshold or --fmr"),
    ("--fmr", lambda v: 0 < v < 1, "--fmr must lie strictly between 0 and 1"),
    ("--threshold", math.isfinite, "--threshold must be finite"),
    ("--grid-step", lambda v: 0 < v <= 1, "--grid-step must lie in (0, 1]"),
    ("--grid-step", lambda v: v >= _MIN_GRID_STEP,
     f"--grid-step must be >= {_MIN_GRID_STEP}"),
    ("--mode --n-qs", lambda mode, n_qs: mode != "grid" or n_qs >= 3,
     "--n-qs must be >= 3 in grid mode"),
    _at_least("--n-rand", 1),
    ("--prior-a", lambda v: 0 < v < math.inf, "--prior-a must be finite and positive"),
    ("--prior-b", lambda v: 0 < v < math.inf, "--prior-b must be finite and positive"),
    _at_least("--axes", 1),
    _at_least("--anchors-per-axis", 1),
    _at_least("--scores-per-cell", 1),
    _at_least("--seed", 0),
)


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(
            f"cannot read {path}: not UTF-8 at byte offset {exc.start}: {exc.reason}"
        ) from exc
    if text.startswith("\ufeff"):
        raise ValidationError(f"cannot read {path}: starts with a UTF-8 byte-order mark")
    return text


def _check_outputs(*paths) -> None:
    """Fail before any work when an output path cannot be written."""
    for path in filter(None, paths):
        directory = os.path.dirname(path) or "."
        if not os.path.isdir(directory):
            raise ValidationError(f"cannot write {path}: no directory {directory}")
        if os.path.isdir(path):
            raise ValidationError(f"cannot write {path}: is a directory")


def _parse_cov_models(spec: str) -> list[str]:
    names = [tok.strip().upper() for tok in spec.split(",") if tok.strip()]
    if not names:
        raise UsageError("--cov-models must name at least one family")
    for name in names:
        if name not in mixture.PARAMETRIZATIONS:
            raise UsageError(
                f"unknown covariance family {name!r}; choose from "
                + ",".join(mixture.PARAMETRIZATIONS)
            )
    return names


def _match_nonmatch(scores, is_match):
    return scores[is_match], scores[~is_match]


def cmd_validate(args) -> int:
    records = dataio.parse_record_columns(_read_text(args.records))
    n_match = int(np.count_nonzero(records.is_match))
    print(f"records={len(records)}")
    print(f"match={n_match}")
    print(f"nonmatch={len(records) - n_match}")
    print(f"quality_dim={records.quality_dim}")
    return 0


def _check_size(value: int, cap: int, what: str) -> None:
    if value > cap:
        raise UsageError(f"fit would build {what}, over the cap of {cap}")


def _check_grid_fit_size(d: int, n_records: int, n_qs: int, grid_points: int,
                         n_rand: int) -> None:
    """Refuse a grid-mode fit whose regions, grid, training matrix or region
    masks would pass their caps."""
    # past 64 axes, 2 or more per axis exceed every cap anyway
    per_axis = n_qs - 2
    n_regions = per_axis ** min(d, 64)
    _check_size(n_regions, _MAX_FIT_REGIONS, f"(--n-qs - 2)^d = {per_axis}^{d} regions")
    _check_size(grid_points ** min(d, 64), _MAX_GRID_ROWS,
                f"--grid-points^d = {grid_points}^{d} grid rows")
    _check_size(n_regions * n_rand, _MAX_TRAINING_ROWS,
                f"regions x --n-rand = {n_regions} x {n_rand} training rows")
    _check_size(d * per_axis * n_records, _MAX_MASK_BYTES,
                f"d x (--n-qs - 2) x records = {d} x {per_axis} x {n_records} mask bytes")


def _regions_and_grid(records, args):
    """The fit's regions and the points its grid file evaluates: the
    cluster centers, or grid_points per axis between the first and last
    interior quantile points."""
    if args.mode == "cluster":
        regions = quality.cluster_regions(records, min_members=args.min_members)
        return regions, np.array([r.center for r in regions])
    _check_grid_fit_size(records.quality_dim, len(records), args.n_qs, args.grid_points,
                         args.n_rand)
    grid = quality.quantile_grid(records, args.n_qs)
    axes = [np.linspace(pts[1], pts[-2], args.grid_points) for pts in grid.points]
    return (
        quality.build_regions(grid, records, min_members=args.min_members),
        np.array([list(combo) for combo in itertools.product(*axes)]),
    )


def cmd_fit(args) -> int:
    families = _parse_cov_models(args.cov_models)
    _check_outputs(args.out_model, args.out_bic, args.out_grid, args.out_regions,
                   args.out_posteriors)
    records = dataio.parse_records(_read_text(args.records))
    match_scores, nonmatch_scores = _match_nonmatch(records.scores(), records.is_match())
    if match_scores.size == 0 or nonmatch_scores.size == 0:
        raise ValidationError("fitting needs both match and nonmatch records")
    prior = errormodel.BetaPosterior(args.prior_a, args.prior_b)
    operating_point, achieved = metrics.threshold_for_fmr(nonmatch_scores, args.fmr)
    threshold = operating_point.threshold

    regions, eval_grid = _regions_and_grid(records, args)
    n_training, width = len(regions) * args.n_rand, records.quality_dim + 2
    _check_size(n_training, _MAX_TRAINING_ROWS,
                f"regions x --n-rand = {len(regions)} x {args.n_rand} training rows")
    _check_size(args.k_max * n_training * width, _MAX_EM_VALUES,
                f"--k-max x training rows x (d + 2) = {args.k_max} x {n_training} x {width}"
                " EM workspace values")
    training = errormodel.qr_training_matrix(
        records, regions, threshold, args.n_rand, args.seed, prior
    )
    best, table = mixture.model_search(
        training,
        range(args.k_min, args.k_max + 1),
        families,
        d_q=records.quality_dim,
        d_r=2,
        seed=args.seed,
        tol=args.tol,
        max_iter=args.max_iter,
    )
    dataio.atomic_write_text(
        args.out_model, mixture.dump_model_json(best, operating_point)
    )
    bic_header = ["k", "parametrization", "n_params", "loglik", "bic", "status"]
    dataio.write_csv(args.out_bic, bic_header,
                     [[getattr(c, name) for c in table] for name in bic_header])
    rates, _, _ = mixture.predict(best, eval_grid)
    q_names = [f"q{i}" for i in range(1, records.quality_dim + 1)]
    dataio.write_csv(args.out_grid, q_names + ["fmr_hat", "fnmr_hat"],
                     [*eval_grid.T.tolist(), *rates.T.tolist()])

    if args.out_regions:
        quality.write_regions_csv(regions, args.out_regions)
    if args.out_posteriors:
        posts = [errormodel.region_posteriors(records, r, threshold, prior) for r in regions]
        columns = [[r.region_id for r in regions], [r.n_members for r in regions]]
        for rate in (0, 1):  # FNMR, then FMR
            bounds = [errormodel.credible_interval(p[rate], args.alpha) for p in posts]
            columns += [[p[rate].mean for p in posts], [b[0] for b in bounds],
                        [b[1] for b in bounds]]
        dataio.write_csv(args.out_posteriors, ["region_id", "n_members"] + [
            f"{rate}_{stat}" for rate in ("fnmr", "fmr") for stat in ("mean", "lo", "hi")
        ], columns)
    print(f"threshold={operating_point.threshold!r}")
    print(f"achieved_fmr={achieved!r}")
    print(f"regions={len(regions)}")
    print(f"training_shape={training.shape[0]}x{training.shape[1]}")
    print(f"selected_k={best.n_components}")
    print(f"selected_parametrization={best.parametrization}")
    print(f"bic={best.fit_meta['bic']!r}")
    print(f"sparse_regions={sum(r.sparse for r in regions)}")
    print(f"empty_regions={sum(r.n_members == 0 for r in regions)}")
    print(f"cells_at_max_iter={sum(c.status == 'ok' and not c.converged for c in table)}")
    return 0


def cmd_predict(args) -> int:
    model, _ = mixture.load_model_json(_read_text(args.model))
    queries = dataio.parse_quality_csv(_read_text(args.quality))
    if queries.shape[1] != model.d_q:
        raise ValidationError(
            f"quality file has {queries.shape[1]} axes, model expects {model.d_q}"
        )
    rates, clamped, top = mixture.predict(model, queries)
    q_names = [f"q{i}" for i in range(1, model.d_q + 1)]
    dataio.write_csv(
        args.out,
        q_names + ["fmr_hat", "fnmr_hat", "fmr_clamped", "fnmr_clamped", "top_component"],
        [*queries.T.tolist(), *rates.T.tolist(), *clamped.T.tolist(), top.tolist()],
    )
    print(f"predictions={len(queries)}")
    print(f"clamped={int(np.count_nonzero(clamped.any(axis=1)))}")
    return 0


def cmd_roc(args) -> int:
    records = dataio.parse_record_columns(_read_text(args.records))
    curve = metrics.roc(*_match_nonmatch(records.scores, records.is_match))
    metrics.write_roc_csv(curve, args.out)
    print(f"points={len(curve)}")
    print(f"auc={metrics.auc(curve)!r}")
    return 0


def cmd_erc(args) -> int:
    scores, is_match, predicted = dataio.read_columns(
        _read_text(args.attempts),
        ("score", "label", "predicted_error"),
        (dataio.NUMBER, dataio.LABEL, dataio.NUMBER),
    )
    if scores.size == 0:
        raise ValidationError("no attempts in file")
    if args.threshold is not None:
        threshold = args.threshold
    else:
        point, _ = metrics.threshold_for_fmr(scores[~is_match], args.fmr)
        threshold = point.threshold
    curve = metrics.erc_columns(scores, is_match, predicted, threshold, args.error_kind,
                                args.grid_step)
    metrics.write_erc_csv(curve, args.out)
    print(f"threshold={threshold!r}")
    print(f"baseline_error={float(curve.residual[0])!r}")
    return 0


def _score_tables(key_cols, scores, is_match) -> dict[tuple, tuple]:
    """{key: (match scores, nonmatch scores)} in ascending key order.

    A stable sort by key, then matches before nonmatches, keeps each
    class's scores in file order. -0.0 and 0.0 are one key, spelled as in
    the cell's first row in file order.
    """
    if scores.size == 0:
        return {}
    order = np.lexsort((~is_match, *reversed(key_cols)))
    key_rows = np.column_stack(key_cols)
    keys = key_rows[order]
    starts = np.flatnonzero(np.r_[True, (keys[1:] != keys[:-1]).any(axis=1)])
    ends = np.r_[starts[1:], order.size]
    mids = starts + np.add.reduceat(is_match[order], starts, dtype=np.intp)
    firsts = np.minimum.reduceat(order, starts)
    ordered = scores[order]
    return {
        tuple(key_rows[first].tolist()): (ordered[start:mid], ordered[mid:end])
        for first, start, mid, end in zip(
            firsts.tolist(), starts.tolist(), mids.tolist(), ends.tolist()
        )
    }


def cmd_sweep(args) -> int:
    param_names = (
        ("theta", "tx", "ty") if args.mode == "fixed" else ("sigma_x", "sigma_y", "seed")
    )
    *key_cols, scores, is_match = dataio.read_columns(
        _read_text(args.scores),
        param_names + ("score", "label"),
        (dataio.NUMBER,) * (len(param_names) + 1) + (dataio.LABEL,),
    )
    tables = _score_tables(key_cols, scores, is_match)
    cells, skipped = alignment.sweep_grid(tables, list(tables))
    alignment.write_sweep_csv(cells, args.out, param_names)
    print(f"cells={len(cells)}")
    print(f"skipped={len(skipped)}")
    return 0


def _ium_of_file(path):
    records = dataio.parse_record_columns(_read_text(path))
    return uniqueness.ium_by_subject(records.probe_ids, records.scores, records.is_match)


def cmd_ium(args) -> int:
    results = _ium_of_file(args.records)
    if not results:
        raise NumericError("no subject has at least 2 distinct impostor scores")
    # both files are read before anything is written or printed
    corr = (uniqueness.ium_correlation(results, _ium_of_file(args.compare))
            if args.compare else None)
    uniqueness.write_ium_csv(results, args.out)
    print(f"subjects={len(results)}")
    if corr is not None:
        print(f"pearson_r={corr.r!r}")
        print(f"n_joined={corr.n_joined}")
        print(f"n_excluded={corr.n_excluded}")
    return 0


def cmd_synth(args) -> int:
    # past 64 axes, 2 or more anchors per axis exceed the cap anyway
    n_records = args.anchors_per_axis ** min(args.axes, 64) * args.scores_per_cell * 2
    if n_records * args.axes > _MAX_SYNTH_VALUES:
        raise UsageError(
            f"synth would write {args.anchors_per_axis}^{args.axes} anchors x "
            f"{args.scores_per_cell} scores x 2 labels x {args.axes} quality axes, "
            f"over {_MAX_SYNTH_VALUES} quality values"
        )
    with np.errstate(over="ignore", invalid="ignore"):  # SynthConfig rejects non-finite
        axis = np.linspace(args.anchor_lo, args.anchor_hi, args.anchors_per_axis).tolist()
    anchors = tuple(itertools.product(axis, repeat=args.axes))
    model = dataio.ScoreModel(
        **{f.name: getattr(args, f.name) for f in dataclasses.fields(dataio.ScoreModel)}
    )
    config = dataio.SynthConfig(
        n_subjects=args.n_subjects,
        scores_per_cell=args.scores_per_cell,
        quality_grid=anchors,
        score_model=model,
        seed=args.seed,
        quality_jitter=args.quality_jitter,
    )
    records = dataio.synthesize_dataset(config)
    dataio.write_records(records, args.out)
    print(f"records={len(records)}")
    print(f"anchors={len(anchors)}")
    return 0


def cmd_calibrate_iqa(args) -> int:
    rows = np.column_stack(dataio.read_columns(
        _read_text(args.rows), ("q1", "q2", "gamma1", "gamma2"), (dataio.NUMBER,) * 4
    ))
    if rows.size == 0:
        raise ValidationError("no calibration rows in file")
    calibration = quality.fit_iqa_calibration(rows)
    doc = {
        "solution": [[float(v) for v in row] for row in calibration.solution],
        "cell_means": {
            f"{g1:g},{g2:g}": [mu1, mu2]
            for (g1, g2), (mu1, mu2) in sorted(calibration.cell_means.items())
        },
        "residual_orthogonality": calibration.residual_orthogonality(),
    }
    dataio.atomic_write_text(args.out_solution, json.dumps(doc, indent=2) + "\n")
    # one product per row: a batched rows @ solution differs in the last bits
    mapped = np.array([quality.apply_iqa_calibration(calibration, row) for row in rows])
    dataio.write_csv(args.out_calibrated, ["q1", "q2", "gamma1", "gamma2", "qhat1", "qhat2"],
                     [*rows.T.tolist(), *mapped.T.tolist()])
    print(f"rows={len(rows)}")
    print(f"residual_orthogonality={calibration.residual_orthogonality()!r}")
    return 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors are one ``usage error:`` line, exit 2."""

    def error(self, message):
        self.exit(2, f"usage error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="veriq",
        description="Quality-driven prediction and evaluation of face verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a records CSV against the schema")
    p.add_argument("records")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("fit", help="fit the quality-performance mixture model")
    p.add_argument("records")
    p.add_argument("--out-model", default="model.json")
    p.add_argument("--out-bic", default="bic_table.csv")
    p.add_argument("--out-grid", default="qr_grid.csv")
    p.add_argument("--out-regions", default=None)
    p.add_argument("--out-posteriors", default=None)
    p.add_argument("--mode", choices=("grid", "cluster"), default="grid")
    p.add_argument("--n-qs", type=int, default=12)
    p.add_argument("--n-rand", type=int, default=20)
    p.add_argument("--fmr", type=float, default=0.001)
    p.add_argument("--prior-a", type=float, default=1.0)
    p.add_argument("--prior-b", type=float, default=1.0)
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--k-min", type=int, default=1)
    p.add_argument("--k-max", type=int, default=6)
    p.add_argument("--cov-models", default=",".join(mixture.PARAMETRIZATIONS))
    p.add_argument("--min-members", type=int, default=quality.MIN_MEMBERS)
    p.add_argument("--grid-points", type=int, default=10)
    p.add_argument("--tol", type=float, default=mixture.DEFAULT_TOL)
    p.add_argument("--max-iter", type=int, default=mixture.DEFAULT_MAX_ITER)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("predict", help="predict [FMR, FNMR] for quality vectors")
    p.add_argument("model")
    p.add_argument("quality")
    p.add_argument("--out", default="predictions.csv")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("roc", help="emit the ROC curve of a records file")
    p.add_argument("records")
    p.add_argument("--out", default="roc.csv")
    p.set_defaults(func=cmd_roc)

    p = sub.add_parser("erc", help="error-versus-reject curve from attempts")
    p.add_argument("attempts", help="CSV with header score,label,predicted_error")
    p.add_argument("--threshold", type=float, default=None)
    p.add_argument("--fmr", type=float, default=None)
    p.add_argument("--error-kind", choices=("fnmr", "fmr"), default="fnmr")
    p.add_argument("--grid-step", type=float, default=metrics.ERC_GRID_STEP)
    p.add_argument("--out", default="erc.csv")
    p.set_defaults(func=cmd_erc)

    p = sub.add_parser("sweep", help="HTER/AUC over a perturbation grid")
    p.add_argument("scores", help="CSV keyed by perturbation parameters")
    p.add_argument("--mode", choices=("fixed", "random"), default="fixed")
    p.add_argument("--out", default="sweep.csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("ium", help="impostor-score uniqueness per subject")
    p.add_argument("records")
    p.add_argument("--out", default="ium.csv")
    p.add_argument("--compare", default=None,
                   help="second-session records; prints Pearson r")
    p.set_defaults(func=cmd_ium)

    p = sub.add_parser("synth", help="generate a synthetic records CSV")
    p.add_argument("--out", default="records.csv")
    p.add_argument("--axes", type=int, default=2)
    p.add_argument("--anchors-per-axis", type=int, default=5)
    p.add_argument("--anchor-lo", type=float, default=0.0)
    p.add_argument("--anchor-hi", type=float, default=1.0)
    p.add_argument("--scores-per-cell", type=int, default=20)
    p.add_argument("--n-subjects", type=int, default=50)
    p.add_argument("--quality-jitter", type=float, default=0.0)
    for field in dataclasses.fields(dataio.ScoreModel):  # --match-base, ...
        p.add_argument(f"--{field.name.replace('_', '-')}", type=float,
                       default=field.default)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("calibrate-iqa", help="least-squares quality calibration")
    p.add_argument("rows", help="CSV with header q1,q2,gamma1,gamma2")
    p.add_argument("--out-solution", default="calibration.json")
    p.add_argument("--out-calibrated", default="calibrated.csv")
    p.set_defaults(func=cmd_calibrate_iqa)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for flags, holds, message in _FLAG_RULES:
            names = [flag[2:].replace("-", "_") for flag in flags.split()]
            if all(hasattr(args, name) for name in names):
                values = [getattr(args, name) for name in names]
                if values != [None] and not holds(*values):
                    raise UsageError(message)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except ValidationError as exc:
        for line in str(exc).splitlines():
            print(f"validation error: {line}", file=sys.stderr)
        return 1
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
