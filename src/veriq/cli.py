"""Batch command-line interface.

Subcommands: validate, fit, predict, roc, erc, sweep, ium, synth,
calibrate-iqa. Every output file is written atomically; every stochastic
subcommand takes an explicit --seed and is byte-deterministic given its
flags. Exit codes: 0 success, 1 validation failure, 2 usage error,
3 numeric failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

import numpy as np

from . import alignment, dataio, errormodel, metrics, mixture, quality, uniqueness
from .errors import NumericError, ValidationError


class UsageError(Exception):
    """Semantically invalid flag combination."""


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from exc


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


def _match_nonmatch(records: dataio.RecordSet):
    scores = records.scores()
    is_match = records.is_match()
    return scores[is_match], scores[~is_match]


def cmd_validate(args) -> int:
    records = dataio.parse_records(_read_text(args.records))
    n_match = int(np.sum(records.is_match()))
    print(f"records={len(records)}")
    print(f"match={n_match}")
    print(f"nonmatch={len(records) - n_match}")
    print(f"quality_dim={records.quality_dim}")
    return 0


def _build_regions(records, args):
    if args.mode == "cluster":
        return quality.cluster_regions(records, min_members=args.min_members)
    grid = quality.quantile_grid(records, args.n_qs)
    return quality.build_regions(grid, records, min_members=args.min_members)


def _evaluation_grid(records, regions, args) -> np.ndarray:
    if args.mode == "cluster":
        return np.array([r.center for r in regions])
    grid = quality.quantile_grid(records, args.n_qs)
    axes = [
        np.linspace(pts[1], pts[-2], args.grid_points) for pts in grid.points
    ]
    return np.array([list(combo) for combo in itertools.product(*axes)])


def cmd_fit(args) -> int:
    records = dataio.parse_records(_read_text(args.records))
    match_scores, nonmatch_scores = _match_nonmatch(records)
    if match_scores.size == 0 or nonmatch_scores.size == 0:
        raise ValidationError("fitting needs both match and nonmatch records")
    if args.k_min < 1 or args.k_max < args.k_min:
        raise UsageError("require 1 <= --k-min <= --k-max")
    if args.max_iter < 1:
        raise UsageError("--max-iter must be >= 1")
    if not args.tol > 0:  # also rejects nan
        raise UsageError("--tol must be positive")
    prior = errormodel.BetaPosterior(args.prior_a, args.prior_b)
    operating_point, achieved = metrics.threshold_for_fmr(nonmatch_scores, args.fmr)
    threshold = operating_point.threshold

    regions = _build_regions(records, args)
    training = errormodel.qr_training_matrix(
        records, regions, threshold, args.n_rand, args.seed, prior
    )
    families = _parse_cov_models(args.cov_models)
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
    dataio.write_csv(
        args.out_bic,
        ["k", "parametrization", "n_params", "loglik", "bic", "status"],
        [
            (c.k, c.parametrization, c.n_params, c.loglik, c.bic, c.status)
            for c in table
        ],
    )
    eval_grid = _evaluation_grid(records, regions, args)
    grid_rows = []
    for point in eval_grid:
        pred = mixture.condition(best, point)
        rates = np.clip(pred.expectation, 0.0, 1.0)
        grid_rows.append(tuple(point) + (float(rates[0]), float(rates[1])))
    q_names = [f"q{i}" for i in range(1, records.quality_dim + 1)]
    dataio.write_csv(args.out_grid, q_names + ["fmr_hat", "fnmr_hat"], grid_rows)

    if args.out_regions:
        quality.write_regions_csv(regions, args.out_regions)
    if args.out_posteriors:
        rows = []
        for region in regions:
            fnmr_post, fmr_post = errormodel.region_posteriors(
                records, region, threshold, prior
            )
            fnmr_lo, fnmr_hi = errormodel.credible_interval(fnmr_post, args.alpha)
            fmr_lo, fmr_hi = errormodel.credible_interval(fmr_post, args.alpha)
            rows.append(
                (
                    region.region_id,
                    region.n_members,
                    fnmr_post.mean, fnmr_lo, fnmr_hi,
                    fmr_post.mean, fmr_lo, fmr_hi,
                )
            )
        dataio.write_csv(
            args.out_posteriors,
            [
                "region_id", "n_members",
                "fnmr_mean", "fnmr_lo", "fnmr_hi",
                "fmr_mean", "fmr_lo", "fmr_hi",
            ],
            rows,
        )
    print(f"threshold={operating_point.threshold!r}")
    print(f"achieved_fmr={achieved!r}")
    print(f"regions={len(regions)}")
    print(f"training_shape={training.shape[0]}x{training.shape[1]}")
    print(f"selected_k={best.n_components}")
    print(f"selected_parametrization={best.parametrization}")
    print(f"bic={best.fit_meta['bic']!r}")
    return 0


def cmd_predict(args) -> int:
    model, _ = mixture.load_model_json(_read_text(args.model))
    queries = dataio.parse_quality_csv(_read_text(args.quality))
    if queries.shape[1] != model.d_q:
        raise ValidationError(
            f"quality file has {queries.shape[1]} axes, model expects {model.d_q}"
        )
    rows = []
    for point in queries:
        pred = mixture.condition(model, point)
        raw = pred.expectation
        rates = np.clip(raw, 0.0, 1.0)
        rows.append(
            tuple(point)
            + (
                float(rates[0]),
                float(rates[1]),
                bool(raw[0] != rates[0]),
                bool(raw[1] != rates[1]),
                int(np.argmax(pred.psi)),
            )
        )
    q_names = [f"q{i}" for i in range(1, model.d_q + 1)]
    dataio.write_csv(
        args.out,
        q_names + ["fmr_hat", "fnmr_hat", "fmr_clamped", "fnmr_clamped", "top_component"],
        rows,
    )
    print(f"predictions={len(rows)}")
    return 0


def cmd_roc(args) -> int:
    records = dataio.parse_records(_read_text(args.records))
    match_scores, nonmatch_scores = _match_nonmatch(records)
    curve = metrics.roc(match_scores, nonmatch_scores)
    metrics.write_roc_csv(curve, args.out)
    print(f"points={len(curve)}")
    print(f"auc={metrics.auc(curve)!r}")
    return 0


def cmd_erc(args) -> int:
    attempts = list(
        dataio.read_rows(
            _read_text(args.attempts),
            ("score", "label", "predicted_error"),
            (dataio.NUMBER, dataio.LABEL, dataio.NUMBER),
        )
    )
    if not attempts:
        raise ValidationError("no attempts in file")
    if (args.threshold is None) == (args.fmr is None):
        raise UsageError("give exactly one of --threshold or --fmr")
    if args.threshold is not None:
        threshold = args.threshold
    else:
        nonmatch = [a[0] for a in attempts if a[1] == dataio.NONMATCH]
        point, _ = metrics.threshold_for_fmr(nonmatch, args.fmr)
        threshold = point.threshold
    curve = metrics.erc(attempts, threshold, args.error_kind, args.grid_step)
    metrics.write_erc_csv(curve, args.out)
    print(f"threshold={threshold!r}")
    print(f"baseline_error={float(curve.residual[0])!r}")
    return 0


def cmd_sweep(args) -> int:
    param_names = (
        ("theta", "tx", "ty") if args.mode == "fixed" else ("sigma_x", "sigma_y", "seed")
    )
    rows = dataio.read_rows(
        _read_text(args.scores),
        param_names + ("score", "label"),
        (dataio.NUMBER,) * (len(param_names) + 1) + (dataio.LABEL,),
    )
    tables: dict[tuple, tuple[list, list]] = {}
    for *key, score, label in rows:
        match_list, nonmatch_list = tables.setdefault(tuple(key), ([], []))
        (match_list if label == dataio.MATCH else nonmatch_list).append(score)
    grid = sorted(tables.keys())
    baseline = tuple(0.0 for _ in param_names)
    cells, skipped = alignment.sweep_grid(tables, grid, baseline)
    alignment.write_sweep_csv(cells, args.out, param_names)
    print(f"cells={len(cells)}")
    print(f"skipped={len(skipped)}")
    return 0


def cmd_ium(args) -> int:
    records = dataio.parse_records(_read_text(args.records))
    results = uniqueness.ium_by_subject(records)
    if not results:
        raise NumericError("no subject has at least 2 distinct impostor scores")
    uniqueness.write_ium_csv(results, args.out)
    print(f"subjects={len(results)}")
    if args.compare:
        other = uniqueness.ium_by_subject(
            dataio.parse_records(_read_text(args.compare))
        )
        corr = uniqueness.ium_correlation(results, other)
        print(f"pearson_r={corr.r!r}")
        print(f"n_joined={corr.n_joined}")
        print(f"n_excluded={corr.n_excluded}")
    return 0


def cmd_synth(args) -> int:
    if args.anchors_per_axis < 1:
        raise UsageError("--anchors-per-axis must be >= 1")
    axis = np.linspace(args.anchor_lo, args.anchor_hi, args.anchors_per_axis)
    anchors = tuple(
        tuple(float(v) for v in combo)
        for combo in itertools.product(axis, repeat=args.axes)
    )
    model = dataio.ScoreModel(
        match_base=args.match_base,
        match_gain=args.match_gain,
        match_spread=args.match_spread,
        nonmatch_base=args.nonmatch_base,
        nonmatch_gain=args.nonmatch_gain,
        nonmatch_spread=args.nonmatch_spread,
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
    cells = dataio.read_rows(
        _read_text(args.rows), ("q1", "q2", "gamma1", "gamma2"), (dataio.NUMBER,) * 4
    )
    rows = np.array(list(cells))
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
    out_rows = []
    for row in rows:
        mapped = quality.apply_iqa_calibration(calibration, row)
        out_rows.append(tuple(row) + (float(mapped[0]), float(mapped[1])))
    dataio.write_csv(
        args.out_calibrated,
        ["q1", "q2", "gamma1", "gamma2", "qhat1", "qhat2"],
        out_rows,
    )
    print(f"rows={len(out_rows)}")
    print(f"residual_orthogonality={calibration.residual_orthogonality()!r}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    p.add_argument("--match-base", type=float, default=3.0)
    p.add_argument("--match-gain", type=float, default=2.0)
    p.add_argument("--match-spread", type=float, default=0.5)
    p.add_argument("--nonmatch-base", type=float, default=0.0)
    p.add_argument("--nonmatch-gain", type=float, default=0.0)
    p.add_argument("--nonmatch-spread", type=float, default=0.5)
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("calibrate-iqa", help="least-squares quality calibration")
    p.add_argument("rows", help="CSV with header q1,q2,gamma1,gamma2")
    p.add_argument("--out-solution", default="calibration.json")
    p.add_argument("--out-calibrated", default="calibrated.csv")
    p.set_defaults(func=cmd_calibrate_iqa)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
