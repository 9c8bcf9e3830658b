"""Seeded inputs, timed passes and output checks of the benchmark workloads.

Inputs are generated here with numpy, independently of veriq, and handed
to the program only as CSV files. Every operation of a pass goes through
``veriq.cli.main`` in-process, except the HTER threshold selection, which
has no subcommand and is a library call.

Which parts a seed changes:

* ``fit`` always fits the demo-02 configuration drawn at data seed 77 with
  fit seed 11: from one dataset to the next the prediction error moves by
  up to 2x and the EM work by about 10%, so a seeded dataset would measure
  the data rather than the program. The workload seed permutes the record
  rows, which the pipeline treats as an unordered set.
* ``predict-reject`` fits its model on that same fixed dataset in set-up;
  the seed draws the held-out attempts and the sweep scores.
* ``evaluate-large`` fits and scores a fixed first session for the same
  reason, with rows permuted by the seed; the seed draws the second
  session, which the uniqueness comparison and the HTER evaluation read.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import json
import math
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy.special import ndtr

from veriq import cli, metrics, mixture

FIT_ARGS = ("--n-qs", "12", "--n-rand", "20", "--fmr", "0.05", "--seed", "11")
THETAS = tuple(range(-20, 21, 5))
SHIFTS = (-9, -7, -5, -3, -1, 0, 1, 3, 5, 7, 9)
SWEEP_SCORES = 50  # match and nonmatch scores per sweep cell
SAMPLE_ROWS = 16
FNMR_MAE_LIMIT = 0.05  # the tolerance of acceptance criterion 06


@dataclass(frozen=True)
class ScoreLaw:
    """Gaussian scores whose match mean is affine in mean quality; the
    nonmatch law does not depend on quality."""

    match_base: float = 0.8
    match_gain: float = 2.0
    match_spread: float = 0.6
    nonmatch_spread: float = 0.5

    def fnmr(self, quality: np.ndarray, threshold: float) -> np.ndarray:
        mean = self.match_base + self.match_gain * quality.mean(axis=1)
        return ndtr((threshold - mean) / self.match_spread)

    def fmr(self, quality: np.ndarray, threshold: float) -> np.ndarray:
        return np.full(quality.shape[0], ndtr(-threshold / self.nonmatch_spread))


LAW = ScoreLaw()


@dataclass
class Records:
    subject: np.ndarray
    ref: np.ndarray
    score: np.ndarray
    is_match: np.ndarray
    quality: np.ndarray

    def __len__(self):
        return self.score.shape[0]


def synth(rng, axes, anchors_per_axis, scores_per_cell, n_subjects, jitter) -> Records:
    """Records laid out like ``veriq synth``: per quality anchor, a block of
    match then a block of nonmatch attempts, subjects assigned round-robin."""
    axis = np.linspace(0.0, 1.0, anchors_per_axis)
    anchors = np.array(list(itertools.product(axis, repeat=axes)))
    block = np.r_[np.ones(scores_per_cell, bool), np.zeros(scores_per_cell, bool)]
    is_match = np.tile(block, len(anchors))
    counter = np.arange(is_match.size)
    subject = counter % n_subjects
    ref = np.where(is_match, subject,
                   (subject + 1 + counter % (n_subjects - 1)) % n_subjects)
    quality = (np.repeat(anchors, 2 * scores_per_cell, axis=0)
               + jitter * rng.standard_normal((is_match.size, axes)))
    mean = np.where(is_match, LAW.match_base + LAW.match_gain * quality.mean(axis=1), 0.0)
    spread = np.where(is_match, LAW.match_spread, LAW.nonmatch_spread)
    return Records(subject, ref, rng.normal(mean, spread), is_match, quality)


def demo02_records() -> Records:
    """The demo-02 / criterion-06 configuration: 8x8 anchors, 40 scores."""
    return synth(np.random.default_rng(77), 2, 8, 40, 64, 0.06)


def write_records(path: Path, rec: Records, order=None) -> None:
    d = rec.quality.shape[1]
    lines = ["probe_id,ref_id,score,label," + ",".join(f"q{i + 1}" for i in range(d))]
    scores, quality = rec.score.tolist(), rec.quality.tolist()
    for i in range(len(rec)) if order is None else order.tolist():
        label = "match" if rec.is_match[i] else "nonmatch"
        q = ",".join(map(repr, quality[i]))
        lines.append(f"s{rec.subject[i]:04d},s{rec.ref[i]:04d},{scores[i]!r},{label},{q}")
    path.write_text("\n".join(lines) + "\n")


def write_queries(path: Path, quality: np.ndarray) -> None:
    d = quality.shape[1]
    lines = [",".join(f"q{i + 1}" for i in range(d))]
    lines.extend(",".join(map(repr, row)) for row in quality.tolist())
    path.write_text("\n".join(lines) + "\n")


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    return rows[0], rows[1:]


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def stdout_map(text: str) -> dict[str, str]:
    return dict(line.split("=", 1) for line in text.splitlines() if "=" in line)


def mann_whitney_auc(match: np.ndarray, nonmatch: np.ndarray) -> float:
    """P(match > nonmatch) + P(tie)/2 from average ranks."""
    pooled = np.concatenate([match, nonmatch])
    _, inverse, counts = np.unique(pooled, return_inverse=True, return_counts=True)
    avg_rank = np.cumsum(counts) - (counts - 1) / 2.0
    rank_sum = float(avg_rank[inverse[: match.size]].sum())
    n1, n0 = match.size, nonmatch.size
    return (rank_sum - n1 * (n1 + 1) / 2.0) / (n1 * n0)


def hter_at(match_sorted: np.ndarray, nonmatch_sorted: np.ndarray, thresholds):
    """(FAR + FRR) / 2 with the >= accept boundary, by binary search."""
    far = 1.0 - np.searchsorted(nonmatch_sorted, thresholds, "left") / nonmatch_sorted.size
    frr = np.searchsorted(match_sorted, thresholds, "left") / match_sorted.size
    return (far + frr) / 2.0


@dataclass
class Op:
    """One attempted operation of a pass and what its checks found."""

    name: str
    seconds: float
    stdout: str = ""
    value: object = None
    error: str = ""
    start: float = 0.0  # perf_counter() when the op began

    @property
    def ok(self) -> bool:
        return not self.error


def run_cli(name: str, argv: list[str]) -> Op:
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code
        error = "" if code == 0 else f"exit {code}: {err.getvalue().strip()[-500:]}"
    except Exception:  # a crash is a failed operation, reported with its traceback
        error = traceback.format_exc(limit=-3)
    return Op(name, perf_counter() - start, out.getvalue(), None, error, start)


def run_call(name: str, fn) -> Op:
    start = perf_counter()
    try:
        value, error = fn(), ""
    except Exception:
        value, error = None, traceback.format_exc(limit=-3)
    return Op(name, perf_counter() - start, "", value, error, start)


def mae(truth: np.ndarray, header: list[str], rows: list[list[str]], column: str) -> float:
    predicted = np.array([float(r[header.index(column)]) for r in rows])
    return float(np.mean(np.abs(predicted - truth)))


class Workload:
    """Set-up, one timed pass and the output checks of one workload.

    ``rows`` is the number of input CSV rows the commands of one pass read.
    ``run_pass`` takes a ``span`` factory so the traced run can attribute
    the benchmark's own glue code.
    """

    name = ""
    rows = 0
    throughput: dict[str, tuple[str, int]] = {}
    # How much each part of the reference kernel (see gauge.py) counts in
    # the host's speed, after the kind of work the pass does: a host that
    # slows down slows interpreter-bound and array-bound code unequally.
    gauge_weights: dict[str, float] = {}

    def __init__(self, work: Path, seed: int):
        self.work = work
        self.seed = seed
        self.hashes: dict[str, str] = {}
        self.accuracy: dict[str, float] = {}

    def path(self, name: str) -> str:
        return str(self.work / name)

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self, span) -> list[Op]:
        raise NotImplementedError

    def check(self, ops: list[Op]) -> None:
        """Record in each op's ``error`` any check it fails."""
        for op in ops:
            check = getattr(self, f"check_{op.name}", None)
            if op.ok and check is not None:
                try:
                    check(op)
                except CheckFailed as exc:
                    op.error = f"check failed: {exc}"

    def same_bytes(self, *names: str) -> None:
        """Outputs must be byte-identical in every pass of a run."""
        for name in names:
            digest = sha256(self.work / name)
            if self.hashes.setdefault(name, digest) != digest:
                raise CheckFailed(f"{name} differs from the first pass")

    def record_mae(self, truth_q, threshold, header, rows, limit=None):
        fnmr = mae(LAW.fnmr(truth_q, threshold), header, rows, "fnmr_hat")
        fmr = mae(LAW.fmr(truth_q, threshold), header, rows, "fmr_hat")
        if limit is not None and not fnmr <= limit:
            raise CheckFailed(f"fnmr_mae {fnmr} above {limit}")
        self.accuracy = {"fnmr_mae": fnmr, "fmr_mae": fmr}

    def model_threshold(self, name: str) -> float:
        doc = json.loads((self.work / name).read_text())
        return float(doc["operating_point"]["threshold"])


class CheckFailed(Exception):
    pass


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def _require(op: Op) -> None:
    """Set-up operations must succeed; a failure aborts the run."""
    if not op.ok:
        raise RuntimeError(f"set-up {op.name} failed: {op.error}")


def _rates_in_unit(header, rows, columns) -> bool:
    idx = [header.index(c) for c in columns]
    return all(0.0 <= float(r[i]) <= 1.0 for r in rows for i in idx)


class FitWorkload(Workload):
    """``veriq fit`` over ten families and K=1..6, then the 49-point predict."""

    name = "fit"
    gauge_weights = {"em": 2.0, "tiny": 1.0, "vector": 1.0}  # EM iterations

    def setup(self):
        rec = demo02_records()
        order = np.random.default_rng([self.seed, 1]).permutation(len(rec))
        write_records(self.work / "records.csv", rec, order)
        axis = np.linspace(0.2, 0.8, 7)
        self.queries = np.array(list(itertools.product(axis, axis)))
        write_queries(self.work / "queries.csv", self.queries)
        self.rows = len(rec) + len(self.queries)
        self.throughput = {"predict_qps": ("predict", len(self.queries))}
        _require(run_cli("fit", ["fit", self.path("records.csv"), "--k-max", "1",
                                 "--out-model", self.path("warm.json"),
                                 "--out-bic", self.path("warm_bic.csv"),
                                 "--out-grid", self.path("warm_grid.csv"), *FIT_ARGS]))
        _require(run_cli("predict", ["predict", self.path("warm.json"),
                                     self.path("queries.csv"),
                                     "--out", self.path("warm_pred.csv")]))

    def run_pass(self, span):
        return [
            run_cli("fit", ["fit", self.path("records.csv"),
                            "--out-model", self.path("model.json"),
                            "--out-bic", self.path("bic.csv"),
                            "--out-grid", self.path("grid.csv"), *FIT_ARGS]),
            run_cli("predict", ["predict", self.path("model.json"),
                                self.path("queries.csv"),
                                "--out", self.path("predictions.csv")]),
        ]

    def check_fit(self, op):
        self.same_bytes("model.json", "bic.csv")

    def check_predict(self, op):
        header, rows = read_csv(self.work / "predictions.csv")
        _expect(len(rows) == len(self.queries), f"{len(rows)} predictions")
        _expect(_rates_in_unit(header, rows, ("fmr_hat", "fnmr_hat")), "rate outside [0, 1]")
        self.record_mae(self.queries, self.model_threshold("model.json"), header, rows,
                       FNMR_MAE_LIMIT)


class PredictRejectWorkload(Workload):
    """Batch predict, an error-versus-reject curve on the predictions, and a
    perturbation sweep over the 1,089-cell fixed grid."""

    name = "predict-reject"
    # per-query conditioning, per-cell small ROCs, CSV parsing and writing
    gauge_weights = {"tiny": 1.0, "text": 1.0}

    def setup(self):
        fit_records = demo02_records()
        order = np.random.default_rng([self.seed, 1]).permutation(len(fit_records))
        write_records(self.work / "fit.csv", fit_records, order)
        self.held = synth(np.random.default_rng([self.seed, 2]), 2, 8, 40, 64, 0.06)
        write_queries(self.work / "queries.csv", self.held.quality)
        self.sweep_tables = self._write_sweep(np.random.default_rng([self.seed, 3]))
        self.rows = 2 * len(self.held) + sum(
            m.size + n.size for m, n in self.sweep_tables.values()
        )
        self.throughput = {"predict_qps": ("predict", len(self.held)),
                           "sweep_cells_per_s": ("sweep", len(self.sweep_tables))}
        _require(run_cli("fit", ["fit", self.path("fit.csv"), "--cov-models", "VVV",
                                 "--out-model", self.path("model.json"),
                                 "--out-bic", self.path("fit_bic.csv"),
                                 "--out-grid", self.path("fit_grid.csv"), *FIT_ARGS]))
        self.model, _ = mixture.load_model_json((self.work / "model.json").read_text())
        warm_rows = np.arange(0, len(self.held), 10)
        write_queries(self.work / "warm_q.csv", self.held.quality[warm_rows])
        _require(run_cli("predict", ["predict", self.path("model.json"),
                                     self.path("warm_q.csv"),
                                     "--out", self.path("warm_pred.csv")]))
        self._write_attempts("warm_pred.csv", "warm_att.csv", warm_rows)
        _require(run_cli("erc", ["erc", self.path("warm_att.csv"), "--fmr", "0.05",
                                 "--out", self.path("warm_erc.csv")]))

    def _write_sweep(self, rng):
        tables = {}
        lines = ["theta,tx,ty,score,label"]
        for theta, tx, ty in itertools.product(THETAS, SHIFTS, SHIFTS):
            shift = 2.0 - 0.04 * abs(theta) - 0.08 * (abs(tx) + abs(ty))
            match = rng.normal(shift, LAW.match_spread, SWEEP_SCORES)
            nonmatch = rng.normal(0.0, LAW.nonmatch_spread, SWEEP_SCORES)
            tables[(float(theta), float(tx), float(ty))] = (match, nonmatch)
            key = f"{theta},{tx},{ty}"
            lines.extend(f"{key},{s!r},match" for s in match.tolist())
            lines.extend(f"{key},{s!r},nonmatch" for s in nonmatch.tolist())
        (self.work / "sweep.csv").write_text("\n".join(lines) + "\n")
        return tables

    def _write_attempts(self, predictions: str, attempts: str, rows) -> None:
        """score,label,predicted_error with the predicted FNMR as the error."""
        header, pred = read_csv(self.work / predictions)
        col = header.index("fnmr_hat")
        scores = self.held.score[rows].tolist()
        labels = np.where(self.held.is_match[rows], "match", "nonmatch")
        lines = ["score,label,predicted_error"]
        lines.extend(f"{s!r},{lab},{p[col]}" for s, lab, p in zip(scores, labels, pred))
        (self.work / attempts).write_text("\n".join(lines) + "\n")

    def run_pass(self, span):
        ops = [run_cli("predict", ["predict", self.path("model.json"),
                                   self.path("queries.csv"),
                                   "--out", self.path("predictions.csv")])]
        with span("bench.attempts"):
            ops.append(run_call("attempts", lambda: self._write_attempts(
                "predictions.csv", "attempts.csv", slice(None))))
        ops.append(run_cli("erc", ["erc", self.path("attempts.csv"), "--fmr", "0.05",
                                   "--out", self.path("erc.csv")]))
        ops.append(run_cli("sweep", ["sweep", self.path("sweep.csv"),
                                     "--out", self.path("sweep_out.csv")]))
        return ops

    def check_predict(self, op):
        self.same_bytes("predictions.csv")
        header, rows = read_csv(self.work / "predictions.csv")
        _expect(len(rows) == len(self.held), f"{len(rows)} predictions")
        _expect(_rates_in_unit(header, rows, ("fmr_hat", "fnmr_hat")), "rate outside [0, 1]")
        picks = np.random.default_rng([self.seed, 6]).choice(len(rows), SAMPLE_ROWS, False)
        for i in picks.tolist():
            q = np.array([float(v) for v in rows[i][:2]])
            expected = np.clip(mixture.condition(self.model, q).expectation, 0.0, 1.0)
            got = (float(rows[i][2]), float(rows[i][3]))
            _expect(got == tuple(expected.tolist()), f"row {i + 1} != condition()")
        self.record_mae(self.held.quality, self.model_threshold("model.json"), header, rows,
                       FNMR_MAE_LIMIT)

    def check_erc(self, op):
        header, rows = read_csv(self.work / "erc.csv")
        _expect(len(rows) == 201, f"{len(rows)} ERC points")
        _expect(_rates_in_unit(header, rows, ("residual_error", "ideal_error")),
                "residual outside [0, 1]")
        threshold = float(stdout_map(op.stdout)["threshold"])
        match = self.held.score[self.held.is_match]
        own = float(np.mean(match < threshold))
        _expect(abs(float(rows[0][1]) - own) <= 1e-12, "baseline error != own FNMR")

    def check_sweep(self, op):
        header, rows = read_csv(self.work / "sweep_out.csv")
        _expect(len(rows) == len(self.sweep_tables), f"{len(rows)} sweep cells")
        for row in rows:
            key = tuple(float(v) for v in row[:3])
            hter_value, auc = float(row[3]), float(row[4])
            _expect(0.0 <= hter_value <= 1.0 and 0.0 <= auc <= 1.0, f"cell {key} out of range")
            own = mann_whitney_auc(*self.sweep_tables[key])
            _expect(abs(auc - own) <= 1e-9, f"cell {key} AUC {auc} != {own}")


class EvaluateLargeWorkload(Workload):
    """Few calls on large arrays: validate, ROC, HTER, uniqueness and a
    one-component fit over 1,000 quality regions."""

    name = "evaluate-large"
    # CSV parsing and per-region record scans, which dominate the fit
    gauge_weights = {"tiny": 1.0, "text": 1.0}

    def setup(self):
        self.a = synth(np.random.default_rng(101), 3, 5, 64, 100, 0.06)
        self.b = synth(np.random.default_rng([self.seed, 5]), 3, 5, 64, 100, 0.06)
        order = np.random.default_rng([self.seed, 4]).permutation(len(self.a))
        write_records(self.work / "a.csv", self.a, order)
        write_records(self.work / "b.csv", self.b)
        # validate, roc, ium and fit read the first session; ium the second
        self.rows = 4 * len(self.a) + len(self.b)
        write_records(self.work / "warm.csv", self.a, np.arange(0, len(self.a), 8))
        warm = self.path("warm.csv")
        _require(run_cli("validate", ["validate", warm]))
        _require(run_cli("roc", ["roc", warm, "--out", self.path("warm_roc.csv")]))
        _require(run_cli("ium", ["ium", warm, "--compare", warm,
                                 "--out", self.path("warm_ium.csv")]))
        _require(run_cli("fit", ["fit", warm, "--k-max", "1", "--cov-models", "EII",
                                 "--n-qs", "4", "--n-rand", "5", "--fmr", "0.05",
                                 "--seed", "11", "--out-model", self.path("warm.json"),
                                 "--out-bic", self.path("warm_bic.csv"),
                                 "--out-grid", self.path("warm_grid.csv")]))

    def _hter(self):
        a, b = self.a, self.b
        threshold = metrics.select_hter_threshold(a.score[a.is_match], a.score[~a.is_match])
        return threshold, metrics.hter(b.score[b.is_match], b.score[~b.is_match], threshold)

    def run_pass(self, span):
        a, b = self.path("a.csv"), self.path("b.csv")
        return [
            run_cli("validate", ["validate", a]),
            run_cli("roc", ["roc", a, "--out", self.path("roc.csv")]),
            run_call("hter", self._hter),
            run_cli("ium", ["ium", a, "--compare", b, "--out", self.path("ium.csv")]),
            run_cli("fit", ["fit", a, "--k-max", "1", "--cov-models", "EII",
                            "--out-model", self.path("model.json"),
                            "--out-bic", self.path("bic.csv"),
                            "--out-grid", self.path("grid.csv"), *FIT_ARGS]),
        ]

    def check_validate(self, op):
        n_match = int(self.a.is_match.sum())
        expected = {"records": str(len(self.a)), "match": str(n_match),
                    "nonmatch": str(len(self.a) - n_match), "quality_dim": "3"}
        _expect(stdout_map(op.stdout) == expected, f"validate printed {op.stdout!r}")

    def check_roc(self, op):
        _, rows = read_csv(self.work / "roc.csv")
        n_unique = np.unique(self.a.score).size
        _expect(len(rows) == n_unique + 1, f"{len(rows)} ROC points for {n_unique} scores")
        auc = float(stdout_map(op.stdout)["auc"])
        own = mann_whitney_auc(self.a.score[self.a.is_match], self.a.score[~self.a.is_match])
        _expect(abs(auc - own) <= 1e-9, f"AUC {auc} != Mann-Whitney {own}")

    def check_hter(self, op):
        threshold, value = op.value
        a, b = self.a, self.b
        a_match, a_non = np.sort(a.score[a.is_match]), np.sort(a.score[~a.is_match])
        pooled = np.unique(np.concatenate([a_match, a_non]))
        candidates = np.r_[-math.inf, (pooled[:-1] + pooled[1:]) / 2.0, math.inf]
        best = float(hter_at(a_match, a_non, candidates).min())
        chosen = float(hter_at(a_match, a_non, [threshold])[0])
        _expect(abs(chosen - best) <= 1e-12, f"threshold HTER {chosen} > minimum {best}")
        own = float(hter_at(np.sort(b.score[b.is_match]), np.sort(b.score[~b.is_match]),
                            [threshold])[0])
        _expect(abs(value - own) <= 1e-12, f"HTER {value} != {own}")

    def check_ium(self, op):
        _, rows = read_csv(self.work / "ium.csv")
        non = ~self.a.is_match
        subjects, scores = self.a.subject[non], self.a.score[non]
        _expect(len(rows) == np.unique(subjects).size, f"{len(rows)} subjects")
        for subject_id, u, n in rows:
            s = scores[subjects == int(subject_id[1:])]
            own = (s.max() - s.mean()) / (s.max() - s.min())
            _expect(int(n) == s.size and abs(float(u) - own) <= 1e-12,
                    f"subject {subject_id} u {u} != {own}")
        _expect(-1.0 <= float(stdout_map(op.stdout)["pearson_r"]) <= 1.0, "pearson_r range")

    def check_fit(self, op):
        info = stdout_map(op.stdout)
        regions = int(info["regions"])
        _expect(regions == 1000, f"{regions} regions")
        _expect(info["training_shape"] == f"{regions * 20}x5",
                f"training matrix {info['training_shape']}")
        self.same_bytes("model.json", "bic.csv")
        header, rows = read_csv(self.work / "grid.csv")
        grid_q = np.array([[float(v) for v in r[:3]] for r in rows])
        self.record_mae(grid_q, self.model_threshold("model.json"), header, rows)


WORKLOADS = {w.name: w for w in (FitWorkload, PredictRejectWorkload, EvaluateLargeWorkload)}
