"""Verification-record tabular IO and synthetic dataset generation.

The on-disk format is a plain CSV with header
``probe_id,ref_id,score,label,q1,...,qM`` and optional trailing reference
quality columns ``g1,...,gM``. Labels are ``match`` or ``nonmatch``. Scores
are similarities: higher means more similar. Floats are written with
``repr`` so that write -> parse is an exact inverse.
"""

from __future__ import annotations

import io
import itertools
import math
import os
import tempfile
from collections.abc import Iterator
from dataclasses import astuple, dataclass, field

import numpy as np

from .errors import ValidationError

MATCH = "match"
NONMATCH = "nonmatch"
LABELS = (MATCH, NONMATCH)

# Cell kinds of read_rows columns.
NUMBER = "number"
LABEL = "label"
TEXT = "text"

_FIXED_COLUMNS = ("probe_id", "ref_id", "score", "label")


class RecordsError(ValidationError):
    """Malformed CSV input. ``errors`` lists per-line messages."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("\n".join(self.errors))


@dataclass(frozen=True)
class VerificationRecord:
    """One verification attempt: a score, its label, and quality features."""

    probe_id: str
    ref_id: str
    score: float
    label: str
    quality: tuple[float, ...]


@dataclass(frozen=True)
class RecordSet:
    """Ordered collection of records with a common quality dimension."""

    records: tuple[VerificationRecord, ...]
    quality_dim: int
    ref_quality: bool = False
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.quality_dim <= 0:
            raise ValidationError("quality_dim must be positive")
        if self.ref_quality and self.quality_dim % 2 != 0:
            raise ValidationError("reference quality implies an even quality_dim")
        for rec in self.records:
            if len(rec.quality) != self.quality_dim:
                raise ValidationError(
                    f"record {rec.probe_id!r} has quality length {len(rec.quality)}, "
                    f"expected {self.quality_dim}"
                )

    def __len__(self):
        return len(self.records)

    def scores(self) -> np.ndarray:
        return np.array([r.score for r in self.records], dtype=float)

    def is_match(self) -> np.ndarray:
        return np.array([r.label == MATCH for r in self.records], dtype=bool)

    def quality_matrix(self) -> np.ndarray:
        if not self.records:
            return np.empty((0, self.quality_dim), dtype=float)
        return np.array([r.quality for r in self.records], dtype=float)


def _quality_header(quality_dim: int, ref_quality: bool) -> list[str]:
    if ref_quality:
        m = quality_dim // 2
        return [f"q{i}" for i in range(1, m + 1)] + [f"g{i}" for i in range(1, m + 1)]
    return [f"q{i}" for i in range(1, quality_dim + 1)]


def _as_lines(source) -> list[str]:
    if isinstance(source, str):
        text = source
    elif isinstance(source, io.TextIOBase) or hasattr(source, "read"):
        text = source.read()
    else:
        return [str(line).rstrip("\r\n") for line in source]
    return text.splitlines()


def _parse_header(line: str):
    cols = [c.strip() for c in line.split(",")]
    if len(cols) < 5 or tuple(cols[:4]) != _FIXED_COLUMNS:
        raise RecordsError(
            [f"line 1: expected header starting with {','.join(_FIXED_COLUMNS)},q1,..."]
        )
    tail = cols[4:]
    m = 0
    while m < len(tail) and tail[m] == f"q{m + 1}":
        m += 1
    if m == 0:
        raise RecordsError(["line 1: expected at least one quality column q1"])
    rest = tail[m:]
    if not rest:
        return m, False
    expected_g = [f"g{i}" for i in range(1, m + 1)]
    if rest != expected_g:
        raise RecordsError(
            [f"line 1: trailing columns {rest!r} are neither q-continuation nor g1..g{m}"]
        )
    return 2 * m, True


def _number(token: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ValueError(f"non-numeric value {token.strip()!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {token.strip()!r}")
    return value


def _label(token: str) -> str:
    token = token.strip()
    if token not in LABELS:
        raise ValueError(f"expected match or nonmatch, found {token!r}")
    return token


# Callers name kinds, not these converters: perfbench's tracer wraps every
# public function of a layer, and a span per cell would swamp a traced run.
_CONVERTERS = {NUMBER: _number, LABEL: _label, TEXT: str.strip}


def read_rows(source, header, kinds) -> Iterator[list]:
    """Yield the converted rows of a CSV whose first line is exactly ``header``.

    ``source`` is CSV text, a text stream or an iterable of lines. ``kinds``
    gives each column's cell kind: NUMBER converts with ``float()`` and
    rejects nan and +-inf, LABEL accepts ``match``/``nonmatch``, TEXT keeps
    the stripped string. Blank lines are skipped. Every bad line gets one
    1-based ``line N: ...`` message, and after the last good row all of them
    are raised together, in line order, as one RecordsError. Rows are
    yielded, not listed, so a caller that groups them holds each only once.
    """
    lines = _as_lines(source)
    header = list(header)
    if not lines or [c.strip() for c in lines[0].split(",")] != header:
        raise RecordsError([f"line 1: expected header {','.join(header)}"])
    converters = [_CONVERTERS[kind] for kind in kinds]
    n_cols = len(header)
    problems = []
    for lineno, raw in enumerate(itertools.islice(lines, 1, None), start=2):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != n_cols:
            problems.append(
                f"line {lineno}: expected {n_cols} columns, found {len(parts)}"
            )
            continue
        row = []
        try:
            for convert, token in zip(converters, parts):
                row.append(convert(token))
        except ValueError as exc:
            problems.append(f"line {lineno}: {header[len(row)]}: {exc}")
            continue
        yield row
    if problems:
        raise RecordsError(problems)


def parse_records(source, meta: dict | None = None) -> RecordSet:
    """Parse CSV text (string, stream, or line iterable) into a RecordSet.

    All malformed lines are gathered and raised together as a RecordsError
    whose messages carry 1-based line numbers.
    """
    lines = _as_lines(source)
    quality_dim, ref_quality = _parse_header(lines[0] if lines else "")
    header = list(_FIXED_COLUMNS) + _quality_header(quality_dim, ref_quality)
    kinds = (TEXT, TEXT, NUMBER, LABEL) + (NUMBER,) * quality_dim
    records = tuple(
        VerificationRecord(probe_id, ref_id, score, label, tuple(quality))
        for probe_id, ref_id, score, label, *quality in read_rows(lines, header, kinds)
    )
    return RecordSet(records, quality_dim, ref_quality, meta or {})


def _format_float(x: float) -> str:
    return repr(float(x))


def records_to_text(records: RecordSet) -> str:
    header = ",".join(
        list(_FIXED_COLUMNS) + _quality_header(records.quality_dim, records.ref_quality)
    )
    lines = [header]
    for rec in records.records:
        for ident in (rec.probe_id, rec.ref_id):
            if "," in ident or "\n" in ident or "\r" in ident:
                raise ValidationError(f"identifier {ident!r} contains a delimiter")
        row = [rec.probe_id, rec.ref_id, _format_float(rec.score), rec.label]
        row.extend(_format_float(v) for v in rec.quality)
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _write_text(sink, text: str) -> None:
    """Write text to a text stream, or atomically to a path."""
    if hasattr(sink, "write"):
        sink.write(text)
    else:
        atomic_write_text(sink, text)


def write_records(records: RecordSet, sink) -> None:
    """Write a RecordSet as CSV to a path or text stream (LF line endings)."""
    _write_text(sink, records_to_text(records))


def atomic_write_text(path, text: str) -> None:
    """Write text to path atomically (temp file in same dir, then rename).

    An OSError (a missing directory, a directory at path, a full disk)
    becomes a ValidationError naming path; the temp file is removed.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp_", suffix=".part")
        try:
            with os.fdopen(fd, "w", newline="\n") as handle:
                handle.write(text)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from exc


def write_csv(path_or_stream, header: list[str], rows) -> None:
    """Emit a small CSV: floats via repr, everything else via str."""

    def fmt(value):
        if isinstance(value, (bool, np.bool_)):
            return str(bool(value)).lower()
        if isinstance(value, (float, np.floating)):
            return _format_float(value)
        return str(value)

    lines = [",".join(header)]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    _write_text(path_or_stream, "\n".join(lines) + "\n")


def parse_quality_csv(source) -> np.ndarray:
    """Parse a CSV with header q1..qM into an (N, M) float matrix."""
    lines = _as_lines(source)
    n_axes = lines[0].count(",") + 1 if lines else 1
    rows = read_rows(lines, _quality_header(n_axes, False), (NUMBER,) * n_axes)
    return np.array(list(rows), dtype=float).reshape(-1, n_axes)


@dataclass(frozen=True)
class ScoreModel:
    """Gaussian score generator: class mean is affine in mean quality.

    match score  ~ N(match_base + match_gain * qbar, match_spread^2)
    nonmatch score ~ N(nonmatch_base + nonmatch_gain * qbar, nonmatch_spread^2)
    where qbar is the mean of the quality vector. Every field must be
    finite and the spreads positive.
    """

    match_base: float = 3.0
    match_gain: float = 2.0
    match_spread: float = 0.5
    nonmatch_base: float = 0.0
    nonmatch_gain: float = 0.0
    nonmatch_spread: float = 0.5

    def __post_init__(self):
        if not all(map(math.isfinite, astuple(self))):
            raise ValidationError("score model fields must be finite")
        if self.match_spread <= 0 or self.nonmatch_spread <= 0:
            raise ValidationError("score spreads must be positive")

    def match_mean(self, quality) -> float:
        return self.match_base + self.match_gain * float(np.mean(quality))

    def nonmatch_mean(self, quality) -> float:
        return self.nonmatch_base + self.nonmatch_gain * float(np.mean(quality))

    def fnmr(self, quality, threshold: float) -> float:
        # P(match score < t) under the Gaussian model
        z = (threshold - self.match_mean(quality)) / self.match_spread
        return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))

    def fmr(self, quality, threshold: float) -> float:
        # P(nonmatch score >= t)
        z = (threshold - self.nonmatch_mean(quality)) / self.nonmatch_spread
        return 1.0 - 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


@dataclass(frozen=True)
class SynthConfig:
    """Configuration for synthesize_dataset; a pure function of its fields."""

    n_subjects: int
    scores_per_cell: int
    quality_grid: tuple[tuple[float, ...], ...]
    score_model: ScoreModel
    seed: int
    quality_jitter: float = 0.0

    def __post_init__(self):
        if self.scores_per_cell < 1:
            raise ValidationError("scores_per_cell must be >= 1")
        if not self.quality_grid:
            raise ValidationError("quality_grid must not be empty")
        dims = {len(anchor) for anchor in self.quality_grid}
        if len(dims) != 1 or 0 in dims:
            raise ValidationError("quality anchors must share a positive dimension")
        if not all(math.isfinite(v) for anchor in self.quality_grid for v in anchor):
            raise ValidationError("quality anchors must be finite")
        if self.n_subjects < 2:
            raise ValidationError("need at least 2 subjects for nonmatch pairs")
        if not 0 <= self.quality_jitter < math.inf:  # also rejects nan
            raise ValidationError("quality_jitter must be finite and >= 0")


@np.errstate(over="ignore", invalid="ignore")
def synthesize_dataset(config: SynthConfig) -> RecordSet:
    """Generate scores_per_cell match + nonmatch records per quality anchor.

    Deterministic given config.seed. Ground-truth error rates at any
    threshold come from config.score_model.fnmr / .fmr. A drawn quality or
    score that overflows to a non-finite value is a ValidationError.
    """
    rng = np.random.default_rng(config.seed)
    dim = len(config.quality_grid[0])
    model = config.score_model
    records = []
    counter = 0
    for anchor in config.quality_grid:
        anchor_arr = np.asarray(anchor, dtype=float)
        for label in (MATCH, NONMATCH):
            mean_fn = model.match_mean if label == MATCH else model.nonmatch_mean
            spread = model.match_spread if label == MATCH else model.nonmatch_spread
            for _ in range(config.scores_per_cell):
                subject = counter % config.n_subjects
                if label == MATCH:
                    ref = subject
                else:
                    ref = (subject + 1 + counter % (config.n_subjects - 1)) % config.n_subjects
                if config.quality_jitter > 0:
                    quality = anchor_arr + config.quality_jitter * rng.standard_normal(dim)
                else:
                    quality = anchor_arr
                score = float(rng.normal(mean_fn(quality), spread))
                if not (math.isfinite(score) and np.all(np.isfinite(quality))):
                    raise ValidationError(
                        f"synthesized record {counter + 1} has a non-finite quality or "
                        "score: the settings overflow"
                    )
                records.append(
                    VerificationRecord(
                        probe_id=f"s{subject:04d}",
                        ref_id=f"s{ref:04d}",
                        score=score,
                        label=label,
                        quality=tuple(float(v) for v in quality),
                    )
                )
                counter += 1
    return RecordSet(tuple(records), dim, False, {"source": "synthetic"})
