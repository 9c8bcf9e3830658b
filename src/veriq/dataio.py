"""Verification-record tabular IO and synthetic dataset generation.

The on-disk format is a plain CSV with header
``probe_id,ref_id,score,label,q1,...,qM`` and optional trailing reference
quality columns ``g1,...,gM``. Labels are ``match`` or ``nonmatch``. Scores
are similarities: higher means more similar. Floats are written with
``repr`` so that write -> parse is an exact inverse.
"""

from __future__ import annotations

import itertools
import math
import os
import tempfile
from collections.abc import Iterator
from dataclasses import astuple, dataclass

import numpy as np

from .errors import ValidationError

MATCH = "match"
NONMATCH = "nonmatch"
LABELS = (MATCH, NONMATCH)

# Cell kinds of read_columns columns.
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


def _cell_error(kind: str, token: str) -> str | None:
    """Why a cell of this kind cannot hold token, or None when it can."""
    token = token.strip()
    if kind == LABEL and token not in LABELS:
        return f"expected match or nonmatch, found {token!r}"
    if kind == NUMBER:
        try:
            value = float(token)
        except ValueError:
            return f"non-numeric value {token!r}"
        if not math.isfinite(value):
            return f"non-finite value {token!r}"
    return None


def _match_flags(labels) -> np.ndarray:
    """A bool array of labels that are each a ``match`` string, or, when not a
    string, a truthy value."""
    return np.array(
        [lbl == MATCH if isinstance(lbl, str) else bool(lbl) for lbl in labels], dtype=bool
    )


_LABEL_SET = frozenset(LABELS)

# The bulk path reads text in chunks of about this many characters, each cut
# right after a "\n", so str.splitlines() sees the same lines as on the whole
# text.
_CHUNK_CHARS = 1 << 18


def _line_chunks(data: str) -> Iterator[list[str]]:
    start = 0
    while start < len(data):
        end = data.find("\n", start + _CHUNK_CHARS) + 1 or len(data)
        yield data[start:end].splitlines()
        start = end


def _line_errors(lines: list[str], header: list, kinds) -> list[str]:
    """The 1-based ``line N: ...`` message of every bad line after the header,
    in line order: the per-line pass that explains a file _bulk_columns
    refused. A line's message names its first bad cell."""
    problems = []
    for lineno, raw in enumerate(itertools.islice(lines, 1, None), start=2):
        if not raw.strip():
            continue
        parts = raw.split(",")
        if len(parts) != len(header):
            problems.append(
                f"line {lineno}: expected {len(header)} columns, found {len(parts)}"
            )
            continue
        for name, kind, token in zip(header, kinds, parts):
            error = _cell_error(kind, token)
            if error is not None:
                problems.append(f"line {lineno}: {name}: {error}")
                break
    return problems


def _bulk_columns(data: str, header: list, kinds) -> list | None:
    """read_columns for an input without a bad line; None at the first fault.

    Each chunk's non-blank lines are joined and split on "," once, so
    column j is every n-th token. Every line must hold exactly n - 1
    commas, which keeps the tokens aligned. A NUMBER token is converted by
    ``float()`` itself. Columns are preallocated from the input's "\n"
    count, grown when other line ends make more lines, and filled chunk by
    chunk, so no whole-file token list exists.
    """
    n_cols = len(kinds)
    capacity = data.count("\n") + 1
    columns = [
        [] if kind == TEXT else np.empty(capacity, float if kind == NUMBER else bool)
        for kind in kinds
    ]
    filled = 0
    chunks = _line_chunks(data)
    first = next(chunks, [])
    if [c.strip() for c in (first or [""])[0].split(",")] != header:
        raise RecordsError([f"line 1: expected header {','.join(header)}"])
    for lines in itertools.chain([first[1:]], chunks):
        rows = list(filter(None, map(str.strip, lines)))
        m = len(rows)
        if m == 0:
            continue
        if filled + m > capacity:  # more lines than "\n"s: other line ends
            capacity = 2 * (filled + m)
            columns = [out if isinstance(out, list) else np.resize(out, capacity)
                       for out in columns]
        if set(map(str.count, rows, itertools.repeat(","))) != {n_cols - 1}:
            return None
        tokens = ",".join(rows).split(",")
        for j, (kind, out) in enumerate(zip(kinds, columns)):
            col = tokens[j::n_cols]
            if kind == NUMBER:
                try:
                    values = np.fromiter(map(float, col), float, count=m)
                except ValueError:
                    return None
                if not np.isfinite(values).all():
                    return None
                out[filled:filled + m] = values
            elif kind == LABEL:
                if not set(col) <= _LABEL_SET:
                    col = list(map(str.strip, col))
                    if not set(col) <= _LABEL_SET:
                        return None
                out[filled:filled + m] = np.fromiter(map(MATCH.__eq__, col), bool, count=m)
            else:
                out.extend(map(str.strip, col))
        filled += m
    return [out if isinstance(out, list) else out[:filled] for out in columns]


def read_columns(text: str, header, kinds) -> list:
    """The columns of CSV text whose first line is exactly ``header``.

    ``kinds`` gives each column's cell kind and what it becomes: NUMBER a
    float64 array of ``float()`` values (nan and +-inf are rejected), LABEL a
    bool array, True for ``match`` (``nonmatch`` is the only other label),
    TEXT a list of stripped strings. Blank lines are skipped; lines end where
    ``str.splitlines`` ends them.

    The whole input is first converted in bulk. At the first bad cell or
    column count it is read again line by line, which gives every bad line
    one 1-based ``line N: ...`` message and raises all of them together, in
    line order, as one RecordsError.
    """
    header = list(header)
    columns = _bulk_columns(text, header, kinds)
    if columns is None:
        raise RecordsError(_line_errors(text.splitlines(), header, kinds))
    return columns


@dataclass(frozen=True)
class RecordColumns:
    """A records file as columns in file order: ids, scores, match flags and
    the (N, quality_dim) quality matrix."""

    probe_ids: list[str]
    ref_ids: list[str]
    scores: np.ndarray
    is_match: np.ndarray
    quality: np.ndarray
    ref_quality: bool

    @property
    def quality_dim(self) -> int:
        return self.quality.shape[1]

    def __len__(self):
        return self.scores.size


def parse_record_columns(text: str) -> RecordColumns:
    """Parse records CSV text into columns, with parse_records' checks and
    messages: a bad header, or every bad line at once, raises RecordsError."""
    # the first line ends at or before the first "\n"
    first = text.partition("\n")[0].splitlines()
    quality_dim, ref_quality = _parse_header(first[0] if first else "")
    probe_ids, ref_ids, scores, is_match, *quality = read_columns(
        text,
        list(_FIXED_COLUMNS) + _quality_header(quality_dim, ref_quality),
        (TEXT, TEXT, NUMBER, LABEL) + (NUMBER,) * quality_dim,
    )
    return RecordColumns(probe_ids, ref_ids, scores, is_match, np.column_stack(quality),
                         ref_quality)


def _record_set(columns: RecordColumns) -> RecordSet:
    labels = [MATCH if m else NONMATCH for m in columns.is_match.tolist()]
    records = tuple(map(
        VerificationRecord, columns.probe_ids, columns.ref_ids, columns.scores.tolist(),
        labels, map(tuple, columns.quality.tolist()),
    ))
    return RecordSet(records, columns.quality_dim, columns.ref_quality)


def parse_records(text: str) -> RecordSet:
    """Parse CSV text into a RecordSet.

    All malformed lines are gathered and raised together as a RecordsError
    whose messages carry 1-based line numbers.
    """
    return _record_set(parse_record_columns(text))


def records_to_text(records: RecordSet) -> str:
    """The records as CSV text; scores and quality go through ``float()``."""
    probe_ids = [rec.probe_id for rec in records.records]
    ref_ids = [rec.ref_id for rec in records.records]
    for ident in itertools.chain.from_iterable(zip(probe_ids, ref_ids)):
        if "," in ident or "\n" in ident or "\r" in ident:
            raise ValidationError(f"identifier {ident!r} contains a delimiter")
    return _csv_text(
        list(_FIXED_COLUMNS) + _quality_header(records.quality_dim, records.ref_quality),
        [probe_ids, ref_ids, records.scores().tolist(),
         [rec.label for rec in records.records], *records.quality_matrix().T.tolist()],
        len(records),
    )


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


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


_BOOL_TEXT = {True: "true", False: "false"}
# the formatter of a column whose values all have one of these types
_COLUMN_FORMATS = {float: float.__repr__, bool: _BOOL_TEXT.__getitem__, int: str, str: str}


def _format_column(column) -> list[str]:
    """_format_cell of every value, one call per column where one type fills it."""
    types = set(map(type, column))
    formatter = _COLUMN_FORMATS.get(types.pop()) if len(types) == 1 else None
    return list(map(formatter or _format_cell, column))


def _csv_text(header: list[str], columns, n_rows: int) -> str:
    """CSV text of n_rows rows given as equal-length columns: bools as
    true/false, floats via repr, everything else via str."""
    lines = [",".join(header)]
    formatted = list(map(_format_column, columns))
    lines.extend(map(",".join, zip(*formatted)) if formatted else [""] * n_rows)
    return "\n".join(lines) + "\n"


def write_csv(path_or_stream, header: list[str], rows) -> None:
    """Emit a CSV, formatted as _csv_text does.

    ``rows`` may be a one-shot iterator of equal-length rows; it is listed
    once and formatted column by column.
    """
    rows = list(rows)
    _write_text(path_or_stream, _csv_text(header, zip(*rows, strict=True), len(rows)))


def parse_quality_csv(text: str) -> np.ndarray:
    """Parse CSV text with header q1..qM into an (N, M) float matrix."""
    # the first line ends at or before the first "\n"
    first = text.partition("\n")[0].splitlines()
    n_axes = first[0].count(",") + 1 if first else 1
    return np.column_stack(
        read_columns(text, _quality_header(n_axes, False), (NUMBER,) * n_axes)
    )


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
    per_cell, jitter = config.scores_per_cell, config.quality_jitter
    laws = ((model.match_base, model.match_gain, model.match_spread),
            (model.nonmatch_base, model.nonmatch_gain, model.nonmatch_spread))
    qualities, scores = [], []
    for anchor in np.asarray(config.quality_grid, dtype=float):
        for base, gain, spread in laws:
            if jitter > 0:  # per record, d quality normals, then the score's
                draws = rng.standard_normal((per_cell, dim + 1))
                qualities.append(anchor + jitter * draws[:, :dim])
                scores.append(base + gain * qualities[-1].mean(axis=1) + spread * draws[:, dim])
            else:
                qualities.append(np.tile(anchor, (per_cell, 1)))
                scores.append(rng.normal(base + gain * np.mean(anchor), spread, per_cell))
    quality, score = np.concatenate(qualities), np.concatenate(scores)
    bad = ~(np.isfinite(score) & np.isfinite(quality).all(axis=1))
    if bad.any():
        raise ValidationError(f"synthesized record {int(bad.argmax()) + 1} has a non-finite "
                              "quality or score: the settings overflow")
    n = config.n_subjects
    is_match = np.tile(np.repeat([True, False], per_cell), len(config.quality_grid))
    subjects = [c % n for c in range(score.size)]
    refs = [s if m else (s + 1 + c % (n - 1)) % n
            for c, (s, m) in enumerate(zip(subjects, is_match.tolist()))]
    return _record_set(RecordColumns([f"s{s:04d}" for s in subjects],
                                     [f"s{r:04d}" for r in refs],
                                     score, is_match, quality, False))
