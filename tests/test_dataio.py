"""Record CSV parsing/writing and the synthetic score generator."""

import io
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from veriq import dataio
from veriq.dataio import (
    LABEL,
    MATCH,
    NONMATCH,
    NUMBER,
    TEXT,
    RecordSet,
    RecordsError,
    ScoreModel,
    SynthConfig,
    VerificationRecord,
    parse_quality_csv,
    parse_record_columns,
    parse_records,
    read_columns,
    records_to_text,
    synthesize_dataset,
    write_records,
)
from veriq.errors import ValidationError

HEADER_2D = "probe_id,ref_id,score,label,q1,q2"


def _rs(rows, quality_dim=2, ref_quality=False):
    return RecordSet(tuple(rows), quality_dim, ref_quality)


def test_parse_minimal_file():
    text = HEADER_2D + "\na,b,1.5,match,0.1,0.2\nc,d,-0.25,nonmatch,0.3,0.4\n"
    rs = parse_records(text)
    assert len(rs) == 2
    assert rs.quality_dim == 2
    assert rs.ref_quality is False
    first = rs.records[0]
    assert first == VerificationRecord("a", "b", 1.5, MATCH, (0.1, 0.2))
    assert rs.is_match().tolist() == [True, False]
    np.testing.assert_array_equal(rs.scores(), [1.5, -0.25])
    np.testing.assert_array_equal(rs.quality_matrix(), [[0.1, 0.2], [0.3, 0.4]])


def test_parse_gathers_all_bad_lines_with_numbers():
    text = "\n".join(
        [
            HEADER_2D,
            "a,b,1.0,match,0.1,0.2",          # line 2: fine
            "a,b,1.0,maybe,0.1,0.2",          # line 3: bad label
            "a,b,oops,match,0.1,0.2",         # line 4: bad score
            "a,b,1.0,match,0.1",              # line 5: short row
            "a,b,1.0,match,0.1,xyz",          # line 6: bad quality
        ]
    )
    with pytest.raises(RecordsError) as excinfo:
        parse_records(text)
    errors = excinfo.value.errors
    assert len(errors) == 4
    assert errors[0].startswith("line 3:") and "maybe" in errors[0]
    assert errors[1].startswith("line 4:") and "oops" in errors[1]
    assert errors[2].startswith("line 5:")
    assert errors[3].startswith("line 6:") and "xyz" in errors[3]


def test_parse_rejects_nonfinite_values():
    for token in ("inf", "-inf", "nan"):
        with pytest.raises(RecordsError):
            parse_records(HEADER_2D + f"\na,b,{token},match,0.1,0.2\n")
        with pytest.raises(RecordsError):
            parse_records(HEADER_2D + f"\na,b,1.0,match,{token},0.2\n")


def test_parse_rejects_bad_headers():
    for bad in (
        "",
        "score,label",
        "probe_id,ref_id,score,label",
        "probe_id,ref_id,score,label,x1",
        "probe_id,ref_id,score,label,q1,q3",
        "probe_id,ref_id,score,label,q1,q2,g1",
    ):
        with pytest.raises(RecordsError):
            parse_records(bad + "\n")


def test_reference_quality_header():
    text = "probe_id,ref_id,score,label,q1,q2,g1,g2\na,b,1.0,match,1.0,2.0,3.0,4.0\n"
    rs = parse_records(text)
    assert rs.quality_dim == 4
    assert rs.ref_quality is True
    assert rs.records[0].quality == (1.0, 2.0, 3.0, 4.0)
    assert records_to_text(rs).splitlines()[0] == "probe_id,ref_id,score,label,q1,q2,g1,g2"


def test_blank_lines_are_skipped():
    text = HEADER_2D + "\n\na,b,1.0,match,0.1,0.2\n\n"
    assert len(parse_records(text)) == 1


def test_roundtrip_is_exact_for_awkward_floats():
    rows = [
        VerificationRecord("p", "r", 0.1, MATCH, (1 / 3, 1e-17)),
        VerificationRecord("p", "r", -0.0, NONMATCH, (12345.678901234567, -2.5e300)),
    ]
    rs = _rs(rows)
    text = records_to_text(rs)
    back = parse_records(text)
    for orig, parsed in zip(rs.records, back.records):
        assert parsed.score == orig.score
        assert parsed.quality == orig.quality
    # a second generation is byte-identical
    assert records_to_text(back) == text


_id_strategy = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789_-", min_size=1, max_size=8
)
_float_strategy = st.floats(
    allow_nan=False, allow_infinity=False, width=64, min_value=-1e300, max_value=1e300
)


@st.composite
def _record_sets(draw):
    dim = draw(st.integers(min_value=1, max_value=3))
    n = draw(st.integers(min_value=0, max_value=12))
    rows = []
    for _ in range(n):
        rows.append(
            VerificationRecord(
                draw(_id_strategy),
                draw(_id_strategy),
                draw(_float_strategy),
                draw(st.sampled_from([MATCH, NONMATCH])),
                tuple(draw(_float_strategy) for _ in range(dim)),
            )
        )
    return RecordSet(tuple(rows), dim)


@settings(max_examples=60, deadline=None)
@given(_record_sets())
def test_roundtrip_property(rs):
    text = records_to_text(rs)
    back = parse_records(text)
    assert len(back) == len(rs)
    assert back.quality_dim == rs.quality_dim
    for orig, parsed in zip(rs.records, back.records):
        assert parsed.probe_id == orig.probe_id
        assert parsed.ref_id == orig.ref_id
        assert parsed.score == orig.score
        assert parsed.label == orig.label
        assert parsed.quality == orig.quality
    assert records_to_text(back) == text


@settings(max_examples=60, deadline=None)
@given(_record_sets(), st.booleans(), st.data())
def test_record_columns_roundtrip_property(rs, ref_quality, data):
    if ref_quality:  # the same values under q1..qm and g1..gm
        rs = RecordSet(tuple(replace(r, quality=r.quality * 2) for r in rs.records),
                       2 * rs.quality_dim, True)
    lines = records_to_text(rs).splitlines()
    # blank lines anywhere after the header; "\x85" (NEL) ends a line too
    for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
        lines.insert(data.draw(st.integers(min_value=1, max_value=len(lines))),
                     data.draw(st.sampled_from(["", " ", "\t"])))
    ends = data.draw(st.lists(st.sampled_from(["\n", "\r\n", "\x85"]),
                              min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, ends))
    columns = parse_record_columns(text)
    records = rs.records
    assert len(columns) == len(records)
    assert (columns.quality_dim, columns.ref_quality) == (rs.quality_dim, rs.ref_quality)
    assert columns.probe_ids == [r.probe_id for r in records]
    assert columns.ref_ids == [r.ref_id for r in records]
    scores = np.array([r.score for r in records], dtype=float)
    assert columns.scores.view(np.int64).tolist() == scores.view(np.int64).tolist()
    assert columns.is_match.tolist() == [r.label == MATCH for r in records]
    quality = np.array([r.quality for r in records], dtype=float).reshape(-1, rs.quality_dim)
    assert columns.quality.shape == quality.shape
    assert columns.quality.view(np.int64).tolist() == quality.view(np.int64).tolist()
    # parse_records builds its RecordSet from the same columns
    assert parse_records(text).records == records


def test_empty_recordset_roundtrip():
    rs = _rs([])
    text = records_to_text(rs)
    assert text == HEADER_2D + "\n"
    assert len(parse_records(text)) == 0


def test_identifier_with_delimiter_is_refused():
    rs = _rs([VerificationRecord("a,b", "c", 1.0, MATCH, (0.0, 0.0))])
    with pytest.raises(ValidationError):
        records_to_text(rs)


@pytest.mark.parametrize(
    "ident, why",
    [("a\nb", "delimiter"), ("a\x85b", "delimiter"),
     ("a\u2028b", "delimiter"), ("a\x0cb", "delimiter"), ("a\x1eb", "delimiter"),
     ("a\r", "delimiter"), (" a", "whitespace"), ("a\t", "whitespace"),
     ("\u3000a", "whitespace")],
)
def test_identifier_that_would_not_read_back_is_refused(ident, why):
    for probe, ref in ((ident, "c"), ("c", ident)):
        rs = _rs([VerificationRecord(probe, ref, 1.0, MATCH, (0.0, 0.0))])
        with pytest.raises(ValidationError, match=why):
            records_to_text(rs)


# line ends, whitespace, commas and a few other characters, drawn often
_awkward_ids = st.text(
    alphabet=st.sampled_from(list("ab ,\t\n\r\x0b\x0c\x1c\x85\u2028\u3000\ufeff\x00"))
    | st.characters(),
    max_size=5,
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_awkward_ids, _awkward_ids), min_size=1, max_size=4))
def test_every_identifier_the_writer_accepts_reads_back_unchanged(ids):
    rs = _rs([VerificationRecord(p, r, 1.0, MATCH, (0.0,)) for p, r in ids], quality_dim=1)
    try:
        text = records_to_text(rs)
    except ValidationError:
        return
    back = parse_records(text)
    assert [(rec.probe_id, rec.ref_id) for rec in back.records] == ids


def _per_row_records_text(records):
    """records_to_text as it wrote one record at a time: the reference."""
    m = records.quality_dim // 2 if records.ref_quality else records.quality_dim
    header = ["probe_id", "ref_id", "score", "label"] + [f"q{i}" for i in range(1, m + 1)]
    if records.ref_quality:
        header += [f"g{i}" for i in range(1, m + 1)]
    lines = [",".join(header)]
    for rec in records.records:
        for ident in (rec.probe_id, rec.ref_id):
            if "," in ident or "\n" in ident or "\r" in ident:
                raise ValidationError(f"identifier {ident!r} contains a delimiter")
        row = [rec.probe_id, rec.ref_id, repr(float(rec.score)), rec.label]
        row.extend(repr(float(v)) for v in rec.quality)
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


# floats and ints, as a caller may put either in a record
_NUMBER_FIELDS = _float_strategy | st.integers(-10**20, 10**20)


@st.composite
def _loose_record_sets(draw):
    """Record sets with int or float scores and quality, and now and then an
    identifier holding a delimiter."""
    ref_quality = draw(st.booleans())
    dim = draw(st.integers(min_value=1, max_value=3)) * (2 if ref_quality else 1)
    ident = _id_strategy | st.sampled_from(["a,b", "x\n", "\ry", ","])
    rows = [
        VerificationRecord(draw(ident), draw(ident), draw(_NUMBER_FIELDS),
                           draw(st.sampled_from([MATCH, NONMATCH])),
                           tuple(draw(_NUMBER_FIELDS) for _ in range(dim)))
        for _ in range(draw(st.integers(min_value=0, max_value=10)))
    ]
    return RecordSet(tuple(rows), dim, ref_quality)


@settings(max_examples=100, deadline=None)
@given(_loose_record_sets())
def test_records_to_text_equals_the_per_row_reference(rs):
    try:
        expected = _per_row_records_text(rs)
    except ValidationError as exc:
        with pytest.raises(ValidationError) as excinfo:
            records_to_text(rs)
        assert str(excinfo.value) == str(exc)
        return
    assert records_to_text(rs) == expected


def test_recordset_validates_quality_length():
    with pytest.raises(ValidationError):
        _rs([VerificationRecord("a", "b", 1.0, MATCH, (0.0,))])
    with pytest.raises(ValidationError):
        RecordSet((), 0)
    with pytest.raises(ValidationError):
        RecordSet((), 3, ref_quality=True)


def test_write_records_to_path_is_atomic(tmp_path):
    rs = _rs([VerificationRecord("a", "b", 1.0, MATCH, (0.5, 0.5))])
    path = tmp_path / "records.csv"
    write_records(rs, path)
    assert path.read_text() == records_to_text(rs)
    leftovers = [p for p in tmp_path.iterdir() if p.name != "records.csv"]
    assert leftovers == []


def test_failed_write_names_the_path_and_leaves_no_temp_file(tmp_path):
    # the rename onto a directory fails after the temp file is written
    target = tmp_path / "taken"
    target.mkdir()
    with pytest.raises(ValidationError, match=f"cannot write {target}: "):
        dataio.atomic_write_text(target, "text\n")
    with pytest.raises(ValidationError, match="cannot write .*missing"):
        dataio.atomic_write_text(tmp_path / "missing" / "out.csv", "text\n")
    assert [p.name for p in tmp_path.iterdir()] == ["taken"]
    assert list(target.iterdir()) == []


def test_write_records_to_stream():
    rs = _rs([VerificationRecord("a", "b", 1.0, MATCH, (0.5, 0.5))])
    buf = io.StringIO()
    write_records(rs, buf)
    assert buf.getvalue() == records_to_text(rs)


def test_write_csv_formats_floats_and_bools(tmp_path):
    path = tmp_path / "t.csv"
    dataio.write_csv(path, ["a", "b", "c"], [(0.1, True, "x"), (1 / 3, False, "y")])
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b,c"
    assert lines[1] == "0.1,true,x"
    assert float(lines[2].split(",")[0]) == 1 / 3


def _per_value_csv(header, rows):
    """write_csv's text formatted one value at a time: the reference."""

    def fmt(value):
        if isinstance(value, (bool, np.bool_)):
            return str(bool(value)).lower()
        if isinstance(value, (float, np.floating)):
            return repr(float(value))
        return str(value)

    lines = [",".join(header)] + [",".join(fmt(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


_CSV_FLOATS = st.sampled_from(
    [-0.0, 0.0, 5e-324, 1e308, -1e308, math.inf, math.nan, 0.1, 1 / 3]
) | st.floats()
_CSV_VALUES = {
    "bool": st.booleans(),
    "np.bool_": st.booleans().map(np.bool_),
    "int": st.integers(-10**20, 10**20),
    "str": st.text(st.characters(blacklist_characters=",\r\n"), max_size=5),
    "float": _CSV_FLOATS,
    "np.float64": _CSV_FLOATS.map(np.float64),
    "np.float32": st.floats(width=32).map(np.float32),
    "np.int64": st.integers(-2**63, 2**63 - 1).map(np.int64),
}


@st.composite
def _csv_tables(draw):
    """Columns of one value type each, or now and then of mixed types."""
    kinds = st.sampled_from(sorted(_CSV_VALUES))
    column_kinds = draw(st.lists(st.lists(kinds, min_size=1, max_size=3),
                                 min_size=1, max_size=4))
    n_rows = draw(st.integers(0, 6))
    columns = [
        [draw(_CSV_VALUES[draw(st.sampled_from(mix))]) for _ in range(n_rows)]
        for mix in column_kinds
    ]
    header = [f"c{j}" for j in range(len(columns))]
    return header, [tuple(row) for row in zip(*columns)] if n_rows else []


@settings(max_examples=200, deadline=None)
@given(_csv_tables())
def test_write_csv_equals_the_per_value_reference(table):
    header, rows = table
    sink = io.StringIO()
    dataio.write_csv(sink, header, iter(rows))  # a one-shot iterator, as traced
    assert sink.getvalue() == _per_value_csv(header, rows)


def test_parse_quality_csv():
    mat = parse_quality_csv("q1,q2\n0.1,0.2\n0.3,0.4\n")
    np.testing.assert_array_equal(mat, [[0.1, 0.2], [0.3, 0.4]])
    assert parse_quality_csv("q1\n").shape == (0, 1)
    with pytest.raises(RecordsError):
        parse_quality_csv("x1,x2\n0.1,0.2\n")
    with pytest.raises(RecordsError):
        parse_quality_csv("q1,q2\n0.1\n")
    with pytest.raises(RecordsError):
        parse_quality_csv("q1,q2\n0.1,inf\n")


# ------------------------------------------------------- the shared reader


def _columns_of_records(text):
    rs = parse_records(text)
    return [[r.probe_id for r in rs.records], [r.ref_id for r in rs.records],
            rs.scores(), rs.is_match(), *rs.quality_matrix().T]


def _record_columns(text):
    columns = parse_record_columns(text)
    return [columns.probe_ids, columns.ref_ids, columns.scores, columns.is_match,
            *columns.quality.T]


_RECORD_KINDS = (TEXT, TEXT, NUMBER, LABEL)

# The input formats: header, cell kinds, and a parser returning columns.
_FORMATS = {
    "records": ("probe_id,ref_id,score,label,q1,q2",
                _RECORD_KINDS + (NUMBER,) * 2, _columns_of_records),
    "record_columns": ("probe_id,ref_id,score,label,q1,q2,q3",
                       _RECORD_KINDS + (NUMBER,) * 3, _record_columns),
    "record_columns_qg": ("probe_id,ref_id,score,label,q1,q2,g1,g2",
                          _RECORD_KINDS + (NUMBER,) * 4, _record_columns),
    "quality": ("q1,q2,q3", (NUMBER,) * 3, lambda text: list(parse_quality_csv(text).T)),
    "attempts": ("score,label,predicted_error", (NUMBER, LABEL, NUMBER), None),
    "sweep": ("theta,tx,ty,score,label", (NUMBER,) * 4 + (LABEL,), None),
    "iqa": ("q1,q2,gamma1,gamma2", (NUMBER,) * 4, None),
}

# Good cells as written in a file: valid spellings that float() and the
# label check read, including padded, underscored, signed and subnormal ones.
_CELLS = {
    NUMBER: st.one_of(
        _float_strategy.map(repr),
        _float_strategy.map(lambda v: f" {v!r}\t"),
        st.sampled_from([" 1_000", "+.5E-3", "5e-324", "-0.0", "\t-7 ", "1e-310"]),
    ),
    LABEL: st.sampled_from([MATCH, NONMATCH, " match", "nonmatch ", "\tmatch\t"]),
    TEXT: st.one_of(_id_strategy, _id_strategy.map(lambda v: f" {v} ")),
}
_BAD_CELLS = {
    "non-numeric": (NUMBER, st.sampled_from(["", "x", "1.2.3", "0x10", "--1"])),
    "non-finite": (NUMBER, st.sampled_from(["nan", "inf", "-inf", "NaN", " Infinity"])),
    "label": (LABEL, st.sampled_from(["Match", "maybe", "", "1.0"])),
}


@st.composite
def _csv_bodies(draw, kinds):
    """Lines after the header, the numbers of the bad ones, and the good rows'
    tokens."""
    lines, bad, good = [], [], []
    choices = ["good", "good", "blank", "columns"] + [
        name for name, (kind, _) in _BAD_CELLS.items() if kind in kinds
    ]
    for lineno in range(2, 2 + draw(st.integers(min_value=0, max_value=8))):
        choice = draw(st.sampled_from(choices))
        if choice == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t", " \t  "])))
            continue
        tokens = [draw(_CELLS[kind]) for kind in kinds]
        if choice == "good":
            good.append(tokens)
        elif choice == "columns":
            tokens = tokens[:-1] if draw(st.booleans()) else tokens + ["0.5"]
        else:
            kind, bad_cell = _BAD_CELLS[choice]
            col = draw(st.sampled_from([i for i, k in enumerate(kinds) if k == kind]))
            tokens[col] = draw(bad_cell)
        if choice != "good":
            bad.append(lineno)
        lines.append(",".join(tokens))
    return lines, bad, good


def _assert_columns_read(columns, kinds, good):
    """Each column holds exactly what float(), the label check or strip()
    makes of its tokens; numbers are compared bit for bit."""
    assert len(columns) == len(kinds)
    for j, (kind, got) in enumerate(zip(kinds, columns)):
        tokens = [row[j] for row in good]
        if kind == NUMBER:
            expected = np.array([float(t) for t in tokens], dtype=float)
            got = np.asarray(got)
            assert got.dtype == np.float64
            assert got.view(np.int64).tolist() == expected.view(np.int64).tolist()
        elif kind == LABEL:
            assert np.asarray(got).dtype == bool
            assert np.asarray(got).tolist() == [t.strip() == MATCH for t in tokens]
        else:
            assert list(got) == [t.strip() for t in tokens]


# The line breaks of str.splitlines() that are no "\n"
_OTHER_LINE_ENDS = ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("name", sorted(_FORMATS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_format_reports_exactly_its_bad_lines(name, data):
    header, kinds, parse = _FORMATS[name]
    if parse is None:
        parse = lambda text: read_columns(text, header.split(","), kinds)  # noqa: E731
    lines, bad, good = data.draw(_csv_bodies(kinds))
    all_lines = [header] + lines
    # with other line ends, lines may outnumber the "\n"s
    line_ends = ["\n", "\r\n"] + (_OTHER_LINE_ENDS if data.draw(st.booleans()) else [])
    ends = data.draw(st.lists(st.sampled_from(line_ends),
                              min_size=len(all_lines), max_size=len(all_lines)))
    for i in range(1, len(ends)):
        # "\r" then an empty line's "\n" would be one "\r\n"
        if ends[i - 1] == "\r" and all_lines[i] == "" and ends[i] == "\n":
            ends[i] = "\r\n"
    text = "".join(line + end for line, end in zip(all_lines, ends))
    # small chunks, so that chunk cuts fall between and inside lines
    chunk_chars = data.draw(st.integers(min_value=1, max_value=48))
    with mock.patch.object(dataio, "_CHUNK_CHARS", chunk_chars):
        bulk = dataio._bulk_columns(text, header.split(","), kinds)
        if not bad:
            assert bulk is not None
            _assert_columns_read(bulk, kinds, good)
            _assert_columns_read(parse(text), kinds, good)
            return
        assert bulk is None
        with pytest.raises(RecordsError) as excinfo:
            parse(text)
    errors = excinfo.value.errors
    assert [int(msg.split(":")[0].removeprefix("line ")) for msg in errors] == bad
    assert errors == dataio._line_errors(text.splitlines(), header.split(","), kinds)


@pytest.mark.parametrize("end", ["\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                 "\x85", "\u2028", "\u2029"])
def test_read_columns_ends_lines_where_splitlines_does(end):
    text = end.join(["a,b", "1.5,match", "", "-2,nonmatch"]) + end
    x, is_match = read_columns(text, ["a", "b"], (NUMBER, LABEL))
    assert x.tolist() == [1.5, -2.0] and is_match.tolist() == [True, False]


def test_read_columns_names_the_bad_column():
    text = "a,b,c\nx,1.0,match\ny,oops,match\nz,2.0,maybe\nw,inf,match\n"
    with pytest.raises(RecordsError) as excinfo:
        read_columns(text, ["a", "b", "c"], (TEXT, NUMBER, LABEL))
    assert excinfo.value.errors == [
        "line 3: b: non-numeric value 'oops'",
        "line 4: c: expected match or nonmatch, found 'maybe'",
        "line 5: b: non-finite value 'inf'",
    ]
    for text in ("a,c,b\n", "", "\na,b,c\n"):
        with pytest.raises(RecordsError, match="line 1: expected header a,b,c"):
            read_columns(text, ["a", "b", "c"], (TEXT, NUMBER, LABEL))


# ---------------------------------------------------------------- ScoreModel


def test_score_model_closed_form_against_normal_cdf():
    model = ScoreModel(match_base=1.0, match_gain=2.0, match_spread=0.7,
                       nonmatch_base=-0.5, nonmatch_gain=0.0, nonmatch_spread=0.3)
    q = (0.25, 0.75)
    assert model.match_mean(q) == pytest.approx(1.0 + 2.0 * 0.5, abs=1e-15)
    for t in (-1.0, 0.0, 0.9, 2.3):
        expect_fnmr = stats.norm.cdf((t - model.match_mean(q)) / 0.7)
        expect_fmr = stats.norm.sf((t - model.nonmatch_mean(q)) / 0.3)
        assert model.fnmr(q, t) == pytest.approx(expect_fnmr, abs=1e-12)
        assert model.fmr(q, t) == pytest.approx(expect_fmr, abs=1e-12)


def test_score_model_requires_positive_spreads():
    with pytest.raises(ValidationError):
        ScoreModel(match_spread=0.0)
    with pytest.raises(ValidationError):
        ScoreModel(nonmatch_spread=-1.0)


@pytest.mark.parametrize("field", ["match_base", "match_gain", "match_spread",
                                   "nonmatch_base", "nonmatch_gain", "nonmatch_spread"])
def test_score_model_fields_must_be_finite(field):
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValidationError, match="must be finite"):
            ScoreModel(**{field: value})


def test_synth_config_validation():
    model = ScoreModel()
    grid = ((0.0, 0.0),)
    with pytest.raises(ValidationError):
        SynthConfig(1, 5, grid, model, seed=0)
    with pytest.raises(ValidationError):
        SynthConfig(5, 0, grid, model, seed=0)
    with pytest.raises(ValidationError):
        SynthConfig(5, 5, (), model, seed=0)
    with pytest.raises(ValidationError):
        SynthConfig(5, 5, ((0.0,), (0.0, 1.0)), model, seed=0)
    for jitter in (-0.1, math.nan, math.inf):
        with pytest.raises(ValidationError, match="quality_jitter"):
            SynthConfig(5, 5, grid, model, seed=0, quality_jitter=jitter)
    for bad_grid in (((0.0, math.nan),), ((0.0, 0.0), (-math.inf, 1.0))):
        with pytest.raises(ValidationError, match="anchors must be finite"):
            SynthConfig(5, 5, bad_grid, model, seed=0)


def _grid2d(k, lo=0.0, hi=1.0):
    axis = np.linspace(lo, hi, k)
    return tuple((float(a), float(b)) for a in axis for b in axis)


def test_synth_counts_and_balance():
    config = SynthConfig(7, 9, _grid2d(3), ScoreModel(), seed=11)
    rs = synthesize_dataset(config)
    assert len(rs) == 2 * 9 * 9
    assert int(np.sum(rs.is_match())) == 9 * 9
    assert rs.quality_dim == 2


def test_synth_is_deterministic_and_seed_sensitive():
    config = SynthConfig(7, 9, _grid2d(3), ScoreModel(), seed=11, quality_jitter=0.02)
    text_a = records_to_text(synthesize_dataset(config))
    text_b = records_to_text(synthesize_dataset(config))
    assert text_a == text_b
    other = SynthConfig(7, 9, _grid2d(3), ScoreModel(), seed=12, quality_jitter=0.02)
    assert records_to_text(synthesize_dataset(other)) != text_a


def test_synth_nonmatch_ref_is_never_the_probe():
    config = SynthConfig(3, 50, _grid2d(2), ScoreModel(), seed=4)
    rs = synthesize_dataset(config)
    for rec in rs.records:
        if rec.label == NONMATCH:
            assert rec.ref_id != rec.probe_id
        else:
            assert rec.ref_id == rec.probe_id


def test_synth_separable_model_separates():
    model = ScoreModel(match_base=10.0, match_gain=0.0, match_spread=0.5,
                       nonmatch_base=0.0, nonmatch_gain=0.0, nonmatch_spread=0.5)
    rs = synthesize_dataset(SynthConfig(5, 100, _grid2d(2), model, seed=3))
    scores = rs.scores()
    is_match = rs.is_match()
    assert scores[is_match].min() > scores[~is_match].max()


def test_synth_empirical_rates_track_the_analytic_model():
    model = ScoreModel(match_base=2.0, match_gain=1.0, match_spread=0.8,
                       nonmatch_base=0.0, nonmatch_gain=0.0, nonmatch_spread=0.5)
    anchor = (0.5, 0.5)
    rs = synthesize_dataset(SynthConfig(9, 4000, (anchor,), model, seed=21))
    scores = rs.scores()
    is_match = rs.is_match()
    for t in (model.match_mean(anchor), model.match_mean(anchor) - 0.8):
        fnmr_emp = float(np.mean(scores[is_match] < t))
        fmr_emp = float(np.mean(scores[~is_match] >= t))
        assert fnmr_emp == pytest.approx(model.fnmr(anchor, t), abs=0.025)
        assert fmr_emp == pytest.approx(model.fmr(anchor, t), abs=0.025)


def test_synth_quality_jitter_spreads_anchor_values():
    grid = _grid2d(2)
    exact = synthesize_dataset(SynthConfig(5, 10, grid, ScoreModel(), seed=2))
    assert {rec.quality for rec in exact.records} == set(grid)
    jittered = synthesize_dataset(
        SynthConfig(5, 10, grid, ScoreModel(), seed=2, quality_jitter=0.1)
    )
    assert len({rec.quality for rec in jittered.records}) > len(grid)


def _per_record_synth(config):
    """synthesize_dataset as it drew one record at a time: the reference."""
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
                records.append(VerificationRecord(
                    f"s{subject:04d}", f"s{ref:04d}", score, label,
                    tuple(float(v) for v in quality),
                ))
                counter += 1
    return RecordSet(tuple(records), dim)


_SYNTH_FIELDS = st.floats(min_value=-5, max_value=5, allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(min_value=1, max_value=4),
    n_anchors=st.integers(min_value=1, max_value=3),
    n_subjects=st.integers(min_value=2, max_value=7),
    scores_per_cell=st.integers(min_value=1, max_value=6),
    jitter=st.just(0.0) | st.floats(min_value=1e-3, max_value=2.0),
    seed=st.integers(min_value=0, max_value=2**32),
    data=st.data(),
)
def test_synth_equals_the_per_record_reference(dim, n_anchors, n_subjects,
                                               scores_per_cell, jitter, seed, data):
    grid = tuple(tuple(data.draw(_SYNTH_FIELDS) for _ in range(dim))
                 for _ in range(n_anchors))
    bases_gains = [data.draw(_SYNTH_FIELDS) for _ in range(4)]
    spreads = [data.draw(st.floats(min_value=0.01, max_value=3.0)) for _ in range(2)]
    model = ScoreModel(bases_gains[0], bases_gains[1], spreads[0],
                       bases_gains[2], bases_gains[3], spreads[1])
    config = SynthConfig(n_subjects, scores_per_cell, grid, model, seed, jitter)
    got, expected = synthesize_dataset(config), _per_record_synth(config)
    assert got.scores().tobytes() == expected.scores().tobytes()
    assert got.quality_matrix().tobytes() == expected.quality_matrix().tobytes()
    assert got.records == expected.records
