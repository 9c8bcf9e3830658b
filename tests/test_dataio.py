"""Record CSV parsing/writing and the synthetic score generator."""

import io
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from veriq import dataio
from veriq.alignment import parse_eyes_csv
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
    parse_records,
    read_rows,
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
    assert list(rs.labels()) == [MATCH, NONMATCH]
    assert rs.is_match().tolist() == [True, False]
    np.testing.assert_array_equal(rs.scores(), [1.5, -0.25])
    np.testing.assert_array_equal(rs.quality_matrix(), [[0.1, 0.2], [0.3, 0.4]])


def test_parse_accepts_stream_and_line_iterable():
    text = HEADER_2D + "\na,b,1.0,match,0.0,0.0\n"
    assert len(parse_records(io.StringIO(text))) == 1
    assert len(parse_records(text.splitlines())) == 1


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


def test_empty_recordset_roundtrip():
    rs = _rs([])
    text = records_to_text(rs)
    assert text == HEADER_2D + "\n"
    assert len(parse_records(text)) == 0


def test_identifier_with_delimiter_is_refused():
    rs = _rs([VerificationRecord("a,b", "c", 1.0, MATCH, (0.0, 0.0))])
    with pytest.raises(ValidationError):
        records_to_text(rs)


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


def _rows_of_records(text):
    return [
        [r.probe_id, r.ref_id, r.score, r.label, *r.quality]
        for r in parse_records(text).records
    ]


def _rows_of_eyes(text):
    return [[i, *pair.left, *pair.right, tag] for i, pair, tag in parse_eyes_csv(text)]


# The six input formats: header, cell kinds, and a parser returning rows.
_FORMATS = {
    "records": ("probe_id,ref_id,score,label,q1,q2",
                (TEXT, TEXT, NUMBER, LABEL, NUMBER, NUMBER), _rows_of_records),
    "quality": ("q1,q2,q3", (NUMBER,) * 3,
                lambda text: parse_quality_csv(text).tolist()),
    "attempts": ("score,label,predicted_error", (NUMBER, LABEL, NUMBER), None),
    "sweep": ("theta,tx,ty,score,label", (NUMBER,) * 4 + (LABEL,), None),
    "iqa": ("q1,q2,gamma1,gamma2", (NUMBER,) * 4, None),
    "eyes": ("image_id,lx,ly,rx,ry,source",
             (TEXT, NUMBER, NUMBER, NUMBER, NUMBER, TEXT), _rows_of_eyes),
}

_CELLS = {
    NUMBER: _float_strategy,
    LABEL: st.sampled_from([MATCH, NONMATCH]),
    TEXT: _id_strategy,
}
_BAD_CELLS = {
    "non-numeric": (NUMBER, st.sampled_from(["", "x", "1.2.3", "0x10", "--1"])),
    "non-finite": (NUMBER, st.sampled_from(["nan", "inf", "-inf", "NaN", " Infinity"])),
    "label": (LABEL, st.sampled_from(["Match", "maybe", "", "1.0"])),
}


@st.composite
def _csv_bodies(draw, kinds):
    """Lines after the header, the numbers of the bad ones, and the good rows."""
    lines, bad, good = [], [], []
    choices = ["good", "good", "blank", "columns"] + [
        name for name, (kind, _) in _BAD_CELLS.items() if kind in kinds
    ]
    for lineno in range(2, 2 + draw(st.integers(min_value=0, max_value=8))):
        choice = draw(st.sampled_from(choices))
        if choice == "blank":
            lines.append(draw(st.sampled_from(["", " ", "\t"])))
            continue
        values = [draw(_CELLS[kind]) for kind in kinds]
        tokens = [repr(v) if kind == NUMBER else v for kind, v in zip(kinds, values)]
        if choice == "good":
            good.append(values)
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


@pytest.mark.parametrize("name", sorted(_FORMATS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_every_format_reports_exactly_its_bad_lines(name, data):
    header, kinds, parse = _FORMATS[name]
    if parse is None:
        parse = lambda text: list(read_rows(text, header.split(","), kinds))  # noqa: E731
    lines, bad, good = data.draw(_csv_bodies(kinds))
    text = "\n".join([header] + lines) + "\n"
    if not bad:
        assert parse(text) == good
        return
    with pytest.raises(RecordsError) as excinfo:
        parse(text)
    errors = excinfo.value.errors
    assert [int(msg.split(":")[0].removeprefix("line ")) for msg in errors] == bad


def test_read_rows_names_the_bad_column():
    text = "a,b,c\nx,1.0,match\ny,oops,match\nz,2.0,maybe\nw,inf,match\n"
    with pytest.raises(RecordsError) as excinfo:
        list(read_rows(text, ["a", "b", "c"], (TEXT, NUMBER, LABEL)))
    assert excinfo.value.errors == [
        "line 3: b: non-numeric value 'oops'",
        "line 4: c: expected match or nonmatch, found 'maybe'",
        "line 5: b: non-finite value 'inf'",
    ]
    with pytest.raises(RecordsError, match="line 1: expected header a,b,c"):
        list(read_rows("a,c,b\n", ["a", "b", "c"], (TEXT, NUMBER, LABEL)))


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
    with pytest.raises(ValidationError):
        SynthConfig(5, 5, grid, model, seed=0, quality_jitter=-0.1)


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
