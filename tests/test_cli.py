"""End-to-end command-line checks, run in process via cli.main."""

import contextlib
import io
import json
import math
import multiprocessing
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from veriq import alignment, cli, dataio, mixture, quality


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stdout_map(out: str) -> dict[str, str]:
    pairs = [line.split("=", 1) for line in out.splitlines() if "=" in line]
    return dict(pairs)


def test_importing_the_cli_does_not_import_scipy():
    # every veriq call is a fresh process; scipy.special costs more to import
    # than numpy, and only the Beta quantile needs it
    src = Path(__file__).resolve().parents[1] / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    subprocess.run(
        [sys.executable, "-c", "import veriq.cli, sys; assert 'scipy' not in sys.modules"],
        env=env, check=True, timeout=60,
    )


def synth(tmp_path, capsys, name="records.csv", extra=()):
    path = tmp_path / name
    argv = [
        "synth", "--out", str(path),
        "--axes", "2", "--anchors-per-axis", "3",
        "--scores-per-cell", "20", "--n-subjects", "10",
        "--seed", "7",
    ] + list(extra)
    code, out, err = run(argv, capsys)
    assert code == 0, err
    return path, out


# ----------------------------------------------------------- validate/synth

def test_validate_reports_counts(tmp_path, capsys):
    path, _ = synth(tmp_path, capsys)
    code, out, err = run(["validate", str(path)], capsys)
    assert code == 0 and err == ""
    info = stdout_map(out)
    assert info["records"] == "360"  # 9 anchors x 20 per cell x 2 labels
    assert info["match"] == "180"
    assert info["nonmatch"] == "180"
    assert info["quality_dim"] == "2"


def test_validate_lists_each_bad_line_on_stderr(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text(
        "probe_id,ref_id,score,label,q1\n"
        "a,b,0.5,match,0.1\n"
        "a,b,oops,match,0.1\n"
        "a,b,0.5,maybe,0.1\n"
    )
    code, out, err = run(["validate", str(path)], capsys)
    assert code == 1
    messages = err.splitlines()
    assert len(messages) == 2
    assert "line 3" in messages[0]
    assert "line 4" in messages[1]


def test_validate_missing_file(tmp_path, capsys):
    code, _, err = run(["validate", str(tmp_path / "absent.csv")], capsys)
    assert code == 1
    assert "validation error" in err


def test_an_input_that_is_not_utf8_is_one_validation_error(tmp_path, capsys):
    # the byte sits past the first 8 KiB, so the offset is the file's, not a buffer's
    path = tmp_path / "records.csv"
    head = "probe_id,ref_id,score,label,q1\n" + "a,b,1.0,match,0.5\n" * 500
    path.write_bytes(head.encode() + b"a,\xffb,1.0,match,0.5\n")
    code, out, err = run(["validate", str(path)], capsys)
    assert code == 1 and out == ""
    assert err == (f"validation error: cannot read {path}: not UTF-8 at byte offset "
                   f"{len(head) + 2}: invalid start byte\n")


def test_an_input_that_starts_with_a_byte_order_mark_is_one_validation_error(tmp_path,
                                                                               capsys):
    records = tmp_path / "records.csv"
    records.write_bytes(b"\xef\xbb\xbfprobe_id,ref_id,score,label,q1\na,b,1.0,match,0.5\n")
    code, out, err = run(["validate", str(records)], capsys)
    assert (code, out) == (1, "")
    assert err == (f"validation error: cannot read {records}: "
                   "starts with a UTF-8 byte-order mark\n")
    # the model file is read through the same reader
    queries = tmp_path / "queries.csv"
    _write_model_and_queries(queries)
    model = tmp_path / "model.json"
    model.write_bytes(b"\xef\xbb\xbf" + model.read_bytes())
    dest = tmp_path / "predictions.csv"
    code, out, err = run(["predict", str(model), str(queries), "--out", str(dest)], capsys)
    assert (code, out) == (1, "") and not dest.exists()
    assert err == (f"validation error: cannot read {model}: "
                   "starts with a UTF-8 byte-order mark\n")


def test_synth_is_byte_deterministic(tmp_path, capsys):
    a, out_a = synth(tmp_path, capsys, "a.csv")
    b, _ = synth(tmp_path, capsys, "b.csv")
    assert a.read_bytes() == b.read_bytes()
    info = stdout_map(out_a)
    assert info["records"] == "360"
    assert info["anchors"] == "9"


@pytest.mark.parametrize(
    "flag, value",
    [("--anchor-lo", "nan"), ("--anchor-hi", "inf"), ("--match-spread", "nan"),
     ("--nonmatch-gain", "inf"), ("--quality-jitter", "inf"), ("--quality-jitter", "nan")],
)
def test_synth_rejects_non_finite_settings(tmp_path, capsys, flag, value):
    dest = tmp_path / "x.csv"
    code, _, err = run(["synth", "--out", str(dest), "--seed", "1", f"{flag}={value}"],
                       capsys)
    assert code == 1
    assert err.startswith("validation error:") and "finite" in err
    assert not dest.exists()


@pytest.mark.parametrize(
    "extra",
    [("--quality-jitter", "1e308"), ("--match-base", "1e308", "--match-gain", "1e308")],
)
def test_synth_rejects_settings_that_overflow(tmp_path, capsys, extra):
    # finite settings whose draws overflow: one line, no file, no RuntimeWarning
    dest = tmp_path / "x.csv"
    code, _, err = run(["synth", "--out", str(dest), "--seed", "1", *extra], capsys)
    assert code == 1
    assert err.startswith("validation error: synthesized record ")
    assert "non-finite quality or score" in err and len(err.splitlines()) == 1
    assert not dest.exists()


@pytest.mark.parametrize(
    "extra",
    [("--axes", "40", "--anchors-per-axis", "2"),
     ("--axes", "1000000000", "--anchors-per-axis", "1"),
     ("--axes", "0"), ("--axes", "-1"), ("--scores-per-cell", "0"), ("--seed", "-1")],
)
def test_synth_rejects_oversized_or_empty_requests(tmp_path, capsys, extra):
    # 2^40 anchors or 10^9 axes would exhaust memory; the check comes first
    dest = tmp_path / "x.csv"
    code, _, err = run(["synth", "--out", str(dest), "--seed", "1", *extra], capsys)
    assert code == 2
    assert err.startswith("usage error:") and len(err.splitlines()) == 1
    assert not dest.exists()


def test_a_flag_argparse_cannot_read_is_one_usage_error_line(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["fit", "absent.csv", "--seed", "1", "--n-qs", "nan"])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        "usage error: argument --n-qs: invalid int value: 'nan'\n")


def test_seed_is_required(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["synth", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == 2
    capsys.readouterr()


def test_unknown_subcommand_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


# ------------------------------------------------------------- fit/predict

FIT_FLAGS = [
    "--mode", "grid", "--n-qs", "5", "--n-rand", "10",
    "--fmr", "0.05", "--k-min", "1", "--k-max", "2",
    "--cov-models", "EII,VVI", "--grid-points", "4",
    "--seed", "3",
]


def fit(tmp_path, capsys, records_path, subdir="fit"):
    out = tmp_path / subdir
    out.mkdir()
    argv = [
        "fit", str(records_path),
        "--out-model", str(out / "model.json"),
        "--out-bic", str(out / "bic.csv"),
        "--out-grid", str(out / "grid.csv"),
        "--out-regions", str(out / "regions.csv"),
        "--out-posteriors", str(out / "posteriors.csv"),
    ] + FIT_FLAGS
    code, stdout, err = run(argv, capsys)
    assert code == 0, err
    return out, stdout_map(stdout)


@pytest.fixture()
def fitted(tmp_path, capsys):
    records, _ = synth(tmp_path, capsys, extra=("--quality-jitter", "0.08"))
    out, info = fit(tmp_path, capsys, records)
    return records, out, info


def test_fit_writes_all_artifacts(fitted):
    _, out, info = fitted
    assert info["regions"] == "9"  # (5 - 2)^2 interior quantile cells
    assert info["training_shape"] == "90x4"
    assert info["selected_k"] in {"1", "2"}
    assert info["selected_parametrization"] in {"EII", "VVI"}
    float(info["threshold"])
    assert 0.0 <= float(info["achieved_fmr"]) <= 0.05
    float(info["bic"])

    model, point = mixture.load_model_json((out / "model.json").read_text())
    assert model.d_q == 2 and model.d_r == 2
    assert point is not None
    assert point.threshold == float(info["threshold"])

    bic_lines = (out / "bic.csv").read_text().splitlines()
    assert bic_lines[0] == "k,parametrization,n_params,loglik,bic,status"
    assert len(bic_lines) == 1 + 2 * 2  # k in {1,2} x {EII,VVI}

    grid_lines = (out / "grid.csv").read_text().splitlines()
    assert grid_lines[0] == "q1,q2,fmr_hat,fnmr_hat"
    assert len(grid_lines) == 1 + 16  # 4x4 evaluation grid

    regions_lines = (out / "regions.csv").read_text().splitlines()
    assert regions_lines[0] == "region_id,axis,lower,center,upper,n_members"
    assert len(regions_lines) == 1 + 9 * 2

    post_lines = (out / "posteriors.csv").read_text().splitlines()
    assert post_lines[0] == (
        "region_id,n_members,fnmr_mean,fnmr_lo,fnmr_hi,fmr_mean,fmr_lo,fmr_hi"
    )
    assert len(post_lines) == 1 + 9
    for line in post_lines[1:]:
        vals = [float(tok) for tok in line.split(",")[2:]]
        assert all(0.0 <= v <= 1.0 for v in vals)


def test_fit_is_byte_deterministic(fitted, tmp_path, capsys):
    records, out, _ = fitted
    out2, _ = fit(tmp_path, capsys, records, subdir="fit2")
    for name in ("model.json", "bic.csv", "grid.csv", "regions.csv"):
        assert (out / name).read_bytes() == (out2 / name).read_bytes()


def _criterion_06_records(tmp_path, capsys):
    return synth(tmp_path, capsys, extra=(
        "--anchors-per-axis", "8", "--scores-per-cell", "40", "--n-subjects", "64",
        "--quality-jitter", "0.06", "--match-base", "0.8", "--match-gain", "2.0",
        "--match-spread", "0.6", "--nonmatch-spread", "0.5", "--seed", "77",
    ))[0]


def _search_fit_argv(records, out):
    return ["fit", str(records), "--out-model", str(out / "model.json"),
            "--out-bic", str(out / "bic.csv"), "--out-grid", str(out / "grid.csv"),
            "--n-qs", "12", "--n-rand", "20", "--fmr", "0.05", "--k-min", "1",
            "--k-max", "6", "--cov-models", "EII,VII,VVI,VVV", "--seed", "11"]


def test_fit_outputs_do_not_depend_on_the_cpu_count(tmp_path, capsys, monkeypatch):
    records = _criterion_06_records(tmp_path, capsys)
    outputs = []
    for n_cpus in (1, 2, 4):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n_cpus)))
        out = tmp_path / f"cpus{n_cpus}"
        out.mkdir()
        code, stdout, err = run(_search_fit_argv(records, out), capsys)
        assert code == 0, err
        assert multiprocessing.active_children() == []
        outputs.append((stdout, err) + tuple(
            (out / name).read_bytes() for name in ("model.json", "bic.csv", "grid.csv")))
    assert outputs[0] == outputs[1] == outputs[2]


def test_fit_exits_3_when_a_search_helper_dies(tmp_path, capsys, monkeypatch):
    records = _criterion_06_records(tmp_path, capsys)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    caller = os.getpid()
    fit = mixture.em_fit

    def dies_in_a_helper(*args, **kwargs):
        if os.getpid() != caller:
            os._exit(1)
        return fit(*args, **kwargs)

    monkeypatch.setattr(mixture, "em_fit", dies_in_a_helper)
    out = tmp_path / "out"
    out.mkdir()
    code, _, err = run(_search_fit_argv(records, out), capsys)
    assert code == 3
    assert err == "numeric error: a model-search helper process died\n"
    assert multiprocessing.active_children() == []
    assert list(out.iterdir()) == []


def test_fit_cluster_mode_uses_anchor_cells(tmp_path, capsys):
    records, _ = synth(tmp_path, capsys)  # no jitter: 9 distinct cells
    out = tmp_path / "cluster"
    out.mkdir()
    argv = [
        "fit", str(records), "--mode", "cluster",
        "--out-model", str(out / "model.json"),
        "--out-bic", str(out / "bic.csv"),
        "--out-grid", str(out / "grid.csv"),
        "--n-rand", "10", "--fmr", "0.05",
        "--k-min", "1", "--k-max", "1", "--cov-models", "VVI",
        "--seed", "3",
    ]
    code, stdout, err = run(argv, capsys)
    assert code == 0, err
    info = stdout_map(stdout)
    assert info["regions"] == "9"
    assert info["training_shape"] == "90x4"
    # in cluster mode the evaluation grid is the region centers themselves
    grid_lines = (out / "grid.csv").read_text().splitlines()
    assert len(grid_lines) == 1 + 9


def test_fit_rejects_unreachable_fmr_target(tmp_path, capsys):
    records, _ = synth(tmp_path, capsys)
    argv = ["fit", str(records), "--fmr", "0.001", "--seed", "3",
            "--out-model", str(tmp_path / "m.json"),
            "--out-bic", str(tmp_path / "b.csv"),
            "--out-grid", str(tmp_path / "g.csv")]
    code, _, err = run(argv, capsys)
    assert code == 3  # 180 nonmatch scores cannot pin FMR <= 1e-3
    assert "numeric error" in err


@pytest.mark.parametrize("command", ["fit", "erc"])
@pytest.mark.parametrize("fmr, needed", [("1e-300", "1e+300"), ("1e-310", "inf"),
                                         ("5e-324", "inf")])
def test_a_tiny_or_subnormal_fmr_target_is_one_numeric_error(tmp_path, capsys, command,
                                                             fmr, needed):
    # 1 / 1e-310 overflows to inf; no float count n makes n * 1e-310 reach 1
    records, _ = synth(tmp_path, capsys)
    out = tmp_path / "out"
    out.mkdir()
    if command == "fit":
        argv = ["fit", str(records), "--seed", "3", "--out-model", str(out / "m.json"),
                "--out-bic", str(out / "b.csv"), "--out-grid", str(out / "g.csv")]
    else:
        attempts = tmp_path / "attempts.csv"
        rows = [line.split(",") for line in records.read_text().splitlines()[1:]]
        attempts.write_text(ERC_HEADER + "\n" + "".join(
            f"{row[2]},{row[3]},0.5\n" for row in rows))
        argv = ["erc", str(attempts), "--out", str(out / "erc.csv")]
    code, stdout, err = run(argv + ["--fmr", fmr], capsys)
    assert code == 3
    assert err == (f"numeric error: target FMR {float(fmr)} needs at least {needed} "
                   "nonmatch scores, got 180\n")
    assert stdout == "" and list(out.iterdir()) == []


def test_fit_reports_sparse_regions_and_cells_stopped_at_max_iter(tmp_path, capsys):
    records, _ = synth(tmp_path, capsys, extra=("--quality-jitter", "0.08"))
    out, info = fit(tmp_path, capsys, records)
    regions = (out / "regions.csv").read_text().splitlines()[1::2]  # axis 0 rows
    members = [int(line.split(",")[-1]) for line in regions]
    assert info["sparse_regions"] == str(sum(m < quality.MIN_MEMBERS for m in members))
    assert info["empty_regions"] == str(members.count(0))
    assert int(info["cells_at_max_iter"]) == 0

    argv = ["fit", str(records), "--out-model", str(out / "model.json"),
            "--out-bic", str(out / "bic.csv"), "--out-grid", str(out / "grid.csv"),
            *FIT_FLAGS]
    code, stdout, err = run(argv + ["--min-members", "100000"], capsys)
    assert code == 0, err
    info = stdout_map(stdout)
    assert info["sparse_regions"] == info["regions"] == "9"
    assert info["empty_regions"] == "0"

    code, stdout, err = run(argv + ["--k-min", "2", "--max-iter", "3"], capsys)
    assert code == 0, err
    ok_cells = [line for line in (out / "bic.csv").read_text().splitlines()[1:]
                if line.endswith(",ok")]
    assert len(ok_cells) == 2
    assert stdout_map(stdout)["cells_at_max_iter"] == "2"


def test_fit_rejects_unknown_family(tmp_path, capsys):
    records, _ = synth(tmp_path, capsys)
    argv = ["fit", str(records), "--cov-models", "XYZ", "--fmr", "0.05",
            "--seed", "3"]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert "usage error" in err


@pytest.mark.parametrize(
    "flag, value", [("--max-iter", "0"), ("--tol", "0"), ("--tol", "-1e-6")]
)
def test_fit_rejects_em_settings_that_cannot_run(tmp_path, capsys, flag, value):
    records, _ = synth(tmp_path, capsys)
    code, _, err = run(["fit", str(records), f"{flag}={value}"] + FIT_FLAGS, capsys)
    assert code == 2
    assert err.startswith("usage error:") and flag in err


@pytest.mark.parametrize(
    "flag, value",
    [("--alpha", "2"), ("--alpha", "0"), ("--alpha", "nan"),
     ("--grid-points", "0"), ("--grid-points", "-1")],
)
def test_fit_rejects_bad_output_settings_before_writing(tmp_path, capsys, flag, value):
    records, _ = synth(tmp_path, capsys)
    out = tmp_path / "out"
    out.mkdir()
    argv = ["fit", str(records)] + FIT_FLAGS + [
        f"{flag}={value}",
        "--out-model", str(out / "model.json"),
        "--out-bic", str(out / "bic.csv"),
        "--out-grid", str(out / "grid.csv"),
        "--out-regions", str(out / "regions.csv"),
        "--out-posteriors", str(out / "posteriors.csv"),
    ]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("usage error:") and flag in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "flag, value",
    [("--prior-a", "nan"), ("--prior-a", "inf"), ("--prior-a", "0"),
     ("--prior-b", "nan"), ("--prior-b", "-1"), ("--min-members", "-1"),
     ("--fmr", "0"), ("--fmr", "1"), ("--fmr", "-0.5"), ("--fmr", "nan"),
     ("--n-qs", "2"), ("--n-rand", "0"), ("--seed", "-1")],
)
def test_fit_rejects_bad_priors_and_min_members_before_reading(tmp_path, capsys,
                                                              flag, value):
    # the records file does not exist: a usage error proves nothing was read
    out = tmp_path / "out"
    out.mkdir()
    argv = ["fit", str(tmp_path / "absent.csv"), *FIT_FLAGS, f"{flag}={value}",
            "--out-model", str(out / "model.json"), "--out-bic", str(out / "bic.csv"),
            "--out-grid", str(out / "grid.csv")]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("usage error:") and flag in err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize(
    "sizes, named",
    [((2, 100, 10**6, 10, 20), "regions"),      # 999,998^2 regions
     ((70, 100, 4, 1, 1), "regions"),           # 2^70 regions
     ((2, 100, 12, 10**4, 20), "grid rows"),    # 10,000^2 grid points
     ((3, 100, 12, 10, 10**4), "training rows"),  # 1,000 regions x 10,000 draws
     ((1, 1001, 10**5 + 2, 10, 1), "mask bytes")],  # 1 x 100,000 x 1,001 bytes
)
def test_fit_size_caps_refuse_products_past_them(sizes, named):
    # arithmetic only: (d, records, --n-qs, --grid-points, --n-rand)
    with pytest.raises(cli.UsageError, match=named):
        cli._check_grid_fit_size(*sizes)


def test_fit_size_caps_admit_the_benchmark_and_paper_sizes():
    for sizes in ((2, 5120, 12, 10, 20), (3, 16000, 12, 10, 20), (200, 10, 3, 1, 1)):
        cli._check_grid_fit_size(*sizes)


@pytest.mark.parametrize(
    "cap, value, extra, named",
    [("_MAX_FIT_REGIONS", 8, [], "--n-qs"),            # 3^2 = 9 regions
     ("_MAX_GRID_ROWS", 15, [], "--grid-points"),      # 4^2 = 16 grid rows
     ("_MAX_TRAINING_ROWS", 89, [], "--n-rand"),       # 9 x 10 = 90 rows
     ("_MAX_MASK_BYTES", 2159, [], "mask bytes"),      # 2 x 3 x 360 bytes
     ("_MAX_TRAINING_ROWS", 89, ["--mode", "cluster"], "--n-rand"),  # 9 anchors
     ("_MAX_EM_VALUES", 719, [], "--k-max"),           # 2 x 90 rows x (2 + 2)
     ("_MAX_EM_VALUES", 719, ["--mode", "cluster"], "--k-max")],
)
def test_fit_past_a_size_cap_exits_2_before_writing(tmp_path, capsys, monkeypatch,
                                                    cap, value, extra, named):
    # the caps are lowered, so a broken check builds nothing large
    records, _ = synth(tmp_path, capsys)
    monkeypatch.setattr(cli, cap, value)
    out = tmp_path / "out"
    out.mkdir()
    argv = ["fit", str(records), *FIT_FLAGS, *extra,
            "--out-model", str(out / "model.json"), "--out-bic", str(out / "bic.csv"),
            "--out-grid", str(out / "grid.csv")]
    code, stdout, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("usage error: fit would build") and named in err
    assert len(err.splitlines()) == 1 and stdout == ""
    assert list(out.iterdir()) == []


def test_em_cap_admits_the_default_k_max_at_the_training_row_cap():
    k_max = cli.build_parser().parse_args(["fit", "records.csv", "--seed", "1"]).k_max
    assert k_max * cli._MAX_TRAINING_ROWS * (2 + 2) <= cli._MAX_EM_VALUES


def test_fit_past_the_k_max_cap_exits_2_before_reading(tmp_path, capsys, monkeypatch):
    # the cap is lowered, so a broken check lists and fits few cells
    records, _ = synth(tmp_path, capsys)
    monkeypatch.setattr(cli, "_MAX_K", 2)
    out = tmp_path / "out"
    out.mkdir()
    argv = ["fit", str(records), *FIT_FLAGS, "--k-max", "3",
            "--out-model", str(out / "model.json"), "--out-bic", str(out / "bic.csv"),
            "--out-grid", str(out / "grid.csv")]
    code, stdout, err = run(argv, capsys)
    assert code == 2 and stdout == ""
    assert err.startswith("usage error: --k-max must be <= ") and len(err.splitlines()) == 1
    assert list(out.iterdir()) == []


def test_predict_matches_library_conditioning(fitted, tmp_path, capsys):
    _, out, _ = fitted
    queries = np.array([[0.1, 0.2], [0.5, 0.5], [0.9, 0.4]])
    qpath = tmp_path / "queries.csv"
    qpath.write_text(
        "q1,q2\n" + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in queries) + "\n"
    )
    dest = tmp_path / "pred.csv"
    code, stdout, err = run(
        ["predict", str(out / "model.json"), str(qpath), "--out", str(dest)],
        capsys,
    )
    assert code == 0, err
    assert stdout_map(stdout)["predictions"] == "3"

    model, _ = mixture.load_model_json((out / "model.json").read_text())
    lines = dest.read_text().splitlines()
    assert lines[0] == (
        "q1,q2,fmr_hat,fnmr_hat,fmr_clamped,fnmr_clamped,top_component"
    )
    assert len(lines) == 4
    n_clamped = 0
    for line, query in zip(lines[1:], queries):
        cols = line.split(",")
        pred = mixture.condition(model, query)
        expected = np.clip(pred.expectation, 0.0, 1.0)
        # repr round-trip: file floats must equal the library's bit for bit
        assert float(cols[2]) == expected[0]
        assert float(cols[3]) == expected[1]
        flags = [str(bool(raw != rate)).lower()
                 for raw, rate in zip(pred.expectation, expected)]
        assert cols[4:6] == flags
        n_clamped += "true" in flags
        assert int(cols[6]) == int(np.argmax(pred.psi))
    assert stdout_map(stdout)["clamped"] == str(n_clamped)


def test_predict_rejects_wrong_quality_dimension(fitted, tmp_path, capsys):
    _, out, _ = fitted
    qpath = tmp_path / "bad_queries.csv"
    qpath.write_text("q1\n0.5\n")
    code, _, err = run(
        ["predict", str(out / "model.json"), str(qpath)], capsys
    )
    assert code == 1
    assert "expects 2" in err


def test_predict_refuses_a_model_file_nested_too_deeply(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    model_path.write_text("[" * 100_000)
    qpath = tmp_path / "queries.csv"
    qpath.write_text("q1,q2\n0.5,0.5\n")
    out = tmp_path / "predictions.csv"
    code, stdout, err = run(["predict", str(model_path), str(qpath), "--out", str(out)],
                            capsys)
    assert (code, stdout, err) == (1, "", "validation error: model file nests too deeply\n")
    assert not out.exists()


_MODEL_KEYS = ("version", "d_q", "d_r", "parametrization", "weights", "means",
               "covariances")


def _nan_entry(covariances):
    covariances[0][0][0] = float("nan")
    return covariances


def _first_row(means):
    return means[0]


def _leading_3x3(covariances):
    return [[row[:3] for row in cov[:3]] for cov in covariances]


def _near_float_max(weights):
    return [1e308] * len(weights)  # their sum overflows


@pytest.mark.parametrize(
    "key, value",
    [(key, None) for key in _MODEL_KEYS]
    + [("means", "x"), ("weights", [0.5, "half"]), ("d_q", "two"),
       ("covariances", _nan_entry), ("fit_meta", [1]),
       ("operating_point", {"label": "no threshold"}),
       ("means", _first_row), ("covariances", _leading_3x3), ("weights", [1.5, -0.5]),
       ("d_q", 2.7), ("d_q", 2.0), ("d_r", True), ("weights", _near_float_max)],
)
def test_predict_rejects_a_malformed_model_file(fitted, tmp_path, capsys, key, value):
    _, out, _ = fitted
    doc = json.loads((out / "model.json").read_text())
    if value is None:
        del doc[key]
    else:
        doc[key] = value(doc[key]) if callable(value) else value
    model_path = tmp_path / "broken.json"
    model_path.write_text(json.dumps(doc))
    qpath = tmp_path / "queries.csv"
    qpath.write_text("q1,q2\n0.5,0.5\n")
    code, _, err = run(["predict", str(model_path), str(qpath)], capsys)
    assert code == 1
    assert len(err.splitlines()) == 1
    assert err.startswith("validation error:")


def _asymmetric(covariances):
    covariances[0][0][1] = 2.0
    return covariances


def _negative_variance(covariances):
    covariances[0][3][3] = -1.0
    return covariances


@pytest.mark.parametrize("broken, message", [
    (_asymmetric, "validation error: covariance 0 is not symmetric\n"),
    (_negative_variance, "validation error: covariance 0 is not positive definite\n"),
])
def test_predict_rejects_a_covariance_that_is_not_symmetric_positive_definite(
        fitted, tmp_path, capsys, broken, message):
    _, out, _ = fitted
    doc = json.loads((out / "model.json").read_text())
    doc["covariances"] = broken(doc["covariances"])
    model_path = tmp_path / "broken.json"
    model_path.write_text(json.dumps(doc))
    qpath = tmp_path / "queries.csv"
    qpath.write_text("q1,q2\n0.5,0.5\n")
    dest = tmp_path / "pred.csv"
    code, _, err = run(["predict", str(model_path), str(qpath), "--out", str(dest)],
                       capsys)
    assert (code, err) == (1, message)
    assert not dest.exists()


@pytest.mark.parametrize("variances, code", [([0.5] * 4, 0), ([0.5, 0.7, 0.5, 0.5], 1)])
def test_predict_checks_the_declared_family(fitted, tmp_path, capsys, variances, code):
    _, out, _ = fitted
    doc = json.loads((out / "model.json").read_text())
    doc["parametrization"] = "EII"
    doc["covariances"] = [np.diag(variances).tolist() for _ in doc["covariances"]]
    model_path = tmp_path / "eii.json"
    model_path.write_text(json.dumps(doc))
    qpath = tmp_path / "queries.csv"
    qpath.write_text("q1,q2\n0.5,0.5\n")
    dest = tmp_path / "pred.csv"
    result = run(["predict", str(model_path), str(qpath), "--out", str(dest)], capsys)
    if code:
        assert result[::2] == (1, "validation error: covariance stack does not match family EII\n")
    assert result[0] == code and dest.exists() == (code == 0)


def test_predict_exits_3_when_conditioning_is_not_finite(fitted, tmp_path, capsys):
    # subnormal covariances overflow the whitened queries
    _, out, _ = fitted
    doc = json.loads((out / "model.json").read_text())
    doc["covariances"] = [np.diag([1e-320] * 4).tolist() for _ in doc["covariances"]]
    model_path = tmp_path / "subnormal.json"
    model_path.write_text(json.dumps(doc))
    qpath = tmp_path / "queries.csv"
    qpath.write_text("q1,q2\n0.5,0.5\n")
    dest = tmp_path / "pred.csv"
    code, _, err = run(["predict", str(model_path), str(qpath), "--out", str(dest)],
                       capsys)
    assert code == 3
    assert err == "numeric error: conditional weights or expectations are not finite\n"
    assert not dest.exists()


# ---------------------------------------------------------------- roc/erc

def test_roc_reports_auc_and_sorted_curve(tmp_path, capsys):
    records, _ = synth(tmp_path, capsys)
    dest = tmp_path / "roc.csv"
    code, stdout, err = run(["roc", str(records), "--out", str(dest)], capsys)
    assert code == 0, err
    info = stdout_map(stdout)
    auc = float(info["auc"])
    assert 0.9 < auc <= 1.0  # synthetic defaults separate well
    lines = dest.read_text().splitlines()
    assert lines[0] == "far,frr,car,threshold"
    fars = [float(line.split(",")[0]) for line in lines[1:]]
    assert fars == sorted(fars)
    assert int(info["points"]) == len(lines) - 1


ERC_HEADER = "score,label,predicted_error"


def test_erc_with_explicit_threshold(tmp_path, capsys):
    attempts = tmp_path / "attempts.csv"
    # the two erring match attempts (scores below 2.5) carry the highest
    # predicted error, so rejection clears them first
    attempts.write_text(
        f"{ERC_HEADER}\n"
        "1.0,match,0.9\n"
        "2.0,match,0.8\n"
        "3.0,match,0.2\n"
        "4.0,match,0.1\n"
    )
    dest = tmp_path / "erc.csv"
    code, stdout, err = run(
        ["erc", str(attempts), "--threshold", "2.5", "--out", str(dest)],
        capsys,
    )
    assert code == 0, err
    info = stdout_map(stdout)
    assert float(info["threshold"]) == 2.5
    assert float(info["baseline_error"]) == 0.5
    lines = dest.read_text().splitlines()
    assert lines[0] == "reject_fraction,residual_error,ideal_error"
    assert len(lines) == 1 + 201
    by_fraction = {
        float(line.split(",")[0]): tuple(float(t) for t in line.split(",")[1:])
        for line in lines[1:]
    }
    assert by_fraction[0.5] == (0.0, 0.0)
    assert by_fraction[1.0] == (0.0, 0.0)
    assert by_fraction[0.25][0] > 0.0  # one erring attempt still retained


def test_erc_threshold_from_fmr_target(tmp_path, capsys):
    attempts = tmp_path / "attempts.csv"
    rows = [f"{s / 10}!nonmatch" for s in range(10)]
    body = "\n".join(r.replace("!", ",") + ",0.0" for r in rows)
    attempts.write_text(
        f"{ERC_HEADER}\n3.0,match,0.5\n0.5,match,0.5\n" + body + "\n"
    )
    code, stdout, err = run(
        ["erc", str(attempts), "--fmr", "0.2", "--out",
         str(tmp_path / "out.csv")],
        capsys,
    )
    assert code == 0, err
    threshold = float(stdout_map(stdout)["threshold"])
    nonmatch = np.array([s / 10 for s in range(10)])
    assert np.mean(nonmatch >= threshold) <= 0.2


def test_erc_requires_exactly_one_threshold_source(tmp_path, capsys):
    attempts = tmp_path / "attempts.csv"
    attempts.write_text(f"{ERC_HEADER}\n1.0,match,0.5\n")
    code, _, err = run(["erc", str(attempts)], capsys)
    assert code == 2 and "exactly one" in err
    code, _, err = run(
        ["erc", str(attempts), "--threshold", "1.0", "--fmr", "0.1"], capsys
    )
    assert code == 2 and "exactly one" in err


@pytest.mark.parametrize(
    "flags, message",
    [([], "exactly one"), (["--threshold", "1.0", "--fmr", "0.1"], "exactly one"),
     (["--fmr", "0"], "--fmr"), (["--fmr", "1.5"], "--fmr"), (["--fmr", "nan"], "--fmr")]
    + [(["--fmr", "0.05", "--grid-step", step], "--grid-step")
       for step in ("0", "-0.5", "1.5", "nan")]
    + [(["--threshold", value], "--threshold") for value in ("nan", "inf")]
    + [(["--fmr", "0.05", "--grid-step", step], "--grid-step") for step in ("5e-324", "1e-9")],
)
def test_erc_rejects_bad_flags_before_reading(tmp_path, capsys, flags, message):
    # the attempts file does not exist: a usage error proves nothing was read
    out = tmp_path / "out"
    out.mkdir()
    argv = ["erc", str(tmp_path / "absent.csv"), *flags, "--out", str(out / "erc.csv")]
    code, _, err = run(argv, capsys)
    assert code == 2
    assert err.startswith("usage error:") and message in err
    assert list(out.iterdir()) == []


def test_erc_rejects_bad_attempts_file(tmp_path, capsys):
    attempts = tmp_path / "attempts.csv"
    attempts.write_text("wrong,header\n")
    code, _, err = run(["erc", str(attempts), "--threshold", "0.0"], capsys)
    assert code == 1
    assert "validation error" in err


@pytest.mark.parametrize(
    "argv, content, bad_lines",
    [
        (["sweep"], "theta,tx,ty,score,label\n0,0,0,2.0,match\n0,0,0,nan,match\n"
         "0,0,0,0.0,nonmatch\n", [3]),
        (["erc", "--threshold", "0.5"], f"{ERC_HEADER}\n1.0,match,0.5\n"
         "nan,match,0.2\n0.0,nonmatch,0.1\n", [3]),
        (["calibrate-iqa"], "q1,q2,gamma1,gamma2\n1,2,0,0\n-1,-2,0,0\n2,1,10,0\n"
         "-2,-1,10,0\n1,1,0,18\ninf,-1,0,18\n", [7]),
        (["erc", "--fmr", "0.1"], f"{ERC_HEADER}\n1.0,match,0.5\n1.0,maybe,0.2\n"
         "0.0,nonmatch\n\n0.5,match,-inf\n", [3, 4, 6]),
        (["validate"], "probe_id,ref_id,score,label,q1\na,b,inf,match,0.1\n"
         "a,b,0.5,match,nan\n", [2, 3]),
        (["predict", "model.json"], "q1,q2\n0.5,0.5\n0.5\n0.5,-inf\n", [3, 4]),
    ],
    ids=["sweep-nan-baseline", "erc-nan-score", "iqa-inf-quality", "erc-three-bad-lines",
         "records-non-finite", "queries-bad-lines"],
)
def test_each_malformed_input_line_is_reported(fitted, tmp_path, capsys, argv,
                                               content, bad_lines):
    _, out, _ = fitted
    path = tmp_path / "input.csv"
    path.write_text(content)
    argv = [str(out / a) if a == "model.json" else a for a in argv] + [str(path)]
    code, _, err = run(argv, capsys)
    assert code == 1
    messages = err.splitlines()
    assert len(messages) == len(bad_lines)
    for message, lineno in zip(messages, bad_lines):
        assert message.startswith(f"validation error: line {lineno}: ")


# ------------------------------------------------------------------ sweep

def _sweep_csv(path):
    lines = ["theta,tx,ty,score,label"]
    for score in (4.0, 4.2, 3.9):
        lines.append(f"0,0,0,{score},match")
    for score in (0.1, -0.2, 0.0):
        lines.append(f"0,0,0,{score},nonmatch")
    for score in (0.4, 0.5, 0.3):  # degraded: matches fall under threshold
        lines.append(f"10,0,0,{score},match")
    for score in (0.1, -0.1, 0.2):
        lines.append(f"10,0,0,{score},nonmatch")
    path.write_text("\n".join(lines) + "\n")


def test_sweep_fixed_mode(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    _sweep_csv(scores)
    dest = tmp_path / "sweep.csv"
    code, stdout, err = run(
        ["sweep", str(scores), "--mode", "fixed", "--out", str(dest)], capsys
    )
    assert code == 0, err
    info = stdout_map(stdout)
    assert info["cells"] == "2" and info["skipped"] == "0"
    lines = dest.read_text().splitlines()
    assert lines[0] == "theta,tx,ty,hter,auc"
    rows = {tuple(line.split(",")[:3]): line.split(",")[3:] for line in lines[1:]}
    baseline = rows[("0.0", "0.0", "0.0")]
    degraded = rows[("10.0", "0.0", "0.0")]
    assert float(baseline[0]) == 0.0 and float(baseline[1]) == 1.0
    assert float(degraded[0]) >= 0.5  # every match rejected at frozen threshold


def test_sweep_requires_the_baseline_cell(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_text(
        "theta,tx,ty,score,label\n"
        "10,0,0,1.0,match\n"
        "10,0,0,0.0,nonmatch\n"
    )
    code, _, err = run(["sweep", str(scores)], capsys)
    assert code == 1
    assert "baseline" in err


def test_sweep_random_mode_header(tmp_path, capsys):
    scores = tmp_path / "scores.csv"
    scores.write_text(
        "sigma_x,sigma_y,seed,score,label\n"
        "0,0,0,1.0,match\n"
        "0,0,0,0.0,nonmatch\n"
    )
    dest = tmp_path / "sweep.csv"
    code, stdout, err = run(
        ["sweep", str(scores), "--mode", "random", "--out", str(dest)], capsys
    )
    assert code == 0, err
    assert dest.read_text().splitlines()[0] == "sigma_x,sigma_y,seed,hter,auc"


def _dict_grouping_cmd_sweep(args):
    """cmd_sweep as it grouped rows before the sort: the reference."""
    param_names = (
        ("theta", "tx", "ty") if args.mode == "fixed" else ("sigma_x", "sigma_y", "seed")
    )
    tables = {}
    # the files are valid: a header, then one row per line
    for line in cli._read_text(args.scores).splitlines()[1:]:
        *numbers, label = line.split(",")
        *key, score = map(float, numbers)
        match_list, nonmatch_list = tables.setdefault(tuple(key), ([], []))
        (match_list if label == dataio.MATCH else nonmatch_list).append(score)
    cells, skipped = alignment.sweep_grid(tables, sorted(tables.keys()))
    alignment.write_sweep_csv(cells, args.out, param_names)
    print(f"cells={len(cells)}")
    print(f"skipped={len(skipped)}")
    return 0


def _main_in(directory, argv):
    """cli.main's exit code, stdout, stderr and output files, in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    files = {p.name: p.read_bytes() for p in sorted(Path(directory).glob("out*"))}
    return code, out.getvalue(), err.getvalue(), files


# -0.0 and 0.0, and 1 and 1e0, are one key spelled more than one way
_ZERO_SPELLINGS = ("0", "0.0", "-0.0")
_KEY_SPELLINGS = _ZERO_SPELLINGS + ("1", "1e0", "-2.5")


@st.composite
def _sweep_files(draw):
    """A mode and rows of (key spellings, score, label); in about half the
    files every cell, the baseline too, has both classes."""
    rows = draw(st.lists(
        st.tuples(
            st.lists(st.sampled_from(_KEY_SPELLINGS), min_size=3, max_size=3),
            st.sampled_from(["0.5", "1", "-0.25", "2.0", "1e0", "-0.0", "0.125"]),
            st.sampled_from(["match", "nonmatch"]),
        ),
        max_size=24,
    ))
    if draw(st.booleans()):
        keys = [key for key, _, _ in rows]
        keys.append(draw(st.lists(st.sampled_from(_ZERO_SPELLINGS), min_size=3, max_size=3)))
        extra = [(key, "0.75", label) for key in keys for label in ("match", "nonmatch")]
        rows = draw(st.permutations(rows + extra))
    return draw(st.sampled_from(["fixed", "random"])), rows


@settings(max_examples=60, deadline=None)
@given(_sweep_files())
# the cell (0, 1, 0) is spelled -0.0 in its first row, a nonmatch
@example(("fixed", [(["0", "0", "0"], "1", "match"), (["0", "0", "0"], "0.5", "nonmatch"),
                    (["-0.0", "1", "0"], "0.5", "nonmatch"),
                    (["0", "1e0", "0"], "2.0", "match")]))
def test_sweep_groups_cells_as_the_dict_loop_did(sweep_file):
    mode, rows = sweep_file
    header = "theta,tx,ty" if mode == "fixed" else "sigma_x,sigma_y,seed"
    lines = [f"{header},score,label"]
    lines += [",".join(key + [score, label]) for key, score, label in rows]
    with tempfile.TemporaryDirectory() as d:
        scores = Path(d) / "scores.csv"
        scores.write_text("\n".join(lines) + "\n")
        got = _main_in(d, ["sweep", str(scores), "--mode", mode, "--out", f"{d}/out.csv"])
        with mock.patch.object(cli, "cmd_sweep", _dict_grouping_cmd_sweep):
            want = _main_in(d, ["sweep", str(scores), "--mode", mode,
                                "--out", f"{d}/out_ref.csv"])
    assert got[:3] == want[:3]
    assert got[3].get("out.csv") == want[3].get("out_ref.csv")


# -------------------------------------------------------------------- ium

IUM_RECORDS = (
    "probe_id,ref_id,score,label,q1\n"
    "s1,x1,0.2,nonmatch,0.0\n"
    "s1,x2,0.5,nonmatch,0.0\n"
    "s1,x3,0.8,nonmatch,0.0\n"
    "s2,y1,0.1,nonmatch,0.0\n"
    "s2,y2,0.3,nonmatch,0.0\n"
    "s2,y3,0.9,nonmatch,0.0\n"
    "s3,z1,0.4,nonmatch,0.0\n"
    "s3,z2,0.6,nonmatch,0.0\n"
)


def test_ium_with_self_comparison(tmp_path, capsys):
    records = tmp_path / "records.csv"
    records.write_text(IUM_RECORDS)
    dest = tmp_path / "ium.csv"
    code, stdout, err = run(
        ["ium", str(records), "--out", str(dest), "--compare", str(records)],
        capsys,
    )
    assert code == 0, err
    info = stdout_map(stdout)
    assert info["subjects"] == "3"
    assert float(info["pearson_r"]) == pytest.approx(1.0, abs=1e-12)
    assert info["n_joined"] == "3" and info["n_excluded"] == "0"
    lines = dest.read_text().splitlines()
    assert lines[0] == "subject_id,u,n_impostors"
    assert len(lines) == 4


@pytest.mark.parametrize(
    "compare", [None, "probe_id,ref_id\n", IUM_RECORDS + "s4,w1,x,nonmatch,0.0\n"],
    ids=["absent", "bad-header", "bad-line"],
)
def test_ium_compare_failure_writes_and_prints_nothing(tmp_path, capsys, compare):
    records = tmp_path / "records.csv"
    records.write_text(IUM_RECORDS)
    other = tmp_path / "other.csv"
    if compare is not None:  # otherwise absent
        other.write_text(compare)
    dest = tmp_path / "ium.csv"
    code, stdout, _ = run(
        ["ium", str(records), "--out", str(dest), "--compare", str(other)], capsys
    )
    assert code == 1
    assert stdout == ""
    assert not dest.exists()


def test_ium_without_usable_subjects(tmp_path, capsys):
    records = tmp_path / "records.csv"
    records.write_text(
        "probe_id,ref_id,score,label,q1\n"
        "s1,x1,0.5,nonmatch,0.0\n"
        "s1,x2,0.5,nonmatch,0.0\n"
    )
    code, _, err = run(["ium", str(records)], capsys)
    assert code == 3


# ---------------------------------------------------------- calibrate-iqa

X0 = np.array([[1.0, 0.0], [0.0, 1.0], [0.1, 0.0], [0.0, 1.0 / 18.0]])


def _calibration_csv(path):
    cells = {
        (0.0, 0.0): [(1.0, 2.0), (-1.0, -2.0)],
        (10.0, 0.0): [(2.0, -1.0), (-2.0, 1.0)],
        (0.0, 18.0): [(0.5, 0.7), (-0.5, -0.7)],
        (10.0, 18.0): [(1.5, -0.3), (-1.5, 0.3)],
    }
    lines = ["q1,q2,gamma1,gamma2"]
    for (g1, g2), pts in cells.items():
        for q1, q2 in pts:
            lines.append(f"{q1},{q2},{g1},{g2}")
    path.write_text("\n".join(lines) + "\n")


def test_calibrate_iqa_recovers_known_solution(tmp_path, capsys):
    rows = tmp_path / "rows.csv"
    _calibration_csv(rows)
    solution_path = tmp_path / "cal.json"
    calibrated_path = tmp_path / "calibrated.csv"
    code, stdout, err = run(
        ["calibrate-iqa", str(rows),
         "--out-solution", str(solution_path),
         "--out-calibrated", str(calibrated_path)],
        capsys,
    )
    assert code == 0, err
    info = stdout_map(stdout)
    assert info["rows"] == "8"
    assert abs(float(info["residual_orthogonality"])) < 1e-9

    doc = json.loads(solution_path.read_text())
    np.testing.assert_allclose(np.array(doc["solution"]), X0, atol=1e-9)
    assert set(doc["cell_means"]) == {"0,0", "10,0", "0,18", "10,18"}

    lines = calibrated_path.read_text().splitlines()
    assert lines[0] == "q1,q2,gamma1,gamma2,qhat1,qhat2"
    assert len(lines) == 9
    first = [float(tok) for tok in lines[1].split(",")]
    np.testing.assert_allclose(first[4:], [1.0, 2.0], atol=1e-9)


def test_calibrate_iqa_rank_deficient_input(tmp_path, capsys):
    rows = tmp_path / "rows.csv"
    rows.write_text(
        "q1,q2,gamma1,gamma2\n"
        "1.0,2.0,0.0,0.0\n"
        "-1.0,-2.0,0.0,0.0\n"
        "2.0,4.0,10.0,0.0\n"
        "-2.0,-4.0,10.0,0.0\n"
    )
    code, _, err = run(["calibrate-iqa", str(rows)], capsys)
    assert code == 3
    assert "numeric error" in err


# ----------------------------------------------------------- output paths

@pytest.fixture()
def inputs(tmp_path, capsys):
    """A valid input for every subcommand that writes files."""
    synth(tmp_path, capsys)
    model = mixture.MixtureModel(np.array([1.0]), np.zeros((1, 4)), np.eye(4)[None],
                                 "VVV", 2, 2)
    (tmp_path / "model.json").write_text(mixture.dump_model_json(model))
    (tmp_path / "queries.csv").write_text("q1,q2\n0.5,0.5\n")
    (tmp_path / "attempts.csv").write_text(f"{ERC_HEADER}\n1.0,match,0.5\n")
    _sweep_csv(tmp_path / "scores.csv")
    _calibration_csv(tmp_path / "rows.csv")
    (tmp_path / "adir").mkdir()
    return tmp_path


def _fit_argv(d, out_model=None, out_grid=None):
    return ["fit", f"{d}/records.csv", *FIT_FLAGS,
            "--out-model", out_model or f"{d}/model_out.json",
            "--out-bic", f"{d}/bic.csv", "--out-grid", out_grid or f"{d}/grid.csv"]


@pytest.mark.parametrize(
    "argv, reason",
    [
        (lambda d: _fit_argv(d, out_model=f"{d}/nodir/m.json"), "no directory"),
        (lambda d: _fit_argv(d, out_model=f"{d}/adir"), "is a directory"),
        (lambda d: _fit_argv(d, out_grid=f"{d}/nodir/g.csv"), "no directory"),
        (lambda d: ["predict", f"{d}/model.json", f"{d}/queries.csv",
                    "--out", f"{d}/nodir/p.csv"], "No such file"),
        (lambda d: ["roc", f"{d}/records.csv", "--out", f"{d}/nodir/r.csv"],
         "No such file"),
        (lambda d: ["erc", f"{d}/attempts.csv", "--threshold", "0.5",
                    "--out", f"{d}/nodir/e.csv"], "No such file"),
        (lambda d: ["sweep", f"{d}/scores.csv", "--out", f"{d}/nodir/s.csv"],
         "No such file"),
        (lambda d: ["ium", f"{d}/records.csv", "--out", f"{d}/nodir/i.csv"],
         "No such file"),
        (lambda d: ["synth", "--seed", "1", "--out", f"{d}/nodir/x.csv"], "No such file"),
        (lambda d: ["calibrate-iqa", f"{d}/rows.csv", "--out-solution",
                    f"{d}/nodir/c.json", "--out-calibrated", f"{d}/c.csv"],
         "No such file"),
    ],
    ids=["fit-model", "fit-model-is-directory", "fit-grid", "predict", "roc", "erc",
         "sweep", "ium", "synth", "calibrate-iqa"],
)
def test_unwritable_output_is_a_validation_error(inputs, capsys, argv, reason):
    before = sorted(inputs.rglob("*"))
    code, out, err = run(argv(inputs), capsys)
    assert code == 1
    assert err.startswith("validation error: cannot write ") and reason in err
    assert len(err.splitlines()) == 1
    # fit checks its outputs before any work; the others leave no .part file
    assert sorted(inputs.rglob("*")) == before
    if argv(inputs)[0] == "fit":
        assert out == ""


# ------------------------------------------------- fuzzed CSV-reading input

def _write_attempts(path):
    path.write_text(f"{ERC_HEADER}\n1.0,match,0.9\n2.0,match,0.8\n0.5,nonmatch,0.2\n"
                    "3.0,match,0.1\n-1.0,nonmatch,0.3\n")


def _write_model_and_queries(path):
    model = mixture.MixtureModel(np.array([1.0]), np.zeros((1, 4)), np.eye(4)[None],
                                 "VVV", 2, 2)
    (path.parent / "model.json").write_text(mixture.dump_model_json(model))
    path.write_text("q1,q2\n0.5,0.5\n0.2,0.7\n0.9,0.1\n")


def _write_records(path):
    anchors = tuple((a, b) for a in (0.2, 0.5, 0.8) for b in (0.2, 0.5, 0.8))
    config = dataio.SynthConfig(n_subjects=6, scores_per_cell=4, quality_grid=anchors,
                                score_model=dataio.ScoreModel(), seed=5,
                                quality_jitter=0.05)
    dataio.write_records(dataio.synthesize_dataset(config), path)


def _write_queries_and_model(path):
    _write_model_and_queries(path.parent / "queries.csv")
    path.write_text((path.parent / "model.json").read_text())


# subcommand: (writes a valid input file, argv given the input and a directory)
_FUZZED_COMMANDS = {
    "validate": (_write_records, lambda f, d: ["validate", f]),
    "roc": (_write_records, lambda f, d: ["roc", f, "--out", f"{d}/out.csv"]),
    "ium": (_write_records, lambda f, d: ["ium", f, "--out", f"{d}/out.csv"]),
    "fit": (_write_records,
            lambda f, d: ["fit", f, "--out-model", f"{d}/out.json",
                          "--out-bic", f"{d}/out_bic.csv",
                          "--out-grid", f"{d}/out_grid.csv", *FIT_FLAGS]),
    "predict-model": (_write_queries_and_model,
                      lambda f, d: ["predict", f, f"{d}/queries.csv",
                                    "--out", f"{d}/out.csv"]),
    "erc": (_write_attempts,
            lambda f, d: ["erc", f, "--threshold", "0.5", "--out", f"{d}/out.csv"]),
    "sweep": (_sweep_csv, lambda f, d: ["sweep", f, "--out", f"{d}/out.csv"]),
    "predict": (_write_model_and_queries,
                lambda f, d: ["predict", f"{d}/model.json", f, "--out", f"{d}/out.csv"]),
    "calibrate-iqa": (_calibration_csv,
                      lambda f, d: ["calibrate-iqa", f, "--out-solution", f"{d}/out.json",
                                    "--out-calibrated", f"{d}/out.csv"]),
}
_PREFIXES = ("usage error: ", "validation error: ", "numeric error: ")


@st.composite
def _mutated_lines(draw, lines):
    """lines after one to three edits: drop, retype or pad a cell, add or
    remove a comma, break the header, or add a blank or carriage-return line."""
    lines = list(lines)
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        edit = draw(st.sampled_from(
            ["drop", "retype", "pad", "add comma", "remove comma", "header", "blank"]))
        if edit == "blank":
            lines.insert(draw(st.integers(min_value=1, max_value=len(lines))),
                         draw(st.sampled_from(["", " ", "\r", "\t\r"])))
            continue
        i = 0 if edit == "header" else draw(st.integers(0, len(lines) - 1))
        cells = lines[i].split(",")
        j = draw(st.integers(0, len(cells) - 1))
        if edit == "drop":
            del cells[j]
        elif edit in ("retype", "header"):
            cells[j] = draw(st.sampled_from(
                ["x", "", "nan", "-inf", "1e999", "Match", "1_0", "0x1", "Q1", "score "]))
        elif edit == "pad":
            cells[j] = f" {cells[j]}\t"
        elif edit == "add comma":
            cells.insert(j, "")
        else:
            cells[j:j + 2] = ["".join(cells[j:j + 2])]
        lines[i] = ",".join(cells)
    return lines


@pytest.mark.parametrize("command", sorted(_FUZZED_COMMANDS))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_a_mutated_input_file_ends_in_an_exit_code_and_prefixed_messages(command, data):
    write_valid, argv = _FUZZED_COMMANDS[command]
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "input.csv"
        write_valid(path)
        lines = data.draw(_mutated_lines(path.read_text().splitlines()))
        path.write_text("\n".join(lines) + "\n")
        code, _, err, outputs = _main_in(d, argv(str(path), d))
    assert code in (0, 1, 2, 3)
    assert all(line.startswith(_PREFIXES) for line in err.splitlines())
    if code != 0:
        assert err and not outputs


_MULTIBYTE = ("\u00e9", "\u20ac", "\U0001d7d8")  # two, three and four UTF-8 bytes


@st.composite
def _mutated_bytes(draw, data, nests):
    """data after one to three edits: insert a byte 0x80-0xFF, a NUL or a
    byte-order mark, or cut the file inside a multi-byte character; a model
    file may also be nested deeply in [ and {."""
    edits = ["high byte", "nul", "bom", "cut"] + (["nest"] if nests else [])
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        edit = draw(st.sampled_from(edits))
        if edit == "nest":
            depth = draw(st.sampled_from([10, 1_000, 100_000]))
            data = draw(st.sampled_from([b"[", b'{"a":', b'[{"a":'])) * depth + data
            continue
        at = draw(st.just(0) | st.integers(0, len(data)))
        if edit == "cut":
            char = draw(st.sampled_from(_MULTIBYTE)).encode()
            data = data[:at] + char[:draw(st.integers(1, len(char) - 1))]
            continue
        insert = {"high byte": bytes([draw(st.integers(0x80, 0xFF))]), "nul": b"\0",
                  "bom": "\ufeff".encode()}[edit]
        data = data[:at] + insert + data[at:]
    return data


@pytest.mark.parametrize("command", sorted(_FUZZED_COMMANDS))
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_an_input_file_with_mutated_bytes_ends_in_an_exit_code_and_prefixed_messages(
        command, data):
    write_valid, argv = _FUZZED_COMMANDS[command]
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "input.csv"
        write_valid(path)
        path.write_bytes(data.draw(_mutated_bytes(path.read_bytes(),
                                                  nests=command == "predict-model")))
        code, _, err, outputs = _main_in(d, argv(str(path), d))
    assert code in (0, 1, 2, 3)
    assert all(line.startswith(_PREFIXES) for line in err.splitlines())
    if code != 0:
        assert err and not outputs


# ------------------------------------------------------ flag edge values

# Every numeric flag with the bounds of its domain, written out here rather
# than read from cli._FLAG_RULES. Each is tried at 0, -1, nan, +-inf, 2^64, at
# each bound and one step (1, or one ulp) either side of it, and a float flag
# also at +-1e-310 and the smallest normal float.
_NUMERIC_FLAGS = {
    "fit": {"--n-qs": (int, [3]), "--n-rand": (int, [1]), "--fmr": (float, [0, 1]),
            "--prior-a": (float, [0, math.inf]), "--prior-b": (float, [0, math.inf]),
            "--alpha": (float, [0, 1]), "--k-min": (int, [1]), "--k-max": (int, [1, 100]),
            "--min-members": (int, [0]), "--grid-points": (int, [1]),
            "--tol": (float, [0]), "--max-iter": (int, [1]), "--seed": (int, [0])},
    "erc": {"--threshold": (float, []), "--fmr": (float, [0, 1]),
            "--grid-step": (float, [0, 1e-6, 1])},
    "synth": {"--axes": (int, [1]), "--anchors-per-axis": (int, [1]),
              "--anchor-lo": (float, []), "--anchor-hi": (float, []),
              "--scores-per-cell": (int, [1]), "--n-subjects": (int, [2]),
              "--quality-jitter": (float, [0]),
              "--match-base": (float, []), "--match-gain": (float, []),
              "--match-spread": (float, [0]), "--nonmatch-base": (float, []),
              "--nonmatch-gain": (float, []), "--nonmatch-spread": (float, [0]),
              "--seed": (int, [0])},
}


def _edge_values(kind, bounds):
    values = ["0", "-1", "nan", "inf", "-inf", str(2**64)]
    for bound in bounds:
        if kind is int:
            values += [str(bound - 1), str(bound), str(bound + 1)]
        else:
            values += [repr(math.nextafter(bound, -math.inf)), repr(float(bound)),
                       repr(math.nextafter(bound, math.inf))]
    if kind is float:  # 1e-310 is subnormal, and 1 / 1e-310 overflows to inf
        values += ["1e-310", "-1e-310", "2.2250738585072014e-308"]
    return values


def _edge_argv(command, d):
    """argv whose input files are absent, so an admitted fit or erc flag ends
    at exit 1 before any work; synth reads no file."""
    if command == "fit":
        return ["fit", f"{d}/absent.csv", *FIT_FLAGS, "--out-model", f"{d}/model.json",
                "--out-bic", f"{d}/bic.csv", "--out-grid", f"{d}/grid.csv"]
    if command == "erc":
        return ["erc", f"{d}/absent.csv", "--out", f"{d}/erc.csv"]
    return ["synth", "--seed", "1", "--out", f"{d}/records.csv"]


@pytest.mark.parametrize(
    "command, flag", [(c, f) for c, flags in _NUMERIC_FLAGS.items() for f in flags]
)
def test_every_numeric_flag_edge_ends_in_an_exit_code_and_prefixed_messages(command, flag):
    kind, bounds = _NUMERIC_FLAGS[command][flag]
    extra = ["--fmr", "0.05"] if flag == "--grid-step" else []
    for value in _edge_values(kind, bounds):
        with tempfile.TemporaryDirectory() as d:
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    code = cli.main(_edge_argv(command, d) + extra + [f"{flag}={value}"])
                except SystemExit as exc:  # argparse cannot read the value
                    code = exc.code
            written = list(Path(d).iterdir())
        err = err.getvalue()
        assert code in ((0, 1, 2, 3) if command == "synth" else (1, 2)), (value, err)
        assert all(line.startswith(_PREFIXES) for line in err.splitlines()), (value, err)
        if code != 0:
            assert err and not written, (value, err)
