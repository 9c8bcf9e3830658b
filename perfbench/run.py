"""Seeded end-to-end benchmark of veriq, with a separate traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fit --seed 1 --seconds 34 --trace 0

Workloads are defined in ``workloads.py`` and listed with their reasons in
``BENCHMARK.json``. A run sets the workload up several times (the median is
``setup_s``), then repeats timed passes until ``--seconds`` have elapsed and
checks every pass's outputs. Its times are in reference seconds: a reference
kernel timed every few tenths of a second (``gauge.py``) gives the host's
speed, which drifts by up to 1.6x on a shared machine, and each operation's
seconds are scaled by it. Raw seconds go into the run record. With
``--trace 1`` untraced and traced passes alternate, and the run reports
per-layer metrics from the spans, in raw seconds, instead of the end-to-end
metrics. The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it is a JSON record of the run: environment, sample counts,
per-operation times, output hashes and, when tracing, the EM solver counts
of every (K, family) cell. The same record, with the spans of the last
traced pass, is written under ``perfbench/work/``.
"""

import os

# One process, one BLAS thread: small matrices gain nothing from threads,
# and a single thread keeps repeated passes steady.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
# Set-up repeats: at least three, and more while they add up to under
# three seconds, so short set-ups still get a steady median.
SETUP_MIN_REPEATS, SETUP_MAX_REPEATS, SETUP_MIN_SECONDS = 3, 9, 3.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("fit", "predict-reject", "evaluate-large"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program():
    """Import veriq from this checkout's sources and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import veriq
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import veriq from {SRC}: {exc}")
    if not Path(veriq.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: veriq was imported from {veriq.__file__}, not {SRC}")


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(args):
    import numpy as np
    import scipy

    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]["name"]
    except (AttributeError, KeyError):
        blas = None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "git_commit": git_commit(),
    }


def _no_span(name):
    return contextlib.nullcontext()


def _unit(name):
    for suffix, unit in (("_us_per_call", "us"), ("_ns_per_density_eval", "ns"),
                         ("_per_s", "1/s"), ("_qps", "1/s"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    return "count"


def measure(args, run_dir, meter):
    """One run. ``meter`` is the running ``Gauge`` of a --trace 0 run, and
    None in a traced run, whose passes must be covered by spans alone."""
    from tracer import Tracer, em_cells, pass_layer_counts, per_layer_metrics
    from workloads import WORKLOADS

    setup_samples, setup_ref_samples = [], []
    while not setup_samples or not args.trace and (
        len(setup_samples) < SETUP_MIN_REPEATS
        or (sum(setup_samples) < SETUP_MIN_SECONDS
            and len(setup_samples) < SETUP_MAX_REPEATS)
    ):
        workload = WORKLOADS[args.workload](run_dir, args.seed)
        start = perf_counter()
        workload.setup()
        end = perf_counter()
        if meter is None:
            setup_samples.append(end - start)
        else:
            seconds, ref_seconds, _ = meter.interval(start, end)
            setup_samples.append(seconds)
            setup_ref_samples.append(ref_seconds)

    tracer = Tracer() if args.trace else None
    untraced, untraced_ref, traced, op_seconds, op_ref_seconds = [], [], [], {}, {}
    op_gauge = []  # per untraced pass: (op, seconds, mean kernel part times)
    attempted = failed = 0
    failures = []
    start = perf_counter()
    walls = []
    while True:
        # Start a pass only if a typical pass would end within --seconds; at
        # least one pass is made, and a traced run makes one of each kind.
        done = bool(traced) if args.trace else bool(untraced)
        if done and perf_counter() - start + statistics.median(walls) > args.seconds:
            break
        trace_pass = bool(args.trace) and len(untraced) > len(traced)
        if trace_pass:
            tracer.install()
        pass_start = perf_counter()
        try:
            ops = workload.run_pass(tracer.span if trace_pass else _no_span)
        finally:
            wall = perf_counter() - pass_start
            if trace_pass:
                tracer.uninstall()
        walls.append(wall)
        workload.check(ops)
        attempted += len(ops)
        failed += sum(1 for op in ops if not op.ok)
        failures.extend(f"{op.name}: {op.error}" for op in ops if not op.ok)
        if trace_pass:
            traced.append((wall, tracer.spans))
            tracer.reset()
        elif args.trace:
            untraced.append(wall)
        else:
            pass_s = pass_ref_s = 0.0
            op_gauge.append([])
            for op in ops:
                seconds, ref_seconds, parts = meter.interval(op.start, op.start + op.seconds)
                op_gauge[-1].append((op.name, seconds, parts))
                op_seconds.setdefault(op.name, []).append(seconds)
                op_ref_seconds.setdefault(op.name, []).append(ref_seconds)
                pass_s += seconds
                pass_ref_s += ref_seconds
            untraced.append(pass_s)
            untraced_ref.append(pass_ref_s)

    op_median = {name: statistics.median(v) for name, v in op_seconds.items()}
    op_ref_median = {name: statistics.median(v) for name, v in op_ref_seconds.items()}
    record = {
        "env": environment(args),
        "setup_s_samples": setup_samples,
        "setup_ref_s_samples": setup_ref_samples,
        "wall_s_samples": untraced,
        "pass_ref_s_samples": untraced_ref,
        "op_median_s": op_median,
        "op_median_ref_s": op_ref_median,
        "throughput": {
            metric: units / op_ref_median[op]
            for metric, (op, units) in workload.throughput.items()
        } if not args.trace else {},
        "gauge_weights": meter.weights if meter else None,
        "gauge_ticks": len(meter.ticks) if meter else 0,
        "gauge_median_s": statistics.median(s for _, s, _ in meter.ticks) if meter else None,
        "op_gauge": op_gauge,
        "output_sha256": workload.hashes,
        "failures": failures[:10],
    }
    if args.trace:
        counts = [pass_layer_counts(spans) for _, spans in traced]
        attempted += 1
        if any(c != counts[0] for c in counts):
            failed += 1
            failures.append("traced passes did not repeat their work counts")
        values = per_layer_metrics(traced, untraced)
        record["traced_wall_s_samples"] = [w for w, _ in traced]
        record["em_cells"] = em_cells(traced[0][1])
    else:
        pass_s = statistics.median(untraced_ref)
        values = {
            "pass_s": pass_s,
            "setup_s": statistics.median(setup_ref_samples),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_ratio": (attempted - failed) / attempted,
            "records_per_s": workload.rows / pass_s,
            "fnmr_mae": workload.accuracy.get("fnmr_mae"),
            "fmr_mae": workload.accuracy.get("fmr_mae"),
        }
    units = {"peak_rss_mb": "MiB", "ok_ratio": "ratio", "fnmr_mae": "rate",
             "fmr_mae": "rate"}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units.get(k) or _unit(k)}
                    for k, v in values.items()},
    }
    spans = traced[-1][1] if traced else []
    return result, record, spans


def main(argv=None):
    args = parse_args(argv)
    import_program()
    from gauge import Gauge
    from workloads import WORKLOADS

    run_dir = WORK / f"{args.workload}-run"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    meter = None if args.trace else Gauge(WORKLOADS[args.workload].gauge_weights)
    try:
        if meter is not None:
            meter.start()
        result, record, spans = measure(args, run_dir, meter)
    finally:
        if meter is not None:
            meter.stop()
        shutil.rmtree(run_dir, ignore_errors=True)
    report = dict(record, result=result, spans=[
        [s.span_id, s.parent_id, s.name, s.start, s.end, s.counts, s.error] for s in spans
    ])
    out = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(report) + "\n")
    print(json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
