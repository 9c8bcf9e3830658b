"""Span tracer for the veriq benchmark.

Wraps the public functions of the veriq layers from outside the package:
every module attribute that holds one of those functions is replaced,
including by-name copies such as ``alignment.roc`` or
``metrics.write_csv``, so calls between layers nest as spans with parent
ids (``cli.main`` -> ``cli.cmd_fit`` -> ``mixture.model_search`` ->
``mixture.em_fit``). Spans stay in memory until the run ends.

A few functions carry an observer that reads work counts from their
arguments or result (EM iterations, rows parsed, regions built, ...), so
counts are taken at the same boundary as the time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import statistics
from dataclasses import dataclass
from time import perf_counter

LAYERS = (
    "cli", "dataio", "quality", "errormodel", "mixture", "metrics",
    "alignment", "uniqueness",
)


@dataclass
class Span:
    span_id: int
    parent_id: int
    name: str
    start: float
    end: float
    counts: dict | None = None
    error: str | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _len_arg(args, kwargs, index, key):
    value = args[index] if len(args) > index else kwargs[key]
    return len(value)


def _observe_em_fit(args, kwargs, result):
    from veriq import mixture

    meta = result.fit_meta
    max_iter = kwargs.get("max_iter", mixture.DEFAULT_MAX_ITER)
    return {
        "k": int(args[1]),
        "family": str(args[2]),
        "n": _len_arg(args, kwargs, 0, "data"),
        "n_iter": int(meta["n_iter"]),
        "restarts": int(meta["restarts"]),
        "ridge_events": int(meta["ridge_events"]),
        "at_max_iter": int(meta["n_iter"]) >= max_iter,
    }


def _observe_regions(args, kwargs, result):
    return {
        "regions": len(result),
        "sparse": sum(1 for r in result if r.sparse),
        "empty": sum(1 for r in result if r.n_members == 0),
    }


def _observe_condition(args, kwargs, result):
    e = result.expectation
    return {"clamped": int(bool(((e < 0.0) | (e > 1.0)).any()))}


_OBSERVERS = {
    "mixture.em_fit": _observe_em_fit,
    "mixture.model_search": lambda a, k, r: {
        "cells": len(r[1]),
        "failed": sum(1 for c in r[1] if c.status != "ok"),
    },
    "mixture.condition": _observe_condition,
    "metrics.roc": lambda a, k, r: {
        "scores": _len_arg(a, k, 0, "match_scores") + _len_arg(a, k, 1, "nonmatch_scores")
    },
    "dataio.parse_records": lambda a, k, r: {"rows": len(r)},
    "dataio.parse_quality_csv": lambda a, k, r: {"rows": int(r.shape[0])},
    "quality.build_regions": _observe_regions,
    "quality.cluster_regions": _observe_regions,
    "errormodel.qr_training_matrix": lambda a, k, r: {"rows": int(r.shape[0])},
    "alignment.sweep_grid": lambda a, k, r: {"cells": len(r[0])},
}

# Row-writing functions whose ``rows`` argument may be a one-shot iterator:
# rows are counted as write_csv consumes them.
_ROW_ARG = {"dataio.write_csv": (2, "rows")}


class Tracer:
    """Installs span-recording wrappers on the veriq layers."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [importlib.import_module(f"veriq.{name}") for name in LAYERS]
        wrappers = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and obj.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{attr}")
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])
                    self._patches.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def reset(self) -> None:
        self.spans = []

    @contextlib.contextmanager
    def span(self, name: str):
        """A span around benchmark code, so glue time is attributed."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _open(self, name: str) -> Span:
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(self._next_id)
        return Span(self._next_id, parent, name, perf_counter(), 0.0)

    def _close(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()
        self.spans.append(span)

    def _wrap(self, fn, name: str):
        observe = _OBSERVERS.get(name)
        row_arg = _ROW_ARG.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            written = [0]
            if row_arg is not None:
                args, kwargs = _count_rows(args, kwargs, row_arg, written)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                self._close(span)
            if observe is not None:
                span.counts = observe(args, kwargs, result)
            elif row_arg is not None:
                span.counts = {"rows": written[0]}
            return result

        return traced


def _count_rows(args, kwargs, row_arg, written):
    index, key = row_arg

    def counted(rows):
        for row in rows:
            written[0] += 1
            yield row

    if len(args) > index:
        args = args[:index] + (counted(args[index]),) + args[index + 1:]
    else:
        kwargs = dict(kwargs, **{key: counted(kwargs[key])})
    return args, kwargs


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the durations of its direct children.

    Calls are single-threaded and properly nested, so children never
    overlap and their durations add.
    """
    own = {s.span_id: s.seconds for s in spans}
    for s in spans:
        if s.parent_id in own:
            own[s.parent_id] -= s.seconds
    return own


def _outer_seconds(spans: list[Span], names: set[str]) -> float:
    """Time inside spans named in ``names``, not counting nested repeats."""
    by_id = {s.span_id: s for s in spans}
    total = 0.0
    for s in spans:
        if s.name not in names:
            continue
        parent = by_id.get(s.parent_id)
        while parent is not None and parent.name not in names:
            parent = by_id.get(parent.parent_id)
        if parent is None:
            total += s.seconds
    return total


def _calls(spans, name):
    return [s for s in spans if s.name == name]


def _count(spans, key, *names):
    return sum((s.counts or {}).get(key, 0) for s in spans if s.name in names)


def em_cells(spans: list[Span]) -> list[dict]:
    """Per (K, family) solver counts, in call order."""
    return [dict(s.counts, seconds=s.seconds) for s in _calls(spans, "mixture.em_fit")
            if s.counts is not None]


def pass_layer_times(spans: list[Span]) -> dict[str, float]:
    """Per-layer times of one traced pass, in seconds."""
    own = self_times(spans)
    out = {}
    for layer in LAYERS + ("bench",):
        out[f"{layer}.self_s"] = sum(
            own[s.span_id] for s in spans if s.name.split(".", 1)[0] == layer
        )
    groups = {
        "mixture.em_s": {"mixture.em_fit"},
        "mixture.search_s": {"mixture.model_search"},
        "mixture.bic_s": {"mixture.bic"},
        "mixture.condition_s": {"mixture.condition"},
        "metrics.roc_s": {"metrics.roc"},
        "metrics.hter_select_s": {"metrics.select_hter_threshold"},
        "metrics.erc_s": {"metrics.erc"},
        "metrics.threshold_s": {"metrics.threshold_for_fmr"},
        "dataio.parse_s": {"dataio.parse_records", "dataio.parse_quality_csv"},
        "dataio.write_s": {"dataio.write_csv", "dataio.atomic_write_text",
                           "dataio.write_records"},
        "quality.regions_s": {"quality.quantile_grid", "quality.build_regions",
                              "quality.cluster_regions"},
        "errormodel.posterior_s": {"errormodel.region_posteriors"},
        "errormodel.training_s": {"errormodel.qr_training_matrix"},
        "alignment.sweep_s": {"alignment.sweep_grid"},
        "uniqueness.ium_s": {n for n in {s.name for s in spans}
                             if n.startswith("uniqueness.")},
        "cli.predict_s": {"cli.cmd_predict"},
        "cli.sweep_s": {"cli.cmd_sweep"},
    }
    for metric, names in groups.items():
        out[metric] = _outer_seconds(spans, names)
    return out


_REGION_FUNCTIONS = ("quality.build_regions", "quality.cluster_regions")


def pass_layer_counts(spans: list[Span]) -> dict[str, int]:
    """Per-layer work counts of one traced pass; these repeat exactly."""
    cells = em_cells(spans)
    return {
        "mixture.em_iters": sum(c["n_iter"] for c in cells),
        "mixture.em_density_evals": sum(c["n_iter"] * c["k"] * c["n"] for c in cells),
        "mixture.em_cells_at_max_iter": sum(1 for c in cells if c["at_max_iter"]),
        "mixture.em_restarts": sum(c["restarts"] for c in cells),
        "mixture.em_ridge_events": sum(c["ridge_events"] for c in cells),
        "mixture.cells_failed": _count(spans, "failed", "mixture.model_search"),
        "mixture.condition_calls": len(_calls(spans, "mixture.condition")),
        "mixture.clamped": _count(spans, "clamped", "mixture.condition"),
        "metrics.roc_calls": len(_calls(spans, "metrics.roc")),
        "metrics.roc_scores": _count(spans, "scores", "metrics.roc"),
        "dataio.parse_rows": _count(spans, "rows", "dataio.parse_records",
                                    "dataio.parse_quality_csv"),
        "dataio.write_rows": _count(spans, "rows", "dataio.write_csv"),
        "quality.regions": _count(spans, "regions", *_REGION_FUNCTIONS),
        "quality.regions_sparse": _count(spans, "sparse", *_REGION_FUNCTIONS),
        "quality.regions_empty": _count(spans, "empty", *_REGION_FUNCTIONS),
        "errormodel.posterior_calls": len(_calls(spans, "errormodel.region_posteriors")),
        "errormodel.training_rows": _count(spans, "rows", "errormodel.qr_training_matrix"),
        "alignment.sweep_cells": _count(spans, "cells", "alignment.sweep_grid"),
        "trace.spans": len(spans),
    }


def per_layer_metrics(traced_passes, untraced_walls) -> dict[str, float]:
    """Per-layer metrics over the traced passes of one run.

    ``traced_passes`` is a list of (wall seconds, spans). Times are medians
    over passes; counts come from the first pass (the caller checks that
    they repeat). Derived rates use the median times.
    """
    times = [pass_layer_times(spans) for _, spans in traced_passes]
    counts = pass_layer_counts(traced_passes[0][1])
    out = {k: statistics.median(t[k] for t in times) for k in times[0]}
    out.update(counts)
    traced_wall = statistics.median(w for w, _ in traced_passes)
    untraced_wall = statistics.median(untraced_walls)
    out["trace.wall_s"] = traced_wall
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["trace.unattributed_s"] = statistics.median(
        wall - sum(v for k, v in t.items() if k.endswith(".self_s"))
        for (wall, _), t in zip(traced_passes, times)
    )
    em_evals = counts["mixture.em_density_evals"]
    out["mixture.em_ns_per_density_eval"] = (
        out["mixture.em_s"] * 1e9 / em_evals if em_evals else 0.0
    )
    calls = counts["mixture.condition_calls"]
    out["mixture.condition_us_per_call"] = (
        out["mixture.condition_s"] * 1e6 / calls if calls else 0.0
    )
    queries = _count(traced_passes[0][1], "rows", "dataio.parse_quality_csv")
    predict_s, sweep_s = out.pop("cli.predict_s"), out.pop("cli.sweep_s")
    out["cli.predict_qps"] = queries / predict_s if predict_s else 0.0
    out["cli.sweep_cells_per_s"] = (
        counts["alignment.sweep_cells"] / sweep_s if sweep_s else 0.0
    )
    return out
