"""Per-layer spans for the ldpsim benchmark, installed from outside the program.

``Tracer.install`` rebinds the names through which one ``ldpsim`` module
calls another (``attacks.randomize_batch``, ``harness.resolve_dataset``,
``NaiveBayes.fit`` ...) to wrappers that record a span per call: id, parent
span, layer name, start, end, thread, self time, work counts, and the
tracemalloc peak inside the call.  ``src/`` is never edited; ``uninstall``
restores the original bindings.  Spans stay in memory until the run ends.

Self time is a span's duration minus the time its direct child spans (same
thread) cover.  Each thread keeps its own span stack.  tracemalloc's peak is
process-wide, so ``peak_mib`` is exact only while a single thread runs.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import threading
import time
import tracemalloc
from collections import defaultdict

MIB = 1024.0 * 1024.0


def _values_reports(a, result):
    return {"reports": len(a["values"])}, a["params"].protocol


def _batch_reports(a, result):
    return {"reports": len(a["batch"])}, a["batch"].params.protocol


def _hash_pairs(a, result):
    return {"pairs": int(getattr(result, "size", 1))}, None


def _sanitize_tuples(a, result):
    return {"tuples": len(a["rows"])}, None


def _learning_rows(a, result):
    return {"rows": len(result.labels)}, None


def _fit_rows(a, result):
    return {"rows": len(a["X"])}, None


def _predict_rows(a, result):
    return {"rows": len(result)}, None


def _reident_pairs(a, result):
    # every survey after the first ranks n profiles against n_bk = n records
    n = a["dataset"].n
    return {"pairs": n * n * (a["surveys"].count - 1) * a["runs"]}, None


def _no_counts(a, result):
    return {}, None


# (module, attribute, layer, counter): the module is where the name is
# looked up at call time, so rebinding it there routes every call through
# the span.  Names a module does not have are skipped.
SPANS = (
    ("ldpsim.attacks", "randomize_batch", "oracles.randomize_batch", _values_reports),
    ("ldpsim.multidim", "randomize_batch", "oracles.randomize_batch", _values_reports),
    ("ldpsim.oracles", "hash_bucket", "rng.hash_bucket", _hash_pairs),
    ("ldpsim.attacks", "hash_bucket", "rng.hash_bucket", _hash_pairs),
    ("ldpsim.attacks", "predict_batch", "attacks.predict_batch", _batch_reports),
    ("ldpsim.attacks", "build_learning_set", "attacks.learning_set", _learning_rows),
    ("ldpsim.attacks", "rsfd_sanitize_batch", "multidim.sanitize", _sanitize_tuples),
    ("ldpsim.attacks", "rsrfd_sanitize_batch", "multidim.sanitize", _sanitize_tuples),
    ("ldpsim.attacks", "rsfd_estimate", "multidim.estimate", _no_counts),
    ("ldpsim.attacks", "rsrfd_estimate", "multidim.estimate", _no_counts),
    ("ldpsim.harness", "rsfd_sanitize_batch", "multidim.sanitize", _sanitize_tuples),
    ("ldpsim.harness", "rsrfd_sanitize_batch", "multidim.sanitize", _sanitize_tuples),
    ("ldpsim.harness", "rsfd_estimate", "multidim.estimate", _no_counts),
    ("ldpsim.harness", "rsrfd_estimate", "multidim.estimate", _no_counts),
    ("ldpsim.harness", "run_reident_experiment", "attacks.reident", _reident_pairs),
    ("ldpsim.harness", "empirical_attack_acc", "attacks.empirical", _no_counts),
    ("ldpsim.harness", "run_attr_infer_experiment", "attacks.attr_infer", _no_counts),
    ("ldpsim.harness", "resolve_dataset", "datasets.load", _no_counts),
    ("ldpsim.classifier.NaiveBayes", "fit", "classifier.fit", _fit_rows),
    ("ldpsim.classifier.NaiveBayes", "predict", "classifier.predict", _predict_rows),
)

# Layers whose spans are the harness's grid tasks (one call per task).
TASK_LAYERS = ("attacks.reident", "attacks.empirical", "attacks.attr_infer")


def _resolve(owner: str):
    try:
        return importlib.import_module(owner)
    except ModuleNotFoundError:
        module, cls = owner.rsplit(".", 1)
        return getattr(importlib.import_module(module), cls)


class _Frame:
    __slots__ = ("id", "start", "base", "peak", "child_s")

    def __init__(self, span_id: int, start: float, base: int):
        self.id = span_id
        self.start = start
        self.base = base
        self.peak = base
        self.child_s = 0.0


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self._local = threading.local()
        self._mem_lock = threading.Lock()
        self._installed: list[tuple] = []
        self._ids = itertools.count()

    # -- span recording ----------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self) -> _Frame:
        stack = self._stack()
        with self._mem_lock:
            current, peak = tracemalloc.get_traced_memory()
            if stack:
                stack[-1].peak = max(stack[-1].peak, peak)
            tracemalloc.reset_peak()
        frame = _Frame(next(self._ids), time.perf_counter(), current)
        stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, end: float, layer: str, counts: dict,
              tag: str | None) -> None:
        stack = self._stack()
        stack.pop()
        with self._mem_lock:
            frame.peak = max(frame.peak, tracemalloc.get_traced_memory()[1])
        duration = end - frame.start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.child_s += duration
            parent.peak = max(parent.peak, frame.peak)
        self.spans.append({
            "id": frame.id, "parent": parent.id if parent is not None else None,
            "layer": layer, "tag": tag, "thread": threading.get_ident(),
            "start": frame.start, "end": end,
            "self_s": duration - frame.child_s,
            "peak_mib": (frame.peak - frame.base) / MIB, "counts": counts,
        })

    @contextlib.contextmanager
    def span(self, layer: str):
        """Record one span around the caller's own code."""
        frame = self._enter()
        try:
            yield
        finally:
            self._exit(frame, time.perf_counter(), layer, {}, None)

    def _wrap(self, fn, layer: str, counter):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = self._enter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._exit(frame, time.perf_counter(), layer, {}, None)
                raise
            end = time.perf_counter()
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            self._exit(frame, end, layer, *counter(bound.arguments, result))
            return result

        return wrapper

    def install(self) -> None:
        for owner, attr, layer, counter in SPANS:
            target = _resolve(owner)
            original = getattr(target, attr, None)
            if original is None:
                continue
            setattr(target, attr, self._wrap(original, layer, counter))
            self._installed.append((target, attr, original))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._installed):
            setattr(target, attr, original)
        self._installed.clear()

    # -- aggregation ---------------------------------------------------------

    def layer_metrics(self, wall_s: float, threads: int) -> dict[str, float]:
        """Per-layer totals: calls, self_s, peak_mib, work counts, per-tag splits."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            prefixes = [s["layer"]]
            if s["tag"]:
                prefixes.append(f"{s['layer']}.{s['tag']}")
            for prefix in prefixes:
                out[f"{prefix}.calls"] += 1
                out[f"{prefix}.self_s"] += s["self_s"]
                out[f"{prefix}.peak_mib"] = max(out[f"{prefix}.peak_mib"], s["peak_mib"])
            for name, value in s["counts"].items():
                out[f"{s['layer']}.{name}"] += value
        tasks = [s for s in self.spans if s["layer"] in TASK_LAYERS]
        out["harness.tasks"] = len(tasks)
        busy = sum(s["end"] - s["start"] for s in tasks)
        out["harness.pool.busy_frac"] = busy / (wall_s * threads)
        out["trace.coverage_frac"] = _union_length(self.spans) / wall_s
        return dict(out)


def _union_length(spans: list[dict]) -> float:
    """Wall time covered by at least one span, across all threads."""
    total, cursor = 0.0, float("-inf")
    for start, end in sorted((s["start"], s["end"]) for s in spans):
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total
