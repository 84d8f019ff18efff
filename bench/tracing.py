"""Span tracer that wraps hvdesign's public names from outside the package.

A wrapper replaces a function in every hvdesign module namespace (and
module-level dict, such as ``cli.COMMANDS``) where callers look it up, or
the attribute on its class for methods. Each call records a span
``[name, start, end, parent]`` in memory; the tracer writes them out once,
at the end of the run. Nothing inside ``src/`` changes.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import statistics
import sys
import time
from collections import Counter

import numpy as np

# (module, attribute path, span name). Methods are patched on their class.
SPANNED = [
    ("hvdesign.objectives", "CandidateEvaluator.evaluate", "objectives.evaluate"),
    ("hvdesign.evolve", "rank_population", "evolve.rank_population"),
    ("hvdesign.evolve", "evolve_generation", "evolve.evolve_generation"),
    ("hvdesign.evolve", "hypervolume", "evolve.hypervolume"),
    ("hvdesign.hypervector", "build_level_table", "hypervector.build_level_table"),
    ("hvdesign.hypervector", "encode_quantized", "hypervector.encode_quantized"),
    ("hvdesign.model", "train_encoders", "model.train_encoders"),
    ("hvdesign.model", "predict_batch", "model.predict_batch"),
    ("hvdesign.model", "classify", "model.classify"),
    ("hvdesign.data", "Quantizer.quantize_matrix", "data.quantize_matrix"),
    ("hvdesign.data", "load_dataset_csv", "data.load_dataset_csv"),
    ("hvdesign.data", "save_model", "data.save_model"),
    ("hvdesign.data", "load_model", "data.load_model"),
    ("hvdesign.cli", "cmd_train", "cli.cmd_train"),
    ("hvdesign.cli", "cmd_optimize", "cli.cmd_optimize"),
    ("hvdesign.cli", "cmd_sweep", "cli.cmd_sweep"),
    ("hvdesign.cli", "cmd_eval", "cli.cmd_eval"),
    ("hvdesign.cli", "cmd_synth", "cli.cmd_synth"),
    ("hvdesign.cli", "cmd_export_embeddings", "cli.cmd_export_embeddings"),
]

# `dominates` runs ~366k times per generation of the ga_grid workload; a
# span per call would cost tens of MB per generation, so it is only counted.
COUNTED = [("hvdesign.evolve", "dominates", "evolve.dominates")]

# (metric, span name, 0 for duration or 1 for self time): p50 per call.
TIMED = [
    ("objectives.evaluate_ms", "objectives.evaluate", 0),
    ("objectives.evaluate_self_ms", "objectives.evaluate", 1),
    ("evolve.rank_ms", "evolve.rank_population", 0),
    ("evolve.variation_self_ms", "evolve.evolve_generation", 1),
    ("evolve.hypervolume_ms", "evolve.hypervolume", 0),
    ("hypervector.build_level_table_ms", "hypervector.build_level_table", 0),
    ("hypervector.encode_ms", "hypervector.encode_quantized", 0),
    ("model.train_encoders_ms", "model.train_encoders", 0),
    ("model.predict_batch_ms", "model.predict_batch", 0),
    ("model.classify_ms", "model.classify", 0),
    ("data.quantize_ms", "data.quantize_matrix", 0),
    ("data.load_dataset_csv_ms", "data.load_dataset_csv", 0),
    ("data.save_model_ms", "data.save_model", 0),
    ("data.load_model_ms", "data.load_model", 0),
    ("cli.train_self_ms", "cli.cmd_train", 1),
    ("cli.eval_self_ms", "cli.cmd_eval", 1),
]

# Per-unit counts; each must repeat exactly in every traced unit of a run.
COUNTS = [
    ("objectives.evaluate_calls", "count"),
    ("evolve.rank_calls", "count"),
    ("evolve.dominates_calls", "count"),
    ("evolve.front_size", "count"),
    ("hypervector.build_level_table_calls", "count"),
    ("hypervector.encode_calls", "count"),
    ("hypervector.encode_bytes", "B"),
    ("data.model_bytes", "B"),
]


def _resolve(module_name: str, path: str):
    """(owner, attribute, original) or None when the name no longer exists."""
    module = sys.modules.get(module_name)
    if module is None:
        return None
    owner, _, attr = path.rpartition(".")
    holder = getattr(module, owner, None) if owner else module
    original = vars(holder).get(attr) if holder is not None else None
    if original is None:
        return None
    return holder, attr, original


def install(targets, make) -> list:
    """Replace each (module, attribute path, name) target by make(name, fn)
    wherever hvdesign looks it up; returns the patches for restore()."""
    patches = []
    hv_modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "hvdesign"]
    for module_name, path, name in targets:
        found = _resolve(module_name, path)
        if found is None:
            continue
        holder, attr, original = found
        wrapper = make(name, original)
        if isinstance(holder, type):
            patches.append((holder, attr, original))
            setattr(holder, attr, wrapper)
            continue
        for module in hv_modules:
            space = vars(module)
            for key, value in list(space.items()):
                if value is original:
                    patches.append((space, key, original))
                    space[key] = wrapper
                elif isinstance(value, dict) and not key.startswith("__"):
                    for dkey, dvalue in list(value.items()):
                        if dvalue is original:
                            patches.append((value, dkey, original))
                            value[dkey] = wrapper
    return patches


def restore(patches) -> None:
    for holder, key, original in reversed(patches):
        if isinstance(holder, dict):
            holder[key] = original
        else:
            setattr(holder, key, original)


class Tracer:
    """Installs wrappers for the duration of one unit of work and keeps the
    spans and per-unit counts of every traced unit."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self._stack = []
        self.unit_counts = []  # one Counter per traced unit
        self._counts = Counter()
        self._budgets = set()
        # Count hooks: what a layer did, computed from its arguments/result.
        self._before = {
            "objectives.evaluate": self._on_evaluate,
            "hypervector.encode_quantized": self._on_encode,
            "evolve.rank_population": self._tally("evolve.rank_calls"),
            "hypervector.build_level_table": self._tally("hypervector.build_level_table_calls"),
        }
        self._after = {
            "data.save_model": lambda args, kwargs: self._file_bytes(
                args[1] if len(args) > 1 else kwargs["path"]),
            "data.load_model": lambda args, kwargs: self._file_bytes(
                args[0] if args else kwargs["path"]),
        }

    # -- wrappers -------------------------------------------------------
    def _spanned(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        before, after = self._before.get(name), self._after.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs)
            return result

        return wrapper

    def _counted(self, name, fn):
        counts, key = self._counts, name + "_calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _tally(self, key):
        def hook(args, kwargs):
            self._counts[key] += 1

        return hook

    def _on_evaluate(self, args, kwargs):
        budget = args[1] if len(args) > 1 else kwargs["budget"]
        self._counts["objectives.evaluate_calls"] += 1
        raw = getattr(budget, "budgets", None)
        if raw is not None:
            self._budgets.add((budget.dim, np.asarray(raw).tobytes()))

    def _on_encode(self, args, kwargs):
        levels = np.asarray(args[0] if args else kwargs["levels"])
        table = args[1] if len(args) > 1 else kwargs["table"]
        s, n = levels.shape
        # Computed from shapes, not measured: an int8 gather of S*N*D level
        # entries plus the int64 (S, D) sum.
        self._counts["hypervector.encode_bytes"] += s * table.dim * (n + 8)
        self._counts["hypervector.encode_calls"] += 1

    def _file_bytes(self, path):
        self._counts["data.model_bytes"] += os.path.getsize(path)

    # -- installation ---------------------------------------------------
    @contextlib.contextmanager
    def unit(self):
        """Trace one unit of work, then restore every wrapped name."""
        patches = self._install()
        try:
            yield self
        finally:
            restore(patches)
            self._close_unit()

    def count(self, key: str, value: int) -> None:
        """Record a per-unit count that a workload observes in its output."""
        self._counts[key] += value

    def _install(self):
        return install(SPANNED, self._spanned) + install(COUNTED, self._counted)

    def _close_unit(self):
        if self._budgets:
            self._counts["objectives.unique_budgets"] = len(self._budgets)
        self.unit_counts.append(Counter(self._counts))
        self._counts.clear()
        self._budgets.clear()

    # -- results --------------------------------------------------------
    def count_mismatches(self) -> list:
        """Exact counts that differ between traced units of the same seed."""
        bad = []
        for key in [c[0] for c in COUNTS] + ["objectives.unique_budgets"]:
            values = {c.get(key, 0) for c in self.unit_counts}
            if len(values) > 1:
                bad.append((key, sorted(values)))
        return bad

    def _durations(self):
        """Per span name: list of (duration, self time) in seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            out.setdefault(name, []).append((end - start, end - start - child_time[i]))
        return out

    def layer_metrics(self) -> dict:
        """Per-layer metrics: p50 per call in ms, and counts per traced unit."""
        spans = self._durations()
        first = self.unit_counts[0] if self.unit_counts else Counter()
        out = {}
        for metric, span, which in TIMED:
            rows = spans.get(span)
            value = 1000.0 * statistics.median(r[which] for r in rows) if rows else 0.0
            out[metric] = {"value": value, "unit": "ms"}
        for metric, unit in COUNTS:
            out[metric] = {"value": first.get(metric, 0), "unit": unit}
        calls = first.get("objectives.evaluate_calls", 0)
        unique = first.get("objectives.unique_budgets", 0) / calls if calls else 0.0
        out["objectives.unique_budget_ratio"] = {"value": unique, "unit": "ratio"}
        return out

    def write(self, path) -> None:
        """Write every span once, at the end of the run."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent"], "spans": self.spans}, fh)
