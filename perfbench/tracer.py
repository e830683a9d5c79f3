"""Outside-in span tracer for the activetest layers.

The tracer never edits the package: it replaces the names one module imports
from another (``activetest.engine.keys_for_ids``, ``activetest.cli.align``,
...) with timing wrappers for the duration of a traced body, then puts the
originals back.  Each wrapper records a span (id, parent id, name, start,
end, op id) in memory and bumps the counters named for its layer.  A layer's
busy time is the sum of its spans' self times: duration minus the part
covered by direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from time import perf_counter


def _count(counter, amount):
    def count(counts, args, kwargs, result):
        counts[counter] += amount(args, kwargs, result)
    return count


def _run_method(counts, args, kwargs, result):
    counts["engine.fetches"] += result.n_queries
    method = args[1] if len(args) > 1 else kwargs["method"]
    if method.variant in ("active", "active-xu", "random"):
        counts["engine.budgeted_fetches"] += result.n_queries
        counts["engine.budget"] += kwargs["n_b"]


_ROWS = _count("pipeline.rows_read", lambda a, k, r: len(r))
_BYTES = _count("cli.bytes_written",
                lambda a, k, r: len((a[1] if len(a) > 1 else k["text"]).encode("utf-8")))
_DRAWS = _count("rng.draws", lambda a, k, r: r.size)
_IDS = _count("rng.ids_hashed", lambda a, k, r: len(a[0] if a else k["ids"]))
_CALLS = _count("procedures.calls", lambda a, k, r: 1)

# (module, attribute holding the callable, span name, counter update)
# Module attributes are the names a calling module imported; class
# attributes are methods called on instances the package builds itself.
SITES = [
    ("activetest.cli", "_read_run_input", "cli.read_input", None),
    ("activetest.cli", "atomic_write_text", "cli.write", _BYTES),
    ("activetest.cli", "read_summary_table", "pipeline.read", _ROWS),
    ("activetest.cli", "align", "pipeline.align", None),
    ("activetest.cli", "oracle_recovery", "pipeline.recovery", None),
    ("activetest.cli", "run_method", "engine.run_method", _run_method),
    ("activetest.cli", "run_experiment", "simulate.harness", None),
    ("activetest.pipeline", "run_method", "engine.run_method", _run_method),
    ("activetest.pipeline", "by", "procedures.stepup", _CALLS),
    ("activetest.pipeline:AlignedPair", "to_hypotheses", "pipeline.to_hypotheses", None),
    ("activetest.simulate", "run_method", "engine.run_method", _run_method),
    ("activetest.simulate", "by", "procedures.stepup", _CALLS),
    ("activetest.simulate", "ebh", "procedures.stepup", _CALLS),
    ("activetest.simulate", "gen_signal", "simulate.gen_signal", None),
    ("activetest.simulate", "make_statistics", "simulate.make_statistics", None),
    ("activetest.simulate", "uniforms", "rng.uniforms", _DRAWS),
    ("activetest.engine", "uniforms", "rng.uniforms", _DRAWS),
    ("activetest.engine", "keys_for_ids", "rng.keys_for_ids", _IDS),
    ("activetest.engine", "allocate_utilities", "allocation.allocate", None),
    ("activetest.engine", "active_values", "core.active_values", None),
    ("activetest.engine:RunOutput", "to_csv", "engine.to_csv", None),
]

# per-layer metric -> span whose summed self time it reports
TIME_METRICS = {
    "cli.self_s": "cli.main",
    "cli.write_s": "cli.write",
    "cli.read_input_s": "cli.read_input",
    "pipeline.read_s": "pipeline.read",
    "pipeline.align_s": "pipeline.align",
    "pipeline.to_hypotheses_s": "pipeline.to_hypotheses",
    "pipeline.recovery_self_s": "pipeline.recovery",
    "rng.keys_for_ids_s": "rng.keys_for_ids",
    "rng.uniforms_s": "rng.uniforms",
    "allocation.allocate_s": "allocation.allocate",
    "core.active_values_s": "core.active_values",
    "engine.run_method_self_s": "engine.run_method",
    "engine.to_csv_s": "engine.to_csv",
    "procedures.stepup_s": "procedures.stepup",
    "simulate.gen_signal_s": "simulate.gen_signal",
    "simulate.make_statistics_s": "simulate.make_statistics",
    "simulate.harness_self_s": "simulate.harness",
}
COUNT_METRICS = ("cli.bytes_written", "pipeline.rows_read", "rng.ids_hashed", "rng.draws",
                 "engine.fetches", "procedures.calls")


def _resolve(site: str):
    module, _, cls = site.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Spans and counters of one traced phase (a set-up or one body)."""

    def __init__(self, phase: str):
        self.phase = phase
        self.spans = []  # (id, parent, name, start, end, op)
        self.counts = defaultdict(float)
        self.op = -1
        self._next = 0
        self._stack = []

    def begin_op(self) -> None:
        self.op += 1

    def wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next
            self._next += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, name, start, end, self.op))
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result
        return traced

    def install(self) -> tuple[list, list]:
        """Patch every site; return (undo list, sites not found)."""
        undo, missing = [], []
        for site, attr, name, count in SITES:
            try:
                owner = _resolve(site)
                original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                missing.append(f"{site}.{attr}")
                continue
            undo.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, count))
        return undo, missing

    @staticmethod
    def uninstall(undo: list) -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    def self_times(self) -> dict:
        child_time = defaultdict(float)
        for _sid, parent, _name, start, end, _op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        busy = defaultdict(float)
        for sid, _parent, name, start, end, _op in self.spans:
            busy[name] += (end - start) - child_time[sid]
        return dict(busy)

    def top_level_s(self) -> float:
        return sum(end - start for _s, parent, _n, start, end, _o in self.spans if parent < 0)

    def layer_metrics(self) -> dict:
        busy = self.self_times()
        out = {metric: busy.get(span, 0.0) for metric, span in TIME_METRICS.items()}
        for name in COUNT_METRICS:
            out[name] = self.counts.get(name, 0.0)
        budget = self.counts.get("engine.budget", 0.0)
        out["engine.fetch_budget_ratio"] = (
            self.counts.get("engine.budgeted_fetches", 0.0) / budget if budget else 0.0)
        return out

    def dump(self, fh, body: int) -> None:
        for sid, parent, name, start, end, op in self.spans:
            fh.write(json.dumps({"phase": self.phase, "body": body, "op": op, "id": sid,
                                 "parent": parent, "name": name, "start": start,
                                 "end": end}) + "\n")
