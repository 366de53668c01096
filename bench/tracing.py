"""Opt-in tracing of rrqc's layers from outside the package.

``Tracer.patched`` replaces each target named in ``adapter.TRACE_TARGETS``
with a wrapper that records a span (name, parent, start, end, case) and
restores the originals on exit. Spans stay in memory until ``dump``. A
span's self time is its duration minus the durations of its direct
children, which never overlap because the benchmark runs one caller.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from collections import defaultdict

#: Per-layer metrics, in report order: (name, unit). ``<span>.calls`` and
#: ``<span>.self_ms`` come from the spans; the rest are counters the
#: adapter's hooks fill in. Every value is a total over the traced cases.
PER_LAYER = (
    ("qcore.density_matrix.calls", "count"),
    ("qcore.density_matrix.self_ms", "ms"),
    ("qcore.measure_projective.calls", "count"),
    ("qcore.measure_projective.self_ms", "ms"),
    ("qcore.measure_projective.outcomes_dropped", "count"),
    ("qcore.embed.calls", "count"),
    ("qcore.embed.self_ms", "ms"),
    ("qcore.apply_kraus.self_ms", "ms"),
    ("qcore.kraus_defect.self_ms", "ms"),
    ("qcore.partial_trace.self_ms", "ms"),
    ("qcore.other.self_ms", "ms"),
    ("protocols.runs", "count"),
    ("protocols.branches", "count"),
    ("protocols.transcript_events", "count"),
    ("protocols.self_ms", "ms"),
    ("qswitch.closed_form.calls", "count"),
    ("qswitch.closed_form.self_ms", "ms"),
    ("qswitch.switched_apply.self_ms", "ms"),
    ("qswitch.generic.self_ms", "ms"),
    ("qswitch.choi_deviation.self_ms", "ms"),
    ("qswitch.other.self_ms", "ms"),
    ("qswitch.max_deviation", "abs"),
    ("channels.choi.calls", "count"),
    ("channels.choi.self_ms", "ms"),
    ("channels.product_pauli_kraus.self_ms", "ms"),
    ("channels.other.self_ms", "ms"),
    ("nogo.fixed_bit_scan.self_ms", "ms"),
    ("nogo.cells", "count"),
    ("cli.main.self_ms", "ms"),
    ("cli.command.self_ms", "ms"),
    ("cli.render.self_ms", "ms"),
    ("cli.report_bytes", "bytes"),
    ("trace.overhead_ratio", "ratio"),
)

CASE_SPAN = "bench.case"


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start_ns, end_ns, case]
        self.counters: defaultdict[str, float] = defaultdict(int)
        self._stack: list[int] = []
        self._case = -1

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, time.perf_counter_ns(), 0, self._case])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][3] = time.perf_counter_ns()
        self._stack.pop()

    def _wrap(self, fn, name, hook):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if hook is not None:
                hook(self.counters, result)
            return result

        return traced

    @contextlib.contextmanager
    def case(self, number: int):
        """Root span of one case; every span inside it carries its number."""
        self._case = number
        index = self._open(CASE_SPAN)
        try:
            yield
        finally:
            self._close(index)

    @contextlib.contextmanager
    def patched(self, modules: dict, targets):
        undo = []
        try:
            for name, layer, paths, hook in targets:
                for path in paths:
                    undo.append(self._patch(modules[layer], path, name, hook))
            yield self
        finally:
            for restore in reversed(undo):
                restore()

    def _patch(self, module, path: str, name: str, hook):
        if path.endswith("[*]"):
            table = getattr(module, path[:-3])
            saved = dict(table)
            table.update({key: self._wrap(fn, name, hook) for key, fn in saved.items()})
            return lambda: table.update(saved)
        owner_path, _, attr = path.rpartition(".")
        owner = getattr(module, owner_path) if owner_path else module
        raw = vars(owner)[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._wrap(raw.__func__, name, hook))
        else:
            wrapped = self._wrap(raw, name, hook)
        setattr(owner, attr, wrapped)
        return lambda: setattr(owner, attr, raw)

    def metrics(self, overhead_ratio: float) -> dict:
        """Per-layer metrics from the recorded spans and counters."""
        children_ns = [0] * len(self.spans)
        for name, parent, start, end, _ in self.spans:
            if parent >= 0:
                children_ns[parent] += end - start
        calls: defaultdict[str, int] = defaultdict(int)
        self_ns: defaultdict[str, int] = defaultdict(int)
        for (name, _, start, end, _), child in zip(self.spans, children_ns):
            calls[name] += 1
            self_ns[name] += end - start - child
        values = dict(self.counters)
        values["trace.overhead_ratio"] = overhead_ratio
        out = {}
        for metric, unit in PER_LAYER:
            span, _, kind = metric.rpartition(".")
            if metric in values:
                value = values[metric]
            elif kind == "calls":
                value = calls[span]
            elif kind == "self_ms":
                value = self_ns[span] / 1e6
            else:
                value = 0
            out[metric] = {"value": value, "unit": unit}
        return out

    def dump(self, path, record: dict) -> None:
        payload = {
            "record": record,
            "fields": ["name", "parent", "start_ns", "end_ns", "case"],
            "spans": self.spans,
        }
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
