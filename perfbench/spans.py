"""Item timing for every pass, and in-memory spans for traced passes.

Workload code calls the program only through ``Recorder.item`` (one
client request, timed for the latency percentiles) and ``Recorder.call``
(one call into a homoglab module's public function).  The plain Recorder
adds one Python call per program call; the Tracer also records a span per
call, named ``<module>.<function>``, whose parent is the enclosing item
span and which shares that item's trace id.  Calls the program makes
internally are inside the caller's span.

Between items, and before calls made outside any item, the recorder runs
the speed probe (``speed.probe``) once ``speed.PROBE_EVERY_S`` has passed
since the last one; ``begin`` and ``end`` bracket the timed phase with a
probe each.  Probes never run inside an item or a call's span.
"""

from __future__ import annotations

import bisect
import json
import statistics
import time
from collections import defaultdict

import speed

_clock = time.perf_counter

# The layers: homoglab's modules with work of their own (errors has none).
MODULES = ("formats", "graphs", "morphisms", "homogeneity", "presentations", "verify", "cli")


class Recorder:
    """Times items; calls into the program are direct."""

    tracing = False

    def __init__(self):
        self.latencies: list[float] = []  # seconds, items in run order
        self.segments: list[int] = []  # per item, the probe it follows
        self.phases: list[str] = []  # per item
        self.errors: dict[str, str] = {}  # item key -> exception text
        self.marks: list[tuple[float, float]] = []  # speed probes (start, end)
        self._in_item = False

    def begin(self) -> None:
        self.marks = [speed.probe()]

    def end(self) -> None:
        self.marks.append(speed.probe())

    def checkpoint(self) -> None:
        if self.marks and _clock() - self.marks[-1][1] >= speed.PROBE_EVERY_S:
            self.marks.append(speed.probe())

    def item(self, phase: str, key: str, fn, *args):
        """Run one item, time it, and record (not raise) its exception."""
        self.checkpoint()
        self._in_item = True
        start = _clock()
        try:
            return fn(*args)
        except Exception as exc:  # an item that raises counts as failed
            self.errors[key] = f"{type(exc).__name__}: {exc}"
            return None
        finally:
            self.latencies.append(_clock() - start)
            self.segments.append(len(self.marks) - 1)
            self.phases.append(phase)
            self._in_item = False

    def call(self, name: str, fn, *args, **kwargs):
        if not self._in_item:
            self.checkpoint()
        return fn(*args, **kwargs)

    def corrected(self) -> dict:
        """The timed phase's times, raw and speed-corrected.  Raw wall time
        leaves out the probes; corrected times scale each stretch between
        two probes by its local factor."""
        scales = speed.segment_scales(self.marks)
        gaps = [b[0] - a[1] for a, b in zip(self.marks, self.marks[1:])]
        return {
            "wall_raw_s": sum(gaps),
            "wall_s": sum(g * f for g, f in zip(gaps, scales)),
            "latencies_s": [t * scales[i] for t, i in zip(self.latencies, self.segments)],
            "phases": self.phases,
            "scale_median": statistics.median(scales),
            "probes": len(self.marks),
        }

    def phase(self, name: str):
        return _Phase(self, name)


class _Phase:
    """Groups the calls made outside items (such as enumeration)."""

    def __init__(self, rec: Recorder, name: str):
        self.rec, self.name = rec, name

    def __enter__(self):
        if self.rec.tracing:
            self.rec._open(f"phase.{self.name}", self.name, None)
        return self

    def __exit__(self, *exc):
        if self.rec.tracing:
            self.rec._close()
        return False


class Tracer(Recorder):
    """Records spans as tuples (span_id, parent_id, trace_id, name, phase,
    start, end); written out once the pass ends."""

    tracing = True

    def __init__(self):
        super().__init__()
        self.spans: list[tuple] = []
        self._stack: list[list] = []  # open spans: [id, parent, trace, name, phase, start]
        self._next_id = 0
        self.counts: dict[str, float] = defaultdict(float)

    def _open(self, name: str, phase: str, trace_id):
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else None
        if trace_id is None:
            trace_id = self._stack[-1][2] if self._stack else self._next_id
        self._stack.append([self._next_id, parent, trace_id, name, phase, _clock()])

    def _close(self):
        span_id, parent, trace_id, name, phase, start = self._stack.pop()
        self.spans.append((span_id, parent, trace_id, name, phase, start, _clock()))

    def item(self, phase: str, key: str, fn, *args):
        self.checkpoint()
        self._open(f"item.{key}", phase, self._next_id + 1)
        try:
            return super().item(phase, key, fn, *args)
        finally:
            self._close()

    def call(self, name: str, fn, *args, **kwargs):
        if not self._in_item:
            self.checkpoint()
        phase = self._stack[-1][4] if self._stack else ""
        self._open(name, phase, None)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close()

    def layer_totals(self) -> dict[str, float]:
        """busy_s (speed-corrected like the items) and calls per call-span
        name, overall and per phase, and busy_s per module."""
        scales = speed.segment_scales(self.marks)
        probe_ends = [end for _, end in self.marks]
        out: dict[str, float] = defaultdict(float)
        for _, _, _, name, phase, start, end in self.spans:
            if name.startswith(("item.", "phase.")):
                continue
            segment = min(bisect.bisect_right(probe_ends, start), len(scales)) - 1
            busy = (end - start) * scales[max(0, segment)]
            for key in (name, f"{name}.{phase}"):
                out[f"{key}.busy_s"] += busy
                out[f"{key}.calls"] += 1
            out[f"{name.split('.', 1)[0]}.busy_s"] += busy
        return dict(out)

    def write(self, path: str) -> None:
        keys = ("span_id", "parent_id", "trace_id", "name", "phase", "start", "end")
        with open(path, "w") as fh:
            for span in sorted(self.spans):
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
