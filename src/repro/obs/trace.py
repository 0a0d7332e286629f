"""Structured span tracing for the whole engine stack.

A :class:`Tracer` records nested, timed spans — session → request →
saturation step → phase → per-rule search → extraction — and exports
them in the Chrome trace-event JSON format, so any recorded run opens
directly in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.

Design constraints, in order:

* **Near-zero overhead when disabled.**  The engine is instrumented
  unconditionally, so the disabled path must cost nothing measurable:
  a disabled tracer's :meth:`Tracer.span` returns a measuring-but-
  discarded span (two ``perf_counter`` calls — exactly what the manual
  phase bookkeeping it replaced already paid), and the fine-grained
  call sites (per-rule searches) are guarded by ``tracer.enabled`` so
  they allocate nothing at all.  The guard is
  enforced by ``benchmarks/test_obs_overhead.py`` next to the perf
  gate.
* **One clock discipline.**  Every span start/duration comes from
  ``time.perf_counter()``, which on Linux is ``CLOCK_MONOTONIC`` —
  system-wide, so timestamps recorded in forked worker processes are
  directly comparable to the parent's.  ``PhaseTimings`` is now a
  consumer of the runner's phase spans rather than a parallel set of
  stopwatches.
* **Cross-process merging.**  The per-run ``optimize_many`` pool
  workers record events locally, tagged with their pid, and ship them
  back with their results;
  :meth:`Tracer.add_remote` folds them into the parent trace, and the
  export lays each pid out on its own lane.  This is what makes the
  difference between real parallelism and time-slicing *visible*: on a
  multicore box the worker lanes overlap, on a single CPU they
  interleave.

Events are stored with **absolute** ``perf_counter`` timestamps and
only made relative to the tracer's epoch at export time, which is what
lets events recorded by a different process (with its own tracer and
epoch) merge without translation.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Dict, List, Optional

__all__ = [
    "Span",
    "Tracer",
    "NULL_TRACER",
    "resolve_tracer",
    "TraceError",
]

#: Event categories used across the engine; purely informational (they
#: become the Chrome ``cat`` field, filterable in Perfetto).
CAT_SESSION = "session"
CAT_REQUEST = "request"
CAT_STEP = "step"
CAT_PHASE = "phase"
CAT_RULE = "rule"
CAT_EXTRACT = "extract"
CAT_SERVER = "server"


class TraceError(RuntimeError):
    """A span protocol violation (exited out of order, or never
    entered)."""


class Span:
    """One timed region.  Use as a context manager, or call
    :meth:`done` explicitly when the region does not nest lexically.

    A span always measures (``duration`` is valid after exit) even when
    its tracer is disabled — the runner's phase timings consume the
    durations either way; the tracer merely decides whether the event
    is retained for export.
    """

    __slots__ = ("tracer", "name", "cat", "args", "start", "duration")

    def __init__(self, tracer: "Tracer", name: str, cat: str,
                 args: Optional[Dict[str, Any]]) -> None:
        self.tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args
        self.start = -1.0
        self.duration = -1.0

    def __enter__(self) -> "Span":
        if self.tracer.enabled:
            self.tracer._stack.append(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.done()

    def done(self) -> None:
        """Close the span (idempotent); records the event when the
        tracer is enabled."""
        if self.duration >= 0.0:
            return  # already closed
        if self.start < 0.0:
            raise TraceError(f"span {self.name!r} closed before it was entered")
        self.duration = time.perf_counter() - self.start
        self.tracer._finish(self)

    def set(self, **args: Any) -> "Span":
        """Attach (or update) event args, e.g. ``span.set(cache_hit=True)``."""
        if self.args is None:
            self.args = {}
        self.args.update(args)
        return self


class Tracer:
    """Collects span events; exports Chrome trace-event JSON.

    ``enabled=False`` builds the no-op variant: spans still measure but
    nothing is retained (see :data:`NULL_TRACER`).
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        #: This process's pid — the tracer's own lane.
        self.pid = os.getpid()
        #: ``perf_counter`` at creation; export timestamps are relative
        #: to this.
        self.epoch = time.perf_counter()
        #: Finished events: name/cat/ts/dur (perf_counter secs)/pid/args.
        self.events: List[Dict[str, Any]] = []
        #: Currently-open spans (this process only), innermost last.
        self._stack: List[Span] = []

    # -- recording ------------------------------------------------------

    def span(self, name: str, cat: str = CAT_PHASE,
             **args: Any) -> Span:
        """A new span; enter it (``with``) or call ``done()`` on it."""
        return Span(self, name, cat, args or None)

    def add_complete(self, name: str, cat: str, start: float,
                     duration: float, **args: Any) -> None:
        """Record an already-measured region (the serial per-rule
        search path, which times rules anyway for telemetry)."""
        if not self.enabled:
            return
        self.events.append({
            "name": name, "cat": cat, "ts": start, "dur": duration,
            "pid": self.pid, "args": args or None,
        })

    def _finish(self, span: Span) -> None:
        if not self.enabled:
            return
        if self._stack and self._stack[-1] is span:
            self._stack.pop()
        elif span in self._stack:
            raise TraceError(
                f"span {span.name!r} closed while inner spans are open: "
                f"{[s.name for s in self._stack[self._stack.index(span) + 1:]]}"
            )
        self.events.append({
            "name": span.name, "cat": span.cat, "ts": span.start,
            "dur": span.duration, "pid": self.pid, "args": span.args,
        })

    @property
    def open_depth(self) -> int:
        """How many spans are currently open in this process."""
        return len(self._stack)

    # -- cross-process merging ------------------------------------------

    def export_events(self) -> List[Dict[str, Any]]:
        """The finished events, absolute-timestamped, for shipping to a
        parent process (pids travel with each event)."""
        return list(self.events)

    def add_remote(self, events: List[Dict[str, Any]]) -> None:
        """Merge events recorded by another process's tracer.

        Each event keeps the pid of the process that recorded it; the
        export lays every pid out on its own lane.  Timestamps are
        absolute ``perf_counter`` values, comparable across fork
        (``CLOCK_MONOTONIC`` is system-wide), so no translation
        happens here.
        """
        if not self.enabled or not events:
            return
        for event in events:
            if "ts" not in event or "dur" not in event:
                continue  # malformed: drop rather than poison the trace
            self.events.append(event)

    # -- export ---------------------------------------------------------

    def _lane_name(self, pid: int) -> str:
        return "engine" if pid == self.pid else f"worker-{pid}"

    def chrome_trace(self, session_name: str = "session",
                     metadata: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        """The trace as a Chrome trace-event JSON object.

        Lanes (Chrome ``tid``) are pids; events within a lane are
        sorted by timestamp, so per-lane timestamps are monotonic.  A
        synthetic top-level ``session`` span covers the whole recorded
        timeline, and metadata events name the process and each lane.
        """
        finished = sorted(self.events, key=lambda e: (e["pid"], e["ts"]))
        lanes = sorted({event["pid"] for event in finished} | {self.pid})
        trace_events: List[Dict[str, Any]] = [{
            "name": "process_name", "ph": "M", "pid": 1, "tid": 0,
            "args": {"name": "repro engine"},
        }]
        for pid in lanes:
            trace_events.append({
                "name": "thread_name", "ph": "M", "pid": 1, "tid": pid,
                "args": {"name": self._lane_name(pid)},
            })
        end = self.epoch
        entries: List[Dict[str, Any]] = []
        for event in finished:
            ts = max(0.0, event["ts"] - self.epoch)
            end = max(end, event["ts"] + event["dur"])
            entry: Dict[str, Any] = {
                "name": event["name"], "cat": event["cat"], "ph": "X",
                "ts": round(ts * 1e6, 3),
                "dur": round(event["dur"] * 1e6, 3),
                "pid": 1, "tid": event["pid"],
            }
            if event.get("args"):
                entry["args"] = event["args"]
            entries.append(entry)
        # The synthetic session span: one top-level bar spanning the
        # whole timeline on the engine lane, so the trace always has a
        # root even though the session itself never "closes".  It goes
        # *before* the sorted events: its ts (0) precedes everything on
        # its lane, keeping every lane's file order monotonic.
        trace_events.append({
            "name": session_name, "cat": CAT_SESSION, "ph": "X",
            "ts": 0.0, "dur": round(max(0.0, end - self.epoch) * 1e6, 3),
            "pid": 1, "tid": self.pid,
        })
        trace_events.extend(entries)
        trace: Dict[str, Any] = {
            "traceEvents": trace_events, "displayTimeUnit": "ms",
        }
        if metadata:
            # Chrome's free-form top-level metadata slot: the serve
            # layer stamps the request's trace_id here so a saved
            # trace file is self-identifying.
            trace["otherData"] = dict(metadata)
        return trace

    def write(self, path: str, session_name: str = "session",
              metadata: Optional[Dict[str, Any]] = None) -> None:
        """Write the Chrome trace JSON to ``path`` (parents created)."""
        from pathlib import Path

        target = Path(path)
        if target.parent != Path("."):
            target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.chrome_trace(session_name, metadata)))


#: The shared disabled tracer: spans measure, nothing is retained.
NULL_TRACER = Tracer(enabled=False)


def resolve_tracer(trace: "None | str | Tracer") -> Tracer:
    """The tracer for a run: an explicit :class:`Tracer` is used as-is,
    a path (or any truthy value) builds a fresh enabled tracer, and
    ``None`` resolves to the shared no-op."""
    if isinstance(trace, Tracer):
        return trace
    if trace:
        return Tracer()
    return NULL_TRACER
