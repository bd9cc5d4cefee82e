"""Measurement primitives shared by every workload.

* :class:`RequestLog` keeps the benchmark's own issue and completion
  timestamps (virtual ms), so throughput comes from exact virtual times
  instead of an engine time that is rounded up to the next periodic tick
  (or, in an open loop, the whole configured duration).
* :class:`HostProfiler` wraps the public entry points of each layer from the
  outside and splits host time into per-layer *self* time: a wrapped call's
  duration minus the wrapped calls nested inside it.
* :func:`virtual_self_ms` does the same split over virtual time for trace
  spans: a span's duration minus the union of the intervals its children
  cover (children of a ``multi_get`` fork overlap, so they are unioned, not
  summed).
"""

from __future__ import annotations

import functools
import math
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


class RequestLog:
    """Issue and completion times of one timed phase, in virtual ms.

    A request that was issued but never completed (failed, or still in
    flight when the run ended) counts as failed.
    """

    def __init__(self) -> None:
        self.issued_ms: List[float] = []
        self.completed_ms: List[float] = []
        self.latencies_ms: List[float] = []

    def issue(self, at_ms: float) -> None:
        self.issued_ms.append(at_ms)

    def complete(self, start_ms: float, end_ms: float) -> None:
        self.completed_ms.append(end_ms)
        self.latencies_ms.append(end_ms - start_ms)

    @property
    def attempted(self) -> int:
        return len(self.issued_ms)

    @property
    def completed(self) -> int:
        return len(self.completed_ms)

    @property
    def failed(self) -> int:
        return self.attempted - self.completed

    def window_ms(self) -> float:
        """The load window: virtual time from the first issue to the last issue."""
        if not self.issued_ms:
            return 0.0
        return max(self.issued_ms) - min(self.issued_ms)

    def span_ms(self) -> float:
        """Virtual time from the first issue to the last completion."""
        if not self.completed_ms:
            return 0.0
        return max(self.completed_ms) - min(self.issued_ms)

    def completed_in_window(self) -> int:
        if not self.issued_ms:
            return 0
        last_issue = max(self.issued_ms)
        return sum(1 for end_ms in self.completed_ms if end_ms <= last_issue)

    def fingerprint(self) -> Tuple:
        """Everything virtual about the phase; equal iff the timelines are equal."""
        return (tuple(self.issued_ms), tuple(self.completed_ms),
                tuple(self.latencies_ms))


def exact_rps(logs: Sequence[RequestLog]) -> float:
    """Completions per virtual second of load window, pooled over independent runs.

    The window runs from a run's first issue to its last issue, while the
    offered load is whole: a closed loop still has every client active and
    an open loop is still arriving.  The drain after the last issue is left
    out because its length is the single slowest request's latency (in a
    160-client Retwis run of 2,000 requests one request can outlast the whole
    load window), which would make the rate measure one outlier.  Each run
    is its own cluster and timeline, so the pooled rate is total
    in-window completions over the sum of the windows.
    """
    window_ms = sum(log.window_ms() for log in logs)
    if window_ms <= 0:
        return 0.0
    return sum(log.completed_in_window() for log in logs) / (window_ms / 1000.0)


def nearest_rank(sorted_values: Sequence[float], pct: float) -> Tuple[float, int]:
    """The ``pct`` percentile by nearest rank, and how many samples lie beyond it."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


# -- host time ---------------------------------------------------------------------------
class HostProfiler:
    """Per-layer host self time and call counts from outside wrappers.

    :meth:`install` replaces each target attribute (a method on a class, or a
    function in a module) with a timing wrapper and :meth:`uninstall` puts
    the originals back.  Self time is attributed to the layer of the
    innermost wrapped call: an outer call's duration minus the durations of
    the wrapped calls it made.  ``clock`` returns nanoseconds.
    """

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns):
        self.clock = clock
        self.self_ns: Dict[str, int] = {}
        self.calls: Dict[str, int] = {}
        self.inclusive_ns: Dict[str, int] = {}
        self._stack: List[List[int]] = []
        self._originals: List[Tuple[object, str, object]] = []
        self._wrapped: Dict[int, Callable] = {}

    def wrap(self, layer: str, label: str, fn: Callable) -> Callable:
        """A wrapper of ``fn`` charging its self time to ``layer``.

        Wrapping the same function object twice returns the same wrapper, so
        a function re-exported from several modules counts once per call.
        """
        existing = self._wrapped.get(id(fn))
        if existing is not None:
            return existing
        self.self_ns.setdefault(layer, 0)
        self.calls.setdefault(label, 0)
        self.inclusive_ns.setdefault(label, 0)
        stack, clock = self._stack, self.clock
        self_ns, calls, inclusive_ns = self.self_ns, self.calls, self.inclusive_ns

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            frame = [0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self_ns[layer] += elapsed - frame[0]
                calls[label] += 1
                inclusive_ns[label] += elapsed

        self._wrapped[id(fn)] = timed
        return timed

    def install(self, targets: Iterable[Tuple[str, object, str]]) -> None:
        """Wrap every ``(layer, owner, attribute)`` the owner defines itself."""
        for layer, owner, attribute in targets:
            original = vars(owner).get(attribute)
            if original is None or not callable(original):
                raise AttributeError(f"{owner!r} defines no callable {attribute!r}")
            label = f"{getattr(owner, '__name__', owner)}.{attribute}"
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self.wrap(layer, label, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()
        self._wrapped.clear()

    def reset(self) -> None:
        """Zero every counter in place (the wrappers hold the same dicts)."""
        for counters in (self.self_ns, self.calls, self.inclusive_ns):
            for key in counters:
                counters[key] = 0

    def calls_matching(self, suffixes: Sequence[str]) -> int:
        return sum(count for label, count in self.calls.items()
                   if label.endswith(tuple(suffixes)))

    def self_s(self, layer: str) -> float:
        return self.self_ns.get(layer, 0) / 1e9


# -- virtual time ------------------------------------------------------------------------
def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0.0
    current_start: Optional[float] = None
    current_end = 0.0
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_start is None or start > current_end:
            if current_start is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_start is not None:
        total += current_end - current_start
    return total


def request_spans(spans: Sequence) -> List:
    """Finished spans that belong to request traces (not gossip or prefetch)."""
    background = {span.trace_id for span in spans
                  if span.parent_id is None and (span.attrs or {}).get("background")}
    return [span for span in spans
            if span.end_ms is not None and span.trace_id not in background]


def virtual_self_ms(spans: Sequence) -> Dict[str, float]:
    """Virtual self time per tier: each span minus what its children cover.

    Children are clipped to their parent's interval and unioned, so the
    overlapping fetch branches of one batched read are counted once.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.parent_id is not None and span.end_ms is not None:
            children.setdefault(span.parent_id, []).append((span.start_ms, span.end_ms))
    totals: Dict[str, float] = {}
    for span in spans:
        if span.end_ms is None:
            continue
        start, end = span.start_ms, span.end_ms
        covered = union_length((max(start, child_start), min(end, child_end))
                               for child_start, child_end in children.get(span.span_id, ()))
        totals[span.tier] = totals.get(span.tier, 0.0) + (end - start) - covered
    return totals
