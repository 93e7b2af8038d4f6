"""In-memory span recorder for the traced benchmark run.

Spans are opened by the benchmark around each call it makes into a ppwave
module; nothing inside the package is instrumented. Each span carries a name,
the replicate id it belongs to, its parent span, start and end times and
optional counts. Spans stay in memory until :meth:`Tracer.dump` writes them.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager


class Tracer:
    """Records nested spans; a disabled tracer yields a scratch dict only."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, rid, **counts):
        """Time the body; counts given here or set on the yielded dict are kept."""
        if not self.enabled:
            yield {"counts": dict(counts)}
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "rid": rid,
            "parent": self._stack[-1] if self._stack else None,
            "counts": dict(counts),
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start_ns"] = time.perf_counter_ns()
        try:
            yield rec
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            self._stack.pop()

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive and self time (ns), summed counts.

        Self time is the span's duration minus the time its child spans cover.
        """
        child_ns = [0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_ns[rec["parent"]] += rec["end_ns"] - rec["start_ns"]
        out: dict[str, dict] = {}
        for rec in self.spans:
            dur = rec["end_ns"] - rec["start_ns"]
            agg = out.setdefault(
                rec["name"], {"calls": 0, "total_ns": 0, "self_ns": 0, "counts": {}}
            )
            agg["calls"] += 1
            agg["total_ns"] += dur
            agg["self_ns"] += dur - child_ns[rec["id"]]
            for key, value in rec["counts"].items():
                agg["counts"][key] = agg["counts"].get(key, 0) + value
        return out

    def dump(self, path, extra: dict | None = None) -> None:
        """Write every span plus the per-name summary as one JSON document."""
        payload = {"spans": self.spans, "summary": self.summary()}
        if extra:
            payload.update(extra)
        with open(path, "w") as fh:
            json.dump(payload, fh)
