"""Spans around the public evograph calls, kept in memory.

A traced instance is one trace: a root span named ``bench.instance``
whose children are the calls of its pipeline.  Spans are written out as
JSONL once the run ends, so writing costs nothing while measuring.
"""

from __future__ import annotations

import json
from collections import defaultdict


class Tracer:
    def __init__(self, clock):
        self.clock = clock
        self.origin = clock()
        self.spans: list[dict] = []
        self.traces = 0

    def _span(self, trace, parent, layer, name, instance, t0, t1, pass_no) -> int:
        sid = len(self.spans)
        self.spans.append(
            {
                "trace": trace,
                "span": sid,
                "parent": parent,
                "pass": pass_no,
                "layer": layer,
                "name": f"{layer}.{name}",
                "instance": instance,
                "start": t0 - self.origin,
                "end": t1 - self.origin,
            }
        )
        return sid

    def instance(self, desc: str, pass_no: int, body):
        """Run ``body(call)`` as one trace; ``call`` records a child span."""
        trace = self.traces
        self.traces += 1
        children: list[tuple] = []

        def call(layer, name, fn, *args):
            t0 = self.clock()
            try:
                return fn(*args)
            finally:
                children.append((layer, name, t0, self.clock()))

        t0 = self.clock()
        try:
            return body(call)
        finally:
            root = self._span(trace, None, "bench", "instance", desc, t0, self.clock(), pass_no)
            for layer, name, c0, c1 in children:
                self._span(trace, root, layer, name, desc, c0, c1, pass_no)

    def write_jsonl(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per layer, each span less the part its children cover.

    Child spans never overlap, so a root's self time is its duration
    minus the sum of its children's durations.
    """
    layer_of = {s["span"]: s["layer"] for s in spans}
    out: dict[str, float] = defaultdict(float)
    covered: dict[int, float] = defaultdict(float)
    for s in spans:
        dur = s["end"] - s["start"]
        out[s["layer"]] += dur
        if s["parent"] is not None:
            covered[s["parent"]] += dur
    for sid, dur in covered.items():
        out[layer_of[sid]] -= dur
    return out
