"""Outside-in tracing for the benchmark.

A `Tracer` replaces public functions of the leaf modules (or methods of
their classes) with wrappers that record one span per call: name, start,
end, parent span and the id of the run the call belongs to. No file of
the program changes; `uninstall` puts the original attributes back.

Spans stay in memory until `write_jsonl` is called at the end of the
benchmark. Aggregates are kept as calls arrive:

- `stats[name] = [calls, self_s, total_s]`, where self time is the span's
  duration minus the part of it that its child spans cover;
- `counts[name]`, numbers that per-call hooks add (rows, bytes, ...).

Time spent in a hook counts as covered in the calling span, so hooks do
not inflate the self time of the layer that made the call. It still shows
in the run's wall time, which is how the benchmark reports tracing
overhead.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    """Spans and counters of one run, identified by `run_id`."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []     # [name, start, end, parent index]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self._open: list[int] = []      # indices of open spans, innermost last
        self._cover: list[float] = []   # child time covering each open span
        self._patches: list[tuple] = []

    def wrap(self, owner, attr: str, name, before=None, after=None) -> None:
        """Trace `owner.attr`.

        `name` is the span name, or a function of (args, kwargs) giving it.
        `before(args, kwargs, counts)` runs before each call and
        `after(args, kwargs, result, counts)` after it; both may add to the
        counters.
        """
        fn = getattr(owner, attr)
        self._patches.append((owner, attr, fn))
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = time.perf_counter()
            if before is not None:
                before(args, kwargs, tracer.counts)
            span_name = name(args, kwargs) if callable(name) else name
            record = [span_name, 0.0, 0.0, tracer._open[-1] if tracer._open else -1]
            tracer._open.append(len(tracer.spans))
            tracer.spans.append(record)
            tracer._cover.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._open.pop()
                cover = tracer._cover.pop()
                record[1], record[2] = start, end
                stat = tracer.stats[span_name]
                stat[0] += 1
                stat[1] += end - start - cover
                stat[2] += end - start
            if after is not None:
                after(args, kwargs, result, tracer.counts)
            if tracer._cover:
                tracer._cover[-1] += time.perf_counter() - entered
            return result

        setattr(owner, attr, traced)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)


def write_jsonl(tracers: list[Tracer], path) -> None:
    """All spans of `tracers`, one JSON object a line, with global ids."""
    offset = 0
    with open(path, "w", encoding="utf-8") as fh:
        for tracer in tracers:
            for i, (name, start, end, parent) in enumerate(tracer.spans):
                fh.write(json.dumps({
                    "id": offset + i, "name": name, "start": start, "end": end,
                    "parent": offset + parent if parent >= 0 else None,
                    "run": tracer.run_id}) + "\n")
            offset += len(tracer.spans)
