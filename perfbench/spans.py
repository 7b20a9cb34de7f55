"""In-memory span tracer for the benchmark's traced runs.

A span is recorded around a call into one of ttkit's public functions. The
wrapper is installed where the caller looks the function up, so the library
itself is never edited: `train.py` imports `backward`, `batch_loss`,
`train_step`, `clip_gradients` and `save_checkpoint` by name into its own
namespace, `decode.py` reaches `encoder_layer_step` through the `attention`
module object, and methods are looked up on their class. Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import functools
import json
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Spans as [name, start, end, parent index, group]. The group is the
    index of the outermost open span, so all spans of one train step or one
    decoded utterance share an identifier."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    def _begin(self, name: str) -> list:
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        group = self.spans[self._open[0]][4] if self._open else index
        span = [name, 0.0, 0.0, parent, group]
        self.spans.append(span)
        self._open.append(index)
        span[1] = perf_counter()
        return span

    def _end(self, span: list):
        span[2] = perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(span)

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        span = self._begin(name)
        try:
            yield
        finally:
            self._end(span)

    @contextmanager
    def patched(self, targets):
        """Install wrappers for (owner, attribute, span name) triples and
        restore the originals on exit."""
        saved = []
        try:
            for owner, attr, name in targets:
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def mark(self) -> int:
        """Position to slice the spans recorded after this point."""
        return len(self.spans)

    def totals(self, windows=None) -> dict[str, tuple[int, float]]:
        """Per span name: (call count, inclusive seconds), over the given
        (start, end) index ranges of the span list, or over all spans."""
        out: dict[str, tuple[int, float]] = {}
        for lo, hi in windows or [(0, len(self.spans))]:
            for name, start, end, _, _ in self.spans[lo:hi]:
                calls, secs = out.get(name, (0, 0.0))
                out[name] = (calls + 1, secs + (end - start))
        return out

    def coverage(self, roots: set[str], windows) -> tuple[float, float]:
        """(seconds inside outermost spans named in `roots`, seconds of
        those covered by their direct children), over the given index
        ranges. Children of one span never overlap: the program is
        single-threaded."""
        total = covered = 0.0
        for lo, hi in windows:
            inside = {i for i in range(lo, hi) if self.spans[i][0] in roots and self.spans[i][3] == -1}
            for i in range(lo, hi):
                _, start, end, parent, _ = self.spans[i]
                if i in inside:
                    total += end - start
                elif parent in inside:
                    covered += end - start
        return total, covered

    def write(self, path):
        """Write every span as one JSON object per line, times in ms from
        the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as f:
            for i, (name, start, end, parent, group) in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": name, "parent": parent, "group": group,
                    "start_ms": round((start - origin) * 1e3, 4),
                    "dur_ms": round((end - start) * 1e3, 4),
                }) + "\n")

