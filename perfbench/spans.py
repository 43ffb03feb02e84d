"""In-memory span recorder for the traced run.

Spans are recorded only from the benchmark's own files: around its calls
into the layers, and around kernels that ``repro.index.tree`` looks up as
module attributes, which ``wrap`` replaces for the duration of a pass.
Nothing under ``src/`` is changed on disk.
"""
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        # [name, start_ns, end_ns, parent index or -1, call id]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    @contextmanager
    def span(self, name: str, call_id: int | None = None):
        parent = self._stack[-1] if self._stack else -1
        if call_id is None and parent >= 0:
            call_id = self.spans[parent][4]
        rec = [name, time.perf_counter_ns(), 0, parent, call_id]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    def wrap(self, module, attr: str, name: str) -> bool:
        """Record a span around every call of ``module.attr``; False when the
        attribute no longer exists, so its metrics are reported absent."""
        fn = getattr(module, attr, None)
        if fn is None:
            return False

        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        setattr(module, attr, traced)
        self._patched.append((module, attr, fn))
        return True

    def unwrap(self) -> None:
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)

    # ---------------------------------------------------------- aggregation
    def total_ns(self, name: str, under: str | None = None) -> int:
        """Summed duration of spans called ``name``; with ``under``, only
        those whose direct parent is called ``under``."""
        return sum(s[2] - s[1] for s in self.spans if s[0] == name and (
            under is None or (s[3] >= 0 and self.spans[s[3]][0] == under)))

    def durations_ms(self, name: str) -> list[float]:
        return [(s[2] - s[1]) / 1e6 for s in self.spans if s[0] == name]

    def child_ns(self, parent_name: str) -> int:
        """Time covered by the direct children of spans called ``parent_name``."""
        return sum(s[2] - s[1] for s in self.spans
                   if s[3] >= 0 and self.spans[s[3]][0] == parent_name)

    def dump(self) -> list[dict]:
        return [{"name": n, "start_ns": a, "end_ns": b, "parent": p, "call_id": c}
                for n, a, b, p, c in self.spans]
