"""In-memory span recorder that instruments the grading stack from outside.

Nothing under ``src/`` knows about it: :class:`Tracer` replaces public
functions and methods with timing wrappers (``wrap``) and restores them
on ``uninstall``. A span is ``(name, start, end, parent, request_id)``;
spans stay in memory until the run ends. A layer's *self* time is its
spans' durations minus the part covered by their child spans, so the
self times of all layers plus the untraced residual add up to wall time.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

clock = time.perf_counter


class Tracer:
    """Records spans around wrapped callables; thread-safe appends."""

    def __init__(self) -> None:
        #: Flat span table: name, start, end, parent index (-1 = root),
        #: request id. Indices are positions in this list.
        self.spans: List[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[object, str, object]] = []
        #: Per-span-name counters added by ``on_result`` hooks.
        self.counts: Dict[str, float] = defaultdict(float)

    # -- recording ------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request(self, request_id: str) -> None:
        """Tag this thread's next spans with a submission/request id."""
        self._local.request_id = request_id

    def begin(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else -1
        span = [name, clock(), 0.0, parent, getattr(self._local, "request_id", "")]
        with self._lock:
            index = len(self.spans)
            self.spans.append(span)
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = clock()
        self._stack().pop()

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        on_result: Optional[Callable[["Tracer", int, tuple, object], None]] = None,
        request_id: Optional[Callable[[tuple, dict], str]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``owner`` is a class or a module.
        ``on_result(tracer, span_index, args, result)`` may add counts;
        ``request_id(args, kwargs)`` names the request the call serves.
        """
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if request_id is not None:
                tracer.set_request(request_id(args, kwargs) or "")
            index = tracer.begin(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(index)
            if on_result is not None:
                on_result(tracer, index, args, result)
            return result

        wrapper.__wrapped__ = original  # type: ignore[attr-defined]
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- analysis -------------------------------------------------------

    def layer_times(self) -> Dict[str, dict]:
        """``{name: {"calls", "busy_s", "self_s"}}`` over finished spans."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, dict] = {}
        for index, (name, start, end, parent, _) in enumerate(self.spans):
            row = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (end - start) - child_time[index]
            if parent < 0 or self.spans[parent][0] != name:
                # A span nested in its own name (recursion) is already
                # inside the outer one's busy time.
                row["busy_s"] += end - start
        return out

    def dump(self, path: str) -> None:
        """Write every span (one JSON array per line) and the counts."""
        with open(path, "w") as handle:
            handle.write(json.dumps({"counts": dict(self.counts)}) + "\n")
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
