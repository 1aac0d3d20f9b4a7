"""Per-layer attribution for the traced run, recorded from outside ``src/``.

For the duration of a traced run, :meth:`SpanRecorder.installed` replaces
each public function or method it is given with a wrapper that records
a span around the call: name, start, end, parent span and request id. Every module-level binding of a replaced function
is swapped too (``from x import f`` copies), so the wrapper sits where
each caller looks the name up. Everything is restored on exit.

Spans are only recorded inside a root span the benchmark client opens
with :meth:`SpanRecorder.request`, so each layer's self time (span minus
the part its child spans cover) plus the roots' own self time
(``unattributed``) sums exactly to the client's request wall time.

A call into a layer from inside a span of the same layer (a recursive
blast, a sharded cache delegating to its shard) does not open a second
span: the outer span already covers it.
"""

import functools
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

#: Root span name; its self time is the ``unattributed`` row.
ROOT = "request"


def _resolve(target):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return owner, attr


class SpanRecorder:
    """Spans in memory, aggregated per name as they close.

    Attributes:
        spans: closed spans as ``(id, name, start, end, parent, request)``.
        self_s / total_s / calls: per span name.
        work / work_s: per ratio key, unified work returned by the
            wrapped calls and the inclusive seconds those calls took.
        notes: other per-name tallies (verify outcomes, refine rounds...).
    """

    def __init__(self):
        self.spans = []
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.work = defaultdict(int)
        self.work_s = defaultdict(float)
        self.notes = defaultdict(float)
        self._stack = []  # open frames: [name, child seconds, id, request]
        self._next_id = 0

    # -- spans ------------------------------------------------------------

    def _open(self, name, request):
        frame = [name, 0.0, self._next_id, request]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame, start, end):
        stack = self._stack
        stack.pop()
        name, child, span_id, request = frame
        duration = end - start
        parent = None
        if stack:
            stack[-1][1] += duration
            parent = stack[-1][2]
        self.self_s[name] += duration - child
        self.total_s[name] += duration
        self.calls[name] += 1
        self.spans.append((span_id, name, start, end, parent, request))

    def request(self, request_id):
        """Context manager: the root span of one client request or step."""
        return _Root(self, request_id)

    def wrap(self, original, name, hook=None):
        """``original`` with a span of ``name`` around each traced call."""
        stack = self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if not stack or stack[-1][0] == name:
                return original(*args, **kwargs)
            frame = self._open(name, stack[-1][3])
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                self._close(frame, start, end)
            if hook is not None:
                hook(self, args, result, end - start)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def installed(self, targets, hooks=None):
        """Context manager wrapping every target callable.

        Args:
            targets: ``(span name, ("module:attr" | "module:Class.attr", ...))``
                pairs.
            hooks: target -> ``hook(recorder, args, result, seconds)``,
                called after each traced call of that target.
        """
        return _Installed(self, targets, hooks or {})

    # -- output -----------------------------------------------------------

    def write(self, path):
        """Write every closed span as one JSON line, ordered by id."""
        origin = min((span[2] for span in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, name, start, end, parent, request in sorted(self.spans):
                record = {
                    "id": span_id,
                    "name": name,
                    "start": round(start - origin, 9),
                    "end": round(end - origin, 9),
                    "parent": parent,
                    "request": request,
                }
                handle.write(json.dumps(record, sort_keys=True) + "\n")


class _Root:
    __slots__ = ("recorder", "request_id", "frame", "start")

    def __init__(self, recorder, request_id):
        self.recorder = recorder
        self.request_id = request_id

    def __enter__(self):
        if self.recorder._stack:
            raise RuntimeError("request spans do not nest")
        self.frame = self.recorder._open(ROOT, self.request_id)
        self.start = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.recorder._close(self.frame, self.start, perf_counter())
        return False


class _Installed:
    """Swap wrappers in on enter, restore every original on exit."""

    def __init__(self, recorder, targets, hooks):
        self.recorder = recorder
        self.targets = targets
        self.hooks = hooks
        self._undo = []  # (owner, attr, original)

    def _replace(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        try:
            for name, callables in self.targets:
                for target in callables:
                    owner, attr = _resolve(target)
                    original = owner.__dict__[attr]
                    wrapper = self.recorder.wrap(original, name, self.hooks.get(target))
                    self._replace(owner, attr, wrapper)
                    if isinstance(owner, type):
                        continue
                    # Module-level functions are also bound by name in
                    # every module that imported them.
                    for module in list(sys.modules.values()):
                        namespace = getattr(module, "__dict__", None)
                        if (
                            module is owner
                            or namespace is None
                            or not getattr(module, "__name__", "").startswith("repro")
                        ):
                            continue
                        for key, value in list(namespace.items()):
                            if value is original:
                                self._replace(module, key, wrapper)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self.recorder

    def __exit__(self, exc_type, exc, tb):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
        return False
