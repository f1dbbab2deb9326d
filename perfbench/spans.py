"""Span tracing of the program's layers, done from the benchmark's side.

:class:`Tracer` replaces the public functions of each layer with timing
wrappers at *every* place they are reachable: a function imported with
``from module import name`` lives on under that name in the importing
module, so the tracer scans every loaded module (the program's and the
benchmark's own) for the original object and patches each reference
(``repro.pipelines.shape_only.extract_object_crop`` as well as
``repro.pipelines.preprocess``).  Methods are patched on the class that
defines them, and micro-batchers built while tracing get their flush
callback wrapped.  :meth:`Tracer.uninstall` puts every original back; the
untraced phase of a run then pays one flag test per flush.

Spans live in memory: name, start, end, self time (duration minus the
time covered by child spans on the same thread), the root span of the
thread's stack, a phase label and small per-span facts (rows; a flush's
admission times and queries).  Worker processes forked from a traced
process inherit the wrappers; an at-fork hook switches recording off
there, because their spans could not be reported back.  Stages inside
shard workers are therefore reported as the residual of the front end's
wait (see README.md).
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: (module, attribute, span name) for module-level functions.  Order does
#: not matter; every loaded module holding the same function object is
#: patched.
FUNCTION_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.imaging.threshold", "threshold_binary", "imaging.threshold"),
    ("repro.imaging.contours", "largest_contour", "imaging.contour"),
    ("repro.imaging.moments", "hu_moments", "imaging.moments"),
    ("repro.imaging.histogram", "rgb_histogram", "imaging.histogram"),
    ("repro.imaging.match_shapes", "match_shapes_block", "imaging.score_kernel"),
    ("repro.imaging.match_shapes", "match_shapes_batch", "imaging.score_kernel"),
    ("repro.imaging.histogram", "compare_histograms_block", "imaging.score_kernel"),
    ("repro.imaging.histogram", "compare_histograms_batch", "imaging.score_kernel"),
    ("repro.pipelines.preprocess", "extract_object_crop", "pipelines.crop"),
    ("repro.pipelines.shape_only", "shape_features", "pipelines.shape_extract"),
    ("repro.pipelines.color_only", "color_features", "pipelines.color_extract"),
    ("repro.engine.cache", "content_hash", "engine.content_hash"),
    ("repro.serving.shards", "merge_champions", "serving.merge"),
    ("repro.store.builder", "build_store", "store.build"),
    ("repro.openset.enroll", "merge_enrollment", "openset.merge"),
)

#: (module, class, method, span name) for methods, patched on the class.
METHOD_TARGETS: tuple[tuple[str, str, str, str], ...] = (
    ("repro.pipelines.hybrid", "HybridPipeline", "predict_batch", "pipelines.predict_batch"),
    ("repro.pipelines.hybrid", "HybridPipeline", "fit", "pipelines.fit"),
    ("repro.engine.cache", "FeatureCache", "invalidate_namespace", "engine.invalidate"),
    ("repro.engine.cache", "ReferenceMatrixCache", "invalidate_namespace", "engine.invalidate"),
    ("repro.store.attach", "ReferenceStore", "attach", "store.attach"),
    ("repro.serving.shards", "ShardedRecognitionService", "swap_store", "store.swap"),
    ("repro.serving.shards", "ShardedRecognitionService", "enroll", "openset.enroll"),
)

#: Span names whose first positional argument is a query block: the span
#: records its row count so kernel time can be reported per query row.
_BLOCK_KERNELS = frozenset({"match_shapes_block", "compare_histograms_block"})


@dataclass
class Span:
    name: str
    start: float
    end: float
    self_s: float
    root: str
    phase: str
    rows: int = 1
    #: Flush spans only: the admission times of the requests served and
    #: the queries themselves (for payload sizes, computed afterwards).
    enqueued: tuple[float, ...] = ()
    queries: tuple[Any, ...] = ()

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class _Frame:
    name: str
    start: float
    child_s: float = 0.0


#: Every tracer ever installed in this process; a flush wrapper outlives
#: ``uninstall`` inside services built while tracing, so the at-fork hook
#: must still reach its tracer.
_ACTIVE: list["Tracer"] = []


def _disable_in_child() -> None:
    for tracer in _ACTIVE:
        tracer.recording = False


os.register_at_fork(after_in_child=_disable_in_child)


@dataclass
class Tracer:
    """Wraps the layer functions and keeps their spans in memory."""

    phase: str = "setup"
    recording: bool = True
    spans: list[Span] = field(default_factory=list)
    _patches: list[tuple[Any, str, Any]] = field(default_factory=list)
    _local: threading.local = field(default_factory=threading.local)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    # -- installation ---------------------------------------------------------

    def install(self) -> "Tracer":
        """Patch every target at every reference; idempotent."""
        if self._patches:
            return self
        for module_name, attr, span_name in FUNCTION_TARGETS:
            original = getattr(importlib.import_module(module_name), attr)
            wrapper = self._wrap(original, span_name, attr in _BLOCK_KERNELS)
            for module in list(sys.modules.values()):
                if module is None or module is sys.modules[__name__]:
                    continue
                for key, value in list(getattr(module, "__dict__", {}).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        for module_name, class_name, method, span_name in METHOD_TARGETS:
            cls = getattr(importlib.import_module(module_name), class_name)
            original = cls.__dict__[method]
            if isinstance(original, classmethod):
                wrapped = classmethod(self._wrap(original.__func__, span_name, False))
            else:
                wrapped = self._wrap(original, span_name, False)
            self._patch(cls, method, wrapped)
        from repro.serving.batcher import MicroBatcher

        batcher_init = MicroBatcher.__dict__["__init__"]

        def traced_init(batcher: Any, flush: Callable, *args: Any, **kwargs: Any) -> None:
            batcher_init(batcher, self.wrap_flush(flush), *args, **kwargs)

        self._patch(MicroBatcher, "__init__", traced_init)
        if self not in _ACTIVE:
            _ACTIVE.append(self)
        return self

    def uninstall(self) -> None:
        """Restore every patched reference to its original object."""
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def _patch(self, owner: Any, key: str, value: Any) -> None:
        # ``__dict__`` rather than getattr: a classmethod must be restored
        # as the descriptor itself, not as a bound method.
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def _wrap(self, function: Callable, span_name: str, block: bool) -> Callable:
        tracer = self

        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.recording:
                return function(*args, **kwargs)
            rows = len(args[0]) if block and args else 1
            frame = tracer._enter(span_name)
            try:
                return function(*args, **kwargs)
            finally:
                tracer._exit(frame, rows=rows)

        return traced

    def wrap_flush(self, flush: Callable[[list], None]) -> Callable[[list], None]:
        """A micro-batcher flush callback recorded as a ``serving.flush`` span.

        The batcher hands the callback its queued request records; their
        admission time (``enqueued_at``, on the service's monotonic clock)
        gives each request's queue wait up to this flush.
        """
        tracer = self

        def traced_flush(items: list) -> None:
            if not tracer.recording:
                return flush(items)
            frame = tracer._enter("serving.flush")
            try:
                return flush(items)
            finally:
                tracer._exit(
                    frame,
                    rows=len(items),
                    enqueued=tuple(getattr(item, "enqueued_at", frame.start) for item in items),
                    queries=tuple(getattr(item, "query", None) for item in items),
                )

        return traced_flush

    # -- span stack -------------------------------------------------------------

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> _Frame:
        frame = _Frame(name, time.monotonic())
        self._stack().append(frame)
        return frame

    def _exit(self, frame: _Frame, **facts: Any) -> None:
        end = time.monotonic()
        stack = self._stack()
        stack.pop()
        duration = end - frame.start
        if stack:
            stack[-1].child_s += duration
        span = Span(
            name=frame.name,
            start=frame.start,
            end=end,
            self_s=duration - frame.child_s,
            root=stack[0].name if stack else frame.name,
            phase=self.phase,
            **facts,
        )
        with self._lock:
            self.spans.append(span)

    # -- queries ----------------------------------------------------------------

    def select(self, name: str, phase: str | None = None, root: str | None = None) -> list[Span]:
        with self._lock:
            spans = list(self.spans)
        return [
            span
            for span in spans
            if span.name == name
            and (phase is None or span.phase == phase)
            and (root is None or span.root == root)
        ]


def mean_ms(spans: list[Span]) -> float:
    """Mean inclusive duration in milliseconds (0.0 when the layer never ran)."""
    return 1000.0 * sum(span.duration for span in spans) / len(spans) if spans else 0.0
