"""The online recognition service: concurrent single-query requests over
micro-batched vectorized scoring.

:class:`RecognitionService` is the latency-bound counterpart of the offline
:class:`~repro.engine.executor.ParallelExecutor` sweep: callers submit one
image at a time from any number of threads, the
:class:`~repro.serving.batcher.MicroBatcher` coalesces queued requests into
blocks, and each flush rides the pipeline's vectorized ``predict_batch``
kernel — so online throughput approaches the offline batched path instead
of the scalar one-query-at-a-time loop.

Resilience composes with the PR 3 machinery rather than duplicating it:

* a full admission queue rejects with :class:`~repro.errors.
  ServiceOverloaded` (bounded memory, bounded latency, honest backpressure);
* a batch that raises is isolated request-by-request, each retried under the
  service's :class:`~repro.engine.faults.RetryPolicy`;
* a request that still fails — or whose deadline expired before its batch
  ran — degrades through the configured *fallback* pipeline (typically a
  :class:`~repro.pipelines.fallback.FallbackPipeline` chain or the
  unfailable most-frequent baseline) and is flagged ``degraded``, exactly
  like the offline fallback path; only with no fallback does the caller see
  the error.

The service duck-types the pipeline protocol (``predict`` / ``name``), so a
robot patrol can submit its observations through the service unchanged —
concurrent missions then share one warm pipeline and batch together.
"""

from __future__ import annotations

import hmac
import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Sequence

from repro.config import ExperimentConfig, ServingSettings
from repro.datasets.dataset import ImageDataset, LabelledImage
from repro.engine.faults import RetryPolicy
from repro.errors import (
    DeadlineExceeded,
    EnrollmentError,
    ServiceNotReady,
    ServiceOverloaded,
    ServingError,
)
from repro.pipelines.base import Prediction, RecognitionPipeline
from repro.serving.batcher import MicroBatcher
from repro.serving.stats import ServiceStats, ServingReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serving.registry import PipelineRegistry


@dataclass(frozen=True)
class EnrollReport:
    """Receipt of one committed online enrollment.

    ``new_classes`` lists labels the library had never seen (first-seen
    order); ``old_version`` / ``new_version`` identify the reference
    artifact before and after (store version ids for the sharded service,
    dataset names for the single-process one).  ``epoch`` is the serving
    epoch the merged library went live in, and the ``invalidated_*``
    counts are cache entries dropped for the republished namespaces.
    """

    views_added: int
    new_classes: tuple[str, ...]
    old_version: str
    new_version: str
    epoch: int
    invalidated_features: int
    invalidated_matrices: int
    latency_s: float


def authorize_enroll(
    service_name: str, expected: str | None, token: str | None
) -> None:
    """Gate an enrollment request on the service's configured token.

    Raises :class:`~repro.errors.EnrollmentError` when enrollment is
    disabled (no token configured) or the presented token mismatches; the
    comparison is constant-time so the token cannot be probed byte-by-byte
    through the error latency.
    """
    if expected is None:
        raise EnrollmentError(
            f"{service_name}: enrollment is disabled (no enroll token configured)"
        )
    if token is None or not hmac.compare_digest(
        expected.encode("utf-8"), token.encode("utf-8")
    ):
        raise EnrollmentError(f"{service_name}: enrollment token rejected")


class _PendingRequest:
    """One admitted request: the query, its future, and its time budget.

    ``priority`` is the admission-control rank (default 0): when the queue
    is full, a strictly higher-priority arrival sheds the lowest-priority
    queued request instead of being rejected.
    """

    __slots__ = ("query", "future", "enqueued_at", "deadline", "index", "priority")

    def __init__(
        self,
        query: LabelledImage,
        enqueued_at: float,
        deadline: float | None,
        index: int,
        priority: int = 0,
    ) -> None:
        self.query = query
        self.future: Future = Future()
        self.enqueued_at = enqueued_at
        self.deadline = deadline
        self.index = index
        self.priority = priority


class RecognitionService:
    """Micro-batched online recognition over one warm pipeline.

    *pipeline* must be fitted before :meth:`start` (use
    :meth:`warm_start` or :meth:`PipelineRegistry.warm_start` to get both
    fitting and cache priming done up front).  *fallback*, when given, is a
    fitted pipeline consulted for requests the primary could not serve in
    time or at all; its answers are flagged ``degraded``.  *retry_policy*
    bounds per-request isolation retries after a failed batch (defaults to
    ``settings.max_attempts`` with no backoff).
    """

    def __init__(
        self,
        pipeline: RecognitionPipeline,
        settings: ServingSettings | None = None,
        fallback: RecognitionPipeline | None = None,
        retry_policy: RetryPolicy | None = None,
        enroll_token: str | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.pipeline = pipeline
        self.settings = settings or ServingSettings()
        self.fallback = fallback
        self.retry_policy = retry_policy or RetryPolicy(
            max_attempts=self.settings.max_attempts
        )
        self.name = f"serving({getattr(pipeline, 'name', 'pipeline')})"
        self.stats = ServiceStats()
        self._clock = clock
        self._ready = False
        self._admitted = 0
        self._enroll_token = enroll_token
        self._enrollments = 0
        # Serializes enrollments: each one quiesces and refits the pipeline.
        self._enroll_lock = threading.Lock()
        # Guards the admission counter: submit() runs on arbitrary client
        # threads, and a bare `self._admitted += 1` would hand two concurrent
        # requests the same index (found by reprolint LCK302).
        self._admit_lock = threading.Lock()
        self._batcher = self._new_batcher()

    def _new_batcher(self) -> MicroBatcher:
        return MicroBatcher(
            self._flush,
            max_batch_size=self.settings.max_batch_size,
            max_wait_ms=self.settings.max_wait_ms,
            max_queue_depth=self.settings.max_queue_depth,
            on_discard=self._discard,
            on_shed=self._shed,
            clock=self._clock,
        )

    @classmethod
    def warm_start(
        cls,
        name: str,
        references: ImageDataset,
        registry: "PipelineRegistry | None" = None,
        config: ExperimentConfig | None = None,
        fallback: str | None = None,
        settings: ServingSettings | None = None,
        retry_policy: RetryPolicy | None = None,
    ) -> "RecognitionService":
        """A started service over the registry pipeline *name*.

        The pipeline (and the optional *fallback*, another registry name) is
        fitted, cache-primed and probed before the service reports ready, so
        the first real request pays no cold-start cost.
        """
        from repro.serving.registry import default_registry

        registry = registry or default_registry()
        pipeline = registry.warm_start(name, references, config)
        fallback_pipeline = (
            registry.warm_start(fallback, references, config)
            if fallback is not None
            else None
        )
        return cls(
            pipeline,
            settings=settings,
            fallback=fallback_pipeline,
            retry_policy=retry_policy,
        ).start()

    @property
    def ready(self) -> bool:
        """Whether the service is warm and accepting requests."""
        return self._ready and self._batcher.running

    @property
    def queue_depth(self) -> int:
        """Requests currently waiting for a flush."""
        return self._batcher.depth

    def start(self) -> "RecognitionService":
        """Verify warm state and start the flush thread; returns self."""
        self.pipeline.references  # raises PipelineError when never fitted
        if self.fallback is not None:
            self.fallback.references
        self._batcher.start()
        self._ready = True
        return self

    def stop(self, drain: bool = True) -> None:
        """Stop accepting requests; with *drain* (default) serve the queue
        first, otherwise fail queued requests with ServiceNotReady."""
        self._ready = False
        self._batcher.stop(drain=drain)

    def __enter__(self) -> "RecognitionService":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def submit(
        self,
        query: LabelledImage,
        deadline_ms: float | None = None,
        priority: int = 0,
    ) -> Future:
        """Admit one query; returns a future resolving to its Prediction.

        Raises :class:`~repro.errors.ServiceOverloaded` when the admission
        queue is full (and nothing queued ranks strictly below *priority* —
        otherwise the cheapest queued request is shed to make room) and
        :class:`~repro.errors.ServiceNotReady` before :meth:`start` / after
        :meth:`stop`.  *deadline_ms* overrides the settings default; an
        expired request is served by the fallback (degraded) or fails with
        :class:`~repro.errors.DeadlineExceeded`.
        """
        if not self._ready:
            raise ServiceNotReady(f"{self.name}: service is not running")
        if deadline_ms is None:
            deadline_ms = self.settings.deadline_ms
        if deadline_ms is not None and deadline_ms <= 0:
            raise ServingError(f"deadline_ms must be > 0, got {deadline_ms}")
        now = self._clock()
        with self._admit_lock:
            index = self._admitted
            self._admitted += 1
        request = _PendingRequest(
            query=query,
            enqueued_at=now,
            deadline=now + deadline_ms / 1000.0 if deadline_ms is not None else None,
            index=index,
            priority=priority,
        )
        try:
            depth = self._batcher.submit(request, priority=priority)
        except ServingError:
            self.stats.record_rejected()
            raise
        self.stats.record_submitted(depth)
        return request.future

    def recognize(
        self, query: LabelledImage, deadline_ms: float | None = None
    ) -> Prediction:
        """Blocking submit-and-wait — the single-caller convenience path."""
        return self.submit(query, deadline_ms=deadline_ms).result()

    # The pipeline-protocol alias: robot patrols (and anything else written
    # against RecognitionPipeline.predict) can submit through the service
    # without changing a line.
    predict = recognize

    def report(self) -> ServingReport:
        """Current service-level statistics snapshot."""
        return self.stats.snapshot(queue_depth=self._batcher.depth)

    # -- online enrollment ----------------------------------------------------

    def enroll(
        self, additions: Sequence[LabelledImage], token: str | None = None
    ) -> EnrollReport:
        """Teach the live service new reference views (or whole classes).

        Authenticated by the constructor's *enroll_token* (enrollment is
        rejected with :class:`~repro.errors.EnrollmentError` when no token
        is configured or *token* mismatches).  The single-process service
        has no artifact epochs, so the merge is a quiesce-and-refit: the
        admission queue drains against the old library — every in-flight
        request keeps its old-library champion — then the pipeline (and
        fallback) refit on the merged dataset and admission reopens.
        """
        authorize_enroll(self.name, self._enroll_token, token)
        from repro.openset.enroll import merge_enrollment

        additions = list(additions)
        with self._enroll_lock:
            started = self._clock()
            references = self.pipeline.references
            known = set(references.labels)
            merged = merge_enrollment(references, additions)
            new_classes = tuple(
                dict.fromkeys(
                    item.label for item in additions if item.label not in known
                )
            )
            self.stop(drain=True)
            self.pipeline.fit(merged)
            if self.fallback is not None:
                self.fallback.fit(merged)
            self._batcher = self._new_batcher()
            self.start()
            self._enrollments += 1
            return EnrollReport(
                views_added=len(additions),
                new_classes=new_classes,
                old_version=references.name,
                new_version=merged.name,
                epoch=self._enrollments,
                invalidated_features=0,
                invalidated_matrices=0,
                latency_s=self._clock() - started,
            )

    # -- flush path (micro-batcher thread) -----------------------------------

    def _flush(self, requests: list[_PendingRequest]) -> None:
        self.stats.record_batch(len(requests))
        now = self._clock()
        live: list[_PendingRequest] = []
        for request in requests:
            if request.deadline is not None and now > request.deadline:
                self._serve_degraded(
                    request,
                    DeadlineExceeded(
                        f"{self.name}: request deadline elapsed before its "
                        f"batch ran (queued {now - request.enqueued_at:.3f}s)"
                    ),
                    expired=True,
                )
            else:
                live.append(request)
        if not live:
            return
        try:
            predictions = self.pipeline.predict_batch(
                [request.query for request in live]
            )
        except Exception:
            # Some query broke the block: isolate request-by-request so one
            # bad input degrades one answer, not the whole batch.
            for request in live:
                self._serve_isolated(request)
        else:
            # Happy path: wake every waiter first, then record the whole
            # batch's latencies under one stats lock acquisition.
            done = self._clock()
            for request, prediction in zip(live, predictions):
                try:
                    request.future.set_result(prediction)
                except Exception:  # reprolint: disable=RES402 -- the caller cancelled or abandoned the future
                    pass
            self.stats.record_completed_many(
                [done - request.enqueued_at for request in live]
            )

    def _serve_isolated(self, request: _PendingRequest) -> None:
        """One request under the retry policy, then the fallback chain."""
        try:
            prediction = self.retry_policy.call(
                lambda: self.pipeline.predict(request.query), request.index
            )
        except Exception as exc:
            self._serve_degraded(request, exc)
            return
        self._resolve(request, prediction)

    def _serve_degraded(
        self, request: _PendingRequest, cause: BaseException, expired: bool = False
    ) -> None:
        """Serve from the fallback (flagged degraded) or fail with *cause*."""
        if self.fallback is None:
            self._fail(request, cause, expired=expired)
            return
        try:
            prediction = self.fallback.predict(request.query)
        except Exception as fallback_exc:
            self._fail(request, fallback_exc, expired=expired)
            return
        self._resolve(request, replace(prediction, degraded=True), expired=expired)

    def _resolve(
        self, request: _PendingRequest, prediction: Prediction, expired: bool = False
    ) -> None:
        self.stats.record_completed(
            self._clock() - request.enqueued_at,
            degraded=getattr(prediction, "degraded", False),
            expired=expired,
        )
        try:
            request.future.set_result(prediction)
        except Exception:  # reprolint: disable=RES402 -- the caller cancelled or abandoned the future
            pass

    def _fail(
        self, request: _PendingRequest, exc: BaseException, expired: bool = False
    ) -> None:
        self.stats.record_failed(expired=expired)
        try:
            request.future.set_exception(exc)
        except Exception:  # reprolint: disable=RES402 -- the caller cancelled or abandoned the future
            pass

    def _discard(self, request: _PendingRequest) -> None:
        """A non-draining stop dropped this queued request."""
        self._fail(
            request, ServiceNotReady(f"{self.name}: service stopped before flush")
        )

    def _shed(self, request: _PendingRequest) -> None:
        """A higher-priority arrival evicted this queued request."""
        self.stats.record_shed()
        self._fail(
            request,
            ServiceOverloaded(
                f"{self.name}: request shed from a full admission queue by "
                f"higher-priority traffic (priority {request.priority})"
            ),
        )
