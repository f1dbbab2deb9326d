"""Fault-tolerance policy objects for the execution engine.

A production sweep over thousands of segmented crops meets bad inputs —
empty masks, degenerate contours, truncated cache entries — and one raised
``ContourError`` used to abort the whole ``predict_all`` fan-out, discarding
every completed chunk.  This module defines the vocabulary the engine uses
to survive instead:

* :class:`FailureRecord` — the structured per-query failure outcome (query
  id, stage, exception class, message, attempt count) returned *alongside*
  successful predictions rather than raised through the caller;
* :class:`RetryPolicy` — bounded retries with exponential backoff and
  deterministic seeded jitter, plus the per-chunk wall-clock budget;
* :class:`ExecutionReport` — the aligned results-plus-failures summary of
  one fault-tolerant sweep.

The executor (:mod:`repro.engine.executor`) applies these; the evaluation
runner and CLI surface them (accuracy over survivors, failure counters in
``RunStats``, a failure-summary table).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterator, TypeVar

from repro.errors import EngineError, ReproError

T = TypeVar("T")

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.pipelines.base import Prediction


def describe_query(item: Any, index: int) -> str:
    """A stable human-readable id for a query: dataset coordinates when the
    item carries them, else its position in the sweep."""
    model_id = getattr(item, "model_id", "")
    view_id = getattr(item, "view_id", None)
    if model_id:
        return f"{model_id}/v{view_id}" if view_id is not None else model_id
    return f"query[{index}]"


@dataclass(frozen=True)
class FailureRecord:
    """One query that could not be predicted, after all permitted attempts.

    ``stage`` names where the failure surfaced: ``"predict"`` (the per-query
    isolation re-run), ``"chunk"`` (a whole-chunk timeout) or ``"worker"``
    (a crashed process-pool worker).  ``attempts`` counts prediction
    attempts actually made for this query (1 when no retry was permitted;
    0 when the query never ran, e.g. its chunk timed out).
    """

    query_index: int
    query_id: str
    stage: str
    error_type: str
    message: str
    attempts: int = 1
    pipeline: str = ""


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry policy with deterministic seeded jitter.

    ``max_attempts`` is the total number of prediction attempts per query
    (1 = no retry).  Between attempts the executor sleeps
    ``backoff * multiplier**(attempt-1)`` seconds, stretched by up to
    ``jitter`` (a fraction) of deterministic noise derived from
    ``(seed, query_index, attempt)`` — two runs with the same seed retry on
    identical schedules, so fault-injection tests reproduce bit-for-bit.
    Only exceptions matching ``retryable`` are retried at all; anything else
    fails the query on first raise (but is still isolated and recorded).
    ``chunk_timeout`` is the per-chunk wall-clock budget in seconds
    (``None`` = unbounded).
    """

    max_attempts: int = 1
    backoff: float = 0.0
    multiplier: float = 2.0
    jitter: float = 0.0
    seed: int = 0
    chunk_timeout: float | None = None
    retryable: tuple[type[BaseException], ...] = (ReproError,)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise EngineError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.backoff < 0:
            raise EngineError(f"backoff must be >= 0, got {self.backoff}")
        if self.multiplier < 1:
            raise EngineError(f"multiplier must be >= 1, got {self.multiplier}")
        if not 0.0 <= self.jitter <= 1.0:
            raise EngineError(f"jitter must lie in [0, 1], got {self.jitter}")
        if self.chunk_timeout is not None and self.chunk_timeout <= 0:
            raise EngineError(
                f"chunk_timeout must be > 0 (or None), got {self.chunk_timeout}"
            )

    def should_retry(self, exc: BaseException, attempt: int) -> bool:
        """Whether *exc* on attempt number *attempt* earns another try."""
        return attempt < self.max_attempts and isinstance(exc, self.retryable)

    def delay(self, attempt: int, query_index: int = 0) -> float:
        """Backoff before attempt ``attempt + 1`` (deterministic per seed).

        The jitter term is a pure function of ``(seed, query_index,
        attempt)`` — no global RNG is consumed, so retry schedules never
        perturb any experiment's random stream.
        """
        base = self.backoff * self.multiplier ** (attempt - 1)
        # Both terms are validated non-negative, so <= is the robust form of
        # the "no backoff / no jitter" test (exact == on floats is fragile).
        if base <= 0.0 or self.jitter <= 0.0:
            return base
        digest = hashlib.blake2b(
            f"{self.seed}:{query_index}:{attempt}".encode("ascii"), digest_size=8
        ).digest()
        unit = int.from_bytes(digest, "big") / 2**64  # uniform in [0, 1)
        return base * (1.0 + self.jitter * unit)

    def call(self, fn: Callable[[], T], query_index: int = 0) -> T:
        """``fn()`` under this policy: retried after each backoff while
        :meth:`should_retry` allows; the last error propagates."""
        attempt = 0
        while True:
            attempt += 1
            try:
                return fn()
            except Exception as exc:
                if not self.should_retry(exc, attempt):
                    raise
                delay = self.delay(attempt, query_index)
                if delay > 0:
                    time.sleep(delay)


@dataclass(frozen=True)
class ExecutionReport:
    """The outcome of one fault-tolerant sweep.

    ``results`` is aligned with the input queries — ``None`` marks a failed
    slot; ``failures`` holds one :class:`FailureRecord` per failed query, in
    query order.  ``retries`` counts extra prediction attempts made beyond
    the first, over the whole sweep.  ``warnings`` carries configuration
    diagnostics (e.g. a ``chunk_size`` that degenerates to a single
    mega-chunk).
    """

    results: tuple["Prediction | None", ...]
    failures: tuple[FailureRecord, ...] = ()
    retries: int = 0
    warnings: tuple[str, ...] = ()

    @property
    def predictions(self) -> list["Prediction"]:
        """Successful predictions only, in query order."""
        return [p for p in self.results if p is not None]

    @property
    def success_indices(self) -> list[int]:
        """Query indices that produced a prediction, in order."""
        return [i for i, p in enumerate(self.results) if p is not None]

    @property
    def degraded(self) -> int:
        """Number of successes served by a fallback stage (flagged degraded)."""
        return sum(
            1 for p in self.results if p is not None and getattr(p, "degraded", False)
        )

    def __iter__(self) -> Iterator["Prediction | None"]:
        return iter(self.results)

    def summary(self) -> str:
        """One-line digest: success/failure/degraded counts."""
        total = len(self.results)
        failed = len(self.failures)
        parts = [f"{total - failed}/{total} queries succeeded"]
        if failed:
            parts.append(f"{failed} failed")
        if self.retries:
            parts.append(f"{self.retries} retries")
        if self.degraded:
            parts.append(f"{self.degraded} degraded")
        return ", ".join(parts)
