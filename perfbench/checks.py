"""Correctness checks that fail a run: the oracle and the workload design.

The oracle is an in-process ``predict_batch`` over the same inputs on a
pipeline built from scratch, with the feature caches emptied first, so
every query is extracted again.  Every non-degraded served prediction must
equal it bit for bit (label, model id and score).  For ``sharded-enroll``
the library changes mid-run: a request is checked against every library
epoch that could have been live while it was in flight.
"""

from __future__ import annotations

from typing import Any, Sequence

from repro.store import ReferenceStore
from repro.openset.enroll import merge_enrollment
from repro.serving.registry import default_registry

from workloads import ORACLE_BLOCK, PIPELINE, EnrollEvent, Inputs, Record, Served, reset_caches


def _predict(pipeline: Any, queries: Sequence[Any]) -> list[Any]:
    out: list[Any] = []
    for start in range(0, len(queries), ORACLE_BLOCK):
        out.extend(pipeline.predict_batch(queries[start : start + ORACLE_BLOCK]))
    return out


def _same(got: Any, want: Any) -> bool:
    return (got.label, got.model_id, got.score) == (want.label, want.model_id, want.score)


def oracle_mismatches(
    workload: str, inputs: Inputs, served: Served, records: Sequence[Record], events: Sequence[EnrollEvent]
) -> int:
    """Served non-degraded predictions that differ from the oracle."""
    reset_caches()
    registry = default_registry()
    config = inputs.config
    pipelines: list[Any] = []
    if workload == "warm-library":
        pipeline = registry.build(PIPELINE, config)
        pipeline.attach_store(ReferenceStore.attach(served.store_dir, version=served.store_version))
        pipelines.append(pipeline)
    else:
        library = served.references
        pipelines.append(registry.build(PIPELINE, config).fit(library))
        for event in events:
            if event.report is None:
                continue
            library = merge_enrollment(library, event.views)
            pipelines.append(registry.build(PIPELINE, config).fit(library))
    committed = [event for event in events if event.report is not None]

    def epochs(record: Record) -> list[int]:
        # Epoch e went live during enrollment e-1 and was replaced during
        # enrollment e; the request's flush ran between submit and done.
        return [
            epoch
            for epoch in range(len(pipelines))
            if (epoch == 0 or record.done >= committed[epoch - 1].started)
            and (epoch == len(committed) or record.submitted <= committed[epoch].done)
        ]

    checked = [record for record in records if record.ok]
    wanted: dict[int, list[Record]] = {}
    for record in checked:
        for epoch in epochs(record):
            wanted.setdefault(epoch, []).append(record)
    matched: set[int] = set()
    for epoch, group in sorted(wanted.items()):
        # A query served more than once (warm-library's working set, which
        # is also its evaluation set) is predicted once.
        unique = {(id(record.pool), record.position): record for record in group}
        keys = list(unique)
        queries = [unique[key].pool.query(key[1]) for key in keys]
        answers = dict(zip(keys, _predict(pipelines[epoch], queries)))
        for record in group:
            if _same(record.prediction, answers[(id(record.pool), record.position)]):
                matched.add(id(record))
    return sum(1 for record in checked if id(record) not in matched)
