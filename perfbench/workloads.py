"""The benchmark's three workloads: inputs, set-up, warm-up, load, checks.

Each workload runs in its own process (one ``run.py`` invocation) and
drives the program only through its public serving and store APIs.  Why
each workload exists, and which layer metric it is meant to move, is in
README.md next to this file.

* ``cold-paper``   hybrid over SNS1's 82 views, in-process service, every
  measured query a distinct never-seen NYU crop (feature cache always
  misses).
* ``warm-library`` hybrid over a 2,500-view library published as a store
  and attached, in-process service, queries cycle a small working set of
  NYU crops (feature cache always hits after warm-up).
* ``sharded-enroll`` the SNS1 store served by two shard worker processes,
  cold NYU queries, with authenticated live enrollments at fixed request
  indices.

All three are closed loops: one client thread on the in-process workloads,
two on ``sharded-enroll`` (see README.md).
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import gc
import os
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

import numpy as np

from repro.config import ExperimentConfig, ServingSettings, rng as make_rng
from repro.datasets.dataset import ImageDataset, LabelledImage
from repro.datasets.nyu import build_nyu
from repro.datasets.shapenet import build_reference_library, build_sns1
from repro.engine.cache import default_cache, default_matrix_cache
from repro.openset.enroll import enrollment_views
from repro.pipelines.hybrid import HybridPipeline
from repro.serving.registry import default_registry
from repro.serving.service import RecognitionService
from repro.serving.shards import ShardedRecognitionService
from repro.store import ReferenceStore, build_store

#: Shard worker processes: one per core of the 2-core target host.
WORKERS = 2
PIPELINE = "hybrid"
ENROLL_TOKEN = "perfbench-enroll"
#: Views per enrolled class.
ENROLL_VIEWS = 2
#: Query block size of the in-process oracle (the kernels chunk at 32 rows).
ORACLE_BLOCK = 32


@dataclass(frozen=True)
class Sizes:
    """Input sizes and repetition counts of one workload configuration."""

    #: Closed-loop client threads.
    clients: int
    #: Timed fresh set-ups per run; ``setup_s`` is their median.
    setups: int
    #: NYU crops generated for measurement and for warm-up, as shares of
    #: the 6,934-crop NYUSet (``warm-library`` draws its working set from
    #: the warm-up share).  The measured pool serves each crop in its eight
    #: orientations, so it holds eight times its crops as distinct queries.
    measure_scale: float = 0.0
    warmup_scale: float = 0.0
    #: Crops of the fixed evaluation set (``accuracy``) on the cold
    #: workloads, drawn at the warm-up share; ``warm-library`` evaluates on
    #: its working set.
    evaluation: int = 0
    #: warm-library: library size and working-set size.
    models_per_class: int = 0
    views_per_model: int = 0
    working_set: int = 0
    #: sharded-enroll: request indices at which a client enrolls a class.
    enroll_at: tuple[int, ...] = ()
    #: Floor of warm-up requests; sharded warm-up continues past it until
    #: every worker has attached every shard.
    warmup_min: int = 0


SIZES: dict[str, dict[bool, Sizes]] = {
    "cold-paper": {
        False: Sizes(
            clients=1, setups=15, measure_scale=0.25, warmup_scale=0.075, evaluation=512, warmup_min=400
        ),
        True: Sizes(
            clients=1, setups=2, measure_scale=0.01, warmup_scale=0.005, evaluation=12, warmup_min=10
        ),
    },
    "warm-library": {
        False: Sizes(
            clients=1,
            setups=3,
            models_per_class=25,
            views_per_model=10,
            working_set=512,
            warmup_scale=0.075,
        ),
        True: Sizes(
            clients=1,
            setups=2,
            models_per_class=2,
            views_per_model=3,
            working_set=12,
            warmup_scale=0.005,
        ),
    },
    "sharded-enroll": {
        False: Sizes(
            clients=2,
            setups=15,
            measure_scale=0.25,
            warmup_scale=0.075,
            evaluation=512,
            enroll_at=(100, 250, 400, 550),
            warmup_min=400,
        ),
        True: Sizes(
            clients=2,
            setups=2,
            measure_scale=0.01,
            warmup_scale=0.005,
            evaluation=12,
            enroll_at=(4, 12),
            warmup_min=10,
        ),
    },
}


# -- inputs ------------------------------------------------------------------


#: Orientations of a square crop: four rotations, each also transposed.
ORIENTATIONS = 8


def oriented(image: np.ndarray, orientation: int) -> np.ndarray:
    """*image* in the *orientation*-th of its eight orientations (0: as is)."""
    if orientation & 4:
        image = image.transpose(1, 0, 2)
    return np.rot90(image, orientation & 3)


@dataclass(frozen=True)
class QueryPool:
    """NYU crops kept as 8-bit pixels, the form a camera delivers them in.

    :meth:`query` materializes a new float image per request, like a new
    camera frame: the program hashes and caches by content, so a fresh
    array per request is what it sees in service (and the pool stays an
    eighth of the float size in memory).  With ``orientations`` > 1, query
    positions run through every crop once per orientation, so the pool
    serves that many distinct images per crop at a fixed memory size.
    """

    pixels: np.ndarray
    labels: tuple[str, ...]
    model_ids: tuple[str, ...]
    orientations: int = 1

    def __len__(self) -> int:
        return len(self.labels) * self.orientations

    def query(self, position: int) -> LabelledImage:
        orientation, crop = divmod(position, len(self.labels))
        if orientation >= self.orientations:
            raise IndexError(f"query position {position} beyond a pool of {len(self)}")
        return LabelledImage(
            image=oriented(self.pixels[crop], orientation) / 255.0,
            label=self.labels[crop],
            source="nyu",
            model_id=self.model_ids[crop],
            view_id=position,
        )

    def head(self, count: int) -> "QueryPool":
        return QueryPool(self.pixels[:count], self.labels[:count], self.model_ids[:count])

    def permuted(self, order: Sequence[int]) -> "QueryPool":
        return QueryPool(
            self.pixels[np.asarray(order)],
            tuple(self.labels[i] for i in order),
            tuple(self.model_ids[i] for i in order),
        )


def nyu_queries(seed: int, scale: float) -> QueryPool:
    """NYU crops of the seeded NYUSet at *scale*, in a seeded shuffled order
    (the set is generated class by class; a time-bounded prefix must not be)."""
    crops = list(build_nyu(ExperimentConfig(seed=seed, nyu_scale=scale)))
    order = [int(i) for i in make_rng(seed).permutation(len(crops))]
    return QueryPool(
        pixels=np.stack([np.round(crops[i].image * 255.0).astype(np.uint8) for i in order]),
        labels=tuple(crops[i].label for i in order),
        model_ids=tuple(crops[i].model_id for i in order),
    )


def never_seen_queries(seed: int, scale: float) -> QueryPool:
    """The measured pool of the cold workloads: NYU crops in all eight
    orientations, each a distinct image.

    Its size is fixed by *scale*, never by how fast the program runs, so
    the process's memory and the set-ups that fork it do not depend on the
    program's speed.  A crop that looks the same in two orientations would
    repeat an image, so symmetric crops are left out.
    """
    pool = nyu_queries(seed, scale)
    keep = [
        index
        for index, pixels in enumerate(pool.pixels)
        if len({oriented(pixels, k).tobytes() for k in range(ORIENTATIONS)}) == ORIENTATIONS
    ]
    return dataclasses.replace(pool.permuted(keep), orientations=ORIENTATIONS)


def pin_to_fastest_cpu() -> int | None:
    """Confine this process to the allowed CPU that runs Python fastest.

    The in-process service does its work on one thread, and on a shared
    virtual machine one vCPU can run at half the speed of the other for
    minutes at a time; left to the scheduler, a run's figures depended on
    which one that thread landed on.  The same holds for the sharded front
    end, which builds the store in set-up and scatters and merges in
    service.  Child processes forked later (shard workers) get every
    allowed CPU back.  Call before starting any thread (new threads inherit
    the affinity).  Returns the CPU chosen, or ``None`` with a single
    allowed CPU.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    os.register_at_fork(after_in_child=lambda: os.sched_setaffinity(0, cpus))

    def spin() -> float:
        started = time.perf_counter()
        total = 0
        for value in range(100_000):
            total += value * value
        return time.perf_counter() - started

    speeds = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        speeds[cpu] = min(spin() for _ in range(5))
    fastest = min(speeds, key=speeds.__getitem__)
    os.sched_setaffinity(0, {fastest})
    return fastest


def release_freed_memory() -> None:
    """Hand heap memory freed by input generation back to the system.

    Generation builds every crop as a float image before it is packed to
    8 bits; glibc keeps the freed heap, which would otherwise count in the
    serving process's resident memory.  No-op where glibc is absent.
    """
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


def fresh_copy(dataset: ImageDataset) -> ImageDataset:
    """The same views in new arrays, so no per-array digest memo is warm."""
    return ImageDataset(
        name=dataset.name,
        items=tuple(dataclasses.replace(item, image=item.image.copy()) for item in dataset),
    )


def reset_caches() -> None:
    default_cache().clear()
    default_matrix_cache().clear()


@dataclass
class Inputs:
    config: ExperimentConfig
    references: ImageDataset
    #: Queries the measured phases draw from, by request index.
    measure: QueryPool
    #: Disjoint queries for warm-up (cold workloads).
    warmup: QueryPool
    #: The fixed queries ``accuracy`` is taken on, the same in every run.
    evaluation: QueryPool
    #: sharded-enroll: per event, the views to enroll; a traced run has two
    #: measured phases, each with its own classes.
    enrollments: list[list[LabelledImage]] = field(default_factory=list)


def make_inputs(workload: str, seed: int, sizes: Sizes) -> Inputs:
    """Every input of a run, generated from *seed* and fixed data.

    Reference libraries are the paper's: SNS1 and the synthetic library at
    the default experiment seed, the same in every run, so the seed varies
    the traffic rather than what is recognized (a different library per
    seed moved accuracy by a quarter between seeds).  ``warm-library``'s
    working set is fixed too; its seed only orders the cycle.  So is the
    evaluation set: ``warm-library``'s working set, and on the cold
    workloads the first crops of the NYUSet at the default seed.
    """
    config = ExperimentConfig()
    # Warm-up crops come from a different NYUSet seed: disjoint pixels from
    # every measured crop.
    warm_seed = seed + 100_003
    if workload == "warm-library":
        references = build_reference_library(
            config,
            models_per_class=sizes.models_per_class,
            views_per_model=sizes.views_per_model,
            name="perfbench-library",
        )
        pool = nyu_queries(config.seed, sizes.warmup_scale)
        if len(pool) < sizes.working_set:
            raise RuntimeError(f"{len(pool)} crops cannot fill a {sizes.working_set}-query working set")
        fixed = pool.head(sizes.working_set)
        working = fixed.permuted([int(i) for i in make_rng(seed).permutation(len(fixed))])
        return Inputs(config, references, measure=working, warmup=working, evaluation=fixed)
    references = build_sns1(config)
    inputs = Inputs(
        config,
        references,
        measure=never_seen_queries(seed, sizes.measure_scale),
        warmup=nyu_queries(warm_seed, sizes.warmup_scale),
        evaluation=nyu_queries(config.seed, sizes.warmup_scale).head(sizes.evaluation),
    )
    if workload == "sharded-enroll":
        # Enrolled classes are fixed like the library: novel classes can
        # capture NYU queries of their base class, so seeded ones would make
        # accuracy depend on which classes a seed happened to enroll.
        classes = sorted(set(references.labels))
        for event in range(2 * len(sizes.enroll_at)):
            inputs.enrollments.append(
                enrollment_views(
                    f"novel{event}",
                    classes[event % len(classes)],
                    config,
                    views=ENROLL_VIEWS,
                )
            )
    return inputs


# -- serving set-up ----------------------------------------------------------


@dataclass
class Served:
    """A started service plus what the oracle needs to reproduce it."""

    service: Any
    references: ImageDataset
    store_dir: Path | None = None
    store_version: str | None = None

    def stop(self) -> None:
        self.service.stop()


def setup_service(workload: str, inputs: Inputs, store_dir: Path) -> Served:
    """One set-up from empty caches and an empty store directory.

    Everything here is what ``setup_s`` times: fit or extract, publish,
    attach and (sharded) pool start with its warm task per shard.
    """
    config = inputs.config
    references = inputs.references
    if workload == "cold-paper":
        service = RecognitionService.warm_start(PIPELINE, references, config=config)
        return Served(service, references)
    built = build_store(references, store_dir, bins=config.histogram_bins, families=("shape", "color"))
    if workload == "warm-library":
        store = ReferenceStore.attach(store_dir, version=built.store_version)
        pipeline = default_registry().build(PIPELINE, config)
        pipeline.attach_store(store)
        service = RecognitionService(pipeline, settings=ServingSettings()).start()
        return Served(service, references, store_dir, built.store_version)
    service = ShardedRecognitionService(
        PIPELINE,
        str(store_dir),
        workers=WORKERS,
        config=config,
        store_version=built.store_version,
        references=references,
        enroll_token=ENROLL_TOKEN,
    ).start()
    return Served(service, references, store_dir, built.store_version)


def timed_setup(workload: str, inputs: Inputs, store_dir: Path) -> tuple[Served, float]:
    """One timed set-up from fresh image arrays, emptied caches and the new
    empty *store_dir*, with garbage collected before the clock starts."""
    inputs.references = fresh_copy(inputs.references)
    reset_caches()
    gc.collect()
    started = time.perf_counter()
    served = setup_service(workload, inputs, store_dir)
    return served, time.perf_counter() - started


def first_call_warmup(workload: str, inputs: Inputs, run_dir: Path) -> None:
    """One untimed set-up on a two-class subset, so lazy imports and first
    calls of every set-up step happen before any clock starts."""
    labels = list(dict.fromkeys(inputs.references.labels))[:2]
    subset = ImageDataset(
        name="perfbench-first-call",
        items=tuple(item for item in inputs.references if item.label in labels),
    )
    small = dataclasses.replace(inputs, references=subset)
    served = setup_service(workload, small, run_dir / "first-call")
    try:
        served.service.recognize(inputs.warmup.query(0))
    finally:
        served.stop()


# -- shard warm-up bookkeeping -------------------------------------------------


class AttachLog:
    """Which worker process has attached which shard row range.

    Shard workers attach lazily, and any worker may take any shard's task,
    so one warm task per shard does not warm every worker.  The log wraps
    ``HybridPipeline.attach_store``; worker processes forked from this one
    inherit the wrapper and append ``pid version start stop`` lines.  If
    workers are ever started without inheriting it, nothing is logged and
    :meth:`complete` reports ``None`` (unknown) instead of blocking.
    """

    def __init__(self, path: Path) -> None:
        self.path = path
        self.owner = os.getpid()
        original = HybridPipeline.__dict__["attach_store"]
        log = self

        @functools.wraps(original)
        def attach_store(pipeline: Any, store: Any, rows: tuple[int, int] | None = None) -> Any:
            result = original(pipeline, store, rows)
            if os.getpid() != log.owner and rows is not None:
                with open(log.path, "a", encoding="ascii") as handle:
                    handle.write(f"{os.getpid()} {store.store_version} {rows[0]} {rows[1]}\n")
            return result

        self._original = original
        HybridPipeline.attach_store = attach_store  # type: ignore[method-assign]

    def close(self) -> None:
        HybridPipeline.attach_store = self._original  # type: ignore[method-assign]

    def complete(self, service: ShardedRecognitionService) -> bool | None:
        """Whether every live worker has attached every shard of the
        service's current store version (``None``: nothing was logged)."""
        if not self.path.exists():
            return None
        seen: set[tuple[int, int, int]] = set()
        for line in self.path.read_text(encoding="ascii").splitlines():
            pid, version, start, stop = line.split()
            if version == service.store_version:
                seen.add((int(pid), int(start), int(stop)))
        workers = child_pids()
        if len(workers) < service.workers:
            return False
        return all(
            (pid, shard.start, shard.stop) in seen for pid in workers for shard in service.shards
        )


def child_pids() -> list[int]:
    """Live child processes of this process, read from /proc."""
    pids: list[int] = []
    for task in Path(f"/proc/{os.getpid()}/task").iterdir():
        try:
            pids.extend(int(pid) for pid in (task / "children").read_text().split())
        except OSError:
            continue
    return sorted(set(pids))


def resident_mb(front_end: int, workers: Sequence[int]) -> float:
    """Resident memory in MB of the serving process plus its workers.

    The front end counts with its whole resident set; each shard worker,
    forked from it and sharing most of its pages, with only the pages
    private to it (``Private_Clean`` + ``Private_Dirty``), so a shared page
    counts once.  The proportional set size (Pss) would count shared pages
    once too, but it also splits the pages of shared libraries with every
    other process on the host that maps them: a second Python process
    running beside a run lowered it by a tenth.  Reading ``smaps_rollup``
    walks each process's page tables (milliseconds, and it stalls the
    process's own memory-map changes), so it is only read outside the
    measured window.
    """
    total_kb = 0
    for pid, fields in [(front_end, ("Rss:",)), *((pid, ("Private_Clean:", "Private_Dirty:")) for pid in workers)]:
        try:
            for line in Path(f"/proc/{pid}/smaps_rollup").read_text().splitlines():
                if line.startswith(fields):
                    total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


# -- closed-loop load ----------------------------------------------------------


@dataclass
class Record:
    """One measured request: its pool and position, timing and answer."""

    index: int
    pool: QueryPool
    position: int
    label: str
    submitted: float
    done: float
    prediction: Any = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.prediction is not None and not self.prediction.degraded


@dataclass
class EnrollEvent:
    index: int
    started: float
    done: float
    views: list[LabelledImage]
    report: Any = None
    error: str | None = None
    probe_ok: bool = False


@dataclass
class Phase:
    """The result of one closed-loop phase."""

    records: list[Record]
    events: list[EnrollEvent]
    wall_s: float
    started: float
    exhausted: bool


def closed_loop(
    service: Any,
    query_at: Callable[[int], int | None],
    pool: QueryPool,
    clients: int,
    seconds: float | None = None,
    count: int | None = None,
    enroll: dict[int, list[LabelledImage]] | None = None,
) -> Phase:
    """Drive *service* with *clients* closed-loop client threads.

    Request index *i* queries ``pool.query(query_at(i))``; a ``None``
    position means the pool ran out.  Indices are handed out in order; a
    client takes the next one only after its previous request completed.  The phase ends after
    *seconds* (no new request starts later) or after *count* indices.  An
    index listed in *enroll* is an enrollment of those views instead of a
    query, made by the client that drew it while the others keep querying;
    the same client then checks that the new class is recognized.
    """
    enroll = enroll or {}
    lock = threading.Lock()
    cursor = [0]
    records: list[Record] = []
    events: list[EnrollEvent] = []
    exhausted = threading.Event()
    started = time.monotonic()
    stop_at = started + seconds if seconds is not None else None

    def next_index() -> int | None:
        with lock:
            if stop_at is not None and time.monotonic() >= stop_at:
                return None
            if count is not None and cursor[0] >= count:
                return None
            index = cursor[0]
            cursor[0] += 1
            return index

    def client() -> None:
        while not exhausted.is_set():
            index = next_index()
            if index is None:
                return
            if index in enroll:
                events.append(enroll_once(service, index, enroll[index]))
                continue
            position = query_at(index)
            if position is None:
                exhausted.set()
                return
            query = pool.query(position)
            submitted = time.monotonic()
            try:
                prediction = service.recognize(query)
                error = None
            except Exception as exc:  # counted as a failed request
                prediction, error = None, f"{type(exc).__name__}: {exc}"
            done = time.monotonic()
            records.append(Record(index, pool, position, query.label, submitted, done, prediction, error))

    threads = [threading.Thread(target=client, name=f"perfbench-client-{i}") for i in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    ends = [record.done for record in records] + [event.done for event in events]
    wall = (max(ends) if ends else time.monotonic()) - started
    records.sort(key=lambda record: record.index)
    events.sort(key=lambda event: event.index)
    return Phase(records, events, wall, started, exhausted.is_set())


def enroll_once(service: Any, index: int, views: list[LabelledImage]) -> EnrollEvent:
    started = time.monotonic()
    try:
        report = service.enroll(views, token=ENROLL_TOKEN)
    except Exception as exc:
        return EnrollEvent(index, started, time.monotonic(), views, error=f"{type(exc).__name__}: {exc}")
    done = time.monotonic()
    try:
        probe = service.recognize(views[0])
    except Exception as exc:
        return EnrollEvent(index, started, done, views, report=report, error=f"probe: {type(exc).__name__}: {exc}")
    return EnrollEvent(
        index, started, done, views, report=report, probe_ok=probe.label == views[0].label and not probe.degraded
    )


def warm_up(
    workload: str, served: Served, inputs: Inputs, sizes: Sizes, attach_log: AttachLog | None
) -> str | None:
    """The untimed warm-up; returns a design failure or ``None``.

    ``warm-library`` serves its whole working set twice: the first pass
    fills the feature cache, the second runs the all-hit path the measured
    phase will.  The cold workloads serve disjoint warm-up crops;
    ``sharded-enroll`` keeps going until every worker process has attached
    every shard.
    """
    service = served.service
    if workload == "warm-library":
        for _ in range(2):
            closed_loop(service, lambda i: i, inputs.measure, sizes.clients, count=len(inputs.measure))
        return None
    pool = inputs.warmup
    cursor = 0

    def take(count: int) -> None:
        nonlocal cursor
        base = cursor
        closed_loop(service, lambda i: (base + i) % len(pool), pool, sizes.clients, count=count)
        cursor += count

    take(sizes.warmup_min)
    if workload != "sharded-enroll" or attach_log is None:
        return None
    for _ in range(100):
        state = attach_log.complete(service)
        if state is None or state:
            return None
        take(sizes.clients * 4)
    return "warm-up: a shard worker never attached every shard"


def evaluate(served: Served, inputs: Inputs, sizes: Sizes) -> Phase:
    """Serve the fixed evaluation set once, untimed, for ``accuracy``."""
    pool = inputs.evaluation
    return closed_loop(served.service, lambda i: i, pool, sizes.clients, count=len(pool))


def percentiles_ms(values: Sequence[float]) -> tuple[float, float]:
    """(p50, p95) in milliseconds of latencies given in seconds."""
    p50, p95 = np.percentile(np.asarray(values, dtype=np.float64), [50, 95])
    return float(p50) * 1000.0, float(p95) * 1000.0


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def fresh_run_dir(root: Path) -> Path:
    run_dir = root / ".perfbench" / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    return run_dir
