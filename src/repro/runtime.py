"""Deterministic parallel execution runtime.

Every evaluation artifact in this repository — Table I, the Fig. 4/5
sweeps, the Section V Monte-Carlo battery, the Sioux Falls matrix and
the extension studies — is an embarrassingly parallel battery of
independent seeded runs.  This module is the one place they all fan
out: a :func:`run_tasks` call dispatching :class:`Task` objects to a
pluggable executor (``serial``, ``thread``, ``process``) while
guaranteeing the **results are bit-identical for every worker count
and executor**, serial included.

The determinism contract has two halves:

* **Seeding is the caller's job.**  A task must be a pure function of
  its arguments; any randomness must come from a seed carried *in*
  those arguments (typically a :class:`numpy.random.SeedSequence`
  substream derived up front via
  :func:`repro.utils.rng.spawn_sequences`).  Nothing may be drawn from
  a shared generator between submissions — that is precisely the
  order-dependence this runtime exists to eliminate.
* **Ordering is the runtime's job.**  Results are returned in
  submission order regardless of completion order, and a failing task
  raises the error of the *lowest-indexed* failure, so error behavior
  does not depend on scheduling either.

Executor semantics
------------------
``serial``
    Run in the calling thread, no pools.  The reference executor: the
    other two must reproduce its results bit for bit.
``thread``
    A :class:`~concurrent.futures.ThreadPoolExecutor`.  Effective when
    tasks release the GIL (numpy-heavy encode/decode); zero pickling
    cost.
``process``
    A :class:`~concurrent.futures.ProcessPoolExecutor`.  True
    parallelism for Python-bound work; task functions, arguments and
    results must be picklable (module-level functions only).

Nested calls degrade to serial: a ``run_tasks`` reached *inside* a
worker (thread or process) runs its tasks inline rather than forking a
second level of pools — the guard that prevents a process bomb when an
experiment that parallelizes internally is itself dispatched as a task
(e.g. ``repro all --workers 4``).

Configuration resolves in this order: explicit arguments, then the
``REPRO_WORKERS`` / ``REPRO_EXECUTOR`` environment variables, then the
defaults (one worker, serial; ``process`` once more than one worker is
requested).

Observability (see ``docs/observability.md``): ``runtime.*`` metrics
record tasks submitted/completed/failed (labelled by executor), a
per-batch wall-clock histogram, and a last-used worker-count gauge.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent import futures
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ConfigurationError
from repro.obs import MetricsRegistry, get_registry

__all__ = [
    "EXECUTORS",
    "Task",
    "task",
    "run_tasks",
    "resolve_plan",
    "in_worker",
    "default_workers",
    "default_executor",
]

#: The executor names :func:`run_tasks` accepts.
EXECUTORS: Tuple[str, ...] = ("serial", "thread", "process")

#: Environment knobs (also honoured by ``repro --workers/--executor``).
WORKERS_ENV = "REPRO_WORKERS"
EXECUTOR_ENV = "REPRO_EXECUTOR"

#: Set in the environment of process-pool workers so children of a
#: worker (including grandchild *processes*) degrade to serial.
_WORKER_ENV_FLAG = "REPRO_RUNTIME_IN_WORKER"

#: Bucket boundaries for ``runtime.batch_seconds``: batches span quick
#: unit-test fans (ms) to full-artifact regenerations (minutes).
BATCH_BUCKETS: Tuple[float, ...] = (
    0.001,
    0.01,
    0.05,
    0.1,
    0.5,
    1.0,
    5.0,
    15.0,
    60.0,
    300.0,
)

# Thread-pool workers flag themselves via thread-locals (the
# environment is process-wide, which would wrongly mark the main
# thread too).
_WORKER_TLS = threading.local()


@dataclass(frozen=True)
class Task:
    """One unit of work: a pure function of its (picklable) arguments.

    The function must draw any randomness from a seed passed in
    ``args``/``kwargs`` — see the module docstring's determinism
    contract.  ``label`` is used for error messages and tracing only;
    it never affects execution.
    """

    fn: Callable[..., Any]
    args: Tuple[Any, ...] = ()
    kwargs: Dict[str, Any] = field(default_factory=dict)
    label: Optional[str] = None

    def run(self) -> Any:
        """Execute the task inline."""
        return self.fn(*self.args, **self.kwargs)

    def __repr__(self) -> str:  # pragma: no cover - trivial
        name = self.label or getattr(self.fn, "__name__", repr(self.fn))
        return f"Task({name})"


def task(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Task:
    """Convenience constructor: ``task(fn, a, b, k=v)``."""
    return Task(fn=fn, args=args, kwargs=kwargs)


def in_worker() -> bool:
    """True when called from inside a runtime worker (thread or
    process) — the condition under which nested :func:`run_tasks`
    calls degrade to serial."""
    return bool(
        getattr(_WORKER_TLS, "active", False)
        or os.environ.get(_WORKER_ENV_FLAG)
    )


def default_workers() -> int:
    """The worker count used when none is given: ``REPRO_WORKERS`` or 1."""
    raw = os.environ.get(WORKERS_ENV)
    if raw is None or not raw.strip():
        return 1
    try:
        workers = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{WORKERS_ENV} must be an integer, got {raw!r}"
        ) from None
    if workers < 1:
        raise ConfigurationError(f"{WORKERS_ENV} must be >= 1, got {workers}")
    return workers


def default_executor() -> Optional[str]:
    """The executor used when none is given: ``REPRO_EXECUTOR`` or None
    (meaning: serial at one worker, process beyond)."""
    raw = os.environ.get(EXECUTOR_ENV)
    if raw is None or not raw.strip():
        return None
    name = raw.strip().lower()
    if name not in EXECUTORS:
        raise ConfigurationError(
            f"{EXECUTOR_ENV} must be one of {', '.join(EXECUTORS)}, got {raw!r}"
        )
    return name


def resolve_plan(
    workers: Optional[int] = None, executor: Optional[str] = None
) -> Tuple[int, str]:
    """Resolve ``(workers, executor)`` from arguments, environment and
    defaults — including the nested-worker degradation to serial."""
    if workers is None:
        workers = default_workers()
    else:
        workers = int(workers)
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if executor is None:
        executor = default_executor()
    if executor is None:
        executor = "serial" if workers <= 1 else "process"
    elif executor not in EXECUTORS:
        raise ConfigurationError(
            f"executor must be one of {', '.join(EXECUTORS)}, got {executor!r}"
        )
    if in_worker():
        # Nested inside a worker: no second level of pools, ever.
        return 1, "serial"
    if executor == "serial":
        return 1, "serial"
    return workers, executor


def _thread_worker(task_: Task) -> Any:
    """Run one task in a thread-pool worker, flagged for the guard."""
    _WORKER_TLS.active = True
    try:
        return task_.run()
    finally:
        _WORKER_TLS.active = False


def _process_worker_init() -> None:
    """Mark a process-pool worker (inherited by grandchildren)."""
    os.environ[_WORKER_ENV_FLAG] = "1"


def _process_worker(task_: Task) -> Any:
    return task_.run()


def _normalize(tasks: Iterable[Task]) -> List[Task]:
    out: List[Task] = []
    for item in tasks:
        if not isinstance(item, Task):
            raise ConfigurationError(
                f"run_tasks expects Task objects, got {type(item).__name__} "
                "(wrap callables with repro.runtime.task(fn, ...))"
            )
        out.append(item)
    return out


def _run_pool(
    pool: futures.Executor, worker: Callable[[Task], Any], tasks: Sequence[Task]
) -> List[Any]:
    """Dispatch every task and collect results in submission order,
    raising the lowest-indexed failure if any task raised."""
    pending = [pool.submit(worker, task_) for task_ in tasks]
    results: List[Any] = [None] * len(pending)
    first_error: Optional[Tuple[int, BaseException]] = None
    for index, future in enumerate(pending):
        try:
            results[index] = future.result()
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            if first_error is None:
                first_error = (index, exc)
    if first_error is not None:
        index, exc = first_error
        label = tasks[index].label or getattr(
            tasks[index].fn, "__name__", "task"
        )
        raise exc from RuntimeError(f"task #{index} ({label}) failed")
    return results


def run_tasks(
    tasks: Iterable[Task],
    *,
    workers: Optional[int] = None,
    executor: Optional[str] = None,
    registry: Optional[MetricsRegistry] = None,
) -> List[Any]:
    """Run *tasks* and return their results in submission order.

    Parameters
    ----------
    tasks:
        The work items; see :class:`Task` for the determinism contract.
    workers:
        Pool size (default: ``REPRO_WORKERS`` or 1).  Ignored by the
        serial executor.
    executor:
        ``"serial"``, ``"thread"`` or ``"process"`` (default:
        ``REPRO_EXECUTOR``; else serial at one worker, process beyond).
    registry:
        Metrics destination (default: the process-default registry).

    Results are **bit-identical for every** ``(workers, executor)``
    combination as long as tasks follow the contract; the serial
    executor is the reference.  Exceptions re-raise the lowest-indexed
    failure.  Called from inside a runtime worker, the batch degrades
    to serial (no nested pools).
    """
    task_list = _normalize(tasks)
    workers, executor = resolve_plan(workers, executor)
    workers = max(1, min(workers, len(task_list) or 1))
    registry = registry if registry is not None else get_registry()
    registry.counter("runtime.tasks_submitted_total", executor=executor).inc(
        len(task_list)
    )
    registry.gauge("runtime.workers").set(workers)
    start = time.perf_counter()
    completed = failed = 0
    try:
        if executor == "serial" or workers == 1 or len(task_list) <= 1:
            # The reference path (also the nested-degradation path).
            results = []
            for task_ in task_list:
                try:
                    results.append(task_.run())
                    completed += 1
                except BaseException:
                    failed += 1
                    raise
        elif executor == "thread":
            with futures.ThreadPoolExecutor(max_workers=workers) as pool:
                try:
                    results = _run_pool(pool, _thread_worker, task_list)
                    completed = len(results)
                except BaseException:
                    failed += 1
                    raise
        else:
            with futures.ProcessPoolExecutor(
                max_workers=workers, initializer=_process_worker_init
            ) as pool:
                try:
                    results = _run_pool(pool, _process_worker, task_list)
                    completed = len(results)
                except BaseException:
                    failed += 1
                    raise
    finally:
        registry.histogram(
            "runtime.batch_seconds", buckets=BATCH_BUCKETS, executor=executor
        ).observe(time.perf_counter() - start)
        registry.counter(
            "runtime.tasks_completed_total", executor=executor
        ).inc(completed)
        if failed:
            registry.counter(
                "runtime.tasks_failed_total", executor=executor
            ).inc(failed)
    return results
