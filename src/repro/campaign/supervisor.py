"""Fault-tolerant supervision of campaign task execution.

Under a bare process pool one segfaulted worker breaks the whole pool,
one hung numba compile stalls the result iterator forever, and one
poison scenario aborts the run.  This module dispatches group tasks
*managed* instead — the parent owns each worker process individually
and keeps the sweep alive through all three failure modes:

* **Timeouts.**  Every in-flight task carries a wall-clock deadline
  (``task_timeout``).  A worker past its deadline is ``SIGKILL``-ed,
  respawned, and the task re-enters the queue as a ``hang`` failure.
* **Retries + respawn.**  Failed singleton tasks are retried up to
  ``retries`` times with exponential backoff and *deterministic*
  jitter (a pure function of the scenario digest and attempt — two
  identical runs back off identically).  Dead workers are respawned
  immediately; a crashed worker never takes the pool down.
* **Bisection.**  A failed multi-scenario group is split in half and
  both halves re-run, recursing until the failure is isolated to the
  single truly-poisonous scenario — the rest of the group's results
  are recomputed and kept.
* **Degradation.**  A singleton that exhausted its retries is retried
  once more on the reference numpy backend (when the sweep runs numba)
  before being declared poison — a JIT-specific failure degrades
  gracefully instead of quarantining a healthy scenario.
* **Quarantine or abort.**  Terminal failures go to the caller's
  ``on_failure`` hook: quarantine mode records them (with the full
  remote traceback) and finishes the sweep; abort mode raises a
  :class:`~repro.campaign.errors.RemoteTaskError`.

Two engines apply this policy: :func:`run_supervised` (the worker
pool) and :func:`run_inline` (``workers=1``, the reference engine;
timeouts and respawns need a separate process, so it has neither).
Both are deliberately generic: they move
:class:`~repro.spec.scenario.ScenarioSpec` tuples and opaque payloads,
while the runner supplies the task body and the result/failure sinks.
The task body is one executor,
:func:`repro.campaign.runner._execute_task`: :func:`run_inline`
receives it as ``execute`` and :func:`_worker_main` calls it in each
pool worker.  A task that raises yields the same failure evidence
(:func:`_raised`) on either engine.  Completion events
count into :data:`repro.obs.metrics` (``campaign.retries``,
``campaign.bisects``, ``campaign.degraded``, ``campaign.quarantined``,
``campaign.timeouts``, ``campaign.crashes``, ``campaign.respawns``)
whenever a tracer is active, and always into the returned stats dict.

Results are attempt-independent (a report is a pure function of its
spec), so the engine dedupes at the scenario-digest level: however many
times a task ran, raced a kill, or overlapped a bisected sibling, every
scenario is delivered to ``on_result`` exactly once.
"""

from __future__ import annotations

import hashlib
import os
import signal
import time
from collections import deque
from dataclasses import dataclass, field, replace as dc_replace

import multiprocessing
from multiprocessing.connection import wait as wait_readable

from repro.core.errors import ReproError
from repro.campaign.chaos import ChaosSpec
from repro.campaign.errors import TaskFailure, format_remote_traceback
from repro.obs import schema as obs_schema
from repro.obs import trace as obs
from repro.obs.log import get_logger
from repro.obs.metrics import metrics

__all__ = [
    "SupervisorConfig",
    "Task",
    "backoff_delay",
    "plan_recovery",
    "run_inline",
    "run_supervised",
]

_log = get_logger("campaign.supervisor")

_ON_ERROR = ("abort", "quarantine")

#: Max tasks in flight per supervised worker (1 running + the rest
#: queued worker-side).  Depth 2 hides the parent's dispatch round-trip
#: without letting one worker hoard the tail of the queue.
PREFETCH = 2

#: Supervisor bookkeeping keys returned in the stats dict.  Each key is
#: also a declared ``campaign.<event>`` counter, so the set lives in the
#: trace schema — one declaration for emit, consume, and lint.
STAT_KEYS = obs_schema.CAMPAIGN_EVENTS


@dataclass(frozen=True)
class SupervisorConfig:
    """The fault-tolerance policy of one campaign run.

    ``task_timeout=None`` disables hang detection (tasks may run
    forever); ``retries`` bounds per-singleton re-executions;
    ``degrade_backend`` names the backend for the final pre-quarantine
    attempt (``None`` disables degradation); ``on_error`` picks what
    terminal failures do to the sweep.
    """

    task_timeout: float | None = None
    retries: int = 2
    backoff_base: float = 0.25
    backoff_max: float = 30.0
    on_error: str = "quarantine"
    degrade_backend: str | None = None
    poll_interval: float = 0.2

    def __post_init__(self) -> None:
        if self.on_error not in _ON_ERROR:
            raise ReproError(
                f"on_error must be one of {_ON_ERROR}, "
                f"got {self.on_error!r}"
            )
        if self.retries < 0:
            raise ReproError(
                f"retries must be >= 0, got {self.retries}"
            )
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ReproError(
                f"task_timeout must be positive (or None), "
                f"got {self.task_timeout}"
            )


@dataclass
class Task:
    """One schedulable unit: a scenario group plus its retry state."""

    id: int
    specs: tuple
    attempt: int = 0
    backend_override: str | None = None
    not_before: float = 0.0  # monotonic dispatch gate (backoff)
    last_error: dict | None = None

    def digests(self) -> tuple:
        return tuple(s.digest for s in self.specs)


def backoff_delay(cfg: SupervisorConfig, digest: str, attempt: int) -> float:
    """Exponential backoff with deterministic jitter.

    ``base * 2**attempt`` capped at ``backoff_max``, scaled into
    ``[0.5, 1.0)`` of itself by a jitter that is a pure hash of
    ``(digest, attempt)`` — retries de-synchronize across scenarios
    without introducing nondeterminism between identical runs.
    """
    base = min(cfg.backoff_max, cfg.backoff_base * (2.0 ** attempt))
    h = hashlib.sha256(f"{digest}:{attempt}".encode("utf-8")).digest()
    jitter = int.from_bytes(h[:8], "big") / 2.0**64
    return base * (0.5 + 0.5 * jitter)


def _count(stats: dict, event: str, n: int = 1) -> None:
    stats[event] = stats.get(event, 0) + n
    if obs.enabled():
        metrics().counter(obs_schema.campaign_counter(event)).add(n)


def plan_recovery(
    task: Task,
    cfg: SupervisorConfig,
    next_id,
    *,
    now: float = 0.0,
) -> tuple[list[Task], TaskFailure | None, str]:
    """Decide what happens after ``task`` failed.

    Returns ``(replacements, terminal, event)``: zero or more tasks to
    enqueue, an optional terminal :class:`TaskFailure` (exactly when
    ``replacements`` is empty), and the event name for the stats
    counters (``bisect``/``retry``/``degrade``/``quarantine`` — the
    counters themselves pluralize).  ``task.last_error`` must hold the
    failure evidence dict (``kind``/``type``/``message``/``traceback``/
    ``worker_pid``).
    """
    if len(task.specs) > 1:
        # Isolate the poison: re-run both halves from a fresh attempt
        # budget.  Healthy halves complete normally; the failing half
        # recurses down to the guilty singleton.
        mid = len(task.specs) // 2
        halves = [
            Task(
                id=next_id(),
                specs=part,
                backend_override=task.backend_override,
            )
            for part in (task.specs[:mid], task.specs[mid:])
        ]
        return halves, None, "bisects"
    digest = task.specs[0].digest
    if task.attempt < cfg.retries:
        retry = dc_replace(
            task,
            id=next_id(),
            attempt=task.attempt + 1,
            not_before=now + backoff_delay(cfg, digest, task.attempt),
        )
        return [retry], None, "retries"
    if (
        cfg.degrade_backend is not None
        and task.backend_override != cfg.degrade_backend
    ):
        degraded = dc_replace(
            task,
            id=next_id(),
            attempt=cfg.retries,  # one shot: next failure is terminal
            backend_override=cfg.degrade_backend,
            not_before=now,
        )
        return [degraded], None, "degraded"
    info = task.last_error or {}
    spec = task.specs[0]
    backends = [task.backend_override or spec.sim.backend]
    if task.backend_override is not None:
        backends.insert(0, spec.sim.backend)
    failure = TaskFailure(
        hash=digest,
        scenario=spec.to_spec(),
        kind=info.get("kind", "raise"),
        error_type=info.get("type", "Unknown"),
        message=info.get("message", "task failed"),
        traceback=info.get("traceback", ""),
        attempts=task.attempt + 1,
        backends=tuple(dict.fromkeys(backends)),
        worker_pid=info.get("worker_pid"),
        ts=time.time(),
    )
    return [], failure, "quarantined"


def _raised(exc: Exception) -> dict:
    """The failure evidence of an exception raised by a task body.

    Built where the exception is caught — in the pool worker or the
    inline engine — so the traceback is formatted while it still holds
    the raising frames.
    """
    return {
        "kind": "raise",
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": format_remote_traceback(exc),
        "worker_pid": os.getpid(),
    }


# -- worker side -------------------------------------------------------------


def _worker_main(inq, results, init_args, chaos: ChaosSpec | None) -> None:
    """The supervised worker loop: init, then task → result until stop.

    Runs the runner's pool initializer and its task executor (imported
    lazily — the runner imports this module at top level).  Exceptions
    become structured ``err`` messages carrying the child's formatted
    traceback.  ``results`` is the write end of this worker's own pipe,
    written synchronously: a message is fully in the pipe before the
    next task starts.  A kill mid-write (a timeout kill can land at any
    point) can truncate only this worker's pipe, which the parent
    replaces on respawn; no lock is shared with the other workers.
    """
    from repro.campaign import runner

    runner._worker_init(*init_args)
    while True:
        msg = inq.get()
        if msg is None:
            return
        task_id, specs, attempt, backend_override, dispatch_ts = msg
        try:
            payload = runner._execute_task(
                specs, attempt, backend_override, chaos, dispatch_ts,
                ship=True,
            )
            results.send(("ok", task_id, os.getpid(), payload))
        except Exception as exc:  # noqa: BLE001 — shipped, not swallowed
            info = _raised(exc)
            results.send(("err", task_id, os.getpid(), info))


class _Worker:
    """One supervised worker process, its task queue and result pipe.

    Up to :data:`PREFETCH` tasks are in flight per worker — one running
    plus one queued — so a worker rolls straight into its next task
    without idling through a parent round-trip.  ``inflight[0]`` is the
    running task; its wall-clock
    deadline starts at dispatch, or at the moment the previous result
    arrived.
    """

    def __init__(self, ctx, init_args, chaos) -> None:
        self._ctx = ctx
        self._init_args = init_args
        self._chaos = chaos
        self.inflight: deque[Task] = deque()
        self.started = 0.0
        self.results = None
        self.spawn()

    def spawn(self) -> None:
        # A fresh inbound queue and result pipe per (re)spawn: a SIGKILL
        # mid-``get`` or mid-``send`` can leave the old ones in an
        # undefined state.
        self.close_results()
        self.inq = self._ctx.Queue()
        self.results, writer = self._ctx.Pipe(duplex=False)
        self.proc = self._ctx.Process(
            target=_worker_main,
            args=(self.inq, writer, self._init_args, self._chaos),
            daemon=True,
        )
        self.proc.start()
        # Only the child may hold the write end, so its death reads as
        # end-of-file here.
        writer.close()
        self.inflight = deque()
        self.started = 0.0

    def close_results(self) -> None:
        """Drop the result pipe (spent: the worker died or was replaced)."""
        if self.results is not None:
            self.results.close()
        self.results = None

    @property
    def pid(self) -> int | None:
        return self.proc.pid

    def dispatch(self, task: Task, dispatch_ts) -> None:
        if not self.inflight:
            self.started = time.monotonic()
        self.inflight.append(task)
        self.inq.put((
            task.id, list(task.specs), task.attempt,
            task.backend_override, dispatch_ts,
        ))

    def kill(self) -> None:
        if self.proc.is_alive():
            try:
                os.kill(self.proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):
                pass
        self.proc.join(timeout=5.0)
        self.inq.close()

    def stop(self) -> None:
        """Graceful stop: sentinel, short join, then force-kill."""
        try:
            self.inq.put(None)
        except (ValueError, OSError):
            pass
        self.proc.join(timeout=2.0)
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=2.0)
        if self.proc.is_alive():
            self.kill()
        self.close_results()


# -- engines -----------------------------------------------------------------


class _Scheduler:
    """Shared retry/bisect/quarantine bookkeeping of both engines."""

    def __init__(self, tasks, cfg, on_failure) -> None:
        self.cfg = cfg
        self.on_failure = on_failure
        self.pending: deque[Task] = deque(tasks)
        self.waiting: list[Task] = []  # backoff-gated, sorted lazily
        self.done_digests: set[str] = set()
        self.stats = {key: 0 for key in STAT_KEYS}
        self._ids = iter(range(len(self.pending) * 4096, 2**62))

    def next_id(self) -> int:
        return next(self._ids)

    def promote_ready(self, now: float) -> None:
        still = []
        for task in self.waiting:
            if task.not_before <= now:
                self.pending.append(task)
            else:
                still.append(task)
        self.waiting = still

    def next_wakeup(self, now: float) -> float | None:
        if not self.waiting:
            return None
        return max(0.0, min(t.not_before for t in self.waiting) - now)

    def pop_ready(self) -> Task | None:
        """The next dispatchable task, skipping fully-completed ones."""
        while self.pending:
            task = self.pending.popleft()
            fresh = [
                s for s in task.specs if s.digest not in self.done_digests
            ]
            if not fresh:
                continue
            if len(fresh) != len(task.specs):
                task = dc_replace(task, specs=tuple(fresh))
            return task
        return None

    def idle(self) -> bool:
        return not self.pending and not self.waiting

    def complete(self, task: Task) -> None:
        self.done_digests.update(task.digests())

    def fail(self, task: Task, info: dict, now: float) -> None:
        """Route one failed task through the recovery policy."""
        task.last_error = info
        replacements, terminal, event = plan_recovery(
            task, self.cfg, self.next_id, now=now
        )
        _count(self.stats, event)
        if terminal is not None:
            # Terminal means quarantined (or about to abort): mark the
            # digest handled so overlapping late results don't resurrect
            # a scenario the caller already recorded as failed.
            self.done_digests.add(terminal.hash)
            _log.warning(
                "scenario %s quarantined after %d attempt(s): %s: %s",
                terminal.hash, terminal.attempts,
                terminal.error_type,
                terminal.message.splitlines()[0]
                if terminal.message else "",
            )
            self.on_failure(terminal)
            return
        for sub in replacements:
            sub.last_error = info
            if sub.not_before > now:
                self.waiting.append(sub)
            else:
                self.pending.append(sub)


def run_supervised(
    tasks,
    *,
    workers: int,
    cfg: SupervisorConfig,
    init_args,
    chaos: ChaosSpec | None,
    dispatch_ts_factory,
    on_result,
    on_failure,
    on_dispatch=None,
    on_tick=None,
) -> dict:
    """Run group tasks over a supervised worker pool; return stats.

    ``tasks`` is a list of spec tuples (one per group); the pool
    spawns at most one worker per task.  ``on_result`` receives
    ``(task, payload)`` — the executor's return value — exactly once
    per completed scenario set; ``on_failure`` receives each terminal
    :class:`TaskFailure` (raising inside it aborts the sweep — the
    pool is torn down and the exception propagates).  ``on_dispatch``
    and ``on_tick`` are liveness hooks for heartbeat integration.
    """
    ctx = multiprocessing.get_context()
    sched = _Scheduler(
        [Task(id=i, specs=tuple(specs)) for i, specs in enumerate(tasks)],
        cfg,
        on_failure,
    )
    completed_ids: set[int] = set()
    pool = [
        _Worker(ctx, init_args, chaos)
        for _ in range(min(workers, len(tasks)))
    ]

    def _respawn(worker: _Worker, event: str, info: dict, now) -> None:
        """Respawn a dead or killed worker and fail its running task.

        Prefetched successors never started: they re-enter the queue
        with no attempt consumed.  The running head fails as ``event``
        unless its result already arrived.
        """
        head = worker.inflight.popleft() if worker.inflight else None
        queued = list(worker.inflight)
        _count(sched.stats, "respawns")
        worker.spawn()
        for task in queued:
            if task.id not in completed_ids:
                sched.pending.append(task)
        if head is None or head.id in completed_ids:
            return
        completed_ids.add(head.id)
        _count(sched.stats, event)
        sched.fail(head, info, now)

    def _drain(worker: _Worker) -> None:
        """Handle every message waiting in one worker's result pipe."""
        try:
            while worker.results is not None and worker.results.poll():
                _handle(worker, worker.results.recv())
        except (EOFError, OSError):
            worker.close_results()  # the worker is gone

    def _handle(worker: _Worker, msg) -> None:
        now = time.monotonic()
        status, task_id, _pid, body = msg
        task = None
        if worker.inflight and worker.inflight[0].id == task_id:
            task = worker.inflight.popleft()
            # The prefetched successor started the moment this result
            # was produced: restart its wall clock now.
            worker.started = now
        if task is None or task_id in completed_ids:
            # A late echo of a task the supervisor already retired
            # (result raced a timeout kill, or a duplicate after
            # bisection).  Replacements recompute deterministically,
            # so dropping the echo cannot lose data.
            return
        completed_ids.add(task_id)
        if status == "ok":
            sched.complete(task)
            on_result(task, body)
        else:
            sched.fail(task, body, now)

    try:
        while True:
            now = time.monotonic()
            sched.promote_ready(now)
            # Fill every worker to its prefetch depth, shallowest
            # first, so tasks spread across the pool before stacking.
            for depth in range(PREFETCH):
                for worker in pool:
                    if len(worker.inflight) != depth:
                        continue
                    task = sched.pop_ready()
                    if task is None:
                        break
                    worker.dispatch(task, dispatch_ts_factory())
                    if on_dispatch is not None:
                        on_dispatch(worker.pid, task)
            inflight = [w for w in pool if w.inflight]
            if not inflight and sched.idle():
                break
            # Wait for the next event: a result, the nearest deadline,
            # or the nearest backoff expiry — bounded by poll_interval
            # so worker deaths are noticed promptly.
            wait = cfg.poll_interval
            if cfg.task_timeout is not None and inflight:
                nearest = min(
                    w.started + cfg.task_timeout - now for w in inflight
                )
                wait = min(wait, max(0.0, nearest))
            wakeup = sched.next_wakeup(now)
            if wakeup is not None:
                wait = min(wait, wakeup)
            readers = {
                w.results: w for w in pool if w.results is not None
            }
            for reader in wait_readable(list(readers), max(0.01, wait)):
                _drain(readers[reader])
            now = time.monotonic()
            # Crashed workers: dead process while holding tasks.  Results
            # it sent before dying still count; then the running head
            # failed.
            for worker in pool:
                if worker.proc.is_alive():
                    continue
                _drain(worker)
                _respawn(worker, "crashes", {
                    "kind": "crash",
                    "type": "WorkerCrashed",
                    "message": (
                        "worker process died while running the task "
                        "(signal/OOM/segfault; no traceback available)"
                    ),
                    "traceback": "",
                    "worker_pid": None,
                }, now)
            # Hung workers: running head past the wall-clock deadline.
            if cfg.task_timeout is not None:
                for worker in pool:
                    if not worker.inflight:
                        continue
                    if now - worker.started <= cfg.task_timeout:
                        continue
                    pid = worker.pid
                    _log.warning(
                        "task %d exceeded task_timeout=%.3gs on worker "
                        "%s; killing and retrying",
                        worker.inflight[0].id, cfg.task_timeout, pid,
                    )
                    worker.kill()
                    _respawn(worker, "timeouts", {
                        "kind": "hang",
                        "type": "TaskTimeout",
                        "message": (
                            f"task exceeded the {cfg.task_timeout:g}s "
                            f"wall-clock timeout on worker {pid}"
                        ),
                        "traceback": "",
                        "worker_pid": pid,
                    }, now)
            if on_tick is not None:
                on_tick()
    finally:
        for worker in pool:
            worker.stop()
    return sched.stats


def run_inline(
    tasks,
    *,
    cfg: SupervisorConfig,
    execute,
    on_result,
    on_failure,
) -> dict:
    """The single-process engine: same recovery policy, no pool.

    ``execute(task)`` runs one group in the calling process and returns
    its result payload, which ``on_result`` receives as
    ``(task, payload)``; raising routes the task through
    retry → bisect → degrade → quarantine exactly like the pool path,
    with the same evidence.
    Hang and crash supervision need a separate process and are
    therefore pool-only: inline, a hang blocks and a crash kills the
    run — ``workers=1`` remains the transparent debugging mode.
    """
    sched = _Scheduler(
        [Task(id=i, specs=tuple(specs)) for i, specs in enumerate(tasks)],
        cfg,
        on_failure,
    )
    while True:
        now = time.monotonic()
        sched.promote_ready(now)
        task = sched.pop_ready()
        if task is None:
            if sched.idle():
                break
            delay = sched.next_wakeup(now)
            if delay:
                time.sleep(delay)
            continue
        try:
            payload = execute(task)
        except Exception as exc:  # noqa: BLE001 — routed, not swallowed
            sched.fail(task, _raised(exc), time.monotonic())
            continue
        sched.complete(task)
        on_result(task, payload)
    return sched.stats
