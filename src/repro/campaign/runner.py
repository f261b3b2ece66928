"""Fan a campaign's scenarios out over a ``multiprocessing`` worker pool.

The parent process never ships network objects: a worker receives frozen
:class:`~repro.spec.scenario.ScenarioSpec` values (a few hundred bytes
each), resolves them through the registries — rebuilding the topology
from the catalog or the referenced ``repro-midigraph`` file, the traffic
pattern and the fault sample — runs the simulator and hands the results
back.  The parent streams every finished record straight into the
:class:`~repro.campaign.store.ResultStore`, so progress survives a kill
at any point and ``resume=True`` re-runs only the missing scenarios.

Three layers of batching and caching keep the sweep hot:

* **Scenario groups.**  Pending scenarios are grouped by
  :meth:`~repro.spec.scenario.ScenarioSpec.group_key` — same topology,
  cycles, policy, drain and fault sample — and each group (up to
  ``batch`` scenarios) runs as one
  :func:`~repro.sim.batch.simulate_batch` call: one compiled network,
  one pass over the cycle loop, bit-identical per-scenario reports.
  A single-scenario group runs through ``simulate``, itself a batch of
  one on the same path, so ``batch=1`` dispatches per scenario.
* **Warm persistent workers.**  Pool workers live for the whole sweep
  and start hot: the pool initializer grows the digest-keyed
  compiled-network LRU (:func:`repro.sim.compiled.ensure_compile_cache_min`)
  to the sweep's distinct ``(topology, faults)`` groups, and — when the
  selected kernel backend resolves to ``numba`` — pre-compiles the
  fused JIT loop (:func:`repro.sim.kernels.warm_jit`) so no slab pays
  the one-time compile.  Network resolution is additionally memoized per
  process by catalog entry / file content digest.
* **Pickled result return.**  A pool task returns its group's store
  records — the canonical scenario and report dicts, a few hundred bytes
  per scenario — pickled through the worker's result pipe, alongside its
  compile-cache delta and telemetry.  The parent appends them to the
  store as they arrive.

``workers=1`` runs inline in the parent (no pool, easiest to debug and to
interrupt deterministically in tests); ``workers>1`` dispatches through
the fault-tolerant supervisor (:mod:`repro.campaign.supervisor`) —
completion order is nondeterministic, results are not: every scenario's
report is a pure function of its spec.  Both engines run every group
task through one executor, :func:`_execute_task` (chaos injection, the
task's backend override, then the group), and feed its results and
failures through the same sinks.

**Fault tolerance.**  Both engines route failures through the
supervisor's recovery policy: a failed scenario group is bisected to
isolate the poison, singletons are retried with exponential backoff +
deterministic jitter, a numba-backend failure is retried once on numpy,
and terminal failures land — with their full worker-side traceback — in
the ``repro-campaign-quarantine`` sidecar next to the store
(``on_error="quarantine"``, the default) or abort the sweep as a
:class:`~repro.campaign.errors.RemoteTaskError` (``on_error="abort"``).
The same failure records the same evidence on either engine.  With
``workers>1`` the supervisor additionally enforces per-task wall-clock
timeouts (``task_timeout``), SIGKILLs hung workers and respawns crashed
ones, so a segfault or a stuck JIT compile costs one task attempt, not
the campaign.  Quarantined scenarios are skipped on ``resume`` and
re-run after ``python -m repro campaign quarantine --requeue``.  The
crash-safety oracle is unchanged: once every non-poison scenario
completes, store bytes and aggregates are identical to a fault-free
run.  A deterministic chaos harness (:mod:`repro.campaign.chaos`,
``REPRO_CHAOS``) injects worker crash/hang/raise/slow faults inside
workers to test all of this.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from dataclasses import replace
from pathlib import Path
from typing import Callable, Mapping

from repro.core.errors import ReproError
from repro.campaign import supervisor as sup
from repro.campaign.chaos import ChaosSpec, chaos_from_env, parse_chaos
from repro.campaign.errors import (
    QuarantineStore,
    RemoteTaskError,
    quarantine_path,
)
from repro.campaign.heartbeat import (
    HeartbeatWriter,
    default_interval as hb_default_interval,
)
from repro.campaign.spec import CampaignSpec, expand_scenarios
from repro.campaign.store import ResultStore
from repro.obs import trace as obs
from repro.obs.log import get_logger
from repro.obs.manifest import RunManifest
from repro.obs.metrics import metrics
from repro.sim.batch import simulate_batch
from repro.sim.compiled import compile_cache_info, ensure_compile_cache_min
from repro.sim.engine import simulate
from repro.sim.kernels import resolve_backend, warm_jit
from repro.sim.metrics import SimReport
from repro.spec.scenario import ScenarioSpec

__all__ = ["run_campaign", "run_scenario"]

_log = get_logger("campaign")


def _as_spec(scenario) -> ScenarioSpec:
    """Coerce any accepted scenario form into a :class:`ScenarioSpec`."""
    if isinstance(scenario, ScenarioSpec):
        return scenario
    if isinstance(scenario, Mapping):
        return ScenarioSpec.from_spec(scenario)
    raise ReproError(
        f"expected a ScenarioSpec or its wire dict, got {scenario!r}"
    )


def run_scenario(scenario) -> SimReport:
    """Run one campaign scenario and return its report.

    Accepts a :class:`~repro.spec.scenario.ScenarioSpec` or its wire
    dict — a thin forwarder onto the one resolution path,
    ``simulate(ScenarioSpec)``.
    """
    return simulate(_as_spec(scenario))


def _record(spec: ScenarioSpec, report: SimReport) -> dict:
    return {
        "hash": spec.digest,
        "scenario": spec.to_spec(),
        "report": report.to_dict(),
    }


def _group_reports(specs: list[ScenarioSpec]) -> list[SimReport]:
    """Run one batch-compatible scenario group.

    A single-scenario group runs through ``simulate`` (a batch of one);
    larger groups run as one :func:`~repro.sim.batch.simulate_batch`
    call.  Either way the reports are bit-identical (wall-clock
    ``elapsed`` aside), so nothing the aggregates consume depends on the
    grouping.
    """
    if len(specs) == 1:
        return [run_scenario(specs[0])]
    return simulate_batch(specs)


def _run_group(specs: list[ScenarioSpec]) -> list[dict]:
    """Run a scenario group inside a ``group`` span → store records."""
    with obs.span("group", scenarios=len(specs)):
        return [
            _record(s, rep) for s, rep in zip(specs, _group_reports(specs))
        ]


def _execute_task(
    specs,
    attempt: int,
    backend_override: str | None,
    chaos: ChaosSpec | None,
    dispatch_ts: float | None = None,
    *,
    ship: bool = False,
) -> tuple:
    """Run one attempt of a group task: the task body of both engines.

    Injects the attempt's chaos, applies the task's backend override,
    then runs the group.  Returns ``(records, delta, telemetry)``: the
    store records, this attempt's compile-cache ``(hits, misses)`` and
    its :func:`_telemetry` payload.  Exceptions propagate unwrapped, so
    the inline engine and a pool worker record the same evidence for
    the same failure.  ``dispatch_ts`` (traced pool tasks) times the
    queue wait; ``ship`` is set by pool workers, whose telemetry must
    cross the result pipe.
    """
    if chaos:
        chaos.apply(
            [s.digest for s in specs], attempt, backend=backend_override
        )
    if backend_override is not None:
        specs = [
            replace(s, sim=replace(s.sim, backend=backend_override))
            for s in specs
        ]
    t0 = time.perf_counter()
    if obs.enabled() and dispatch_ts is not None:
        metrics().histogram("campaign.queue_wait_s").observe(
            # Queue-wait telemetry spans two processes, so only the
            # shared wall clock can measure it; the value feeds a
            # histogram, never a result or a digest.
            # repro: noqa[RPR003] — cross-process wall-clock telemetry
            max(0.0, time.time() - dispatch_ts)
        )
    before = compile_cache_info()
    records = _run_group(list(specs))
    after = compile_cache_info()
    delta = (
        after["hits"] - before["hits"],
        after["misses"] - before["misses"],
    )
    tele = _telemetry(len(specs), time.perf_counter() - t0, ship)
    return records, delta, tele


def _note_group(n_scenarios: int, busy_s: float) -> None:
    """Fold one finished group into the process's metric registry."""
    m = metrics()
    m.counter("campaign.groups").add()
    m.counter("campaign.scenarios").add(n_scenarios)
    m.histogram("campaign.group_busy_s").observe(busy_s)


def _telemetry(n_scenarios: int, busy_s: float, ship: bool) -> dict:
    """One group task's telemetry payload for the engine's result sink.

    Always carries the liveness triple (pid, busy seconds, scenario
    count) — a few dozen bytes feeding the parent's per-worker series
    and heartbeat.  Span events and the drained metrics snapshot ride
    along only from a pool worker (``ship``) while a tracer is active,
    so an untraced sweep ships no event payload through the pipe, and
    the inline engine's events stay where they were recorded.  Draining
    keeps worker memory bounded: events accumulate only between tasks.
    """
    tele = {
        "pid": os.getpid(),
        "busy_s": busy_s,
        "scenarios": n_scenarios,
        "events": (),
        "metrics": None,
    }
    if obs.enabled():
        _note_group(n_scenarios, busy_s)
        if ship:
            tr = obs.active()
            tele["events"] = tr.drain() if tr.path is None else []
            tele["metrics"] = metrics().drain()
    return tele


def _worker_init(
    cache_max: int | None, warm_numba: bool, traced: bool = False
) -> None:
    """Pool initializer: install telemetry, size the cache, pre-pay JIT.

    The tracer (when the parent traces) comes first so the initializer's
    own ``warm_jit`` span is captured; it replaces any tracer inherited
    across ``fork`` — see :func:`repro.obs.trace.reset`.
    """
    if traced:
        obs.reset()
        obs.start(obs.Tracer())
    if cache_max is not None:
        ensure_compile_cache_min(cache_max)
    if warm_numba:
        warm_jit()


def _group_pending(
    pending: list[ScenarioSpec], batch: int
) -> list[list[ScenarioSpec]]:
    """Split the pending scenarios into batch-compatible group tasks.

    Groups follow first-appearance order of their keys (deterministic:
    expansion order is fixed) and are chunked to at most ``batch``
    scenarios so one task never grows an unbounded state slab.
    """
    groups: "OrderedDict[str, list[ScenarioSpec]]" = OrderedDict()
    for spec in pending:
        groups.setdefault(spec.group_key(), []).append(spec)
    tasks: list[list[ScenarioSpec]] = []
    for specs in groups.values():
        for i in range(0, len(specs), batch):
            tasks.append(specs[i : i + batch])
    return tasks


def run_campaign(
    spec: CampaignSpec,
    store_path: str | Path,
    *,
    workers: int = 1,
    batch: int = 16,
    resume: bool = False,
    base_dir: str | Path | None = None,
    progress: Callable[[dict, int, int], None] | None = None,
    backend: str | None = None,
    heartbeat: float | None = None,
    task_timeout: float | None = None,
    retries: int = 2,
    on_error: str = "quarantine",
    retry_backoff: float = 0.25,
    chaos: ChaosSpec | str | None = None,
) -> dict:
    """Run (or resume) a full campaign sweep into a result store.

    Parameters
    ----------
    spec:
        The declarative grid to expand.
    store_path:
        The JSONL result store; must not already hold records unless
        ``resume=True``.
    workers:
        Pool size; ``1`` runs inline in the calling process.  Pool
        workers inherit plugin-registered networks/traffic patterns on
        ``fork`` platforms (Linux); under the ``spawn`` start method
        (macOS/Windows default) workers re-import your main module, so
        keep ``@register_network``/``@register_traffic`` decorators at
        module top level — or use ``workers=1``.
    batch:
        Maximum scenarios fused into one ``simulate_batch`` call
        (grouped by topology, cycles, policy, drain and fault sample).
        ``1`` disables batching and dispatches per scenario.
    resume:
        Skip scenarios whose digests the store already holds — the
        crash-recovery path, a no-op when the store is complete.
    base_dir:
        Anchor for relative file-topology paths (see
        :func:`~repro.campaign.spec.expand_scenarios`).
    progress:
        Optional callback ``(record, n_done, n_total)`` invoked after
        each scenario is stored; exceptions it raises abort the run
        (already-stored records stay on disk).
    backend:
        Kernel backend request applied to every scenario
        (``"auto"``/``"numpy"``/``"numba"``; ``None`` keeps the specs'
        own ``sim.backend``).  Execution hint only — digests, stores and
        reports are identical across backends.
    heartbeat:
        Seconds between atomic-rename progress heartbeats written next
        to the store (``<stem>.heartbeat.json`` — see
        :mod:`repro.campaign.heartbeat`); ``0`` (or negative) disables
        them.  Default (``None``): the ``REPRO_CAMPAIGN_HEARTBEAT``
        environment variable, else 1 second.  Pure telemetry, exactly
        like tracing: the store is byte-identical with heartbeats on
        or off, and ``python -m repro campaign watch`` tails the file
        from any other process.
    task_timeout:
        Wall-clock seconds one group task may run before its worker is
        SIGKILL-ed and the task retried (``None`` disables hang
        detection).  Enforced with ``workers > 1``; inline runs cannot
        preempt themselves.
    retries:
        Transient-failure budget per scenario: a failed singleton task
        is re-executed up to this many extra times (exponential backoff
        with deterministic jitter) before degradation/quarantine.
    on_error:
        ``"quarantine"`` (default) records terminal failures — full
        remote traceback included — in the
        ``repro-campaign-quarantine`` sidecar next to the store and
        finishes the sweep; ``"abort"`` raises
        :class:`~repro.campaign.errors.RemoteTaskError` instead.
    retry_backoff:
        Base of the exponential backoff between retries, in seconds.
    chaos:
        A :class:`~repro.campaign.chaos.ChaosSpec` (or its spec
        string) injecting deterministic crash/hang/raise/slow faults
        inside workers — the test harness for everything above.
        Default (``None``): parsed from the ``REPRO_CHAOS``
        environment variable, which is off by default.  An execution
        hint: chaos never enters specs, digests or store bytes.

    Returns
    -------
    dict
        ``{"total": ..., "skipped": ..., "ran": ..., "store": ...,
        "compile_cache": {"hits": ..., "misses": ...}}`` — the sweep
        accounting, for logs and tests, plus
        ``"quarantined"`` (terminal failures this run),
        ``"quarantined_skipped"`` (previously quarantined scenarios
        skipped on resume), ``"quarantine"`` (the sidecar path) and a
        ``"faults"`` dict of supervisor event counters
        (retries/bisects/degraded/quarantined/timeouts/crashes/
        respawns).  The compile-cache counters
        aggregate over every worker.  When a :mod:`repro.obs` tracer is
        active, a ``"telemetry"`` key is added: the run's wall time, the
        parent-merged metrics snapshot and a per-worker series
        (groups/scenarios/busy seconds/utilization); the trace stream
        additionally receives every worker's spans, a campaign
        :class:`~repro.obs.manifest.RunManifest` and the final metrics
        snapshot.  Telemetry never changes the store: traced and
        untraced sweeps produce identical records.
    """
    if workers < 1:
        raise ReproError(f"workers must be >= 1, got {workers}")
    if batch < 1:
        raise ReproError(f"batch must be >= 1, got {batch}")
    scenarios = expand_scenarios(spec, base_dir=base_dir)
    # Fail fast on bad/unavailable names.  Every expanded scenario
    # carries the same backend request, so the first one speaks for all.
    resolved = resolve_backend(
        backend if backend is not None else scenarios[0].sim.backend
    )
    if backend is not None:
        scenarios = [
            replace(s, sim=replace(s.sim, backend=backend))
            for s in scenarios
        ]
    if isinstance(chaos, str):
        chaos = parse_chaos(chaos)
    elif chaos is None:
        chaos = chaos_from_env()
    warm_numba = resolved == "numba"
    # Degradation target: retry once on the reference kernels when the
    # sweep runs the JIT backend.  A chaos spec with poison_numba
    # entries simulates exactly that failure mode, so it forces the
    # path on for numpy-only installs (where it is otherwise moot).
    degrade_backend = None
    if warm_numba or (chaos is not None and chaos.poison_numba):
        degrade_backend = "numpy"
    # Validate the fault-tolerance knobs up front (fail before work).
    sup_cfg = sup.SupervisorConfig(
        task_timeout=task_timeout,
        retries=retries,
        backoff_base=retry_backoff,
        on_error=on_error,
        degrade_backend=degrade_backend,
    )
    store = ResultStore(store_path)
    qstore = QuarantineStore(quarantine_path(store.path))
    done: set[str] = set()
    if store.exists() and len(store) > 0:
        if not resume:
            raise ReproError(
                f"store {store.path} already holds results; pass "
                "resume=True to continue it or choose a fresh path"
            )
        done = store.hashes()
    quarantined_prior: set[str] = set()
    if resume and qstore.exists():
        quarantined_prior = qstore.hashes() - done
    pending = [
        s for s in scenarios
        if s.digest not in done and s.digest not in quarantined_prior
    ]
    skipped = sum(1 for s in scenarios if s.digest in done)
    quarantined_skipped = len(scenarios) - len(pending) - skipped
    total = len(scenarios)
    n_done = skipped
    new_quarantined = 0
    stored_hashes = set(done)
    cache_hits = cache_misses = 0
    fault_stats = {key: 0 for key in sup.STAT_KEYS}
    hb_interval = (
        hb_default_interval() if heartbeat is None else heartbeat
    )
    hb: HeartbeatWriter | None = None

    def _store(record: dict) -> None:
        nonlocal n_done
        if record["hash"] in stored_hashes:
            # Attempt-independent results: a retried/bisected task may
            # recompute a scenario another attempt already delivered.
            return
        stored_hashes.add(record["hash"])
        store.append(record["hash"], record["scenario"], record["report"])
        n_done += 1
        if progress is not None:
            progress(record, n_done, total)
        if hb is not None:
            hb.beat(n_done)

    def _on_failure(failure) -> None:
        nonlocal new_quarantined
        if on_error == "abort":
            first = (
                failure.message.splitlines()[0] if failure.message else ""
            )
            raise RemoteTaskError(
                f"scenario {failure.hash} failed after "
                f"{failure.attempts} attempt(s) "
                f"[{failure.kind}: {failure.error_type}: {first}]",
                failure.traceback,
            )
        qstore.append(failure)
        new_quarantined += 1

    if not pending:
        if hb_interval > 0:
            HeartbeatWriter(
                store.path, total=total, skipped=skipped,
                workers=workers, batch=batch, interval=hb_interval,
                task_timeout=task_timeout,
            ).finish(n_done)
        return {
            "total": total, "skipped": skipped, "ran": 0,
            "quarantined": 0,
            "quarantined_skipped": quarantined_skipped,
            "quarantine": str(qstore.path) if qstore.exists() else None,
            "faults": fault_stats,
            "store": str(store.path),
            "compile_cache": {"hits": 0, "misses": 0},
        }
    tasks = _group_pending(pending, batch)
    # Size the compiled-network LRU to the sweep: distinct group keys
    # bound the distinct (topology, faults) compilations in play, and a
    # budget below that count would thrash on every group boundary.
    # Enlarge-only (capped at 64 groups' worth), so a larger budget the
    # user configured via REPRO_SIM_COMPILE_CACHE or
    # set_compile_cache_max always wins.
    cache_max = max(
        compile_cache_info()["maxsize"],
        min(64, len({s.group_key() for s in pending})),
    )
    if hb_interval > 0:
        hb = HeartbeatWriter(
            store.path, total=total, skipped=skipped, workers=workers,
            batch=batch, backend=resolved, interval=hb_interval,
            task_timeout=task_timeout,
        )
        hb.beat(n_done, force=True)

    # Telemetry (off unless a tracer is active): the whole dispatch is
    # one `campaign` span; pool workers ship their span events and
    # metric snapshots back piggybacked on the result path, and the
    # parent folds them into its own stream plus a per-worker
    # utilization series for the summary.
    traced = obs.enabled()
    worker_series: "dict[int, dict]" = {}

    def _on_result(task, payload) -> None:
        nonlocal cache_hits, cache_misses
        records, delta, tele = payload
        cache_hits += delta[0]
        cache_misses += delta[1]
        if tele["events"]:
            tr = obs.active()
            if tr is not None:
                tr.ingest(tele["events"])
        if tele["metrics"] is not None:
            metrics().merge(tele["metrics"])
        pid, n_scenarios, busy_s = (
            tele["pid"], tele["scenarios"], tele["busy_s"]
        )
        row = worker_series.setdefault(
            pid, {"groups": 0, "scenarios": 0, "busy_s": 0.0}
        )
        row["groups"] += 1
        row["scenarios"] += n_scenarios
        row["busy_s"] += busy_s
        if hb is not None:
            hb.note_worker(pid, n_scenarios, busy_s)
        with obs.span("store", scenarios=len(records)):
            for record in records:
                _store(record)

    def _on_dispatch(pid, task) -> None:
        if hb is not None:
            hb.note_dispatch(pid)

    def _on_tick() -> None:
        if hb is not None:
            hb.beat(n_done)

    _log.debug(
        "dispatching %d group task(s) (%d scenario(s)) over %d worker(s), "
        "backend=%s",
        len(tasks), len(pending), workers, resolved,
    )
    t_run0 = time.perf_counter()
    with obs.span(
        "campaign", total=total, skipped=skipped,
        workers=workers, batch=batch, backend=resolved,
    ) as root:
        if workers == 1:
            ensure_compile_cache_min(cache_max)
            fault_stats = sup.run_inline(
                tasks,
                cfg=sup_cfg,
                execute=lambda task: _execute_task(
                    task.specs, task.attempt, task.backend_override, chaos
                ),
                on_result=_on_result,
                on_failure=_on_failure,
            )
        else:
            fault_stats = sup.run_supervised(
                tasks,
                workers=workers,
                cfg=sup_cfg,
                init_args=(cache_max, warm_numba, traced),
                chaos=chaos,
                dispatch_ts_factory=(
                    (lambda: time.time()) if traced else (lambda: None)
                ),
                on_result=_on_result,
                on_failure=_on_failure,
                on_dispatch=_on_dispatch,
                on_tick=_on_tick,
            )
    if hb is not None:
        hb.finish(n_done)
    if new_quarantined:
        _log.warning(
            "%d scenario(s) quarantined -> %s (inspect with "
            "`python -m repro campaign quarantine --store %s`)",
            new_quarantined, qstore.path, store.path,
        )
    summary = {
        "total": total, "skipped": skipped,
        "ran": n_done - skipped,
        "quarantined": new_quarantined,
        "quarantined_skipped": quarantined_skipped,
        "quarantine": str(qstore.path) if qstore.exists() else None,
        "faults": fault_stats,
        "store": str(store.path),
        "compile_cache": {"hits": cache_hits, "misses": cache_misses},
    }
    if traced:
        wall = time.perf_counter() - t_run0
        summary["telemetry"] = {
            "wall_s": wall,
            "workers": {
                str(pid): {
                    **row,
                    "utilization": (
                        row["busy_s"] / wall if wall > 0 else 0.0
                    ),
                }
                for pid, row in sorted(worker_series.items())
            },
            "metrics": metrics().snapshot(),
        }
        tr = obs.active()
        tr.emit_manifest(
            RunManifest.collect(
                "campaign",
                [s.digest for s in scenarios],
                backend=resolved,
                timings={"total": root.dur},
                workers=workers,
                batch=batch,
                store=str(store.path),
            )
        )
        tr.emit_metrics(metrics().snapshot())
    return summary
