"""Scenario-axis batched simulation: the one orchestration path.

Every simulation — a single :func:`repro.sim.engine.simulate` call, an
engine-form :func:`simulate_batch` slab, a spec group inside a campaign
worker — runs through :func:`_simulate_slab`: ``B`` same-shape scenarios
(one compiled network, shared ``(cycles, policy, faults, drain)``,
per-scenario traffic, seed and optionally port schedule) generate and
validate their traffic slab, compile once, make one kernel-backend
``run_batch`` call and come back as one :class:`SimReport` each.
``simulate`` is simply a batch of one.

The kernels (:mod:`repro.sim.kernels`) grow packet state a leading
batch axis: the ``numpy`` reference backend runs stage-major
``(n, B·2M)`` flat slabs through packet-compacted kernels, so the
per-cycle Python and NumPy dispatch overhead is paid once per batch, and
the optional ``numba`` backend runs each scenario of the slab through
one fused JIT-compiled cycle loop.  Scenarios never interact, so every
report is independent of the batch it ran in — a scenario's report in a
slab of 64 equals (everything except wall-clock ``elapsed``) its report
from a batch of one, on either backend; the test suite pins both.

Draining is handled per scenario with an activity mask: a scenario whose
network has emptied (or hit the progress bound) is frozen while the rest
of the batch keeps cycling, so drain-cycle counts do not depend on the
batch either.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.errors import ReproError
from repro.obs import schema
from repro.obs import trace as obs
from repro.obs.manifest import RunManifest
from repro.obs.metrics import metrics
from repro.sim.compiled import compile_network, ensure_compile_cache_min
from repro.sim.faults import FaultSet
from repro.sim.kernels import get_backend, resolve_backend
from repro.sim.metrics import SimReport, latency_summary
from repro.sim.traffic import TrafficPattern

__all__ = ["BatchScenario", "simulate_batch"]

_POLICIES = ("drop", "block")


@dataclass(frozen=True, eq=False)
class BatchScenario:
    """One scenario of a batch: the run inputs that may vary per slab.

    Attributes
    ----------
    traffic:
        The scenario's :class:`~repro.sim.traffic.TrafficPattern`.
    seed:
        Traffic-schedule seed (same semantics as ``simulate``'s).
    port_schedule:
        Optional per-source port override; either every scenario of a
        batch carries one or none does.
    network_name:
        Display name for this scenario's report.
    """

    traffic: TrafficPattern
    seed: int = 0
    port_schedule: np.ndarray | None = None
    network_name: str | None = None


def _check_port_schedule(
    port_schedule: np.ndarray | None, n: int, n_in: int
) -> np.ndarray | None:
    """Validate and normalize a per-source port schedule (int8).

    Every entry must be exactly 0 or 1: a fractional entry would be
    truncated to a port and a NaN would be cast to garbage, so both are
    rejected before the cast.
    """
    if port_schedule is None:
        return None
    sched = np.asarray(port_schedule)
    if sched.shape != (n, n_in):
        raise ReproError(
            f"port_schedule must have shape ({n}, {n_in}), "
            f"got {sched.shape}"
        )
    if not np.isin(sched, (0, 1)).all():
        raise ReproError("port_schedule entries must be 0 or 1")
    return sched.astype(np.int8)


def _simulate_slab(
    net,
    scenarios,
    *,
    cycles: int | None,
    policy: str | None,
    faults: FaultSet | None,
    drain: bool | None,
    network_name: str | None,
    backend: str | None,
    kind: str,
    digests=(),
) -> list[SimReport]:
    """Run ``scenarios`` on ``net`` through one kernel call; one report each.

    The single implementation behind ``simulate`` and ``simulate_batch``.
    ``kind`` is the caller's manifest kind (``"simulate"`` or
    ``"batch"``) and picks the root span (:data:`schema.SIM_ROOT_SPANS`);
    ``digests`` are the scenario digests a top-level traced call stamps
    into its manifest.  Nothing else differs by caller: the pass is one
    root span with ``traffic``/``compile``/``run`` children, the same
    metrics, and reports built the same way.
    """
    cycles = 1000 if cycles is None else cycles
    policy = "drop" if policy is None else policy
    drain = False if drain is None else drain
    if cycles <= 0:
        raise ReproError(f"cycles must be positive, got {cycles}")
    if policy not in _POLICIES:
        raise ReproError(f"policy must be one of {_POLICIES}, got {policy!r}")
    scns = [
        s if isinstance(s, BatchScenario) else BatchScenario(traffic=s)
        for s in scenarios
    ]
    if not scns:
        raise ReproError("simulate_batch needs at least one scenario")
    for s in scns:
        if not isinstance(s.traffic, TrafficPattern):
            raise ReproError(
                f"scenario traffic must be a TrafficPattern, "
                f"got {type(s.traffic)!r}"
            )
    B = len(scns)
    n = net.n_stages
    size = net.size
    n_in = net.n_inputs

    n_scheduled = sum(1 for s in scns if s.port_schedule is not None)
    scheds = None
    if n_scheduled:
        if n_scheduled != B:
            raise ReproError(
                "either every batch scenario carries a port_schedule or "
                f"none does ({n_scheduled} of {B} given)"
            )
        # (B, n, N) — each backend lays this out for its own gathers.
        scheds = np.stack(
            [_check_port_schedule(s.port_schedule, n, n_in) for s in scns]
        )

    # Telemetry (off by default, near-free when off): the pass is one
    # root span with traffic/compile/run phase children; the phase
    # durations become the reports' `timings` breakdown, and a
    # top-level traced call also stamps a RunManifest.
    top_level = obs.enabled() and obs.current_span() is None
    with obs.span(
        schema.SIM_ROOT_SPANS[kind], scenarios=B, cycles=cycles, policy=policy
    ) as root:
        # Per-scenario traffic schedules, cycle-major for contiguous rows.
        with obs.span("traffic") as sp_traffic:
            tmats = np.empty((cycles, B, n_in), dtype=np.int32)
            for i, s in enumerate(scns):
                rng = np.random.default_rng(s.seed)
                tmat = s.traffic.destinations(rng, n_in, cycles)
                if tmat.shape != (cycles, n_in):
                    raise ReproError(
                        f"traffic schedule has shape {tmat.shape}, expected "
                        f"({cycles}, {n_in})"
                    )
                if int(tmat.max()) >= n_in:
                    raise ReproError(
                        "traffic destination outside the output range"
                    )
                tmats[:, i] = tmat

        with obs.span("compile") as sp_compile:
            comp = compile_network(net, faults)
        kern = get_backend(backend)

        with obs.span("run") as sp_run:
            start = time.perf_counter()
            run = kern.run_batch(
                comp, tmats, scheds, cycles, policy == "drop", drain
            )
            elapsed = time.perf_counter() - start
        resolved = None
        if obs.enabled():
            resolved = resolve_backend(backend)
            root.set(backend=resolved, stages=n, size=size)
            root.add("offered", int(run.offered.sum()))
            root.add("delivered", int(run.delivered.sum()))

    timings = None
    if obs.enabled():
        timings = {
            "traffic": sp_traffic.dur,
            "compile": sp_compile.dur,
            "run": sp_run.dur,
            "total": root.dur,
        }
        m = metrics()
        m.counter("sim.batches").add()
        m.counter("sim.runs").add(B)
        total_cycles = B * cycles + int(run.drain_cycles.sum())
        m.counter("sim.cycles").add(total_cycles)
        m.counter("sim.delivered").add(int(run.delivered.sum()))
        if elapsed > 0:
            m.histogram("sim.scenarios_per_s").observe(B / elapsed)
            m.histogram("sim.cycles_per_s").observe(total_cycles / elapsed)
        if top_level:
            obs.active().emit_manifest(
                RunManifest.collect(
                    kind,
                    digests,
                    backend=resolved,
                    timings=timings,
                    scenarios=B,
                )
            )

    denom = cycles * 2 * size
    default_name = network_name
    if default_name is None:
        default_name = f"midigraph(n={n}, M={size})"

    reports: list[SimReport] = []
    for i, s in enumerate(scns):
        mean_lat, p99_lat = latency_summary(
            run.lat_sorted[run.lat_bounds[i] : run.lat_bounds[i + 1]]
        )
        reports.append(
            SimReport(
                network=s.network_name or default_name,
                n_stages=n,
                size=size,
                cycles=cycles,
                drain_cycles=int(run.drain_cycles[i]),
                policy=policy,
                traffic=s.traffic.describe(),
                rate=s.traffic.rate,
                seed=s.seed,
                offered=int(run.offered[i]),
                injected=int(run.injected[i]),
                delivered=int(run.delivered[i]),
                dropped=int(run.dropped[i]),
                unroutable=int(run.unroutable[i]),
                blocked_moves=int(run.blocked_moves[i]),
                in_flight=int(run.in_flight[i]),
                total_hops=int(run.total_hops[i]),
                mean_latency=mean_lat,
                p99_latency=p99_lat,
                stage_utilization=tuple(
                    float(o) for o in run.occupancy[:, i] / denom
                ),
                elapsed=elapsed / B,
                timings=timings,
            )
        )
    return reports


def _simulate_spec_batch(specs, backend: str | None) -> list[SimReport]:
    """Group specs by batch-compatibility key and run each group batched.

    Groups follow first-appearance order of their keys; within a group
    only the traffic spec and the simulation seed vary, so the group's
    head resolves the shared network, fault sample and run parameters
    once.  Reports return in input order.
    """
    groups: "dict[str, list[int]]" = {}
    for i, spec in enumerate(specs):
        groups.setdefault(spec.group_key(), []).append(i)
    reports: list[SimReport | None] = [None] * len(specs)
    for idxs in groups.values():
        head = specs[idxs[0]].resolve()
        if head.compile_cache is not None:
            ensure_compile_cache_min(head.compile_cache)
        group_reports = _simulate_slab(
            head.network,
            [
                BatchScenario(
                    traffic=specs[i].traffic.resolve(),
                    seed=specs[i].seed,
                    network_name=specs[i].label,
                )
                for i in idxs
            ],
            cycles=head.cycles,
            policy=head.policy,
            faults=head.faults,
            drain=head.drain,
            network_name=None,
            backend=backend if backend is not None else head.backend,
            kind="batch",
        )
        for i, report in zip(idxs, group_reports):
            reports[i] = report
    return reports  # type: ignore[return-value]


def simulate_batch(
    net,
    scenarios=None,
    *,
    cycles: int | None = None,
    policy: str | None = None,
    faults: FaultSet | None = None,
    drain: bool | None = None,
    network_name: str | None = None,
    backend: str | None = None,
) -> list[SimReport]:
    """Run B scenarios through batched kernels; one report each.

    Two call forms share one implementation:

    * ``simulate_batch(specs)`` — the primary form: a list of
      :class:`~repro.spec.scenario.ScenarioSpec` values.  Specs are
      grouped by :meth:`~repro.spec.scenario.ScenarioSpec.group_key`
      (same topology, cycles, policy, drain and fault sample), each
      group resolves its network once and runs as one batched pass, and
      the reports come back in input order.  Keywords other than
      ``backend`` are forbidden — every run parameter lives in the
      specs.
    * ``simulate_batch(net, scenarios, **kwargs)`` — the low-level
      engine form: one compiled network, shared
      ``(cycles, policy, faults, drain)``, per-scenario
      :class:`BatchScenario` entries (bare
      :class:`~repro.sim.traffic.TrafficPattern` values are wrapped with
      ``seed=0``).

    Parameters
    ----------
    net:
        A list of :class:`~repro.spec.scenario.ScenarioSpec`, or any
        MI-digraph (engine form).
    scenarios:
        Engine form only: the :class:`BatchScenario` sequence.
    cycles, policy, faults, drain:
        Engine form only; as in :func:`repro.sim.engine.simulate`
        (defaults 1000 / ``"drop"`` / ``None`` / ``False``).
    network_name:
        Engine form only: default report name for scenarios that don't
        set their own.
    backend:
        Kernel backend: ``"numpy"``, ``"numba"`` or ``"auto"`` (see
        :mod:`repro.sim.kernels`).  Accepted in both call forms — it
        selects an execution strategy, never a different result, so
        unlike the run parameters it may override the specs'
        ``sim.backend``.

    Returns
    -------
    list[SimReport]
        ``scenarios[i]``'s report at index ``i``, field-for-field equal
        (``elapsed`` aside) to the sequential ``simulate`` result.
    """
    from repro.spec.scenario import ScenarioSpec

    if isinstance(net, (list, tuple)):
        if not all(isinstance(s, ScenarioSpec) for s in net):
            raise ReproError(
                "simulate_batch specs must all be ScenarioSpec values"
            )
        overrides = (scenarios, cycles, policy, faults, drain, network_name)
        if any(v is not None for v in overrides):
            raise ReproError(
                "simulate_batch(list[ScenarioSpec]) takes every run "
                "parameter from the specs; build different specs instead "
                "of passing overrides"
            )
        if not net:
            return []
        specs = list(net)
        # Spec form: one enclosing span (and, at top level, one manifest
        # carrying every spec digest) around the per-group passes.
        top_level = obs.enabled() and obs.current_span() is None
        with obs.span("simulate_batch", scenarios=len(specs)) as root:
            reports = _simulate_spec_batch(specs, backend)
        if top_level:
            obs.active().emit_manifest(
                RunManifest.collect(
                    "batch",
                    [s.digest for s in specs],
                    backend=resolve_backend(backend),
                    timings={"total": root.dur},
                )
            )
        return reports
    if scenarios is None:
        raise ReproError(
            "simulate_batch(net, scenarios, ...) needs a scenario "
            "sequence (or pass a list of ScenarioSpec)"
        )
    return _simulate_slab(
        net,
        scenarios,
        cycles=cycles,
        policy=policy,
        faults=faults,
        drain=drain,
        network_name=network_name,
        backend=backend,
        kind="batch",
    )
