"""The cycle-based packet simulator: model, entry point and port schedules.

Model
-----
Each stage cell is a 2×2 switch with one buffer slot per input link, so a
stage holds at most ``N = 2M`` packets.  A cycle proceeds back-to-front:

1. last-stage packets eject through out-port ``dst & 1`` (two packets of
   one cell wanting the same output link contend);
2. stage ``j`` packets move to stage ``j + 1`` — the out-port comes from
   the fault-aware port tables (or a precomputed per-source schedule), the
   in-slot at the next cell from the same ``(parent, tag)`` ordering used
   by :func:`repro.routing.permutation_routing.permutation_from_switch_settings`;
3. sources draw new packets from the traffic schedule into a one-deep
   buffer and inject into free first-stage slots.

Contention is resolved oldest-packet-first (ties to slot 0), which makes
runs deterministic and guarantees drain progress.  Losers are discarded
under the ``"drop"`` policy and held in place under the ``"block"``
policy (block-and-retry with back-pressure onto the sources).

:func:`simulate` is a batch of one: it resolves its inputs and hands a
single scenario to the orchestration path of :mod:`repro.sim.batch`,
which generates the traffic, compiles the network, runs one kernel call
and builds the report.  Everything that depends only on
``(topology, faults)`` — port tables, alive masks, child/slot tables,
reachability — lives in a cached
:class:`~repro.sim.compiled.CompiledNetwork`, so repeated runs on one
network skip that work entirely.

The cycle loop itself runs on a pluggable *kernel backend*
(:mod:`repro.sim.kernels`): the ``numpy`` reference kernels, or the
``numba`` backend that JIT-compiles the whole fused loop when the
optional numba package is installed.  Reports are bit-identical across
backends (``elapsed`` aside); selection comes from the ``backend``
keyword / :class:`~repro.spec.scenario.SimPolicy` field (``"auto"``
prefers numba when available) and the ``REPRO_SIM_BACKEND`` environment
variable.

Ambiguous port table entries (``-2``: both ports reach, e.g. everywhere on
the Beneš network) are resolved adaptively toward the port whose target
slot is free.  For conflict-free operation on rearrangeable networks, pass
a ``port_schedule`` built by :func:`schedule_from_switch_settings` from
the looping algorithm's switch settings instead.
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import ReproError
from repro.core.midigraph import MIDigraph
from repro.obs import trace as obs
from repro.sim.batch import BatchScenario, _simulate_slab
from repro.sim.compiled import compile_network, ensure_compile_cache_min
from repro.sim.faults import FaultSet
from repro.sim.metrics import SimReport
from repro.sim.traffic import TrafficPattern

__all__ = [
    "permutation_port_schedule",
    "schedule_from_switch_settings",
    "simulate",
]


def schedule_from_switch_settings(
    net: MIDigraph, settings: list[np.ndarray]
) -> np.ndarray:
    """Per-source out-port schedule realized by a switch configuration.

    Returns an ``(n_stages, N)`` int8 array: entry ``[j, s]`` is the port
    the packet injected at input link ``s`` takes at stage ``j + 1``.  Fed
    to :func:`simulate` as ``port_schedule`` this reproduces the circuit
    configuration packet by packet — e.g. the conflict-free realizations
    of :func:`repro.routing.rearrangeable.benes_switch_settings`.

    Whole-stage vectorized: signals are traced through the switch
    settings with the cached child/slot tables of the compiled network,
    one ``O(M)`` step per stage.
    """
    if len(settings) != net.n_stages:
        raise ReproError(
            f"need one setting array per stage ({net.n_stages}), "
            f"got {len(settings)}"
        )
    size = net.size
    comp = compile_network(net)
    sched = np.full((net.n_stages, 2 * size), -1, dtype=np.int8)
    ports = np.arange(2, dtype=np.int64)[None, :]  # [[0, 1]]
    # signals[x, slot]: the input link whose packet sits in (cell x, slot).
    signals = np.arange(2 * size, dtype=np.int64).reshape(size, 2)
    for stage in range(1, net.n_stages + 1):
        setting = np.asarray(settings[stage - 1], dtype=np.int64)
        if setting.shape != (size,):
            raise ReproError(
                f"stage {stage} setting must have shape ({size},), "
                f"got {setting.shape}"
            )
        # The signal in slot s of cell x exits through port s ^ setting[x].
        sched[stage - 1][signals] = (ports ^ setting[:, None]).astype(
            np.int8
        )
        if stage == net.n_stages:
            break
        child = comp.child[stage - 1]
        slots = comp.slots[stage - 1]
        nxt = np.empty_like(signals)
        xs = np.arange(size)
        for tag in (0, 1):
            # The (x, tag) arc lands in slot slots[x, tag] of its child
            # and carries the signal that exits x through port `tag`.
            nxt[child[:, tag], slots[:, tag]] = signals[xs, tag ^ setting]
        signals = nxt
    return sched


def permutation_port_schedule(net: MIDigraph, perm) -> np.ndarray:
    """The unique-path port schedule routing ``s → perm(s)`` on a Banyan net.

    All ``N`` routes are walked simultaneously against the compiled
    network's cached reachability — one vectorized stage step instead of
    ``N`` scalar :func:`repro.routing.bit_routing.route` calls.  For
    multipath networks use :func:`schedule_from_switch_settings` instead.
    """
    if perm.n != net.n_inputs:
        raise ReproError(
            f"permutation acts on {perm.n} links, network has "
            f"{net.n_inputs}"
        )
    comp = compile_network(net)
    n, n_in = net.n_stages, net.n_inputs
    images = np.asarray(perm.images, dtype=np.int64)
    dcell = images >> 1
    cells = np.arange(n_in, dtype=np.int64) >> 1
    sched = np.empty((n, n_in), dtype=np.int8)
    for stage in range(1, n):
        conn = net.connections[stage - 1]
        fa, ga = conn.f[cells], conn.g[cells]
        via_f = comp.reach[stage][fa, dcell]
        via_g = comp.reach[stage][ga, dcell]
        if ((fa == ga) & via_f).any():
            raise ReproError(
                f"double link on a route at stage {stage}: "
                "no unique path (Figure 5 degeneracy)"
            )
        if (via_f & via_g).any():
            raise ReproError(
                f"two routes from stage {stage} toward an output: "
                "network is not Banyan"
            )
        if not (via_f | via_g).all():
            s = int(np.flatnonzero(~(via_f | via_g))[0])
            raise ReproError(
                f"output cell {int(dcell[s])} unreachable from stage "
                f"{stage} cell {int(cells[s])}"
            )
        sched[stage - 1] = np.where(via_f, 0, 1)
        cells = np.where(via_f, fa, ga)
    sched[n - 1] = (images & 1).astype(np.int8)
    return sched


def simulate(
    net,
    traffic: TrafficPattern | None = None,
    *,
    cycles: int | None = None,
    policy: str | None = None,
    seed: int | None = None,
    faults: FaultSet | None = None,
    port_schedule: np.ndarray | None = None,
    drain: bool | None = None,
    network_name: str | None = None,
    backend: str | None = None,
) -> SimReport:
    """Run a cycle-based traffic simulation and return its report.

    Two call forms share one implementation:

    * ``simulate(spec)`` — the primary form: a
      :class:`~repro.spec.scenario.ScenarioSpec` is resolved through the
      registries (network, traffic pattern, fault sample) and run; every
      run parameter comes from the spec, so passing ``traffic`` or any
      keyword other than ``port_schedule`` and ``backend`` alongside a
      spec is an error (build a new spec instead — they are cheap and
      frozen).
    * ``simulate(net, traffic, **kwargs)`` — the low-level engine form
      for callers that already hold concrete objects (the property
      tests, port-schedule experiments).

    Either way the run is a batch of one through
    :mod:`repro.sim.batch`, so its report equals that scenario's report
    from any ``simulate_batch`` slab (``elapsed`` aside).

    Parameters
    ----------
    net:
        A :class:`~repro.spec.scenario.ScenarioSpec`, or any MI-digraph.
        Unique-path (Banyan) networks route by destination tag;
        multipath networks resolve ambiguity adaptively.
    traffic:
        A :class:`~repro.sim.traffic.TrafficPattern` (destination process
        plus injection rate); engine form only.
    cycles:
        Number of injection cycles (default 1000).
    policy:
        ``"drop"`` (default) — contention losers are discarded;
        ``"block"`` — losers retry next cycle and back-pressure reaches
        the sources.
    seed:
        Seed for the traffic schedule (default 0); runs are
        bit-deterministic.
    faults:
        Optional :class:`~repro.sim.faults.FaultSet`; routing degrades
        reachability-aware and packets with no live path count as
        ``unroutable``.
    port_schedule:
        Optional ``(n_stages, N)`` per-source port override (see
        :func:`schedule_from_switch_settings`); accepted in both forms.
    drain:
        After the injection cycles, keep simulating until the network
        empties (progress is guaranteed by oldest-first arbitration).
    network_name:
        Display name for the report (defaults to the repr shape).
    backend:
        Kernel backend: ``"numpy"``, ``"numba"`` or ``"auto"``
        (see :mod:`repro.sim.kernels`).  Accepted in both call forms —
        it selects an execution strategy, never a different result, so
        unlike the run parameters it may override a spec's
        ``sim.backend``.
    """
    from repro.spec.scenario import ScenarioSpec

    digests = ()
    if isinstance(net, ScenarioSpec):
        if obs.enabled():
            digests = (net.digest,)
        overrides = (cycles, policy, seed, faults, drain, network_name)
        if traffic is not None or any(v is not None for v in overrides):
            raise ReproError(
                "simulate(ScenarioSpec) takes every run parameter from "
                "the spec; build a different spec instead of passing "
                "overrides"
            )
        r = net.resolve()
        net, traffic = r.network, r.traffic
        cycles, policy, seed = r.cycles, r.policy, r.seed
        faults, drain, network_name = r.faults, r.drain, r.label
        if backend is None:
            backend = r.backend
        if r.compile_cache is not None:
            ensure_compile_cache_min(r.compile_cache)
    elif traffic is None:
        raise ReproError(
            "simulate(net, traffic, ...) needs a TrafficPattern (or "
            "pass a single ScenarioSpec)"
        )
    scenario = BatchScenario(
        traffic=traffic,
        seed=0 if seed is None else seed,
        port_schedule=port_schedule,
    )
    (report,) = _simulate_slab(
        net,
        [scenario],
        cycles=cycles,
        policy=policy,
        faults=faults,
        drain=drain,
        network_name=network_name,
        backend=backend,
        kind="simulate",
        digests=digests,
    )
    return report
