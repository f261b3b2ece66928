"""Tests for the traffic simulation subsystem (:mod:`repro.sim`)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ReproError
from repro.io import dumps_report, loads_report
from repro.networks.baseline import baseline
from repro.networks.benes import benes
from repro.networks.omega import omega
from repro.permutations.permutation import Permutation
from repro.routing.bit_routing import port_tables
from repro.routing.permutation_routing import (
    permutation_from_switch_settings,
)
from repro.routing.rearrangeable import benes_switch_settings
from repro.sim import (
    BatchScenario,
    BitReversalTraffic,
    FaultSet,
    HotspotTraffic,
    PermutationTraffic,
    TransposeTraffic,
    UniformTraffic,
    compile_cache_clear,
    compile_cache_info,
    compile_network,
    degraded_port_tables,
    fault_connectivity,
    make_traffic,
    permutation_port_schedule,
    schedule_from_switch_settings,
    simulate,
    simulate_batch,
    terminal_reachability,
)

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _passable_permutation(net, seed: int) -> Permutation:
    """A conflict-free permutation, generated from random switch settings."""
    rng = np.random.default_rng(seed)
    settings = [
        rng.integers(0, 2, net.size) for _ in range(net.n_stages)
    ]
    return permutation_from_switch_settings(net, settings)


class TestTraffic:
    def test_uniform_shape_and_range(self, rng):
        t = UniformTraffic(rate=1.0)
        dests = t.destinations(rng, 16, 50)
        assert dests.shape == (50, 16)
        assert dests.min() >= 0 and dests.max() < 16

    def test_rate_thins_the_schedule(self, rng):
        t = UniformTraffic(rate=0.5)
        dests = t.destinations(rng, 64, 400)
        frac = (dests >= 0).mean()
        assert 0.45 < frac < 0.55

    def test_same_seed_same_schedule(self):
        t = HotspotTraffic(rate=0.7, fraction=0.3)
        a = t.destinations(np.random.default_rng(5), 32, 100)
        b = t.destinations(np.random.default_rng(5), 32, 100)
        assert np.array_equal(a, b)

    def test_hotspot_concentrates_traffic(self, rng):
        t = HotspotTraffic(rate=1.0, fraction=0.5, hotspots=(3,))
        dests = t.destinations(rng, 32, 200)
        frac_hot = (dests == 3).mean()
        # 50% directed + 1/32 background
        assert 0.45 < frac_hot < 0.60

    def test_permutation_traffic_is_constant(self, rng):
        perm = Permutation.random(rng, 16)
        t = PermutationTraffic(perm, rate=1.0)
        dests = t.destinations(rng, 16, 10)
        assert np.array_equal(dests[0], perm.images)
        assert (dests == dests[0]).all()

    def test_bitrev_and_transpose_are_involutions(self, rng):
        for cls in (BitReversalTraffic, TransposeTraffic):
            dests = cls(rate=1.0).destinations(rng, 64, 1)[0]
            assert np.array_equal(np.sort(dests), np.arange(64))

    def test_registry_and_errors(self, rng):
        from repro.core.errors import UnknownTrafficError

        assert isinstance(make_traffic("uniform", 0.5), UniformTraffic)
        with pytest.raises(UnknownTrafficError):
            make_traffic("nope")
        with pytest.raises(ValueError):
            UniformTraffic(rate=0.0)
        with pytest.raises(ValueError):
            UniformTraffic(rate=1.5)
        with pytest.raises(ValueError):
            HotspotTraffic(fraction=2.0)
        perm = Permutation.random(rng, 8)
        with pytest.raises(ValueError):
            PermutationTraffic(perm).destinations(rng, 16, 1)


class TestEngineBasics:
    def test_packet_conservation(self, omega4):
        rep = simulate(omega4, UniformTraffic(rate=0.9), cycles=150, seed=1)
        assert rep.offered == (
            rep.delivered + rep.dropped + rep.unroutable + rep.in_flight
        )

    def test_deterministic_runs(self, omega4):
        kw = dict(cycles=120, seed=7, policy="drop")
        a = simulate(omega4, HotspotTraffic(rate=0.8), **kw).to_dict()
        b = simulate(omega4, HotspotTraffic(rate=0.8), **kw).to_dict()
        a.pop("elapsed")
        b.pop("elapsed")
        assert a == b

    def test_unblocked_latency_is_stage_count(self, omega4):
        perm = _passable_permutation(omega4, 11)
        rep = simulate(
            omega4, PermutationTraffic(perm), cycles=40, seed=0, drain=True
        )
        assert rep.mean_latency == omega4.n_stages
        assert rep.p99_latency == omega4.n_stages

    def test_drain_empties_the_network(self, omega4):
        rep = simulate(
            omega4, UniformTraffic(rate=0.6), cycles=60, seed=3, drain=True
        )
        assert rep.in_flight == 0
        assert rep.drain_cycles > 0
        assert rep.offered == rep.delivered + rep.dropped + rep.unroutable

    def test_block_policy_never_drops(self, omega4):
        rep = simulate(
            omega4, UniformTraffic(rate=1.0), cycles=100, seed=5,
            policy="block",
        )
        assert rep.dropped == 0
        assert rep.blocked_moves > 0
        assert rep.offered == rep.delivered + rep.unroutable + rep.in_flight

    def test_adversarial_traffic_blocks_banyan(self, omega4):
        # bit-reversal at full load must conflict somewhere in an Omega net
        rep = simulate(omega4, BitReversalTraffic(), cycles=50, seed=0)
        assert rep.dropped > 0
        assert rep.throughput < 1.0

    def test_benes_multipath_adaptive_routing(self):
        net = benes(3)
        rep = simulate(
            net, UniformTraffic(rate=0.5), cycles=120, seed=9, drain=True
        )
        assert rep.delivered > 0
        assert rep.unroutable == 0

    def test_bad_arguments_raise(self, omega4):
        with pytest.raises(ReproError):
            simulate(omega4, UniformTraffic(), cycles=0)
        with pytest.raises(ReproError):
            simulate(omega4, UniformTraffic(), policy="teleport")
        with pytest.raises(ReproError):
            simulate(
                omega4,
                UniformTraffic(),
                cycles=5,
                port_schedule=np.zeros((2, 2), dtype=np.int8),
            )

    def test_regression_contention_counters(self):
        """Crafted all-to-one contention, counters pinned per policy.

        Guards the contention bookkeeping in ``_move`` — in particular
        that editing the mover set can never alias into the aliveness
        mask (``movers = alive`` once silently mutated ``alive``)."""
        net = omega(4)
        crush = HotspotTraffic(rate=1.0, fraction=1.0, hotspots=(0,))
        rep = simulate(net, crush, cycles=40, seed=0, drain=True)
        assert rep.offered == rep.injected == 640
        assert rep.delivered == 40  # output 0 ejects once per cycle
        assert rep.dropped == 600
        assert rep.blocked_moves == 0
        assert rep.in_flight == 0
        assert rep.total_hops == 600
        rep = simulate(net, crush, cycles=40, seed=0, policy="block")
        assert rep.offered == 81
        assert rep.injected == 66
        assert rep.delivered == 36
        assert rep.dropped == 0
        assert rep.blocked_moves == 982
        assert rep.in_flight == 45
        assert rep.total_hops == 166

    def test_regression_seeded_hotspot_run(self):
        """Pinned numbers: any engine change that shifts behaviour shows."""
        rep = simulate(
            omega(5),
            HotspotTraffic(rate=0.8),
            cycles=200,
            seed=0,
            network_name="omega(5)",
        )
        assert rep.offered == rep.injected == 5113
        assert rep.delivered == 1979
        assert rep.dropped == 3043
        assert rep.in_flight == 91
        assert rep.total_hops == 14335
        assert rep.mean_latency == 5.0


class TestSchedules:
    def test_schedule_matches_unique_path_routing(self, omega4):
        perm = _passable_permutation(omega4, 2)
        sched = permutation_port_schedule(omega4, perm)
        assert sched.shape == (omega4.n_stages, omega4.n_inputs)
        rep = simulate(
            omega4,
            PermutationTraffic(perm),
            cycles=20,
            seed=0,
            port_schedule=sched,
            drain=True,
        )
        assert rep.dropped == 0
        assert rep.throughput == 1.0

    def test_switch_setting_schedule_realizes_perm(self):
        net = benes(3)
        perm = Permutation(np.random.default_rng(1).permutation(8))
        sched = schedule_from_switch_settings(
            net, benes_switch_settings(perm)
        )
        # last-stage port must equal the destination's low digit
        for s in range(8):
            assert sched[-1, s] == int(perm(s)) & 1

    def test_schedule_shape_validation(self):
        net = benes(2)
        with pytest.raises(ReproError):
            schedule_from_switch_settings(net, [np.zeros(2)])


class TestFaults:
    def test_empty_faultset_is_falsy_and_lossless(self, omega4):
        fs = FaultSet()
        assert not fs
        assert fault_connectivity(omega4, fs) == 1.0
        for a, b in zip(
            port_tables(omega4), degraded_port_tables(omega4, fs)
        ):
            assert np.array_equal(a, b)

    def test_dead_cell_cuts_connectivity(self, omega4):
        fs = FaultSet(dead_cells=frozenset({(2, 0)}))
        conn = fault_connectivity(omega4, fs)
        assert conn < 1.0
        reach = terminal_reachability(omega4, fs)
        assert reach.shape == (omega4.n_inputs, omega4.n_inputs)
        assert conn == pytest.approx(reach.mean())

    def test_identical_faults_across_equivalent_topologies(self):
        """The same structural fault set applies to same-shape networks."""
        rng = np.random.default_rng(13)
        fs = FaultSet.random(rng, 4, 8, n_dead_cells=2, n_dead_links=2)
        for build in (omega, baseline):
            net = build(4)
            rep = simulate(
                net, UniformTraffic(rate=0.8), cycles=80, seed=3, faults=fs
            )
            assert rep.unroutable > 0
            assert fault_connectivity(net, fs) < 1.0

    def test_unroutable_packets_are_counted_not_lost(self, omega4):
        fs = FaultSet(dead_cells=frozenset({(2, 0), (3, 1)}))
        rep = simulate(
            omega4, UniformTraffic(rate=0.9), cycles=100, seed=0,
            faults=fs, drain=True,
        )
        assert rep.unroutable > 0
        assert rep.offered == rep.delivered + rep.dropped + rep.unroutable

    def test_benes_routes_around_faults(self):
        """Multipath redundancy: a single interior dead cell leaves the
        Beneš network fully connected and the simulator finds the detour."""
        net = benes(3)
        fs = FaultSet(dead_cells=frozenset({(3, 0)}))
        assert fault_connectivity(net, fs) == 1.0
        rep = simulate(
            net, UniformTraffic(rate=0.4), cycles=100, seed=2, drain=True
        )
        assert rep.unroutable == 0

    def test_fault_validation_and_serialization(self, omega4):
        with pytest.raises(ReproError):
            FaultSet(dead_cells=frozenset({(9, 0)})).validate(omega4)
        with pytest.raises(ReproError):
            FaultSet(dead_links=frozenset({(1, 0, 5)}))
        fs = FaultSet.random(
            np.random.default_rng(0), 4, 8, n_dead_cells=1, n_dead_links=2
        )
        assert FaultSet.from_dict(fs.to_dict()) == fs

    def test_severed_half_of_double_link_forces_surviving_port(self):
        """One arc of a double link dying leaves a forced (not ambiguous)
        port: the table must say 0, never -2, or the engine could steer
        packets onto the dead arc."""
        from repro.networks.counterexamples import double_link_network

        net = double_link_network(4)
        conn = net.connections[0]
        doubles = np.flatnonzero(conn.f == conn.g)
        assert doubles.size > 0
        cell = int(doubles[0])
        fs = FaultSet(dead_links=frozenset({(1, cell, 1)}))
        table = degraded_port_tables(net, fs)[0]
        row = table[cell]
        assert not (row == -2).any()
        assert (row[row >= 0] == 0).all()

    def test_random_faults_spare_terminal_stages(self):
        fs = FaultSet.random(
            np.random.default_rng(1), 5, 16, n_dead_cells=20
        )
        stages = {s for s, _ in fs.dead_cells}
        assert stages <= {2, 3, 4}


class TestReportSerialization:
    def test_json_round_trip(self, omega4):
        rep = simulate(omega4, UniformTraffic(rate=0.5), cycles=30, seed=4)
        again = loads_report(dumps_report(rep))
        assert again == rep

    def test_summary_mentions_the_key_figures(self, omega4):
        rep = simulate(omega4, UniformTraffic(rate=0.5), cycles=30, seed=4)
        text = rep.summary()
        for token in (
            "throughput", "blocking probability", "latency", "utilization"
        ):
            assert token in text

    def test_rejects_malformed_documents(self):
        with pytest.raises(Exception):
            loads_report("{}")
        with pytest.raises(Exception):
            loads_report('{"format": "repro-simreport", "version": 99}')


@settings(max_examples=15, deadline=None)
@given(seed=seeds, n=st.integers(3, 5))
def test_property_passable_permutation_full_throughput_banyan(seed, n):
    """A conflict-free permutation at rate 1.0 is lossless on a Banyan
    network: 100% throughput, zero drops, latency exactly n."""
    net = omega(n)
    perm = _passable_permutation(net, seed)
    rep = simulate(
        net, PermutationTraffic(perm, rate=1.0), cycles=25, seed=seed,
        drain=True,
    )
    assert rep.dropped == 0
    assert rep.unroutable == 0
    assert rep.delivered == rep.offered == 25 * net.n_inputs
    assert rep.throughput == 1.0
    assert rep.mean_latency == net.n_stages


@settings(max_examples=15, deadline=None)
@given(seed=seeds, n=st.integers(2, 4))
def test_property_rearrangeable_full_throughput_any_permutation(seed, n):
    """Rearrangeability, dynamically: *any* permutation at rate 1.0 runs
    at 100% throughput with zero drops on the Beneš network when the
    looping algorithm's switch settings drive the port schedule."""
    rng = np.random.default_rng(seed)
    perm = Permutation.random(rng, 2**n)
    net = benes(n)
    sched = schedule_from_switch_settings(net, benes_switch_settings(perm))
    rep = simulate(
        net, PermutationTraffic(perm, rate=1.0), cycles=20, seed=seed,
        port_schedule=sched, drain=True,
    )
    assert rep.dropped == 0
    assert rep.unroutable == 0
    assert rep.delivered == rep.offered == 20 * net.n_inputs
    assert rep.throughput == 1.0
    assert rep.mean_latency == net.n_stages


class TestCompiledNetwork:
    def test_cache_returns_identical_object(self, omega4):
        compile_cache_clear()
        a = compile_network(omega4)
        b = compile_network(omega4)
        assert a is b
        info = compile_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_faults_key_separately(self, omega4):
        fs = FaultSet(dead_cells=frozenset({(2, 0)}))
        healthy = compile_network(omega4)
        faulted = compile_network(omega4, fs)
        assert healthy is not faulted
        assert compile_network(omega4, fs) is faulted

    def test_equal_networks_share_a_compilation(self):
        # Value-keyed: two separately built equal networks hit one entry.
        assert compile_network(omega(3)) is compile_network(omega(3))

    def test_tables_match_the_faults_module(self, omega4):
        fs = FaultSet(
            dead_cells=frozenset({(2, 1)}),
            dead_links=frozenset({(1, 0, 1)}),
        )
        comp = compile_network(omega4, fs)
        for j, table in enumerate(degraded_port_tables(omega4, fs)):
            assert np.array_equal(comp.ptabs[j], table)
        assert comp.ptabs.dtype == np.int8
        assert comp.child.dtype == np.int32
        assert not comp.links_ok[0]  # gap 1 carries the severed link

    def test_arc_target_is_linear_in_slot(self, omega4):
        comp = compile_network(omega4)
        assert np.array_equal(
            comp.arc_target, 2 * comp.child + comp.slots
        )

    def test_compiled_arrays_are_frozen(self, omega4):
        comp = compile_network(omega4)
        with pytest.raises(ValueError):
            comp.ptabs[0, 0, 0] = 0

    def test_simulate_reuses_the_compilation(self, omega4):
        compile_cache_clear()
        simulate(omega4, UniformTraffic(rate=0.5), cycles=10, seed=0)
        simulate(omega4, UniformTraffic(rate=0.5), cycles=10, seed=1)
        info = compile_cache_info()
        assert info["misses"] == 1
        assert info["hits"] >= 1


class TestVectorizedSchedules:
    """The vectorized schedule builders against scalar references."""

    @staticmethod
    def _reference_schedule_from_settings(net, settings):
        """The original per-source pure-Python implementation."""
        size = net.size
        sched = np.full((net.n_stages, 2 * size), -1, dtype=np.int8)
        signals = [[2 * x, 2 * x + 1] for x in range(size)]
        for stage in range(1, net.n_stages + 1):
            setting = np.asarray(settings[stage - 1], dtype=np.int64)
            for x in range(size):
                for slot in (0, 1):
                    sig = signals[x][slot]
                    sched[stage - 1, sig] = slot ^ int(setting[x])
            if stage == net.n_stages:
                break
            conn = net.connections[stage - 1]
            in_arcs = [[] for _ in range(size)]
            for x in range(size):
                in_arcs[int(conn.f[x])].append((x, 0))
                in_arcs[int(conn.g[x])].append((x, 1))
            nxt = [[-1, -1] for _ in range(size)]
            for y in range(size):
                for slot, (x, tag) in enumerate(sorted(in_arcs[y])):
                    src_slot = tag ^ int(setting[x])
                    nxt[y][slot] = signals[x][src_slot]
            signals = nxt
        return sched

    @pytest.mark.parametrize("build,n", [(omega, 4), (benes, 3)])
    def test_switch_setting_schedule_matches_reference(self, build, n):
        net = build(n)
        rng = np.random.default_rng(0xC0FFEE + n)
        for _ in range(5):
            settings = [
                rng.integers(0, 2, net.size) for _ in range(net.n_stages)
            ]
            got = schedule_from_switch_settings(net, settings)
            want = self._reference_schedule_from_settings(net, settings)
            assert np.array_equal(got, want)

    def test_switch_setting_shape_validation(self):
        net = benes(2)
        with pytest.raises(ReproError, match="shape"):
            schedule_from_switch_settings(
                net, [np.zeros(5)] * net.n_stages
            )

    def test_permutation_schedule_matches_route(self, omega4):
        from repro.routing.bit_routing import route

        perm = _passable_permutation(omega4, 5)
        sched = permutation_port_schedule(omega4, perm)
        for s in range(omega4.n_inputs):
            r = route(omega4, s, int(perm(s)))
            assert tuple(sched[:, s]) == r.ports

    def test_permutation_schedule_rejects_multipath(self):
        perm = Permutation(np.arange(8))
        with pytest.raises(ReproError, match="not Banyan"):
            permutation_port_schedule(benes(3), perm)


def _reports_equal(a, b) -> bool:
    da, db = a.to_dict(), b.to_dict()
    da.pop("elapsed")
    db.pop("elapsed")
    return da == db


class TestSimulateBatch:
    def test_rejects_bad_arguments(self, omega4):
        with pytest.raises(ReproError, match="at least one"):
            simulate_batch(omega4, [])
        with pytest.raises(ReproError, match="cycles"):
            simulate_batch(omega4, [UniformTraffic()], cycles=0)
        with pytest.raises(ReproError, match="policy"):
            simulate_batch(
                omega4, [UniformTraffic()], cycles=5, policy="teleport"
            )
        with pytest.raises(ReproError, match="TrafficPattern"):
            simulate_batch(omega4, ["uniform"], cycles=5)

    def test_rejects_partial_port_schedules(self, omega4):
        perm = _passable_permutation(omega4, 3)
        sched = permutation_port_schedule(omega4, perm)
        scns = [
            BatchScenario(PermutationTraffic(perm), port_schedule=sched),
            BatchScenario(UniformTraffic()),
        ]
        with pytest.raises(ReproError, match="every batch scenario"):
            simulate_batch(omega4, scns, cycles=5)

    @pytest.mark.parametrize("value", [0.7, np.nan, -1.0, 2.0])
    def test_port_schedule_entries_must_be_zero_or_one(self, omega4, value):
        # A fractional entry passes a plain range check and would be
        # cast to port 0; a NaN casts with only a warning.  Both call
        # forms must reject them.
        sched = np.full((omega4.n_stages, omega4.n_inputs), value)
        with pytest.raises(ReproError, match="must be 0 or 1"):
            simulate(
                omega4, UniformTraffic(), cycles=5, port_schedule=sched
            )
        scns = [BatchScenario(UniformTraffic(), port_schedule=sched)]
        with pytest.raises(ReproError, match="must be 0 or 1"):
            simulate_batch(omega4, scns, cycles=5)

    def test_bare_patterns_are_wrapped(self, omega4):
        (rep,) = simulate_batch(
            omega4, [UniformTraffic(rate=0.5)], cycles=20
        )
        assert _reports_equal(
            rep, simulate(omega4, UniformTraffic(rate=0.5), cycles=20)
        )

    def test_mixed_traffic_batch_matches_sequential(self, omega4):
        scns = [
            BatchScenario(UniformTraffic(rate=0.9), seed=1),
            BatchScenario(HotspotTraffic(rate=0.8), seed=2),
            BatchScenario(BitReversalTraffic(), seed=3),
            BatchScenario(TransposeTraffic(rate=0.7), seed=4),
        ]
        for rep, s in zip(simulate_batch(omega4, scns, cycles=60), scns):
            assert _reports_equal(
                rep, simulate(omega4, s.traffic, cycles=60, seed=s.seed)
            )

    def test_multipath_adaptive_batch_matches_sequential(self):
        net = benes(3)
        scns = [
            BatchScenario(UniformTraffic(rate=0.6), seed=i)
            for i in range(4)
        ]
        for rep, s in zip(
            simulate_batch(net, scns, cycles=50, drain=True), scns
        ):
            assert _reports_equal(
                rep,
                simulate(net, s.traffic, cycles=50, seed=s.seed, drain=True),
            )

    def test_port_schedule_batch_is_lossless_and_identical(self):
        net = benes(3)
        rng = np.random.default_rng(17)
        scns = []
        for _ in range(3):
            perm = Permutation(rng.permutation(8))
            scns.append(
                BatchScenario(
                    PermutationTraffic(perm),
                    seed=int(rng.integers(100)),
                    port_schedule=schedule_from_switch_settings(
                        net, benes_switch_settings(perm)
                    ),
                )
            )
        reports = simulate_batch(net, scns, cycles=20, drain=True)
        for rep, s in zip(reports, scns):
            assert rep.dropped == 0 and rep.throughput == 1.0
            assert _reports_equal(
                rep,
                simulate(
                    net, s.traffic, cycles=20, seed=s.seed,
                    port_schedule=s.port_schedule, drain=True,
                ),
            )

    def test_network_names_per_scenario(self, omega4):
        scns = [
            BatchScenario(UniformTraffic(), seed=0, network_name="alpha"),
            BatchScenario(UniformTraffic(), seed=1),
        ]
        a, b = simulate_batch(
            omega4, scns, cycles=5, network_name="fallback"
        )
        assert a.network == "alpha"
        assert b.network == "fallback"

    def test_per_scenario_drain_cycle_counts(self, omega4):
        # Scenarios empty at different times; each report must carry its
        # own sequential drain count, not the batch's last cycle.
        # A backed-up hotspot crush drains one packet per cycle under
        # "block"; the light uniform scenarios empty almost immediately.
        scns = [
            BatchScenario(UniformTraffic(rate=0.2), seed=0),
            BatchScenario(
                HotspotTraffic(rate=1.0, fraction=1.0, hotspots=(0,)),
                seed=1,
            ),
            BatchScenario(UniformTraffic(rate=0.5), seed=2),
        ]
        reports = simulate_batch(
            omega4, scns, cycles=40, policy="block", drain=True
        )
        for rep, s in zip(reports, scns):
            assert rep.in_flight == 0
            assert _reports_equal(
                rep,
                simulate(omega4, s.traffic, cycles=40, seed=s.seed,
                         policy="block", drain=True),
            )
        assert len({r.drain_cycles for r in reports}) > 1


@settings(max_examples=12, deadline=None)
@given(seed=seeds)
def test_property_batch_reports_equal_sequential(seed):
    """The regression oracle: ``simulate_batch`` is field-for-field the
    sequential ``simulate`` across policies, faults and drain."""
    rng = np.random.default_rng(seed)
    net = omega(4)
    policy = ("drop", "block")[int(rng.integers(0, 2))]
    drain = bool(rng.integers(0, 2)) and policy == "drop"
    faults = None
    if rng.integers(0, 2):
        faults = FaultSet.random(
            rng, 4, 8,
            n_dead_cells=int(rng.integers(0, 3)),
            n_dead_links=int(rng.integers(0, 3)),
        )
    scns = [
        BatchScenario(UniformTraffic(rate=0.9), seed=int(rng.integers(99))),
        BatchScenario(
            HotspotTraffic(rate=0.7, fraction=0.5),
            seed=int(rng.integers(99)),
        ),
        BatchScenario(BitReversalTraffic(), seed=int(rng.integers(99))),
    ]
    kw = dict(cycles=50, policy=policy, faults=faults, drain=drain)
    for rep, s in zip(simulate_batch(net, scns, **kw), scns):
        want = simulate(net, s.traffic, seed=s.seed, **kw)
        a, b = want.to_dict(), rep.to_dict()
        a.pop("elapsed")
        b.pop("elapsed")
        assert a == b


@settings(max_examples=10, deadline=None)
@given(seed=seeds)
def test_property_conservation_under_any_policy_and_faults(seed):
    """Offered packets are always fully accounted for."""
    rng = np.random.default_rng(seed)
    net = omega(4)
    fs = FaultSet.random(rng, 4, 8, n_dead_cells=int(rng.integers(0, 3)))
    policy = ("drop", "block")[int(rng.integers(0, 2))]
    rep = simulate(
        net, UniformTraffic(rate=0.8), cycles=60, seed=seed,
        policy=policy, faults=fs,
    )
    assert rep.offered == (
        rep.delivered + rep.dropped + rep.unroutable + rep.in_flight
    )
    if policy == "block":
        assert rep.dropped == 0
