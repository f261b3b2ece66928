"""Tests for the pluggable simulation kernel backends.

Three layers of guarantees:

* **Selection** — ``resolve_backend`` honours explicit names, the
  ``REPRO_SIM_BACKEND`` environment variable and availability-aware
  ``auto`` fallback, and fails loudly (with an install hint) when the
  numba backend is requested on an installation without it.
* **Fused-kernel semantics** — the numba backend's cycle loop is a plain
  Python function until it is jitted, so its logic is property-tested
  against the NumPy reference backend on *every* installation (no numba
  required): every registered traffic pattern × policy × random fault
  sets × drain must produce identical raw runs.  When numba *is*
  installed, the same property is asserted at the ``SimReport`` level
  through the public ``simulate``/``simulate_batch`` entry points
  (skip-marked otherwise, per the satellite contract).
* **Compile cache** — the LRU is keyed by structural content digest
  (equal tables share an entry across rebuilds), and its budget is
  configurable via setter, spec field and environment variable.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import ReproError
from repro.networks.benes import benes
from repro.networks.omega import omega
from repro.sim import (
    FaultSet,
    TRAFFIC_PATTERNS,
    UniformTraffic,
    compile_cache_clear,
    compile_cache_info,
    compile_network,
    network_digest,
    numba_available,
    resolve_backend,
    set_compile_cache_max,
    simulate,
    simulate_batch,
)
from repro.sim.compiled import compile_key
from repro.sim.engine import schedule_from_switch_settings
from repro.sim.kernels import (
    BACKEND_CHOICES,
    available_backends,
    get_backend,
    numba_backend,
    numpy_backend,
)
from repro.spec.scenario import (
    NetworkSpec,
    ScenarioSpec,
    SimPolicy,
    TrafficSpec,
)

# ---------------------------------------------------------------------------
# selection


class TestBackendSelection:
    def test_choices_are_stable(self):
        assert BACKEND_CHOICES == ("auto", "numpy", "numba")
        assert set(available_backends()) == {"numpy", "numba"}
        assert available_backends()["numpy"] is True

    def test_spec_layer_mirror_cannot_drift(self):
        # The spec layer duplicates the choices to avoid importing the
        # simulator; a new backend must be added in both places.
        from repro.spec import scenario as spec_scenario

        assert spec_scenario._BACKENDS == BACKEND_CHOICES

    def test_explicit_numpy_always_resolves(self):
        assert resolve_backend("numpy") == "numpy"
        assert get_backend("numpy") is numpy_backend

    def test_auto_matches_availability(self):
        expected = "numba" if numba_available() else "numpy"
        assert resolve_backend() == expected
        assert resolve_backend("auto") == expected
        assert resolve_backend(None) == expected

    def test_auto_falls_back_without_numba(self, monkeypatch):
        monkeypatch.setattr(numba_backend, "AVAILABLE", False)
        assert resolve_backend("auto") == "numpy"

    def test_auto_prefers_numba_when_available(self, monkeypatch):
        monkeypatch.setattr(numba_backend, "AVAILABLE", True)
        assert resolve_backend("auto") == "numba"

    def test_explicit_numba_without_numba_is_loud(self, monkeypatch):
        monkeypatch.setattr(numba_backend, "AVAILABLE", False)
        with pytest.raises(ReproError, match=r"\[fast\]"):
            resolve_backend("numba")

    def test_unknown_backend_rejected(self):
        with pytest.raises(ReproError, match="unknown simulation backend"):
            resolve_backend("cuda")

    def test_env_var_steers_auto(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BACKEND", "numpy")
        assert resolve_backend("auto") == "numpy"
        monkeypatch.setenv("REPRO_SIM_BACKEND", "bogus")
        with pytest.raises(ReproError, match="REPRO_SIM_BACKEND"):
            resolve_backend("auto")

    def test_explicit_name_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_BACKEND", "numba")
        assert resolve_backend("numpy") == "numpy"

    def test_simulate_rejects_unknown_backend(self):
        with pytest.raises(ReproError, match="unknown simulation backend"):
            simulate(
                omega(3), UniformTraffic(rate=0.5), cycles=5,
                backend="fortran",
            )

    def test_simpolicy_validates_backend(self):
        assert SimPolicy(backend="numba").backend == "numba"
        with pytest.raises(ReproError, match="backend"):
            SimPolicy(backend="cuda")

    def test_backend_is_not_scenario_identity(self):
        base = ScenarioSpec(
            network=NetworkSpec.catalog("omega", n=3),
            traffic=TrafficSpec.of("uniform", 0.5),
        )
        fused = ScenarioSpec(
            network=NetworkSpec.catalog("omega", n=3),
            traffic=TrafficSpec.of("uniform", 0.5),
            sim=SimPolicy(backend="numba", compile_cache=16),
        )
        assert "backend" not in fused.to_spec()
        assert base.digest == fused.digest
        assert base.group_key() == fused.group_key()


# ---------------------------------------------------------------------------
# fused-kernel semantics (python mode: runs with or without numba)


def _traffic_for(name: str, rate: float, n_in: int, seed: int):
    """A valid TrafficPattern for any registered pattern name."""
    if name == "uniform":
        return TrafficSpec.of("uniform", rate).resolve()
    if name == "hotspot":
        return TrafficSpec.of("hotspot", rate, fraction=0.4).resolve()
    if name == "bitrev":
        return TrafficSpec.of("bitrev", rate).resolve()
    if name == "transpose":
        return TrafficSpec.of("transpose", rate).resolve()
    if name == "permutation":
        perm = np.random.default_rng(seed).permutation(n_in).tolist()
        return TrafficSpec.of("permutation", rate, perm=perm).resolve()
    raise AssertionError(
        f"no test strategy for registered traffic pattern {name!r}; "
        "extend _traffic_for"
    )


# Every registered pattern (the hidden `permutation` entry included) must
# be covered, or the guard in _traffic_for fails the test run.
ALL_PATTERNS = sorted(set(TRAFFIC_PATTERNS.names()) | {"permutation"})


def _random_faults(net, n_cells, n_links, seed):
    if not (n_cells or n_links):
        return None
    return FaultSet.random(
        np.random.default_rng(seed ^ 0xFA117),
        net.n_stages,
        net.size,
        n_dead_cells=n_cells,
        n_dead_links=n_links,
    )


def _slab_runs(net, traffics, cycles, drop, drain, faults, scheds, seed):
    """Both backends' raw runs of one slab: scenario ``i`` runs
    ``traffics[i]`` seeded ``seed + i`` (and ``scheds[i]`` if given)."""
    tmats = np.empty((cycles, len(traffics), net.n_inputs), dtype=np.int32)
    for i, traffic in enumerate(traffics):
        rng = np.random.default_rng(seed + i)
        tmats[:, i] = traffic.destinations(rng, net.n_inputs, cycles)
    if scheds is not None:
        scheds = np.stack(scheds).astype(np.int8)
    comp = compile_network(net, faults)
    ref = numpy_backend.run_batch(comp, tmats, scheds, cycles, drop, drain)
    fused = numba_backend.run_batch(
        comp, tmats, scheds, cycles, drop, drain, python=True
    )
    return ref, fused


_COUNTERS = (
    "offered", "injected", "delivered", "dropped", "unroutable",
    "blocked_moves", "total_hops", "in_flight", "drain_cycles",
)


def _assert_runs_identical(ref, fused):
    for field in _COUNTERS:
        assert np.array_equal(getattr(ref, field), getattr(fused, field)), (
            field
        )
    assert np.array_equal(ref.occupancy, fused.occupancy)
    assert np.array_equal(ref.lat_bounds, fused.lat_bounds)
    assert np.array_equal(ref.lat_sorted, fused.lat_sorted)


class TestFusedKernelSemantics:
    """Python-mode fused loop vs the NumPy reference, all installs.

    The fused loop is written independently of the packet-compacted
    NumPy kernels, so it is the oracle for the one kernel entry point
    both backends share, at B=1 (a ``simulate`` call) and B>1.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        pattern=st.sampled_from(ALL_PATTERNS),
        drop=st.booleans(),
        drain=st.booleans(),
        multipath=st.booleans(),
        n_cells=st.integers(min_value=0, max_value=2),
        n_links=st.integers(min_value=0, max_value=3),
        rate=st.floats(min_value=0.2, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_single_runs_identical(
        self, pattern, drop, drain, multipath, n_cells, n_links, rate, seed
    ):
        # benes exercises the ambiguous (-2) adaptive-port path, omega
        # the unique-path tables; faults exercise links/unroutable.
        net = benes(2) if multipath else omega(4)
        faults = _random_faults(net, n_cells, n_links, seed)
        traffic = _traffic_for(pattern, rate, net.n_inputs, seed)
        ref, fused = _slab_runs(
            net, [traffic], 30, drop, drain, faults, None, seed
        )
        _assert_runs_identical(ref, fused)

    def test_every_registered_pattern_is_covered(self):
        for name in TRAFFIC_PATTERNS.names():
            assert name in ALL_PATTERNS
            _traffic_for(name, 0.5, 16, 0)

    def test_port_schedule_path_identical(self):
        from repro.permutations.permutation import Permutation
        from repro.routing.rearrangeable import benes_switch_settings
        from repro.sim import PermutationTraffic

        net = benes(3)
        rng = np.random.default_rng(11)
        perms = [Permutation.random(rng, net.n_inputs) for _ in range(3)]
        scheds = [
            schedule_from_switch_settings(net, benes_switch_settings(p))
            for p in perms
        ]
        traffics = [PermutationTraffic(p, rate=1.0) for p in perms]
        for batch in (1, 3):
            ref, fused = _slab_runs(
                net, traffics[:batch], 20, True, True, None,
                scheds[:batch], 3,
            )
            _assert_runs_identical(ref, fused)
            assert not ref.dropped.any() and not ref.unroutable.any()

    @settings(max_examples=20, deadline=None)
    @given(
        patterns=st.lists(
            st.sampled_from(ALL_PATTERNS), min_size=2, max_size=6
        ),
        drop=st.booleans(),
        drain=st.booleans(),
        multipath=st.booleans(),
        n_cells=st.integers(min_value=0, max_value=2),
        n_links=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_batch_runs_identical(
        self, patterns, drop, drain, multipath, n_cells, n_links, seed
    ):
        net = benes(2) if multipath else omega(3)
        faults = _random_faults(net, n_cells, n_links, seed)
        traffics = [
            _traffic_for(p, 0.9, net.n_inputs, seed + i)
            for i, p in enumerate(patterns)
        ]
        ref, fused = _slab_runs(
            net, traffics, 20, drop, drain, faults, None, seed
        )
        _assert_runs_identical(ref, fused)


# ---------------------------------------------------------------------------
# report-level cross-backend identity (requires the fast extra)


@pytest.mark.skipif(
    not numba_available(),
    reason="numba backend not installed (pip install -e .[fast])",
)
class TestBackendsBitIdenticalReports:
    """numpy and numba backends: byte-identical SimReports (satellite)."""

    @settings(max_examples=25, deadline=None)
    @given(
        pattern=st.sampled_from(ALL_PATTERNS),
        policy=st.sampled_from(["drop", "block"]),
        drain=st.booleans(),
        n_cells=st.integers(min_value=0, max_value=2),
        n_links=st.integers(min_value=0, max_value=2),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_simulate_reports_identical(
        self, pattern, policy, drain, n_cells, n_links, seed
    ):
        net = omega(4)
        traffic = _traffic_for(pattern, 0.8, net.n_inputs, seed)
        faults = None
        if n_cells or n_links:
            faults = FaultSet.random(
                np.random.default_rng(seed ^ 0xFA117),
                net.n_stages,
                net.size,
                n_dead_cells=n_cells,
                n_dead_links=n_links,
            )
        kwargs = dict(
            cycles=40, policy=policy, seed=seed, faults=faults, drain=drain
        )
        a = simulate(net, traffic, backend="numpy", **kwargs).to_dict()
        b = simulate(net, traffic, backend="numba", **kwargs).to_dict()
        a.pop("elapsed")
        b.pop("elapsed")
        assert a == b

    def test_simulate_batch_reports_identical(self):
        net = omega(4)
        scns = [
            UniformTraffic(rate=0.9),
            _traffic_for("hotspot", 0.7, net.n_inputs, 1),
        ]
        a = simulate_batch(net, scns, cycles=30, backend="numpy")
        b = simulate_batch(net, scns, cycles=30, backend="numba")
        for ra, rb in zip(a, b):
            da, db = ra.to_dict(), rb.to_dict()
            da.pop("elapsed")
            db.pop("elapsed")
            assert da == db

    def test_spec_backend_field_drives_the_run(self):
        spec = ScenarioSpec(
            network=NetworkSpec.catalog("omega", n=3),
            traffic=TrafficSpec.of("uniform", 0.8),
            sim=SimPolicy(cycles=30, backend="numba"),
        )
        a = simulate(spec).to_dict()
        b = simulate(spec, backend="numpy").to_dict()
        a.pop("elapsed")
        b.pop("elapsed")
        assert a == b


# ---------------------------------------------------------------------------
# compile cache: digest keying + configurable budget


@pytest.fixture()
def fresh_cache():
    compile_cache_clear()
    set_compile_cache_max(8)
    yield
    compile_cache_clear()
    set_compile_cache_max(8)


class TestCompileCacheKeying:
    def test_digest_is_structural(self):
        assert network_digest(omega(4)) == network_digest(omega(4))
        assert network_digest(omega(4)) != network_digest(omega(3))
        assert network_digest(omega(4)) != network_digest(benes(2))

    def test_key_separates_fault_sets(self):
        net = omega(3)
        fs = FaultSet(dead_cells=frozenset({(2, 0)}))
        assert compile_key(net) != compile_key(net, fs)
        assert compile_key(net, fs) == compile_key(net, fs)

    def test_rebuilt_topologies_share_an_entry(self, fresh_cache):
        a = compile_network(omega(5))
        b = compile_network(omega(5))  # a distinct, equal object
        assert a is b
        info = compile_cache_info()
        assert info["hits"] == 1 and info["misses"] == 1

    def test_budget_is_configurable_and_evicts_lru(self, fresh_cache):
        set_compile_cache_max(2)
        assert compile_cache_info()["maxsize"] == 2
        c3, c4 = compile_network(omega(3)), compile_network(omega(4))
        compile_network(omega(5))          # evicts omega(3)
        assert compile_network(omega(4)) is c4
        assert compile_network(omega(3)) is not c3  # recompiled
        with pytest.raises(ReproError, match="maxsize"):
            set_compile_cache_max(0)

    def test_shrinking_the_budget_evicts_now(self, fresh_cache):
        for n in (3, 4, 5):
            compile_network(omega(n))
        set_compile_cache_max(1)
        assert compile_cache_info()["size"] == 1

    def test_env_budget(self, fresh_cache, monkeypatch):
        from repro.sim.compiled import _env_cache_max

        monkeypatch.setenv("REPRO_SIM_COMPILE_CACHE", "32")
        assert _env_cache_max() == 32
        monkeypatch.setenv("REPRO_SIM_COMPILE_CACHE", "zero")
        with pytest.raises(ReproError, match="REPRO_SIM_COMPILE_CACHE"):
            _env_cache_max()
        monkeypatch.delenv("REPRO_SIM_COMPILE_CACHE")
        assert _env_cache_max() == 8

    def test_simpolicy_compile_cache_grows_only(self, fresh_cache):
        grow = ScenarioSpec(
            network=NetworkSpec.catalog("omega", n=3),
            traffic=TrafficSpec.of("uniform", 0.5),
            sim=SimPolicy(cycles=5, compile_cache=32),
        )
        assert "compile_cache" not in grow.to_spec()
        simulate(grow)
        assert compile_cache_info()["maxsize"] == 32
        # A smaller hint must never shrink the shared budget (that would
        # evict other callers' live compilations).
        shrink = ScenarioSpec(
            network=NetworkSpec.catalog("omega", n=3),
            traffic=TrafficSpec.of("uniform", 0.5),
            sim=SimPolicy(cycles=5, compile_cache=3),
        )
        simulate(shrink)
        assert compile_cache_info()["maxsize"] == 32
        with pytest.raises(ReproError, match="compile_cache"):
            SimPolicy(compile_cache=0)
