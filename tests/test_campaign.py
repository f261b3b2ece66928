"""Tests for the campaign engine: specs, store, runner, aggregation.

The load-bearing properties: the same spec always expands to the same
hash-keyed scenarios and the same reports (bit-determinism), a killed run
resumes into the same logical store as an uninterrupted one, and the
aggregate report is byte-identical either way.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign import (
    CampaignSpec,
    ResultStore,
    aggregate_rows,
    aggregate_table,
    dumps_aggregate,
    expand_scenarios,
    head_to_head,
    head_to_head_table,
    load_records,
    run_campaign,
    run_scenario,
)
from repro.core.errors import ReproError, UnknownNetworkError
from repro.spec import scenario_digest
from repro.io import dump_campaign, dump_network, load_campaign, loads_campaign
from repro.networks.catalog import (
    CLASSICAL_NETWORKS,
    NETWORK_CATALOG,
    build_network,
)
from repro.networks.omega import omega


def tiny_spec(**overrides) -> CampaignSpec:
    defaults = dict(
        topologies=("omega", "baseline"),
        stages=(3,),
        traffic=("uniform",),
        rates=(0.8,),
        faults=(0, 2),
        seeds=(0, 1),
        cycles=30,
    )
    defaults.update(overrides)
    return CampaignSpec(**defaults)


def _deterministic(report: dict) -> dict:
    return {k: v for k, v in report.items() if k != "elapsed"}


class TestCatalog:
    def test_benes_is_registered(self):
        assert "benes" in NETWORK_CATALOG
        net = build_network("benes", 3)
        assert net.n_stages == 5 and net.size == 4

    def test_catalog_extends_classical(self):
        assert set(NETWORK_CATALOG) == set(CLASSICAL_NETWORKS) | {
            "benes", "omega_k", "baseline_k",
            "extra_stage_omega", "extra_stage_cube", "omega_3dp",
            "benes_variant",
        }
        # The file loader resolves but stays out of the public listing.
        assert "file" in NETWORK_CATALOG
        assert "file" not in set(NETWORK_CATALOG)

    def test_classical_registry_untouched(self):
        # benes is not baseline-equivalent; it must stay out of the
        # equivalence experiments' registry.
        assert "benes" not in CLASSICAL_NETWORKS
        assert len(CLASSICAL_NETWORKS) == 6

    def test_unknown_name_rejected(self):
        with pytest.raises(UnknownNetworkError, match="benes") as err:
            build_network("hypercube", 4)
        assert "benes" in err.value.candidates
        assert isinstance(err.value, ReproError)


class TestSpecValidation:
    def test_defaults_are_valid(self):
        assert CampaignSpec().n_scenarios == 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"topologies": ()},
            {"topologies": ("hypercube",)},
            {"topologies": ({"name": "omega", "bogus": 1},)},
            {"stages": (1,)},
            {"traffic": ("warp",)},
            {"traffic": ({"name": "uniform", "rate": 0.5},)},
            {"traffic": ({"name": "permutation"},)},
            {"traffic": ({"name": "uniform", "bogus": 1},)},
            {"traffic": ({"name": "hotspot", "fraction": 1.5},)},
            {"traffic": ({"name": "permutation", "perm": [0, 0]},)},
            {"rates": (0.0,)},
            {"rates": (1.5,)},
            {"faults": (-1,)},
            {"faults": ({"cells": 1, "bogus": 2},)},
            {"faults": (2, {"cells": 2})},
            {"seeds": (0, 0)},
            {"seeds": (-1,)},
            {"seeds": (1_000_003,)},
            {"fault_seed_base": -1},
            {"cycles": 0},
            {"policy": "retry"},
        ],
    )
    def test_bad_specs_rejected(self, kwargs):
        with pytest.raises(ReproError):
            tiny_spec(**kwargs)

    def test_scalar_axes_are_wrapped(self):
        spec = CampaignSpec(topologies="omega", stages=4, seeds=0)
        assert spec.topologies == ("omega",)
        assert spec.n_scenarios == 1

    def test_round_trip_through_dict(self):
        spec = tiny_spec(traffic=({"name": "hotspot", "fraction": 0.3},))
        again = CampaignSpec.from_dict(spec.to_dict())
        assert again.to_dict() == spec.to_dict()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ReproError, match="unknown campaign spec"):
            CampaignSpec.from_dict({"cadence": 3})


class TestCampaignIO:
    def test_json_round_trip(self, tmp_path):
        spec = tiny_spec(faults=({"cells": 1, "links": 2},))
        path = tmp_path / "grid.json"
        dump_campaign(spec, path)
        doc = json.loads(path.read_text())
        assert doc["format"] == "repro-campaign"
        assert doc["version"] == 1
        assert load_campaign(path).to_dict() == spec.to_dict()

    def test_wrong_format_rejected(self):
        from repro.core.errors import InvalidNetworkError

        with pytest.raises(InvalidNetworkError, match="repro-campaign"):
            loads_campaign('{"format": "repro-midigraph", "version": 1}')


class TestExpansion:
    def test_grid_cardinality(self):
        spec = tiny_spec()
        scenarios = expand_scenarios(spec)
        assert len(scenarios) == spec.n_scenarios == 2 * 1 * 1 * 2 * 2

    def test_expansion_is_deterministic(self):
        a = expand_scenarios(tiny_spec())
        b = expand_scenarios(tiny_spec())
        assert [s.hash for s in a] == [s.hash for s in b]
        assert [s.to_dict() for s in a] == [s.to_dict() for s in b]

    def test_hashes_are_unique(self):
        scenarios = expand_scenarios(tiny_spec())
        assert len({s.hash for s in scenarios}) == len(scenarios)

    def test_hash_is_canonical_over_key_order(self):
        doc = expand_scenarios(tiny_spec())[0].to_dict()
        shuffled = dict(reversed(list(doc.items())))
        assert scenario_digest(doc) == scenario_digest(shuffled)

    def test_fault_seed_is_topology_independent(self):
        # Same grid point, different topology => identical fault seed, so
        # same-shape topologies are degraded by the identical fault set.
        scenarios = expand_scenarios(tiny_spec())
        by_topo: dict[str, dict] = {}
        for s in scenarios:
            by_topo.setdefault(s.label, {})[
                (s.fault_cells, s.fault_links, s.seed)
            ] = s.fault_seed
        assert by_topo["omega(3)"] == by_topo["baseline(3)"]

    def test_faultfree_scenarios_pin_fault_seed_to_zero(self):
        for s in expand_scenarios(tiny_spec()):
            if not (s.fault_cells or s.fault_links):
                assert s.fault_seed == 0
            else:
                assert s.fault_seed != 0

    def test_duplicate_grid_points_rejected(self):
        with pytest.raises(ReproError, match="duplicate"):
            expand_scenarios(tiny_spec(stages=(3, 3)))

    def test_custom_labels_span_the_stages_axis(self):
        spec = tiny_spec(
            topologies=({"name": "omega", "label": "Om"},),
            stages=(3, 4),
            faults=(0,),
            seeds=(0,),
        )
        labels = {s.label for s in expand_scenarios(spec)}
        assert labels == {"Om(3)", "Om(4)"}
        single = tiny_spec(
            topologies=({"name": "omega", "label": "Om"},),
            faults=(0,),
            seeds=(0,),
        )
        assert {s.label for s in expand_scenarios(single)} == {"Om"}

    def test_two_permutation_patterns_stay_distinct(self, tmp_path):
        # Both describe() as "permutation"; they must aggregate as two
        # separate grid cells, not collide.
        spec = tiny_spec(
            topologies=("omega",),
            traffic=(
                {"name": "permutation", "perm": [1, 0, 3, 2, 5, 4, 7, 6]},
                {"name": "permutation", "perm": [7, 6, 5, 4, 3, 2, 1, 0]},
            ),
            faults=(0,),
            seeds=(0,),
        )
        run_campaign(spec, tmp_path / "s.jsonl")
        rows = aggregate_rows(load_records(tmp_path / "s.jsonl"))
        assert len(rows) == 2


class TestFileTopologies:
    def test_file_entries_expand_with_digest(self, tmp_path):
        path = tmp_path / "net.json"
        dump_network(omega(3), path)
        spec = tiny_spec(
            topologies=("baseline", {"file": "net.json", "label": "saved"}),
            faults=(0,),
            seeds=(0,),
        )
        scenarios = expand_scenarios(spec, base_dir=tmp_path)
        labels = {s.label for s in scenarios}
        assert labels == {"baseline(3)", "saved"}
        (file_scn,) = [s for s in scenarios if s.label == "saved"]
        assert file_scn.topology["kind"] == "file"
        assert len(file_scn.topology["digest"]) == 16

    def test_stages_axis_ignored_for_files(self, tmp_path):
        path = tmp_path / "net.json"
        dump_network(omega(3), path)
        spec = tiny_spec(
            topologies=(str(path),), stages=(3, 4), faults=(0,), seeds=(0,)
        )
        assert spec.n_scenarios == 1
        assert len(expand_scenarios(spec)) == 1

    def test_hash_is_path_spelling_independent(self, tmp_path, monkeypatch):
        # Resuming via a different path spelling (relative vs absolute)
        # must not change scenario identities.
        path = tmp_path / "net.json"
        dump_network(omega(3), path)
        spec_abs = tiny_spec(
            topologies=(str(path),), faults=(0,), seeds=(0,)
        )
        monkeypatch.chdir(tmp_path)
        spec_rel = tiny_spec(topologies=("net.json",), faults=(0,), seeds=(0,))
        (a,) = expand_scenarios(spec_abs)
        (b,) = expand_scenarios(spec_rel)
        assert a.topology["path"] != b.topology["path"]
        assert a.hash == b.hash

    def test_duplicate_labels_rejected(self, tmp_path):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        dump_network(omega(3), tmp_path / "a" / "net.json")
        dump_network(omega(3), tmp_path / "b" / "net.json")
        spec = tiny_spec(topologies=("a/net.json", "b/net.json"))
        with pytest.raises(ReproError, match="duplicate topology labels"):
            expand_scenarios(spec, base_dir=tmp_path)

    def test_missing_file_fails_at_expansion(self):
        spec = tiny_spec(topologies=("nowhere/net.json",))
        with pytest.raises(ReproError, match="cannot read"):
            expand_scenarios(spec)

    def test_changed_file_fails_in_worker(self, tmp_path):
        path = tmp_path / "net.json"
        dump_network(omega(3), path)
        spec = tiny_spec(topologies=(str(path),), faults=(0,), seeds=(0,))
        (scenario,) = expand_scenarios(spec)
        dump_network(omega(4), path)
        with pytest.raises(ReproError, match="changed since"):
            run_scenario(scenario)

    def test_file_scenario_simulates(self, tmp_path):
        path = tmp_path / "net.json"
        dump_network(omega(3), path)
        spec = tiny_spec(topologies=(str(path),), faults=(0,), seeds=(0,))
        (scenario,) = expand_scenarios(spec)
        report = run_scenario(scenario)
        assert report.delivered > 0
        assert report.network == "net"


class TestResultStore:
    def test_append_and_read_back(self, tmp_path):
        store = ResultStore(tmp_path / "s.jsonl")
        store.append("abc", {"seed": 0}, {"delivered": 3})
        store.append("def", {"seed": 1}, {"delivered": 4})
        records = list(store.records())
        assert [r["hash"] for r in records] == ["abc", "def"]
        assert store.hashes() == {"abc", "def"}
        assert len(store) == 2 and "abc" in store

    def test_missing_file_is_empty(self, tmp_path):
        store = ResultStore(tmp_path / "nope.jsonl")
        assert not store.exists()
        assert list(store.records()) == []

    def test_torn_tail_is_skipped(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        store.append("abc", {}, {})
        store.append("def", {}, {})
        lines = path.read_text().splitlines(keepends=True)
        torn = "".join(lines[:-1]) + lines[-1][: len(lines[-1]) // 2]
        path.write_text(torn)  # crash mid-write of the last record
        assert store.hashes() == {"abc"}

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = tmp_path / "s.jsonl"
        store = ResultStore(path)
        store.append("abc", {}, {})
        with open(path, "a") as fh:
            fh.write("{broken\n")
        store.append("def", {}, {})
        with pytest.raises(ReproError, match="corrupt record"):
            list(store.records())

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "s.jsonl"
        path.write_text('{"format": "repro-midigraph", "version": 1}\n')
        with pytest.raises(ReproError, match="repro-campaign-store"):
            list(ResultStore(path).records())


class TestRunner:
    def test_reports_are_deterministic(self):
        scenario = expand_scenarios(tiny_spec())[0]
        a = run_scenario(scenario).to_dict()
        b = run_scenario(scenario.to_dict()).to_dict()
        assert _deterministic(a) == _deterministic(b)

    def test_inline_run_fills_the_store(self, tmp_path):
        spec = tiny_spec()
        summary = run_campaign(spec, tmp_path / "s.jsonl")
        cache = summary.pop("compile_cache")
        faults = summary.pop("faults")
        assert all(v == 0 for v in faults.values())
        assert summary == {
            "total": 8, "skipped": 0, "ran": 8,
            "quarantined": 0, "quarantined_skipped": 0,
            "quarantine": None,
            "store": str(tmp_path / "s.jsonl"),
        }
        # Every group compiles at most once; the sweep's accounting
        # exposes the worker-aggregated compile-cache counters.
        assert cache["misses"] >= 1
        assert cache["hits"] >= 0
        hashes = {s.hash for s in expand_scenarios(spec)}
        assert ResultStore(tmp_path / "s.jsonl").hashes() == hashes

    def test_pool_run_matches_inline_run(self, tmp_path):
        spec = tiny_spec(seeds=(0,))
        run_campaign(spec, tmp_path / "inline.jsonl", workers=1)
        run_campaign(spec, tmp_path / "pool.jsonl", workers=2)
        inline = {
            r["hash"]: _deterministic(r["report"])
            for r in load_records(tmp_path / "inline.jsonl")
        }
        pool = {
            r["hash"]: _deterministic(r["report"])
            for r in load_records(tmp_path / "pool.jsonl")
        }
        assert inline == pool

    def test_existing_store_requires_resume(self, tmp_path):
        spec = tiny_spec(seeds=(0,), faults=(0,))
        run_campaign(spec, tmp_path / "s.jsonl")
        with pytest.raises(ReproError, match="resume"):
            run_campaign(spec, tmp_path / "s.jsonl")

    def test_complete_store_resumes_to_noop(self, tmp_path):
        spec = tiny_spec()
        run_campaign(spec, tmp_path / "s.jsonl")
        summary = run_campaign(spec, tmp_path / "s.jsonl", resume=True)
        assert summary["ran"] == 0 and summary["skipped"] == 8

    def test_bad_worker_count_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="workers"):
            run_campaign(tiny_spec(), tmp_path / "s.jsonl", workers=0)


class TestBatchedRunner:
    """Group-batched dispatch must be invisible in the store contents."""

    def _clean_reports(self, path) -> dict:
        return {
            r["hash"]: _deterministic(r["report"])
            for r in load_records(path)
        }

    def test_group_key_partitions_by_fault_sample(self):
        scenarios = expand_scenarios(tiny_spec())
        keys = {}
        for s in scenarios:
            keys.setdefault(s.group_key(), []).append(s)
        # 2 topologies x 2 fault entries; seeds share a group only when
        # the fault sample (hence fault seed) is shared.
        for group in keys.values():
            assert len({
                (s.label, s.fault_cells, s.fault_links, s.fault_seed)
                for s in group
            }) == 1
        faultfree = [
            ss for ss in keys.values() if ss[0].fault_cells == 0
        ]
        assert all(len(ss) == 2 for ss in faultfree)  # both seeds fused

    def test_batched_store_matches_per_scenario_store(self, tmp_path):
        spec = tiny_spec(traffic=("uniform", "hotspot"))
        run_campaign(spec, tmp_path / "one.jsonl", batch=1)
        run_campaign(spec, tmp_path / "many.jsonl", batch=16)
        assert self._clean_reports(
            tmp_path / "one.jsonl"
        ) == self._clean_reports(tmp_path / "many.jsonl")
        assert dumps_aggregate(
            load_records(tmp_path / "one.jsonl")
        ) == dumps_aggregate(load_records(tmp_path / "many.jsonl"))

    def test_pooled_batched_run_matches_inline(self, tmp_path):
        spec = tiny_spec()
        run_campaign(spec, tmp_path / "inline.jsonl", batch=4)
        run_campaign(spec, tmp_path / "pool.jsonl", batch=4, workers=2)
        assert self._clean_reports(
            tmp_path / "inline.jsonl"
        ) == self._clean_reports(tmp_path / "pool.jsonl")

    def test_interrupted_batched_run_resumes_identically(self, tmp_path):
        spec = tiny_spec()
        run_campaign(spec, tmp_path / "full.jsonl", batch=1)
        want = dumps_aggregate(load_records(tmp_path / "full.jsonl"))
        path = tmp_path / "partial.jsonl"

        class Die(Exception):
            pass

        def bomb(record, done, total):
            if done == 3:
                raise Die

        with pytest.raises(Die):
            run_campaign(spec, path, batch=16, progress=bomb)
        assert len(ResultStore(path)) == 3
        summary = run_campaign(spec, path, batch=16, resume=True)
        assert summary["skipped"] == 3 and summary["ran"] == 5
        assert dumps_aggregate(load_records(path)) == want

    def test_bad_batch_rejected(self, tmp_path):
        with pytest.raises(ReproError, match="batch"):
            run_campaign(tiny_spec(), tmp_path / "s.jsonl", batch=0)

    def test_topology_cache_memoizes_within_a_process(self, tmp_path):
        from repro.spec import NetworkSpec

        doc = {"kind": "catalog", "name": "omega", "n": 4, "label": "om"}
        a = NetworkSpec.from_spec(doc)
        assert a.resolve() is NetworkSpec.from_spec(dict(doc)).resolve()
        from repro.io import dump_network

        path = tmp_path / "net.json"
        dump_network(build_network("omega", 3), path)
        spec = tiny_spec(topologies=(str(path),), faults=(0,), seeds=(0,))
        (scn,) = expand_scenarios(spec)
        pinned = NetworkSpec.from_spec(scn.topology)
        assert pinned.resolve() is pinned.resolve()
        # Un-pinned file entries are never cached (content unverified).
        unpinned = NetworkSpec.from_spec(
            {k: v for k, v in scn.topology.items() if k != "digest"}
        )
        assert unpinned.cache_key() is None
        assert unpinned.resolve() is not unpinned.resolve()


class TestResume:
    """Killing a run mid-sweep and resuming == never having been killed."""

    def _uninterrupted(self, tmp_path):
        spec = tiny_spec()
        path = tmp_path / "full.jsonl"
        run_campaign(spec, path)
        return spec, dumps_aggregate(load_records(path))

    def test_interrupt_then_resume_is_identical(self, tmp_path):
        spec, want = self._uninterrupted(tmp_path)
        path = tmp_path / "partial.jsonl"

        class Die(Exception):
            pass

        def bomb(record, done, total):
            if done == 3:
                raise Die  # the kill, after three stored scenarios

        with pytest.raises(Die):
            run_campaign(spec, path, progress=bomb)
        assert len(ResultStore(path)) == 3
        summary = run_campaign(spec, path, resume=True)
        assert summary["skipped"] == 3 and summary["ran"] == 5
        assert dumps_aggregate(load_records(path)) == want

    def test_torn_write_then_resume_is_identical(self, tmp_path):
        spec, want = self._uninterrupted(tmp_path)
        path = tmp_path / "torn.jsonl"
        run_campaign(spec, path)
        text = path.read_text()
        lines = text.splitlines(keepends=True)
        torn = "".join(lines[:5]) + lines[5][: len(lines[5]) // 2]
        path.write_text(torn)  # SIGKILL mid-append
        summary = run_campaign(spec, path, resume=True)
        assert summary["skipped"] == 4 and summary["ran"] == 4
        assert dumps_aggregate(load_records(path)) == want

    def test_aggregate_is_order_independent(self, tmp_path):
        spec, want = self._uninterrupted(tmp_path)
        records = load_records(tmp_path / "full.jsonl")
        shuffled = ResultStore(tmp_path / "shuffled.jsonl")
        for record in reversed(records):
            shuffled.append(
                record["hash"], record["scenario"], record["report"]
            )
        assert dumps_aggregate(load_records(shuffled)) == want


class TestAggregation:
    @pytest.fixture(scope="class")
    def records(self, tmp_path_factory):
        spec = tiny_spec(topologies=("omega", "baseline", "flip"))
        path = tmp_path_factory.mktemp("agg") / "s.jsonl"
        run_campaign(spec, path)
        return load_records(path)

    def test_rows_group_over_seeds(self, records):
        rows = aggregate_rows(records)
        # 3 topologies x 2 fault levels, each averaging the 2 seeds.
        assert len(rows) == 6
        assert all(row["seeds"] == 2 for row in rows)
        assert all(0.0 < row["throughput_mean"] <= 1.0 for row in rows)

    def test_equivalent_topologies_match(self, records):
        entries = head_to_head(records)
        # 3 pairs x 2 fault levels, all under identical traffic + faults.
        assert len(entries) == 6
        assert all(not e["divergent"] for e in entries)

    def test_faults_hurt_throughput(self, records):
        rows = {
            (r["topology"], r["fault_cells"]): r["throughput_mean"]
            for r in aggregate_rows(records)
        }
        for topo in ("omega(3)", "baseline(3)", "flip(3)"):
            assert rows[(topo, 2)] < rows[(topo, 0)]

    def test_synthetic_divergence_is_flagged(self, records):
        import copy

        slow = copy.deepcopy(records)
        for record in slow:
            if record["scenario"]["topology"]["label"] == "omega(3)":
                record["report"]["delivered"] //= 2
        entries = head_to_head(slow)
        flagged = {
            (e["topology_a"], e["topology_b"])
            for e in entries
            if e["divergent"]
        }
        assert ("baseline(3)", "omega(3)") in flagged
        assert ("baseline(3)", "flip(3)") not in flagged

    def test_tables_render(self, records):
        table = aggregate_table(aggregate_rows(records))
        assert "omega(3)" in table and "thrpt" in table
        h2h = head_to_head_table(head_to_head(records))
        assert "equivalence holds empirically" in h2h

    def test_benes_never_compared_to_square_networks(self, tmp_path):
        # Different shape (5 stages x 4 cells vs 3 x 4) => no pairing.
        spec = tiny_spec(
            topologies=("omega", "benes"), faults=(0,), seeds=(0,)
        )
        run_campaign(spec, tmp_path / "s.jsonl")
        assert head_to_head(load_records(tmp_path / "s.jsonl")) == []

    def test_aggregate_json_excludes_elapsed(self, records):
        doc = json.loads(dumps_aggregate(records))
        assert doc["format"] == "repro-campaign-aggregate"
        assert "elapsed" not in json.dumps(doc)

    def test_mixed_sweeps_in_one_cell_rejected(self, records):
        import copy

        # Two results for the same grid cell + seed under different
        # hashes (e.g. a topology file changed between runs) must not be
        # silently averaged.
        evil = copy.deepcopy(records[0])
        evil["hash"] = "f" * 16
        evil["report"]["delivered"] += 1
        with pytest.raises(ReproError, match="two different results"):
            aggregate_rows([*records, evil])

    def test_literal_duplicate_records_count_once(self, records):
        rows = aggregate_rows(records)
        assert aggregate_rows([*records, records[0]]) == rows


class TestCampaignCLI:
    def _run(self, tmp_path, *extra):
        from repro.__main__ import main

        store = tmp_path / "sweep.jsonl"
        argv = [
            "campaign", "run",
            "--topologies", "omega", "baseline",
            "--stages", "3",
            "--rates", "0.8",
            "--fault-cells", "0", "2",
            "--seeds", "0", "1",
            "--cycles", "30",
            "--store", str(store),
            *extra,
        ]
        assert main(argv) == 0
        return store

    def test_run_and_report(self, tmp_path, capsys):
        store = self._run(tmp_path, "--quiet")
        out = capsys.readouterr().out
        assert "campaign complete: 8 scenarios (0 resumed, 8 run)" in out
        from repro.__main__ import main

        agg = tmp_path / "agg.json"
        assert main(
            ["campaign", "report", "--store", str(store),
             "--json", str(agg)]
        ) == 0
        out = capsys.readouterr().out
        assert "equivalence head-to-head" in out
        assert "0 divergent" in out
        assert json.loads(agg.read_text())["n_scenarios"] == 8

    def test_progress_lines(self, tmp_path, capsys):
        self._run(tmp_path)
        out = capsys.readouterr().out
        assert "[8/8]" in out

    def test_batch_flag(self, tmp_path, capsys):
        batched = self._run(tmp_path, "--quiet", "--batch", "4")
        out = capsys.readouterr().out
        assert "campaign complete: 8 scenarios (0 resumed, 8 run)" in out
        sequential = tmp_path / "seq.jsonl"
        from repro.__main__ import main

        assert main([
            "campaign", "run",
            "--topologies", "omega", "baseline",
            "--stages", "3", "--rates", "0.8",
            "--fault-cells", "0", "2", "--seeds", "0", "1",
            "--cycles", "30", "--store", str(sequential),
            "--batch", "1", "--quiet",
        ]) == 0
        a = {
            r["hash"]: _deterministic(r["report"])
            for r in load_records(batched)
        }
        b = {
            r["hash"]: _deterministic(r["report"])
            for r in load_records(sequential)
        }
        assert a == b

    def test_status_and_resume(self, tmp_path, capsys):
        from repro.__main__ import main

        store = self._run(tmp_path, "--quiet", "--save-spec",
                          str(tmp_path / "grid.json"))
        capsys.readouterr()
        spec = str(tmp_path / "grid.json")
        assert main(
            ["campaign", "status", "--spec", spec, "--store", str(store)]
        ) == 0
        assert "8/8 scenarios stored" in capsys.readouterr().out
        assert main(
            ["campaign", "run", "--spec", spec, "--store", str(store),
             "--resume", "--quiet"]
        ) == 0
        assert "(8 resumed, 0 run)" in capsys.readouterr().out

    def test_status_incomplete_exits_nonzero(self, tmp_path, capsys):
        from repro.__main__ import main

        store = self._run(tmp_path, "--quiet", "--save-spec",
                          str(tmp_path / "grid.json"))
        text = store.read_text().splitlines(keepends=True)
        store.write_text("".join(text[:-2]))
        assert main(
            ["campaign", "status", "--spec", str(tmp_path / "grid.json"),
             "--store", str(store)]
        ) == 1
        assert "missing" in capsys.readouterr().out

    def test_report_empty_store_fails(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(
            ["campaign", "report", "--store", str(tmp_path / "none.jsonl")]
        ) == 1
        assert "no records" in capsys.readouterr().out

    def test_run_requires_spec_or_topologies(self, tmp_path):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["campaign", "run", "--store", str(tmp_path / "s.jsonl")])


class TestTrafficSpecs:
    def test_round_trip_all_registered(self):
        from repro.sim import TRAFFIC_PATTERNS, traffic_from_spec

        # items() lists only the public (non-hidden) patterns, all of
        # which are flag-constructible; hidden "permutation" has its own
        # round-trip test below.
        for name, cls in TRAFFIC_PATTERNS.items():
            pattern = cls(rate=0.5)
            again = traffic_from_spec(pattern.spec())
            assert type(again) is cls
            assert again.spec() == pattern.spec()

    def test_hotspot_keeps_parameters(self):
        from repro.sim import HotspotTraffic, traffic_from_spec

        pattern = HotspotTraffic(rate=0.7, fraction=0.4, hotspots=(1, 2))
        again = traffic_from_spec(pattern.spec())
        assert isinstance(again, HotspotTraffic)
        assert again.fraction == 0.4 and again.hotspots == (1, 2)

    def test_permutation_round_trip(self):
        import numpy as np

        from repro.permutations.permutation import Permutation
        from repro.sim import PermutationTraffic, traffic_from_spec

        perm = Permutation(np.array([2, 0, 3, 1]))
        pattern = PermutationTraffic(perm, rate=0.9)
        again = traffic_from_spec(pattern.spec())
        assert isinstance(again, PermutationTraffic)
        assert again.perm == perm and again.rate == 0.9

    def test_bad_specs_rejected(self):
        from repro.core.errors import UnknownTrafficError
        from repro.sim import traffic_from_spec

        with pytest.raises(ReproError, match="name"):
            traffic_from_spec({"rate": 0.5})
        with pytest.raises(ReproError, match="perm"):
            traffic_from_spec({"name": "permutation", "rate": 0.5})
        with pytest.raises(ReproError, match="bogus"):
            traffic_from_spec(
                {"name": "permutation", "perm": [1, 0], "bogus": 1}
            )
        with pytest.raises(UnknownTrafficError, match="uniform"):
            traffic_from_spec({"name": "warp", "rate": 0.5})


class TestZeroCopyWorkers:
    """Pool workers, which return pickled records, vs inline dispatch."""

    def _clean(self, path) -> dict:
        return {
            r["hash"]: _deterministic(r["report"])
            for r in load_records(path)
        }

    def test_pickled_pool_matches_inline(self, tmp_path):
        spec = tiny_spec()
        run_campaign(spec, tmp_path / "inline.jsonl", workers=1)
        summary = run_campaign(spec, tmp_path / "pool.jsonl", workers=2)
        inline = self._clean(tmp_path / "inline.jsonl")
        assert self._clean(tmp_path / "pool.jsonl") == inline
        assert summary["ran"] == 8
        # Worker-side compile activity is aggregated into the summary
        # (forked workers may inherit a warm cache: hits, not misses).
        cache = summary["compile_cache"]
        assert cache["hits"] + cache["misses"] >= 1
        # The aggregate consumers see byte-identical results.
        assert dumps_aggregate(
            load_records(tmp_path / "pool.jsonl")
        ) == dumps_aggregate(load_records(tmp_path / "inline.jsonl"))

    def test_backend_knob_does_not_change_results(self, tmp_path):
        spec = tiny_spec(seeds=(0,), faults=(0,))
        run_campaign(spec, tmp_path / "auto.jsonl", workers=1)
        run_campaign(
            spec, tmp_path / "numpy.jsonl", workers=1, backend="numpy"
        )
        assert self._clean(tmp_path / "auto.jsonl") == self._clean(
            tmp_path / "numpy.jsonl"
        )

    def test_bad_backend_fails_before_any_work(self, tmp_path):
        with pytest.raises(ReproError, match="unknown simulation backend"):
            run_campaign(
                tiny_spec(), tmp_path / "s.jsonl", backend="cuda"
            )
        assert not (tmp_path / "s.jsonl").exists()
