"""The ``repro lint`` invariant checker: engine, rules, and the repo itself.

Each rule is exercised against tiny fixture trees that mimic the
``repro/...`` layout (the engine scopes rules by the path suffix from
the last ``repro`` segment, so a ``tmp_path/repro/spec/x.py`` fixture
lints exactly like the real module), plus one self-lint test that holds
the actual source tree to ``--strict`` zero.
"""

import ast
import json
import textwrap
from pathlib import Path

import repro.obs.analyze as analyze
from repro.analysis.lint import (
    default_lint_root,
    default_rules,
    lint_paths,
    render_json,
    render_text,
    rule_ids,
    run_lint,
)
from repro.analysis.lint import policy
from repro.analysis.lint.engine import (
    Finding,
    module_path,
    parse_suppressions,
)
from repro.campaign import supervisor
from repro.obs import schema


def write(root: Path, rel: str, text: str) -> Path:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(text))
    return path


def lint(root, rules=None):
    return lint_paths([root], default_rules(rules))


def hits(result, rule=None):
    return [
        f for f in result.findings if rule is None or f.rule == rule
    ]


class TestEngine:
    def test_module_path_finds_last_repro_segment(self):
        assert (
            module_path("/a/b/src/repro/spec/scenario.py")
            == "repro/spec/scenario.py"
        )
        assert (
            module_path("/tmp/x/repro/campaign/runner.py")
            == "repro/campaign/runner.py"
        )
        assert module_path("plain/file.py") == "plain/file.py"

    def test_finding_json_round_trip(self):
        f = Finding(
            rule="RPR001", path="a.py", line=3, col=7,
            severity="error", message="m", hint="h",
        )
        assert Finding.from_dict(f.to_dict()) == f

    def test_render_json_round_trips_findings(self, tmp_path):
        write(tmp_path, "repro/spec/bad.py", """\
            def digest(self):
                return self.backend
            """)
        result = lint(tmp_path)
        doc = json.loads(render_json(result, strict=True))
        assert doc["format"] == "repro-lint"
        assert doc["ok"] is False
        rebuilt = [Finding.from_dict(d) for d in doc["findings"]]
        assert rebuilt == result.findings
        assert doc["counts"]["errors"] == len(hits(result, "RPR001"))

    def test_trailing_noqa_suppresses_and_is_counted(self, tmp_path):
        write(tmp_path, "repro/spec/s.py", """\
            def digest(self):
                return self.backend  # repro: noqa[RPR001] — fixture
            """)
        result = lint(tmp_path)
        assert not hits(result)
        assert len(result.used_suppressions) == 1
        assert result.used_suppressions[0].justified
        assert not result.failed(strict=True)

    def test_standalone_noqa_anchors_to_next_code_line(self, tmp_path):
        write(tmp_path, "repro/spec/s.py", """\
            def digest(self):
                # repro: noqa[RPR001] — fixture
                return self.backend
            """)
        result = lint(tmp_path)
        assert not hits(result)
        assert len(result.used_suppressions) == 1

    def test_unjustified_suppression_fails_only_strict(self, tmp_path):
        write(tmp_path, "repro/spec/s.py", """\
            def digest(self):
                return self.backend  # repro: noqa[RPR001]
            """)
        result = lint(tmp_path)
        assert not result.failed(strict=False)
        assert result.failed(strict=True)
        assert len(result.unjustified_suppressions) == 1

    def test_unused_suppression_is_not_counted(self, tmp_path):
        write(tmp_path, "repro/spec/s.py", """\
            def resolve(self):
                return self.backend  # repro: noqa[RPR001] — unused
            """)
        result = lint(tmp_path)
        assert not result.used_suppressions
        assert result.counts()["suppressions"] == 0

    def test_wrong_rule_noqa_does_not_suppress(self, tmp_path):
        write(tmp_path, "repro/spec/s.py", """\
            def digest(self):
                return self.backend  # repro: noqa[RPR003] — wrong rule
            """)
        assert hits(lint(tmp_path), "RPR001")

    def test_parse_error_is_reported_and_fails(self, tmp_path):
        write(tmp_path, "repro/broken.py", "def oops(:\n")
        result = lint(tmp_path)
        assert len(result.parse_errors) == 1
        assert result.failed(strict=False)
        assert "PARSE" in render_text(result)

    def test_parse_suppressions_multi_rule(self):
        noqa = parse_suppressions(
            "x.py", "y = f()  # repro: noqa[RPR001, RPR003] — both\n"
        )
        assert noqa[1].rules == ("RPR001", "RPR003")
        assert noqa[1].justification == "both"

    def test_rule_filter_runs_only_requested_rule(self, tmp_path):
        write(tmp_path, "repro/spec/s.py", """\
            def digest(self):
                import time
                return (self.backend, time.time())
            """)
        result = lint(tmp_path, rules=["RPR003"])
        assert not hits(result)  # RPR003 does not apply to repro/spec/

    def test_rule_ids_are_the_six_shipped_rules(self):
        assert rule_ids() == [
            "RPR001", "RPR002", "RPR003", "RPR004", "RPR005", "RPR006",
        ]


class TestDigestPurity:
    def test_hint_attribute_in_digest_function_flagged(self, tmp_path):
        write(tmp_path, "repro/spec/scenario.py", """\
            def to_spec(self):
                return {"backend": self.sim.backend}
            """)
        found = hits(lint(tmp_path), "RPR001")
        assert found and "backend" in found[0].message

    def test_hint_string_key_flagged(self, tmp_path):
        write(tmp_path, "repro/spec/scenario.py", """\
            def group_key(doc):
                return doc["compile_cache"]
            """)
        assert hits(lint(tmp_path), "RPR001")

    def test_non_digest_function_may_read_hints(self, tmp_path):
        write(tmp_path, "repro/spec/scenario.py", """\
            def resolve(self):
                return self.sim.backend
            """)
        assert not hits(lint(tmp_path), "RPR001")

    def test_rule_is_scoped_to_spec_package(self, tmp_path):
        write(tmp_path, "repro/sim/engine.py", """\
            def digest(self):
                return self.backend
            """)
        assert not hits(lint(tmp_path), "RPR001")

    def test_docstring_mention_is_not_a_reference(self, tmp_path):
        write(tmp_path, "repro/spec/scenario.py", '''\
            def digest(self):
                """Never includes backend or compile_cache."""
                return self.n
            ''')
        assert not hits(lint(tmp_path), "RPR001")


class TestNopythonSafety:
    def test_fstring_in_decorated_jit_function(self, tmp_path):
        write(tmp_path, "repro/sim/kernels/k.py", """\
            import numba

            @numba.njit(cache=False)
            def loop(n):
                return f"{n}"
            """)
        found = hits(lint(tmp_path), "RPR002")
        assert found and "f-string" in found[0].message

    def test_alias_resolved_njit_call_form(self, tmp_path):
        write(tmp_path, "repro/sim/kernels/k.py", """\
            import numba

            def _loop(n):
                return {"n": n}

            _loop_py = _loop

            def kernel():
                return numba.njit(cache=False)(_loop_py)
            """)
        found = hits(lint(tmp_path), "RPR002")
        assert found and "dict" in found[0].message

    def test_reachable_helper_is_also_checked(self, tmp_path):
        write(tmp_path, "repro/sim/kernels/k.py", """\
            from numba import njit

            def helper(n):
                return [x for x in range(n)], {n: 1}

            @njit
            def loop(n):
                return helper(n)
            """)
        assert hits(lint(tmp_path), "RPR002")

    def test_whitelisted_numpy_calls_pass(self, tmp_path):
        write(tmp_path, "repro/sim/kernels/k.py", """\
            import numba
            import numpy as np

            @numba.njit
            def loop(n):
                out = np.zeros(n)
                buf = np.empty(n)
                return out, buf
            """)
        assert not hits(lint(tmp_path), "RPR002")

    def test_non_whitelisted_numpy_call_flagged(self, tmp_path):
        write(tmp_path, "repro/sim/kernels/k.py", """\
            import numba
            import numpy as np

            @numba.njit
            def loop(a):
                return np.vectorize(abs)(a)
            """)
        assert hits(lint(tmp_path), "RPR002")

    def test_unjitted_function_may_use_dicts(self, tmp_path):
        write(tmp_path, "repro/sim/kernels/k.py", """\
            import numba

            @numba.njit
            def loop(n):
                return n + 1

            def python_side(n):
                return {"n": n}
            """)
        assert not hits(lint(tmp_path), "RPR002")


class TestWorkerDeterminism:
    def test_wall_clock_in_kernel_flagged(self, tmp_path):
        write(tmp_path, "repro/sim/kernels/k.py", """\
            import time

            def run(n):
                return time.time() + n
            """)
        assert hits(lint(tmp_path), "RPR003")

    def test_global_random_in_worker_flagged(self, tmp_path):
        write(tmp_path, "repro/campaign/w.py", """\
            import random

            def _worker_main(inq, outq):
                return random.random()
            """)
        found = hits(lint(tmp_path), "RPR003")
        assert found and "global-RNG" in found[0].message

    def test_worker_call_closure_is_checked(self, tmp_path):
        write(tmp_path, "repro/campaign/w.py", """\
            import os

            def _helper():
                return os.urandom(8)

            def _worker_main(inq, outq):
                return _helper()
            """)
        assert hits(lint(tmp_path), "RPR003")

    def test_non_worker_campaign_code_may_use_clock(self, tmp_path):
        write(tmp_path, "repro/campaign/w.py", """\
            import time

            def parent_side_progress():
                return time.time()
            """)
        assert not hits(lint(tmp_path), "RPR003")

    def test_unseeded_default_rng_flagged_seeded_ok(self, tmp_path):
        write(tmp_path, "repro/sim/kernels/k.py", """\
            import numpy as np

            def bad():
                return np.random.default_rng()

            def good(seed):
                return np.random.default_rng(seed)
            """)
        found = hits(lint(tmp_path), "RPR003")
        assert len(found) == 1 and "unseeded" in found[0].message

    def test_set_iteration_flagged(self, tmp_path):
        write(tmp_path, "repro/sim/kernels/k.py", """\
            def run():
                out = []
                for x in {3, 1, 2}:
                    out.append(x)
                return out
            """)
        found = hits(lint(tmp_path), "RPR003")
        assert found and "set literal" in found[0].message


    def test_every_worker_function_is_defined_in_campaign(self):
        # RPR003 finds worker code by name: a renamed worker function
        # whose old name stays in the policy silently loses coverage.
        campaign = Path(supervisor.__file__).parent
        defined = {
            node.name
            for path in campaign.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        assert sorted(policy.WORKER_FUNCTIONS - defined) == []


class TestPickleBoundary:
    def test_non_tuple_payload_flagged(self, tmp_path):
        write(tmp_path, "repro/campaign/w.py", """\
            def _worker_main(inq, outq):
                outq.put([1, 2, 3])
            """)
        assert hits(lint(tmp_path), "RPR004")

    def test_lambda_in_payload_flagged(self, tmp_path):
        write(tmp_path, "repro/campaign/w.py", """\
            def _worker_main(inq, outq):
                outq.put(("ok", lambda: 1))
            """)
        found = hits(lint(tmp_path), "RPR004")
        assert found and "pickle" in found[0].message

    def test_sentinel_and_message_tuples_pass(self, tmp_path):
        write(tmp_path, "repro/campaign/w.py", """\
            import os

            def _worker_main(inq, outq, payload, delta, tele):
                outq.put(("ok", 1, os.getpid(), payload, delta, tele))
                outq.put(("err", 1, os.getpid(), {"kind": "boom"}))
                outq.put(None)
            """)
        assert not hits(lint(tmp_path), "RPR004")

    def test_result_pipe_send_is_checked(self, tmp_path):
        write(tmp_path, "repro/campaign/w.py", """\
            import os

            def _worker_main(inq, results, payload):
                results.send(("ok", 1, os.getpid(), payload))
                results.send(("ok", lambda: 1))
            """)
        found = hits(lint(tmp_path), "RPR004")
        assert len(found) == 1 and "results.send()" in found[0].message

    def test_non_whitelisted_call_in_payload_flagged(self, tmp_path):
        write(tmp_path, "repro/campaign/w.py", """\
            def _worker_main(inq, outq, spec):
                outq.put(("ok", open(spec)))
            """)
        assert hits(lint(tmp_path), "RPR004")

    def test_worker_raise_of_base_exception_flagged(self, tmp_path):
        write(tmp_path, "repro/campaign/w.py", """\
            def _worker_main(inq, outq):
                raise SystemExit(1)
            """)
        found = hits(lint(tmp_path), "RPR004")
        assert found and "SystemExit" in found[0].message

    def test_parent_side_systemexit_is_fine(self, tmp_path):
        write(tmp_path, "repro/campaign/w.py", """\
            def cli_entry():
                raise SystemExit(2)
            """)
        assert not hits(lint(tmp_path), "RPR004")


class TestRegistryHygiene:
    def test_duplicate_name_across_files(self, tmp_path):
        body = """\
            from repro.spec.registry import NETWORK_CATALOG

            NETWORK_CATALOG.register("dup", params={})(object)
            """
        write(tmp_path, "repro/networks/a.py", body)
        write(tmp_path, "repro/networks/b.py", body)
        found = hits(lint(tmp_path), "RPR005")
        assert found and "duplicate" in found[0].message

    def test_bare_type_params_value_flagged(self, tmp_path):
        write(tmp_path, "repro/networks/a.py", """\
            from repro.spec.registry import register_network

            @register_network("benes_fixture", params={"n": int})
            def build(n):
                return n
            """)
        found = hits(lint(tmp_path), "RPR005")
        assert found and "Param" in found[0].message

    def test_param_call_and_module_level_param_name_pass(self, tmp_path):
        write(tmp_path, "repro/networks/a.py", """\
            from repro.spec.registry import Param, register_network

            _N = Param(int, doc="ports")

            @register_network("ok_one", params={"n": Param(int)})
            def one(n):
                return n

            @register_network("ok_two", params={"n": _N})
            def two(n):
                return n
            """)
        assert not hits(lint(tmp_path), "RPR005")

    def test_direct_catalog_mutation_flagged(self, tmp_path):
        write(tmp_path, "repro/networks/a.py", """\
            from repro.spec.registry import NETWORK_CATALOG

            NETWORK_CATALOG["sneaky"] = object()
            """)
        found = hits(lint(tmp_path), "RPR005")
        assert found and "mutation" in found[0].message


class TestTraceSchema:
    def test_undeclared_span_literal_flagged(self, tmp_path):
        write(tmp_path, "repro/sim/x.py", """\
            from repro.obs import trace as obs

            def run():
                with obs.span("not_a_real_span"):
                    pass
            """)
        found = hits(lint(tmp_path), "RPR006")
        assert found and "not_a_real_span" in found[0].message

    def test_declared_span_and_counter_pass(self, tmp_path):
        write(tmp_path, "repro/sim/x.py", """\
            from repro.obs import trace as obs
            from repro.obs.metrics import metrics

            def run():
                with obs.span("simulate"):
                    metrics().counter("sim.runs").add(1)
                    metrics().histogram("sim.cycles_per_s").observe(1.0)
            """)
        assert not hits(lint(tmp_path), "RPR006")

    def test_undeclared_counter_literal_flagged(self, tmp_path):
        write(tmp_path, "repro/sim/x.py", """\
            from repro.obs.metrics import metrics

            def run():
                metrics().counter("sim.unheard_of").add(1)
            """)
        assert hits(lint(tmp_path), "RPR006")

    def test_dynamic_name_must_come_from_schema(self, tmp_path):
        write(tmp_path, "repro/campaign/x.py", """\
            from repro.obs.metrics import metrics

            def count(event):
                metrics().counter("campaign." + event).add(1)
            """)
        found = hits(lint(tmp_path), "RPR006")
        assert found and "dynamic" in found[0].message

    def test_schema_derived_dynamic_name_passes(self, tmp_path):
        write(tmp_path, "repro/campaign/x.py", """\
            from repro.obs import schema as obs_schema
            from repro.obs.metrics import metrics

            def count(event):
                metrics().counter(obs_schema.campaign_counter(event)).add(1)
            """)
        assert not hits(lint(tmp_path), "RPR006")

    def test_analyze_must_import_schema(self, tmp_path):
        write(tmp_path, "repro/obs/analyze.py", """\
            def summary(events):
                return len(events)
            """)
        found = hits(lint(tmp_path), "RPR006")
        assert found and "analyze" in found[0].message

    def test_bare_span_import_is_an_emit_site(self, tmp_path):
        write(tmp_path, "repro/sim/x.py", """\
            from repro.obs.trace import span

            def run():
                with span("mystery"):
                    pass
            """)
        assert hits(lint(tmp_path), "RPR006")


class TestSelfLint:
    def test_repo_lints_clean_under_strict(self):
        result = lint_paths([default_lint_root()], default_rules())
        assert [f.format() for f in result.findings] == []
        assert not result.parse_errors
        assert not result.failed(strict=True)

    def test_every_used_suppression_is_justified(self):
        result = lint_paths([default_lint_root()], default_rules())
        assert all(s.justified for s in result.used_suppressions)

    def test_run_lint_cli_body_is_clean_json(self):
        lines = []
        code = run_lint(strict=True, fmt="json", out=lines.append)
        assert code == 0
        doc = json.loads(lines[0])
        assert doc["ok"] is True
        assert doc["counts"]["unjustified_suppressions"] == 0


class TestSchemaPins:
    """Regressions pinned while moving names into repro.obs.schema."""

    def test_supervisor_stat_keys_are_the_schema_events(self):
        assert supervisor.STAT_KEYS == schema.CAMPAIGN_EVENTS
        assert supervisor.STAT_KEYS == (
            "retries", "bisects", "degraded", "quarantined",
            "timeouts", "crashes", "respawns",
        )

    def test_campaign_counter_mapping(self):
        assert schema.campaign_counter("retries") == "campaign.retries"
        for event in schema.CAMPAIGN_EVENTS:
            assert schema.campaign_counter(event) in schema.COUNTER_NAMES

    def test_campaign_counter_rejects_undeclared_events(self):
        try:
            schema.campaign_counter("reboots")
        except KeyError:
            pass
        else:
            raise AssertionError("undeclared event must raise KeyError")

    def test_supervisor_count_still_updates_stats(self):
        stats = {key: 0 for key in supervisor.STAT_KEYS}
        supervisor._count(stats, "retries")
        supervisor._count(stats, "crashes", 2)
        assert stats["retries"] == 1 and stats["crashes"] == 2

    def test_span_constants_pin_on_wire_names(self):
        assert schema.SPAN_CAMPAIGN == "campaign"
        assert schema.SCENARIO_CARRYING_SPANS == ("group", "simulate_batch")
        assert set(schema.SCENARIO_CARRYING_SPANS) <= schema.SPAN_NAMES

    def test_sim_root_spans_are_declared(self):
        assert schema.SIM_ROOT_SPANS == {
            "simulate": "simulate", "batch": "run_batch",
        }
        assert set(schema.SIM_ROOT_SPANS.values()) <= schema.SPAN_NAMES

    def test_analyze_consumes_schema_constants(self):
        assert analyze.schema is schema
        events = [{
            "ev": "metrics",
            "metrics": {"counters": {
                "compile_cache.hits": 3,
                "compile_cache.misses": 1,
            }},
        }]
        stats = analyze.compile_cache_stats(events)
        assert stats == {
            "hits": 3, "misses": 1, "lookups": 4, "hit_rate": 0.75,
        }
