"""The committed lint policy: every whitelist the rules check against.

Pure data, like :mod:`repro.obs.schema` (which holds the trace-name
half of the policy).  Keeping the lists here — instead of inline in the
rule visitors — makes the policy reviewable as one diff and importable
by tests: adding a worker function, a nopython-safe NumPy call or a
pickle-safe constructor is a one-line change in this module, not a rule
rewrite.
"""

from __future__ import annotations

__all__ = [
    "DIGEST_FUNCTIONS",
    "EXECUTION_HINT_FIELDS",
    "FORBIDDEN_WORKER_RAISES",
    "NONDETERMINISTIC_CALLS",
    "NOPYTHON_NUMPY_CALLS",
    "PICKLE_SAFE_CALLS",
    "QUEUE_RECEIVER_NAMES",
    "REGISTRY_DECORATORS",
    "REGISTRY_NAMES",
    "TELEMETRY_INTERNAL_MODULES",
    "WORKER_FUNCTIONS",
]

# -- RPR001 digest purity ----------------------------------------------------

#: ``SimPolicy`` fields that are execution hints: they steer *how* a
#: scenario runs, never *what* it computes, and therefore must stay out
#: of wire dicts, digests and group keys.
EXECUTION_HINT_FIELDS = frozenset({"backend", "compile_cache"})

#: Function names in ``repro/spec/`` whose bodies feed digests — any
#: read of an execution hint inside one of these leaks the hint into
#: stored identity.
DIGEST_FUNCTIONS = frozenset({
    "to_spec", "digest", "group_key", "scenario_digest", "_doc_group_key",
})

# -- RPR002 nopython safety --------------------------------------------------

#: NumPy callables the fused JIT loop may invoke in nopython mode.
#: Everything else dispatches through object mode (or fails to compile),
#: which the numpy-only CI leg would never notice.
NOPYTHON_NUMPY_CALLS = frozenset({
    "empty", "zeros", "full", "ones", "arange",
})

# -- RPR003 worker determinism ----------------------------------------------

#: Functions in ``repro/campaign/`` that execute inside (or are
#: dispatched to) campaign workers.  Code reachable from these must be a
#: pure function of the specs — wall clocks, global RNGs and
#: set-iteration order are all replay hazards.  Everything under
#: ``repro/sim/kernels/`` is worker-side by definition.
WORKER_FUNCTIONS = frozenset({
    "_worker_main",
    "_execute_task",
    "_run_group",
    "_group_reports",
    "_record",
    "_telemetry",
    "_note_group",
    "_worker_init",
})

#: Call targets that read nondeterministic state.  ``time.perf_counter``
#: stays legal: durations are telemetry, never results.
NONDETERMINISTIC_CALLS = frozenset({
    "time.time",
    "time.time_ns",
    "datetime.now",
    "datetime.utcnow",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "os.urandom",
    "uuid.uuid4",
})

# -- RPR004 pickle boundary --------------------------------------------------

#: Local names that denote supervisor/pool queues at ``.put()`` sites,
#: or a worker's result pipe at ``.send()`` sites (the last attribute
#: segment of the receiver).
QUEUE_RECEIVER_NAMES = frozenset({"inq", "outq", "_outq", "queue", "results"})

#: Callables whose results are pickle-safe by construction and may
#: appear inside a queue payload tuple.
PICKLE_SAFE_CALLS = frozenset({
    "os.getpid", "list", "tuple", "dict", "str", "int", "float", "bool",
})

#: Exception types a worker must never raise: they escape
#: ``_worker_main``'s ``except Exception`` boundary, which turns
#: failures into ``err`` messages, so they would kill the worker loop
#: instead of reaching the parent as failure evidence.
FORBIDDEN_WORKER_RAISES = frozenset({
    "BaseException", "SystemExit", "KeyboardInterrupt", "GeneratorExit",
})

# -- RPR005 registry hygiene -------------------------------------------------

#: Decorator alias → the registry it feeds (for duplicate detection).
REGISTRY_DECORATORS = {
    "register_network": "NETWORK_CATALOG",
    "register_traffic": "TRAFFIC_PATTERNS",
}

#: Module-level registry objects; direct subscript/attribute mutation of
#: these bypasses schema validation and is flagged outside
#: ``repro/spec/registry.py`` itself.
REGISTRY_NAMES = frozenset({
    "NETWORK_CATALOG", "CLASSICAL_NETWORKS", "TRAFFIC_PATTERNS",
})

# -- RPR006 trace schema -----------------------------------------------------

#: The telemetry machinery itself: forwarding shims (``obs.span`` the
#: function, ``Metrics.counter`` the method) take names as parameters
#: and are not emit sites.
TELEMETRY_INTERNAL_MODULES = frozenset({
    "repro/obs/trace.py",
    "repro/obs/metrics.py",
    "repro/obs/schema.py",
})
