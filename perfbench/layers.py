"""Per-layer timing for the traced run: wrappers and the span fold.

The traced run installs :func:`installed` around the calls it measures.
It swaps the public functions of ``core``, ``networks``, ``spec`` and a
few ``campaign``/``sim`` entry points for wrappers that open a span on
the active :mod:`repro.obs` tracer, which already records its own spans
and counters inside ``sim/`` and ``campaign/`` (pool workers included:
they fork with the wrappers in place and ship their spans back).  Every
patched attribute is restored on exit, so untraced runs call the
program unchanged.

:func:`layer_metrics` then folds the span forest into per-layer self
times (span time minus the time its child spans cover).  A span the
map below does not name inherits its parent's layer, so spans a later
version adds inside a layer still count toward that layer.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from contextlib import contextmanager

from benchlib import self_times
from repro.campaign import aggregate, reliability, runner
from repro.campaign import spec as campaign_spec
from repro.core import equivalence, independence, isomorphism, properties
from repro.networks import catalog, counterexamples, random_nets
from repro.obs import trace as obs
from repro.obs.metrics import metrics
from repro.sim import batch, compiled, engine
from repro.spec import scenario

# The package re-exports the function under the module's own name.
baseline = importlib.import_module("repro.networks.baseline")

#: Span name -> layer.  Names with a dot are the benchmark's wrappers;
#: the rest are the program's own spans.
SPAN_LAYERS = {
    "bench.setup": "bench.harness",
    "bench.loop": "bench.harness",
    "bench.op": "bench.harness",
    "networks.build": "networks.build",
    "core.equivalence": "core.equivalence",
    "core.properties.is_banyan": "core.properties.is_banyan",
    "core.properties.p_one_star": "core.properties.p_one_star",
    "core.properties.p_star_n": "core.properties.p_star_n",
    "core.independence.to_affine": "core.independence.to_affine",
    "core.isomorphism.find": "core.isomorphism.find",
    "core.isomorphism.verify": "core.isomorphism.verify",
    "spec.resolve": "spec.resolve",
    "simulate": "sim.engine",
    "simulate_batch": "sim.engine",
    "run_batch": "sim.engine",
    "traffic": "sim.traffic.destinations",
    "compile": "sim.compiled.compile",
    "compile_network": "sim.compiled.compile",
    "run": "sim.kernels.run",
    "warm_jit": "sim.kernels.run",
    "sim.faults.reachability": "sim.faults.reachability",
    "campaign": "campaign.runner.dispatch",
    "group": "campaign.runner.group",
    "store": "campaign.store.append",
    "campaign.spec.expand": "campaign.spec.expand",
    "campaign.aggregate.load": "campaign.aggregate.load",
    "campaign.aggregate.report": "campaign.aggregate.report",
    "reliability": "campaign.reliability.report",
    "campaign.reliability.report": "campaign.reliability.report",
}

#: Layers reported as ``<layer>_s`` self time plus ``<layer>_s.share``.
TIMED_LAYERS = tuple(dict.fromkeys(SPAN_LAYERS.values()))

#: (owner, attribute, span name) of every wrapped program function.
#: A function imported by name into another module is patched there too.
PATCHES = (
    (catalog.NETWORK_CATALOG, "build", "networks.build"),
    (baseline, "baseline", "networks.build"),
    (counterexamples, "cycle_banyan", "networks.build"),
    (counterexamples, "parallel_baselines", "networks.build"),
    (counterexamples, "double_link_network", "networks.build"),
    (random_nets, "random_relabeling", "networks.build"),
    (random_nets, "random_independent_banyan_network", "networks.build"),
    (equivalence, "is_baseline_equivalent", "core.equivalence"),
    (equivalence, "baseline_isomorphism", "core.equivalence"),
    (equivalence, "verify_isomorphism", "core.isomorphism.verify"),
    (properties, "is_banyan", "core.properties.is_banyan"),
    (properties, "p_one_star", "core.properties.p_one_star"),
    (properties, "p_star_n", "core.properties.p_star_n"),
    (independence, "to_affine", "core.independence.to_affine"),
    (isomorphism, "find_isomorphism", "core.isomorphism.find"),
    (scenario.ScenarioSpec, "resolve", "spec.resolve"),
    (scenario.NetworkSpec, "resolve", "spec.resolve"),
    (reliability, "fault_connectivity", "sim.faults.reachability"),
    (runner, "expand_scenarios", "campaign.spec.expand"),
    (campaign_spec, "expand_scenarios", "campaign.spec.expand"),
    (aggregate, "load_records", "campaign.aggregate.load"),
    (aggregate, "dumps_aggregate", "campaign.aggregate.report"),
    (reliability, "dumps_reliability", "campaign.reliability.report"),
)


#: Wrapped calls made inside the named span count toward that span:
#: p_star_n runs p_one_star on the reverse digraph.
NESTED_IN = {"core.properties.p_one_star": "core.properties.p_star_n"}


def _spanned(fn, name):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        current = obs.current_span()
        if current is not None and current.name == NESTED_IN.get(name):
            return fn(*args, **kwargs)
        with obs.span(name) as sp:
            if name == "core.properties.is_banyan":
                sp.set(size=args[0].size)
            return fn(*args, **kwargs)

    return wrapper


def _table_noting(fn):
    """Record a fresh compilation's table bytes on the open span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        misses = compiled.compile_cache_info()["misses"]
        comp = fn(*args, **kwargs)
        current = obs.current_span()
        if current is not None and (
            compiled.compile_cache_info()["misses"] != misses
        ):
            current.set(table_bytes=_table_bytes(comp))
        return comp

    return wrapper


def _own_registry(fn):
    """Run a campaign with the metrics registry empty while it forks.

    Pool workers fork with a copy of the parent's registry and ship it
    back with their own counts, so a process whose registry already
    holds counts would count them again once per worker and campaign.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        saved = metrics().drain()
        try:
            return fn(*args, **kwargs)
        finally:
            metrics().merge(saved)

    return wrapper


def _table_bytes(comp) -> int:
    """Bytes held by a compiled network's arrays."""
    total = 0
    for slot in type(comp).__slots__:
        nbytes = getattr(getattr(comp, slot), "nbytes", None)
        if isinstance(nbytes, int):
            total += nbytes
    return total


@contextmanager
def installed():
    """Swap in the wrappers; restore the original attributes on exit."""
    patches = [
        (owner, attr, _spanned(getattr(owner, attr), name))
        for owner, attr, name in PATCHES
    ] + [
        (module, "compile_network", _table_noting(module.compile_network))
        for module in (engine, batch)
    ] + [(runner, "run_campaign", _own_registry(runner.run_campaign))]
    saved = [(owner, attr, vars(owner).get(attr)) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            if original is None:
                delattr(owner, attr)  # an instance attribute we added
            else:
                setattr(owner, attr, original)


def _layers(spans) -> dict[tuple[int, int], str]:
    """Layer of each span; unnamed spans inherit their parent's layer."""
    by_key = {(e["pid"], e["id"]): e for e in spans}
    memo: dict[tuple[int, int], str] = {}

    def layer(key):
        if key not in memo:
            ev = by_key[key]
            parent = (ev["pid"], ev.get("parent"))
            if ev["name"] in SPAN_LAYERS:
                memo[key] = SPAN_LAYERS[ev["name"]]
            elif parent in by_key:
                memo[key] = layer(parent)
            else:
                memo[key] = "bench.harness"
        return memo[key]

    return {key: layer(key) for key in by_key}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(events, registry: dict, wall: float, passes: dict) -> dict:
    """Every per-layer metric of one traced run.

    ``events`` is the trace, ``registry`` the merged
    :mod:`repro.obs.metrics` snapshot, ``wall`` the traced wall time of
    this process and ``passes`` what the benchmark measured itself (see
    ``_traced`` in ``run.py``).
    """
    spans = [e for e in events if e.get("ev") == "span"]
    own = self_times(spans)
    layer_of = _layers(spans)
    totals = dict.fromkeys(TIMED_LAYERS, 0.0)
    for key, seconds in own.items():
        totals[layer_of[key]] += seconds
    out = {}
    for layer, seconds in totals.items():
        out[f"{layer}_s"] = seconds
        out[f"{layer}_s.share"] = _ratio(seconds, wall)

    def spans_named(name):
        return [e for e in spans if e["name"] == name]

    counters = registry.get("counters", {})
    hists = registry.get("histograms", {})
    banyan_sizes = [e["attrs"]["size"] for e in spans_named(
        "core.properties.is_banyan"
    )]
    out["core.properties.banyan_bytes"] = (
        max(banyan_sizes) ** 2 * 8 if banyan_sizes else 0
    )
    out["core.independence.affine_ratio"] = passes["affine_ratio"]
    out["core.isomorphism.calls"] = len(spans_named("core.isomorphism.find"))

    hits = counters.get("compile_cache.hits", 0)
    misses = counters.get("compile_cache.misses", 0)
    out["sim.compiled.cache_hits"] = hits
    out["sim.compiled.cache_misses"] = misses
    out["sim.compiled.hit_ratio"] = _ratio(hits, hits + misses)
    out["sim.compiled.table_bytes"] = max(
        (e["attrs"].get("table_bytes", 0) for e in spans_named("compile")),
        default=0,
    )

    by_key = {(e["pid"], e["id"]): e for e in spans}
    run_parents = [
        by_key.get((e["pid"], e.get("parent")), {}).get("name")
        for e in spans_named("run")
    ]
    out["sim.kernels.hops"] = passes["hops"]
    out["sim.kernels.ns_per_hop"] = _ratio(
        totals["sim.kernels.run"] * 1e9, passes["hops"]
    )
    out["sim.kernels.single_calls"] = run_parents.count("simulate")
    out["sim.kernels.batch_calls"] = run_parents.count("run_batch")
    out["sim.kernels.delivered_ratio"] = _ratio(
        passes["delivered"], passes["offered"]
    )

    def hist_total(name):
        return hists.get(name, {}).get("total", 0.0)

    busy = hist_total("campaign.group_busy_s")
    wait = hist_total("campaign.queue_wait_s")
    campaigns = spans_named("campaign")
    capacity = sum(e["attrs"].get("workers", 1) * e["dur"] for e in campaigns)
    out["campaign.runner.groups"] = counters.get("campaign.groups", 0)
    out["campaign.runner.group_busy_s"] = busy
    out["campaign.runner.group_busy_s.share"] = _ratio(busy, wall)
    out["campaign.runner.queue_wait_s"] = wait
    out["campaign.runner.queue_wait_s.share"] = _ratio(wait, wall)
    out["campaign.runner.worker_util"] = _ratio(busy, capacity)
    out["campaign.supervisor.retries"] = counters.get("campaign.retries", 0)
    out["campaign.supervisor.respawns"] = counters.get("campaign.respawns", 0)
    out["campaign.store.bytes"] = passes["store_bytes"]
    evals = counters.get("reliability.availability_evals", 0)
    out["campaign.reliability.availability_evals"] = evals
    out["campaign.reliability.evals_per_record"] = _ratio(
        evals, passes["records"]
    )
    out["obs.trace_overhead"] = passes["trace_overhead"]
    out["decide_exponent"] = passes["decide_exponent"]
    out["hops_per_s"] = passes["hops_per_s"]
    return out


def affine_ratio(cases) -> float:
    """Share of the inputs' gaps whose connection is affine."""
    flags = [
        independence.to_affine(conn) is not None
        for case in cases
        for conn in case.net.connections
    ]
    return statistics.fmean(flags) if flags else 0.0
