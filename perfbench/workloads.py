"""The benchmark's workloads: ``decide``, ``simulate`` and ``sweep``.

Each workload generates every input from the workload seed in its
set-up, then runs *rounds*: fixed lists of operations issued by one
caller in a closed loop (the next op starts when the previous one has
returned).  A round records per-op latencies measured around the call
into the program, checks every output against its oracle, and counts
the ops whose output was wrong or that raised.

Program functions are always reached through their defining module
(``equivalence.is_baseline_equivalent``, not a name imported at load
time), so the traced run's wrappers in :mod:`layers` see every call.
"""

from __future__ import annotations

import json
import shutil
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from benchlib import digest_bytes, golden_mismatches, report_digest
from repro.campaign import aggregate, reliability, runner
from repro.campaign import spec as campaign_spec
from repro.core import equivalence
from repro.networks import catalog, counterexamples, random_nets
from repro.obs import trace as obs
from repro.sim import engine
from repro.spec.scenario import (
    FaultSpec,
    NetworkSpec,
    ScenarioSpec,
    SimPolicy,
    TrafficSpec,
)

#: The seed the golden outputs in ``goldens.json`` were recorded at.
DEFAULT_SEED = 0

GOLDENS = Path(__file__).with_name("goldens.json")


@dataclass
class Round:
    """What one round measured and checked."""

    wall: float = 0.0
    attempted: int = 0
    latencies: list = field(default_factory=list)
    failed: int = 0
    #: Seconds of decide ops on equivalent inputs, which run all three
    #: checks, by cell count ``M`` (for the scaling fit).
    decide_times: dict = field(default_factory=dict)
    hops: int = 0
    offered: int = 0
    delivered: int = 0
    records: int = 0
    store_bytes: int = 0


def _fail(what: str) -> None:
    print(f"perfbench: wrong output: {what}", file=sys.stderr)


def _timed(fn, *args):
    """``(seconds, result, error)`` of one call; errors are op failures."""
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    except Exception:  # an op that raises is a failed op, not a crash
        dt = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        return dt, None, True
    return time.perf_counter() - t0, result, False


# -- decide ------------------------------------------------------------------

CLASSICAL = (
    "omega", "baseline", "flip", "indirect_binary_cube",
    "reverse_baseline", "modified_data_manipulator",
)
COUNTEREXAMPLES = ("cycle_banyan", "parallel_baselines", "double_link_network")
DECIDE_SIZES = (8, 9, 10, 11, 12)
#: The random generator rejection-samples through ``is_banyan``; one
#: n=12 draw took 12.6 s, so it stays at small sizes.
RANDOM_MAX_N = 9
RANDOM_PER_SIZE = 2
WITNESS_MAX_N = 8
#: Sizes at which a round decides one input of each (plain, relabeled)
#: pair instead of both, alternating which, so every family still shows
#: and half the picks are affine; the value is the first pair's pick
#: (0 plain, 1 relabeled).  Every round decides the same inputs, so a
#: run's rates do not depend on how many rounds fit.  With six n=12
#: equivalent inputs a round and ``Decide.min_rounds`` rounds, the 11th
#: slowest op of a run lies inside the n=12 cluster, and the n=8 share
#: puts the median op mid-way into the n=9 equivalent cluster.
HALF_PICKS = {8: 0, 11: 1, 12: 0}
#: Witness ops at n=8 take the n=8 pairs' other halves, this many of
#: each kind (equivalent, not).
WITNESS_PICKS = (4, 2)


@dataclass
class Case:
    net: object
    truth: bool
    label: str


def _halves(cases, first):
    """One case of each consecutive pair, alternating which one."""
    return [
        pair[(i + first) % 2]
        for i, pair in enumerate(zip(cases[::2], cases[1::2]))
    ]


class Decide:
    """The paper's decider on classical, relabeled and counterexample nets.

    Classical networks are affine; their random relabelings are not.
    The counterexamples fail the characterization on purpose.  Truth
    comes from how each input was built: classical networks, their
    relabelings and random independent Banyan networks are Baseline
    equivalent; the counterexamples and their relabelings are not.
    """

    #: Rounds a run measures even when ``--seconds`` pass sooner, so the
    #: tail percentile always lands among the n=12 ops.
    min_rounds = 2

    def __init__(self, seed: int) -> None:
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.pos: dict[int, list[Case]] = {}
        self.neg: dict[int, list[Case]] = {}
        self.targets = {}
        for n in DECIDE_SIZES:
            pos, neg = [], []
            for name in CLASSICAL:
                net = catalog.NETWORK_CATALOG.build(name, n=n)
                pos.append(Case(net, True, f"{name}({n})"))
                pos.append(Case(
                    random_nets.random_relabeling(rng, net), True,
                    f"relabeled {name}({n})",
                ))
            for name in COUNTEREXAMPLES:
                net = getattr(counterexamples, name)(n)
                neg.append(Case(net, False, f"{name}({n})"))
                neg.append(Case(
                    random_nets.random_relabeling(rng, net), False,
                    f"relabeled {name}({n})",
                ))
            if n <= RANDOM_MAX_N:
                for i in range(RANDOM_PER_SIZE):
                    pos.append(Case(
                        random_nets.random_independent_banyan_network(
                            rng, n
                        ),
                        True, f"random independent banyan #{i} ({n})",
                    ))
            self.pos[n], self.neg[n] = pos, neg
            if n <= WITNESS_MAX_N:
                self.targets[n] = catalog.NETWORK_CATALOG.build(
                    "baseline", n=n
                )
        self.ops = self._round_ops()
        # Warm-up: lazy imports on the decide and witness paths.
        warm = catalog.NETWORK_CATALOG.build("omega", n=5)
        equivalence.is_baseline_equivalent(warm)
        equivalence.baseline_isomorphism(warm)

    def cases(self):
        """Every input a round decides, for input statistics."""
        return [c for kind, c in self.ops if kind == "decide"]

    def _round_ops(self) -> list[tuple[str, Case]]:
        """The ops of every round, in size order."""
        ops = []
        for n in DECIDE_SIZES:
            if n in HALF_PICKS:
                first = HALF_PICKS[n]
                picked = _halves(self.pos[n], first) + _halves(
                    self.neg[n], first
                )
            else:
                picked = self.pos[n] + self.neg[n]
            ops += [("decide", c) for c in picked]
            if n <= WITNESS_MAX_N:
                other = 1 - HALF_PICKS[n]
                k_pos, k_neg = WITNESS_PICKS
                ops += [
                    ("witness", c)
                    for c in _halves(self.pos[n], other)[:k_pos]
                    + _halves(self.neg[n], other)[:k_neg]
                ]
        return ops

    def _ops(self, r: int) -> list[tuple[str, Case]]:
        """The round's ops in an order drawn from the seed and round."""
        order = np.random.default_rng([self.seed, r]).permutation(
            len(self.ops)
        )
        return [self.ops[i] for i in order]

    def _witness(self, case: Case) -> bool:
        mapping = equivalence.baseline_isomorphism(case.net)
        if mapping is None:
            return not case.truth
        return case.truth and equivalence.verify_isomorphism(
            case.net, self.targets[case.net.n_stages], mapping
        )

    def run_round(self, r: int) -> Round:
        out = Round()
        ops = self._ops(r)
        out.attempted = len(ops)
        t0 = time.perf_counter()
        for kind, case in ops:
            with obs.span("bench.op"):
                if kind == "decide":
                    dt, verdict, err = _timed(
                        equivalence.is_baseline_equivalent, case.net
                    )
                    ok = not err and verdict == case.truth
                    if case.truth:
                        out.decide_times.setdefault(
                            case.net.size, []
                        ).append(dt)
                else:
                    dt, ok, err = _timed(self._witness, case)
                    ok = not err and ok
            out.latencies.append(dt)
            if not ok:
                out.failed += 1
                _fail(f"{kind} on {case.label}")
        out.wall = time.perf_counter() - t0
        return out


# -- simulate ----------------------------------------------------------------

SIM_TOPOLOGIES = (
    "omega", "baseline", "flip", "indirect_binary_cube", "extra_stage_omega",
)
SIM_SIZES = (10, 11, 12)
#: (traffic, policy, dead cells): half of the 2^3 factorial, so each
#: level of each factor is paired with both levels of the others.
SIM_VARIANTS = (
    ("uniform", "drop", 0),
    ("uniform", "block", 3),
    ("hotspot", "drop", 3),
    ("hotspot", "block", 0),
)
SIM_RATE = 0.8
SIM_CYCLES = 40


class Simulate:
    """Single ``simulate(ScenarioSpec)`` calls, each compiling cold.

    A round is 15 scenarios, one per (topology, size), in a fixed order
    that alternates sizes.  Every scenario has its own traffic and fault
    seed, and a round holds more distinct compile keys than the
    8-entry compile cache, so no op finds its network compiled.
    """

    min_rounds = 1

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.specs = []
        for ti, topo in enumerate(SIM_TOPOLOGIES):
            for si, n in enumerate(SIM_SIZES):
                traffic, policy, cells = SIM_VARIANTS[(ti + si) % 4]
                op_seed = seed * 1000 + len(self.specs)
                self.specs.append(ScenarioSpec(
                    network=NetworkSpec.catalog(topo, n=n),
                    traffic=TrafficSpec.of(traffic, rate=SIM_RATE),
                    sim=SimPolicy(
                        cycles=SIM_CYCLES, policy=policy, backend="numpy"
                    ),
                    faults=FaultSpec(cells=cells, seed=op_seed),
                    seed=op_seed,
                ))
        # Networks are built here, not in the timed ops: the spec
        # layer memoizes them.
        for spec in self.specs:
            spec.network.resolve()
        self.golden: list[str] | None = None
        self.first: list[str] | None = None
        engine.simulate(ScenarioSpec(
            network=NetworkSpec.catalog("omega", n=4),
            traffic=TrafficSpec.of("uniform", rate=SIM_RATE),
            sim=SimPolicy(cycles=SIM_CYCLES, backend="numpy"),
        ))

    def run_round(self, r: int) -> Round:
        out = Round(attempted=len(self.specs))
        digests = []
        t0 = time.perf_counter()
        for spec in self.specs:
            with obs.span("bench.op"):
                dt, rep, err = _timed(engine.simulate, spec)
            out.latencies.append(dt)
            if err:
                out.failed += 1
                digests.append(None)
                continue
            digests.append(report_digest(rep.to_dict()))
            out.hops += rep.total_hops
            out.offered += rep.offered
            out.delivered += rep.delivered
            if rep.offered != (
                rep.delivered + rep.dropped + rep.unroutable + rep.in_flight
            ):
                out.failed += 1
                digests[-1] = None
                _fail(f"packet conservation on {spec.label}")
        out.wall = time.perf_counter() - t0
        if self.first is None:
            self.first = digests
        bad = set(golden_mismatches(digests, self.first))
        if self.golden is not None:
            bad |= set(golden_mismatches(digests, self.golden))
        for i in sorted(bad):
            if digests[i] is not None:
                out.failed += 1
                _fail(f"report digest of {self.specs[i].label} (op {i})")
        return out

    def record(self) -> list[str]:
        """The digests one round produces (for ``goldens.json``)."""
        self.run_round(0)
        return self.first


# -- sweep -------------------------------------------------------------------

SWEEP_NETWORKS = ("omega", "baseline", "extra_stage_omega", "omega_3dp")
SWEEP_STAGES = 5
SWEEP_MAX_FAULTS = 8
SWEEP_DRAWS = 3
SWEEP_RATE = 0.8
SWEEP_CYCLES = 200
SWEEP_WORKERS = 2


class Sweep:
    """A reliability campaign into a fresh store, then its reports.

    A round runs the campaign with two pool workers, loads the store,
    renders the aggregate and reliability reports, and makes a resume
    pass over the complete store.  One op is one scenario stored; its
    latency is the time since the previous scenario was stored.
    """

    min_rounds = 1

    def __init__(self, seed: int, out_dir: Path) -> None:
        self.seed = seed
        self.out_dir = out_dir
        self.spec = reliability.ReliabilitySweepSpec(
            networks=SWEEP_NETWORKS,
            stages=SWEEP_STAGES,
            rate=SWEEP_RATE,
            cycles=SWEEP_CYCLES,
            max_faults=SWEEP_MAX_FAULTS,
            draws=SWEEP_DRAWS,
            fault_seed_base=seed * 1000,
        )
        self.campaign = self.spec.to_campaign()
        scenarios = campaign_spec.expand_scenarios(self.campaign)
        self.total = len(scenarios)
        self.baseline = self.spec.baseline_label()
        # Warm-up: lazy imports on the simulation path.  The workers
        # fork from this process, so they inherit the resolved networks.
        engine.simulate(scenarios[0])
        self.golden: dict | None = None
        self.first: dict | None = None

    def _reports(self, store: Path) -> tuple[dict, list, dict]:
        records = aggregate.load_records(store)
        report = reliability.reliability_report(
            records, threshold=self.spec.threshold, baseline=self.baseline
        )
        digests = {
            "aggregate": digest_bytes(aggregate.dumps_aggregate(records)),
            "reliability": digest_bytes(reliability.dumps_reliability(report)),
        }
        return digests, records, report

    def _check_curves(self, report: dict) -> list[str]:
        """Availability never rises with faults; the extra stage helps."""
        problems = []
        curves: dict[str, dict[int, float]] = {}
        for row in report["curves"]:
            curves.setdefault(row["topology"], {})[row["faults"]] = row[
                "availability_mean"
            ]
        for label, by_count in curves.items():
            avail = [by_count[k] for k in sorted(by_count)]
            if any(b > a for a, b in zip(avail, avail[1:])):
                problems.append(f"availability rises with faults on {label}")
        omega = curves.get(f"omega({SWEEP_STAGES})", {})
        extra = curves.get(f"extra_stage_omega({SWEEP_STAGES})", {})
        if not omega or set(omega) != set(extra):
            problems.append("omega and extra_stage_omega curves missing")
        for count in sorted(omega):
            if extra.get(count, -1.0) < omega[count]:
                problems.append(
                    f"extra_stage_omega below omega at {count} faults"
                )
        return problems

    def run_round(self, r: int) -> Round:
        out = Round(attempted=self.total)
        work = self.out_dir / f"sweep-r{r}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        store = work / "store.jsonl"
        stamps = []

        def progress(_record, _done, _total) -> None:
            stamps.append(time.perf_counter())

        t0 = time.perf_counter()
        try:
            with obs.span("bench.op"):
                summary = runner.run_campaign(
                    self.campaign, store, workers=SWEEP_WORKERS,
                    backend="numpy", progress=progress,
                )
                digests, records, report = self._reports(store)
                resumed = runner.run_campaign(
                    self.campaign, store, workers=SWEEP_WORKERS,
                    backend="numpy", resume=True,
                )
        except Exception:  # a failed round fails all its ops
            out.wall = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            out.failed = self.total
            out.latencies = [out.wall]
            shutil.rmtree(work, ignore_errors=True)
            return out
        out.wall = time.perf_counter() - t0
        out.latencies = list(np.diff([t0, *stamps]))
        out.records = len(records)
        out.store_bytes = store.stat().st_size
        for rec in records:
            out.hops += rec["report"]["total_hops"]
            out.offered += rec["report"]["offered"]
            out.delivered += rec["report"]["delivered"]
        shutil.rmtree(work, ignore_errors=True)

        problems = self._check_curves(report)
        if summary["ran"] != self.total or len(records) != self.total:
            problems.append(
                f"stored {len(records)} of {self.total} scenarios"
            )
        if resumed["ran"] != 0:
            problems.append(f"resume pass ran {resumed['ran']} scenarios")
        if self.first is None:
            self.first = digests
        for ref in (self.first, self.golden):
            if ref is not None and digests != ref:
                problems.append(f"report bytes {digests} != {ref}")
        for what in problems:
            _fail(what)
        # Report checks cover the whole store, so a failed check fails
        # every scenario of the round.
        out.failed = self.total if problems else 0
        return out

    def record(self) -> dict:
        """The report digests one round produces (for ``goldens.json``)."""
        self.run_round(0)
        return self.first


WORKLOADS = {"decide": Decide, "simulate": Simulate, "sweep": Sweep}


def setup(name: str, seed: int, out_dir: Path):
    """Generate a workload's inputs from ``seed`` and warm it up.

    At the default seed, outputs are also checked against the goldens.
    """
    wl = Sweep(seed, out_dir) if name == "sweep" else WORKLOADS[name](seed)
    if seed == DEFAULT_SEED:
        wl.golden = json.loads(GOLDENS.read_text(encoding="utf-8")).get(name)
    return wl
