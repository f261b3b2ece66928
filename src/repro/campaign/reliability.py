"""Reliability sweeps: availability curves, saturation, MTTF, resilience.

The paper settles which networks are *the same*; this module measures
which augmented networks are *better* — what an extra stage of switches
buys in surviving terminal pairs as components fail.  A
:class:`ReliabilitySweepSpec` expands a (network × fault count) grid
from 0 faults to saturation and runs it through the ordinary campaign
machinery (:func:`repro.campaign.runner.run_campaign` — inline or
supervised pool, resumable, chaos-hardened); the aggregates below then
reduce the stored records to the classical reliability comparison:

* **availability curve** — mean/min/max terminal availability
  (:func:`repro.sim.faults.fault_connectivity`) and observed unroutable
  fraction vs fault count, per topology;
* **saturation point** — the first fault count whose mean availability
  falls below a threshold;
* **MTTF-style faults-to-disconnect** — under the sequential-failure
  model (:meth:`repro.sim.faults.FaultSet.kill_order`), the expected
  number of killed components at which the first terminal pair
  disconnects, averaged over fault draws;
* **resilience per switch** — availability gain over the baseline
  topology normalised by the extra cells spent, the hardware-efficiency
  number of the fault-tolerant-MIN literature.

Apples-to-apples discipline: sweeps set
:attr:`~repro.campaign.spec.CampaignSpec.nested_faults`, so every
compared topology sees the *identical* structural fault draws at every
count, and a draw at count ``k`` is a prefix of the same draw at
``k + 1`` — availability is monotone non-increasing in the count by
construction, per draw and hence in the mean.

Like :mod:`repro.campaign.aggregate`, everything here is a pure,
order-independent function of the stored records: reports are
byte-identical across inline and pooled runs, interruptions and
``--resume``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Mapping

from repro.campaign.aggregate import _mean, load_records
from repro.campaign.spec import CampaignSpec, _grid_networks
from repro.core.errors import ReproError
from repro.obs import trace as obs
from repro.obs.metrics import metrics
from repro.obs.schema import COUNTER_AVAILABILITY_EVALS, SPAN_RELIABILITY
from repro.sim.faults import FaultSet, fault_connectivity
from repro.spec.scenario import NetworkSpec, canonical_json

__all__ = [
    "ReliabilitySweepSpec",
    "dumps_reliability",
    "dumps_sweep",
    "loads_sweep",
    "reliability_from_store",
    "reliability_report",
    "reliability_summary_table",
    "reliability_table",
]

_SWEEP_FORMAT = "repro-reliability-sweep"
_SWEEP_VERSION = 1
_RELIABILITY_FORMAT = "repro-campaign-reliability"
_RELIABILITY_VERSION = 1


@dataclass(frozen=True)
class ReliabilitySweepSpec:
    """A declarative fault-saturation sweep (``repro-reliability-sweep``).

    A thin layer over :class:`~repro.campaign.spec.CampaignSpec`: one
    stage order, one traffic point, and a fault-count axis running from
    0 to saturation, with ``draws`` seeded fault samples per count.  The
    first network is the resilience baseline.

    Attributes
    ----------
    networks:
        Topology entries (same forms as the campaign ``topologies``
        axis).  The first entry is the baseline that resilience-per-
        switch is measured against.
    stages:
        Network order ``n`` shared by every catalog entry — augmented
        variants add stages on top but keep the same ``2^n`` terminals,
        which is exactly what makes the comparison fair.
    traffic, rate, cycles, policy, drain:
        The single traffic point every grid cell runs.
    max_faults:
        Largest dead-cell count; ``None`` sweeps to saturation — the
        smallest interior-cell pool among the compared networks.
    draws:
        Independent fault samples per count (the seed axis).
    threshold:
        Availability level defining the saturation point.
    fault_seed_base:
        Forwarded to the campaign spec (disjoint fault populations).
    """

    networks: tuple = ("omega", "extra_stage_omega")
    stages: int = 4
    traffic: object = "uniform"
    rate: float = 0.9
    max_faults: int | None = None
    draws: int = 8
    cycles: int = 200
    policy: str = "drop"
    drain: bool = False
    threshold: float = 0.99
    fault_seed_base: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.networks, (str, Mapping)):
            object.__setattr__(self, "networks", (self.networks,))
        else:
            object.__setattr__(self, "networks", tuple(self.networks))
        if not self.networks:
            raise ReproError("reliability sweep needs at least one network")
        if not isinstance(self.stages, int) or isinstance(self.stages, bool) \
                or self.stages < 2:
            raise ReproError(
                f"stages must be an int >= 2, got {self.stages!r}"
            )
        if self.max_faults is not None and (
            not isinstance(self.max_faults, int) or self.max_faults < 0
        ):
            raise ReproError(
                f"max_faults must be None or an int >= 0, "
                f"got {self.max_faults!r}"
            )
        if not isinstance(self.draws, int) or self.draws < 1:
            raise ReproError(f"draws must be an int >= 1, got {self.draws!r}")
        if not 0.0 < float(self.threshold) <= 1.0:
            raise ReproError(
                f"threshold must be in (0, 1], got {self.threshold!r}"
            )

    def to_dict(self) -> dict:
        """The sweep as a JSON-ready dict (inverse of :meth:`from_dict`)."""
        return {
            "networks": [
                dict(t) if isinstance(t, Mapping) else t
                for t in self.networks
            ],
            "stages": self.stages,
            "traffic": (
                dict(self.traffic)
                if isinstance(self.traffic, Mapping) else self.traffic
            ),
            "rate": float(self.rate),
            "max_faults": self.max_faults,
            "draws": self.draws,
            "cycles": self.cycles,
            "policy": self.policy,
            "drain": self.drain,
            "threshold": float(self.threshold),
            "fault_seed_base": self.fault_seed_base,
        }

    @classmethod
    def from_dict(cls, doc: Mapping) -> "ReliabilitySweepSpec":
        """Rebuild a sweep from :meth:`to_dict` output (with validation)."""
        known = {
            "networks", "stages", "traffic", "rate", "max_faults",
            "draws", "cycles", "policy", "drain", "threshold",
            "fault_seed_base",
        }
        extra = set(doc) - known
        if extra:
            raise ReproError(
                f"unknown reliability sweep fields {sorted(extra)}"
            )
        return cls(**{k: doc[k] for k in known & set(doc)})

    @property
    def digest(self) -> str:
        """Stable 16-hex content identity of the sweep."""
        return hashlib.sha256(
            canonical_json(self.to_dict()).encode()
        ).hexdigest()[:16]

    def resolved_max_faults(
        self, *, base_dir: str | Path | None = None
    ) -> int:
        """The sweep's largest fault count, saturation-resolved.

        Saturation is the smallest interior-cell pool
        (``(n_stages - 2) · size``, the candidate set of
        :meth:`FaultSet.random ` under spared terminal stages) among the
        compared networks — past it at least one network cannot even
        sample the requested fault count.
        """
        if self.max_faults is not None:
            return self.max_faults
        base = Path(base_dir) if base_dir is not None else None
        probe = CampaignSpec(
            topologies=self.networks, stages=(self.stages,)
        )
        pools = []
        for network in _grid_networks(probe, base):
            net = network.resolve()
            pools.append(max(0, (net.n_stages - 2) * net.size))
        return min(pools)

    def to_campaign(
        self, *, base_dir: str | Path | None = None
    ) -> CampaignSpec:
        """The equivalent campaign grid (``nested_faults`` set).

        Fault counts are dead cells only — the cell-failure model of the
        classical MIN reliability comparisons; the kill-order machinery
        severs links just as happily if a spec asks via the generic
        campaign ``faults`` axis.
        """
        return CampaignSpec(
            topologies=self.networks,
            stages=(self.stages,),
            traffic=(self.traffic,),
            rates=(self.rate,),
            faults=tuple(range(
                self.resolved_max_faults(base_dir=base_dir) + 1
            )),
            seeds=tuple(range(self.draws)),
            cycles=self.cycles,
            policy=self.policy,
            drain=self.drain,
            fault_seed_base=self.fault_seed_base,
            nested_faults=True,
        )

    def baseline_label(
        self, *, base_dir: str | Path | None = None
    ) -> str:
        """The resilience baseline: the first network's display label."""
        base = Path(base_dir) if base_dir is not None else None
        probe = CampaignSpec(
            topologies=(self.networks[0],), stages=(self.stages,)
        )
        return _grid_networks(probe, base)[0].label


def dumps_sweep(
    spec: ReliabilitySweepSpec, *, indent: int | None = None
) -> str:
    """Serialize a reliability sweep spec to a JSON string."""
    doc = {
        "format": _SWEEP_FORMAT,
        "version": _SWEEP_VERSION,
        **spec.to_dict(),
    }
    return json.dumps(doc, indent=indent)


def loads_sweep(text: str) -> ReliabilitySweepSpec:
    """Parse a reliability sweep spec from a JSON string (validated)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as err:
        raise ReproError(f"not valid JSON: {err}") from err
    if not isinstance(doc, dict) or doc.get("format") != _SWEEP_FORMAT:
        raise ReproError(
            f"not a {_SWEEP_FORMAT} document "
            f"(format={doc.get('format') if isinstance(doc, dict) else None!r})"
        )
    if doc.get("version") != _SWEEP_VERSION:
        raise ReproError(
            f"unsupported {_SWEEP_FORMAT} version {doc.get('version')!r}"
        )
    fields = {
        k: v for k, v in doc.items() if k not in ("format", "version")
    }
    return ReliabilitySweepSpec.from_dict(fields)


# -- aggregates --------------------------------------------------------------


def _availability_fn() -> Callable[[Mapping], float]:
    """A per-report memoized structural-availability evaluator.

    Availability is a pure function of (topology, fault counts, fault
    seed) — one backward reachability sweep per distinct key, shared by
    every seed and record that reuses the fault sample.
    """
    memo: dict[tuple, float] = {}

    def availability(scenario: Mapping) -> float:
        key = (
            canonical_json(scenario["topology"]),
            scenario["fault_cells"],
            scenario["fault_links"],
            scenario["fault_seed"],
        )
        if key not in memo:
            if obs.enabled():
                metrics().counter(COUNTER_AVAILABILITY_EVALS).add()
            net = NetworkSpec.from_spec(scenario["topology"]).resolve()
            faults = FaultSet.from_counts(
                net.n_stages,
                net.size,
                cells=scenario["fault_cells"],
                links=scenario["fault_links"],
                seed=scenario["fault_seed"],
            )
            memo[key] = (
                1.0 if faults is None else fault_connectivity(net, faults)
            )
        return memo[key]

    return availability


def _traffic_id(scenario: Mapping) -> str:
    return json.dumps(
        {k: v for k, v in scenario["traffic"].items() if k != "rate"},
        sort_keys=True,
        separators=(",", ":"),
    )


def _collect(records: Iterable[Mapping]) -> dict:
    """Group records for the reliability reduction.

    ``data[context][label]`` holds the topology's shape and, per
    ``(fault_cells, fault_links)`` count, per-seed measurements.  The
    *context* — traffic, rate, cycles, policy, drain, terminal size —
    excludes the stage count on purpose: augmented networks with extra
    stages on the same ``2^n`` terminals share a context with their
    baseline, which is what the resilience comparison needs.
    """
    data: dict[tuple, dict[str, dict]] = {}
    seen: dict[tuple, str] = {}
    availability = _availability_fn()
    for record in records:
        s = record["scenario"]
        r = record["report"]
        context = (
            _traffic_id(s),
            s["traffic"]["rate"],
            s["cycles"],
            s["policy"],
            s["drain"],
            r["size"],
        )
        label = s["topology"]["label"]
        count = (s["fault_cells"], s["fault_links"])
        seed = s["seed"]
        run = (context, label, count, seed)
        if run in seen:
            if seen[run] == record["hash"]:
                continue  # literal duplicate record: count it once
            raise ReproError(
                f"store holds two different results for {label} "
                f"faults={count} seed={seed} (hashes {seen[run]} and "
                f"{record['hash']}); restrict aggregation to one "
                "campaign's scenarios or use a fresh store"
            )
        seen[run] = record["hash"]
        topo = data.setdefault(context, {}).setdefault(
            label,
            {
                "n_stages": r["n_stages"],
                "size": r["size"],
                "traffic": r["traffic"],
                "counts": {},
            },
        )
        topo["counts"].setdefault(count, {})[seed] = {
            "availability": availability(s),
            "unroutable": int(r["unroutable"]),
            "offered": int(r["offered"]),
        }
    return data


def reliability_report(
    records: Iterable[Mapping],
    *,
    threshold: float = 0.99,
    baseline: str | None = None,
) -> dict:
    """The full reliability reduction of a record set.

    Returns ``{"curves", "summary", "resilience", "threshold",
    "baseline"}``:

    * ``curves`` — one row per (topology, fault count): mean/min/max
      structural availability over the draws and the observed
      unroutable fraction of offered packets.
    * ``summary`` — one row per topology: the saturation point (first
      count with mean availability below ``threshold``; ``None`` when
      the sweep never crosses it), the MTTF-style mean
      faults-to-first-disconnect over the draws (draws that never
      disconnect are censored at ``max count + 1``; their number is
      reported), and the topology's total cell budget.
    * ``resilience`` — one row per (non-baseline topology, fault
      count): availability gain over the baseline at the same count,
      the extra cells spent, and the gain per extra cell.  ``baseline``
      defaults to the topology with the smallest cell budget
      (lexicographically first on ties).

    Deterministic and order-independent: pass records from
    :func:`~repro.campaign.aggregate.load_records`.
    """
    if not 0.0 < float(threshold) <= 1.0:
        raise ReproError(f"threshold must be in (0, 1], got {threshold!r}")
    with obs.span(SPAN_RELIABILITY):
        return _reliability_report(
            records, threshold=float(threshold), baseline=baseline
        )


def _reliability_report(
    records: Iterable[Mapping],
    *,
    threshold: float,
    baseline: str | None,
) -> dict:
    data = _collect(records)
    curves: list[dict] = []
    summary: list[dict] = []
    resilience: list[dict] = []
    baselines: set[str] = set()
    for context in sorted(data):
        by_label = data[context]
        _tid, rate, _cyc, _pol, _drn, _size = context

        def _cells_total(label: str) -> int:
            topo = by_label[label]
            return topo["n_stages"] * topo["size"]

        if baseline is not None:
            if baseline not in by_label:
                raise ReproError(
                    f"baseline topology {baseline!r} has no records; "
                    f"store holds {sorted(by_label)}"
                )
            base_label = baseline
        else:
            base_label = min(
                sorted(by_label), key=lambda lbl: _cells_total(lbl)
            )
        baselines.add(base_label)

        mean_avail: dict[tuple[str, tuple], float] = {}
        for label in sorted(by_label):
            topo = by_label[label]
            counts = sorted(
                topo["counts"], key=lambda c: (c[0] + c[1], c)
            )
            disconnect: dict[int, int] = {}
            max_total = max(c[0] + c[1] for c in counts)
            for count in counts:
                seeds = topo["counts"][count]
                avail = [
                    seeds[seed]["availability"] for seed in sorted(seeds)
                ]
                offered = sum(seeds[s]["offered"] for s in seeds)
                unroutable = sum(seeds[s]["unroutable"] for s in seeds)
                mean_avail[(label, count)] = _mean(avail)
                curves.append(
                    {
                        "topology": label,
                        "n_stages": topo["n_stages"],
                        "size": topo["size"],
                        "traffic": topo["traffic"],
                        "rate": rate,
                        "fault_cells": count[0],
                        "fault_links": count[1],
                        "faults": count[0] + count[1],
                        "draws": len(seeds),
                        "availability_mean": _mean(avail),
                        "availability_min": min(avail),
                        "availability_max": max(avail),
                        "unroutable_fraction": (
                            unroutable / offered if offered else 0.0
                        ),
                    }
                )
                total = count[0] + count[1]
                for seed in sorted(seeds):
                    if (
                        seed not in disconnect
                        and seeds[seed]["availability"] < 1.0
                    ):
                        disconnect[seed] = total
            all_seeds = sorted(
                {s for c in counts for s in topo["counts"][c]}
            )
            censored = [s for s in all_seeds if s not in disconnect]
            mttf_samples = [
                disconnect.get(s, max_total + 1) for s in all_seeds
            ]
            saturation = next(
                (
                    c[0] + c[1] for c in counts
                    if mean_avail[(label, c)] < threshold
                ),
                None,
            )
            summary.append(
                {
                    "topology": label,
                    "n_stages": topo["n_stages"],
                    "size": topo["size"],
                    "traffic": topo["traffic"],
                    "rate": rate,
                    "cells_total": _cells_total(label),
                    "draws": len(all_seeds),
                    "max_faults": max_total,
                    "saturation": saturation,
                    "mttf_faults": (
                        _mean(mttf_samples) if mttf_samples else None
                    ),
                    "mttf_censored": len(censored),
                    "baseline": label == base_label,
                }
            )
        base_cells = _cells_total(base_label)
        for label in sorted(by_label):
            if label == base_label:
                continue
            extra = _cells_total(label) - base_cells
            shared = sorted(
                set(by_label[label]["counts"])
                & set(by_label[base_label]["counts"]),
                key=lambda c: (c[0] + c[1], c),
            )
            for count in shared:
                gain = (
                    mean_avail[(label, count)]
                    - mean_avail[(base_label, count)]
                )
                resilience.append(
                    {
                        "topology": label,
                        "baseline": base_label,
                        "rate": rate,
                        "fault_cells": count[0],
                        "fault_links": count[1],
                        "faults": count[0] + count[1],
                        "availability_gain": gain,
                        "extra_cells": extra,
                        "gain_per_cell": (
                            gain / extra if extra > 0 else None
                        ),
                    }
                )
    return {
        "threshold": threshold,
        "baseline": sorted(baselines),
        "curves": curves,
        "summary": summary,
        "resilience": resilience,
    }


def reliability_table(report: Mapping) -> str:
    """Render the availability curves as a fixed-width text table."""
    header = (
        f"{'topology':<22} {'traffic':<16} {'rate':>5} {'flt':>7} "
        f"{'draws':>5} {'avail':>7} {'min':>7} {'max':>7} {'unrout':>7}"
    )
    lines = [header, "-" * len(header)]
    for row in report["curves"]:
        flt = f"{row['fault_cells']}c{row['fault_links']}l"
        lines.append(
            f"{row['topology']:<22} {row['traffic']:<16} "
            f"{row['rate']:>5.2f} {flt:>7} {row['draws']:>5} "
            f"{row['availability_mean']:>7.4f} "
            f"{row['availability_min']:>7.4f} "
            f"{row['availability_max']:>7.4f} "
            f"{row['unroutable_fraction']:>7.4f}"
        )
    return "\n".join(lines)


def reliability_summary_table(report: Mapping) -> str:
    """Render saturation/MTTF/resilience as fixed-width text tables."""
    header = (
        f"{'topology':<22} {'stages':>6} {'cells':>6} {'draws':>5} "
        f"{'saturation':>10} {'mttf':>7} {'censored':>8}"
    )
    lines = [
        f"saturation threshold: availability < {report['threshold']}",
        header,
        "-" * len(header),
    ]
    for row in report["summary"]:
        sat = "-" if row["saturation"] is None else str(row["saturation"])
        mttf = (
            "-" if row["mttf_faults"] is None
            else f"{row['mttf_faults']:.2f}"
        )
        mark = " *" if row["baseline"] else ""
        lines.append(
            f"{row['topology'] + mark:<22} {row['n_stages']:>6} "
            f"{row['cells_total']:>6} {row['draws']:>5} {sat:>10} "
            f"{mttf:>7} {row['mttf_censored']:>8}"
        )
    lines.append("(* resilience baseline; mttf censored at max faults + 1)")
    if report["resilience"]:
        header2 = (
            f"{'topology':<22} {'vs':<18} {'flt':>7} {'Δavail':>8} "
            f"{'+cells':>6} {'per-cell':>9}"
        )
        lines += ["", header2, "-" * len(header2)]
        for row in report["resilience"]:
            flt = f"{row['fault_cells']}c{row['fault_links']}l"
            per = (
                "-" if row["gain_per_cell"] is None
                else f"{row['gain_per_cell']:+.5f}"
            )
            lines.append(
                f"{row['topology']:<22} {row['baseline']:<18} {flt:>7} "
                f"{row['availability_gain']:>+8.4f} "
                f"{row['extra_cells']:>6} {per:>9}"
            )
    return "\n".join(lines)


def dumps_reliability(
    report: Mapping, *, indent: int | None = None
) -> str:
    """The canonical reliability report as a JSON string.

    Deterministic by construction — sorted rows, sorted keys, no
    wall-clock fields — so two stores holding the same scenario results
    serialize to byte-identical reports regardless of completion order,
    worker count or interruptions.
    """
    doc = {
        "format": _RELIABILITY_FORMAT,
        "version": _RELIABILITY_VERSION,
        **dict(report),
    }
    return json.dumps(doc, sort_keys=True, indent=indent)


def reliability_from_store(
    store,
    *,
    hashes: Iterable[str] | None = None,
    threshold: float = 0.99,
    baseline: str | None = None,
) -> dict:
    """:func:`reliability_report` straight from a result store (path ok)."""
    return reliability_report(
        load_records(store, hashes=hashes),
        threshold=threshold,
        baseline=baseline,
    )
