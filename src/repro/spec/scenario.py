"""Typed, validated scenario specs — the one description of a run.

Every way this repo can say "run this MIN under this workload" resolves
through the frozen dataclasses here:

* :class:`NetworkSpec` — a topology by registry name + parameters, or a
  digest-pinned ``repro-midigraph`` file;
* :class:`TrafficSpec` — a registered traffic pattern + rate + kwargs;
* :class:`FaultSpec` — structural fault counts and their sample seed;
* :class:`SimPolicy` — the engine knobs (cycles, contention policy,
  drain);
* :class:`ScenarioSpec` — the composite: one fully-specified simulation.

Each spec round-trips through canonical JSON (``to_spec``/``from_spec``
are exact inverses), carries a stable content :attr:`ScenarioSpec.digest`
(the identity the campaign result store is keyed by, unchanged since
the first campaign stores) and resolves to concrete simulator
inputs via registry lookup (:meth:`ScenarioSpec.resolve`).  The CLI,
``simulate``, ``simulate_batch`` and the campaign workers all construct
and consume these objects; nothing else in the repo hand-rolls topology
or traffic dicts.

Wire format
-----------
``ScenarioSpec.to_spec()`` emits exactly the scenario dict shape the
campaign store has always held, so digests of pre-existing stores are
unchanged and ``--resume`` works across the redesign::

    {"topology": {"kind": "catalog", "name": "omega", "n": 4,
                  "label": "omega(4)"},
     "traffic": {"name": "uniform", "rate": 0.9},
     "cycles": 60, "policy": "drop", "drain": false, "seed": 1,
     "fault_cells": 0, "fault_links": 0, "fault_seed": 0}

For file topologies the *path spelling* is excluded from the digest (the
content digest and label identify the network), so a store written on
one machine resumes on another.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

from repro.core.errors import ReproError
from repro.core.midigraph import MIDigraph

__all__ = [
    "FaultSpec",
    "NetworkSpec",
    "ResolvedScenario",
    "ScenarioSpec",
    "SimPolicy",
    "TrafficSpec",
    "canonical_json",
    "is_file_entry",
    "normalize_network_entry",
    "normalize_traffic_entry",
    "scenario_digest",
]

_POLICIES = ("drop", "block")

# Keys of the topology wire dict that are not builder parameters.
_TOPOLOGY_META_KEYS = frozenset({"kind", "name", "label", "path", "digest"})


def _network_registry():
    # Deferred: repro.networks.catalog builds its registry on top of
    # repro.spec.registry; importing it lazily keeps this module usable
    # from either side without an import cycle.
    from repro.networks.catalog import NETWORK_CATALOG

    return NETWORK_CATALOG


def _traffic_registry():
    from repro.sim.traffic import TRAFFIC_PATTERNS

    return TRAFFIC_PATTERNS


def canonical_json(doc: object) -> str:
    """Canonical JSON: sorted keys, no whitespace — the hashing form."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def scenario_digest(doc: Mapping) -> str:
    """The stable 16-hex-digit identity of a scenario wire dict.

    Hashes the canonical JSON form, so any two scenarios that would run
    the same simulation collide and everything else separates — the key
    of the append-only result store and the basis of ``--resume``.  For
    file topologies the *path spelling* is excluded (the content digest
    and label identify the network), so resuming from a different
    working directory or via a different relative path still matches.

    This is the same function (bit for bit) as the campaign hash that
    predates the spec layer; stores written before the redesign keep
    their keys.
    """
    doc = {k: doc[k] for k in doc}
    topo = doc.get("topology")
    if isinstance(topo, Mapping) and topo.get("kind") == "file":
        doc["topology"] = {k: v for k, v in topo.items() if k != "path"}
    digest = hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()
    return digest[:16]


def _doc_group_key(doc: Mapping) -> str:
    """Batch-compatibility key of a scenario wire dict (see group_key)."""
    return canonical_json(
        {
            "topology": dict(doc["topology"]),
            "cycles": doc["cycles"],
            "policy": doc["policy"],
            "drain": doc["drain"],
            "fault_cells": doc["fault_cells"],
            "fault_links": doc["fault_links"],
            "fault_seed": doc["fault_seed"],
        }
    )


def is_file_entry(entry: str) -> bool:
    """True when a string topology entry names a file, not the catalog.

    The single classifier behind both spec normalization and the CLI's
    path resolution: anything that is not a catalog name and looks like
    a path (ends in ``.json`` or contains a separator) is a file entry.
    """
    return entry not in _network_registry() and (
        entry.endswith(".json") or "/" in entry
    )


def normalize_network_entry(entry) -> dict:
    """Validate a campaign topology axis entry into canonical dict form.

    Accepts a registry name, a ``repro-midigraph`` JSON path, or a
    mapping ``{"name"|"file": ..., "label": ..., **params}`` (extra keys
    are checked against the entry's registry schema — e.g.
    ``{"name": "omega_k", "k": 3}``).  The ``"n"`` parameter is reserved
    for the grid's ``stages`` axis.  Returns the entry *without* ``n``;
    :meth:`NetworkSpec.from_entry` later combines it with a stage count.
    """
    reg = _network_registry()
    if isinstance(entry, str):
        if entry in reg and entry != "file":
            return {"kind": "catalog", "name": entry}
        if is_file_entry(entry):
            return {"kind": "file", "path": entry}
        raise ReproError(
            f"unknown topology {entry!r}; catalog names are "
            f"{reg.names()} (file entries end in .json)"
        )
    if isinstance(entry, Mapping):
        if "file" in entry:
            extra = set(entry) - {"file", "label"}
            if extra:
                raise ReproError(
                    f"unexpected topology entry keys {sorted(extra)}"
                )
            doc = {"kind": "file", "path": str(entry["file"])}
            if "label" in entry:
                doc["label"] = str(entry["label"])
            return doc
        if "name" in entry:
            name = str(entry["name"])
            if name == "file" or name not in reg:
                raise ReproError(
                    f"unknown catalog topology {name!r}; choose from "
                    f"{reg.names()}"
                )
            allowed = set(reg.get(name).params) - {"n"}
            extra = set(entry) - {"name", "label"} - allowed
            if extra:
                raise ReproError(
                    f"unexpected topology entry keys {sorted(extra)}"
                )
            doc = {"kind": "catalog", "name": name}
            for key in sorted(allowed & set(entry)):
                doc[key] = entry[key]
            if "label" in entry:
                doc["label"] = str(entry["label"])
            return doc
    raise ReproError(
        f"topology entry must be a catalog name, a .json path or a "
        f"{{'file'|'name': ..., 'label': ...}} mapping, got {entry!r}"
    )


def normalize_traffic_entry(entry) -> dict:
    """Validate a campaign traffic axis entry (rate-free spec dict).

    Accepts a pattern name or a ``{"name": ..., **params}`` mapping;
    the entry must not fix ``rate`` (that is the grid's ``rates`` axis).
    Construction of a throw-away :class:`TrafficSpec` validates the
    name and parameters, so bad entries fail at spec construction, not
    hours into a pooled sweep.
    """
    if isinstance(entry, str):
        entry = {"name": entry}
    if not isinstance(entry, Mapping) or "name" not in entry:
        raise ReproError(
            f"traffic entry must be a pattern name or a "
            f"{{'name': ...}} mapping, got {entry!r}"
        )
    doc = {k: entry[k] for k in sorted(entry)}
    if "rate" in doc:
        raise ReproError(
            "traffic entries must not fix 'rate'; use the spec's "
            "rates axis"
        )
    TrafficSpec.from_spec({**doc, "rate": 1.0})
    return doc


# --------------------------------------------------------------------------
# NetworkSpec


@dataclass(frozen=True)
class NetworkSpec:
    """A topology: registry entry + parameters, or a pinned network file.

    Attributes
    ----------
    name:
        Registry name (``"omega"``, ``"benes"``, ``"omega_k"``, …) or the
        reserved ``"file"`` for a saved ``repro-midigraph`` JSON file.
    params:
        Builder parameters, validated and default-filled against the
        registry schema at construction (e.g. ``{"n": 4}`` or
        ``{"n": 3, "k": 3}``; ``{"path": ..., "digest": ...}`` for
        files).
    label:
        Display label (the report's network name and the aggregation
        key).  Defaults to ``name(params…)`` / the file stem.
    """

    name: str
    params: Mapping = field(default_factory=dict)
    label: str | None = None

    def __post_init__(self) -> None:
        entry = _network_registry().get(self.name)
        object.__setattr__(
            self, "params", entry.normalize(dict(self.params))
        )
        if self.label is None:
            object.__setattr__(self, "label", self._default_label())
        elif not isinstance(self.label, str):
            object.__setattr__(self, "label", str(self.label))

    def _default_label(self) -> str:
        if self.kind == "file":
            return Path(str(self.params["path"])).stem
        vals = list(self.params.items())
        if not vals:
            return self.name
        head = str(vals[0][1])
        rest = ",".join(f"{k}={v}" for k, v in vals[1:])
        return f"{self.name}({head}{',' + rest if rest else ''})"

    @property
    def kind(self) -> str:
        """``"file"`` for saved networks, ``"catalog"`` otherwise."""
        return "file" if self.name == "file" else "catalog"

    @classmethod
    def catalog(cls, name: str, *, label: str | None = None, **params):
        """Build a catalog spec: ``NetworkSpec.catalog("omega", n=4)``."""
        return cls(name=name, params=params, label=label)

    @classmethod
    def file(
        cls,
        path: str | Path,
        *,
        digest: str | None = None,
        label: str | None = None,
    ):
        """Build a file spec (digest ``None`` until :meth:`pin`-ned)."""
        return cls(
            name="file",
            params={"path": str(path), "digest": digest},
            label=label,
        )

    def to_spec(self) -> dict:
        """The canonical topology wire dict (legacy shape, hash-stable)."""
        if self.kind == "file":
            doc: dict = {"kind": "file", "path": str(self.params["path"])}
            if self.params.get("digest") is not None:
                doc["digest"] = self.params["digest"]
            doc["label"] = self.label
            return doc
        return {
            "kind": "catalog",
            "name": self.name,
            **self.params,
            "label": self.label,
        }

    @classmethod
    def from_entry(cls, doc: Mapping, n: int | None = None) -> "NetworkSpec":
        """A spec from a normalized axis entry plus a stage count.

        ``doc`` is :func:`normalize_network_entry` output; ``n`` fills
        the reserved ``"n"`` parameter of catalog entries (file entries
        carry their own fixed shape and ignore it).
        """
        if doc["kind"] == "file":
            return cls.file(doc["path"], label=doc.get("label"))
        params = {
            k: v for k, v in doc.items() if k not in _TOPOLOGY_META_KEYS
        }
        entry = _network_registry().get(doc["name"])
        if n is not None and "n" in entry.params and "n" not in params:
            params["n"] = int(n)
        return cls(
            name=doc["name"], params=params, label=doc.get("label")
        )

    @classmethod
    def from_spec(cls, doc: Mapping) -> "NetworkSpec":
        """Rebuild from :meth:`to_spec` output (exact inverse)."""
        if not isinstance(doc, Mapping) or "kind" not in doc:
            raise ReproError(
                f"topology spec must be a mapping with 'kind', got {doc!r}"
            )
        kind = doc["kind"]
        if kind == "file":
            extra = set(doc) - {"kind", "path", "digest", "label"}
            if extra:
                raise ReproError(
                    f"unexpected topology spec keys {sorted(extra)}"
                )
            if "path" not in doc:
                raise ReproError("file topology spec needs a 'path'")
            return cls.file(
                doc["path"],
                digest=doc.get("digest"),
                label=doc.get("label"),
            )
        if kind == "catalog":
            if "name" not in doc:
                raise ReproError("catalog topology spec needs a 'name'")
            params = {
                k: v for k, v in doc.items() if k not in _TOPOLOGY_META_KEYS
            }
            return cls(
                name=doc["name"], params=params, label=doc.get("label")
            )
        raise ReproError(f"unknown topology kind {kind!r}")

    def pin(self, base_dir: str | Path | None = None) -> "NetworkSpec":
        """Resolve and digest-pin a file spec (no-op for catalog specs).

        Reads the file (anchoring relative paths at ``base_dir``),
        validates it parses as a ``repro-midigraph`` document and
        records its content digest, so resuming a campaign against a
        silently modified file fails loudly instead of mixing
        incompatible results.
        """
        if self.kind != "file":
            return self
        from repro.io import loads_network

        path = Path(str(self.params["path"]))
        if base_dir is not None and not path.is_absolute():
            path = Path(base_dir) / path
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as err:
            raise ReproError(
                f"cannot read topology file {path}: {err}"
            ) from err
        loads_network(text)  # fail at expansion, not in a worker
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
        return NetworkSpec.file(path, digest=digest, label=self.label)

    def cache_key(self) -> tuple | None:
        """The memo key of this topology, ``None`` when uncacheable.

        Catalog entries are keyed by name + registry entry version +
        canonical parameters — the version ties the memo to the builder
        that is *currently* registered, so ``overwrite=True``
        re-registration can never serve stale networks.  File entries
        are keyed by content digest (valid across path spellings);
        un-pinned file entries return ``None`` — always re-read and
        re-verify.
        """
        if self.kind == "file":
            digest = self.params.get("digest")
            return ("file", digest) if digest else None
        entry = _network_registry().get(self.name)
        return (
            "catalog",
            self.name,
            entry.version,
            canonical_json(dict(self.params)),
        )

    def resolve(self):
        """Build the concrete network through the registry (memoized)."""
        return _resolve_network(self)

    def __hash__(self) -> int:
        return hash((self.name, canonical_json(dict(self.params)), self.label))


# Per-process (hence per-campaign-worker) topology memo.  Bounded so huge
# sweeps over many saved files don't pin every network in memory.
_NETWORK_CACHE: "OrderedDict[tuple, object]" = OrderedDict()
_NETWORK_CACHE_MAX = 32


def _resolve_network(spec: NetworkSpec):
    key = spec.cache_key()
    if key is not None:
        net = _NETWORK_CACHE.get(key)
        if net is not None:
            _NETWORK_CACHE.move_to_end(key)
            return net
    net = _network_registry().build(spec.name, **dict(spec.params))
    if key is not None:
        _NETWORK_CACHE[key] = net
        if len(_NETWORK_CACHE) > _NETWORK_CACHE_MAX:
            _NETWORK_CACHE.popitem(last=False)
    return net


# --------------------------------------------------------------------------
# TrafficSpec


@dataclass(frozen=True)
class TrafficSpec:
    """A traffic pattern: registry name + injection rate + parameters.

    Attributes
    ----------
    name:
        Registered pattern name (``"uniform"``, ``"hotspot"``,
        ``"permutation"``, …).
    rate:
        Per-cycle, per-source injection probability in ``(0, 1]``.
    params:
        Extra pattern parameters in wire form (plain JSON values, e.g.
        ``{"fraction": 0.3}`` or ``{"perm": [1, 0, 3, 2]}``).
    """

    name: str
    rate: float = 1.0
    params: Mapping = field(default_factory=dict)

    def __post_init__(self) -> None:
        entry = _traffic_registry().get(self.name)
        object.__setattr__(self, "rate", float(self.rate))
        params = dict(self.params)
        if "rate" in params or "name" in params:
            raise ReproError(
                "traffic params must not repeat 'name' or 'rate'"
            )
        # Schema check without coercion or default-filling: the wire
        # form hashes exactly the keys and values the user gave.
        extra = set(params) - set(entry.params)
        if extra:
            raise ReproError(
                f"unexpected parameters {sorted(extra)} for "
                f"{self.name!r}; schema has {sorted(entry.params)}"
            )
        for pname, param in entry.params.items():
            if param.required and pname not in params:
                raise ReproError(
                    f"{self.name!r} requires parameter {pname!r}"
                )
        object.__setattr__(self, "params", params)
        try:
            # Instantiate once so bad kwargs fail at spec construction,
            # not hours into a pooled sweep.
            self.resolve()
        except ReproError:
            raise
        except (TypeError, ValueError, KeyError) as err:
            raise ReproError(
                f"invalid traffic spec {self.to_spec()!r}: {err}"
            ) from err

    @classmethod
    def of(cls, name: str, rate: float = 1.0, **params) -> "TrafficSpec":
        """Keyword-friendly constructor: ``TrafficSpec.of("hotspot", 0.8,
        fraction=0.3)``."""
        return cls(name=name, rate=rate, params=params)

    def to_spec(self) -> dict:
        """The canonical traffic wire dict (legacy shape, hash-stable)."""
        return {
            "name": self.name,
            "rate": self.rate,
            **{k: self.params[k] for k in sorted(self.params)},
        }

    @classmethod
    def from_spec(cls, doc: Mapping) -> "TrafficSpec":
        """Rebuild from :meth:`to_spec` output (exact inverse)."""
        if not isinstance(doc, Mapping):
            raise ReproError(f"traffic spec must be a mapping, got {doc!r}")
        if "name" not in doc:
            raise ReproError("traffic spec needs a 'name' entry")
        params = {k: v for k, v in doc.items() if k not in ("name", "rate")}
        return cls(
            name=doc["name"], rate=doc.get("rate", 1.0), params=params
        )

    @classmethod
    def from_pattern(cls, pattern) -> "TrafficSpec":
        """The spec of a live :class:`~repro.sim.traffic.TrafficPattern`."""
        return cls.from_spec(pattern.spec())

    def resolve(self):
        """Build the concrete :class:`~repro.sim.traffic.TrafficPattern`."""
        entry = _traffic_registry().get(self.name)
        return entry.builder.from_params(self.rate, self.params)

    def __hash__(self) -> int:
        return hash((self.name, self.rate, canonical_json(dict(self.params))))


# --------------------------------------------------------------------------
# FaultSpec and SimPolicy


@dataclass(frozen=True)
class FaultSpec:
    """Structural fault counts plus the seed of their random sample.

    The sample depends only on the network *shape* and the seed, so the
    same ``FaultSpec`` degrades every same-shape topology identically —
    the apples-to-apples comparison Theorem 1 makes meaningful.
    ``FaultSpec()`` is the healthy network.
    """

    cells: int = 0
    links: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("cells", "links", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ReproError(
                    f"fault {name} must be an int, got {value!r}"
                )
        if self.cells < 0 or self.links < 0:
            raise ReproError(
                f"fault counts must be >= 0, got cells={self.cells}, "
                f"links={self.links}"
            )
        if self.seed < 0:
            raise ReproError(f"fault seed must be >= 0, got {self.seed}")

    def __bool__(self) -> bool:
        return bool(self.cells or self.links)

    def sample(self, n_stages: int, size: int):
        """The concrete :class:`~repro.sim.faults.FaultSet` (or ``None``).

        ``None`` when the spec is fault-free, matching what
        :func:`repro.sim.simulate` expects for a healthy network.
        """
        from repro.sim.faults import FaultSet

        return FaultSet.from_counts(
            n_stages,
            size,
            cells=self.cells,
            links=self.links,
            seed=self.seed,
        )


# Mirror of repro.sim.kernels.BACKEND_CHOICES (pinned by the kernel test
# suite); duplicated here so the spec layer never imports the simulator.
_BACKENDS = ("auto", "numpy", "numba")


@dataclass(frozen=True)
class SimPolicy:
    """The engine knobs shared by every run of a sweep.

    Attributes
    ----------
    cycles:
        Number of injection cycles (positive).
    policy:
        ``"drop"`` — contention losers are discarded; ``"block"`` —
        losers retry with back-pressure.
    drain:
        Keep cycling after injection stops until the network empties.
    backend:
        Kernel backend request: ``"auto"`` (default; prefers the fused
        numba kernels when installed, falls back to NumPy), ``"numpy"``
        or ``"numba"`` — see :mod:`repro.sim.kernels`.  An *execution*
        hint, never part of the scenario's identity: reports are
        bit-identical across backends, so ``backend`` is excluded from
        the wire dict and the digest (a saved scenario replays on
        whatever backend the replaying installation picks).
    compile_cache:
        Optional entry budget for the global compiled-network LRU
        (:func:`repro.sim.compiled.set_compile_cache_max`); ``None``
        leaves the current budget alone.  Also an execution hint,
        excluded from the wire dict and the digest.
    """

    cycles: int = 1000
    policy: str = "drop"
    drain: bool = False
    backend: str = "auto"
    compile_cache: int | None = None

    def __post_init__(self) -> None:
        if isinstance(self.cycles, bool) or not isinstance(self.cycles, int):
            raise ReproError(f"cycles must be an int, got {self.cycles!r}")
        if self.cycles <= 0:
            raise ReproError(f"cycles must be positive, got {self.cycles}")
        if self.policy not in _POLICIES:
            raise ReproError(
                f"policy must be one of {_POLICIES}, got {self.policy!r}"
            )
        object.__setattr__(self, "drain", bool(self.drain))
        if self.backend not in _BACKENDS:
            raise ReproError(
                f"backend must be one of {_BACKENDS}, got {self.backend!r}"
            )
        if self.compile_cache is not None:
            if isinstance(self.compile_cache, bool) or not isinstance(
                self.compile_cache, int
            ):
                raise ReproError(
                    f"compile_cache must be an int or None, got "
                    f"{self.compile_cache!r}"
                )
            if self.compile_cache < 1:
                raise ReproError(
                    f"compile_cache must be >= 1, got {self.compile_cache}"
                )


# --------------------------------------------------------------------------
# ScenarioSpec


@dataclass(frozen=True)
class ResolvedScenario:
    """The concrete objects a :class:`ScenarioSpec` resolves to."""

    network: MIDigraph
    traffic: object
    faults: object
    cycles: int
    policy: str
    drain: bool
    seed: int
    label: str
    backend: str = "auto"
    compile_cache: int | None = None


@dataclass(frozen=True)
class ScenarioSpec:
    """One fully-specified simulation: network × traffic × faults × policy.

    The composite spec every consumer — ``simulate``, ``simulate_batch``,
    the campaign workers, the CLI — constructs and resolves.  Three-line
    workflow::

        spec = ScenarioSpec(network=NetworkSpec.catalog("omega", n=5),
                            traffic=TrafficSpec.of("hotspot", rate=0.8))
        report = simulate(spec)

    Attributes
    ----------
    network, traffic, sim, faults:
        The component specs (see their classes).
    seed:
        Traffic-schedule seed; runs are bit-deterministic in it.
    """

    network: NetworkSpec
    traffic: TrafficSpec
    sim: SimPolicy = field(default_factory=SimPolicy)
    faults: FaultSpec = field(default_factory=FaultSpec)
    seed: int = 0

    def __post_init__(self) -> None:
        if not isinstance(self.network, NetworkSpec):
            raise ReproError(
                f"network must be a NetworkSpec, got {self.network!r}"
            )
        if not isinstance(self.traffic, TrafficSpec):
            raise ReproError(
                f"traffic must be a TrafficSpec, got {self.traffic!r}"
            )
        if not isinstance(self.sim, SimPolicy):
            raise ReproError(f"sim must be a SimPolicy, got {self.sim!r}")
        if not isinstance(self.faults, FaultSpec):
            raise ReproError(
                f"faults must be a FaultSpec, got {self.faults!r}"
            )
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ReproError(f"seed must be an int, got {self.seed!r}")
        if self.seed < 0:
            raise ReproError(f"seed must be >= 0, got {self.seed}")

    @property
    def label(self) -> str:
        """The topology display label (the report's network name)."""
        return str(self.network.label)

    def to_spec(self) -> dict:
        """The canonical scenario wire dict (the campaign store shape)."""
        return {
            "topology": self.network.to_spec(),
            "traffic": self.traffic.to_spec(),
            "cycles": self.sim.cycles,
            "policy": self.sim.policy,
            "drain": self.sim.drain,
            "seed": self.seed,
            "fault_cells": self.faults.cells,
            "fault_links": self.faults.links,
            "fault_seed": self.faults.seed,
        }

    @classmethod
    def from_spec(cls, doc: Mapping) -> "ScenarioSpec":
        """Rebuild from :meth:`to_spec` output (exact inverse)."""
        if not isinstance(doc, Mapping):
            raise ReproError(
                f"scenario spec must be a mapping, got {doc!r}"
            )
        known = {
            "topology", "traffic", "cycles", "policy", "drain", "seed",
            "fault_cells", "fault_links", "fault_seed",
        }
        extra = set(doc) - known
        if extra:
            raise ReproError(
                f"unknown scenario spec fields {sorted(extra)}"
            )
        missing = {"topology", "traffic"} - set(doc)
        if missing:
            raise ReproError(
                f"scenario spec is missing {sorted(missing)}"
            )
        return cls(
            network=NetworkSpec.from_spec(doc["topology"]),
            traffic=TrafficSpec.from_spec(doc["traffic"]),
            sim=SimPolicy(
                cycles=doc.get("cycles", 1000),
                policy=doc.get("policy", "drop"),
                drain=doc.get("drain", False),
            ),
            faults=FaultSpec(
                cells=doc.get("fault_cells", 0),
                links=doc.get("fault_links", 0),
                seed=doc.get("fault_seed", 0),
            ),
            seed=doc.get("seed", 0),
        )

    @property
    def digest(self) -> str:
        """Stable 16-hex content identity (see :func:`scenario_digest`)."""
        return scenario_digest(self.to_spec())

    def group_key(self) -> str:
        """The batch-compatibility key of this scenario.

        Two scenarios sharing this key may run as one
        :func:`repro.sim.batch.simulate_batch` call: same topology,
        cycles, policy, drain and fault sample — only the traffic spec
        and the simulation seed vary inside a group.
        """
        return _doc_group_key(self.to_spec())

    def resolve(self) -> ResolvedScenario:
        """Materialize the concrete simulator inputs (network memoized)."""
        net = self.network.resolve()
        if not isinstance(net, MIDigraph):
            raise ReproError(
                f"{self.network.name!r} builds a {type(net).__name__}; "
                "the cycle simulator runs 2x2-cell MIDigraphs (radix-k "
                "networks simulate at k=2 only)"
            )
        return ResolvedScenario(
            network=net,
            traffic=self.traffic.resolve(),
            faults=self.faults.sample(net.n_stages, net.size),
            cycles=self.sim.cycles,
            policy=self.sim.policy,
            drain=self.sim.drain,
            seed=self.seed,
            label=self.label,
            backend=self.sim.backend,
            compile_cache=self.sim.compile_cache,
        )

    # -- compatibility aliases (the pre-redesign Scenario surface) ---------

    def to_dict(self) -> dict:
        """Alias of :meth:`to_spec` (the old ``Scenario.to_dict`` name)."""
        return self.to_spec()

    @property
    def hash(self) -> str:
        """Alias of :attr:`digest` (the old ``Scenario.hash`` name)."""
        return self.digest

    @property
    def topology(self) -> dict:
        """The topology wire dict (the old flat ``Scenario.topology``)."""
        return self.network.to_spec()

    @property
    def fault_cells(self) -> int:
        """Alias of ``faults.cells`` (the old flat field name)."""
        return self.faults.cells

    @property
    def fault_links(self) -> int:
        """Alias of ``faults.links`` (the old flat field name)."""
        return self.faults.links

    @property
    def fault_seed(self) -> int:
        """Alias of ``faults.seed`` (the old flat field name)."""
        return self.faults.seed
