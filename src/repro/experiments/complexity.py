"""Experiment A4: "very easy to check" — the complexity claim, quantified.

    "The assumptions of the theorem are very easy to check using a breadth
    first search algorithm…" (§2)

We time three deciders of Baseline equivalence on the Omega network:

1. the paper's characterization (component sweeps + bitset Banyan sweep),
2. our explicit stage-respecting isomorphism search,
3. networkx VF2 on the full MultiDiGraph (generic, label-blind baseline).

The absolute numbers are machine-dependent; the *shape* — the property
check scaling like the network size while generic isomorphism search grows
much faster — is the reproducible claim.
"""

from __future__ import annotations

import time

import networkx as nx

from repro.core.equivalence import is_baseline_equivalent
from repro.core.isomorphism import find_isomorphism
from repro.experiments.base import experiment
from repro.networks.baseline import baseline
from repro.networks.omega import omega

__all__ = ["a4"]


def _timeit(fn, *args) -> tuple[float, object]:
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def _vf2(g, h) -> bool:
    match = nx.algorithms.isomorphism.categorical_node_match("stage", -1)
    return nx.is_isomorphic(
        g.to_networkx(), h.to_networkx(), node_match=match
    )


@experiment(
    "A4",
    "Cost of deciding equivalence: characterization vs isomorphism search",
    "§2 ('easy to check')",
)
def a4():
    """Wall-clock comparison across n; VF2 limited to small n."""
    lines = [
        "  n     N    properties (s)   explicit iso (s)   networkx VF2 (s)"
    ]
    ok = True
    data = {}
    for n in range(3, 10):
        net = omega(n)
        ref = baseline(n)
        t_prop, dec = _timeit(is_baseline_equivalent, net)
        ok &= dec
        t_iso, iso = _timeit(find_isomorphism, net, ref)
        ok &= iso is not None
        if n <= 5:
            t_vf2, same = _timeit(_vf2, net, ref)
            ok &= same
            vf2_txt = f"{t_vf2:>16.4f}"
        else:
            t_vf2 = None
            vf2_txt = "        (skipped)"
        lines.append(
            f"  {n}  {1 << n:>4}   {t_prop:>14.4f}   {t_iso:>16.4f}   "
            f"{vf2_txt}"
        )
        data[n] = {"properties_s": t_prop, "iso_s": t_iso, "vf2_s": t_vf2}
    lines.append("")
    lines.append(
        "the characterization needs no search at all — its advantage "
        "widens with n (shape, not absolute numbers, is the claim)"
    )
    return ok, lines, data
