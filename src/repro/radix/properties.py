"""Radix-k generalizations of the Banyan and P(i, j) properties.

The component-count arithmetic generalizes directly: a conforming radix-k
MI-digraph has ``k^{n-1-(j-i)}`` components in ``(G)_{i,j}`` — i.e.
``M / k^{j-i}`` with ``M = k^{n-1}`` cells per stage — and the
characterization "Banyan ∧ P(1,*) ∧ P(*,n) ⟹ unique topology" carries
over (this is the generalization the paper's conclusion refers to; we
*verify* it computationally in experiment A5 rather than assume it, by
cross-checking the property decision against explicit isomorphism).
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import StageIndexError
from repro.core.isomorphism import find_layered_isomorphism
from repro.core.sweeps import component_counts, unique_paths
from repro.radix.midigraph import RadixMIDigraph

__all__ = [
    "radix_expected_components",
    "radix_find_isomorphism",
    "radix_is_banyan",
    "radix_is_baseline_equivalent",
    "radix_p_one_star",
    "radix_p_property",
    "radix_p_star_n",
    "radix_path_count_matrix",
]


def radix_path_count_matrix(net: RadixMIDigraph) -> np.ndarray:
    """Path counts between first- and last-stage cells (cf. binary case)."""
    size = net.size
    counts = np.eye(size, dtype=np.int64)
    for conn in net.connections:
        nxt = np.zeros_like(counts)
        for c in range(net.k):
            np.add.at(nxt, conn.children[:, c], counts)
        counts = nxt
    return counts.T.copy()


def _children(net: RadixMIDigraph) -> list[np.ndarray]:
    return [conn.children for conn in net.connections]


def radix_is_banyan(net: RadixMIDigraph) -> bool:
    """Unique input→output paths (every path-count equals 1).

    Decided by the bitset no-merge sweep of
    :func:`repro.core.sweeps.unique_paths` at ``k`` parents per cell.
    """
    return unique_paths(_children(net), net.size)


def radix_count_components(net: RadixMIDigraph, i: int, j: int) -> int:
    """Components of the undirected sub-digraph on stages ``i..j``."""
    n = net.n_stages
    if not (1 <= i <= j <= n):
        raise StageIndexError(f"need 1 <= i <= j <= {n}, got ({i}, {j})")
    counts = component_counts(_children(net)[i - 1 : j - 1], net.size)
    return min(counts, default=net.size)


def radix_expected_components(net: RadixMIDigraph, i: int, j: int) -> int:
    """The P(i, j) target at radix k: ``M / k^{j-i}`` (floored at 1)."""
    return max(net.size // net.k ** (j - i), 1)


def radix_p_property(net: RadixMIDigraph, i: int, j: int) -> bool:
    """Whether ``(G)_{i,j}`` has the radix-k P(i, j) component count."""
    return radix_count_components(net, i, j) == radix_expected_components(
        net, i, j
    )


def radix_p_one_star(net: RadixMIDigraph) -> bool:
    """P(1, j) for every j (forward component sweep)."""
    counts = component_counts(_children(net), net.size)
    return all(
        count == radix_expected_components(net, 1, j)
        for j, count in enumerate(counts, start=2)
    )


def radix_p_star_n(net: RadixMIDigraph) -> bool:
    """P(i, n) for every i (backward component sweep from stage n)."""
    n = net.n_stages
    counts = component_counts(_children(net), net.size, backward=True)
    return all(
        count == radix_expected_components(net, i, n)
        for i, count in zip(range(n - 1, 0, -1), counts)
    )


def radix_is_baseline_equivalent(net: RadixMIDigraph) -> bool:
    """Radix-k analogue of the §2 characterization decision."""
    return (
        net.is_square()
        and radix_p_one_star(net)
        and radix_p_star_n(net)
        and radix_is_banyan(net)
    )


def radix_find_isomorphism(
    g: RadixMIDigraph, h: RadixMIDigraph
) -> list[np.ndarray] | None:
    """Explicit stage-respecting isomorphism between radix MI-digraphs.

    Reuses the generic layered search of :mod:`repro.core.isomorphism`.
    """
    if g.n_stages != h.n_stages or g.size != h.size or g.k != h.k:
        return None
    return find_layered_isomorphism(
        g.child_lists(), h.child_lists(), g.size
    )
