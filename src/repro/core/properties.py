"""Topological properties of MI-digraphs: Banyan and P(i, j) (§2).

Definitions implemented here, verbatim from the paper:

* **Banyan property** — "for any input and any output there exists a unique
  path connecting them".  Since the two inputs (outputs) attached to a
  first-stage (last-stage) cell reach exactly what the cell reaches, this is
  equivalent to: *the number of directed paths between every first-stage
  cell and every last-stage cell is exactly 1*.  :func:`is_banyan` decides
  it without counting: a sweep over the stages carries, for every cell,
  the bitset of first-stage cells that reach it, and fails as soon as two
  parents of a cell share a source.  That no-merge test is exact because
  every cell reaches the last stage, so one merge anywhere already means
  two paths between some input and output; with no merge all counts are
  0 or 1 and the last stage must be reached from every source
  (:func:`repro.core.sweeps.unique_paths`).  ``O(n · M² / 64)`` word
  operations in bounded memory; :func:`path_count_matrix` keeps the dense
  counts for callers that want the numbers themselves.

* **P(i, j)** — "the sub-digraph (G)_{i,j} has exactly ``2^{n-1-(j-i)}``
  connected components" (components of the undirected underlying graph).
  The paper counts them "using a breadth first search"; here one array
  sweep carries per-stage component labels from stage to stage, merging
  them through each gap's arcs (:mod:`repro.core.sweeps`): a few ``O(M)``
  array passes per gap.

* **P(1, \\*)** / **P(\\*, n)** — P(1, j) for every j / P(i, n) for every
  i: one forward and one backward sweep.

The characterization theorem (§2, proved in the companion paper [12]):

    "All the MI-digraphs with n stages satisfying the Banyan property,
    P(*, n) and P(1, *) are isomorphic."

:func:`satisfies_characterization` bundles the three checks; equivalence to
the Baseline network reduces to it (see :mod:`repro.core.equivalence`).
"""

from __future__ import annotations

import numpy as np

from repro.core.errors import StageIndexError
from repro.core.midigraph import MIDigraph
from repro.core.sweeps import component_counts as _counts
from repro.core.sweeps import stage_components, unique_paths

__all__ = [
    "component_labels",
    "component_stage_intersections",
    "count_components",
    "expected_components",
    "is_banyan",
    "p_one_star",
    "p_profile",
    "p_property",
    "p_star_n",
    "path_count_matrix",
    "satisfies_characterization",
]


def path_count_matrix(net: MIDigraph) -> np.ndarray:
    """Matrix ``P`` with ``P[u, w]`` = number of directed paths ``u → w``.

    ``u`` ranges over first-stage cells, ``w`` over last-stage cells.
    Dynamic program over stages: ``O(n · M²)`` additions, fully vectorized.
    Counts are exact (they are bounded by ``2^{n-1}``, far below int64).
    """
    size = net.size
    counts = np.eye(size, dtype=np.int64)  # counts[x, u] at current stage
    for conn in net.connections:
        nxt = np.zeros_like(counts)
        np.add.at(nxt, conn.f, counts)
        np.add.at(nxt, conn.g, counts)
        counts = nxt
    return counts.T.copy()


def _children(net: MIDigraph, i: int = 1, j: int | None = None) -> list[np.ndarray]:
    """The ``(M, 2)`` child tables of the gaps between stages ``i`` and ``j``."""
    conns = net.connections[i - 1 : (net.n_stages if j is None else j) - 1]
    return [np.stack((c.f, c.g), axis=1) for c in conns]


def _check_range(net: MIDigraph, i: int, j: int) -> None:
    n = net.n_stages
    if not (1 <= i <= j <= n):
        raise StageIndexError(f"need 1 <= i <= j <= {n}, got ({i}, {j})")


def is_banyan(net: MIDigraph) -> bool:
    """Whether the MI-digraph has the Banyan property (unique paths).

    A double link is two parallel arcs, so it fails the no-merge test at
    once — this is the degeneracy of Figure 5.
    """
    return unique_paths(_children(net), net.size)


# ---------------------------------------------------------------------------
# Connected components and the P properties
# ---------------------------------------------------------------------------


def count_components(net: MIDigraph, i: int, j: int) -> int:
    """Number of connected components of the sub-digraph ``(G)_{i,j}``.

    Components are taken in the undirected underlying graph, per the paper's
    definition.  ``i == j`` is allowed and yields ``M`` (isolated nodes).
    """
    _check_range(net, i, j)
    # Every added cell joins an existing component, so counts only fall.
    return min(_counts(_children(net, i, j), net.size), default=net.size)


def expected_components(net: MIDigraph, i: int, j: int) -> int:
    """The component count required by P(i, j): ``2^{n-1-(j-i)}``.

    Only meaningful for square MI-digraphs (``M = 2^{n-1}``); expressed via
    ``M`` so that it degrades gracefully: ``M / 2^{j-i}`` (floored at 1 —
    beyond ``j - i = m`` gaps a conforming digraph is fully connected).
    """
    return max(net.size >> (j - i), 1)


def p_property(net: MIDigraph, i: int, j: int) -> bool:
    """Whether ``(G)_{i,j}`` satisfies P(i, j)."""
    return count_components(net, i, j) == expected_components(net, i, j)


def p_one_star(net: MIDigraph) -> bool:
    """Whether the MI-digraph satisfies P(1, *) — P(1, j) for all j.

    One forward component sweep; stops at the first failing prefix.
    """
    return all(
        count == expected_components(net, 1, j)
        for j, count in enumerate(_counts(_children(net), net.size), start=2)
    )


def p_star_n(net: MIDigraph) -> bool:
    """Whether the MI-digraph satisfies P(*, n) — P(i, n) for all i.

    The same sweep walked backwards from stage ``n`` over the ``f``/``g``
    tables: after reaching stage ``i`` it counts the components of
    ``(G)_{i,n}``.
    """
    n = net.n_stages
    counts = _counts(_children(net), net.size, backward=True)
    return all(
        count == expected_components(net, i, n)
        for i, count in zip(range(n - 1, 0, -1), counts)
    )


def p_profile(net: MIDigraph) -> dict[tuple[int, int], int]:
    """Component counts of every ``(G)_{i,j}``, ``1 ≤ i ≤ j ≤ n``.

    This is the full invariant family from which all P properties read off;
    it is preserved by MI-digraph isomorphism, which makes it a useful
    fingerprint for *distinguishing* non-equivalent networks (used by the
    counterexample experiments).  One forward sweep per start stage,
    ``O(n² · M)`` array work.
    """
    n = net.n_stages
    children = _children(net)
    out: dict[tuple[int, int], int] = {}
    for i in range(1, n + 1):
        out[(i, i)] = net.size
        counts = _counts(children[i - 1 :], net.size)
        for j, count in enumerate(counts, start=i + 1):
            out[(i, j)] = count
    return out


def component_labels(net: MIDigraph, i: int, j: int) -> np.ndarray:
    """Component id of every node of ``(G)_{i,j}``.

    Returns an array of shape ``(j - i + 1, M)``; entry ``[s, x]`` is the
    component id (0-based, in order of first appearance stage-major) of cell
    ``x`` at stage ``i + s``.  The ids themselves are arbitrary but
    consistent within one call — suitable for building invariant colors for
    the isomorphism search.
    """
    _check_range(net, i, j)
    return stage_components(_children(net, i, j), net.size)


def component_stage_intersections(
    net: MIDigraph, j: int
) -> list[list[int]]:
    """Per-stage sizes of each component of the suffix ``(G)_{j,n}``.

    Reproduces the bookkeeping of the Lemma 2 proof (Figure 3): for a
    conforming network, every component ``C`` of ``(G)_{j,n}`` intersects
    each stage ``V_i`` (``j ≤ i ≤ n``) in exactly ``2^{n-j}`` nodes (the
    paper proves ``|C ∩ V_i| = 2^{n-1-(j-1)}``; with ``M = 2^{n-1}`` cells
    per stage that is ``M / 2^{j-1}``).

    Returns one list per component: the sizes of its intersection with
    stages ``j, j+1, …, n``.  Components are ordered by their smallest
    member at stage ``j``.
    """
    n = net.n_stages
    if j == n:
        return [[1] for _ in range(net.size)]
    labels = component_labels(net, j, n)
    n_comp = int(labels.max()) + 1
    sizes = [
        [int(np.count_nonzero(labels[s] == c)) for s in range(labels.shape[0])]
        for c in range(n_comp)
    ]
    return sizes


def satisfies_characterization(net: MIDigraph) -> bool:
    """The hypothesis bundle of the §2 theorem: Banyan ∧ P(1, *) ∧ P(*, n).

    By the theorem, every square MI-digraph satisfying this is isomorphic to
    the Baseline MI-digraph — see
    :func:`repro.core.equivalence.is_baseline_equivalent`.
    """
    return p_one_star(net) and p_star_n(net) and is_banyan(net)
