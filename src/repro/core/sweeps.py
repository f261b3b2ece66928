"""Array stage sweeps behind the Banyan and P(i, j) checks.

A layered digraph is given here as its per-gap child tables: one
``(M, k)`` integer array per gap, row ``x`` holding the ``k`` children
(with multiplicity) of cell ``x`` in the next stage.  An
:class:`~repro.core.midigraph.MIDigraph` has ``k = 2`` (the ``f``/``g``
columns); the radix-k extension passes its child tables unchanged.
Every cell of the next stage is assumed to have in-degree exactly ``k``.

Two sweeps walk the stages with whole-stage numpy operations:

* :func:`unique_paths` — the Banyan property as a no-merge test on
  bitsets of first-stage sources (see its docstring for why that is
  exact).  ``O(n · M² / 64)`` word operations in blocks of at most
  :data:`BANYAN_BLOCK_BYTES`, so memory stays bounded at any ``n``.
* :func:`component_counts` / :func:`stage_components` — connected
  components of the undirected underlying graph, carried stage to stage
  as per-stage labels and merged at each gap by array hook-and-compress.
  Every component of a sub-digraph ``(G)_{i,j}`` contains a node of its
  last stage (every node has a child), so the labels of that stage alone
  give the component count.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "BANYAN_BLOCK_BYTES",
    "component_counts",
    "parent_table",
    "stage_components",
    "unique_paths",
]

#: Bytes of one source bitset array in :func:`unique_paths`.  A sweep
#: holds four such arrays at a time; at ``M ≤ 2048`` (``n ≤ 12``) all
#: sources fit in one block.
BANYAN_BLOCK_BYTES = 16 << 20


def parent_table(children: np.ndarray) -> np.ndarray:
    """The ``(M, k)`` parents of every next-stage cell, sorted per row.

    A stable argsort of the row-major arc list groups the arcs by head;
    within a group the tails come out in increasing order, and a cell fed
    twice by the same tail (a double link) lists it twice.
    """
    size, k = children.shape
    order = np.argsort(children.ravel(), kind="stable")
    return (order // k).reshape(size, k)


def unique_paths(children: Sequence[np.ndarray], size: int) -> bool:
    """Whether every first-stage cell has exactly one path to every
    last-stage cell.

    For each cell of the current stage, a packed ``uint64`` bitset holds
    the first-stage sources that reach it.  At each gap a next-stage cell
    takes the union of its parents' bitsets; if two parents share a bit,
    two paths from that source merge there.  Every cell has a child, so
    a merged cell reaches the last stage and the source then has two
    paths to some output: not Banyan.  When no merge ever happens every
    path count is 0 or 1, and the network is Banyan iff every last-stage
    bitset is full — which also rejects non-square shapes.

    Sources are processed in blocks of whole words so that one bitset
    array never exceeds :data:`BANYAN_BLOCK_BYTES`.
    """
    parents = [parent_table(ch) for ch in children]
    n_words = -(-size // 64)
    block = max(1, min(n_words, BANYAN_BLOCK_BYTES // (8 * size)))
    cells = np.arange(size)
    for w0 in range(0, n_words, block):
        w1 = min(w0 + block, n_words)
        reach = np.zeros((size, w1 - w0), dtype=np.uint64)
        mine = cells[w0 * 64 : w1 * 64]
        reach[mine, mine // 64 - w0] = np.left_shift(
            np.uint64(1), (mine % 64).astype(np.uint64)
        )
        shared = np.empty_like(reach)
        for par in parents:
            acc = reach.take(par[:, 0], axis=0)
            for c in range(1, par.shape[1]):
                nxt = reach.take(par[:, c], axis=0)
                if np.count_nonzero(np.bitwise_and(acc, nxt, out=shared)):
                    return False
                acc |= nxt
            reach = acc
        full = np.full(w1 - w0, ~np.uint64(0))
        tail = size - 64 * (w1 - 1)
        if tail < 64:
            full[-1] = np.uint64((1 << tail) - 1)
        if not np.array_equal(reach, np.broadcast_to(full, reach.shape)):
            return False
    return True


def _min_roots(n_nodes: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Smallest node of each node's component, for edges ``a[e] — b[e]``.

    Hook-and-compress: every root hooks onto the smallest root across
    its cross edges, then pointer jumping flattens the forest.
    ``parent[x] <= x`` throughout, so no cycles form, and each round
    hooks at least one root.
    """
    parent = np.arange(n_nodes)
    while True:
        ra, rb = parent[a], parent[b]
        cross = ra != rb
        if not cross.any():
            return parent
        ra, rb = ra[cross], rb[cross]
        np.minimum.at(parent, ra, rb)
        np.minimum.at(parent, rb, ra)
        while True:
            up = parent[parent]
            if np.array_equal(up, parent):
                break
            parent = up


def _merge_gap(
    labels: np.ndarray, n_labels: int, tail: np.ndarray, head: np.ndarray
) -> tuple[np.ndarray, int, np.ndarray]:
    """Join one gap onto the labelled current stage.

    ``labels`` are dense component labels of the current stage's cells;
    each arc joins current cell ``tail[e]`` to next cell ``head[e]``.
    Returns the next stage's dense labels, their count, and the map from
    the old labels to the new ones (every old component touches the next
    stage, so the map is total).
    """
    arc_label = labels[tail]
    rep = np.empty(labels.shape[0], dtype=np.int64)
    rep[head] = arc_label  # one label per next cell; its arcs join the rest
    root = _min_roots(n_labels, arc_label, rep[head])
    used = np.zeros(n_labels, dtype=bool)
    used[root] = True
    dense = np.cumsum(used) - 1
    return dense[root[rep]], int(used.sum()), dense[root]


def _sweep(
    children: Sequence[np.ndarray], size: int, backward: bool
) -> Iterator[tuple[np.ndarray, int, np.ndarray]]:
    """Labels, count and old→new label map of each stage reached."""
    labels, n_labels = np.arange(size), size
    for ch in reversed(children) if backward else children:
        own = np.repeat(np.arange(size), ch.shape[1])
        arcs = (ch.ravel(), own) if backward else (own, ch.ravel())
        labels, n_labels, old_to_new = _merge_gap(labels, n_labels, *arcs)
        yield labels, n_labels, old_to_new


def component_counts(
    children: Sequence[np.ndarray], size: int, *, backward: bool = False
) -> Iterator[int]:
    """Component counts of the growing sub-digraph, one per gap.

    Forward, the value yielded after ``t`` gaps counts the components of
    the first ``t + 1`` stages; with ``backward=True`` the sweep starts at
    the last stage and counts those of the last ``t + 1`` stages.  A
    generator, so callers may stop at the first failed check.
    """
    for _labels, n_labels, _map in _sweep(children, size, backward):
        yield n_labels


def stage_components(children: Sequence[np.ndarray], size: int) -> np.ndarray:
    """Component id of every node, shape ``(len(children) + 1, M)``.

    Entry ``[s, x]`` is the component of cell ``x`` at the ``s``-th stage;
    ids are 0-based and numbered by first appearance in stage-major node
    order.  No renumbering is needed for that: every component holds a
    first-stage cell (every cell has a parent), and each merge keeps the
    labels ordered by their smallest first-stage cell.
    """
    stages = [np.arange(size)]
    maps = []
    n_labels = size
    for labels, n_labels, old_to_new in _sweep(children, size, False):
        stages.append(labels)
        maps.append(old_to_new)
    out = np.empty((len(stages), size), dtype=np.int64)
    final = np.arange(n_labels)  # labels of stage s → final labels
    out[-1] = stages[-1]
    for s in range(len(maps) - 1, -1, -1):
        final = final[maps[s]]
        out[s] = final[stages[s]]
    return out
