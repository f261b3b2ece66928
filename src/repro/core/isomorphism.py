"""Stage-respecting isomorphism of MI-digraphs.

The paper's notion of topological equivalence is digraph isomorphism (§2).
For MI-digraphs the stage partition is forced by the arc directions (arcs
only run from stage i to stage i+1 and every node has out-degree 2 except at
the last stage), so an isomorphism necessarily maps stage i onto stage i —
we exploit that and search for per-stage bijections directly.

Algorithm
---------
1. Cheap invariants: stage count, stage size, and the full component
   profile :func:`repro.core.properties.p_profile` must agree.
2. 1-dimensional Weisfeiler–Leman color refinement on the layered
   multigraph (signatures combine the node's color with the color multisets
   of its children and parents), run jointly on both graphs; class size
   histograms must match at every round.
3. VF2-style backtracking in BFS order over the underlying undirected
   graph, with candidates generated from the image of each node's BFS
   anchor (so candidate sets have size ≤ 2 after the root) and symmetric
   multiset consistency checks that handle parallel arcs (double links).

The search returns per-stage label mappings which
:func:`repro.core.equivalence.verify_isomorphism` re-checks arc by arc —
tests additionally cross-validate against networkx's VF2 on small sizes.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.core.midigraph import MIDigraph
from repro.core.properties import p_profile
from repro.core.sweeps import stage_components

__all__ = [
    "automorphisms",
    "count_automorphisms",
    "find_isomorphism",
    "find_layered_isomorphism",
    "is_isomorphic",
]


class _Layered:
    """Flattened adjacency of a layered digraph for the search.

    ``child_lists[s][x]`` holds the children (next-stage cell labels, with
    multiplicity) of cell ``x`` at stage ``s + 1``; ``child_arrays[s]`` is
    the same gap as an ``(M, k)`` array for the array sweeps.  Built either
    from an :class:`MIDigraph` (2 children per cell) or from arbitrary
    child lists (the radix-k extension passes ``k`` children per cell).
    """

    def __init__(
        self, child_lists: list[list[tuple[int, ...]]], size: int
    ) -> None:
        self.n = len(child_lists) + 1
        self.size = size
        self.child_arrays = [
            np.asarray(stage_children, dtype=np.int64).reshape(size, -1)
            for stage_children in child_lists
        ]
        n_nodes = self.n * size
        self.children: list[tuple[int, ...]] = [() for _ in range(n_nodes)]
        self.parents: list[tuple[int, ...]] = [() for _ in range(n_nodes)]
        for gap, stage_children in enumerate(child_lists, start=1):
            off_a = (gap - 1) * size
            off_b = gap * size
            pars: list[list[int]] = [[] for _ in range(size)]
            for x in range(size):
                kids = stage_children[x]
                self.children[off_a + x] = tuple(off_b + c for c in kids)
                for c in kids:
                    pars[c].append(off_a + x)
            for x in range(size):
                self.parents[off_b + x] = tuple(pars[x])

    @classmethod
    def from_midigraph(cls, net: MIDigraph) -> "_Layered":
        child_lists = [
            [
                (int(conn.f[x]), int(conn.g[x]))
                for x in range(net.size)
            ]
            for conn in net.connections
        ]
        return cls(child_lists, net.size)

    def stage_of(self, node: int) -> int:
        return node // self.size + 1

    def component_tables(self) -> list[tuple[list[int], list[int]]]:
        """Component ids of every suffix (G)_{j,n} and prefix (G)_{1,j}.

        Returns one ``(comp_id, comp_size)`` pair per constraint:
        ``comp_id[node]`` is the node's component (or -1 when the node is
        outside the stage range), ``comp_size[c]`` the component's node
        count.  An isomorphism must map components of each sub-digraph onto
        equal-sized components of the peer's — binding these during the
        search encodes the paper's P-structure as hard pruning.
        """
        n, size = self.n, self.size
        ranges = [(j, n) for j in range(1, n)]  # suffixes; j = 1: all of G
        ranges += [(1, j) for j in range(2, n)]  # prefixes
        tables: list[tuple[list[int], list[int]]] = []
        for lo, hi in ranges:
            labels = stage_components(
                self.child_arrays[lo - 1 : hi - 1], size
            ).ravel()
            comp_id = [-1] * (n * size)
            comp_id[(lo - 1) * size : hi * size] = labels.tolist()
            tables.append((comp_id, np.bincount(labels).tolist()))
        return tables


def _refine_colors(a: _Layered, b: _Layered) -> tuple[list[int], list[int]] | None:
    """Joint WL color refinement; ``None`` when histograms diverge."""
    col_a = [a.stage_of(v) for v in range(a.n * a.size)]
    col_b = [b.stage_of(v) for v in range(b.n * b.size)]
    for _ in range(a.n * a.size):
        sig_ids: dict[tuple, int] = {}

        def signature(lay: _Layered, col: list[int], v: int) -> tuple:
            return (
                col[v],
                tuple(sorted(col[c] for c in lay.children[v])),
                tuple(sorted(col[p] for p in lay.parents[v])),
            )

        new_a = [sig_ids.setdefault(signature(a, col_a, v), len(sig_ids))
                 for v in range(len(col_a))]
        new_b = [sig_ids.setdefault(signature(b, col_b, v), len(sig_ids))
                 for v in range(len(col_b))]
        hist_a = np.bincount(new_a, minlength=len(sig_ids))
        hist_b = np.bincount(new_b, minlength=len(sig_ids))
        if not np.array_equal(hist_a, hist_b):
            return None
        if len(set(new_a)) == len(set(col_a)):
            return new_a, new_b
        col_a, col_b = new_a, new_b
    return col_a, col_b


def _bfs_order(lay: _Layered) -> tuple[list[int], list[int]]:
    """BFS order over the underlying graph and each node's anchor.

    The anchor of a node is the already-ordered neighbor it was discovered
    from (-1 for component roots); it is used to generate candidate images.
    """
    n_nodes = lay.n * lay.size
    seen = [False] * n_nodes
    order: list[int] = []
    anchor: list[int] = [-1] * n_nodes
    for root in range(n_nodes):
        if seen[root]:
            continue
        seen[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            order.append(v)
            for u in (*lay.children[v], *lay.parents[v]):
                if not seen[u]:
                    seen[u] = True
                    anchor[u] = v
                    queue.append(u)
    return order, anchor


def _multiset(values) -> dict[int, int]:
    out: dict[int, int] = {}
    for v in values:
        out[v] = out.get(v, 0) + 1
    return out


def _consistent(
    a: _Layered,
    b: _Layered,
    fwd: list[int],
    bwd: list[int],
    v: int,
    w: int,
) -> bool:
    """Symmetric local consistency of the tentative pair ``v ↦ w``."""
    for nbrs_a, nbrs_b in (
        (a.children[v], b.children[w]),
        (a.parents[v], b.parents[w]),
    ):
        mapped = _multiset(fwd[c] for c in nbrs_a if fwd[c] != -1)
        used = _multiset(d for d in nbrs_b if bwd[d] != -1)
        if mapped != used:
            return False
    return True


def find_isomorphism(
    g: MIDigraph, h: MIDigraph
) -> list[np.ndarray] | None:
    """Find a stage-respecting isomorphism ``g → h``.

    Returns per-stage mappings: a list of ``n`` permutation arrays, entry
    ``s`` sending stage-``s+1`` labels of ``g`` to labels of ``h``; or
    ``None`` when the digraphs are not isomorphic.

    The mapping can be verified independently with
    :func:`repro.core.equivalence.verify_isomorphism` (and is, in the test
    suite, against networkx VF2).
    """
    if g.n_stages != h.n_stages or g.size != h.size:
        return None
    if p_profile(g) != p_profile(h):
        return None
    return _search(_Layered.from_midigraph(g), _Layered.from_midigraph(h))


def find_layered_isomorphism(
    children_g: list[list[tuple[int, ...]]],
    children_h: list[list[tuple[int, ...]]],
    size: int,
) -> list[np.ndarray] | None:
    """Stage-respecting isomorphism between two generic layered digraphs.

    ``children_x[gap][cell]`` lists the children of ``cell`` (next-stage
    labels, with multiplicity).  Both graphs must have the same number of
    gaps and ``size`` cells per stage.  Used by the radix-k extension
    (:mod:`repro.radix`), where cells have ``k`` children instead of 2.
    """
    if len(children_g) != len(children_h):
        return None
    return _search(
        _Layered(children_g, size), _Layered(children_h, size)
    )


def _search(
    lay_g: _Layered, lay_h: _Layered
) -> list[np.ndarray] | None:
    """First solution of the backtracking search, or ``None``."""
    return next(_iter_solutions(lay_g, lay_h), None)


def _iter_solutions(lay_g: _Layered, lay_h: _Layered):
    """Generate *every* stage-respecting isomorphism ``lay_g → lay_h``.

    The DFS continues past complete assignments, so iterating exhausts the
    full set — used by :func:`automorphisms` with ``lay_h = lay_g``.
    """
    refined = _refine_colors(lay_g, lay_h)
    if refined is None:
        return
    col_g, col_h = refined

    # Group h's nodes by color for root candidate generation.
    by_color: dict[int, list[int]] = {}
    for w, c in enumerate(col_h):
        by_color.setdefault(c, []).append(w)

    order, anchor = _bfs_order(lay_g)
    n_nodes = len(order)
    fwd = [-1] * n_nodes  # g node -> h node
    bwd = [-1] * n_nodes  # h node -> g node

    # Component-consistency machinery: every suffix/prefix sub-digraph's
    # components must map onto equal-sized components (the P-structure of
    # §2, turned into search pruning).  For each constraint we bind g-
    # components to h-components on first contact and reject mismatches.
    comps_g = lay_g.component_tables()
    comps_h = lay_h.component_tables()
    if [sorted(sz) for _ids, sz in comps_g] != [
        sorted(sz) for _ids, sz in comps_h
    ]:
        return
    bind_fwd: list[dict[int, int]] = [{} for _ in comps_g]
    bind_bwd: list[dict[int, int]] = [{} for _ in comps_g]

    def bind_components(v: int, w: int) -> list[tuple[int, int]] | None:
        """Bind v's components to w's; None on conflict, else undo list."""
        added: list[tuple[int, int]] = []
        for t, (ids_g, sizes_g) in enumerate(comps_g):
            cg = ids_g[v]
            if cg < 0:
                continue
            ids_h, sizes_h = comps_h[t]
            ch = ids_h[w]
            bound = bind_fwd[t].get(cg)
            if bound is not None:
                if bound != ch:
                    break
                continue
            if bind_bwd[t].get(ch) is not None:
                break
            if sizes_g[cg] != sizes_h[ch]:
                break
            bind_fwd[t][cg] = ch
            bind_bwd[t][ch] = cg
            added.append((t, cg))
        else:
            return added
        # conflict: roll back what this call added
        for t, cg in added:
            ch = bind_fwd[t].pop(cg)
            del bind_bwd[t][ch]
        return None

    def unbind_components(added: list[tuple[int, int]]) -> None:
        for t, cg in added:
            ch = bind_fwd[t].pop(cg)
            del bind_bwd[t][ch]

    def candidates(v: int):
        anc = anchor[v]
        if anc == -1:
            return iter(by_color.get(col_g[v], ()))
        w_anc = fwd[anc]
        # v was discovered from anc: v is a child or parent of anc.
        if v in lay_g.children[anc]:
            pool = lay_h.children[w_anc]
        else:
            pool = lay_h.parents[w_anc]
        # dedupe while preserving order (double links repeat entries)
        seen: set[int] = set()
        out = []
        for w in pool:
            if w not in seen:
                seen.add(w)
                out.append(w)
        return iter(out)

    def extract() -> list[np.ndarray]:
        size = lay_g.size
        out: list[np.ndarray] = []
        for s in range(lay_g.n):
            stage_map = np.empty(size, dtype=np.int64)
            for x in range(size):
                stage_map[x] = fwd[s * size + x] - s * size
            out.append(stage_map)
        return out

    iters: list = [None] * n_nodes
    binds: list[list[tuple[int, int]] | None] = [None] * n_nodes
    pos = 0
    while True:
        if pos == n_nodes:
            yield extract()
            # backtrack past the last assignment and keep searching
            pos -= 1
            if pos < 0:
                return
            u = order[pos]
            bwd[fwd[u]] = -1
            fwd[u] = -1
            unbind_components(binds[pos])
            binds[pos] = None
            continue
        v = order[pos]
        if iters[pos] is None:
            iters[pos] = candidates(v)
        placed = False
        for w in iters[pos]:
            if bwd[w] != -1 or col_g[v] != col_h[w]:
                continue
            if not _consistent(lay_g, lay_h, fwd, bwd, v, w):
                continue
            added = bind_components(v, w)
            if added is None:
                continue
            binds[pos] = added
            fwd[v] = w
            bwd[w] = v
            pos += 1
            placed = True
            break
        if not placed:
            iters[pos] = None
            pos -= 1
            if pos < 0:
                return
            u = order[pos]
            bwd[fwd[u]] = -1
            fwd[u] = -1
            unbind_components(binds[pos])
            binds[pos] = None


def is_isomorphic(g: MIDigraph, h: MIDigraph) -> bool:
    """Whether two MI-digraphs are topologically equivalent (§2)."""
    return find_isomorphism(g, h) is not None


def automorphisms(net: MIDigraph, *, limit: int | None = None):
    """Generate the stage-respecting automorphisms of a network.

    Yields per-stage mapping lists (same format as
    :func:`find_isomorphism`); the identity is always among them.  With
    ``limit``, stop after that many.

    Every network built from independent connections carries the
    *translation* automorphisms ``x ↦ x ⊕ a`` (propagated through the
    stages by the shared linear parts), so Theorem-3 networks have at
    least ``2^{n-1}`` automorphisms; the exact group order is an
    isomorphism invariant, which the tests exploit.
    """
    lay = _Layered.from_midigraph(net)
    count = 0
    for solution in _iter_solutions(lay, _Layered.from_midigraph(net)):
        yield solution
        count += 1
        if limit is not None and count >= limit:
            return


def count_automorphisms(net: MIDigraph, *, limit: int = 1_000_000) -> int:
    """Order of the stage-respecting automorphism group (capped).

    Counts by exhaustive enumeration; raises ``RuntimeError`` when the
    group order exceeds ``limit`` (a guard against runaway enumeration on
    very symmetric networks).
    """
    count = 0
    for _ in automorphisms(net):
        count += 1
        if count > limit:
            raise RuntimeError(
                f"more than {limit} automorphisms; raise the limit"
            )
    return count
