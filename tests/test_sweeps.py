"""Unit tests for the array stage sweeps behind the property checks."""

from __future__ import annotations

import networkx as nx
import numpy as np
import pytest

from repro.core.sweeps import (
    _min_roots,
    component_counts,
    parent_table,
    stage_components,
    unique_paths,
)


class TestMinRoots:
    @pytest.mark.parametrize("seed", range(5))
    def test_long_shuffled_chain_is_one_component(self, seed):
        # A path whose labels are shuffled needs many hook rounds: the
        # worst case for hook-and-compress convergence.
        rng = np.random.default_rng(seed)
        order = rng.permutation(3000)
        root = _min_roots(3000, order[:-1], order[1:])
        assert np.all(root == 0)

    @pytest.mark.parametrize("seed", range(5))
    def test_random_forest_matches_networkx(self, seed):
        rng = np.random.default_rng(seed)
        n = 400
        a = rng.integers(0, n, size=300)
        b = rng.integers(0, n, size=300)
        root = _min_roots(n, a, b)
        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from(zip(a.tolist(), b.tolist()))
        for members in nx.connected_components(graph):
            assert set(root[list(members)].tolist()) == {min(members)}


class TestSweeps:
    def test_parent_table_radix3_matches_loop(self):
        rng = np.random.default_rng(0)
        children = rng.permutation(np.repeat(np.arange(9), 3)).reshape(9, 3)
        found: list[list[int]] = [[] for _ in range(9)]
        for x in range(9):
            for c in children[x]:
                found[c].append(x)
        assert parent_table(children).tolist() == [sorted(p) for p in found]

    def test_two_disjoint_crossbars(self):
        # Cells {0, 1} and {2, 3} never meet: two components throughout,
        # and no first-stage cell reaches every last-stage cell.
        gap = np.array([[0, 1], [0, 1], [2, 3], [2, 3]])
        assert list(component_counts([gap, gap], 4)) == [2, 2]
        assert list(component_counts([gap, gap], 4, backward=True)) == [2, 2]
        assert stage_components([gap], 4).tolist() == [[0, 0, 1, 1]] * 2
        assert not unique_paths([gap, gap], 4)

    def test_single_crossbar_is_banyan(self):
        assert unique_paths([np.array([[0, 1], [0, 1]])], 2)
        assert not unique_paths([np.array([[0, 0], [1, 1]])], 2)
