"""Unit tests for the (f, g) connection abstraction (§3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.connection import AffineConnection, Connection
from repro.core.errors import InvalidConnectionError


def crossbar2() -> Connection:
    """The unique 1-digit crossbar: f constant 0, g constant 1."""
    return Connection([0, 0], [1, 1])


class TestValidation:
    def test_valid_connection_constructs(self):
        conn = Connection([0, 1], [1, 0])
        assert conn.size == 2
        assert conn.m == 1

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(InvalidConnectionError):
            Connection([0, 1], [1])

    def test_non_power_of_two_rejected(self):
        with pytest.raises(InvalidConnectionError):
            Connection([0, 1, 2], [1, 2, 0])

    def test_out_of_range_values_rejected(self):
        with pytest.raises(InvalidConnectionError):
            Connection([0, 2], [1, 1])
        with pytest.raises(InvalidConnectionError):
            Connection([0, -1], [1, 1])

    def test_indegree_violation_rejected(self):
        # cell 0 would receive 3 arcs, cell 1 one arc
        with pytest.raises(InvalidConnectionError) as err:
            Connection([0, 0], [0, 1])
        assert "in-degree" in str(err.value)

    def test_2d_input_rejected(self):
        with pytest.raises(InvalidConnectionError):
            Connection([[0, 1]], [[1, 0]])

    def test_double_links_are_valid(self):
        # Figure 5 requires representability of parallel arcs
        conn = Connection([0, 1], [0, 1])
        assert conn.has_double_links

    def test_arrays_are_read_only(self):
        conn = Connection([0, 1], [1, 0])
        with pytest.raises(ValueError):
            conn.f[0] = 1


class TestAccessors:
    def test_children_and_children_set(self):
        conn = Connection([0, 0], [1, 1])
        assert conn.children(0) == (0, 1)
        assert conn.children_set(0) == frozenset({0, 1})

    def test_children_set_collapses_double_link(self):
        conn = Connection([0, 1], [0, 1])
        assert conn.children_set(0) == frozenset({0})

    def test_parents_with_multiplicity(self):
        conn = Connection([0, 1], [0, 1])  # double links
        assert conn.parents(0) == (0, 0)
        assert conn.parents(1) == (1, 1)

    def test_parent_arrays_sorted(self):
        conn = crossbar2()
        p0, p1 = conn.parent_arrays()
        assert p0.tolist() == [0, 0]
        assert p1.tolist() == [1, 1]

    @pytest.mark.parametrize("seed", range(20))
    def test_parent_arrays_match_loop_oracle(self, seed):
        # Random connections, double links included: every cell's two
        # parents, sorted, exactly as a loop over the arcs finds them.
        rng = np.random.default_rng(seed)
        size = 1 << int(rng.integers(1, 7))
        slots = np.repeat(np.arange(size), 2)
        rng.shuffle(slots)
        conn = Connection(slots[0::2], slots[1::2])
        found: list[list[int]] = [[] for _ in range(size)]
        for x, y, _tag in conn.arcs():
            found[y].append(x)
        p0, p1 = conn.parent_arrays()
        assert [[a, b] for a, b in zip(p0.tolist(), p1.tolist())] == [
            sorted(pair) for pair in found
        ]

    def test_parent_arrays_keep_double_links(self):
        conn = Connection([1, 0, 3, 2], [1, 2, 3, 0])
        p0, p1 = conn.parent_arrays()
        assert p0.tolist() == [1, 0, 1, 2]
        assert p1.tolist() == [3, 0, 3, 2]

    def test_arcs_enumeration(self):
        conn = crossbar2()
        arcs = list(conn.arcs())
        assert (0, 0, 0) in arcs and (0, 1, 1) in arcs
        assert len(arcs) == 4

    def test_arc_multiset_counts_parallel_arcs(self):
        conn = Connection([0, 1], [0, 1])
        assert conn.arc_multiset() == {(0, 0): 2, (1, 1): 2}


class TestVertexTypes:
    def test_bijective_split_is_fg(self):
        conn = Connection([0, 1], [1, 0])  # f = id, g = swap: bijections
        assert conn.vertex_types() == ["fg", "fg"]

    def test_crossbar_is_ff_gg(self):
        # f constant 0, g constant 1: Proposition 1's case-2 shape
        assert crossbar2().vertex_types() == ["ff", "gg"]

    def test_constant_connection_is_ff_gg(self):
        conn = Connection([0, 0], [1, 1])
        # y=0 receives f twice? no: f hits 0 twice -> "ff"; g hits 1 twice
        assert conn.vertex_types() == ["ff", "gg"]

    def test_swapped_exchanges_roles(self):
        conn = Connection([0, 0], [1, 1])
        swapped = conn.swapped([0])
        assert swapped.children(0) == (1, 0)
        assert swapped.children(1) == (0, 1)
        assert conn.same_digraph(swapped)


class TestEqualityAndRepr:
    def test_equality_and_hash(self):
        a = Connection([0, 1], [1, 0])
        b = Connection([0, 1], [1, 0])
        c = Connection([1, 0], [0, 1])
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_equality_other_type(self):
        assert Connection([0, 1], [1, 0]) != 42

    def test_repr_small_shows_tables(self):
        assert "f=" in repr(Connection([0, 1], [1, 0]))

    def test_repr_large_is_compact(self):
        size = 32
        f = np.arange(size)
        g = (np.arange(size) + 1) % size
        assert "size=32" in repr(Connection(f, g))

    def test_same_digraph_ignores_split(self):
        a = Connection([0, 1], [1, 0])
        b = Connection([1, 0], [0, 1])
        assert a.same_digraph(b)
        assert a != b


class TestAffineConnection:
    def test_case_1_identity(self):
        aff = AffineConnection(cols=(1, 2), c_f=0, c_g=1, m=2)
        assert aff.rank == 2
        assert aff.case == 1
        conn = aff.to_connection()
        assert conn.children(0) == (0, 1)

    def test_case_2_with_coset_condition(self):
        # B kills coordinate 0: Im(B) = span(e_1); c_f ^ c_g = e_0 works
        aff = AffineConnection(cols=(0, 2), c_f=0, c_g=1, m=2)
        assert aff.case == 2

    def test_invalid_rank_deficiency_rejected(self):
        aff = AffineConnection(cols=(0, 0), c_f=0, c_g=1, m=2)
        with pytest.raises(InvalidConnectionError):
            _ = aff.case

    def test_invalid_coset_rejected(self):
        # c_f ^ c_g inside Im(B): not a valid connection
        aff = AffineConnection(cols=(0, 2), c_f=0, c_g=2, m=2)
        with pytest.raises(InvalidConnectionError):
            _ = aff.case

    def test_wrong_number_of_cols_rejected(self):
        with pytest.raises(InvalidConnectionError):
            AffineConnection(cols=(1,), c_f=0, c_g=1, m=2)

    def test_values_out_of_range_rejected(self):
        with pytest.raises(InvalidConnectionError):
            AffineConnection(cols=(1, 4), c_f=0, c_g=1, m=2)

    def test_beta_is_linear_action(self):
        aff = AffineConnection(cols=(2, 3), c_f=1, c_g=2, m=2)
        for a in range(4):
            for b in range(4):
                assert aff.beta(a ^ b) == aff.beta(a) ^ aff.beta(b)

    def test_to_connection_respects_beta(self):
        aff = AffineConnection(cols=(2, 3), c_f=1, c_g=2, m=2)
        conn = aff.to_connection()
        for alpha in range(1, 4):
            beta = aff.beta(alpha)
            for x in range(4):
                assert int(conn.f[x ^ alpha]) == beta ^ int(conn.f[x])
                assert int(conn.g[x ^ alpha]) == beta ^ int(conn.g[x])
