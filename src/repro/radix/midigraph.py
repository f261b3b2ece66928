"""Radix-k MI-digraphs: stages of k×k switching cells.

Generalizes :mod:`repro.core.midigraph`: an n-stage radix-k MI-digraph has
``M = k^{n-1}`` cells per stage, every cell has ``k`` children and ``k``
parents (boundary stages excepted).  The binary case is recovered at
``k = 2``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.errors import InvalidConnectionError, InvalidNetworkError
from repro.core.sweeps import parent_table

__all__ = ["RadixConnection", "RadixMIDigraph"]


class RadixConnection:
    """A k-ary connection: ``children[x]`` is the k-tuple of children.

    The validity condition generalizes §2: every next-stage cell must
    receive exactly ``k`` arcs (with multiplicity).
    """

    __slots__ = ("_children", "_k", "_size")

    def __init__(self, children, *, validate: bool = True) -> None:
        arr = np.asarray(children, dtype=np.int64)
        if arr.ndim != 2:
            raise InvalidConnectionError(
                f"children must be a 2-d array (cells × k), got shape "
                f"{arr.shape}"
            )
        self._size, self._k = map(int, arr.shape)
        if self._k < 1:
            raise InvalidConnectionError("radix k must be at least 1")
        self._children = arr
        if validate:
            self._validate()
        self._children.setflags(write=False)

    def _validate(self) -> None:
        flat = self._children.ravel()
        if flat.size and (flat.min() < 0 or flat.max() >= self._size):
            raise InvalidConnectionError(
                f"child labels outside [0, {self._size})"
            )
        indeg = np.bincount(flat, minlength=self._size)
        if not np.all(indeg == self._k):
            bad = int(np.flatnonzero(indeg != self._k)[0])
            raise InvalidConnectionError(
                f"next-stage cell {bad} has in-degree {int(indeg[bad])}, "
                f"expected {self._k}"
            )

    @property
    def size(self) -> int:
        """Cells per stage."""
        return self._size

    @property
    def k(self) -> int:
        """Radix (children per cell)."""
        return self._k

    @property
    def children(self) -> np.ndarray:
        """The (size × k) child table (read-only)."""
        return self._children

    def children_of(self, x: int) -> tuple[int, ...]:
        """The k children of cell ``x`` (with multiplicity)."""
        return tuple(int(c) for c in self._children[x])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RadixConnection):
            return NotImplemented
        return np.array_equal(self._children, other._children)

    def __hash__(self) -> int:
        return hash((self._k, self._children.tobytes()))

    def __repr__(self) -> str:
        return f"RadixConnection(size={self._size}, k={self._k})"


class RadixMIDigraph:
    """An n-stage MI-digraph of k×k cells."""

    __slots__ = ("_connections", "_k", "_size")

    def __init__(self, connections: Sequence[RadixConnection]) -> None:
        conns = tuple(connections)
        if not conns:
            raise InvalidNetworkError("need at least one connection")
        k, size = conns[0].k, conns[0].size
        for i, c in enumerate(conns):
            if not isinstance(c, RadixConnection):
                raise InvalidNetworkError(
                    f"connection {i} is not a RadixConnection"
                )
            if c.k != k or c.size != size:
                raise InvalidNetworkError(
                    f"connection {i} has shape (size={c.size}, k={c.k}), "
                    f"expected (size={size}, k={k})"
                )
        self._connections = conns
        self._k = k
        self._size = size

    @property
    def n_stages(self) -> int:
        """Number of stages."""
        return len(self._connections) + 1

    @property
    def k(self) -> int:
        """Radix."""
        return self._k

    @property
    def size(self) -> int:
        """Cells per stage."""
        return self._size

    @property
    def connections(self) -> tuple[RadixConnection, ...]:
        """The inter-stage connections."""
        return self._connections

    def is_square(self) -> bool:
        """Whether ``M = k^{n-1}`` (the size relation of the theory)."""
        return self._size == self._k ** (self.n_stages - 1)

    def child_lists(self) -> list[list[tuple[int, ...]]]:
        """Children per gap per cell — the generic layered-graph form."""
        return [
            [conn.children_of(x) for x in range(self._size)]
            for conn in self._connections
        ]

    def to_binary(self):
        """The equivalent :class:`~repro.core.midigraph.MIDigraph` (k=2).

        A radix-2 MI-digraph *is* a binary one — the two child columns
        are the ``(f, g)`` split — so the k=2 members of the radix
        families drop into everything built for binary networks (the
        simulator, routing, the equivalence machinery).  Raises
        :class:`~repro.core.errors.InvalidNetworkError` for k != 2.
        """
        from repro.core.connection import Connection
        from repro.core.midigraph import MIDigraph

        if self._k != 2:
            raise InvalidNetworkError(
                f"only radix-2 networks convert to binary MI-digraphs, "
                f"got k={self._k}"
            )
        return MIDigraph(
            [
                Connection(c.children[:, 0], c.children[:, 1])
                for c in self._connections
            ]
        )

    def reverse(self) -> "RadixMIDigraph":
        """The reverse radix MI-digraph (parents become children)."""
        return RadixMIDigraph([
            RadixConnection(parent_table(conn.children))
            for conn in reversed(self._connections)
        ])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RadixMIDigraph):
            return NotImplemented
        return self._connections == other._connections

    def __repr__(self) -> str:
        return (
            f"RadixMIDigraph(n_stages={self.n_stages}, k={self._k}, "
            f"size={self._size})"
        )
