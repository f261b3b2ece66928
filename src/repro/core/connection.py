"""The ``(f, g)`` connection between consecutive stages (§3 of the paper).

    "For all i ≠ n, a connection (f, g) between the i-th stage and the
    (i+1)-st stage of the MI-digraph G is a pair of functions f and g defined
    on Z_2^{n-1} such that, if x is a node of the i-th stage then the two
    children of x in the (i+1)-st stage are f(x) and g(x)."

A :class:`Connection` stores the two functions as NumPy ``int64`` arrays of
length ``M = 2^m`` (``m = n - 1``).  Validation enforces the MI-digraph
degree condition: every next-stage cell must receive exactly two arcs
(counting multiplicity — ``f(x) == g(x)`` is a *double link*, which is
representable because Figure 5 of the paper exhibits exactly that degenerate
situation, but makes the Banyan property impossible).

:class:`AffineConnection` is the algebraic normal form of an *independent*
connection: ``f(x) = B·x ⊕ c_f`` and ``g(x) = B·x ⊕ c_g`` over GF(2) with a
shared linear part ``B``.  See :mod:`repro.core.independence` for the proof
sketch that independence (the paper's §3 definition) is equivalent to the
existence of this form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.core import gf2
from repro.core.errors import InvalidConnectionError
from repro.core.sweeps import parent_table

__all__ = ["Connection", "AffineConnection", "VertexType"]

# Proposition 1 classifies next-stage vertices by the multiset of arc types
# entering them: a vertex y is of type (f, g) when it is hit once by f and
# once by g, of type (f, f) when hit twice by f, of type (g, g) when hit
# twice by g.
VertexType = str  # one of "fg", "ff", "gg"


class Connection:
    """An interconnection scheme ``(f, g)`` between two adjacent stages.

    Parameters
    ----------
    f, g:
        Sequences of length ``M = 2^m`` with values in ``[0, M)``; ``f[x]``
        and ``g[x]`` are the two children of cell ``x`` in the next stage.
    validate:
        When true (default), check the MI-digraph degree condition: every
        next-stage cell has in-degree exactly 2 counting multiplicity.

    Raises
    ------
    InvalidConnectionError
        If the arrays have the wrong shape or values, or the degree
        condition fails.
    """

    __slots__ = ("_f", "_g", "_m")

    def __init__(self, f, g, *, validate: bool = True) -> None:
        f = np.asarray(f, dtype=np.int64)
        g = np.asarray(g, dtype=np.int64)
        if f.ndim != 1 or g.ndim != 1 or f.shape != g.shape:
            raise InvalidConnectionError(
                f"f and g must be equal-length 1-d arrays, got shapes "
                f"{f.shape} and {g.shape}"
            )
        size = f.shape[0]
        if size == 0 or size & (size - 1):
            raise InvalidConnectionError(
                f"stage size must be a power of two, got {size}"
            )
        self._m = size.bit_length() - 1
        self._f = f
        self._g = g
        if validate:
            self._validate()
        self._f.setflags(write=False)
        self._g.setflags(write=False)

    def _validate(self) -> None:
        size = self.size
        for name, arr in (("f", self._f), ("g", self._g)):
            if arr.size and (arr.min() < 0 or arr.max() >= size):
                raise InvalidConnectionError(
                    f"{name} has values outside [0, {size})"
                )
        indeg = np.bincount(self._f, minlength=size) + np.bincount(
            self._g, minlength=size
        )
        if not np.all(indeg == 2):
            bad = int(np.flatnonzero(indeg != 2)[0])
            raise InvalidConnectionError(
                f"next-stage cell {bad} has in-degree {int(indeg[bad])}, "
                f"expected 2"
            )

    # -- basic accessors ---------------------------------------------------

    @property
    def m(self) -> int:
        """Number of label digits (``n - 1`` for an n-stage network)."""
        return self._m

    @property
    def size(self) -> int:
        """Number of cells per stage, ``M = 2^m``."""
        return 1 << self._m

    @property
    def f(self) -> np.ndarray:
        """The first child function as a read-only ``int64`` array."""
        return self._f

    @property
    def g(self) -> np.ndarray:
        """The second child function as a read-only ``int64`` array."""
        return self._g

    def children(self, x: int) -> tuple[int, int]:
        """The two children ``(f(x), g(x))`` of cell ``x``."""
        return (int(self._f[x]), int(self._g[x]))

    def children_set(self, x: int) -> frozenset[int]:
        """``T+(x)`` — the set of children of ``x`` (size 1 on double links)."""
        return frozenset((int(self._f[x]), int(self._g[x])))

    def parents(self, y: int) -> tuple[int, ...]:
        """``T-(y)`` — the parents of next-stage cell ``y`` with multiplicity."""
        hits = []
        for arr in (self._f, self._g):
            hits.extend(int(x) for x in np.flatnonzero(arr == y))
        return tuple(sorted(hits))

    def parent_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Arrays ``(p0, p1)`` with the two parents of every next-stage cell.

        ``p0[y] <= p1[y]`` always; a cell fed by a double link has
        ``p0[y] == p1[y]``.
        """
        parents = parent_table(np.stack((self._f, self._g), axis=1))
        return parents[:, 0].copy(), parents[:, 1].copy()

    def arcs(self) -> Iterator[tuple[int, int, int]]:
        """Iterate over arcs as ``(x, child, tag)`` with tag 0 = f, 1 = g."""
        for x in range(self.size):
            yield (x, int(self._f[x]), 0)
            yield (x, int(self._g[x]), 1)

    def arc_multiset(self) -> dict[tuple[int, int], int]:
        """Multiset of arcs ``(x, y) -> multiplicity`` ignoring the f/g split."""
        out: dict[tuple[int, int], int] = {}
        for x, y, _tag in self.arcs():
            out[(x, y)] = out.get((x, y), 0) + 1
        return out

    # -- structural queries --------------------------------------------------

    @property
    def has_double_links(self) -> bool:
        """True when some cell's two links land on the same child (Fig. 5)."""
        return bool(np.any(self._f == self._g))

    def vertex_types(self) -> list[VertexType]:
        """Proposition 1 type of each next-stage vertex: "fg", "ff" or "gg".

        A vertex hit twice by ``f`` has type ``"ff"``; twice by ``g`` type
        ``"gg"``; once by each, ``"fg"``.
        """
        size = self.size
        f_in = np.bincount(self._f, minlength=size)
        g_in = np.bincount(self._g, minlength=size)
        types: list[VertexType] = []
        for y in range(size):
            fi, gi = int(f_in[y]), int(g_in[y])
            if fi == 1 and gi == 1:
                types.append("fg")
            elif fi == 2 and gi == 0:
                types.append("ff")
            elif fi == 0 and gi == 2:
                types.append("gg")
            else:  # pragma: no cover - excluded by validation
                raise InvalidConnectionError(
                    f"vertex {y} has in-degree ({fi}, {gi})"
                )
        return types

    def swapped(self, cells) -> "Connection":
        """Return a copy with ``f`` and ``g`` exchanged on the given cells.

        The underlying digraph is unchanged — only the split of the
        adjacency relation into the pair ``(f, g)`` differs.  Useful for
        exploring split-dependent notions (independence, delta property).
        """
        mask = np.zeros(self.size, dtype=bool)
        mask[np.asarray(list(cells), dtype=np.int64)] = True
        f = np.where(mask, self._g, self._f)
        g = np.where(mask, self._f, self._g)
        return Connection(f, g, validate=False)

    # -- dunder --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Connection):
            return NotImplemented
        return (
            self._m == other._m
            and np.array_equal(self._f, other._f)
            and np.array_equal(self._g, other._g)
        )

    def __hash__(self) -> int:
        return hash((self._m, self._f.tobytes(), self._g.tobytes()))

    def __repr__(self) -> str:
        if self.size <= 8:
            return (
                f"Connection(f={self._f.tolist()}, g={self._g.tolist()})"
            )
        return f"Connection(m={self._m}, size={self.size})"

    def same_digraph(self, other: "Connection") -> bool:
        """Whether two connections define the same arc multiset.

        This ignores the (non-canonical) split of the adjacency into
        ``(f, g)``.
        """
        return (
            self._m == other._m
            and self.arc_multiset() == other.arc_multiset()
        )


@dataclass(frozen=True)
class AffineConnection:
    """Normal form of an independent connection (see module docstring).

    Attributes
    ----------
    cols:
        Basis images of the shared linear part ``B`` (see
        :mod:`repro.core.gf2`), length ``m``.
    c_f, c_g:
        The constants: ``f(x) = B(x) ⊕ c_f`` and ``g(x) = B(x) ⊕ c_g``.
    m:
        Number of label digits.
    """

    cols: tuple[int, ...]
    c_f: int
    c_g: int
    m: int

    def __post_init__(self) -> None:
        if len(self.cols) != self.m:
            raise InvalidConnectionError(
                f"expected {self.m} basis images, got {len(self.cols)}"
            )
        bound = 1 << self.m
        for v in (*self.cols, self.c_f, self.c_g):
            if not 0 <= v < bound:
                raise InvalidConnectionError(
                    f"value {v} outside Z_2^{self.m}"
                )

    @property
    def rank(self) -> int:
        """Rank of the linear part ``B``."""
        return gf2.rank(self.cols)

    @property
    def case(self) -> int:
        """Which case of Proposition 1 this connection falls in.

        1 — ``B`` invertible: ``f`` and ``g`` are bijections, every
        next-stage vertex has type ``(f, g)``.

        2 — ``rank(B) = m - 1`` and ``c_f ⊕ c_g ∉ Im(B)``: half the vertices
        have type ``(f, f)`` and half ``(g, g)``.

        Raises :class:`InvalidConnectionError` for parameters that do not
        yield a valid connection (in-degree 2 fails).
        """
        r = self.rank
        if r == self.m:
            return 1
        if r == self.m - 1 and not gf2.in_span(
            self.c_f ^ self.c_g, gf2.image_basis(self.cols)
        ):
            return 2
        raise InvalidConnectionError(
            f"affine parameters do not define a valid connection: "
            f"rank={r}, m={self.m}, "
            f"c_f^c_g in Im(B)="
            f"{gf2.in_span(self.c_f ^ self.c_g, gf2.image_basis(self.cols))}"
        )

    def beta(self, alpha: int) -> int:
        """The paper's β for a translation by ``alpha``: ``β = B(α)``.

        Satisfies ``f(x ⊕ α) = β ⊕ f(x)`` and ``g(x ⊕ α) = β ⊕ g(x)`` for
        every ``x`` — exactly the §3 definition of independence.
        """
        return gf2.apply_linear(self.cols, alpha)

    def to_connection(self, *, validate: bool = True) -> Connection:
        """Materialize the child tables ``f`` and ``g``."""
        table = gf2.apply_linear_table(self.cols, self.m)
        return Connection(
            table ^ np.int64(self.c_f),
            table ^ np.int64(self.c_g),
            validate=validate,
        )
