"""Baseline equivalence: the paper's characterization put to work.

Two deciders are provided:

* :func:`is_baseline_equivalent` — the *easy characterization*: a square
  MI-digraph is topologically equivalent to the Baseline network **iff** it
  satisfies Banyan ∧ P(1, *) ∧ P(*, n) (§2 theorem).  Cost: two array
  sweeps of per-stage component labels (one forward, one backward) and
  one bitset sweep that fails as soon as two paths from the same input
  meet — no isomorphism search and no path counting at all.  The no-merge
  test is exact because every cell reaches the last stage, so a merge
  anywhere is two paths between some input and output
  (:mod:`repro.core.sweeps`).  This is the paper's selling point.

* :func:`baseline_isomorphism` — an explicit stage-respecting isomorphism
  onto the Baseline MI-digraph (the kind of one-to-one mapping Wu and Feng
  exhibited network-by-network), found with
  :func:`repro.core.isomorphism.find_isomorphism` and verifiable with
  :func:`verify_isomorphism`.

The test suite confirms on thousands of networks that the two agree — that
is the computational content of the §2 theorem.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.errors import InvalidNetworkError
from repro.core.midigraph import MIDigraph
from repro.core.properties import satisfies_characterization

__all__ = [
    "baseline_isomorphism",
    "is_baseline_equivalent",
    "verify_isomorphism",
]


def is_baseline_equivalent(net: MIDigraph) -> bool:
    """Decide Baseline equivalence via the §2 characterization.

    Returns True iff ``net`` is square (``M = 2^{n-1}``) and satisfies
    the Banyan property, P(1, *) and P(*, n).  By the characterization
    theorem this is exactly topological equivalence to the Baseline
    network of the same size.
    """
    return net.is_square() and satisfies_characterization(net)


def baseline_isomorphism(net: MIDigraph) -> list[np.ndarray] | None:
    """Explicit isomorphism from ``net`` onto the Baseline MI-digraph.

    Returns per-stage label mappings (see
    :func:`repro.core.isomorphism.find_isomorphism`) or ``None`` when the
    network is not Baseline-equivalent.
    """
    # Imported lazily: networks.* builds on core.*, and this convenience
    # helper is the one place core reaches back for a concrete network.
    from repro.core.isomorphism import find_isomorphism
    from repro.networks.baseline import baseline

    if not net.is_square():
        return None
    return find_isomorphism(net, baseline(net.n_stages))


def verify_isomorphism(
    g: MIDigraph, h: MIDigraph, mappings: Sequence[np.ndarray]
) -> bool:
    """Check that per-stage ``mappings`` realize an isomorphism ``g → h``.

    The check is independent of how the mapping was obtained: it relabels
    ``g`` stage by stage and compares arc multisets gap by gap (parallel
    arcs included).  Raises :class:`InvalidNetworkError` when the mapping
    has the wrong shape or is not a per-stage bijection; returns False when
    it is a bijection but not arc-preserving.
    """
    if g.n_stages != h.n_stages or g.size != h.size:
        raise InvalidNetworkError(
            "graphs of different shapes cannot be isomorphic"
        )
    if len(mappings) != g.n_stages:
        raise InvalidNetworkError(
            f"need {g.n_stages} stage mappings, got {len(mappings)}"
        )
    relabeled = g.relabel(list(mappings))  # validates bijectivity
    return relabeled.same_digraph(h)
