"""Hypothesis property tests on the core invariants.

These encode the paper's statements as universally-quantified properties
and let hypothesis hunt for counterexamples.
"""

from __future__ import annotations

from unittest import mock

import networkx as nx
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.equivalence import (
    baseline_isomorphism,
    is_baseline_equivalent,
    verify_isomorphism,
)
from repro.core.independence import (
    is_independent,
    random_independent_connection,
    to_affine,
)
from repro.core.connection import Connection
from repro.core.midigraph import MIDigraph
from repro.core.properties import is_banyan, p_profile
from repro.core.reverse import reverse_connection
from repro.networks.baseline import baseline
from repro.networks.random_nets import (
    random_independent_banyan_network,
    random_midigraph,
    random_recursive_buddy_network,
    random_relabeling,
)
from repro.permutations.connection_map import (
    pipid_connection,
    pipid_from_connection,
    pipid_is_degenerate,
)
from repro.permutations.pipid import Pipid

seeds = st.integers(min_value=0, max_value=2**31 - 1)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, m=st.integers(1, 6))
def test_prop1_reverse_of_independent_is_independent(seed, m):
    """Proposition 1, quantified over the generator's support."""
    rng = np.random.default_rng(seed)
    conn = random_independent_connection(rng, m)
    cert = reverse_connection(conn)
    assert is_independent(cert.reverse)
    # and reversing twice returns to the original digraph
    again = reverse_connection(cert.reverse)
    assert again.reverse.same_digraph(conn)


@settings(max_examples=30, deadline=None)
@given(seed=seeds, n=st.integers(3, 6))
def test_theorem3_banyan_independent_stacks_are_equivalent(seed, n):
    """Theorem 3 as a property: every Banyan independent stack the
    generator can produce is Baseline-equivalent, with a verifiable
    explicit isomorphism."""
    rng = np.random.default_rng(seed)
    net = random_independent_banyan_network(rng, n)
    assert is_baseline_equivalent(net)
    iso = baseline_isomorphism(net)
    assert iso is not None
    assert verify_isomorphism(net, baseline(n), iso)


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=st.integers(2, 6))
def test_pipid_stages_are_independent_with_linear_beta(seed, n):
    """§4: non-degenerate PIPID ⇒ independent, with β = B(α) linear."""
    rng = np.random.default_rng(seed)
    p = Pipid.random(rng, n)
    conn = pipid_connection(p, allow_degenerate=True)
    if pipid_is_degenerate(p):
        assert conn.has_double_links
        return
    aff = to_affine(conn)
    assert aff is not None
    assert pipid_from_connection(conn) == p
    for a in range(1, conn.size):
        for b in range(1, conn.size):
            assert aff.beta(a ^ b) == aff.beta(a) ^ aff.beta(b)
            break  # one partner per a keeps the loop linear in size


@settings(max_examples=25, deadline=None)
@given(seed=seeds, n=st.integers(2, 5))
def test_relabeling_preserves_every_invariant(seed, n):
    """Metamorphic: random relabelings change tables but no invariant."""
    rng = np.random.default_rng(seed)
    net = random_midigraph(rng, n)
    twisted = random_relabeling(rng, net)
    assert p_profile(net) == p_profile(twisted)
    assert is_banyan(net) == is_banyan(twisted)
    assert is_baseline_equivalent(net) == is_baseline_equivalent(twisted)


@settings(max_examples=25, deadline=None)
@given(seed=seeds, n=st.integers(2, 5))
def test_decision_always_matches_explicit_search(seed, n):
    """The §2 theorem as a property: the cheap characterization and the
    isomorphism search never disagree, on any generated network."""
    rng = np.random.default_rng(seed)
    family = [
        random_midigraph(rng, n),
        random_recursive_buddy_network(rng, n),
    ]
    for net in family:
        dec = is_baseline_equivalent(net)
        iso = baseline_isomorphism(net)
        assert dec == (iso is not None)


@settings(max_examples=30, deadline=None)
@given(seed=seeds, n=st.integers(2, 5))
def test_reverse_digraph_has_mirrored_profile(seed, n):
    """P-profile of G^{-1} is the stage-mirrored profile of G."""
    rng = np.random.default_rng(seed)
    net = random_midigraph(rng, n)
    prof = p_profile(net)
    rev_prof = p_profile(net.reverse())
    for (i, j), c in prof.items():
        assert rev_prof[(n + 1 - j, n + 1 - i)] == c


def _random_stack(rng, size: int, gaps: int) -> MIDigraph:
    """Uniform random connections on ``size`` cells; any stage count."""
    conns = []
    for _ in range(gaps):
        slots = np.repeat(np.arange(size), 2)
        rng.shuffle(slots)
        conns.append(Connection(slots[0::2], slots[1::2]))
    return MIDigraph(conns)


def _banyan_candidates(rng, n: int) -> list[MIDigraph]:
    """Random, Banyan and relabeled nets plus two non-square shapes."""
    banyan = random_independent_banyan_network(rng, n)
    size = 1 << (n - 1)
    return [
        random_midigraph(rng, n),
        random_relabeling(rng, random_midigraph(rng, n)),
        banyan,
        random_relabeling(rng, banyan),
        random_recursive_buddy_network(rng, n),
        # Non-square: too few stages (no merges, rows not full) and an
        # arbitrary stack with a stage count unrelated to M.
        baseline(n).subrange(1, n - 1) if n > 2 else banyan,
        _random_stack(rng, size, int(rng.integers(1, 2 * n))),
    ]


@settings(max_examples=30, deadline=None)
@given(seed=seeds, n=st.integers(2, 8))
def test_banyan_iff_path_matrix_all_ones(seed, n):
    """Internal consistency of the two Banyan formulations."""
    from repro.core.properties import path_count_matrix
    from repro.routing.paths import enumerate_paths

    rng = np.random.default_rng(seed)
    for net in _banyan_candidates(rng, n):
        mat = path_count_matrix(net)
        assert is_banyan(net) == bool(np.all(mat == 1))
    # spot-check the matrix against explicit enumeration
    net = random_midigraph(rng, n)
    mat = path_count_matrix(net)
    u = int(rng.integers(0, net.size))
    w = int(rng.integers(0, net.size))
    assert len(enumerate_paths(net, u, w)) == mat[u, w]


@settings(max_examples=15, deadline=None)
@given(seed=seeds)
def test_banyan_sweep_in_many_blocks(seed):
    """The source-blocked Banyan sweep agrees with the path counts.

    With the block budget at one byte every 64-source word is its own
    block, so n = 8 (128 sources) runs two blocks and n = 7 one.  The
    last case exchanges two arcs of high-label first-stage cells of a
    Banyan net: sources 0–63 keep their unique paths, so only the second
    block can see the merge.
    """
    from repro.core import sweeps
    from repro.core.properties import path_count_matrix

    rng = np.random.default_rng(seed)
    banyan = random_independent_banyan_network(rng, 8)
    first = banyan.connections[0]
    f, g = first.f.copy(), first.g.copy()
    x1, x2 = rng.choice(np.arange(64, 128), size=2, replace=False)
    g[x1], f[x2] = f[x2], g[x1]
    broken = MIDigraph([Connection(f, g), *banyan.connections[1:]])
    assert np.all(path_count_matrix(broken)[:64] == 1)
    with mock.patch.object(sweeps, "BANYAN_BLOCK_BYTES", 1):
        nets = [*_banyan_candidates(rng, 7), *_banyan_candidates(rng, 8)]
        for net in [*nets, broken]:
            mat = path_count_matrix(net)
            assert is_banyan(net) == bool(np.all(mat == 1))


def _nx_component_labels(net: MIDigraph, i: int, j: int) -> np.ndarray:
    """Oracle for ``component_labels``: networkx components, numbered by
    first appearance in stage-major node order."""
    graph = nx.Graph()
    graph.add_nodes_from(
        (s, x) for s in range(i, j + 1) for x in range(net.size)
    )
    for (gap, x), (_, y) in net.arcs():
        if i <= gap < j:
            graph.add_edge((gap, x), (gap + 1, y))
    comp = {
        node: c
        for c, members in enumerate(nx.connected_components(graph))
        for node in members
    }
    ids: dict[int, int] = {}
    return np.array([
        [ids.setdefault(comp[(s, x)], len(ids)) for x in range(net.size)]
        for s in range(i, j + 1)
    ])


@settings(max_examples=30, deadline=None)
@given(seed=seeds, n=st.integers(2, 7), data=st.data())
def test_component_sweeps_match_networkx(seed, n, data):
    """count_components, p_profile and component_labels against
    networkx connected components, first-appearance numbering included."""
    from repro.core.properties import component_labels, count_components

    rng = np.random.default_rng(seed)
    net = data.draw(st.sampled_from(_banyan_candidates(rng, n)[:5]))
    i = data.draw(st.integers(1, n))
    j = data.draw(st.integers(i, n))
    want = _nx_component_labels(net, i, j)
    assert np.array_equal(component_labels(net, i, j), want)
    assert count_components(net, i, j) == int(want.max()) + 1
    profile = p_profile(net)
    for (a, b), count in profile.items():
        assert count == int(_nx_component_labels(net, a, b).max()) + 1


@settings(max_examples=30, deadline=None)
@given(seed=seeds, n=st.integers(2, 4))
def test_radix3_banyan_and_components_match_oracles(seed, n):
    """Radix k = 3: the sweeps against path counts and networkx."""
    from repro.radix.midigraph import RadixConnection, RadixMIDigraph
    from repro.radix.networks import omega_k
    from repro.radix.properties import (
        radix_count_components,
        radix_is_banyan,
        radix_path_count_matrix,
    )

    rng = np.random.default_rng(seed)
    size = 3 ** (n - 1)

    def shuffled(net):
        perms = [rng.permutation(size) for _ in range(n)]
        conns = []
        for gap, conn in enumerate(net.connections):
            children = np.empty_like(conn.children)
            children[perms[gap]] = perms[gap + 1][conn.children]
            conns.append(RadixConnection(children))
        return RadixMIDigraph(conns)

    arbitrary = RadixMIDigraph([
        RadixConnection(rng.permutation(np.repeat(np.arange(size), 3))
                        .reshape(size, 3))
        for _ in range(n - 1)
    ])
    for net in (omega_k(n, 3), shuffled(omega_k(n, 3)), arbitrary):
        mat = radix_path_count_matrix(net)
        assert radix_is_banyan(net) == bool(np.all(mat == 1))
        graph = nx.Graph()
        graph.add_nodes_from((1, x) for x in range(size))
        for gap, conn in enumerate(net.connections, start=1):
            for x in range(size):
                for c in conn.children_of(x):
                    graph.add_edge((gap, x), (gap + 1, c))
        assert radix_count_components(net, 1, n) == (
            nx.number_connected_components(graph)
        )


@settings(max_examples=30, deadline=None)
@given(seed=seeds, n=st.integers(2, 6))
def test_looping_algorithm_realizes_every_sampled_permutation(seed, n):
    """Rearrangeability of the Beneš network as a universal property: the
    looping algorithm's switch settings reproduce any permutation when fed
    to the independent switch-configuration simulator."""
    from repro.networks.benes import benes
    from repro.permutations.permutation import Permutation
    from repro.routing.permutation_routing import (
        permutation_from_switch_settings,
    )
    from repro.routing.rearrangeable import benes_switch_settings

    rng = np.random.default_rng(seed)
    perm = Permutation.random(rng, 2**n)
    settings = benes_switch_settings(perm)
    assert permutation_from_switch_settings(benes(n), settings) == perm


@settings(max_examples=30, deadline=None)
@given(seed=seeds, n=st.integers(2, 5))
def test_json_round_trip_on_arbitrary_networks(seed, n):
    """Serialization is lossless for any valid network, split included."""
    from repro.io import dumps_network, loads_network

    rng = np.random.default_rng(seed)
    net = random_midigraph(rng, n)
    assert loads_network(dumps_network(net)) == net


@settings(max_examples=20, deadline=None)
@given(seed=seeds, n=st.integers(2, 4))
def test_fingerprint_never_separates_relabelings(seed, n):
    """Fingerprints are isomorphism invariants: no relabeling may change
    them (soundness of the fast non-equivalence proof)."""
    from repro.analysis.spectrum import fingerprint

    rng = np.random.default_rng(seed)
    net = random_midigraph(rng, n)
    twisted = random_relabeling(rng, net)
    assert fingerprint(net) == fingerprint(twisted)
