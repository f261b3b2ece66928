"""Benchmarks (A4): the "easy to check" claim, swept over network size.

Parametrized over n so ``--benchmark-only`` output shows the scaling shape
of each decider side by side.  The characterization runs at n = 4…14 on
omega and on a seeded relabeling of it (no longer affine, so nothing can
lean on the algebraic form); the explicit search stays at n ≤ 10.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.equivalence import is_baseline_equivalent
from repro.core.isomorphism import find_isomorphism
from repro.networks.baseline import baseline
from repro.networks.omega import omega
from repro.networks.random_nets import random_relabeling


@pytest.fixture(scope="module", params=[4, 6, 8, 10])
def sized_pair(request):
    n = request.param
    return n, omega(n), baseline(n)


@pytest.mark.parametrize("variant", ["omega", "relabeled"])
@pytest.mark.parametrize("n", range(4, 15))
def bench_characterization_scaling(benchmark, n, variant):
    net = omega(n)
    if variant == "relabeled":
        net = random_relabeling(np.random.default_rng(n), net)
    benchmark.extra_info["n"] = n
    benchmark.extra_info["inputs"] = 1 << n
    benchmark.extra_info["variant"] = variant
    assert benchmark(is_baseline_equivalent, net)


def bench_explicit_search_scaling(benchmark, sized_pair):
    n, net, ref = sized_pair
    benchmark.extra_info["n"] = n
    benchmark.extra_info["inputs"] = 1 << n
    assert benchmark(find_isomorphism, net, ref) is not None
