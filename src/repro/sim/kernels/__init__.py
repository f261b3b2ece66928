"""Pluggable simulation kernel backends.

The cycle-based simulator is split into one orchestration path
(:mod:`repro.sim.batch` — validation, traffic materialization, report
assembly; ``simulate`` is a batch of one) and *kernel backends* that run
the hot ``(cycles × stages)`` loop over a
:class:`~repro.sim.compiled.CompiledNetwork`'s frozen int32/int8 tables:

``numpy``
    The reference backend: packet-compacted flat-index kernels over a
    scenario slab — one NumPy dispatch per stage phase per cycle for the
    whole batch.
``numba``
    The fused backend: the entire cycle loop — inject, per-stage move
    with contention/ambiguity/fault handling, eject, drain — is one
    ``@njit(nopython)`` function with no interpreter dispatch inside,
    run once per scenario of the slab.  Requires the optional ``numba``
    package (``pip install -e .[fast]``).

Each backend has one entry point, and the backends are
**bit-identical** in every report field except wall-clock ``elapsed``
(property-tested):

* ``run_batch(comp, tmats, scheds, cycles, drop, drain) -> BatchRun``

Backend selection flows through one function, :func:`resolve_backend`:
an explicit name (``SimPolicy.backend``, the ``--backend`` CLI flag, or
an engine-form keyword) wins; ``"auto"`` consults the
``REPRO_SIM_BACKEND`` environment variable and otherwise picks ``numba``
when it is importable, falling back to ``numpy`` gracefully when it is
not.  Explicitly requesting ``numba`` on an installation without it is
an error — a sweep that silently ran 30x slower than asked would be
worse.
"""

from __future__ import annotations

import os

import numpy as np

from repro.core.errors import ReproError
from repro.sim.kernels.results import BatchRun
from repro.sim.kernels import numba_backend, numpy_backend

__all__ = [
    "BACKEND_CHOICES",
    "BatchRun",
    "available_backends",
    "get_backend",
    "numba_available",
    "resolve_backend",
    "warm_jit",
]

#: Accepted spellings of a backend request (spec field, CLI flag, env).
BACKEND_CHOICES = ("auto", "numpy", "numba")

#: Environment override consulted by ``"auto"`` requests.
BACKEND_ENV = "REPRO_SIM_BACKEND"

_BACKENDS = {
    "numpy": numpy_backend,
    "numba": numba_backend,
}


def numba_available() -> bool:
    """True when the optional numba package imported successfully."""
    return numba_backend.AVAILABLE


def available_backends() -> dict:
    """Installed/usable state of every backend: ``{name: bool}``."""
    return {name: mod.AVAILABLE for name, mod in _BACKENDS.items()}


def resolve_backend(name: str | None = None) -> str:
    """Resolve a backend request to a concrete backend name.

    ``None`` and ``"auto"`` consult the ``REPRO_SIM_BACKEND`` environment
    variable, then pick ``"numba"`` when available and ``"numpy"``
    otherwise.  An explicit ``"numba"`` (argument or environment) on an
    installation without numba raises with an install hint rather than
    silently degrading.
    """
    name = "auto" if name is None else str(name)
    if name not in BACKEND_CHOICES:
        raise ReproError(
            f"unknown simulation backend {name!r}; choose from "
            f"{BACKEND_CHOICES}"
        )
    if name == "auto":
        env = os.environ.get(BACKEND_ENV, "").strip().lower()
        if env and env != "auto":
            if env not in BACKEND_CHOICES:
                raise ReproError(
                    f"{BACKEND_ENV}={env!r} is not a simulation backend; "
                    f"choose from {BACKEND_CHOICES}"
                )
            name = env
    if name == "auto":
        return "numba" if numba_available() else "numpy"
    if name == "numba" and not numba_available():
        raise ReproError(
            "the 'numba' simulation backend needs the optional numba "
            "package: pip install -e .[fast] (or use --backend auto / "
            "numpy, which never require it)"
        )
    return name


def get_backend(name: str | None = None):
    """The backend module for a request (see :func:`resolve_backend`)."""
    return _BACKENDS[resolve_backend(name)]


def warm_jit() -> bool:
    """Pre-compile the numba kernels on a tiny throwaway run.

    Campaign worker pools call this from their initializer so the
    one-time JIT cost is paid before the first real slab, not inside it.
    Returns True when a warm numba kernel is now resident; False (and
    does nothing) when numba is unavailable.
    """
    if not numba_available():
        return False
    from repro.networks.omega import omega
    from repro.obs import trace as obs
    from repro.sim.compiled import CompiledNetwork
    from repro.sim.faults import FaultSet

    with obs.span("warm_jit"):
        comp = CompiledNetwork(omega(2), FaultSet())
        tmats = np.zeros((1, 1, comp.n_inputs), dtype=np.int32)
        numba_backend.run_batch(comp, tmats, None, 1, True, True)
    return True
