"""The reference NumPy kernel backend.

One entry point, ``run_batch``, runs a ``(cycles, B, N)`` traffic slab
through packet-compacted flat-index kernels.  Packet state has a leading
batch axis (stage-major ``(n, B·2M)`` flat slabs, so each stage kernel
touches one contiguous block), and each phase (eject → per-stage move →
inject) makes one dense scan per stage to find the occupied linear
buffer indices; everything downstream — routing gathers, contention
pairing, scatters, per-scenario counter updates — runs on packet-sized
1-d arrays.  Slot pairs of one switch sit at adjacent linear indices
``2k, 2k+1``, so output contention is found by comparing neighbouring
entries of the sorted packet index list.  The batch index rides inside
the linear packet index (``idx = b·2M + 2·cell + slot``), so scenarios
never interact, and per-scenario counters accumulate via
``np.bincount`` over ``idx >> log2(2M)``.  A single ``simulate`` call
is a batch of one through the same kernels.

Semantics are the contract every other backend is property-tested
against — when in doubt about an arbitration or counting rule, this file
is the specification.  Contention is oldest-packet-first (ties to
slot 0); losers are discarded under ``drop`` and held under ``block``.
Ambiguous port entries (``-2``) resolve adaptively toward the port whose
target slot is free.
"""

from __future__ import annotations

import numpy as np

from repro.sim.kernels.results import BatchRun

NAME = "numpy"
AVAILABLE = True


def run_batch(
    comp,
    tmats: np.ndarray,
    scheds: np.ndarray | None,
    cycles: int,
    drop: bool,
    drain: bool,
) -> BatchRun:
    """Run a ``(cycles, B, N)`` traffic slab; see module docstring."""
    n, size, n_in = comp.n_stages, comp.size, comp.n_inputs
    B = tmats.shape[1]
    S = 2 * size              # buffer slots per stage per scenario
    shift = S.bit_length() - 1    # idx >> shift == scenario index

    sched = None
    if scheds is not None:
        # (n, B·N) — stage-major so each stage gather reads one flat row.
        sched = np.ascontiguousarray(
            scheds.transpose(1, 0, 2)
        ).reshape(n, B * n_in)

    has_amb = comp.has_amb
    has_unreachable, links_ok = comp.has_unreachable, comp.links_ok
    # Flat lookup tables: 1-d gathers with computed indices beat
    # multi-array fancy indexing by ~3x on the packet-sized hot arrays.
    ptabs_f = comp.ptabs.reshape(n - 1, size * size)
    arc_f = comp.arc_target.reshape(n - 1, S)
    links_f = comp.links.reshape(n - 1, S)
    mshift = size.bit_length() - 1    # cell -> port-table row offset
    src_alive_f = np.tile(comp.src_alive, B)
    src_dead_f = ~src_alive_f
    all_alive = bool(comp.src_alive.all())

    # Packet state: per-stage flat slabs, linear index b·S + 2·cell + slot.
    dst = np.full((n, B * S), -1, dtype=np.int32)
    birth = np.zeros((n, B * S), dtype=np.int32)
    origin = np.zeros((n, B * S), dtype=np.int32)
    # The first stage's slot s of scenario b IS input link s — wait
    # buffers share the linear indexing (n_in == S).
    wait_dst = np.full((B, n_in), -1, dtype=np.int32)
    wait_birth = np.zeros((B, n_in), dtype=np.int32)
    wait_dst_f = wait_dst.reshape(-1)
    wait_birth_f = wait_birth.reshape(-1)

    offered = np.zeros(B, dtype=np.int64)
    injected = np.zeros(B, dtype=np.int64)
    delivered = np.zeros(B, dtype=np.int64)
    dropped = np.zeros(B, dtype=np.int64)
    unroutable = np.zeros(B, dtype=np.int64)
    blocked_moves = np.zeros(B, dtype=np.int64)
    total_hops = np.zeros(B, dtype=np.int64)
    occupancy = np.zeros((n, B), dtype=np.int64)
    lat_idx: list[np.ndarray] = []
    lat_val: list[np.ndarray] = []

    def _count(pb: np.ndarray) -> np.ndarray:
        return np.bincount(pb, minlength=B)

    def _occupied(j: int, act: np.ndarray | None) -> np.ndarray:
        """Sorted linear indices of (active) packets at stage ``j``."""
        pidx = np.flatnonzero(dst[j] >= 0)
        if act is not None and pidx.size:
            pidx = pidx[act[pidx >> shift]]
        return pidx

    def _pair_losers(
        pidx: np.ndarray, port: np.ndarray, b1: np.ndarray
    ) -> np.ndarray:
        """Positions (into ``pidx``) of contention losers.

        Two packets contend when they sit in the two slots of one switch
        (adjacent linear indices ``2k, 2k+1`` — adjacent entries of the
        sorted ``pidx``) and want the same out-port; the younger loses,
        ties to slot 0's packet winning.
        """
        adj = np.flatnonzero(
            ((pidx[:-1] ^ 1) == pidx[1:]) & (port[:-1] == port[1:])
        )
        if not adj.size:
            return adj
        lose_lo = b1[pidx[adj + 1]] < b1[pidx[adj]]
        return np.where(lose_lo, adj, adj + 1)

    def _eject(now: int, act: np.ndarray | None) -> None:
        d1 = dst[n - 1]
        pidx = _occupied(n - 1, act)
        if not pidx.size:
            return
        b1 = birth[n - 1]
        port = d1[pidx] & 1
        loser = _pair_losers(pidx, port, b1)
        if loser.size:
            lidx = pidx[loser]
            if drop:
                d1[lidx] = -1
                dropped[:] += _count(lidx >> shift)
            else:
                blocked_moves[:] += _count(lidx >> shift)
            keep = np.ones(pidx.size, dtype=bool)
            keep[loser] = False
            pidx = pidx[keep]
        lat_idx.append(pidx >> shift)
        lat_val.append(now - b1[pidx])
        won = _count(pidx >> shift)
        delivered[:] += won
        total_hops[:] += won
        d1[pidx] = -1

    def _move(j: int, act: np.ndarray | None) -> None:
        d1 = dst[j]
        pidx = _occupied(j, act)
        if not pidx.size:
            return
        b1 = birth[j]
        inslot = pidx & np.int64(S - 1)  # 2·cell + slot within the slab
        pd = d1[pidx]
        if sched is None:
            port = ptabs_f[j][((inslot >> 1) << mshift) | (pd >> 1)]
            if has_amb[j]:
                amb = port == -2
                if amb.any():
                    t0 = (pidx - inslot) + arc_f[j][inslot & ~1]
                    port = np.where(
                        amb,
                        np.where(dst[j + 1][t0] < 0, 0, 1).astype(np.int8),
                        port,
                    )
        else:
            port = sched[j][(pidx - inslot) + origin[j][pidx]]
        if has_unreachable[j] or not links_ok[j]:
            alive = port >= 0
            if not links_ok[j]:
                alive &= links_f[j][
                    (inslot & ~1) | np.where(port >= 0, port, 0)
                ]
            dead = ~alive
            if dead.any():
                didx = pidx[dead]
                d1[didx] = -1
                unroutable[:] += _count(didx >> shift)
                pidx, pd, port = pidx[alive], pd[alive], port[alive]
                if not pidx.size:
                    return
                inslot = pidx & np.int64(S - 1)
        loser = _pair_losers(pidx, port, b1)
        if loser.size:
            lidx = pidx[loser]
            if drop:
                d1[lidx] = -1
                dropped[:] += _count(lidx >> shift)
            else:
                blocked_moves[:] += _count(lidx >> shift)
            keep = np.ones(pidx.size, dtype=bool)
            keep[loser] = False
            pidx, pd, port = pidx[keep], pd[keep], port[keep]
            inslot = pidx & np.int64(S - 1)
        target = (pidx - inslot) + arc_f[j][(inslot & ~1) | port]
        d1n = dst[j + 1]
        free = d1n[target] < 0
        if not free.all():
            stuck = pidx[~free]
            if drop:
                d1[stuck] = -1
                dropped[:] += _count(stuck >> shift)
            else:
                blocked_moves[:] += _count(stuck >> shift)
            pidx, pd, target = pidx[free], pd[free], target[free]
        d1n[target] = pd
        birth[j + 1][target] = b1[pidx]
        origin[j + 1][target] = origin[j][pidx]
        d1[pidx] = -1
        total_hops[:] += _count(pidx >> shift)

    def _inject(
        now: int, row: np.ndarray | None, act: np.ndarray | None
    ) -> None:
        if row is not None:
            rowf = row.reshape(-1)
            draws = (wait_dst_f < 0) & (rowf >= 0)
            offered[:] += draws.reshape(B, n_in).sum(axis=1)
            if not all_alive:
                dead = draws & src_dead_f
                if dead.any():
                    unroutable[:] += dead.reshape(B, n_in).sum(axis=1)
                    draws &= src_alive_f
            wait_dst_f[draws] = rowf[draws]
            wait_birth_f[draws] = now
        ridx = np.flatnonzero((wait_dst_f >= 0) & (dst[0] < 0))
        if act is not None and ridx.size:
            ridx = ridx[act[ridx >> shift]]
        if not ridx.size:
            return
        dst[0][ridx] = wait_dst_f[ridx]
        birth[0][ridx] = wait_birth_f[ridx]
        origin[0][ridx] = ridx & np.int64(S - 1)
        wait_dst_f[ridx] = -1
        injected[:] += _count(ridx >> shift)

    occ_buf = np.empty((n, B * S), dtype=bool)
    for cycle in range(cycles):
        _eject(cycle, None)
        for j in range(n - 2, -1, -1):
            _move(j, None)
        _inject(cycle, tmats[cycle], None)
        np.greater_equal(dst, 0, out=occ_buf)
        occupancy += occ_buf.reshape(n, B, S).sum(axis=2)

    drain_cycles = np.zeros(B, dtype=np.int64)
    if drain:
        def _in_net() -> np.ndarray:
            return (
                (dst >= 0).reshape(n, B, S).sum(axis=(0, 2))
                + (wait_dst >= 0).sum(axis=1)
            )

        limit = _in_net() * (n + 2) + 4 * n + 16
        cycle = cycles
        act = (_in_net() > 0) & (drain_cycles < limit)
        while act.any():
            _eject(cycle, act)
            for j in range(n - 2, -1, -1):
                _move(j, act)
            _inject(cycle, None, act)
            drain_cycles[act] += 1
            cycle += 1
            act = (_in_net() > 0) & (drain_cycles < limit)

    in_flight = (
        (dst >= 0).reshape(n, B, S).sum(axis=(0, 2))
        + (wait_dst >= 0).sum(axis=1)
    )
    all_idx = np.concatenate(lat_idx) if lat_idx else np.empty(0, np.int64)
    all_val = np.concatenate(lat_val) if lat_val else np.empty(0, np.int32)
    # One stable partition by scenario instead of B full-array scans;
    # stability keeps each scenario's delivery order (hence its latency
    # statistics) independent of the batch it ran in.
    order = np.argsort(all_idx, kind="stable")
    return BatchRun(
        offered=offered,
        injected=injected,
        delivered=delivered,
        dropped=dropped,
        unroutable=unroutable,
        blocked_moves=blocked_moves,
        total_hops=total_hops,
        in_flight=in_flight,
        drain_cycles=drain_cycles,
        occupancy=occupancy,
        lat_sorted=all_val[order],
        lat_bounds=np.searchsorted(all_idx[order], np.arange(B + 1)),
    )
