"""Pure helpers of the benchmark: statistics, fits, RSS, digests, self time.

Nothing here imports the program under test, so the parent process
(:mod:`run`) and the tests can use it without ``repro`` on the path.
"""

from __future__ import annotations

import hashlib
import json
import math
import resource
import statistics

#: Ops that must lie beyond the tail percentile (choosing-metrics rule).
TAIL_BEYOND = 10

#: Report fields that measure the host, not the simulation.
HOST_FIELDS = ("elapsed", "timings")


def tail_percentile(samples) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value, count)``.  The value is the 11th
    largest sample; ``percentile`` is the share of samples at or below
    it, in percent, so the rule reads the same for any sample count.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(
            f"need more than {TAIL_BEYOND} samples for a tail, got {n}"
        )
    k = n - TAIL_BEYOND - 1
    return 100.0 * (k + 1) / n, ordered[k], n


def fit_exponent(xs, ys) -> float:
    """Least-squares slope of ``log(y)`` against ``log(x)``."""
    if len(xs) != len(ys) or len(xs) < 2:
        raise ValueError("need at least two (x, y) points of equal count")
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    mx = statistics.fmean(lx)
    my = statistics.fmean(ly)
    sxx = sum((a - mx) ** 2 for a in lx)
    if sxx == 0:
        raise ValueError("x values must not all be equal")
    return sum((a - mx) * (b - my) for a, b in zip(lx, ly)) / sxx


def scaling_exponent(samples) -> float:
    """Fitted exponent of median op time against size.

    ``samples`` maps a size (the cell count ``M``) to its op times.
    """
    sizes = sorted(samples)
    return fit_exponent(
        sizes, [statistics.median(samples[m]) for m in sizes]
    )


def peak_rss_mb(usage=resource.getrusage) -> float:
    """Peak RSS of this process or its largest waited-for child, in MiB.

    Linux reports ``ru_maxrss`` in KiB.
    """
    own = usage(resource.RUSAGE_SELF).ru_maxrss
    children = usage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def digest_bytes(data: str | bytes) -> str:
    """16-hex SHA-256 of a text or byte string."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()[:16]


def report_digest(doc: dict) -> str:
    """Digest of a report's simulated fields (host timings excluded)."""
    kept = {k: v for k, v in doc.items() if k not in HOST_FIELDS}
    return digest_bytes(json.dumps(kept, sort_keys=True))


def golden_mismatches(observed, golden) -> list[int]:
    """Positions where ``observed`` differs from ``golden``.

    A length difference counts every position past the shorter list.
    """
    n = max(len(observed), len(golden))
    return [
        i for i in range(n)
        if i >= len(observed) or i >= len(golden)
        or observed[i] != golden[i]
    ]


def self_times(events) -> dict[tuple[int, int], float]:
    """Self time of every span, keyed by ``(pid, span id)``.

    A span's self time is its duration minus the durations of its
    direct children.  Children nest inside their parent and siblings
    never overlap within one process, so this is exactly the part of
    the span no child covers.
    """
    spans = [e for e in events if e.get("ev") == "span"]
    out = {(e["pid"], e["id"]): e["dur"] for e in spans}
    for e in spans:
        parent = (e["pid"], e.get("parent"))
        if parent in out:
            out[parent] -= e["dur"]
    return out

