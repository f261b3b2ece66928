"""The repository benchmark: ``decide``, ``simulate`` and ``sweep``.

Usage, from the repository root::

    python3 perfbench/run.py --workload decide --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``; the lines
before it are a readable table.  See ``perfbench/README.md`` for what
each workload and metric means.

The parent process imports nothing from the program.  It runs each
set-up in a fresh interpreter (so import and input generation are timed
cold, several times) and then one workload process that sets up once
more and measures; that process's own and its children's peak RSS is
the workload's memory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from benchlib import (
    peak_rss_mb,
    scaling_exponent,
    self_times,
    tail_percentile,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "_out"

#: Fresh-interpreter set-ups per run, besides the workload process's own.
SETUP_REPEATS = 4
#: A run, all its processes included, ends within this many seconds.
DEADLINE_S = 175


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument(
        "--workload", required=True, choices=("decide", "simulate", "sweep")
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--child", choices=("setup", "run"), help=argparse.SUPPRESS
    )
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


# -- the workload process ----------------------------------------------------


def _run_rounds(wl, *, seconds=None, count=None, min_rounds=1):
    """``count`` rounds, or whole rounds until ``seconds`` have passed
    and at least ``min_rounds`` have run."""
    rounds = []
    t0 = time.perf_counter()
    while (
        len(rounds) < count if count is not None
        else len(rounds) < min_rounds
        or time.perf_counter() - t0 < seconds
    ):
        rounds.append(wl.run_round(len(rounds)))
    return rounds


def _totals(rounds) -> dict:
    def total(field):
        return sum(getattr(r, field) for r in rounds)

    return {
        "attempted": total("attempted"),
        "failed": total("failed"),
        "wall": total("wall"),
        "hops": total("hops"),
        "offered": total("offered"),
        "delivered": total("delivered"),
        "records": total("records"),
    }


def _hops_per_s(rounds) -> float:
    tot = _totals(rounds)
    return tot["hops"] / tot["wall"]


def _decide_exponent(rounds):
    times: dict[int, list] = {}
    for r in rounds:
        for size, ts in r.decide_times.items():
            times.setdefault(size, []).extend(ts)
    return scaling_exponent(times) if len(times) > 1 else None


def _end_to_end(rounds, setup_s) -> dict:
    latencies = [x for r in rounds for x in r.latencies]
    pct, tail, count = tail_percentile(latencies)
    tot = _totals(rounds)
    return {
        "metrics": {
            "setup_s": setup_s,
            "ops_per_s": len(latencies) / tot["wall"],
            "op_p50_ms": statistics.median(latencies) * 1e3,
            "op_tail_ms": tail * 1e3,
            "peak_rss_mb": peak_rss_mb(),
        },
        "extra": {
            "tail_percentile": pct,
            "latency_samples": count,
            "rounds": len(rounds),
            "error_rate": tot["failed"] / tot["attempted"],
            "hops_per_s": _hops_per_s(rounds) if tot["hops"] else None,
            "decide_exponent": _decide_exponent(rounds),
        },
        "attempted": tot["attempted"],
        "failed": tot["failed"],
    }


def _traced(wl_name, seed, seconds) -> dict:
    """The traced run: per-layer metrics plus the tracing overhead.

    Set-up is traced (network building happens there).  The loop first
    runs untraced for half the time, then traced for the same rounds;
    traced wall over untraced wall, minus one, is the overhead.
    """
    import layers
    import workloads
    from repro.obs import trace as obs
    from repro.obs.metrics import metrics

    tracer = obs.Tracer()
    metrics().reset()
    with layers.installed(), obs.tracing(tracer):
        with obs.span("bench.setup") as sp_setup:
            wl = workloads.setup(wl_name, seed, OUT)
    plain = _run_rounds(wl, seconds=seconds / 2)
    with layers.installed(), obs.tracing(tracer):
        with obs.span("bench.loop") as sp_loop:
            traced = _run_rounds(wl, count=len(plain))
    tot = _totals(traced)
    plain_tot = _totals(plain)
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"{wl_name}-seed{seed}.trace.jsonl"
    obs.write_trace(trace_path, tracer.events)
    passes = {
        "hops": tot["hops"],
        "offered": tot["offered"],
        "delivered": tot["delivered"],
        "records": tot["records"],
        "store_bytes": (
            statistics.median(r.store_bytes for r in traced)
        ),
        "affine_ratio": (
            layers.affine_ratio(wl.cases()) if wl_name == "decide" else 0.0
        ),
        "trace_overhead": tot["wall"] / plain_tot["wall"] - 1.0,
        "decide_exponent": _decide_exponent(plain) or 0.0,
        "hops_per_s": _hops_per_s(plain) if plain_tot["hops"] else 0.0,
    }
    wall = sp_setup.dur + sp_loop.dur
    accounted = sum(
        seconds for (pid, _), seconds in self_times(tracer.events).items()
        if pid == os.getpid()
    )
    return {
        "metrics": layers.layer_metrics(
            tracer.events, metrics().snapshot(), wall, passes
        ),
        "extra": {
            "traced_wall_s": wall,
            "accounted_s": accounted,
            "trace_file": str(trace_path),
        },
        "attempted": tot["attempted"] + plain_tot["attempted"],
        "failed": tot["failed"] + plain_tot["failed"],
    }


def child_main(args) -> int:
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    if args.child == "setup":
        import workloads

        workloads.setup(args.workload, args.seed, OUT)
        print(json.dumps({"setup_s": time.perf_counter() - t0}))
        return 0
    if args.trace:
        result = _traced(args.workload, args.seed, args.seconds)
    else:
        import workloads

        wl = workloads.setup(args.workload, args.seed, OUT)
        setup_s = time.perf_counter() - t0
        rounds = _run_rounds(
            wl, seconds=args.seconds, min_rounds=wl.min_rounds
        )
        result = _end_to_end(rounds, setup_s)
    print(json.dumps(result))
    return 0


# -- the parent process -----------------------------------------------------


def _child(args, mode: str, deadline: float) -> dict:
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--child", mode, "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, check=False, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def declared_metrics() -> dict[str, dict[str, str]]:
    """``{"end_to_end"|"per_layer": {name: unit}}`` from BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {
        kind: {m["name"]: m["unit"] for m in doc[kind]}
        for kind in ("end_to_end", "per_layer")
    }


def _table(args, result, units, setups) -> str:
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}"]
    extra = result["extra"]
    for name, value in result["metrics"].items():
        lines.append(f"  {name:<46} {value:>16.6g} {units[name]}")
    if args.trace:
        lines.append(
            f"  layer self times in the benchmark process sum to "
            f"{extra['accounted_s']:.3f} s of {extra['traced_wall_s']:.3f} s "
            f"traced wall; spans in {extra['trace_file']}"
        )
    else:
        lines.append(
            f"  op_tail_ms is p{extra['tail_percentile']:.2f} of "
            f"{extra['latency_samples']} ops over {extra['rounds']} rounds"
        )
        lines.append(
            "  setup_s samples: " + " ".join(f"{s:.3f}" for s in setups)
        )
        for name, unit in (
            ("error_rate", "ratio"),
            ("hops_per_s", "1/s"),
            ("decide_exponent", "1"),
        ):
            value = extra[name]
            shown = "n/a" if value is None else f"{value:.6g}"
            lines.append(f"  {name:<46} {shown:>16} {unit}")
    lines.append(
        f"  attempted {result['attempted']}  failed {result['failed']}"
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    args = _args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC}", file=sys.stderr)
        return 2
    if args.child:
        return child_main(args)
    deadline = time.monotonic() + DEADLINE_S
    units = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    setups = []
    if not args.trace:
        setups = [
            _child(args, "setup", deadline)["setup_s"]
            for _ in range(SETUP_REPEATS)
        ]
    result = _child(args, "run", deadline)
    if not args.trace:
        setups.append(result["metrics"]["setup_s"])
        result["metrics"]["setup_s"] = statistics.median(setups)
    if set(result["metrics"]) != set(units):
        missing = sorted(set(units) ^ set(result["metrics"]))
        print(f"perfbench: undeclared or missing metrics {missing}",
              file=sys.stderr)
        return 1
    print(_table(args, result, units, setups))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result["metrics"].items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
