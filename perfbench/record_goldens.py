"""Record the golden outputs of the default seed into ``goldens.json``.

Run from the repository root, only when a change is meant to alter
simulated results::

    python3 perfbench/record_goldens.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402  (needs the source path above)


def main() -> None:
    out = HERE / "_out"
    goldens = {
        "simulate": workloads.Simulate(workloads.DEFAULT_SEED).record(),
        "sweep": workloads.Sweep(workloads.DEFAULT_SEED, out).record(),
    }
    workloads.GOLDENS.write_text(
        json.dumps(goldens, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"wrote {workloads.GOLDENS}")


if __name__ == "__main__":
    main()
