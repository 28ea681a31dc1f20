"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload train --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer breakdown; the last line of standard
output is always one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Exits 2 without a result when the checkout
holds no program to measure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train", "serve_batch", "serve_interactive")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from runner import run
    return run(args.workload, args.seed, args.seconds, bool(args.trace),
               ROOT)


if __name__ == "__main__":
    sys.exit(main())
