"""NetKernel datapath benchmark: one workload, one run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload echo_64b --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
breakdown.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds the run's details (fingerprint, held-out seed result,
sample counts, failed checks).  The program is imported from ``src/`` of
the checkout this file sits in; without it the run exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")


def _import_program() -> bool:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program sources at {src}", file=sys.stderr)
        return False
    sys.path[:0] = [src, ROOT]
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not from "
              f"{src}", file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0],
                                     allow_abbrev=False)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not _import_program():
        return 2
    from perfbench import harness
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]()
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.trace:
        spans = os.path.join(OUT_DIR, f"spans_{wl.name}_{args.seed}.json")
        result, detail = harness.run_traced(wl, args.seed, args.seconds,
                                            spans_path=spans)
    else:
        store = harness.FingerprintStore(
            os.path.join(OUT_DIR, "fingerprints.json"),
            harness.code_digest(ROOT))
        result, detail = harness.run_untraced(wl, args.seed, args.seconds,
                                              store=store)
    for failure in detail["failures"]:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    if detail.get("under_attributed"):
        print(f"perfbench: under-attributed trace: {detail['other_share']:.0%}"
              f" of traced time fell in no layer", file=sys.stderr)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
