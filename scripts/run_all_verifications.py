#!/usr/bin/env python3
"""Run every verification suite and print a one-line summary per suite.

Default scales finish in seconds; --full runs the acceptance scales.
On a 2-vCPU Xeon host with Python 3.11, whose speed switches between
two levels about 1.7x apart, the suites of --full took 2.6-3.6 s
together over eight runs from a copy with no __pycache__ (2.7-3.7 s wall
for a whole run): lemma67 0.9-1.4 s, prop610 0.75-1.2 s, thm65
0.4-0.6 s, and the five combinatorial suites 0.43-0.54 s together
(cor410 0.18-0.24 s; thm49, prop46, lemma48 and prop413 0.05-0.10 s
each).
"""

import argparse
import sys

from lrcumulants.verify import ACCEPTANCE_SCALES, SUITES, run_suite


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true", help="acceptance scales")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    all_ok = True
    for name in SUITES:
        params = dict(ACCEPTANCE_SCALES[name]) if args.full else {}
        if "seed" in params:
            params["seed"] = args.seed
        result = run_suite(name, **params)
        all_ok &= result.passed
        status = "pass" if result.passed else "FAIL"
        print(
            f"{status}  {name:<8} instances={result.instances:>9}  "
            f"checks={len(result.checks):>4}  {result.elapsed:7.2f}s"
        )
        if not result.passed:
            for check in result.checks:
                if not check.ok:
                    print(f"      {check.name}: expected {check.expected}, got {check.actual}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
