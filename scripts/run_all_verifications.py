#!/usr/bin/env python3
"""Run every verification suite and print a one-line summary per suite.

Default scales finish in seconds; --full runs the acceptance scales.
On a 2-vCPU Xeon host with Python 3.11, whose speed switches between
two levels about 1.7x apart, the suites of --full took 3.1-3.9 s
together over nine runs (3.2-3.8 s wall for a whole run, six of them
timed): lemma67 0.9-1.2 s, prop610 1.2-1.6 s, thm65 0.4-0.5 s, and the
five combinatorial suites 0.47-0.64 s together in three runs (cor410
0.21-0.27 s; thm49, prop46, lemma48 and prop413 0.05-0.12 s each).
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
