"""Benchmark entry point: run one workload, check its outputs, print metrics.

    python3 bench/run.py --workload train --seed 0 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  ``--workload all`` runs the three workloads in turn in one
process and prints one such line per workload, each with its name added.
Each run also writes ``bench/results/<workload>-seed<n>-trace<t>.json`` with
the machine's facts and the per-round figures; a traced run writes its spans
next to it.  The exit code is 0 when every check passed, 1 when one failed,
2 when the checkout has no package to run.
"""

from __future__ import annotations

import argparse
import json
import sys

import bootstrap

MAX_PRINTED = 20  # failed checks printed per workload; the result file keeps all


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["train", "generate", "gradcheck", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measure for this long; every round that starts is finished")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1: wrap the package's public functions and report per-layer metrics")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        bootstrap.prepare()
    except bootstrap.MissingPackage as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    import harness  # imports numpy and the package, so only after prepare()

    names = ["train", "generate", "gradcheck"] if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        result = harness.run(name, args.seed, args.seconds, bool(args.trace))
        problems = result["problems"]
        for problem in problems[:MAX_PRINTED]:
            print(f"bench: {name}: check failed: {problem}", file=sys.stderr)
        if len(problems) > MAX_PRINTED:
            print(f"bench: {name}: ... and {len(problems) - MAX_PRINTED} more failed checks",
                  file=sys.stderr)
        line = {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
        if args.workload == "all":
            line = {"workload": name, **line}
        print(json.dumps(line), flush=True)
        correct = correct and result["correct"]
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
