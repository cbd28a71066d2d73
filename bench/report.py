"""Summarize the result files in bench/results: per workload, the median and
quartiles of every end-to-end metric over the untraced runs, scaled and as
the wall clock read them, and the tracing overhead (the traced runs' median
op time over the untraced runs').

    python3 bench/report.py
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

RESULTS = Path(__file__).resolve().parent / "results"


def main() -> None:
    runs = defaultdict(list)
    for path in sorted(RESULTS.glob("*-trace[01].json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        runs[record["workload"], record["trace"]].append(record)
    for (workload, trace), records in sorted(runs.items()):
        if trace:
            continue
        seeds = sorted(r["seed"] for r in records)
        print(f"{workload}: {len(records)} untraced runs, seeds {seeds}")
        for kind in ("end_to_end", "wall_clock"):
            print(f"  {kind}:")
            for name in records[0][kind]:
                values = [r[kind][name] for r in records]
                q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
                print(f"    {name:14s} median {med:11.5g}  quartiles {q1:.5g} .. {q3:.5g}"
                      f"  spread {(q3 - q1) / med:.3f}")
        traced = runs.get((workload, True), [])
        if traced:
            base = statistics.median(r["end_to_end"]["op_ms_p50"] for r in records)
            slow = statistics.median(r["end_to_end"]["op_ms_p50"] for r in traced)
            print(f"  tracing overhead on op_ms_p50: {slow / base - 1:+.1%} "
                  f"({len(traced)} traced runs)")
    if runs:
        print("machine:", json.dumps(next(iter(runs.values()))[0]["machine"]))


if __name__ == "__main__":
    main()
