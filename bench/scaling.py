"""Per-transfer cost of the market workload as the token count T grows.

    python3 bench/scaling.py [--seed 1]

Run from the root of a guardsim checkout. Generates the market workload with
only T changed (T = 100, 1000, 4000 at the benchmark's N and U), runs the
`sim run` / `sim replay` / `sim report` pipeline ``REPEATS`` times for each,
then ``REPEATS`` more times timing each transfer, and prints the median stage
times and transfer p50, one row per T, then the rows as one JSON line. These rows are informational and not gated: the target
is a per-transfer cost that stays flat as T grows.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

import run

TOKENS = (100, 1000, 4000)
REPEATS = 3


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="market scaling rows")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "guardsim" / "__init__.py").is_file():
        print(f"no guardsim sources under {src}; run from the root of a guardsim checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    run.WORK_DIR.mkdir(exist_ok=True)

    rows = []
    print(f"{'T':>5} {'N':>5} {'steps':>6} {'events':>7} {'run_s':>7} {'replay_s':>8} {'report_s':>8} {'transfer_p50_us':>15}")
    for tokens in TOKENS:
        size = dict(run.WORKLOADS["market"], tokens=tokens)
        bench = run.Bench("market", args.seed, size)
        bench.setup()
        samples = [bench.round() for _ in range(REPEATS)]
        transfer_ns: list[int] = []
        for _ in range(REPEATS):
            bench.round(transfer_ns)
        steps = bench.workload.expected.steps
        events = samples[0]["events"]
        row = {
            "T": tokens,
            "N": size["rounds"],
            "steps": steps,
            "events": events,
            "run_s": statistics.median(steps / s["run.steps_per_s"] for s in samples),
            "replay_s": statistics.median(events / s["replay.events_per_s"] for s in samples),
            "report_s": statistics.median(events / s["report.events_per_s"] for s in samples),
            "transfer_p50_us": statistics.median(transfer_ns) / 1e3,
            "correct": bench.checks.failed == 0,
        }
        rows.append(row)
        print(
            f"{tokens:>5} {row['N']:>5} {steps:>6} {events:>7} {row['run_s']:>7.3f} {row['replay_s']:>8.3f}"
            f" {row['report_s']:>8.3f} {row['transfer_p50_us']:>15.1f}"
        )
    print(json.dumps({"meta": run.metadata(), "scaling": rows}))
    return 0 if all(row["correct"] for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
