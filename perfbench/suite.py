"""Run every workload once untraced and once traced; fail on any check.

    python3 perfbench/suite.py [--seconds 5] [--seed 0]

This is the benchmark's self-test. It prints every metric by name with its
unit, and exits nonzero when a run fails, when any output check fails (the
traced iterations must also write byte-identical outputs to the untraced
ones, and every per-layer metric must see calls on the workload meant to
exercise it), or when a run reports other metrics than BENCHMARK.json names.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            done = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, check=False,
            )
            lines = done.stdout.strip().splitlines()
            if done.returncode != 0 or not lines:
                failures.append(f"{label}: exited {done.returncode}: {done.stderr.strip()[-500:]}")
                continue
            result = json.loads(lines[-1])
            print("\n".join(lines[:-1]))
            for name, metric in sorted(result["metrics"].items()):
                print(f"{label}: {name} = {metric['value']} {metric['unit']}")
            reported = {name: m["unit"] for name, m in result["metrics"].items()}
            if reported != declared[trace]:
                failures.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(reported.items()) ^ set(declared[trace].items()))[:6]}")
            if not result["correct"] or result["failed"]:
                failures.append(f"{label}: {result['failed']} of {result['attempted']} operations "
                                f"failed: {done.stderr.strip()[-1500:]}")
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"suite: {len(failures)} failure(s)" if failures else "suite: passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
