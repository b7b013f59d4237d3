"""A/A check: the same checkout measured twice must agree with itself.

Runs every workload's end-to-end measurement twice, interleaved
(A1 B1 C1 D1 A2 B2 C2 D2) so that both rounds of a workload are minutes
apart, and prints per workload and metric how much worse the second
round is than the first against the metric's bound.  Exits non-zero if
any pair differs, in either direction, by more than its bound.
"""

from __future__ import annotations

import json
import subprocess
import sys

from config import BENCH, DEFAULT_SEED, OUT, ROOT, WORKLOADS


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as f:
        metrics = json.load(f)["end_to_end"]
    rounds: list[dict] = []
    for round_index in (1, 2):
        results = {}
        for name in WORKLOADS:
            done = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", name,
                 "--seed", str(DEFAULT_SEED), "--trace", "0",
                 "--out", str(OUT / f"aa-{round_index}-{name}.json")],
                cwd=ROOT, stdout=subprocess.PIPE, text=True)
            if done.returncode:
                sys.exit(f"{name} round {round_index} failed")
            results[name] = json.loads(done.stdout.splitlines()[-1])["metrics"]
            print(f"round {round_index} {name} done", file=sys.stderr)
        rounds.append(results)
    breaches = 0
    print(f"{'workload':<14}{'metric':<20}{'run 1':>12}{'run 2':>12}"
          f"{'2 vs 1':>9}  bound  verdict")
    for name in WORKLOADS:
        for metric in metrics:
            first, second = (r[name][metric["name"]]["value"] for r in rounds)
            diff = second / first - 1
            ok = abs(diff) <= metric["bound"]
            breaches += not ok
            print(f"{name:<14}{metric['name']:<20}{first:>12.5g}"
                  f"{second:>12.5g}{diff:>+9.2%}  {metric['bound']:>5.0%}  "
                  f"{'within' if ok else 'BREACH'}")
    return 1 if breaches else 0


if __name__ == "__main__":
    sys.exit(main())
