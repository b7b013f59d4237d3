"""Set two sets of results side by side: ``compare.py A.json B.json``.

Each side is one result file of ``run.py`` or several joined by commas
(``a1.json,a2.json``); with several, each metric's median over the files is
compared.  Refuses to compare results whose machine fingerprints or input
hashes differ.  Prints, per workload and end-to-end metric, both values, the
ratio B/A (A is the base) and whether B is within the metric's bound of A,
worse, or better.  Exits non-zero when any metric is worse.
"""

from __future__ import annotations

import json
import statistics
import sys

from config import COMPARABLE, ROOT


def load(side: str) -> list[dict]:
    results = []
    for path in side.split(","):
        with open(path) as f:
            results.append(json.load(f))
    return results


def verdict(base: float, change: float, better: str, bound: float) -> str:
    """``change`` against ``base``: worse/better only beyond the bound."""
    gain = (change / base - 1) * (1 if better == "higher" else -1)
    return "worse" if gain < -bound else "better" if gain > bound else "within"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__)
    base, change = load(argv[0]), load(argv[1])
    reference = base[0]
    for result in base + change:
        for key in COMPARABLE:
            if result["fingerprint"][key] != reference["fingerprint"][key]:
                sys.exit(f"refusing to compare: {key} differs "
                         f"({reference['fingerprint'][key]!r} vs "
                         f"{result['fingerprint'][key]!r})")
        for name, record in result["workloads"].items():
            mine = reference["workloads"].get(name)
            if mine and mine["inputs_sha256"] != record["inputs_sha256"]:
                sys.exit(f"refusing to compare: {name} ran different inputs "
                         f"(another --seed, --seconds, --trace or --smoke)")
    with open(ROOT / "BENCHMARK.json") as f:
        metrics = json.load(f)["end_to_end"]
    worse = 0
    print(f"{'workload':<14}{'metric':<20}{'A':>12}{'B':>12}{'B/A':>8}  "
          f"bound  verdict")
    for name in reference["workloads"]:
        for metric in metrics:
            sides = [[r["workloads"][name]["end_to_end"][metric["name"]]
                      for r in side
                      if "end_to_end" in r["workloads"].get(name, {})]
                     for side in (base, change)]
            if not all(sides):
                continue
            a, b = (statistics.median(values) for values in sides)
            outcome = verdict(a, b, metric["better"], metric["bound"])
            worse += outcome == "worse"
            print(f"{name:<14}{metric['name']:<20}{a:>12.5g}{b:>12.5g}"
                  f"{b / a:>8.3f}  {metric['bound']:>5.0%}  {outcome}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
