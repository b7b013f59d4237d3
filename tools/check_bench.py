#!/usr/bin/env python3
"""Bench-regression guard: evaluates each artifact's gate rows (the CI bench jobs).

Every ``BENCH_*.json`` artifact is declared by a spec in
``src/repro/bench/`` (listed in ``repro.bench.registry``), and the spec
owns the floors CI holds the artifact to, as rows beside the code that
writes the gated fields.  This tool is the front-end: one option per gated
artifact naming a report, rows evaluated, failures printed.  It has no
per-artifact code and no threshold options — a floor changes where it is
declared.

A row is ``Gate(path, op, floor)``:

* ``path`` is a dotted JSON path into the report.  ``name[*]`` fans out
  over a list or dict; ``name[key=v]`` / ``name[key>=v]`` select list rows
  by a numeric field, and selecting nothing is a failure (a row that
  checks nothing proved nothing);
* ``op`` is ``<=``, ``<``, ``>=``, ``>`` or ``contains`` (the value holds
  every element of the floor);
* ``floor`` is a constant.

An artifact held against its committed copy (``BENCH_ablation.json``:
retained contributions) declares ``compare(fresh, committed)``; its result
is gated under ``vs_baseline.``.  A failure names artifact, JSON path,
value and floor; on success every row that held is printed with the value
nearest its floor.

Usage (each option is optional; a report not named is not checked)::

    python tools/check_bench.py [--table1 BENCH_table1.fresh.json] \\
        [--sessions-fresh BENCH_sessions.fresh.json] \\
        [--incremental BENCH_incremental.json] \\
        [--obs BENCH_obs.fresh.json] \\
        [--ablation BENCH_ablation.fresh.json] [--ablation-baseline ...]

Exit code 0 = within budget; 1 = regression (report on stderr).
"""

from __future__ import annotations

import argparse
import json
import operator
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.bench.registry import ARTIFACTS  # noqa: E402

_OPS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge,
        ">": operator.gt}
_SEGMENT = re.compile(r"(\w+)(?:\[(\*|(\w+)(>=|=)([-+.\de]+))\])?$")


def resolve(doc, path: str) -> list[tuple[str, object]]:
    """Every ``(concrete path, value)`` that ``path`` names in ``doc``."""
    found = [("", doc)]
    for segment in re.split(r"\.(?![^\[]*\])", path):  # dots outside [...]
        name, selector, key, cmp, ref = _SEGMENT.match(segment).groups()
        step = []
        for prefix, node in found:
            here = f"{prefix}.{name}" if prefix else name
            if not isinstance(node, dict) or name not in node:
                raise LookupError(f"report has no {here}")
            child = node[name]
            if selector is None:
                step.append((here, child))
            elif selector == "*":
                items = (child.items() if isinstance(child, dict)
                         else enumerate(child))
                step += [(f"{here}[{k}]", v) for k, v in items]
            else:
                rows = [(f"{here}[{i}]", row) for i, row in enumerate(child)
                        if (abs(float(row[key]) - float(ref)) < 1e-9
                            if cmp == "=" else float(row[key]) >= float(ref))]
                if not rows:
                    raise LookupError(f"no {ref}-{key} row in {here}")
                step += rows
        found = step
    return found


def _fmt(value) -> str:
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def evaluate(spec, report: dict, committed: dict | None = None
             ) -> tuple[list[str], list[str]]:
    """``(failures, held)`` of ``report`` against ``spec``'s rows.

    ``committed`` is the artifact's committed copy; without it (or with
    one of the wrong schema) the ``vs_baseline.`` rows are not evaluated.
    ``held`` has one line per row that holds, with its worst value.
    """
    if report.get("schema") != spec.schema:
        return [f"{spec.name} schema mismatch: {report.get('schema')!r} "
                f"(expected {spec.schema!r})"], []
    failures: list[str] = []
    held: list[str] = []
    doc = report
    if committed is not None and spec.compare is not None:
        if committed.get("schema") != spec.schema:
            failures.append(
                f"{spec.name} baseline schema mismatch: "
                f"{committed.get('schema')!r} (expected {spec.schema!r})")
        else:
            doc = {**report, "vs_baseline": spec.compare(report, committed)}
    for gate in spec.gates:
        if gate.path.startswith("vs_baseline") and "vs_baseline" not in doc:
            continue
        floor = gate.floor
        try:
            values = resolve(doc, gate.path)
            if gate.op == "contains":
                bad = [f"{where} lacks {sorted(set(floor) - set(value))}"
                       for where, value in values
                       if not set(floor) <= set(value)]
                worst, floor = "all of", sorted(floor)
            else:
                bad = [f"{where} = {_fmt(value)}, floor {gate.op} "
                       f"{_fmt(floor)}" for where, value in values
                       if not _OPS[gate.op](value, floor)]
                # The value nearest its floor, among those the row reads.
                worst = _fmt((min if gate.op[0] == ">" else max)(
                    (value for _, value in values), default="no rows"))
        except (LookupError, TypeError, ValueError) as exc:
            bad = [f"{gate.path}: {exc}"]
        failures += [f"{spec.path}: {line}" for line in bad]
        if not bad:
            held.append(f"{spec.path}: {gate.path} {worst} "
                        f"({gate.op} {_fmt(floor)})")
    return failures, held


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    gated = [spec for spec in ARTIFACTS if spec.check_flag]
    for spec in gated:
        parser.add_argument(
            spec.check_flag, dest=spec.check_flag, metavar="REPORT",
            help=f"report to hold to the {spec.path} rows (fastbni "
                 f"{spec.name})")
        if spec.baseline_flag:
            parser.add_argument(
                spec.baseline_flag, dest=spec.baseline_flag,
                metavar="COMMITTED", default=str(REPO_ROOT / spec.path),
                help=f"committed {spec.path} the report is held against")
    paths = vars(parser.parse_args(argv))

    failures: list[str] = []
    held: list[str] = []
    for spec in gated:
        path = paths[spec.check_flag]
        if not path:
            continue
        report = json.loads(Path(path).read_text())
        committed = None
        if spec.baseline_flag:
            committed_path = Path(paths[spec.baseline_flag])
            if committed_path.exists():
                committed = json.loads(committed_path.read_text())
            else:
                failures.append(
                    f"no committed {spec.path} at {committed_path}")
        spec_failures, spec_held = evaluate(spec, report, committed)
        failures += spec_failures
        held += spec_held
    if failures:
        print(f"\nBENCH REGRESSION ({len(failures)} problem(s)):",
              file=sys.stderr)
        for failure in failures:
            print(f"- {failure}", file=sys.stderr)
        return 1
    print("bench ok:")
    for line in held:
        print(f"  {line}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
