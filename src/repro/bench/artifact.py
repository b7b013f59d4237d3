"""One benchmark artifact = one spec.

An :class:`Artifact` states once what the rest of the repo needs to know
about a ``BENCH_*.json`` file: the CLI subcommand that writes it (name,
flags, the function behind them), how the report is rendered, its
``schema`` string, and the **gate rows** CI holds it to.  The spec lives
in the module that writes the gated fields, so a key cannot be renamed in
the generator without the row that reads it being in the same diff.
``repro.bench.registry`` lists the specs; ``fastbni`` registers their
subcommands from it and ``tools/check_bench.py`` evaluates their rows (the
path syntax of a row is documented there).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Flag:
    """One CLI option; its value reaches the command's function as
    keyword ``kwarg`` (default: the option's own name) after ``parse``."""

    name: str
    default: object
    help: str
    kwarg: str = ""
    parse: Callable | None = None
    nargs: str | None = None

    @property
    def dest(self) -> str:
        return self.name.lstrip("-").replace("-", "_")

    def add_to(self, parser) -> None:
        options: dict = {"default": self.default, "help": self.help}
        if self.nargs:
            options["nargs"] = self.nargs
        elif isinstance(self.default, bool):
            options = {"action": "store_true", "help": self.help}
        elif isinstance(self.default, (int, float)):
            options["type"] = type(self.default)
        parser.add_argument(self.name, **options)

    def value(self, args):
        raw = getattr(args, self.dest)
        return self.parse(raw) if self.parse else raw


def csv_of(kind: Callable) -> Callable[[str], tuple]:
    """``parse`` for comma-separated flags: ``"1,2"`` -> ``(1, 2)``."""
    return lambda raw: tuple(kind(part) for part in raw.split(","))


@dataclass(frozen=True)
class Command:
    """A bench subcommand that writes no gated artifact (``workload``)."""

    name: str
    help: str
    cli_flags: tuple[Flag, ...]
    main: Callable


@dataclass(frozen=True)
class Gate:
    """``report[path] op floor`` must hold; ``floor`` is a constant."""

    path: str
    op: str
    floor: object


@dataclass(frozen=True)
class Artifact:
    #: CLI subcommand; ``run(**flags)`` builds the report it prints
    #: (``render``) and writes to ``--out`` (default ``path``).
    name: str
    help: str
    path: str
    schema: object
    flags: tuple[Flag, ...]
    run: Callable[..., dict]
    render: Callable[[dict], str]
    gates: tuple[Gate, ...] = ()
    #: ``tools/check_bench.py`` option naming a report to gate and the
    #: option naming the committed copy; ``compare(fresh, committed)`` is
    #: gated under ``vs_baseline.``.
    check_flag: str = ""
    baseline_flag: str = ""
    compare: Callable[[dict, dict], dict] | None = None

    @property
    def cli_flags(self) -> tuple[Flag, ...]:
        return (*self.flags, Flag("--out", self.path,
                                  "output JSON path ('' to skip writing)"))

    def main(self, args) -> None:
        report = self.run(**{f.kwarg or f.dest: f.value(args)
                             for f in self.flags})
        print(self.render(report))
        if args.out:
            write_report(report, args.out)
            print(f"wrote {args.out}")


def write_report(report: dict, path: Path | str) -> Path:
    """Write ``report`` as a ``BENCH_*.json`` artifact."""
    path = Path(path)
    path.write_text(json.dumps(report, indent=2) + "\n")
    return path
