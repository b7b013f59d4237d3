"""Every artifact spec and bench command, in ``fastbni --help`` order.

Adding a benchmark is one module with a ``SPEC`` and its line here: the
CLI subcommand, the ``tools/check_bench.py`` option and the gate all
follow from the spec.  Imported the first time a bench subcommand is
named — never by ``fastbni serve``.
"""

from repro.bench import (ablation_matrix, frontier, obs, overlap, table1,
                         traffic)

ARTIFACTS = (table1.SPEC, overlap.INCREMENTAL, obs.SPEC,
             ablation_matrix.SPEC, frontier.SPEC)
COMMANDS = (*ARTIFACTS, traffic.WORKLOAD)
