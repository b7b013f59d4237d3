"""Workload inputs, generated from ``--seed`` and nothing else.

An *op* is a plain JSON-ready dict.  Library ops carry what the worker
passes to the engine (``evidence`` or ``cases``); server ops carry the
``request`` sent on the wire plus, for the oracle, the full ``evidence``
and ``targets`` in force once the request has been applied.

Evidence is always a subset of one forward sample of the network, so it
is consistent and has non-zero probability: no op can fail by design.
"""

from __future__ import annotations

import hashlib
import json
import zlib
from dataclasses import dataclass

import numpy as np

from config import (BATCH_CASES, OBSERVED_FRACTION, SESSION_TARGETS,
                    SESSION_UPDATES, SESSION_WINDOW, Workload)
from repro import generate_test_cases, load_network
from repro.bn.sampling import forward_sample_many
#: The delta tier's LRU depth and the overlap at which it accepts a case
#: (the server's ``--cache-states`` / ``--cache-min-overlap`` defaults).
from repro.service.cache import DEFAULT_MAX_STATES as CACHE_STATES
from repro.service.cache import DEFAULT_MIN_OVERLAP as CACHE_MIN_OVERLAP

#: Placeholder the client replaces with the id ``session_open`` returned.
SESSION_TOKEN = "@SESSION@"


@dataclass(frozen=True)
class Inputs:
    #: The distinct op lists of the run.
    lists: list
    #: Indices into ``lists``: run once untimed, then one per timed pass.
    warmup: list
    passes: list
    #: Passes replaying the same list are replicas of each other.  When no
    #: list repeats (``serve_cold``) every pass is its own list and passes
    #: are replicas only statistically: same op count, same evidence size.
    replicated: bool
    sha256: str

    def group(self, index: int) -> int:
        """Passes of one group are compared with each other."""
        return self.passes[index] if self.replicated else 0


def build(workload: Workload, seed: int, passes: int, ops_per_pass: int) -> Inputs:
    rng = np.random.default_rng([seed, zlib.crc32(workload.name.encode())])
    net = load_network(workload.network)
    if not workload.lists:
        lists = _chunks(_cold_queries(net, workload.network, rng,
                                      (passes + 1) * ops_per_pass),
                        ops_per_pass)
        return Inputs(lists, [0], list(range(1, passes + 1)), False,
                      _digest(lists))
    count = min(workload.lists, passes)
    if workload.name == "lib_single":
        ops = [{"evidence": case.evidence} for case in generate_test_cases(
            net, count * ops_per_pass, OBSERVED_FRACTION, rng)]
    elif workload.name == "lib_batch":
        cases = [case.evidence for case in generate_test_cases(
            net, count * ops_per_pass * BATCH_CASES, OBSERVED_FRACTION, rng)]
        ops = [{"cases": batch} for batch in _chunks(cases, BATCH_CASES)]
    else:
        ops = _session_script(net, workload.network, rng,
                              count * ops_per_pass // (SESSION_UPDATES + 2))
    lists = _chunks(ops, ops_per_pass)
    return Inputs(lists, list(range(count)),
                  [p % count for p in range(passes)], True, _digest(lists))


def _chunks(items: list, size: int) -> list:
    return [items[i:i + size] for i in range(0, len(items), size)]


def _digest(op_lists: list) -> str:
    blob = json.dumps(op_lists, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _overlap(a: dict, b: dict) -> tuple[float, float]:
    """(variable, finding) overlap as shares of the larger evidence set."""
    larger = max(len(a), len(b))
    return (len(a.keys() & b.keys()) / larger,
            len(a.items() & b.items()) / larger)


def _cold_queries(net, network: str, rng, count: int) -> list:
    """``count`` distinct evidence sets that the delta tier must decline.

    Two random 11-of-56 evidence sets share half their variables 0.4% of
    the time, which would send ~3% of ops down the delta path.  This walks
    the cache's base-state LRU as the server will (best state by variable
    then finding overlap, latest wins ties; a declined lookup refreshes the
    state it considered; every cold result seeds a new state) and drops the
    candidates it would accept.  The run checks the outcome on the server:
    every reply must say ``served_by: batch``.
    """
    chosen: list[dict] = []
    seen: set = set()
    states: list[dict] = []
    while len(chosen) < count:
        for case in generate_test_cases(net, count, OBSERVED_FRACTION, rng):
            evidence = case.evidence
            key = tuple(sorted(evidence.items()))
            if key in seen:
                continue
            best, best_score = None, (-1.0, -1.0)
            for i, state in enumerate(states):
                score = _overlap(state, evidence)
                if score >= best_score:
                    best, best_score = i, score
            if best_score[0] >= CACHE_MIN_OVERLAP:
                continue
            if best is not None:
                states.append(states.pop(best))
            states.append(evidence)
            del states[:-CACHE_STATES]
            seen.add(key)
            chosen.append(evidence)
            if len(chosen) == count:
                break
    return [{"request": {"op": "query", "network": network,
                         "evidence": evidence},
             "evidence": evidence, "targets": []}
            for evidence in chosen]


def _session_script(net, network: str, rng, sessions: int) -> list:
    """Per session: open, add one finding per update (retracting the oldest
    beyond the window) and read three targets in the same round trip, close.

    The seed draws the findings.  Which variables a session walks and reads
    is drawn from a fixed stream instead: a delta's cost is the distance in
    the tree between what changed and what is read, and with ten sessions
    per seed that made one seed up to 25% dearer than another (median
    update 1.12 to 1.40 ms over ten seeds), swamping any change in the code.
    """
    names = list(net.variable_names)
    shape = np.random.default_rng(zlib.crc32(b"serve_session shape"))
    ops = []
    for sample in forward_sample_many(net, sessions, rng):
        order = [names[i] for i in shape.permutation(len(names))]
        observed = order[:SESSION_UPDATES]
        targets = order[SESSION_UPDATES:SESSION_UPDATES + SESSION_TARGETS]
        ops.append({"request": {"op": "session_open", "network": network}})
        for i, name in enumerate(observed):
            request = {"op": "session_update", "session": SESSION_TOKEN,
                       "evidence": {name: sample[name]}, "targets": targets}
            if i >= SESSION_WINDOW:
                request["retract"] = [observed[i - SESSION_WINDOW]]
            window = observed[max(0, i - SESSION_WINDOW + 1):i + 1]
            ops.append({"request": request, "targets": targets,
                        "evidence": {n: sample[n] for n in window}})
        ops.append({"request": {"op": "session_close",
                                "session": SESSION_TOKEN}})
    return ops
