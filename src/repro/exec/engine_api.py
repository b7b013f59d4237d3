"""The engine protocol: what every inference engine looks like from above.

The service layer (registry, micro-batcher, server) and the planner used
to branch on ``engine_kind`` strings to decide how to validate, batch and
describe each engine.  That knowledge belongs to the engines: every engine
now carries an :class:`EngineCapabilities` record, and callers dispatch on
its flags — a new engine class plugs in by declaring what it can do, not
by teaching every caller a new string.

:class:`InferenceEngine` is the structural protocol the engines satisfy
(``isinstance`` works at runtime); it is intentionally dependency-free so
any layer can import it without dragging in an engine implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable


@dataclass(frozen=True)
class EngineCapabilities:
    """What one engine class can do, as flags the serving layers dispatch on.

    ``kind`` is the wire label (``"exact"``/``"approx"``) clients see in
    responses and registry keys; every behavioural decision uses the
    boolean flags instead.
    """

    #: Wire/registry label for this engine class.
    kind: str
    #: Posteriors are exact (suitable for 1e-12 pins and MPE).
    exact: bool
    #: Soft-evidence cases may join a vectorised ``infer_cases`` flush
    #: (otherwise the batcher detours them to the per-case path).
    batched_soft_evidence: bool
    #: A junction tree is compiled, so MPE queries can be served.
    supports_mpe: bool


#: Capability records of the built-in engine classes.  The planner maps
#: its routing decision through this table so downstream layers receive
#: flags, never bare strings.
EXACT_ENGINE = EngineCapabilities(
    kind="exact", exact=True, batched_soft_evidence=False, supports_mpe=True)
APPROX_ENGINE = EngineCapabilities(
    kind="approx", exact=False, batched_soft_evidence=True, supports_mpe=False)
INCREMENTAL_ENGINE = EngineCapabilities(
    kind="exact", exact=True, batched_soft_evidence=False, supports_mpe=False)

CAPABILITIES_BY_KIND = {"exact": EXACT_ENGINE, "approx": APPROX_ENGINE}


@runtime_checkable
class InferenceEngine(Protocol):
    """The calling convention shared by every inference engine.

    Engines are constructed from a network (plus engine-specific options)
    and then answer queries through this surface.  ``capabilities`` is a
    class-level :class:`EngineCapabilities`; ``validate_case`` checks one
    request's evidence without running it (the service validates at submit
    time so a malformed request can never poison a batch it would have
    joined).
    """

    capabilities: EngineCapabilities

    @property
    def name(self) -> str: ...

    def infer(self, evidence=None, targets=(), **kwargs): ...

    def infer_batch(self, cases, targets=()): ...

    def posteriors(self, targets=(), evidence=None): ...

    def validate_case(self, evidence=None, soft_evidence=None): ...

    def stats(self) -> dict: ...

    def close(self) -> None: ...
