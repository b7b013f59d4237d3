"""``ApproxBNI``: the approximate-inference engine behind the planner.

Exposes the same ``infer`` / ``infer_batch`` / ``infer_cases`` /
``posteriors`` surface as :class:`repro.core.FastBNI` so the service
registry, micro-batcher and CLI can swap it in wherever exact junction-tree
compilation is not affordable — but every answer carries its uncertainty:
per-state standard errors and the effective sample size.  The sampler is
batched likelihood weighting (:mod:`repro.approx.lw`), which shares one
particle population across coalesced cases and estimates ``log P(e)``.

Sample counts adapt per query: the engine starts at ``num_samples``
particles and doubles the population (merging accumulators, never
discarding draws) until the worst per-state standard error over the
requested targets drops below ``tolerance`` or ``max_samples`` is reached.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.approx.lw import LWAccumulator, sample_population
from repro.bn.network import BayesianNetwork
from repro.errors import BackendError, EvidenceError
from repro.exec.engine_api import APPROX_ENGINE
from repro.jt.engine import InferenceResult
from repro.utils.rng import as_rng

#: Default escalation ceiling; callers passing a larger starting
#: ``num_samples`` should raise ``max_samples`` with it (the CLI does).
DEFAULT_MAX_SAMPLES = 131072


@dataclass
class ApproxInferenceResult(InferenceResult):
    """An :class:`InferenceResult` that also reports its own uncertainty."""

    #: Per target: ``(card,)`` standard error of each posterior entry.
    stderr: dict[str, np.ndarray] = field(default_factory=dict)
    #: Kish effective sample size of the estimate.
    ess: float = 0.0
    #: Particles drawn.
    num_samples: int = 0
    #: Sampler that produced the answer (likelihood weighting).
    method: str = "lw"

    def max_stderr(self) -> float:
        vals = [float(se.max()) for se in self.stderr.values() if se.size]
        return max(vals) if vals else 0.0


@dataclass
class ApproxBatchResult:
    """Batch container matching ``BatchInferenceResult``'s iteration API."""

    results: "list[ApproxInferenceResult]"

    def __len__(self) -> int:
        return len(self.results)

    def case(self, i: int) -> ApproxInferenceResult:
        if not 0 <= i < len(self.results):
            raise IndexError(f"case {i} out of range (batch of {len(self.results)})")
        return self.results[i]

    def __iter__(self):
        return iter(self.results)


def check_net_evidence(net: BayesianNetwork,
                       evidence: dict[str, str | int] | None) -> dict[str, int]:
    """Validate evidence names/states against a network (no tree needed)."""
    out: dict[str, int] = {}
    for name, state in (evidence or {}).items():
        if name not in net:
            raise EvidenceError(f"evidence variable {name!r} not in network")
        out[name] = net.variable(name).state_index(state)
    return out


def check_net_soft_evidence(net: BayesianNetwork,
                            soft: dict | None) -> dict[str, np.ndarray]:
    """Validate likelihood vectors against a network (no tree needed)."""
    out: dict[str, np.ndarray] = {}
    for name, vec in (soft or {}).items():
        if name not in net:
            raise EvidenceError(f"soft-evidence variable {name!r} not in network")
        var = net.variable(name)
        arr = np.asarray(vec, dtype=np.float64)
        if arr.shape != (var.cardinality,):
            raise EvidenceError(
                f"likelihood for {name!r} has shape {arr.shape}, expected "
                f"({var.cardinality},)"
            )
        if np.any(arr < 0) or not np.all(np.isfinite(arr)):
            raise EvidenceError(f"likelihood for {name!r} must be non-negative/finite")
        if arr.sum() <= 0.0:
            raise EvidenceError(f"likelihood for {name!r} is identically zero")
        out[name] = arr
    return out


class ApproxBNI:
    """Adaptive sampling engine with the exact engines' calling convention.

    Every call runs batched likelihood weighting, which vectorises across
    coalesced cases.

    Parameters
    ----------
    num_samples / max_samples:
        Starting and maximum population size of the doubling schedule.
    tolerance:
        Target worst-case per-state standard error; escalation stops once
        every requested posterior entry is below it.
    seed:
        Int, ``None`` or a ``numpy.random.Generator``; int seeds make every
        :meth:`infer` call reproducible in isolation.
    """

    #: Capability flags the service layers dispatch on.
    capabilities = APPROX_ENGINE
    name = "approxbni-lw"

    def __init__(self, net: BayesianNetwork, num_samples: int = 1024,
                 max_samples: int = DEFAULT_MAX_SAMPLES,
                 tolerance: float = 0.01,
                 seed: "int | None | np.random.Generator" = 0) -> None:
        if num_samples < 1 or max_samples < num_samples:
            raise BackendError(
                f"need 1 <= num_samples <= max_samples, got "
                f"{num_samples} and {max_samples}"
            )
        if tolerance <= 0.0:
            raise BackendError(f"tolerance must be positive, got {tolerance}")
        net.validate()
        self.net = net
        self.num_samples = num_samples
        self.max_samples = max_samples
        self.tolerance = tolerance
        self.seed = seed
        #: Instrumentation for the last call (escalation rounds, samples).
        self.metrics: dict[str, int] = {}

    # ------------------------------------------------------------- validation
    def validate_case(self, evidence: dict | None = None,
                      soft_evidence: dict | None = None) -> None:
        """Check one request's evidence without sampling (protocol hook)."""
        check_net_evidence(self.net, evidence)
        if soft_evidence:
            check_net_soft_evidence(self.net, soft_evidence)

    # --------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Nothing to release (no pools, no shared memory); kept for symmetry."""

    def __enter__(self) -> "ApproxBNI":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ---------------------------------------------------------------- running
    def infer(
        self,
        evidence: dict[str, str | int] | None = None,
        targets: tuple[str, ...] = (),
        soft_evidence: dict | None = None,
    ) -> ApproxInferenceResult:
        """One approximate inference pass with adaptive escalation.

        ``evidence`` maps variable names to state labels/indices (hard
        observations); ``soft_evidence`` maps them to likelihood vectors
        (one non-negative weight per state).  The population doubles until
        the worst per-state standard error of the requested ``targets``
        drops below ``tolerance`` or ``max_samples`` is reached.  Raises
        :class:`~repro.errors.EvidenceError` for unknown names/states,
        malformed likelihood vectors, or evidence that kills every
        particle weight; :class:`~repro.errors.QueryError` for unknown
        targets.
        """
        return self.infer_cases(
            [evidence or {}], targets=targets,
            soft_cases=[soft_evidence],
        ).case(0)

    def infer_batch(
        self,
        cases,
        case_workers: int = 1,
        targets: tuple[str, ...] = (),
        vectorized: bool = True,
    ) -> "list[ApproxInferenceResult]":
        """Run a batch of test cases (``TestCase`` or evidence dicts).

        All cases share one particle population in a single vectorised
        pass (``case_workers`` is accepted for interface
        compatibility and ignored — there is no per-case loop to spread).
        """
        from repro.core.batch import case_evidence, case_soft_evidence

        cases = list(cases)
        if not cases:
            return []
        return list(self.infer_cases(
            [case_evidence(c) for c in cases], targets=targets,
            soft_cases=[case_soft_evidence(c) for c in cases],
        ))

    def infer_cases(
        self,
        cases: "list[dict]",
        targets: tuple[str, ...] = (),
        soft_cases: "list[dict | None] | None" = None,
    ) -> ApproxBatchResult:
        """Vectorised multi-case entry point (the micro-batcher's hook).

        All ``cases`` (evidence dicts, optionally paired with per-case
        ``soft_cases`` likelihood dicts) share **one** particle
        population per escalation round — common random numbers, one
        topological pass — so K coalesced cases cost far less than K
        :meth:`infer` calls.  Raises on an empty case list and propagates
        the same error classes as :meth:`infer`; an all-zero-weight case
        is retried with a doubled population before the whole flush
        fails.
        """
        if not cases:
            raise EvidenceError("infer_cases needs at least one case")
        hard = [check_net_evidence(self.net, c) for c in cases]
        soft = [check_net_soft_evidence(self.net, s) or None
                for s in (soft_cases or [None] * len(cases))]
        for ev, sv in zip(hard, soft):
            overlap = set(ev) & set(sv or {})
            if overlap:
                raise EvidenceError(
                    f"soft evidence overlaps hard evidence: {sorted(overlap)}"
                )
        for name in targets:
            if name not in self.net:
                raise EvidenceError(f"unknown target variable {name!r}")
        return self._infer_lw(hard, soft, targets)

    def posteriors(self, targets, evidence: dict | None = None
                   ) -> dict[str, np.ndarray]:
        """Baseline-engine-style accessor (matches the oracle samplers)."""
        return self.infer(evidence, targets=tuple(targets)).posteriors

    def posterior(self, target: str, evidence: dict | None = None) -> np.ndarray:
        """``P(target | evidence)`` as a probability vector (sampled)."""
        return self.posteriors((target,), evidence)[target]

    #: Doublings granted to an all-zero-weight case before giving up:
    #: truly impossible evidence never recovers, so once the live cases
    #: are satisfied the dead ones must not burn the rest of the budget
    #: (they will raise EvidenceError below regardless).
    DEAD_CASE_ROUNDS = 2

    # --------------------------------------------------------------------- LW
    def _infer_lw(self, hard, soft, targets) -> ApproxBatchResult:
        rng = as_rng(self.seed)
        names = tuple(targets) or self.net.variable_names
        total = self.num_samples
        acc = sample_population(self.net, total, hard, soft, rng, names)
        rounds = 1
        while total < self.max_samples:
            dead = bool(np.any(acc.total_w <= 0.0))
            worst = self._worst_se(acc, names)
            if worst <= self.tolerance and (
                    not dead or rounds >= self.DEAD_CASE_ROUNDS):
                break
            add = min(total, self.max_samples - total)
            acc.merge(sample_population(self.net, add, hard, soft, rng, names))
            total += add
            rounds += 1
        self.metrics = {"samples": total, "rounds": rounds}
        if np.any(acc.total_w <= 0.0):
            dead = [i for i, w in enumerate(acc.total_w) if w <= 0.0]
            raise EvidenceError(
                f"all particles have zero weight for case(s) {dead} "
                "(evidence has zero or vanishing probability)"
            )
        ess = acc.ess()
        log_ev = acc.log_evidence()
        # Batch arrays computed once, then row-indexed per case (stderr
        # internally recomputes the posterior, so hoisting both out of the
        # case loop avoids O(K²) work on the serving hot path).
        batch_post = {n: acc.posterior(n) for n in names}
        batch_se = {n: acc.stderr(n) for n in names}
        results = []
        for i in range(len(hard)):
            results.append(ApproxInferenceResult(
                posteriors={n: batch_post[n][i] for n in names},
                log_evidence=float(log_ev[i]),
                stderr={n: batch_se[n][i] for n in names},
                ess=float(ess[i]),
                num_samples=acc.num_samples,
                method="lw",
                meta={"rounds": float(rounds)},
            ))
        return ApproxBatchResult(results)

    @staticmethod
    def _worst_se(acc: LWAccumulator, names) -> float:
        """Worst finite SE (zero-weight cases report inf — handled apart)."""
        worst = 0.0
        for n in names:
            se = acc.stderr(n)
            finite = se[np.isfinite(se)]
            if finite.size:
                worst = max(worst, float(finite.max()))
        return worst

    # ------------------------------------------------------------------ stats
    def stats(self) -> dict[str, float]:
        """Engine configuration summary (the service ``info`` op body)."""
        return {
            "num_samples": float(self.num_samples),
            "max_samples": float(self.max_samples),
            "tolerance": self.tolerance,
            "variables": float(self.net.num_variables),
            "cpt_entries": float(self.net.total_cpt_entries()),
        }

    def estimate_resident_bytes(self) -> int:
        """Registry footprint: CPTs + one peak particle population.

        State columns are freed at their last use during a pass
        (:mod:`repro.approx.lw`), so the live working set is bounded by a
        topological "active width", not by the variable count; 32 columns
        is a generous bound for the windowed/anatomical structures served
        here.
        """
        n = 8 * self.net.total_cpt_entries()
        n += 16 * self.max_samples  # weight + squared-weight rows at peak
        active = min(self.net.num_variables, 32)
        n += 8 * active * self.max_samples  # live (N,) state columns
        return n
