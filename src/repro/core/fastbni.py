"""The Fast-BNI engine (paper §2).

Compile once, infer many times: the constructor builds the junction tree,
applies root selection, and obtains the shared execution plan
(:func:`repro.exec.plan.compile_plan`) — the BFS layer schedule, the flat
arena layout and the per-edge :class:`~repro.exec.plan.EdgeGeometry`
(stride triples and N-D broadcast shapes for all four index mappings a
message ever needs).  Each :meth:`FastBNI.infer` then only touches table
*values* — exactly the amortisation FastBN uses across the paper's
2000-case workloads.

Whole-message execution (the sequential, inter and batched paths) goes
through a pluggable kernel backend (:mod:`repro.exec.kernels`):
``"native"`` (the default) is the C library, ``"numpy"`` the N-D-view
reference and the fallback without a C compiler.  The intra and hybrid
modes chunk the same gather kernels over entry ranges
(``marg_chunk``/``absorb_chunk``) across the backend's threads.  Every
mode iterates the plan's compiled message sequence and touches tables
through ndarray views into the plan arena.

One shortcut sits in front of all that: a sequential engine on the native
backend answers a hard-evidence request as a single foreign call
(:meth:`~repro.exec.native.backend.NativeKernels.infer_cases`), traced or
not — an installed recorder gets that call's time and message count.  The
staged absorb → calibrate → read path below it is the oracle that call
is pinned against, and what every other request runs.
"""

from __future__ import annotations

import math
import time

import numpy as np

from repro.bn.network import BayesianNetwork
from repro.core.config import FastBNIConfig
from repro.errors import BackendError, EvidenceError, JunctionTreeError
from repro.exec.engine_api import EXACT_ENGINE
from repro.exec.kernels import get_kernels, run_message_schedule
from repro.exec.plan import MessagePlan, compile_plan
from repro.jt.engine import InferenceResult
from repro.jt.evidence import check_evidence
from repro.jt.layers import LayerSchedule
from repro.jt.root import select_root
from repro.jt.structure import JunctionTree, TreeState, compile_junction_tree
from repro.obs.trace import current_kernel_hooks
from repro.parallel.backend import Backend, SerialBackend, make_backend


class FastBNI:
    """Fast parallel exact inference on Bayesian networks.

    Parameters
    ----------
    net:
        A valid :class:`~repro.bn.network.BayesianNetwork` (``validate()``
        runs during tree compilation and raises
        :class:`~repro.errors.NetworkError` on malformed CPTs).
    config / keyword options:
        Either a :class:`~repro.core.config.FastBNIConfig` object or its
        fields as keywords (never both — that raises
        :class:`~repro.errors.BackendError`).  The load-bearing ones:
        ``mode`` (``"seq"``/``"inter"``/``"intra"``/``"hybrid"``, see
        :mod:`repro.core`), ``backend`` (``"serial"``/``"thread"``),
        ``num_workers``, ``kernels`` (``"native"``/``"numpy"``
        whole-message backend), ``heuristic`` (triangulation) and
        ``root_strategy``.
    tree:
        Optional pre-compiled junction tree, e.g. one built with
        :func:`repro.jt.structure.tree_from_cliques` from cliques a
        planner already priced.  Must have been compiled for this exact
        network *object* — :class:`~repro.errors.JunctionTreeError`
        otherwise.  Engines sharing a tree also share its execution plan
        (base tables, index maps).

    The engine owns a persistent execution backend; call :meth:`close`
    (or use it as a context manager) to release pools.  :meth:`infer`
    raises :class:`~repro.errors.EvidenceError` for unknown evidence
    variables/states and for evidence whose probability is zero, and
    :class:`~repro.errors.QueryError` for unknown targets.
    """

    #: Capability flags the service layers dispatch on.
    capabilities = EXACT_ENGINE

    def __init__(self, net: BayesianNetwork, config: FastBNIConfig | None = None,
                 tree: JunctionTree | None = None, **kwargs) -> None:
        if config is None:
            config = FastBNIConfig(**kwargs)
        elif kwargs:
            raise BackendError("pass either a config object or keyword options, not both")
        self.config = config
        self.net = net
        if tree is not None and tree.net is not net:
            raise JunctionTreeError(
                "warm-start tree was compiled for a different network object; "
                "load it with jt.serialize.load_tree(path, net) first"
            )
        self.tree: JunctionTree = (
            tree if tree is not None
            else compile_junction_tree(net, heuristic=config.heuristic)
        )
        select_root(self.tree, config.root_strategy)
        #: The shared execution plan (schedule + arena layout + geometry);
        #: engines over one tree share one plan (see repro.exec.plan).
        self.plan: MessagePlan = compile_plan(self.tree)
        self.schedule: LayerSchedule = self.plan.schedule
        #: Whole-message kernel backend (seq, inter and batched paths).
        self.kernels = get_kernels(config.kernels)
        if config.mode == "seq":
            self.backend: Backend = SerialBackend()
        else:
            self.backend = make_backend(config.backend, config.num_workers)
        #: Instrumentation for the last infer() call: how often the backend
        #: was invoked and how many tasks it received — the quantitative
        #: form of the paper's "parallelization overhead" argument — and,
        #: after a whole-case native call, the messages it ran
        #: (``messages_run``), the clique entries they walked
        #: (``entries_walked``) and those a dense full schedule would.
        self.metrics: dict[str, int] = {}
        self._closed = False

    def count(self, key: str, n: int = 1) -> None:
        """Instrumentation hook used by the calibration strategies."""
        if self.metrics is not None:
            self.metrics[key] = self.metrics.get(key, 0) + n

    # ----------------------------------------------------------------- naming
    @property
    def name(self) -> str:
        mode = self.config.mode
        if mode == "seq":
            return "fastbni-seq"
        return f"fastbni-{mode}[{self.backend.name}x{self.backend.num_workers}]"

    # --------------------------------------------------------------- lifecycle
    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self.backend.close()

    def __enter__(self) -> "FastBNI":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------- validation
    def validate_case(self, evidence: dict | None = None,
                      soft_evidence: dict | None = None) -> None:
        """Check one request's evidence without running it.

        Raises :class:`~repro.errors.EvidenceError` on unknown variables,
        states, or malformed likelihood vectors — the protocol hook the
        service layer calls at submit time.
        """
        check_evidence(self.tree, dict(evidence or {}))
        if soft_evidence:
            from repro.jt.evidence_soft import check_soft_evidence

            check_soft_evidence(self.tree, soft_evidence)

    # ---------------------------------------------------------------- running
    @property
    def one_call_per_case(self) -> bool:
        """Whether :meth:`infer` answers a hard-evidence case in one
        foreign call from the calibrated prior: native kernels in ``seq``
        mode (the parallel modes run their schedules message by message)."""
        return self.config.mode == "seq" and self.kernels.compiles_cases

    def infer(
        self,
        evidence: dict[str, str | int] | None = None,
        targets: tuple[str, ...] = (),
        soft_evidence: dict[str, "np.ndarray | list[float]"] | None = None,
    ) -> InferenceResult:
        """One exact inference pass; returns posteriors and log P(evidence).

        ``soft_evidence`` maps variables to likelihood vectors (virtual
        evidence); see :mod:`repro.jt.evidence_soft`.
        """
        self.metrics = {"dispatch_batches": 0, "dispatch_tasks": 0,
                        "inline_layers": 0, "messages": 0}
        plan = self.plan
        read_ids = plan.variable_ids(targets)  # unknown targets raise here
        if not soft_evidence and self.one_call_per_case:
            # The whole case as one foreign call (native kernels): no
            # per-message and no per-variable interpreter work.
            hooks = current_kernel_hooks()
            start = time.perf_counter() if hooks is not None else 0.0
            rows, log_evidence, (walked, dense, run) = self.kernels.infer_cases(
                plan, plan.evidence_matrix([evidence or {}]), read_ids)
            if hooks is not None:
                hooks.on_schedule(backend=self.kernels.name, messages=run,
                                  seconds=time.perf_counter() - start,
                                  arena_bytes=plan.arena_bytes)
            self.metrics.update(messages=plan.spec.num_messages,
                                messages_run=run, entries_walked=walked,
                                entries_dense=dense)
            return InferenceResult(
                posteriors=plan.posterior_views(read_ids, rows[0]),
                log_evidence=float(log_evidence[0]),
                meta={"messages_run": float(run)})
        state = plan.fresh_state()
        if evidence:
            plan.absorb_hard_evidence(state, evidence)
        if soft_evidence:
            from repro.jt.evidence_soft import absorb_soft_evidence

            absorb_soft_evidence(state, soft_evidence)

        self._calibrate(state)
        return InferenceResult(
            posteriors=plan.read_posteriors(state, targets),
            log_evidence=self._log_evidence(state),
            meta={"messages_run": float(plan.spec.num_messages)},
        )

    def posteriors(self, targets: tuple[str, ...] = (),
                   evidence: dict | None = None) -> dict[str, np.ndarray]:
        """Posterior vectors for ``targets`` (protocol convenience)."""
        return self.infer(evidence, targets=tuple(targets)).posteriors

    def _calibrate(self, state: TreeState) -> None:
        from repro.core import hybrid, inter, intra

        mode = self.config.mode
        if mode == "seq":
            # Fast-BNI-seq: whole-message execution through the kernel
            # backend over the plan arena (native by default — the whole
            # calibration as one foreign call, the paper's own
            # fewer-fatter-invocations recipe).
            sent = run_message_schedule(self.plan, state, self.kernels)
            self.count("messages", sent)
        elif mode == "inter":
            inter.calibrate_inter(self, state)
        elif mode == "intra":
            intra.calibrate_intra(self, state)
        elif mode == "hybrid":
            hybrid.calibrate_hybrid(self, state)
        else:  # pragma: no cover - config validates
            raise BackendError(f"unknown mode {mode!r}")

    def _log_evidence(self, state: TreeState) -> float:
        root_total = float(state.clique_pot[self.tree.root].values.sum())
        if root_total <= 0.0:
            return -math.inf
        return state.log_norm + math.log(root_total)

    # ------------------------------------------------------- shared helpers
    def normalize_message(self, state: TreeState, values: np.ndarray,
                          track: bool) -> np.ndarray:
        """Normalise a freshly marginalised separator table.

        Collect-phase constants accumulate in ``state.log_norm`` (they are
        factors of the root's deficit from P(e)); distribute constants are
        dropped.  Raises on an all-zero message (impossible evidence).
        """
        total = float(values.sum())
        if total <= 0.0:
            raise EvidenceError("evidence has zero probability (empty message)")
        values = values / total
        if track:
            state.log_norm += math.log(total)
        return values

    def infer_batch(
        self,
        cases,
        case_workers: int = 1,
        targets: tuple[str, ...] = (),
        vectorized: bool = False,
    ) -> list[InferenceResult]:
        """Run a batch of test cases, optionally parallel *across* cases.

        The paper parallelises within one inference; a 2000-case workload
        also admits the orthogonal axis of running whole cases
        concurrently (each case calibrates sequentially on its own
        TreeState; the compiled tree and index-map cache are shared
        read-only).  ``case_workers=1`` is a plain loop.

        ``vectorized=True`` selects the batched fast path
        (:mod:`repro.core.batch`): all cases are calibrated together in one
        pass of the layer schedule over ``(N, table)`` arrays, dispatched
        to this engine's backend as case blocks.  It supersedes
        ``case_workers`` — across-case parallelism then comes from the
        engine backend's workers, not a per-call thread pool.  Cases
        carrying soft evidence fall back cleanly to the per-case loop
        (batched reduction expresses hard evidence only), where
        ``case_workers`` applies again.
        """
        from repro.core.batch import case_evidence, case_soft_evidence

        cases = list(cases)
        if vectorized and cases and not any(case_soft_evidence(c) for c in cases):
            from repro.core.batch import infer_cases

            return list(infer_cases(self, cases, targets))
        if case_workers <= 1 or len(cases) <= 1:
            return [self.infer(case_evidence(c), targets,
                               soft_evidence=case_soft_evidence(c))
                    for c in cases]
        # Compile the message sequence (and with it every index map the
        # mode gathers through) once, serially, so the concurrent cases
        # only ever read the plan.
        self.plan.compiled_messages(
            maps=self.config.mode in ("intra", "hybrid"))
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=case_workers) as pool:
            futures = [pool.submit(self.infer, case_evidence(c), targets,
                                   case_soft_evidence(c))
                       for c in cases]
            return [f.result() for f in futures]

    def stats(self) -> dict[str, float]:
        s = self.tree.stats()
        s["num_layers"] = self.schedule.num_layers
        s["num_workers"] = self.backend.num_workers
        s.update(self.plan.stats())
        return s
