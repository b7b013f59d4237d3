"""Approximate inference subsystem: one vectorised sampler + query planner.

Fast-BNI's exact engines are exponential in induced treewidth; this
package is the service's second engine class for the networks exact
compilation cannot afford:

* :mod:`repro.approx.lw` — batched likelihood weighting: all N particles
  advance together as ``(N,)`` state columns, one CPT gather per node, with
  mergeable accumulators, effective-sample-size and standard-error output.
  It is the only sampler (``docs/approx.md`` says why);
* :mod:`repro.approx.engine` — :class:`ApproxBNI`, the ``FastBNI``-shaped
  engine with adaptive sample-count escalation (double until the standard
  errors clear the tolerance or the budget runs out);
* :mod:`repro.approx.planner` — :class:`QueryPlanner`, the cost model that
  prices the clique tables of the junction tree an exact engine would
  build and routes each network to ``exact``, ``approx``, or decides
  under ``auto``.
"""

from repro.approx.engine import (ApproxBatchResult, ApproxBNI,
                                 ApproxInferenceResult)
from repro.approx.lw import LWAccumulator, sample_population
from repro.approx.planner import (DEFAULT_MAX_EXACT_BYTES,
                                  DEFAULT_REFUSE_EXACT_BYTES, POLICIES,
                                  PlanDecision, QueryPlanner)

__all__ = [
    "ApproxBNI",
    "ApproxBatchResult",
    "ApproxInferenceResult",
    "DEFAULT_MAX_EXACT_BYTES",
    "DEFAULT_REFUSE_EXACT_BYTES",
    "LWAccumulator",
    "POLICIES",
    "PlanDecision",
    "QueryPlanner",
    "sample_population",
]
