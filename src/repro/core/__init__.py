"""Fast-BNI: the paper's contribution.

:class:`~repro.core.fastbni.FastBNI` is the public engine.  Its four modes
correspond to the paper's design space:

* ``mode="seq"``    — Fast-BNI-seq, the default: optimised sequential
  engine (one native call per hard-evidence case, no parallel dispatch);
* ``mode="inter"``  — coarse-grained inter-clique parallelism only
  (BFS layering + root selection, one task per message);
* ``mode="intra"``  — fine-grained intra-clique parallelism only
  (each table op chunked over entries, sequential message order);
* ``mode="hybrid"`` — Fast-BNI-par: the paper's hybrid — per layer, all
  table entries are flattened into one balanced task pool
  (:mod:`repro.core.hybrid`).

In every mode ``infer_cases`` / ``infer_batch`` run a whole workload as
case blocks (:mod:`repro.core.batch`), and ``num_workers`` alone decides
whether work runs inline (one worker) or on a thread pool.
"""

from repro.core.config import FastBNIConfig
from repro.core.fastbni import FastBNI

#: The batched engine was folded into :class:`FastBNI` (``infer_cases``,
#: ``prepare_baseline``); the name stays for existing imports.
BatchedFastBNI = FastBNI

__all__ = ["BatchedFastBNI", "FastBNI", "FastBNIConfig"]
