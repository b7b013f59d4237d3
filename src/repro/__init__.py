"""Fast-BNI: fast parallel exact inference on Bayesian networks.

Reproduction of Jiang, Wen, Mansoor & Mian, *POSTER: Fast Parallel Exact
Inference on Bayesian Networks*, PPoPP 2023 (arXiv:2212.04241).

Quickstart
----------
>>> from repro import FastBNI, load_dataset
>>> net = load_dataset("asia")
>>> engine = FastBNI(net, mode="hybrid", num_workers=4)
>>> result = engine.infer({"dysp": "yes", "smoke": "yes"})
>>> result.posteriors["lung"]  # P(lung | dysp=yes, smoke=yes)  # doctest: +SKIP
array([...])
>>> engine.close()

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured results.
"""

from repro.bn import BayesianNetwork, CPT, Variable
from repro.bn.datasets import load_dataset
from repro.bn.generators import (
    balanced_tree_network,
    chain_network,
    grid_network,
    random_network,
    star_network,
)
from repro.bn.repository import PAPER_NETWORKS, load_network
from repro.bn.sampling import TestCase, forward_sample, generate_test_cases
from repro.approx import ApproxBNI, QueryPlanner
from repro.core import BatchedFastBNI, FastBNI, FastBNIConfig
from repro.exec import EngineCapabilities, InferenceEngine
from repro.jt import JunctionTreeEngine
from repro.jt.engine import BatchInferenceResult, InferenceResult

__version__ = "1.0.0"

__all__ = [
    "Variable",
    "CPT",
    "BayesianNetwork",
    "FastBNI",
    "ApproxBNI",
    "QueryPlanner",
    "BatchedFastBNI",
    "FastBNIConfig",
    "JunctionTreeEngine",
    "EngineCapabilities",
    "InferenceEngine",
    "InferenceResult",
    "BatchInferenceResult",
    "TestCase",
    "load_dataset",
    "load_network",
    "PAPER_NETWORKS",
    "random_network",
    "chain_network",
    "star_network",
    "balanced_tree_network",
    "grid_network",
    "forward_sample",
    "generate_test_cases",
    "__version__",
]
