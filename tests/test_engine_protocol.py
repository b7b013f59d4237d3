"""Engine-conformance suite: one matrix, every engine.

Every inference engine — sequential, parallel hybrid, batched,
incremental, approximate — satisfies the :class:`repro.exec.engine_api.
InferenceEngine` protocol and answers the same hard/soft/batch/
impossible-evidence matrix consistently with the reference junction-tree
engine (1e-12 for exact engines, tolerance-aware for ApproxBNI).
"""

from pathlib import Path

import numpy as np
import pytest

from repro.approx import ApproxBNI
from repro.bn.datasets import load_dataset
from repro.core import BatchedFastBNI, FastBNI
from repro.errors import EvidenceError
from repro.exec.engine_api import EngineCapabilities, InferenceEngine
from repro.jt.engine import JunctionTreeEngine
from repro.jt.incremental import IncrementalEngine
from repro.jt.structure import compile_junction_tree

DATASETS = ("asia", "cancer", "sprinkler")
ENGINES = ("seq", "hybrid", "batched", "incremental", "approx")

#: Per-dataset hard-evidence matrix (validated against every network).
HARD_CASES = {
    "asia": [{}, {"smoke": "yes"}, {"asia": "yes", "xray": "no"}],
    "cancer": [{}, {"Smoker": 0}, {"Pollution": 0, "Dyspnoea": 1}],
    "sprinkler": [{}, {"Rain": 0}, {"Sprinkler": 1, "WetGrass": 0}],
}
SOFT_CASES = {
    "asia": ({"smoke": "yes"}, {"xray": [0.7, 0.3]}),
    "cancer": ({"Smoker": 0}, {"Dyspnoea": [0.2, 0.8]}),
    "sprinkler": ({}, {"WetGrass": [0.9, 0.1]}),
}
IMPOSSIBLE = {
    "asia": {"lung": "yes", "either": "no"},
    "cancer": None,      # no deterministic CPT rows to contradict
    "sprinkler": None,
}


def make_engine(kind: str, net):
    if kind == "seq":
        return FastBNI(net, mode="seq")
    if kind == "hybrid":
        return FastBNI(net, mode="hybrid", num_workers=2)
    if kind == "batched":
        return BatchedFastBNI(net, mode="seq")
    if kind == "incremental":
        return IncrementalEngine(compile_junction_tree(net))
    if kind == "approx":
        return ApproxBNI(net, num_samples=4096, max_samples=8192, seed=17)
    raise AssertionError(kind)


@pytest.fixture(scope="module")
def nets():
    return {name: load_dataset(name) for name in DATASETS}


@pytest.fixture(scope="module")
def references(nets):
    engines = {name: JunctionTreeEngine(net) for name, net in nets.items()}
    return {
        name: {tuple(sorted(case.items())): engines[name].infer(case)
               for case in HARD_CASES[name]}
        for name in DATASETS
    }


def assert_close(engine, got, want, net):
    """Exact engines pin 1e-12; approx answers stay within 3 reported SE."""
    if engine.capabilities.exact:
        assert got.log_evidence == pytest.approx(want.log_evidence, abs=1e-12)
        for name in net.variable_names:
            np.testing.assert_allclose(got.posteriors[name],
                                       want.posteriors[name],
                                       atol=1e-12, rtol=0)
    else:
        for name in net.variable_names:
            bound = 3 * np.maximum(got.stderr[name], 5e-3)
            assert np.all(np.abs(got.posteriors[name]
                                 - want.posteriors[name]) <= bound), name


# ------------------------------------------------------------------- protocol
@pytest.mark.parametrize("kind", ENGINES)
def test_satisfies_inference_engine_protocol(kind, nets):
    engine = make_engine(kind, nets["asia"])
    try:
        assert isinstance(engine, InferenceEngine)
        assert isinstance(engine.capabilities, EngineCapabilities)
        assert engine.capabilities.kind in ("exact", "approx")
        assert isinstance(engine.name, str) and engine.name
        assert callable(engine.infer) and callable(engine.infer_batch)
        assert callable(engine.validate_case) and callable(engine.posteriors)
    finally:
        engine.close()


@pytest.mark.parametrize("kind", ENGINES)
def test_capability_flags_describe_behaviour(kind, nets):
    engine = make_engine(kind, nets["asia"])
    caps = engine.capabilities
    try:
        if kind in ("seq", "hybrid", "batched", "incremental"):
            assert caps.exact
        if kind == "approx":
            # Inexact answers carry their uncertainty.
            result = engine.infer({"smoke": "yes"})
            assert not caps.exact
            assert set(result.stderr) == set(result.posteriors)
            assert caps.batched_soft_evidence
        if kind == "incremental":
            # Delta recalibration, no vectorised case axis.
            assert callable(engine.update)
            assert not hasattr(engine, "infer_cases")
        if caps.supports_mpe:
            assert caps.exact  # MPE needs a junction tree
    finally:
        engine.close()


# ------------------------------------------------------------- hard evidence
@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("kind", ENGINES)
def test_hard_evidence_matrix(kind, dataset, nets, references):
    net = nets[dataset]
    engine = make_engine(kind, net)
    try:
        for case in HARD_CASES[dataset]:
            want = references[dataset][tuple(sorted(case.items()))]
            assert_close(engine, engine.infer(case), want, net)
    finally:
        engine.close()


# ------------------------------------------------------------------- batching
@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("kind", ENGINES)
def test_infer_batch_matches_reference(kind, dataset, nets, references):
    net = nets[dataset]
    engine = make_engine(kind, net)
    try:
        results = engine.infer_batch(HARD_CASES[dataset])
        assert len(results) == len(HARD_CASES[dataset])
        for case, got in zip(HARD_CASES[dataset], results):
            want = references[dataset][tuple(sorted(case.items()))]
            assert_close(engine, got, want, net)
    finally:
        engine.close()


# -------------------------------------------------------------- soft evidence
@pytest.mark.parametrize("dataset", DATASETS)
@pytest.mark.parametrize("kind", ENGINES)
def test_soft_evidence_matrix(kind, dataset, nets):
    net = nets[dataset]
    hard, soft = SOFT_CASES[dataset]
    engine = make_engine(kind, net)
    try:
        if kind == "incremental":  # expresses hard evidence only
            with pytest.raises(EvidenceError):
                engine.validate_case(hard, soft)
            return
        with FastBNI(net, mode="seq") as oracle:
            want = oracle.infer(hard, soft_evidence=soft)
        got = engine.infer(hard, soft_evidence=soft)
        assert_close(engine, got, want, net)
    finally:
        engine.close()


# -------------------------------------------------------- impossible evidence
@pytest.mark.parametrize("kind", ENGINES)
def test_impossible_evidence_raises(kind, nets):
    case = IMPOSSIBLE["asia"]
    engine = make_engine(kind, nets["asia"])
    try:
        with pytest.raises(EvidenceError):
            result = engine.infer(case)
            # The incremental engine defers propagation to the read; make
            # sure deferred reads cannot dodge the matrix either.
            result.posteriors  # noqa: B018
    finally:
        engine.close()


@pytest.mark.parametrize("kind", ENGINES)
def test_validate_case_rejects_unknown_variables(kind, nets):
    engine = make_engine(kind, nets["asia"])
    try:
        with pytest.raises(EvidenceError):
            engine.validate_case({"not_a_variable": 0})
        engine.validate_case({"smoke": "yes"})  # sane evidence passes
    finally:
        engine.close()


# ----------------------------------------------------------------- posteriors
@pytest.mark.parametrize("kind", ENGINES)
def test_posteriors_accessor(kind, nets):
    net = nets["asia"]
    engine = make_engine(kind, net)
    try:
        post = engine.posteriors(("lung", "bronc"), evidence={"smoke": "yes"})
        assert set(post) >= {"lung", "bronc"}
        for name in ("lung", "bronc"):
            assert post[name].shape == (2,)
            assert float(post[name].sum()) == pytest.approx(1.0, abs=1e-9)
    finally:
        engine.close()


# --------------------------------------------------------- acceptance guards
def test_service_layer_has_no_engine_kind_branches():
    """The acceptance grep: dispatch goes through capability flags."""
    service = Path(__file__).resolve().parent.parent / "src/repro/service"
    offenders = [
        f"{path.name}:{lineno}"
        for path in sorted(service.glob("*.py"))
        for lineno, line in enumerate(path.read_text().splitlines(), 1)
        if "engine_kind ==" in line
    ]
    assert not offenders, offenders
