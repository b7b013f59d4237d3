"""Shared fixtures for the test suite."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from repro.bn.datasets import load_dataset
from repro.bn.generators import random_network


@pytest.fixture(scope="session")
def asia():
    return load_dataset("asia")


@pytest.fixture(scope="session")
def cancer():
    return load_dataset("cancer")


@pytest.fixture(scope="session")
def sprinkler():
    return load_dataset("sprinkler")


@pytest.fixture(scope="session")
def cb():
    """``tools/check_bench.py`` — outside the package, so loaded by path."""
    spec = importlib.util.spec_from_file_location(
        "check_bench",
        Path(__file__).resolve().parent.parent / "tools" / "check_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def wrong_typed_requests():
    """One request per (op row, declared field) from the wire-op table,
    with that field wrong-typed (or a required one missing) and every
    other required field valid: ``(route, request, expected error type)``.
    """
    from repro.service.ops import OPS

    valid = {"network": "asia", "session": "no-such-session",
             "cases": [{}]}
    wrong = {"string": 7, "object": ["x"], "names": 7, "bool": "false",
             "engine": "quantum", "cases": {"a": 1}, "number": "soon"}
    out = []
    for row in OPS.values():
        base = {"op": row.name}
        base.update({f.name: valid[f.name] for f in row.fields if f.required})
        for field in row.fields:
            out.append((row.route, {**base, field.name: wrong[field.kind]},
                        field.error.__name__))
            if field.required:
                missing = dict(base)
                del missing[field.name]
                out.append((row.route, missing, field.error.__name__))
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def small_random_nets():
    """A batch of small random networks (enumeration-oracle friendly)."""
    return [
        random_network(n, state_dist=3, avg_parents=1.4, max_in_degree=3,
                       window=5, rng=seed, name=f"rand{n}_{seed}")
        for n, seed in [(8, 0), (10, 1), (12, 2), (14, 3)]
    ]
