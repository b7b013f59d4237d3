"""Tests for the model file: one mapped table file per compiled model."""

from __future__ import annotations

import gc
import hashlib
import threading

import numpy as np
import pytest

from repro.bn import CPT, BayesianNetwork
from repro.bn.sampling import generate_test_cases
from repro.core import FastBNI
from repro.errors import BackendError
from repro.exec.plan import MessagePlan
from repro.jt.structure import TreeState
from repro.service import modelfile
from repro.service.registry import ModelRegistry
from repro.service.server import encode_line
from repro.service.sessions import SessionManager


@pytest.fixture(params=["numpy", "native"])
def kernels(request):
    if request.param == "native":
        from repro.exec.native import native_status

        available, reason = native_status()
        if not available:
            pytest.skip(f"native backend unavailable: {reason}")
    return request.param


def _flipped_asia(asia) -> BayesianNetwork:
    """asia with its ``asia`` CPT reversed: the same tree, other tables."""
    net = BayesianNetwork(asia.name)
    for var in asia.variables:
        net.add_variable(var)
    for cpt in asia.cpts:
        if cpt.child.name == "asia":
            cpt = CPT(cpt.child, cpt.parents, cpt.table[::-1].copy())
        net.add_cpt(cpt)
    return net


def _mapped(path) -> set[int]:
    """Inodes of this process's mappings of ``path``."""
    with open("/proc/self/maps") as maps:
        return {int(line.split()[4]) for line in maps
                if line.rstrip().endswith(str(path))}


def _model_files(directory) -> list:
    return sorted(directory.glob("*.npy"))


class TestModelFile:
    def test_an_edited_model_is_never_served_old_tables(self, tmp_path,
                                                        asia, kernels):
        """Two registries on one cache directory, one model name, two
        networks of one shape: each answers from its own tables."""
        edited = _flipped_asia(asia)
        with ModelRegistry(cache_dir=tmp_path, kernels=kernels) as first, \
                ModelRegistry(cache_dir=tmp_path, kernels=kernels) as second:
            first.register("m", asia)
            second.register("m", edited)
            got = {reg: reg.get("m").engine.infer({}, ("tub",))
                   for reg in (first, second)}
            assert second.get("m").from_cache is False
        assert len(_model_files(tmp_path)) == 2
        for net, reg in ((asia, first), (edited, second)):
            with FastBNI(net, mode="seq") as fresh:
                want = fresh.infer({}, ("tub",)).posteriors["tub"]
            np.testing.assert_allclose(got[reg].posteriors["tub"], want,
                                       atol=1e-12, rtol=0)

    def test_a_warm_start_maps_the_file_and_builds_nothing(
            self, tmp_path, monkeypatch, asia, kernels):
        with ModelRegistry(cache_dir=tmp_path, kernels=kernels) as cold:
            want = cold.get("asia").prior
        (path,) = _model_files(tmp_path)
        assert path.stat().st_mode & 0o777 == 0o444

        class NoBuild(TreeState):  # the base build's one CPT multiply
            def __init__(self, tree):
                raise AssertionError("the base tables were built")

        def no_calibration(self, calibrate):
            assert self.prior_flat is not None, "the prior was calibrated"
            return self.prior_flat

        monkeypatch.setattr("repro.exec.plan.TreeState", NoBuild)
        monkeypatch.setattr(MessagePlan, "calibrate_prior", no_calibration)
        with ModelRegistry(cache_dir=tmp_path, kernels=kernels) as warm:
            entry = warm.get("asia")
            plan = entry.engine.plan
            assert entry.from_cache is True
            assert warm.stats()["warm_starts"] == 1
            assert not plan._base_flat.flags.writeable
            assert (plan.prior_flat is not None) == (kernels == "native")
            assert _mapped(path) == {path.stat().st_ino}
            for name, values in want.items():
                np.testing.assert_array_equal(entry.prior[name], values)

    def test_warm_and_cold_replies_are_byte_identical(self, tmp_path,
                                                      cancer, kernels):
        cases = [c.evidence for c in
                 generate_test_cases(cancer, 20, observed_fraction=0.4,
                                     rng=5)]
        walk = [{"Smoker": "True"}, {"Pollution": "high"}, {"Xray": 0}]

        def replies(registry) -> list[bytes]:
            registry.register("cancer", cancer)
            engine = registry.get("cancer").engine
            out = [encode_line({"posteriors": r.posteriors,
                                "log_evidence": r.log_evidence})
                   for r in (engine.infer(case) for case in cases)]
            with SessionManager(registry) as sessions:
                sid = sessions.open("cancer")["session"]
                for evidence in walk:
                    sessions.update(sid, evidence=evidence)
                    reply = sessions.query(sid)
                    del reply["session"]  # a random id
                    out.append(encode_line(reply))
            return out

        with ModelRegistry(kernels=kernels) as cold:
            want = replies(cold)
        for _ in range(2):  # the compile that writes the file, then a map
            with ModelRegistry(cache_dir=tmp_path, kernels=kernels) as warm:
                assert replies(warm) == want

    def test_evicting_a_model_unmaps_its_file(self, tmp_path):
        with ModelRegistry(cache_dir=tmp_path) as registry:
            entry = registry.get("asia")
            (path,) = _model_files(tmp_path)
            assert _mapped(path)
            registry.evict("asia")
            gc.collect()
            assert _mapped(path) == set()
            assert entry.retired
            # The closed engine rebuilds private tables if used again.
            assert "lung" in entry.engine.infer({}).posteriors

    @pytest.mark.parametrize("damage, reason", [
        ("truncate", "truncated or unreadable"),
        ("resize", "the plan needs"),
        ("non_finite", "non-finite entry"),
        ("flip", "fails its payload digest"),
    ])
    def test_a_bad_file_is_rejected_and_the_model_compiles_fresh(
            self, tmp_path, caplog, asia, kernels, damage, reason):
        with ModelRegistry(cache_dir=tmp_path, kernels=kernels) as registry:
            entry = registry.get("asia")
            entries = (entry.engine.plan.spec.clique_entries
                       + (entry.engine.plan.spec.arena_entries
                          if kernels == "native" else 0))
            want = entry.engine.infer({"smoke": "yes"}).posteriors
        (path,) = _model_files(tmp_path)
        held = np.load(path)
        payload = held[modelfile.HEADER:]
        if damage == "truncate":
            data = path.read_bytes()
        elif damage == "resize":
            payload = payload[:-1]
        elif damage == "non_finite":
            payload[0] = np.nan
        else:
            payload[1] += 0.25
        if damage in ("resize", "non_finite"):  # a digest that matches
            held = np.empty(modelfile.HEADER + payload.size)
            held[modelfile.HEADER:] = payload
            held[:modelfile.HEADER].view(np.uint8)[:] = np.frombuffer(
                hashlib.sha256(payload).digest(), dtype=np.uint8)
        path.unlink()
        if damage == "truncate":
            path.write_bytes(data[:-24])
        else:
            np.save(path, held)
        with pytest.raises(BackendError, match=reason):
            modelfile.read(path, entries)
        with ModelRegistry(cache_dir=tmp_path, kernels=kernels) as registry:
            entry = registry.get("asia")
            assert entry.from_cache is False
            got = entry.engine.infer({"smoke": "yes"}).posteriors
        assert reason in caplog.text
        assert len(modelfile.read(path, entries)) == entries
        for name, values in want.items():
            np.testing.assert_allclose(got[name], values, atol=1e-12,
                                       rtol=0)

    def test_racing_registries_publish_one_file(self, tmp_path,
                                                monkeypatch):
        """Every writer reaches the publish step before any links: one
        wins, the rest map its file, and no temp file is left."""
        racers = 3
        gate = threading.Barrier(racers, timeout=60)
        write = modelfile.write

        def racing_write(path, parts):
            gate.wait()
            write(path, parts)

        monkeypatch.setattr(modelfile, "write", racing_write)
        registries = [ModelRegistry(cache_dir=tmp_path)
                      for _ in range(racers)]
        entries = [None] * racers

        def load(i: int) -> None:
            entries[i] = registries[i].get("asia")

        threads = [threading.Thread(target=load, args=(i,))
                   for i in range(racers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(60)
        try:
            assert all(e is not None for e in entries)
            assert sorted(p.name for p in tmp_path.iterdir()
                          if p.name.startswith(".")) == []
            (path,) = _model_files(tmp_path)
            assert _mapped(path) == {path.stat().st_ino}
            assert not any(e.from_cache for e in entries)
        finally:
            for registry in registries:
                registry.close()
