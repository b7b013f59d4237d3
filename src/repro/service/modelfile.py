"""One read-only file per compiled model, shared through the page cache.

A :class:`~repro.service.registry.ModelRegistry` with a ``cache_dir``
keeps each exact model's CPT-product base tables and, on native kernels,
its calibrated prior in one ``.npy`` file there, and serves them from a
read-only memory map of it.  Every process that maps one file shares its
pages through the page cache, so cluster replicas of a model hold one
copy of its tables, and a restart skips the base build and the prior
calibration.

The file is one float64 vector: :data:`HEADER` entries holding the
sha256 of the rest, then the plan's clique region (the base tables),
then, on native, the plan's calibrated arena (the prior).  Its name is a
digest of everything those bytes depend on (:func:`file_name`), never of
the model's name, so an edited model cannot be served from an old file.
The payload digest is checked at every load; a file that fails a check
is removed and the model compiles fresh.  A file is written whole under a
temp name and then linked into place, which fails if the name exists, so
racing compiles converge on one inode.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import tempfile
from pathlib import Path

import numpy as np

from repro.errors import BackendError
from repro.jt.serialize import tree_to_dict

logger = logging.getLogger(__name__)

#: Part of every file name: bump it when the layout or meaning changes.
FORMAT = 1
#: Leading float64 entries that hold the payload's sha256 (32 bytes).
HEADER = 4


def _with_prior(engine) -> bool:
    """Whether the engine's plan gets a calibrated prior (native)."""
    return engine.kernels.compiles_cases


def file_name(engine) -> str:
    """The model file's name: a digest of the tree structure and root,
    every CPT's variables and values, the kernel backend, the native C
    source key (native only) and :data:`FORMAT`."""
    digest = hashlib.sha256(f"fastbni model file {FORMAT}\0".encode())
    structure = tree_to_dict(engine.tree)
    del structure["network"]  # a name: no byte of the file depends on it
    digest.update(json.dumps(structure, sort_keys=True).encode())
    for cpt in engine.net.cpts:
        digest.update(json.dumps([[v.name for v in cpt.variables],
                                  cpt.table.shape]).encode())
        digest.update(cpt.table.tobytes())
    digest.update(engine.kernels.name.encode())
    if _with_prior(engine):
        from repro.exec.native.build import find_compiler, source_key

        digest.update(source_key(find_compiler()).encode())
    return digest.hexdigest()[:32] + ".npy"


def read(path: Path, entries: int) -> np.ndarray:
    """Map ``path`` read-only; its ``entries``-long payload.

    Raises :class:`BackendError` naming the reason for a file that is
    truncated or unreadable, of the wrong size, fails its digest, or
    holds a non-finite entry.
    """
    try:
        mapped = np.load(path, mmap_mode="r").view(np.ndarray)
    except (OSError, ValueError, EOFError) as exc:
        raise BackendError(
            f"model file {path.name} is truncated or unreadable: {exc}"
        ) from None
    if mapped.dtype != np.float64 or mapped.shape != (HEADER + entries,):
        raise BackendError(
            f"model file {path.name} holds {mapped.dtype}{mapped.shape}, "
            f"the plan needs float64({HEADER + entries},)")
    payload = mapped[HEADER:]
    if hashlib.sha256(payload).digest() != mapped[:HEADER].tobytes():
        raise BackendError(f"model file {path.name} fails its payload digest")
    if not np.isfinite(payload).all():
        raise BackendError(f"model file {path.name} holds a non-finite entry")
    return payload


def write(path: Path, parts: list[np.ndarray]) -> None:
    """Publish ``parts`` as one model file at ``path``, unless a racing
    writer published it first (its bytes are the same)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=".", suffix=".tmp")
    os.close(fd)
    try:
        out = np.lib.format.open_memmap(
            tmp, mode="w+", dtype=np.float64,
            shape=(HEADER + sum(p.size for p in parts),))
        at = HEADER
        for part in parts:
            out[at:at + part.size] = part
            at += part.size
        # As bytes: a digest read as float64 may hold NaN bit patterns.
        out[:HEADER].view(np.uint8)[:] = np.frombuffer(
            hashlib.sha256(out[HEADER:]).digest(), dtype=np.uint8)
        out.flush()
        del out
        os.chmod(tmp, 0o444)
        try:
            os.link(tmp, path)
        except FileExistsError:
            pass
    finally:
        os.unlink(tmp)


def attach(engine, cache_dir: str | Path) -> bool:
    """Serve ``engine``'s base tables (and native prior) from its model
    file in ``cache_dir``, writing the file first if there is none.

    Returns whether a valid file was there already (a warm start: no
    base build, no prior calibration).  A file that fails a check is
    logged with its reason, removed and written fresh; if writing or
    mapping fails the engine keeps its private tables.
    """
    plan = engine.plan
    base = plan.spec.clique_entries
    with_prior = _with_prior(engine)
    entries = base + (plan.spec.arena_entries if with_prior else 0)
    path = Path(cache_dir) / file_name(engine)
    payload = None
    if path.exists():
        try:
            payload = read(path, entries)
        except BackendError as exc:
            logger.warning("%s; compiling the model fresh", exc)
            try:
                path.unlink()
            except OSError:
                pass  # gone already, or a read-only directory
    warm = payload is not None
    if not warm:
        parts = [plan.base_flat]
        if with_prior:
            engine.kernels.lowered(plan)  # calibrates the prior
            parts.append(plan.prior_flat)
        try:
            write(path, parts)
            payload = read(path, entries)
        except (OSError, BackendError) as exc:
            logger.warning("model file not shared: %s", exc)
            return False
    plan.adopt_base(payload[:base])
    if with_prior:  # the native backend checks it before C reads it
        plan.prior_flat = payload[base:]
    return warm
