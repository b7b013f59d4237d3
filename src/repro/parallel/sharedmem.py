"""Named read-only shared-memory segments (the cluster tier's plan sharing).

The inference engines never cross a process boundary — their parallel
modes are threads over the plan arena.  The cluster tier
(:mod:`repro.cluster`) does run several *server* processes, and *named*
segments let those unrelated workers share one read-only buffer without a
common parent handing anything out: :func:`share_readonly` publishes (or
attaches to) a header-stamped float64 segment under a deterministic name,
so N replicas of the same model map one copy of the compiled plan's base
tables instead of N.  The module-level :class:`NamedSegmentRegistry`
refcounts every named mapping in this process and unlinks owned segments
when the last user releases them; :func:`cleanup_segments` sweeps
``/dev/shm`` for segments a crashed owner left behind.
"""

from __future__ import annotations

import threading
import time
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np

from repro.errors import BackendError

#: Magic stamped into a published segment's header (int64[0]) once its
#: payload is fully written.  Attachers spin on this, so a half-written
#: segment (publisher raced or died mid-copy) is never adopted.
_SEGMENT_MAGIC = 0x46424E49  # "FBNI"

#: Header layout: int64 magic (ready flag), int64 payload entry count.
_HEADER_BYTES = 16


def _unregister_from_tracker(shm: shared_memory.SharedMemory) -> None:
    """Detach this process's resource tracker from a segment it did not
    create.

    CPython < 3.13 registers *every* ``SharedMemory`` mapping with the
    process's resource tracker, and the tracker unlinks registered
    segments when its process exits — so a reader process exiting would
    destroy a segment the owner is still serving from.  Attach paths
    must therefore unregister; the owner keeps its registration so a
    crashed owner's tracker still reclaims the segment.
    """
    try:  # pragma: no cover - platform/implementation specific
        from multiprocessing import resource_tracker

        resource_tracker.unregister(shm._name, "shared_memory")
    except Exception:
        pass


class NamedSegmentRegistry:
    """Process-local table of named shared-memory segments, refcounted.

    One registry (the module singleton :data:`SEGMENTS`) tracks every
    named segment this process has published or attached.  Repeated
    :meth:`acquire` calls for one name share a single mapping and bump a
    refcount; :meth:`release` drops it and, at zero, closes the mapping —
    unlinking the segment only if this process created it.  That gives
    model replicas within one process (several registries, an engine and
    its cache) one mmap per segment, and gives the cluster worker a
    single place to tear everything down on drain.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        #: name -> [shm, refcount, owner]
        self._segments: dict[str, list] = {}

    def acquire(self, name: str, nbytes: int) -> tuple[shared_memory.SharedMemory, bool]:
        """Attach to segment ``name``, creating it if absent.

        Returns ``(shm, created)``; ``created`` is True when this call
        won the creation race and must initialise the payload.  The
        creation race between *processes* is settled by the kernel:
        ``shm_open(O_CREAT|O_EXCL)`` admits exactly one winner, losers
        fall back to a plain attach.
        """
        if nbytes <= 0:
            raise BackendError(f"segment size must be positive, got {nbytes}")
        with self._lock:
            entry = self._segments.get(name)
            if entry is not None:
                entry[1] += 1
                return entry[0], False
            try:
                shm = shared_memory.SharedMemory(name=name, create=True,
                                                 size=nbytes)
                created = True
            except FileExistsError:
                shm = shared_memory.SharedMemory(name=name)
                created = False
                _unregister_from_tracker(shm)
            self._segments[name] = [shm, 1, created]
            return shm, created

    def release(self, name: str) -> None:
        """Drop one reference; close (and unlink, if owner) at zero."""
        with self._lock:
            entry = self._segments.get(name)
            if entry is None:
                return
            entry[1] -= 1
            if entry[1] > 0:
                return
            shm, _, owner = self._segments.pop(name)
        self._close_mapping(shm, owner)

    #: Mappings whose close() failed because consumer views were still
    #: alive.  Parking them here keeps SharedMemory.__del__ from retrying
    #: (and warning) at arbitrary GC points; the OS reclaims the mmap at
    #: process exit.
    _graveyard: list = []

    @classmethod
    def _close_mapping(cls, shm: shared_memory.SharedMemory,
                       owner: bool) -> None:
        try:
            shm.close()
        except BufferError:
            # ndarray views onto shm.buf still exist; the mmap is
            # reclaimed at process exit regardless.  Unlinking below is
            # the part that must not be skipped.
            cls._graveyard.append(shm)
        if owner:
            try:
                shm.unlink()
            except FileNotFoundError:
                pass  # another process (or a sweep) already reclaimed it

    def attached(self) -> tuple[str, ...]:
        """Names currently mapped by this process (for stats/debugging)."""
        with self._lock:
            return tuple(self._segments)

    def owned(self) -> tuple[str, ...]:
        """Names this process created (it is responsible for unlinking)."""
        with self._lock:
            return tuple(n for n, e in self._segments.items() if e[2])

    def release_all(self) -> None:
        """Force-close every tracked mapping (process shutdown path)."""
        with self._lock:
            segments = list(self._segments.items())
            self._segments.clear()
        for _, (shm, _, owner) in segments:
            self._close_mapping(shm, owner)


#: The process-wide named-segment registry.
SEGMENTS = NamedSegmentRegistry()


def share_readonly(name: str, build, *,
                   timeout_s: float = 30.0) -> tuple[np.ndarray, bool]:
    """Publish-or-attach a read-only float64 buffer under segment ``name``.

    The first caller across all processes runs ``build()`` (which must
    return a 1-D float64 array), copies it into the segment, and stamps
    the ready header; every other caller attaches and waits for the
    stamp.  Both receive the *same physical memory* as a read-only
    ndarray — the mechanism model replicas use to share one copy of a
    compiled plan's clique base tables.

    Returns ``(array, owner)``.  Release with ``SEGMENTS.release(name)``
    when the consumer (engine, registry entry) closes.  Raises
    :class:`BackendError` if the publisher never stamps the segment
    ready within ``timeout_s`` (e.g. it died mid-copy — sweep with
    :func:`cleanup_segments` and retry) or if the published payload size
    disagrees with ``build()``'s.
    """
    values: np.ndarray | None = None
    nbytes: int | None = None

    def materialise() -> np.ndarray:
        nonlocal values, nbytes
        if values is None:
            values = np.ascontiguousarray(build(), dtype=np.float64).ravel()
            nbytes = _HEADER_BYTES + 8 * values.size
        return values

    materialise()
    assert nbytes is not None
    shm, created = SEGMENTS.acquire(name, nbytes)
    try:
        header = np.frombuffer(shm.buf, dtype=np.int64, count=2)
        if created:
            payload = np.frombuffer(shm.buf, dtype=np.float64,
                                    count=values.size, offset=_HEADER_BYTES)
            payload[:] = values
            header[1] = values.size
            header[0] = _SEGMENT_MAGIC  # stamped last: payload is complete
        else:
            deadline = time.monotonic() + timeout_s
            while header[0] != _SEGMENT_MAGIC:
                if time.monotonic() >= deadline:
                    raise BackendError(
                        f"segment {name!r} never became ready within "
                        f"{timeout_s:.0f}s (publisher died mid-copy? sweep "
                        "with cleanup_segments() and retry)")
                time.sleep(0.001)
            if int(header[1]) != values.size:
                raise BackendError(
                    f"segment {name!r} holds {int(header[1])} entries but "
                    f"this process built {values.size} — name collision "
                    "between different payloads")
        out = np.frombuffer(shm.buf, dtype=np.float64, count=values.size,
                            offset=_HEADER_BYTES)
        out.flags.writeable = False
        return out, created
    except BaseException:
        SEGMENTS.release(name)
        raise


def list_segments(prefix: str) -> list[str]:
    """Named segments currently present on this host matching ``prefix``.

    Reads ``/dev/shm`` directly (POSIX shm segments are files there), so
    it sees segments owned by *other* processes — the property the
    leak-detection tests and the orphan sweep need.  Returns ``[]`` on
    platforms without ``/dev/shm``.
    """
    root = Path("/dev/shm")
    if not root.is_dir():  # pragma: no cover - non-Linux
        return []
    return sorted(p.name for p in root.iterdir() if p.name.startswith(prefix))


def cleanup_segments(prefix: str) -> list[str]:
    """Best-effort unlink of every named segment matching ``prefix``.

    The cluster supervisor runs this after stopping its workers: a
    SIGKILLed worker cannot release the plan-arena segments it owned, so
    the supervisor (which knows the cluster's segment prefix) reclaims
    them.  Unlinking a segment other processes still map is safe — their
    mappings stay valid; only the name disappears.  Returns the names
    removed.
    """
    removed: list[str] = []
    for name in list_segments(prefix):
        try:
            shm = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:  # pragma: no cover - concurrent sweep
            continue
        try:
            # unlink() itself unregisters from the tracker, balancing the
            # registration the attach above made — no manual unregister,
            # which would double up and upset the tracker daemon.
            shm.unlink()
            removed.append(name)
        except FileNotFoundError:  # pragma: no cover - concurrent sweep
            _unregister_from_tracker(shm)
        finally:
            shm.close()
    return removed
