"""The potential-table operations used by every junction-tree engine.

Each operation offers two equivalent implementations:

* ``method="ndview"`` — NumPy reshape/broadcast/sum over the N-D view.
  Fastest single-threaded path; used by the optimised sequential engine
  (Fast-BNI-seq).
* ``method="indexmap"`` — the paper-faithful formulation: compute the flat
  index mapping between source and destination entry spaces, then gather /
  scatter through it.  This is the formulation whose per-entry work the
  parallel engines chunk across workers (``marg_chunk``/``absorb_chunk``
  in :mod:`repro.exec.kernels`).

``method="auto"`` picks ``ndview``.  The two paths are cross-checked by the
property-based test-suite.
"""

from __future__ import annotations

import numpy as np

from repro.errors import PotentialError
from repro.exec.kernels import gather_marginalize_batch, nd_marginalize_batch
from repro.potential.domain import Domain
from repro.potential.factor import Potential
from repro.potential.index_map import (
    consistency_mask,
    evidence_slice_indices,
    map_indices,
)

_METHODS = ("auto", "ndview", "indexmap")


def _check_method(method: str) -> str:
    if method not in _METHODS:
        raise PotentialError(f"unknown method {method!r}; expected one of {_METHODS}")
    return "ndview" if method == "auto" else method


def _aligned_nd(pot: Potential, target: Domain) -> np.ndarray:
    """View of ``pot`` broadcastable against ``target``'s N-D shape.

    Transposes ``pot``'s axes into target order and inserts size-1 axes for
    target variables absent from ``pot`` — a view, never a copy.
    """
    perm = sorted(range(len(pot.domain)), key=lambda i: target.axis(pot.domain.variables[i]))
    nd = pot.nd().transpose(perm)
    shape = [1] * len(target)
    for v in pot.domain.variables:
        ax = target.axis(v)
        shape[ax] = v.cardinality
    return nd.reshape(shape)


# --------------------------------------------------------------------- multiply
def multiply(a: Potential, b: Potential, method: str = "auto") -> Potential:
    """Pointwise product; result domain is ``a``'s order then novel ``b`` vars."""
    method = _check_method(method)
    out_dom = a.domain.union(b.domain)
    if method == "ndview":
        vals = (_aligned_nd(a, out_dom) * _aligned_nd(b, out_dom)).reshape(-1)
        return Potential(out_dom, np.ascontiguousarray(vals))
    ga = a.values[map_indices(out_dom, a.domain)] if len(a.domain) != len(out_dom) or a.domain != out_dom else a.values
    gb = b.values[map_indices(out_dom, b.domain)]
    return Potential(out_dom, ga * gb)


def multiply_into(target: Potential, other: Potential, method: str = "auto") -> None:
    """In-place ``target *= other`` where ``other``'s scope ⊆ ``target``'s.

    This is the hot update of calibration (clique ← clique × message); doing
    it in place avoids reallocating large clique tables (HPC-guide idiom).
    """
    method = _check_method(method)
    missing = [n for n in other.domain.names if n not in target.domain]
    if missing:
        raise PotentialError(
            f"multiply_into requires scope containment; {missing} not in "
            f"{target.domain.names}"
        )
    if method == "ndview":
        target.nd()[...] *= _aligned_nd(other, target.domain)
    else:
        target.values *= other.values[map_indices(target.domain, other.domain)]


# ----------------------------------------------------------------------- divide
def divide(a: Potential, b: Potential, method: str = "auto") -> Potential:
    """Pointwise quotient with the junction-tree convention ``x/0 = 0``.

    ``b``'s scope must be contained in ``a``'s; used for message updates
    (new separator / old separator).
    """
    method = _check_method(method)
    missing = [n for n in b.domain.names if n not in a.domain]
    if missing:
        raise PotentialError(f"divide requires scope containment; {missing} not in {a.domain.names}")
    if method == "ndview":
        bb = np.broadcast_to(_aligned_nd(b, a.domain), a.domain.shape).reshape(-1)
    else:
        bb = b.values[map_indices(a.domain, b.domain)]
    out = np.zeros_like(a.values)
    np.divide(a.values, bb, out=out, where=bb != 0)
    return Potential(a.domain, out)


def divide_into(target: Potential, num: Potential, den: Potential, method: str = "auto") -> None:
    """In-place ``target *= num / den`` (the Hugin absorption update)."""
    method = _check_method(method)
    if num.domain != den.domain:
        raise PotentialError("divide_into requires num and den over the same domain")
    ratio = np.zeros_like(num.values)
    np.divide(num.values, den.values, out=ratio, where=den.values != 0)
    multiply_into(target, Potential(num.domain, ratio), method=method)


# ------------------------------------------------------------------ marginalize
def marginalize(pot: Potential, keep: tuple[str, ...] | list[str] | set[str],
                method: str = "auto") -> Potential:
    """Sum out every variable not named in ``keep`` (paper: *marginalization*).

    The result domain preserves ``pot``'s variable order restricted to
    ``keep``.
    """
    method = _check_method(method)
    out_dom = pot.domain.subset(tuple(keep))
    if out_dom.names == pot.domain.names:
        return pot.copy()
    if method == "ndview":
        drop = tuple(i for i, v in enumerate(pot.domain.variables) if v.name not in out_dom)
        vals = pot.nd().sum(axis=drop).reshape(-1)
        return Potential(out_dom, np.ascontiguousarray(vals))
    imap = map_indices(pot.domain, out_dom)
    vals = np.bincount(imap, weights=pot.values, minlength=out_dom.size)
    return Potential(out_dom, vals)


# ----------------------------------------------------------------------- extend
def extend(pot: Potential, target: Domain, method: str = "auto") -> Potential:
    """Replicate ``pot`` over the larger domain ``target`` (paper: *extension*).

    Every variable of ``pot`` must occur in ``target``; the result has
    ``result[i] = pot[m(i)]`` where *m* is the index mapping.
    """
    method = _check_method(method)
    missing = [n for n in pot.domain.names if n not in target]
    if missing:
        raise PotentialError(f"extension target misses variables {missing}")
    if method == "ndview":
        vals = np.broadcast_to(_aligned_nd(pot, target), target.shape).reshape(-1)
        return Potential(target, np.ascontiguousarray(vals))
    return Potential(target, pot.values[map_indices(target, pot.domain)])


# ------------------------------------------------------------------- reduction
def reduce_evidence(pot: Potential, evidence: dict[str, str | int],
                    mode: str = "zero", method: str = "auto") -> Potential:
    """Condition on evidence (paper: *reduction*).

    ``mode="zero"`` keeps the domain and zeroes inconsistent entries (what
    the JT engines use: table shapes stay fixed so index maps remain valid).
    ``mode="slice"`` drops the observed variables and returns the consistent
    sub-table (used by variable elimination).
    """
    method = _check_method(method)
    ev = {n: pot.domain.variables[pot.domain.axis(n)].state_index(s)
          for n, s in evidence.items() if n in pot.domain}
    if not ev:
        return pot.copy()
    if mode == "zero":
        mask = consistency_mask(pot.domain, ev)
        return Potential(pot.domain, pot.values * mask)
    if mode == "slice":
        idx = evidence_slice_indices(pot.domain, ev)
        out_dom = pot.domain.subset(tuple(n for n in pot.domain.names if n not in ev))
        return Potential(out_dom, pot.values[idx])
    raise PotentialError(f"unknown reduction mode {mode!r}; expected 'zero' or 'slice'")


def reduce_evidence_inplace(pot: Potential, evidence: dict[str, str | int]) -> None:
    """Zero-mode reduction applied in place (the engines' hot path)."""
    ev = {n: pot.domain.variables[pot.domain.axis(n)].state_index(s)
          for n, s in evidence.items() if n in pot.domain}
    if ev:
        pot.values *= consistency_mask(pot.domain, ev)


# -------------------------------------------------------------------- batched
def marginalize_batch(values: np.ndarray, domain: Domain,
                      keep: tuple[str, ...] | list[str] | set[str],
                      method: str = "auto") -> np.ndarray:
    """Marginalize ``N`` stacked tables at once.

    ``values`` is ``(N, domain.size)`` — one row per inference case over the
    same domain.  Returns ``(N, subset.size)`` with the subset keeping
    ``domain``'s variable order (exactly :func:`marginalize` per row, but as
    one contiguous NumPy reduction over the whole batch).

    Thin domain-level wrapper over the shared plan kernels
    (:mod:`repro.exec.kernels`): this function resolves the domain algebra
    (subset order, dropped axes / index map) and delegates the table work.
    """
    method = _check_method(method)
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2 or values.shape[1] != domain.size:
        raise PotentialError(
            f"batch values have shape {values.shape}, expected (N, {domain.size})"
        )
    out_dom = domain.subset(tuple(keep))
    if out_dom.names == domain.names:
        return values.copy()
    if method == "ndview":
        drop = tuple(i for i, v in enumerate(domain.variables)
                     if v.name not in out_dom)
        return nd_marginalize_batch(values, domain.shape, drop)
    return gather_marginalize_batch(values, map_indices(domain, out_dom),
                                    out_dom.size)


# ------------------------------------------------------------------- normalize
def normalize(pot: Potential) -> float:
    """Rescale in place so entries sum to 1; returns the pre-normalisation sum.

    A zero table cannot be normalised (raises) — in the engines this signals
    impossible evidence, surfaced as :class:`repro.errors.EvidenceError`
    upstream.
    """
    total = float(pot.values.sum())
    if total <= 0.0 or not np.isfinite(total):
        raise PotentialError(f"cannot normalise table with total {total}")
    pot.values /= total
    return total
