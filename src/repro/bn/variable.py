"""Discrete random variables.

A :class:`Variable` is an immutable (name, states) pair.  Within one network
names are unique, and all bookkeeping (CPTs, cliques, potentials) refers to
variables by these objects.  Equality and hashing use both name and state
list so that two networks can safely share variable objects.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from numbers import Integral
from types import MappingProxyType

from repro.errors import NetworkError


@dataclass(frozen=True)
class Variable:
    """A named discrete random variable with an ordered list of states.

    Parameters
    ----------
    name:
        Unique identifier within a network.
    states:
        Ordered state labels; ``cardinality == len(states)`` and state *i*
        corresponds to index *i* in every potential-table axis for this
        variable.
    """

    name: str
    states: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False, hash=False, default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if not self.name:
            raise NetworkError("variable name must be non-empty")
        states = tuple(str(s) for s in self.states)
        if len(states) < 1:
            raise NetworkError(f"variable {self.name!r} needs at least one state")
        if len(set(states)) != len(states):
            raise NetworkError(f"variable {self.name!r} has duplicate states: {states}")
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(states)})

    @property
    def cardinality(self) -> int:
        """Number of states."""
        return len(self.states)

    @property
    def labels(self) -> Mapping[str, int]:
        """Read-only ``{state label: index}``."""
        return MappingProxyType(self._index)

    def state_index(self, state: str | int) -> int:
        """Map a state label (or an already-valid index) to its index.

        Any integral value but a ``bool`` (``int``, ``np.int64``, ...) is
        an index; anything else is looked up as a label by ``str()``.
        """
        if isinstance(state, Integral) and not isinstance(state, bool):
            if 0 <= state < self.cardinality:
                return int(state)
            raise NetworkError(
                f"state index {state} out of range for {self.name!r} "
                f"(cardinality {self.cardinality})"
            )
        try:
            return self._index[str(state)]
        except KeyError:
            raise NetworkError(
                f"unknown state {state!r} for variable {self.name!r}; "
                f"valid states: {self.states}"
            ) from None

    @classmethod
    def binary(cls, name: str) -> "Variable":
        """Convenience constructor for a yes/no variable."""
        return cls(name, ("no", "yes"))

    @classmethod
    def with_arity(cls, name: str, arity: int) -> "Variable":
        """A variable with ``arity`` generic states ``s0 .. s{arity-1}``."""
        if arity < 1:
            raise NetworkError(f"arity must be >= 1, got {arity}")
        return cls(name, tuple(f"s{i}" for i in range(arity)))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}[{self.cardinality}]"
