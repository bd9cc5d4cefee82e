"""Vector clocks.

Cloudburst's causal mode versions each key with a vector clock: a set of
``(executor id, logical clock)`` pairs (§5.2).  Merge takes the pairwise
maximum.  Two clocks are comparable when one dominates the other (greater or
equal in every entry and strictly greater in at least one); otherwise they are
concurrent.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Tuple

from .base import Lattice


class VectorClock(Lattice):
    """An immutable vector clock mapping node ids to logical clock values.

    Causal-mode runs create, merge and compare these at every read and write,
    which made clock construction/merge the top of the fig12 profile.  The
    internal fast paths are exact because a clock never changes after it is
    built and equality is by entries, not by object:

    * a trusted constructor wraps entries that are already validated
      (merge/increment outputs can only contain positive ints);
    * ``merge`` returns an operand whenever that operand covers the other
      (``a.merge(a)``, a dependency clock merged into itself or into a newer
      clock).  Returning an existing instance is safe because nothing can
      mutate it, and the result equals the entrywise maximum.  The entry dict
      is copied lazily, only when an entry actually grows;
    * ``dominates`` is one pass over the other clock's entries: entries are
      positive, so once every entry of ``other`` is matched, ``self`` is
      strictly greater exactly when it has more entries.  The validity test
      ``concurrent_or_newer`` is one such pass, or none for the same object;
    * the derived quantities (``size_bytes``, the sorted identity tuple) are
      computed once per instance.
    """

    __slots__ = ("_entries", "_size", "_ident")

    def __init__(self, entries: Mapping[str, int] = None):
        cleaned: Dict[str, int] = {}
        for node, clock in dict(entries or {}).items():
            clock = int(clock)
            if clock < 0:
                raise ValueError(f"vector clock entries must be non-negative, got {clock}")
            if clock > 0:
                cleaned[str(node)] = clock
        self._entries = cleaned
        self._size = None
        self._ident = None

    @classmethod
    def _trusted(cls, entries: Dict[str, int]) -> "VectorClock":
        """Wrap an already-validated entry dict without copying it.

        Only for internal callers that guarantee string keys and positive int
        values; the dict must not be mutated after being handed over.
        """
        clock = object.__new__(cls)
        clock._entries = entries
        clock._size = None
        clock._ident = None
        return clock

    # -- lattice interface -------------------------------------------------
    def merge(self, other: "VectorClock") -> "VectorClock":
        if other is self:
            return self
        other = self._check_type(other)
        mine = self._entries
        theirs = other._entries
        # Merging with an empty clock is the common case on first writes;
        # immutability makes returning the non-empty operand safe.
        if not theirs:
            return self
        if not mine:
            return other
        merged = None
        # Entries of ``mine`` that ``theirs`` matches or exceeds: when that is
        # all of them, ``other`` covers ``self`` and is the join.
        covered = 0
        for node, clock in theirs.items():
            own = mine.get(node, 0)
            if clock > own:
                if merged is None:
                    merged = dict(mine)
                merged[node] = clock
                if own:
                    covered += 1
            elif clock == own:
                covered += 1
        if merged is None:
            return self
        if covered == len(mine):
            return other
        return VectorClock._trusted(merged)

    def reveal(self) -> Dict[str, int]:
        return dict(self._entries)

    # -- ordering ------------------------------------------------------------
    def increment(self, node_id: str) -> "VectorClock":
        node_id = str(node_id)
        entries = dict(self._entries)
        entries[node_id] = entries.get(node_id, 0) + 1
        return VectorClock._trusted(entries)

    def get(self, node_id: str) -> int:
        return self._entries.get(node_id, 0)

    def dominates(self, other: "VectorClock") -> bool:
        """True when ``self`` >= ``other`` in every entry and > in at least one."""
        mine = self._entries
        strictly_greater = False
        for node, clock in other._entries.items():
            own = mine.get(node, 0)
            if own < clock:
                return False
            if own > clock:
                strictly_greater = True
        # Every entry of ``other`` is matched; with positive entries only,
        # ``self`` is otherwise greater exactly when it holds extra nodes.
        return strictly_greater or len(mine) > len(other._entries)

    def dominates_or_equal(self, other: "VectorClock") -> bool:
        return self == other or self.dominates(other)

    def concurrent_with(self, other: "VectorClock") -> bool:
        return (
            self != other
            and not self.dominates(other)
            and not other.dominates(self)
        )

    def concurrent_or_newer(self, required: "VectorClock") -> bool:
        """True unless ``required`` strictly dominates ``self``.

        The causal protocols' validity test (§5.3, Algorithm 2): a local
        version may be served when it equals, dominates or is concurrent with
        the required one.  Equivalent to ``self.dominates_or_equal(required)
        or self.concurrent_with(required)``, in at most one pass instead of
        up to three.  Most checks compare a clock with itself (the dependency
        was recorded from the very version the cache holds), hence the
        identity test first.
        """
        return required is self or not required.dominates(self)

    def happened_before(self, other: "VectorClock") -> bool:
        """True when ``self`` -> ``other`` in Lamport's happens-before order."""
        return other.dominates(self)

    # -- sizing ----------------------------------------------------------------
    def size_bytes(self) -> int:
        # Each entry is a node-id string plus an 8-byte counter.
        size = self._size
        if size is None:
            size = self._size = sum(
                len(node.encode("utf-8")) + 8 for node in self._entries)
        return size

    def entries(self) -> Iterable[Tuple[str, int]]:
        return self._entries.items()

    def _identity(self) -> Tuple[Tuple[str, int], ...]:
        ident = self._ident
        if ident is None:
            ident = self._ident = tuple(sorted(self._entries.items()))
        return ident

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{node}:{clock}" for node, clock in sorted(self._entries.items()))
        return f"VectorClock({{{inner}}})"
