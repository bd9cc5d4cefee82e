"""Causal lattice: vector clock + dependency set + value (§5.2).

In causal-consistency mode, Cloudburst encapsulates each key ``k`` in the
composition of

* an Anna-provided :class:`~repro.lattices.vector_clock.VectorClock`
  identifying ``k``'s version,
* a *dependency set* mapping each key version that ``k`` causally depends on
  to its vector clock, and
* the value itself.

Merge keeps the version whose vector clock dominates; concurrent versions are
both retained.  Internally the lattice is a *multi-value register*: an
antichain of ``(vector clock, value)`` siblings.  Merge unions the siblings
and discards any sibling dominated by another — this construction is
associative, commutative and idempotent (property-tested), which is exactly
the contract Anna requires.  The user-visible ``reveal`` presents one version
chosen by a deterministic tie break; all concurrent versions remain available
to the consistency protocols and to applications that resolve conflicts
manually.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Optional, Tuple

from .base import Lattice, estimate_size
from .vector_clock import VectorClock

#: One concurrent version of a key: (vector clock, payload).
Sibling = Tuple[VectorClock, Any]


class CausalLattice(Lattice):
    """A causally versioned value (multi-value register plus dependency set).

    The lattice is immutable: every mutation-shaped API (``merge``,
    ``with_dependency``) returns a lattice and nothing may mutate
    ``dependencies`` in place.  That makes the merge fast paths exact:

    * ``merge`` returns ``self`` when ``other`` adds nothing to it (same
      object, or every sibling and dependency clock of ``other`` is already
      held by identity or covered), and ``with_dependency`` returns ``self``
      when the clock is already covered.  The result equals what a fresh
      build would produce; it is merely not a new object.
    * A dependency whose clock ``is`` the one already held is skipped, and a
      merged dependency dict is copied only when some clock actually grows.
    * Derived quantities (the joined vector clock, metadata bytes, payload
      bytes) are computed at most once per instance.  A merge whose surviving
      siblings are the *same value objects* (``is``) as one operand's
      inherits that operand's payload size (and joined clock, when the
      sibling clocks are the same objects too): an identical object has an
      identical size, so the growing Retwis post lists are not re-walked.
      Equal but distinct values are always re-measured.
    """

    __slots__ = ("dependencies", "_siblings", "_clock", "_meta_bytes",
                 "_payload_bytes", "_total_bytes")

    def __init__(self, vector_clock: Optional[VectorClock] = None, value: Any = None,
                 dependencies: Optional[Mapping[str, VectorClock]] = None,
                 siblings: Optional[Iterable[Sibling]] = None):
        self.dependencies: Dict[str, VectorClock] = dict(dependencies or {})
        if siblings is not None:
            candidate = list(siblings)
        else:
            candidate = [(vector_clock or VectorClock(), value)]
        self._siblings: Tuple[Sibling, ...] = _prune(candidate)
        # Derived quantities, computed on first use.  Safe to cache: the
        # lattice is immutable.  The causal protocols consult
        # vector_clock/metadata_bytes/size_bytes on every read, which made
        # re-deriving them the single hottest path in a fig12 profile.
        self._clock: Optional[VectorClock] = None
        self._meta_bytes: Optional[int] = None
        self._payload_bytes: Optional[int] = None
        self._total_bytes: Optional[int] = None

    @classmethod
    def _assemble(cls, dependencies: Dict[str, VectorClock],
                  siblings: Tuple[Sibling, ...],
                  source: Optional["CausalLattice"] = None) -> "CausalLattice":
        """Wrap a dependency dict and an already-pruned antichain, uncopied.

        ``source`` is a lattice whose siblings hold the same value objects
        as ``siblings``; its computed payload size (and joined clock, when
        the sibling clocks are the same objects too) carries over.
        """
        lattice = object.__new__(cls)
        lattice.dependencies = dependencies
        lattice._siblings = siblings
        lattice._clock = None
        lattice._meta_bytes = None
        lattice._payload_bytes = None
        lattice._total_bytes = None
        if source is not None:
            lattice._payload_bytes = source._payload_bytes
            if source._siblings is siblings:
                lattice._clock = source._clock
        return lattice

    # -- lattice interface ---------------------------------------------------
    def merge(self, other: "CausalLattice") -> "CausalLattice":
        if other is self:
            return self
        other = self._check_type(other)
        deps = self.dependencies
        merged_deps = None
        for key, clock in other.dependencies.items():
            held = deps.get(key)
            if held is clock:
                continue
            joined = clock if held is None else held.merge(clock)
            if joined is held:
                continue
            if merged_deps is None:
                merged_deps = dict(deps)
            merged_deps[key] = joined
        mine, theirs = self._siblings, other._siblings
        if _holds_all(mine, theirs):
            siblings = mine
        elif _holds_all(theirs, mine):
            siblings = theirs
        else:
            siblings = _prune(mine + theirs)
        if merged_deps is None:
            if siblings is mine:
                return self
            merged_deps = deps
        if _same_values(siblings, mine):
            source = self
        elif _same_values(siblings, theirs):
            source = other
        else:
            source = None
        return CausalLattice._assemble(merged_deps, siblings, source)

    def reveal(self) -> Any:
        """Return one version via a deterministic tie break (§5.2)."""
        if len(self._siblings) == 1:
            return self._siblings[0][1]
        return min((value for _, value in self._siblings), key=_tie_break_key)

    # -- accessors -------------------------------------------------------------
    @property
    def vector_clock(self) -> VectorClock:
        """The key's version: the join of all concurrent siblings' clocks."""
        clock = self._clock
        if clock is None:
            siblings = self._siblings
            clock = siblings[0][0] if siblings else VectorClock()
            for sibling_clock, _ in siblings[1:]:
                clock = clock.merge(sibling_clock)
            self._clock = clock
        return clock

    @property
    def concurrent_values(self) -> Tuple[Any, ...]:
        """Every concurrent version retained by the lattice."""
        return tuple(value for _, value in self._siblings)

    @property
    def siblings(self) -> Tuple[Sibling, ...]:
        return self._siblings

    @property
    def is_conflicted(self) -> bool:
        return len(self._siblings) > 1

    def with_dependency(self, key: str, clock: VectorClock) -> "CausalLattice":
        held = self.dependencies.get(key)
        joined = clock if held is None else held.merge(clock)
        if joined is held:
            return self
        deps = dict(self.dependencies)
        deps[key] = joined
        return CausalLattice._assemble(deps, self._siblings, self)

    def metadata_bytes(self) -> int:
        """Size of the causal metadata (vector clocks + dependency set).

        This is the quantity reported in §6.2.1 (median 624 B, p99 7.1 KB in
        the paper's deployment).
        """
        meta = self._meta_bytes
        if meta is None:
            deps_bytes = sum(
                len(key.encode("utf-8")) + clock.size_bytes()
                for key, clock in self.dependencies.items()
            )
            clock_bytes = sum(clock.size_bytes() for clock, _ in self._siblings)
            meta = self._meta_bytes = clock_bytes + deps_bytes
        return meta

    def size_bytes(self) -> int:
        total = self._total_bytes
        if total is None:
            total = self._total_bytes = self.metadata_bytes() + self._payload_size()
        return total

    def _payload_size(self) -> int:
        payload = self._payload_bytes
        if payload is None:
            payload = self._payload_bytes = sum(
                estimate_size(v) for _, v in self._siblings)
        return payload

    def _identity(self) -> Any:
        return (
            tuple(sorted(self.dependencies.items())),
            tuple(sorted(((clock, _tie_break_key(value)) for clock, value in self._siblings),
                         key=lambda pair: (pair[0]._identity(), pair[1]))),
        )


def _prune(siblings: Iterable[Sibling]) -> Tuple[Sibling, ...]:
    """Reduce a set of versions to its antichain (drop dominated/duplicate ones)."""
    siblings = list(siblings)
    if len(siblings) == 1:
        # A single version is trivially an antichain; skip the domination
        # sweep and — more importantly — the repr-based tie-break sort key,
        # which is O(payload) and dominated causal writes of large values.
        return (siblings[0],)
    unique: list = []
    for clock, value in siblings:
        if not any(c == clock and (v is value or _values_equal(v, value))
                   for c, v in unique):
            unique.append((clock, value))
    kept = []
    for index, (clock, value) in enumerate(unique):
        dominated = False
        for other_index, (other_clock, other_value) in enumerate(unique):
            if index == other_index:
                continue
            if other_clock.dominates(clock):
                dominated = True
                break
            if other_clock == clock:
                # Same clock, different payload: keep only the deterministically
                # smallest payload (ties broken by list position).
                other_key, self_key = _tie_break_key(other_value), _tie_break_key(value)
                if other_key < self_key or (other_key == self_key and other_index < index):
                    dominated = True
                    break
        if not dominated:
            kept.append((clock, value))
    if len(kept) > 1:
        kept.sort(key=lambda pair: (pair[0]._identity(), _tie_break_key(pair[1])))
    return tuple(kept)


def _holds_all(held: Tuple[Sibling, ...], incoming: Tuple[Sibling, ...]) -> bool:
    """Whether every incoming sibling is one of ``held``'s, by identity.

    ``held`` is a pruned antichain, so pruning ``held + incoming`` would
    drop every incoming duplicate and return ``held`` unchanged.
    """
    if incoming is held:
        return True
    for clock, value in incoming:
        for held_clock, held_value in held:
            if held_clock is clock and held_value is value:
                break
        else:
            return False
    return True


def _same_values(a: Tuple[Sibling, ...], b: Tuple[Sibling, ...]) -> bool:
    """Whether two sibling tuples carry the same value objects, in order."""
    return len(a) == len(b) and all(x[1] is y[1] for x, y in zip(a, b))


def _values_equal(a: Any, b: Any) -> bool:
    try:
        return bool(a == b)
    except Exception:  # e.g. numpy arrays with ambiguous truth values
        return a is b


def _tie_break_key(value: Any) -> str:
    """Arbitrary but deterministic ordering over opaque Python values."""
    return f"{type(value).__name__}:{value!r}"
