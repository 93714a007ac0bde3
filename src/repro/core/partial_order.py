"""Strict partial orders over arbitrary hashable elements.

Currency information is represented throughout the library as strict partial
orders: tuple-level orders ``t1 ≺_A t2`` inside temporal instances, and
value-level orders ``a1 ≺^v_A a2`` deduced by the algorithms.  This module
provides the shared data structure: a DAG with incremental cycle detection,
reachability queries (i.e. membership in the transitive closure), union and
restriction operations, and extension to a total order (topological sort).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Hashable, Iterable, Iterator, List, Mapping, Set, Tuple

from repro.core.errors import CyclicOrderError

__all__ = ["PartialOrder"]


class PartialOrder:
    """A strict partial order ``≺`` maintained as a DAG of direct edges.

    The order relation itself is the transitive closure of the stored edges.
    ``precedes(a, b)`` answers "is ``a ≺ b``?" by reachability.  Adding an
    edge that would create a cycle (including a self-loop) raises
    :class:`~repro.core.errors.CyclicOrderError`, because a strict order is
    irreflexive and acyclic by definition.

    Successors and predecessors are kept in insertion-ordered dicts (values
    ``None``), so every iteration follows the order edges were added in and
    never the hash order of the elements.
    """

    __slots__ = ("_successors", "_predecessors")

    def __init__(self, pairs: Iterable[Tuple[Hashable, Hashable]] | None = None) -> None:
        self._successors: Dict[Hashable, Dict[Hashable, None]] = {}
        self._predecessors: Dict[Hashable, Dict[Hashable, None]] = {}
        if pairs is not None:
            for smaller, larger in pairs:
                self.add(smaller, larger)

    # -- construction ----------------------------------------------------

    def add_element(self, element: Hashable) -> None:
        """Register *element* without relating it to anything."""
        self._successors.setdefault(element, {})
        self._predecessors.setdefault(element, {})

    def add(self, smaller: Hashable, larger: Hashable) -> bool:
        """Record ``smaller ≺ larger``.

        Returns ``True`` when the edge is new, ``False`` when it was already
        implied directly (the exact edge existed).  Raises
        :class:`CyclicOrderError` when the edge would create a cycle.
        """
        if smaller == larger:
            raise CyclicOrderError(f"cannot add reflexive order {smaller!r} ≺ {larger!r}")
        successors = self._successors
        predecessors = self._predecessors
        succ_smaller = successors.get(smaller)
        if succ_smaller is None:
            succ_smaller = successors[smaller] = {}
            predecessors[smaller] = {}
        if larger not in successors:
            successors[larger] = {}
            predecessors[larger] = {}
        if larger in succ_smaller:
            return False
        if self.precedes(larger, smaller):
            raise CyclicOrderError(f"adding {smaller!r} ≺ {larger!r} would create a cycle")
        succ_smaller[larger] = None
        predecessors[larger][smaller] = None
        return True

    def try_add(self, smaller: Hashable, larger: Hashable) -> bool:
        """Like :meth:`add` but returns ``False`` instead of raising on a cycle."""
        try:
            return self.add(smaller, larger)
        except CyclicOrderError:
            return False

    def update(self, other: "PartialOrder") -> None:
        """Union *other* into this order (raises on cycles)."""
        for smaller, larger in other.pairs():
            self.add(smaller, larger)

    @classmethod
    def from_acyclic(cls, successors: Mapping[Hashable, Iterable[Hashable]]) -> "PartialOrder":
        """Build the order with the direct edges ``a ≺ b`` for each ``b`` in ``successors[a]``.

        The per-edge cycle check of :meth:`add` is skipped: the caller
        guarantees the edges are acyclic (e.g. a transitive closure it has
        already checked for cycles).
        """
        order = cls()
        order._successors = {smaller: dict.fromkeys(larger) for smaller, larger in successors.items()}
        predecessors = order._predecessors = {element: {} for element in order._successors}
        for smaller, larger_elements in order._successors.items():
            for larger in larger_elements:
                predecessors.setdefault(larger, {})[smaller] = None
        for element in predecessors:
            order._successors.setdefault(element, {})
        return order

    def copy(self) -> "PartialOrder":
        """Return an independent copy of this order.

        The adjacency dicts are copied structurally — the source order is
        acyclic by construction, so re-running the per-edge cycle check of
        :meth:`add` (a BFS per edge) would only re-derive what already holds.
        """
        clone = PartialOrder()
        clone._successors = {element: dict(successors) for element, successors in self._successors.items()}
        clone._predecessors = {
            element: dict(predecessors) for element, predecessors in self._predecessors.items()
        }
        return clone

    # -- queries ---------------------------------------------------------

    @property
    def elements(self) -> FrozenSet[Hashable]:
        """All registered elements."""
        return frozenset(self._successors)

    def pairs(self) -> Iterator[Tuple[Hashable, Hashable]]:
        """Iterate over the stored direct edges ``(smaller, larger)``."""
        for smaller, successors in self._successors.items():
            for larger in successors:
                yield (smaller, larger)

    def successor_map(self) -> Dict[Hashable, Dict[Hashable, None]]:
        """The internal element → direct-successors adjacency, NOT a copy.

        Hot paths (constraint grounding) iterate hundreds of thousands of
        edges; this accessor skips the per-edge generator overhead of
        :meth:`pairs`.  Callers must treat the mapping as read-only.
        """
        return self._successors

    def __len__(self) -> int:
        """Number of stored direct edges (|≺| as used for |O_t| in the paper)."""
        return sum(len(successors) for successors in self._successors.values())

    def __contains__(self, pair: object) -> bool:
        if not isinstance(pair, tuple) or len(pair) != 2:
            return False
        return self.precedes(pair[0], pair[1])

    def precedes(self, smaller: Hashable, larger: Hashable) -> bool:
        """Return ``True`` when ``smaller ≺ larger`` holds in the transitive closure."""
        if smaller == larger:
            return False
        successors = self._successors
        direct = successors.get(smaller)
        if not direct or not self._predecessors.get(larger):
            return False
        if larger in direct:
            return True
        # Breadth-first search from `smaller` following successor edges.
        seen: Set[Hashable] = {smaller}
        frontier: deque[Hashable] = deque([smaller])
        while frontier:
            node = frontier.popleft()
            for successor in successors.get(node, ()):
                if successor == larger:
                    return True
                if successor not in seen:
                    seen.add(successor)
                    frontier.append(successor)
        return False

    def comparable(self, a: Hashable, b: Hashable) -> bool:
        """Return ``True`` when *a* and *b* are ordered one way or the other."""
        return self.precedes(a, b) or self.precedes(b, a)

    def maximal_elements(self, among: Iterable[Hashable] | None = None) -> Set[Hashable]:
        """Return the elements with no successor (restricted to *among* if given)."""
        candidates = set(among) if among is not None else set(self._successors)
        maximal: Set[Hashable] = set()
        for element in candidates:
            successors = self._successors.get(element, {})
            if not (successors.keys() & candidates if among is not None else successors):
                maximal.add(element)
        return maximal

    def minimal_elements(self, among: Iterable[Hashable] | None = None) -> Set[Hashable]:
        """Return the elements with no predecessor (restricted to *among* if given)."""
        candidates = set(among) if among is not None else set(self._predecessors)
        minimal: Set[Hashable] = set()
        for element in candidates:
            predecessors = self._predecessors.get(element, {})
            if not (predecessors.keys() & candidates if among is not None else predecessors):
                minimal.add(element)
        return minimal

    def transitive_closure_pairs(self) -> List[Tuple[Hashable, Hashable]]:
        """Return all pairs ``(a, b)`` with ``a ≺ b`` (the full order relation).

        Each pair comes once, ordered by ``a``'s insertion and then
        breadth-first from ``a`` along the edges in insertion order.
        """
        closure: List[Tuple[Hashable, Hashable]] = []
        for start in self._successors:
            seen: Set[Hashable] = set()
            frontier: deque[Hashable] = deque(self._successors[start])
            while frontier:
                node = frontier.popleft()
                if node in seen:
                    continue
                seen.add(node)
                closure.append((start, node))
                frontier.extend(self._successors.get(node, ()))
        return closure

    def is_subset_of(self, other: "PartialOrder") -> bool:
        """Return ``True`` when every ordered pair of this order also holds in *other*."""
        return all(other.precedes(smaller, larger) for smaller, larger in self.pairs())

    # -- completion ------------------------------------------------------

    def topological_order(self, elements: Iterable[Hashable] | None = None) -> list[Hashable]:
        """Return a total order (least to greatest) consistent with this partial order.

        *elements* may add isolated elements that must appear in the result.
        Ties are broken deterministically by the string representation of the
        elements so that completions are reproducible.
        """
        universe: Set[Hashable] = set(self._successors)
        if elements is not None:
            universe |= set(elements)
        indegree: Dict[Hashable, int] = {element: 0 for element in universe}
        for _, larger in self.pairs():
            if larger in indegree:
                indegree[larger] += 1
        ready = sorted((element for element, degree in indegree.items() if degree == 0), key=repr)
        result: list[Hashable] = []
        ready_queue = deque(ready)
        while ready_queue:
            node = ready_queue.popleft()
            result.append(node)
            newly_ready = []
            for successor in sorted(self._successors.get(node, ()), key=repr):
                if successor not in indegree:
                    continue
                indegree[successor] -= 1
                if indegree[successor] == 0:
                    newly_ready.append(successor)
            for successor in sorted(newly_ready, key=repr):
                ready_queue.append(successor)
        if len(result) != len(universe):
            raise CyclicOrderError("partial order contains a cycle; no total extension exists")
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PartialOrder):
            return NotImplemented
        return set(self.transitive_closure_pairs()) == set(other.transitive_closure_pairs())

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        edges = ", ".join(f"{s!r}≺{l!r}" for s, l in sorted(self.pairs(), key=repr))
        return f"PartialOrder({edges})"
