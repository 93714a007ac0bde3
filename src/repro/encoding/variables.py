"""Ordering variables ``x^A_{a1,a2}`` and their registry (paper Section V-A).

Every predicate ``a1 ≺^v_A a2`` ("value a2 is more current than value a1 in
attribute A") is mapped to a signed literal.  A completion orders each pair
of distinct values one way or the other, so one variable stands for the
*unordered* pair: the orientation registered first is the positive literal
and the reversed atom is its negation.  The registry performs the mapping in
both directions, canonicalising values so that, e.g., the NULL marker always
maps to the same key.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterator, Optional, Tuple

from repro.core.errors import EncodingError
from repro.core.values import NULL, Null, Value

__all__ = ["OrderLiteral", "OrderVariableRegistry", "VariablePool", "canonical_value"]


def canonical_value(value: Value) -> Hashable:
    """Return a hashable canonical key for *value* (NULL collapses to one key)."""
    if value is None or value is NULL:
        return NULL
    return NULL if isinstance(value, Null) else value


@dataclass(frozen=True)
class OrderLiteral:
    """The atom ``older ≺^v_attribute newer``."""

    attribute: str
    older: Value
    newer: Value

    def __post_init__(self) -> None:
        object.__setattr__(self, "older", canonical_value(self.older))
        object.__setattr__(self, "newer", canonical_value(self.newer))
        if self.older == self.newer:
            raise EncodingError(
                f"reflexive order literal {self.older!r} ≺ {self.newer!r} on {self.attribute!r}"
            )

    @classmethod
    def _trusted(cls, attribute: str, older: Value, newer: Value) -> "OrderLiteral":
        """Build a literal from values already canonical and known distinct.

        The grounding hot loops compare the operands before emitting and draw
        them from normalised instances, so the ``__post_init__`` work is
        redundant there; everything else must go through the constructor.
        """
        literal = object.__new__(cls)
        object.__setattr__(literal, "attribute", attribute)
        object.__setattr__(literal, "older", older)
        object.__setattr__(literal, "newer", newer)
        return literal

    def reversed(self) -> "OrderLiteral":
        """The atom with the two values swapped (``newer ≺ older``)."""
        return OrderLiteral(self.attribute, self.newer, self.older)

    def __str__(self) -> str:  # pragma: no cover - presentation only
        return f"{self.older!r} ≺_{self.attribute} {self.newer!r}"


class VariablePool:
    """Allocates fresh propositional variables ``1, 2, …``: one counter bump each."""

    def __init__(self) -> None:
        self._count = 0

    @property
    def count(self) -> int:
        """Number of variables allocated so far."""
        return self._count

    def new_variable(self) -> int:
        """Allocate and return a fresh variable."""
        self._count += 1
        return self._count


class OrderVariableRegistry:
    """Bidirectional mapping between :class:`OrderLiteral` atoms and signed SAT literals.

    A pair of values gets one variable, in the orientation it is first
    registered in (its *canonical atom*): ``a ≺ b`` maps to ``+v`` and
    ``b ≺ a`` to ``−v``.  Lookups by atom return signed literals; lookups by
    variable return the canonical atom.
    """

    def __init__(self) -> None:
        self._pool = VariablePool()
        self._by_literal: Dict[Tuple[str, Hashable, Hashable], int] = {}
        self._by_variable: Dict[int, OrderLiteral] = {}

    # -- registration ------------------------------------------------------

    def variable(self, literal: OrderLiteral) -> int:
        """Return the signed literal for *literal*, allocating its variable on first use."""
        return self.variable_for(literal.attribute, literal.older, literal.newer, literal)

    def variable_for(
        self, attribute: str, older: Hashable, newer: Hashable, atom: Optional[OrderLiteral] = None
    ) -> int:
        """Return the signed literal for ``older ≺ newer`` on *attribute*.

        A pair seen for the first time gets a new variable with this
        orientation as its positive literal.  The values must be canonical
        and distinct.  Only a new variable builds an :class:`OrderLiteral`,
        its canonical atom, when no *atom* is given.
        """
        existing = self._by_literal.get((attribute, older, newer))
        if existing is not None:
            return existing
        if atom is None:
            atom = OrderLiteral._trusted(attribute, older, newer)
        variable = self._pool.new_variable()
        self._by_literal[(attribute, older, newer)] = variable
        self._by_literal[(attribute, newer, older)] = -variable
        self._by_variable[variable] = atom
        return variable

    def find(self, literal: OrderLiteral) -> Optional[int]:
        """Return the signed literal for *literal* if its pair was registered, else ``None``."""
        return self._by_literal.get((literal.attribute, literal.older, literal.newer))

    def find_for(self, attribute: str, older: Hashable, newer: Hashable) -> Optional[int]:
        """Return the signed literal for ``older ≺ newer`` on *attribute* if registered, else ``None``.

        The values must be canonical; no :class:`OrderLiteral` is built.
        """
        return self._by_literal.get((attribute, older, newer))

    def auxiliary_variable(self) -> int:
        """Allocate a fresh variable that does *not* stand for an ordering atom.

        The incremental encoder uses these as guard (selector) literals for
        retractable clauses; drawing them from the same pool keeps the DIMACS
        variable space free of collisions.  :meth:`get` returns ``None`` for
        them, which is how the deduction algorithms tell guards apart from
        ordering variables.
        """
        return self._pool.new_variable()

    def decode(self, variable: int) -> OrderLiteral:
        """Return the canonical atom of *variable* (its positive literal)."""
        try:
            return self._by_variable[variable]
        except KeyError:
            raise EncodingError(f"variable {variable} is not an ordering variable") from None

    def get(self, variable: int) -> Optional[OrderLiteral]:
        """Return the canonical atom of *variable*, or ``None`` for auxiliary/guard variables."""
        return self._by_variable.get(variable)

    def decode_literal(self, literal: int) -> Tuple[OrderLiteral, bool]:
        """Decode a signed SAT literal into (canonical atom, positive?)."""
        return self.decode(abs(literal)), literal > 0

    # -- inspection ----------------------------------------------------------

    @property
    def num_variables(self) -> int:
        """Number of variables allocated: one per registered value pair, plus auxiliaries."""
        return self._pool.count

    def literals(self) -> Iterator[Tuple[OrderLiteral, int]]:
        """Iterate over all registered (canonical atom, variable) pairs."""
        for variable, literal in self._by_variable.items():
            yield literal, variable

    def variables_for_attribute(self, attribute: str) -> Dict[int, OrderLiteral]:
        """All registered variables whose canonical atom orders values of *attribute*."""
        return {
            variable: literal
            for variable, literal in self._by_variable.items()
            if literal.attribute == attribute
        }

    def __len__(self) -> int:
        return self._pool.count
