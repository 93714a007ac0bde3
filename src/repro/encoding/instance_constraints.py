"""Instance constraints Ω(S_e): the output of the ``Instantiation`` procedure.

Paper Section V-A expresses the partial currency orders, the currency
constraints and the constant CFDs of a specification as a uniform set of
implications over the value-level ordering atoms ``a1 ≺^v_A a2``:

* **currency orders** — every recorded edge ``t1 ⪯_A t2`` with differing
  values becomes the fact ``true → t1[A] ≺^v t2[A]``;
* **currency constraints** — each constraint is instantiated on tuple pairs:
  the comparison predicates are evaluated to truth values and the order
  predicates are replaced by value-level atoms;
* **constant CFDs** — ``t_p[X] → t_p[B]`` becomes, for every other value ``b``
  of ``B``'s active domain, the implication "if every other X value is less
  current than the pattern values then ``b ≺^v t_p[B]``".

Ω holds the constraints that carry information: these three kinds, the
closure of the ground facts and, when the facts form a cycle, a conflict.
The structural axioms (each ``≺^v_A`` is a strict total order) follow from
the used values, so Ω keeps only their input, ``used_values``, and the
encoder writes them straight into Φ
(:func:`~repro.encoding.cnf_encoder.emit_order_axioms`).

This module holds Ω's types; the procedure that builds Ω is the compiled
constraint program of :mod:`repro.encoding.compiled`.  Ω is kept as compact
records (:data:`Record`: kind, source name, body triples, head triple), from
which the encoder writes Φ's clauses as integers; the
:class:`InstanceConstraint` objects are built only when ``constraints`` is
read.  The program has two modes (``InstantiationOptions.mode``).  The *naive*
mode follows the paper literally and enumerates ordered pairs of tuples —
O(|Σ|·|I_t|²).  The *projected* mode (the default) first projects tuples onto
the attributes each constraint mentions and enumerates distinct projections,
which produces exactly the same set of deduplicated instance constraints but
is insensitive to how many duplicate tuples an entity has; the ablation
benchmark compares the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, Iterable, List, Optional, Tuple

from repro.core.values import Value
from repro.encoding.variables import OrderLiteral

__all__ = ["InstanceConstraint", "InstantiationOptions", "InstanceConstraintSet"]

#: An order atom ``older ≺^v_attribute newer`` as a plain ``(attribute, older, newer)`` triple.
Triple = Tuple[str, Value, Value]
#: One element of Ω: ``(kind, source name, body triples, head triple or None)``.
Record = Tuple[str, str, Tuple[Triple, ...], Optional[Triple]]


@dataclass(frozen=True)
class InstanceConstraint:
    """One instance constraint: ``body → head`` over ordering atoms.

    ``head is None`` encodes an implication to *false* (the body must not hold).
    """

    body: Tuple[OrderLiteral, ...]
    head: Optional[OrderLiteral]
    source_kind: str = "currency"
    source_name: str = ""

    def is_fact(self) -> bool:
        """``True`` for ground facts (empty body, a head)."""
        return not self.body and self.head is not None

    def __str__(self) -> str:  # pragma: no cover - presentation only
        body = " ∧ ".join(str(lit) for lit in self.body) if self.body else "true"
        head = "false" if self.head is None else str(self.head)
        return f"{body} → {head}"


@dataclass
class InstantiationOptions:
    """Options of the instantiation procedure.

    Attributes
    ----------
    mode:
        ``"projected"`` (default) or ``"naive"`` — see the module docstring.
    """

    mode: str = "projected"


def _constraint_of(record: Record) -> InstanceConstraint:
    kind, source_name, body, head = record
    return InstanceConstraint(
        body=tuple(OrderLiteral._trusted(*triple) for triple in body),
        head=None if head is None else OrderLiteral._trusted(*head),
        source_kind=kind,
        source_name=source_name,
    )


@dataclass
class InstanceConstraintSet:
    """The result of instantiation: Ω(S_e) as records, plus the order axioms' input.

    ``records`` lists Ω in order; ``used_values`` holds, per attribute, the
    values Ω uses, in first-use order.  ``len()`` counts the records, and
    :attr:`constraints` builds the :class:`InstanceConstraint` objects from
    them when it is read.
    """

    records: List[Record] = field(default_factory=list)
    used_values: Dict[str, List[Value]] = field(default_factory=dict)
    inherently_invalid: bool = False
    invalid_reason: str = ""

    @property
    def constraints(self) -> List[InstanceConstraint]:
        """Ω as :class:`InstanceConstraint` objects, in record order."""
        return [_constraint_of(record) for record in self.records]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.constraints)

    def by_kind(self, *kinds: str) -> List[InstanceConstraint]:
        """Return the constraints whose ``source_kind`` is one of *kinds*."""
        wanted = set(kinds)
        return [_constraint_of(record) for record in self.records if record[0] in wanted]

    def facts(self) -> List[InstanceConstraint]:
        """Ground facts (empty body)."""
        return [_constraint_of(record) for record in self.records if not record[2] and record[3] is not None]


def _record_key(body: Iterable[Triple], head: Optional[Triple]) -> Hashable:
    """Deduplication key of an Ω element (its body may come as a frozenset already).

    A ground fact is keyed by its head triple, anything else by its body
    atoms as a set and its head; the two key spaces never meet (a triple
    starts with a string, the pair with a frozenset).
    """
    atoms = frozenset(body)
    if not atoms and head is not None:
        return head
    return (atoms, head)
