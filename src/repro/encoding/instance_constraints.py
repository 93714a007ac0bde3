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

This module holds Ω's types and the ground-fact closure; the procedure that
builds Ω is the compiled constraint program of :mod:`repro.encoding.compiled`.
It has two modes (``InstantiationOptions.mode``).  The *naive* mode follows
the paper literally and enumerates ordered pairs of tuples — O(|Σ|·|I_t|²).
The *projected* mode (the default) first projects tuples onto the attributes
each constraint mentions and enumerates distinct projections, which produces
exactly the same set of deduplicated instance constraints but is insensitive
to how many duplicate tuples an entity has; the ablation benchmark compares
the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.core.errors import EncodingError
from repro.core.values import Value
from repro.encoding.variables import OrderLiteral, canonical_value

__all__ = ["InstanceConstraint", "InstantiationOptions", "InstanceConstraintSet"]


@dataclass(frozen=True)
class InstanceConstraint:
    """One instance constraint: ``body → head`` over ordering atoms.

    ``head is None`` encodes an implication to *false* (the body must not hold);
    ``negated_head`` encodes a negative conclusion (no kind in Ω has one).
    """

    body: Tuple[OrderLiteral, ...]
    head: Optional[OrderLiteral]
    negated_head: bool = False
    source_kind: str = "currency"
    source_name: str = ""

    def __post_init__(self) -> None:
        if self.head is None and self.negated_head:
            raise EncodingError("a constraint without a head cannot have a negated head")

    def is_fact(self) -> bool:
        """``True`` for ground facts (empty body, positive head)."""
        return not self.body and self.head is not None and not self.negated_head

    def __str__(self) -> str:  # pragma: no cover - presentation only
        body = " ∧ ".join(str(lit) for lit in self.body) if self.body else "true"
        if self.head is None:
            head = "false"
        else:
            head = ("¬" if self.negated_head else "") + str(self.head)
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


@dataclass
class InstanceConstraintSet:
    """The result of instantiation: Ω(S_e) plus bookkeeping used by the encoder.

    The order axioms' input: ``used_values`` per attribute in first-use
    order.
    """

    constraints: List[InstanceConstraint] = field(default_factory=list)
    used_values: Dict[str, List[Value]] = field(default_factory=dict)
    inherently_invalid: bool = False
    invalid_reason: str = ""

    def __len__(self) -> int:
        return len(self.constraints)

    def __iter__(self):
        return iter(self.constraints)

    def by_kind(self, *kinds: str) -> List[InstanceConstraint]:
        """Return the constraints whose ``source_kind`` is one of *kinds*."""
        wanted = set(kinds)
        return [constraint for constraint in self.constraints if constraint.source_kind in wanted]

    def facts(self) -> List[InstanceConstraint]:
        """Ground facts (empty body)."""
        return [constraint for constraint in self.constraints if constraint.is_fact()]


def _constraint_key(constraint: InstanceConstraint) -> Tuple:
    """Deduplication key: the body atoms as a set, the head atom and its sign."""
    head = constraint.head
    return (
        frozenset((lit.attribute, lit.older, lit.newer) for lit in constraint.body),
        None if head is None else (head.attribute, head.older, head.newer),
        constraint.negated_head,
    )


# -- ground-fact closure -----------------------------------------------------------


def _close_ground_facts(result: InstanceConstraintSet, emit) -> None:
    """Transitively close the ground facts of Ω(S_e).

    Facts (unit constraints) form a ground order per attribute.  Closing them
    here detects cycles among facts eagerly: a cycle makes the whole
    specification invalid, recorded as an empty implication ``true → false``.
    The closure facts come in :meth:`PartialOrder.transitive_closure_pairs`
    order, which follows the facts' order.
    """
    from repro.core.errors import CyclicOrderError
    from repro.core.partial_order import PartialOrder

    facts_by_attribute: Dict[str, List[InstanceConstraint]] = {}
    for constraint in result.constraints:
        if constraint.is_fact():
            facts_by_attribute.setdefault(constraint.head.attribute, []).append(constraint)
    for attribute, facts in facts_by_attribute.items():
        order = PartialOrder()
        direct: Set[Tuple[Hashable, Hashable]] = set()
        for fact in facts:
            older = canonical_value(fact.head.older)
            newer = canonical_value(fact.head.newer)
            direct.add((older, newer))
            try:
                order.add(older, newer)
            except CyclicOrderError:
                result.inherently_invalid = True
                result.invalid_reason = (
                    f"the ground currency facts on attribute {attribute!r} form a cycle"
                )
                emit(InstanceConstraint(body=(), head=None, source_kind="conflict", source_name=attribute))
                return
        for older, newer in order.transitive_closure_pairs():
            if (older, newer) in direct:
                continue
            emit(
                InstanceConstraint(
                    body=(),
                    head=OrderLiteral(attribute, older, newer),
                    source_kind="closure",
                    source_name=attribute,
                )
            )
