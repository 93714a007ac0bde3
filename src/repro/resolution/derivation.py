"""True-value derivation rules — procedure ``TrueDer`` (paper Section V-C.1).

A derivation rule ``(X, P[X]) → (B, b)`` states: *if* ``P[X]`` are the true
values of the attributes ``X`` *then* ``b`` is the true value of ``B``.  Rules
are extracted from two sources:

1. every constant CFD whose pattern is compatible with the already-known true
   values contributes the rule ``(X_ψ, t_p[X_ψ]) → (B_ψ, t_p[B_ψ])``;
2. the instance constraints that stem from currency orders and currency
   constraints are grouped by their head value: ``b`` is derivable as the true
   value of ``B`` once, for every other candidate ``b_i``, some instance
   constraint concludes ``b_i ≺^v b``; the bodies of the chosen constraints
   supply ``X`` and ``P[X]`` (the more-current value of each body literal).

The extraction is the heuristic of the paper: it runs in time linear in
|Ω(S_e)| and may miss rules that would need several constraints per ``b_i``,
which is acceptable because suggestions only have to be *sufficient*, not
minimal (minimality is Σ^p_2-hard, Corollary 7).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Sequence, Tuple

from repro.core.specification import Specification, TrueValueAssignment
from repro.core.values import Value, values_equal
from repro.encoding.cnf_encoder import SpecificationEncoding
from repro.encoding.instance_constraints import Triple
from repro.encoding.variables import canonical_value

__all__ = ["DerivationRule", "derive_rules"]

#: Instance-constraint kinds that may contribute derivation rules
#: (constant CFDs are handled separately, structural axioms never contribute).
_RULE_SOURCE_KINDS = ("order", "currency", "closure")


@dataclass(frozen=True)
class DerivationRule:
    """A true-value derivation rule ``(X, P[X]) → (B, b)``."""

    preconditions: Tuple[Tuple[str, Value], ...]
    target_attribute: str
    target_value: Value
    source: str = ""

    def __init__(
        self,
        preconditions: Mapping[str, Value] | Sequence[Tuple[str, Value]],
        target_attribute: str,
        target_value: Value,
        source: str = "",
    ) -> None:
        if isinstance(preconditions, Mapping):
            items = tuple(sorted(preconditions.items()))
        else:
            items = tuple(sorted(preconditions))
        object.__setattr__(self, "preconditions", items)
        object.__setattr__(self, "target_attribute", target_attribute)
        object.__setattr__(self, "target_value", target_value)
        object.__setattr__(self, "source", source)

    @property
    def precondition_attributes(self) -> Tuple[str, ...]:
        """The attribute set ``X``."""
        return tuple(attribute for attribute, _ in self.preconditions)

    def precondition_map(self) -> Dict[str, Value]:
        """The pattern ``P[X]`` as a dictionary."""
        return dict(self.preconditions)

    def combined_assignment(self) -> Dict[str, Value]:
        """``P[X]`` extended with the conclusion (used by the compatibility graph)."""
        combined = self.precondition_map()
        combined[self.target_attribute] = self.target_value
        return combined

    def __str__(self) -> str:  # pragma: no cover - presentation only
        lhs = ", ".join(f"{attribute}={value!r}" for attribute, value in self.preconditions) or "true"
        return f"({lhs}) → ({self.target_attribute}, {self.target_value!r})"


def _value_in(value: Value, collection: Sequence[Value]) -> bool:
    return any(values_equal(value, existing) for existing in collection)


def _rules_from_cfds(
    spec: Specification,
    candidates: Mapping[str, Sequence[Value]],
    known: TrueValueAssignment,
) -> List[DerivationRule]:
    rules: List[DerivationRule] = []
    for cfd in spec.cfds:
        if cfd.rhs_attribute in known:
            continue
        compatible = True
        for attribute, pattern_value in cfd.lhs:
            if attribute in known:
                if not values_equal(known[attribute], pattern_value):
                    compatible = False
                    break
            else:
                allowed = candidates.get(attribute, ())
                if not _value_in(pattern_value, allowed):
                    compatible = False
                    break
        if not compatible:
            continue
        preconditions = {
            attribute: pattern_value for attribute, pattern_value in cfd.lhs if attribute not in known
        }
        rules.append(
            DerivationRule(
                preconditions,
                cfd.rhs_attribute,
                cfd.rhs_value,
                source=f"cfd:{cfd.name or str(cfd)}",
            )
        )
    return rules


#: An Ω record's body and head triples.
_Implication = Tuple[Tuple[Triple, ...], Triple]


def _index_constraints_by_head(
    encoding: SpecificationEncoding,
) -> Dict[Tuple[str, Hashable], List[_Implication]]:
    """Partition the order/currency/closure records of Ω by (attribute, head newer value)."""
    index: Dict[Tuple[str, Hashable], List[_Implication]] = {}
    for kind, _, body, head in encoding.omega.records:
        if kind not in _RULE_SOURCE_KINDS or head is None:
            continue
        index.setdefault((head[0], canonical_value(head[2])), []).append((body, head))
    return index


def _try_build_rule(
    attribute: str,
    value: Value,
    required_older: Sequence[Value],
    constraints: Sequence[_Implication],
    candidates: Mapping[str, Sequence[Value]],
    known: TrueValueAssignment,
) -> Optional[DerivationRule]:
    """Assemble one rule concluding (attribute, value); ``None`` when impossible."""
    preconditions: Dict[str, Value] = {}
    for older in required_older:
        chosen = False
        for body, head in constraints:
            if not values_equal(head[1], older):
                continue
            usable = True
            tentative: Dict[str, Value] = {}
            for body_attribute, _, assumed_current in body:
                if body_attribute in known:
                    if not values_equal(known[body_attribute], assumed_current):
                        usable = False
                        break
                    continue
                allowed = candidates.get(body_attribute, ())
                if not _value_in(assumed_current, allowed):
                    usable = False
                    break
                existing = tentative.get(body_attribute, preconditions.get(body_attribute))
                if existing is not None and not values_equal(existing, assumed_current):
                    usable = False
                    break
                tentative[body_attribute] = assumed_current
            if usable:
                chosen = True
                preconditions.update(tentative)
                break
        if not chosen:
            return None
    return DerivationRule(preconditions, attribute, value, source="currency")


def derive_rules(
    encoding: SpecificationEncoding,
    candidates: Mapping[str, Sequence[Value]],
    known: TrueValueAssignment,
) -> List[DerivationRule]:
    """Run ``TrueDer``: derive rules for every attribute whose true value is unknown.

    Parameters
    ----------
    encoding:
        The encoded specification (supplies Ω(S_e) and Γ).
    candidates:
        ``V(A)`` for every unknown attribute — the candidate true values
        computed by ``DeriveVR``.
    known:
        The already-deduced (or user-validated) true values ``V_B``.
    """
    spec = encoding.specification
    rules = _rules_from_cfds(spec, candidates, known)
    by_head = _index_constraints_by_head(encoding)
    for attribute, attribute_candidates in candidates.items():
        if attribute in known or len(attribute_candidates) == 0:
            continue
        for value in attribute_candidates:
            others = [other for other in attribute_candidates if not values_equal(other, value)]
            if not others:
                continue
            constraints = by_head.get((attribute, canonical_value(value)), [])
            if not constraints:
                continue
            rule = _try_build_rule(attribute, value, others, constraints, candidates, known)
            if rule is not None:
                rules.append(rule)
    # Deduplicate (the same rule can arise from several constraints).
    unique: Dict[Tuple, DerivationRule] = {}
    for rule in rules:
        key = (rule.preconditions, rule.target_attribute, canonical_value(rule.target_value))
        unique.setdefault(key, rule)
    return list(unique.values())
