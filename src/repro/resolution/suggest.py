"""Suggestion generation — ``DeriveVR``, ``Suggest`` and ``GetSug``
(paper Section V-C).

Given a specification whose true value is not yet fully determined, a
*suggestion* is a set ``A`` of attributes (with candidate values ``V(A)``)
such that, once a user validates true values for ``A``, the true value of the
whole entity can be deduced automatically.  The pipeline is:

1. ``DeriveVR`` — candidate true values ``V(A)`` = active-domain values not
   dominated in the deduced order O_d;
2. ``TrueDer`` — derivation rules (see :mod:`repro.resolution.derivation`);
3. ``CompGraph`` + maximum clique — the largest set of rules that can fire
   together;
4. ``GetSug`` — repair the clique against Φ(S_e) with group MaxSAT, probing
   the session of the :class:`~repro.encoding.incremental.IncrementalEncoder`
   that holds Φ(S_e) (rules whose assumed values contradict the
   specification are dropped), then pick
   ``A = R \\ (A' ∪ B)`` where ``A'`` are the attributes the surviving rules
   derive and ``B`` the attributes already resolved.  A closure step ensures
   the returned suggestion really is sufficient (the clique's rules may depend
   on each other's outputs).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.core.specification import Specification, TrueValueAssignment
from repro.core.values import Value, values_equal
from repro.encoding.cnf_encoder import SpecificationEncoding
from repro.encoding.incremental import IncrementalEncoder
from repro.encoding.variables import OrderLiteral
from repro.resolution.compatibility import compatibility_graph
from repro.resolution.deduce import DeducedOrders
from repro.resolution.derivation import DerivationRule, derive_rules
from repro.solvers.clique import max_clique
from repro.solvers.maxsat import solve_group_maxsat

__all__ = ["Suggestion", "SuggestOptions", "derive_candidate_values", "suggest"]


@dataclass
class SuggestOptions:
    """Tuning knobs for suggestion generation."""

    clique_method: str = "exact"
    maxsat_strategy: str = "exact"


@dataclass
class Suggestion:
    """A suggestion ``(A, V(A))`` plus diagnostic information."""

    attributes: Tuple[str, ...]
    candidates: Dict[str, List[Value]] = field(default_factory=dict)
    derivable_attributes: Tuple[str, ...] = ()
    rules: Tuple[DerivationRule, ...] = ()
    kept_rules: Tuple[DerivationRule, ...] = ()
    sat_calls: int = 0

    def is_empty(self) -> bool:
        """``True`` when no user input is requested."""
        return not self.attributes

    def __str__(self) -> str:  # pragma: no cover - presentation only
        parts = []
        for attribute in self.attributes:
            values = ", ".join(repr(value) for value in self.candidates.get(attribute, []))
            parts.append(f"{attribute} ∈ {{{values}}}")
        return "; ".join(parts) if parts else "(no input needed)"


def derive_candidate_values(
    spec: Specification, deduced: DeducedOrders, known: TrueValueAssignment
) -> Dict[str, List[Value]]:
    """``DeriveVR``: candidate true values for every attribute not yet resolved."""
    candidates: Dict[str, List[Value]] = {}
    for attribute in spec.schema.attribute_names:
        if attribute in known:
            continue
        domain = spec.instance.active_domain(attribute)
        candidates[attribute] = deduced.undominated_values(attribute, domain)
    return candidates


def _rule_assumption_literals(
    rule: DerivationRule,
    encoding: SpecificationEncoding,
    candidates: Mapping[str, Sequence[Value]],
) -> List[int]:
    """SAT literals asserting that every value the rule relies on is the most current one."""
    literals: List[int] = []
    for attribute, value in rule.combined_assignment().items():
        for other in candidates.get(attribute, ()):
            if values_equal(other, value):
                continue
            variable = encoding.find_literal(OrderLiteral(attribute, other, value))
            if variable is None:
                variable = encoding.literal(OrderLiteral(attribute, other, value))
            literals.append(variable)
    return literals


def _closure_of_rules(
    rules: Sequence[DerivationRule],
    known: TrueValueAssignment,
    asked: Set[str],
) -> Set[str]:
    """Attributes derivable by chaining *rules* from the known and asked attributes.

    A rule only fires when each of its precondition attributes is available
    and, where a concrete value is already fixed (deduced earlier or derived
    by another rule in the chain), that value matches the rule's pattern.
    Attributes the user is being asked about are treated optimistically (the
    suggestion only has to make the true value *derivable* for some answer,
    paper Section V-C condition (1)).
    """
    assignment: Dict[str, Optional[Value]] = {attribute: None for attribute in asked}
    for attribute, value in known.values.items():
        assignment[attribute] = value
    derived: Set[str] = set()
    changed = True
    while changed:
        changed = False
        for rule in rules:
            target = rule.target_attribute
            if target in assignment:
                continue
            applicable = True
            for attribute, pattern_value in rule.preconditions:
                if attribute not in assignment:
                    applicable = False
                    break
                fixed = assignment[attribute]
                if fixed is not None and not values_equal(fixed, pattern_value):
                    applicable = False
                    break
            if applicable:
                assignment[target] = rule.target_value
                derived.add(target)
                changed = True
    return derived


def suggest(
    encoder: IncrementalEncoder,
    deduced: DeducedOrders,
    known: TrueValueAssignment,
    options: SuggestOptions | None = None,
) -> Suggestion:
    """Run the full ``Suggest`` pipeline and return a sufficient suggestion.

    The MaxSAT repair of ``GetSug`` probes ``encoder.session`` under
    ``encoder.assumptions``.
    """
    options = options or SuggestOptions()
    encoding = encoder.encoding
    spec = encoding.specification
    schema_attributes = list(spec.schema.attribute_names)
    unresolved = [attribute for attribute in schema_attributes if attribute not in known]
    candidates = derive_candidate_values(spec, deduced, known)

    rules = derive_rules(encoding, candidates, known)
    graph = compatibility_graph(rules)
    clique_indices = sorted(max_clique(graph, method=options.clique_method))
    clique_rules = [rules[index] for index in clique_indices]

    sat_calls = 0
    kept_rules: List[DerivationRule] = []
    if clique_rules:
        groups = [
            _rule_assumption_literals(rule, encoding, candidates) for rule in clique_rules
        ]
        maxsat = solve_group_maxsat(
            encoder.session, groups, strategy=options.maxsat_strategy, assumptions=encoder.assumptions
        )
        sat_calls = maxsat.sat_calls
        if maxsat.hard_satisfiable:
            kept_rules = [clique_rules[index] for index in maxsat.selected_groups]

    derived_targets = {rule.target_attribute for rule in kept_rules}
    ask = [
        attribute
        for attribute in unresolved
        if attribute not in derived_targets
    ]
    # The kept rules may feed each other; make sure that, starting from the
    # known attributes plus the ones we ask about, every remaining attribute is
    # reachable (with rule patterns consistent with the values already fixed).
    # If not, promote blocking attributes into the question set.
    while True:
        reachable = _closure_of_rules(kept_rules, known, set(ask))
        missing = [
            attribute
            for attribute in unresolved
            if attribute not in ask and attribute not in reachable
        ]
        if not missing:
            break
        ask.append(missing[0])

    ask_sorted = tuple(attribute for attribute in schema_attributes if attribute in set(ask))
    return Suggestion(
        attributes=ask_sorted,
        candidates={attribute: list(candidates.get(attribute, [])) for attribute in ask_sorted},
        derivable_attributes=tuple(
            attribute for attribute in unresolved if attribute not in set(ask)
        ),
        rules=tuple(rules),
        kept_rules=tuple(kept_rules),
        sat_calls=sat_calls,
    )
