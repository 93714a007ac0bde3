"""Traditional conflict-resolution baselines (paper Section VI, algorithm ``Pick``).

Classic data fusion resolves a conflict by applying a simple per-attribute
strategy — take *any* value, the most frequent one, the minimum or the maximum
(see the data-fusion surveys cited by the paper).  The experimental study
compares against ``Pick``, a randomised strategy that is additionally allowed
to exploit the comparison-only currency constraints: a value that is known to
be less current than another value (by a constraint whose body contains only
comparison predicates, e.g. ϕ1–ϕ3 of the NBA constraints) is never picked.

Every strategy resolves an attribute with an empty active domain (an entity
without tuples) to NULL.
"""

from __future__ import annotations

import functools
import random
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.constraints import Predicate, TupleComparisonPredicate
from repro.core.specification import Specification
from repro.core.tuples import EntityTuple
from repro.core.values import NULL, Value, compare_values, is_null, values_equal
from repro.encoding.variables import canonical_value

__all__ = [
    "pick_resolution",
    "vote_resolution",
    "min_resolution",
    "max_resolution",
    "any_resolution",
]

#: A comparison-only body split by what each check reads: the ``t1``-only
#: constant checks, the ``t2``-only constant checks, and the tuple comparisons.
_SplitBody = Tuple[Tuple[Predicate, ...], Tuple[Predicate, ...], Tuple[Predicate, ...]]


def _non_null_domain(spec: Specification, attribute: str) -> List[Value]:
    domain = [value for value in spec.instance.active_domain(attribute) if not is_null(value)]
    if not domain:
        domain = list(spec.instance.active_domain(attribute))
    return domain


def _split_comparison_bodies(spec: Specification) -> Dict[str, List[_SplitBody]]:
    """Σ's comparison-only constraints by conclusion attribute, bodies split."""
    grouped: Dict[str, List[_SplitBody]] = {}
    for constraint in spec.currency_constraints:
        if not constraint.is_comparison_only():
            continue
        older: List[Predicate] = []
        newer: List[Predicate] = []
        pairs: List[Predicate] = []
        for predicate in constraint.body:
            if isinstance(predicate, TupleComparisonPredicate):
                pairs.append(predicate)
            elif predicate.tuple_index == 1:
                older.append(predicate)
            else:
                newer.append(predicate)
        grouped.setdefault(constraint.conclusion_attribute, []).append(
            (tuple(older), tuple(newer), tuple(pairs))
        )
    return grouped


def _dominated_by_comparison_constraints(
    tuples: Sequence[EntityTuple], attribute: str, bodies: Sequence[_SplitBody]
) -> set:
    """Values dominated according to comparison-only currency constraints.

    Only constraints whose body consists of comparison predicates are used —
    exactly the information the paper grants to ``Pick`` ("we picked a value
    from those that are not less current than any other values, based on
    currency constraints in which ω is a conjunction of comparison predicates
    only").  *bodies* are those concluding on *attribute*, split by
    :func:`_split_comparison_bodies`.

    By definition ``t1[A]`` is dominated when some body holds on an ordered
    pair ``(t1, t2)`` of distinct tuples with different ``A`` values.  The
    scan returns exactly that set without trying every pair:

    * a constant check reads one tuple, so it is decided once per tuple —
      filtering the older (``t1``) and newer (``t2``) candidates — and a
      pair can satisfy the body only if both of its tuples passed;
    * the result is a set of values, so a ``t1`` whose value is already in
      it cannot add anything: it is skipped, and the newer candidates are
      scanned only up to its first witness;
    * every check still runs through ``Predicate.evaluate`` (the NULL-lowest
      semantics of ``apply_operator``) and has no side effects, so deciding
      it once per tuple, or not at all for a skipped pair, changes no
      verdict on the pairs that decide the set.

    A value transition (``t1[A] = c1 ∧ t2[A] = c2``) thus costs about two
    checks per tuple instead of one per ordered pair.
    """
    keyed = [(canonical_value(item[attribute]), item) for item in tuples]
    dominated: set = set()
    for older_checks, newer_checks, pair_checks in bodies:
        older = [
            (key, tuple1)
            for key, tuple1 in keyed
            if key not in dominated and all(check.evaluate(tuple1, tuple1) for check in older_checks)
        ]
        if not older:
            continue
        newer = [
            tuple2 for tuple2 in tuples if all(check.evaluate(tuple2, tuple2) for check in newer_checks)
        ]
        for key, tuple1 in older:
            if key in dominated:
                continue
            value = tuple1[attribute]
            for tuple2 in newer:
                if tuple1.tid == tuple2.tid or values_equal(value, tuple2[attribute]):
                    continue
                if all(check.evaluate(tuple1, tuple2) for check in pair_checks):
                    dominated.add(key)
                    break
    return dominated


def pick_resolution(
    spec: Specification,
    rng: Optional[random.Random] = None,
    favor_currency: bool = True,
) -> Dict[str, Value]:
    """The ``Pick`` baseline: a random value per attribute, favoured by currency hints."""
    rng = rng or random.Random(0)
    bodies = _split_comparison_bodies(spec) if favor_currency else {}
    tuples = spec.instance.tuples
    resolved: Dict[str, Value] = {}
    for attribute in spec.schema.attribute_names:
        candidates = _non_null_domain(spec, attribute)
        if attribute in bodies:
            dominated = _dominated_by_comparison_constraints(tuples, attribute, bodies[attribute])
            undominated = [value for value in candidates if canonical_value(value) not in dominated]
            if undominated:
                candidates = undominated
        resolved[attribute] = rng.choice(candidates) if candidates else NULL
    return resolved


def vote_resolution(spec: Specification) -> Dict[str, Value]:
    """Majority voting: the most frequent non-null value per attribute."""
    resolved: Dict[str, Value] = {}
    for attribute in spec.schema.attribute_names:
        counts: Counter = Counter()
        for item in spec.instance:
            value = item[attribute]
            if not is_null(value):
                counts[canonical_value(value)] += 1
        if counts:
            best_key, _ = max(counts.items(), key=lambda pair: (pair[1], repr(pair[0])))
            resolved[attribute] = best_key
        else:
            resolved[attribute] = NULL
    return resolved


#: Sort key ranking values by :func:`compare_values` (NULL lowest).
_BY_VALUE = functools.cmp_to_key(compare_values)


def max_resolution(spec: Specification) -> Dict[str, Value]:
    """Take the maximum value per attribute (classic fusion strategy)."""
    return {
        attribute: max(_non_null_domain(spec, attribute), key=_BY_VALUE, default=NULL)
        for attribute in spec.schema.attribute_names
    }


def min_resolution(spec: Specification) -> Dict[str, Value]:
    """Take the minimum value per attribute (classic fusion strategy)."""
    return {
        attribute: min(_non_null_domain(spec, attribute), key=_BY_VALUE, default=NULL)
        for attribute in spec.schema.attribute_names
    }


def any_resolution(spec: Specification, rng: Optional[random.Random] = None) -> Dict[str, Value]:
    """Take an arbitrary value per attribute (no currency hints at all)."""
    return pick_resolution(spec, rng=rng, favor_currency=False)
