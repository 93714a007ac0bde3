"""The interactive conflict-resolution framework (paper Section III, Fig. 4).

:class:`ConflictResolver` wires together the algorithms of Section V:

1. **validity checking** (``IsValid``) on the current specification
   ``S_e ⊕ O_t``;
2. **true value deduction** (``DeduceOrder`` + true-value extraction);
3. if the full true value exists → done;
4. otherwise **suggestion generation** (``Suggest``) and a round of user
   interaction: the user (an :class:`Oracle`) provides true values for (a
   subset of) the suggested attributes, the answers are turned into a partial
   temporal order ``O_t`` (a fresh tuple ``t_o`` dominating every existing
   tuple on the answered attributes), and the loop restarts on ``S_e ⊕ O_t``.

When the user declines to answer (or the round budget is exhausted) the
remaining attributes are filled by the traditional ``Pick`` strategy, exactly
as the last paragraph of Section III prescribes.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Protocol, Tuple

from repro import faults
from repro.core.errors import BudgetExceededError, EntityFailure, ReproError
from repro.core.instance import TemporalOrderDelta
from repro.core.partial_order import PartialOrder
from repro.core.specification import Specification, TrueValueAssignment
from repro.core.tuples import EntityTuple
from repro.core.values import NULL, Value, is_null
from repro.encoding.compiled import ConstraintProgramCache
from repro.encoding.incremental import IncrementalEncoder
from repro.encoding.instance_constraints import InstantiationOptions
from repro.resolution.baselines import pick_resolution
from repro.resolution.deduce import deduce_order
from repro.resolution.suggest import SuggestOptions, Suggestion, suggest
from repro.resolution.true_values import extract_true_values
from repro.resolution.validity import check_validity
from repro.solvers.budget import SolverBudget

__all__ = [
    "Oracle",
    "SilentOracle",
    "RoundReport",
    "ResolutionResult",
    "ResolverOptions",
    "ConflictResolver",
]


class Oracle(Protocol):
    """A source of user answers for suggestions.

    ``answer`` receives the suggestion and the current specification and
    returns true values for any subset of the suggested attributes (an empty
    mapping means "no answer").
    """

    def answer(self, suggestion: Suggestion, spec: Specification) -> Mapping[str, Value]:
        """Return validated true values for (a subset of) the suggested attributes."""
        ...  # pragma: no cover - protocol definition


class SilentOracle:
    """An oracle that never answers (pure automatic deduction)."""

    def answer(self, suggestion: Suggestion, spec: Specification) -> Mapping[str, Value]:
        """Return no answers."""
        return {}


@dataclass
class RoundReport:
    """Diagnostics for one round of the framework loop."""

    round_index: int
    valid: bool
    deduced_attributes: Tuple[str, ...]
    suggestion: Optional[Suggestion]
    answers: Dict[str, Value] = field(default_factory=dict)
    validity_seconds: float = 0.0
    deduce_seconds: float = 0.0
    suggest_seconds: float = 0.0
    encoding_statistics: Dict[str, int] = field(default_factory=dict)
    #: Encoding time of the round: round 0's full encode (none for a warm
    #: encoder), then the delta applied before round k (or, off the
    #: incremental path, the round's fresh full encode).
    encode_seconds: float = 0.0


@dataclass
class ResolutionResult:
    """Final outcome of conflict resolution for one entity.

    A non-empty ``failure`` marks a *quarantined* entity: resolution was
    abandoned (budget blowout, repeated crashes) after ``attempts`` tries
    and the tuple holds only fallback/NULL values.  ``valid`` is ``False``
    for such results but makes no claim about the specification itself.
    """

    name: str
    valid: bool
    true_values: TrueValueAssignment
    resolved_tuple: Dict[str, Value]
    fallback_attributes: Tuple[str, ...]
    rounds: List[RoundReport] = field(default_factory=list)
    complete: bool = False
    user_validated_attributes: Tuple[str, ...] = ()
    failure: str = ""
    attempts: int = 0

    @property
    def interaction_rounds(self) -> int:
        """Number of rounds in which the oracle actually provided answers."""
        return sum(1 for round_report in self.rounds if round_report.answers)

    @property
    def deduced_attributes(self) -> Tuple[str, ...]:
        """Attributes whose true value was *deduced* (user-validated ones excluded).

        The paper's precision/recall only count deduced values, so this is the
        set the evaluation harness scores.
        """
        validated = set(self.user_validated_attributes)
        return tuple(a for a in self.true_values.known_attributes() if a not in validated)

    def deduced_fraction(self, attributes: Optional[Tuple[str, ...]] = None) -> float:
        """Fraction of (the given) attributes whose true value was deduced/validated."""
        if attributes is None:
            attributes = tuple(self.resolved_tuple)
        if not attributes:
            return 1.0
        return sum(1 for attribute in attributes if attribute in self.true_values) / len(attributes)

    def total_seconds(self) -> Dict[str, float]:
        """Total time spent per phase across all rounds."""
        totals = {"encode": 0.0, "validity": 0.0, "deduce": 0.0, "suggest": 0.0}
        for round_report in self.rounds:
            totals["encode"] += round_report.encode_seconds
            totals["validity"] += round_report.validity_seconds
            totals["deduce"] += round_report.deduce_seconds
            totals["suggest"] += round_report.suggest_seconds
        return totals


@dataclass
class ResolverOptions:
    """Configuration of the framework loop.

    Attributes
    ----------
    incremental:
        When ``True`` (the default) the resolver performs one full encoding
        per entity and keeps a persistent solver session: each interaction
        round extends Φ through the :class:`IncrementalEncoder` delta path.
        ``False`` resolves from scratch: every round encodes ``S_e ⊕ O_t``
        into a fresh encoder (and session) — the cross-check tests and the
        Fig. 8(e) baseline compare the two.  Either way validity, deduction
        and suggestion all run on an encoder's session.
    budget:
        Optional :class:`~repro.solvers.budget.SolverBudget` bounding every
        SAT call of the loop (and, via ``wall_seconds``, the entity as a
        whole, checked between rounds).  An exhausted budget aborts the
        entity with a non-retryable
        :class:`~repro.core.errors.EntityFailure` — it would blow the same
        budget on every retry — which the engine turns into a quarantine
        record instead of letting one pathological entity stall the run.
    max_attempts:
        How many times the supervision layer may attempt one entity
        (crashed workers, retryable failures) before quarantining it.
    fallback:
        What fills the attributes left open: ``"pick"`` draws a ``Pick``
        value, ``"none"`` leaves them NULL.  Any other name is refused by
        :meth:`check`, as is a Suggest option no strategy answers to.
    """

    instantiation: InstantiationOptions = field(default_factory=InstantiationOptions)
    suggest: SuggestOptions = field(default_factory=SuggestOptions)
    max_rounds: int = 5
    fallback: str = "pick"  # "pick" or "none"
    random_seed: int = 0
    incremental: bool = True
    budget: Optional[SolverBudget] = None
    max_attempts: int = 3

    def check(self) -> None:
        """Raise :class:`ReproError` for a fallback or Suggest option nothing answers to.

        The one option check, run by :class:`ConflictResolver`, the engine
        and :class:`~repro.api.RunConfig` alike, before any entity resolves.
        :attr:`fallback` must be ``"pick"`` or ``"none"``: any other name
        used to leave the open attributes NULL without a word.  The
        :class:`SuggestOptions` ``clique_method`` and ``maxsat_strategy``
        must be ``"exact"`` or ``"greedy"``: a typo used to fail only the
        entities whose suggestion reached it, partway through a run.
        """
        if self.fallback not in ("pick", "none"):
            raise ReproError(f"options.fallback must be 'pick' or 'none', got {self.fallback!r}")
        for name in ("clique_method", "maxsat_strategy"):
            value = getattr(self.suggest, name)
            if value not in ("exact", "greedy"):
                raise ReproError(
                    f"options.suggest.{name} must be 'exact' or 'greedy', got {value!r}"
                )


class ConflictResolver:
    """Drives the interactive conflict-resolution loop of Fig. 4.

    The resolver is meant to be reused across the entities of a dataset: the
    constraint program of Σ ∪ Γ is compiled on the first entity and every
    later entity of the same schema stamps the cached program (see
    :attr:`program_cache`).
    """

    def __init__(self, options: Optional[ResolverOptions] = None) -> None:
        self.options = options or ResolverOptions()
        self.options.check()
        #: Compiled constraint programs shared across resolve() calls.
        self.program_cache = ConstraintProgramCache()

    # -- user input → O_t ------------------------------------------------------

    def _delta_from_answers(
        self,
        spec: Specification,
        answers: Mapping[str, Value],
        known: TrueValueAssignment,
        round_index: int,
    ) -> TemporalOrderDelta:
        """Build the partial temporal order O_t from user answers (Section III, Remark 1)."""
        schema = spec.schema
        values: Dict[str, Value] = {attribute: NULL for attribute in schema.attribute_names}
        for attribute, value in known.values.items():
            values[attribute] = value
        for attribute, value in answers.items():
            schema.require([attribute])
            values[attribute] = value
        user_tuple = EntityTuple(schema, values, tid=f"user_input_{round_index}")
        delta = TemporalOrderDelta(new_tuples=[user_tuple])
        for attribute, value in values.items():
            if is_null(value):
                continue
            order = PartialOrder()
            for tid in spec.instance.tids:
                order.add(tid, user_tuple.tid)
            delta.orders[attribute] = order
        return delta

    # -- main loop ---------------------------------------------------------------

    def resolve(
        self,
        spec: Specification,
        oracle: Optional[Oracle] = None,
        rng: Optional[random.Random] = None,
        *,
        encoder: Optional[IncrementalEncoder] = None,
    ) -> ResolutionResult:
        """Resolve the conflicts of one entity specification.

        Parameters
        ----------
        spec:
            The specification ``S_e``.
        oracle:
            Source of user answers; ``None`` (or :class:`SilentOracle`) makes
            the resolution fully automatic.
        rng:
            Random source for the ``pick`` fallback.  Defaults to a fresh
            ``random.Random(options.random_seed)`` per call, so resolutions
            are deterministic and independent of entity order — the property
            the sequential/parallel/streaming equivalence rests on.  Inject
            one only to *change* the randomness, never to share a stream
            across entities.
        encoder:
            Optional warm :class:`IncrementalEncoder` whose specification is
            already *spec* (e.g. a previous resolve of the entity extended
            with a :class:`TemporalOrderDelta` — the CDC delta path).  The
            loop then reuses its solver session instead of re-encoding from
            scratch.  Requires ``options.incremental``.

        Raises
        ------
        EntityFailure
            When ``options.budget`` is exhausted (non-retryable: the same
            budget would blow on every retry).  The engine's supervision
            layer maps this to a quarantine record; direct callers may
            catch it per entity.
        """
        faults.on_entity(spec.name)
        try:
            return self._resolve(spec, oracle, rng, encoder=encoder)
        except BudgetExceededError as error:
            raise EntityFailure(
                f"entity {spec.name!r} exceeded its solver budget: {error}",
                entity=spec.name,
                reason="budget_exceeded",
                retryable=False,
            ) from error

    def _resolve(
        self,
        spec: Specification,
        oracle: Optional[Oracle],
        rng: Optional[random.Random],
        encoder: Optional[IncrementalEncoder] = None,
    ) -> ResolutionResult:
        oracle = oracle or SilentOracle()
        options = self.options
        if encoder is not None and not options.incremental:
            # A warm encoder is only meaningful on the incremental path; a
            # non-incremental resolve would silently ignore it, which hides
            # caller bugs in the CDC delta path.
            raise EntityFailure(
                f"entity {spec.name!r} was given a warm encoder but "
                "options.incremental is off",
                entity=spec.name,
                reason="invalid_encoder",
                retryable=False,
            )
        entity_deadline: Optional[float] = None
        if options.budget is not None and options.budget.wall_seconds is not None:
            entity_deadline = time.perf_counter() + options.budget.wall_seconds
        current = spec
        rounds: List[RoundReport] = []
        known = TrueValueAssignment({})
        valid = True
        user_validated: Dict[str, Value] = {}
        program = self.program_cache.program_for(spec, options.instantiation)
        encode_seconds = 0.0  # the delta applied before this round

        for round_index in range(options.max_rounds + 1):
            # Per-call solver caps bound a single spin; this bounds the whole
            # entity (rounds × phases) against the same wall-clock budget.
            if entity_deadline is not None and time.perf_counter() > entity_deadline:
                raise BudgetExceededError(
                    f"entity wall-clock budget of {options.budget.wall_seconds}s exhausted "
                    f"after {round_index} round(s)"
                )
            start = time.perf_counter()
            if encoder is None or not options.incremental:
                # One full encoding per entity on the incremental path: later
                # rounds only append the delta clauses of S_e ⊕ O_t to its
                # session.  From scratch, every round gets a fresh encoder.
                encoder = IncrementalEncoder(
                    current, options.instantiation, program=program, budget=options.budget
                )
            encode_seconds += time.perf_counter() - start
            start = time.perf_counter()
            validity = check_validity(encoder)
            validity_seconds = time.perf_counter() - start
            deduce_seconds = 0.0
            if validity.valid:
                start = time.perf_counter()
                deduced = deduce_order(encoder)
                deduce_seconds = time.perf_counter() - start
            if not validity.valid or deduced.conflict:
                # Φ orders every pair of used values, so a satisfiable Φ
                # propagates without conflict; a deduce conflict is kept as
                # a guard.  Either way no valid completion exists.
                valid = False
                rounds.append(
                    RoundReport(
                        round_index=round_index,
                        valid=False,
                        deduced_attributes=(),
                        suggestion=None,
                        validity_seconds=validity_seconds,
                        deduce_seconds=deduce_seconds,
                        encoding_statistics=self._round_statistics(encoder),
                        encode_seconds=encode_seconds,
                    )
                )
                break
            known = extract_true_values(current, deduced)
            deduce_seconds = time.perf_counter() - start

            complete = known.is_total_for(spec.schema)
            suggestion: Optional[Suggestion] = None
            suggest_seconds = 0.0
            answers: Dict[str, Value] = {}
            if not complete and round_index < options.max_rounds:
                start = time.perf_counter()
                suggestion = suggest(encoder, deduced, known, options.suggest)
                suggest_seconds = time.perf_counter() - start
                answers = dict(oracle.answer(suggestion, current))

            rounds.append(
                RoundReport(
                    round_index=round_index,
                    valid=True,
                    deduced_attributes=known.known_attributes(),
                    suggestion=suggestion,
                    answers=answers,
                    validity_seconds=validity_seconds,
                    deduce_seconds=deduce_seconds,
                    suggest_seconds=suggest_seconds,
                    encoding_statistics=self._round_statistics(encoder),
                    encode_seconds=encode_seconds,
                )
            )

            if complete or not answers:
                break
            user_validated.update(answers)
            delta = self._delta_from_answers(current, answers, known, round_index + 1)
            start = time.perf_counter()
            if options.incremental:
                encoder.apply_delta(delta)
                current = encoder.specification
            else:
                current = current.extend(delta)
            encode_seconds = time.perf_counter() - start

        resolved, fallback_attributes = self._finalize(spec, known, valid, rng)
        return ResolutionResult(
            name=spec.name,
            valid=valid,
            true_values=known,
            resolved_tuple=resolved,
            fallback_attributes=fallback_attributes,
            rounds=rounds,
            complete=known.is_total_for(spec.schema),
            user_validated_attributes=tuple(sorted(user_validated)),
        )

    def _round_statistics(self, encoder: IncrementalEncoder) -> Dict[str, int]:
        """Encoding sizes plus, on the incremental path, the reuse counters."""
        statistics = encoder.encoding.statistics()
        if self.options.incremental:
            statistics.update(encoder.statistics())
        else:
            statistics["incremental"] = 0
        return statistics

    def _finalize(
        self,
        spec: Specification,
        known: TrueValueAssignment,
        valid: bool,
        rng: Optional[random.Random] = None,
    ) -> Tuple[Dict[str, Value], Tuple[str, ...]]:
        """Assemble the resolved tuple, filling unresolved attributes by fallback.

        Pick runs only when some attribute is still open: a complete entity
        takes none of its values.  ``resolve`` draws from a fresh rng per
        call, so skipping it moves no later draw.
        """
        resolved: Dict[str, Value] = {}
        fallback_attributes: List[str] = []
        fallback_values: Dict[str, Value] = {}
        if self.options.fallback == "pick" and not known.is_total_for(spec.schema):
            fallback_values = pick_resolution(
                spec, rng=rng or random.Random(self.options.random_seed)
            )
        for attribute in spec.schema.attribute_names:
            if attribute in known:
                resolved[attribute] = known[attribute]
            elif self.options.fallback == "pick":
                resolved[attribute] = fallback_values[attribute]
                fallback_attributes.append(attribute)
            else:
                resolved[attribute] = NULL
                fallback_attributes.append(attribute)
        return resolved, tuple(fallback_attributes)
