"""Tests for the incremental (delta) encoder against the from-scratch reference."""

import pytest

from repro.core import TemporalOrderDelta
from repro.core.specification import TrueValueAssignment
from repro.encoding import IncrementalEncoder
from repro.resolution import ConflictResolver, check_validity, deduce_order, naive_deduce
from repro.resolution.suggest import suggest
from repro.resolution.true_values import extract_true_values
from repro.solvers import ArenaSession

from tests.encoding._cold_encoder_reference import encode_specification
from tests.encoding._recording_session import RecordingSession
from tests.solvers._cnf_reference import solve


def _recording_encoder(spec):
    """An encoder whose Φ can be read back from ``encoder.session.cnf``."""
    return IncrementalEncoder(spec, session=RecordingSession())


def _decoded_clauses(registry, cnf, active_guards=()):
    """Φ as a set of clauses over the orders their literals assert, guards resolved.

    A literal reads as the order it asserts: ``+v`` as ``v``'s canonical atom
    and ``−v`` as the reversed atom, so two encodings that registered a pair
    in opposite orientations still compare equal.  A guarded clause counts,
    without its guard, only while the guard is active; a retired guard's
    clause is left out.
    """
    active = set(active_guards)
    clauses = set()
    for clause in cnf:
        atoms = [registry.get(abs(literal)) for literal in clause]
        guards = {-literal for literal, atom in zip(clause, atoms) if atom is None}
        if guards <= active:
            clauses.add(
                frozenset(
                    atom if literal > 0 else atom.reversed()
                    for literal, atom in zip(clause, atoms)
                    if atom is not None
                )
            )
    return clauses


def _matches_from_scratch(encoder, spec):
    """The encoder's live Φ equals a from-scratch encoding of *spec*, clause for clause."""
    reference = encode_specification(spec)
    return _decoded_clauses(
        encoder.encoding.registry, encoder.session.cnf, encoder.assumptions
    ) == _decoded_clauses(reference.registry, reference.cnf)


def _delta_for(spec, answers, known=None, round_index=1):
    """Build the user-answer delta exactly as the framework does."""
    resolver = ConflictResolver()
    return resolver._delta_from_answers(
        spec, answers, known or TrueValueAssignment({}), round_index
    )


def _answered(spec, answers, session=None):
    """An encoder of *spec* that has applied the delta of one round's *answers*."""
    encoder = IncrementalEncoder(spec, session=session)
    encoder.apply_delta(_delta_for(spec, answers))
    return encoder


class TestInitialEncoding:
    def test_matches_from_scratch(self, george_spec):
        encoder = _recording_encoder(george_spec)
        reference = encode_specification(george_spec)
        assert _matches_from_scratch(encoder, george_spec)
        assert len(encoder.session.cnf) == len(reference.cnf)
        # Same validity verdict through the session as through a cold solve.
        assert (
            encoder.session.solve(encoder.assumptions).satisfiable
            == solve(reference.cnf).satisfiable
        )

    def test_empty_delta_is_noop(self, george_spec):
        encoder = _recording_encoder(george_spec)
        clauses_before = len(encoder.session.cnf)
        report = encoder.apply_delta(TemporalOrderDelta())
        assert report["clauses_added"] == 0
        assert len(encoder.session.cnf) == clauses_before
        assert encoder.specification is george_spec


class TestDeltaEncoding:
    def test_known_value_delta_matches_from_scratch(self, george_spec):
        delta = _delta_for(george_spec, {"status": "retired"})
        encoder = _recording_encoder(george_spec)
        report = encoder.apply_delta(delta)
        assert report["clauses_added"] > 0

        extended = george_spec.extend(delta)
        assert _matches_from_scratch(encoder, extended)
        assert encoder.specification.instance.tids == extended.instance.tids

    def test_new_value_outside_domain_retires_guards(self, george_spec):
        # "deceased" is not in the active domain of status, so the CFD bodies
        # that enumerate adom(status) grow: their old clauses must be retired
        # (guards dropped) and replacements added.
        delta = _delta_for(george_spec, {"status": "deceased"})
        encoder = _recording_encoder(george_spec)
        active_before = len(encoder.assumptions)
        report = encoder.apply_delta(delta)
        assert report["retired_guards"] > 0
        assert len(encoder.assumptions) == report["active_guards"]
        assert active_before > 0

        extended = george_spec.extend(delta)
        assert _matches_from_scratch(encoder, extended)

    @pytest.mark.parametrize("answers", [{"status": "retired"}, {"status": "deceased"}])
    def test_validity_matches_from_scratch(self, george_spec, answers):
        delta = _delta_for(george_spec, answers)
        encoder = IncrementalEncoder(george_spec)
        encoder.apply_delta(delta)
        incremental = encoder.session.solve(encoder.assumptions)
        reference = solve(encode_specification(george_spec.extend(delta)).cnf)
        assert incremental.satisfiable == reference.satisfiable

    @pytest.mark.parametrize("answers", [{"status": "retired"}, {"status": "deceased"}])
    def test_deduction_matches_from_scratch(self, george_spec, answers):
        encoder = _answered(george_spec, answers)
        extended = encoder.specification

        incremental = deduce_order(encoder)
        reference = deduce_order(encode_specification(extended))
        assert incremental.conflict == reference.conflict
        attributes = set(incremental.orders) | set(reference.orders)
        for attribute in attributes:
            assert incremental.order_for(attribute) == reference.order_for(attribute), attribute
        incremental_values = extract_true_values(extended, incremental)
        reference_values = extract_true_values(extended, reference)
        assert incremental_values.values == reference_values.values

    @pytest.mark.parametrize("answers", [{"status": "retired"}, {"status": "deceased"}])
    def test_naive_deduction_matches_from_scratch(self, george_spec, answers):
        # NaiveDeduce asks one SAT question per value pair, each under the
        # encoder's guards: a retired CFD clause must not answer any of them.
        encoder = _answered(george_spec, answers)
        incremental = naive_deduce(encoder)
        reference = naive_deduce(encode_specification(encoder.specification))
        assert incremental.conflict == reference.conflict
        assert incremental.orders == reference.orders

    @pytest.mark.parametrize("answers", [{"status": "retired"}, {"status": "deceased"}])
    def test_suggestion_matches_from_scratch(self, george_spec, answers):
        # After a delta, Suggest reads the same Φ as a from-scratch encoding.
        encoder = _answered(george_spec, answers)
        extended = encoder.specification
        suggestions = []
        for source in (encoder, encode_specification(extended)):
            deduced = deduce_order(source)
            s = suggest(source, deduced, extract_true_values(extended, deduced))
            suggestions.append((s.attributes, s.candidates, s.derivable_attributes, s.kept_rules))
        assert suggestions[0] == suggestions[1]

    def test_clause_count_follows_the_session(self, george_spec):
        """``statistics()["clauses"]`` counts every clause the session received."""
        encoder = _recording_encoder(george_spec)
        counts = [(encoder.encoding.statistics()["clauses"], len(encoder.session.cnf))]
        for index, answers in enumerate(({"status": "deceased"}, {"city": "Chicago"}), 1):
            encoder.apply_delta(_delta_for(encoder.specification, answers, round_index=index))
            counts.append((encoder.encoding.statistics()["clauses"], len(encoder.session.cnf)))
        assert all(counted == received for counted, received in counts)
        assert counts[0][0] < counts[1][0] < counts[2][0]

    def test_successive_deltas_accumulate(self, george_spec):
        encoder = _recording_encoder(george_spec)
        first = _delta_for(george_spec, {"status": "unemployed"})
        encoder.apply_delta(first)
        spec_after_first = encoder.specification
        second = _delta_for(spec_after_first, {"city": "Chicago"}, round_index=2)
        encoder.apply_delta(second)

        extended = george_spec.extend(first).extend(second)
        assert _matches_from_scratch(encoder, extended)
        stats = encoder.statistics()
        assert stats["delta_encodings"] == 2
        assert stats["incremental"] == 1


class _QueryLog(ArenaSession):
    """An arena session that keeps the assumptions of every query it answers."""

    def __init__(self) -> None:
        super().__init__()
        self.queries = []

    def solve(self, assumptions=(), conflict_limit=None):
        self.queries.append(frozenset(assumptions))
        return super().solve(assumptions, conflict_limit)

    def propagate(self, assumptions=()):
        self.queries.append(frozenset(assumptions))
        return super().propagate(assumptions)


def _suggest_only(encoder):
    """Suggest's own probes: DeduceOrder and DeriveVR run first, off the log."""
    deduced = deduce_order(encoder)
    known = extract_true_values(encoder.specification, deduced)
    encoder.session.queries.clear()
    return suggest(encoder, deduced, known)


#: The paper's algorithms, each as one call on an encoder.
CONSUMERS = {
    "check_validity": check_validity,
    "deduce_order": deduce_order,
    "naive_deduce": naive_deduce,
    "suggest": _suggest_only,
}


class TestConsumersQueryUnderTheGuards:
    @pytest.mark.parametrize("consumer", list(CONSUMERS))
    def test_every_query_assumes_exactly_the_live_guards(self, george_spec, consumer):
        # "deceased" grows adom(status): CFD clauses over it retire, and their
        # replacements come in under fresh guards.  A query that drops a live
        # guard loses a CFD; one that keeps a retired guard keeps a stale one.
        before = set(IncrementalEncoder(george_spec).assumptions)
        encoder = _answered(george_spec, {"status": "deceased"}, session=_QueryLog())
        live = set(encoder.assumptions)
        retired = before - live
        assert retired and live - before

        encoder.session.queries.clear()
        CONSUMERS[consumer](encoder)
        queries = encoder.session.queries
        assert queries
        assert all(live <= query and not retired & query for query in queries)


class TestObservedTupleDelta:
    """A delta appending an *observed* tuple with ``tid=None`` — the shape the
    CDC consumer builds for a ``tuple_added`` feed event.

    Regression: the extended instance assigns the appended tuple's identifier
    on a copy, so reading ``delta.new_tuples[*].tid`` after the extension
    yields ``None``; the NULL-lowest order pairs involving the new tuple were
    silently skipped and warm re-resolutions deduced fewer attributes than
    cold ones.
    """

    def _observed(self, spec, **overrides):
        from repro.core import EntityTuple

        row = dict(
            name="George Mendonca", status="retired", job=None, kids=None,
            city="NY", AC="212", zip=None, county=None,
        )
        row.update(overrides)
        return TemporalOrderDelta(new_tuples=[EntityTuple(spec.schema, row)])

    def test_null_lowest_pairs_cover_the_appended_tuple(self, george_spec):
        delta = self._observed(george_spec)
        extended = george_spec.extend(delta)
        new_tid = extended.instance.tids[-1]
        assert new_tid not in george_spec.instance.tids
        orders = extended.temporal_instance
        # The appended tuple misses "job": it must rank below every tuple
        # that observes one, exactly as a from-scratch build would order it.
        for older in george_spec.instance.tids:
            assert orders.more_current(new_tid, older, "job")

    def test_encoding_and_deduction_match_from_scratch(self, george_spec):
        delta = self._observed(george_spec)
        encoder = _recording_encoder(george_spec)
        encoder.apply_delta(delta)
        extended = encoder.specification
        assert extended.instance.tids == george_spec.extend(delta).instance.tids

        reference_encoding = encode_specification(extended)
        assert _matches_from_scratch(encoder, extended)
        incremental = deduce_order(encoder)
        reference = deduce_order(reference_encoding)
        assert incremental.conflict == reference.conflict
        for attribute in set(incremental.orders) | set(reference.orders):
            assert incremental.order_for(attribute) == reference.order_for(attribute)
        assert (
            extract_true_values(extended, incremental).values
            == extract_true_values(extended, reference).values
        )
