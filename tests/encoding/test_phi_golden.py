"""Golden digests of Ω and Φ on a fixed Person pool.

The encoder may change how it builds Ω and Φ, but not what it builds: the
same instance constraints in the same order, and the same clause stream over
the same variable numbers, for the incremental encoder's full encode and
each of its deltas, and for the cold reference encode
(``_cold_encoder_reference.py``) that the encoder tests compare against.  The digests below were recorded before
Ω was kept as records and Φ was bulk-loaded; any change to the stream shows
up here first.
"""

import hashlib

from repro.core import EntityTuple, PartialOrder, TemporalOrderDelta, is_null
from repro.datasets import PersonConfig, generate_person_dataset
from repro.encoding import ConstraintProgramCache, IncrementalEncoder, instantiate_compiled

from tests.encoding._cold_encoder_reference import encode_specification
from tests.encoding._recording_session import RecordingSession

#: (tuples per entity, entities): the four size classes of the batch mix.
POOL = ((4, 8), (12, 6), (24, 4), (48, 2))

#: A value no generated Person entity holds: the second delta grows adom(AC),
#: so the CFD guards over AC are refreshed.
UNSEEN_AC = "AC-unseen"

GOLDEN = {
    "omega": "95d95e16cf6d15cf5d7bc35dcd4c80445eea1bbc",
    "cold": "bedc9807a1139e2e4f162f26d143ff8f92c5e45a",
    "full": "4bb98a01eb6b4d22ca642c26a98ab9f785861d69",
    "delta": "53792c786f39e911b9798d67a7a6e8af15cddde0",
}


def _pool():
    for tuples, entities in POOL:
        dataset = generate_person_dataset(
            PersonConfig(
                num_entities=entities,
                tuples_per_entity=tuples,
                versions_per_entity=min(24, max(6, tuples // 6)),
                seed=1000 + tuples,
            )
        )
        for entity in dataset.entities:
            yield entity, dataset.specification_for(entity)


def _answer_delta(spec, answers, tid):
    """A user tuple holding *answers* (NULL elsewhere), above every tuple on each answered attribute."""
    values = {attribute: answers.get(attribute) for attribute in spec.schema.attribute_names}
    user = EntityTuple(spec.schema, values, tid=tid)
    delta = TemporalOrderDelta(new_tuples=[user])
    for attribute, value in values.items():
        if is_null(value):
            continue
        order = PartialOrder()
        for existing in spec.instance.tids:
            order.add(existing, tid)
        delta.orders[attribute] = order
    return delta


def _omega_lines(omega):
    for constraint in omega.constraints:
        body = [(literal.attribute, literal.older, literal.newer) for literal in constraint.body]
        head = constraint.head
        head = None if head is None else (head.attribute, head.older, head.newer)
        yield repr((constraint.source_kind, constraint.source_name, body, head))
    yield repr(list(omega.used_values.items()))
    yield repr((omega.inherently_invalid, omega.invalid_reason))


def _clause_lines(cnf, start=0):
    for clause in cnf.clauses[start:]:
        yield repr(tuple(clause))
    yield repr(cnf.num_variables)


def digests():
    """sha1 of Ω, of the cold Φ, of the full-encode and of the delta clause streams."""
    streams = {name: hashlib.sha1() for name in GOLDEN}

    def feed(name, lines):
        for line in lines:
            streams[name].update(line.encode("utf-8") + b"\n")

    programs = ConstraintProgramCache()
    for entity, spec in _pool():
        program = programs.program_for(spec)
        feed("omega", _omega_lines(instantiate_compiled(spec, program)))
        feed("cold", _clause_lines(encode_specification(spec, program=program).cnf))
        session = RecordingSession()
        encoder = IncrementalEncoder(spec, session=session, program=program)
        feed("full", _clause_lines(session.cnf))
        feed("full", [repr(encoder.assumptions)])
        truth = entity.true_values
        rounds = (
            {"status": truth["status"], "job": truth["job"]},
            dict(truth, AC=UNSEEN_AC),
        )
        for index, answers in enumerate(rounds, start=1):
            seen = len(session.cnf.clauses)
            report = encoder.apply_delta(_answer_delta(encoder.specification, answers, f"user_input_{index}"))
            feed("delta", _clause_lines(session.cnf, seen))
            feed("delta", [repr(sorted(report.items())), repr(encoder.assumptions)])
            feed("delta", _omega_lines(encoder.encoding.omega))
        feed("delta", [repr(sorted(encoder.statistics().items()))])
    return {name: stream.hexdigest() for name, stream in streams.items()}


def test_phi_matches_the_recorded_digests():
    assert digests() == GOLDEN
