"""Encodings and resolution outcomes do not depend on ``PYTHONHASHSEED``.

A :class:`~repro.core.partial_order.PartialOrder` keeps successors in
insertion-ordered dicts and yields its closure pairs in a fixed order, so
the order facts, the closure facts and hence every variable number and
clause come out the same under every seed.  So do the resolutions: the
same resolved tuples, deduced attributes and suggestions, and the same
per-round encoding statistics (clause counts and solver counters).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

_RESOLVE = """
import hashlib
import json
from repro.datasets import (
    CareerConfig, NBAConfig, PersonConfig,
    generate_career_dataset, generate_nba_dataset, generate_person_dataset,
)
from repro.encoding import IncrementalEncoder
from repro.evaluation import GroundTruthOracle
from repro.resolution import ConflictResolver, ResolverOptions
from tests.encoding._recording_session import RecordingSession

datasets = [
    generate_nba_dataset(NBAConfig(num_players=10, seed=41)),
    generate_career_dataset(CareerConfig(num_authors=6, seed=42)),
    generate_person_dataset(PersonConfig(num_entities=6, seed=43)),
]
resolver = ConflictResolver(ResolverOptions())
outcomes = []
for dataset in datasets:
    for entity, spec in dataset.specifications(1.0, 1.0):
        session = RecordingSession()
        IncrementalEncoder(spec, session=session)
        clauses = hashlib.sha1(repr(session.cnf.clauses).encode())
        result = resolver.resolve(spec, GroundTruthOracle(entity, max_attributes_per_round=1))
        outcomes.append({
            "clauses": clauses.hexdigest(),
            "statistics": [round.encoding_statistics for round in result.rounds],
            "entity": entity.name,
            "tuple": {a: repr(value) for a, value in result.resolved_tuple.items()},
            "deduced": list(result.deduced_attributes),
            "suggestions": [
                None if round.suggestion is None else [
                    list(round.suggestion.attributes),
                    {a: list(map(repr, c)) for a, c in round.suggestion.candidates.items()},
                ]
                for round in result.rounds
            ],
        })
print(json.dumps(outcomes, sort_keys=True))
"""


def _resolve_under(seed):
    source = Path(repro.__file__).resolve().parents[1]
    # The package, and the repository root for the test helpers.
    path = os.pathsep.join((str(source), str(source.parent)))
    env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", _RESOLVE], env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_outcomes_agree_across_hash_seeds():
    """Clause streams, encoding statistics and outcomes, entity by entity."""
    first, second = _resolve_under(0), _resolve_under(1)
    assert len(first) > 20
    assert any(len(outcome["suggestions"]) > 1 for outcome in first)
    assert any(outcome["statistics"][0]["clauses"] > 0 for outcome in first)
    assert first == second
