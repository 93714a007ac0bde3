"""Encoders solve on recycled solvers and must not notice.

Every :class:`~repro.solvers.session.ArenaSession`, and so every
:class:`~repro.encoding.incremental.IncrementalEncoder`, draws its solver
from the per-process pool of :mod:`repro.solvers.arena`; ``IsValid``,
``DeduceOrder``, ``NaiveDeduce`` and the MaxSAT probes of ``GetSug`` all run
on it.  Whatever an earlier formula left behind in a pooled solver, every
answer — verdicts, deduced orders, suggestions and the solver counters the
round reports record — must equal a fresh solver's.  Each check builds its
encoders once on a pool that hands out only fresh solvers and once on a pool
stocked with solvers dirtied by a larger, conflict-heavy formula.
"""

import random

import pytest

from repro.core import TrueValueAssignment
from repro.encoding import IncrementalEncoder
from repro.evaluation.interaction import ReluctantOracle
from repro.resolution import ConflictResolver, ResolverOptions, check_validity, deduce_order, naive_deduce
from repro.resolution.suggest import suggest
from repro.solvers import ArenaSolver, arena

from tests.solvers._cnf_reference import CNF, loaded


def dirty_solver(seed: int) -> ArenaSolver:
    """A solver that ran a 60-variable random 3-CNF near the threshold."""
    rng = random.Random(seed)
    cnf = CNF(num_variables=60)
    for _ in range(252):
        variables = rng.sample(range(1, 61), 3)
        cnf.add_clause([v if rng.random() < 0.5 else -v for v in variables])
    solver = loaded(cnf)
    solver.solve()
    assert solver.total_conflicts > 0
    return solver


@pytest.fixture(params=["nba", "career", "person"])
def entities(request):
    """``(entity, specification)`` pairs of a dataset's first four entities."""
    dataset = request.getfixturevalue(f"small_{request.param}_dataset")
    return list(dataset.specifications(limit=4))


def fresh_and_recycled(monkeypatch, compute):
    """Run *compute* on a pool of fresh solvers, then on one of dirty solvers."""
    resets = []
    reset = ArenaSolver.reset

    def counting_reset(solver):
        resets.append(solver)
        reset(solver)

    monkeypatch.setattr(ArenaSolver, "reset", counting_reset)

    # A zero-size pool keeps no solver, so every acquisition builds a new one.
    monkeypatch.setattr(arena, "_SOLVER_POOL", [])
    monkeypatch.setattr(arena, "_SOLVER_POOL_LIMIT", 0)
    fresh = compute()
    assert resets == []

    dirty = [dirty_solver(seed) for seed in range(4)]
    monkeypatch.setattr(arena, "_SOLVER_POOL", list(dirty))
    monkeypatch.setattr(arena, "_SOLVER_POOL_LIMIT", len(dirty))
    recycled = compute()
    # The dirty solvers served the calls and went back to the pool.
    assert resets and all(any(solver is d for d in dirty) for solver in resets)
    return fresh, recycled


def test_validity_reports_match(entities, monkeypatch):
    def compute():
        reports = [check_validity(IncrementalEncoder(spec)) for _entity, spec in entities]
        return [(r.valid, r.conflicts, r.decisions) for r in reports]

    fresh, recycled = fresh_and_recycled(monkeypatch, compute)
    assert recycled == fresh


def _orders(deduced):
    return deduced.orders, deduced.conflict, deduced.forced_literals, deduced.sat_calls


def test_deduce_order_matches(entities, monkeypatch):
    fresh, recycled = fresh_and_recycled(
        monkeypatch,
        lambda: [_orders(deduce_order(IncrementalEncoder(spec))) for _entity, spec in entities],
    )
    assert recycled == fresh


def test_naive_deduce_matches(entities, monkeypatch):
    fresh, recycled = fresh_and_recycled(
        monkeypatch,
        lambda: [_orders(naive_deduce(IncrementalEncoder(spec))) for _entity, spec in entities],
    )
    assert recycled == fresh
    assert all(sat_calls > 1 for *_rest, sat_calls in fresh)


def test_suggestions_match(entities, monkeypatch):
    def compute():
        suggestions = []
        for _entity, spec in entities:
            encoder = IncrementalEncoder(spec)
            suggestions.append(suggest(encoder, deduce_order(encoder), TrueValueAssignment()))
        return [
            (s.attributes, s.candidates, s.derivable_attributes, s.kept_rules, s.sat_calls)
            for s in suggestions
        ]

    fresh, recycled = fresh_and_recycled(monkeypatch, compute)
    assert recycled == fresh


@pytest.mark.parametrize("incremental", [False, True], ids=["from_scratch", "incremental"])
def test_resolution_matches(entities, monkeypatch, incremental):
    """Whole resolutions, with a fresh encoder per round or one per entity.

    The round reports are compared too, with the session counters they
    carry on the incremental path.
    """
    options = ResolverOptions(max_rounds=2, fallback="none", incremental=incremental)

    def compute():
        results = [
            ConflictResolver(options).resolve(spec, ReluctantOracle(entity, max_rounds=2))
            for entity, spec in entities
        ]
        return [
            (
                result.valid,
                result.complete,
                dict(result.true_values.values),
                [
                    (
                        report.valid,
                        report.deduced_attributes,
                        report.suggestion,
                        report.answers,
                        report.encoding_statistics,
                    )
                    for report in result.rounds
                ],
            )
            for result in results
        ]

    fresh, recycled = fresh_and_recycled(monkeypatch, compute)
    assert recycled == fresh
