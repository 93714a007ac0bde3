"""Propagate-only session calls against the standalone reference propagator.

``SolverSession.propagate`` is ``DeduceOrder``'s unit propagation, run on
the clauses a session already holds.  The reference is the propagator it
replaced (``_unit_propagation_reference.py``).  Forced sets are compared only
when propagation meets no conflict: after a conflict each propagator stops
at a point that depends on its propagation order.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.solvers import ArenaSession

from tests.solvers._cnf_reference import CNF, solve
from tests.solvers._dpll_reference import DPLLSession
from tests.solvers._unit_propagation_reference import propagate_units

BACKENDS = (ArenaSession, DPLLSession)


def _session(backend, cnf):
    session = backend()
    session.load_clauses(cnf.clauses, cnf.num_variables)
    return session


def propagate(cnf, assumptions=()):
    """The (forced, conflict) pair every backend returns; they must agree."""
    outcomes = [_session(backend, cnf).propagate(assumptions) for backend in BACKENDS]
    assert all(outcome == outcomes[0] for outcome in outcomes)
    return outcomes[0]


class TestPropagation:
    def test_no_units_no_forcing(self):
        forced, conflict = propagate(CNF([[1, 2], [-1, -2]]))
        assert forced == []
        assert not conflict

    def test_chain_propagation(self):
        forced, conflict = propagate(CNF([[1], [-1, 2], [-2, 3]]))
        assert set(forced) == {1, 2, 3}
        assert not conflict

    def test_negative_literals_propagate(self):
        forced, _ = propagate(CNF([[-1], [1, 2]]))
        assert set(forced) == {-1, 2}

    def test_conflict_detected(self):
        _, conflict = propagate(CNF([[1], [-1, 2], [-2]]))
        assert conflict

    def test_empty_clause_is_conflict(self):
        cnf = CNF()
        cnf.add_clause([])
        assert propagate(cnf)[1]

    def test_extra_units_are_injected(self):
        forced, _ = propagate(CNF([[-1, 2]]), [1])
        assert set(forced) == {1, 2}

    def test_extra_units_can_conflict(self):
        assert propagate(CNF([[1]]), [-1])[1]

    def test_forced_literals_keep_their_sign(self):
        forced, _ = propagate(CNF([[3]]))
        assert 3 in forced
        assert -3 not in forced


@st.composite
def random_cnf(draw):
    num_variables = draw(st.integers(1, 7))
    num_clauses = draw(st.integers(1, 18))
    clauses = []
    for _ in range(num_clauses):
        width = draw(st.integers(1, 3))
        clauses.append(
            [
                draw(st.integers(1, num_variables)) * draw(st.sampled_from([1, -1]))
                for _ in range(width)
            ]
        )
    return CNF(clauses, num_variables=num_variables)


@given(random_cnf())
@settings(max_examples=80, deadline=None)
def test_forced_literals_hold_in_every_model(cnf):
    """Every literal forced by unit propagation is true in every model (soundness)."""
    forced, conflict = propagate(cnf)
    if conflict:
        assert not solve(cnf).satisfiable
        return
    for literal in forced:
        assert not solve(cnf, assumptions=[-literal]).satisfiable


# -- differential suite ---------------------------------------------------------------


def _literal(num_variables):
    return st.integers(1, num_variables).flatmap(
        lambda variable: st.sampled_from([variable, -variable])
    )


@st.composite
def formulas_and_calls(draw):
    """A 3-CNF over ≤ 8 variables plus ≤ 2 units, solve and propagate assumptions.

    2–5 clauses per variable straddle the satisfiability threshold, so about
    a fifth of the drawn call sequences make a CDCL session learn clauses.
    """
    num_variables = draw(st.integers(3, 8))
    literal = _literal(num_variables)
    clauses = draw(
        st.lists(
            st.lists(literal, min_size=3, max_size=3),
            min_size=2 * num_variables,
            max_size=5 * num_variables,
        )
    )
    clauses += draw(st.lists(literal.map(lambda unit: [unit]), max_size=2))
    solves = draw(st.lists(st.lists(literal, max_size=3), max_size=4))
    assumptions = draw(st.lists(literal, max_size=3))
    return CNF(clauses, num_variables=num_variables), solves, assumptions


def _models(cnf, assumptions):
    """Every total assignment satisfying *cnf* and *assumptions* (brute force)."""
    variables = range(1, cnf.num_variables + 1)
    models = []
    for values in itertools.product((False, True), repeat=cnf.num_variables):
        model = dict(zip(variables, values))
        if all(model[abs(lit)] == (lit > 0) for lit in assumptions) and cnf.evaluate(model):
            models.append(model)
    return models


@given(formulas_and_calls())
@settings(max_examples=100, deadline=None)
def test_propagate_matches_the_reference_after_every_solve(case):
    """A session forces what the reference forces, whatever it solved before.

    A solve forgets the clauses it learned, so propagation stays a function
    of the formula.  A formula a solve proves unsatisfiable outright stays
    refuted, which the reference cannot see: those stop after the first call.
    """
    cnf, solves, assumptions = case
    reference = propagate_units(cnf, assumptions)
    satisfiable = solve(cnf).satisfiable
    for backend in BACKENDS:
        session = _session(backend, cnf)
        for solve_assumptions in solves + [None]:
            forced, conflict = session.propagate(assumptions)
            assert conflict == reference.conflict
            if not conflict:
                assert set(forced) == set(reference.forced_literals)
            if solve_assumptions is None or not satisfiable:
                break
            session.solve(solve_assumptions)


@given(formulas_and_calls())
@settings(max_examples=100, deadline=None)
def test_propagate_after_learning_is_sound(case):
    """Learned clauses only add forced literals, and each holds in every model."""
    cnf, solves, assumptions = case
    reference = propagate_units(cnf, assumptions)
    models = _models(cnf, assumptions)
    for backend in BACKENDS:
        session = _session(backend, cnf)
        for solve_assumptions in solves:
            session.solve(solve_assumptions)
        forced, conflict = session.propagate(assumptions)
        if conflict:
            assert not models
            continue
        assert not reference.conflict
        assert set(forced) >= set(reference.forced_literals)
        for literal in forced:
            assert all(model[abs(literal)] == (literal > 0) for model in models)


@given(formulas_and_calls())
@settings(max_examples=100, deadline=None)
def test_propagate_leaves_a_conflict_free_solve_unchanged(case):
    """A solve without conflicts runs as on a twin session that never propagated."""
    cnf, solves, assumptions = case
    for backend in BACKENDS:
        session, twin = _session(backend, cnf), _session(backend, cnf)
        for solve_assumptions in solves:
            session.propagate(assumptions)
            ours, theirs = session.solve(solve_assumptions), twin.solve(solve_assumptions)
            if theirs.conflicts:
                break
            assert ours == theirs
            assert session.statistics() == twin.statistics()
