"""A solver session that keeps a copy of the clause stream it receives.

:class:`~repro.encoding.incremental.IncrementalEncoder` keeps Φ only in its
solver session.  Tests that read Φ pass this session and read the clauses
back from :attr:`RecordingSession.cnf`.
"""

from repro.solvers.session import ArenaSession

from tests.solvers._cnf_reference import CNF


class RecordingSession(ArenaSession):
    """An arena session whose clauses and variable count are also kept in :attr:`cnf`."""

    def __init__(self) -> None:
        super().__init__()
        self.cnf = CNF()

    def _load_clauses(self, clauses, num_variables) -> None:
        self.cnf.add_clauses(clauses)
        if num_variables > self.cnf.num_variables:
            self.cnf.num_variables = num_variables
        super()._load_clauses(clauses, num_variables)
