"""A solver session that keeps a copy of the clause stream it receives.

:class:`~repro.encoding.incremental.IncrementalEncoder` keeps Φ only in its
solver session.  Tests that read Φ pass this session and read the clauses
back from :attr:`RecordingSession.cnf`.
"""

from repro.solvers.cnf import CNF
from repro.solvers.session import ArenaSession


class RecordingSession(ArenaSession):
    """An arena session whose clauses and variable count are also kept in :attr:`cnf`."""

    def __init__(self) -> None:
        super().__init__()
        self.cnf = CNF()

    def ensure_variables(self, count: int) -> None:
        if count > self.cnf.num_variables:
            self.cnf.num_variables = count
        super().ensure_variables(count)

    def _add_clause(self, literals) -> None:
        self.cnf.add_clause(literals)
        super()._add_clause(literals)

    def _load_clauses(self, clauses, num_variables) -> None:
        self.cnf.add_clauses(clauses)
        if num_variables > self.cnf.num_variables:
            self.cnf.num_variables = num_variables
        super()._load_clauses(clauses, num_variables)
