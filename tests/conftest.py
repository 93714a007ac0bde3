"""Shared fixtures: the paper's running example (Fig. 2 / Fig. 3) and small datasets."""

from __future__ import annotations

from typing import Optional

import pytest

from repro.api import ResolutionClient, RunConfig
from repro.core import (
    ConstantCFD,
    CurrencyConstraint,
    RelationSchema,
    Specification,
)
from repro.datasets import (
    CareerConfig,
    NBAConfig,
    PersonConfig,
    generate_career_dataset,
    generate_nba_dataset,
    generate_person_dataset,
)
from repro.resolution.framework import ResolverOptions


def run_client_experiment(
    dataset,
    *,
    max_interaction_rounds: int = 5,
    workers: int = 1,
    chunk_size: Optional[int] = None,
    max_inflight_chunks: Optional[int] = None,
    incremental: bool = True,
    resolver_options: Optional[ResolverOptions] = None,
    store=None,
    host=None,
    **kwargs,
):
    """Framework experiment through the public client API.

    Folds the keywords into a :class:`~repro.api.RunConfig` and runs
    :meth:`~repro.api.ResolutionClient.run_experiment`.  Remaining keyword
    arguments (``sigma_fraction``, ``limit``, ``keep_outcomes``,
    ``extra_sinks``, ``oracle_factory`` …) pass through to the client.
    """
    options = resolver_options or ResolverOptions(
        max_rounds=max_interaction_rounds,
        fallback="none",
        incremental=incremental,
    )
    config = RunConfig(
        options=options,
        workers=workers,
        chunk_size=chunk_size,
        max_inflight_chunks=max_inflight_chunks,
        store=store,
    )
    with ResolutionClient(config, host=host) as client:
        return client.run_experiment(dataset, **kwargs)


def run_client_baseline(dataset, method: str, *, workers: int = 1, seed: int = 0,
                        repetitions: int = 3, **kwargs):
    """Baseline experiment through the public client API (see above)."""
    with ResolutionClient(RunConfig(workers=max(1, workers))) as client:
        return client.run_experiment(
            dataset,
            baseline=method,
            baseline_seed=seed,
            baseline_repetitions=repetitions,
            **kwargs,
        )


@pytest.fixture(scope="session")
def vj_schema() -> RelationSchema:
    """The schema of Fig. 2 (V-J Day entities)."""
    return RelationSchema(
        "person", ["name", "status", "job", "kids", "city", "AC", "zip", "county"]
    )


@pytest.fixture(scope="session")
def vj_currency_constraints() -> list[CurrencyConstraint]:
    """The currency constraints ϕ1–ϕ8 of Fig. 3."""
    return [
        CurrencyConstraint.value_transition("status", "working", "retired", "phi1"),
        CurrencyConstraint.value_transition("status", "retired", "deceased", "phi2"),
        CurrencyConstraint.value_transition("job", "sailor", "veteran", "phi3"),
        CurrencyConstraint.monotone("kids", "phi4"),
        CurrencyConstraint.order_propagation(["status"], "job", "phi5"),
        CurrencyConstraint.order_propagation(["status"], "AC", "phi6"),
        CurrencyConstraint.order_propagation(["status"], "zip", "phi7"),
        CurrencyConstraint.order_propagation(["city", "zip"], "county", "phi8"),
    ]


@pytest.fixture(scope="session")
def vj_cfds() -> list[ConstantCFD]:
    """The constant CFDs ψ1, ψ2 of Fig. 3."""
    return [
        ConstantCFD({"AC": "213"}, "city", "LA", "psi1"),
        ConstantCFD({"AC": "212"}, "city", "NY", "psi2"),
    ]


EDITH_ROWS = [
    dict(name="Edith Shain", status="working", job="nurse", kids=0, city="NY", AC="212", zip="10036", county="Manhattan"),
    dict(name="Edith Shain", status="retired", job="n/a", kids=3, city="SFC", AC="415", zip="94924", county="Dogtown"),
    dict(name="Edith Shain", status="deceased", job="n/a", kids=None, city="LA", AC="213", zip="90058", county="Vermont"),
]

GEORGE_ROWS = [
    dict(name="George Mendonca", status="working", job="sailor", kids=0, city="Newport", AC="401", zip="02840", county="Rhode Island"),
    dict(name="George Mendonca", status="retired", job="veteran", kids=2, city="NY", AC="212", zip="12404", county="Accord"),
    dict(name="George Mendonca", status="unemployed", job="n/a", kids=2, city="Chicago", AC="312", zip="60653", county="Bronzeville"),
]

#: The true values the paper derives for Edith (Example 2).
EDITH_TRUTH = dict(
    name="Edith Shain", status="deceased", job="n/a", kids=3, city="LA", AC="213", zip="90058", county="Vermont"
)

#: The true values derived for George once the user confirms status=retired (Example 6).
GEORGE_TRUTH = dict(
    name="George Mendonca", status="retired", job="veteran", kids=2, city="NY", AC="212", zip="12404", county="Accord"
)


@pytest.fixture(scope="session")
def edith_spec(vj_schema, vj_currency_constraints, vj_cfds) -> Specification:
    """Specification of entity E1 (Edith) from Fig. 2/3."""
    return Specification.from_rows(
        vj_schema, EDITH_ROWS, vj_currency_constraints, vj_cfds, name="Edith"
    )


@pytest.fixture(scope="session")
def george_spec(vj_schema, vj_currency_constraints, vj_cfds) -> Specification:
    """Specification of entity E2 (George) from Fig. 2/3."""
    return Specification.from_rows(
        vj_schema, GEORGE_ROWS, vj_currency_constraints, vj_cfds, name="George"
    )


@pytest.fixture(scope="session")
def small_person_dataset():
    """A small Person dataset reused by dataset/evaluation tests."""
    return generate_person_dataset(PersonConfig(num_entities=8, seed=5))


@pytest.fixture(scope="session")
def small_nba_dataset():
    """A small NBA dataset reused by dataset/evaluation tests."""
    return generate_nba_dataset(NBAConfig(num_players=8, seed=5))


@pytest.fixture(scope="session")
def small_career_dataset():
    """A small CAREER dataset reused by dataset/evaluation tests."""
    return generate_career_dataset(CareerConfig(num_authors=8, seed=5))
